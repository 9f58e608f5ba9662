//! The single-GPU level below the L2 banks, private so [`GpuSim`]'s
//! parameter stays unnameable outside the crate.

use super::*;

/// Below a single GPU's L2: one DRAM partition per bank.
pub struct Drams {
    pub drams: Vec<Dram<()>>,
}

impl Level for Drams {
    type Bank = dyn L2Controller;
    const NAME: &'static str = "GpuSim";
    const SAMPLED: bool = true;

    fn describe(&self, gpu: &GpuConfig) -> (String, String) {
        (gpu.label(), format!("{gpu:?}"))
    }

    fn bank_scope(_device: usize, bank: usize) -> Scope {
        Scope::L2Bank(bank as u16)
    }

    fn step(&mut self, devices: &mut [Device<Self::Bank>], now: Cycle) {
        let banks = devices.iter_mut().flat_map(|d| d.l2.iter_mut());
        for (bank, dram) in banks.zip(&mut self.drams) {
            bank.dram_ready(dram.can_accept());
            bank.tick(now);
            while dram.can_accept() {
                let Some((block, is_write)) = bank.take_dram_request() else {
                    break;
                };
                let accepted = dram.enqueue(DramRequest {
                    block,
                    is_write,
                    payload: (),
                });
                debug_assert!(accepted, "can_accept checked");
            }
            for resp in dram.tick(now) {
                bank.on_dram_response(resp.block, resp.is_write, now);
            }
        }
    }

    /// A scheduled bank crash (loss-fault injection): the bank's tags,
    /// MSHRs, and queues vanish mid-cycle. Its transport flows are reset
    /// on both networks in the same cycle (stale generations are
    /// discarded, so pre-crash sequence state can never collide with the
    /// rebuilt bank), and the crash forces `needs_reset`, so the Section
    /// V-D broadcast rebuilds coherence from DRAM behind a global epoch
    /// bump. Requests the bank had consumed are recovered by the L1s'
    /// end-to-end retry.
    fn crash(&mut self, devices: &mut [Device<Self::Bank>], bank: usize, now: Cycle) -> bool {
        devices[0].crash_bank(bank, now)
    }

    fn is_idle(&self) -> bool {
        self.drams.iter().all(Dram::is_idle)
    }

    fn add_stats(&self, stats: &mut SimStats) {
        for d in &self.drams {
            let s = d.stats();
            stats.dram.merge(&s);
            stats.per_dram.push(s);
        }
    }

    fn add_events(&self, all: &mut Vec<TraceEvent>) {
        for d in &self.drams {
            all.extend_from_slice(d.tracer().events());
        }
    }

    fn add_tails(&self, tails: &mut Vec<Vec<TraceEvent>>) {
        tails.extend(self.drams.iter().map(|d| d.tracer().flight_tail()));
    }

    fn fault_stats(&self) -> Vec<FaultStats> {
        self.drams.iter().filter_map(Dram::fault_stats).collect()
    }

    fn diagnose(&self, devices: &[Device<Self::Bank>], now: Cycle, d: &mut StallDiagnosis) {
        let dev = &devices[0];
        d.req_transport_flows = dev.req_net.flow_diagnostics(now);
        d.resp_transport_flows = dev.resp_net.flow_diagnostics(now);
        d.ts_rollovers = dev.l2.iter().map(|b| b.stats().ts_rollovers).sum();
        d.dram_queued = self.drams.iter().map(Dram::queued).sum();
        d.dram_in_flight = self.drams.iter().map(Dram::in_flight).sum();
    }

    fn save(
        &self,
        devices: &[Device<Self::Bank>],
        b: &mut SnapshotBuilder,
    ) -> Result<(), SnapshotError> {
        let dev = &devices[0];
        let sms = try_encode(|w| save_all(w, &dev.sms, Sm::save_state))?;
        b.section("sms", sms);
        let banks = try_encode(|w| save_all(w, &dev.l2, |b, w| b.save_state(w)))?;
        b.section("l2", banks);
        let drams = try_encode(|w| {
            save_all(w, &self.drams, |d, w| {
                d.save_state(w);
                Ok(())
            })
        })?;
        b.section("dram", drams);
        b.section("net", encode(|w| dev.save_nets(w)));
        Ok(())
    }

    fn load(
        &mut self,
        devices: &mut [Device<Self::Bank>],
        file: &SnapshotFile<'_>,
    ) -> Result<(), SnapshotError> {
        let dev = &mut devices[0];
        decode(file, "sms", |r| {
            load_all(r, &mut dev.sms, "SM count", Sm::load_state)
        })?;
        decode(file, "l2", |r| {
            load_all(r, &mut dev.l2, "L2 bank count", |b, r| b.load_state(r))
        })?;
        decode(file, "dram", |r| {
            load_all(r, &mut self.drams, "DRAM partition count", Dram::load_state)
        })?;
        decode(file, "net", |r| dev.load_nets(r))
    }
}
