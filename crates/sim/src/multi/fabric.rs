//! The multi-GPU level below the device L2s, private so
//! [`MultiGpuSim`]'s parameter stays unnameable outside the crate.

use super::*;

/// Below the device L2s: the inter-GPU fabric and the home node.
pub struct Fabric {
    pub cfg: MultiGpuConfig,
    pub home: HomeNode,
    /// Fabric, device → home. Payloads are `(device, request)`; the
    /// single destination is the home node.
    pub up_net: ReliableNet<(usize, L1ToL2)>,
    /// Fabric, home → device.
    pub down_net: ReliableNet<L2ToL1>,
    /// Fabric message sizes (inter-GPU links).
    pub sizes: MsgSizes,
}

impl Fabric {
    pub fn device_stalls(&self, devices: &[Device<DeviceL2>], now: Cycle) -> Vec<DeviceStall> {
        let up_flows = self.up_net.flow_diagnostics(now);
        let down_flows = self.down_net.flow_diagnostics(now);
        devices
            .iter()
            .enumerate()
            .map(|(d, dev)| {
                let (mut expired, mut cold, mut stores) = (0, 0, 0);
                let mut grants = Vec::new();
                for bank in &dev.l2 {
                    let (e, c, s) = bank.stall_attribution();
                    expired += e;
                    cold += c;
                    stores += s;
                    grants.extend(bank.expired_grant_blocks());
                }
                grants.sort_unstable();
                let fabric_flows = up_flows
                    .iter()
                    .filter(|f| f.src == d)
                    .chain(down_flows.iter().filter(|f| f.dst == d))
                    .cloned()
                    .collect();
                DeviceStall {
                    device: d,
                    expired_grant_waits: expired,
                    cold_grant_waits: cold,
                    stores_awaiting_home: stores,
                    expired_grants: grants,
                    fabric_flows,
                }
            })
            .collect()
    }
}

impl Level for Fabric {
    type Bank = DeviceL2;
    const NAME: &'static str = "MultiGpuSim";
    const SAMPLED: bool = false;

    fn describe(&self, _gpu: &gtsc_types::GpuConfig) -> (String, String) {
        (self.cfg.label(), format!("{:?}", self.cfg))
    }

    fn bank_scope(device: usize, _bank: usize) -> Scope {
        Scope::Device(device as u16)
    }

    fn step(&mut self, devices: &mut [Device<DeviceL2>], now: Cycle) {
        // 4a. Device-L2 service and fabric egress.
        for (d, dev) in devices.iter_mut().enumerate() {
            for bank in &mut dev.l2 {
                bank.tick(now);
                while let Some(req) = bank.take_fabric_request() {
                    let bytes = self.sizes.request_bytes(&req);
                    self.up_net.send(d, 0, bytes, (d, req), now);
                }
            }
        }

        // 4b. Fabric deliveries → home node directory.
        for (_, (d, msg)) in self.up_net.tick(now) {
            self.home.on_request(d, msg, now);
        }
        self.home.tick(now);
        while let Some((d, resp)) = self.home.take_response() {
            let bytes = self.sizes.response_bytes(&resp);
            self.down_net.send(0, d, bytes, resp, now);
        }

        // 4c. Fabric deliveries → device L2 banks.
        for (d, msg) in self.down_net.tick(now) {
            let l2 = &mut devices[d].l2;
            let bank = msg.block().bank(l2.len());
            l2[bank].on_fabric_response(msg, now);
        }
    }

    /// Crashes device `d` whole: every bank's grants and in-flight
    /// transactions vanish, and all transport flows touching the device
    /// — fabric *and* on-die — are generation-reset in the same cycle,
    /// so pre-crash sequence state can never collide with the rejoined
    /// device. The crash sets `needs_reset` on every bank, folding
    /// recovery into the Section V-D global epoch bump.
    fn crash(&mut self, devices: &mut [Device<DeviceL2>], d: usize, now: Cycle) -> bool {
        // A device L2 always goes down, so every bank's flows reset.
        for b in 0..devices[d].l2.len() {
            devices[d].crash_bank(b, now);
        }
        self.up_net.reset_flows_from_src(d, now);
        self.down_net.reset_flows_to_dst(d, now);
        true
    }

    fn needs_reset(&self) -> bool {
        self.home.needs_reset()
    }

    fn apply_reset(&mut self, epoch: Epoch) {
        self.home.apply_reset(epoch);
    }

    fn is_idle(&self) -> bool {
        self.home.is_idle() && self.up_net.is_idle() && self.down_net.is_idle()
    }

    fn progress_mark(&self) -> u64 {
        self.up_net.progress_mark() + self.down_net.progress_mark()
    }

    fn add_stats(&self, stats: &mut SimStats) {
        // The home directory reports in the L2 column too — it is the
        // system's outermost shared cache level.
        let home = self.home.stats();
        stats.l2.merge(&home);
        stats.per_l2.push(home);
        stats.noc.merge(&self.up_net.stats());
        stats.noc.merge(&self.down_net.stats());
        stats.transport.merge(&self.up_net.transport_stats());
        stats.transport.merge(&self.down_net.transport_stats());
    }

    fn add_events(&self, all: &mut Vec<TraceEvent>) {
        all.extend_from_slice(self.home.tracer().events());
        all.extend(self.up_net.events());
        all.extend(self.down_net.events());
    }

    fn add_tails(&self, tails: &mut Vec<Vec<TraceEvent>>) {
        tails.push(self.home.tracer().flight_tail());
        tails.push(self.up_net.flight_tail());
        tails.push(self.down_net.flight_tail());
    }

    fn fault_stats(&self) -> Vec<FaultStats> {
        [self.up_net.fault_stats(), self.down_net.fault_stats()]
            .into_iter()
            .flatten()
            .collect()
    }

    /// The fabric nets count with the on-die ones; the per-flow view is
    /// the fabric's (device → home requests, home → device responses).
    fn diagnose(&self, devices: &[Device<DeviceL2>], now: Cycle, d: &mut StallDiagnosis) {
        d.req_net_in_flight += self.up_net.in_flight();
        d.req_net_queued += self.up_net.queued();
        d.resp_net_in_flight += self.down_net.in_flight();
        d.resp_net_queued += self.down_net.queued();
        d.transport_unacked += self.up_net.unacked() + self.down_net.unacked();
        d.req_transport_flows = self.up_net.flow_diagnostics(now);
        d.resp_transport_flows = self.down_net.flow_diagnostics(now);
        d.retransmits +=
            self.up_net.transport_stats().retransmits + self.down_net.transport_stats().retransmits;
        d.ts_rollovers = self.home.stats().ts_rollovers;
        d.devices = self.device_stalls(devices, now);
    }

    fn save(
        &self,
        devices: &[Device<DeviceL2>],
        b: &mut SnapshotBuilder,
    ) -> Result<(), SnapshotError> {
        let all = try_encode(|w| {
            save_all(w, devices, |dev, w| {
                save_all(w, &dev.sms, Sm::save_state)?;
                save_all(w, &dev.l2, |b, w| b.save_state(w))
            })
        })?;
        b.section("devices", all);
        b.section(
            "nets",
            encode(|w| devices.iter().for_each(|d| d.save_nets(w))),
        );
        b.section(
            "fabric",
            encode(|w| {
                self.up_net.save_state(w);
                self.down_net.save_state(w);
            }),
        );
        b.section("home", encode(|w| self.home.save_state(w)));
        Ok(())
    }

    fn load(
        &mut self,
        devices: &mut [Device<DeviceL2>],
        file: &SnapshotFile<'_>,
    ) -> Result<(), SnapshotError> {
        decode(file, "devices", |r| {
            load_all(r, devices, "device count", |dev, r| {
                load_all(r, &mut dev.sms, "SM count", Sm::load_state)?;
                load_all(r, &mut dev.l2, "L2 bank count", |b, r| b.load_state(r))
            })
        })?;
        decode(file, "nets", |r| {
            devices.iter_mut().try_for_each(|d| d.load_nets(r))
        })?;
        decode(file, "fabric", |r| {
            self.up_net.load_state(r)?;
            self.down_net.load_state(r)
        })?;
        decode(file, "home", |r| self.home.load_state(r))
    }
}
