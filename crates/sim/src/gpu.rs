//! The single-GPU simulator: the N = 1, DRAM-backed case of the one
//! device model (DESIGN.md §17.6). [`GpuSim`] wires `n_sms` SMs (each
//! with its private-cache controller) to `l2_banks` shared-cache banks
//! through two crossbar networks, each bank to its own DRAM partition.
//! One call to [`GpuSim::run_kernel`] steps it cycle by cycle until the
//! kernel drains: SM issue, L1 egress and request delivery; the banks
//! and their DRAM partitions; bank crashes; the Section V-D reset;
//! response egress and delivery, and cycle-reason accounting. Every
//! completed access feeds the coherence [`crate::Checker`].

use std::collections::BTreeMap;

use gtsc_faults::{FaultPlan, FaultStats};
use gtsc_gpu::{Kernel, Sm, WarpStallInfo};
use gtsc_mem::{Dram, DramRequest};
use gtsc_noc::FlowDiag;
use gtsc_protocol::msg::Epoch;
use gtsc_protocol::{ControllerPressure, L2Controller};
use gtsc_trace::{IntervalSample, Scope, SpanRecord, TraceEvent, Tracer};
use gtsc_types::snap::{SnapshotBuilder, SnapshotError, SnapshotFile};
use gtsc_types::{BlockAddr, Cycle, GpuConfig, SimStats, Version};

use crate::build::{build_l1, build_l2};
use crate::check::Violation;
use crate::machine::{decode, encode, load_all, save_all, try_encode, Device, Level, Machine};

mod dram;

/// Result of running one or more kernels.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Aggregated hardware counters.
    pub stats: SimStats,
    /// Coherence violations detected so far (empty on a correct run —
    /// except under [`gtsc_types::ProtocolKind::L1NoCoherence`] on
    /// sharing workloads, where violations are the expected evidence of
    /// incoherence).
    pub violations: Vec<Violation>,
    /// Merged flight-recorder tail captured alongside the violations,
    /// cycle-ordered (empty when tracing is off or the run was clean).
    pub trace_tail: Vec<TraceEvent>,
}

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configured cycle limit elapsed with work still pending
    /// (deadlock guard of last resort; the watchdog usually fires first).
    CycleLimit {
        /// Cycle at which the run aborted.
        at: Cycle,
        /// Warps still resident across all SMs.
        resident_warps: usize,
    },
    /// The forward-progress watchdog saw no completion, no instruction
    /// issue, and no CTA dispatch for `cfg.watchdog_cycles` consecutive
    /// cycles. The diagnosis pinpoints where work is stuck.
    Stalled {
        /// Cycle at which the watchdog fired.
        at: Cycle,
        /// Snapshot of every stalled warp, queue, and MSHR.
        diagnosis: Box<StallDiagnosis>,
    },
    /// The kernel cannot run on this configuration (e.g. a CTA wider
    /// than an SM's warp slots).
    InvalidKernel(String),
    /// The configuration itself is degenerate (e.g. zero SMs or banks).
    InvalidConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { at, resident_warps } => write!(
                f,
                "cycle limit reached at {at} with {resident_warps} warps still resident"
            ),
            SimError::Stalled { at, diagnosis } => {
                write!(f, "no forward progress detected at {at}: {diagnosis}")
            }
            SimError::InvalidKernel(msg) => write!(f, "invalid kernel: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Device-scoped slice of a [`StallDiagnosis`] in a multi-GPU run: where
/// one device's work is stuck relative to the inter-GPU fabric. The key
/// distinction it preserves is *expired inter-GPU grant* (a parked read
/// whose warp outran a grant the device still holds — coherence is
/// waiting on the home node, not on a cache resource) versus a cold
/// first acquisition or a store awaiting its home acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceStall {
    /// Device index.
    pub device: usize,
    /// Parked reads whose warp outran a still-installed inter-GPU grant.
    pub expired_grant_waits: usize,
    /// Parked reads on a block with no grant installed at all.
    pub cold_grant_waits: usize,
    /// Stores forwarded to the home node and not yet acknowledged.
    pub stores_awaiting_home: usize,
    /// The outrun grants, as `(block, grant rts)`.
    pub expired_grants: Vec<(BlockAddr, u64)>,
    /// Transport pressure on this device's fabric flows (both
    /// directions), worst first.
    pub fabric_flows: Vec<FlowDiag>,
}

impl std::fmt::Display for DeviceStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dev{}: {} read(s) stalled on expired inter-GPU grant, {} on cold grant \
             acquisition, {} store(s) awaiting home ack",
            self.device, self.expired_grant_waits, self.cold_grant_waits, self.stores_awaiting_home
        )?;
        for (block, rts) in self.expired_grants.iter().take(4) {
            write!(f, "\n    grant expired: {block} rts {rts}")?;
        }
        for d in self.fabric_flows.iter().take(4) {
            write!(f, "\n    fabric {d}")?;
        }
        Ok(())
    }
}

/// Structured explanation of a loss of forward progress, produced by the
/// watchdog when it aborts a run via [`SimError::Stalled`]. Everything is
/// a point-in-time snapshot taken at the abort cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallDiagnosis {
    /// Consecutive cycles without any completion, issue, or dispatch.
    pub stalled_for: u64,
    /// Warps still resident across all SMs.
    pub resident_warps: usize,
    /// Every stalled warp, tagged with its SM index.
    pub warps: Vec<(usize, WarpStallInfo)>,
    /// Per-SM private-cache occupancy (MSHRs, outgoing queue, acks).
    pub l1: Vec<ControllerPressure>,
    /// Per-bank shared-cache occupancy.
    pub l2: Vec<ControllerPressure>,
    /// Packets on the request network's wires.
    pub req_net_in_flight: usize,
    /// Flits waiting at request-network injection ports.
    pub req_net_queued: usize,
    /// Packets on the response network's wires.
    pub resp_net_in_flight: usize,
    /// Flits waiting at response-network injection ports.
    pub resp_net_queued: usize,
    /// Data segments sent but not yet cumulatively acked, across both
    /// networks (zero unless the reliable-transport layer is armed).
    pub transport_unacked: usize,
    /// Per-flow transport pressure on the request network (SM → bank):
    /// pending-retransmit queue depth and oldest-unacked age, worst
    /// (oldest) first.
    pub req_transport_flows: Vec<FlowDiag>,
    /// Same for the response network (bank → SM).
    pub resp_transport_flows: Vec<FlowDiag>,
    /// Retransmissions performed so far (timeout- plus NACK-driven).
    pub retransmits: u64,
    /// Requests waiting in DRAM controller queues (all partitions).
    pub dram_queued: usize,
    /// Requests being serviced by DRAM banks (all partitions).
    pub dram_in_flight: usize,
    /// Timestamp-reset epoch at the abort cycle (Section V-D).
    pub epoch: Epoch,
    /// Global rollovers performed so far.
    pub ts_rollovers: u64,
    /// Per-device fabric-facing stall attribution (empty on a
    /// single-GPU machine, one entry per device under `MultiGpuSim`).
    pub devices: Vec<DeviceStall>,
    /// Merged flight-recorder tail across every component, oldest first
    /// (empty unless tracing was enabled — see
    /// [`gtsc_types::TraceConfig`]).
    pub recent_events: Vec<TraceEvent>,
}

impl std::fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} warps resident, no progress for {} cycles (epoch {}, {} rollovers)",
            self.resident_warps, self.stalled_for, self.epoch, self.ts_rollovers
        )?;
        for (sm, w) in &self.warps {
            writeln!(f, "  sm{sm}: {w}")?;
        }
        for (i, p) in self.l1.iter().enumerate() {
            if !p.is_empty() {
                writeln!(f, "  l1[{i}]: {p}")?;
            }
        }
        for (i, p) in self.l2.iter().enumerate() {
            if !p.is_empty() {
                writeln!(f, "  l2[{i}]: {p}")?;
            }
        }
        writeln!(
            f,
            "  noc: req {} in flight / {} queued, resp {} in flight / {} queued",
            self.req_net_in_flight,
            self.req_net_queued,
            self.resp_net_in_flight,
            self.resp_net_queued
        )?;
        if self.transport_unacked > 0 || self.retransmits > 0 {
            writeln!(
                f,
                "  transport: {} unacked, {} retransmits so far",
                self.transport_unacked, self.retransmits
            )?;
            for d in self.req_transport_flows.iter().take(4) {
                writeln!(f, "    req {d}")?;
            }
            for d in self.resp_transport_flows.iter().take(4) {
                writeln!(f, "    resp {d}")?;
            }
        }
        write!(
            f,
            "  dram: {} queued, {} in service",
            self.dram_queued, self.dram_in_flight
        )?;
        for d in &self.devices {
            write!(f, "\n  {d}")?;
        }
        if !self.recent_events.is_empty() {
            let shown = self.recent_events.len().min(16);
            let tail = &self.recent_events[self.recent_events.len() - shown..];
            write!(f, "\n  last {shown} trace events:")?;
            for e in tail {
                write!(f, "\n    {e}")?;
            }
        }
        Ok(())
    }
}

/// Resumable dispatch state of one in-flight kernel: everything
/// [`GpuSim::advance_kernel`] needs between slices that is not part of
/// the machine itself — the CTA dispatch cursor, the round-robin SM
/// cursor, and the forward-progress watchdog's fingerprint. Snapshot it
/// alongside the [`GpuSim`] (via [`GpuSim::save_snapshot`]) to checkpoint
/// a run mid-kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProgress {
    /// Identity of the kernel this progress belongs to; resuming with a
    /// different kernel is rejected.
    pub(crate) kernel_name: String,
    pub(crate) n_ctas: usize,
    pub(crate) warps_per_cta: usize,
    /// Next CTA to dispatch.
    pub(crate) next_cta: usize,
    /// Round-robin dispatch cursor across SMs.
    pub(crate) sm_cursor: usize,
    /// Forward-progress watchdog fingerprint: moves whenever the machine
    /// does useful work (completions, issues, dispatch, retirement,
    /// transport progress). Seeded with sentinels so the first cycle of
    /// a fresh run always registers progress.
    pub(crate) last_fingerprint: (u64, u64, usize, usize, u64),
    /// Cycle at which the fingerprint last moved.
    pub(crate) last_progress: Cycle,
}

impl KernelProgress {
    /// Fresh progress for `kernel` (nothing dispatched yet).
    #[must_use]
    pub fn new(kernel: &dyn Kernel) -> Self {
        KernelProgress {
            kernel_name: kernel.name().to_owned(),
            n_ctas: kernel.n_ctas(),
            warps_per_cta: kernel.warps_per_cta(),
            next_cta: 0,
            sm_cursor: 0,
            last_fingerprint: (0, 0, usize::MAX, usize::MAX, u64::MAX),
            last_progress: Cycle(0),
        }
    }

    /// CTAs dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> usize {
        self.next_cta
    }

    /// Whether every CTA of the grid has been dispatched (warps may
    /// still be resident).
    #[must_use]
    pub fn fully_dispatched(&self) -> bool {
        self.next_cta == self.n_ctas
    }

    /// Whether `kernel` is the kernel this progress was created for.
    #[must_use]
    pub fn matches(&self, kernel: &dyn Kernel) -> bool {
        self.kernel_name == kernel.name()
            && self.n_ctas == kernel.n_ctas()
            && self.warps_per_cta == kernel.warps_per_cta()
    }
}

gtsc_types::snap_fields!(KernelProgress {
    kernel_name,
    n_ctas,
    warps_per_cta,
    next_cta,
    sm_cursor,
    last_fingerprint,
    last_progress,
});

/// The assembled GPU: one device over DRAM partitions, with L2-bank
/// crashes as its crash schedule — the N = 1 case of the machine model
/// [`MultiGpuSim`](crate::MultiGpuSim) shares.
pub type GpuSim = Machine<dram::Drams>;

/// Assembles a [`GpuSim`] with optionally overridden cache controllers —
/// the extension point for plugging a *new* coherence protocol into the
/// unchanged GPU/NoC/DRAM substrate (see `examples/custom_protocol.rs`).
///
/// # Examples
///
/// ```
/// use gtsc_sim::SimBuilder;
/// use gtsc_types::GpuConfig;
///
/// // Defaults reproduce GpuSim::new(cfg).
/// let sim = SimBuilder::new(GpuConfig::test_small()).build();
/// assert_eq!(sim.now().0, 0);
/// ```
pub struct SimBuilder {
    cfg: GpuConfig,
    l1_factory: L1Factory,
    l2_factory: L2Factory,
}

/// Factory producing one private-cache controller per SM.
type L1Factory = Box<dyn Fn(&GpuConfig, usize) -> Box<dyn gtsc_protocol::L1Controller>>;
/// Factory producing one shared-cache bank controller.
type L2Factory = Box<dyn Fn(&GpuConfig) -> Box<dyn L2Controller>>;

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("config", &self.cfg.label())
            .finish_non_exhaustive()
    }
}

impl SimBuilder {
    /// Starts from `cfg` with the protocol selected by `cfg.protocol`.
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        SimBuilder {
            cfg,
            l1_factory: Box::new(|cfg, i| build_l1(cfg, i)),
            l2_factory: Box::new(build_l2),
        }
    }

    /// Overrides the private-cache controller (called once per SM with
    /// the SM index).
    #[must_use]
    pub fn with_l1(
        mut self,
        factory: impl Fn(&GpuConfig, usize) -> Box<dyn gtsc_protocol::L1Controller> + 'static,
    ) -> Self {
        self.l1_factory = Box::new(factory);
        self
    }

    /// Overrides the shared-cache bank controller (called once per bank).
    #[must_use]
    pub fn with_l2(
        mut self,
        factory: impl Fn(&GpuConfig) -> Box<dyn L2Controller> + 'static,
    ) -> Self {
        self.l2_factory = Box::new(factory);
        self
    }

    /// Assembles the GPU.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate (zero SMs or banks); use
    /// [`SimBuilder::try_build`] for a structured error instead.
    #[must_use]
    pub fn build(self) -> GpuSim {
        // lint: allow(panic): the documented infallible shorthand.
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assembles the GPU, validating the configuration. Also installs the
    /// fault plan derived from `cfg.faults`: request network = NoC
    /// streams 0 (data) and 2 (transport control), response network =
    /// streams 1 and 3, one DRAM stream per partition, per-bank crash
    /// schedules, and the timestamp-width cap applied before the L2
    /// banks are built. When any loss fault is enabled
    /// ([`gtsc_types::FaultConfig::lossy_active`]) the networks' reliable
    /// transport and the L1s' end-to-end retry are armed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config is degenerate
    /// (zero SMs or banks).
    pub fn try_build(self) -> Result<GpuSim, SimError> {
        let mut cfg = self.cfg;
        if cfg.n_sms == 0 || cfg.l2_banks == 0 {
            return Err(SimError::InvalidConfig(format!(
                "config must have SMs and banks (n_sms={}, l2_banks={})",
                cfg.n_sms, cfg.l2_banks
            )));
        }
        let plan = FaultPlan::new(cfg.faults);
        // The rollover-storm knob narrows the timestamp width before the
        // banks (and message sizes) are derived from it.
        cfg.ts_bits = plan.effective_ts_bits(cfg.ts_bits);
        let device = Device::new(
            &cfg,
            0,
            cfg.faults,
            cfg.faults.lossy_active(),
            &*self.l1_factory,
            || (self.l2_factory)(&cfg),
        );
        let drams = (0..cfg.l2_banks)
            .map(|i| {
                let mut dram = Dram::new(cfg.dram);
                dram.set_faults(plan.dram(i as u64));
                if cfg.trace.is_enabled() {
                    dram.set_tracer(Tracer::new(Scope::Dram(i as u16), &cfg.trace));
                }
                dram
            })
            .collect();
        let crashes = (0..cfg.l2_banks)
            .map(|b| plan.bank(b as u64, cfg.l2_banks as u64))
            .collect();
        Ok(Machine::assemble(
            cfg.clone(),
            vec![device],
            dram::Drams { drams },
            crashes,
        ))
    }
}

impl GpuSim {
    /// Assembles a GPU per `cfg` (shorthand for
    /// [`SimBuilder::new`]`(cfg).build()`).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is degenerate (zero SMs or banks).
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        SimBuilder::new(cfg).build()
    }

    /// The configuration this GPU was built with.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Runs several kernels back to back (private caches flushed between).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] encountered.
    pub fn run_kernels(&mut self, kernels: &[&dyn Kernel]) -> Result<RunReport, SimError> {
        let mut last = None;
        for k in kernels {
            last = Some(self.run_kernel(*k)?);
        }
        Ok(last.unwrap_or_else(|| self.report()))
    }

    /// The retained causal-span records (empty unless
    /// [`gtsc_types::TraceConfig::spans_enabled`]). Hits open and close
    /// in the same cycle; in-flight spans are not included.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.spans()
    }

    /// Sampled spans dropped by the retention cap (deterministic
    /// first-N retention keeps the kept set stable across runs).
    #[must_use]
    pub fn spans_suppressed(&self) -> u64 {
        self.spans.suppressed()
    }

    /// The interval sampler's time-series (empty unless
    /// [`gtsc_types::TraceConfig::sample_interval`] is set and tracing is
    /// enabled).
    #[must_use]
    pub fn samples(&self) -> &[IntervalSample] {
        self.sampler.samples()
    }

    /// The full event log and time-series as Chrome `trace_event` JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        gtsc_trace::to_chrome_trace(&self.trace_events(), self.samples())
    }

    /// The functional memory image across all banks (for cross-protocol
    /// equivalence tests on data-race-free workloads).
    #[must_use]
    pub fn memory_image(&self) -> BTreeMap<BlockAddr, Version> {
        let banks = self.devices.iter().flat_map(|d| &d.l2);
        banks.flat_map(|bank| bank.memory_image()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
    use gtsc_types::{Addr, ConsistencyModel, ProtocolKind};

    fn store_load_kernel() -> VecKernel {
        VecKernel::new(
            "roundtrip",
            1,
            vec![vec![WarpProgram(vec![
                WarpOp::store_coalesced(Addr(0), 32),
                WarpOp::Fence,
                WarpOp::load_coalesced(Addr(0), 32),
                WarpOp::load_coalesced(Addr(4096), 32),
            ])]],
        )
    }

    #[test]
    fn roundtrip_completes_on_every_protocol_and_model() {
        for p in [
            ProtocolKind::Gtsc,
            ProtocolKind::Tc,
            ProtocolKind::TcWeak,
            ProtocolKind::NoL1,
            ProtocolKind::L1NoCoherence,
        ] {
            for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
                let cfg = GpuConfig::test_small().with_protocol(p).with_consistency(m);
                let mut sim = GpuSim::new(cfg);
                let report = sim
                    .run_kernel(&store_load_kernel())
                    .unwrap_or_else(|e| panic!("{p:?}/{m:?}: {e}"));
                assert!(report.stats.cycles.0 > 0);
                assert!(
                    report.violations.is_empty(),
                    "{p:?}/{m:?}: {:?}",
                    report.violations
                );
                assert!(report.stats.sm.issued >= 3);
            }
        }
    }

    #[test]
    fn producer_consumer_across_ctas_is_coherent_under_gtsc() {
        // CTA0 stores DATA then FLAG; CTA1 spins.. simplified: loads FLAG
        // then DATA (no spin — timing may read early values, but never
        // incoherent ones; the checker validates timestamp ordering).
        let kernel = VecKernel::new(
            "prodcons",
            1,
            vec![
                vec![WarpProgram(vec![
                    WarpOp::store_coalesced(Addr(0), 32),
                    WarpOp::Fence,
                    WarpOp::store_coalesced(Addr(128), 32),
                ])],
                vec![WarpProgram(vec![
                    WarpOp::load_coalesced(Addr(128), 32),
                    WarpOp::Fence,
                    WarpOp::load_coalesced(Addr(0), 32),
                    WarpOp::Compute(5),
                    WarpOp::load_coalesced(Addr(128), 32),
                    WarpOp::Fence,
                    WarpOp::load_coalesced(Addr(0), 32),
                ])],
            ],
        );
        for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
            let cfg = GpuConfig::test_small()
                .with_protocol(ProtocolKind::Gtsc)
                .with_consistency(m);
            let mut sim = GpuSim::new(cfg);
            let report = sim.run_kernel(&kernel).expect("completes");
            assert!(
                report.violations.is_empty(),
                "{m:?}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn contended_block_many_warps() {
        // 4 warps in 2 CTAs hammer the same block with stores and loads;
        // the checker must stay satisfied (G-TSC serializes via wts).
        let prog = |seed: u64| {
            WarpProgram(
                (0..10)
                    .flat_map(|i| {
                        let op = if (i + seed).is_multiple_of(3) {
                            WarpOp::store_coalesced(Addr(0), 32)
                        } else {
                            WarpOp::load_coalesced(Addr(0), 32)
                        };
                        [op, WarpOp::Compute(1 + (seed as u32) % 3)]
                    })
                    .collect(),
            )
        };
        let kernel = VecKernel::new(
            "contend",
            2,
            vec![vec![prog(0), prog(1)], vec![prog(2), prog(3)]],
        );
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.l2.stores > 0);
    }

    #[test]
    fn more_ctas_than_slots_drain_in_waves() {
        let prog = WarpProgram(vec![
            WarpOp::load_coalesced(Addr(0), 32),
            WarpOp::Compute(2),
        ]);
        let ctas = (0..16).map(|_| vec![prog.clone()]).collect();
        let kernel = VecKernel::new("waves", 1, ctas);
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("completes");
        // 16 CTAs × 2 instructions each.
        assert_eq!(report.stats.sm.issued, 32);
    }

    #[test]
    fn multi_kernel_flushes_between() {
        let k = store_load_kernel();
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        let r1 = sim.run_kernel(&k).expect("k1");
        let cold_after_one = r1.stats.l1.cold_misses;
        let r2 = sim.run_kernel(&k).expect("k2");
        // The second kernel misses cold again (flush between kernels).
        assert!(r2.stats.l1.cold_misses >= 2 * cold_after_one);
        assert!(r2.violations.is_empty());
    }

    #[test]
    fn memory_image_reflects_final_stores() {
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        let img = sim.memory_image();
        assert!(img.contains_key(&BlockAddr(0)));
        assert_ne!(img[&BlockAddr(0)], Version::ZERO);
    }

    #[test]
    fn sim_builder_injects_custom_controllers() {
        // A "counting" L1 factory around the real builder, proving the
        // factory is consulted once per SM.
        use std::cell::Cell;
        use std::rc::Rc;
        let calls = Rc::new(Cell::new(0usize));
        let calls2 = calls.clone();
        let cfg = GpuConfig::test_small();
        let _sim = crate::SimBuilder::new(cfg)
            .with_l1(move |cfg, i| {
                calls2.set(calls2.get() + 1);
                crate::build_l1(cfg, i)
            })
            .build();
        assert_eq!(calls.get(), GpuConfig::test_small().n_sms);
    }

    #[test]
    fn cta_dispatch_spreads_over_sms() {
        // 2 single-warp CTAs on a 2-SM GPU: both SMs issue work.
        let prog = WarpProgram(vec![
            WarpOp::Compute(3),
            WarpOp::load_coalesced(Addr(0), 32),
        ]);
        let kernel = VecKernel::new("spread", 1, vec![vec![prog.clone()], vec![prog]]);
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&kernel).expect("completes");
        for sm in &sim.devices[0].sms {
            assert!(sm.stats().issued > 0, "both SMs should have issued");
        }
    }

    #[test]
    fn latency_histogram_is_populated() {
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&store_load_kernel()).expect("completes");
        assert!(report.stats.sm.mem_latency.count() > 0);
        // A queued miss must take at least the NoC round trip.
        assert!(report.stats.sm.mem_latency.percentile(0.99) >= 32.0);
    }

    #[test]
    fn watchdog_fires_with_diagnosis_on_starved_dram() {
        use gtsc_types::StallKind;
        // DRAM that effectively never answers: the lone load wedges the
        // whole machine. The watchdog must abort far before max_cycles
        // and name the stuck warp and the queues holding its request.
        let mut cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 2_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::Stalled { at, diagnosis }) => {
                assert!(at.0 < 10_000, "fired well before the cycle limit (at {at})");
                assert!(diagnosis.stalled_for >= 2_000);
                assert_eq!(diagnosis.resident_warps, 1);
                assert!(
                    diagnosis
                        .warps
                        .iter()
                        .any(|(_, w)| w.stall == StallKind::Memory),
                    "{diagnosis}"
                );
                assert!(diagnosis.l1.iter().any(|p| p.mshr > 0), "{diagnosis}");
                assert!(diagnosis.l2.iter().any(|p| p.mshr > 0), "{diagnosis}");
                assert!(
                    diagnosis.dram_queued + diagnosis.dram_in_flight > 0,
                    "{diagnosis}"
                );
                let text = diagnosis.to_string();
                assert!(text.contains("stalled on Memory"), "{text}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_disabled_falls_through_to_cycle_limit() {
        let mut cfg = GpuConfig::test_small();
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 0;
        cfg.max_cycles = 3_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        assert!(matches!(
            sim.run_kernel(&kernel),
            Err(SimError::CycleLimit { .. })
        ));
    }

    #[test]
    fn try_build_rejects_degenerate_config() {
        let mut cfg = GpuConfig::test_small();
        cfg.n_sms = 0;
        match SimBuilder::new(cfg).try_build() {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("n_sms=0"), "{msg}"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn oversized_cta_is_a_structured_error() {
        let cfg = GpuConfig::test_small();
        let warps = cfg.warps_per_sm + 1;
        let kernel = VecKernel::new(
            "wide",
            warps,
            vec![(0..warps)
                .map(|_| WarpProgram(vec![WarpOp::Compute(1)]))
                .collect()],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::InvalidKernel(msg)) => assert!(msg.contains("wide"), "{msg}"),
            other => panic!("expected InvalidKernel, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn traced_stall_diagnosis_carries_flight_recorder_tail() {
        use gtsc_types::TraceConfig;
        // Same starved-DRAM wedge as above, but with the flight recorder
        // on: the diagnosis must carry (and render) the event tail that
        // led up to the stall.
        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_trace(TraceConfig::flight());
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 2_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::Stalled { diagnosis, .. }) => {
                assert!(!diagnosis.recent_events.is_empty());
                // The wedged load's trail is visible: cold miss at the L1,
                // packet into the request net, enqueue at DRAM.
                let kinds: Vec<_> = diagnosis
                    .recent_events
                    .iter()
                    .map(|e| e.kind.name())
                    .collect();
                assert!(kinds.contains(&"cold_miss"), "{kinds:?}");
                assert!(kinds.contains(&"dram_enqueue"), "{kinds:?}");
                let text = diagnosis.to_string();
                assert!(text.contains("last 16 trace events:"), "{text}");
                // The rendered tail is the most recent activity: the
                // wedged warp's stall, cycle after cycle.
                assert!(text.contains("stall"), "{text}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn untraced_stall_diagnosis_has_no_event_tail() {
        let mut cfg = GpuConfig::test_small();
        cfg.dram.row_hit = 50_000_000;
        cfg.dram.row_miss = 50_000_000;
        cfg.watchdog_cycles = 2_000;
        let kernel = VecKernel::new(
            "starved",
            1,
            vec![vec![WarpProgram(vec![WarpOp::load_coalesced(Addr(0), 32)])]],
        );
        let mut sim = GpuSim::new(cfg);
        match sim.run_kernel(&kernel) {
            Err(SimError::Stalled { diagnosis, .. }) => {
                assert!(diagnosis.recent_events.is_empty());
                assert!(!diagnosis.to_string().contains("trace events"));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn full_trace_records_protocol_lifecycle_and_exports_chrome_json() {
        use gtsc_types::TraceConfig;
        let cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_trace(TraceConfig::full());
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        let events = sim.trace_events();
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        let kinds: Vec<_> = events.iter().map(|e| e.kind.name()).collect();
        for needed in [
            "warp_issue",
            "cold_miss",
            "lease_grant",
            "store_commit",
            "fill_applied",
            "packet_send",
            "packet_deliver",
            "dram_service",
        ] {
            assert!(kinds.contains(&needed), "missing {needed} in {kinds:?}");
        }
        let json = sim.chrome_trace();
        assert!(json.starts_with('{'), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.ends_with('}'), "{json}");
    }

    #[test]
    fn interval_sampler_covers_the_whole_run() {
        use gtsc_types::TraceConfig;
        let cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_trace(TraceConfig::full().with_interval(64));
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&store_load_kernel()).expect("completes");
        let samples = sim.samples();
        assert!(!samples.is_empty());
        // Contiguous coverage from 0 to the final cycle...
        assert_eq!(samples[0].start, Cycle(0));
        assert!(samples.windows(2).all(|w| w[0].end == w[1].start));
        // ...whose deltas sum back to the cumulative totals.
        let issued: u64 = samples.iter().map(|s| s.delta.sm.issued).sum();
        assert_eq!(issued, report.stats.sm.issued);
        let flits: u64 = samples.iter().map(|s| s.delta.noc.flits).sum();
        assert_eq!(flits, report.stats.noc.flits);
    }

    #[test]
    fn report_exposes_per_component_stats_summing_to_totals() {
        let cfg = GpuConfig::test_small();
        let n_sms = cfg.n_sms;
        let banks = cfg.l2_banks;
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&store_load_kernel()).expect("completes");
        let s = &report.stats;
        assert_eq!(s.per_sm.len(), n_sms);
        assert_eq!(s.per_l1.len(), n_sms);
        assert_eq!(s.per_l2.len(), banks);
        assert_eq!(s.per_dram.len(), banks);
        assert_eq!(s.per_sm.iter().map(|x| x.issued).sum::<u64>(), s.sm.issued);
        assert_eq!(
            s.per_l1.iter().map(|x| x.accesses).sum::<u64>(),
            s.l1.accesses
        );
        assert_eq!(s.per_l2.iter().map(|x| x.stores).sum::<u64>(), s.l2.stores);
        assert_eq!(
            s.per_dram.iter().map(|x| x.reads).sum::<u64>(),
            s.dram.reads
        );
    }

    #[test]
    fn sanitized_run_is_clean_and_checks_transitions() {
        for p in [ProtocolKind::Gtsc, ProtocolKind::Tc] {
            for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
                let cfg = GpuConfig::test_small()
                    .with_protocol(p)
                    .with_consistency(m)
                    .with_sanitize(true);
                let mut sim = GpuSim::new(cfg);
                let report = sim
                    .run_kernel(&store_load_kernel())
                    .unwrap_or_else(|e| panic!("{p:?}/{m:?}: {e}"));
                assert!(
                    report.violations.is_empty(),
                    "{p:?}/{m:?}: {:?}",
                    report.violations
                );
                assert!(
                    sim.sanitizer().checked() > 0,
                    "{p:?}/{m:?}: sanitizer saw no transitions"
                );
            }
        }
    }

    #[test]
    fn unsanitized_run_keeps_sanitizer_disabled() {
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        assert!(!sim.sanitizer().is_enabled());
        assert_eq!(sim.sanitizer().checked(), 0);
    }

    /// Data-race-free traffic generator: each CTA stores to its own
    /// blocks then reads them back, with enough packets on the wire that
    /// a seeded loss plan reliably bites.
    fn drf_traffic_kernel(n_ctas: usize) -> VecKernel {
        let ctas = (0..n_ctas)
            .map(|c| {
                let base = (c as u64) * 1024;
                vec![WarpProgram(
                    (0..6)
                        .flat_map(|i| {
                            [
                                WarpOp::store_coalesced(Addr(base + i * 128), 32),
                                WarpOp::Fence,
                                WarpOp::load_coalesced(Addr(base + i * 128), 32),
                            ]
                        })
                        .collect(),
                )]
            })
            .collect();
        VecKernel::new("drf-traffic", 1, ctas)
    }

    #[test]
    fn fault_free_run_keeps_transport_dark() {
        use gtsc_types::TransportStats;
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&store_load_kernel()).expect("completes");
        assert_eq!(report.stats.transport, TransportStats::default());
        assert!(sim.fault_stats().is_none());
    }

    #[test]
    fn lossy_noc_preserves_coherence_and_memory_image() {
        use gtsc_types::FaultConfig;
        let kernel = drf_traffic_kernel(6);
        let mut clean = GpuSim::new(GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc));
        clean.run_kernel(&kernel).expect("clean run");
        let want = clean.memory_image();

        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_sanitize(true);
        cfg.faults = FaultConfig::lossy(7, 100);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("lossy run completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(sim.memory_image(), want, "image must match fault-free run");
        let t = &report.stats.transport;
        assert!(t.delivered > 0, "{t:?}");
        let f = sim.fault_stats().expect("faults active");
        assert!(
            f.dropped + f.corrupted > 0,
            "10% loss over this much traffic must bite: {f:?}"
        );
        assert!(
            t.retransmits > 0 && t.acks > 0,
            "every loss must be repaired by a retransmit: {t:?}"
        );
    }

    #[test]
    fn bank_crash_recovers_behind_epoch_bump() {
        use gtsc_types::FaultConfig;
        let kernel = drf_traffic_kernel(8);
        let mut clean = GpuSim::new(GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc));
        clean.run_kernel(&kernel).expect("clean run");
        let want = clean.memory_image();

        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_sanitize(true);
        cfg.faults = FaultConfig::default().with_bank_crashes(3, 250);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("crashed run recovers");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let t = &report.stats.transport;
        assert!(t.bank_recoveries >= 1, "{t:?}");
        assert!(
            report.stats.l2.ts_rollovers >= 1,
            "a crash must force the global Section V-D reset"
        );
        assert_eq!(sim.memory_image(), want, "data survives the crash via DRAM");
        let f = sim.fault_stats().expect("bank faults active");
        assert!(f.bank_resets >= 1, "{f:?}");
    }

    #[test]
    fn advance_kernel_in_slices_matches_run_kernel() {
        // Slicing the run loop must be invisible: any budget sequence
        // yields the stats of one uninterrupted run.
        let kernel = drf_traffic_kernel(6);
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut whole = GpuSim::new(cfg.clone());
        let want = whole.run_kernel(&kernel).expect("whole run");

        let mut sliced = GpuSim::new(cfg);
        let mut progress = KernelProgress::new(&kernel);
        let mut report = None;
        for _ in 0..100_000 {
            if let Some(r) = sliced
                .advance_kernel(&kernel, &mut progress, 37)
                .expect("slice")
            {
                report = Some(r);
                break;
            }
        }
        let got = report.expect("sliced run completes");
        assert_eq!(got.stats, want.stats);
        assert_eq!(sliced.memory_image(), whole.memory_image());
    }

    #[test]
    fn advance_kernel_rejects_foreign_progress() {
        let cfg = GpuConfig::test_small();
        let mut sim = GpuSim::new(cfg);
        let mut progress = KernelProgress::new(&store_load_kernel());
        let other = drf_traffic_kernel(2);
        match sim.advance_kernel(&other, &mut progress, 10) {
            Err(SimError::InvalidKernel(msg)) => {
                assert!(msg.contains("cannot resume"), "{msg}");
            }
            other => panic!("expected InvalidKernel, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn mid_kernel_snapshot_resumes_byte_identically_under_faults() {
        use gtsc_types::FaultConfig;
        // The flagship determinism property: checkpoint at cycle N,
        // restore into a fresh build, continue — and get the SimStats
        // and memory image of the uninterrupted run, with a lossy NoC
        // and bank crashes active across the checkpoint.
        let kernel = drf_traffic_kernel(8);
        let mut cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        cfg.faults = FaultConfig::lossy(42, 80).with_bank_crashes(2, 400);

        let mut whole = GpuSim::new(cfg.clone());
        let want = whole.run_kernel(&kernel).expect("uninterrupted run");

        // Run half-interrupted: slice, snapshot mid-flight, abandon the
        // original machine, restore, finish.
        let mut first = GpuSim::new(cfg.clone());
        let mut progress = KernelProgress::new(&kernel);
        let parked = first
            .advance_kernel(&kernel, &mut progress, 300)
            .expect("first slice");
        assert!(parked.is_none(), "300 cycles must not drain this kernel");
        let snap = first.save_snapshot(Some(&progress)).expect("snapshot");
        drop(first);

        let mut resumed = SimBuilder::new(cfg).try_build().expect("rebuild");
        let mut progress2 = resumed
            .restore_snapshot(&snap)
            .expect("restore")
            .expect("mid-kernel snapshot carries progress");
        assert_eq!(progress2, progress);
        // A snapshot of the restored machine is byte-identical to the
        // original snapshot (save → restore → save stability).
        let snap2 = resumed
            .save_snapshot(Some(&progress2))
            .expect("re-snapshot");
        assert_eq!(snap, snap2, "restored state must re-serialize identically");
        let mut report = None;
        for _ in 0..100_000 {
            if let Some(r) = resumed
                .advance_kernel(&kernel, &mut progress2, 111)
                .expect("resumed slice")
            {
                report = Some(r);
                break;
            }
        }
        let got = report.expect("resumed run completes");
        assert_eq!(got.stats, want.stats);
        assert!(got.violations.is_empty(), "{:?}", got.violations);
        assert_eq!(resumed.memory_image(), whole.memory_image());
    }

    #[test]
    fn snapshot_corruption_is_an_error_never_a_panic() {
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg.clone());
        sim.run_kernel(&store_load_kernel()).expect("completes");
        let snap = sim.save_snapshot(None).expect("snapshot");

        // Truncation at every eighth boundary and a bit flip in every
        // 97th byte: all must fail cleanly.
        for cut in (0..8).map(|i| snap.len() * i / 8) {
            let mut fresh = SimBuilder::new(cfg.clone()).try_build().expect("build");
            assert!(fresh.restore_snapshot(&snap[..cut]).is_err());
        }
        for i in (0..snap.len()).step_by(97) {
            let mut bad = snap.clone();
            bad[i] ^= 0x40;
            let mut fresh = SimBuilder::new(cfg.clone()).try_build().expect("build");
            assert!(
                fresh.restore_snapshot(&bad).is_err(),
                "bit flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn snapshot_config_mismatch_is_rejected() {
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        let snap = sim.save_snapshot(None).expect("snapshot");
        let mut other_cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Gtsc);
        other_cfg.warps_per_sm += 1;
        let mut other = SimBuilder::new(other_cfg).try_build().expect("build");
        match other.restore_snapshot(&snap) {
            Err(gtsc_types::snap::SnapshotError::Mismatch { what }) => {
                assert!(what.contains("fingerprint"), "{what}");
            }
            other => panic!("expected Mismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn baseline_protocols_report_unsupported_snapshot() {
        let cfg = GpuConfig::test_small().with_protocol(ProtocolKind::Tc);
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel(&store_load_kernel()).expect("completes");
        match sim.save_snapshot(None) {
            Err(gtsc_types::snap::SnapshotError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rollover_under_tiny_timestamps_stays_coherent() {
        // 6-bit timestamps force frequent rollovers; the Section V-D
        // protocol must keep the run coherent — with the transition
        // sanitizer watching every epoch entry and lease grant.
        let mut cfg = GpuConfig::test_small()
            .with_protocol(ProtocolKind::Gtsc)
            .with_sanitize(true);
        cfg.ts_bits = 6;
        let prog = |s: u64| {
            WarpProgram(
                (0..30)
                    .map(|i| {
                        if (i + s).is_multiple_of(4) {
                            WarpOp::store_coalesced(Addr((i % 3) * 128), 32)
                        } else {
                            WarpOp::load_coalesced(Addr((i % 3) * 128), 32)
                        }
                    })
                    .collect(),
            )
        };
        let kernel = VecKernel::new("rollover", 1, vec![vec![prog(0)], vec![prog(1)]]);
        let mut sim = GpuSim::new(cfg);
        let report = sim.run_kernel(&kernel).expect("completes");
        assert!(
            report.stats.l2.ts_rollovers > 0,
            "rollover should have fired"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(sim.sanitizer().checked() > 0);
    }
}
