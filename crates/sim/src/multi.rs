//! The multi-GPU simulator: N on-die GPU hierarchies joined by an
//! inter-GPU fabric to a home-node directory (DESIGN.md §17).
//!
//! [`MultiGpuSim`] is N copies of the one device model (DESIGN.md
//! §17.6) — the same SMs, G-TSC L1s, on-die crossbars, and device step
//! as [`GpuSim`](crate::GpuSim) — over the fabric instead of DRAM. Its
//! banks are [`DeviceL2`]s, which own no timestamps of their own: they
//! serve local L1s out of inter-GPU grants delegated by the
//! [`HomeNode`], and every L1 lease they hand out is `nest_rts`-clamped
//! inside a live grant. The fabric reuses [`ReliableNet`] as the link
//! layer, configured lossier and longer-latency than the on-die NoC
//! (`FabricConfig`), with scheduled link-down windows (partitions) and
//! whole-device crash/rejoin events on top.
//!
//! A cycle runs the shared phase order: per device, phases 1–3 (SM
//! issue, L1 egress, request delivery); the fabric phase (device-L2
//! service and fabric egress, home-node service, grant delivery back to
//! the device L2s); device crashes; the Section V-D reset; then per
//! device, phases 6–8 (response egress and delivery, cycle-reason
//! accounting). CTA `c` runs on device `c % n_devices`.
//!
//! Robustness composes the existing machinery rather than adding new
//! protocol states: a device crash folds into the Section V-D global
//! epoch bump exactly like an on-die bank crash (with same-cycle fabric
//! flow teardown so pre-crash sequence state never collides with the
//! rejoined device); partitions are ridden out by transport
//! retransmit/backoff plus the L1s' end-to-end retry; and the home's
//! store-replay filter re-acks duplicates with the original
//! acknowledgement so retried stores stay idempotent.

use std::collections::BTreeMap;

use gtsc_fabric::{DeviceL2, DeviceParams, HomeNode, HomeParams};
use gtsc_faults::{FaultPlan, FaultStats};
use gtsc_gpu::Sm;
use gtsc_noc::ReliableNet;
use gtsc_protocol::msg::{Epoch, L1ToL2, L2ToL1, MsgSizes};
use gtsc_protocol::L2Controller;
use gtsc_trace::{Scope, TraceEvent, Tracer};
use gtsc_types::snap::{SnapshotBuilder, SnapshotError, SnapshotFile};
use gtsc_types::{BlockAddr, Cycle, FaultConfig, MultiGpuConfig, ProtocolKind, SimStats, Version};

use crate::build::build_l1;
use crate::gpu::{DeviceStall, SimError, StallDiagnosis};
use crate::machine::{decode, encode, load_all, save_all, try_encode, Device, Level, Machine};

mod fabric;

/// The assembled multi-GPU system: N devices over the inter-GPU fabric
/// and its home node, with whole-device crashes as its crash schedule.
pub type MultiGpuSim = Machine<fabric::Fabric>;

impl MultiGpuSim {
    /// Assembles the system per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is degenerate; use [`MultiGpuSim::try_build`] for
    /// a structured error.
    #[must_use]
    pub fn new(cfg: MultiGpuConfig) -> Self {
        // lint: allow(panic): the documented infallible shorthand.
        Self::try_build(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assembles the system, validating the configuration and arming the
    /// fault plans: per-device on-die plans draw from device-decorrelated
    /// seeds, the fabric plan (loss, partitions, device crashes) from
    /// `cfg.fabric.faults`. Whenever the fabric can lose traffic
    /// (`FabricConfig::lossy_active`) the fabric transport and every
    /// L1's end-to-end retry are armed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config is degenerate
    /// or selects a non-G-TSC protocol (the fabric speaks timestamps).
    pub fn try_build(mut cfg: MultiGpuConfig) -> Result<Self, SimError> {
        if cfg.n_devices == 0 || cfg.gpu.n_sms == 0 || cfg.gpu.l2_banks == 0 {
            return Err(SimError::InvalidConfig(format!(
                "multi-GPU config must have devices, SMs, and banks \
                 (n_devices={}, n_sms={}, l2_banks={})",
                cfg.n_devices, cfg.gpu.n_sms, cfg.gpu.l2_banks
            )));
        }
        if cfg.gpu.protocol != ProtocolKind::Gtsc {
            return Err(SimError::InvalidConfig(format!(
                "the inter-GPU fabric delegates timestamp grants and only \
                 speaks G-TSC (got {:?})",
                cfg.gpu.protocol
            )));
        }
        let gpu_plan = FaultPlan::new(cfg.gpu.faults);
        cfg.gpu.ts_bits = gpu_plan.effective_ts_bits(cfg.gpu.ts_bits);
        // A Section V-D reset rebases every home grant to `[INIT,
        // grant_lease]`; if that already consumes most of the timestamp
        // budget, the next extension overflows again and the system
        // livelocks in perpetual resets. Demand at least 2× headroom.
        if cfg.gpu.ts_bits < 64
            && cfg.fabric.grant_lease.0.saturating_mul(2) >= 1u64 << cfg.gpu.ts_bits
        {
            return Err(SimError::InvalidConfig(format!(
                "inter-GPU grant lease {} cannot roll over inside {} timestamp bits \
                 (a reset rebases grants to the full lease; shrink the lease or widen ts_bits)",
                cfg.fabric.grant_lease.0, cfg.gpu.ts_bits
            )));
        }
        let n_devices = cfg.n_devices;
        let retry = cfg.gpu.faults.lossy_active() || cfg.fabric.lossy_active();
        let devices = (0..n_devices)
            .map(|d| {
                // Decorrelate each device's on-die fault streams while
                // keeping the whole system a pure function of the seeds.
                let faults = FaultConfig {
                    seed: cfg
                        .gpu
                        .faults
                        .seed
                        .wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..cfg.gpu.faults
                };
                // Globally-unique SM indices: version minting must not
                // collide across devices.
                Device::new(&cfg.gpu, d, faults, retry, &build_l1, || {
                    Box::new(DeviceL2::new(DeviceParams {
                        lease: cfg.gpu.lease,
                        latency: cfg.gpu.l2_latency,
                        ports: 2,
                    }))
                })
            })
            .collect();
        let mut home = HomeNode::new(HomeParams {
            lease: cfg.fabric.grant_lease,
            ts_bits: cfg.gpu.ts_bits,
            latency: cfg.fabric.home_latency,
        });
        let mut up_net = ReliableNet::new(n_devices, 1, cfg.fabric.noc, cfg.fabric.transport);
        let mut down_net = ReliableNet::new(1, n_devices, cfg.fabric.noc, cfg.fabric.transport);
        let fabric_plan = FaultPlan::new(cfg.fabric.faults);
        up_net.set_faults(fabric_plan.fabric(0), fabric_plan.fabric(2));
        down_net.set_faults(fabric_plan.fabric(1), fabric_plan.fabric(3));
        if cfg.fabric.partitions_active() {
            // A partition takes the whole cable down: the same window
            // schedule severs the device's up and down links together.
            for d in 0..n_devices {
                let lf = fabric_plan.link_down(
                    d as u64,
                    cfg.fabric.partition_count,
                    cfg.fabric.partition_window,
                    cfg.fabric.partition_len,
                );
                up_net.set_link_faults(d, 0, lf.clone());
                down_net.set_link_faults(0, d, lf);
            }
        }
        if cfg.fabric.lossy_active() {
            up_net.enable(cfg.fabric.faults.seed ^ 0x4641_5550);
            down_net.enable(cfg.fabric.faults.seed ^ 0x4641_444E);
        }
        let crashes = (0..n_devices)
            .map(|d| {
                fabric_plan.device_crashes(
                    d as u64,
                    n_devices as u64,
                    cfg.fabric.device_crash_count,
                    cfg.fabric.device_crash_window,
                )
            })
            .collect();
        let trace = &cfg.gpu.trace;
        if trace.is_enabled() {
            let noc = 2 * n_devices as u16;
            home.set_tracer(Tracer::new(Scope::Home(0), trace));
            up_net.set_tracer(Tracer::new(Scope::Noc(noc), trace));
            down_net.set_tracer(Tracer::new(Scope::Noc(noc + 1), trace));
        }
        let sizes = MsgSizes::new(
            cfg.fabric.noc.control_bytes,
            cfg.gpu.ts_bits,
            cfg.gpu.l1.block_size(),
        );
        let mut m = Machine::assemble(
            cfg.gpu.clone(),
            devices,
            fabric::Fabric {
                cfg,
                home,
                up_net,
                down_net,
                sizes,
            },
            crashes,
        );
        if m.sanitizer.is_enabled() {
            let home = m.sanitizer.for_scope(Scope::Home(0));
            m.level.home.set_sanitizer(home);
        }
        Ok(m)
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MultiGpuConfig {
        &self.level.cfg
    }

    /// Devices crash-recovered so far.
    #[must_use]
    pub fn device_recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The current global reset epoch (Section V-D, shared by the home
    /// node and every device).
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The functional memory image — the home node's, which is always
    /// authoritative under write-through.
    #[must_use]
    pub fn memory_image(&self) -> BTreeMap<BlockAddr, Version> {
        self.level.home.memory_image().into_iter().collect()
    }

    /// Device-scoped stall attribution, always available (not only when
    /// the watchdog fires) — `stress_faults` mines it on failures.
    #[must_use]
    pub fn device_stalls(&self) -> Vec<DeviceStall> {
        self.level.device_stalls(&self.devices, self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelProgress;
    use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
    use gtsc_types::{Addr, FabricConfig};

    fn sharing_kernel(n_ctas: usize) -> VecKernel {
        // Every CTA stores to its own line then reads lines owned by
        // other CTAs — true cross-device sharing through the fabric.
        let ctas = (0..n_ctas)
            .map(|c| {
                let own = Addr((c as u64) * 128);
                let other = Addr(((c as u64 + 1) % n_ctas as u64) * 128);
                vec![WarpProgram(vec![
                    WarpOp::store_coalesced(own, 32),
                    WarpOp::Fence,
                    WarpOp::load_coalesced(other, 32),
                    WarpOp::load_coalesced(own, 32),
                ])]
            })
            .collect();
        VecKernel::new("xshare", 1, ctas)
    }

    fn small(n: usize) -> MultiGpuConfig {
        let mut cfg = MultiGpuConfig::test_small(n);
        cfg.gpu.sanitize = true;
        cfg
    }

    #[test]
    fn cross_device_sharing_completes_coherently() {
        let mut sim = MultiGpuSim::new(small(2));
        let report = sim.run_kernel(&sharing_kernel(4)).expect("completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.cycles.0 > 0);
        // Both devices did work and the home served fabric traffic.
        assert!(report.stats.l2.accesses > 0);
        assert!(sim.sanitizer().checked() > 0);
    }

    #[test]
    fn memory_image_is_deterministic_across_runs_and_topologies() {
        // Two identical 2-device runs agree exactly; a 1-device run
        // covers the same blocks (versions encode the minting SM, which
        // legitimately differs between topologies).
        let mut a = MultiGpuSim::new(small(2));
        a.run_kernel(&sharing_kernel(4)).expect("completes");
        let mut b = MultiGpuSim::new(small(2));
        b.run_kernel(&sharing_kernel(4)).expect("completes");
        assert_eq!(a.memory_image(), b.memory_image());
        let mut one = MultiGpuSim::new(small(1));
        one.run_kernel(&sharing_kernel(4)).expect("completes");
        assert_eq!(
            one.memory_image().keys().collect::<Vec<_>>(),
            a.memory_image().keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn fabric_loss_is_transparent_to_results() {
        let mut clean = MultiGpuSim::new(small(2));
        let r = clean.run_kernel(&sharing_kernel(6)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().lossy(7, 100);
        let mut lossy = MultiGpuSim::new(cfg);
        let r = lossy.run_kernel(&sharing_kernel(6)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(clean.memory_image(), lossy.memory_image());
        assert!(
            lossy.fault_stats().is_some_and(|s| s.dropped > 0),
            "faults must actually have fired"
        );
    }

    #[test]
    fn device_crash_recovers_behind_epoch_bump() {
        let mut clean = MultiGpuSim::new(small(2));
        clean.run_kernel(&sharing_kernel(6)).expect("completes");
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().with_device_crashes(2, 2_000);
        let mut crashy = MultiGpuSim::new(cfg);
        let r = crashy.run_kernel(&sharing_kernel(6)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(crashy.device_recoveries() > 0, "a crash must have fired");
        assert!(crashy.epoch() > 0, "crash recovery bumps the global epoch");
        assert_eq!(clean.memory_image(), crashy.memory_image());
    }

    #[test]
    fn partition_windows_are_survived() {
        let mut clean = MultiGpuSim::new(small(2));
        clean.run_kernel(&sharing_kernel(4)).expect("completes");
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().with_partitions(2, 3_000, 1_500);
        let mut part = MultiGpuSim::new(cfg);
        let r = part.run_kernel(&sharing_kernel(4)).expect("completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(clean.memory_image(), part.memory_image());
    }

    #[test]
    fn snapshot_mid_kernel_resumes_identically() {
        let kernel = sharing_kernel(4);
        let cfg = small(2);
        let mut a = MultiGpuSim::new(cfg.clone());
        let mut pa = KernelProgress::new(&kernel);
        // Run a slice, checkpoint, keep running A to the end.
        assert!(a
            .advance_kernel(&kernel, &mut pa, 300)
            .expect("slice ok")
            .is_none());
        let snap = a.save_snapshot(Some(&pa)).expect("snapshot");
        let ra = a
            .advance_kernel(&kernel, &mut pa, 0)
            .expect("finishes")
            .expect("report");
        // Restore into a fresh machine and finish from the checkpoint.
        let mut b = MultiGpuSim::new(cfg);
        let mut pb = b
            .restore_snapshot(&snap)
            .expect("restore")
            .expect("mid-kernel progress");
        let rb = b
            .advance_kernel(&kernel, &mut pb, 0)
            .expect("finishes")
            .expect("report");
        assert_eq!(ra.stats.cycles, rb.stats.cycles);
        assert_eq!(a.memory_image(), b.memory_image());
        assert_eq!(
            ra.stats.l1.accesses, rb.stats.l1.accesses,
            "restored run must be cycle-identical"
        );
    }

    #[test]
    fn non_gtsc_protocol_is_rejected() {
        let mut cfg = small(2);
        cfg.gpu.protocol = gtsc_types::ProtocolKind::Tc;
        assert!(matches!(
            MultiGpuSim::try_build(cfg),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rollover_starved_grant_lease_is_rejected() {
        // A grant lease consuming the whole timestamp budget livelocks
        // in perpetual Section V-D resets; the build must refuse it.
        let mut cfg = small(2);
        cfg.gpu.ts_bits = 6;
        assert_eq!(
            cfg.fabric.grant_lease.0, 64,
            "default lease moved — retune this test"
        );
        assert!(matches!(
            MultiGpuSim::try_build(cfg.clone()),
            Err(SimError::InvalidConfig(_))
        ));
        cfg.fabric.grant_lease = gtsc_types::Lease(16);
        assert!(MultiGpuSim::try_build(cfg).is_ok());
    }

    /// The headline robustness soak: 100 seeded storms mixing fabric
    /// packet loss, link partitions, and whole-device crash/rejoin, each
    /// ending byte-identical to the fault-free run of the same kernel.
    /// Faults may cost cycles but can never change what memory says.
    #[test]
    fn hundred_seed_fault_soak_is_byte_identical_to_fault_free() {
        let kernel = sharing_kernel(4);
        let mut clean = MultiGpuSim::new(small(2));
        let r = clean.run_kernel(&kernel).expect("fault-free run completes");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let truth = clean.memory_image();
        for seed in 0u64..100 {
            let mut cfg = small(2);
            cfg.fabric = match seed % 4 {
                0 => FabricConfig::default().lossy(seed, 80),
                1 => FabricConfig::default().with_partitions(2, 3_000, 1_500),
                2 => FabricConfig::default()
                    .lossy(seed, 60)
                    .with_device_crashes(2, 2_000),
                _ => FabricConfig::default()
                    .lossy(seed, 40)
                    .with_partitions(1, 2_000, 800)
                    .with_device_crashes(1, 1_500),
            };
            // Partition/crash schedules are drawn from the fault seed
            // even when the loss layer is off.
            cfg.fabric.faults.seed = seed;
            let mut sim = MultiGpuSim::new(cfg);
            let r = sim
                .run_kernel(&kernel)
                .unwrap_or_else(|e| panic!("seed {seed}: did not complete: {e}"));
            assert!(r.violations.is_empty(), "seed {seed}: {:?}", r.violations);
            assert_eq!(
                truth,
                sim.memory_image(),
                "seed {seed}: faults changed the memory image"
            );
        }
    }

    #[test]
    fn snapshot_restore_under_fabric_loss_matches_uninterrupted() {
        // Satellite of DESIGN.md §14: a mid-kernel checkpoint taken
        // while the fabric is dropping packets (retransmit state, parked
        // grants, home directory all live) restores to a run
        // indistinguishable from the uninterrupted one.
        let kernel = sharing_kernel(4);
        let mut cfg = small(2);
        cfg.fabric = FabricConfig::default().lossy(11, 80);
        let mut a = MultiGpuSim::new(cfg.clone());
        let mut pa = KernelProgress::new(&kernel);
        assert!(a
            .advance_kernel(&kernel, &mut pa, 500)
            .expect("slice ok")
            .is_none());
        let snap = a.save_snapshot(Some(&pa)).expect("snapshot");
        let ra = a
            .advance_kernel(&kernel, &mut pa, 0)
            .expect("finishes")
            .expect("report");
        let mut b = MultiGpuSim::new(cfg);
        let mut pb = b
            .restore_snapshot(&snap)
            .expect("restore")
            .expect("mid-kernel progress");
        let rb = b
            .advance_kernel(&kernel, &mut pb, 0)
            .expect("finishes")
            .expect("report");
        assert_eq!(ra.stats.cycles, rb.stats.cycles);
        assert_eq!(a.memory_image(), b.memory_image());
        assert_eq!(
            ra.stats.transport.retransmits, rb.stats.transport.retransmits,
            "restored run must replay the same fabric recovery"
        );
    }
}
