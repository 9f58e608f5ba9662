//! Byte-stability goldens: constants recorded from the simulator and
//! pinned here, so any change to what a machine computes (statistics,
//! memory image, or checkpoint bytes) fails this file. Every other test
//! compares two runs of the same build; this one compares against the
//! recorded output of earlier builds, which is what a behaviour-
//! preserving refactor has to prove.
//!
//! Each machine is run once, checkpointed mid-kernel with
//! `save_snapshot(Some(&progress))`, and finished. Pinned per machine:
//! the FNV-1a digest of the final `SimStats` snapshot encoding followed
//! by the memory image, and the CRC32 of the mid-kernel snapshot.
//!
//! If a change is *meant* to alter behaviour, re-record the constants
//! from the failure messages and say why in the change description.

use std::collections::BTreeMap;

use gtsc::gpu::Kernel;
use gtsc::sim::{GpuSim, KernelProgress, MultiGpuSim, RunReport, SimBuilder};
use gtsc::types::snap::{crc32, Snap, SnapWriter, SnapshotError};
use gtsc::types::{
    BlockAddr, ConsistencyModel, FabricConfig, FaultConfig, GpuConfig, MultiGpuConfig,
    ProtocolKind, SimStats, Version,
};
use gtsc::workloads::{Benchmark, Scale};

/// FNV-1a over the snapshot encoding of `stats` followed by every
/// `(block, version)` of the memory image.
fn digest(stats: &SimStats, image: &BTreeMap<BlockAddr, Version>) -> u64 {
    let mut w = SnapWriter::new();
    stats.save(&mut w);
    for (b, v) in image {
        w.u64(b.0);
        w.u64(v.0);
    }
    w.into_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one machine is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// [`digest`] of the final report's stats and memory image.
    digest: u64,
    /// CRC32 of the mid-kernel snapshot, or `None` when the machine's
    /// controllers cannot checkpoint (the baselines report
    /// [`SnapshotError::Unsupported`]).
    snapshot_crc: Option<u32>,
}

/// The two machines behind one interface, so each golden runs the same
/// slice / checkpoint / finish sequence.
trait Machine {
    fn advance(&mut self, k: &dyn Kernel, p: &mut KernelProgress, budget: u64)
        -> Option<RunReport>;
    fn snapshot(&self, p: &KernelProgress) -> Result<Vec<u8>, SnapshotError>;
    fn image(&self) -> BTreeMap<BlockAddr, Version>;
}

impl Machine for GpuSim {
    fn advance(
        &mut self,
        k: &dyn Kernel,
        p: &mut KernelProgress,
        budget: u64,
    ) -> Option<RunReport> {
        self.advance_kernel(k, p, budget).expect("kernel advances")
    }
    fn snapshot(&self, p: &KernelProgress) -> Result<Vec<u8>, SnapshotError> {
        self.save_snapshot(Some(p))
    }
    fn image(&self) -> BTreeMap<BlockAddr, Version> {
        self.memory_image()
    }
}

impl Machine for MultiGpuSim {
    fn advance(
        &mut self,
        k: &dyn Kernel,
        p: &mut KernelProgress,
        budget: u64,
    ) -> Option<RunReport> {
        self.advance_kernel(k, p, budget).expect("kernel advances")
    }
    fn snapshot(&self, p: &KernelProgress) -> Result<Vec<u8>, SnapshotError> {
        self.save_snapshot(Some(p))
    }
    fn image(&self) -> BTreeMap<BlockAddr, Version> {
        self.memory_image()
    }
}

/// Runs `kernel` for `mid` cycles, checkpoints, then runs it to the end.
fn golden(sim: &mut dyn Machine, kernel: &dyn Kernel, mid: u64) -> (Golden, RunReport) {
    let mut progress = KernelProgress::new(kernel);
    assert!(
        sim.advance(kernel, &mut progress, mid).is_none(),
        "kernel drained before the mid-kernel checkpoint at cycle {mid}"
    );
    let snapshot_crc = match sim.snapshot(&progress) {
        Ok(bytes) => Some(crc32(&bytes)),
        Err(SnapshotError::Unsupported { .. }) => None,
        Err(e) => panic!("snapshot failed: {e}"),
    };
    let report = sim
        .advance(kernel, &mut progress, 0)
        .expect("unbounded advance yields a report");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let g = Golden {
        digest: digest(&report.stats, &sim.image()),
        snapshot_crc,
    };
    (g, report)
}

fn gpu(cfg: GpuConfig) -> GpuSim {
    SimBuilder::new(cfg).try_build().expect("config builds")
}

#[test]
fn gtsc_rc_under_lossy_faults_is_byte_stable() {
    let cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc)
        .with_faults(FaultConfig::lossy(7, 50).with_bank_crashes(2, 1_500))
        .with_sanitize(true);
    let kernel = Benchmark::Bh.build(Scale::Small);
    let (g, report) = golden(&mut gpu(cfg), kernel.as_ref(), 1_000);
    assert!(report.stats.transport.retransmits > 0, "loss must fire");
    assert!(
        report.stats.transport.bank_recoveries > 0,
        "a bank crash must fire"
    );
    assert_eq!(
        g,
        Golden {
            digest: 0xa859_6e1a_b5c6_91a1,
            snapshot_crc: Some(0x2961_b209),
        }
    );
}

#[test]
fn tc_rc_boxed_baseline_path_is_byte_stable() {
    let cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::TcWeak)
        .with_consistency(ConsistencyModel::Rc);
    let kernel = Benchmark::Stn.build(Scale::Small);
    let (g, _) = golden(&mut gpu(cfg), kernel.as_ref(), 1_000);
    assert_eq!(
        g,
        Golden {
            digest: 0xd362_0cfc_ffd9_a24b,
            snapshot_crc: None,
        }
    );
}

#[test]
fn gtsc_epoch_rollover_is_byte_stable() {
    let mut cfg = GpuConfig::test_small()
        .with_protocol(ProtocolKind::Gtsc)
        .with_consistency(ConsistencyModel::Rc);
    cfg.ts_bits = 7;
    let kernel = Benchmark::Bh.build(Scale::Small);
    let (g, report) = golden(&mut gpu(cfg), kernel.as_ref(), 1_000);
    assert!(
        report.stats.l2.ts_rollovers > 0,
        "an epoch rollover must occur"
    );
    assert_eq!(
        g,
        Golden {
            digest: 0x60ba_46ab_e5be_0887,
            snapshot_crc: Some(0x9410_df89),
        }
    );
}

#[test]
fn two_device_multi_gpu_under_fabric_faults_is_byte_stable() {
    let mut cfg = MultiGpuConfig::test_small(2).with_fabric(
        FabricConfig::default()
            .lossy(5, 60)
            .with_partitions(1, 2_000, 800)
            .with_device_crashes(1, 1_500),
    );
    cfg.gpu.sanitize = true;
    let kernel = Benchmark::Bfs.build(Scale::Small);
    let mut sim = MultiGpuSim::try_build(cfg).expect("config builds");
    let (g, _) = golden(&mut sim, kernel.as_ref(), 1_000);
    assert!(sim.device_recoveries() > 0, "a device crash must fire");
    assert_eq!(
        g,
        Golden {
            digest: 0x9d5b_e2c5_908a_c3b7,
            snapshot_crc: Some(0xb3be_1965),
        }
    );
}
