//! Kernel runs, untraced or traced, with the correctness gate applied to
//! every run, and their set-up on its own.

use std::hint::black_box;
use std::time::Instant;

use gtsc_gpu::Kernel;
use gtsc_types::snap::{Snap, SnapWriter};
use gtsc_types::{ProtocolKind, SimStats};

use crate::alloc::allocations;
use crate::layers::{decorated_gpu, Meters, Reading, TimedKernel};
use crate::workload::{Machine, RunSpec, Sim};

/// Outcome of one kernel run that passed the gate.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `BH@G-TSC-RC`-style name.
    pub name: String,
    /// Protocol of the run's controllers.
    pub protocol: ProtocolKind,
    /// Statistics at the end of the run.
    pub stats: SimStats,
    /// Digest of the statistics and the memory image.
    pub digest: u64,
    /// Host seconds of `run_kernel` plus `memory_image`.
    pub wall_s: f64,
    /// Allocations made during those calls.
    pub allocs: u64,
    /// SMs of the machine (all devices).
    pub sms: u64,
    /// L2 banks of the machine (all devices).
    pub banks: u64,
    /// Packets dropped by the fault plan.
    pub dropped: u64,
    /// Whole devices crash-recovered.
    pub device_recoveries: u64,
    /// Accesses served by the multi-GPU home node (0 on one GPU).
    pub home_accesses: u64,
    /// Per-layer readings; present on a traced pass.
    pub layers: Option<RunLayers>,
}

/// What the decorators measured during one traced kernel run.
#[derive(Debug, Clone, Copy)]
pub struct RunLayers {
    /// Whether the controllers were decorated (single-GPU runs only).
    pub controllers: bool,
    /// Every L1 controller call.
    pub l1: Reading,
    /// Every L2 bank call.
    pub l2: Reading,
    /// Every `Kernel::program` call.
    pub program: Reading,
    /// Host seconds of one `report()` call after the run.
    pub report_s: f64,
    /// Host seconds of the `memory_image()` call after the run.
    pub image_s: f64,
}

/// One pass over every kernel run of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the runs (sum of [`RunResult::wall_s`]).
    pub wall_s: f64,
    /// Allocations made during the runs.
    pub allocs: u64,
    /// Each run, in workload order.
    pub runs: Vec<RunResult>,
}

impl Pass {
    /// The pass made of `runs`.
    #[must_use]
    pub fn new(runs: Vec<RunResult>) -> Self {
        Pass {
            wall_s: runs.iter().map(|r| r.wall_s).sum(),
            allocs: runs.iter().map(|r| r.allocs).sum(),
            runs,
        }
    }

    /// Simulated cycles over all runs.
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.stats.cycles.0).sum()
    }
}

/// A run that failed the correctness gate.
#[derive(Debug, Clone)]
pub struct GateFailure {
    /// The run's name.
    pub run: String,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel run {}: {}", self.run, self.reason)
    }
}

/// Runs `spec` once. A traced run decorates the L1 and L2 controllers of
/// a single-GPU machine and the kernel of any machine.
///
/// # Errors
///
/// A rejected machine, a `SimError` or a reported violation.
pub fn run_one(spec: &RunSpec, traced: bool) -> Result<RunResult, GateFailure> {
    let fail = |reason: String| GateFailure {
        run: spec.name(),
        reason,
    };
    let kernel = spec.kernel();
    let meters = Meters::default();
    let controllers = traced && matches!(spec.machine, Machine::Gpu(_));
    let built = match &spec.machine {
        Machine::Gpu(cfg) if controllers => {
            decorated_gpu(cfg.clone(), &meters).map(|s| Sim::Gpu(Box::new(s)))
        }
        m => m.build(),
    };
    let mut sim = built.map_err(|e| fail(format!("machine rejected: {e}")))?;

    let timed = TimedKernel {
        inner: &kernel,
        meter: meters.program.clone(),
    };
    let run_kernel: &dyn Kernel = if traced { &timed } else { &kernel };
    let a0 = allocations();
    let t = Instant::now();
    let report = sim.run_kernel(run_kernel);
    let t_image = Instant::now();
    let image = sim.memory_image();
    let image_s = t_image.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let allocs = allocations() - a0;

    let report = report.map_err(|e| fail(format!("simulation error: {e}")))?;
    if let Some(v) = report.violations.first() {
        return Err(fail(format!(
            "{} violation(s), first: {v}",
            report.violations.len()
        )));
    }
    let layers = traced.then(|| {
        let t = Instant::now();
        black_box(sim.report());
        RunLayers {
            controllers,
            l1: meters.l1.reading(),
            l2: meters.l2.reading(),
            program: meters.program.reading(),
            report_s: t.elapsed().as_secs_f64(),
            image_s,
        }
    });
    let (sms, banks, home_accesses) = match &spec.machine {
        Machine::Gpu(c) => (c.n_sms, c.l2_banks, 0),
        // The home node reports as the last entry of the L2 column.
        Machine::Multi(c) => (
            c.n_devices * c.gpu.n_sms,
            c.n_devices * c.gpu.l2_banks,
            report.stats.per_l2.last().map_or(0, |h| h.accesses),
        ),
    };
    Ok(RunResult {
        name: spec.name(),
        protocol: spec.protocol(),
        digest: digest(&report.stats, &image),
        stats: report.stats,
        wall_s,
        allocs,
        sms: sms as u64,
        banks: banks as u64,
        dropped: sim.dropped(),
        device_recoveries: sim.device_recoveries(),
        home_accesses,
        layers,
    })
}

/// Host seconds of one set-up of a kernel run.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Generating the kernel.
    pub generate_s: f64,
    /// Constructing the machine.
    pub build_s: f64,
}

/// Generates `spec`'s kernel and constructs its machine, discarding both.
///
/// # Errors
///
/// A machine whose config is rejected.
pub fn setup_one(spec: &RunSpec) -> Result<SetupTime, GateFailure> {
    let t = Instant::now();
    let kernel = black_box(spec.kernel());
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = spec.machine.build().map_err(|e| GateFailure {
        run: spec.name(),
        reason: format!("machine rejected: {e}"),
    })?;
    let build_s = t.elapsed().as_secs_f64();
    drop(black_box(sim));
    drop(kernel);
    Ok(SetupTime {
        generate_s,
        build_s,
    })
}

/// FNV-1a digest of the full statistics (snapshot encoding) and the
/// memory image.
#[must_use]
pub fn digest(
    stats: &SimStats,
    image: &std::collections::BTreeMap<gtsc_types::BlockAddr, gtsc_types::Version>,
) -> u64 {
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
