//! `bank_crash_repro [first_seed] [last_seed]` (default 1 6)
//!
//! Reproduces two known defects that keep L2-bank crashes out of the
//! benchmark's workloads:
//!
//! 1. One GPU, paper platform, G-TSC-RC, group A at small scale with
//!    seed-derived kernels, under `FaultConfig::lossy(seed, 10)
//!    .with_bank_crashes(2, 4000)`: runs report violations. The same
//!    lossy plan without bank crashes is run alongside for contrast.
//! 2. `MultiGpuSim` ignores `FaultConfig::with_bank_crashes`: the
//!    `multi-gpu-lossy` machine with and without it is cycle-identical.
//!
//! Prints one line per run and a summary; exits 0 whatever it finds.

use gtsc_sim::{GpuSim, MultiGpuSim, SimBuilder};
use gtsc_types::{ConsistencyModel, FaultConfig, GpuConfig, MultiGpuConfig, ProtocolKind};
use gtsc_workloads::{Benchmark, Scale};
use perfbench::pass::digest;
use perfbench::workload::{generate, Machine, Workload};

fn main() {
    let arg = |i: usize, default: u64| {
        std::env::args()
            .nth(i)
            .map_or(default, |s| s.parse().expect("seeds are integers"))
    };
    let (first, last) = (arg(1, 1), arg(2, 6));
    let mut bad_runs = [0usize; 2];
    let mut runs = 0;
    let mut identical = 0;
    for seed in first..=last {
        for bench in Benchmark::group_a() {
            let kernel = generate(bench, Scale::Small, seed);
            for (i, faults) in [
                FaultConfig::lossy(seed, 10).with_bank_crashes(2, 4000),
                FaultConfig::lossy(seed, 10),
            ]
            .into_iter()
            .enumerate()
            {
                let cfg = GpuConfig::paper_default()
                    .with_protocol(ProtocolKind::Gtsc)
                    .with_consistency(ConsistencyModel::Rc)
                    .with_faults(faults);
                let mut sim: GpuSim = SimBuilder::new(cfg).build();
                let outcome = match sim.run_kernel(&kernel) {
                    Err(e) => format!("error: {e}"),
                    Ok(r) if r.violations.is_empty() => "clean".to_owned(),
                    Ok(r) => format!(
                        "{} violation(s), first: {}",
                        r.violations.len(),
                        r.violations[0]
                    ),
                };
                if outcome != "clean" {
                    bad_runs[i] += 1;
                }
                let plan = if i == 0 {
                    "lossy+bank-crashes"
                } else {
                    "lossy"
                };
                println!(
                    "gpu   seed {seed:>3} {:<4} {plan:<18} {outcome}",
                    bench.name()
                );
            }
            runs += 1;
        }

        let Machine::Multi(cfg) = Workload::MultiGpuLossy.runs(seed)[0].machine.clone() else {
            unreachable!("multi-gpu-lossy runs on MultiGpuSim");
        };
        let crashing = MultiGpuConfig {
            gpu: cfg
                .gpu
                .clone()
                .with_faults(cfg.gpu.faults.with_bank_crashes(2, 4000)),
            ..cfg.clone()
        };
        let kernel = generate(Benchmark::Bh, Scale::Small, seed);
        let fingerprint = |c: MultiGpuConfig| {
            let mut sim = MultiGpuSim::new(c);
            let r = sim.run_kernel(&kernel).expect("multi-GPU run completes");
            (r.stats.cycles.0, digest(&r.stats, &sim.memory_image()))
        };
        let (with, without) = (fingerprint(crashing), fingerprint(cfg));
        identical += usize::from(with == without);
        println!(
            "multi seed {seed:>3} BH   bank crashes {} (cycles {} vs {})",
            if with == without {
                "ignored"
            } else {
                "take effect"
            },
            with.0,
            without.0
        );
    }
    let seeds = last + 1 - first;
    println!(
        "summary: with bank crashes {} of {runs} runs failed; lossy only {} of {runs}; \
         multi-GPU identical with and without bank crashes on {identical} of {seeds} seeds",
        bad_runs[0], bad_runs[1]
    );
}
