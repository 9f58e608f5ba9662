//! The timing decorators must not change what the simulator computes:
//! for every protocol `build_l1` / `build_l2` can return, a decorated
//! machine's digest, violations, trace and spans equal the bare one's.
//! A decorator that fails to forward a defaulted method (`wait_hint`,
//! `fence_ready`, `memory_image`, `crash`, `set_tracer`, …) diverges in
//! one of these configurations. (`dram_ready` is the exception: no
//! controller overrides it, so dropping it changes nothing.)

use gtsc_gpu::Kernel;
use gtsc_sim::{GpuSim, RunReport};
use gtsc_trace::SpanRecord;
use gtsc_types::{ConsistencyModel, FaultConfig, GpuConfig, ProtocolKind, TraceConfig};
use gtsc_workloads::{Benchmark, Scale};
use perfbench::layers::{decorated_gpu, Meters, TimedKernel};
use perfbench::pass::digest;
use perfbench::workload::generate;

/// What a run computed, for comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    digest: u64,
    violations: Vec<String>,
    trace_events: usize,
    sanitizer_checks: u64,
    spans: Vec<SpanRecord>,
}

fn outcome(report: &RunReport, sim: &GpuSim) -> Outcome {
    Outcome {
        digest: digest(&report.stats, &sim.memory_image()),
        violations: report.violations.iter().map(ToString::to_string).collect(),
        trace_events: sim.trace_events().len(),
        sanitizer_checks: sim.sanitizer().checked(),
        spans: sim.spans(),
    }
}

fn compare(cfg: &GpuConfig, kernel: &dyn Kernel) {
    let mut bare = GpuSim::new(cfg.clone());
    let report = bare.run_kernel(kernel).expect("bare run completes");
    let expected = outcome(&report, &bare);

    let meters = Meters::default();
    let mut decorated = decorated_gpu(cfg.clone(), &meters).expect("config builds");
    let timed = TimedKernel {
        inner: kernel,
        meter: meters.program.clone(),
    };
    let report = decorated
        .run_kernel(&timed)
        .expect("decorated run completes");
    assert_eq!(
        outcome(&report, &decorated),
        expected,
        "{} on {}",
        kernel.name(),
        cfg.label()
    );
    assert!(meters.l1.reading().calls > 0, "L1 calls were not timed");
    assert!(meters.l2.reading().calls > 0, "L2 calls were not timed");
    assert_eq!(
        meters.program.reading().calls,
        (kernel.n_ctas() * kernel.warps_per_cta()) as u64
    );
}

const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::Gtsc,
    ProtocolKind::Tc,
    ProtocolKind::TcWeak,
    ProtocolKind::NoL1,
    ProtocolKind::L1NoCoherence,
];

#[test]
fn decorated_machine_computes_what_the_bare_one_does() {
    let kernels: Vec<_> = [Benchmark::Bh, Benchmark::Stn, Benchmark::Km]
        .into_iter()
        .map(|b| generate(b, Scale::Tiny, 7))
        .collect();
    for protocol in PROTOCOLS {
        for consistency in [ConsistencyModel::Rc, ConsistencyModel::Sc] {
            let cfg = GpuConfig::test_small()
                .with_protocol(protocol)
                .with_consistency(consistency);
            // Plain, then with the tracer, span tracker and sanitizer
            // installed through the decorators.
            let observed = cfg
                .clone()
                .with_sanitize(true)
                .with_trace(TraceConfig::full().with_spans(4, 1));
            for k in &kernels {
                compare(&cfg, k);
                compare(&observed, k);
            }
        }
    }
}

#[test]
fn decorated_machine_survives_the_same_faults() {
    // Loss faults arm `enable_retry`; bank crashes drive `crash`,
    // `needs_reset` and `apply_reset`; chaos caps timestamps so G-TSC
    // rolls over. The bare run may report violations here (a known
    // defect under bank crashes); the decorated run must report the same.
    let kernel = generate(Benchmark::Bh, Scale::Tiny, 3);
    for protocol in PROTOCOLS {
        for faults in [
            FaultConfig::lossy(5, 20),
            FaultConfig::lossy(5, 20).with_bank_crashes(2, 2000),
        ] {
            let cfg = GpuConfig::test_small()
                .with_protocol(protocol)
                .with_faults(faults);
            compare(&cfg, &kernel);
        }
    }
}
