//! Metric definitions, the numbers computed from passes, and the JSON
//! result line.

use std::collections::BTreeMap;

use gtsc_types::{CycleReason, ProtocolKind};

use crate::layers::Calibration;
use crate::pass::{Pass, RunResult, SetupTime};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit printed beside the value.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// The end-to-end metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("wall_s", "s"),
    def("sim_cycles_per_s", "cycles/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("sim_cycles", "cycles"),
];

/// The per-layer metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    def("core.l1.self_s", "s"),
    def("core.l1.ns_per_call", "ns"),
    def("core.l1.calls_per_sm_cycle", "calls/cycle"),
    def("core.l2.self_s", "s"),
    def("core.l2.ns_per_call", "ns"),
    def("core.l2.calls_per_bank_cycle", "calls/cycle"),
    def("baselines.l1.self_s", "s"),
    def("baselines.l1.ns_per_call", "ns"),
    def("baselines.l2.self_s", "s"),
    def("baselines.l2.ns_per_call", "ns"),
    def("sim.step_other_s", "s"),
    def("workloads.program_s", "s"),
    def("sim.report_s", "s"),
    def("workloads.build_s", "s"),
    def("sim.build_s", "s"),
    def("sim.tracing_overhead", "ratio"),
    def("sim.allocs_per_cycle", "allocs/cycle"),
    def("core.l1.allocs_per_call", "allocs/call"),
    def("core.l2.allocs_per_call", "allocs/call"),
    def("gpu.issue_share", "ratio"),
    def("gpu.ipc", "instr/cycle"),
    def("core.l1.hit_rate", "ratio"),
    def("core.l1.expired_misses", "count"),
    def("core.l2.renewals", "count"),
    def("noc.packets_per_cycle", "packets/cycle"),
    def("noc.mean_packet_latency", "cycles"),
    def("mem.dram.accesses", "count"),
    def("mem.dram.row_hit_rate", "ratio"),
    def("noc.transport.retransmits", "count"),
    def("noc.transport.goodput", "ratio"),
    def("faults.dropped", "count"),
    def("fabric.home_accesses", "count"),
    def("fabric.device_recoveries", "count"),
];

/// The paper's G-TSC-RC speedup over TC-RC on the coherence group.
pub const PAPER_GTSC_SPEEDUP: f64 = 1.38;

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// If `xs` is empty.
#[must_use]
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0: the layer had no traffic on this
/// workload (it was bypassed), so a per-layer ratio reads 0 whether
/// better is higher or lower. Compare such a metric only on a workload
/// that uses the layer.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Smallest of `xs`.
///
/// # Panics
///
/// If `xs` is empty.
#[must_use]
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "minimum of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host-time samples of one kernel run: its untraced runs and its
/// set-ups, spread over the invocation.
#[derive(Debug, Clone, Default)]
pub struct RunSamples {
    /// Seconds of each untraced run, as measured.
    pub wall_s: Vec<f64>,
    /// Host-speed factor of each untraced run ([`crate::host`]).
    pub speed: Vec<f64>,
    /// Set-up seconds of each repetition, scaled by the host-speed factor
    /// of the run it preceded.
    pub setups: Vec<SetupTime>,
}

impl RunSamples {
    /// Records one untraced run of `wall_s` seconds at host-speed factor
    /// `speed`, and the set-ups made just before it.
    pub fn push(&mut self, wall_s: f64, speed: f64, setups: &[SetupTime]) {
        self.wall_s.push(wall_s);
        self.speed.push(speed);
        self.setups.extend(setups.iter().map(|s| SetupTime {
            generate_s: s.generate_s * speed,
            build_s: s.build_s * speed,
        }));
    }

    fn scaled_wall_s(&self) -> Vec<f64> {
        self.wall_s
            .iter()
            .zip(&self.speed)
            .map(|(w, f)| w * f)
            .collect()
    }
}

/// Host-time samples of every kernel run of the workload, in run order.
///
/// Each run's host time is its fastest sample after scaling to the
/// nominal host, and a pass's is the sum of those: scaling removes the
/// slow stretches the reference loop sees, and the minimum removes the
/// brief ones it misses.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// One entry per kernel run of the workload.
    pub runs: Vec<RunSamples>,
}

impl Samples {
    fn sum_of(&self, f: impl Fn(&RunSamples) -> f64) -> f64 {
        self.runs.iter().map(f).sum()
    }

    /// Seconds of a pass on the nominal host: the sum over kernel runs of
    /// each run's fastest scaled sample.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.sum_of(|r| min(&r.scaled_wall_s()))
    }

    /// Seconds of a pass as measured: the sum over kernel runs of each
    /// run's fastest sample.
    #[must_use]
    pub fn measured_wall_s(&self) -> f64 {
        self.sum_of(|r| min(&r.wall_s))
    }

    /// Seconds of a typical pass as measured: the sum over kernel runs of
    /// each run's median.
    #[must_use]
    pub fn typical_wall_s(&self) -> f64 {
        self.sum_of(|r| median(&mut r.wall_s.clone()))
    }

    /// Set-up seconds of a pass on the nominal host: the sum over kernel
    /// runs of each run's fastest set-up (generation plus construction,
    /// paired).
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.sum_of(|r| {
            let total: Vec<f64> = r.setups.iter().map(|s| s.generate_s + s.build_s).collect();
            min(&total)
        })
    }

    /// Kernel-generation seconds of a pass, fastest per kernel run.
    #[must_use]
    pub fn generate_s(&self) -> f64 {
        self.sum_of(|r| min(&r.setups.iter().map(|s| s.generate_s).collect::<Vec<_>>()))
    }

    /// Machine-construction seconds of a pass, fastest per kernel run.
    #[must_use]
    pub fn build_s(&self) -> f64 {
        self.sum_of(|r| min(&r.setups.iter().map(|s| s.build_s).collect::<Vec<_>>()))
    }
}

/// End-to-end metric values of an untraced run.
#[must_use]
pub fn end_to_end(
    first: &Pass,
    samples: &Samples,
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, f64> {
    let wall_s = samples.wall_s();
    let cycles = first.sim_cycles() as f64;
    BTreeMap::from([
        ("wall_s", wall_s),
        ("sim_cycles_per_s", cycles / wall_s),
        ("setup_s", samples.setup_s()),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_cycles", cycles),
    ])
}

/// Geometric mean over the runs' benchmarks of TC-RC cycles ÷ G-TSC-RC
/// cycles; `None` unless the pass ran both protocols.
#[must_use]
pub fn gtsc_speedup_over_tc(pass: &Pass) -> Option<f64> {
    let cycles = |p: ProtocolKind| -> Vec<f64> {
        pass.runs
            .iter()
            .filter(|r| r.protocol == p)
            .map(|r| r.stats.cycles.0 as f64)
            .collect()
    };
    let (gtsc, tc) = (cycles(ProtocolKind::Gtsc), cycles(ProtocolKind::TcWeak));
    if tc.is_empty() || tc.len() != gtsc.len() {
        return None;
    }
    let log_sum: f64 = tc.iter().zip(&gtsc).map(|(t, g)| (t / g).ln()).sum();
    Some((log_sum / tc.len() as f64).exp())
}

/// One span of the traced pass: a kernel run, or one layer inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the pass's span list.
    pub id: usize,
    /// The kernel-run span a layer span belongs to.
    pub parent: Option<usize>,
    /// Run name (`BH@G-TSC-RC`) or layer name (`core.l1`).
    pub name: String,
    /// Host seconds the span covers.
    pub duration_s: f64,
    /// Its duration minus its children's and the timing cost.
    pub self_s: f64,
    /// Calls into the layer (0 for a run span).
    pub calls: u64,
    /// Allocations made inside those calls.
    pub allocs: u64,
}

/// The spans of a traced pass: per kernel run, one run span and one
/// child per measured layer, self times corrected by `cal`.
#[must_use]
pub fn spans(traced: &Pass, cal: &Calibration) -> Vec<Span> {
    let mut out = Vec::new();
    for run in &traced.runs {
        let Some(l) = run.layers else { continue };
        let parent = out.len();
        out.push(Span {
            id: parent,
            parent: None,
            name: run.name.clone(),
            duration_s: run.wall_s,
            self_s: 0.0,
            calls: 0,
            allocs: 0,
        });
        let prefix = if run.protocol == ProtocolKind::Gtsc {
            "core"
        } else {
            "baselines"
        };
        let mut layers = vec![("workloads.program".to_owned(), l.program)];
        if l.controllers {
            layers.push((format!("{prefix}.l1"), l.l1));
            layers.push((format!("{prefix}.l2"), l.l2));
        }
        let mut children_s = 0.0;
        for (name, r) in layers {
            let self_s = cal.self_s(r);
            children_s += self_s + cal.overhead_s(r);
            out.push(Span {
                id: out.len(),
                parent: Some(parent),
                name,
                duration_s: r.nanos as f64 / 1e9,
                self_s,
                calls: r.calls,
                allocs: r.allocs,
            });
        }
        // `run_kernel` ends with its own `report()`, which costs what the
        // timed extra call after it did: that time belongs to the report
        // span, not to the step loop.
        let report_s = l.report_s + l.image_s;
        children_s += report_s;
        out.push(Span {
            id: out.len(),
            parent: Some(parent),
            name: "sim.report".to_owned(),
            duration_s: report_s,
            self_s: report_s,
            calls: 1,
            allocs: 0,
        });
        out[parent].self_s = (run.wall_s - children_s).max(0.0);
    }
    out
}

/// Per-layer metric values of a traced run: host time from the traced
/// pass's spans, deterministic counts from the first untraced pass.
#[must_use]
pub fn per_layer(
    first: &Pass,
    samples: &Samples,
    traced: &Pass,
    spans: &[Span],
) -> BTreeMap<&'static str, f64> {
    let span_sum = |name: &str, f: fn(&Span) -> f64| -> f64 {
        spans.iter().filter(|s| s.name == name).map(f).sum()
    };
    // Self seconds, ns per call, calls per component-cycle and
    // allocations per call of one decorated layer.
    let layer = |name: &str, protocol: ProtocolKind, components: fn(&RunResult) -> u64| {
        let of_layer = || spans.iter().filter(|s| s.name == name);
        let self_s = span_sum(name, |s| s.self_s);
        let calls = of_layer().map(|s| s.calls).sum::<u64>() as f64;
        let allocs = of_layer().map(|s| s.allocs).sum::<u64>() as f64;
        let component_cycles: f64 = traced
            .runs
            .iter()
            .filter(|r| r.protocol == protocol && r.layers.is_some_and(|l| l.controllers))
            .map(|r| (components(r) * r.stats.cycles.0) as f64)
            .sum();
        (
            self_s,
            ratio(self_s * 1e9, calls),
            ratio(calls, component_cycles),
            ratio(allocs, calls),
        )
    };
    let (core_l1, core_l1_ns, core_l1_rate, core_l1_allocs) =
        layer("core.l1", ProtocolKind::Gtsc, |r| r.sms);
    let (core_l2, core_l2_ns, core_l2_rate, core_l2_allocs) =
        layer("core.l2", ProtocolKind::Gtsc, |r| r.banks);
    let (tc_l1, tc_l1_ns, ..) = layer("baselines.l1", ProtocolKind::TcWeak, |r| r.sms);
    let (tc_l2, tc_l2_ns, ..) = layer("baselines.l2", ProtocolKind::TcWeak, |r| r.banks);
    let mut m = BTreeMap::from([
        ("core.l1.self_s", core_l1),
        ("core.l1.ns_per_call", core_l1_ns),
        ("core.l1.calls_per_sm_cycle", core_l1_rate),
        ("core.l1.allocs_per_call", core_l1_allocs),
        ("core.l2.self_s", core_l2),
        ("core.l2.ns_per_call", core_l2_ns),
        ("core.l2.calls_per_bank_cycle", core_l2_rate),
        ("core.l2.allocs_per_call", core_l2_allocs),
        ("baselines.l1.self_s", tc_l1),
        ("baselines.l1.ns_per_call", tc_l1_ns),
        ("baselines.l2.self_s", tc_l2),
        ("baselines.l2.ns_per_call", tc_l2_ns),
    ]);
    let run_self: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.self_s)
        .sum();
    m.insert("sim.step_other_s", run_self);
    m.insert(
        "workloads.program_s",
        span_sum("workloads.program", |s| s.self_s),
    );
    m.insert("sim.report_s", span_sum("sim.report", |s| s.self_s));
    m.insert("workloads.build_s", samples.generate_s());
    m.insert("sim.build_s", samples.build_s());
    // The traced pass is one sample per run, so it is set against the
    // untraced runs' medians, not their fastest.
    m.insert(
        "sim.tracing_overhead",
        traced.wall_s / samples.typical_wall_s() - 1.0,
    );

    // Deterministic counts: the model's counters over the G-TSC runs (on
    // `sharing`, the TC half feeds only the `baselines.*` host times).
    let gtsc: Vec<&RunResult> = first
        .runs
        .iter()
        .filter(|r| r.protocol == ProtocolKind::Gtsc)
        .collect();
    let total = |f: fn(&RunResult) -> u64| -> f64 { gtsc.iter().map(|r| f(r)).sum::<u64>() as f64 };
    let all = |f: fn(&RunResult) -> u64| -> f64 { first.runs.iter().map(f).sum::<u64>() as f64 };
    let cycles = total(|r| r.stats.cycles.0);
    let issue = total(|r| {
        r.stats
            .per_sm
            .iter()
            .map(|s| s.cycle_buckets.get(CycleReason::Issue))
            .sum()
    });
    let sm_cycles = total(|r| r.stats.per_sm.iter().map(|s| s.cycle_buckets.sum()).sum());
    let packets = total(|r| r.stats.noc.packets);
    let row_hits = total(|r| r.stats.dram.row_hits);
    let delivered = all(|r| r.stats.transport.delivered);
    let retransmits = all(|r| r.stats.transport.retransmits);
    m.insert(
        "sim.allocs_per_cycle",
        ratio(first.allocs as f64, first.sim_cycles() as f64),
    );
    m.insert("gpu.issue_share", ratio(issue, sm_cycles));
    m.insert("gpu.ipc", ratio(total(|r| r.stats.sm.issued), cycles));
    m.insert(
        "core.l1.hit_rate",
        ratio(total(|r| r.stats.l1.hits), total(|r| r.stats.l1.accesses)),
    );
    m.insert(
        "core.l1.expired_misses",
        total(|r| r.stats.l1.expired_misses),
    );
    m.insert("core.l2.renewals", total(|r| r.stats.l2.renewals));
    m.insert("noc.packets_per_cycle", ratio(packets, cycles));
    m.insert(
        "noc.mean_packet_latency",
        ratio(total(|r| r.stats.noc.total_packet_latency), packets),
    );
    m.insert(
        "mem.dram.accesses",
        total(|r| r.stats.dram.reads + r.stats.dram.writes),
    );
    m.insert(
        "mem.dram.row_hit_rate",
        ratio(row_hits, row_hits + total(|r| r.stats.dram.row_misses)),
    );
    m.insert("noc.transport.retransmits", retransmits);
    m.insert(
        "noc.transport.goodput",
        ratio(delivered, delivered + retransmits),
    );
    m.insert("faults.dropped", all(|r| r.dropped));
    m.insert("fabric.home_accesses", all(|r| r.home_accesses));
    m.insert("fabric.device_recoveries", all(|r| r.device_recoveries));
    m
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}` with the metrics of
/// `defs` in order.
///
/// # Errors
///
/// If `values` lacks a metric of `defs`, holds one that `defs` does not
/// name, or holds a value that is not finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric {extra} is not defined"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        // An empty float sum is -0.0; report it as 0.
        let v = v + 0.0;
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}
