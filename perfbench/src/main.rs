//! `perfbench --workload <name> --seconds S [--seed N] [--trace 0|1]`
//!
//! Runs untraced passes over the workload's kernel runs for `S` seconds
//! (at least one whole pass), each run preceded by set-ups of its kernel
//! and machine and followed by a timing of the host-speed reference loop,
//! gating every run on correctness, and prints the end-to-end metrics. With `--trace 1` it then makes one traced pass and
//! prints the per-layer metrics too. The last line of standard output is
//! the JSON result: the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. Exit codes: 0 success, 1 a run failed the
//! correctness gate, 2 bad usage or an unreadable measurement.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::expected::{self, DEFAULT_SEED};
use perfbench::host::{self, Reference};
use perfbench::layers::Calibration;
use perfbench::metrics::{
    self, Def, RunSamples, Samples, Span, END_TO_END, PAPER_GTSC_SPEEDUP, PER_LAYER,
};
use perfbench::pass::{run_one, setup_one, GateFailure, Pass, RunResult};
use perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <sharing|streaming|multi-gpu-lossy> --seconds S [--seed N] [--trace 0|1]";

/// Set-ups of a kernel run measured just before each untraced run of it,
/// so that set-up samples spread over the whole invocation.
const SETUPS_PER_RUN: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seconds) = (None, None);
    let mut args = Args {
        workload: Workload::Sharing,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
    };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    Ok(args)
}

enum Failure {
    Gate(GateFailure),
    Measurement(String),
}

impl From<GateFailure> for Failure {
    fn from(g: GateFailure) -> Self {
        Failure::Gate(g)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut attempted = 0;
    match run(&args, &mut attempted) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Gate(g)) => {
            eprintln!(
                "correctness gate failed: workload {}, seed {}, {g}",
                args.workload.name(),
                args.seed
            );
            println!(
                "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": 1, \"metrics\": {{}}}}"
            );
            ExitCode::from(1)
        }
        Err(Failure::Measurement(e)) => {
            eprintln!("measurement failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Checks that `run` is the run `name` and has digest `digest`.
fn check_digest(
    run: &RunResult,
    (name, digest): (&str, u64),
    against: &str,
) -> Result<(), GateFailure> {
    if run.name == name && run.digest == digest {
        return Ok(());
    }
    Err(GateFailure {
        run: run.name.clone(),
        reason: format!(
            "digest {:016x} differs from {against} ({name}: {digest:016x})",
            run.digest
        ),
    })
}

fn run(args: &Args, attempted: &mut u64) -> Result<(), Failure> {
    let specs = args.workload.runs(args.seed);
    let recorded = (args.seed == DEFAULT_SEED).then(|| expected::digests(args.workload));
    if let Some(recorded) = recorded {
        if recorded.len() != specs.len() {
            return Err(Failure::Gate(GateFailure {
                run: "(all)".to_owned(),
                reason: format!(
                    "{} runs, but {} recorded digests",
                    specs.len(),
                    recorded.len()
                ),
            }));
        }
    }

    // Untraced passes until the time is up, stopping between kernel runs
    // once one whole pass is done; the first pass is kept for its counts.
    // The reference loop timed after each run gives its host-speed factor.
    let mut samples = Samples {
        runs: vec![RunSamples::default(); specs.len()],
    };
    let mut first: Vec<RunResult> = Vec::with_capacity(specs.len());
    let reference = Reference::default();
    let mut last_reference_s = reference.time();
    let start = Instant::now();
    'passes: for pass in 0.. {
        for (i, spec) in specs.iter().enumerate() {
            if pass > 0 && start.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            let setups = (0..SETUPS_PER_RUN)
                .map(|_| setup_one(spec))
                .collect::<Result<Vec<_>, _>>()?;
            *attempted += 1;
            let run = run_one(spec, false)?;
            let reference_s = reference.time();
            let speed = host::speed_factor(last_reference_s, reference_s);
            last_reference_s = reference_s;
            samples.runs[i].push(run.wall_s, speed, &setups);
            match (first.get(i), recorded) {
                (Some(f), _) => check_digest(&run, (&f.name, f.digest), "the first pass")?,
                (None, Some(recorded)) => {
                    check_digest(&run, recorded[i], "the recorded digest")?;
                    first.push(run);
                }
                (None, None) => first.push(run),
            }
        }
    }
    let first = Pass::new(first);

    println!(
        "workload {}  seed {}  {} kernel runs  {} untraced runs  {} set-ups",
        args.workload.name(),
        args.seed,
        specs.len(),
        samples.runs.iter().map(|r| r.wall_s.len()).sum::<usize>(),
        samples.runs.iter().map(|r| r.setups.len()).sum::<usize>(),
    );
    println!(
        "  {:<18} {:>9}  {:<16} {:>7} {:>9} {:>9} {:>12}",
        "run", "cycles", "digest", "samples", "fastest", "median", "speed range"
    );
    for (r, s) in first.runs.iter().zip(&samples.runs) {
        println!(
            "  {:<18} {:>9}  {:016x} {:>7} {:>9.4} {:>9.4} {:>5.3}-{:<5.3}",
            r.name,
            r.stats.cycles.0,
            r.digest,
            s.wall_s.len(),
            metrics::min(&s.wall_s),
            metrics::median(&mut s.wall_s.clone()),
            metrics::min(&s.speed),
            s.speed.iter().copied().fold(0.0, f64::max),
        );
    }

    let end_to_end = metrics::end_to_end(&first, &samples, peak_rss_mb()?);
    print_metrics(
        END_TO_END,
        &end_to_end,
        &format!(
            "wall_s and setup_s: sum over kernel runs of each run's fastest sample, scaled to \
             a host whose reference loop takes {:.0} ms (as measured: wall_s {:.4} s)",
            host::NOMINAL_REFERENCE_S * 1e3,
            samples.measured_wall_s()
        ),
    );
    let values = if args.trace {
        let cal = Calibration::measure();
        let mut runs = Vec::with_capacity(specs.len());
        for (spec, untraced) in specs.iter().zip(&first.runs) {
            *attempted += 1;
            let run = run_one(spec, true)?;
            check_digest(&run, (&untraced.name, untraced.digest), "the untraced pass")?;
            runs.push(run);
        }
        let traced = Pass::new(runs);
        let spans = metrics::spans(&traced, &cal);
        print_spans(&spans, &cal, traced.wall_s);
        let values = metrics::per_layer(&first, &samples, &traced, &spans);
        print_metrics(PER_LAYER, &values, "");
        values
    } else {
        end_to_end
    };
    println!(
        "{:<32} {:>14} {:<12} (0 of {attempted} kernel runs failed the gate)",
        "failed_share", 0.0, "ratio"
    );
    if let Some(x) = metrics::gtsc_speedup_over_tc(&first) {
        println!(
            "{:<32} {:>14.4} {:<12} (paper {PAPER_GTSC_SPEEDUP}x, relative error {:+.1}%; \
             the model is unvalidated against hardware)",
            "gtsc_speedup_over_tc",
            x,
            "x",
            (x / PAPER_GTSC_SPEEDUP - 1.0) * 100.0
        );
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let line =
        metrics::result_json(true, *attempted, 0, defs, &values).map_err(Failure::Measurement)?;
    println!("{line}");
    Ok(())
}

fn print_metrics(defs: &[Def], values: &BTreeMap<&'static str, f64>, note: &str) {
    if !note.is_empty() {
        println!("{note}");
    }
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!("{:<32} {:>14.6} {}", d.name, v + 0.0, d.unit);
        }
    }
}

fn print_spans(spans: &[Span], cal: &Calibration, traced_wall_s: f64) {
    println!(
        "traced pass: {traced_wall_s:.3} s; timing cost per call {:.1} ns inside the layer, {:.1} ns in all",
        cal.inside_ns, cal.total_ns
    );
    println!(
        "  {:>4} {:>6}  {:<20} {:>10} {:>10} {:>11} {:>11}",
        "span", "parent", "name", "dur_s", "self_s", "calls", "allocs"
    );
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        println!(
            "  {:>4} {:>6}  {:<20} {:>10.4} {:>10.4} {:>11} {:>11}",
            s.id, parent, s.name, s.duration_s, s.self_s, s.calls, s.allocs
        );
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, Failure> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Failure::Measurement(format!("reading /proc/self/status: {e}")))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| Failure::Measurement("no VmHWM in /proc/self/status".to_owned()))?;
    Ok(kb / 1024.0)
}
