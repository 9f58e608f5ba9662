//! The host-time statistics: each kernel run's fastest sample scaled to
//! the nominal host, summed over the runs.

use perfbench::host::{speed_factor, NOMINAL_REFERENCE_S, SENSITIVITY};
use perfbench::metrics::{RunSamples, Samples};
use perfbench::pass::SetupTime;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

fn setup(generate_s: f64, build_s: f64) -> SetupTime {
    SetupTime {
        generate_s,
        build_s,
    }
}

#[test]
fn a_pass_sums_each_runs_fastest_scaled_sample() {
    let mut a = RunSamples::default();
    a.push(2.0, 1.0, &[setup(0.1, 0.2)]);
    // Slower as measured, but at half speed: 1.5 s and a 0.1 s set-up on
    // the nominal host.
    a.push(3.0, 0.5, &[setup(0.1, 0.1), setup(0.4, 0.4)]);
    let mut b = RunSamples::default();
    b.push(1.0, 1.0, &[setup(0.3, 0.0)]);
    b.push(1.2, 1.0, &[setup(0.35, 0.0)]);
    let s = Samples { runs: vec![a, b] };

    assert!(close(s.wall_s(), 1.5 + 1.0), "{}", s.wall_s());
    assert!(close(s.measured_wall_s(), 2.0 + 1.0));
    assert!(close(s.typical_wall_s(), 2.5 + 1.1));
    assert!(close(s.setup_s(), 0.1 + 0.3), "{}", s.setup_s());
    assert!(close(s.generate_s(), 0.05 + 0.3));
    assert!(close(s.build_s(), 0.05 + 0.0));
}

#[test]
fn the_speed_factor_scales_to_the_nominal_host() {
    let nominal = NOMINAL_REFERENCE_S;
    let half = 0.5_f64.powf(SENSITIVITY);
    assert!(close(speed_factor(nominal, nominal), 1.0));
    assert!(close(speed_factor(2.0 * nominal, 2.0 * nominal), half));
    // The geometric mean of the timings before and after the run.
    assert!(close(speed_factor(nominal, 4.0 * nominal), half));
}
