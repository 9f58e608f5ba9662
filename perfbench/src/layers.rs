//! Timing decorators around the simulator's public layer boundaries.
//!
//! [`TimedL1`] and [`TimedL2`] wrap any controller that `build_l1` /
//! `build_l2` return, and [`TimedKernel`] wraps a [`Kernel`]. Each call
//! through a decorator is timed with two clock reads and adds its host
//! nanoseconds, its call count and the allocations made inside it to a
//! shared [`Meter`]. Every trait method is forwarded, defaulted ones
//! included, so a decorated machine simulates exactly what the bare one
//! does; the benchmark checks that by digest.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use gtsc_gpu::{Kernel, WarpProgram};
use gtsc_protocol::msg::{Epoch, L1ToL2, L2ToL1};
use gtsc_protocol::{
    Completion, ControllerPressure, L1Controller, L1Outcome, L2Controller, MemAccess, WaitHint,
};
use gtsc_sim::{build_l1, build_l2, GpuSim, SimBuilder, SimError};
use gtsc_trace::{Sanitizer, SpanTracker, Tracer};
use gtsc_types::snap::{SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, CacheStats, CtaId, Cycle, GpuConfig, Version, WarpId};

use crate::alloc::allocations;

/// Summed host time, calls and allocations of one layer.
#[derive(Debug, Default)]
pub struct Meter {
    calls: Cell<u64>,
    nanos: Cell<u64>,
    allocs: Cell<u64>,
}

/// A [`Meter`]'s totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    /// Calls timed.
    pub calls: u64,
    /// Host nanoseconds between the two clock reads of each call, summed.
    pub nanos: u64,
    /// Allocations made inside the timed calls.
    pub allocs: u64,
}

impl Meter {
    /// Runs `f`, adding its host time and allocations to the meter.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let a0 = allocations();
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        let a1 = allocations();
        self.calls.set(self.calls.get() + 1);
        self.nanos.set(self.nanos.get() + dt.as_nanos() as u64);
        self.allocs.set(self.allocs.get() + (a1 - a0));
        r
    }

    /// The totals so far.
    #[must_use]
    pub fn reading(&self) -> Reading {
        Reading {
            calls: self.calls.get(),
            nanos: self.nanos.get(),
            allocs: self.allocs.get(),
        }
    }
}

/// The host cost of timing one empty call, measured on this machine.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Nanoseconds an empty call adds to its layer's measured time (the
    /// part of the timing code that falls between the two clock reads).
    pub inside_ns: f64,
    /// Nanoseconds one timed empty call costs in total; the difference
    /// to `inside_ns` lands outside the layer, in the caller's time.
    pub total_ns: f64,
}

impl Calibration {
    /// Measures the median of several batches of empty timed calls.
    #[must_use]
    pub fn measure() -> Self {
        const CALLS: u64 = 200_000;
        let mut inside = Vec::new();
        let mut total = Vec::new();
        for _ in 0..7 {
            let meter = Meter::default();
            let t0 = Instant::now();
            for i in 0..CALLS {
                meter.time(|| black_box(i));
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            inside.push(meter.reading().nanos as f64 / CALLS as f64);
            total.push(elapsed / CALLS as f64);
        }
        Calibration {
            inside_ns: crate::metrics::median(&mut inside),
            total_ns: crate::metrics::median(&mut total),
        }
    }

    /// Seconds of `r` spent in the layer itself, timing cost removed.
    #[must_use]
    pub fn self_s(&self, r: Reading) -> f64 {
        ((r.nanos as f64 - r.calls as f64 * self.inside_ns) / 1e9).max(0.0)
    }

    /// Seconds the timing of `r`'s calls added in all.
    #[must_use]
    pub fn overhead_s(&self, r: Reading) -> f64 {
        r.calls as f64 * self.total_ns / 1e9
    }
}

/// Meters for the layers of one decorated machine.
#[derive(Debug, Default)]
pub struct Meters {
    /// Every private-cache controller.
    pub l1: Rc<Meter>,
    /// Every shared-cache bank.
    pub l2: Rc<Meter>,
    /// `Kernel::program` at CTA dispatch.
    pub program: Rc<Meter>,
}

/// Builds a [`GpuSim`] whose L1 and L2 controllers are the ones
/// `build_l1` / `build_l2` return for `cfg`, each behind a timing
/// decorator feeding `meters`.
///
/// # Errors
///
/// As for [`SimBuilder::try_build`].
pub fn decorated_gpu(cfg: GpuConfig, meters: &Meters) -> Result<GpuSim, SimError> {
    let (l1, l2) = (meters.l1.clone(), meters.l2.clone());
    SimBuilder::new(cfg)
        .with_l1(move |c, i| {
            Box::new(TimedL1 {
                inner: build_l1(c, i),
                meter: l1.clone(),
            })
        })
        .with_l2(move |c| {
            Box::new(TimedL2 {
                inner: build_l2(c),
                meter: l2.clone(),
            })
        })
        .try_build()
}

/// A private-cache controller behind a timing decorator.
pub struct TimedL1 {
    inner: Box<dyn L1Controller>,
    meter: Rc<Meter>,
}

impl L1Controller for TimedL1 {
    fn access(&mut self, acc: MemAccess, now: Cycle) -> L1Outcome {
        let inner = &mut self.inner;
        self.meter.time(|| inner.access(acc, now))
    }
    fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> Vec<Completion> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_response(msg, now))
    }
    fn take_request(&mut self) -> Option<L1ToL2> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.take_request())
    }
    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.tick(now))
    }
    fn fence_ready(&self, warp: WarpId, now: Cycle) -> bool {
        self.meter.time(|| self.inner.fence_ready(warp, now))
    }
    fn enable_retry(&mut self, timeout: u64) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.enable_retry(timeout));
    }
    fn flush(&mut self) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.flush());
    }
    fn is_idle(&self) -> bool {
        self.meter.time(|| self.inner.is_idle())
    }
    fn stats(&self) -> CacheStats {
        self.meter.time(|| self.inner.stats())
    }
    fn pressure(&self) -> ControllerPressure {
        self.meter.time(|| self.inner.pressure())
    }
    fn wait_hint(&self) -> WaitHint {
        self.meter.time(|| self.inner.wait_hint())
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.set_tracer(tracer));
    }
    fn tracer(&self) -> Option<&Tracer> {
        self.meter.time(|| self.inner.tracer())
    }
    fn set_sanitizer(&mut self, sanitizer: Sanitizer) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.set_sanitizer(sanitizer));
    }
    fn set_span_tracker(&mut self, spans: SpanTracker) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.set_span_tracker(spans));
    }
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.meter.time(|| self.inner.save_state(w))
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.load_state(r))
    }
}

/// A shared-cache bank controller behind a timing decorator.
pub struct TimedL2 {
    inner: Box<dyn L2Controller>,
    meter: Rc<Meter>,
}

impl L2Controller for TimedL2 {
    fn on_request(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_request(src, msg, now));
    }
    fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.take_response())
    }
    fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.take_dram_request())
    }
    fn dram_ready(&mut self, ready: bool) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.dram_ready(ready));
    }
    fn on_dram_response(&mut self, block: BlockAddr, is_write: bool, now: Cycle) {
        let inner = &mut self.inner;
        self.meter
            .time(|| inner.on_dram_response(block, is_write, now));
    }
    fn tick(&mut self, now: Cycle) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.tick(now));
    }
    fn needs_reset(&self) -> bool {
        self.meter.time(|| self.inner.needs_reset())
    }
    fn apply_reset(&mut self, epoch: Epoch) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.apply_reset(epoch));
    }
    fn crash(&mut self, now: Cycle) -> bool {
        let inner = &mut self.inner;
        self.meter.time(|| inner.crash(now))
    }
    fn is_idle(&self) -> bool {
        self.meter.time(|| self.inner.is_idle())
    }
    fn stats(&self) -> CacheStats {
        self.meter.time(|| self.inner.stats())
    }
    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        self.meter.time(|| self.inner.memory_image())
    }
    fn pressure(&self) -> ControllerPressure {
        self.meter.time(|| self.inner.pressure())
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.set_tracer(tracer));
    }
    fn tracer(&self) -> Option<&Tracer> {
        self.meter.time(|| self.inner.tracer())
    }
    fn set_sanitizer(&mut self, sanitizer: Sanitizer) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.set_sanitizer(sanitizer));
    }
    fn set_span_tracker(&mut self, spans: SpanTracker) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.set_span_tracker(spans));
    }
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.meter.time(|| self.inner.save_state(w))
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.load_state(r))
    }
}

/// A kernel whose `program` calls are timed.
pub struct TimedKernel<'a> {
    /// The kernel being dispatched.
    pub inner: &'a dyn Kernel,
    /// Where `program` calls are counted.
    pub meter: Rc<Meter>,
}

impl Kernel for TimedKernel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn n_ctas(&self) -> usize {
        self.inner.n_ctas()
    }
    fn warps_per_cta(&self) -> usize {
        self.inner.warps_per_cta()
    }
    fn program(&self, cta: CtaId, warp_in_cta: usize) -> WarpProgram {
        self.meter.time(|| self.inner.program(cta, warp_in_cta))
    }
}
