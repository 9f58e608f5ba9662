//! The one device model and run loop behind both simulators.
//!
//! A [`Device`] is one GPU's on-die hierarchy: its SMs with their
//! private caches, the request and response crossbars, and the L2 banks.
//! A [`Machine`] is N devices over a [`Level`] — whatever sits below the
//! L2 banks — plus the state every machine shares: the clock, the
//! Section V-D epoch, the coherence checker, the sanitizer, and the
//! crash schedule. [`crate::GpuSim`] is the N = 1 machine over DRAM
//! partitions; [`crate::MultiGpuSim`] is N devices over the inter-GPU
//! fabric and its home node (DESIGN.md §17.6).
//!
//! One clock cycle ([`Machine::step`]) runs, in order:
//!
//! 1. per device: SM issue (L1 hits complete at once);
//! 2. per device: L1 housekeeping, then L1 → request network;
//! 3. per device: request deliveries → L2 banks;
//! 4. the machine's below-L2 phase ([`Level::step`]): DRAM on one GPU,
//!    fabric and home node on many;
//! 5. scheduled crashes (L2 banks on one GPU, whole devices on many),
//!    then the Section V-D global reset if anything overflowed or
//!    crashed;
//! 6. per device: L2 → response network;
//! 7. per device: response deliveries → L1s;
//! 8. per device: cycle-reason accounting.

use gtsc_faults::{BankFaults, FaultPlan, FaultStats};
use gtsc_gpu::{Kernel, Sm, SmParams};
use gtsc_noc::ReliableNet;
use gtsc_protocol::msg::{Epoch, L1ToL2, L2ToL1, MsgSizes};
use gtsc_protocol::{L1Controller, L2Controller, WaitHint};
use gtsc_trace::{
    merge_tails, HopKind, IntervalSampler, Sanitizer, Scope, SpanTracker, TraceEvent, Tracer,
};
use gtsc_types::snap::{
    crc32, Snap, SnapReader, SnapWriter, SnapshotBuilder, SnapshotError, SnapshotFile,
};
use gtsc_types::{CtaId, Cycle, CycleReason, FaultConfig, GpuConfig, SimStats, SmId};

use crate::check::{Checker, Violation};
use crate::gpu::{KernelProgress, RunReport, SimError, StallDiagnosis};

/// Retained checker events above which [`Checker::compact`] runs (large
/// enough that short litmus runs — whose tests read exact
/// `load_observations` — are never compacted).
const COMPACT_RETAINED_THRESHOLD: usize = 1 << 20;
/// How often (in cycles) the run loop polls the checker's footprint.
const COMPACT_POLL_CYCLES: u64 = 4096;

/// One GPU device: its SMs (each with its private cache), its on-die
/// request/response crossbars, and its L2 banks.
pub struct Device<B: ?Sized> {
    pub(crate) sms: Vec<Sm>,
    pub(crate) l2: Vec<Box<B>>,
    pub(crate) req_net: ReliableNet<(usize, L1ToL2)>,
    pub(crate) resp_net: ReliableNet<L2ToL1>,
    /// Global index of this device's first SM: local SM `i` is SM
    /// `first_sm + i` to the checker, the tracers, and version minting.
    first_sm: usize,
}

impl<B: ?Sized + L2Controller> Device<B> {
    /// Builds device `index` of `cfg`. Its crossbars draw their fault
    /// streams from `faults`, and arm the reliable transport whenever
    /// those faults can lose traffic; `retry` arms the L1s' end-to-end
    /// retry. `l1` is called once per SM with the SM's global index,
    /// then `l2` once per bank.
    pub(crate) fn new(
        cfg: &GpuConfig,
        index: usize,
        faults: FaultConfig,
        retry: bool,
        l1: &dyn Fn(&GpuConfig, usize) -> Box<dyn L1Controller>,
        mut l2: impl FnMut() -> Box<B>,
    ) -> Self {
        let first_sm = index * cfg.n_sms;
        let mut sms: Vec<Sm> = (first_sm..first_sm + cfg.n_sms)
            .map(|global| {
                Sm::new(
                    SmParams {
                        id: SmId(global as u16),
                        n_warp_slots: cfg.warps_per_sm,
                        block_shift: cfg.l1.block_shift(),
                        consistency: cfg.consistency,
                        max_outstanding_per_warp: cfg.max_outstanding_per_warp,
                        max_ctas: cfg.max_ctas_per_sm,
                        issue_width: 1,
                        scheduler: cfg.scheduler,
                    },
                    l1(cfg, global),
                )
            })
            .collect();
        let l2 = (0..cfg.l2_banks).map(|_| l2()).collect();
        let plan = FaultPlan::new(faults);
        let mut req_net = ReliableNet::new(cfg.n_sms, cfg.l2_banks, cfg.noc, cfg.transport);
        let mut resp_net = ReliableNet::new(cfg.l2_banks, cfg.n_sms, cfg.noc, cfg.transport);
        req_net.set_faults(plan.noc(0), plan.noc(2));
        resp_net.set_faults(plan.noc(1), plan.noc(3));
        if faults.lossy_active() {
            // Loss faults make the raw NoC unreliable: arm the transport
            // layer (ack/retransmit/dedup). It stays off otherwise so the
            // lossless hot path — and the watchdog's ability to catch
            // genuine protocol stalls — are untouched.
            req_net.enable(faults.seed ^ 0x5245_515F);
            resp_net.enable(faults.seed ^ 0x5245_5350);
        }
        if retry {
            for sm in &mut sms {
                sm.l1_mut().enable_retry(cfg.transport.retry_timeout);
            }
        }
        Device {
            sms,
            l2,
            req_net,
            resp_net,
            first_sm,
        }
    }

    /// Attaches tracers (per `cfg.trace`), span probes, and sanitizer
    /// scopes. Device `index`'s crossbars trace as NoC `2·index` and
    /// `2·index + 1`; bank `b` as `bank_scope(b)`.
    fn wire(
        &mut self,
        cfg: &GpuConfig,
        index: usize,
        bank_scope: impl Fn(usize) -> Scope,
        sanitizer: &Sanitizer,
        spans: &SpanTracker,
    ) {
        let sm_scope = |i: usize| Scope::Sm((self.first_sm + i) as u16);
        if cfg.trace.is_enabled() {
            for (i, sm) in self.sms.iter_mut().enumerate() {
                sm.set_tracer(Tracer::new(sm_scope(i), &cfg.trace));
                sm.l1_mut().set_tracer(Tracer::new(sm_scope(i), &cfg.trace));
            }
            for (b, bank) in self.l2.iter_mut().enumerate() {
                bank.set_tracer(Tracer::new(bank_scope(b), &cfg.trace));
            }
            let noc = 2 * index as u16;
            self.req_net
                .set_tracer(Tracer::new(Scope::Noc(noc), &cfg.trace));
            self.resp_net
                .set_tracer(Tracer::new(Scope::Noc(noc + 1), &cfg.trace));
        }
        if spans.is_enabled() {
            for sm in &mut self.sms {
                sm.set_span_sampling(cfg.trace.span_rate, cfg.trace.span_seed, spans.clone());
                sm.l1_mut().set_span_tracker(spans.clone());
            }
            for bank in &mut self.l2 {
                bank.set_span_tracker(spans.clone());
            }
            self.req_net
                .set_span_probe(spans.clone(), |p: &(usize, L1ToL2)| p.1.span());
            self.resp_net.set_span_probe(spans.clone(), L2ToL1::span);
        }
        if sanitizer.is_enabled() {
            for (i, sm) in self.sms.iter_mut().enumerate() {
                sm.l1_mut().set_sanitizer(sanitizer.for_scope(sm_scope(i)));
            }
            for (b, bank) in self.l2.iter_mut().enumerate() {
                bank.set_sanitizer(sanitizer.for_scope(bank_scope(b)));
            }
        }
    }

    /// Phases 1–3 of a cycle: SM issue, L1 housekeeping and egress,
    /// request delivery to the banks.
    fn issue(&mut self, now: Cycle, sizes: &MsgSizes, checker: &mut Checker, spans: &SpanTracker) {
        let n_banks = self.l2.len();

        // 1. SM issue; L1 hits complete immediately.
        for (i, sm) in self.sms.iter_mut().enumerate() {
            for c in sm.cycle(now) {
                checker.on_completion(self.first_sm + i, &c, now);
            }
        }

        // 2. L1 housekeeping (end-to-end retry scans may re-queue overdue
        //    requests and complete long-parked waiters), then L1 →
        //    request network.
        for (i, sm) in self.sms.iter_mut().enumerate() {
            for c in sm.l1_mut().tick(now) {
                sm.on_completion_at(&c, Some(now));
                checker.on_completion(self.first_sm + i, &c, now);
            }
            while let Some(req) = sm.l1_mut().take_request() {
                let bank = req.block().bank(n_banks);
                let bytes = sizes.request_bytes(&req);
                spans.hop_enter(req.span(), HopKind::NocReq, now);
                self.req_net.send(i, bank, bytes, (i, req), now);
            }
        }

        // 3. Request deliveries → L2 banks.
        for (bank, (src, msg)) in self.req_net.tick(now) {
            spans.hop_enter(msg.span(), HopKind::L2Serve, now);
            self.l2[bank].on_request(src, msg, now);
        }
    }

    /// Phases 6–8 of a cycle: bank responses onto the response network,
    /// deliveries to the L1s, and cycle-reason accounting (`rollover`:
    /// a Section V-D reset happened this cycle).
    fn respond(
        &mut self,
        now: Cycle,
        rollover: bool,
        sizes: &MsgSizes,
        checker: &mut Checker,
        spans: &SpanTracker,
    ) {
        // 6. L2 → response network.
        for (b, bank) in self.l2.iter_mut().enumerate() {
            while let Some((dst, msg)) = bank.take_response() {
                let bytes = sizes.response_bytes(&msg);
                spans.hop_enter(msg.span(), HopKind::NocResp, now);
                self.resp_net.send(b, dst, bytes, msg, now);
            }
        }

        // 7. Response deliveries → L1s; completions retire warp accesses.
        for (dst, msg) in self.resp_net.tick(now) {
            let sm = &mut self.sms[dst];
            spans.hop_enter(msg.span(), HopKind::L1Fill, now);
            for c in sm.l1_mut().on_response(msg, now) {
                sm.on_completion_at(&c, Some(now));
                checker.on_completion(self.first_sm + dst, &c, now);
            }
        }

        // 8. Cycle-reason accounting: attribute this cycle, for every SM,
        //    to exactly one bucket. The buckets therefore tile elapsed
        //    time — `sum(buckets) == steps` per SM, the invariant the
        //    sanitizer and the profile report both assert.
        for sm in &mut self.sms {
            let reason = if sm.issued_last_cycle() {
                CycleReason::Issue
            } else if rollover {
                CycleReason::RolloverFreeze
            } else if !sm.has_resident_warps() {
                CycleReason::Idle
            } else {
                match sm.l1().wait_hint() {
                    WaitHint::LeaseExpired => CycleReason::LeaseExpiredWait,
                    WaitHint::MshrFull => CycleReason::MshrFull,
                    WaitHint::NocBackpressure => CycleReason::NocBackpressure,
                    WaitHint::Downstream => CycleReason::DramWait,
                    WaitHint::None => CycleReason::Idle,
                }
            };
            sm.account_cycle(reason);
        }
    }

    /// Crashes bank `b`; if it went down, generation-resets its transport
    /// flows on both crossbars in the same cycle, so pre-crash sequence
    /// state never collides with the rebuilt bank.
    pub(crate) fn crash_bank(&mut self, b: usize, now: Cycle) -> bool {
        let crashed = self.l2[b].crash(now);
        if crashed {
            self.req_net.reset_flows_to_dst(b, now);
            self.resp_net.reset_flows_from_src(b, now);
        }
        crashed
    }

    fn is_idle(&self) -> bool {
        self.sms.iter().all(Sm::is_idle)
            && self.l2.iter().all(|b| b.is_idle())
            && self.req_net.is_idle()
            && self.resp_net.is_idle()
    }

    /// Adds this device's counters: per-SM and per-L1 rows, per-bank
    /// rows, and both crossbars' NoC and transport counters.
    fn add_stats(&self, stats: &mut SimStats) {
        for sm in &self.sms {
            let s = sm.stats();
            let l1 = sm.l1().stats();
            stats.sm.merge(&s);
            stats.l1.merge(&l1);
            stats.per_sm.push(s);
            stats.per_l1.push(l1);
        }
        for bank in &self.l2 {
            let s = bank.stats();
            stats.l2.merge(&s);
            stats.per_l2.push(s);
        }
        stats.noc.merge(&self.req_net.stats());
        stats.noc.merge(&self.resp_net.stats());
        stats.transport.merge(&self.req_net.transport_stats());
        stats.transport.merge(&self.resp_net.transport_stats());
    }

    /// Every component's tracer, in a fixed order: SMs (each followed by
    /// its L1), then banks.
    fn tracers(&self) -> impl Iterator<Item = &Tracer> {
        self.sms
            .iter()
            .flat_map(|sm| [Some(sm.tracer()), sm.l1().tracer()])
            .chain(self.l2.iter().map(|b| b.tracer()))
            .flatten()
    }

    fn add_events(&self, all: &mut Vec<TraceEvent>) {
        for t in self.tracers() {
            all.extend_from_slice(t.events());
        }
        all.extend(self.req_net.events());
        all.extend(self.resp_net.events());
    }

    fn add_tails(&self, tails: &mut Vec<Vec<TraceEvent>>) {
        tails.extend(self.tracers().map(Tracer::flight_tail));
        tails.push(self.req_net.flight_tail());
        tails.push(self.resp_net.flight_tail());
    }

    /// Adds this device's warps, queues, and crossbar pressure to `d`.
    fn diagnose(&self, now: Cycle, d: &mut StallDiagnosis) {
        d.resident_warps += self.sms.iter().map(Sm::resident_warps).sum::<usize>();
        for (i, sm) in (self.first_sm..).zip(&self.sms) {
            d.warps
                .extend(sm.stalled_warps(now).into_iter().map(|w| (i, w)));
        }
        d.l1.extend(self.sms.iter().map(|sm| sm.l1().pressure()));
        d.l2.extend(self.l2.iter().map(|b| b.pressure()));
        d.req_net_in_flight += self.req_net.in_flight();
        d.req_net_queued += self.req_net.queued();
        d.resp_net_in_flight += self.resp_net.in_flight();
        d.resp_net_queued += self.resp_net.queued();
        d.transport_unacked += self.req_net.unacked() + self.resp_net.unacked();
        d.retransmits += self.req_net.transport_stats().retransmits
            + self.resp_net.transport_stats().retransmits;
    }

    pub(crate) fn save_nets(&self, w: &mut SnapWriter) {
        self.req_net.save_state(w);
        self.resp_net.save_state(w);
    }

    pub(crate) fn load_nets(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.req_net.load_state(r)?;
        self.resp_net.load_state(r)
    }
}

/// Encodes one snapshot section with `fill`.
pub(crate) fn encode(fill: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    fill(&mut w);
    w.into_bytes()
}

/// [`encode`] for sections whose components may not support
/// checkpointing.
pub(crate) fn try_encode(
    fill: impl FnOnce(&mut SnapWriter) -> Result<(), SnapshotError>,
) -> Result<Vec<u8>, SnapshotError> {
    let mut w = SnapWriter::new();
    fill(&mut w)?;
    Ok(w.into_bytes())
}

/// Reads section `name` with `read`, which must consume all of it.
pub(crate) fn decode<T>(
    file: &SnapshotFile<'_>,
    name: &'static str,
    read: impl FnOnce(&mut SnapReader<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut r = file.section(name)?;
    let value = read(&mut r)?;
    r.expect_end(name)?;
    Ok(value)
}

/// Writes the number of `items`, then each item.
pub(crate) fn save_all<T>(
    w: &mut SnapWriter,
    items: &[T],
    save: impl Fn(&T, &mut SnapWriter) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    w.usize(items.len());
    items.iter().try_for_each(|item| save(item, w))
}

/// Reads what [`save_all`] wrote into `items`, rejecting a count that
/// differs from the machine's (`what` names the count).
pub(crate) fn load_all<T>(
    r: &mut SnapReader<'_>,
    items: &mut [T],
    what: &str,
    load: impl Fn(&mut T, &mut SnapReader<'_>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    if r.usize()? != items.len() {
        return Err(SnapshotError::Mismatch { what: what.into() });
    }
    items.iter_mut().try_for_each(|item| load(item, r))
}

/// What sits below a machine's L2 banks: DRAM partitions on one GPU,
/// the inter-GPU fabric and home node on many. It owns phase 4 of the
/// cycle and the machine's crash semantics, and contributes its own
/// components to stats, traces, stall diagnoses, and snapshots.
pub trait Level {
    type Bank: ?Sized + L2Controller;
    /// The simulator's public name, for `Debug` output.
    const NAME: &'static str;
    /// Whether the machine keeps an interval time series and causal
    /// spans (and a "sampler" snapshot section).
    const SAMPLED: bool;
    /// The whole configuration's label and derived `Debug` form (`gpu`
    /// is its per-device part).
    fn describe(&self, gpu: &GpuConfig) -> (String, String);
    /// Trace and sanitizer scope of bank `bank` of device `device`.
    fn bank_scope(device: usize, bank: usize) -> Scope;
    /// Phase 4: the banks' below-L2 traffic.
    fn step(&mut self, devices: &mut [Device<Self::Bank>], now: Cycle);
    /// Crashes unit `unit` of the machine's crash schedule; returns
    /// whether it went down (and so counts as a recovery).
    fn crash(&mut self, devices: &mut [Device<Self::Bank>], unit: usize, now: Cycle) -> bool;
    /// Whether the level itself demands a Section V-D reset.
    fn needs_reset(&self) -> bool {
        false
    }
    fn apply_reset(&mut self, _epoch: Epoch) {}
    fn is_idle(&self) -> bool;
    /// The level's share of the watchdog's transport-progress term.
    fn progress_mark(&self) -> u64 {
        0
    }
    fn add_stats(&self, stats: &mut SimStats);
    fn add_events(&self, all: &mut Vec<TraceEvent>);
    fn add_tails(&self, tails: &mut Vec<Vec<TraceEvent>>);
    fn fault_stats(&self) -> Vec<FaultStats>;
    /// Completes a stall diagnosis the devices have filled in.
    fn diagnose(&self, devices: &[Device<Self::Bank>], now: Cycle, d: &mut StallDiagnosis);
    /// Writes the machine-specific snapshot sections, which sit between
    /// "sim" and "checker".
    fn save(
        &self,
        devices: &[Device<Self::Bank>],
        b: &mut SnapshotBuilder,
    ) -> Result<(), SnapshotError>;
    fn load(
        &mut self,
        devices: &mut [Device<Self::Bank>],
        file: &SnapshotFile<'_>,
    ) -> Result<(), SnapshotError>;
}

/// A simulated machine: N GPU devices over what sits below their L2
/// banks, plus the state and the run loop every machine shares. Used
/// through its two instances, [`GpuSim`](crate::GpuSim) (one device over
/// DRAM) and [`MultiGpuSim`](crate::MultiGpuSim) (N devices over the
/// inter-GPU fabric); its generic methods are common to both.
pub struct Machine<L: Level> {
    /// Per-device configuration.
    pub(crate) cfg: GpuConfig,
    pub(crate) devices: Vec<Device<L::Bank>>,
    pub(crate) level: L,
    /// Crash schedulers: one per bank on a single GPU, one per device on
    /// many (`None` where crashes are off).
    crashes: Vec<Option<BankFaults>>,
    /// Crash recoveries so far (surfaces as
    /// [`gtsc_types::TransportStats::bank_recoveries`]).
    pub(crate) recoveries: u64,
    /// On-die message sizes.
    sizes: MsgSizes,
    pub(crate) now: Cycle,
    pub(crate) epoch: Epoch,
    pub(crate) checker: Checker,
    /// Interval time series (interval 0, so never sampling, unless
    /// [`Level::SAMPLED`]).
    pub(crate) sampler: IntervalSampler,
    /// Root handle on the shared transition sanitizer (disabled unless
    /// `cfg.sanitize`); every controller holds a scoped clone.
    pub(crate) sanitizer: Sanitizer,
    /// Root handle on the shared causal-span tracker (disabled unless
    /// [`Level::SAMPLED`] and `cfg.trace.spans_enabled()`). Volatile
    /// observability state — excluded from snapshots like the tracer.
    pub(crate) spans: SpanTracker,
    /// Cycles actually stepped (the denominator of the cycle-reason
    /// accounting invariant: every per-SM bucket set sums to exactly
    /// this). Snapshotted, unlike the span state, because the accounting
    /// lives in `SmStats` which is snapshotted too.
    steps: u64,
}

impl<L: Level> std::fmt::Debug for Machine<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(L::NAME)
            .field("config", &self.level.describe(&self.cfg).0)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<L: Level> Machine<L> {
    /// Wires `devices` (tracers, spans, sanitizer) and assembles the
    /// machine at cycle 0; `cfg` is the per-device configuration.
    pub(crate) fn assemble(
        cfg: GpuConfig,
        mut devices: Vec<Device<L::Bank>>,
        level: L,
        crashes: Vec<Option<BankFaults>>,
    ) -> Self {
        let sanitizer = if cfg.sanitize {
            Sanitizer::enabled(Scope::Sm(0))
        } else {
            Sanitizer::disabled()
        };
        let spans = if L::SAMPLED && cfg.trace.spans_enabled() {
            SpanTracker::new(cfg.trace.span_cap)
        } else {
            SpanTracker::disabled()
        };
        for (d, dev) in devices.iter_mut().enumerate() {
            dev.wire(&cfg, d, |b| L::bank_scope(d, b), &sanitizer, &spans);
        }
        let sampler = IntervalSampler::new(if L::SAMPLED && cfg.trace.is_enabled() {
            cfg.trace.sample_interval
        } else {
            0
        });
        let sizes = MsgSizes::new(cfg.noc.control_bytes, cfg.ts_bits, cfg.l1.block_size());
        Machine {
            cfg,
            devices,
            level,
            crashes,
            recoveries: 0,
            sizes,
            now: Cycle(0),
            epoch: 0,
            checker: Checker::new(),
            sampler,
            sanitizer,
            spans,
            steps: 0,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Read-only access to the coherence checker (litmus assertions in
    /// tests use its load observations).
    #[must_use]
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// The root handle on the transition sanitizer (disabled unless
    /// the config set [`gtsc_types::GpuConfig::sanitize`]).
    #[must_use]
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Runs `kernel` to completion — CTA `c` on device
    /// `c % n_devices`, round-robin across that device's SMs as they
    /// free up — then flushes the private caches (kernel boundary,
    /// Section V-D).
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidKernel`] if a CTA is wider than an SM.
    /// * [`SimError::Stalled`] if `watchdog_cycles` pass without any
    ///   completion, instruction issue, or CTA dispatch — with a
    ///   [`StallDiagnosis`] explaining where
    ///   work is stuck.
    /// * [`SimError::CycleLimit`] if `max_cycles` elapses first.
    pub fn run_kernel(&mut self, kernel: &dyn Kernel) -> Result<RunReport, SimError> {
        let mut progress = KernelProgress::new(kernel);
        // A zero budget is unbounded: advance_kernel only parks (None) on
        // an exhausted budget, so the report is always present here.
        self.advance_kernel(kernel, &mut progress, 0)?
            .ok_or_else(|| {
                SimError::InvalidConfig("unbounded advance_kernel yielded no report".into())
            })
    }

    /// Advances `kernel` by at most `max_cycles` cycles (`0` =
    /// unbounded), carrying dispatch and watchdog state in `progress`
    /// so a run can be executed in slices — and checkpointed between
    /// them via [`Self::save_snapshot`]. Slicing is *invisible* to the
    /// simulation: any sequence of budgets produces the machine
    /// state, stats, and report of one uninterrupted run.
    ///
    /// Returns `Ok(Some(report))` when the kernel drained (private
    /// caches flushed, kernel boundary of Section V-D), or `Ok(None)`
    /// when the budget elapsed with work still pending.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidKernel`] if a CTA is wider than an SM, or
    ///   if `progress` belongs to a different kernel.
    /// * [`SimError::Stalled`] / [`SimError::CycleLimit`] as for
    ///   [`Self::run_kernel`].
    pub fn advance_kernel(
        &mut self,
        kernel: &dyn Kernel,
        progress: &mut KernelProgress,
        max_cycles: u64,
    ) -> Result<Option<RunReport>, SimError> {
        if kernel.warps_per_cta() > self.cfg.warps_per_sm {
            return Err(SimError::InvalidKernel(format!(
                "CTA wider than an SM: kernel '{}' needs {} warps per CTA but SMs have {} slots",
                kernel.name(),
                kernel.warps_per_cta(),
                self.cfg.warps_per_sm
            )));
        }
        if !progress.matches(kernel) {
            return Err(SimError::InvalidKernel(format!(
                "progress for kernel '{}' ({} CTAs × {} warps) cannot resume kernel '{}' \
                 ({} CTAs × {} warps)",
                progress.kernel_name,
                progress.n_ctas,
                progress.warps_per_cta,
                kernel.name(),
                kernel.n_ctas(),
                kernel.warps_per_cta()
            )));
        }
        let n_ctas = kernel.n_ctas();
        let n_devices = self.devices.len();
        let mut budget = max_cycles;
        loop {
            // CTA dispatch: CTA c goes to device c % n_devices (on many
            // GPUs, a deterministic spread that puts true sharing on the
            // fabric), round-robin across that device's SMs (as GPGPU-Sim
            // does), so the grid spreads over the whole chip instead of
            // packing the first SMs. Dispatch is in order: a full device
            // parks the grid tail until it drains.
            'dispatch: while progress.next_cta < n_ctas {
                let cta = CtaId(progress.next_cta as u32);
                let sms = &mut self.devices[progress.next_cta % n_devices].sms;
                let warps = kernel.warps_per_cta();
                let n_sms = sms.len();
                let Some(offset) = (0..n_sms)
                    .find(|k| sms[(progress.sm_cursor + k) % n_sms].can_accept_cta(warps))
                else {
                    break 'dispatch;
                };
                let picked = (progress.sm_cursor + offset) % n_sms;
                progress.sm_cursor = (picked + 1) % n_sms;
                let programs = (0..warps).map(|w| kernel.program(cta, w)).collect();
                sms[picked].assign_cta(cta, programs);
                progress.next_cta += 1;
            }

            self.step();

            if self.sampler.due(self.now) {
                let cumulative = self.cumulative_stats();
                self.sampler.sample(self.now, &cumulative);
            }

            // Bound the checker's memory on soaks: prune globally visible
            // history once the retained set is large (never on the short
            // litmus runs whose tests read exact observations).
            if self.now.0.is_multiple_of(COMPACT_POLL_CYCLES)
                && self.checker.retained_events() >= COMPACT_RETAINED_THRESHOLD
            {
                self.checker.compact();
            }

            if progress.next_cta == n_ctas && self.all_idle() {
                break;
            }
            // Forward-progress watchdog: a fingerprint that moves whenever
            // the machine does useful work. Completions and issues cover
            // draining; dispatch covers the ramp-up; resident covers
            // retirement; the transport mark (deliveries + acks + flow
            // resets — deliberately not retransmits, which can spin
            // forever) keeps lossy runs alive while recovery is genuinely
            // advancing.
            let fingerprint = (
                self.checker.n_events(),
                self.devices
                    .iter()
                    .flat_map(|d| d.sms.iter().map(Sm::issued_count))
                    .sum::<u64>(),
                progress.next_cta,
                self.resident_warps(),
                self.devices
                    .iter()
                    .map(|d| d.req_net.progress_mark() + d.resp_net.progress_mark())
                    .sum::<u64>()
                    + self.level.progress_mark(),
            );
            if fingerprint != progress.last_fingerprint {
                progress.last_fingerprint = fingerprint;
                progress.last_progress = self.now;
            } else if self.cfg.watchdog_cycles > 0
                && self.now - progress.last_progress >= self.cfg.watchdog_cycles
            {
                return Err(SimError::Stalled {
                    at: self.now,
                    diagnosis: Box::new(self.diagnose_stall(self.now - progress.last_progress)),
                });
            }
            self.now += 1;
            if self.cfg.max_cycles > 0 && self.now.0 > self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    at: self.now,
                    resident_warps: self.resident_warps(),
                });
            }
            if max_cycles > 0 {
                budget -= 1;
                if budget == 0 {
                    return Ok(None);
                }
            }
        }
        for sm in self.devices.iter_mut().flat_map(|d| d.sms.iter_mut()) {
            sm.l1_mut().flush();
        }
        let cumulative = self.cumulative_stats();
        self.sampler.finish(self.now, &cumulative);
        Ok(Some(self.report()))
    }

    /// One global clock cycle (phases numbered as in the module docs).
    fn step(&mut self) {
        let now = self.now;
        for dev in &mut self.devices {
            dev.issue(now, &self.sizes, &mut self.checker, &self.spans);
        }

        // 4. Below the L2 banks.
        self.level.step(&mut self.devices, now);

        // 5. Scheduled crashes, then the global reset of Section V-D: any
        //    overflowing timestamp or crashed unit bumps the shared epoch
        //    everywhere at once.
        for unit in 0..self.crashes.len() {
            let due = self.crashes[unit].as_mut().is_some_and(|f| f.due(now.0));
            if due && self.level.crash(&mut self.devices, unit, now) {
                self.recoveries += 1;
            }
        }
        let mut banks = self.devices.iter().flat_map(|d| &d.l2);
        let rollover = self.level.needs_reset() || banks.any(|b| b.needs_reset());
        if rollover {
            self.epoch += 1;
            self.level.apply_reset(self.epoch);
            for bank in self.devices.iter_mut().flat_map(|d| d.l2.iter_mut()) {
                bank.apply_reset(self.epoch);
            }
        }

        for dev in &mut self.devices {
            dev.respond(now, rollover, &self.sizes, &mut self.checker, &self.spans);
        }
        self.steps += 1;
    }

    fn all_idle(&self) -> bool {
        self.devices.iter().all(Device::is_idle) && self.level.is_idle()
    }

    fn resident_warps(&self) -> usize {
        let sms = self.devices.iter().flat_map(|d| &d.sms);
        sms.map(Sm::resident_warps).sum()
    }

    /// The current aggregated statistics and violations. When tracing
    /// is enabled and the run found violations, the flight-recorder
    /// tail rides along for the post-mortem.
    #[must_use]
    pub fn report(&self) -> RunReport {
        let mut violations = self.checker.finish_capped(self.cfg.max_violations_reported);
        // Sanitizer findings (transition-level invariant breaks) ride in
        // the same report, after the end-to-end checker's.
        violations.extend(self.sanitizer.violations().into_iter().map(Violation));
        let suppressed = self.sanitizer.suppressed();
        if suppressed > 0 {
            violations.push(Violation(format!(
                "…and {suppressed} more sanitizer violation(s) suppressed (retention cap)"
            )));
        }
        let stats = self.cumulative_stats();
        // The cycle-accounting invariant rides in the same report: every
        // SM's reason buckets must tile the stepped cycles exactly — a
        // mismatch means a step classified a cycle twice or not at all.
        for (i, sm) in stats.per_sm.iter().enumerate() {
            let sum = sm.cycle_buckets.sum();
            if sum != stats.accounted_cycles {
                violations.push(Violation(format!(
                    "cycle accounting broken on sm{i}: reason buckets sum to {sum} \
                     but {} cycles were stepped",
                    stats.accounted_cycles
                )));
            }
        }
        let trace_tail = if violations.is_empty() || !self.cfg.trace.is_enabled() {
            Vec::new()
        } else {
            self.flight_tail()
        };
        RunReport {
            stats,
            violations,
            trace_tail,
        }
    }

    /// Cumulative counters at `now`: merged totals plus the per-component
    /// rows, devices first, then the level below them.
    fn cumulative_stats(&self) -> SimStats {
        let mut stats = SimStats {
            cycles: self.now,
            accounted_cycles: self.steps,
            ..SimStats::default()
        };
        for dev in &self.devices {
            dev.add_stats(&mut stats);
        }
        self.level.add_stats(&mut stats);
        stats.transport.bank_recoveries = self.recoveries;
        stats
    }

    /// Every retained trace event across all components,
    /// cycle-ordered (empty unless [`gtsc_types::TraceMode::Full`]).
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for dev in &self.devices {
            dev.add_events(&mut all);
        }
        self.level.add_events(&mut all);
        all.sort_by_key(|e| e.cycle);
        all
    }

    /// The merged flight-recorder tail across every component
    /// (including the fabric links of a multi-GPU system), oldest
    /// first — the post-mortem view dumped into
    /// [`StallDiagnosis`] and
    /// violation-carrying [`RunReport`]s.
    #[must_use]
    pub fn flight_tail(&self) -> Vec<TraceEvent> {
        let mut tails = Vec::new();
        for dev in &self.devices {
            dev.add_tails(&mut tails);
        }
        self.level.add_tails(&mut tails);
        merge_tails(&tails)
    }

    /// Aggregated fault-injection counters across every network (data
    /// and transport-control channels, on-die and fabric), the DRAM
    /// partitions, and the crash schedulers; `None` when the run is
    /// fault-free.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let nets = self
            .devices
            .iter()
            .flat_map(|d| [d.req_net.fault_stats(), d.resp_net.fault_stats()])
            .flatten();
        let crashes = self.crashes.iter().flatten().map(BankFaults::stats);
        nets.chain(self.level.fault_stats())
            .chain(crashes)
            .reduce(|mut total, s| {
                total.merge(&s);
                total
            })
    }

    /// Snapshot of every stalled warp, queue, and MSHR, taken when the
    /// watchdog fires.
    fn diagnose_stall(&self, stalled_for: u64) -> StallDiagnosis {
        let mut d = StallDiagnosis {
            stalled_for,
            epoch: self.epoch,
            ..StallDiagnosis::default()
        };
        for dev in &self.devices {
            dev.diagnose(self.now, &mut d);
        }
        self.level.diagnose(&self.devices, self.now, &mut d);
        d.recent_events = self.flight_tail();
        d
    }

    /// Serializes the complete dynamic state of the machine — SMs and
    /// warp slots, L1/L2 tag arrays and leases, MSHRs, queues,
    /// transport flows, DRAM or the fabric and home directory,
    /// fault-injector RNG streams, checker, sampler, and cumulative
    /// counters — into a versioned, per-section-CRC'd snapshot
    /// (DESIGN.md §14). Pass the in-flight
    /// [`KernelProgress`] to checkpoint
    /// mid-kernel; `None` snapshots a machine at a kernel boundary.
    ///
    /// Structure that is derivable from the configuration
    /// (geometries, timing parameters, tracer and sanitizer wiring,
    /// fault arming) is *not* serialized: [`Self::restore_snapshot`]
    /// requires a target freshly built from the same config.
    /// Flight-recorder rings restart empty after a restore — they only
    /// feed post-mortem displays, never results.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`]
    /// if a cache controller in this build does not implement
    /// checkpointing (the non-G-TSC baselines).
    pub fn save_snapshot(
        &self,
        progress: Option<&KernelProgress>,
    ) -> Result<Vec<u8>, SnapshotError> {
        let mut b = SnapshotBuilder::new();
        b.section("meta", encode(|w| self.fingerprint().save(w)));
        b.section(
            "sim",
            encode(|w| {
                self.now.save(w);
                self.epoch.save(w);
                self.recoveries.save(w);
                self.crashes.save(w);
                self.sanitizer.save_state(w);
                self.steps.save(w);
            }),
        );
        self.level.save(&self.devices, &mut b)?;
        b.section("checker", encode(|w| self.checker.save(w)));
        if L::SAMPLED {
            b.section("sampler", encode(|w| self.sampler.save(w)));
        }
        if let Some(p) = progress {
            b.section("progress", encode(|w| p.save(w)));
        }
        Ok(b.finish())
    }

    /// Restores a snapshot produced by [`Self::save_snapshot`] into
    /// this machine, which must have been freshly built from the same
    /// configuration (checked via a config fingerprint). Returns the
    /// [`KernelProgress`] embedded in
    /// mid-kernel checkpoints, to be passed back to
    /// [`Self::advance_kernel`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on a
    /// damaged, truncated, or mismatched snapshot — always an error,
    /// never a panic. On error the target may be partially
    /// overwritten: discard it and rebuild from config (falling back
    /// to an older checkpoint if one exists).
    pub fn restore_snapshot(
        &mut self,
        bytes: &[u8],
    ) -> Result<Option<KernelProgress>, SnapshotError> {
        let file = SnapshotFile::parse(bytes)?;
        if decode(&file, "meta", u64::load)? != self.fingerprint() {
            return Err(SnapshotError::Mismatch {
                what: "config fingerprint".into(),
            });
        }
        decode(&file, "sim", |r| {
            self.now = Snap::load(r)?;
            self.epoch = Snap::load(r)?;
            self.recoveries = Snap::load(r)?;
            let crashes: Vec<Option<BankFaults>> = Snap::load(r)?;
            if crashes.len() != self.crashes.len() {
                return Err(SnapshotError::Mismatch {
                    what: "crash scheduler count".into(),
                });
            }
            self.crashes = crashes;
            self.sanitizer.load_state(r)?;
            self.steps = Snap::load(r)?;
            Ok(())
        })?;
        self.level.load(&mut self.devices, &file)?;
        self.checker = decode(&file, "checker", Checker::load)?;
        if L::SAMPLED {
            self.sampler = decode(&file, "sampler", IntervalSampler::load)?;
        }
        if file.section_names().contains(&"progress") {
            decode(&file, "progress", KernelProgress::load).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A cheap structural fingerprint of the build configuration (its
    /// derived `Debug` form and its label), stored in snapshots so a
    /// restore into a differently configured machine is rejected up
    /// front instead of failing deep inside a section. Derived `Debug`
    /// output is deterministic for identical configs across processes,
    /// which is all a mismatch check needs.
    fn fingerprint(&self) -> u64 {
        let (label, debug) = self.level.describe(&self.cfg);
        (u64::from(crc32(debug.as_bytes())) << 32) | u64::from(crc32(label.as_bytes()))
    }
}
