//! Wrapper types around the program's seams.
//!
//! `DeviceSim::step` is generic over its [`Policy`], [`TraceSource`] and
//! [`TelemetrySink`]; the wrappers below forward every call to the
//! program's own values and add only what the benchmark measures: a
//! step count, the host time of each decision that runs an inline
//! calibration, the physical-bounds check on every telemetry sample,
//! and — in the traced run — a span around each seam call. The fleet's
//! pooled policy reaches the calibration service through
//! [`TimedBackend`], which times `submit`/`adopt` the same way.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use capman_battery::chemistry::Class;
use capman_core::policy::{DecisionContext, Observation, Policy};
use capman_core::profiler::Profiler;
use capman_core::telemetry::{CalibrationSample, LeanTelemetry, Sample, TelemetrySink};
use capman_core::Calibration;
use capman_device::power::Demand;
use capman_fleet::{CalibrationBackend, CalibrationSnapshot, FleetPolicy, SubmitOutcome};
use capman_serve::CalibrationService;
use capman_workload::{Segment, TraceCursor, TraceSource};

use crate::cpuclock::{self, Stamp};
use crate::recorder::{self, Layer};

/// What one calibration reports about its own cost (program-reported
/// figures, labelled as such in the per-layer table).
#[derive(Debug, Clone, Copy, Default)]
pub struct CalStat {
    /// `Calibrator::recalibrate` wall time as the program measured it, µs.
    pub recalibrate_us: f64,
    /// Similarity engine wall time (`RunStats.wall_us`), µs.
    pub similarity_us: f64,
    /// Similarity fixpoint sweeps.
    pub sweeps: usize,
    /// Exact EMD solves.
    pub emd_solves: usize,
    /// EMD memo hits.
    pub cache_hits: usize,
    /// Bellman sweeps over the ladder and the final solve.
    pub bellman_sweeps: usize,
    /// Whether the calibration patched its cached model forward.
    pub incremental: bool,
}

impl CalStat {
    /// The statistics of `cal`, which took `recalibrate_us` to solve.
    pub fn of(cal: &Calibration, recalibrate_us: f64) -> Self {
        CalStat {
            recalibrate_us,
            similarity_us: cal.engine_run.wall_us,
            sweeps: cal.engine_run.sweeps,
            emd_solves: cal.engine_run.emd_solves,
            cache_hits: cal.engine_run.cache_hits,
            bellman_sweeps: cal.bellman_sweeps,
            incremental: cal.incremental.is_some(),
        }
    }
}

/// A published value vector and greedy policy, kept for the
/// fixed-point check outside the timed region.
#[derive(Debug, Clone)]
pub struct CheckedCal {
    /// Discount factor the calibration solved with.
    pub rho: f64,
    /// The published `V*`.
    pub values: Vec<f64>,
    /// The published greedy policy.
    pub policy: Vec<Option<usize>>,
}

impl CheckedCal {
    /// Copy the solution out of `cal`.
    pub fn of(cal: &Calibration, rho: f64) -> Self {
        CheckedCal {
            rho,
            values: cal.solution.values.clone(),
            policy: cal.solution.policy.clone(),
        }
    }
}

/// Per-device counters kept beside the program's device row.
#[derive(Debug, Clone)]
pub struct DeviceTally {
    /// Decisions taken, i.e. simulated steps.
    pub steps: u64,
    /// Simulated time of the last inline calibration.
    pub last_cal_t: f64,
    /// Capture this device's calibrations for the fixed-point check.
    pub capture: bool,
    /// The device's phone compute speed.
    pub compute_speed: f64,
}

impl DeviceTally {
    /// A fresh tally.
    pub fn new(capture: bool, compute_speed: f64) -> Self {
        DeviceTally {
            steps: 0,
            last_cal_t: f64::NEG_INFINITY,
            capture,
            compute_speed,
        }
    }
}

/// Counters shared by every device of one run.
#[derive(Debug, Default)]
pub struct RunTally {
    /// Host CPU time (all threads) of each decision that ran an inline
    /// calibration, ms.
    pub calib_ms: Vec<f64>,
    /// Wall time of each such decision, ms (diagnostic).
    pub calib_wall_ms: Vec<f64>,
    /// Program-reported statistics of each inline calibration.
    pub cal_stats: Vec<CalStat>,
    /// Inline calibrations that ran on a decision the benchmark did not
    /// time (a calibration off the cohort's cadence).
    pub untimed_calibrations: u64,
    /// Calibrations captured for the fixed-point check, with the
    /// profiler each was solved from.
    pub captured: Vec<(Profiler, CheckedCal)>,
    /// Host time spent capturing, ns (subtracted from timed regions).
    pub capture_ns: u64,
    /// Inline calibrations that ran on a sampled step.
    pub sampled_calibrations: u64,
    /// Next calibration-request id for span tagging.
    pub next_req: u64,
}

/// [`Policy`] wrapper: counts steps, times inline calibrations, and
/// records the decide/observe seams on sampled steps.
pub struct TimedPolicy<'a> {
    /// The program's policy for this device.
    pub inner: &'a mut FleetPolicy,
    /// This device's counters.
    pub dev: &'a mut DeviceTally,
    /// The run's counters.
    pub run: &'a mut RunTally,
}

impl TimedPolicy<'_> {
    /// Whether the inline calibrator will run on this decision: the
    /// cadence rule of `Calibrator::maybe_recalibrate`, read from the
    /// calibrator's public spec. A calibration outside it still runs and
    /// is counted as untimed, so the rule can only cost coverage.
    fn calibration_due(&self, time_s: f64) -> bool {
        match &*self.inner {
            FleetPolicy::Capman(p) => {
                let c = p.calibrator();
                p.profiler().observations() >= c.warmup_observations
                    && time_s - self.dev.last_cal_t >= c.every_s
            }
            _ => false,
        }
    }

    fn inline_calibrations(&self) -> u64 {
        match &*self.inner {
            FleetPolicy::Capman(p) => p.recalibrations(),
            _ => 0,
        }
    }

    fn capture(&mut self) {
        let t0 = Instant::now();
        let opened = recorder::enter_if(recorder::tracing(), Layer::Capture, 0);
        if let FleetPolicy::Capman(p) = &*self.inner {
            if let Some(cal) = p.calibrator().calibration() {
                self.run.captured.push((
                    p.profiler().clone(),
                    CheckedCal::of(cal, p.calibrator().rho),
                ));
            }
        }
        recorder::exit_if(opened);
        self.run.capture_ns += t0.elapsed().as_nanos() as u64;
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, obs: &Observation) {
        let opened = recorder::enter_if(recorder::sampling(), Layer::Observe, 0);
        self.inner.observe(obs);
        recorder::exit_if(opened);
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Class {
        self.dev.steps += 1;
        if !self.calibration_due(ctx.time_s) {
            let before = self.inline_calibrations();
            let opened = recorder::enter_if(recorder::sampling(), Layer::Decide, 0);
            let class = self.inner.decide(ctx);
            recorder::exit_if(opened);
            if self.inline_calibrations() != before {
                self.run.untimed_calibrations += 1;
                self.dev.last_cal_t = ctx.time_s;
            }
            return class;
        }
        let before = self.inline_calibrations();
        let overhead_before = self.inner.overhead_us();
        self.run.next_req += 1;
        let opened = recorder::enter_if(recorder::tracing(), Layer::Calibrate, self.run.next_req);
        let stamp = Stamp::now();
        let class = self.inner.decide(ctx);
        let took = stamp.elapsed();
        recorder::exit_if(opened);
        if self.inline_calibrations() != before {
            self.dev.last_cal_t = ctx.time_s;
            self.run.calib_ms.push(took.process * 1e3);
            self.run.calib_wall_ms.push(took.wall * 1e3);
            if recorder::sampling() {
                self.run.sampled_calibrations += 1;
            }
            if let FleetPolicy::Capman(p) = &*self.inner {
                if let Some(cal) = p.calibrator().calibration() {
                    // `overhead_us` accumulates the raw solve time divided
                    // by the phone's compute speed.
                    let raw_us =
                        (self.inner.overhead_us() - overhead_before) * self.dev.compute_speed;
                    self.run.cal_stats.push(CalStat::of(cal, raw_us));
                }
            }
            if self.dev.capture {
                self.capture();
            }
        }
        class
    }

    fn overhead_us(&self) -> f64 {
        self.inner.overhead_us()
    }

    fn recalibrations(&self) -> u64 {
        self.inner.recalibrations()
    }

    fn drain_calibrations(&mut self) -> Vec<CalibrationSample> {
        self.inner.drain_calibrations()
    }
}

/// [`TraceSource`] wrapper recording the trace seam on sampled steps.
pub struct TimedTrace<'a> {
    /// The program's streaming trace cursor for this device.
    pub inner: &'a mut TraceCursor,
}

impl TraceSource for TimedTrace<'_> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn segments_in(&mut self, t0: f64, t1: f64) -> &[Segment] {
        let opened = recorder::enter_if(recorder::sampling(), Layer::Trace, 0);
        let segments = self.inner.segments_in(t0, t1);
        recorder::exit_if(opened);
        segments
    }

    fn demand_at(&mut self, t: f64) -> Demand {
        let opened = recorder::enter_if(recorder::sampling(), Layer::Trace, 0);
        let demand = self.inner.demand_at(t);
        recorder::exit_if(opened);
        demand
    }
}

/// [`TelemetrySink`] wrapper: checks every sample's physical bounds and
/// records the sink seam on sampled steps.
pub struct TimedSink<'a> {
    /// The program's constant-memory sink for this device.
    pub inner: &'a mut LeanTelemetry,
    /// Cleared when a sample leaves the physical bounds.
    pub bounds_ok: &'a mut bool,
}

impl TelemetrySink for TimedSink<'_> {
    fn record_sample(&mut self, sample: Sample) {
        let temps_ok = sample.hotspot_c.is_finite()
            && sample.shell_c.is_finite()
            && sample.battery_c.is_finite();
        let soc_ok =
            (0.0..=1.0).contains(&sample.big_soc) && (0.0..=1.0).contains(&sample.little_soc);
        *self.bounds_ok &= temps_ok && soc_ok;
        let opened = recorder::enter_if(recorder::sampling(), Layer::Telemetry, 0);
        self.inner.record_sample(sample);
        recorder::exit_if(opened);
    }

    fn record_calibration(&mut self, sample: CalibrationSample) {
        let opened = recorder::enter_if(recorder::sampling(), Layer::Telemetry, 0);
        self.inner.record_calibration(sample);
        recorder::exit_if(opened);
    }
}

/// A calibration backend that records every request and solves none:
/// devices keep deciding from the empty placeholder snapshot and
/// re-request on their cadence. Used to harvest realistic request
/// payloads from fleet devices, and as the deterministic backend of
/// the bitwise loop check.
pub struct RecordingBackend {
    cohorts: usize,
    empty: Arc<CalibrationSnapshot>,
    payloads: Mutex<Vec<Payload>>,
}

/// One recorded calibration request.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Requesting device's cohort.
    pub cohort: usize,
    /// Simulated submission time.
    pub now_s: f64,
    /// The device's learned profiler at submission.
    pub profiler: Profiler,
    /// The device's compute speed.
    pub compute_speed: f64,
}

impl RecordingBackend {
    /// A recorder for `cohorts` cohort slots.
    pub fn new(cohorts: usize) -> Self {
        RecordingBackend {
            cohorts,
            empty: Arc::new(CalibrationSnapshot {
                seq: 0,
                requested_at_s: 0.0,
                wall_us: 0.0,
                calibration: None,
                trace: None,
            }),
            payloads: Mutex::new(Vec::new()),
        }
    }

    /// Take the recorded payloads, in submission order.
    pub fn take(&self) -> Vec<Payload> {
        std::mem::take(&mut *self.payloads.lock().expect("payload log poisoned"))
    }
}

impl CalibrationBackend for RecordingBackend {
    fn submit(
        &self,
        cohort: usize,
        now_s: f64,
        profiler: &Profiler,
        compute_speed: f64,
    ) -> SubmitOutcome {
        let opened = recorder::enter_if(recorder::tracing(), Layer::Submit, 0);
        self.payloads
            .lock()
            .expect("payload log poisoned")
            .push(Payload {
                cohort,
                now_s,
                profiler: profiler.clone(),
                compute_speed,
            });
        recorder::exit_if(opened);
        SubmitOutcome::Enqueued
    }

    fn snapshot(&self, _cohort: usize) -> Arc<CalibrationSnapshot> {
        let opened = recorder::enter_if(recorder::sampling(), Layer::Snapshot, 0);
        let snap = Arc::clone(&self.empty);
        recorder::exit_if(opened);
        snap
    }

    fn cohorts(&self) -> usize {
        self.cohorts
    }
}

/// What [`TimedBackend`] saw of the service, from the device side.
#[derive(Debug, Default)]
pub struct BackendTally {
    /// Device-thread CPU time of every `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Host time of every `adopt` call, µs.
    pub adopt_us: Vec<f64>,
    /// Host time from a cohort's first submission after its previous
    /// adoption to the first adoption of the next publication, ms.
    pub served_ms: Vec<f64>,
    /// Program-reported statistics of each publication, at its first
    /// adoption.
    pub cal_stats: Vec<CalStat>,
    /// Requests submitted by the checked cohorts: (cohort, simulated
    /// time, profiler).
    pub payloads: Vec<(usize, f64, Profiler)>,
    /// First-adopted publications of the checked cohorts: (cohort,
    /// `requested_at_s`, solution).
    pub published: Vec<(usize, f64, CheckedCal)>,
    pending_since: Vec<Option<Instant>>,
    last_seq: Vec<u64>,
    req: Vec<u64>,
    next_req: u64,
}

/// The service as the fleet's pooled policies reach it, with `submit`
/// and `adopt` timed from the device side. `snapshot` — called on every
/// decision — only forwards, plus a span on sampled steps.
pub struct TimedBackend {
    inner: Arc<CalibrationService>,
    check_every: usize,
    rho: f64,
    tally: Mutex<BackendTally>,
}

impl TimedBackend {
    /// Wrap `service`; cohorts whose index is a multiple of
    /// `check_every` have their requests and publications kept for the
    /// fixed-point check.
    pub fn new(service: Arc<CalibrationService>, check_every: usize, rho: f64) -> Self {
        let cohorts = service.cohorts();
        TimedBackend {
            inner: service,
            check_every,
            rho,
            tally: Mutex::new(BackendTally {
                pending_since: vec![None; cohorts],
                last_seq: vec![0; cohorts],
                req: vec![0; cohorts],
                ..BackendTally::default()
            }),
        }
    }

    /// Take the counters collected so far.
    pub fn take(&self) -> BackendTally {
        std::mem::take(&mut *self.tally.lock().expect("backend tally poisoned"))
    }

    fn checked(&self, cohort: usize) -> bool {
        cohort.is_multiple_of(self.check_every)
    }
}

impl CalibrationBackend for TimedBackend {
    fn submit(
        &self,
        cohort: usize,
        now_s: f64,
        profiler: &Profiler,
        compute_speed: f64,
    ) -> SubmitOutcome {
        let mut tally = self.tally.lock().expect("backend tally poisoned");
        let t0 = Instant::now();
        let cpu0 = cpuclock::thread_s();
        if tally.pending_since[cohort].is_none() {
            tally.pending_since[cohort] = Some(t0);
            tally.next_req += 1;
            tally.req[cohort] = tally.next_req;
        }
        let opened = recorder::enter_if(recorder::tracing(), Layer::Submit, tally.req[cohort]);
        let outcome = self.inner.submit(cohort, now_s, profiler, compute_speed);
        recorder::exit_if(opened);
        tally.submit_us.push((cpuclock::thread_s() - cpu0) * 1e6);
        if self.checked(cohort) {
            tally.payloads.push((cohort, now_s, profiler.clone()));
        }
        outcome
    }

    fn snapshot(&self, cohort: usize) -> Arc<CalibrationSnapshot> {
        let opened = recorder::enter_if(recorder::sampling(), Layer::Snapshot, 0);
        let snap = self.inner.snapshot(cohort);
        recorder::exit_if(opened);
        snap
    }

    fn cohorts(&self) -> usize {
        self.inner.cohorts()
    }

    fn adopt(&self, cohort: usize, snapshot: &CalibrationSnapshot, now_s: f64) {
        let mut tally = self.tally.lock().expect("backend tally poisoned");
        let req = tally.req[cohort];
        let opened = recorder::enter_if(recorder::tracing(), Layer::Adopt, req);
        let t0 = Instant::now();
        self.inner.adopt(cohort, snapshot, now_s);
        let t1 = Instant::now();
        recorder::exit_if(opened);
        tally.adopt_us.push((t1 - t0).as_secs_f64() * 1e6);
        if snapshot.seq <= tally.last_seq[cohort] {
            return;
        }
        tally.last_seq[cohort] = snapshot.seq;
        if let Some(since) = tally.pending_since[cohort].take() {
            tally.served_ms.push((t1 - since).as_secs_f64() * 1e3);
        }
        if let Some(cal) = &snapshot.calibration {
            tally.cal_stats.push(CalStat::of(cal, snapshot.wall_us));
            if self.checked(cohort) {
                let checked = CheckedCal::of(cal, self.rho);
                tally
                    .published
                    .push((cohort, snapshot.requested_at_s, checked));
            }
        }
    }
}
