//! The three workloads.
//!
//! Every workload repeats whole rounds of the same operations until the
//! requested run length has passed, so a run's failed operations are
//! the same share of its attempted ones whatever its length. A traced
//! run alternates untraced and traced rounds: the traced rounds give
//! the per-layer ledger, the pair gives the tracing overhead.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use capman_fleet::{
    ArenaConfig, ArenaRunner, CalibrationBackend, CalibrationSnapshot, DeviceSummary, FleetPlan,
};
use capman_serve::{
    AdmissionConfig, AdmissionOutcome, CalibrationService, ServiceConfig, ServiceCounters,
};

use crate::checks;
use crate::cpuclock::{self, Span, Stamp};
use crate::fixture;
use crate::fleet::{build_rows, run_rows, Row, Sampler};
use crate::layers::{CalFigures, Ledger, StepCounts};
use crate::osstat::OsSample;
use crate::recorder::{self, Layer, Recording};
use crate::seams::{CalStat, CheckedCal, Payload, RecordingBackend, RunTally, TimedBackend};
use crate::stats;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every device calibrates inline on its own decision path.
    OnDevice,
    /// A fleet against the threaded calibration service.
    FleetService,
    /// The service alone, replaying harvested requests under overload.
    ServeOverload,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::OnDevice,
        Workload::FleetService,
        Workload::ServeOverload,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnDevice => "ondevice",
            Workload::FleetService => "fleet-service",
            Workload::ServeOverload => "serve-overload",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-ups per run (the median is reported).
const SETUP_REPS: usize = 3;
/// Traced run: record one step in this many.
const SAMPLE_EVERY: u64 = 64;
/// Traced run: spans kept for the Chrome trace.
const SPAN_CAP: usize = 200_000;
/// Cohorts whose calibrations are checked: one in this many (cohort 0
/// always is).
const CHECK_EVERY: usize = 64;
/// `fleet-service`: whole cohorts per shard (`× SERVICE_PER_COHORT`
/// devices resident at a time).
const SERVICE_GROUP: usize = 32;
/// `serve-overload`: whole cohorts per harvest shard.
const OVERLOAD_GROUP: usize = 64;

/// `ondevice`: devices per cohort per round.
const ONDEVICE_PER_COHORT: usize = 54;
/// `fleet-service`: cohorts.
const SERVICE_COHORTS: usize = 1024;
/// `fleet-service`: devices per cohort.
const SERVICE_PER_COHORT: usize = 8;
/// `serve-overload`: cohorts. Half `fleet-service`'s, so that the
/// [`SERVE_BEST_OF`] cycles each operation is measured over fit in a run.
const OVERLOAD_COHORTS: usize = 512;
/// `serve-overload`: harvested devices per cohort (payloads per cohort
/// per window).
const OVERLOAD_PER_COHORT: usize = 3;

/// One run's request.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum measured time; whole rounds run until it has passed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed run.
    pub trace: bool,
}

/// A named correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Figures behind the verdict.
    pub detail: String,
}

/// The traced run's findings.
pub struct Traced {
    /// The ledger of the traced rounds.
    pub ledger: Ledger,
    /// The recording itself (for the Chrome trace).
    pub recording: Recording,
    /// For `serve-overload`: the ledger of the traced set-up harvest,
    /// where the simulator's seams run.
    pub harvest: Option<(Ledger, Recording)>,
    /// `device_steps_per_s` of the traced rounds.
    pub traced_rate: f64,
    /// `device_steps_per_s` of the untraced rounds.
    pub untraced_rate: f64,
    /// Calibration-path figures.
    pub cal: CalFigures,
    /// Mean per-step seam costs from the ledger that samples the
    /// simulator: (name, ns).
    pub per_step_ns: Vec<(&'static str, f64)>,
    /// Steps of one traced round (or of the traced harvest).
    pub steps: u64,
    /// Service counters of one traced round.
    pub serve: ServiceCounters,
    /// Service seam figures printed beside the ledger: (name, value,
    /// unit).
    pub serve_seams: Vec<(&'static str, f64, &'static str)>,
}

/// Everything a run measured.
pub struct Measured {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Simulated device steps per host CPU-second.
    pub device_steps_per_s: f64,
    /// Host CPU time each calibration costs the thread that asks for
    /// it, ms.
    pub calib_ms: Vec<f64>,
    /// Calibrations completed per host CPU-second of the threads that
    /// run them.
    pub solves_per_s: f64,
    /// Host time from a request to its served calibration, ms.
    pub served_ms: Vec<f64>,
    /// Median set-up CPU time, s.
    pub setup_s: f64,
    /// Wall-clock counterparts, printed as diagnostics: (name, value).
    pub wall: Vec<(&'static str, f64)>,
    /// OS counters over the measured rounds.
    pub os: OsSample,
    /// OS counters of each untraced round (`serve-overload`: cycle).
    pub os_rounds: Vec<OsSample>,
    /// Wall time of the measured rounds, s.
    pub measured_s: f64,
    /// Rounds run.
    pub rounds: u64,
    /// The traced run's findings.
    pub traced: Option<Traced>,
}

impl Measured {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Measured {
    match cfg.workload {
        Workload::OnDevice => ondevice(cfg),
        Workload::FleetService => fleet_service(cfg),
        Workload::ServeOverload => serve_overload(cfg),
    }
}

/// Median host CPU time of `reps` set-ups.
fn median_setup(reps: usize, mut setup: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Stamp::now();
            setup();
            t0.elapsed().process
        })
        .collect();
    stats::median(&mut times)
}

/// Whether another round is due: rounds repeat until `seconds` have
/// passed, and a traced run ends on a traced round after at least one
/// untraced one.
fn more_rounds(cfg: &RunConfig, started: Instant, rounds: u64) -> bool {
    if cfg.trace && (rounds < 2 || rounds % 2 == 1) {
        return true;
    }
    rounds == 0 || started.elapsed().as_secs_f64() < cfg.seconds
}

/// Steps and time of each untraced and each traced round.
#[derive(Default)]
struct Split {
    /// (steps, CPU seconds, wall seconds) per untraced round.
    plain: Vec<(u64, f64, f64)>,
    traced: Vec<(u64, f64, f64)>,
}

impl Split {
    fn add(&mut self, traced: bool, steps: u64, cpu_s: f64, wall_s: f64) {
        let rounds = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        rounds.push((steps, cpu_s, wall_s));
    }

    fn median_rate(rounds: &[(u64, f64, f64)], wall: bool) -> f64 {
        let mut rates: Vec<f64> = rounds
            .iter()
            .map(|&(steps, cpu, w)| stats::ratio(steps as f64, if wall { w } else { cpu }))
            .collect();
        stats::median(&mut rates)
    }

    /// Median per-round `device_steps_per_s` (CPU clock) of the untraced
    /// and of the traced rounds.
    fn rates(&self) -> (f64, f64) {
        (
            Self::median_rate(&self.plain, false),
            Self::median_rate(&self.traced, false),
        )
    }

    fn wall_rate(&self) -> f64 {
        Self::median_rate(&self.plain, true)
    }

    fn steps(&self) -> u64 {
        self.plain.iter().chain(&self.traced).map(|r| r.0).sum()
    }
}

/// Per-operation best-of-rounds: every round repeats the same
/// operations in the same order, so each operation's cheapest repetition
/// is its cost with the host's interference (other tenants on shared
/// cores, steal) taken out. Percentiles are taken over operations of
/// these per-operation minima.
///
/// Only the first `limit` rounds count, so the estimate does not drift
/// lower the more rounds a faster host fits into a run.
struct BestOf {
    best: Vec<f64>,
    rounds: u64,
    limit: u64,
    /// A round whose operation count differed from the first round's.
    mismatched: bool,
}

impl BestOf {
    fn new(limit: u64) -> Self {
        BestOf {
            best: Vec::new(),
            rounds: 0,
            limit,
            mismatched: false,
        }
    }

    fn complete(&self) -> bool {
        self.rounds >= self.limit
    }

    fn absorb(&mut self, round: &[f64]) {
        if self.complete() {
            return;
        }
        if self.rounds == 0 {
            self.best = round.to_vec();
        } else if round.len() == self.best.len() {
            for (b, &x) in self.best.iter_mut().zip(round) {
                *b = b.min(x);
            }
        } else {
            self.mismatched = true;
        }
        self.rounds += 1;
    }

    fn values(&self) -> Vec<f64> {
        self.best.clone()
    }
}

/// Compare bench-loop rows with `ArenaRunner`'s summaries of the same
/// devices.
fn bitwise_check(loop_rows: &[DeviceSummary], arena: &[DeviceSummary]) -> Check {
    let matching = loop_rows
        .iter()
        .zip(arena)
        .filter(|(a, b)| checks::summaries_bitwise_equal(a, b))
        .count();
    Check {
        name: "bench loop == ArenaRunner (bitwise sample)",
        ok: matching == arena.len() && loop_rows.len() == arena.len() && !arena.is_empty(),
        detail: format!("{matching}/{} devices identical", arena.len()),
    }
}

/// `ArenaRunner`'s summaries of the first `per_cohort` devices of each
/// of `plan`'s first `n_cohorts` cohorts, against `backend` or inline.
/// They are the bench loop's first devices of the same plan: specs are
/// derived per cohort and ordinal, whatever the plan's size.
fn arena_sample(
    plan: &FleetPlan,
    n_cohorts: usize,
    per_cohort: usize,
    backend: Option<Arc<dyn CalibrationBackend>>,
) -> Vec<DeviceSummary> {
    let profiles = plan.profiles()[..n_cohorts]
        .iter()
        .map(|p| (**p).clone())
        .collect();
    let sample_plan = FleetPlan::new(profiles, per_cohort);
    let runner = ArenaRunner::new(ArenaConfig {
        shard_devices: sample_plan.len(),
        parallel: false,
        collect_summaries: true,
        ..ArenaConfig::default()
    });
    match backend {
        Some(b) => runner.run_with_backend(&sample_plan, b).summaries,
        None => runner.run(&sample_plan).summaries,
    }
}

fn steps_check(devices: u64, steps: u64, steps_per_device: u64) -> Check {
    Check {
        name: "device steps == devices x horizon / dt",
        ok: steps == devices * steps_per_device,
        detail: format!("{steps} steps over {devices} devices x {steps_per_device}"),
    }
}

fn health_check(devices: u64, unhealthy: u64) -> Check {
    Check {
        name: "devices reach the horizon within physical bounds",
        ok: unhealthy == 0,
        detail: format!(
            "{unhealthy}/{devices} devices short of the horizon or out of bounds (each counted as failed)"
        ),
    }
}

fn fixed_point_check(checked: usize, failing: usize, worst: f64) -> Check {
    Check {
        name: "calibrations are Bellman fixed points with greedy policies",
        ok: failing == 0 && checked > 0,
        detail: format!(
            "{checked} checked, {failing} failing (each counted as failed), worst residual {worst:.3e} (tolerance rho*eps)"
        ),
    }
}

fn install_if(cfg: &RunConfig) {
    if cfg.trace {
        recorder::install(SPAN_CAP);
        recorder::set_tracing(false);
    }
}

fn finish_traced(cfg: &RunConfig, counts: StepCounts) -> Option<(Ledger, Recording)> {
    if !cfg.trace {
        return None;
    }
    let rec = recorder::take().expect("recorder installed for the traced run");
    Some((Ledger::new(&rec, counts), rec))
}

// ---------------------------------------------------------------- ondevice

/// `ondevice` cohorts: one of each in [`fixture::COSTLY_MIX`].
const ONDEVICE_COHORTS: usize = fixture::COSTLY_MIX.len();

/// `ondevice`: untraced rounds each calibration's and each device's
/// cheapest repetition is taken over.
const ONDEVICE_BEST_OF: u64 = 8;

fn ondevice(cfg: &RunConfig) -> Measured {
    let cohorts = ONDEVICE_COHORTS;
    let per_round = cohorts * ONDEVICE_PER_COHORT;
    // Set-up: derive the plan and run one warm-up round.
    let setup_s = median_setup(SETUP_REPS, || {
        let plan = fixture::plan(cfg.seed, &fixture::COSTLY_MIX, cohorts, ONDEVICE_PER_COHORT);
        let mut rows = build_rows(&plan, 0..per_round, None, |_| false);
        run_rows(&mut rows, f64::INFINITY, &mut RunTally::default(), None);
    });
    let plan = fixture::plan(cfg.seed, &fixture::COSTLY_MIX, cohorts, ONDEVICE_PER_COHORT);
    let steps_per_device = fixture::steps_per_device(&plan);

    install_if(cfg);
    let mut tally = RunTally::default();
    let mut sampler = Sampler::new(SAMPLE_EVERY);
    let mut split = Split::default();
    let mut best = BestOf::new(ONDEVICE_BEST_OF);
    let mut best_wall = BestOf::new(ONDEVICE_BEST_OF);
    let mut best_device = BestOf::new(ONDEVICE_BEST_OF);
    let (mut devices, mut unhealthy) = (0u64, 0u64);
    let (mut calibrations, mut untimed, mut traced_cals, mut sampled_cals) =
        (0u64, 0u64, 0u64, 0u64);
    let mut traced_stats: Vec<CalStat> = Vec::new();
    let mut captured = Vec::new();
    let mut first_rows: Vec<DeviceSummary> = Vec::new();
    let mut os_rounds = Vec::new();
    let os0 = OsSample::now();
    let started = Instant::now();
    let mut rounds = 0u64;
    while (!cfg.trace && !best.complete()) || more_rounds(cfg, started, rounds) {
        let is_traced = cfg.trace && rounds % 2 == 1;
        // Every round runs the same devices; the first round keeps one
        // device per cohort's calibrations for the fixed-point check.
        let first = rounds == 0;
        recorder::set_tracing(is_traced);
        let os_r = OsSample::now();
        let t0 = Stamp::now();
        recorder::enter_if(is_traced, Layer::Round, 0);
        let mut rows = build_rows(&plan, 0..per_round, None, |i| first && i < cohorts);
        // Each device runs to its horizon in turn; its CPU time, less
        // any capture for the checks, is one operation of the round.
        let mut device_s = Vec::with_capacity(rows.len());
        for i in 0..rows.len() {
            let (d0, c0) = (cpuclock::process_s(), tally.capture_ns);
            run_rows(
                &mut rows[i..=i],
                f64::INFINITY,
                &mut tally,
                is_traced.then_some(&mut sampler),
            );
            device_s.push(cpuclock::process_s() - d0 - (tally.capture_ns - c0) as f64 / 1e9);
        }
        recorder::exit_if(is_traced);
        let took = t0.elapsed();
        recorder::set_tracing(false);
        if !is_traced {
            os_rounds.push(OsSample::now().since(&os_r));
        }
        let capture_s = std::mem::take(&mut tally.capture_ns) as f64 / 1e9;
        let steps: u64 = rows.iter().map(|r| r.tally.steps).sum();
        split.add(
            is_traced,
            steps,
            took.process - capture_s,
            took.wall - capture_s,
        );
        let round_cals = std::mem::take(&mut tally.calib_ms);
        let round_wall = std::mem::take(&mut tally.calib_wall_ms);
        let round_stats = std::mem::take(&mut tally.cal_stats);
        calibrations += round_cals.len() as u64 + tally.untimed_calibrations;
        untimed += std::mem::take(&mut tally.untimed_calibrations);
        if is_traced {
            traced_cals += round_cals.len() as u64;
            sampled_cals += std::mem::take(&mut tally.sampled_calibrations);
            if traced_stats.is_empty() {
                traced_stats = round_stats;
            }
        } else {
            best.absorb(&round_cals);
            best_wall.absorb(&round_wall);
            best_device.absorb(&device_s);
        }
        captured.append(&mut tally.captured);
        devices += rows.len() as u64;
        unhealthy += rows.iter().filter(|r| !r.healthy(steps_per_device)).count() as u64;
        if first {
            first_rows = rows.iter().map(Row::summary).collect();
        }
        rounds += 1;
    }
    let measured_s = started.elapsed().as_secs_f64();
    let os = OsSample::now().since(&os0);
    let traced_steps = split.traced.iter().map(|r| r.0).sum();
    let traced_ledger = finish_traced(
        cfg,
        StepCounts {
            steps: traced_steps,
            sampled: sampler.sampled,
            calibrations: traced_cals,
            sampled_calibrations: sampled_cals,
            child_cost_ns: sampler.child_cost_ns(recorder::span_cost_ns()),
        },
    );

    // Checks, outside the timed region.
    let mut failing = 0usize;
    let mut worst: f64 = 0.0;
    for (profiler, cal) in &captured {
        let fp = checks::check_calibration(profiler, cal);
        worst = worst.max(fp.residual);
        if !fp.passes(cal.rho) {
            failing += 1;
        }
    }
    let sample = 2 * cohorts;
    let arena = arena_sample(&plan, cohorts, 2, None);
    let checks = vec![
        steps_check(devices, split.steps(), steps_per_device),
        health_check(devices, unhealthy),
        fixed_point_check(captured.len(), failing, worst),
        bitwise_check(&first_rows[..sample.min(first_rows.len())], &arena),
        Check {
            name: "inline calibrations run on the cohort cadence, alike every round",
            ok: !best.mismatched,
            detail: format!(
                "{untimed} of {calibrations} calibrations off the cadence (counted as failed)"
            ),
        },
    ];

    let (plain_rate, traced_rate) = split.rates();
    let per_round_cals = best.best.len() as f64;
    // A round with every device at its cheapest.
    let best_round_s: f64 = best_device.values().iter().sum();
    let steps_per_round = (per_round * steps_per_device as usize) as f64;
    let mut wall_calib = best_wall.values();
    // Calibrations per second spent in calibrating decides: the rate
    // has its own denominator, not the round time `device_steps_per_s`
    // divides by.
    let solve_rate = |ms: &[f64]| stats::ratio(per_round_cals, ms.iter().sum::<f64>() / 1e3);
    let wall = vec![
        ("device_steps_per_s", split.wall_rate()),
        ("calib_ms_p50", stats::quantile(&mut wall_calib, 0.5)),
        ("calib_ms_p99", stats::quantile(&mut wall_calib, 0.99)),
        ("solves_per_s", solve_rate(&wall_calib)),
    ];
    let traced = traced_ledger.map(|(ledger, recording)| Traced {
        per_step_ns: ledger.per_step_ns.clone(),
        ledger,
        recording,
        harvest: None,
        traced_rate,
        untraced_rate: plain_rate,
        cal: CalFigures::of(&traced_stats),
        steps: steps_per_round as u64,
        serve: ServiceCounters::default(),
        serve_seams: Vec::new(),
    });
    let calib_ms = best.values();
    Measured {
        attempted: devices + calibrations,
        failed: unhealthy + failing as u64 + untimed,
        checks,
        device_steps_per_s: stats::ratio(steps_per_round, best_round_s),
        solves_per_s: solve_rate(&calib_ms),
        // Inline, a decision is served by the very solve it waits for.
        served_ms: calib_ms.clone(),
        calib_ms,
        setup_s,
        wall,
        os,
        os_rounds,
        measured_s,
        rounds,
        traced,
    }
}

// ------------------------------------------------------- shared fleet loop

/// What a pass over a plan's devices left behind.
#[derive(Default)]
struct Fold {
    devices: u64,
    unhealthy: u64,
    steps: u64,
    /// Summaries of the first shard's first devices, for the bitwise
    /// check.
    first: Vec<DeviceSummary>,
}

/// Plan indices of cohorts `cohorts` (every device of each, cohort by
/// cohort). `FleetPlan` deals devices ordinal-major, cohorts
/// round-robin, so device `o` of cohort `c` is index `o × C + c`.
fn cohort_devices(plan: &FleetPlan, cohorts: std::ops::Range<usize>) -> Vec<usize> {
    let n = plan.profiles().len();
    let per_cohort = plan.len() / n;
    cohorts
        .flat_map(|c| (0..per_cohort).map(move |o| o * n + c))
        .collect()
}

/// Drive every device of `plan` through the bench loop on the calling
/// thread, one shard after another. A shard holds `group` whole
/// cohorts, so cohort-mates run side by side as the phones of one
/// model do; with a finite `slice_s` a shard's devices advance together
/// one simulated-time window at a time (every live device reaches the
/// window's end before any passes it, as `ArenaConfig::time_slice_s`
/// schedules them), otherwise each runs straight through its horizon.
/// `window_end` runs after every window of every shard. Returns the
/// wall and CPU time of the loop.
#[allow(clippy::too_many_arguments)]
fn run_fleet(
    plan: &FleetPlan,
    group: usize,
    slice_s: f64,
    backend: Option<&Arc<dyn CalibrationBackend>>,
    tally: &mut RunTally,
    mut sampler: Option<&mut Sampler>,
    fold: &mut Fold,
    window_end: &dyn Fn(),
) -> Span {
    let steps_per_device = fixture::steps_per_device(plan);
    let cohorts = plan.profiles().len();
    let mut took = Span::default();
    for first in (0..cohorts).step_by(group) {
        let t0 = Stamp::now();
        let indices = cohort_devices(plan, first..(first + group).min(cohorts));
        let mut rows = build_rows(plan, indices, backend, |_| false);
        let mut t_end = slice_s;
        while rows.iter().any(|r| !r.done()) {
            run_rows(&mut rows, t_end, tally, sampler.as_deref_mut());
            window_end();
            t_end += slice_s;
        }
        took += t0.elapsed();
        fold.devices += rows.len() as u64;
        fold.steps += rows.iter().map(|r| r.tally.steps).sum::<u64>();
        fold.unhealthy += rows.iter().filter(|r| !r.healthy(steps_per_device)).count() as u64;
        if first == 0 {
            fold.first = rows.iter().take(16).map(Row::summary).collect();
        }
    }
    took
}

/// The bitwise loop check for fleets whose devices reach a backend:
/// the first devices of the plan against a recording backend (which
/// never publishes, so both runs are deterministic), through the bench
/// loop and through `ArenaRunner::run_with_backend`.
fn backend_bitwise_check(plan: &FleetPlan, slice_s: f64) -> Check {
    let n = plan.profiles().len().min(16);
    let cohorts = plan.profiles().len();
    let sample_plan = FleetPlan::new(
        plan.profiles()[..n].iter().map(|p| (**p).clone()).collect(),
        1,
    );
    let bench: Arc<dyn CalibrationBackend> = Arc::new(RecordingBackend::new(cohorts));
    let mut fold = Fold::default();
    run_fleet(
        &sample_plan,
        n,
        slice_s,
        Some(&bench),
        &mut RunTally::default(),
        None,
        &mut fold,
        &|| {},
    );
    let arena = arena_sample(plan, n, 1, Some(Arc::new(RecordingBackend::new(cohorts))));
    bitwise_check(&fold.first, &arena)
}

fn service_config(cohorts: usize, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        // At least one pending slot per cohort: no submission meets
        // backpressure (with the default bound of 64, most would).
        admission: AdmissionConfig {
            queue_bound: cohorts,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn ledger_check(counters: &ServiceCounters) -> Check {
    Check {
        name: "service ledger identities",
        ok: checks::ledger_holds(counters),
        detail: format!(
            "submitted {} = admitted {} + coalesced {} + replaced {} + shed {} + backpressure {}; admitted = completed {} + abandoned {}",
            counters.submitted,
            counters.admitted,
            counters.coalesced,
            counters.replaced,
            counters.shed,
            counters.backpressure,
            counters.completed,
            counters.abandoned
        ),
    }
}

fn add_counters(total: &mut ServiceCounters, c: &ServiceCounters) {
    total.submitted += c.submitted;
    total.admitted += c.admitted;
    total.coalesced += c.coalesced;
    total.replaced += c.replaced;
    total.shed += c.shed;
    total.backpressure += c.backpressure;
    total.completed += c.completed;
    total.abandoned += c.abandoned;
}

// ----------------------------------------------------------- fleet-service

/// Simulated seconds per scheduling window of `fleet-service`: a
/// shard's devices advance together, so cohort-mates submit, wait and
/// adopt side by side as phones of one model would.
const SERVICE_SLICE_S: f64 = 30.0;

/// Wait until the service has solved everything it admitted. The device
/// loop calls this at every window end: simulated time runs about a
/// thousand times faster than a phone's clock here, and without the
/// wait how many requests the worker solves would be a race between
/// its speed and the device thread's. A real service for this fleet
/// (1024 cohorts, a solve per cohort per 300 s) is idle most of the
/// time, so every request is solved within the window it arrives in.
/// The wait costs the device thread no CPU time to speak of.
fn drain(service: &CalibrationService) {
    loop {
        let c = service.counters();
        if c.completed >= c.admitted {
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

fn fleet_service(cfg: &RunConfig) -> Measured {
    let cohorts = SERVICE_COHORTS;
    let plan = fixture::plan(cfg.seed, &fixture::WORKLOADS, cohorts, SERVICE_PER_COHORT);
    let specs: Vec<_> = plan.profiles().iter().map(|p| p.calibrator).collect();
    let rho = specs[0].rho;
    let steps_per_device = fixture::steps_per_device(&plan);
    // Set-up: derive the plan, start the service and run the first
    // shard's cohorts against it once as a warm-up.
    let setup_s = median_setup(SETUP_REPS, || {
        let plan = fixture::plan(cfg.seed, &fixture::WORKLOADS, cohorts, SERVICE_PER_COHORT);
        let specs: Vec<_> = plan.profiles().iter().map(|p| p.calibrator).collect();
        let service = Arc::new(CalibrationService::new(&specs, service_config(cohorts, 1)));
        let backend: Arc<dyn CalibrationBackend> = service.clone();
        let mut rows = build_rows(
            &plan,
            cohort_devices(&plan, 0..SERVICE_GROUP.min(cohorts)),
            Some(&backend),
            |_| false,
        );
        let mut t_end = SERVICE_SLICE_S;
        while rows.iter().any(|r| !r.done()) {
            run_rows(&mut rows, t_end, &mut RunTally::default(), None);
            drain(&service);
            t_end += SERVICE_SLICE_S;
        }
    });

    install_if(cfg);
    let mut tally = RunTally::default();
    let mut sampler = Sampler::new(SAMPLE_EVERY);
    let mut split = Split::default();
    let mut fold = Fold::default();
    let mut totals = ServiceCounters::default();
    let mut traced_counters = None;
    let mut ledger_ok = Vec::new();
    let (mut calib_ms, mut served_ms, mut adopt_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut cal_stats: Vec<CalStat> = Vec::new();
    let mut payloads: Vec<(usize, f64, capman_core::profiler::Profiler)> = Vec::new();
    let mut published: Vec<(usize, f64, CheckedCal)> = Vec::new();
    // Per untraced round: solves per service CPU-second and per wall
    // second.
    let (mut solve_rates, mut solve_wall_rates) = (Vec::new(), Vec::new());
    let (mut traced_steps, mut round_steps) = (0u64, 0u64);
    let mut os_rounds = Vec::new();
    let os0 = OsSample::now();
    let started = Instant::now();
    let mut rounds = 0u64;
    while more_rounds(cfg, started, rounds) {
        let is_traced = cfg.trace && rounds % 2 == 1;
        let service = Arc::new(CalibrationService::new(&specs, service_config(cohorts, 1)));
        let timed = Arc::new(TimedBackend::new(Arc::clone(&service), CHECK_EVERY, rho));
        let backend: Arc<dyn CalibrationBackend> = timed.clone();
        let steps_before = fold.steps;
        let os_r = OsSample::now();
        let t0 = Stamp::now();
        recorder::set_tracing(is_traced);
        recorder::enter_if(is_traced, Layer::Round, 0);
        let device = run_fleet(
            &plan,
            SERVICE_GROUP,
            SERVICE_SLICE_S,
            Some(&backend),
            &mut tally,
            is_traced.then_some(&mut sampler),
            &mut fold,
            &|| {
                let opened = recorder::enter_if(recorder::tracing(), Layer::Wait, 0);
                drain(&service);
                recorder::exit_if(opened);
            },
        );
        recorder::exit_if(is_traced);
        recorder::set_tracing(false);
        let round = t0.elapsed();
        if !is_traced {
            os_rounds.push(OsSample::now().since(&os_r));
        }
        drop(backend);
        let seen = timed.take();
        drop(timed);
        let counters = Arc::try_unwrap(service)
            .ok()
            .expect("every device row has released the service")
            .shutdown();
        ledger_ok.push(checks::ledger_holds(&counters));
        let steps = fold.steps - steps_before;
        // The device loop is this thread's work; everything else the
        // process burned in the round is the service's (its worker and
        // the sweep threads the worker's solves spawn).
        split.add(is_traced, steps, device.thread, device.wall);
        if is_traced {
            traced_steps += steps;
            // The per-layer figures come from the first traced round.
            if traced_counters.is_none() {
                traced_counters = Some(counters);
                round_steps = steps;
                cal_stats = seen.cal_stats;
                adopt_us = seen.adopt_us;
            }
        } else {
            let solves = counters.completed as f64;
            solve_rates.push(stats::ratio(solves, round.process - round.thread));
            solve_wall_rates.push(stats::ratio(solves, round.wall));
            calib_ms.extend(seen.submit_us.iter().map(|us| us / 1e3));
            served_ms.extend(seen.served_ms.iter().copied());
        }
        add_counters(&mut totals, &counters);
        if rounds == 0 {
            payloads = seen.payloads;
            published = seen.published;
        }
        rounds += 1;
    }
    let measured_s = started.elapsed().as_secs_f64();
    let os = OsSample::now().since(&os0);
    let traced_ledger = finish_traced(
        cfg,
        StepCounts {
            steps: traced_steps,
            sampled: sampler.sampled,
            calibrations: 0,
            sampled_calibrations: 0,
            child_cost_ns: sampler.child_cost_ns(recorder::span_cost_ns()),
        },
    );

    // Checks, outside the timed region: every checked publication must
    // be the fixed point of one of its cohort's requests carrying its
    // `requested_at_s` (cohort-mates submit at the same simulated
    // second; drop-oldest keeps one of them).
    let mut by_key: HashMap<(usize, u64), Vec<&capman_core::profiler::Profiler>> = HashMap::new();
    for (c, t, p) in &payloads {
        by_key.entry((*c, t.to_bits())).or_default().push(p);
    }
    let (mut failing, mut worst) = (0usize, 0.0f64);
    for (c, t, cal) in &published {
        let best = by_key
            .get(&(*c, t.to_bits()))
            .into_iter()
            .flatten()
            .map(|p| checks::check_calibration(p, cal))
            .filter(|fp| fp.greedy_ok)
            .map(|fp| fp.residual)
            .fold(f64::INFINITY, f64::min);
        worst = worst.max(best);
        if best > checks::tolerance(cal.rho) {
            failing += 1;
        }
    }
    let checks = vec![
        steps_check(fold.devices, fold.steps, steps_per_device),
        health_check(fold.devices, fold.unhealthy),
        fixed_point_check(published.len(), failing, worst),
        backend_bitwise_check(&plan, SERVICE_SLICE_S),
        ledger_check(&totals),
        Check {
            name: "service ledger identities hold in every round",
            ok: ledger_ok.iter().all(|&ok| ok),
            detail: format!("{} rounds", ledger_ok.len()),
        },
        Check {
            name: "no submission meets backpressure",
            ok: totals.backpressure == 0,
            detail: format!("{} backpressured", totals.backpressure),
        },
    ];

    let (plain_rate, traced_rate) = split.rates();
    let wall = vec![
        ("device_steps_per_s", split.wall_rate()),
        ("solves_per_s", stats::median(&mut solve_wall_rates)),
    ];
    let traced = traced_ledger.map(|(ledger, recording)| {
        let mut submit = calib_ms.iter().map(|ms| ms * 1e3).collect::<Vec<_>>();
        let serve_seams = vec![
            (
                "serve.submit_us_p50",
                stats::quantile(&mut submit, 0.5),
                "us",
            ),
            (
                "serve.submit_us_p99",
                stats::quantile(&mut submit, 0.99),
                "us",
            ),
            ("serve.snapshot_ns", ledger.per_step("serve.snapshot"), "ns"),
            ("serve.adopt_us", stats::mean(&adopt_us), "us"),
        ];
        Traced {
            per_step_ns: ledger.per_step_ns.clone(),
            ledger,
            recording,
            harvest: None,
            traced_rate,
            untraced_rate: plain_rate,
            cal: CalFigures::of(&cal_stats),
            steps: round_steps,
            serve: traced_counters.unwrap_or_default(),
            serve_seams,
        }
    });
    Measured {
        attempted: fold.devices + totals.admitted,
        failed: fold.unhealthy + failing as u64 + totals.abandoned,
        checks,
        device_steps_per_s: plain_rate,
        calib_ms,
        solves_per_s: stats::median(&mut solve_rates),
        served_ms,
        setup_s,
        wall,
        os,
        os_rounds,
        measured_s,
        rounds,
        traced,
    }
}

// ---------------------------------------------------------- serve-overload

/// Harvested requests, grouped by calibration window and cohort.
struct Harvest {
    payloads: Vec<Payload>,
    /// `windows[w][c]`: payload indices of cohort `c` in window `w`,
    /// in submission order.
    windows: Vec<Vec<Vec<usize>>>,
    /// Simulated time of each window's requests.
    window_t: Vec<f64>,
    fold: Fold,
}

fn harvest(
    plan: &FleetPlan,
    group: usize,
    tally: &mut RunTally,
    sampler: Option<&mut Sampler>,
) -> Harvest {
    let cohorts = plan.profiles().len();
    let recorder_backend = Arc::new(RecordingBackend::new(cohorts));
    let backend: Arc<dyn CalibrationBackend> = recorder_backend.clone();
    let mut fold = Fold::default();
    run_fleet(
        plan,
        group,
        f64::INFINITY,
        Some(&backend),
        tally,
        sampler,
        &mut fold,
        &|| {},
    );
    drop(backend);
    let payloads = recorder_backend.take();
    let n_windows = (fixture::HORIZON_S / fixture::EVERY_S).ceil() as usize;
    let mut windows = vec![vec![Vec::new(); cohorts]; n_windows];
    let mut window_t = vec![0.0f64; n_windows];
    for (i, p) in payloads.iter().enumerate() {
        let w = ((p.now_s / fixture::EVERY_S) as usize).min(n_windows - 1);
        windows[w][p.cohort].push(i);
        window_t[w] = window_t[w].max(p.now_s);
    }
    Harvest {
        payloads,
        windows,
        window_t,
        fold,
    }
}

/// What the replay rounds measured.
#[derive(Default)]
struct Replay {
    /// Process CPU time of each step that published, ms.
    calib_ms: Vec<f64>,
    /// Wall time of each such step, ms (diagnostic).
    calib_wall_ms: Vec<f64>,
    /// Process CPU time from a cohort's first submission in a window to
    /// the end of the step that published its calibration, ms.
    served_ms: Vec<f64>,
    submit_us: Vec<f64>,
    snapshot_ns: Vec<f64>,
    adopt_us: Vec<f64>,
    sched_us: Vec<f64>,
    cal_stats: Vec<CalStat>,
    /// Checked publications: (payload index solved, solution).
    published: Vec<(usize, CheckedCal)>,
    expected_solves: u64,
    next_req: u64,
}

impl Replay {
    /// Fold another window's measurements into this one.
    fn append(&mut self, mut other: Replay) {
        self.calib_ms.append(&mut other.calib_ms);
        self.calib_wall_ms.append(&mut other.calib_wall_ms);
        self.served_ms.append(&mut other.served_ms);
        self.submit_us.append(&mut other.submit_us);
        self.snapshot_ns.append(&mut other.snapshot_ns);
        self.adopt_us.append(&mut other.adopt_us);
        self.sched_us.append(&mut other.sched_us);
        self.cal_stats.append(&mut other.cal_stats);
        self.expected_solves += other.expected_solves;
    }
}

/// Per-window replay state, per cohort.
struct WindowState {
    /// Process CPU clock at each cohort's first submission.
    first_sub: Vec<Option<f64>>,
    req: Vec<u64>,
    last_payload: Vec<Option<usize>>,
    seq_seen: Vec<u64>,
    published: Vec<bool>,
}

/// Submit payload `pi` for cohort `c`, timed, remembering the payload
/// the cohort's pending slot now holds.
fn submit_one(
    service: &CalibrationService,
    h: &Harvest,
    (c, pi, offset_s): (usize, usize, f64),
    st: &mut WindowState,
    out: &mut Replay,
) {
    let p = &h.payloads[pi];
    if st.first_sub[c].is_none() {
        out.next_req += 1;
        st.req[c] = out.next_req;
    }
    let opened = recorder::enter_if(recorder::tracing(), Layer::Submit, st.req[c]);
    let t0 = cpuclock::process_s();
    let outcome = service.submit_request(c, p.now_s + offset_s, &p.profiler, p.compute_speed);
    let t1 = cpuclock::process_s();
    recorder::exit_if(opened);
    st.first_sub[c].get_or_insert(t0);
    out.submit_us.push((t1 - t0) * 1e6);
    if matches!(
        outcome,
        AdmissionOutcome::Admitted | AdmissionOutcome::Replaced
    ) {
        st.last_payload[c] = Some(pi);
    }
}

/// Find the cohort the last step published. Picks go stalest-first
/// with ties to the lowest cohort index, so the lowest unpublished
/// cohort is probed first and the rest only if it did not publish.
fn find_published(
    service: &CalibrationService,
    st: &WindowState,
    guess: usize,
    out: &mut Replay,
) -> Option<(usize, Arc<CalibrationSnapshot>)> {
    let cohorts = st.published.len();
    for c in std::iter::once(guess).chain(0..cohorts) {
        if c >= cohorts || st.published[c] {
            continue;
        }
        let opened = recorder::enter_if(recorder::tracing(), Layer::Snapshot, 0);
        let t0 = Instant::now();
        let snap = service.snapshot(c);
        out.snapshot_ns.push(t0.elapsed().as_nanos() as f64);
        recorder::exit_if(opened);
        if snap.seq > st.seq_seen[c] {
            return Some((c, snap));
        }
    }
    None
}

/// Replay window `w` of the harvest, shifted `offset_s` simulated
/// seconds, from this thread into the manually stepped `service`: each
/// cohort's first payload, then one service step per cohort with the
/// remaining payloads interleaved between steps; each publication is
/// adopted the way its cohort's first device would.
fn replay_window(
    h: &Harvest,
    service: &CalibrationService,
    (w, offset_s): (usize, f64),
    check_every: usize,
    rho: f64,
    out: &mut Replay,
) {
    let cohorts = service.cohorts();
    let window = &h.windows[w];
    let now = h.window_t[w] + offset_s;
    let mut st = WindowState {
        first_sub: vec![None; cohorts],
        req: vec![0; cohorts],
        last_payload: vec![None; cohorts],
        seq_seen: (0..cohorts).map(|c| service.snapshot(c).seq).collect(),
        published: vec![false; cohorts],
    };
    for (c, payloads) in window.iter().enumerate() {
        if let Some(&head) = payloads.first() {
            submit_one(service, h, (c, head, offset_s), &mut st, out);
            out.expected_solves += 1;
        }
    }
    // The later payloads arrive in rounds over all cohorts while the
    // service works through the first ones: a cohort still pending gets
    // its payload replaced (drop-oldest), one already solved this window
    // is shed on its quota.
    let depth = window.iter().map(Vec::len).max().unwrap_or(0);
    let rest: Vec<(usize, usize)> = (1..depth)
        .flat_map(|k| {
            window
                .iter()
                .enumerate()
                .filter_map(move |(c, payloads)| payloads.get(k).map(|&pi| (c, pi)))
        })
        .collect();
    let per_step = rest.len().div_ceil(cohorts.max(1));
    let mut next = 0usize;
    let mut guess = 0usize;
    loop {
        let opened = recorder::enter_if(recorder::tracing(), Layer::ServeStep, 0);
        let t0 = Stamp::now();
        let ran = service.step(now);
        let took = t0.elapsed();
        let t1 = cpuclock::process_s();
        recorder::exit_if(opened);
        if ran {
            while guess < cohorts && st.published[guess] {
                guess += 1;
            }
            let (c, snap) = find_published(service, &st, guess, out)
                .expect("a step that ran published some cohort");
            st.published[c] = true;
            st.seq_seen[c] = snap.seq;
            out.calib_ms.push(took.process * 1e3);
            out.calib_wall_ms.push(took.wall * 1e3);
            // Scheduling share of the step: its wall time minus the
            // solve's own (program-reported, wall) time.
            out.sched_us.push(took.wall * 1e6 - snap.wall_us);
            if let Some(since) = st.first_sub[c] {
                out.served_ms.push((t1 - since) * 1e3);
            }
            recorder::tag_last_of(Layer::ServeStep, st.req[c]);
            let opened = recorder::enter_if(recorder::tracing(), Layer::Adopt, st.req[c]);
            let a0 = Instant::now();
            service.adopt(c, &snap, now);
            out.adopt_us.push(a0.elapsed().as_secs_f64() * 1e6);
            recorder::exit_if(opened);
            if let Some(cal) = &snap.calibration {
                out.cal_stats.push(CalStat::of(cal, snap.wall_us));
                if c.is_multiple_of(check_every) {
                    if let Some(pi) = st.last_payload[c] {
                        out.published.push((pi, CheckedCal::of(cal, rho)));
                    }
                }
            }
        } else if next >= rest.len() {
            break;
        }
        for _ in 0..per_step {
            if let Some(&(c, pi)) = rest.get(next) {
                submit_one(service, h, (c, pi, offset_s), &mut st, out);
                next += 1;
            }
        }
    }
}

/// `serve-overload`: untraced cycles each operation's and each window's
/// cheapest repetition is taken over.
const SERVE_BEST_OF: u64 = 8;

fn serve_overload(cfg: &RunConfig) -> Measured {
    let cohorts = OVERLOAD_COHORTS;
    let plan = fixture::plan(cfg.seed, &fixture::COSTLY_MIX, cohorts, OVERLOAD_PER_COHORT);
    let specs: Vec<_> = plan.profiles().iter().map(|p| p.calibrator).collect();
    let rho = specs[0].rho;
    let steps_per_device = fixture::steps_per_device(&plan);
    let mut harvested = None;
    let setup_s = median_setup(SETUP_REPS, || {
        harvested = Some(harvest(
            &plan,
            OVERLOAD_GROUP,
            &mut RunTally::default(),
            None,
        ));
    });
    let h = harvested.expect("set-up ran at least once");
    let mut checks = vec![
        steps_check(h.fold.devices, h.fold.steps, steps_per_device),
        health_check(h.fold.devices, h.fold.unhealthy),
        backend_bitwise_check(&plan, f64::INFINITY),
    ];

    // The traced run also traces one harvest: the simulator's seams run
    // there, not in the replay.
    let harvest_ledger = if cfg.trace {
        install_if(cfg);
        recorder::set_tracing(true);
        let mut sampler = Sampler::new(SAMPLE_EVERY);
        recorder::enter(Layer::Round, 0);
        let traced_h = harvest(
            &plan,
            OVERLOAD_GROUP,
            &mut RunTally::default(),
            Some(&mut sampler),
        );
        recorder::exit();
        finish_traced(
            cfg,
            StepCounts {
                steps: traced_h.fold.steps,
                sampled: sampler.sampled,
                calibrations: 0,
                sampled_calibrations: 0,
                child_cost_ns: sampler.child_cost_ns(recorder::span_cost_ns()),
            },
        )
    } else {
        None
    };

    install_if(cfg);
    let overload = ServiceConfig {
        workers: 0,
        admission: AdmissionConfig {
            queue_bound: cohorts,
            quota_per_window: 1,
            window_s: fixture::EVERY_S,
        },
        ..ServiceConfig::default()
    };
    // A cycle replays every harvested window once into a fresh service;
    // a round is one window. Every cycle repeats the same operations.
    let n_windows = h.windows.len();
    let window_steps = h.fold.steps / n_windows as u64;
    let mut split = Split::default();
    // Per window, each operation's and the whole window's cheapest of the
    // first untraced cycles.
    let per_window =
        |n: usize| -> Vec<BestOf> { (0..n).map(|_| BestOf::new(SERVE_BEST_OF)).collect() };
    let (mut best, mut best_wall, mut best_served, mut best_cpu) = (
        per_window(n_windows),
        per_window(n_windows),
        per_window(n_windows),
        per_window(n_windows),
    );
    let mut traced_replay = Replay::default();
    let mut traced_totals = ServiceCounters::default();
    let mut totals = ServiceCounters::default();
    let mut published = Vec::new();
    let mut cycles_ok = Vec::new();
    let mut os_rounds = Vec::new();
    let os0 = OsSample::now();
    let started = Instant::now();
    let mut cycles = 0u64;
    while (!cfg.trace && !best[0].complete()) || more_rounds(cfg, started, cycles) {
        let is_traced = cfg.trace && cycles % 2 == 1;
        let mut service = CalibrationService::new(&specs, overload);
        let mut expected = 0u64;
        let os_r = OsSample::now();
        for w in 0..n_windows {
            let mut out = Replay::default();
            recorder::set_tracing(is_traced);
            let t0 = Stamp::now();
            recorder::enter_if(is_traced, Layer::Round, 0);
            replay_window(&h, &service, (w, 0.0), CHECK_EVERY, rho, &mut out);
            recorder::exit_if(is_traced);
            let took = t0.elapsed();
            recorder::set_tracing(false);
            expected += out.expected_solves;
            // A window's replay carries its share of the harvested
            // fleet's traffic.
            split.add(is_traced, window_steps, took.process, took.wall);
            if cycles == 0 {
                published.append(&mut out.published);
            }
            if is_traced {
                if cycles == 1 {
                    traced_replay.append(out);
                }
            } else {
                best[w].absorb(&out.calib_ms);
                best_wall[w].absorb(&out.calib_wall_ms);
                best_served[w].absorb(&out.served_ms);
                best_cpu[w].absorb(&[took.process]);
            }
        }
        if !is_traced {
            os_rounds.push(OsSample::now().since(&os_r));
        }
        let counters = service.shutdown();
        cycles_ok.push(checks::ledger_holds(&counters) && counters.completed == expected);
        add_counters(&mut totals, &counters);
        if is_traced && cycles == 1 {
            traced_totals = counters;
        }
        cycles += 1;
    }
    let measured_s = started.elapsed().as_secs_f64();
    let os = OsSample::now().since(&os0);
    let replay_ledger = finish_traced(cfg, StepCounts::default());

    let (mut failing, mut worst) = (0usize, 0.0f64);
    for (pi, cal) in &published {
        let fp = checks::check_calibration(&h.payloads[*pi].profiler, cal);
        worst = worst.max(fp.residual);
        if !fp.passes(cal.rho) {
            failing += 1;
        }
    }
    checks.push(fixed_point_check(published.len(), failing, worst));
    checks.push(ledger_check(&totals));
    checks.push(Check {
        name: "one solve per cohort per window, every cycle",
        ok: cycles_ok.iter().all(|&ok| ok) && best.iter().all(|b| !b.mismatched),
        detail: format!(
            "{} solves over {cycles} cycles of {n_windows} windows ({} cohort-windows per cycle)",
            totals.completed,
            h.windows
                .iter()
                .map(|w| w.iter().filter(|p| !p.is_empty()).count())
                .sum::<usize>()
        ),
    });
    let concat = |b: &[BestOf]| b.iter().flat_map(BestOf::values).collect::<Vec<f64>>();
    let quantiles = |b: &[BestOf]| {
        let mut xs = concat(b);
        (
            stats::quantile(&mut xs, 0.5),
            stats::quantile(&mut xs, 0.99),
        )
    };
    // A cycle at each window's cheapest: submits, steps, snapshots and
    // adoptions.
    let cycle_cpu_s: f64 = best_cpu.iter().filter_map(|b| b.best.first()).sum();
    // Solves per second spent in the steps that solved, each at its
    // cheapest: a denominator of its own, apart from the whole cycle's.
    let solve_rate = |ms: Vec<f64>| stats::ratio(ms.len() as f64, ms.iter().sum::<f64>() / 1e3);

    let (plain_rate, traced_rate) = split.rates();
    let (wall_p50, wall_p99) = quantiles(&best_wall);
    let wall = vec![
        ("device_steps_per_s", split.wall_rate()),
        ("calib_ms_p50", wall_p50),
        ("calib_ms_p99", wall_p99),
        ("solves_per_s", solve_rate(concat(&best_wall))),
    ];
    let traced = replay_ledger.map(|(ledger, recording)| {
        let r = traced_replay;
        let mut submit = r.submit_us.clone();
        let step_us: Vec<f64> = r.calib_ms.iter().map(|ms| ms * 1e3).collect();
        let serve_seams = vec![
            (
                "serve.submit_us_p50",
                stats::quantile(&mut submit, 0.5),
                "us",
            ),
            (
                "serve.submit_us_p99",
                stats::quantile(&mut submit, 0.99),
                "us",
            ),
            ("serve.snapshot_ns", stats::mean(&r.snapshot_ns), "ns"),
            ("serve.adopt_us", stats::mean(&r.adopt_us), "us"),
            ("serve.step_us", stats::mean(&step_us), "us"),
            ("serve.sched_us", stats::mean(&r.sched_us), "us"),
        ];
        let per_step_ns = harvest_ledger
            .as_ref()
            .map(|(l, _)| l.per_step_ns.clone())
            .unwrap_or_default();
        Traced {
            ledger,
            recording,
            per_step_ns,
            steps: harvest_ledger.as_ref().map_or(0, |_| h.fold.steps),
            harvest: harvest_ledger,
            traced_rate,
            untraced_rate: plain_rate,
            cal: CalFigures::of(&r.cal_stats),
            serve: traced_totals,
            serve_seams,
        }
    });
    Measured {
        attempted: totals.admitted,
        failed: (totals.admitted - totals.completed) + failing as u64,
        checks,
        device_steps_per_s: stats::ratio((window_steps * n_windows as u64) as f64, cycle_cpu_s),
        solves_per_s: solve_rate(concat(&best)),
        calib_ms: concat(&best),
        served_ms: concat(&best_served),
        setup_s,
        wall,
        os,
        os_rounds,
        measured_s,
        rounds: cycles,
        traced,
    }
}
