//! The benchmark's device loop: the per-device path `DeviceArena`
//! runs, rebuilt from public parts so each seam of `DeviceSim::step`
//! can be wrapped.
//!
//! Rows are built exactly as `DeviceArena::build` builds them (derived
//! specs, cohort-shared phone and power model, streaming trace cursor,
//! enum-dispatched policy, constant-memory telemetry) and driven with
//! `DeviceSim::run_until`, as `DeviceArena::run_window` drives them. The
//! bitwise check in `checks` compares a sample of these rows with
//! `ArenaRunner`'s own summaries.

use std::sync::Arc;
use std::time::Instant;

use capman_core::experiments::build_pack;
use capman_core::metrics::EndReason;
use capman_core::policy::Policy;
use capman_core::sim::DeviceSim;
use capman_core::telemetry::LeanTelemetry;
use capman_device::phone::PhoneProfile;
use capman_device::power::PowerModel;
use capman_fleet::{CalibrationBackend, DeviceSummary, FleetPlan, FleetPolicy};
use capman_workload::TraceCursor;

use crate::recorder::{self, Layer};
use crate::seams::{DeviceTally, RunTally, TimedPolicy, TimedSink, TimedTrace};

/// One device: the program's per-device state plus the benchmark's
/// counters.
pub struct Row {
    /// Fleet-unique device id.
    pub id: u64,
    /// Cohort index.
    pub cohort: usize,
    /// Physics core.
    pub sim: DeviceSim,
    /// Streaming trace.
    pub cursor: TraceCursor,
    /// Scheduling policy.
    pub policy: FleetPolicy,
    /// Telemetry counters.
    pub telemetry: LeanTelemetry,
    /// Benchmark counters.
    pub tally: DeviceTally,
    /// Rated energy of the device's fresh pack, J.
    pub pack_energy_j: f64,
    /// Cleared when a telemetry sample leaves the physical bounds.
    pub bounds_ok: bool,
    /// Simulation step, s.
    pub dt_s: f64,
}

impl Row {
    /// The device's summary, field for field as `DeviceArena::summary`
    /// reports it.
    pub fn summary(&self) -> DeviceSummary {
        DeviceSummary {
            device_id: self.id,
            cohort: self.cohort,
            service_time_s: self.sim.time_s(),
            work_served: self.sim.work_served(),
            energy_delivered_j: self.sim.energy_delivered_j(),
            max_hotspot_c: self.sim.peak_hotspot_c(),
            switches: self.sim.switches(),
            ticks: self.telemetry.samples,
            recalibrations: self.policy.recalibrations(),
            max_staleness_s: self.telemetry.max_staleness_s,
        }
    }

    /// Whether the device ran its whole horizon within physical bounds:
    /// every step taken, finite temperatures and SoC in [0, 1] on every
    /// sample, and no more energy delivered than the fresh pack holds.
    pub fn healthy(&self, steps_per_device: u64) -> bool {
        self.sim.end_reason() == Some(EndReason::HorizonReached)
            && self.tally.steps == steps_per_device
            && self.bounds_ok
            && self.sim.peak_hotspot_c().is_finite()
            && self.sim.energy_delivered_j() <= self.pack_energy_j
    }

    /// Whether the device's cycle has ended.
    pub fn done(&self) -> bool {
        self.sim.end_reason().is_some()
    }

    /// `DeviceSim::run_until` through the seam wrappers.
    pub fn run_until(&mut self, t_end: f64, run: &mut RunTally) {
        let mut policy = TimedPolicy {
            inner: &mut self.policy,
            dev: &mut self.tally,
            run,
        };
        let mut trace = TimedTrace {
            inner: &mut self.cursor,
        };
        let mut sink = TimedSink {
            inner: &mut self.telemetry,
            bounds_ok: &mut self.bounds_ok,
        };
        self.sim
            .run_until(&mut policy, &mut trace, &mut sink, t_end);
    }

    /// One `DeviceSim::step` through the seam wrappers.
    pub fn step(&mut self, run: &mut RunTally) {
        let mut policy = TimedPolicy {
            inner: &mut self.policy,
            dev: &mut self.tally,
            run,
        };
        let mut trace = TimedTrace {
            inner: &mut self.cursor,
        };
        let mut sink = TimedSink {
            inner: &mut self.telemetry,
            bounds_ok: &mut self.bounds_ok,
        };
        self.sim.step(&mut policy, &mut trace, &mut sink);
    }
}

/// Build rows for the plan devices `indices` against `backend` (inline
/// calibration when `None`). Devices for which `capture(i)` holds keep
/// their calibrations for the fixed-point check.
pub fn build_rows(
    plan: &FleetPlan,
    indices: impl IntoIterator<Item = usize>,
    backend: Option<&Arc<dyn CalibrationBackend>>,
    capture: impl Fn(usize) -> bool,
) -> Vec<Row> {
    let opened = recorder::enter_if(recorder::tracing(), Layer::Build, 0);
    // One phone/power-model set per cohort per build, Arc-shared into
    // the cohort's devices, as the arena's cohort cache does.
    let mut ctxs: Vec<Option<(Arc<PhoneProfile>, Arc<PowerModel>)>> =
        vec![None; plan.profiles().len()];
    let rows = indices
        .into_iter()
        .map(|i| {
            let spec = plan.spec(i);
            let profile = &plan.profiles()[spec.cohort];
            let (phone, model) = ctxs[spec.cohort]
                .get_or_insert_with(|| {
                    (
                        Arc::new(profile.phone.clone()),
                        Arc::new(profile.phone.power_model()),
                    )
                })
                .clone();
            let pack = build_pack(profile.kind);
            let pack_energy_j =
                pack.big().rated_energy_j() + pack.little().map_or(0.0, |c| c.rated_energy_j());
            Row {
                id: spec.device_id,
                cohort: spec.cohort,
                sim: DeviceSim::new(phone, model, pack, profile.device_config(&spec)),
                cursor: TraceCursor::new(
                    profile.workload,
                    profile.config.max_horizon_s,
                    spec.trace_seed,
                    spec.perturbation,
                ),
                policy: FleetPolicy::for_device(profile, &spec, backend, || profile.trace(&spec)),
                telemetry: LeanTelemetry::default(),
                tally: DeviceTally::new(capture(i), profile.phone.compute_speed),
                pack_energy_j,
                bounds_ok: true,
                dt_s: profile.config.dt_s,
            }
        })
        .collect();
    recorder::exit_if(opened);
    rows
}

/// Step sampling of the traced run: one step in `every` runs alone,
/// alternately *full* (every seam recorded as a span under a `sim.step`
/// span) and *bare* (only timed as a whole). Comparing the two on steps
/// with no always-recorded span inside gives the recorder's true cost
/// per child span in place, which the ledger subtracts.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Run one step alone in this many.
    pub every: u64,
    /// Steps left before the next sampled one.
    pub until_next: u64,
    /// Full sampled steps that ran (a device past its horizon takes none).
    pub sampled: u64,
    bare_next: bool,
    full_raw_ns: f64,
    full_children: u64,
    full_n: u64,
    bare_raw_ns: f64,
    bare_n: u64,
}

impl Sampler {
    /// Sample one step in `every`.
    pub fn new(every: u64) -> Self {
        Sampler {
            every,
            until_next: every - 1,
            sampled: 0,
            bare_next: false,
            full_raw_ns: 0.0,
            full_children: 0,
            full_n: 0,
            bare_raw_ns: 0.0,
            bare_n: 0,
        }
    }

    /// The time each child span adds to its parent beyond its own
    /// recorded duration, measured in place: the mean full step's excess
    /// over the mean bare step, per child, less the in-span cost
    /// `span_cost_ns`. `None` until both kinds of step were seen.
    pub fn child_cost_ns(&self, span_cost_ns: f64) -> Option<f64> {
        if self.full_n == 0 || self.bare_n == 0 || self.full_children == 0 {
            return None;
        }
        let excess = self.full_raw_ns / self.full_n as f64 - self.bare_raw_ns / self.bare_n as f64;
        let per_child = excess / (self.full_children as f64 / self.full_n as f64);
        Some((per_child - span_cost_ns).max(0.0))
    }

    fn step(&mut self, row: &mut Row, run: &mut RunTally) {
        let steps_before = row.tally.steps;
        let always_before = recorder::always_closed();
        if self.bare_next {
            let t0 = Instant::now();
            row.step(run);
            let raw = t0.elapsed().as_nanos() as f64;
            if row.tally.steps > steps_before && recorder::always_closed() == always_before {
                self.bare_raw_ns += raw;
                self.bare_n += 1;
            }
        } else {
            recorder::set_sampling(true);
            let opened_before = recorder::opened();
            recorder::enter(Layer::Step, 0);
            row.step(run);
            let (raw, _) = recorder::exit_raw();
            // Every span opened inside the step, at any depth, added its
            // cost to the step's raw duration.
            let descendants = recorder::opened() - opened_before - 1;
            recorder::set_sampling(false);
            if row.tally.steps > steps_before {
                self.sampled += 1;
                if recorder::always_closed() == always_before {
                    self.full_raw_ns += raw;
                    self.full_children += descendants;
                    self.full_n += 1;
                }
            }
        }
        self.bare_next = !self.bare_next;
        self.until_next = self.every - 1;
    }
}

/// Advance every live row to `t_end` (or its cycle end), as
/// `DeviceArena::run_window` does. With a sampler (traced run), each
/// `run_until` call is a span and one step in `every` runs alone with
/// the sampling gate open, so its seams are recorded.
pub fn run_rows(
    rows: &mut [Row],
    t_end: f64,
    run: &mut RunTally,
    mut sampler: Option<&mut Sampler>,
) {
    for row in rows.iter_mut().filter(|r| !r.done()) {
        match sampler.as_deref_mut() {
            None => row.run_until(t_end, run),
            Some(s) => {
                recorder::enter(Layer::RunUntil, 0);
                while !row.done() && row.sim.time_s() < t_end {
                    if s.until_next > 0 {
                        let t_stop = (row.sim.time_s() + s.until_next as f64 * row.dt_s).min(t_end);
                        let before = row.tally.steps;
                        row.run_until(t_stop, run);
                        s.until_next = s.until_next.saturating_sub(row.tally.steps - before);
                        continue;
                    }
                    s.step(row, run);
                }
                recorder::exit();
            }
        }
    }
}
