//! Correctness checks, computed apart from the program and run outside
//! the timed region.

use capman_core::profiler::Profiler;
use capman_fleet::DeviceSummary;
use capman_mdp::Mdp;
use capman_serve::ServiceCounters;

use crate::seams::CheckedCal;

/// The calibrator's final Bellman solve stops once one sweep moves no
/// value by `SOLVE_EPS` or more (`core::online`, ε = 1e-6). The returned
/// vector `V` is then one Jacobi backup `T` past its predecessor `U`, so
/// `|T V − V| = |T V − T U| ≤ ρ·|V − U| < ρ·ε`: a published vector
/// whose Bellman residual exceeds `ρ·ε` (plus round-off) is not the
/// solver's fixed point.
pub const SOLVE_EPS: f64 = 1e-6;

/// Round-off allowance on top of `ρ·ε`: the check sums each backup in
/// another order than the solver's hoisted expected rewards.
const ROUNDOFF: f64 = 1e-12;

/// The residual tolerance for discount `rho`.
pub fn tolerance(rho: f64) -> f64 {
    rho * SOLVE_EPS + ROUNDOFF
}

/// Outcome of one fixed-point check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPoint {
    /// `max_s |(T V)(s) − V(s)|`.
    pub residual: f64,
    /// Every published action is greedy for `V` within the tolerance
    /// (absorbing states publish none).
    pub greedy_ok: bool,
}

impl FixedPoint {
    /// Whether the check passes for discount `rho`.
    pub fn passes(&self, rho: f64) -> bool {
        self.residual <= tolerance(rho) && self.greedy_ok
    }
}

/// One Bellman backup of every state over `Mdp::outcomes`:
/// `(T V)(s) = max_a Σ_o p_o (r_o + ρ V(next_o))`, 0 for a state with no
/// available action.
pub fn fixed_point(mdp: &Mdp, rho: f64, values: &[f64], policy: &[Option<usize>]) -> FixedPoint {
    let tol = tolerance(rho);
    if values.len() != mdp.n_states() || policy.len() != mdp.n_states() {
        return FixedPoint {
            residual: f64::INFINITY,
            greedy_ok: false,
        };
    }
    let mut residual: f64 = 0.0;
    let mut greedy_ok = true;
    for s in 0..mdp.n_states() {
        let q = |a: usize| -> f64 {
            mdp.outcomes(s, a)
                .iter()
                .map(|o| o.prob * (o.reward + rho * values[o.next]))
                .sum()
        };
        let best = mdp
            .available_actions(s)
            .map(q)
            .fold(f64::NEG_INFINITY, f64::max);
        let backup = if best.is_finite() { best } else { 0.0 };
        residual = residual.max((backup - values[s]).abs());
        greedy_ok &= match policy[s] {
            None => !best.is_finite(),
            Some(a) => mdp.available_actions(s).any(|x| x == a) && q(a) >= best - tol,
        };
    }
    FixedPoint {
        residual,
        greedy_ok,
    }
}

/// Check a published calibration against the profiler it was solved
/// from, rebuilding that profiler's MDP with `Profiler::to_mdp`.
pub fn check_calibration(profiler: &Profiler, cal: &CheckedCal) -> FixedPoint {
    fixed_point(&profiler.to_mdp(), cal.rho, &cal.values, &cal.policy)
}

/// The service's counter identities: every submission has exactly one
/// admission outcome, and after shutdown every admitted request was
/// either solved or abandoned.
pub fn ledger_holds(c: &ServiceCounters) -> bool {
    c.submitted == c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure
        && c.admitted == c.completed + c.abandoned
}

/// Field-by-field bitwise equality of two device summaries (floats
/// compared by bit pattern, so even a sign-of-zero difference fails).
pub fn summaries_bitwise_equal(a: &DeviceSummary, b: &DeviceSummary) -> bool {
    a.device_id == b.device_id
        && a.cohort == b.cohort
        && a.service_time_s.to_bits() == b.service_time_s.to_bits()
        && a.work_served.to_bits() == b.work_served.to_bits()
        && a.energy_delivered_j.to_bits() == b.energy_delivered_j.to_bits()
        && a.max_hotspot_c.to_bits() == b.max_hotspot_c.to_bits()
        && a.switches == b.switches
        && a.ticks == b.ticks
        && a.recalibrations == b.recalibrations
        && a.max_staleness_s.to_bits() == b.max_staleness_s.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use capman_core::online::Calibrator;
    use capman_device::fsm::Action;
    use capman_device::states::DeviceState;

    /// A profiler fed by a real simulated device, so the checked MDP has
    /// the shape calibrations see in the benchmark.
    fn device_profiler() -> Profiler {
        let plan = crate::fixture::plan(7, &crate::fixture::WORKLOADS, 3, 1);
        let mut rows = crate::fleet::build_rows(&plan, 0..1, None, |_| false);
        let mut run = crate::seams::RunTally::default();
        crate::fleet::run_rows(&mut rows, 700.0, &mut run, None);
        match &rows[0].policy {
            capman_fleet::FleetPolicy::Capman(p) => p.profiler().clone(),
            _ => unreachable!("fixture cohorts run CAPMAN"),
        }
    }

    fn solved(profiler: &Profiler) -> CheckedCal {
        let mut cal = Calibrator::new(0.05, 0.1, 300.0);
        cal.recalibrate(0.0, profiler, 1.0);
        CheckedCal::of(cal.calibration().expect("just calibrated"), 0.05)
    }

    #[test]
    fn accepts_the_programs_solution() {
        let profiler = device_profiler();
        let cal = solved(&profiler);
        let fp = check_calibration(&profiler, &cal);
        assert!(fp.passes(cal.rho), "{fp:?}");
        assert!(profiler.to_mdp().n_states() > 1);
    }

    #[test]
    fn rejects_a_perturbed_value_vector() {
        let profiler = device_profiler();
        let mut cal = solved(&profiler);
        let visited = profiler.visited_states()[0];
        cal.values[visited] += 1e-4;
        assert!(!check_calibration(&profiler, &cal).passes(cal.rho));
    }

    #[test]
    fn rejects_a_non_greedy_policy() {
        let mut p = Profiler::new();
        let awake = DeviceState::awake();
        let asleep = DeviceState::asleep();
        for _ in 0..50 {
            p.observe(awake, Action::ScreenOff, asleep, 0.9, 1.0);
            p.observe(asleep, Action::ScreenOn, awake, 0.9, 1.0);
            p.observe(awake, Action::SwitchToLittle, awake, 0.1, 1.0);
        }
        let mut cal = solved(&p);
        assert!(check_calibration(&p, &cal).passes(cal.rho));
        let s = awake.index();
        let worse = p
            .to_mdp()
            .available_actions(s)
            .find(|&a| Some(a) != cal.policy[s])
            .expect("awake has two actions");
        cal.policy[s] = Some(worse);
        assert!(!check_calibration(&p, &cal).greedy_ok);
    }

    #[test]
    fn ledger_identities() {
        let mut c = ServiceCounters {
            submitted: 10,
            admitted: 4,
            coalesced: 1,
            replaced: 3,
            shed: 1,
            backpressure: 1,
            completed: 4,
            abandoned: 0,
        };
        assert!(ledger_holds(&c));
        c.completed = 3;
        assert!(!ledger_holds(&c));
    }
}
