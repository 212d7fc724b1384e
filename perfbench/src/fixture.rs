//! Workload inputs derived from the `--seed` argument.
//!
//! Every fleet is `bench_fleet`'s compressed fixture — a 1500 s horizon
//! with a 300 s calibration cadence, five calibration windows per
//! device — over CAPMAN cohorts on the Nexus profile whose workloads
//! cycle PCMark, Video and η=50 (half PCMark, half Video). The seed
//! picks each cohort's base seed, from which the program derives every
//! device's trace seed, demand perturbation and ambient offset; nothing
//! else depends on it.

use capman_fleet::{FleetPlan, FleetProfile};
use capman_workload::WorkloadKind;

/// Discharge horizon of every device, simulated seconds.
pub const HORIZON_S: f64 = 1500.0;
/// Calibration cadence of every cohort, simulated seconds.
pub const EVERY_S: f64 = 300.0;
/// The cohort workload mix, dealt round-robin over cohorts.
pub const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Pcmark,
    WorkloadKind::Video,
    WorkloadKind::EtaStatic { eta: 50 },
];

/// The mix with PCMark twice, for the workloads that report calibration
/// cost percentiles. A calibration's cost is bimodal: a PCMark or η=50
/// device's later calibrations cost 4–7× a Video device's. Under
/// [`WORKLOADS`] the costly share is so near half that the median flips
/// between the two modes from seed to seed; under this mix it lies well
/// inside the costly mode.
pub const COSTLY_MIX: [WorkloadKind; 4] = [
    WorkloadKind::Pcmark,
    WorkloadKind::Video,
    WorkloadKind::EtaStatic { eta: 50 },
    WorkloadKind::Pcmark,
];

/// SplitMix64 finaliser: decorrelates `(seed, cohort)` into a base seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `cohorts` cohort profiles of a run with `seed`, workloads dealt
/// round-robin from `kinds`.
pub fn profiles(seed: u64, kinds: &[WorkloadKind], cohorts: usize) -> Vec<FleetProfile> {
    (0..cohorts)
        .map(|c| {
            let workload = kinds[c % kinds.len()];
            let mut p = FleetProfile::capman(format!("c{c}"), workload, mix(seed, c as u64));
            p.config.max_horizon_s = HORIZON_S;
            p.calibrator.every_s = EVERY_S;
            p
        })
        .collect()
}

/// A plan of `cohorts` cohorts from `kinds` with `per_cohort` devices each.
pub fn plan(seed: u64, kinds: &[WorkloadKind], cohorts: usize, per_cohort: usize) -> FleetPlan {
    FleetPlan::new(profiles(seed, kinds, cohorts), per_cohort)
}

/// Simulated steps one device takes over the horizon.
pub fn steps_per_device(plan: &FleetPlan) -> u64 {
    let cfg = &plan.profiles()[0].config;
    (cfg.max_horizon_s / cfg.dt_s).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_reaches_the_generated_inputs() {
        let a = plan(1, &WORKLOADS, 3, 4);
        let b = plan(2, &WORKLOADS, 3, 4);
        let again = plan(1, &WORKLOADS, 3, 4);
        for i in 0..a.len() {
            assert_eq!(a.spec(i), again.spec(i), "same seed, same device {i}");
            assert_ne!(
                a.spec(i).trace_seed,
                b.spec(i).trace_seed,
                "another seed must change device {i}'s trace"
            );
        }
        let kinds: Vec<_> = a.profiles().iter().map(|p| p.workload).collect();
        assert_eq!(kinds, WORKLOADS.to_vec());
        assert_eq!(steps_per_device(&a), 1500);
    }
}
