//! A seed not used while the benchmark was built runs every workload
//! clean, untraced and traced, at the benchmark's own sizes. With
//! `seconds` 0 each run makes only the rounds it needs (the
//! best-of-repetitions rounds untraced, an untraced and a traced round
//! traced): about a minute and a half in all on two vCPUs.

use capman_perfbench::output::{end_to_end, per_layer};
use capman_perfbench::recorder;
use capman_perfbench::workloads::{run, RunConfig, Workload};

const HELD_OUT_SEED: u64 = 0x5EC0_4D5E_ED00_0002;

fn config(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: HELD_OUT_SEED,
        seconds: 0.0,
        trace,
    }
}

#[test]
fn every_workload_runs_clean_on_a_held_out_seed() {
    for workload in Workload::ALL {
        let name = workload.name();
        let m = run(&config(workload, false));
        for c in &m.checks {
            assert!(c.ok, "{name}: {} ({})", c.name, c.detail);
        }
        assert!(m.attempted > 0, "{name}");
        assert_eq!(m.failed, 0, "{name}");
        for (metric, value, _) in end_to_end(&m) {
            assert!(
                value.is_finite() && value > 0.0,
                "{name}: {metric} = {value}"
            );
        }

        // The traced run: a ledger, a Chrome trace and every per-layer
        // metric.
        let m = run(&config(workload, true));
        assert!(m.correct(), "{name}");
        assert_eq!(m.failed, 0, "{name}");
        let t = m.traced.as_ref().expect("traced run");
        assert!(t.ledger.whole_ms > 0.0, "{name}");
        assert!(t.ledger.unattributed_frac.is_finite());
        let trace = recorder::chrome_trace(&t.recording, name);
        assert!(trace.starts_with("{\"displayTimeUnit\""));
        assert!(trace.contains("\"ph\":\"X\""), "{name}");
        let metrics = per_layer(&m, t);
        assert!(metrics.iter().all(|(_, v, _)| v.is_finite()));
    }
}
