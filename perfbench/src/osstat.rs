//! Process and host counters read from `/proc`: the per-run
//! diagnostics (host steal, process CPU, context switches) and peak RSS.
//!
//! Diagnostics are printed beside the metrics and never used to discard
//! a run. On a system without `/proc` every reading is 0.

use std::fs;

/// One reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsSample {
    /// Host steal time summed over all CPUs, seconds (`/proc/stat`).
    pub steal_s: f64,
    /// Process user CPU, seconds (`/proc/self/stat`).
    pub user_s: f64,
    /// Process system CPU, seconds (`/proc/self/stat`).
    pub sys_s: f64,
    /// Voluntary context switches of the main (benchmark) thread
    /// (`/proc/self/status`): each join on a freshly spawned sweep
    /// thread that has not finished yet blocks it once.
    pub voluntary_ctx: u64,
}

impl OsSample {
    /// Read the counters now.
    pub fn now() -> Self {
        let (user_s, sys_s) = self_cpu_s();
        OsSample {
            steal_s: host_steal_s(),
            user_s,
            sys_s,
            voluntary_ctx: status_field("voluntary_ctxt_switches").unwrap_or(0),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &OsSample) -> OsSample {
        OsSample {
            steal_s: self.steal_s - earlier.steal_s,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary_ctx: self.voluntary_ctx.saturating_sub(earlier.voluntary_ctx),
        }
    }
}

/// Clock ticks per second for `/proc` CPU times. Linux reports
/// `USER_HZ`, fixed at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

fn host_steal_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    // "cpu  user nice system idle iowait irq softirq steal ..."
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

fn self_cpu_s() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) / USER_HZ, field(12) / USER_HZ)
}

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}
