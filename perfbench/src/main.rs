//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Checks, per-run diagnostics and (traced) the layer
//! ledger are printed above it; the traced run also writes a Chrome
//! trace under `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use capman_perfbench::output::{end_to_end, per_layer, result_line};
use capman_perfbench::recorder;
use capman_perfbench::workloads::{self, RunConfig, Workload};

const USAGE: &str =
    "usage: perfbench --workload <ondevice|fleet-service|serve-overload> --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn trace_path(cfg: &RunConfig) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} available_parallelism={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let m = workloads::run(&cfg);
    for c in &m.checks {
        println!(
            "check {:<58} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "diag rounds={} measured_s={:.3} steal_s={:.3} user_cpu_s={:.3} sys_cpu_s={:.3} voluntary_ctx_switches={} (diagnostics only; no run is discarded on them)",
        m.rounds, m.measured_s, m.os.steal_s, m.os.user_s, m.os.sys_s, m.os.voluntary_ctx
    );
    let wall: Vec<String> = m.wall.iter().map(|(n, v)| format!("{n}={v:.4}")).collect();
    println!("diag wall-clock {}", wall.join(" "));
    let metrics = match &m.traced {
        None => end_to_end(&m),
        Some(t) => {
            if let Some((ledger, _)) = &t.harvest {
                print!("{}", ledger.table("traced set-up harvest"));
            }
            print!("{}", t.ledger.table("traced rounds"));
            for (name, value, unit) in &t.serve_seams {
                println!("  seam {name:<24} {value:>12.3} {unit}");
            }
            println!(
                "tracing overhead: device_steps_per_s untraced {:.0} vs traced {:.0}",
                t.untraced_rate, t.traced_rate
            );
            let path = trace_path(&cfg);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| {
                    std::fs::write(
                        &path,
                        recorder::chrome_trace(&t.recording, cfg.workload.name()),
                    )
                });
            match written {
                Ok(()) => println!("chrome trace: {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            per_layer(&m, t)
        }
    };
    println!(
        "{}",
        result_line(m.correct(), m.attempted, m.failed, &metrics)
    );
    ExitCode::SUCCESS
}
