//! The fet workspace benchmark: runs one workload and prints its metrics.
//!
//! ```text
//! fet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The workload's inputs are made from `--seed` alone. The run measures
//! for `--seconds` after set-up, checks the program's outputs, and prints
//! the host fingerprint and then, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Without tracing the
//! metrics are the end-to-end set; `--trace 1` runs the workload with
//! spans around each layer call instead and prints the per-layer set,
//! writing the spans to `.bench_out/`. `--smoke` shrinks every workload
//! (n ≤ 10⁴, a few rounds) for the benchmark's own schema test.
//!
//! Only public APIs of the fet crates are called, from outside.

mod episode;
mod graph;
mod measure;
mod mf;
mod replay;
mod sweep;
mod trace;

use fet_stats::rng::SeedTree;
use measure::{Checks, Metrics, END_TO_END, PER_LAYER};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    pub tracer: Tracer,
}

type Workload = fn(&Config, &mut Outcome);

const WORKLOADS: [(&str, Workload); 2] = [("mf-fet-1e7", mf::run), ("graph-fet-1e5", graph::run)];

/// Seconds a traced run spends replaying the sweep layer.
const SWEEP_REPLAY_S: f64 = 4.0;

/// Throughput of two threads over one on the same fixed integer loop:
/// 2.0 on two free cores, near 1.0 where they share one.
fn cpu_scaling_ratio() -> f64 {
    fn spin() -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x)
    }
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            spin();
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(spin);
                let b = s.spawn(spin);
                a.join().expect("spin thread");
                b.join().expect("spin thread");
            });
            2.0 * one / t.elapsed().as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[1]
}

fn host_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        r#"{{"available_parallelism": {parallelism}, "cpu_scaling_2t": {}, "isa_path": "{}", "rustc": "{}"}}"#,
        cpu_scaling_ratio(),
        fet_stats::isa::active_path().name(),
        env!("PERFBENCH_RUSTC"),
    )
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: fet-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| w.0 == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(&(name, run)), Some(seed), Some(seconds), Some(trace)) =
        (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (0 < s ≤ 120) and --trace are all required");
    };
    let cfg = Config {
        seed,
        seconds,
        trace,
        smoke,
    };

    let host = host_json();
    println!("host {host}");
    let mut out = Outcome {
        checks: Checks::default(),
        metrics: Metrics::new(),
        tracer: Tracer::new(Instant::now()),
    };
    if trace {
        // A layer the workload never calls keeps 0.
        out.metrics = PER_LAYER.iter().map(|&(m, _)| (m, 0.0)).collect();
    }
    run(&cfg, &mut out);
    if trace {
        let seconds = if smoke { 0.5 } else { SWEEP_REPLAY_S };
        sweep::replay(SeedTree::new(seed).child("sweep"), seconds, smoke, &mut out);
    }

    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    assert!(
        out.metrics.len() == table.len() && table.iter().all(|(m, _)| out.metrics.contains_key(m)),
        "workload {name} reported {:?}",
        out.metrics.keys()
    );
    let fields: Vec<String> = table
        .iter()
        .map(|&(metric, unit)| {
            let value = out.metrics[metric];
            assert!(value.is_finite(), "{metric} is {value}");
            format!(r#""{metric}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    let result = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.checks.failed == 0 && out.checks.attempted > 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        fields.join(", ")
    );

    let dir = std::path::Path::new(".bench_out");
    let stem = format!("{name}-seed{seed}-trace{}", u8::from(trace));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.json")),
                format!("{{\"host\": {host}, \"result\": {result}}}\n"),
            )
        })
        .and_then(|()| {
            if trace {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    out.tracer.to_jsonl(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("error: writing {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!("{result}");
    ExitCode::SUCCESS
}
