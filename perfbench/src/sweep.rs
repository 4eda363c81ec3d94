//! The fet-sweep layer, replayed on many small episodes: `run_sweep` over
//! FET at n = 2000 with literal agent sampling on the batched pipeline,
//! 2 workers, records kept in memory, interleaved with serial
//! `run_episode` calls: the shape of the `sweep-agent-2e3` workload.
//! Its figures follow the host's single-core speed, which swings up to
//! ~1.9× over minutes on a shared 2-vCPU machine, so it is not a gated
//! workload; every traced run replays it for a few seconds and reports
//! only the `sweep.*` layer metrics, which have no bound.

use crate::measure::{median, quantile, Checks};
use crate::trace::Tracer;
use crate::Outcome;
use fet_stats::rng::SeedTree;
use fet_sweep::{run_sweep, EpisodeRecord, SweepOptions, SweepSpec, WarmCache};
use std::time::Instant;

const N: u64 = 2000;
const WORKERS: usize = 2;

/// The replay's spec over seeds `base .. base + count`.
fn spec_text(base: u64, count: u64) -> String {
    format!(
        r#"{{"protocol": "fet", "n": [{N}], "fidelity": "agent", "mode": "batched", "seeds": {{"base": {base}, "count": {count}}}}}"#
    )
}

/// Replays short cycles — one spec parse, one pooled sweep, a chunk of
/// serial episodes and their builds — for `seconds`, with the tracer on,
/// and inserts the `sweep.*` metrics. Every episode's convergence is a
/// check.
pub fn replay(seed: SeedTree, seconds: f64, smoke: bool, out: &mut Outcome) {
    let (batch, chunk) = if smoke { (16, 8) } else { (256, 64) };
    let options = SweepOptions {
        workers: WORKERS,
        ..SweepOptions::default()
    };
    let cache = WarmCache::new();
    let tracer = &mut out.tracer;
    tracer.set_enabled(true);
    let outer = tracer.begin("sweep.replay");
    let (mut pooled, mut pooled_s) = (0u64, 0.0);
    let start = Instant::now();
    let mut cycle = 0u64;
    while cycle < 2 || start.elapsed().as_secs_f64() < seconds {
        // Shifted so `base + count` cannot overflow.
        let base = seed.child_indexed("spec", cycle).seed() >> 8;
        let span = tracer.begin("sweep.parse");
        let spec = SweepSpec::parse(&spec_text(base, batch)).expect("the replay spec is valid");
        tracer.end(span);

        let t0 = Instant::now();
        let span = tracer.begin("sweep.run_sweep");
        let outcome = run_sweep(&spec, &options).expect("an in-memory sweep of a valid spec runs");
        tracer.end(span);
        pooled_s += t0.elapsed().as_secs_f64();
        pooled += outcome.records.len() as u64;
        out.checks
            .check(outcome.complete, || "sweep incomplete".to_string());
        for r in &outcome.records {
            check_record(&mut out.checks, r);
        }

        for e in 0..chunk {
            let span = tracer.begin("sweep.run_episode");
            let record = spec.run_episode(e, &cache).expect("a valid episode runs");
            tracer.end(span);
            check_record(&mut out.checks, &record);
            let span = tracer.begin("sweep.build_simulation");
            let sim = spec
                .build_simulation(e, &cache)
                .expect("a valid episode builds");
            tracer.end(span);
            drop(sim);
        }
        cycle += 1;
    }
    tracer.end(outer);
    tracer.set_enabled(false);

    let tracer: &Tracer = tracer;
    let layers = &mut out.metrics;
    let episodes = tracer.durations("sweep.run_episode");
    layers.insert("sweep.parse_s", median(&tracer.durations("sweep.parse")));
    layers.insert(
        "sweep.build_sim_s_p50",
        median(&tracer.durations("sweep.build_simulation")),
    );
    layers.insert("sweep.episode_s_p50", quantile(&episodes, 0.5));
    layers.insert("sweep.episode_s_p99", quantile(&episodes, 0.99));
    // A pooled episode's busy time is estimated by the serial mean.
    let busy = episodes.iter().sum::<f64>() / episodes.len() as f64 * pooled as f64;
    layers.insert(
        "sweep.dispatch_overhead_frac",
        1.0 - busy / (WORKERS as f64 * pooled_s),
    );
}

fn check_record(checks: &mut Checks, r: &EpisodeRecord) {
    let rep = &r.report;
    checks.check(rep.converged() && rep.final_fraction_correct == 1.0, || {
        format!(
            "sweep seed {}: converged_at {:?}, final fraction correct {}",
            r.seed, rep.converged_at, rep.final_fraction_correct
        )
    });
}
