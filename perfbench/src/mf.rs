//! `mf-fet-1e7`: the plain `Simulation::builder().population(10⁷)` default
//! (FET, ℓ = ⌈4 ln n⌉ = 65, binomial fidelity, all-wrong start) run to
//! convergence. `Auto` resolves it to the fused-parallel round on
//! bit-plane storage, so this workload carries the storage-policy,
//! round-parallel and per-round thread-spawn costs, and rounds are
//! DRAM-bound.

use crate::episode::{run_sim, LayerSamples};
use crate::measure::{peak_rss_bytes, Measure};
use crate::{Config, Outcome};
use fet_sim::simulation::Simulation;
use fet_stats::rng::SeedTree;
use std::time::Instant;

pub fn run(cfg: &Config, out: &mut Outcome) {
    let n: u64 = if cfg.smoke { 10_000 } else { 10_000_000 };
    let tree = SeedTree::new(cfg.seed);
    let mut measure = Measure::default();
    let mut layers = LayerSamples::default();

    let start = Instant::now();
    let mut i = 0u64;
    // In a traced run every other episode is traced.
    while i < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        let tracer = &mut out.tracer;
        tracer.set_enabled(cfg.trace && i % 2 == 1);
        let seed = tree.child_indexed("episode", i).seed();
        let t0 = Instant::now();
        let episode = tracer.begin("episode");
        let span = tracer.begin("sim.build");
        let mut sim = Simulation::builder()
            .population(n)
            .seed(seed)
            .build()
            .expect("the default configuration builds");
        tracer.end(span);
        let t1 = Instant::now();
        let (report, xs) = run_sim(&mut sim, tracer);
        let t2 = Instant::now();
        tracer.end(episode);
        drop(sim);
        if i == 0 {
            measure.peak_rss_bytes = peak_rss_bytes();
        }

        let r = &report.report;
        out.checks.check(
            report.converged() && r.final_fraction_correct == 1.0,
            || {
                format!(
                    "mf seed {seed}: converged_at {:?}, final fraction correct {}",
                    r.converged_at, r.final_fraction_correct
                )
            },
        );
        let episode_s = (t2 - t0).as_secs_f64();
        measure.setup_s.push((t1 - t0).as_secs_f64());
        measure.add_episode(n, episode_s, (t2 - t1).as_secs_f64(), r.rounds_run);
        layers.push(tracer.enabled(), episode_s, &report, xs);
        i += 1;
    }
    measure.wall_s = start.elapsed().as_secs_f64();
    out.tracer.set_enabled(false);

    if cfg.trace {
        // A complete graph: an index draw is uniform over all n agents.
        layers.insert(
            &out.tracer,
            &mut out.metrics,
            n as u32,
            tree.child("replay"),
        );
    } else {
        out.metrics = measure.end_to_end(&out.checks);
    }
}
