//! `graph-fet-1e5`: FET (default ℓ = 47) on a random 32-regular graph of
//! 10⁵ agents built from the workload seed with
//! `builders::random_regular`. FET does not converge on this graph, so
//! every episode runs a fixed round budget. `Auto` picks the
//! single-threaded fused graph round on typed storage: rounds are bound by
//! the Lemire neighbour-index sampler and the adjacency gather, and bypass
//! the binomial sampler and bit planes. Set-up is dominated by building
//! the graph. The graph is built without `GraphStats::of`, whose all-pairs
//! diameter would cost far more than the rounds.

use crate::episode::{run_sim, LayerSamples};
use crate::measure::{median, peak_rss_bytes, Measure};
use crate::{Config, Outcome};
use fet_sim::simulation::Simulation;
use fet_stats::isa::{self, IsaPath};
use fet_stats::rng::SeedTree;
use fet_topology::builders;
use fet_topology::graph::SharedGraph;
use std::time::Instant;

const DEGREE: u32 = 32;

pub fn run(cfg: &Config, out: &mut Outcome) {
    let (n, rounds, setups): (u32, u64, usize) = if cfg.smoke {
        (10_000, 5, 1)
    } else {
        (100_000, 40, 5)
    };
    let tree = SeedTree::new(cfg.seed);
    let sim_seed = tree.child("sim").seed();
    let build = |graph: &SharedGraph| {
        Simulation::builder()
            .population(u64::from(n))
            .seed(sim_seed)
            .topology(graph.clone())
            .max_rounds(rounds)
            .record_trajectory(true)
            .build()
            .expect("FET on a regular graph builds")
    };
    let mut measure = Measure::default();

    // Set-up, repeated for a steady median: the same graph each time.
    let mut graph = None;
    for _ in 0..setups {
        let tracer = &mut out.tracer;
        tracer.set_enabled(cfg.trace);
        let t0 = Instant::now();
        let span = tracer.begin("topology.random_regular");
        let g = builders::random_regular(n, DEGREE, &mut tree.child("graph").rng())
            .expect("a 32-regular graph on this many vertices exists");
        tracer.end(span);
        let g = SharedGraph::from(g);
        let span = tracer.begin("sim.build");
        let sim = build(&g);
        tracer.end(span);
        measure.setup_s.push(t0.elapsed().as_secs_f64());
        drop(sim);
        graph = Some(g);
    }
    out.tracer.set_enabled(false);
    let graph = graph.expect("at least one set-up");

    // The reference trajectory comes from the scalar kernels, so every
    // timed episode also checks the stream-identity contract across ISA
    // paths from outside.
    isa::force_path(Some(IsaPath::Scalar));
    let reference = run_sim(&mut build(&graph), &mut out.tracer).0;
    isa::force_path(None);
    let reference = digest(reference.trajectory.as_deref().unwrap_or_default());

    let mut layers = LayerSamples::default();
    let start = Instant::now();
    let mut i = 0u64;
    // In a traced run every other episode is traced.
    while i < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        let tracer = &mut out.tracer;
        tracer.set_enabled(cfg.trace && i % 2 == 1);
        let t0 = Instant::now();
        let episode = tracer.begin("episode");
        let span = tracer.begin("sim.build");
        let mut sim = build(&graph);
        tracer.end(span);
        let t1 = Instant::now();
        let (report, xs) = run_sim(&mut sim, tracer);
        let t2 = Instant::now();
        tracer.end(episode);
        drop(sim);
        if i == 0 {
            measure.peak_rss_bytes = peak_rss_bytes();
        }

        let got = digest(report.trajectory.as_deref().unwrap_or_default());
        out.checks.check(got == reference, || {
            format!("graph episode {i}: trajectory digest {got:016x}, scalar reference {reference:016x}")
        });
        let episode_s = (t2 - t0).as_secs_f64();
        let rounds = report.report.rounds_run;
        measure.add_episode(u64::from(n), episode_s, (t2 - t1).as_secs_f64(), rounds);
        layers.push(tracer.enabled(), episode_s, &report, xs);
        i += 1;
    }
    measure.wall_s = start.elapsed().as_secs_f64();
    out.tracer.set_enabled(false);

    if cfg.trace {
        let topology = median(&out.tracer.durations("topology.random_regular"));
        out.metrics.insert("topology.build_s", topology);
        layers.insert(&out.tracer, &mut out.metrics, DEGREE, tree.child("replay"));
    } else {
        out.metrics = measure.end_to_end(&out.checks);
    }
}

/// FNV-1a over the bit patterns of an `x_t` trajectory.
fn digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}
