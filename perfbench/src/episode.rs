//! What the two workloads share: running one simulation, with or without
//! round spans, and turning traced episodes into per-layer metrics.

use crate::measure::{median, quantile, Metrics};
use crate::replay;
use crate::trace::Tracer;
use fet_sim::observer::RoundSnapshot;
use fet_sim::simulation::{RunReport, Simulation};
use fet_stats::rng::SeedTree;
use std::time::Instant;

/// Runs `sim` to its end. With tracing on, each round between two observer
/// snapshots becomes a span (`sim.first_round`, then `sim.round`) under
/// `sim.run`, and the per-round `x_t` is returned for the sampler replays.
pub fn run_sim(sim: &mut Simulation, tracer: &mut Tracer) -> (RunReport, Vec<f64>) {
    let span = tracer.begin("sim.run");
    let mut marks: Vec<(Instant, f64)> = Vec::new();
    let report = if tracer.enabled() {
        sim.run_observed(&mut |s: RoundSnapshot| marks.push((Instant::now(), s.fraction_ones)))
    } else {
        sim.run()
    };
    for (k, w) in marks.windows(2).enumerate() {
        let name = if k == 0 {
            "sim.first_round"
        } else {
            "sim.round"
        };
        tracer.record(name, w[0].0, w[1].0);
    }
    tracer.end(span);
    (report, marks.into_iter().map(|m| m.1).collect())
}

/// What a traced run keeps per episode for its per-layer metrics.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// Episode seconds: untraced ones are the base of the tracing overhead.
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// `x_t` of every traced round, and the samples per agent per round.
    xs: Vec<f64>,
    m: u32,
    resident: Vec<f64>,
}

impl LayerSamples {
    pub fn push(&mut self, traced: bool, episode_s: f64, report: &RunReport, xs: Vec<f64>) {
        if !traced {
            self.plain_s.push(episode_s);
            return;
        }
        self.traced_s.push(episode_s);
        self.xs.extend(xs);
        self.m = report.samples_per_round;
        self.resident
            .push(report.resident_bytes as f64 / report.n as f64);
    }

    /// Inserts the per-layer metrics of the simulation, its state storage,
    /// the sampler replays (binomial at this workload's `(m, x_t)`, Lemire
    /// at neighbour-index range `d`) and the tracing overhead.
    pub fn insert(&self, tracer: &Tracer, layers: &mut Metrics, d: u32, seed: SeedTree) {
        layers.insert("sim.build_s", median(&tracer.durations("sim.build")));
        layers.insert(
            "sim.first_round_s",
            median(&tracer.durations("sim.first_round")),
        );
        let rounds = tracer.durations("sim.round");
        layers.insert("sim.round_s_p50", quantile(&rounds, 0.5));
        layers.insert("sim.round_s_p90", quantile(&rounds, 0.9));
        layers.insert("core.resident_bytes_per_agent", median(&self.resident));
        let (draw_ns, block_ns) = replay::binomial(self.m, &self.xs, seed);
        layers.insert("stats.binomial_draw_ns", draw_ns);
        layers.insert("stats.binomial_block_ns_per_draw", block_ns);
        let (lemire_ns, reject) = replay::lemire8(d, seed);
        layers.insert("stats.lemire8_ns", lemire_ns);
        layers.insert("stats.lemire_reject_frac", reject);
        layers.insert(
            "trace.overhead_frac",
            median(&self.traced_s) / median(&self.plain_s) - 1.0,
        );
    }
}
