//! Samples a workload collects, and the metrics computed from them.

use fet_stats::summary::Summary;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("agent_rounds_per_s", "1/s"),
    ("episodes_per_s", "1/s"),
    ("episode_s_p50", "s"),
    ("rounds_p50", "count"),
    ("peak_rss_mb", "MB"),
    ("checks_ok_frac", "fraction"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 16] = [
    ("topology.build_s", "s"),
    ("sim.build_s", "s"),
    ("sim.first_round_s", "s"),
    ("sim.round_s_p50", "s"),
    ("sim.round_s_p90", "s"),
    ("core.resident_bytes_per_agent", "B"),
    ("stats.binomial_draw_ns", "ns"),
    ("stats.binomial_block_ns_per_draw", "ns"),
    ("stats.lemire8_ns", "ns"),
    ("stats.lemire_reject_frac", "fraction"),
    ("sweep.parse_s", "s"),
    ("sweep.build_sim_s_p50", "s"),
    ("sweep.episode_s_p50", "s"),
    ("sweep.episode_s_p99", "s"),
    ("sweep.dispatch_overhead_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Metric name → value; units come from the tables above.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Output checks: how many ran and how many failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What an untraced run measures; see `end_to_end` for the formulas.
#[derive(Debug, Default)]
pub struct Measure {
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// One entry per episode, build included.
    episode_s: Vec<f64>,
    /// Rounds executed, one entry per episode.
    rounds: Vec<f64>,
    /// Σ n × rounds executed, and Σ seconds spent running them.
    agent_rounds: f64,
    round_time_s: f64,
    /// Episodes completed, and the wall seconds of the episode loop.
    episodes: u64,
    pub wall_s: f64,
    /// `VmHWM` after the first episode: the peak of a process that ran
    /// one, as a `fet run` user sees it. The end-of-run peak is not used
    /// because the allocator keeps freed episode buffers, so it grows with
    /// the episode count, and so with speed.
    pub peak_rss_bytes: u64,
}

impl Measure {
    pub fn add_episode(&mut self, n: u64, episode_s: f64, run_s: f64, rounds: u64) {
        self.episode_s.push(episode_s);
        self.rounds.push(rounds as f64);
        self.agent_rounds += (n * rounds) as f64;
        self.round_time_s += run_s;
        self.episodes += 1;
    }

    pub fn end_to_end(&self, checks: &Checks) -> Metrics {
        let mut m = Metrics::new();
        m.insert("setup_s", median(&self.setup_s));
        m.insert("agent_rounds_per_s", self.agent_rounds / self.round_time_s);
        m.insert("episodes_per_s", self.episodes as f64 / self.wall_s);
        m.insert("episode_s_p50", median(&self.episode_s));
        m.insert("rounds_p50", median(&self.rounds));
        m.insert("peak_rss_mb", self.peak_rss_bytes as f64 / 1e6);
        m.insert(
            "checks_ok_frac",
            (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
        );
        m
    }
}

/// Linear-interpolation quantile; 0 for an empty sample (a layer the
/// workload never entered).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    Summary::from_slice(values).map_or(0.0, |s| s.quantile(q))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `VmHWM` of this process: its peak resident set.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}
