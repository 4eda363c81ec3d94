//! Work-sharding for the parallel fused round: deterministic split-RNG
//! streams over contiguous agent ranges.
//!
//! The fused round kernel ([`Protocol::step_fused`]) is a single
//! accumulate-as-you-go pass over the contiguous state buffer, which shards
//! naturally by agent range — *if* each shard gets an independent random
//! stream. Threading one sequential RNG through concurrently executing
//! shards would make the trajectory depend on scheduling; instead every
//! shard draws from its own generator, seeded by a **counter-based split**
//! of `(stream seed, round, shard index)` through the same SplitMix64
//! finalizer the workspace's `SeedTree` uses. No RNG state ever crosses a
//! shard boundary, so:
//!
//! * the trajectory is a pure function of `(seed, shard count)` — workers
//!   (OS threads), scheduling, and shard-to-worker assignment cannot
//!   perturb it;
//! * within one shard the kernel is an ordinary sequential pass, so
//!   processing a shard's range in any sub-chunking (one call, or several
//!   calls over consecutive sub-slices sharing the shard's RNG) replays the
//!   identical stream — the *chunking-invariance* half of the determinism
//!   contract;
//! * the per-shard streams are statistically independent of each other and
//!   of the engine's main stream (different SplitMix64 lanes), so the
//!   parallel path samples the same per-round distribution as the
//!   single-threaded fused path — equal in law, not bitwise.
//!
//! [`ShardPlan`] carries the partition (shard count, balanced contiguous
//! ranges) and the per-round stream base; [`ShardSourceFactory`] lets an
//! engine hand each shard a private observation source without any
//! observation buffer existing. [`run_shards`] executes one round's
//! shards on the plan's workers; every container's
//! [`Population::step_fused_parallel`](crate::population::Population::step_fused_parallel)
//! carves its buffers into per-shard jobs and hands them to it.
//!
//! [`Protocol::step_fused`]: crate::protocol::Protocol::step_fused

use crate::protocol::{FusedCounters, ObservationSource};
use fet_stats::rng::{counter_split, counter_stream_base};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::ops::Range;

/// Builds one shard's private observation source.
///
/// The parallel fused round gives every shard its own RNG *and* its own
/// observation source: mean-field observations are a pure function of the
/// round-start global 1-count and the RNG, so a source is just the round's
/// sampler configuration — cheap to instantiate per shard, and never
/// shared across threads (each [`ObservationSource`] is `&mut` inside its
/// shard). The factory itself is shared read-only across workers, hence
/// the `Sync` bound.
///
/// The factory is told which contiguous **agent range** the source will
/// stream for. Mean-field sources ignore it (every agent samples the same
/// global distribution), but *positional* sources — neighborhood sampling,
/// where agent `i`'s observation depends on who agent `i` can see — use
/// `range.start` to align their internal cursor with the shard's first
/// agent. The range is always the one [`ShardPlan::shard_range`] produced
/// for the shard, so a source's draws are a pure function of
/// `(configuration, shard count)` — never of worker scheduling.
pub trait ShardSourceFactory: Sync {
    /// Creates a fresh observation source for the shard covering `range`
    /// (agent indices within the stepped slice). Called once per shard per
    /// round, from the worker thread that runs the shard; the source will
    /// be asked for exactly `range.len()` observations, in agent order.
    fn shard_source(&self, range: Range<usize>) -> Box<dyn ObservationSource + '_>;
}

/// The partition and stream base for one parallel fused round.
///
/// A plan splits `n` agents into [`ShardPlan::shards`] contiguous,
/// **word-aligned** ranges (the `⌈n/64⌉` bit-plane words are balanced
/// across shards, earlier shards take the remainder; see
/// [`ShardPlan::shard_range`]) and assigns shard `s` the RNG
/// [`ShardPlan::rng_for_shard`]`(s)` —
/// seeded by the workspace's canonical counter split
/// ([`fet_stats::rng::counter_stream_base`] over `(stream, round)`, then
/// [`fet_stats::rng::counter_split`] per shard index), a pure derivation
/// with no sequential dependence between rounds or shards.
/// [`ShardPlan::workers`] caps the OS threads that execute the shards; it
/// is **not** part of the stream derivation, which is what makes
/// trajectories reproducible across machines with different core counts
/// for a fixed shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    workers: u32,
    round_state: u64,
}

impl ShardPlan {
    /// Creates the plan for one round.
    ///
    /// `stream` is the run-level parallel stream seed (derived once per
    /// engine, independent of the engine's main RNG), `round` the global
    /// round index. Zero `shards` or `workers` are clamped to 1.
    pub fn new(shards: u32, workers: u32, stream: u64, round: u64) -> Self {
        ShardPlan {
            shards: shards.max(1),
            workers: workers.max(1),
            round_state: counter_stream_base(stream, round),
        }
    }

    /// Number of RNG stream partitions. Determines the trajectory (together
    /// with the stream seed); see the [module docs](self).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Maximum OS threads used to execute the shards. Never affects the
    /// trajectory.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// The deterministic RNG for shard `s` this round.
    ///
    /// Pure in `(stream, round, s)`: any worker may call it, in any order,
    /// any number of times.
    pub fn rng_for_shard(&self, s: u32) -> SmallRng {
        SmallRng::seed_from_u64(counter_split(self.round_state, u64::from(s)))
    }

    /// The contiguous agent range of shard `s` in a population of `n`
    /// agents.
    ///
    /// Ranges are **word-aligned**: the `⌈n/64⌉` plane words are balanced
    /// across the shards (word counts differ by at most one, earlier
    /// shards take the remainder) and converted back to agent indices, so
    /// every non-empty range starts on a multiple of 64 and only the last
    /// non-empty range may end mid-word (at `n`, where empty trailing
    /// shards then sit). This is what lets bit-plane
    /// populations carve their packed planes with
    /// `split_at_mut` — no shard boundary ever splits a plane word, for
    /// **any** plane width at once: a 64-agent boundary is 1 opinion-plane
    /// word, exactly `bits`
    /// interleaved bit-sliced words (one 64-agent slice group), and 64
    /// aux-plane bytes. Byte-addressed containers accept any consecutive
    /// partition unchanged. Trailing shards are empty when there are
    /// fewer words than shards.
    ///
    /// Like the shard count itself, the exact partition is part of the
    /// trajectory's keyed determinism contract: a pure function of
    /// `(n, shards, s)`, never of workers or scheduling.
    pub fn shard_range(&self, n: usize, s: u32) -> Range<usize> {
        const WORD: usize = 64;
        let shards = self.shards as usize;
        let s = s as usize;
        debug_assert!(s < shards, "shard index {s} out of {shards}");
        let words = n.div_ceil(WORD);
        let base = words / shards;
        let rem = words % shards;
        let start_w = s * base + s.min(rem);
        let len_w = base + usize::from(s < rem);
        let start = (start_w * WORD).min(n);
        let end = ((start_w + len_w) * WORD).min(n);
        start..end
    }

    /// The non-empty shard ranges of an `n`-agent population, in shard
    /// order (empty trailing shards are skipped).
    pub fn ranges(&self, n: usize) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        (0..self.shards)
            .map(move |s| (s, self.shard_range(n, s)))
            .filter(|(_, range)| !range.is_empty())
    }
}

/// One shard's work item for [`run_shards`]: the shard index, its agent
/// range, and the container's disjoint slices for that range.
pub type ShardJob<J> = (u32, Range<usize>, J);

/// Runs one parallel round's shard jobs and reduces their counters.
///
/// Every job gets its shard's RNG ([`ShardPlan::rng_for_shard`]) and a
/// range-aligned source from `factory`, and `kernel` steps the job's
/// slices on them. Jobs are striped round-robin over
/// `min(plan.workers(), jobs)` worker groups, which balances the
/// remainder-carrying early shards; the first group runs on the calling
/// thread, so only `workers − 1` scoped threads are spawned. Per-shard
/// counters land in fixed slots and reduce in shard order, so neither the
/// worker count nor which worker finished first can reach the totals.
///
/// # Panics
///
/// Propagates a panic from any shard.
pub fn run_shards<J, K>(
    plan: &ShardPlan,
    factory: &dyn ShardSourceFactory,
    jobs: Vec<ShardJob<J>>,
    kernel: K,
) -> FusedCounters
where
    J: Send,
    K: Fn(J, &mut dyn ObservationSource, &mut SmallRng) -> FusedCounters + Sync,
{
    let run_group = |group: Vec<ShardJob<J>>| -> Vec<(u32, FusedCounters)> {
        group
            .into_iter()
            .map(|(s, range, job)| {
                let mut rng = plan.rng_for_shard(s);
                let mut source = factory.shard_source(range);
                (s, kernel(job, source.as_mut(), &mut rng))
            })
            .collect()
    };
    let workers = (plan.workers() as usize).clamp(1, jobs.len().max(1));
    let mut groups: Vec<Vec<ShardJob<J>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        groups[i % workers].push(job);
    }
    let mut groups = groups.into_iter();
    let local = groups.next().unwrap_or_default();
    let mut per_shard = vec![FusedCounters::default(); plan.shards() as usize];
    std::thread::scope(|scope| {
        let run_group = &run_group;
        let handles: Vec<_> = groups
            .map(|group| scope.spawn(move || run_group(group)))
            .collect();
        let mut done = run_group(local);
        for handle in handles {
            done.extend(handle.join().expect("shard worker panicked"));
        }
        for (s, counters) in done {
            per_shard[s as usize] = counters;
        }
    });
    let mut totals = FusedCounters::default();
    for counters in per_shard {
        totals += counters;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn ranges_partition_the_population_word_aligned() {
        for n in [0usize, 1, 2, 5, 63, 64, 65, 100, 101, 128, 1000, 4099] {
            for shards in [1u32, 2, 3, 7, 16] {
                let plan = ShardPlan::new(shards, 1, 42, 0);
                let words = n.div_ceil(64);
                let mut next = 0usize;
                for s in 0..shards {
                    let r = plan.shard_range(n, s);
                    assert_eq!(r.start, next, "n={n} shards={shards} s={s}");
                    next = r.end;
                    // Every non-empty range starts on a word boundary
                    // (empty trailing ranges sit at n, wherever that is)…
                    if !r.is_empty() {
                        assert_eq!(r.start % 64, 0, "n={n} shards={shards} s={s}");
                    }
                    // …and word counts are balanced: they differ by at
                    // most one across shards.
                    let r_words = r.end.div_ceil(64) - r.start / 64;
                    assert!(
                        r_words <= words / shards as usize + 1,
                        "n={n} shards={shards} s={s}: {r_words} words"
                    );
                }
                assert_eq!(next, n, "ranges must cover exactly [0, n)");
            }
        }
    }

    #[test]
    fn boundaries_align_for_every_plane_width() {
        // A shard boundary at a multiple of 64 agents falls on a whole
        // number of plane words for every packed layout the bit-plane
        // container uses: opinion words (64 agents), aux bytes, and
        // interleaved bit-sliced groups (64 agents spread over `bits`
        // consecutive words). The split arithmetic each
        // layout applies must therefore be exact at every non-final
        // boundary.
        for n in [64usize, 65, 129, 1000, 4099] {
            for shards in [2u32, 3, 7] {
                let plan = ShardPlan::new(shards, 1, 42, 0);
                for s in 0..shards {
                    let r = plan.shard_range(n, s);
                    if r.is_empty() || r.end == n {
                        continue; // the final range may end mid-word
                    }
                    assert!(r.start.is_multiple_of(64) && r.end.is_multiple_of(64));
                    // Bit-sliced plane: group = 64 agents = `bits` words,
                    // so the word split `len/64 · bits` is exact for all
                    // widths.
                    for bits in 1usize..=8 {
                        assert_eq!(
                            (r.len() / 64) * bits,
                            r.len() * bits / 64,
                            "n={n} shards={shards} s={s} bits={bits}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_small_populations_leave_trailing_shards_empty() {
        // Three agents all share word 0, so shard 0 takes the whole
        // population and the other shards come back empty — word
        // alignment refuses to split the agents' shared `u64`.
        let plan = ShardPlan::new(8, 8, 1, 0);
        for s in 0..8 {
            let r = plan.shard_range(3, s);
            assert_eq!(r.len(), if s == 0 { 3 } else { 0 });
        }
        // With two words and eight shards, the second word goes to
        // shard 1.
        for s in 0..8 {
            let r = plan.shard_range(100, s);
            let want = match s {
                0 => 0..64,
                1 => 64..100,
                _ => 100..100,
            };
            assert_eq!(r, want, "s={s}");
        }
    }

    #[test]
    fn shard_rngs_are_counter_based_and_distinct() {
        let plan = ShardPlan::new(4, 2, 7, 3);
        // Pure: same (stream, round, shard) ⇒ same stream, in any order.
        let a: Vec<u64> = (0..4).map(|s| plan.rng_for_shard(s).next_u64()).collect();
        let b: Vec<u64> = (0..4)
            .rev()
            .map(|s| plan.rng_for_shard(s).next_u64())
            .collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        // Distinct across shards, rounds, and streams.
        for s in 1..4 {
            assert_ne!(a[0], a[s as usize]);
        }
        assert_ne!(
            plan.rng_for_shard(0).next_u64(),
            ShardPlan::new(4, 2, 7, 4).rng_for_shard(0).next_u64()
        );
        assert_ne!(
            plan.rng_for_shard(0).next_u64(),
            ShardPlan::new(4, 2, 8, 3).rng_for_shard(0).next_u64()
        );
    }

    #[test]
    fn workers_do_not_enter_the_stream_derivation() {
        let one = ShardPlan::new(4, 1, 99, 5);
        let many = ShardPlan::new(4, 64, 99, 5);
        for s in 0..4 {
            assert_eq!(
                one.rng_for_shard(s).next_u64(),
                many.rng_for_shard(s).next_u64()
            );
        }
    }

    #[test]
    fn zero_inputs_are_clamped() {
        let plan = ShardPlan::new(0, 0, 0, 0);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.workers(), 1);
        assert_eq!(plan.shard_range(10, 0), 0..10);
    }

    #[test]
    fn stream_derivation_is_pinned() {
        // Fixed vectors (from the published SplitMix64 reference) guard
        // the counter-split recipe against drift: every parallel
        // trajectory in the workspace is keyed by these values.
        assert_eq!(counter_stream_base(0, 0), 0);
        assert_eq!(counter_stream_base(0, 1), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            counter_split(0, 0),
            fet_stats::rng::splitmix64_mix(0x5692_161D_100B_05E5)
        );
    }
}
