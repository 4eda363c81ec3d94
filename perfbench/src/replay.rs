//! Replays of the public `fet_stats` samplers at a workload's own
//! parameters. They time the sampler alone, outside any round, so a
//! sampler change shows here even where the workload's rounds do not use
//! that sampler (the "predict no change" side of the claim).

use fet_stats::binomial::BinomialSampler;
use fet_stats::isa;
use fet_stats::rng::SeedTree;
use rand::RngCore;
use std::hint::black_box;
use std::time::Instant;

/// Draws per binomial replay, spread over the trajectory's `x_t` values.
const BINOMIAL_DRAWS: usize = 1 << 23;
/// `lemire8` calls per replay (8 lanes each).
const LEMIRE_CALLS: usize = 1 << 21;

/// ns per draw of `BinomialSampler::sample` and of the 64-draw threshold
/// word the bit-plane kernel builds (one block when the alias table is
/// block-eligible, the per-draw loop otherwise), over the round-by-round
/// `x_t` values of a trajectory. Both go through `&mut dyn RngCore`, as
/// the engine's observation sources do.
pub fn binomial(m: u32, xs: &[f64], seed: SeedTree) -> (f64, f64) {
    let xs: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|x| *x > 0.0 && *x < 1.0)
        .collect();
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let per_x = (BINOMIAL_DRAWS / xs.len()).max(64) / 64 * 64;
    let samplers: Vec<BinomialSampler> = xs
        .iter()
        .map(|&x| BinomialSampler::new(u64::from(m), x).expect("x_t is a probability"))
        .collect();
    let mut small = seed.child("binomial").rng();
    let rng: &mut dyn RngCore = &mut small;

    let start = Instant::now();
    let mut acc = 0u64;
    for s in &samplers {
        for _ in 0..per_x {
            acc = acc.wrapping_add(s.sample(rng));
        }
    }
    black_box(acc);
    let draws = (per_x * samplers.len()) as f64;
    let draw_ns = start.elapsed().as_secs_f64() * 1e9 / draws;

    let threshold = m / 2;
    let mut buf = [0usize; 64];
    let start = Instant::now();
    let mut acc = 0u64;
    for s in &samplers {
        for _ in 0..per_x / 64 {
            if !s.try_sample_block(rng, &mut buf) {
                for slot in buf.iter_mut() {
                    *slot = s.sample(rng) as usize;
                }
            }
            let mut word = 0u64;
            for (j, &seen) in buf.iter().enumerate() {
                word |= u64::from(seen as u32 >= threshold) << j;
            }
            acc ^= word;
        }
    }
    black_box(acc);
    let block_ns = start.elapsed().as_secs_f64() * 1e9 / draws;
    (draw_ns, block_ns)
}

/// ns per `isa::lemire8` call (8 lanes) on the active ISA path at degree
/// `d`, and the fraction of lanes rejected. The timed calls cycle through
/// a cache-resident block of RNG words drawn beforehand, so only the
/// kernel is timed; the rejection count takes fresh words, since
/// rejections at large `d` are too rare to show in a repeated block.
pub fn lemire8(d: u32, seed: SeedTree) -> (f64, f64) {
    const CHUNKS: usize = 1 << 14;
    let mut rng = seed.child("lemire").rng();
    let mut draw = || -> [u64; 4] { std::array::from_fn(|_| rng.next_u64()) };
    let words: Vec<[u64; 4]> = (0..CHUNKS).map(|_| draw()).collect();
    let threshold = ((1u64 << 32) % u64::from(d)) as u32;
    let path = isa::active_path();
    let mut out = [0u32; 8];
    let passes = LEMIRE_CALLS.div_ceil(CHUNKS);
    let start = Instant::now();
    for _ in 0..passes {
        for w in &words {
            black_box(isa::lemire8(path, black_box(w), d, threshold, &mut out));
            black_box(&out);
        }
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / (passes * CHUNKS) as f64;
    let rejected: u32 = (0..LEMIRE_CALLS)
        .map(|_| isa::lemire8(path, &draw(), d, threshold, &mut out).count_ones())
        .sum();
    (ns, f64::from(rejected) / (8 * LEMIRE_CALLS) as f64)
}
