//! Micro-benchmark: one protocol step, per protocol.
//!
//! Measures the per-agent per-round cost of the decision rule itself
//! (observation already in hand) — FET's hypergeometric split dominates
//! its step; the baselines are branch-only.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fet_core::fet::{FetProtocol, FetState};
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{Protocol, RoundContext};
use fet_core::simple_trend::{SimpleTrendProtocol, SimpleTrendState};
use fet_protocols::majority::MajorityProtocol;
use fet_protocols::voter::VoterProtocol;
use fet_stats::rng::SeedTree;

fn bench_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_step");
    let ctx = RoundContext::new(0);

    let ell = 32u32;
    let fet = FetProtocol::new(ell).unwrap();
    let obs_fet = Observation::new(40, 2 * ell).unwrap();
    group.bench_function("fet_ell32", |b| {
        let mut rng = SeedTree::new(1).child("fet").rng();
        b.iter_batched(
            || FetState {
                opinion: Opinion::Zero,
                prev_count_second_half: 16,
            },
            |mut s| fet.step(&mut s, &obs_fet, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    let st = SimpleTrendProtocol::new(ell).unwrap();
    let obs_st = Observation::new(20, ell).unwrap();
    group.bench_function("simple_trend_ell32", |b| {
        let mut rng = SeedTree::new(2).child("st").rng();
        b.iter_batched(
            || SimpleTrendState {
                opinion: Opinion::Zero,
                prev_count: 16,
            },
            |mut s| st.step(&mut s, &obs_st, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    let voter = VoterProtocol::new();
    let obs_v = Observation::new(1, 1).unwrap();
    group.bench_function("voter", |b| {
        let mut rng = SeedTree::new(3).child("voter").rng();
        b.iter_batched(
            || Opinion::Zero,
            |mut s| voter.step(&mut s, &obs_v, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    let maj = MajorityProtocol::new(ell).unwrap();
    let obs_m = Observation::new(20, ell).unwrap();
    group.bench_function("majority_ell32", |b| {
        let mut rng = SeedTree::new(4).child("maj").rng();
        b.iter_batched(
            || Opinion::Zero,
            |mut s| maj.step(&mut s, &obs_m, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_steps);
criterion_main!(benches);
