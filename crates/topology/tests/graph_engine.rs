//! The synchronous engine on explicit graphs: `Engine::with_neighborhood`
//! over an `Arc`-shared adjacency ([`SharedGraph`]).

use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_core::population::TypedPopulation;
use fet_sim::convergence::ConvergenceCriterion;
use fet_sim::engine::Engine;
use fet_sim::init::InitialCondition;
use fet_sim::observer::{NullObserver, TrajectoryRecorder};
use fet_sim::SimError;
use fet_stats::rng::SeedTree;
use fet_topology::builders;
use fet_topology::graph::{Graph, SharedGraph};

/// A typed FET engine on `graph` with one source of opinion `correct`.
fn engine(
    protocol: FetProtocol,
    graph: Graph,
    num_sources: u32,
    correct: Opinion,
    init: InitialCondition,
    seed: u64,
) -> Result<Engine<TypedPopulation<FetProtocol>>, SimError> {
    Engine::with_neighborhood(
        Box::new(TypedPopulation::new(protocol)),
        Box::new(SharedGraph::from(graph)),
        num_sources,
        correct,
        init,
        seed,
    )
}

#[test]
fn rejects_isolated_vertex() {
    let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
    let p = FetProtocol::new(4).unwrap();
    let err = engine(p, g, 1, Opinion::One, InitialCondition::AllWrong, 1).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::InvalidParameter {
                name: "topology",
                ..
            }
        ),
        "{err}"
    );
    assert!(err.to_string().contains("vertex 2"), "{err}");
}

#[test]
fn rejects_bad_source_count() {
    let g = builders::complete(5).unwrap();
    let p = FetProtocol::new(4).unwrap();
    for bad in [0u32, 5, 6] {
        let err = engine(
            p.clone(),
            g.clone(),
            bad,
            Opinion::One,
            InitialCondition::AllWrong,
            1,
        );
        assert!(
            matches!(
                err,
                Err(SimError::InvalidParameter {
                    name: "num_sources",
                    ..
                })
            ),
            "{bad}"
        );
    }
}

#[test]
fn complete_graph_converges_like_flat_engine() {
    let g = builders::complete(300).unwrap();
    let p = FetProtocol::for_population(300, 4.0).unwrap();
    let mut e = engine(p, g, 1, Opinion::One, InitialCondition::AllWrong, 11).unwrap();
    let report = e.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
    assert!(report.converged(), "{report:?}");
    assert_eq!(report.final_fraction_correct, 1.0);
}

#[test]
fn converged_state_is_absorbing_on_graphs() {
    let mut rng = SeedTree::new(5).rng();
    let g = builders::random_regular(200, 24, &mut rng).unwrap();
    let p = FetProtocol::for_population(200, 4.0).unwrap();
    let mut e = engine(p, g, 1, Opinion::One, InitialCondition::AllWrong, 13).unwrap();
    let report = e.run(40_000, ConvergenceCriterion::new(3), &mut NullObserver);
    assert!(report.converged(), "{report:?}");
    for _ in 0..200 {
        e.step();
        assert!(
            e.all_correct(),
            "absorbing state violated at round {}",
            e.round()
        );
    }
}

#[test]
fn correct_zero_converges_to_zero() {
    let g = builders::complete(200).unwrap();
    let p = FetProtocol::for_population(200, 4.0).unwrap();
    let mut e = engine(p, g, 1, Opinion::Zero, InitialCondition::AllWrong, 17).unwrap();
    let report = e.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
    assert!(report.converged(), "{report:?}");
    assert_eq!(e.fraction_ones(), 0.0);
}

#[test]
fn star_with_hub_source_freezes_ties() {
    // Leaves observe only the (source) hub: every sample is unanimous,
    // so from round 1 on each leaf's two half-counts tie at ℓ and FET
    // keeps whatever opinion the first round left it with. The first
    // round itself *can* flip leaves whose arbitrary stale count is
    // below ℓ, so the fraction of correct leaves rises once and then
    // freezes — but all-correct consensus is never reached w.h.p.
    let n = 400u32;
    let g = builders::star(n).unwrap();
    let p = FetProtocol::for_population(u64::from(n), 4.0).unwrap();
    let mut e = engine(p, g, 1, Opinion::One, InitialCondition::AllWrong, 19).unwrap();
    let report = e.run(2_000, ConvergenceCriterion::new(5), &mut NullObserver);
    assert!(
        !report.converged(),
        "star hub-source should freeze, got {report:?}"
    );
    // The frozen fraction is strictly between 0 and 1 (some leaves
    // flipped in round 1, some tied and kept the wrong opinion).
    let frac = e.fraction_correct();
    assert!(frac > 0.0 && frac < 1.0, "frozen fraction = {frac}");
    // Frozen means frozen: further rounds change nothing.
    let before = e.fraction_correct();
    for _ in 0..100 {
        e.step();
    }
    assert_eq!(e.fraction_correct(), before);
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut rng = SeedTree::new(3).rng();
        let g = builders::erdos_renyi(150, 0.2, &mut rng).unwrap();
        let p = FetProtocol::new(8).unwrap();
        let mut e = engine(p, g, 1, Opinion::One, InitialCondition::Random, seed).unwrap();
        let mut rec = TrajectoryRecorder::new();
        e.run(300, ConvergenceCriterion::new(2), &mut rec);
        rec.into_fractions()
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}

#[test]
fn observer_sees_initial_round() {
    let g = builders::complete(50).unwrap();
    let p = FetProtocol::new(6).unwrap();
    let mut e = engine(p, g, 1, Opinion::One, InitialCondition::Random, 23).unwrap();
    let mut rec = TrajectoryRecorder::new();
    let report = e.run(50, ConvergenceCriterion::new(2), &mut rec);
    assert_eq!(rec.fractions().len() as u64, report.rounds_run + 1);
}
