//! The neighbor-sampling round engine.
//!
//! A thin, typed wrapper over `fet_sim::engine::Engine::with_neighborhood`:
//! an agent at vertex `v` samples (with replacement) from `neighbors(v)`
//! instead of the whole population. The round mechanics live in `fet-sim`
//! and are selected by `fet_sim::engine::ExecutionMode` exactly as on the
//! complete graph: a graph round executes as a **fused single pass** —
//! each agent's observation is drawn on demand from its neighbors'
//! round-start opinions (a persistent double buffer — ~1 byte/agent on
//! the typed representation this engine uses, 1 bit/agent when the
//! `Simulation` facade resolves bit-plane storage), the update applied,
//! the output written in place. Work-sharded parallel graph rounds
//! (`ExecutionMode::FusedParallel`) split the vertex range into
//! contiguous shards over the `Arc`-shared adjacency. This type only adds
//! the graph-typed construction, accessors, and `TopologyError`
//! reporting. On the complete graph this engine and the flat engine
//! coincide up to the excluded self-sample — agents here never observe
//! themselves, exactly as in the paper where a sample of "other agents"
//! is drawn (§1.2).
//!
//! Sources occupy vertices `[0, num_sources)`; use
//! [`crate::graph::Graph::with_swapped`] to place the source on a
//! structurally interesting vertex first. New code should prefer
//! `fet_sim::simulation::Simulation::builder().topology(graph)`, which
//! reaches the same engine.

use crate::error::TopologyError;
use crate::graph::Graph;
use fet_core::opinion::Opinion;
use fet_core::protocol::Protocol;
use fet_sim::convergence::{ConvergenceCriterion, ConvergenceReport};
use fet_sim::engine::{Engine, ExecutionMode};
use fet_sim::init::InitialCondition;
use fet_sim::observer::RoundObserver;
use std::sync::Arc;

/// A population of agents running one protocol on an explicit graph.
///
/// # Example
///
/// ```
/// use fet_core::fet::FetProtocol;
/// use fet_core::opinion::Opinion;
/// use fet_sim::convergence::ConvergenceCriterion;
/// use fet_sim::init::InitialCondition;
/// use fet_sim::observer::NullObserver;
/// use fet_topology::builders;
/// use fet_topology::engine::TopologyEngine;
///
/// // FET still self-stabilizes when each agent only sees a random
/// // 16-regular neighborhood instead of the full population.
/// let mut rng = fet_stats::rng::SeedTree::new(1).rng();
/// let graph = builders::random_regular(300, 16, &mut rng)?;
/// let proto = FetProtocol::for_population(300, 4.0)?;
/// let mut engine = TopologyEngine::new(
///     proto, graph, 1, Opinion::One, InitialCondition::AllWrong, 7,
/// )?;
/// let report = engine.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
/// assert!(report.converged());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyEngine<P: Protocol + std::fmt::Debug + Send + Sync> {
    /// The adjacency structure, shared with the inner engine's boxed
    /// `Neighborhood` (and with every engine clone) behind an `Arc`: the
    /// CSR arrays exist once, however many handles read them.
    graph: Arc<Graph>,
    inner: Engine<P>,
}

impl<P: Protocol + std::fmt::Debug + Send + Sync> TopologyEngine<P> {
    /// Creates an engine on `graph` with sources at vertices
    /// `[0, num_sources)`, non-source opinions drawn from `init`, and
    /// internal variables randomized by the protocol.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::IsolatedVertex`] when some vertex has no
    ///   neighbors to observe.
    /// * [`TopologyError::InvalidParameter`] when `num_sources` is zero or
    ///   not smaller than the number of vertices.
    pub fn new(
        protocol: P,
        graph: Graph,
        num_sources: u32,
        correct: Opinion,
        init: InitialCondition,
        seed: u64,
    ) -> Result<Self, TopologyError> {
        graph.ensure_no_isolated_vertex()?;
        let n = graph.n();
        if num_sources == 0 || num_sources >= n {
            return Err(TopologyError::InvalidParameter {
                name: "num_sources",
                detail: format!("need 1 ≤ num_sources < n = {n}, got {num_sources}"),
            });
        }
        let graph = Arc::new(graph);
        let inner = Engine::with_neighborhood(
            protocol,
            Box::new(crate::graph::SharedGraph::new(Arc::clone(&graph))),
            num_sources,
            correct,
            init,
            seed,
        )
        .map_err(|e| TopologyError::InvalidParameter {
            name: "engine",
            detail: e.to_string(),
        })?;
        Ok(TopologyEngine { graph, inner })
    }

    /// Selects which round implementation executes graph rounds (default
    /// [`ExecutionMode::Auto`], which resolves to the fused single pass
    /// while a round's `n·m` neighbour draws stay below
    /// [`fet_sim::engine::FUSED_PARALLEL_AUTO_MIN_DRAWS`], and to
    /// [`fet_sim::engine::FUSED_PARALLEL_AUTO_SHARDS`] shards from there —
    /// see [`Engine::set_execution_mode`] for the stream caveat).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Sim`] for
    /// [`ExecutionMode::FusedParallel`] with zero threads or a protocol
    /// that opts out of parallel sharding.
    pub fn set_execution_mode(&mut self, mode: ExecutionMode) -> Result<(), TopologyError> {
        Ok(self.inner.set_execution_mode(mode)?)
    }

    /// The configured execution mode.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.inner.execution_mode()
    }

    /// Bytes of auxiliary round buffers currently allocated (see
    /// [`Engine::round_scratch_bytes`]): graph rounds keep exactly the
    /// persistent ~1 byte/agent opinion double buffer.
    pub fn round_scratch_bytes(&self) -> usize {
        self.inner.round_scratch_bytes()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The protocol configuration.
    pub fn protocol(&self) -> &P {
        self.inner.protocol()
    }

    /// Current round index (0 before any [`TopologyEngine::step`]).
    pub fn round(&self) -> u64 {
        self.inner.round()
    }

    /// The correct opinion of the instance.
    pub fn correct(&self) -> Opinion {
        self.inner.correct()
    }

    /// The paper's `x_t`: fraction of all agents (sources included)
    /// currently outputting opinion 1.
    pub fn fraction_ones(&self) -> f64 {
        self.inner.fraction_ones()
    }

    /// Fraction of non-source agents whose decision equals the correct
    /// opinion.
    pub fn fraction_correct(&self) -> f64 {
        self.inner.fraction_correct()
    }

    /// `true` when every non-source agent decides correctly.
    pub fn all_correct(&self) -> bool {
        self.inner.all_correct()
    }

    /// Public outputs of all agents (vertex id order; `< num_sources` are
    /// sources).
    pub fn outputs(&self) -> &[Opinion] {
        self.inner.outputs()
    }

    /// Executes one synchronous round.
    pub fn step(&mut self) {
        self.inner.step()
    }

    /// Runs until convergence is confirmed or `max_rounds` have executed.
    ///
    /// The observer receives round 0 (the initial configuration) and every
    /// round thereafter.
    pub fn run<O: RoundObserver + ?Sized>(
        &mut self,
        max_rounds: u64,
        criterion: ConvergenceCriterion,
        observer: &mut O,
    ) -> ConvergenceReport {
        self.inner.run(max_rounds, criterion, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use fet_core::fet::FetProtocol;
    use fet_sim::observer::{NullObserver, TrajectoryRecorder};

    #[test]
    fn rejects_isolated_vertex() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let p = FetProtocol::new(4).unwrap();
        let err = TopologyEngine::new(p, g, 1, Opinion::One, InitialCondition::AllWrong, 1);
        assert!(matches!(
            err,
            Err(TopologyError::IsolatedVertex { vertex: 2 })
        ));
    }

    #[test]
    fn rejects_bad_source_count() {
        let g = builders::complete(5).unwrap();
        let p = FetProtocol::new(4).unwrap();
        for bad in [0u32, 5, 6] {
            let err = TopologyEngine::new(
                p.clone(),
                g.clone(),
                bad,
                Opinion::One,
                InitialCondition::AllWrong,
                1,
            );
            assert!(
                matches!(err, Err(TopologyError::InvalidParameter { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn complete_graph_converges_like_flat_engine() {
        let g = builders::complete(300).unwrap();
        let p = FetProtocol::for_population(300, 4.0).unwrap();
        let mut e =
            TopologyEngine::new(p, g, 1, Opinion::One, InitialCondition::AllWrong, 11).unwrap();
        let report = e.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
        assert!(report.converged(), "{report:?}");
        assert_eq!(report.final_fraction_correct, 1.0);
    }

    #[test]
    fn converged_state_is_absorbing_on_graphs() {
        let mut rng = fet_stats::rng::SeedTree::new(5).rng();
        let g = builders::random_regular(200, 24, &mut rng).unwrap();
        let p = FetProtocol::for_population(200, 4.0).unwrap();
        let mut e =
            TopologyEngine::new(p, g, 1, Opinion::One, InitialCondition::AllWrong, 13).unwrap();
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
        let mut e =
            TopologyEngine::new(p, g, 1, Opinion::Zero, InitialCondition::AllWrong, 17).unwrap();
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
        let mut e =
            TopologyEngine::new(p, g, 1, Opinion::One, InitialCondition::AllWrong, 19).unwrap();
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
            let mut rng = fet_stats::rng::SeedTree::new(3).rng();
            let g = builders::erdos_renyi(150, 0.2, &mut rng).unwrap();
            let p = FetProtocol::new(8).unwrap();
            let mut e =
                TopologyEngine::new(p, g, 1, Opinion::One, InitialCondition::Random, seed).unwrap();
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
        let mut e =
            TopologyEngine::new(p, g, 1, Opinion::One, InitialCondition::Random, 23).unwrap();
        let mut rec = TrajectoryRecorder::new();
        let report = e.run(50, ConvergenceCriterion::new(2), &mut rec);
        assert_eq!(rec.fractions().len() as u64, report.rounds_run + 1);
    }
}
