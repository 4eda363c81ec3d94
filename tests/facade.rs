//! The unified `Simulation` facade: builder validation and cross-fidelity
//! agreement, exercised from the outside like a downstream user would.

use fet::prelude::*;
use fet::stats::summary::WelfordAccumulator;

/// `Fidelity::Agent` and `Fidelity::Binomial` sample the *same*
/// with-replacement law (Observation 1's binomial identity), so matched
/// seeded replicate sets of convergence times must be statistically
/// indistinguishable: means within four combined standard errors.
#[test]
fn agent_and_binomial_convergence_times_agree_through_the_facade() {
    let n = 400u64;
    let reps = 24u64;
    let mut acc_agent = WelfordAccumulator::new();
    let mut acc_binomial = WelfordAccumulator::new();
    for rep in 0..reps {
        for (fidelity, acc) in [
            (Fidelity::Agent, &mut acc_agent),
            (Fidelity::Binomial, &mut acc_binomial),
        ] {
            let report = Simulation::builder()
                .population(n)
                .fidelity(fidelity)
                .seed(SeedTree::new(0xF1DE).child_indexed("rep", rep).seed())
                .max_rounds(50_000)
                .build()
                .expect("valid")
                .run();
            acc.push(report.converged_at().expect("must converge") as f64);
        }
    }
    let (ma, mb) = (acc_agent.mean(), acc_binomial.mean());
    let se = (acc_agent.standard_error().powi(2) + acc_binomial.standard_error().powi(2)).sqrt();
    assert!(
        (ma - mb).abs() <= 4.0 * se + 0.5,
        "agent mean {ma} vs binomial mean {mb} differ by more than 4 SE ({se})"
    );
}

#[test]
fn builder_misuse_is_rejected_with_specific_errors() {
    // Without-replacement sampling with m = 2ℓ > n.
    let err = Simulation::builder()
        .population(20)
        .ell(32)
        .fidelity(Fidelity::WithoutReplacement)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("without-replacement"), "{err}");

    // Aggregate fidelity for a protocol without the Observation 1 structure.
    let err = Simulation::builder()
        .population(500)
        .protocol_name("3-majority")
        .fidelity(Fidelity::Aggregate)
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("no exact aggregate chain"),
        "{err}"
    );

    // Missing population.
    let err = Simulation::builder().build().unwrap_err();
    assert!(err.to_string().contains("population"), "{err}");

    // Zero sources is an invalid instance.
    assert!(Simulation::builder()
        .population(100)
        .sources(0)
        .build()
        .is_err());

    // The per-agent engines refuse the aggregate marker directly too.
    let p = FetProtocol::new(8).unwrap();
    let spec = fet::core::config::ProblemSpec::single_source(100, Opinion::One).unwrap();
    let err = Engine::new(
        Box::new(TypedPopulation::new(p)),
        spec,
        Fidelity::Aggregate,
        fet::sim::init::InitialCondition::AllWrong,
        1,
    )
    .unwrap_err();
    assert!(err.to_string().contains("Simulation::builder"), "{err}");
}

/// Every registered protocol runs end-to-end through the facade — the
/// registry and the erased execution path stay in lockstep.
#[test]
fn every_registry_protocol_executes_through_the_facade() {
    let registry = ProtocolRegistry::with_builtins();
    let mut ran = 0;
    for name in registry.names() {
        let report = Simulation::builder()
            .population(150)
            .protocol_name(name)
            .seed(9)
            .max_rounds(50)
            .build()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run();
        assert_eq!(report.protocol, name);
        assert_eq!(report.n, 150);
        ran += 1;
    }
    assert!(
        ran >= 5,
        "registry shrank below the advertised surface: {ran}"
    );
}
