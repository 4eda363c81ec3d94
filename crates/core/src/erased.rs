//! Object-safe protocol erasure: run any [`Protocol`] behind one type.
//!
//! [`Protocol`] has an associated `State` type, so `dyn Protocol` does not
//! exist — yet runtime protocol selection (the CLI's `--protocol` flag, the
//! registry in `fet-protocols`, the `Simulation` facade in `fet-sim`) needs
//! exactly that. This module provides the bridge:
//!
//! * [`DynProtocol`] — an object-safe mirror of [`Protocol`] whose per-agent
//!   state is a boxed [`DynState`]. Every `Protocol` implements it through a
//!   blanket impl (state downcast via `Any`).
//! * [`ErasedProtocol`] — a cheaply clonable handle (`Arc<dyn DynProtocol>`)
//!   that implements [`Protocol`] *again*, with `State = Box<dyn DynState>`,
//!   so all engines accept runtime-selected protocols unchanged.
//!
//! The erasure costs one virtual call per agent step plus a per-agent box.
//!
//! # `ErasedProtocol` vs [`DynPopulation`]: which erasure to use
//!
//! There are two ways to run a runtime-selected protocol, erased at
//! different granularities:
//!
//! | | [`ErasedProtocol`] (per-agent) | [`DynPopulation`] (population) |
//! |---|---|---|
//! | state layout | `n` separately boxed states | one contiguous `Vec<P::State>` |
//! | per-round cost | one virtual call per agent step (boxes are not contiguous, so the typed round kernel cannot run over them) | zero-copy: one virtual dispatch into the typed kernel |
//! | per-agent state access | yes — states are first-class `Box<dyn DynState>` values you can hold, swap, and move between containers | through the population only (indices, not owned values) |
//! | engine container | `TypedPopulation<ErasedProtocol>` — implements [`Protocol`] itself, so any typed container holds it | itself — `Box<dyn DynPopulation>` is an engine container directly |
//!
//! **Default to the population container**: every facade/registry run does
//! (`ErasedProtocol::population` is the bridge), and the population path
//! runs the typed kernel itself. Reach for `ErasedProtocol`'s
//! per-agent states only when code genuinely needs owned, individually
//! boxed states — e.g. adversarial surgery that moves single states across
//! engines, or generic code written against `Protocol` that cannot be made
//! population-aware. The boxed representation also remains reachable as
//! `TypedPopulation<ErasedProtocol>` (erasing twice), which is what keeps
//! old call sites working unchanged.
//!
//! [`DynPopulation`]: crate::population::DynPopulation
//! [`TypedPopulation<ErasedProtocol>`]: crate::population::TypedPopulation

use crate::bitplane::BitPopulation;
use crate::memory::MemoryFootprint;
use crate::observation::Observation;
use crate::opinion::Opinion;
use crate::population::{DynPopulation, TypedPopulation};
use crate::protocol::{Protocol, RoundContext, StatePlanes};
use rand::RngCore;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A type-erased per-agent protocol state.
///
/// Blanket-implemented for every `Clone + Debug + Send + 'static` type, so
/// any [`Protocol::State`] qualifies automatically.
pub trait DynState: fmt::Debug + Send {
    /// Clones the state behind the box.
    fn clone_box(&self) -> Box<dyn DynState>;
    /// Upcast for downcasting back to the concrete state type.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast for downcasting back to the concrete state type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Clone + fmt::Debug + Send + 'static> DynState for T {
    fn clone_box(&self) -> Box<dyn DynState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Clone for Box<dyn DynState> {
    fn clone(&self) -> Self {
        // Explicit deref: `self.clone_box()` would resolve against the
        // blanket `DynState for Box<dyn DynState>` impl and recurse.
        (**self).clone_box()
    }
}

/// Object-safe mirror of [`Protocol`] over boxed states.
///
/// Obtain one by coercion from any protocol value (`&p`, `Box::new(p)`,
/// `Arc::new(p)`); the blanket impl covers every [`Protocol`]. Use
/// [`ErasedProtocol`] to feed it back into engines.
pub trait DynProtocol: fmt::Debug + Send + Sync {
    /// See [`Protocol::name`].
    fn name_erased(&self) -> &str;
    /// See [`Protocol::samples_per_round`].
    fn samples_per_round_erased(&self) -> u32;
    /// See [`Protocol::init_state`].
    fn init_state_erased(&self, opinion: Opinion, rng: &mut dyn RngCore) -> Box<dyn DynState>;
    /// See [`Protocol::step`].
    fn step_erased(
        &self,
        state: &mut dyn DynState,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion;
    /// See [`Protocol::output`].
    fn output_erased(&self, state: &dyn DynState) -> Opinion;
    /// See [`Protocol::decision`].
    fn decision_erased(&self, state: &dyn DynState) -> Opinion;
    /// See [`Protocol::is_passive`].
    fn is_passive_erased(&self) -> bool;
    /// See [`Protocol::has_fused_kernel`].
    fn has_fused_kernel_erased(&self) -> bool;
    /// See [`Protocol::parallel_eligible`].
    fn parallel_eligible_erased(&self) -> bool;
    /// See [`Protocol::aggregate_ell`].
    fn aggregate_ell_erased(&self) -> Option<u32>;
    /// See [`Protocol::memory_footprint`].
    fn memory_footprint_erased(&self) -> MemoryFootprint;
    /// Creates an empty contiguous population container for this protocol
    /// — the zero-copy alternative to boxing each agent's state (see the
    /// [module docs](self) for the trade-off). The container owns a clone
    /// of the protocol configuration, so the handle and the population can
    /// live independently.
    fn fresh_population_erased(&self) -> Box<dyn DynPopulation>;
    /// See [`Protocol::state_planes`] — the *underlying* protocol's packed
    /// layout (the erased wrapper's own boxed states never pack).
    fn state_planes_erased(&self) -> StatePlanes;
    /// Creates an empty **bit-plane** population container
    /// ([`BitPopulation`]) for this
    /// protocol, or `None` when the protocol does not pack
    /// ([`Protocol::state_planes`] is [`StatePlanes::Unpacked`], or the
    /// protocol is not passive).
    fn fresh_bit_population_erased(&self) -> Option<Box<dyn DynPopulation>>;
}

fn downcast<'a, S: 'static>(state: &'a dyn DynState, name: &str) -> &'a S {
    state
        .as_any()
        .downcast_ref::<S>()
        .unwrap_or_else(|| panic!("state type mismatch: protocol `{name}` handed a foreign state"))
}

fn downcast_mut<'a, S: 'static>(state: &'a mut dyn DynState, name: &str) -> &'a mut S {
    match state.as_any_mut().downcast_mut::<S>() {
        Some(s) => s,
        None => panic!("state type mismatch: protocol `{name}` handed a foreign state"),
    }
}

impl<P> DynProtocol for P
where
    P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    fn name_erased(&self) -> &str {
        Protocol::name(self)
    }

    fn samples_per_round_erased(&self) -> u32 {
        Protocol::samples_per_round(self)
    }

    fn init_state_erased(&self, opinion: Opinion, rng: &mut dyn RngCore) -> Box<dyn DynState> {
        Box::new(self.init_state(opinion, rng))
    }

    fn step_erased(
        &self,
        state: &mut dyn DynState,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        self.step(
            downcast_mut::<P::State>(state, Protocol::name(self)),
            obs,
            ctx,
            rng,
        )
    }

    fn output_erased(&self, state: &dyn DynState) -> Opinion {
        self.output(downcast::<P::State>(state, Protocol::name(self)))
    }

    fn decision_erased(&self, state: &dyn DynState) -> Opinion {
        self.decision(downcast::<P::State>(state, Protocol::name(self)))
    }

    fn is_passive_erased(&self) -> bool {
        Protocol::is_passive(self)
    }

    fn has_fused_kernel_erased(&self) -> bool {
        Protocol::has_fused_kernel(self)
    }

    fn parallel_eligible_erased(&self) -> bool {
        Protocol::parallel_eligible(self)
    }

    fn aggregate_ell_erased(&self) -> Option<u32> {
        Protocol::aggregate_ell(self)
    }

    fn memory_footprint_erased(&self) -> MemoryFootprint {
        Protocol::memory_footprint(self)
    }

    fn fresh_population_erased(&self) -> Box<dyn DynPopulation> {
        Box::new(TypedPopulation::new(self.clone()))
    }

    fn state_planes_erased(&self) -> StatePlanes {
        Protocol::state_planes(self)
    }

    fn fresh_bit_population_erased(&self) -> Option<Box<dyn DynPopulation>> {
        if Protocol::state_planes(self) != StatePlanes::Unpacked && Protocol::is_passive(self) {
            Some(Box::new(BitPopulation::new(self.clone())))
        } else {
            None
        }
    }
}

/// A runtime-selected protocol usable wherever a typed [`Protocol`] is:
/// `ErasedProtocol` implements [`Protocol`] with `State = Box<dyn
/// DynState>`, forwarding every call through the erased vtable.
///
/// # Example
///
/// ```
/// use fet_core::erased::ErasedProtocol;
/// use fet_core::fet::FetProtocol;
/// use fet_core::protocol::Protocol;
///
/// let erased = ErasedProtocol::new(FetProtocol::new(16)?);
/// assert_eq!(erased.name(), "fet");
/// assert_eq!(erased.samples_per_round(), 32);
/// assert_eq!(erased.aggregate_ell(), Some(16));
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct ErasedProtocol {
    inner: Arc<dyn DynProtocol>,
}

impl fmt::Debug for ErasedProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ErasedProtocol").field(&self.inner).finish()
    }
}

impl ErasedProtocol {
    /// Erases a typed protocol.
    pub fn new<P>(protocol: P) -> Self
    where
        P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
        P::State: 'static,
    {
        ErasedProtocol {
            inner: Arc::new(protocol),
        }
    }

    /// Wraps an already-erased protocol handle.
    pub fn from_arc(inner: Arc<dyn DynProtocol>) -> Self {
        ErasedProtocol { inner }
    }

    /// The underlying erased protocol.
    pub fn as_dyn(&self) -> &dyn DynProtocol {
        self.inner.as_ref()
    }

    /// Creates an empty contiguous population container for the underlying
    /// *typed* protocol — the zero-copy execution path for runtime-selected
    /// protocols (see the [module docs](self) for the trade-off against
    /// per-agent boxed states).
    ///
    /// The call routes through the erased handle's inner protocol, so the
    /// resulting container holds a `Vec` of the original concrete states —
    /// not boxes — even though `self` is erased.
    pub fn population(&self) -> Box<dyn DynPopulation> {
        self.inner.fresh_population_erased()
    }

    /// The underlying *typed* protocol's packed plane layout. Distinct
    /// from [`Protocol::state_planes`] on `self` (which reports
    /// [`StatePlanes::Unpacked`] — boxed `dyn` states never pack): this
    /// is the layout a bit-plane container would use.
    pub fn packed_planes(&self) -> StatePlanes {
        self.inner.state_planes_erased()
    }

    /// Creates an empty bit-plane population container
    /// ([`BitPopulation`]) for the
    /// underlying typed protocol — 1 bit/agent opinion storage — or
    /// `None` when the protocol does not pack. Engines selecting storage
    /// at runtime call this first and fall back to
    /// [`ErasedProtocol::population`].
    pub fn bit_population(&self) -> Option<Box<dyn DynPopulation>> {
        self.inner.fresh_bit_population_erased()
    }
}

impl Protocol for ErasedProtocol {
    type State = Box<dyn DynState>;

    fn name(&self) -> &str {
        self.inner.name_erased()
    }

    fn samples_per_round(&self) -> u32 {
        self.inner.samples_per_round_erased()
    }

    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> Box<dyn DynState> {
        self.inner.init_state_erased(opinion, rng)
    }

    fn step(
        &self,
        state: &mut Box<dyn DynState>,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        self.inner.step_erased(state.as_mut(), obs, ctx, rng)
    }

    fn output(&self, state: &Box<dyn DynState>) -> Opinion {
        self.inner.output_erased(state.as_ref())
    }

    fn decision(&self, state: &Box<dyn DynState>) -> Opinion {
        self.inner.decision_erased(state.as_ref())
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive_erased()
    }

    // `step_fused` is intentionally *not* overridden: the trait default
    // loops over `step`, which forwards through the erased vtable into the
    // typed update (cached split tables included), so the boxed fallback
    // walks the same fused stream as every typed representation with O(1)
    // auxiliary memory — at its usual per-agent-dispatch price.

    fn has_fused_kernel(&self) -> bool {
        self.inner.has_fused_kernel_erased()
    }

    fn parallel_eligible(&self) -> bool {
        self.inner.parallel_eligible_erased()
    }

    fn aggregate_ell(&self) -> Option<u32> {
        self.inner.aggregate_ell_erased()
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        self.inner.memory_footprint_erased()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fet::FetProtocol;
    use crate::simple_trend::SimpleTrendProtocol;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(0xE7A5)
    }

    #[test]
    fn erased_fet_steps_like_typed_fet() {
        let typed = FetProtocol::new(8).unwrap();
        let erased = ErasedProtocol::new(typed.clone());
        let mut rng_typed = rng();
        let mut rng_erased = rng();
        let mut st = typed.init_state(Opinion::Zero, &mut rng_typed);
        let mut se = erased.init_state(Opinion::Zero, &mut rng_erased);
        let ctx = RoundContext::new(0);
        for ones in [0u32, 4, 9, 16, 13, 2] {
            let obs = Observation::new(ones, 16).unwrap();
            let a = typed.step(&mut st, &obs, &ctx, &mut rng_typed);
            let b = erased.step(&mut se, &obs, &ctx, &mut rng_erased);
            assert_eq!(a, b);
            assert_eq!(erased.output(&se), typed.output(&st));
        }
        assert_eq!(erased.name(), "fet");
        assert!(erased.is_passive());
        assert_eq!(erased.memory_footprint(), typed.memory_footprint());
    }

    #[test]
    #[should_panic(expected = "state type mismatch")]
    fn foreign_state_is_rejected() {
        let fet = ErasedProtocol::new(FetProtocol::new(4).unwrap());
        let other = ErasedProtocol::new(SimpleTrendProtocol::new(4).unwrap());
        let mut r = rng();
        let mut foreign = other.init_state(Opinion::Zero, &mut r);
        let obs = Observation::new(2, 8).unwrap();
        let _ = fet.step(&mut foreign, &obs, &RoundContext::new(0), &mut r);
    }

    #[test]
    fn clones_share_the_protocol() {
        let erased = ErasedProtocol::new(FetProtocol::new(4).unwrap());
        let clone = erased.clone();
        assert_eq!(erased.name(), clone.name());
        assert_eq!(erased.samples_per_round(), clone.samples_per_round());
    }
}
