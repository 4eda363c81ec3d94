//! Bit-plane packed populations: 1 bit/agent opinion storage plus a
//! packed auxiliary plane.
//!
//! The paper's regime is huge anonymous populations with a few bits of
//! state per agent — at `n = 10⁸`–`10⁹` even one byte per opinion is the
//! memory-bandwidth bottleneck (see `docs/BENCHMARKS.md`). This module
//! packs the public opinion plane 64 agents per `u64` word
//! ([`BitPlane`]), with a protocol's remaining per-agent state — FET's
//! stored `count″ ∈ [0, ℓ]` — in a parallel auxiliary plane whose width
//! tracks the protocol's declared layout ([`StatePlanes`]):
//!
//! * [`StatePlanes::OpinionOnly`] — no aux plane at all (voter,
//!   3-majority);
//! * [`StatePlanes::OpinionPlusPacked`]`{ bits }` — exactly `bits` bits
//!   per agent in an interleaved [`BitSlicedPlane`]. For FET with
//!   `ℓ = 5` this is 3 bits/agent — ~375 MB at `n = 10⁹` instead of the
//!   byte plane's 1 GB;
//! * [`StatePlanes::OpinionPlusByte`] — one byte per agent, the 8-bit
//!   fast path (direct byte addressing, same memory as an 8-bit sliced
//!   plane).
//!
//! # Packability contract
//!
//! A protocol opts in by returning a non-`Unpacked`
//! [`StatePlanes`] descriptor and
//! implementing [`Protocol::pack_state`]/[`Protocol::unpack_state`] as
//! mutual inverses whose packed opinion bit **is** the state's
//! [`Protocol::output`]. Packing is restricted to *passive* protocols
//! (decision ≡ output), which is what lets the container answer both the
//! global 1-count and the correct-decision count by popcount. Protocols
//! declaring a packed aux width promise `aux < 2^bits` for every
//! reachable state — the planes store only the low `bits` bits.
//!
//! # Word-at-a-time kernels
//!
//! Every fused round steps the planes one 64-agent word-group at a
//! time; there is no per-agent bit gather or scatter. Two kernels exist:
//!
//! * **Tile kernel** (every protocol without a threshold rule, FET
//!   included). A group's opinion word and aux values are decoded into
//!   a stack tile of 64 [`Protocol::State`]s: the sliced plane's `bits`
//!   slice words go through an 8×8 byte transpose and one 8×8 bit
//!   transpose per 8 agents, all in registers; the byte plane is a plain
//!   copy. The protocol's own [`Protocol::step_fused`] then runs over
//!   the tile — for FET the very kernel typed storage runs — and the
//!   tile is re-encoded by the same transposes in reverse order. The
//!   tile lives on the stack and is built once per slice, so a round
//!   allocates nothing.
//! * **Threshold kernel** ([`StatePlanes::OpinionOnly`] protocols whose
//!   update is a pure threshold on the observation,
//!   [`Protocol::opinion_threshold`] is `Some`). The fused round asks
//!   the source for one *threshold word* per 64 agents
//!   ([`ObservationSource::next_threshold_word`]) and writes it straight
//!   into the opinion plane, counting by popcount. The mean-field source
//!   overrides the word draw to hoist its per-draw virtual dispatch,
//!   sampler match, and fault check out of the loop (`fet-bench`'s
//!   `word_kernel`).
//!
//! # Trajectory identity
//!
//! Both kernels draw observations and randomness agent by agent in
//! index order, exactly the order the kernel contract pins for every
//! other representation: the tile kernel hands each tile to
//! [`Protocol::step_fused`], whose overrides are stream-identical to the
//! per-agent [`Protocol::step`] loop, and the threshold kernel draws the
//! same observation stream 64 agents at a time (see the contract on
//! [`ObservationSource::next_threshold_word`]). A tile batches the
//! kernel call, never the draws. A bit-plane run is
//! therefore **bit-identical** to the typed, boxed, and
//! population-erased runs of the same `(seed, shard count)` — the
//! property `tests/erasure_equivalence.rs` extends to 4-way — and the
//! aux-plane layout (byte or bit-sliced, at any width) never enters the
//! stream.
//!
//! # Word-aligned sharding
//!
//! The parallel fused round carves the planes with `split_at_mut`, so
//! shard boundaries must not split a plane word.
//! [`ShardPlan::shard_range`](crate::shard::ShardPlan::shard_range)
//! guarantees range starts that are multiples of 64 agents for every
//! population size and shard count, which is word-aligned for **every**
//! plane width at once: 64 agents are 1 opinion word, 64 bytes, and
//! exactly `bits` interleaved sliced words.
//! [`BitPopulation::step_fused_parallel_inplace`] relies on it.

use crate::memory::MemoryFootprint;
use crate::observation::Observation;
use crate::opinion::Opinion;
use crate::population::{DynPopulation, Population};
use crate::protocol::{FusedCounters, ObservationSource, Protocol, RoundContext, StatePlanes};
use crate::shard::{run_shards, ShardPlan, ShardSourceFactory};
use rand::RngCore;
use std::fmt;

/// Bits per plane word.
pub const WORD_BITS: usize = 64;

/// A dense bit vector packed 64 bits per `u64` word — the opinion plane.
///
/// Invariant: bits at positions `len()..` in the trailing word are zero,
/// so [`BitPlane::count_ones`] is a straight popcount over the words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitPlane {
    words: Vec<u64>,
    len: usize,
}

impl BitPlane {
    /// An empty plane.
    pub fn new() -> Self {
        BitPlane::default()
    }

    /// An empty plane with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitPlane {
            words: Vec::with_capacity(bits.div_ceil(WORD_BITS)),
            len: 0,
        }
    }

    /// A plane of `bits` zero bits.
    pub fn zeroed(bits: usize) -> Self {
        BitPlane {
            words: vec![0; bits.div_ceil(WORD_BITS)],
            len: bits,
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-allocates room for `additional` more bits.
    pub fn reserve(&mut self, additional: usize) {
        let want = (self.len + additional).div_ceil(WORD_BITS);
        self.words.reserve(want.saturating_sub(self.words.len()));
    }

    /// Appends one bit.
    pub fn push(&mut self, opinion: Opinion) {
        let bit = self.len % WORD_BITS;
        if bit == 0 {
            self.words.push(0);
        }
        let word = self.words.last_mut().expect("word pushed above");
        *word |= u64::from(opinion.is_one()) << bit;
        self.len += 1;
    }

    /// The bit at `idx` as an [`Opinion`].
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> Opinion {
        assert!(idx < self.len, "bit index {idx} out of {}", self.len);
        Opinion::from(((self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1) == 1)
    }

    /// Sets the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    #[inline]
    pub fn set(&mut self, idx: usize, opinion: Opinion) {
        assert!(idx < self.len, "bit index {idx} out of {}", self.len);
        let mask = 1u64 << (idx % WORD_BITS);
        let word = &mut self.words[idx / WORD_BITS];
        *word = (*word & !mask) | (u64::from(opinion.is_one()) * mask);
    }

    /// Number of 1-bits — one popcount per word, no per-bit walk.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The packed words, read-only. The trailing word's bits past
    /// [`BitPlane::len`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words, mutable. Callers must preserve the
    /// trailing-bits-zero invariant.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Heap bytes the word storage holds (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// A dense vector of `bits`-bit values (`1 ≤ bits ≤ 8`) in an
/// **interleaved bit-sliced** layout — the exact-width packed aux plane
/// (FET's clock at `⌈log₂(ℓ+1)⌉` bits).
///
/// Agents are grouped 64 per word-group; group `g` occupies words
/// `g·bits .. (g+1)·bits`, and word `g·bits + j` holds **bit `j`** of
/// the values of agents `g·64 .. g·64+64` (agent `a`'s slice lives at
/// bit position `a mod 64` of each of its group's words). Interleaving
/// keeps a group's words adjacent in memory — sequential kernel walks
/// touch one cache line pair per group — and makes the plane carve at
/// any 64-agent boundary with a single `split_at_mut`, exactly like the
/// opinion plane.
///
/// Invariant: bit positions for agents `len()..` of the trailing group
/// are zero in every slice word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSlicedPlane {
    bits: u8,
    words: Vec<u64>,
    len: usize,
}

impl BitSlicedPlane {
    /// An empty plane of `bits`-bit values.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 8` (wider aux values do not fit
    /// [`Protocol::pack_state`]'s byte).
    pub fn new(bits: u8) -> Self {
        assert!(
            (1..=8).contains(&bits),
            "bit-sliced plane width {bits} out of 1..=8"
        );
        BitSlicedPlane {
            bits,
            words: Vec::new(),
            len: 0,
        }
    }

    /// A plane of `len` zero values at `bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 8`.
    pub fn zeroed(bits: u8, len: usize) -> Self {
        let mut plane = BitSlicedPlane::new(bits);
        plane.words = vec![0; len.div_ceil(WORD_BITS) * bits as usize];
        plane.len = len;
        plane
    }

    /// Bits per stored value.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-allocates room for `additional` more values.
    pub fn reserve(&mut self, additional: usize) {
        let want = (self.len + additional).div_ceil(WORD_BITS) * self.bits as usize;
        self.words.reserve(want.saturating_sub(self.words.len()));
    }

    /// Appends one value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `value ≥ 2^bits`; release builds
    /// store the low `bits` bits.
    pub fn push(&mut self, value: u8) {
        debug_assert!(
            u32::from(value) < (1u32 << self.bits),
            "value {value} out of {} bits",
            self.bits
        );
        if self.len.is_multiple_of(WORD_BITS) {
            self.words
                .extend(std::iter::repeat_n(0, self.bits as usize));
        }
        let idx = self.len;
        self.len += 1;
        self.set(idx, value);
    }

    /// The value at `idx`, gathered one bit per slice word.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> u8 {
        assert!(idx < self.len, "sliced index {idx} out of {}", self.len);
        let base = (idx / WORD_BITS) * self.bits as usize;
        let bit = idx % WORD_BITS;
        let mut value = 0u8;
        for j in 0..self.bits as usize {
            value |= (((self.words[base + j] >> bit) & 1) as u8) << j;
        }
        value
    }

    /// Sets the value at `idx`, one read-modify-write per slice word.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()` (and, in debug builds, when
    /// `value ≥ 2^bits`).
    #[inline]
    pub fn set(&mut self, idx: usize, value: u8) {
        assert!(idx < self.len, "sliced index {idx} out of {}", self.len);
        debug_assert!(
            u32::from(value) < (1u32 << self.bits),
            "value {value} out of {} bits",
            self.bits
        );
        let base = (idx / WORD_BITS) * self.bits as usize;
        let mask = 1u64 << (idx % WORD_BITS);
        for j in 0..self.bits as usize {
            let word = &mut self.words[base + j];
            *word = (*word & !mask) | (u64::from((value >> j) & 1) * mask);
        }
    }

    /// The interleaved slice words, read-only (see the type docs for the
    /// layout).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes the word storage holds (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// The auxiliary plane of a [`BitPopulation`]: whichever packed layout
/// the protocol's [`StatePlanes`] descriptor selects.
#[derive(Debug, Clone)]
pub enum AuxPlane {
    /// No auxiliary state ([`StatePlanes::OpinionOnly`]).
    None,
    /// One byte per agent ([`StatePlanes::OpinionPlusByte`]).
    Bytes(Vec<u8>),
    /// Exactly `bits` bits per agent
    /// ([`StatePlanes::OpinionPlusPacked`]).
    Sliced(BitSlicedPlane),
}

impl AuxPlane {
    /// The plane layout for a protocol's declared [`StatePlanes`].
    ///
    /// # Panics
    ///
    /// Panics for [`StatePlanes::Unpacked`] (no packed layout exists) and
    /// for packed widths outside `1..=8`.
    pub fn for_planes(planes: StatePlanes) -> AuxPlane {
        match planes {
            StatePlanes::Unpacked => panic!("Unpacked states have no aux plane"),
            StatePlanes::OpinionOnly => AuxPlane::None,
            StatePlanes::OpinionPlusByte => AuxPlane::Bytes(Vec::new()),
            StatePlanes::OpinionPlusPacked { bits } => AuxPlane::Sliced(BitSlicedPlane::new(bits)),
        }
    }

    /// The value at `idx` (0 when there is no aux plane).
    #[inline]
    pub fn get(&self, idx: usize) -> u8 {
        match self {
            AuxPlane::None => 0,
            AuxPlane::Bytes(b) => b[idx],
            AuxPlane::Sliced(p) => p.get(idx),
        }
    }

    /// Sets the value at `idx` (no-op when there is no aux plane).
    #[inline]
    pub fn set(&mut self, idx: usize, value: u8) {
        match self {
            AuxPlane::None => {}
            AuxPlane::Bytes(b) => b[idx] = value,
            AuxPlane::Sliced(p) => p.set(idx, value),
        }
    }

    /// Appends one value (no-op when there is no aux plane).
    pub fn push(&mut self, value: u8) {
        match self {
            AuxPlane::None => {}
            AuxPlane::Bytes(b) => b.push(value),
            AuxPlane::Sliced(p) => p.push(value),
        }
    }

    /// Pre-allocates room for `additional` more values.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            AuxPlane::None => {}
            AuxPlane::Bytes(b) => b.reserve(additional),
            AuxPlane::Sliced(p) => p.reserve(additional),
        }
    }

    /// Heap bytes the plane holds (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        match self {
            AuxPlane::None => 0,
            AuxPlane::Bytes(b) => b.capacity(),
            AuxPlane::Sliced(p) => p.resident_bytes(),
        }
    }

    /// A mutable whole-plane view for the round kernels.
    fn slice_mut(&mut self) -> AuxSliceMut<'_> {
        match self {
            AuxPlane::None => AuxSliceMut::None,
            AuxPlane::Bytes(b) => AuxSliceMut::Bytes(b),
            AuxPlane::Sliced(p) => AuxSliceMut::Sliced {
                bits: p.bits,
                words: &mut p.words,
            },
        }
    }
}

/// A mutable view of (part of) an aux plane, indexed relative to the
/// view's first agent — the per-shard unit the parallel round hands each
/// worker.
enum AuxSliceMut<'a> {
    /// No aux plane.
    None,
    /// Byte plane slice.
    Bytes(&'a mut [u8]),
    /// Interleaved bit-sliced plane words (64 agents per `bits` words).
    Sliced { bits: u8, words: &'a mut [u64] },
}

impl<'a> AuxSliceMut<'a> {
    /// Splits off the view of the first `agents` agents, returning
    /// `(head, tail)`.
    ///
    /// When the tail is non-empty, `agents` must be a multiple of 64 —
    /// the word-group alignment every plane width shares, which
    /// [`ShardPlan::shard_range`] guarantees for shard boundaries.
    fn split_for_agents(self, agents: usize) -> (AuxSliceMut<'a>, AuxSliceMut<'a>) {
        match self {
            AuxSliceMut::None => (AuxSliceMut::None, AuxSliceMut::None),
            AuxSliceMut::Bytes(b) => {
                let (head, tail) = b.split_at_mut(agents);
                (AuxSliceMut::Bytes(head), AuxSliceMut::Bytes(tail))
            }
            AuxSliceMut::Sliced { bits, words } => {
                let at = agents.div_ceil(WORD_BITS) * bits as usize;
                debug_assert!(at == words.len() || agents.is_multiple_of(WORD_BITS));
                let (head, tail) = words.split_at_mut(at);
                (
                    AuxSliceMut::Sliced { bits, words: head },
                    AuxSliceMut::Sliced { bits, words: tail },
                )
            }
        }
    }

    /// Decodes word-group `group`'s aux values into `tile`, one byte per
    /// agent (agent `64·group + a` lands in `tile[a]`). Slots past the
    /// view's last agent read 0.
    #[inline]
    fn load_tile(&self, group: usize, tile: &mut [u8; WORD_BITS]) {
        match self {
            AuxSliceMut::None => *tile = [0; WORD_BITS],
            AuxSliceMut::Bytes(b) => {
                let values = &b[group * WORD_BITS..b.len().min((group + 1) * WORD_BITS)];
                tile[..values.len()].copy_from_slice(values);
                tile[values.len()..].fill(0);
            }
            AuxSliceMut::Sliced { bits, words } => {
                let bits = *bits as usize;
                // Fixed-length gathers and scatters keep the group in
                // registers; a `bits`-long slice copy compiles to a
                // `memcpy` call per group.
                let slices = &words[group * bits..(group + 1) * bits];
                let mut rows = std::array::from_fn(|j| slices.get(j).copied().unwrap_or(0));
                transpose_bytes8x8(&mut rows);
                for (values, row) in tile.chunks_exact_mut(8).zip(rows) {
                    values.copy_from_slice(&transpose8x8(row).to_le_bytes());
                }
            }
        }
    }

    /// Writes `tile` back as word-group `group` — the inverse of
    /// [`AuxSliceMut::load_tile`]. Slots past the view's last agent must
    /// be 0, which keeps the sliced plane's trailing bits clear.
    #[inline]
    fn store_tile(&mut self, group: usize, tile: &[u8; WORD_BITS]) {
        match self {
            AuxSliceMut::None => {}
            AuxSliceMut::Bytes(b) => {
                let end = b.len().min((group + 1) * WORD_BITS);
                let values = &mut b[group * WORD_BITS..end];
                let n = values.len();
                values.copy_from_slice(&tile[..n]);
            }
            AuxSliceMut::Sliced { bits, words } => {
                let bits = *bits as usize;
                let mut rows = [0u64; 8];
                for (row, values) in rows.iter_mut().zip(tile.chunks_exact(8)) {
                    let values = values.try_into().expect("chunks_exact(8) yields 8 bytes");
                    *row = transpose8x8(u64::from_le_bytes(values));
                }
                transpose_bytes8x8(&mut rows);
                let slices = &mut words[group * bits..(group + 1) * bits];
                for (j, row) in rows.into_iter().enumerate() {
                    if let Some(slice) = slices.get_mut(j) {
                        *slice = row;
                    }
                }
            }
        }
    }
}

// The sliced tile codec. A word-group's `bits ≤ 8` slice words, padded
// with zero words to 8 rows, form a 64×8 bit matrix: bit `8k + a` of row
// `j` is bit `j` of agent `8k + a`'s value. Decoding is two transposes:
// the byte transpose gathers byte `k` of every row into row `k` (the
// 8×8 bit matrix of agents `8k..8k+8`, slice `j` in byte `j`), and the
// bit transpose of that row puts agent `8k + a`'s value in byte `a`.
// Both are involutions, so encoding runs them in the opposite order.

/// Transposes an 8×8 bit matrix held one row per byte: bit `c` of byte
/// `r` trades places with bit `r` of byte `c` (three masked
/// swap-by-xor steps, Hacker's Delight §7-3).
#[inline(always)]
fn transpose8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes the 8×8 byte matrix `rows`: byte `k` of `rows[j]` trades
/// places with byte `j` of `rows[k]`, by swapping half-, quarter- and
/// eighth-words between row pairs.
#[inline(always)]
fn transpose_bytes8x8(rows: &mut [u64; 8]) {
    for (shift, mask) in [
        (32, 0x0000_0000_FFFF_FFFFu64),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
    ] {
        let stride = shift / 8;
        for j in (0..8).filter(|j| j & stride == 0) {
            let t = ((rows[j] >> shift) ^ rows[j + stride]) & mask;
            rows[j + stride] ^= t;
            rows[j] ^= t << shift;
        }
    }
}

/// The packed round kernel for every aux layout, 64 agents at a time:
/// decode a word-group's opinion word and aux values into a stack tile
/// of [`Protocol::State`]s, run the protocol's own
/// [`Protocol::step_fused`] over the tile — for FET the very kernel
/// typed storage runs — and re-encode opinion word and aux values.
/// The tile is built once per call, so a round allocates nothing.
/// Observations and randomness are drawn in per-agent index order, so
/// the stream is identical to every other representation's kernel.
#[allow(clippy::too_many_arguments)]
fn step_packed_tiles<P: Protocol>(
    protocol: &P,
    words: &mut [u64],
    mut aux: AuxSliceMut<'_>,
    len: usize,
    source: &mut dyn ObservationSource,
    ctx: &RoundContext,
    rng: &mut dyn RngCore,
    correct: Opinion,
    mut outputs: Option<&mut [Opinion]>,
) -> FusedCounters {
    let mut states: [P::State; WORD_BITS] =
        std::array::from_fn(|_| protocol.unpack_state(Opinion::Zero, 0));
    let mut tile = [0u8; WORD_BITS];
    let mut tile_outputs = [Opinion::Zero; WORD_BITS];
    let mut counters = FusedCounters::default();
    for (group, word_slot) in words.iter_mut().enumerate().take(len.div_ceil(WORD_BITS)) {
        let start = group * WORD_BITS;
        let in_word = (len - start).min(WORD_BITS);
        let states = &mut states[..in_word];
        aux.load_tile(group, &mut tile);
        let word = *word_slot;
        for (a, state) in states.iter_mut().enumerate() {
            *state = protocol.unpack_state(Opinion::from((word >> a) & 1 == 1), tile[a]);
        }
        let out = match outputs.as_deref_mut() {
            Some(out) => &mut out[start..start + in_word],
            None => &mut tile_outputs[..in_word],
        };
        counters += protocol.step_fused(states, source, ctx, rng, correct, out);
        let mut new_word = 0u64;
        for (a, state) in states.iter().enumerate() {
            let (opinion, value) = protocol.pack_state(state);
            debug_assert_eq!(
                opinion, out[a],
                "pack_state's opinion bit must be the state's output"
            );
            new_word |= u64::from(opinion.is_one()) << a;
            tile[a] = value;
        }
        *word_slot = new_word;
        aux.store_tile(group, &tile);
    }
    counters
}

/// The word-at-a-time fused kernel for opinion-only threshold protocols
/// (voter, 3-majority): one
/// [`ObservationSource::next_threshold_word`] draw and one plane-word
/// write per 64 agents, counters by popcount. Stream-identical to
/// [`step_packed_tiles`] by the source contract (the same observations
/// are drawn in the same per-agent order; the protocols consume no step
/// randomness).
///
/// The popcount/store reduction here is deliberately *not* routed
/// through `fet_stats::isa`'s explicit-SIMD tiers: it is one
/// `count_ones` + one store per 64 agents against ≥ 64 sampler draws
/// for the same agents, and the `word_kernel` bench's `plane_popcount`
/// row measures the whole reduction at well under 1% of a round — the
/// vectorized-sampling PR measured it and dropped this leg (see
/// docs/BENCHMARKS.md, "SIMD sampling kernels").
fn step_threshold_words(
    words: &mut [u64],
    len: usize,
    source: &mut dyn ObservationSource,
    rng: &mut dyn RngCore,
    threshold: u32,
    correct: Opinion,
    mut outputs: Option<&mut [Opinion]>,
) -> FusedCounters {
    let mut counters = FusedCounters::default();
    let mut idx = 0usize;
    for word_slot in words.iter_mut() {
        if idx >= len {
            break;
        }
        let in_word = (len - idx).min(WORD_BITS);
        let word = source.next_threshold_word(rng, in_word as u32, threshold);
        debug_assert!(
            in_word == WORD_BITS || word >> in_word == 0,
            "threshold word has bits past the drawn count"
        );
        *word_slot = word;
        let ones = u64::from(word.count_ones());
        counters.ones += ones;
        counters.correct += if correct.is_one() {
            ones
        } else {
            in_word as u64 - ones
        };
        if let Some(out) = outputs.as_deref_mut() {
            for bit in 0..in_word {
                out[idx + bit] = Opinion::from(((word >> bit) & 1) == 1);
            }
        }
        idx += in_word;
    }
    counters
}

/// Steps agents `0..len` of a packed plane slice pair through the
/// protocol's update, drawing observations from `source`: the single
/// dispatcher behind every `BitPopulation` round entry point. Opinion-
/// only threshold protocols take the word-at-a-time kernel; everything
/// else takes the 64-agent tile kernel.
/// `outputs`, when present, receives the new opinions index-aligned
/// (`None` on the in-place paths — the plane itself is the output
/// store).
#[allow(clippy::too_many_arguments)]
fn step_packed_slice<P: Protocol>(
    protocol: &P,
    words: &mut [u64],
    aux: AuxSliceMut<'_>,
    len: usize,
    source: &mut dyn ObservationSource,
    ctx: &RoundContext,
    rng: &mut dyn RngCore,
    correct: Opinion,
    outputs: Option<&mut [Opinion]>,
) -> FusedCounters {
    debug_assert!(words.len() >= len.div_ceil(WORD_BITS));
    if let Some(out) = outputs.as_deref() {
        assert_eq!(out.len(), len, "one output slot per agent");
    }
    if let (AuxSliceMut::None, Some(threshold)) = (&aux, protocol.opinion_threshold()) {
        return step_threshold_words(words, len, source, rng, threshold, correct, outputs);
    }
    step_packed_tiles(
        protocol, words, aux, len, source, ctx, rng, correct, outputs,
    )
}

/// A [`Population`] storing its agents as packed planes: one opinion bit
/// per agent in a [`BitPlane`] plus the protocol's auxiliary plane
/// ([`AuxPlane`] — none, byte, or bit-sliced, per the declared
/// [`StatePlanes`] layout).
///
/// Construction requires a packable protocol — see the
/// [module docs](self) for the contract. Every [`Population`] entry
/// point is implemented, so the container drops into byte-addressed
/// engines unchanged; the in-place fused rounds
/// ([`Population::step_fused_inplace`] /
/// [`Population::step_fused_parallel_inplace`]) additionally let
/// bit-aware engines skip the per-agent output buffer entirely.
#[derive(Clone)]
pub struct BitPopulation<P: Protocol> {
    protocol: P,
    planes: StatePlanes,
    opinions: BitPlane,
    aux: AuxPlane,
}

impl<P: Protocol + fmt::Debug> fmt::Debug for BitPopulation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitPopulation")
            .field("protocol", &self.protocol)
            .field("planes", &self.planes)
            .field("len", &self.opinions.len())
            .finish()
    }
}

impl<P: Protocol> BitPopulation<P> {
    /// An empty bit-plane population running `protocol`.
    ///
    /// # Panics
    ///
    /// Panics when the protocol is not packable: its
    /// [`Protocol::state_planes`] is [`StatePlanes::Unpacked`], or it is
    /// not passive ([`Protocol::is_passive`]), or it declares a packed
    /// aux width outside `1..=8`. Callers selecting storage at runtime
    /// should gate on those first (the erased layer's
    /// [`bit_population`](crate::erased::ErasedProtocol::bit_population)
    /// does, returning `None`).
    pub fn new(protocol: P) -> Self {
        let planes = protocol.state_planes();
        assert!(
            planes != StatePlanes::Unpacked,
            "protocol `{}` declares no packed state layout",
            protocol.name()
        );
        assert!(
            protocol.is_passive(),
            "protocol `{}` is not passive; bit-plane storage equates decisions with the packed \
             opinion bit",
            protocol.name()
        );
        let aux = AuxPlane::for_planes(planes);
        BitPopulation {
            protocol,
            planes,
            opinions: BitPlane::new(),
            aux,
        }
    }

    /// A population packing explicitly provided states — the adversarial
    /// entry point, mirroring
    /// [`TypedPopulation::from_states`](crate::population::TypedPopulation::from_states).
    ///
    /// # Panics
    ///
    /// Panics when the protocol is not packable (see
    /// [`BitPopulation::new`]) or when a state does not survive
    /// [`Protocol::pack_state`].
    pub fn from_states(protocol: P, states: &[P::State]) -> Self {
        let mut pop = BitPopulation::new(protocol);
        pop.opinions.reserve(states.len());
        pop.aux.reserve(states.len());
        for state in states {
            let (opinion, aux) = pop.protocol.pack_state(state);
            pop.opinions.push(opinion);
            pop.aux.push(aux);
        }
        pop
    }

    /// The protocol configuration.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The packed plane layout this container uses.
    pub fn planes(&self) -> StatePlanes {
        self.planes
    }

    /// The packed opinion plane, read-only.
    pub fn opinion_plane(&self) -> &BitPlane {
        &self.opinions
    }

    /// The auxiliary plane, read-only ([`AuxPlane::None`] for
    /// [`StatePlanes::OpinionOnly`] protocols).
    pub fn aux_plane(&self) -> &AuxPlane {
        &self.aux
    }

    /// Agent `idx`'s packed auxiliary value (0 for opinion-only
    /// layouts) — the byte [`Protocol::unpack_state`] receives.
    pub fn aux_value(&self, idx: usize) -> u8 {
        self.aux.get(idx)
    }

    fn unpack(&self, idx: usize) -> P::State {
        self.protocol
            .unpack_state(self.opinions.get(idx), self.aux.get(idx))
    }

    fn repack(&mut self, idx: usize, state: &P::State) {
        let (opinion, aux) = self.protocol.pack_state(state);
        self.opinions.set(idx, opinion);
        self.aux.set(idx, aux);
    }

    /// The parallel rounds, with (outputs path) or without (in-place
    /// path) a byte output slice to fill.
    fn run_parallel<'a>(
        &'a mut self,
        factory: &dyn ShardSourceFactory,
        ctx: &RoundContext,
        plan: &ShardPlan,
        correct: Opinion,
        mut outputs: Option<&'a mut [Opinion]>,
    ) -> FusedCounters
    where
        P: Sync,
    {
        let n = self.opinions.len();
        if let Some(out) = outputs.as_deref() {
            assert_eq!(out.len(), n, "one output slot per agent");
        }
        // Carve the planes into per-shard slices once. The plan's ranges
        // start on 64-agent boundaries (see `ShardPlan::shard_range`),
        // which is a whole-word boundary for every plane width — opinion
        // words, aux bytes, and interleaved slice groups alike — so
        // the splits below land exactly between shards and the slices
        // are disjoint, which is what lets them run concurrently.
        let mut jobs = Vec::with_capacity(plan.shards() as usize);
        let mut words_rest = self.opinions.words_mut();
        let mut aux_rest = self.aux.slice_mut();
        for (s, range) in plan.ranges(n) {
            debug_assert!(
                range.start.is_multiple_of(WORD_BITS),
                "shard range {range:?} splits a word"
            );
            let word_count = range.end.div_ceil(WORD_BITS) - range.start / WORD_BITS;
            let (words, rest) = words_rest.split_at_mut(word_count);
            words_rest = rest;
            let (aux, rest) = aux_rest.split_for_agents(range.len());
            aux_rest = rest;
            let out = outputs.take().map(|o| {
                let (head, tail) = o.split_at_mut(range.len());
                outputs = Some(tail);
                head
            });
            jobs.push((s, range.clone(), (words, aux, range.len(), out)));
        }
        let protocol = &self.protocol;
        run_shards(
            plan,
            factory,
            jobs,
            |(words, aux, len, out), source, rng| {
                step_packed_slice(protocol, words, aux, len, source, ctx, rng, correct, out)
            },
        )
    }
}

impl<P> Population for BitPopulation<P>
where
    P: Protocol + fmt::Debug + Send + Sync,
{
    fn protocol_name(&self) -> &str {
        self.protocol.name()
    }

    fn samples_per_round(&self) -> u32 {
        self.protocol.samples_per_round()
    }

    fn is_passive(&self) -> bool {
        self.protocol.is_passive()
    }

    fn parallel_eligible(&self) -> bool {
        self.protocol.parallel_eligible()
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        self.protocol.memory_footprint()
    }

    fn len(&self) -> usize {
        self.opinions.len()
    }

    fn reserve(&mut self, additional: usize) {
        self.opinions.reserve(additional);
        self.aux.reserve(additional);
    }

    fn push_agent(&mut self, opinion: Opinion, rng: &mut dyn RngCore) -> Opinion {
        let state = self.protocol.init_state(opinion, rng);
        let output = self.protocol.output(&state);
        let (packed_opinion, packed_aux) = self.protocol.pack_state(&state);
        debug_assert_eq!(packed_opinion, output);
        self.opinions.push(packed_opinion);
        self.aux.push(packed_aux);
        output
    }

    fn corrupt_agent(&mut self, idx: usize, opinion: Opinion, rng: &mut dyn RngCore) {
        // Same protocol draw stream as the typed container, then repack:
        // corruption events stay bit-identical across representations.
        let state = self.protocol.init_state(opinion, rng);
        self.repack(idx, &state);
    }

    fn step_fused(
        &mut self,
        source: &mut dyn ObservationSource,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
        correct: Opinion,
        outputs: &mut [Opinion],
    ) -> FusedCounters {
        let len = self.opinions.len();
        let BitPopulation {
            protocol,
            opinions,
            aux,
            ..
        } = self;
        step_packed_slice(
            protocol,
            opinions.words_mut(),
            aux.slice_mut(),
            len,
            source,
            ctx,
            rng,
            correct,
            Some(outputs),
        )
    }

    fn step_fused_parallel(
        &mut self,
        factory: &dyn ShardSourceFactory,
        ctx: &RoundContext,
        plan: &ShardPlan,
        correct: Opinion,
        outputs: &mut [Opinion],
    ) -> FusedCounters {
        self.run_parallel(factory, ctx, plan, correct, Some(outputs))
    }

    fn step_agent(
        &mut self,
        idx: usize,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        let mut state = self.unpack(idx);
        let new = self.protocol.step(&mut state, obs, ctx, rng);
        self.repack(idx, &state);
        new
    }

    fn output_of(&self, idx: usize) -> Opinion {
        self.opinions.get(idx)
    }

    fn decision_of(&self, idx: usize) -> Opinion {
        // Packing is restricted to passive protocols: decision ≡ output
        // ≡ the stored bit.
        self.opinions.get(idx)
    }

    fn count_correct_decisions(&self, correct: Opinion) -> u64 {
        let ones = self.opinions.count_ones();
        if correct.is_one() {
            ones
        } else {
            self.opinions.len() as u64 - ones
        }
    }

    fn write_outputs(&self, out: &mut [Opinion]) {
        assert_eq!(out.len(), self.opinions.len(), "one output slot per agent");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.opinions.get(i);
        }
    }

    fn count_output_ones(&self) -> u64 {
        self.opinions.count_ones()
    }

    fn resident_bytes(&self) -> usize {
        self.opinions.resident_bytes() + self.aux.resident_bytes()
    }

    fn supports_inplace_rounds(&self) -> bool {
        true
    }

    fn step_fused_inplace(
        &mut self,
        source: &mut dyn ObservationSource,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
        correct: Opinion,
    ) -> FusedCounters {
        let len = self.opinions.len();
        let BitPopulation {
            protocol,
            opinions,
            aux,
            ..
        } = self;
        step_packed_slice(
            protocol,
            opinions.words_mut(),
            aux.slice_mut(),
            len,
            source,
            ctx,
            rng,
            correct,
            None,
        )
    }

    fn step_fused_parallel_inplace(
        &mut self,
        factory: &dyn ShardSourceFactory,
        ctx: &RoundContext,
        plan: &ShardPlan,
        correct: Opinion,
    ) -> FusedCounters {
        self.run_parallel(factory, ctx, plan, correct, None)
    }

    fn write_opinion_words(&self, snapshot: &mut [u64]) {
        snapshot.copy_from_slice(self.opinions.words());
    }
}

impl<P> DynPopulation for BitPopulation<P>
where
    P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    fn clone_box(&self) -> Box<dyn DynPopulation> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fet::FetProtocol;
    use crate::population::TypedPopulation;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(0xB17)
    }

    fn filled_pair(
        ell: u32,
        n: usize,
    ) -> (TypedPopulation<FetProtocol>, BitPopulation<FetProtocol>) {
        let proto = FetProtocol::new(ell).unwrap();
        let mut typed = TypedPopulation::new(proto.clone());
        let mut bits = BitPopulation::new(proto);
        let mut rt = rng();
        let mut rb = rng();
        for i in 0..n {
            let opinion = Opinion::from(i % 3 == 0);
            assert_eq!(
                typed.push_agent(opinion, &mut rt),
                bits.push_agent(opinion, &mut rb)
            );
        }
        (typed, bits)
    }

    #[test]
    fn plane_push_get_set_count() {
        let mut plane = BitPlane::new();
        for i in 0..130 {
            plane.push(Opinion::from(i % 5 == 0));
        }
        assert_eq!(plane.len(), 130);
        assert_eq!(plane.words().len(), 3);
        for i in 0..130 {
            assert_eq!(plane.get(i), Opinion::from(i % 5 == 0));
        }
        let scalar = (0..130).filter(|i| i % 5 == 0).count() as u64;
        assert_eq!(plane.count_ones(), scalar);
        plane.set(129, Opinion::One);
        plane.set(0, Opinion::Zero);
        assert_eq!(plane.get(129), Opinion::One);
        assert_eq!(plane.get(0), Opinion::Zero);
        // Trailing bits stay zero: the popcount matches a scalar recount.
        let recount = (0..130).filter(|&i| plane.get(i).is_one()).count() as u64;
        assert_eq!(plane.count_ones(), recount);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn plane_get_bounds_checked() {
        let plane = BitPlane::zeroed(64);
        let _ = plane.get(64);
    }

    #[test]
    fn sliced_plane_push_get_set_all_widths() {
        for bits in 1..=8u8 {
            let max = (1u32 << bits) as usize;
            let mut plane = BitSlicedPlane::new(bits);
            for i in 0..131 {
                plane.push((i % max) as u8);
            }
            assert_eq!(plane.len(), 131);
            assert_eq!(plane.words().len(), 3 * bits as usize);
            for i in 0..131 {
                assert_eq!(plane.get(i), (i % max) as u8, "bits={bits} idx={i}");
            }
            plane.set(130, (max - 1) as u8);
            plane.set(64, 0);
            assert_eq!(plane.get(130), (max - 1) as u8);
            assert_eq!(plane.get(64), 0);
            assert_eq!(plane.get(65), (65 % max) as u8, "bits={bits} neighbor");
        }
    }

    #[test]
    fn tile_decode_encode_round_trips_every_width_on_ragged_group() {
        // 131 agents: two full groups and a trailing group of 3.
        let len = 131;
        for bits in 1..=8u8 {
            let max = 1usize << bits;
            let mut plane = BitSlicedPlane::new(bits);
            for i in 0..len {
                plane.push(((i * 37 + 11) % max) as u8);
            }
            let mut bytes: Vec<u8> = (0..len).map(|i| plane.get(i)).collect();
            let mut tile = [0xAAu8; WORD_BITS];
            for group in 0..len.div_ceil(WORD_BITS) {
                let in_group = (len - group * WORD_BITS).min(WORD_BITS);
                let mut sliced = AuxSliceMut::Sliced {
                    bits,
                    words: &mut plane.words,
                };
                sliced.load_tile(group, &mut tile);
                for a in 0..WORD_BITS {
                    let want = if a < in_group {
                        bytes[group * WORD_BITS + a]
                    } else {
                        0
                    };
                    assert_eq!(tile[a], want, "bits={bits} group={group} a={a}");
                }
                let mut from_bytes = [0xAAu8; WORD_BITS];
                AuxSliceMut::Bytes(&mut bytes).load_tile(group, &mut from_bytes);
                assert_eq!(tile, from_bytes, "bits={bits} group={group}: byte tile");
                // Rewrite the group's live values; the padding stays 0.
                for (a, value) in tile.iter_mut().enumerate().take(in_group) {
                    *value = ((a * 5 + group + usize::from(bits)) % max) as u8;
                }
                sliced.store_tile(group, &tile);
                AuxSliceMut::Bytes(&mut bytes).store_tile(group, &tile);
            }
            for (i, &byte) in bytes.iter().enumerate() {
                let a = i % WORD_BITS;
                let want = ((a * 5 + i / WORD_BITS + usize::from(bits)) % max) as u8;
                assert_eq!(plane.get(i), want, "bits={bits} i={i}");
                assert_eq!(byte, want, "bits={bits} i={i}: byte plane");
            }
            let trailing = &plane.words()[(len / WORD_BITS) * bits as usize..];
            assert_eq!(trailing.len(), bits as usize);
            for (j, word) in trailing.iter().enumerate() {
                assert_eq!(
                    word >> (len % WORD_BITS),
                    0,
                    "bits={bits} slice {j}: bits past len() must stay zero"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=8")]
    fn sliced_plane_rejects_wide_values() {
        let _ = BitSlicedPlane::new(9);
    }

    #[test]
    fn aux_plane_layout_selection() {
        assert!(matches!(
            AuxPlane::for_planes(StatePlanes::OpinionOnly),
            AuxPlane::None
        ));
        assert!(matches!(
            AuxPlane::for_planes(StatePlanes::OpinionPlusByte),
            AuxPlane::Bytes(_)
        ));
        for bits in 1..=8 {
            assert!(matches!(
                AuxPlane::for_planes(StatePlanes::OpinionPlusPacked { bits }),
                AuxPlane::Sliced(_)
            ));
        }
    }

    #[test]
    fn push_agent_matches_typed_stream() {
        // ℓ = 8 → 4-bit sliced plane; ℓ = 5 → 3-bit sliced plane;
        // ℓ = 200 → byte plane. All three walk the typed stream.
        for ell in [5, 8, 200] {
            let (typed, bits) = filled_pair(ell, 97);
            for i in 0..97 {
                assert_eq!(typed.output_of(i), bits.output_of(i));
                assert_eq!(
                    typed.states()[i],
                    bits.protocol()
                        .unpack_state(bits.opinion_plane().get(i), bits.aux_value(i)),
                    "ell={ell} agent {i} state diverged through pack/unpack"
                );
            }
            assert_eq!(typed.count_output_ones(), bits.count_output_ones());
        }
    }

    #[test]
    fn fused_round_matches_typed_population() {
        use crate::population::Population;
        struct Uniform {
            m: u32,
        }
        impl ObservationSource for Uniform {
            fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation {
                Observation::new(rng.next_u32() % (self.m + 1), self.m).unwrap()
            }
        }
        for ell in [5, 8, 200] {
            let (mut typed, mut bits) = filled_pair(ell, 77);
            let m = typed.samples_per_round();
            let ctx = RoundContext::new(3);
            let mut rt = rand::rngs::SmallRng::seed_from_u64(42);
            let mut rb = rand::rngs::SmallRng::seed_from_u64(42);
            let mut out_t = vec![Opinion::Zero; 77];
            let mut out_b = vec![Opinion::Zero; 77];
            let ct = typed.step_fused(&mut Uniform { m }, &ctx, &mut rt, Opinion::One, &mut out_t);
            let cb = bits.step_fused(&mut Uniform { m }, &ctx, &mut rb, Opinion::One, &mut out_b);
            assert_eq!(out_t, out_b, "ell={ell}");
            assert_eq!(ct, cb, "ell={ell}");
            // And the in-place variant walks the very same stream.
            let (_, mut bits2) = filled_pair(ell, 77);
            let mut r2 = rand::rngs::SmallRng::seed_from_u64(42);
            let c2 = bits2.step_fused_inplace(&mut Uniform { m }, &ctx, &mut r2, Opinion::One);
            assert_eq!(c2, cb, "ell={ell}");
            for (i, &out) in out_b.iter().enumerate() {
                assert_eq!(bits2.output_of(i), out, "ell={ell}");
            }
        }
    }

    #[test]
    fn correct_decision_popcount_matches_scalar() {
        let (typed, bits) = filled_pair(8, 130);
        for correct in [Opinion::Zero, Opinion::One] {
            assert_eq!(
                typed.count_correct_decisions(correct),
                bits.count_correct_decisions(correct)
            );
        }
    }

    #[test]
    #[should_panic(expected = "declares no packed state layout")]
    fn unpackable_protocol_is_rejected() {
        // ℓ = 300 overflows the byte-valued pack, so FET falls back to
        // Unpacked.
        let _ = BitPopulation::new(FetProtocol::new(300).unwrap());
    }

    #[test]
    fn resident_bytes_counts_packed_planes() {
        // ℓ = 5 → 1-bit opinion + 3-bit sliced clock: 4 bits/agent.
        let (_, bits) = filled_pair(5, 200);
        let want = bits.opinion_plane().resident_bytes();
        assert!(bits.resident_bytes() >= want);
        // Strictly under a byte per agent, far under the typed state.
        assert!(bits.resident_bytes() < 200);
        assert!(bits.resident_bytes() < 200 * std::mem::size_of::<crate::fet::FetState>());
    }
}
