//! State-space exploration: exhaustive sweeps and frontier BFS over the
//! packed engine (experiment E19).
//!
//! Two interchangeable engines compute the same [`SpaceStats`]:
//!
//! * [`explore_naive`] — the legacy formulation: clone a
//!   [`crate::state_space::SystemState`] per state, re-walk the rule
//!   list through [`FsmPolicy::evaluate`]. The reference the packed
//!   engine is differentially tested against.
//! * [`explore_packed`] — odometer over `u128` words with memoized
//!   evaluation ([`crate::packed::MemoPolicy`]), zero allocation per
//!   warm state. The rank space is cut into one contiguous range per
//!   thread, each swept by its own serial engine through
//!   [`trace::par_ordered`]; the ranges' class tables then merge by
//!   value ([`MemoPolicy::absorb`]) and their quiet-state digests by
//!   XOR, so counts, class sets and digests are byte-identical at every
//!   thread count. At one thread there is one range: the plain serial
//!   loop.
//!
//! [`bfs_packed`] explores the same space as a breadth-first frontier
//! expansion from the initial state (successor relation = one slot
//! changes value), with a dense word-indexed bitset visited arena when
//! the packed word fits [`DENSE_WORD_BITS_MAX`] bits and a hashed set
//! otherwise, emitting one control-class
//! [`TraceEvent::SpaceFrontier`] per depth.

use crate::packed::{FxBuild, MemoPolicy, PackedLayout, PackedState};
use crate::policy::FsmPolicy;
use fixedbitset::FixedBitSet;
use std::collections::{HashMap, HashSet};
use trace::digest::fnv64;
use trace::event::TraceEvent;
use trace::par_ordered;
use trace::tracer::Tracer;

/// Frontier states per chunk in the parallel BFS expansion.
pub const CHUNK: u128 = 1 << 14;

/// Largest packed-word width for which the BFS visited set uses a dense
/// bitset indexed by the word itself (2²⁸ bits = 32 MiB); wider spaces
/// fall back to a hashed set.
pub const DENSE_WORD_BITS_MAX: u32 = 28;

/// FNV-1a of a state rank — the per-state term of the order-independent
/// (XOR-merged) digests.
fn fnv_rank(rank: u128) -> u64 {
    fnv64(&rank.to_le_bytes())
}

/// Aggregate result of one exhaustive sweep. The state counts and the
/// quiet digest merge by addition / XOR in any order, and the class
/// fields are read off the by-value merged class table — the
/// determinism argument of the parallel sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpaceStats {
    /// States visited (the schema's exact size).
    pub states: u128,
    /// Distinct posture-vector equivalence classes.
    pub classes: u64,
    /// XOR of the distinct classes' fingerprints.
    pub class_digest: u64,
    /// States whose posture vector is all-allow ("quiet").
    pub quiet_states: u128,
    /// XOR of `fnv(rank)` over the quiet states.
    pub quiet_digest: u64,
    /// Memoized-evaluation `(lookups, hits)` — engine diagnostics:
    /// the deterministic sum over the packed sweep's rank ranges, so it
    /// depends on the thread count (E19 reports the one-thread value);
    /// zero for the naive engine. Not part of [`SpaceStats::digest`].
    pub memo: (u64, u64),
}

impl SpaceStats {
    /// Canonical rendering of the *semantic* fields (excludes the memo
    /// diagnostics): two engines agree iff their digests are equal.
    pub fn digest(&self) -> String {
        format!(
            "states={} classes={} cd={:016x} quiet={} qd={:016x}",
            self.states, self.classes, self.class_digest, self.quiet_states, self.quiet_digest
        )
    }
}

/// Interned set of distinct posture vectors, keyed by fingerprint with
/// an equality-checked collision chain. Fingerprints are computed once
/// per vector and cached — never recomputed for the digest.
#[derive(Default)]
struct ClassSet {
    by_fp: HashMap<u64, Vec<usize>, FxBuild>,
    vecs: Vec<crate::posture::PostureVector>,
    fps: Vec<u64>,
}

impl ClassSet {
    /// Intern `v`, returning its id.
    fn intern(&mut self, v: &crate::posture::PostureVector) -> usize {
        let fp = v.fingerprint();
        let chain = self.by_fp.entry(fp).or_default();
        for &id in chain.iter() {
            if self.vecs[id] == *v {
                return id;
            }
        }
        let id = self.vecs.len();
        chain.push(id);
        self.vecs.push(v.clone());
        self.fps.push(fp);
        id
    }

    fn digest(&self) -> u64 {
        self.fps.iter().fold(0, |a, b| a ^ b)
    }
}

/// Exhaustive sweep with the legacy engine: one [`SystemState`] clone
/// and one full rule-list walk per state. The differential reference.
///
/// [`SystemState`]: crate::state_space::SystemState
pub fn explore_naive(policy: &FsmPolicy) -> SpaceStats {
    let mut classes = ClassSet::default();
    let mut stats = SpaceStats::default();
    for (rank, state) in policy.schema.iter_states().enumerate() {
        let v = policy.evaluate(&state);
        if v.by_device.is_empty() {
            stats.quiet_states += 1;
            stats.quiet_digest ^= fnv_rank(rank as u128);
        }
        classes.intern(&v);
        stats.states += 1;
    }
    stats.classes = classes.vecs.len() as u64;
    stats.class_digest = classes.digest();
    stats
}

/// Exhaustive sweep with the packed engine. `None` when the schema does
/// not pack (see [`MemoPolicy::new`]). The rank space `0..size` is cut
/// into `min(max(threads, 1), size)` contiguous ranges, each swept by
/// [`sweep_range`] on its own engine via [`par_ordered`]; every range is
/// then absorbed into the one with the most classes (ties to the lowest
/// index). Counts and digests are identical at every thread count.
pub fn explore_packed(policy: &FsmPolicy, threads: usize) -> Option<SpaceStats> {
    let layout = PackedLayout::of(&policy.schema)?;
    let size = layout.size();
    let parts = (threads.max(1) as u128).min(size);
    // `size·w / parts`, without forming `size·w` (size may be ~2¹²⁷).
    let bound = |w: u128| size / parts * w + size % parts * w / parts;
    let mut ranges = par_ordered(
        parts as usize,
        threads,
        |_| (),
        |_, w| sweep_range(policy, &layout, bound(w as u128)..bound(w as u128 + 1)),
    )
    .into_iter()
    .collect::<Option<Vec<_>>>()?;
    // `max_by_key` keeps the last maximum; scanning backwards makes
    // that the lowest index.
    let keep = (0..ranges.len()).rev().max_by_key(|&i| ranges[i].0.class_count())?;
    let (mut memo, mut stats) = ranges.swap_remove(keep);
    for (other, part) in &ranges {
        memo.absorb(other);
        stats.states += part.states;
        stats.quiet_states += part.quiet_states;
        stats.quiet_digest ^= part.quiet_digest;
    }
    stats.classes = memo.class_count() as u64;
    stats.class_digest =
        (0..memo.class_count() as u32).map(|id| memo.class_fingerprint(id)).fold(0, |a, b| a ^ b);
    stats.memo = memo.stats();
    Some(stats)
}

/// The serial packed engine over the ranks `range` of `layout`: the
/// zero-alloc inner loop the allocation profile test pins. Returns the
/// engine (its class table) and the range's counts and quiet digest;
/// class fields are left for the caller's merge. `None` when the
/// policy does not fit [`MemoPolicy`].
fn sweep_range<'a>(
    policy: &'a FsmPolicy,
    layout: &PackedLayout,
    range: std::ops::Range<u128>,
) -> Option<(MemoPolicy<'a>, SpaceStats)> {
    let mut memo = MemoPolicy::new(policy)?;
    let mut stats = SpaceStats::default();
    let mut p = layout.from_rank(range.start);
    let mut mask = memo.mask_of(p);
    for rank in range.clone() {
        let id = memo.class_of_mask(mask);
        if memo.is_quiet(id) {
            stats.quiet_states += 1;
            stats.quiet_digest ^= fnv_rank(rank);
        }
        stats.states += 1;
        // Incremental mask maintenance: only rules touching the
        // odometer's changed low digits are re-tested.
        if rank + 1 < range.end {
            let (n, changed) = layout.next_masked(p).expect("odometer ended inside the range");
            p = n;
            memo.mask_step(&mut mask, n, changed);
        }
    }
    Some((memo, stats))
}

/// Result of a frontier BFS from the initial state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BfsStats {
    /// Total states reached.
    pub visited: u128,
    /// Frontier size per depth (`depths[0] == 1`, the initial state).
    pub depths: Vec<u64>,
    /// XOR of `fnv(depth ‖ word)` over every `(depth, state)` pair —
    /// zero for the naive engine, which has no packed words to hash.
    pub frontier_digest: u64,
}

impl BfsStats {
    /// Canonical rendering for differential comparison (digest last so
    /// naive/packed comparisons can strip it).
    pub fn histogram(&self) -> String {
        let shells: Vec<String> = self.depths.iter().map(|d| d.to_string()).collect();
        format!("visited={} shells=[{}]", self.visited, shells.join(","))
    }
}

/// Visited-state arena: dense word-indexed bitset when the packed word
/// is narrow enough, hashed otherwise. The dense arm costs one shift
/// and an OR per probe; the hashed arm is the graceful degradation.
enum Visited {
    Dense(FixedBitSet),
    Hashed(HashSet<u128>),
}

impl Visited {
    fn for_layout(layout: &PackedLayout) -> Visited {
        if layout.total_bits() <= DENSE_WORD_BITS_MAX {
            Visited::Dense(FixedBitSet::with_capacity(layout.word_space() as usize))
        } else {
            Visited::Hashed(HashSet::new())
        }
    }

    /// Whether the bitset arm is in use (surface for tests and E19).
    fn is_dense(&self) -> bool {
        matches!(self, Visited::Dense(_))
    }

    #[inline]
    fn contains(&self, p: PackedState) -> bool {
        match self {
            Visited::Dense(bits) => bits.contains(p.0 as usize),
            Visited::Hashed(set) => set.contains(&p.0),
        }
    }

    /// Insert and return whether the state was already present.
    #[inline]
    fn put(&mut self, p: PackedState) -> bool {
        match self {
            Visited::Dense(bits) => bits.put(p.0 as usize),
            Visited::Hashed(set) => !set.insert(p.0),
        }
    }

    fn count(&self) -> u128 {
        match self {
            Visited::Dense(bits) => bits.count_ones() as u128,
            Visited::Hashed(set) => set.len() as u128,
        }
    }
}

fn fnv_depth_word(depth: u32, word: u128) -> u64 {
    let mut bytes = [0u8; 20];
    bytes[..4].copy_from_slice(&depth.to_le_bytes());
    bytes[4..].copy_from_slice(&word.to_le_bytes());
    fnv64(&bytes)
}

/// Whether a packed BFS over this policy's schema would use the dense
/// visited arena (E19 reports this per population).
pub fn bfs_uses_dense_visited(policy: &FsmPolicy) -> Option<bool> {
    let layout = PackedLayout::of(&policy.schema)?;
    Some(layout.total_bits() <= DENSE_WORD_BITS_MAX)
}

/// Frontier BFS over the packed space from the initial state; successors
/// flip one slot to one other value. `None` when the schema does not
/// pack. Each frontier is expanded in [`CHUNK`]-sized slices through
/// [`par_ordered`] — workers only *read* the visited arena (it is
/// mutated exclusively by the merge, between depths), and slice results
/// merge in slice order, so the per-depth frontier vectors are
/// byte-identical to the serial expansion. One
/// [`TraceEvent::SpaceFrontier`] is emitted per depth with
/// `at_ns = depth`.
pub fn bfs_packed(policy: &FsmPolicy, threads: usize, tracer: &Tracer) -> Option<BfsStats> {
    let layout = PackedLayout::of(&policy.schema)?;
    let mut visited = Visited::for_layout(&layout);
    let mut stats = BfsStats::default();
    let mut frontier: Vec<u128> = vec![layout.first().0];
    visited.put(layout.first());
    let mut depth: u32 = 0;
    while !frontier.is_empty() {
        for w in &frontier {
            stats.frontier_digest ^= fnv_depth_word(depth, *w);
        }
        stats.depths.push(frontier.len() as u64);
        tracer.emit(
            depth as u64,
            TraceEvent::SpaceFrontier { depth, frontier: frontier.len() as u64 },
        );
        let slices: Vec<&[u128]> = frontier.chunks(CHUNK as usize).collect();
        let candidates = par_ordered(
            slices.len(),
            threads,
            |_| (),
            |_, i| expand_slice(&layout, &visited, slices[i]),
        );
        let mut next = Vec::new();
        for chunk in candidates {
            for cand in chunk {
                if !visited.put(PackedState(cand)) {
                    next.push(cand);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    stats.visited = visited.count();
    debug_assert!(visited.is_dense() == (layout.total_bits() <= DENSE_WORD_BITS_MAX));
    Some(stats)
}

/// Expand one frontier slice: successors of each member not yet in the
/// (frozen) visited arena, in enumeration order. Duplicates within and
/// across slices are removed by the caller's ordered merge.
fn expand_slice(layout: &PackedLayout, visited: &Visited, slice: &[u128]) -> Vec<u128> {
    let mut out = Vec::new();
    for w in slice {
        layout.successors(PackedState(*w), |s| {
            if !visited.contains(s) {
                out.push(s.0);
            }
        });
    }
    out
}

/// Frontier BFS with the legacy state representation (hash-set visited,
/// cloned [`SystemState`]s). Reference for the packed BFS shell
/// histogram; its `frontier_digest` is zero (no packed words to hash).
///
/// [`SystemState`]: crate::state_space::SystemState
pub fn bfs_naive(policy: &FsmPolicy) -> BfsStats {
    use crate::state_space::SystemState;
    let schema = &policy.schema;
    let mut stats = BfsStats::default();
    let mut visited: HashSet<SystemState> = HashSet::new();
    let initial = schema.initial_state();
    visited.insert(initial.clone());
    let mut frontier = vec![initial];
    while !frontier.is_empty() {
        stats.depths.push(frontier.len() as u64);
        let mut next = Vec::new();
        for state in &frontier {
            // Same successor relation as the packed engine: each env
            // slot, then each device slot, set to each other value.
            for (slot, var) in schema.env_vars.iter().enumerate() {
                for idx in 0..var.domain().len() as u8 {
                    if idx != state.env[slot] {
                        let mut s = state.clone();
                        s.env[slot] = idx;
                        if visited.insert(s.clone()) {
                            next.push(s);
                        }
                    }
                }
            }
            for (slot, dev) in schema.devices.iter().enumerate() {
                for ctx in &dev.contexts {
                    if *ctx != state.contexts[slot] {
                        let mut s = state.clone();
                        s.contexts[slot] = *ctx;
                        if visited.insert(s.clone()) {
                            next.push(s);
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    stats.visited = visited.len() as u128;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::PolicyCompiler;
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::env::EnvVar;
    use iotdev::vuln::Vulnerability;

    fn small_policy() -> FsmPolicy {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[Vulnerability::NoAuthControl]);
        c.device(DeviceId(2), DeviceClass::SmartPlug, &[]);
        c.env(EnvVar::Temperature);
        c.env(EnvVar::Occupancy);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        c.gate_actuation(DeviceId(2), EnvVar::Occupancy, "present");
        c.build()
    }

    #[test]
    fn packed_serial_matches_naive() {
        let policy = small_policy();
        let naive = explore_naive(&policy);
        let packed = explore_packed(&policy, 1).unwrap();
        assert_eq!(naive.digest(), packed.digest());
        assert_eq!(naive.states, policy.schema.size());
        assert!(naive.classes >= 2);
        let (lookups, hits) = packed.memo;
        assert_eq!(lookups as u128, naive.states);
        assert!(hits > 0);
    }

    #[test]
    fn packed_parallel_matches_serial_at_multiple_widths() {
        let policy = small_policy();
        let serial = explore_packed(&policy, 1).unwrap();
        for threads in [2, 3, 4, 8, 64] {
            let par = explore_packed(&policy, threads).unwrap();
            assert_eq!(serial.digest(), par.digest(), "threads={threads}");
        }
    }

    #[test]
    fn bfs_covers_the_product_space() {
        // Every state of a product space is reachable by single-slot
        // moves, so BFS must visit exactly size() states, in Hamming
        // shells around the initial state.
        let policy = small_policy();
        let bfs = bfs_packed(&policy, 1, &Tracer::disabled()).unwrap();
        assert_eq!(bfs.visited, policy.schema.size());
        assert_eq!(bfs.depths[0], 1);
        let total: u64 = bfs.depths.iter().sum();
        assert_eq!(total as u128, bfs.visited);
        // Max depth = number of slots (change every slot once).
        assert_eq!(bfs.depths.len(), 5 + 1);
    }

    #[test]
    fn bfs_naive_and_packed_agree_on_shells() {
        let policy = small_policy();
        let naive = bfs_naive(&policy);
        let packed = bfs_packed(&policy, 1, &Tracer::disabled()).unwrap();
        assert_eq!(naive.histogram(), packed.histogram());
    }

    #[test]
    fn bfs_parallel_is_byte_identical() {
        let policy = small_policy();
        let serial = bfs_packed(&policy, 1, &Tracer::disabled()).unwrap();
        for threads in [2, 4] {
            let par = bfs_packed(&policy, threads, &Tracer::disabled()).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn bfs_traces_one_event_per_depth() {
        let policy = small_policy();
        let tracer = Tracer::new(trace::tracer::TraceConfig::control_only());
        let bfs = bfs_packed(&policy, 1, &tracer).unwrap();
        let events = tracer.events();
        assert_eq!(events.len(), bfs.depths.len());
        for (i, (at, ev)) in events.iter().enumerate() {
            assert_eq!(*at, i as u64);
            match ev {
                TraceEvent::SpaceFrontier { depth, frontier } => {
                    assert_eq!(*depth as usize, i);
                    assert_eq!(*frontier, bfs.depths[i]);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn dense_visited_is_used_for_small_spaces() {
        let policy = small_policy();
        assert_eq!(bfs_uses_dense_visited(&policy), Some(true));
    }

    #[test]
    fn unpackable_schema_returns_none() {
        let mut s = crate::state_space::StateSchema::new();
        for i in 0..70 {
            s.add_device_with(
                DeviceId(i),
                DeviceClass::Camera,
                crate::context::SecurityContext::ALL.to_vec(),
            );
        }
        let policy = FsmPolicy::new(s);
        assert!(explore_packed(&policy, 1).is_none());
        assert!(bfs_packed(&policy, 1, &Tracer::disabled()).is_none());
        assert!(bfs_uses_dense_visited(&policy).is_none());
    }
}
