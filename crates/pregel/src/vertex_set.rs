//! Columnar sorted vertex storage shared between consecutive Pregel jobs.
//!
//! Pregel+ distributes vertices to machines by hashing the vertex ID; a
//! [`VertexSet`] does the same over logical workers. *Within* a partition,
//! vertices are a struct-of-arrays **columnar store sorted by vertex ID**:
//!
//! * `ids` — the sorted, strictly increasing ID column ("slot" order);
//! * `values` — the parallel value column (every slot is `Some`; the
//!   `Option` is the slot encoding the spill layer's sealed extents share);
//! * `halted` — one bit per slot, packed 64 slots to a word;
//! * `stamps` — one `u32` compute stamp per slot.
//!
//! The layout is what makes the runner's message delivery a **merge-join**:
//! the shuffle hands every worker its inbound messages sorted by destination
//! ID (see `runner.rs`), and sorted messages meeting a sorted ID column is a
//! single linear pass — no per-run hash probe, no bucket-array walk. The
//! straggler scan (active vertices that received nothing) becomes a walk over
//! the `halted` bitset, skipping 64 halted vertices per word compare, and a
//! full-partition scan touches dense arrays instead of a hash table's
//! scattered buckets. [`VertexSet::resident_bytes`] reports the footprint.
//!
//! # Lifecycle
//!
//! A set is built in bulk ([`from_pairs`](VertexSet::from_pairs)): pairs are
//! staged per partition, a narrow `(id, index)` key column is radix-sorted
//! (input that already ascends skips the sort), and each winning payload is
//! moved once by a gather pass. A job then runs over the columns — every job
//! begins by re-activating the set through the crate-internal
//! `activate_all` — and the caller reads the result back with
//! [`iter`](VertexSet::iter) or [`into_pairs`](VertexSet::into_pairs). Under
//! a spill cap the runner may seal a partition's columns to on-disk extents
//! for the duration of a job and rebuild them at the end (see
//! [`crate::spill`]).

use crate::fxhash::hash_one;
use crate::radix::SortKey;
use crate::vertex::VertexKey;

/// Sets or clears bit `slot` in a packed bitset.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], slot: usize, on: bool) {
    let (w, m) = (slot >> 6, 1u64 << (slot & 63));
    if on {
        words[w] |= m;
    } else {
        words[w] &= !m;
    }
}

/// Reads bit `slot` of a packed bitset (test-only counterpart of
/// [`set_bit`]: the engine reads halt state word-at-a-time instead).
#[cfg(test)]
#[inline]
pub(crate) fn get_bit(words: &[u64], slot: usize) -> bool {
    words[slot >> 6] & (1u64 << (slot & 63)) != 0
}

/// Number of `u64` words needed for `slots` bits.
#[inline]
fn words_for(slots: usize) -> usize {
    slots.div_ceil(64)
}

/// First index `>= lo` at which `ids[index] >= *target` (i.e. the lower
/// bound), assuming `ids` is sorted ascending and everything before `lo` is
/// `< *target`.
///
/// Tuned for a monotone cursor walking message runs against the ID column: a
/// short linear probe wins when the frontier is dense (the next run lands a
/// few slots ahead); past that it gallops (exponential steps, then a binary
/// search inside the final window), so sparse frontiers cost
/// `O(log distance)` per run instead of a full linear walk.
pub(crate) fn lower_bound_from<I: Ord>(ids: &[I], mut lo: usize, target: &I) -> usize {
    let n = ids.len();
    for _ in 0..8 {
        if lo >= n || ids[lo] >= *target {
            return lo;
        }
        lo += 1;
    }
    let mut step = 8usize;
    let mut hi = lo + step;
    while hi < n && ids[hi] < *target {
        lo = hi + 1;
        step <<= 1;
        hi = lo + step;
    }
    let hi = hi.min(n);
    lo + ids[lo..hi].partition_point(|x| x < target)
}

/// One partition of a [`VertexSet`]: parallel columns sorted by vertex ID.
///
/// Invariants: `ids` is strictly increasing; `values`, `stamps` and
/// `halted` (one bit per slot, all bits beyond the slot count zero) cover
/// exactly the slots of `ids`.
#[derive(Debug, Clone)]
pub(crate) struct Partition<I, V> {
    ids: Vec<I>,
    values: Vec<Option<V>>,
    halted: Vec<u64>,
    stamps: Vec<u32>,
}

/// Mutable view of a partition's columns, handed to the runner for the
/// duration of a compute phase. Field-level borrows let the delivery loop
/// hold a value `&mut` while flipping halt bits.
pub(crate) struct RunColumns<'a, I, V> {
    /// The sorted ID column.
    pub(crate) ids: &'a [I],
    /// The value column; every slot is `Some`.
    pub(crate) values: &'a mut [Option<V>],
    /// Halt bits, one per slot.
    pub(crate) halted: &'a mut [u64],
    /// Compute stamps, one per slot.
    pub(crate) stamps: &'a mut [u32],
}

impl<I: VertexKey + SortKey, V: Send> Partition<I, V> {
    /// A partition over already sorted, duplicate-free columns, every
    /// vertex active.
    fn from_columns(ids: Vec<I>, values: Vec<Option<V>>) -> Partition<I, V> {
        let len = ids.len();
        let part = Partition {
            ids,
            values,
            halted: vec![0; words_for(len)],
            stamps: vec![0; len],
        };
        part.debug_validate();
        part
    }

    /// Builds a partition from arbitrarily ordered pairs; later duplicates
    /// replace earlier ones. Sorts a narrow `(id, index)` key column with the
    /// radix plane, then gathers each winning payload once.
    fn from_unsorted(pairs: Vec<(I, V)>) -> Partition<I, V> {
        assert!(
            pairs.len() <= u32::MAX as usize,
            "a partition is capped at u32::MAX staged pairs"
        );
        // Pairs staged from an ascending key space arrive pre-sorted; skip
        // the sort and the duplicate merge outright.
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            let (ids, values) = pairs.into_iter().map(|(id, v)| (id, Some(v))).unzip();
            return Partition::from_columns(ids, values);
        }
        let mut keys: Vec<(I, u32)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i as u32))
            .collect();
        let mut scratch: Vec<(I, u32)> = Vec::new();
        crate::radix::sort_pairs(&mut keys, &mut scratch);
        let mut staged: Vec<Option<V>> = pairs.into_iter().map(|(_, v)| Some(v)).collect();
        let mut ids = Vec::with_capacity(keys.len());
        let mut values = Vec::with_capacity(keys.len());
        let mut it = keys.into_iter().peekable();
        while let Some((id, index)) = it.next() {
            // The sort is stable, so the last entry of an equal-ID run is the
            // latest pair — the one that wins.
            if it.peek().is_some_and(|(next, _)| *next == id) {
                continue;
            }
            ids.push(id);
            values.push(staged[index as usize].take());
        }
        Partition::from_columns(ids, values)
    }

    fn get(&self, id: &I) -> Option<&V> {
        let slot = self.ids.binary_search(id).ok()?;
        self.values[slot].as_ref()
    }

    /// `(id, value)` entries in ID order (IDs by value — [`VertexKey`] is
    /// `Copy`).
    fn iter(&self) -> impl Iterator<Item = (I, &V)> {
        self.ids
            .iter()
            .zip(&self.values)
            .filter_map(|(id, v)| v.as_ref().map(|v| (*id, v)))
    }

    /// Consumes the partition into its `(id, value)` pairs in ID order.
    fn into_entries(self) -> impl Iterator<Item = (I, V)> {
        self.ids
            .into_iter()
            .zip(self.values)
            .filter_map(|(id, v)| v.map(|v| (id, v)))
    }

    /// The columns, for the runner's compute phase.
    pub(crate) fn run_columns(&mut self) -> RunColumns<'_, I, V> {
        RunColumns {
            ids: &self.ids,
            values: &mut self.values,
            halted: &mut self.halted,
            stamps: &mut self.stamps,
        }
    }

    /// Drains the partition's columns into on-disk extents, leaving the
    /// columns empty; the runner computes against the returned seal one
    /// extent window at a time. On error the drained data is lost — the
    /// caller abandons the job with a spill error, and recovery goes through
    /// checkpoint/resume, not through the half-sealed store.
    pub(crate) fn seal_to(
        &mut self,
        dir: &std::sync::Arc<crate::spill::SpillDir>,
        part_index: usize,
        id_codec: crate::spill::Codec<I>,
        value_codec: crate::spill::Codec<V>,
    ) -> Result<crate::spill::PartSeal<I, V>, crate::spill::SpillError> {
        let mut seal = crate::spill::PartSeal::new(
            std::sync::Arc::clone(dir),
            part_index,
            id_codec,
            value_codec,
        );
        let ids = std::mem::take(&mut self.ids);
        let values = std::mem::take(&mut self.values);
        let words = std::mem::take(&mut self.halted);
        let stamps = std::mem::take(&mut self.stamps);
        seal.seal_slots(ids.into_iter().zip(values).zip(stamps).enumerate().map(
            |(slot, ((id, value), stamp))| {
                let halted = words
                    .get(slot >> 6)
                    .is_some_and(|w| (w >> (slot & 63)) & 1 == 1);
                (id, value, halted, stamp)
            },
        ))?;
        Ok(seal)
    }

    /// Rebuilds the partition's columns from a seal's extents (ascending ID
    /// order), restoring the halt bits and compute stamps each slot carried
    /// at its last writeback. The partition must be empty (it is —
    /// [`Partition::seal_to`] drained it).
    pub(crate) fn unseal_from(
        &mut self,
        seal: &mut crate::spill::PartSeal<I, V>,
    ) -> Result<(), crate::spill::SpillError> {
        debug_assert!(self.ids.is_empty(), "unsealing into a non-empty partition");
        let total = seal.total_slots();
        let mut ids = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        let mut stamps = Vec::with_capacity(total);
        let mut halted = vec![0u64; words_for(total)];
        seal.drain_slots(|id, value, h, stamp| {
            set_bit(&mut halted, ids.len(), h);
            ids.push(id);
            values.push(Some(value));
            stamps.push(stamp);
        })?;
        *self = Partition {
            ids,
            values,
            halted,
            stamps,
        };
        self.debug_validate();
        Ok(())
    }

    /// Estimated heap bytes held by the columns themselves (excluding any
    /// heap owned by the values).
    fn resident_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<I>()
            + self.values.capacity() * std::mem::size_of::<Option<V>>()
            + self.halted.capacity() * std::mem::size_of::<u64>()
            + self.stamps.capacity() * std::mem::size_of::<u32>()
    }

    /// Checks the documented partition invariants (debug builds only) — see
    /// the struct docs.
    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        let len = self.ids.len();
        assert_eq!(self.values.len(), len, "values column length != id count");
        assert_eq!(self.stamps.len(), len, "stamps column length != id count");
        assert_eq!(
            self.halted.len(),
            words_for(len),
            "halted bitset sized for the slot count"
        );
        let used = len % 64;
        if let (true, Some(&last)) = (used != 0, self.halted.last()) {
            assert_eq!(
                last & !((1u64 << used) - 1),
                0,
                "halt bits beyond the slot count must be zero"
            );
        }
        assert!(
            self.ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly increasing"
        );
    }

    /// Release builds: invariant checking compiles to nothing.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn debug_validate(&self) {}
}

/// A collection of vertices hash-partitioned over a fixed number of workers,
/// each partition a sorted columnar store (see the module docs).
#[derive(Debug, Clone)]
pub struct VertexSet<I, V> {
    pub(crate) parts: Vec<Partition<I, V>>,
}

impl<I: VertexKey + SortKey, V: Send> VertexSet<I, V> {
    /// Builds a vertex set partitioned over `workers` workers (at least one)
    /// from `(id, value)` pairs. Later duplicates replace earlier ones.
    pub fn from_pairs(workers: usize, pairs: impl IntoIterator<Item = (I, V)>) -> VertexSet<I, V> {
        let workers = workers.max(1);
        let mut staged: Vec<Vec<(I, V)>> = (0..workers).map(|_| Vec::new()).collect();
        for (id, value) in pairs {
            let w = (hash_one(&id) % workers as u64) as usize;
            staged[w].push((id, value));
        }
        VertexSet {
            parts: staged.into_iter().map(Partition::from_unsorted).collect(),
        }
    }

    /// The number of workers (partitions).
    pub fn workers(&self) -> usize {
        self.parts.len()
    }

    /// The worker that owns vertex `id`.
    #[inline]
    pub fn worker_of(&self, id: &I) -> usize {
        (hash_one(id) % self.parts.len() as u64) as usize
    }

    /// Total number of vertices.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.ids.len()).sum()
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared access to a vertex value (a binary search in its partition).
    pub fn get(&self, id: &I) -> Option<&V> {
        self.parts[self.worker_of(id)].get(id)
    }

    /// Iterates over `(id, value)` pairs. Within a partition the pairs
    /// stream in ID order; across partitions the order is unspecified. IDs
    /// are yielded by value ([`VertexKey`] is `Copy`).
    pub fn iter(&self) -> impl Iterator<Item = (I, &V)> {
        self.parts.iter().flat_map(|p| p.iter())
    }

    /// Consumes the set and returns all `(id, value)` pairs (order as per
    /// [`iter`](VertexSet::iter)).
    pub fn into_pairs(self) -> Vec<(I, V)> {
        self.parts
            .into_iter()
            .flat_map(|p| p.into_entries())
            .collect()
    }

    /// Estimated heap bytes held by the store's columns across all
    /// partitions. Counts the ID/value/halted/stamp arrays; heap owned by
    /// the values themselves (e.g. adjacency `Vec`s) is not visible from
    /// here.
    pub fn resident_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.resident_bytes()).sum()
    }

    /// Marks every vertex active and clears compute stamps (called at the
    /// start of a job).
    pub(crate) fn activate_all(&mut self) {
        for p in &mut self.parts {
            p.halted.fill(0);
            p.stamps.fill(0);
        }
        self.debug_validate();
    }

    /// Checks the documented column invariants of every partition in debug
    /// builds — strictly increasing sorted IDs, column lengths and bitset
    /// padding — panicking on the first violation. Runs at every build and
    /// at job start (`activate_all`); release builds compile it to nothing.
    #[inline]
    pub fn debug_validate(&self) {
        for p in &self.parts {
            p.debug_validate();
        }
    }

    /// The halt flag of a vertex, if it exists (testing hook: halt state is
    /// otherwise engine-internal).
    #[cfg(test)]
    pub(crate) fn halted_of(&self, id: &I) -> Option<bool> {
        let p = &self.parts[self.worker_of(id)];
        let slot = p.ids.binary_search(id).ok()?;
        Some(get_bit(&p.halted, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_is_consistent() {
        let s: VertexSet<u64, ()> = VertexSet::from_pairs(8, (0..1000).map(|i| (i, ())));
        assert_eq!(s.len(), 1000);
        for (id, _) in s.iter() {
            let w = s.worker_of(&id);
            assert!(s.parts[w].get(&id).is_some());
        }
        // every partition got something
        assert!(s.parts.iter().all(|p| !p.ids.is_empty()));
    }

    #[test]
    fn columns_stream_in_sorted_id_order() {
        let s: VertexSet<u64, u64> =
            VertexSet::from_pairs(3, (0..500).rev().map(|i| (i * 7 % 501, i)));
        for p in &s.parts {
            let ids: Vec<u64> = p.iter().map(|(id, _)| id).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "sorted, duplicate-free"
            );
        }
    }

    #[test]
    fn resident_bytes_tracks_the_columns() {
        let empty: VertexSet<u64, u64> = VertexSet::from_pairs(2, std::iter::empty());
        assert_eq!(empty.resident_bytes(), 0);
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..1000).map(|i| (i, i)));
        let bytes = s.resident_bytes();
        // At least the ID and value columns for 1000 vertices; far less
        // than a hash map with per-entry overhead would need.
        assert!(bytes >= 1000 * (8 + 16));
        assert!(bytes < 1000 * 64);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let s: VertexSet<u64, ()> = VertexSet::from_pairs(0, std::iter::empty());
        assert_eq!(s.workers(), 1);
    }

    #[test]
    fn lower_bound_from_galloping_matches_partition_point() {
        let ids: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        for lo in [0usize, 1, 100, 9_999, 10_000] {
            for target in [0u64, 1, 2, 3, 299, 300, 15_000, 29_997, 29_998, 50_000] {
                if lo <= ids.partition_point(|x| *x < target) {
                    assert_eq!(
                        lower_bound_from(&ids, lo, &target),
                        ids.partition_point(|x| *x < target),
                        "lo={lo} target={target}"
                    );
                }
            }
        }
        assert_eq!(lower_bound_from::<u64>(&[], 0, &5), 0);
    }

    #[test]
    fn bitset_helpers_round_trip() {
        let mut words = vec![0u64; 3];
        set_bit(&mut words, 0, true);
        set_bit(&mut words, 63, true);
        set_bit(&mut words, 64, true);
        set_bit(&mut words, 130, true);
        assert!(get_bit(&words, 0) && get_bit(&words, 63));
        assert!(get_bit(&words, 64) && get_bit(&words, 130));
        assert!(!get_bit(&words, 1) && !get_bit(&words, 129));
        set_bit(&mut words, 63, false);
        assert!(!get_bit(&words, 63));
        assert!(get_bit(&words, 0), "clearing one bit leaves the others");
    }

    use crate::fxhash::FxHashMap;
    use proptest::prelude::*;

    // The columnar store must answer exactly like a hash map built from the
    // same pairs: later duplicates win, lookups hit and miss alike, and the
    // contents round-trip. The shuffled build takes the radix sort and its
    // duplicate merge; the ascending rebuild takes the sorted fast path.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_store_matches_hash_oracle(
            seed in proptest::collection::vec((0u64..300, 0u64..1_000), 0..200),
            probes in proptest::collection::vec(0u64..320, 0..60),
            workers in 1usize..6,
        ) {
            let store: VertexSet<u64, u64> = VertexSet::from_pairs(workers, seed.clone());
            let mut oracle: FxHashMap<u64, u64> = FxHashMap::default();
            for (k, v) in seed {
                oracle.insert(k, v);
            }
            prop_assert_eq!(store.len(), oracle.len());
            for k in probes {
                prop_assert_eq!(store.get(&k), oracle.get(&k));
            }
            let mut got = store.into_pairs();
            got.sort_unstable();
            let mut expected: Vec<(u64, u64)> = oracle.into_iter().collect();
            expected.sort_unstable();
            prop_assert_eq!(&got, &expected);
            let rebuilt: VertexSet<u64, u64> = VertexSet::from_pairs(workers, got);
            let mut again = rebuilt.into_pairs();
            again.sort_unstable();
            prop_assert_eq!(again, expected);
        }
    }

    /// `debug_validate` holds through every phase a partition can reach:
    /// both bulk-build paths, a job start, and a halt state left by a job.
    #[test]
    fn debug_validate_accepts_every_lifecycle_phase() {
        // Sparse IDs (stride 3), built once in ascending order and once
        // shuffled with duplicates.
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..2000u64).map(|i| (i * 3, i)));
        s.debug_validate();
        let shuffled: VertexSet<u64, u64> =
            VertexSet::from_pairs(2, (0..4000u64).map(|i| (i * 7 % 2000 * 3, i)));
        shuffled.debug_validate();
        assert_eq!(shuffled.len(), 2000);

        // A job leaves halt bits set; the next job start clears them.
        for p in &mut s.parts {
            let n = p.ids.len();
            for slot in (0..n).step_by(5) {
                set_bit(&mut p.halted, slot, true);
            }
        }
        s.debug_validate();
        s.activate_all();
        assert!(s.iter().all(|(id, _)| s.halted_of(&id) == Some(false)));
    }
}
