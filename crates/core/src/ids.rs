//! Vertex identifiers: the 64-bit routing IDs of Figure 7 of the paper, and
//! the dense 32-bit ranks the contig-labeling jobs run on.
//!
//! PPA-assembler encodes everything it needs to know about a vertex's identity
//! into a single 64-bit integer so that message routing works on plain words:
//!
//! * **k-mer vertices** (Figure 7a): the 2-bit packed canonical k-mer sequence,
//!   right-aligned; for k ≤ 31 at most 62 bits are used and the top two bits
//!   are zero.
//! * **NULL** (Figure 7b): the dummy neighbour that marks a dead end; only the
//!   most significant bit is set.
//! * **contig vertices** (Figure 7c): the most significant bit is set and the
//!   remaining bits hold `worker ‖ ordinal`, because a contig's sequence can be
//!   arbitrarily long and cannot be embedded in the ID.
//!
//! Deviation from the paper: the paper gives the worker field 32 bits; here it
//! gets 30 bits (more than enough for any realistic worker count), which keeps
//! bit 62 of every contig ID clear. Contig ordinals also start at 1 so that no
//! contig ID equals NULL.
//!
//! Contig labeling only ever compares IDs for order, so its Pregel jobs run on
//! an `IdTable`: the sorted, deduplicated IDs of a graph's nodes and edge
//! neighbours, where a vertex's rank in the table is its `u32` job ID. The
//! renumbering is monotone, so "smallest ID" labels come out the same, and the
//! jobs shuffle half-width records.

use crate::node::AsmNode;
use ppa_pregel::fxhash::hash_one;
use ppa_pregel::{radix, ExecCtx};
use ppa_seq::{Kmer, SeqError};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// The dummy neighbour ID marking a dead end (Figure 7b).
pub const NULL_ID: u64 = 1 << 63;

/// Bit marking contig (and NULL) IDs.
const CONTIG_MARK: u64 = 1 << 63;

/// Number of bits for the contig ordinal.
const ORDINAL_BITS: u32 = 32;

/// Mask for the worker field of a contig ID (30 bits).
const WORKER_MASK: u64 = (1 << 30) - 1;

/// Builds the vertex ID of a canonical k-mer.
///
/// The caller is responsible for passing the *canonical* form; in debug builds
/// this is asserted.
#[inline]
pub fn kmer_id(kmer: &Kmer) -> u64 {
    debug_assert!(
        kmer.is_canonical(),
        "k-mer vertex IDs must encode the canonical form"
    );
    kmer.packed()
}

/// Reconstructs the k-mer encoded in a k-mer vertex ID.
pub fn kmer_from_id(id: u64, k: usize) -> Result<Kmer, SeqError> {
    Kmer::from_packed(id & !CONTIG_MARK, k)
}

/// Builds a contig vertex ID from the worker that created it and its ordinal
/// on that worker (1-based).
///
/// # Panics
///
/// Panics if `ordinal` is 0 (reserved so that no contig ID collides with
/// [`NULL_ID`]) or if `worker` exceeds the 30-bit field.
#[inline]
pub fn contig_id(worker: u32, ordinal: u32) -> u64 {
    assert!(
        ordinal > 0,
        "contig ordinals are 1-based to avoid colliding with NULL"
    );
    assert!(
        (worker as u64) <= WORKER_MASK,
        "worker index {worker} exceeds the 30-bit worker field"
    );
    CONTIG_MARK | ((worker as u64) << ORDINAL_BITS) | ordinal as u64
}

/// Extracts `(worker, ordinal)` from a contig ID.
#[inline]
pub fn contig_parts(id: u64) -> (u32, u32) {
    debug_assert!(is_contig_id(id));
    (
        ((id >> ORDINAL_BITS) & WORKER_MASK) as u32,
        (id & 0xFFFF_FFFF) as u32,
    )
}

/// Whether `id` is the NULL dummy neighbour.
#[inline]
pub fn is_null(id: u64) -> bool {
    id == NULL_ID
}

/// Whether `id` identifies a contig vertex.
#[inline]
pub fn is_contig_id(id: u64) -> bool {
    id & CONTIG_MARK != 0 && !is_null(id)
}

/// Whether `id` identifies a k-mer vertex.
#[inline]
pub fn is_kmer_id(id: u64) -> bool {
    id & CONTIG_MARK == 0
}

/// Renders an ID for debugging: `kmer:<packed>`, `contig:<worker>/<ordinal>`
/// or `NULL`.
pub fn describe(id: u64) -> String {
    if is_null(id) {
        "NULL".to_string()
    } else if is_contig_id(id) {
        let (w, o) = contig_parts(id);
        format!("contig:{w}/{o}")
    } else {
        format!("kmer:{id:#x}")
    }
}

/// A dense, order-preserving renumbering of a graph's vertex IDs: every node
/// ID and every real-edge neighbour ID, sorted and deduplicated. A vertex's
/// rank is its index in the table.
///
/// Neighbour IDs are included so that an edge into a vertex missing from the
/// node list still has a rank to address; messages to it are dropped by the
/// engine exactly as they were for its 64-bit ID.
pub(crate) struct IdTable {
    /// Sorted, strictly increasing.
    ids: Vec<u64>,
    /// Per rank: the index of its node in the slice the table was built from,
    /// or [`NOT_A_NODE`] for a neighbour missing from that slice.
    node: Vec<u32>,
    /// Bucket directory: the IDs of bucket `b`, i.e. those with
    /// `(id - ids[0]) >> shift == b`, are `ids[dir[b]..dir[b + 1]]`.
    dir: Vec<u32>,
    shift: u32,
    /// Set when [`rank`](IdTable::rank) was asked for an ID missing from the
    /// table.
    missed: AtomicBool,
}

const NOT_A_NODE: u32 = u32::MAX;

impl IdTable {
    /// The largest table the labeling jobs accept: ranks must leave bit 31
    /// free, because list ranking uses it as its contig-end flip bit.
    pub(crate) const MAX_LEN: usize = 1 << 31;

    /// Builds the table of `nodes` and maps every node through
    /// `f(table, rank, node)` on the context's pool. The results come back in
    /// ascending rank order (one run per worker), which lets
    /// `VertexSet::from_pairs` skip its sort. If an ID occurs on several
    /// nodes, the last one owns the rank, as in `VertexSet::from_pairs`.
    ///
    /// Node ranks need no lookup: every worker sorts the `(id, index)` keys of
    /// one chunk of nodes and the sorted runs are merged. Neighbour IDs are
    /// looked up by `f` through [`rank`](IdTable::rank). They are nearly
    /// always node IDs too, so the table starts from the node IDs alone; if
    /// `f` looks up an ID missing from it, the neighbours missing from
    /// `nodes` are added and `f` runs again.
    ///
    /// # Panics
    ///
    /// Panics if the graph has [`MAX_LEN`](IdTable::MAX_LEN) or more distinct
    /// IDs.
    pub(crate) fn map_graph<T: Send>(
        ctx: &ExecCtx,
        nodes: &[AsmNode],
        f: impl Fn(&IdTable, u32, &AsmNode) -> T + Sync,
    ) -> (IdTable, Vec<Vec<(u32, T)>>) {
        Self::check_len(nodes.len());
        // One contiguous chunk of nodes per worker, with its first index.
        let size = nodes.len().div_ceil(ctx.workers()).max(1);
        let chunks: Vec<(u32, &[AsmNode])> = (0..).step_by(size).zip(nodes.chunks(size)).collect();
        let runs = ctx
            .pool()
            .run_per_worker(chunks.clone(), |_, (first, chunk)| {
                let mut keyed: Vec<(u64, u32)> = (first..)
                    .zip(chunk)
                    .map(|(index, node)| (node.id, index))
                    .collect();
                radix::sort_pairs(&mut keyed, &mut Vec::new());
                keyed.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 = later.1;
                    }
                    same
                });
                keyed
            });
        let mut table = IdTable::from_sorted(merge_runs(runs));
        let mut mapped = table.map_nodes(ctx, nodes, &f);
        if table.missed.load(Ordering::Relaxed) {
            drop(mapped);
            let missing = ctx.pool().run_per_worker(chunks, |_, (_, chunk)| {
                let mut missing: Vec<(u64, u32)> = chunk
                    .iter()
                    .flat_map(|n| n.real_edges())
                    .filter(|e| table.get(e.neighbor).is_none())
                    .map(|e| (e.neighbor, NOT_A_NODE))
                    .collect();
                missing.sort_unstable();
                missing.dedup();
                missing
            });
            let mut runs = vec![table.ids.into_iter().zip(table.node).collect()];
            runs.extend(missing);
            table = IdTable::from_sorted(merge_runs(runs));
            mapped = table.map_nodes(ctx, nodes, &f);
        }
        (table, mapped)
    }

    /// Maps every node through `f` on the pool, one ascending rank range per
    /// worker.
    fn map_nodes<T: Send>(
        &self,
        ctx: &ExecCtx,
        nodes: &[AsmNode],
        f: &(impl Fn(&IdTable, u32, &AsmNode) -> T + Sync),
    ) -> Vec<Vec<(u32, T)>> {
        let len = self.len() as u32;
        let step = len.div_ceil(ctx.workers() as u32).max(1);
        let ranges: Vec<Range<u32>> = (0..len)
            .step_by(step as usize)
            .map(|start| start..(start + step).min(len))
            .collect();
        ctx.pool().run_per_worker(ranges, |_, ranges| {
            ranges
                .filter_map(|rank| Some((rank, f(self, rank, &nodes[self.node(rank)?]))))
                .collect()
        })
    }

    fn check_len(len: usize) {
        assert!(
            len < Self::MAX_LEN,
            "contig labeling supports fewer than 2^31 distinct vertex IDs, got {len}"
        );
    }

    /// Builds the table from `(id, node index)` pairs sorted by strictly
    /// increasing ID.
    fn from_sorted(keyed: Vec<(u64, u32)>) -> IdTable {
        Self::check_len(keyed.len());
        debug_assert!(keyed.windows(2).all(|w| w[0].0 < w[1].0));
        let (ids, node): (Vec<u64>, Vec<u32>) = keyed.into_iter().unzip();
        let (Some(&lo), Some(&hi)) = (ids.first(), ids.last()) else {
            return IdTable {
                ids,
                node,
                dir: vec![0],
                shift: 0,
                missed: AtomicBool::new(false),
            };
        };
        // About eight IDs (one cache line) per bucket: 2^bits buckets cover
        // the span hi - lo. At least two buckets keep the shift below 64.
        let bits = ids
            .len()
            .next_power_of_two()
            .trailing_zeros()
            .saturating_sub(3)
            .max(1);
        let span_bits = u64::BITS - (hi - lo).leading_zeros();
        let shift = span_bits.saturating_sub(bits);
        let mut dir = Vec::with_capacity((((hi - lo) >> shift) + 2) as usize);
        for (i, &id) in ids.iter().enumerate() {
            let b = ((id - lo) >> shift) as usize;
            while dir.len() <= b {
                dir.push(i as u32);
            }
        }
        dir.push(ids.len() as u32);
        IdTable {
            ids,
            node,
            dir,
            shift,
            missed: AtomicBool::new(false),
        }
    }

    /// The number of ranks.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The ID of rank `rank`.
    #[inline]
    pub(crate) fn id(&self, rank: u32) -> u64 {
        self.ids[rank as usize]
    }

    /// The index, in the slice the table was built from, of the node that
    /// has rank `rank`; `None` for a neighbour missing from that slice.
    #[inline]
    fn node(&self, rank: u32) -> Option<usize> {
        let index = self.node[rank as usize];
        (index != NOT_A_NODE).then_some(index as usize)
    }

    /// The rank of `id`, if it is in the table.
    #[inline]
    fn get(&self, id: u64) -> Option<u32> {
        let base = self.ids.first().copied().unwrap_or(0);
        let b = (id.wrapping_sub(base) >> self.shift) as usize;
        let (&lo, &hi) = (self.dir.get(b)?, self.dir.get(b + 1)?);
        let i = self.ids[lo as usize..hi as usize].binary_search(&id).ok()?;
        Some(lo + i as u32)
    }

    /// The rank of `id`, a node or neighbour ID of the graph the table was
    /// built from. An ID missing from the table yields rank 0 and marks the
    /// table, so that [`map_graph`](IdTable::map_graph) discards the results
    /// and completes the table.
    #[inline]
    pub(crate) fn rank(&self, id: u64) -> u32 {
        self.get(id).unwrap_or_else(|| {
            self.missed.store(true, Ordering::Relaxed);
            0
        })
    }

    /// Collects `keep(rank, id)` over every rank, in the order a
    /// `VertexSet<u64, _>` of `workers` partitions iterates those IDs:
    /// partition `hash_one(id) % workers` first, then ascending ID. One
    /// ascending pass over the ranks appends to per-partition buckets.
    pub(crate) fn in_partition_order<T>(
        &self,
        workers: usize,
        mut keep: impl FnMut(u32, u64) -> Option<T>,
    ) -> Vec<T> {
        let workers = workers.max(1);
        let mut buckets: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
        for (rank, &id) in (0..).zip(&self.ids) {
            if let Some(item) = keep(rank, id) {
                buckets[(hash_one(&id) % workers as u64) as usize].push(item);
            }
        }
        let mut out = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
        for bucket in buckets {
            out.extend(bucket);
        }
        out
    }
}

/// Merges runs sorted by strictly increasing ID into one such run, pairing
/// neighbouring runs level by level. On an ID present in two runs the later
/// run's entry wins.
fn merge_runs(mut runs: Vec<Vec<(u64, u32)>>) -> Vec<(u64, u32)> {
    while runs.len() > 1 {
        let mut level = runs.into_iter();
        let mut merged = Vec::new();
        while let Some(a) = level.next() {
            merged.push(match level.next() {
                Some(b) => merge_two(&a, &b),
                None => a,
            });
        }
        runs = merged;
    }
    runs.pop().unwrap_or_default()
}

fn merge_two(a: &[(u64, u32)], b: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        if x.0 < y.0 {
            out.push(x);
            i += 1;
        } else {
            out.push(y);
            i += usize::from(x.0 == y.0);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_pregel::VertexSet;
    use ppa_seq::Kmer;

    #[test]
    fn kmer_id_matches_packed_encoding() {
        // Figure 7(a): "ATTGC" → 00 11 11 10 01.
        let k = Kmer::from_str_exact("ATTGC").unwrap();
        assert!(k.is_canonical());
        let id = kmer_id(&k);
        assert_eq!(id, 0b00_11_11_10_01);
        assert!(is_kmer_id(id));
        assert!(!is_contig_id(id));
        assert!(!is_null(id));
        assert_eq!(kmer_from_id(id, 5).unwrap(), k);
    }

    #[test]
    fn null_id_is_msb_only() {
        assert_eq!(NULL_ID, 0x8000_0000_0000_0000);
        assert!(is_null(NULL_ID));
        assert!(!is_kmer_id(NULL_ID));
        assert!(!is_contig_id(NULL_ID));
    }

    #[test]
    fn contig_ids_combine_worker_and_ordinal() {
        let id = contig_id(3, 17);
        assert!(is_contig_id(id));
        assert!(!is_kmer_id(id));
        assert!(!is_null(id));
        assert_eq!(contig_parts(id), (3, 17));
        // Distinct workers/ordinals give distinct IDs.
        assert_ne!(contig_id(3, 18), id);
        assert_ne!(contig_id(4, 17), id);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn contig_ordinal_zero_rejected() {
        contig_id(0, 0);
    }

    #[test]
    fn contig_ids_leave_bit_62_clear() {
        let c = contig_id(WORKER_MASK as u32, u32::MAX);
        assert_eq!(c & (1 << 62), 0);
        assert!(is_contig_id(c));
    }

    #[test]
    fn id_spaces_are_disjoint() {
        let kmer = kmer_id(&Kmer::from_str_exact("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA").unwrap());
        let contig = contig_id(0, 1);
        assert!(is_kmer_id(kmer) && !is_contig_id(kmer));
        assert!(is_contig_id(contig) && !is_kmer_id(contig));
        assert_ne!(contig, NULL_ID);
        assert_ne!(kmer, NULL_ID);
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(describe(NULL_ID), "NULL");
        assert!(describe(contig_id(2, 9)).contains("contig:2/9"));
        let k = kmer_id(&Kmer::from_str_exact("ACGT").unwrap());
        assert_eq!(describe(k), format!("kmer:{k:#x}"));
    }

    /// A node with an arbitrary ID and one edge per neighbour.
    fn node(id: u64, neighbors: &[u64]) -> AsmNode {
        use crate::node::Edge;
        use crate::polarity::{Direction, Polarity};
        let mut node = AsmNode::new_kmer(Kmer::from_str_exact("ACGTA").unwrap());
        node.id = id;
        for &neighbor in neighbors {
            node.push_edge(Edge {
                neighbor,
                direction: Direction::Out,
                polarity: Polarity::LL,
                coverage: 1,
            });
        }
        node
    }

    /// `(rank, id, neighbour ranks)` for every node, as `map_graph` returns
    /// them.
    fn ranked(ctx: &ExecCtx, nodes: &[AsmNode]) -> (IdTable, Vec<(u32, u64, Vec<u32>)>) {
        let (table, mapped) = IdTable::map_graph(ctx, nodes, |table, _, node| {
            let nbrs: Vec<u32> = node.real_edges().map(|e| table.rank(e.neighbor)).collect();
            (node.id, nbrs)
        });
        let flat = mapped
            .into_iter()
            .flatten()
            .map(|(rank, (id, nbrs))| (rank, id, nbrs))
            .collect();
        (table, flat)
    }

    #[test]
    fn ranks_follow_id_order_across_kmer_and_contig_ids() {
        let contig = contig_id(1, 4);
        let nodes = vec![
            node(50, &[10, contig]),
            node(contig, &[50]),
            node(10, &[50]),
            node(30, &[]),
        ];
        for workers in [1, 2, 3, 7] {
            let (table, got) = ranked(&ExecCtx::new(workers), &nodes);
            assert_eq!(table.ids, vec![10, 30, 50, contig]);
            assert_eq!(
                got,
                vec![
                    (0, 10, vec![2]),
                    (1, 30, vec![]),
                    (2, 50, vec![0, 3]),
                    (3, contig, vec![2]),
                ],
                "workers = {workers}"
            );
            assert!(!table.missed.load(Ordering::Relaxed));
            for (rank, id) in (0..).zip([10, 30, 50, contig]) {
                assert_eq!(table.rank(id), rank);
                assert_eq!(table.id(rank), id);
            }
        }
    }

    #[test]
    fn neighbours_missing_from_the_nodes_get_ranks_of_their_own() {
        let nodes = vec![node(40, &[20, 60]), node(10, &[40, 20])];
        for workers in [1, 2, 3] {
            let (table, got) = ranked(&ExecCtx::new(workers), &nodes);
            assert_eq!(table.ids, vec![10, 20, 40, 60]);
            assert_eq!(table.node(1), None, "20 is only a neighbour");
            assert_eq!(table.node(3), None, "60 is only a neighbour");
            assert_eq!(table.node(2), Some(0));
            assert_eq!(got, vec![(0, 10, vec![2, 1]), (2, 40, vec![1, 3])]);
        }
    }

    #[test]
    fn a_duplicated_node_id_keeps_the_last_node() {
        // The first node 7 is replaced, so its edge to 1 plays no part.
        let nodes = vec![node(7, &[1]), node(3, &[]), node(7, &[3])];
        for workers in [1, 2, 3] {
            let (table, got) = ranked(&ExecCtx::new(workers), &nodes);
            assert_eq!(table.ids, vec![3, 7]);
            assert_eq!(got, vec![(0, 3, vec![]), (1, 7, vec![0])]);
        }
    }

    #[test]
    fn empty_graph_gives_an_empty_table() {
        let (table, got) = ranked(&ExecCtx::new(2), &[]);
        assert_eq!(table.len(), 0);
        assert!(got.is_empty());
        assert!(table.in_partition_order(2, |_, id| Some(id)).is_empty());
    }

    #[test]
    fn partition_order_matches_a_u64_vertex_set() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let nodes: Vec<AsmNode> = (0..2_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                node(x >> 2, &[])
            })
            .collect();
        for workers in [1, 2, 3, 7] {
            let (table, _) = ranked(&ExecCtx::new(workers), &nodes);
            let set = VertexSet::from_pairs(workers, nodes.iter().map(|n| (n.id, ())));
            let expected: Vec<u64> = set.iter().map(|(id, _)| id).collect();
            // Every other rank only: the order must hold for any subset.
            let got = table.in_partition_order(workers, |rank, id| (rank % 2 == 0).then_some(id));
            let expected_even: Vec<u64> = expected
                .iter()
                .copied()
                .filter(|&id| table.rank(id) % 2 == 0)
                .collect();
            assert_eq!(got, expected_even, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "fewer than 2^31 distinct vertex IDs")]
    fn tables_of_2_pow_31_ids_are_refused() {
        IdTable::check_len(IdTable::MAX_LEN);
    }
}
