//! Operation ② — contig labeling via **bidirectional list ranking** (the BPPA
//! of Section IV-B, Figure 11).
//!
//! The goal is to mark every vertex of each *maximal unambiguous path* with a
//! unique label so that the contig-merging operation can group them. The
//! algorithm:
//!
//! 1. **Superstep 0** — every ambiguous (⟨m-n⟩) vertex broadcasts its ID to its
//!    neighbours and votes to halt for good.
//! 2. **Superstep 1** — every unambiguous vertex initialises its *ID pair*: one
//!    pointer per side, holding the neighbour on that side, or its own ID with
//!    the *flip* bit set when that side has no unambiguous neighbour (i.e. the
//!    vertex is a contig end on that side). It then sends a request along every
//!    unfinished pointer.
//! 3. **Doubling rounds** — requests (odd supersteps) and responses (even
//!    supersteps) alternate; each response carries the responder's *other*
//!    pointer, so the distance covered by every pointer doubles per round. A
//!    pointer is finished once it holds a flipped contig-end ID.
//!    `O(log ℓ_max)` rounds suffice.
//! 4. **Cycle fallback** — an unambiguous cycle never reaches a contig end.
//!    Every path vertex finishes within the BPPA's `O(log n)` superstep budget,
//!    so if unfinished vertices remain once that budget is exhausted they must
//!    lie on cycles; the job stops and the remaining vertices are labelled by
//!    the simplified S-V algorithm (the smallest vertex ID in the cycle),
//!    exactly as the paper prescribes.
//!
//! The final label of a vertex is the smaller of its two contig-end IDs.
//!
//! **Dense job IDs.** The job never routes by the 64-bit k-mer IDs. It runs on
//! the vertices' ranks in an `IdTable` (a monotone renumbering, so every
//! "smaller ID" comparison comes out the same), with bit 31 of a rank as the
//! flip bit. A message record is then 16 bytes instead of 32, and its dense
//! keys sort in fewer radix passes. The results are mapped back to 64-bit IDs
//! in the order a `u64`-keyed vertex set would have produced them, which
//! contig merging depends on.

use crate::ids::IdTable;
use crate::node::{AsmNode, VertexType};
use crate::polarity::Side;
use ppa_pregel::aggregate::Count;
use ppa_pregel::algorithms::connected_components;
use ppa_pregel::{Context, ExecCtx, Metrics, SpillCodec, SpillCodecs, VertexProgram, VertexSet};
use std::sync::atomic::{AtomicBool, Ordering};

/// Result of a contig-labeling run (either algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelOutcome {
    /// `(vertex id, label)` for every unambiguous vertex. Vertices sharing a
    /// label belong to the same maximal unambiguous path (or cycle).
    pub labels: Vec<(u64, u64)>,
    /// IDs of ambiguous (⟨m-n⟩) vertices, which receive no label.
    pub ambiguous: Vec<u64>,
    /// Combined Pregel metrics of the labeling (including the S-V cycle
    /// fallback if it ran).
    pub metrics: Metrics,
    /// Whether the S-V fallback was needed (unambiguous cycles present).
    pub used_cycle_fallback: bool,
}

/// Superstep cap of the labeling jobs (either algorithm). Both finish in
/// `O(log n)` supersteps, so the cap is only a guard against a runaway job.
pub(crate) const MAX_SUPERSTEPS: usize = 4_000;

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// Marks a pointer that has reached a contig end. Ranks stay below 2^31
/// ([`IdTable::MAX_LEN`]), so the bit is free.
const FLIP: u32 = 1 << 31;

#[inline]
fn flip(rank: u32) -> u32 {
    rank | FLIP
}

#[inline]
fn unflip(rank: u32) -> u32 {
    rank & !FLIP
}

#[inline]
fn is_flipped(rank: u32) -> bool {
    rank & FLIP != 0
}

/// Per-vertex state of the list-ranking program (all IDs are ranks).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LrState {
    vtype: VertexType,
    /// Neighbour on each side (`[left, right]`), if any.
    neighbor: [Option<u32>; 2],
    /// All neighbours — used by ambiguous vertices for the superstep-0
    /// broadcast (an ⟨m-n⟩ vertex can have more than one neighbour per side).
    broadcast: Vec<u32>,
    /// Current pointer per side; flipped ranks mark a reached contig end.
    ptr: [u32; 2],
    /// Whether the pointer on each side has reached a contig end.
    done: [bool; 2],
}

impl LrState {
    fn fully_done(&self) -> bool {
        self.done[0] && self.done[1]
    }
}

// Spill codecs for the labeling job's state and messages, so list ranking can
// opt into the engine's out-of-core execution (partition sealing and shuffle
// run spilling) when a `SpillPolicy` cap is installed. Per the panic-free
// codec contract, `decode` rejects malformed input with `None`.

impl SpillCodec for LrState {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.vtype as u8).encode(buf);
        for n in &self.neighbor {
            match n {
                Some(id) => {
                    1u8.encode(buf);
                    id.encode(buf);
                }
                None => 0u8.encode(buf),
            }
        }
        (self.broadcast.len() as u64).encode(buf);
        for id in &self.broadcast {
            id.encode(buf);
        }
        for p in &self.ptr {
            p.encode(buf);
        }
        for d in &self.done {
            d.encode(buf);
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let vtype = match u8::decode(buf)? {
            0 => VertexType::Isolated,
            1 => VertexType::One,
            2 => VertexType::OneOne,
            3 => VertexType::Branch,
            _ => return None,
        };
        let mut neighbor = [None, None];
        for slot in &mut neighbor {
            *slot = match u8::decode(buf)? {
                0 => None,
                1 => Some(u32::decode(buf)?),
                _ => return None,
            };
        }
        let len = u64::decode(buf)? as usize;
        if buf.len() < len.checked_mul(4)? {
            return None;
        }
        let mut broadcast = Vec::with_capacity(len);
        for _ in 0..len {
            broadcast.push(u32::decode(buf)?);
        }
        let ptr = [u32::decode(buf)?, u32::decode(buf)?];
        let done = [bool::decode(buf)?, bool::decode(buf)?];
        Some(LrState {
            vtype,
            neighbor,
            broadcast,
            ptr,
            done,
        })
    }
}

impl SpillCodec for LrMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            LrMsg::Ambiguous(id) => {
                0u8.encode(buf);
                id.encode(buf);
            }
            LrMsg::Request(id) => {
                1u8.encode(buf);
                id.encode(buf);
            }
            LrMsg::Response { responder, other } => {
                2u8.encode(buf);
                responder.encode(buf);
                other.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(LrMsg::Ambiguous(u32::decode(buf)?)),
            1 => Some(LrMsg::Request(u32::decode(buf)?)),
            2 => Some(LrMsg::Response {
                responder: u32::decode(buf)?,
                other: u32::decode(buf)?,
            }),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum LrMsg {
    /// Superstep 0: "I am ambiguous" broadcast (carries the sender ID).
    Ambiguous(u32),
    /// "Send me your other pointer" (carries the requester ID).
    Request(u32),
    /// Reply to a request: the responder's ID and its other pointer.
    Response { responder: u32, other: u32 },
}

struct LrProgram {
    /// Superstep budget: `2⌈log₂(n+1)⌉ + slack`. Any vertex on a path finishes
    /// within this many supersteps; unfinished vertices past the budget are on
    /// cycles.
    superstep_budget: usize,
    stalled: AtomicBool,
}

impl LrProgram {
    fn new(num_vertices: usize) -> LrProgram {
        let log = (usize::BITS - num_vertices.next_power_of_two().leading_zeros()) as usize;
        LrProgram {
            superstep_budget: 2 * (log + 2) + 4,
            stalled: AtomicBool::new(false),
        }
    }
}

impl VertexProgram for LrProgram {
    type Id = u32;
    type Value = LrState;
    type Message = LrMsg;
    type Aggregate = Count;

    fn spill_codecs() -> Option<SpillCodecs<Self>> {
        Some(SpillCodecs::new())
    }

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u32,
        value: &mut LrState,
        messages: &mut [LrMsg],
    ) {
        let superstep = ctx.superstep();
        if superstep == 0 {
            if value.vtype == VertexType::Branch {
                for i in 0..value.broadcast.len() {
                    let n = value.broadcast[i];
                    ctx.send_message(n, LrMsg::Ambiguous(id));
                }
                // Ambiguous vertices take no further part; unambiguous ones
                // stay active so that superstep 1 initialises them.
                ctx.vote_to_halt();
            }
            return;
        }

        if value.vtype == VertexType::Branch {
            ctx.vote_to_halt();
            return;
        }

        if superstep == 1 {
            // Initialise the ID pair from the superstep-0 broadcasts.
            for side in [LEFT, RIGHT] {
                match value.neighbor[side] {
                    Some(n)
                        if !messages
                            .iter()
                            .any(|m| matches!(m, LrMsg::Ambiguous(a) if *a == n)) =>
                    {
                        value.ptr[side] = n;
                        value.done[side] = false;
                    }
                    _ => {
                        value.ptr[side] = flip(id);
                        value.done[side] = true;
                    }
                }
            }
        } else {
            // Responses first: requests are answered from the post-update
            // snapshot (requests and responses arrive in different supersteps,
            // so the order only matters for robustness, not semantics).
            for msg in messages.iter() {
                if let LrMsg::Response { responder, other } = msg {
                    for side in [LEFT, RIGHT] {
                        if !value.done[side] && value.ptr[side] == *responder {
                            value.ptr[side] = *other;
                            if is_flipped(*other) {
                                value.done[side] = true;
                            }
                        }
                    }
                }
            }
        }

        // Answer requests: hand out the pointer that does not lead back to the
        // requester. Because every pointer advances in lockstep (one doubling
        // per round), exactly one of the two pointers leads back to the
        // requester — see the module documentation.
        for msg in messages.iter() {
            let LrMsg::Request(from) = msg else {
                continue;
            };
            let from = *from;
            let left_matches = unflip(value.ptr[LEFT]) == from;
            let right_matches = unflip(value.ptr[RIGHT]) == from;
            let reply = match (left_matches, right_matches) {
                (true, false) => Some(value.ptr[RIGHT]),
                (false, true) => Some(value.ptr[LEFT]),
                (true, true) => None, // 2-cycle: no direction leads away.
                (false, false) => {
                    // Defensive: should not happen for well-formed paths;
                    // prefer a finished pointer so the requester terminates.
                    Some(if is_flipped(value.ptr[LEFT]) {
                        value.ptr[LEFT]
                    } else {
                        value.ptr[RIGHT]
                    })
                }
            };
            if let Some(other) = reply {
                ctx.send_message(
                    from,
                    LrMsg::Response {
                        responder: id,
                        other,
                    },
                );
            }
        }

        // Request phase on odd supersteps.
        if superstep % 2 == 1 && !value.fully_done() {
            ctx.aggregate(Count(1));
            for side in [LEFT, RIGHT] {
                if !value.done[side] {
                    ctx.send_message(value.ptr[side], LrMsg::Request(id));
                }
            }
        }
        ctx.vote_to_halt();
    }

    fn should_terminate(&self, aggregate: &Count, superstep: usize) -> bool {
        // Only request phases (odd supersteps) carry the unfinished count.
        if superstep.is_multiple_of(2) {
            return false;
        }
        if superstep >= self.superstep_budget && aggregate.0 > 0 {
            // Path vertices are guaranteed to finish within the budget, so the
            // remaining unfinished vertices lie on unambiguous cycles.
            self.stalled.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// The labeling state of one node. Ambiguous vertices keep all their
/// neighbours for the superstep-0 broadcast; the others only need the sole
/// neighbour per side.
fn lr_state(table: &IdTable, rank: u32, node: &AsmNode) -> LrState {
    let vtype = node.vertex_type();
    let side = |s| node.sole_edge_on(s).map(|e| table.rank(e.neighbor));
    let broadcast = if vtype == VertexType::Branch {
        node.real_edges().map(|e| table.rank(e.neighbor)).collect()
    } else {
        vec![]
    };
    LrState {
        vtype,
        neighbor: [side(Side::Left), side(Side::Right)],
        broadcast,
        ptr: [flip(rank), flip(rank)],
        done: [true, true],
    }
}

/// What list ranking concluded about one rank of the ID table.
#[derive(Clone, Copy)]
enum Outcome {
    /// Not a node: the rank of an edge neighbour missing from the node list.
    Absent,
    Ambiguous,
    /// Still unfinished when the job stopped: goes to the cycle fallback.
    Unresolved,
    /// Labelled by list ranking.
    Path(u32),
    /// Labelled by the cycle fallback.
    Cycle(u32),
}

/// Labels every maximal unambiguous path using bidirectional list ranking,
/// falling back to the simplified S-V algorithm for unambiguous cycles.
/// The list-ranking job and its S-V cycle fallback both run on the worker
/// pool of `ctx` (worker count = pool size).
pub fn label_contigs_lr(ctx: &ExecCtx, nodes: &[AsmNode]) -> LabelOutcome {
    let workers = ctx.workers();
    let program = LrProgram::new(nodes.len());
    let (table, states) = IdTable::map_graph(ctx, nodes, lr_state);
    let mut set: VertexSet<u32, LrState> =
        VertexSet::from_pairs(workers, states.into_iter().flatten());

    let mut metrics = ppa_pregel::run(ctx, &program, &mut set, MAX_SUPERSTEPS);
    let stalled = program.stalled.load(Ordering::Relaxed);

    let mut outcome = vec![Outcome::Absent; table.len()];
    let mut unresolved: Vec<(u32, [Option<u32>; 2])> = Vec::new();
    for (rank, state) in set.iter() {
        outcome[rank as usize] = match state.vtype {
            VertexType::Branch => Outcome::Ambiguous,
            _ if state.fully_done() => {
                Outcome::Path(unflip(state.ptr[LEFT]).min(unflip(state.ptr[RIGHT])))
            }
            _ => {
                unresolved.push((rank, state.neighbor));
                Outcome::Unresolved
            }
        };
    }
    drop(set);

    // S-V fallback for unambiguous cycles (and any vertex the stall left
    // unresolved): label each with the smallest vertex ID of its component.
    let used_cycle_fallback = stalled || !unresolved.is_empty();
    if !unresolved.is_empty() {
        let adjacency: Vec<(u32, Vec<u32>)> = unresolved
            .into_iter()
            .map(|(rank, neighbor)| {
                let nbrs = neighbor
                    .into_iter()
                    .flatten()
                    .filter(|&n| matches!(outcome[n as usize], Outcome::Unresolved))
                    .collect();
                (rank, nbrs)
            })
            .collect();
        let (cc, sv_metrics) = connected_components(ctx, adjacency, MAX_SUPERSTEPS);
        metrics.absorb(&sv_metrics);
        for (rank, label) in cc {
            outcome[rank as usize] = Outcome::Cycle(label);
        }
    }

    // Path labels, then cycle labels, each in `u64` partition order.
    let mut labels = table.in_partition_order(workers, |rank, id| match outcome[rank as usize] {
        Outcome::Path(label) => Some((id, table.id(label))),
        _ => None,
    });
    if used_cycle_fallback {
        labels.extend(
            table.in_partition_order(workers, |rank, id| match outcome[rank as usize] {
                Outcome::Cycle(label) => Some((id, table.id(label))),
                _ => None,
            }),
        );
    }
    let ambiguous = table.in_partition_order(workers, |rank, id| {
        matches!(outcome[rank as usize], Outcome::Ambiguous).then_some(id)
    });

    LabelOutcome {
        labels,
        ambiguous,
        metrics,
        used_cycle_fallback,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ids::kmer_id;
    use crate::node::Edge;
    use crate::ops::construct::{build_dbg, ConstructConfig};
    use crate::polarity::{Direction, Polarity};
    use ppa_readsim::{GenomeConfig, ReadSimConfig};
    use ppa_seq::{FastxRecord, Kmer, ReadSet};
    use std::collections::{HashMap, HashSet};

    pub(crate) fn nodes_from_reads(seqs: &[&str], k: usize) -> Vec<AsmNode> {
        let reads = ReadSet::from_records(
            seqs.iter()
                .enumerate()
                .map(|(i, s)| FastxRecord::new_fasta(format!("r{i}"), s.as_bytes().to_vec()))
                .collect(),
        );
        build_dbg(
            &ExecCtx::new(2),
            &reads,
            &ConstructConfig {
                k,
                min_coverage: 0,
                batch_size: 4,
            },
        )
        .into_nodes()
    }

    /// Groups labels into sets of vertex IDs.
    pub(crate) fn groups_of(outcome: &LabelOutcome) -> Vec<HashSet<u64>> {
        let mut by_label: HashMap<u64, HashSet<u64>> = HashMap::new();
        for (id, label) in &outcome.labels {
            by_label.entry(*label).or_default().insert(*id);
        }
        by_label.into_values().collect()
    }

    /// Union-find oracle over unambiguous vertices only.
    pub(crate) fn unambiguous_component_oracle(nodes: &[AsmNode]) -> Vec<Vec<u64>> {
        let unambiguous: HashSet<u64> = nodes
            .iter()
            .filter(|n| n.vertex_type() != VertexType::Branch)
            .map(|n| n.id)
            .collect();
        let mut parent: HashMap<u64, u64> = unambiguous.iter().map(|&v| (v, v)).collect();
        fn find(parent: &mut HashMap<u64, u64>, x: u64) -> u64 {
            let p = parent[&x];
            if p == x {
                x
            } else {
                let r = find(parent, p);
                parent.insert(x, r);
                r
            }
        }
        for n in nodes {
            if !unambiguous.contains(&n.id) {
                continue;
            }
            for e in n.real_edges() {
                if unambiguous.contains(&e.neighbor) {
                    let (a, b) = (find(&mut parent, n.id), find(&mut parent, e.neighbor));
                    if a != b {
                        parent.insert(a.max(b), a.min(b));
                    }
                }
            }
        }
        let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
        for &v in &unambiguous {
            groups.entry(find(&mut parent, v)).or_default().push(v);
        }
        let mut out: Vec<Vec<u64>> = groups
            .into_values()
            .map(|mut g| {
                g.sort_unstable();
                g
            })
            .collect();
        out.sort();
        out
    }

    pub(crate) fn groups_sorted(outcome: &LabelOutcome) -> Vec<Vec<u64>> {
        let mut got: Vec<Vec<u64>> = groups_of(outcome)
            .iter()
            .map(|g| {
                let mut v: Vec<u64> = g.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        got.sort();
        got
    }

    #[test]
    fn single_path_gets_one_label() {
        // Figure 9 / 11: the seven-vertex path has no ambiguous vertex, so all
        // seven vertices share one label.
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        assert_eq!(nodes.len(), 7);
        let outcome = label_contigs_lr(&ExecCtx::new(3), &nodes);
        assert!(outcome.ambiguous.is_empty());
        assert_eq!(outcome.labels.len(), 7);
        let groups = groups_of(&outcome);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 7);
        assert!(!outcome.used_cycle_fallback);
        assert!(outcome.metrics.converged);
        // Doubling: 7 vertices need ~3 rounds of 2 supersteps plus setup.
        assert!(
            outcome.metrics.supersteps <= 14,
            "supersteps = {}",
            outcome.metrics.supersteps
        );
        // The label is the smaller of the two end IDs (paper: "the smaller
        // contig-end vertex's ID").
        let end_ids: Vec<u64> = nodes
            .iter()
            .filter(|n| n.vertex_type() == VertexType::One)
            .map(|n| n.id)
            .collect();
        let expected_label = *end_ids.iter().min().unwrap();
        assert!(outcome.labels.iter().all(|(_, l)| *l == expected_label));
    }

    #[test]
    fn fork_splits_labels_at_ambiguous_vertex() {
        // Two reads diverge after a shared prefix; the fork vertex is ⟨m-n⟩ and
        // must not be labelled, and the branches get distinct labels.
        let nodes = nodes_from_reads(&["TTACTTGATCCG", "TTACTTGAACGG"], 5);
        let outcome = label_contigs_lr(&ExecCtx::new(2), &nodes);
        assert!(
            !outcome.ambiguous.is_empty(),
            "the fork must create ambiguous vertices"
        );
        let groups = groups_of(&outcome);
        assert!(
            groups.len() >= 2,
            "expected at least two labelled paths, got {}",
            groups.len()
        );
        // Labels plus ambiguous vertices cover every vertex exactly once.
        let labelled: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(labelled + outcome.ambiguous.len(), nodes.len());
        // Groups must match the connected components of the unambiguous subgraph.
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
    }

    #[test]
    fn labels_agree_with_connected_components_oracle() {
        let nodes = nodes_from_reads(
            &[
                "ACCTGACCGTTAGCAT",
                "TTAGCATCCGGATACC",
                "GGATACCACCTGACC",
                "TGCTAAGGTATCCGGA",
            ],
            5,
        );
        let outcome = label_contigs_lr(&ExecCtx::new(3), &nodes);
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
    }

    /// Builds a synthetic ring of `n` unambiguous vertices (each with one edge
    /// per side), which is exactly the case that defeats list ranking.
    pub(crate) fn synthetic_cycle(n: usize) -> Vec<AsmNode> {
        // Generate n distinct canonical 6-mers deterministically.
        let mut kmers: Vec<Kmer> = Vec::new();
        let mut packed = 0u64;
        while kmers.len() < n {
            packed += 37;
            if let Ok(k) = Kmer::from_packed(packed, 6) {
                if k.is_canonical() && !kmers.contains(&k) {
                    kmers.push(k);
                }
            }
        }
        let ids: Vec<u64> = kmers.iter().map(kmer_id).collect();
        kmers
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut node = AsmNode::new_kmer(*k);
                let next = ids[(i + 1) % n];
                let prev = ids[(i + n - 1) % n];
                // Next on the right, previous on the left.
                node.push_edge(Edge {
                    neighbor: next,
                    direction: Direction::Out,
                    polarity: Polarity::LL,
                    coverage: 3,
                });
                node.push_edge(Edge {
                    neighbor: prev,
                    direction: Direction::In,
                    polarity: Polarity::LL,
                    coverage: 3,
                });
                node
            })
            .collect()
    }

    #[test]
    fn cycle_falls_back_to_sv() {
        let nodes = synthetic_cycle(12);
        assert!(nodes.iter().all(|n| n.vertex_type() == VertexType::OneOne));
        let outcome = label_contigs_lr(&ExecCtx::new(2), &nodes);
        assert!(
            outcome.used_cycle_fallback,
            "cycles require the S-V fallback"
        );
        let groups = groups_of(&outcome);
        assert_eq!(groups.len(), 1, "the whole cycle is one contig");
        assert_eq!(groups[0].len(), nodes.len());
        // The cycle label is the smallest vertex ID in the cycle.
        let min_id = nodes.iter().map(|n| n.id).min().unwrap();
        assert!(outcome.labels.iter().all(|(_, l)| *l == min_id));
    }

    #[test]
    fn mixed_path_and_cycle() {
        // A path (from reads) plus a synthetic disjoint cycle: the path must be
        // labelled by list ranking, the cycle by the fallback, and the groups
        // must still match the component oracle.
        let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        nodes.extend(synthetic_cycle(8));
        let outcome = label_contigs_lr(&ExecCtx::new(3), &nodes);
        assert!(outcome.used_cycle_fallback);
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
    }

    #[test]
    fn empty_input() {
        let outcome = label_contigs_lr(&ExecCtx::new(2), &[]);
        assert!(outcome.labels.is_empty());
        assert!(outcome.ambiguous.is_empty());
        assert!(outcome.metrics.converged);
    }

    #[test]
    fn two_vertex_path() {
        let nodes = nodes_from_reads(&["ACGGTC"], 5);
        assert_eq!(nodes.len(), 2);
        let outcome = label_contigs_lr(&ExecCtx::new(1), &nodes);
        assert_eq!(groups_of(&outcome).len(), 1);
        assert_eq!(outcome.labels.len(), 2);
    }

    /// The de Bruijn graph of error-bearing reads from a generated genome
    /// with repeats: paths, branches, tips and bubbles.
    pub(crate) fn generated_nodes(seed: u64) -> Vec<AsmNode> {
        let genome = GenomeConfig {
            length: 3_000,
            repeat_families: 2,
            repeat_copies: 3,
            repeat_length: 40,
            seed,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig {
            read_length: 60,
            coverage: 6.0,
            substitution_rate: 0.01,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: true,
            seed: seed + 1,
        }
        .simulate(&genome);
        build_dbg(
            &ExecCtx::new(2),
            &reads,
            &ConstructConfig {
                k: 15,
                min_coverage: 0,
                batch_size: 64,
            },
        )
        .into_nodes()
    }

    /// `ids` in the order a `u64`-keyed vertex set of `workers` partitions
    /// iterates them: the order the labelers must return.
    pub(crate) fn partition_order(workers: usize, ids: impl IntoIterator<Item = u64>) -> Vec<u64> {
        VertexSet::from_pairs(workers, ids.into_iter().map(|id| (id, ())))
            .iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// The expected list-ranking label of every unambiguous vertex, and
    /// whether it lies on a cycle: the smallest contig-end ID of its path, or
    /// the smallest ID of its cycle (which has no contig end).
    fn expected_lr_labels(nodes: &[AsmNode]) -> HashMap<u64, (u64, bool)> {
        let unambiguous: HashSet<u64> = nodes
            .iter()
            .filter(|n| n.vertex_type() != VertexType::Branch)
            .map(|n| n.id)
            .collect();
        let by_id: HashMap<u64, &AsmNode> = nodes.iter().map(|n| (n.id, n)).collect();
        let mut expected = HashMap::new();
        for group in unambiguous_component_oracle(nodes) {
            let is_end = |id: &u64| {
                [Side::Left, Side::Right].into_iter().any(|side| {
                    by_id[id]
                        .sole_edge_on(side)
                        .is_none_or(|e| !unambiguous.contains(&e.neighbor))
                })
            };
            let label = match group.iter().copied().filter(is_end).min() {
                Some(end) => (end, false),
                None => (group[0], true),
            };
            for id in group {
                expected.insert(id, label);
            }
        }
        expected
    }

    #[test]
    fn lr_returns_labels_and_ambiguous_in_u64_partition_order() {
        let mut inputs: Vec<Vec<AsmNode>> = [3, 41].map(generated_nodes).into();
        assert!(inputs
            .iter()
            .all(|nodes| nodes.iter().any(|n| n.vertex_type() == VertexType::Branch)));
        // A path plus a disjoint cycle, which goes through the fallback.
        let mut mixed = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        mixed.extend(synthetic_cycle(8));
        inputs.push(mixed);
        for nodes in &inputs {
            let expected = expected_lr_labels(nodes);
            let branches = nodes
                .iter()
                .filter(|n| n.vertex_type() == VertexType::Branch)
                .map(|n| n.id);
            for workers in [1, 2, 3, 7] {
                let outcome = label_contigs_lr(&ExecCtx::new(workers), nodes);
                // Path labels first, then the cycle fallback's labels, each in
                // partition order.
                let on_cycle = |cycle: bool| {
                    let ids = expected.iter().filter(move |(_, l)| l.1 == cycle);
                    partition_order(workers, ids.map(|(id, _)| *id))
                };
                let want: Vec<(u64, u64)> = on_cycle(false)
                    .into_iter()
                    .chain(on_cycle(true))
                    .map(|id| (id, expected[&id].0))
                    .collect();
                assert_eq!(outcome.labels, want, "workers {workers}");
                assert_eq!(outcome.used_cycle_fallback, expected.values().any(|l| l.1));
                assert_eq!(
                    outcome.ambiguous,
                    partition_order(workers, branches.clone()),
                    "workers {workers}"
                );
            }
        }
    }

    #[test]
    fn edges_into_missing_vertices_drop_their_messages_and_split_the_path() {
        // Remove an inner vertex of the seven-vertex path; its two neighbours
        // keep their edges to it.
        let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let inner = nodes
            .iter()
            .position(|n| {
                n.vertex_type() == VertexType::OneOne
                    && n.real_edges().all(|e| {
                        let nb = nodes.iter().find(|m| m.id == e.neighbor).unwrap();
                        nb.vertex_type() == VertexType::OneOne
                    })
            })
            .expect("the path has an inner vertex between two inner vertices");
        nodes.remove(inner);
        let halves = unambiguous_component_oracle(&nodes);
        assert_eq!(halves.len(), 2);
        let want_labels: HashMap<u64, u64> = halves
            .iter()
            .flat_map(|g| g.iter().map(move |&id| (id, g[0])))
            .collect();
        for workers in [1, 2, 3] {
            // Neither half ever reaches its far contig end, so list ranking
            // hands both to the cycle fallback: smallest ID per half.
            let outcome = label_contigs_lr(&ExecCtx::new(workers), &nodes);
            assert!(outcome.used_cycle_fallback);
            assert!(outcome.metrics.total_dropped > 0);
            let got: HashMap<u64, u64> = outcome.labels.iter().copied().collect();
            assert_eq!(got, want_labels, "workers {workers}");
            let ids = outcome.labels.iter().map(|(id, _)| *id);
            assert_eq!(
                ids.collect::<Vec<_>>(),
                partition_order(workers, nodes.iter().map(|n| n.id))
            );
        }
    }

    #[test]
    fn spill_codecs_round_trip_u32_fields_and_reject_truncation() {
        let state = LrState {
            vtype: VertexType::Branch,
            neighbor: [Some(0x7fff_fffe), None],
            broadcast: vec![0, 1 << 20, 0x7fff_ffff],
            ptr: [flip(0x1234_5678), 0x0765_4321],
            done: [true, false],
        };
        let messages = [
            LrMsg::Ambiguous(0x7fff_ffff),
            LrMsg::Request(1 << 24),
            LrMsg::Response {
                responder: 3,
                other: flip(0x7fff_ffff),
            },
        ];
        let mut buf = Vec::new();
        state.encode(&mut buf);
        // Tag, two neighbour slots, length, three broadcast IDs, two
        // pointers and two flags, with every ID four bytes wide.
        assert_eq!(buf.len(), 1 + (1 + 4) + 1 + 8 + 3 * 4 + 2 * 4 + 2);
        assert_eq!(LrState::decode(&mut buf.as_slice()), Some(state.clone()));
        for cut in 0..buf.len() {
            assert_eq!(LrState::decode(&mut &buf[..cut]), None, "cut at {cut}");
        }
        for msg in messages {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            assert_eq!(LrMsg::decode(&mut buf.as_slice()), Some(msg.clone()));
            for cut in 0..buf.len() {
                assert_eq!(
                    LrMsg::decode(&mut &buf[..cut]),
                    None,
                    "{msg:?} cut at {cut}"
                );
            }
        }
        assert_eq!(LrMsg::decode(&mut [3u8, 0, 0, 0, 0].as_slice()), None);
    }
}
