//! Operation ② (alternative) — contig labeling via the **simplified S-V**
//! connected-components algorithm.
//!
//! The paper offers two interchangeable ways to label maximal unambiguous
//! paths: bidirectional list ranking (see [`super::label`]) and running the
//! simplified Shiloach–Vishkin algorithm over the subgraph induced by the
//! unambiguous vertices, so that every vertex is labelled with the smallest
//! vertex ID of its path (Section IV-B). Both produce the same grouping; the
//! paper's Tables II and III compare their superstep/message/runtime costs,
//! which is why this variant exists as a separately measurable operation.
//!
//! The implementation reuses the generic [`connected_components`] PPA from the
//! framework crate: after the same superstep-0-style identification of
//! ambiguous vertices, the unambiguous subgraph is handed to S-V and the
//! resulting component representative becomes the contig label.
//!
//! Like list ranking, the job runs on the vertices' dense `u32` ranks in an
//! `IdTable` rather than on their 64-bit IDs: the renumbering is monotone,
//! so the smallest rank of a component is the rank of its smallest ID. The
//! labels are mapped back in the order a `u64`-keyed job would return them.

use super::label::{LabelOutcome, MAX_SUPERSTEPS};
use crate::ids::IdTable;
use crate::node::{AsmNode, VertexType};
use ppa_pregel::algorithms::connected_components;
use ppa_pregel::ExecCtx;

/// Labels every maximal unambiguous path with the smallest vertex ID of the
/// path, using the simplified S-V algorithm. The S-V job runs on the worker
/// pool of `ctx` (worker count = pool size).
pub fn label_contigs_sv(ctx: &ExecCtx, nodes: &[AsmNode]) -> LabelOutcome {
    let (table, mapped) = IdTable::map_graph(ctx, nodes, |table, _, node| {
        let branch = node.vertex_type() == VertexType::Branch;
        let nbrs: Vec<u32> = node.real_edges().map(|e| table.rank(e.neighbor)).collect();
        (branch, nbrs)
    });
    // Rank-indexed bitset of the ambiguous vertices.
    let mut is_ambiguous = vec![0u64; table.len().div_ceil(64)];
    for &(rank, (branch, _)) in mapped.iter().flatten() {
        if branch {
            is_ambiguous[rank as usize / 64] |= 1 << (rank % 64);
        }
    }
    let is_ambiguous = |rank: u32| is_ambiguous[rank as usize / 64] & (1 << (rank % 64)) != 0;
    let adjacency: Vec<(u32, Vec<u32>)> = mapped
        .into_iter()
        .flatten()
        .filter(|&(_, (branch, _))| !branch)
        .map(|(rank, (_, mut nbrs))| {
            nbrs.retain(|&r| !is_ambiguous(r));
            (rank, nbrs)
        })
        .collect();

    let (cc, metrics) = connected_components(ctx, adjacency, MAX_SUPERSTEPS);
    let mut label = vec![None; table.len()];
    for (rank, root) in cc {
        label[rank as usize] = Some(root);
    }
    let labels = table.in_partition_order(ctx.workers(), |rank, id| {
        label[rank as usize].map(|root| (id, table.id(root)))
    });
    // Ambiguous vertices in node order.
    let ambiguous = nodes
        .iter()
        .filter(|n| n.vertex_type() == VertexType::Branch)
        .map(|n| n.id)
        .collect();
    LabelOutcome {
        labels,
        ambiguous,
        metrics,
        used_cycle_fallback: false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::label::label_contigs_lr;
    use super::super::label::tests::{
        generated_nodes, groups_sorted, nodes_from_reads, partition_order,
        unambiguous_component_oracle,
    };
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sv_matches_oracle_on_simple_path() {
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let outcome = label_contigs_sv(&ExecCtx::new(2), &nodes);
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
        assert!(outcome.metrics.converged);
        // S-V labels with the smallest vertex ID of the component.
        let min_id = nodes.iter().map(|n| n.id).min().unwrap();
        assert!(outcome.labels.iter().all(|(_, l)| *l == min_id));
    }

    #[test]
    fn sv_and_lr_produce_identical_groupings() {
        let inputs: Vec<Vec<&str>> = vec![
            vec!["CTGCCGT", "CCGTACA"],
            vec!["TTACTTGATCCG", "TTACTTGAACGG"],
            vec!["ACCTGACCGTTAGCAT", "TTAGCATCCGGATACC", "GGATACCACCTGACC"],
        ];
        for seqs in inputs {
            let nodes = nodes_from_reads(&seqs, 5);
            let lr = label_contigs_lr(&ExecCtx::new(2), &nodes);
            let sv = label_contigs_sv(&ExecCtx::new(2), &nodes);
            assert_eq!(
                groups_sorted(&lr),
                groups_sorted(&sv),
                "LR and S-V must group vertices identically for {seqs:?}"
            );
            let mut lr_amb = lr.ambiguous.clone();
            let mut sv_amb = sv.ambiguous.clone();
            lr_amb.sort_unstable();
            sv_amb.sort_unstable();
            assert_eq!(lr_amb, sv_amb);
        }
    }

    #[test]
    fn sv_handles_cycles_without_fallback() {
        // S-V needs no special casing for cycles, unlike list ranking.
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let outcome = label_contigs_sv(&ExecCtx::new(2), &nodes);
        assert!(!outcome.used_cycle_fallback);
    }

    #[test]
    fn sv_costs_more_supersteps_than_lr_on_long_paths() {
        // The motivation for preferring list ranking (Tables II/III): a round
        // of S-V needs more supersteps than a round of list ranking, and it
        // sends messages along every edge every round. Use a repeat-free
        // 300 bp sequence so the whole graph is one long unambiguous path.
        let genome = "CTTGCTAGTCATTATTAGTACGAAGGGTTGTGCTCCGATAGTTGAAAATGTGGTGTTATGCTCACGGCGTGGTGTGTCTTTAACCCCAAGCTATCAATACTGAATAGGCTACATATGTTATACTCCGTGTCGTAAGGATGACGGCTCCGCTACTGGTGGTCTGTCGCCTCAGCCGTTGACCGCAACACCGTGAAGCACGGGTAAGGCAGCAGAAAGGCGAGAACTGCAGGAGAGCGTATTTGCGCAACCCTGAGGGTCTAGAGAGTCCACCTGGGCCTTTACGGAACTATATTGGTTTAA";
        let mut seqs: Vec<String> = Vec::new();
        let window = 20;
        for start in (0..genome.len() - window).step_by(5) {
            seqs.push(genome[start..start + window].to_string());
        }
        seqs.push(genome[genome.len() - window..].to_string());
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let nodes = nodes_from_reads(&refs, 9);
        assert!(
            nodes
                .iter()
                .all(|n| n.vertex_type() != crate::node::VertexType::Branch),
            "the repeat-free genome must not create ambiguous vertices"
        );
        let lr = label_contigs_lr(&ExecCtx::new(2), &nodes);
        let sv = label_contigs_sv(&ExecCtx::new(2), &nodes);
        assert!(!lr.used_cycle_fallback);
        assert_eq!(groups_sorted(&lr), groups_sorted(&sv));
        assert!(
            sv.metrics.supersteps > lr.metrics.supersteps,
            "S-V ({}) should need more supersteps than LR ({})",
            sv.metrics.supersteps,
            lr.metrics.supersteps
        );
        assert!(
            sv.metrics.total_messages > lr.metrics.total_messages,
            "S-V ({}) should send more messages than LR ({})",
            sv.metrics.total_messages,
            lr.metrics.total_messages
        );
    }

    #[test]
    fn sv_empty_input() {
        let outcome = label_contigs_sv(&ExecCtx::new(2), &[]);
        assert!(outcome.labels.is_empty());
        assert!(outcome.ambiguous.is_empty());
    }

    #[test]
    fn sv_returns_labels_in_u64_partition_order_and_ambiguous_in_node_order() {
        for seed in [3, 41] {
            let nodes = generated_nodes(seed);
            let smallest: HashMap<u64, u64> = unambiguous_component_oracle(&nodes)
                .into_iter()
                .flat_map(|g| {
                    let min = g[0];
                    g.into_iter().map(move |id| (id, min))
                })
                .collect();
            let branches: Vec<u64> = nodes
                .iter()
                .filter(|n| n.vertex_type() == VertexType::Branch)
                .map(|n| n.id)
                .collect();
            assert!(!branches.is_empty());
            for workers in [1, 2, 3, 7] {
                let outcome = label_contigs_sv(&ExecCtx::new(workers), &nodes);
                let want: Vec<(u64, u64)> = partition_order(workers, smallest.keys().copied())
                    .into_iter()
                    .map(|id| (id, smallest[&id]))
                    .collect();
                assert_eq!(outcome.labels, want, "seed {seed}, workers {workers}");
                assert_eq!(
                    outcome.ambiguous, branches,
                    "seed {seed}, workers {workers}"
                );
            }
        }
    }

    #[test]
    fn sv_sends_to_missing_neighbours_and_drops_the_messages() {
        let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let inner = nodes
            .iter()
            .position(|n| n.vertex_type() == VertexType::OneOne)
            .unwrap();
        nodes.remove(inner);
        let outcome = label_contigs_sv(&ExecCtx::new(3), &nodes);
        assert!(outcome.metrics.total_dropped > 0);
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
    }
}
