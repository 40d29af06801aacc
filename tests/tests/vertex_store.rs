//! Columnar-store pins: the sorted SoA vertex store must deliver exactly
//! what a vertex program addresses to it, independent of partitioning.
//!
//! Three layers of evidence:
//!
//! * **engine level** — a planned scatter program run through the engine
//!   ends with every vertex holding its initial value plus the sum of the
//!   payloads planned for it, with the expected job totals, across worker
//!   counts;
//! * **operation level** — `remove_tips` over one fixed post-merge graph is
//!   byte-identical for every worker count (the store's partitioning must
//!   not leak into the REQUEST/DELETE protocol), exercising the
//!   removal-heavy path;
//! * **workflow level** — a full error-heavy assembly (bubbles + tips over
//!   two correction rounds) yields the same contig content for every worker
//!   count.
//!
//! (Halt-flag equivalence against a sequential BSP oracle lives in
//! `ppa_pregel::runner`.)

use ppa_assembler::ops::construct::ConstructConfig;
use ppa_assembler::ops::merge::MergeConfig;
use ppa_assembler::ops::tip::{remove_tips, TipConfig};
use ppa_assembler::pipeline::{Construct, Label, Merge};
use ppa_assembler::{try_assemble, AssemblyConfig, GraphState, Pipeline};
use ppa_pregel::{Context, ExecCtx, NoAggregate, VertexProgram, VertexSet};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Engine level: the columnar runner vs a directly computed expectation
// ---------------------------------------------------------------------------

/// A scatter program driven by an explicit plan: superstep 0 sends the
/// planned messages, superstep 1 folds the received sums, then everything
/// halts.
struct Planned {
    plan: Vec<Vec<(u64, u64)>>,
}

impl VertexProgram for Planned {
    type Id = u64;
    type Value = u64;
    type Message = u64;
    type Aggregate = NoAggregate;
    fn compute(&self, ctx: &mut Context<'_, Self>, id: u64, value: &mut u64, msgs: &mut [u64]) {
        if ctx.superstep() == 0 {
            for &(to, payload) in &self.plan[id as usize] {
                ctx.send_message(to, payload);
            }
        } else {
            *value += msgs.iter().sum::<u64>();
        }
        ctx.vote_to_halt();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_columnar_engine_matches_planned_sums(
        n in 1u64..60,
        raw in proptest::collection::vec((0u64..60, 0u64..80, 1u64..100), 0..250),
        workers in 1usize..6,
    ) {
        let mut plan: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n as usize];
        // Every vertex starts at `i`; it ends at `i` plus the payloads
        // planned for it. Out-of-range targets are sent, then dropped.
        let mut expected: Vec<(u64, u64)> = (0..n).map(|i| (i, i)).collect();
        let mut dropped = 0u64;
        for &(sender, target, payload) in &raw {
            plan[(sender % n) as usize].push((target, payload));
            match expected.get_mut(target as usize) {
                Some((_, value)) => *value += payload,
                None => dropped += 1,
            }
        }
        let program = Planned { plan };
        let mut set = VertexSet::from_pairs(workers, (0..n).map(|i| (i, i)));
        let metrics = ppa_pregel::run(&ExecCtx::new(workers), &program, &mut set, 10_000);
        let mut got = set.into_pairs();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        // Superstep 0 scatters; superstep 1 runs only if something was sent.
        prop_assert_eq!(metrics.supersteps, if raw.is_empty() { 1 } else { 2 });
        prop_assert_eq!(metrics.total_messages, raw.len() as u64);
        prop_assert_eq!(metrics.total_dropped, dropped);
    }
}

// ---------------------------------------------------------------------------
// Operation level: tip removal over one fixed graph, across worker counts
// ---------------------------------------------------------------------------

/// Error-heavy reads: dense coverage of a reference plus diverging reads that
/// plant tips and bubbles for the correction operations to chew on.
fn error_heavy_reads(seed: u64) -> ReadSet {
    let reference = GenomeConfig {
        length: 4_000,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 80,
        seed,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 90,
        coverage: 30.0,
        substitution_rate: 0.01, // high error rate → plenty of tips/bubbles
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: seed + 1,
    }
    .simulate(&reference)
}

#[test]
fn remove_tips_is_identical_across_worker_counts() {
    let reads = error_heavy_reads(29);
    // Build ONE post-merge graph (fixed IDs), keeping even short dangling
    // contigs (threshold 0) so plenty of tips survive into the operation.
    let mut state = GraphState::new(&reads);
    Pipeline::new()
        .then(Construct::new(ConstructConfig {
            k: 21,
            min_coverage: 0,
            batch_size: 1024,
        }))
        .then(Label::list_ranking())
        .then(Merge::new(MergeConfig {
            k: 21,
            tip_length_threshold: 0,
        }))
        .try_run(&mut state, &ExecCtx::new(2))
        .expect("the pipeline runs");
    assert!(
        !state.ambiguous_kmers.is_empty(),
        "error-heavy reads must create branches"
    );

    let config = TipConfig {
        k: 21,
        tip_length_threshold: 80,
    };
    let fingerprint = |workers: usize| {
        let out = remove_tips(
            &ExecCtx::new(workers),
            &state.ambiguous_kmers,
            &state.contigs,
            &config,
        );
        let mut kmers: Vec<u64> = out.kmers.iter().map(|n| n.id).collect();
        let mut contigs: Vec<(u64, usize)> = out.contigs.iter().map(|c| (c.id, c.len())).collect();
        kmers.sort_unstable();
        contigs.sort_unstable();
        (out.deleted_kmers, out.deleted_contigs, kmers, contigs)
    };

    let reference = fingerprint(1);
    assert!(
        reference.0 + reference.1 > 0,
        "the removal-heavy workload must actually delete something"
    );
    for workers in [2usize, 3, 4, 7] {
        assert_eq!(fingerprint(workers), reference, "workers = {workers}");
    }
}

// ---------------------------------------------------------------------------
// Workflow level: error-heavy assembly across worker counts
// ---------------------------------------------------------------------------

#[test]
fn removal_heavy_assembly_is_worker_count_independent() {
    let reads = error_heavy_reads(41);
    let assembly_for = |workers: usize| {
        try_assemble(
            &reads,
            &AssemblyConfig {
                k: 21,
                min_kmer_coverage: 1,
                workers,
                error_correction_rounds: 2,
                min_contig_length: 0,
                ..Default::default()
            },
        )
        .expect("assembly succeeds")
    };

    let reference = assembly_for(1);
    assert!(!reference.contigs.is_empty());
    // The correction rounds must have exercised the removal path.
    let deleted: usize = reference
        .stats
        .corrections
        .iter()
        .map(|c| c.tip_kmers_deleted + c.tip_contigs_deleted + c.bubbles_pruned)
        .sum();
    assert!(
        deleted > 0,
        "expected tips/bubbles in an error-heavy dataset"
    );
    // Frontier/footprint metrics must flow through the observer path. The
    // density is a per-superstep mean, so list-ranking's long sparse tail
    // (finished vertices halt and stop computing) must pull it below 1.0.
    let density = reference.stats.label_round1.avg_frontier_density;
    assert!(density > 0.0 && density < 1.0, "density = {density}");
    assert!(reference.stats.label_round1.peak_store_resident_bytes > 0);

    let canonical = |a: &ppa_assembler::Assembly| {
        let mut seqs: Vec<String> = a
            .contigs
            .iter()
            .map(|c| c.sequence.canonical().to_ascii())
            .collect();
        seqs.sort();
        seqs
    };
    let expected = canonical(&reference);
    for workers in [2usize, 4] {
        let assembly = assembly_for(workers);
        assert_eq!(canonical(&assembly), expected, "workers = {workers}");
    }
}
