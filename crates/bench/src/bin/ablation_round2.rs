//! Ablation for two claims in Section V of the paper:
//!
//! * "the second round of contig merging is effective: N50 is 1074 after we
//!   merge unambiguous k-mers into contigs, and it improves to 2070 after we
//!   merge contigs after error correction";
//! * "the DBG of the HC-2 dataset has 46.97 M vertices, which is reduced to
//!   1.00 M vertices after merging unambiguous k-mers into contigs, and
//!   further to 68,264 vertices after these contigs are merged after error
//!   correction".
//!
//! Usage: `cargo run -p ppa-bench --release --bin ablation_round2 -- --dataset sim-hc2 --scale 0.1`

use ppa_assembler::pipeline::{GraphState, Pipeline, StageLogger};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::AssemblyConfig;
use ppa_bench::{print_table, HarnessArgs};
use ppa_pregel::ExecCtx;

fn main() {
    let args = HarnessArgs::parse();
    let dataset = args.generate_dataset();
    let workers = args.workers.last().copied().unwrap_or(4);
    let config = AssemblyConfig {
        k: args.k,
        min_kmer_coverage: 1,
        workers,
        ..Default::default()
    };
    // Drive the paper-workflow pipeline directly: the StageLogger streams
    // per-stage timings while the run progresses, WorkflowStats feeds the
    // ablation table below.
    let mut stats = WorkflowStats::default();
    let mut progress = StageLogger::with_prefix(dataset.preset.name.clone());
    let mut state = GraphState::new(&dataset.reads);
    Pipeline::paper_workflow(&config)
        .observe(&mut stats)
        .observe(&mut progress)
        .try_run(&mut state, &ExecCtx::new(workers))
        .expect("the paper workflow runs");
    let stats = &stats;

    print_table(
        &format!(
            "Second-round merging effectiveness on {} (scale {})",
            dataset.preset.name, args.scale
        ),
        &["quantity", "after round-1 merge", "after round-2 merge"],
        &[
            vec![
                "N50".to_string(),
                stats.n50_after_round1.to_string(),
                stats.n50_final.to_string(),
            ],
            vec![
                "graph nodes".to_string(),
                stats.node_counts.after_first_merge.to_string(),
                stats.node_counts.after_final_merge.to_string(),
            ],
        ],
    );
    println!(
        "\nk-mer vertices right after DBG construction: {}",
        stats.node_counts.kmer_vertices
    );
    println!(
        "error correction: {} bubbles pruned, {} tip k-mers and {} tip contigs deleted",
        stats
            .corrections
            .first()
            .map(|c| c.bubbles_pruned)
            .unwrap_or(0),
        stats
            .corrections
            .first()
            .map(|c| c.tip_kmers_deleted)
            .unwrap_or(0),
        stats
            .corrections
            .first()
            .map(|c| c.tip_contigs_deleted)
            .unwrap_or(0),
    );
    println!(
        "Expected shape (paper): N50 roughly doubles after round 2, and the vertex count drops by\n\
         orders of magnitude from k-mer vertices to round-1 nodes to round-2 nodes."
    );
}
