//! The SWAP-Assembler-like strategy.
//!
//! SWAP-Assembler builds the same (k+1)-mer-based de Bruijn graph as
//! PPA-assembler but forms contigs through rounds of pairwise *edge merging*
//! (its "small-world asynchronous parallel" model), synchronising through
//! locks/one-sided communication rather than through a logarithmic
//! pointer-jumping primitive, and it performs no bubble/tip correction pass in
//! the configuration the paper benchmarks. This baseline reproduces that
//! profile on the shared substrate: DBG construction is identical to
//! PPA-assembler's, contig formation uses the (more expensive) simplified S-V
//! connected-components rounds, and no error correction or second merging
//! round is applied — which is what yields SWAP's shorter contigs and higher
//! misassembly counts in Table IV.

use crate::{Assembler, BaselineAssembly, BaselineParams};
use ppa_assembler::ops::construct::{build_dbg, ConstructConfig};
use ppa_assembler::ops::label_sv::label_contigs_sv;
use ppa_assembler::ops::merge::{merge_contigs, MergeConfig};
use ppa_pregel::ExecCtx;
use ppa_seq::ReadSet;
use std::time::Instant;

/// The SWAP-Assembler-like baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwapLike;

impl Assembler for SwapLike {
    fn name(&self) -> &'static str {
        "SWAP-like"
    }

    fn assemble(&self, reads: &ReadSet, params: &BaselineParams) -> BaselineAssembly {
        let start = Instant::now();
        let ctx = ExecCtx::new(params.workers);
        let construct = build_dbg(
            &ctx,
            reads,
            &ConstructConfig {
                k: params.k,
                min_coverage: params.min_kmer_coverage,
                batch_size: 1024,
            },
        );
        let nodes = construct.into_nodes();
        let labels = label_contigs_sv(&ctx, &nodes);
        let merged = merge_contigs(
            &ctx,
            &nodes,
            &labels.labels,
            &MergeConfig {
                k: params.k,
                tip_length_threshold: params.tip_length_threshold,
            },
        );
        let notes = format!(
            "S-V edge merging: {} supersteps / {} msgs; no error correction",
            labels.metrics.supersteps, labels.metrics.total_messages
        );
        BaselineAssembly {
            contigs: merged.contigs.into_iter().map(|c| c.seq.to_dna()).collect(),
            elapsed: start.elapsed(),
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppa::PpaAssembler;
    use ppa_readsim::{GenomeConfig, ReadSimConfig};

    #[test]
    fn assembles_an_error_free_genome() {
        let reference = GenomeConfig {
            length: 1_500,
            repeat_families: 0,
            seed: 14,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(80, 20.0).simulate(&reference);
        let params = BaselineParams {
            k: 21,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        };
        let out = SwapLike.assemble(&reads, &params);
        assert!(!out.contigs.is_empty());
        assert!(out.largest_contig() >= reference.len() - 200);
    }

    #[test]
    fn uses_more_labeling_supersteps_than_ppa() {
        // The structural difference the paper measures in Tables II/III: S-V
        // rounds cost more supersteps and messages than list ranking.
        let reference = GenomeConfig {
            length: 2_000,
            repeat_families: 0,
            seed: 15,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(90, 15.0).simulate(&reference);
        let params = BaselineParams {
            k: 21,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        };
        let swap = SwapLike.assemble(&reads, &params);
        let ppa = PpaAssembler::default().assemble(&reads, &params);
        let swap_steps: usize = swap
            .notes
            .split("edge merging: ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        let ppa_steps: usize = ppa
            .notes
            .split("label r1: ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(
            swap_steps > ppa_steps,
            "SWAP-like labeling ({swap_steps}) should cost more supersteps than PPA ({ppa_steps})"
        );
    }

    #[test]
    fn empty_input() {
        let out = SwapLike.assemble(&ReadSet::new(), &BaselineParams::default());
        assert!(out.contigs.is_empty());
    }
}
