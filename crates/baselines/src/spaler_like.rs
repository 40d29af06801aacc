//! The Spaler-like strategy.
//!
//! Spaler (Spark/GraphX) forms contigs by repeatedly *sampling* vertices that
//! break each unambiguous path into segments and merging segments that meet at
//! a sampled boundary, stopping once ⟨m-n⟩-typed vertices account for more
//! than a third of the graph; as the paper notes, "this heuristic provides no
//! guarantee of path maximality". Spaler itself is closed source and excluded
//! from the paper's runtime comparison, so this baseline exists for quality
//! comparisons only: it reuses the shared DBG substrate and models the effect
//! of `rounds` sampling iterations — any path boundary that was never sampled
//! remains a breakpoint, so contigs come out shorter than the maximal
//! unambiguous paths PPA-assembler produces.

use crate::{Assembler, BaselineAssembly, BaselineParams};
use ppa_assembler::ops::construct::{build_dbg, ConstructConfig};
use ppa_assembler::ops::label::label_contigs_lr;
use ppa_assembler::ops::merge::{merge_contigs, MergeConfig};
use ppa_pregel::ExecCtx;
use ppa_seq::{DnaString, ReadSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The Spaler-like baseline.
#[derive(Debug, Clone)]
pub struct SpalerLike {
    /// Number of sampling/merging iterations.
    pub rounds: usize,
    /// Probability that a given boundary vertex is sampled (and thus merged)
    /// in one iteration.
    pub sample_probability: f64,
    /// RNG seed for the sampling.
    pub seed: u64,
}

impl Default for SpalerLike {
    fn default() -> Self {
        SpalerLike {
            rounds: 3,
            sample_probability: 0.5,
            seed: 0x5354,
        }
    }
}

impl Assembler for SpalerLike {
    fn name(&self) -> &'static str {
        "Spaler-like"
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
        let labels = label_contigs_lr(&ctx, &nodes);
        let merged = merge_contigs(
            &ctx,
            &nodes,
            &labels.labels,
            &MergeConfig {
                k: params.k,
                tip_length_threshold: params.tip_length_threshold,
            },
        );

        // Model the sampling heuristic: a boundary between two consecutive
        // segments is only merged if it was sampled in at least one of the
        // `rounds` iterations; unsampled boundaries remain contig breakpoints.
        let survive_probability = (1.0 - self.sample_probability).powi(self.rounds as i32);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let k = params.k;
        let mut contigs: Vec<DnaString> = Vec::new();
        let mut breakpoints = 0usize;
        for contig in merged.contigs {
            let seq = contig.seq.to_dna();
            let mut piece = DnaString::new();
            for i in 0..seq.len() {
                piece.push(seq.get(i));
                let is_internal_boundary = piece.len() >= k && i + k <= seq.len();
                if is_internal_boundary && rng.gen_bool(survive_probability) {
                    breakpoints += 1;
                    contigs.push(std::mem::take(&mut piece));
                    // Consecutive segments overlap by k−1, as the unmerged
                    // segments of the real heuristic would.
                    for j in (i + 1).saturating_sub(k - 1)..=i {
                        piece.push(seq.get(j));
                    }
                }
            }
            if piece.len() >= k {
                contigs.push(piece);
            }
        }

        let notes = format!(
            "{} sampling rounds, p = {}; {} unmerged boundaries left",
            self.rounds, self.sample_probability, breakpoints
        );
        BaselineAssembly {
            contigs,
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

    fn dataset() -> ReadSet {
        let reference = GenomeConfig {
            length: 3_000,
            repeat_families: 0,
            seed: 33,
            ..Default::default()
        }
        .generate();
        ReadSimConfig::error_free(90, 20.0).simulate(&reference)
    }

    #[test]
    fn produces_shorter_contigs_than_ppa() {
        let reads = dataset();
        let params = BaselineParams {
            k: 21,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        };
        let spaler = SpalerLike::default().assemble(&reads, &params);
        let ppa = PpaAssembler::default().assemble(&reads, &params);
        assert!(!spaler.contigs.is_empty());
        assert!(
            spaler.largest_contig() <= ppa.largest_contig(),
            "Spaler-like ({}) must not exceed the maximal paths of PPA ({})",
            spaler.largest_contig(),
            ppa.largest_contig()
        );
        assert!(spaler.contigs.len() >= ppa.contigs.len());
    }

    #[test]
    fn more_rounds_merge_more_boundaries() {
        let reads = dataset();
        let params = BaselineParams {
            k: 21,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        };
        let few = SpalerLike {
            rounds: 1,
            ..Default::default()
        }
        .assemble(&reads, &params);
        let many = SpalerLike {
            rounds: 8,
            ..Default::default()
        }
        .assemble(&reads, &params);
        assert!(
            many.contigs.len() <= few.contigs.len(),
            "more sampling rounds leave fewer breakpoints ({} vs {})",
            many.contigs.len(),
            few.contigs.len()
        );
        assert!(many.largest_contig() >= few.largest_contig());
    }
}
