//! Golden contig digests: a small fixed `ppa_readsim` assembly must produce
//! exactly these contig bytes (ID, coverage and sequence, in output order).
//!
//! The contig IDs and their order depend on the order in which the labelers
//! return their labels (contig merging starts each contig at the first member
//! it sees) and on how vertices are partitioned across workers. A change to
//! either that is not meant to alter the output therefore fails here instead
//! of silently producing different contigs. If an intended change moves these
//! digests, re-record them and say why in the change log.

use ppa_assembler::{try_assemble, Assembly, AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::SpillPolicy;
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;

fn reads() -> ReadSet {
    let reference = GenomeConfig {
        length: 12_000,
        repeat_families: 3,
        repeat_copies: 3,
        repeat_length: 120,
        seed: 1207,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage: 20.0,
        substitution_rate: 0.005,
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: 1208,
    }
    .simulate(&reference)
}

fn config(labeling: LabelingAlgorithm, spill: SpillPolicy) -> AssemblyConfig {
    AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        workers: 3,
        labeling,
        error_correction_rounds: 1,
        spill,
        ..Default::default()
    }
}

/// FNV-1a over every contig's ID, coverage and sequence, in output order.
fn digest(assembly: &Assembly) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for c in &assembly.contigs {
        eat(&c.id.to_le_bytes());
        eat(&c.coverage.to_le_bytes());
        eat(c.sequence.to_ascii().as_bytes());
        eat(b"\n");
    }
    (h, assembly.contigs.len())
}

const GOLDEN_LR: (u64, usize) = (0xeda0_548b_ce6a_67c5, 17);
const GOLDEN_SV: (u64, usize) = (0xe702_7ad9_51bd_3db3, 17);
/// Spilling must not change the contigs, so this equals [`GOLDEN_LR`].
const GOLDEN_LR_CAPPED: (u64, usize) = (0xeda0_548b_ce6a_67c5, 17);

#[test]
fn list_ranking_contigs_match_the_golden_digest() {
    let got = digest(
        &try_assemble(
            &reads(),
            &config(LabelingAlgorithm::ListRanking, SpillPolicy::Off),
        )
        .expect("assembly succeeds"),
    );
    assert_eq!(got, GOLDEN_LR, "got ({:#018x}, {})", got.0, got.1);
}

#[test]
fn sv_contigs_match_the_golden_digest() {
    let got = digest(
        &try_assemble(
            &reads(),
            &config(LabelingAlgorithm::SimplifiedSV, SpillPolicy::Off),
        )
        .expect("assembly succeeds"),
    );
    assert_eq!(got, GOLDEN_SV, "got ({:#018x}, {})", got.0, got.1);
}

#[test]
fn capped_list_ranking_contigs_match_the_golden_digest() {
    let assembly = try_assemble(
        &reads(),
        &config(LabelingAlgorithm::ListRanking, SpillPolicy::At(16 * 1024)),
    )
    .expect("assembly succeeds");
    assert!(
        assembly.stats.label_round1.spilled_bytes > 0,
        "the cap must force the labeling job to spill"
    );
    let got = digest(&assembly);
    assert_eq!(got, GOLDEN_LR_CAPPED, "got ({:#018x}, {})", got.0, got.1);
}
