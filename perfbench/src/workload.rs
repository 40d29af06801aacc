//! The ledger's workloads: which generated input, which labeling algorithm,
//! which spill policy — and why each was chosen.

use ppa_assembler::{AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::SpillPolicy;
use ppa_readsim::presets::{sim_bi, sim_hc2, DatasetPreset};

/// The spill cap of `hc2-lr-capped`: a fixed constant, about a quarter of the
/// resident vertex-store peak on `hc2-lr` when the ledger was defined, so that
/// a later change that shrinks the store does not silently change the
/// workload.
pub const HC2_SPILL_CAP_BYTES: u64 = 9_400_000;

/// Every workload, in the order the ledger lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hc2-lr",
        why: "paper default: sim-hc2 x2 (400 kbp, 10x, 100 bp reads), list ranking, \
              resident; labeling is ~70% of the work, so LR and Pregel-runner changes \
              show here",
        preset: sim_hc2,
        scale: 2.0,
        labeling: LabelingAlgorithm::ListRanking,
        spill_cap: None,
    },
    Workload {
        name: "hc2-lr-capped",
        why: "the hc2-lr reads under a fixed 9.4 MB spill cap; spill I/O dominates the \
              label job, so spill changes show here and nowhere else",
        preset: sim_hc2,
        scale: 2.0,
        labeling: LabelingAlgorithm::ListRanking,
        spill_cap: Some(HC2_SPILL_CAP_BYTES),
    },
    Workload {
        name: "bi-sv",
        why: "sim-bi x0.4 (400 kbp, 30x, 155 bp reads), S-V labeling, resident; 3x the \
              bases for construct, dense S-V frontiers, no LR code on the path",
        preset: sim_bi,
        scale: 0.4,
        labeling: LabelingAlgorithm::SimplifiedSV,
        spill_cap: None,
    },
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the ledger (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The `ppa_readsim` preset the reads come from.
    pub preset: fn() -> DatasetPreset,
    /// The preset's scale factor (reference length multiplier).
    pub scale: f64,
    /// Contig-labeling algorithm of both label rounds.
    pub labeling: LabelingAlgorithm,
    /// Spill cap in bytes, or `None` for a resident run.
    pub spill_cap: Option<u64>,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The workload's preset with both generator seeds driven by `seed`, at
    /// `shrink` times the workload's own scale (1.0 for the ledger; smaller
    /// for smoke tests). Seed 0 leaves the preset's own seeds unchanged.
    pub fn preset(&self, seed: u64, shrink: f64) -> DatasetPreset {
        let mut preset = (self.preset)().scaled(self.scale * shrink);
        let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        preset.genome.seed ^= mixed;
        preset.reads.seed ^= mixed.rotate_left(32);
        preset
    }

    /// The spill policy at `shrink` (the cap shrinks with the input, so a
    /// smoke run still spills).
    pub fn spill(&self, shrink: f64) -> SpillPolicy {
        match self.spill_cap {
            None => SpillPolicy::Off,
            Some(cap) => SpillPolicy::At(((cap as f64) * shrink).round().max(1.0) as u64),
        }
    }

    /// The paper workflow configuration: k = 31, θ = 1, one correction round,
    /// on `workers` workers.
    pub fn config(&self, workers: usize, shrink: f64) -> AssemblyConfig {
        AssemblyConfig {
            k: 31,
            min_kmer_coverage: 1,
            tip_length_threshold: 80,
            bubble_edit_distance: 5,
            workers,
            labeling: self.labeling,
            error_correction_rounds: 1,
            min_contig_length: 0,
            spill: self.spill(shrink),
            exec: None,
        }
    }

    /// The same workload with spilling off: the resident twin a capped
    /// workload's contigs must match byte for byte.
    pub fn resident_twin(&self) -> Workload {
        Workload {
            spill_cap: None,
            ..*self
        }
    }
}
