//! Regenerates `BENCH_out_of_core.json`: bounded-memory execution of the
//! paper workflow under [`SpillPolicy`] caps.
//!
//! One workload, three memory regimes on the `sim-xl` stress preset:
//!
//! * `resident` — `SpillPolicy::Off`, the PR 9 behaviour. Its measured peak
//!   vertex-store footprint (`peak_store_resident_bytes`) calibrates the caps.
//! * `cap = peak/4` and `cap = peak/8` — `SpillPolicy::At(bytes)`: shuffle
//!   outbox runs and sealed vertex-store columns spill to sorted on-disk run
//!   files once the job exceeds the cap, and are merged / faulted back on
//!   delivery. Every capped run must produce contigs byte-identical to the
//!   resident run; the snapshot records the honest wall-clock overhead, the
//!   spill traffic (bytes written / read back / artefact count) and the
//!   measured resident peak under each cap.
//!
//! Run from the repository root: `cargo run -p ppa_bench --release --bin
//! out_of_core [--reps N] [--scale F] [--out PATH]`. `--scale` shrinks the
//! reference (default 1.0 = the full 2 Mbp preset); CI smoke-runs
//! `--scale 0.02 --reps 1`.

use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{try_assemble, Assembly, AssemblyConfig};
use ppa_pregel::{ExecCtx, SpillPolicy};
use ppa_readsim::presets::sim_xl;
use std::time::Instant;

const WORKERS: usize = 4;
const K: usize = 21;

/// Cap divisors swept against the measured resident peak.
const CAP_DIVISORS: &[u64] = &[4, 8];

struct Args {
    reps: usize,
    scale: f64,
    out_path: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        reps: 2,
        scale: 1.0,
        out_path: "BENCH_out_of_core.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--reps" => parsed.reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            "--scale" => {
                parsed.scale = args.next().and_then(|v| v.parse().ok()).expect("--scale F")
            }
            "--out" => parsed.out_path = args.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    parsed
}

fn config(ctx: &ExecCtx, spill: SpillPolicy) -> AssemblyConfig {
    AssemblyConfig {
        k: K,
        min_kmer_coverage: 1,
        workers: WORKERS,
        error_correction_rounds: 1,
        spill,
        exec: Some(ctx.clone()),
        ..Default::default()
    }
}

/// Byte-level fingerprint: contig IDs, coverages and full sequences.
fn fingerprint(assembly: &Assembly) -> Vec<(u64, u32, String)> {
    assembly
        .contigs
        .iter()
        .map(|c| (c.id, c.coverage, c.sequence.to_ascii()))
        .collect()
}

/// Peak vertex-store footprint across every Pregel job in the workflow.
fn peak_store_bytes(stats: &WorkflowStats) -> u64 {
    let label_peaks = std::iter::once(&stats.label_round1)
        .chain(stats.label_round2.iter())
        .map(|l| l.peak_store_resident_bytes);
    let tip_peaks = stats
        .corrections
        .iter()
        .map(|c| c.tip_metrics.peak_store_resident_bytes);
    label_peaks.chain(tip_peaks).max().unwrap_or(0)
}

/// Total spill traffic across every stage: (written, read back, artefacts).
fn spill_totals(stats: &WorkflowStats) -> (u64, u64, u64) {
    let mut written = stats.construct.phase1.spilled_bytes + stats.construct.phase2.spilled_bytes;
    let mut read =
        stats.construct.phase1.spill_read_bytes + stats.construct.phase2.spill_read_bytes;
    let mut runs = stats.construct.phase1.spilled_runs + stats.construct.phase2.spilled_runs;
    for l in std::iter::once(&stats.label_round1).chain(stats.label_round2.iter()) {
        written += l.spilled_bytes;
        read += l.spill_read_bytes;
        runs += l.spilled_runs;
    }
    for m in std::iter::once(&stats.merge_round1).chain(stats.merge_round2.iter()) {
        written += m.mapreduce.spilled_bytes;
        read += m.mapreduce.spill_read_bytes;
        runs += m.mapreduce.spilled_runs;
    }
    for c in &stats.corrections {
        written += c.tip_metrics.spilled_bytes;
        read += c.tip_metrics.spill_read_bytes;
        runs += c.tip_metrics.spilled_runs;
    }
    (written, read, runs)
}

struct Regime {
    label: String,
    cap: Option<u64>,
    times: Vec<f64>,
    peak: u64,
    spilled: (u64, u64, u64),
}

fn main() {
    let Args {
        reps,
        scale,
        out_path,
    } = parse_args();
    let ctx = ExecCtx::new(WORKERS);

    let preset = sim_xl().scaled(scale);
    eprintln!(
        "generating {} at scale {scale} ({} bp, {:.0}x coverage)...",
        preset.name, preset.genome.length, preset.reads.coverage
    );
    let dataset = preset.generate();
    let reads = &dataset.reads;
    eprintln!(
        "{} reads / {} bases ({WORKERS} workers, k={K}, {reps} reps)",
        reads.len(),
        reads.total_bases()
    );

    // Calibration run: the resident peak sets the caps. Also the reference
    // fingerprint every capped run must reproduce byte for byte.
    eprintln!("calibrating: SpillPolicy::Off...");
    let baseline =
        try_assemble(reads, &config(&ctx, SpillPolicy::Off)).expect("resident assembly succeeds");
    let reference = fingerprint(&baseline);
    let resident_peak = peak_store_bytes(&baseline.stats);
    assert_eq!(
        spill_totals(&baseline.stats),
        (0, 0, 0),
        "SpillPolicy::Off must not touch disk"
    );
    eprintln!(
        "resident peak store footprint: {resident_peak} bytes, {} contigs, N50 {}",
        baseline.contigs.len(),
        baseline.stats.n50_final
    );

    let mut regimes: Vec<Regime> = std::iter::once(Regime {
        label: "resident".into(),
        cap: None,
        times: Vec::new(),
        peak: resident_peak,
        spilled: (0, 0, 0),
    })
    .chain(CAP_DIVISORS.iter().map(|d| Regime {
        label: format!("cap = peak/{d}"),
        cap: Some((resident_peak / d).max(1)),
        times: Vec::new(),
        peak: 0,
        spilled: (0, 0, 0),
    }))
    .collect();

    // Interleave the regimes rep by rep so machine drift hits all of them
    // equally; every run (warm-up included) must stay byte-identical.
    for rep in 0..=reps {
        for regime in regimes.iter_mut() {
            let policy = match regime.cap {
                None => SpillPolicy::Off,
                Some(bytes) => SpillPolicy::At(bytes),
            };
            let start = Instant::now();
            let run =
                try_assemble(reads, &config(&ctx, policy)).expect("spilled assembly succeeds");
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(
                fingerprint(&run),
                reference,
                "{}: contigs must be byte-identical to the resident run",
                regime.label
            );
            if let Some(cap) = regime.cap {
                let (written, _, _) = spill_totals(&run.stats);
                assert!(
                    written > 0,
                    "{}: a cap {cap} bytes below the resident peak must spill",
                    regime.label
                );
            }
            if rep > 0 {
                regime.times.push(elapsed);
            } else {
                // Keep the warm-up run's counters (identical across reps:
                // the workflow is deterministic).
                regime.peak = peak_store_bytes(&run.stats);
                regime.spilled = spill_totals(&run.stats);
            }
        }
        if rep == 0 {
            eprintln!("warm-up done; timing {reps} reps...");
        }
    }

    let min_mean = |times: &[f64]| {
        (
            times.iter().copied().fold(f64::INFINITY, f64::min),
            times.iter().sum::<f64>() / times.len().max(1) as f64,
        )
    };
    let resident_min = min_mean(&regimes[0].times).0;

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"out_of_core\",\n");
    json.push_str(&format!("  \"dataset\": \"{}\",\n", preset.name));
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"genome_bp\": {},\n", preset.genome.length));
    json.push_str(&format!("  \"reads\": {},\n", reads.len()));
    json.push_str(&format!("  \"bases\": {},\n", reads.total_bases()));
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"k\": {K},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"contigs\": {},\n", baseline.contigs.len()));
    json.push_str(&format!("  \"n50\": {},\n", baseline.stats.n50_final));
    json.push_str(&format!(
        "  \"resident_peak_store_bytes\": {resident_peak},\n"
    ));
    json.push_str(
        "  \"description\": \"paper workflow end-to-end under SpillPolicy caps; \
         every capped run is asserted byte-identical to the resident run\",\n",
    );
    json.push_str("  \"regimes\": [");
    for (i, regime) in regimes.iter().enumerate() {
        let (min, mean) = min_mean(&regime.times);
        let overhead_pct = (min / resident_min - 1.0) * 100.0;
        let (written, read, runs) = regime.spilled;
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"cap_bytes\": {}, \
             \"min_s\": {min:.6}, \"mean_s\": {mean:.6}, \
             \"overhead_pct\": {overhead_pct:.2}, \
             \"peak_store_resident_bytes\": {}, \
             \"spilled_bytes\": {written}, \"spill_read_bytes\": {read}, \
             \"spilled_runs\": {runs}, \"byte_identical\": true}}",
            regime.label,
            regime.cap.map_or("null".to_string(), |c| c.to_string()),
            regime.peak,
        ));
        eprintln!(
            "{}: min {min:.3}s (+{overhead_pct:.1}%), peak store {} bytes, \
             spilled {written} / read back {read} in {runs} artefacts",
            regime.label, regime.peak
        );
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("out-of-core snapshot → {out_path}");
}
