//! Regenerates `BENCH_simd.json`: the vectorized data-plane kernels
//! (`ppa_pregel::kernels`, `ppa_seq::kernels`) against their portable scalar
//! twins.
//!
//! Three per-kernel micro-benches (scalar twin vs runtime-dispatched SIMD):
//!
//! * **histogram** — radix digit histogramming over 1M full-width keys;
//! * **bitset_scan** — the pass-2 straggler walk (`next_word_with_zero`)
//!   plus the quiescence `popcount` over a 16M-bit halted set;
//! * **kmer_compare** — packed `DnaString` ordering and canonical-strand
//!   picks, word-parallel vs decoded base-by-base.
//!
//! Then **assemble_e2e** — whole `workflow::try_assemble`, scalar twins vs the
//! full vectorized configuration.
//!
//! Workloads interleave their baseline and vectorized reps (B T B T …)
//! rather than timing one side after the other, so slow machine-speed drift
//! cannot bias the ratio toward whichever side happened to run last.
//!
//! Run from the repository root: `cargo run -p ppa_bench --release --bin
//! simd_kernels [--reps N] [--out PATH]`.

use ppa_assembler::workflow::{try_assemble, AssemblyConfig};
use ppa_bench::SnapshotArgs;
use ppa_pregel::kernels;
use ppa_readsim::preset_by_name;
use ppa_seq::DnaString;
use std::hint::black_box;
use std::time::Instant;

const WORKERS: usize = 4;
const KEYS_N: usize = 1_000_000;
const BITSET_WORDS: usize = 250_000; // 16M bits
const DNA_STRINGS: usize = 2_000;
const DNA_LEN: usize = 150;

struct Workload {
    name: &'static str,
    description: String,
    baseline_name: &'static str,
    baseline: (f64, f64),
    simd: (f64, f64),
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.baseline.0 / self.simd.0
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Interleaves baseline and treatment reps (B T B T …) so slow machine-speed
/// drift lands on both sides equally, instead of biasing whichever side ran
/// last. `rep(true)` must run one baseline rep, `rep(false)` one treatment
/// rep; returns `(baseline, treatment)` as `(min_s, mean_s)` pairs.
fn paired(reps: usize, mut rep: impl FnMut(bool)) -> ((f64, f64), (f64, f64)) {
    let reps = reps.max(1);
    let mut baseline = (f64::INFINITY, 0.0);
    let mut treatment = (f64::INFINITY, 0.0);
    for _ in 0..reps {
        for (acc, is_baseline) in [(&mut baseline, true), (&mut treatment, false)] {
            let t = Instant::now();
            rep(is_baseline);
            let dt = t.elapsed().as_secs_f64();
            acc.0 = acc.0.min(dt);
            acc.1 += dt;
        }
    }
    baseline.1 /= reps as f64;
    treatment.1 /= reps as f64;
    (baseline, treatment)
}

/// Runs `f` with every kernel of both kernel crates forced onto its scalar
/// twin (the two crates share the toggle convention, not the toggle).
fn scalar<R>(f: impl FnOnce() -> R) -> R {
    kernels::force_scalar_kernels(true);
    ppa_seq::kernels::force_scalar_kernels(true);
    let out = f();
    ppa_seq::kernels::force_scalar_kernels(false);
    kernels::force_scalar_kernels(false);
    out
}

/// Times `f` under forced-scalar twins and under normal dispatch on
/// interleaved reps, and wraps the pair into a [`Workload`].
fn kernel_pair(
    name: &'static str,
    description: String,
    reps: usize,
    mut f: impl FnMut(),
) -> Workload {
    eprintln!("{name} ({reps} reps)...");
    let (baseline, simd) = paired(reps, |is_scalar| {
        if is_scalar {
            scalar(&mut f);
        } else {
            f();
        }
    });
    Workload {
        name,
        description,
        baseline_name: "scalar",
        baseline,
        simd,
    }
}

// ---------------------------------------------------------------------------
// Per-kernel micros
// ---------------------------------------------------------------------------

fn histogram_workload(reps: usize) -> Workload {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let keys: Vec<u64> = (0..KEYS_N).map(|_| xorshift(&mut state)).collect();
    let mut hist = Box::new([[0u32; 256]; 8]);
    kernel_pair(
        "histogram",
        format!("all-8-digit radix histogram accumulation over {KEYS_N} full-width keys"),
        reps,
        move || {
            kernels::histograms8(black_box(&keys), &mut hist);
            black_box(hist[0][0]);
        },
    )
}

fn bitset_workload(reps: usize) -> Workload {
    // Mostly-halted bitset: one straggler every 2048 vertices, the
    // scan_sparse shape.
    let mut words = vec![u64::MAX; BITSET_WORDS];
    for w in (0..BITSET_WORDS).step_by(32) {
        words[w] &= !(1u64 << (w % 64));
    }
    kernel_pair(
        "bitset_scan",
        format!(
            "straggler walk (next_word_with_zero) + quiescence popcount over \
             {BITSET_WORDS} words, one active vertex per 2048"
        ),
        reps,
        move || {
            for _ in 0..16 {
                let mut stragglers = 0u64;
                let mut wi = 0usize;
                while let Some(w) = kernels::next_word_with_zero(black_box(&words), wi) {
                    stragglers += (!words[w]).count_ones() as u64;
                    wi = w + 1;
                }
                let halted = kernels::popcount(black_box(&words));
                black_box((stragglers, halted));
            }
        },
    )
}

fn kmer_compare_workload(reps: usize) -> Workload {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    let strings: Vec<DnaString> = (0..DNA_STRINGS)
        .map(|_| {
            let ascii: String = (0..DNA_LEN)
                .map(|_| b"ACGT"[(xorshift(&mut state) % 4) as usize] as char)
                .collect();
            DnaString::from_ascii(&ascii).expect("generated ACGT")
        })
        .collect();
    kernel_pair(
        "kmer_compare",
        format!(
            "{DNA_STRINGS} packed {DNA_LEN}-base strings: pairwise ordering + \
             canonical-strand picks, word-parallel vs decoded"
        ),
        reps,
        move || {
            let mut less = 0usize;
            for pair in strings.windows(2) {
                if pair[0] < pair[1] {
                    less += 1;
                }
            }
            let mut forward = 0usize;
            for s in &strings {
                if &black_box(s).canonical() == s {
                    forward += 1;
                }
            }
            black_box((less, forward));
        },
    )
}

// ---------------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------------

fn main() {
    let SnapshotArgs { reps, out_path } = SnapshotArgs::parse("BENCH_simd.json");

    // The short workloads take milliseconds per rep, so they run a multiple
    // of the requested reps: on a busy shared host the min-of-N only
    // converges to the quiet-period floor (for both sides of each pair)
    // with a larger N, and the extra reps cost almost nothing.
    let micro_reps = reps * 6;
    let mut workloads = vec![
        histogram_workload(micro_reps),
        bitset_workload(micro_reps),
        kmer_compare_workload(micro_reps),
    ];

    let dataset = preset_by_name("sim-hc2")
        .expect("sim-hc2 preset exists")
        .scaled(0.5)
        .generate();
    let config = AssemblyConfig {
        k: 25,
        workers: WORKERS,
        ..Default::default()
    };
    eprintln!(
        "assemble_e2e ({} reads, k={}, {WORKERS} workers, {reps} reps)...",
        dataset.reads.len(),
        config.k
    );
    let run = || {
        let assembly = try_assemble(&dataset.reads, &config).expect("assembly succeeds");
        black_box(assembly.contigs.len());
    };
    let (baseline, simd) = paired(reps, |is_scalar| {
        if is_scalar {
            scalar(run);
        } else {
            run();
        }
    });
    workloads.push(Workload {
        name: "assemble_e2e",
        description: "whole workflow::try_assemble on sim-hc2 ×0.5: scalar twins vs the full \
                      vectorized configuration"
            .to_string(),
        baseline_name: "scalar",
        baseline,
        simd,
    });

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"simd_kernels\",\n");
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"workloads\": [\n");
    let last = workloads.len() - 1;
    for (i, w) in workloads.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", w.name));
        json.push_str(&format!("      \"description\": \"{}\",\n", w.description));
        json.push_str(&format!(
            "      \"baseline\": \"{}\",\n      \"{}\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}},\n",
            w.baseline_name, w.baseline_name, w.baseline.0, w.baseline.1
        ));
        json.push_str(&format!(
            "      \"vectorized\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}},\n",
            w.simd.0, w.simd.1
        ));
        json.push_str(&format!("      \"speedup\": {:.2}\n", w.speedup()));
        json.push_str(if i == last { "    }\n" } else { "    },\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    for w in &workloads {
        println!("{}: {:.2}x vs {}", w.name, w.speedup(), w.baseline_name);
    }
    println!("→ {out_path}");
}
