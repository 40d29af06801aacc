//! Regenerates `BENCH_cancellation.json`: the cost of the job control plane
//! on the paper workflow, plus cancel-to-return latency.
//!
//! Two workloads:
//!
//! * `control_plane_overhead` — the full ①②③(④⑤②③)×r workflow, run once
//!   with no [`JobControl`] installed and once with a live handle that never
//!   trips. The difference is the price of the cooperative barrier polls
//!   (one `Option` check plus three atomic loads per BSP boundary); the
//!   budget is ≤1% end-to-end.
//! * `cancel_latency` — across graph sizes, a deadline armed at half of the
//!   measured full-run time trips the workflow mid-assembly; the latency is
//!   the gap between the deadline expiring and `try_run` returning, i.e. the
//!   distance to the next cooperative barrier. Deadlines make the
//!   measurement thread-free: the engine-only-threading lint applies to
//!   bench binaries too.
//!
//! Run from the repository root: `cargo run -p ppa_bench --release --bin
//! cancellation_bench [--reps N] [--out PATH]`.

use ppa_assembler::pipeline::{GraphState, Pipeline, PipelineError};
use ppa_assembler::AssemblyConfig;
use ppa_bench::SnapshotArgs;
use ppa_pregel::{CancelReason, EngineError, ExecCtx, JobControl};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const GENOME: usize = 60_000;
const K: usize = 21;

/// Graph sizes for the cancel-to-return latency sweep.
const LATENCY_GENOMES: &[usize] = &[20_000, 60_000, 120_000];

fn config(ctx: &ExecCtx) -> AssemblyConfig {
    AssemblyConfig {
        k: K,
        min_kmer_coverage: 1,
        workers: WORKERS,
        error_correction_rounds: 1,
        exec: Some(ctx.clone()),
        ..Default::default()
    }
}

fn simulate(genome_bp: usize) -> ReadSet {
    let reference = GenomeConfig {
        length: genome_bp,
        repeat_families: 4,
        repeat_copies: 2,
        repeat_length: 120,
        seed: 42,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage: 30.0,
        substitution_rate: 0.004,
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: 43,
    }
    .simulate(&reference)
}

fn main() {
    let SnapshotArgs { reps, out_path } = SnapshotArgs::parse("BENCH_cancellation.json");
    let ctx = ExecCtx::new(WORKERS);

    eprintln!("simulating {GENOME} bp dataset ({WORKERS} workers, {reps} reps)...");
    let reads = simulate(GENOME);
    let config = config(&ctx);

    eprintln!("control_plane_overhead: no handle vs live handle...");
    let live = JobControl::new();
    let assemble = |control: Option<&JobControl>| {
        if let Some(c) = control {
            ctx.set_control(c.clone());
        }
        let start = Instant::now();
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .try_run(&mut state, &ctx)
            .expect("the paper workflow runs");
        black_box(state.output.len());
        let elapsed = start.elapsed().as_secs_f64();
        ctx.clear_control();
        elapsed
    };
    // Interleave the two variants rep by rep so machine drift (turbo decay,
    // co-tenant load) hits both equally instead of biasing whichever batch
    // ran second; untimed warm-up first, like `time_runs`.
    assemble(None);
    assemble(Some(&live));
    let mut off_times = Vec::with_capacity(reps);
    let mut on_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        off_times.push(assemble(None));
        on_times.push(assemble(Some(&live)));
    }
    let min_mean = |times: &[f64]| {
        (
            times.iter().copied().fold(f64::INFINITY, f64::min),
            times.iter().sum::<f64>() / times.len() as f64,
        )
    };
    let off = min_mean(&off_times);
    let on = min_mean(&on_times);
    let overhead_pct = (on.0 / off.0 - 1.0) * 100.0;
    // One warm-up plus `reps` timed runs share the handle's poll counter.
    let polls_per_run = live.checks() / (reps as u64 + 1);

    eprintln!("cancel_latency: deadline at half the full-run time...");
    // A deadline trip unwinds via `panic_any(EngineError::Cancelled)` before
    // the pipeline catches and retypes it; silence the default hook's
    // backtrace for exactly that payload so the sweep's output stays clean.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<EngineError>().is_none() {
            default_hook(info);
        }
    }));
    let mut latency_rows = Vec::new();
    for &genome_bp in LATENCY_GENOMES {
        let reads = simulate(genome_bp);
        // The uninterrupted wall-clock time calibrates a mid-run deadline.
        let full_start = Instant::now();
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .try_run(&mut state, &ctx)
            .expect("the paper workflow runs");
        black_box(state.output.len());
        let full_s = full_start.elapsed().as_secs_f64();
        let deadline = Duration::from_secs_f64(full_s / 2.0);

        let mut latencies_ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            let control = JobControl::new().with_deadline_in(deadline);
            ctx.set_control(control.clone());
            let start = Instant::now();
            let mut state = GraphState::new(&reads);
            let err = Pipeline::paper_workflow(&config)
                .try_run(&mut state, &ctx)
                .expect_err("the mid-run deadline must trip");
            let elapsed = start.elapsed();
            ctx.clear_control();
            assert!(
                matches!(
                    &err,
                    PipelineError::Cancelled {
                        reason: CancelReason::Deadline,
                        ..
                    }
                ),
                "got {err:?}"
            );
            latencies_ms.push((elapsed.saturating_sub(deadline)).as_secs_f64() * 1e3);
        }
        let min = latencies_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
        eprintln!("  {genome_bp} bp: full {full_s:.3}s, cancel-to-return {mean:.2}ms mean");
        latency_rows.push((genome_bp, reads.len(), full_s, deadline, min, mean));
    }
    let _ = std::panic::take_hook();

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"cancellation\",\n");
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"control_plane_overhead\": {\n");
    json.push_str(
        "    \"description\": \"paper workflow end-to-end; a live never-tripping \
         JobControl polled at every BSP barrier vs no handle installed\",\n",
    );
    json.push_str(&format!("    \"genome_bp\": {GENOME},\n"));
    json.push_str(&format!("    \"reads\": {},\n", reads.len()));
    json.push_str(&format!(
        "    \"off\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}},\n",
        off.0, off.1
    ));
    json.push_str(&format!(
        "    \"on\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}},\n",
        on.0, on.1
    ));
    json.push_str(&format!("    \"polls_per_run\": {polls_per_run},\n"));
    json.push_str(&format!("    \"overhead_pct\": {overhead_pct:.2}\n"));
    json.push_str("  },\n");
    json.push_str("  \"cancel_latency\": {\n");
    json.push_str(
        "    \"description\": \"deadline armed at half the measured full-run time; \
         latency is try_run returning minus the deadline expiring (distance to \
         the next cooperative barrier)\",\n",
    );
    json.push_str("    \"sizes\": [");
    for (i, (genome_bp, n_reads, full_s, deadline, min, mean)) in latency_rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n      {{\"genome_bp\": {genome_bp}, \"reads\": {n_reads}, \
             \"full_run_s\": {full_s:.6}, \"deadline_s\": {:.6}, \
             \"latency_ms\": {{\"min\": {min:.3}, \"mean\": {mean:.3}}}}}",
            deadline.as_secs_f64()
        ));
    }
    json.push_str("\n    ]\n  }\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("control-plane overhead (live handle vs none): {overhead_pct:.2}% → {out_path}");
}
