//! Regenerates `BENCH_checkpoint.json`: the cost of stage-boundary
//! checkpointing on the paper workflow, plus save/load micro-timings.
//!
//! Two workloads:
//!
//! * `assembly_overhead` — the full ①②③(④⑤②③)×r workflow on a simulated
//!   dataset, run once with checkpointing off and once snapshotting the
//!   `GraphState` after *every* flattened stage
//!   (`CheckpointPolicy::EveryStage`, the most aggressive setting). The
//!   difference is the total fault-tolerance tax; the per-stage policy is
//!   expected to stay well under 10% end-to-end.
//! * `save_load_micro` — `checkpoint::save` and `checkpoint::load_latest` on
//!   the heaviest snapshot of that run (the post-construction k-mer graph),
//!   isolating the columnar encode/write and read/validate/decode costs from
//!   the assembly itself.
//!
//! Run from the repository root: `cargo run -p ppa_bench --release --bin
//! checkpoint [--reps N] [--out PATH]`.

use ppa_assembler::checkpoint::{self, CheckpointMeta};
use ppa_assembler::ops::construct::ConstructConfig;
use ppa_assembler::pipeline::{CheckpointPolicy, Construct, GraphState, Pipeline};
use ppa_assembler::AssemblyConfig;
use ppa_bench::{time_runs as time, SnapshotArgs};
use ppa_pregel::ExecCtx;
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};

const WORKERS: usize = 4;
const GENOME: usize = 60_000;
const K: usize = 21;

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

/// Total bytes of every file under one snapshot directory.
fn snapshot_bytes(ckpt: &Path) -> u64 {
    std::fs::read_dir(ckpt)
        .expect("snapshot dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

fn main() {
    let SnapshotArgs { reps, out_path } = SnapshotArgs::parse("BENCH_checkpoint.json");
    let dir: PathBuf = std::env::temp_dir().join(format!("ppa-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("simulating {GENOME} bp dataset ({WORKERS} workers, {reps} reps)...");
    let reference = GenomeConfig {
        length: GENOME,
        repeat_families: 4,
        repeat_copies: 2,
        repeat_length: 120,
        seed: 42,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig {
        read_length: 100,
        coverage: 30.0,
        substitution_rate: 0.004,
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: 43,
    }
    .simulate(&reference);
    let ctx = ExecCtx::new(WORKERS);
    let config = config(&ctx);
    let stage_count = Pipeline::<'static>::paper_workflow(&config).stage_count();

    eprintln!("assembly_overhead: checkpointing off vs EveryStage...");
    let off = time(reps, || {
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .try_run(&mut state, &ctx)
            .expect("the paper workflow runs");
        black_box(state.output.len());
    });
    let every_stage = time(reps, || {
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .checkpoint_to(&dir, CheckpointPolicy::EveryStage)
            .try_run(&mut state, &ctx)
            .expect("the checkpointed paper workflow runs");
        black_box(state.output.len());
    });
    let overhead_pct = (every_stage.0 / off.0 - 1.0) * 100.0;

    eprintln!("save_load_micro: snapshotting the post-construction graph...");
    // The heaviest state of the workflow: the full k-mer graph after stage ①.
    let mut construct_only = Pipeline::new().then(Construct::new(ConstructConfig {
        k: K,
        min_coverage: 1,
        batch_size: 1024,
    }));
    let fingerprint = construct_only.fingerprint();
    let mut heavy = GraphState::new(&reads);
    construct_only
        .try_run(&mut heavy, &ctx)
        .expect("construction runs");
    let meta = CheckpointMeta {
        completed_stages: 1,
        rounds: vec![("construct".to_string(), 1)],
        pipeline_fingerprint: fingerprint,
        workers: ctx.workers(),
    };
    let save = time(reps, || {
        black_box(checkpoint::save(&dir, &heavy, &meta).expect("save"));
    });
    let ckpt = checkpoint::latest(&dir).expect("scan").expect("snapshot");
    let bytes = snapshot_bytes(&ckpt);
    let load = time(reps, || {
        let (state, manifest) = checkpoint::load_latest(&dir, &reads).expect("load");
        black_box((state.nodes.len(), manifest.completed_stages));
    });
    let _ = std::fs::remove_dir_all(&dir);

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"checkpoint\",\n");
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"genome_bp\": {GENOME},\n"));
    json.push_str(&format!("  \"reads\": {},\n", reads.len()));
    json.push_str(&format!("  \"flattened_stages\": {stage_count},\n"));
    json.push_str("  \"assembly_overhead\": {\n");
    json.push_str(
        "    \"description\": \"paper workflow end-to-end; EveryStage snapshots after \
         each of the flattened stages vs no checkpointing\",\n",
    );
    json.push_str(&format!(
        "    \"off\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}},\n",
        off.0, off.1
    ));
    json.push_str(&format!(
        "    \"every_stage\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}},\n",
        every_stage.0, every_stage.1
    ));
    json.push_str(&format!("    \"overhead_pct\": {overhead_pct:.2}\n"));
    json.push_str("  },\n");
    json.push_str("  \"save_load_micro\": {\n");
    json.push_str(
        "    \"description\": \"checkpoint::save / checkpoint::load_latest of the \
         post-construction k-mer graph (the workflow's heaviest snapshot)\",\n",
    );
    json.push_str(&format!("    \"snapshot_bytes\": {bytes},\n"));
    json.push_str(&format!(
        "    \"save\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}},\n",
        save.0, save.1
    ));
    json.push_str(&format!(
        "    \"load\": {{\"min_s\": {:.6}, \"mean_s\": {:.6}}}\n",
        load.0, load.1
    ));
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("checkpointing overhead (EveryStage vs off): {overhead_pct:.2}% → {out_path}");
}
