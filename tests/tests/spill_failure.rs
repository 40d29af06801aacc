//! A spill I/O failure inside a stage reaches the caller as a typed
//! `PipelineError::Stage` that keeps the spill error's message, and leaves
//! the execution context reusable.
//!
//! This file is its own test binary because it points `TMPDIR` at a regular
//! file, which would break every other test of the process that spills.

use ppa_assembler::{try_assemble, AssemblyConfig, PipelineError};
use ppa_pregel::{ExecCtx, SpillPolicy};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;

const WORKERS: usize = 2;

fn simulated_reads() -> ReadSet {
    let reference = GenomeConfig {
        length: 4_000,
        repeat_families: 0,
        seed: 4242,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage: 20.0,
        substitution_rate: 0.0,
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: 4243,
    }
    .simulate(&reference)
}

fn config(ctx: &ExecCtx, spill: SpillPolicy) -> AssemblyConfig {
    AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        workers: WORKERS,
        spill,
        exec: Some(ctx.clone()),
        ..Default::default()
    }
}

#[test]
fn spill_failure_keeps_its_message_and_the_context_stays_usable() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let capped = config(&ctx, SpillPolicy::At(16 * 1024));

    // A regular file where the temp directory should be: creating the first
    // spill directory (construction's first MapReduce phase) fails.
    let real_tmp = std::env::temp_dir();
    let blocker = real_tmp.join(format!("ppa-spill-failure-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("write the blocker file");
    std::env::set_var("TMPDIR", &blocker);
    let outcome = try_assemble(&reads, &capped);
    std::env::set_var("TMPDIR", &real_tmp);
    std::fs::remove_file(&blocker).expect("remove the blocker file");

    match outcome {
        Err(PipelineError::Stage { stage, message, .. }) => {
            assert_eq!(stage, "construct");
            assert!(message.contains("spill failure"), "message: {message}");
            assert!(message.contains("create spill dir"), "message: {message}");
        }
        Err(other) => panic!("expected a construct stage error, got {other:?}"),
        Ok(_) => panic!("spilling into a regular file must fail"),
    }

    // With the temp directory back, the same context assembles normally, and
    // the spilled run matches a resident one byte for byte.
    let spilled = try_assemble(&reads, &capped).expect("the context is reusable");
    let resident = try_assemble(&reads, &config(&ExecCtx::new(WORKERS), SpillPolicy::Off))
        .expect("resident assembly succeeds");
    assert!(!resident.contigs.is_empty());
    assert_eq!(spilled.contigs, resident.contigs);
}
