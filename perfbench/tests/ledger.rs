//! The ledger's own checks: a tiny-scale smoke run of every workload passes
//! the correctness gate in both modes, every metric and workload name is
//! well formed and agrees with `BENCHMARK.json`, and the traced pipeline is
//! the production paper workflow.

use ppa_assembler::Pipeline;
use ppa_ledger::trace::{traced_paper_workflow, Recorder};
use ppa_ledger::workload::{Workload, WORKLOADS};
use ppa_ledger::{run, Args, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// Input size of the smoke runs, relative to the ledger's (20 kbp genomes).
const SMOKE_SCALE: f64 = 0.05;
const SMOKE_SEED: u64 = 7;

fn smoke(workload: &str, trace: bool) -> Outcome {
    let args = Args {
        workload: workload.to_string(),
        seed: SMOKE_SEED,
        seconds: 0.0,
        trace,
        scale: SMOKE_SCALE,
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let outcome = run(&args, &dir).expect("the smoke run completes");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn context<'a>(outcome: &'a Outcome, key: &str) -> &'a str {
    outcome
        .context
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .expect("context key present")
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, v, _)| *v)
        .expect("metric present")
}

#[test]
fn every_workload_passes_the_gate_untraced() {
    let mut digests = Vec::new();
    for w in WORKLOADS {
        let outcome = smoke(w.name, false);
        assert!(outcome.correct(), "{}: {:?}", w.name, outcome.failures);
        assert!(outcome.attempted >= 4, "warm-up + timed reps");
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        for (name, value, _) in &outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                w.name
            );
        }
        assert!(outcome
            .to_json()
            .starts_with("{\"correct\": true, \"attempted\": "));
        digests.push((w.name, context(&outcome, "digest").to_string()));
    }
    // The capped workload reads the same input as hc2-lr: spilling must not
    // change a single contig byte.
    assert_eq!(digests[0].0, "hc2-lr");
    assert_eq!(digests[1].0, "hc2-lr-capped");
    assert_eq!(digests[0].1, digests[1].1);
}

#[test]
fn every_workload_reports_every_layer_traced() {
    for w in WORKLOADS {
        let outcome = smoke(w.name, true);
        assert!(outcome.correct(), "{}: {:?}", w.name, outcome.failures);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        for (name, value, _) in &outcome.metrics {
            assert!(value.is_finite(), "{}: {name} = {value}", w.name);
        }
        for positive in [
            "construct.s",
            "label.r1_s",
            "label.r1_supersteps",
            "merge.s",
        ] {
            assert!(metric(&outcome, positive) > 0.0, "{}: {positive}", w.name);
        }
        let spilled = metric(&outcome, "spill.written_bytes");
        if w.spill_cap.is_some() {
            assert!(spilled > 0.0, "{} must spill", w.name);
            assert!(metric(&outcome, "spill.amplification") > 0.0);
        } else {
            assert_eq!(spilled, 0.0, "{} must not spill", w.name);
        }
        // One span per stage execution plus the pipeline span, per traced
        // assembly; every stage span names the pipeline span as its parent.
        let spans: Vec<&str> = outcome.spans.lines().collect();
        assert!(!spans.is_empty());
        assert!(spans
            .iter()
            .all(|s| s.contains("\"parent\":0") || s.contains("\"pipeline\"")));
    }
}

#[test]
fn traced_pipeline_is_the_paper_workflow() {
    for w in WORKLOADS {
        let config = w.config(2, 1.0);
        let recorder = Recorder::new();
        let traced = traced_paper_workflow(&config, &recorder);
        let production = Pipeline::paper_workflow(&config);
        assert_eq!(traced.fingerprint(), production.fingerprint(), "{}", w.name);
        assert_eq!(traced.stage_count(), production.stage_count());
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn names_are_well_formed_and_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
        names.push(name);
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why)),
            "{} missing from BENCHMARK.json, or with another rationale",
            w.name
        );
        assert!(Workload::by_name(w.name).is_some());
    }
    for name in &names {
        assert!(well_formed(name), "{name:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "every name is used once");
    assert_eq!(
        json.matches("\"name\": ").count(),
        names.len(),
        "BENCHMARK.json lists no name the ledger does not report"
    );
}
