//! The traced run: the paper workflow rebuilt from the built-in stages, each
//! wrapped in a [`Traced`] stage that records a span, the stage's true peak
//! heap and its layer counters, without changing what the stage does.
//!
//! The wrapper delegates `name`, `run` and `config_fingerprint`, so the
//! traced pipeline's [`Pipeline::fingerprint`] equals
//! [`Pipeline::paper_workflow`]'s; [`traced_paper_workflow`] callers check
//! that before trusting the numbers.

use crate::alloc;
use ppa_assembler::ops::{BubbleConfig, ConstructConfig, MergeConfig, TipConfig};
use ppa_assembler::pipeline::{Construct, FilterBubbles, FilterLength, Label, Merge, RemoveTips};
use ppa_assembler::{AssemblyConfig, GraphState, Pipeline, Stage, StageDetails, StageReport};
use ppa_pregel::{ExecCtx, Metrics};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Bytes per MB in every `_mb` metric (decimal, like the spill cap).
pub const MB: f64 = 1e6;

/// One recorded span: a pipeline run or one stage execution inside it.
struct Span {
    /// Which traced assembly of the run the span belongs to.
    assembly: usize,
    /// Index of the span within its assembly (the pipeline span is 0).
    id: usize,
    /// Stage name, or `pipeline`.
    name: String,
    /// 1-based occurrence of this name within the assembly.
    round: usize,
    /// The span that caused this one (`None` for the pipeline span).
    parent: Option<usize>,
    /// Start, in seconds since the run's trace epoch.
    start_s: f64,
    /// End, in seconds since the run's trace epoch.
    end_s: f64,
}

impl Span {
    /// The span as one JSON line.
    fn to_json(&self) -> String {
        let parent = self
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        format!(
            "{{\"assembly\":{},\"id\":{},\"name\":\"{}\",\"round\":{},\"parent\":{},\
             \"start_s\":{},\"end_s\":{}}}",
            self.assembly, self.id, self.name, self.round, parent, self.start_s, self.end_s
        )
    }
}

/// Spans and layer counters of the traced assemblies of one run.
pub struct Recorder {
    epoch: Instant,
    assembly: usize,
    spans: Vec<Span>,
    layers: BTreeMap<String, f64>,
    rounds: BTreeMap<String, usize>,
    pool_utilization: Vec<f64>,
}

impl Recorder {
    /// A recorder whose span times count from now.
    pub fn new() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            assembly: 0,
            spans: Vec::new(),
            layers: BTreeMap::new(),
            rounds: BTreeMap::new(),
            pool_utilization: Vec::new(),
        }))
    }

    /// Opens the pipeline span of a new traced assembly.
    pub fn begin(&mut self) {
        self.layers.clear();
        self.rounds.clear();
        self.pool_utilization.clear();
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            assembly: self.assembly,
            id: 0,
            name: "pipeline".to_string(),
            round: 1,
            parent: None,
            start_s: start,
            end_s: start,
        });
    }

    /// Closes the open pipeline span at `end` and derives the whole-run
    /// layer metrics (pipeline self time, mean pool utilization).
    pub fn finish(&mut self, end: Instant) -> TracedAssembly {
        let end_s = self.secs(end);
        let assembly = self.assembly;
        let span = self
            .spans
            .iter_mut()
            .find(|s| s.assembly == assembly && s.id == 0)
            .expect("begin() opened this assembly's pipeline span");
        span.end_s = end_s;
        let wall_s = span.end_s - span.start_s;
        let stages_s = self.layers.remove("pipeline.stages_s").unwrap_or(0.0);
        self.set("pipeline.self_s", wall_s - stages_s);
        let util = &self.pool_utilization;
        let mean = if util.is_empty() {
            0.0
        } else {
            util.iter().sum::<f64>() / util.len() as f64
        };
        self.set("engine.pool_utilization", mean);
        self.assembly += 1;
        TracedAssembly {
            wall_s,
            layers: std::mem::take(&mut self.layers),
        }
    }

    /// Every span recorded so far, as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let _ = writeln!(out, "{}", span.to_json());
        }
        out
    }

    fn secs(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64()
    }

    fn set(&mut self, key: impl Into<String>, value: f64) {
        self.layers.insert(key.into(), value);
    }

    fn add(&mut self, key: &str, value: f64) {
        *self.layers.entry(key.to_string()).or_insert(0.0) += value;
    }

    fn max(&mut self, key: &str, value: f64) {
        let slot = self.layers.entry(key.to_string()).or_insert(0.0);
        *slot = slot.max(value);
    }

    fn add_spill(&mut self, written: u64, read: u64, runs: u64) {
        self.add("spill.written_bytes", written as f64);
        self.add("spill.read_bytes", read as f64);
        self.add("spill.runs", runs as f64);
    }

    fn add_pregel(&mut self, metrics: &Metrics) {
        self.add_spill(
            metrics.spilled_bytes,
            metrics.spill_read_bytes,
            metrics.spilled_runs,
        );
        self.pool_utilization
            .extend(metrics.per_superstep.iter().map(|s| s.pool_utilization));
    }

    /// Files one finished stage: its span, its heap peak, and the counters
    /// its report (or, for labeling, `state.labels`) carries.
    fn stage(
        &mut self,
        report: &StageReport,
        state: &GraphState<'_>,
        start: Instant,
        end: Instant,
        heap: usize,
    ) {
        let name = report.stage.clone();
        let round = {
            let r = self.rounds.entry(name.clone()).or_insert(0);
            *r += 1;
            *r
        };
        let span = Span {
            assembly: self.assembly,
            id: self
                .spans
                .iter()
                .filter(|s| s.assembly == self.assembly)
                .count(),
            name,
            round,
            parent: Some(0),
            start_s: self.secs(start),
            end_s: self.secs(end),
        };
        let secs = span.end_s - span.start_s;
        let heap_mb = heap as f64 / MB;
        self.spans.push(span);
        self.add("pipeline.stages_s", secs);
        match &report.details {
            StageDetails::Construct(s) => {
                self.set("construct.s", secs);
                self.set("construct.phase1_s", s.phase1.elapsed.as_secs_f64());
                self.set("construct.phase2_s", s.phase2.elapsed.as_secs_f64());
                self.set(
                    "construct.pairs_shuffled",
                    (s.phase1.pairs_shuffled + s.phase2.pairs_shuffled) as f64,
                );
                self.set("construct.vertices", s.vertices as f64);
                self.set(
                    "construct.spilled_bytes",
                    (s.phase1.spilled_bytes + s.phase2.spilled_bytes) as f64,
                );
                self.set("construct.peak_heap_mb", heap_mb);
                for phase in [&s.phase1, &s.phase2] {
                    self.add_spill(
                        phase.spilled_bytes,
                        phase.spill_read_bytes,
                        phase.spilled_runs,
                    );
                }
            }
            StageDetails::Label(_) => {
                let none = Metrics::default();
                let metrics = state.labels.as_ref().map_or(&none, |l| &l.metrics);
                let compute: f64 = metrics
                    .per_superstep
                    .iter()
                    .map(|s| s.compute_elapsed.as_secs_f64())
                    .sum();
                let shuffle: f64 = metrics
                    .per_superstep
                    .iter()
                    .map(|s| s.shuffle_elapsed.as_secs_f64())
                    .sum();
                let p = format!("label.r{round}_");
                self.set(format!("{p}s"), secs);
                self.set(format!("{p}compute_s"), compute);
                self.set(format!("{p}shuffle_s"), shuffle);
                self.set(format!("{p}other_s"), secs - compute - shuffle);
                self.set(format!("{p}supersteps"), metrics.supersteps as f64);
                self.set(format!("{p}messages"), metrics.total_messages as f64);
                self.set(format!("{p}avg_frontier"), metrics.avg_frontier_density);
                self.set(
                    format!("{p}store_peak_mb"),
                    metrics.peak_store_resident_bytes as f64 / MB,
                );
                self.set(format!("{p}peak_heap_mb"), heap_mb);
                let log2n = (state.nodes.len().max(2) as f64).log2();
                self.set(
                    format!("{p}supersteps_per_log2n"),
                    metrics.supersteps as f64 / log2n,
                );
                self.add_pregel(metrics);
            }
            StageDetails::Merge { stats, .. } => {
                self.add("merge.s", secs);
                self.add(
                    "merge.pairs_shuffled",
                    stats.mapreduce.pairs_shuffled as f64,
                );
                self.add("merge.groups", stats.groups as f64);
                self.max("merge.peak_heap_mb", heap_mb);
                self.add_spill(
                    stats.mapreduce.spilled_bytes,
                    stats.mapreduce.spill_read_bytes,
                    stats.mapreduce.spilled_runs,
                );
            }
            StageDetails::Bubbles { pruned, .. } => {
                self.add("bubble.s", secs);
                self.add("bubble.pruned", *pruned as f64);
            }
            StageDetails::Tips { metrics, .. } => {
                self.add("tip.s", secs);
                self.add("tip.supersteps", metrics.supersteps as f64);
                self.add("tip.messages", metrics.total_messages as f64);
                self.add_pregel(metrics);
            }
            StageDetails::FilterLength { .. } | StageDetails::Custom => {}
        }
    }
}

/// A built-in stage wrapped for tracing: delegates everything, records
/// around `run`.
pub struct Traced {
    inner: Box<dyn Stage>,
    recorder: Rc<RefCell<Recorder>>,
}

impl Stage for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport {
        let live = alloc::reset_peak();
        let start = Instant::now();
        let report = self.inner.run(state, ctx);
        let end = Instant::now();
        let heap = alloc::peak_bytes().saturating_sub(live);
        self.recorder
            .borrow_mut()
            .stage(&report, state, start, end, heap);
        // The recorder's own bookkeeping must not count against the next
        // stage.
        alloc::reset_peak();
        report
    }

    fn config_fingerprint(&self) -> u64 {
        self.inner.config_fingerprint()
    }
}

/// [`Pipeline::paper_workflow`] for `config`, stage for stage, with every
/// stage wrapped in [`Traced`].
pub fn traced_paper_workflow<'o>(
    config: &AssemblyConfig,
    recorder: &Rc<RefCell<Recorder>>,
) -> Pipeline<'o> {
    let wrap = |inner: Box<dyn Stage>| Traced {
        inner,
        recorder: Rc::clone(recorder),
    };
    let merge = MergeConfig {
        k: config.k,
        tip_length_threshold: config.tip_length_threshold,
    };
    let round: Vec<Box<dyn Stage>> = vec![
        Box::new(wrap(Box::new(FilterBubbles::new(BubbleConfig {
            max_edit_distance: config.bubble_edit_distance,
        })))),
        Box::new(wrap(Box::new(RemoveTips::new(TipConfig {
            k: config.k,
            tip_length_threshold: config.tip_length_threshold,
        })))),
        Box::new(wrap(Box::new(Label::new(config.labeling)))),
        Box::new(wrap(Box::new(Merge::new(merge.clone())))),
    ];
    Pipeline::new()
        .then(wrap(Box::new(Construct::new(ConstructConfig {
            k: config.k,
            min_coverage: config.min_kmer_coverage,
            batch_size: ConstructConfig::default().batch_size,
        }))))
        .then(wrap(Box::new(Label::new(config.labeling))))
        .then(wrap(Box::new(Merge::new(merge))))
        .repeat(config.error_correction_rounds, round)
        .then(wrap(Box::new(FilterLength::new(config.min_contig_length))))
}

/// What one traced assembly measured.
pub struct TracedAssembly {
    /// Wall time of the traced pipeline run.
    pub wall_s: f64,
    /// Per-layer metrics of this assembly.
    pub layers: BTreeMap<String, f64>,
}
