//! The ledger: the repository's end-to-end benchmark.
//!
//! One run assembles one generated workload with the paper workflow
//! (①②③④⑤②③: k = 31, θ = 1, one correction round, one worker per core)
//! through the public entry points only — [`read_input_path`],
//! [`ExecCtx::new`], [`try_assemble`] and the built-in pipeline stages — and
//! checks every assembly for correctness.
//!
//! * `--trace 0` reports the end-to-end metrics ([`END_TO_END`]) with
//!   tracing off.
//! * `--trace 1` reports the per-layer metrics ([`PER_LAYER`]): it
//!   alternates untraced assemblies with assemblies of the paper workflow
//!   rebuilt from [`trace::Traced`] stages, and compares the two for the
//!   tracing overhead.
//!
//! Steadiness: one warm-up assembly runs before anything is timed
//! (construct's first phase varied 0.24–0.82 s across fresh processes, and
//! single assemblies ±15% within one), then the run repeats the assembly
//! for the requested seconds, at least [`MIN_REPS`] times, and reports
//! medians. Set-up is timed [`SETUP_REPS`] times after [`SETUP_WARMUP`]
//! untimed repetitions, and once more after every timed assembly: its speed
//! shifts by a third within seconds on a shared host, so its median must
//! sample the whole run.
//!
//! Correctness gate, per assembly: no error and no panic; the contig digest
//! equals that of the run's first assembly; on a capped workload the digest
//! equals the resident twin's (spilling must not change the contigs); and
//! the contigs meet the quality floors ([`MIN_GENOME_FRACTION_PCT`],
//! [`MAX_MISASSEMBLIES`]) against the generated reference. A miss counts as
//! a failed assembly; it does not stop the run.

pub mod alloc;
pub mod trace;
pub mod workload;

use ppa_assembler::{read_input_path, try_assemble, AssemblyConfig, Contig, GraphState, Pipeline};
use ppa_pregel::ExecCtx;
use ppa_quality::{align_contigs, n50, AlignmentConfig};
use ppa_seq::ReadSet;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use trace::{Recorder, TracedAssembly, MB};
use workload::Workload;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("assembly_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("n50_bp", "bp"),
    ("genome_fraction_pct", "%"),
    ("pass_fraction", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Layers are named after
/// the modules they time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("seq.parse_s", "s"),
    ("seq.bases", "count"),
    ("engine.spawn_s", "s"),
    ("engine.pool_utilization", "ratio"),
    ("construct.s", "s"),
    ("construct.phase1_s", "s"),
    ("construct.phase2_s", "s"),
    ("construct.pairs_shuffled", "count"),
    ("construct.vertices", "count"),
    ("construct.spilled_bytes", "B"),
    ("construct.peak_heap_mb", "MB"),
    ("label.r1_s", "s"),
    ("label.r1_compute_s", "s"),
    ("label.r1_shuffle_s", "s"),
    ("label.r1_other_s", "s"),
    ("label.r1_supersteps", "count"),
    ("label.r1_messages", "count"),
    ("label.r1_avg_frontier", "ratio"),
    ("label.r1_store_peak_mb", "MB"),
    ("label.r1_peak_heap_mb", "MB"),
    ("label.r1_supersteps_per_log2n", "ratio"),
    ("label.r2_s", "s"),
    ("label.r2_supersteps", "count"),
    ("label.r2_messages", "count"),
    ("spill.written_bytes", "B"),
    ("spill.read_bytes", "B"),
    ("spill.runs", "count"),
    ("spill.amplification", "ratio"),
    ("spill.shuffle_share_of_gap", "ratio"),
    ("merge.s", "s"),
    ("merge.pairs_shuffled", "count"),
    ("merge.groups", "count"),
    ("merge.peak_heap_mb", "MB"),
    ("bubble.s", "s"),
    ("bubble.pruned", "count"),
    ("tip.s", "s"),
    ("tip.supersteps", "count"),
    ("tip.messages", "count"),
    ("pipeline.self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("quality.misassemblies", "count"),
];

/// Timed set-up repetitions before the first assembly; one more follows
/// every timed assembly, and `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 5;
/// Untimed set-up repetitions before the timed ones (parse times fall by a
/// third over the first few while the heap and caches warm).
pub const SETUP_WARMUP: usize = 5;
/// Minimum timed assemblies per run, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Untimed warm-up assemblies before the timed ones.
pub const WARMUP_REPS: usize = 1;

/// Quality floor: the least genome fraction, in percent of the reference,
/// an assembly must cover (every workload and seed probed gave 98.3–98.7%).
pub const MIN_GENOME_FRACTION_PCT: f64 = 97.0;
/// Quality floor: the most misassembled contigs an assembly may have (every
/// workload and seed probed gave 0).
pub const MAX_MISASSEMBLIES: usize = 0;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated genome and reads.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Input size relative to the workload's own: 1.0 from the command line,
    /// smaller in the smoke tests.
    pub scale: f64,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => match value.as_str() {
                    "0" => parsed.trace = false,
                    "1" => parsed.trace = true,
                    _ => return Err(bad()),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if Workload::by_name(&parsed.workload).is_none() {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "--workload must be one of {names:?}, got {:?}",
                parsed.workload
            ));
        }
        if !parsed.seconds.is_finite() || parsed.seconds < 0.0 {
            return Err("--seconds must be a non-negative number".into());
        }
        Ok(parsed)
    }
}

/// What one run measured.
pub struct Outcome {
    /// Assemblies attempted.
    pub attempted: usize,
    /// Assemblies that failed the correctness gate.
    pub failed: usize,
    /// `(name, value, unit)`, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Provenance of the numbers, as `(key, value)`.
    pub context: Vec<(&'static str, String)>,
    /// Failure reasons, one per failed assembly.
    pub failures: Vec<String>,
    /// The traced run's spans as JSON lines (empty with tracing off).
    pub spans: String,
}

impl Outcome {
    /// Whether every assembly passed the gate.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line.
    pub fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{\"context\": {{{}}}}}", fields.join(", "))
    }
}

/// A finite JSON number with all its digits.
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a digest of the contigs (ID, coverage, sequence, in output order).
fn digest(contigs: &[Contig]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for c in contigs {
        eat(&c.id.to_le_bytes());
        eat(&c.coverage.to_le_bytes());
        eat(c.sequence.to_ascii().as_bytes());
        eat(b"\n");
    }
    h
}

/// One assembly's contigs, or why it failed.
type Attempt<T> = Result<(Vec<Contig>, T), String>;

/// One untraced assembly: wall seconds and peak heap in MB above the live
/// bytes at its start.
fn assemble_timed(reads: &ReadSet, config: &AssemblyConfig) -> Attempt<(f64, f64)> {
    let live = alloc::reset_peak();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| try_assemble(reads, config)));
    let secs = start.elapsed().as_secs_f64();
    let heap_mb = alloc::peak_bytes().saturating_sub(live) as f64 / MB;
    match result {
        Ok(Ok(assembly)) => Ok((assembly.contigs, (secs, heap_mb))),
        Ok(Err(e)) => Err(format!("assembly error: {e}")),
        Err(_) => Err("assembly panicked".to_string()),
    }
}

/// One assembly through the traced paper workflow.
fn assemble_traced(
    reads: &ReadSet,
    config: &AssemblyConfig,
    ctx: &ExecCtx,
    recorder: &Rc<RefCell<Recorder>>,
) -> Attempt<TracedAssembly> {
    let mut pipeline = trace::traced_paper_workflow(config, recorder);
    if pipeline.fingerprint() != Pipeline::paper_workflow(config).fingerprint() {
        return Err("traced pipeline fingerprint differs from paper_workflow".to_string());
    }
    // `try_assemble` installs the policy itself; the hand-built pipeline
    // must do the same.
    ctx.set_spill(config.spill);
    let mut state = GraphState::new(reads);
    recorder.borrow_mut().begin();
    let result = catch_unwind(AssertUnwindSafe(|| pipeline.try_run(&mut state, ctx)));
    let traced = recorder.borrow_mut().finish(Instant::now());
    match result {
        Ok(Ok(_)) => Ok((std::mem::take(&mut state.output), traced)),
        Ok(Err(e)) => Err(format!("traced assembly error: {e}")),
        Err(_) => Err("traced assembly panicked".to_string()),
    }
}

/// Tracks attempts against the run's reference digest.
struct Ledger {
    attempted: usize,
    failures: Vec<String>,
    reference: Option<(u64, Vec<Contig>)>,
}

impl Ledger {
    /// Files one attempt; returns its measurement if it passed so far.
    fn check<T>(&mut self, what: &str, attempt: Attempt<T>) -> Option<T> {
        self.attempted += 1;
        match attempt {
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
            Ok((contigs, measured)) => {
                let d = digest(&contigs);
                match &self.reference {
                    None => {
                        self.reference = Some((d, contigs));
                        Some(measured)
                    }
                    Some((want, _)) if *want == d => Some(measured),
                    Some((want, _)) => {
                        self.failures
                            .push(format!("{what}: digest {d:016x} != {want:016x}"));
                        None
                    }
                }
            }
        }
    }
}

/// Reads the commit from `.git` in the working directory, if there is one.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Set-up seconds of the timed repetitions.
#[derive(Default)]
struct SetUp {
    parse_s: Vec<f64>,
    spawn_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl SetUp {
    /// Parses the reads and spawns a pool; `timed` files the seconds taken.
    fn once(
        &mut self,
        fastq: &Path,
        workers: usize,
        timed: bool,
    ) -> Result<(ReadSet, ExecCtx), String> {
        let t0 = Instant::now();
        let reads = read_input_path(fastq).map_err(|e| format!("reading reads: {e}"))?;
        let t1 = Instant::now();
        let ctx = ExecCtx::new(workers);
        let t2 = Instant::now();
        if timed {
            self.parse_s.push((t1 - t0).as_secs_f64());
            self.spawn_s.push((t2 - t1).as_secs_f64());
            self.total_s.push((t2 - t0).as_secs_f64());
        }
        Ok((reads, ctx))
    }
}

/// The per-layer metrics: medians over the traced assemblies, plus what
/// is measured around them — set-up, the resident twin of a capped
/// workload, the untraced assemblies and the quality check.
fn per_layer(
    traced: &[TracedAssembly],
    twin: Option<&TracedAssembly>,
    untraced_s: &[f64],
    setup: &SetUp,
    bases: usize,
    misassemblies: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|t| t.layers.get(*name).copied())
            .collect();
        layers.insert(name.to_string(), median(&values));
    }
    let traced_s = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    // Spill amplification is measured against the resident store: the
    // twin's on a capped workload, the workload's own otherwise (where
    // nothing spills).
    let (resident_store_mb, gap_share) = match twin {
        Some(t) => {
            let gap = traced_s - t.wall_s;
            let shuffle_gap = layers["label.r1_shuffle_s"] - t.layers["label.r1_shuffle_s"];
            (t.layers["label.r1_store_peak_mb"], shuffle_gap / gap)
        }
        None => (layers["label.r1_store_peak_mb"], 0.0),
    };
    let amplification = layers["spill.written_bytes"] / (resident_store_mb * MB).max(1.0);
    let overhead_pct = (traced_s / median(untraced_s) - 1.0) * 100.0;
    for (name, value) in [
        ("seq.parse_s", median(&setup.parse_s)),
        ("seq.bases", bases as f64),
        ("engine.spawn_s", median(&setup.spawn_s)),
        ("spill.amplification", amplification),
        ("spill.shuffle_share_of_gap", gap_share),
        ("trace.overhead_pct", overhead_pct),
        ("quality.misassemblies", misassemblies),
    ] {
        layers.insert(name.to_string(), value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers[name], unit))
        .collect()
}

/// Runs one workload; `work` is a scratch directory for the FASTQ file.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let workload = Workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let io = |e: std::io::Error| format!("{}: {e}", work.display());

    // Inputs: generated from the seed, written to disk, and read back — the
    // assembler only ever sees the FASTQ file.
    let dataset = workload.preset(args.seed, args.scale).generate();
    std::fs::create_dir_all(work).map_err(io)?;
    let fastq = work.join("reads.fastq");
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&fastq).map_err(io)?);
        dataset
            .reads
            .write_fastq(&mut out)
            .map_err(|e| format!("writing {}: {e}", fastq.display()))?;
        out.flush().map_err(io)?;
    }
    let reference = dataset.reference.sequence.clone();
    let (genome_bp, n_reads, bases) = (
        reference.len(),
        dataset.reads.len(),
        dataset.reads.total_bases(),
    );
    drop(dataset);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores;

    let mut setup = SetUp::default();
    let mut kept = None;
    for rep in 0..SETUP_WARMUP + SETUP_REPS {
        // The previous repetition's reads and pool are dropped here, outside
        // the timed region.
        kept = Some(setup.once(&fastq, workers, rep >= SETUP_WARMUP)?);
    }
    let (reads, ctx) = kept.expect("at least one set-up repetition");
    if reads.total_bases() != bases {
        return Err("the FASTQ round trip changed the reads".to_string());
    }
    let mut config = workload.config(workers, args.scale);
    config.exec = Some(ctx.clone());

    let mut ledger = Ledger {
        attempted: 0,
        failures: Vec::new(),
        reference: None,
    };
    for _ in 0..WARMUP_REPS {
        ledger.check("warm-up", assemble_timed(&reads, &config));
    }

    let recorder = Recorder::new();
    let (mut times, mut heaps) = (Vec::new(), Vec::new());
    let mut traced: Vec<TracedAssembly> = Vec::new();
    let loop_start = Instant::now();
    loop {
        let reps = if args.trace {
            traced.len()
        } else {
            times.len()
        };
        if reps >= MIN_REPS && loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if let Some((secs, heap)) = ledger.check("timed", assemble_timed(&reads, &config)) {
            times.push(secs);
            heaps.push(heap);
        }
        // One more set-up per assembly, so the set-up median samples the
        // whole run rather than its first second.
        setup.once(&fastq, workers, true)?;
        if args.trace {
            let attempt = assemble_traced(&reads, &config, &ctx, &recorder);
            if let Some(t) = ledger.check("traced", attempt) {
                traced.push(t);
            }
        }
        // Give up on a run whose every assembly fails rather than loop.
        if ledger.failures.len() > 2 * MIN_REPS && times.is_empty() {
            break;
        }
    }

    // A capped workload must give the resident twin's contigs, byte for byte.
    let mut twin: Option<TracedAssembly> = None;
    if workload.spill_cap.is_some() {
        let mut resident = workload.resident_twin().config(workers, args.scale);
        resident.exec = Some(ctx.clone());
        if args.trace {
            twin = ledger.check(
                "resident twin",
                assemble_traced(&reads, &resident, &ctx, &recorder),
            );
        } else {
            ledger.check("resident twin", assemble_timed(&reads, &resident));
        }
    }

    // Quality, outside every timed region. Every passing assembly has the
    // reference digest, so one evaluation covers them all.
    let (mut n50_bp, mut fraction_pct, mut misassemblies) = (0.0, 0.0, 0.0);
    let mut passed = ledger.attempted - ledger.failures.len();
    if let Some((_, contigs)) = &ledger.reference {
        let lengths: Vec<usize> = contigs.iter().map(Contig::len).collect();
        let sequences: Vec<_> = contigs.iter().map(|c| c.sequence.clone()).collect();
        let quality = align_contigs(&sequences, &reference, &AlignmentConfig::default());
        n50_bp = n50(&lengths) as f64;
        fraction_pct = quality.genome_fraction_percent;
        misassemblies = quality.misassemblies as f64;
        if fraction_pct < MIN_GENOME_FRACTION_PCT || quality.misassemblies > MAX_MISASSEMBLIES {
            ledger.failures.push(format!(
                "{passed} assemblies below the quality floor: genome fraction {fraction_pct:.3}%, \
                 {} misassemblies",
                quality.misassemblies
            ));
            passed = 0;
        }
    }
    let failed = ledger.attempted - passed;

    let metrics = if args.trace {
        per_layer(&traced, twin.as_ref(), &times, &setup, bases, misassemblies)
    } else {
        let values = [
            median(&times),
            median(&setup.total_s),
            median(&heaps),
            n50_bp,
            fraction_pct,
            passed as f64 / ledger.attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };

    let context = vec![
        ("workload", workload.name.to_string()),
        ("seed", args.seed.to_string()),
        ("scale", args.scale.to_string()),
        ("cores", cores.to_string()),
        ("workers", workers.to_string()),
        ("genome_bp", genome_bp.to_string()),
        ("reads", n_reads.to_string()),
        ("bases", bases.to_string()),
        ("assembly_samples", times.len().to_string()),
        ("traced_samples", traced.len().to_string()),
        (
            "assembly_s_each",
            times
                .iter()
                .map(|t| format!("{t:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "setup_s_each",
            setup
                .total_s
                .iter()
                .map(|t| format!("{t:.4}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "digest",
            ledger
                .reference
                .as_ref()
                .map_or_else(String::new, |(d, _)| format!("{d:016x}")),
        ),
        ("commit", commit()),
    ];
    let spans = recorder.borrow().spans_jsonl();
    Ok(Outcome {
        attempted: ledger.attempted,
        failed,
        metrics,
        context,
        failures: ledger.failures,
        spans,
    })
}
