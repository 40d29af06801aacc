//! `ppa_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one ledger workload and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`. Run it from the root of
//! the repository:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload hc2-lr --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Everything the run writes stays under the build directory
//! (`$CARGO_TARGET_DIR`, else `perfbench/target`): a per-process scratch
//! directory for the FASTQ file and spill files, removed at exit, and the
//! traced run's spans in `ledger-traces/`.

use ppa_ledger::{run, Args};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ppa_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    let work = root.join(format!("ledger-work-{}", std::process::id()));
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("ppa_ledger: {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Spill files go to the temp directory; keep them inside the build
    // directory. No other thread exists yet.
    std::env::set_var("TMPDIR", &tmp);
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ppa_ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        eprintln!("ppa_ledger: FAILED {failure}");
    }
    if !outcome.spans.is_empty() {
        let dir = root.join("ledger-traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &outcome.spans)) {
            Ok(()) => eprintln!("ppa_ledger: spans written to {}", path.display()),
            Err(e) => eprintln!("ppa_ledger: {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.context_json());
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
