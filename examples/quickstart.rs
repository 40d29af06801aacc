//! Quickstart: simulate a small genome, assemble it with PPA-assembler, and
//! print the assembly statistics.
//!
//! Run with: `cargo run -p ppa-examples --release --bin quickstart`

use ppa_assembler::{try_assemble, AssemblyConfig};
use ppa_quality::QuastReport;
use ppa_readsim::{GenomeConfig, ReadSimConfig};

fn main() {
    // 1. Simulate a 50 kbp reference genome with a few repeat families and a
    //    30× read set with a realistic error rate.
    let reference = GenomeConfig {
        length: 50_000,
        repeat_families: 4,
        repeat_copies: 3,
        repeat_length: 150,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig {
        coverage: 30.0,
        substitution_rate: 0.003,
        ..Default::default()
    }
    .simulate(&reference);
    println!(
        "simulated {} reads of ~{} bp from a {} bp reference",
        reads.len(),
        reads.mean_read_length() as usize,
        reference.len()
    );

    // 2. Run the standard PPA-assembler workflow (Figure 10: ①②③④⑤⑥②③).
    let config = AssemblyConfig {
        k: 31,
        workers: 4,
        ..Default::default()
    };
    let assembly = try_assemble(&reads, &config).expect("assembly succeeds");
    println!(
        "assembled {} contigs, total {} bp, N50 {} bp, largest {} bp in {:.2}s",
        assembly.contigs.len(),
        assembly.total_length(),
        assembly.n50(),
        assembly.largest_contig(),
        assembly.stats.total_elapsed.as_secs_f64()
    );
    println!(
        "contig labeling round 1: {} supersteps, {} messages",
        assembly.stats.label_round1.supersteps, assembly.stats.label_round1.messages
    );
    println!(
        "N50 after round 1: {}  →  after round 2: {}",
        assembly.stats.n50_after_round1, assembly.stats.n50_final
    );

    // 3. Evaluate the assembly against the (known) reference, QUAST-style.
    let contigs: Vec<_> = assembly
        .contigs
        .iter()
        .map(|c| c.sequence.clone())
        .collect();
    let report = QuastReport::evaluate("PPA-assembler", &contigs, Some(&reference.sequence), 500);
    println!("\nQuality report:");
    for (metric, value) in report.rows() {
        println!("  {metric:<28}{value}");
    }

    // 4. Write the contigs as FASTA.
    let mut fasta = Vec::new();
    assembly
        .to_fasta()
        .write_fasta(&mut fasta)
        .expect("in-memory write");
    println!("\nFASTA output: {} bytes (first line: {})", fasta.len(), {
        String::from_utf8_lossy(&fasta)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    });
}
