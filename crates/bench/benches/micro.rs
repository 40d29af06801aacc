//! Criterion micro-benchmarks for the substrate pieces: k-mer manipulation,
//! packed adjacency, the two labeling primitives (list ranking vs. simplified
//! S-V) on synthetic chains, banded edit distance, the mini-MapReduce shuffle
//! and small end-to-end DBG constructions.
//!
//! These are deliberately small/fast; the paper-scale experiments live in the
//! `src/bin/` harnesses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppa_assembler::ops::construct::{build_dbg, ConstructConfig};
use ppa_pregel::algorithms::{connected_components, list_ranking, ListItem};
use ppa_pregel::mapreduce::Emitter;
use ppa_pregel::{map_reduce, ExecCtx};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::{banded_edit_distance, Base, DnaString, Kmer};
use std::hint::black_box;
use std::time::Duration;

fn bench_kmer_ops(c: &mut Criterion) {
    let kmers: Vec<Kmer> = (0..1024u64)
        .map(|i| Kmer::from_packed(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2, 31).unwrap())
        .collect();
    c.bench_function("kmer/canonicalise_1024_31mers", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in &kmers {
                acc ^= black_box(k.canonical().kmer.packed());
            }
            acc
        })
    });
    c.bench_function("kmer/slide_window_1024", |b| {
        b.iter(|| {
            let mut k = kmers[0];
            for i in 0..1024u32 {
                k = k.extend_right(Base::from_code((i & 3) as u8));
            }
            black_box(k)
        })
    });
}

fn bench_labeling_primitives(c: &mut Criterion) {
    let ctx = ExecCtx::new(4);
    let mut group = c.benchmark_group("labeling_primitives");
    for &n in &[1_000u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("list_ranking_chain", n), &n, |b, &n| {
            b.iter(|| {
                let items: Vec<ListItem<u64>> = (0..n)
                    .map(|i| ListItem {
                        id: i,
                        pred: if i == 0 { None } else { Some(i - 1) },
                        value: 1,
                    })
                    .collect();
                black_box(list_ranking(&ctx, items, 10_000).0.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("simplified_sv_chain", n), &n, |b, &n| {
            b.iter(|| {
                let adjacency: Vec<(u64, Vec<u64>)> = (0..n)
                    .map(|i| {
                        let mut nbrs = Vec::new();
                        if i > 0 {
                            nbrs.push(i - 1);
                        }
                        if i + 1 < n {
                            nbrs.push(i + 1);
                        }
                        (i, nbrs)
                    })
                    .collect();
                black_box(connected_components(&ctx, adjacency, 10_000).0.len())
            })
        });
    }
    group.finish();
}

fn bench_edit_distance(c: &mut Criterion) {
    let a = GenomeConfig {
        length: 2_000,
        repeat_families: 0,
        seed: 1,
        ..Default::default()
    }
    .generate()
    .sequence;
    let mut bases = a.to_bases();
    for i in (0..bases.len()).step_by(400) {
        bases[i] = bases[i].complement();
    }
    let b = DnaString::from_bases(&bases);
    c.bench_function("edit_distance/banded_2kbp_5subs", |bch| {
        bch.iter(|| black_box(banded_edit_distance(&a, &b, 16)))
    });
}

fn bench_mapreduce(c: &mut Criterion) {
    let inputs: Vec<u64> = (0..100_000).collect();
    let ctx = ExecCtx::new(4);
    c.bench_function("mapreduce/100k_records_4_workers", |b| {
        b.iter(|| {
            let (out, _) = map_reduce(
                &ctx,
                inputs.clone(),
                |x: u64, out: &mut Emitter<'_, u64, u64>| out.emit(x % 1024, 1),
                |_w, k: &u64, vs: &mut [u64], out: &mut Vec<(u64, u64)>| {
                    out.push((*k, vs.iter().sum::<u64>()))
                },
            );
            black_box(out.iter().map(Vec::len).sum::<usize>())
        })
    });
}

fn bench_dbg_construction(c: &mut Criterion) {
    let reference = GenomeConfig {
        length: 20_000,
        repeat_families: 2,
        seed: 3,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig {
        coverage: 15.0,
        ..ReadSimConfig::default()
    }
    .simulate(&reference);
    let ctx = ExecCtx::new(4);
    c.bench_function("construct/20kbp_15x", |b| {
        b.iter(|| {
            let out = build_dbg(
                &ctx,
                &reads,
                &ConstructConfig {
                    k: 25,
                    min_coverage: 1,
                    batch_size: 512,
                },
            );
            black_box(out.vertices.len())
        })
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_kmer_ops, bench_labeling_primitives, bench_edit_distance, bench_mapreduce, bench_dbg_construction
}
criterion_main!(benches);
