//! The one k-way merge of the shuffle plane.
//!
//! Both shuffles — the superstep runner's message delivery and the
//! mini-MapReduce reduce phase — hand each destination worker one
//! [`Share`] per sender: the sorted runs that sender spilled to disk (in
//! spill order) and its sorted in-RAM remainder. [`merge`] reads them as
//! sources in a fixed order — senders in worker order, each sender's disk
//! runs and then its RAM remainder — and emits one `(key, source)`-ordered
//! stream: smaller keys first, equal keys from the lower source first. A
//! sender's runs cut its emission sequence in time order, so the merged
//! stream is the same whether or not anything was spilled; resident
//! execution is simply the merge with zero runs.
//!
//! Sources sit in a hand-rolled binary min-heap of source indices keyed by
//! each source's next key, so no value moves through the heap and each of
//! the N merged records costs O(log k) comparisons for k sources. RAM
//! remainders are drained in place, so callers get their `Vec` capacity back
//! for the next superstep; disk runs are streamed one record at a time.
//!
//! The merge reads spill files, so it is panic-free like the codecs: a
//! truncated or corrupt run surfaces as a [`SpillError`].

use crate::spill::{DiskRun, RunReader, SpillError};
use std::vec::Drain;

/// One sender's input to a destination: the sorted runs it spilled, in
/// spill order, then its sorted in-RAM remainder.
pub(crate) struct Share<K, V> {
    /// Sorted on-disk runs, oldest first.
    pub(crate) runs: Vec<DiskRun<K, V>>,
    /// The sorted records still in RAM (emitted after every run).
    pub(crate) ram: Vec<(K, V)>,
}

/// Deals one sender's runs (per destination, possibly none at all) and its
/// RAM buffers (per destination) into the destinations' share lists. Call
/// it for the senders in worker order: that order is the merge's tie-break.
pub(crate) fn deal<K, V>(
    inbound: &mut [Vec<Share<K, V>>],
    runs: Vec<Vec<DiskRun<K, V>>>,
    ram: impl IntoIterator<Item = Vec<(K, V)>>,
) {
    let mut runs = runs.into_iter();
    for (shares, ram) in inbound.iter_mut().zip(ram) {
        shares.push(Share {
            runs: runs.next().unwrap_or_default(),
            ram,
        });
    }
}

/// Records across `shares`, RAM and disk: what a merge of them will emit.
pub(crate) fn records<K, V>(shares: &[Share<K, V>]) -> usize {
    shares
        .iter()
        .map(|s| s.ram.len() + s.runs.iter().map(|r| r.records).sum::<usize>())
        .sum()
}

/// One merge source: a drained RAM remainder or a streamed disk run whose
/// next record is buffered in `head`.
enum Source<'a, K, V> {
    Ram(Drain<'a, (K, V)>),
    Disk {
        reader: RunReader<K, V>,
        head: Option<(K, V)>,
    },
}

impl<K, V> Source<'_, K, V> {
    /// The key of the next record, `None` once the source is exhausted.
    fn peek(&self) -> Option<&K> {
        match self {
            Source::Ram(drain) => drain.as_slice().first().map(|(k, _)| k),
            Source::Disk { head, .. } => head.as_ref().map(|(k, _)| k),
        }
    }

    /// Takes the next record.
    fn pop(&mut self) -> Result<Option<(K, V)>, SpillError> {
        match self {
            Source::Ram(drain) => Ok(drain.next()),
            Source::Disk { reader, head } => {
                let out = head.take();
                if out.is_some() {
                    *head = reader.next()?;
                }
                Ok(out)
            }
        }
    }
}

/// Whether source `a` must be emitted before source `b`: smaller next key,
/// ties to the lower source index.
#[inline]
fn before<K: Ord, V>(sources: &[Source<'_, K, V>], a: usize, b: usize) -> bool {
    let key = |s: usize| sources.get(s).and_then(Source::peek);
    match (key(a), key(b)) {
        (Some(ka), Some(kb)) => ka.cmp(kb).then(a.cmp(&b)).is_lt(),
        (ka, _) => ka.is_some(),
    }
}

fn sift_down<K: Ord, V>(heap: &mut [usize], sources: &[Source<'_, K, V>], mut i: usize) {
    loop {
        let mut min = i;
        for child in [2 * i + 1, 2 * i + 2] {
            if let (Some(&c), Some(&m)) = (heap.get(child), heap.get(min)) {
                if before(sources, c, m) {
                    min = child;
                }
            }
        }
        if min == i {
            return;
        }
        heap.swap(i, min);
        i = min;
    }
}

/// Merges the shares addressed to one destination into a single
/// `(key, source)`-ordered stream, invoking `emit` once per record, and
/// returns the bytes read from disk runs.
///
/// Every RAM remainder and every run must already be sorted by key. The RAM
/// remainders are drained (emptied, capacity kept) and the runs consumed
/// (their files are deleted), also when a run fails to read.
pub(crate) fn merge<K: Ord, V>(
    shares: &mut [Share<K, V>],
    mut emit: impl FnMut(K, V),
) -> Result<u64, SpillError> {
    let merged = merge_sources(shares, &mut emit);
    for share in shares.iter_mut() {
        share.runs.clear();
    }
    merged
}

fn merge_sources<K: Ord, V>(
    shares: &mut [Share<K, V>],
    emit: &mut impl FnMut(K, V),
) -> Result<u64, SpillError> {
    let mut sources: Vec<Source<'_, K, V>> = Vec::with_capacity(shares.len());
    for share in shares.iter_mut() {
        for run in &share.runs {
            let mut reader = run.open()?;
            let head = reader.next()?;
            sources.push(Source::Disk { reader, head });
        }
        sources.push(Source::Ram(share.ram.drain(..)));
    }
    let mut heap: Vec<usize> = (0..sources.len())
        .filter(|&s| sources.get(s).and_then(Source::peek).is_some())
        .collect();
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, &sources, i);
    }
    while let Some(source) = heap.first().and_then(|&s| sources.get_mut(s)) {
        if let Some((k, v)) = source.pop()? {
            emit(k, v);
        }
        if source.peek().is_none() {
            if let Some(last) = heap.pop() {
                if let Some(top) = heap.first_mut() {
                    *top = last;
                }
            }
        }
        sift_down(&mut heap, &sources, 0);
    }
    Ok(sources
        .iter()
        .map(|s| match s {
            Source::Disk { reader, .. } => reader.bytes_read(),
            Source::Ram(_) => 0,
        })
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{codec_of, write_run, SpillDir};
    use proptest::prelude::*;

    type Buffers = Vec<Vec<(u64, u64)>>;

    /// Merges all-RAM shares; returns the stream and the drained buffers.
    fn merge_collect(bufs: Buffers) -> (Vec<(u64, u64)>, Buffers) {
        let mut shares: Vec<Share<u64, u64>> = bufs
            .into_iter()
            .map(|ram| Share {
                runs: Vec::new(),
                ram,
            })
            .collect();
        let mut out = Vec::new();
        let read = merge(&mut shares, |k, v| out.push((k, v))).expect("RAM merge");
        assert_eq!(read, 0);
        (out, shares.into_iter().map(|s| s.ram).collect())
    }

    #[test]
    fn merges_in_key_then_source_order() {
        let bufs = vec![
            vec![(1, 10), (3, 30), (3, 31)],
            vec![(1, 11), (2, 20)],
            vec![],
            vec![(0, 1), (4, 40)],
        ];
        let (out, drained) = merge_collect(bufs);
        assert_eq!(
            out,
            vec![(0, 1), (1, 10), (1, 11), (2, 20), (3, 30), (3, 31), (4, 40)]
        );
        assert!(drained.iter().all(|b| b.is_empty()), "buffers are drained");
    }

    #[test]
    fn single_source_is_a_passthrough() {
        let (out, _) = merge_collect(vec![vec![(5, 1), (6, 2), (7, 3)]]);
        assert_eq!(out, vec![(5, 1), (6, 2), (7, 3)]);
    }

    #[test]
    fn empty_input() {
        let (out, _) = merge_collect(vec![]);
        assert!(out.is_empty());
        let (out, _) = merge_collect(vec![vec![], vec![]]);
        assert!(out.is_empty());
    }

    #[test]
    fn equal_keys_prefer_lower_source_across_many_sources() {
        // 8 sources all carrying the same key: values must come out in
        // source order, exercising heap tie-breaking beyond two sources.
        let bufs: Vec<Vec<(u64, u64)>> = (0..8).map(|s| vec![(7, s)]).collect();
        let (out, _) = merge_collect(bufs);
        assert_eq!(
            out.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_naive_concat_sort_on_random_runs() {
        // Deterministic pseudo-random runs across a spread of source counts.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for sources in [1usize, 2, 3, 5, 9, 16, 33] {
            let mut bufs: Vec<Vec<(u64, u64)>> = Vec::new();
            let mut naive: Vec<(u64, usize, u64)> = Vec::new();
            for s in 0..sources {
                let len = (next() % 50) as usize;
                let mut buf: Vec<(u64, u64)> = (0..len).map(|_| (next() % 20, next())).collect();
                buf.sort_unstable_by_key(|p| p.0);
                for &(k, v) in &buf {
                    naive.push((k, s, v));
                }
                bufs.push(buf);
            }
            naive.sort_by_key(|&(k, s, _)| (k, s));
            let (out, _) = merge_collect(bufs);
            assert_eq!(
                out,
                naive
                    .into_iter()
                    .map(|(k, _, v)| (k, v))
                    .collect::<Vec<_>>(),
                "sources = {sources}"
            );
        }
    }

    #[test]
    fn a_truncated_run_fails_the_merge_and_is_still_deleted() {
        let dir = SpillDir::create("unit").expect("create spill dir");
        let records: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let run = write_run(&dir, "t.run", &records, codec_of(), codec_of()).expect("write run");
        let path = run.path().to_path_buf();
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let mut shares = vec![Share {
            runs: vec![run],
            ram: vec![(3u64, 3u64)],
        }];
        let err = merge(&mut shares, |_, _| {}).unwrap_err();
        assert!(matches!(err, SpillError::Truncated { .. }), "got {err:?}");
        assert!(!path.exists());
    }

    /// Cuts one sender's emission sequence at `cuts` (ascending offsets)
    /// the way its spiller does: every piece before the last cut becomes a
    /// sorted disk run, the rest the sorted RAM remainder.
    fn spilled_share(
        dir: &std::sync::Arc<SpillDir>,
        name: &str,
        seq: &[(u64, u64)],
        cuts: &[usize],
    ) -> Share<u64, u64> {
        let mut runs = Vec::new();
        let mut start = 0;
        for (i, &cut) in cuts.iter().enumerate() {
            let mut piece = seq[start..cut].to_vec();
            piece.sort_by_key(|p| p.0);
            let run = write_run(
                dir,
                &format!("{name}-{i}.run"),
                &piece,
                codec_of(),
                codec_of(),
            );
            runs.push(run.expect("write run"));
            start = cut;
        }
        let mut ram = seq[start..].to_vec();
        ram.sort_by_key(|p| p.0);
        Share { runs, ram }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_spilled_merge_matches_ram_merge_and_sort_oracle(
            senders in proptest::collection::vec(
                (
                    proptest::collection::vec((0u64..12, 0u64..1000), 0..40),
                    proptest::collection::vec(0usize..1000, 0..4),
                ),
                1..10,
            ),
        ) {
            let dir = SpillDir::create("unit").expect("create spill dir");
            let mut ram_only: Vec<Share<u64, u64>> = Vec::new();
            let mut spilled: Vec<Share<u64, u64>> = Vec::new();
            let mut oracle: Vec<(u64, usize, u64)> = Vec::new();
            for (s, (seq, raw_cuts)) in senders.into_iter().enumerate() {
                // `seq` is the sender's emission order, with duplicate keys;
                // 0-3 random cuts split it into disk runs plus a remainder.
                let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (seq.len() + 1)).collect();
                cuts.sort_unstable();
                oracle.extend(seq.iter().map(|&(k, v)| (k, s, v)));
                spilled.push(spilled_share(&dir, &format!("s{s}"), &seq, &cuts));
                ram_only.push(spilled_share(&dir, &format!("r{s}"), &seq, &[]));
            }
            // Stable concat-then-sort: by key, then sender, then emission.
            oracle.sort_by_key(|&(k, s, _)| (k, s));
            let oracle: Vec<(u64, u64)> = oracle.into_iter().map(|(k, _, v)| (k, v)).collect();

            let mut from_ram = Vec::new();
            merge(&mut ram_only, |k, v| from_ram.push((k, v))).expect("RAM merge");
            let mut from_disk = Vec::new();
            merge(&mut spilled, |k, v| from_disk.push((k, v))).expect("spilled merge");
            prop_assert_eq!(&from_ram, &oracle);
            prop_assert_eq!(&from_disk, &oracle);
        }
    }
}
