//! Job chaining: an emulated HDFS round-trip between consecutive jobs.
//!
//! The paper's motivation for in-memory job concatenation (its `convert`
//! extension) is that vanilla Pregel-like systems force consecutive jobs to
//! exchange data through HDFS (dump, then re-load and re-shuffle). The
//! assembler's pipeline hands typed vectors between stages in memory; to let
//! the workspace *measure* the difference (the `ablation_chaining` bench),
//! this module provides a [`spill_roundtrip`] helper that serialises a
//! collection to a byte buffer and parses it back, emulating the
//! serialisation + I/O + deserialisation cost of the HDFS hop (without an
//! actual disk to keep the benchmark machine-independent; an optional
//! on-disk variant is provided for realism).
//!
//! The byte codec itself ([`SpillCodec`]) and the framing live in
//! [`crate::spill`] — the same format the engine's out-of-core spill layer
//! uses for its shuffle runs and sealed partition extents, so there is
//! exactly one spill file format in the workspace. Like the rest of that
//! layer, the round-trip is panic-free: I/O failures and truncated or
//! corrupt data come back as [`SpillError`] values.

pub use crate::spill::SpillCodec;
use crate::spill::{self, SpillError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Statistics of one spill round-trip.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpillStats {
    /// Number of records serialised.
    pub records: u64,
    /// Total bytes written.
    pub bytes: u64,
    /// Wall-clock time of encode + (optional I/O) + decode.
    pub elapsed: Duration,
}

/// Serialises `items` and parses them back, returning the reconstructed items
/// and the cost of the round-trip. With `to_disk`, the bytes pass through a
/// temporary file to include real I/O in the measurement.
///
/// Uses the workspace's shared spill framing
/// ([`spill::write_spill_file`]/[`spill::read_spill_file`]); any I/O failure
/// or malformed byte stream is reported as a typed [`SpillError`] instead of
/// a panic.
pub fn spill_roundtrip<T: SpillCodec>(
    items: Vec<T>,
    to_disk: bool,
) -> Result<(Vec<T>, SpillStats), SpillError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let start = Instant::now();
    let records = items.len() as u64;
    let (out, bytes) = if to_disk {
        let path = std::env::temp_dir().join(format!(
            "ppa-chain-spill-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = spill::write_spill_file(&path, &items)?;
        drop(items);
        let back = spill::read_spill_file::<T>(&path);
        let _ = std::fs::remove_file(&path);
        (back?, bytes)
    } else {
        let buf = spill::encode_spill_bytes(&items);
        let bytes = buf.len() as u64;
        drop(items);
        (
            spill::decode_spill_stream(buf.as_slice(), "<memory>")?,
            bytes,
        )
    };
    let stats = SpillStats {
        records,
        bytes,
        elapsed: start.elapsed(),
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_codecs_roundtrip() {
        let mut buf = Vec::new();
        42u64.encode(&mut buf);
        7u32.encode(&mut buf);
        vec![1u8, 2, 3].encode(&mut buf);
        (5u64, 6u64).encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(u64::decode(&mut s), Some(42));
        assert_eq!(u32::decode(&mut s), Some(7));
        assert_eq!(Vec::<u8>::decode(&mut s), Some(vec![1, 2, 3]));
        assert_eq!(<(u64, u64)>::decode(&mut s), Some((5, 6)));
        assert!(u64::decode(&mut s).is_none());
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        1234u64.encode(&mut buf);
        let mut s = &buf[..4];
        assert!(u64::decode(&mut s).is_none());
        let mut buf2 = Vec::new();
        vec![9u8; 100].encode(&mut buf2);
        let mut s2 = &buf2[..20];
        assert!(Vec::<u8>::decode(&mut s2).is_none());
    }

    #[test]
    fn spill_roundtrip_in_memory() {
        let items: Vec<(u64, u64)> = (0..1000).map(|i| (i, i * i)).collect();
        let (back, stats) = spill_roundtrip(items.clone(), false).expect("in-memory roundtrip");
        assert_eq!(back, items);
        assert_eq!(stats.records, 1000);
        assert!(stats.bytes >= 16_000);
    }

    #[test]
    fn spill_roundtrip_on_disk() {
        let items: Vec<u64> = (0..100).collect();
        let (back, stats) = spill_roundtrip(items.clone(), true).expect("on-disk roundtrip");
        assert_eq!(back, items);
        assert_eq!(stats.records, 100);
    }
}
