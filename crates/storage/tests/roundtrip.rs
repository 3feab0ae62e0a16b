//! Format round-trip: convert → read back reproduces the exact pin
//! lists, over random hypergraphs, block sizes, caching budgets, and
//! both read modes.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

use hyperpraw_hypergraph::io::stream::{InMemoryVertexStream, VertexRecord, VertexStream};
use hyperpraw_hypergraph::{Hypergraph, HypergraphBuilder};
use hyperpraw_storage::{
    write_hypergraph, ByteSource, CachingSource, CompressedReader, MemorySource, ReadMode,
};
use proptest::prelude::*;

/// A temp-dir path `{prefix}{pid}-{n}.{ext}`, unique per call, so tests
/// running in parallel never share it.
fn scratch_path(prefix: &str, ext: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{prefix}{}-{n}.{ext}", std::process::id()))
}

/// Random hypergraph: `n` vertices, up to `m` nets with 0–6 pins each
/// (duplicates allowed — the builder dedups), optional non-unit weights.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (1usize..40, 0usize..30, 0u8..2)
        .prop_flat_map(|(n, m, weighted)| {
            let nets = prop::collection::vec(prop::collection::vec(0..n as u32, 0..6), m..=m);
            let weights = prop::collection::vec(1u32..8, if weighted == 1 { n } else { 0 });
            (Just(n), nets, weights)
        })
        .prop_map(|(n, nets, weights)| {
            let mut builder = HypergraphBuilder::new(n);
            for pins in nets {
                builder.add_hyperedge(pins);
            }
            if !weights.is_empty() {
                for (v, w) in weights.iter().enumerate() {
                    builder.set_vertex_weight(v as u32, f64::from(*w));
                }
            }
            builder.build()
        })
}

/// Collects every record of one full pass.
fn drain<S: VertexStream>(stream: &mut S) -> Vec<VertexRecord> {
    let mut record = VertexRecord::default();
    let mut out = Vec::new();
    while stream.next_into(&mut record).expect("stream read") {
        out.push(record.clone());
    }
    out
}

fn encode(hg: &Hypergraph, block_target: u32) -> Vec<u8> {
    let mut cursor = Cursor::new(Vec::new());
    let meta = write_hypergraph(hg, &mut cursor, block_target).expect("encode");
    assert_eq!(meta.num_vertices as usize, hg.num_vertices());
    assert_eq!(meta.num_nets as usize, hg.num_hyperedges());
    assert_eq!(meta.num_pins as usize, hg.num_pins());
    cursor.into_inner()
}

fn check_roundtrip<S: ByteSource + 'static>(hg: &Hypergraph, source: S, mode: ReadMode) {
    let reader = CompressedReader::open(source).expect("open");
    let expected = drain(&mut InMemoryVertexStream::new(hg));
    let mut stream = reader.stream(mode);
    assert_eq!(stream.num_vertices(), hg.num_vertices());
    assert_eq!(stream.num_nets(), hg.num_hyperedges());
    let got = drain(&mut stream);
    assert_eq!(got, expected);
    // A second pass after reset is bit-identical (the restreaming
    // engine's access pattern).
    stream.reset().expect("reset");
    assert_eq!(drain(&mut stream), expected);
    let total: f64 = expected.iter().map(|r| r.weight).sum();
    let streamed = stream.total_vertex_weight().expect("total weight");
    assert!((streamed - total).abs() < 1e-9 * total.max(1.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_over_random_hypergraphs_blocks_and_budgets(
        hg in arb_hypergraph(),
        block_target in 1u32..4096,
        cache_chunk in 1u64..8192,
        cache_chunks in 1usize..8,
        prefetch in 0u8..2,
    ) {
        let bytes = encode(&hg, block_target);
        let mode = if prefetch == 1 { ReadMode::Prefetch } else { ReadMode::Sync };
        check_roundtrip(&hg, MemorySource::new(bytes.clone()), mode);
        // Same file through a chunk-granular cache with a random
        // chunk size and budget: must be transparent.
        let cached = CachingSource::new(MemorySource::new(bytes), cache_chunk, cache_chunks);
        check_roundtrip(&hg, cached, mode);
    }

    #[test]
    fn corrupt_files_error_instead_of_panicking(
        hg in arb_hypergraph(),
        block_target in 1u32..512,
        flip in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let mut bytes = encode(&hg, block_target);
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
        // Any single-bit corruption must either still parse (the flip
        // may land in padding-free but semantically inert bytes is
        // impossible here — every byte is load-bearing, but a pin gap
        // can decode to another valid pin) or fail cleanly; drains must
        // never panic and never yield out-of-range net ids.
        if let Ok(reader) = CompressedReader::open(MemorySource::new(bytes)) {
            let mut stream = reader.stream(ReadMode::Sync);
            let mut record = VertexRecord::default();
            let num_nets = stream.num_nets() as u32;
            while let Ok(true) = stream.next_into(&mut record) {
                for &net in &record.nets {
                    prop_assert!(net < num_nets);
                }
            }
        }
    }
}

#[test]
fn file_roundtrip_via_convert_file() {
    let dir = scratch_path("hpz-roundtrip-", "d");
    std::fs::create_dir_all(&dir).unwrap();
    let hgr = dir.join("tiny.hgr");
    std::fs::write(&hgr, "5 6\n1 2\n2 3\n3 4\n4 1\n1 3\n").unwrap();
    let hpz = dir.join("tiny.hpz");
    let meta = hyperpraw_storage::convert_file(
        &hgr,
        &hpz,
        64,
        &hyperpraw_hypergraph::io::stream::StreamOptions::default(),
    )
    .unwrap();
    assert_eq!(meta.num_vertices, 6);
    assert_eq!(meta.num_nets, 5);
    assert!(hyperpraw_storage::is_compressed_file(&hpz));
    assert!(!hyperpraw_storage::is_compressed_file(&hgr));

    let hg = hyperpraw_hypergraph::io::hmetis::read_hgr_file(&hgr).unwrap();
    let reader = CompressedReader::open_file(&hpz).unwrap();
    let expected = drain(&mut InMemoryVertexStream::new(&hg));
    assert_eq!(drain(&mut reader.stream(ReadMode::Sync)), expected);
    assert_eq!(drain(&mut reader.stream(ReadMode::Prefetch)), expected);
    std::fs::remove_dir_all(&dir).ok();
}
