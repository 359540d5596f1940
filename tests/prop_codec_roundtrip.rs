//! Round-trip battery for the binary value codec.
//!
//! Three legs:
//!
//! 1. **Round-trip** — 256 random universes encode → decode back to the
//!    identical value, and re-encoding the decoded value reproduces
//!    the original bytes (the encoding is canonical: one universe, one
//!    blob).
//! 2. **Thread independence** — the bytes depend only on the universe,
//!    not on how it was materialised (1 vs 4 fixpoint worker threads) or
//!    on how many encoders run concurrently.
//! 3. **Fail closed** — a blob with any single byte flipped, truncated,
//!    or extended decodes to a structured error, never a panic and never
//!    a silently different universe.

use idl::Engine;
use idl_repro as _;
use idl_storage::codec;
use idl_workload::random::{random_universe, RandomConfig};
use proptest::prelude::*;

/// Seed-driven universe shapes: from tiny (empty relations) to nested.
fn shape() -> impl Strategy<Value = RandomConfig> {
    (1usize..4, 1usize..4, 0usize..12, 0usize..4, 1usize..5).prop_map(
        |(databases, relations, tuples, max_depth, max_width)| RandomConfig {
            max_depth,
            max_width,
            databases,
            relations,
            tuples,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_universes_roundtrip_byte_identical(seed in any::<u64>(), cfg in shape()) {
        let u = random_universe(seed, &cfg);
        let blob = codec::encode_value(&u);
        let back = codec::decode_value(&blob).expect("fresh blob decodes");
        prop_assert_eq!(&back, &u);
        prop_assert_eq!(codec::encode_value(&back), blob);
    }

    #[test]
    fn corrupt_byte_fails_closed(seed in any::<u64>(), pos in any::<u64>(), flip in 1u8..=255) {
        let u = random_universe(seed, &RandomConfig::default());
        let blob = codec::encode_value(&u);
        let mut bad = blob.clone();
        let at = (pos % bad.len() as u64) as usize;
        bad[at] ^= flip;
        // Magic, CRC and body are all covered: any one-byte flip must
        // surface as an error (magic mismatch or checksum failure) —
        // never a panic, never a silently different value.
        prop_assert!(codec::decode_value(&bad).is_err(), "flipped byte {at} decoded");
    }

    #[test]
    fn truncation_fails_closed(seed in any::<u64>(), keep in any::<u64>()) {
        let u = random_universe(seed, &RandomConfig::default());
        let blob = codec::encode_value(&u);
        let short = &blob[..(keep % blob.len() as u64) as usize];
        prop_assert!(codec::decode_value(short).is_err(), "prefix of {} decoded", short.len());
        // Trailing garbage is rejected too (the container is exact).
        let mut long = blob.clone();
        long.push(0);
        prop_assert!(codec::decode_value(&long).is_err(), "blob with trailing byte decoded");
    }
}

/// The encoding must not depend on the thread count that materialised
/// the views: a universe computed with 1 worker and with 4 workers
/// encodes to byte-identical blobs.
#[test]
fn encoding_is_identical_across_fixpoint_thread_counts() {
    let quotes = vec![("3/3/85", "hp", 50.0), ("3/3/85", "ibm", 160.0), ("3/4/85", "hp", 62.0)];
    let encode_at = |threads: usize| {
        let mut e = Engine::with_stock_universe(quotes.clone());
        e.set_options(e.options().rebuild().threads(threads).build());
        idl::transparency::install_two_level_mapping(&mut e).expect("mapping installs");
        e.refresh_views().expect("views refresh");
        codec::encode_value(e.store().universe())
    };
    assert_eq!(encode_at(1), encode_at(4), "thread count leaked into the encoding");
}

/// Four encoders running concurrently over the same shared universe
/// produce the same bytes as a lone encoder (the interning table is
/// per-blob state, not global).
#[test]
fn concurrent_encoders_agree() {
    let u = random_universe(20260809, &RandomConfig::default());
    let expected = codec::encode_value(&u);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let u = u.clone();
                s.spawn(move || codec::encode_value(&u))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    });
}
