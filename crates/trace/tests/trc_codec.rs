//! Property tests for the `.trc` wire format: encode→decode identity
//! over randomized record streams, and corruption/truncation rejection
//! with typed errors — the codec-level half of the pipeline's
//! determinism contract (the replay half lives in `hoard-workloads`).

use hoard_sim::Rng;
use hoard_trace::{TrcError, TrcOp, TrcRecord, TrcTrace};

/// Generated traces per property; a failure names the seed that
/// reproduces it.
const CASES: u64 = 64;

fn gen_op(rng: &mut Rng) -> TrcOp {
    let token = rng.next_u64();
    match rng.range(0, 9) {
        0..=3 => TrcOp::Alloc {
            token,
            size: rng.next_u64() as u32,
            site: rng.next_u64() as u32,
        },
        4..=6 => TrcOp::Free { token },
        7 => TrcOp::Send {
            token,
            to: rng.range(0, 63) as u32,
        },
        _ => TrcOp::Work {
            units: rng.next_u64() as u32,
        },
    }
}

/// One to four streams of up to 39 records each.
fn gen_trace(rng: &mut Rng) -> TrcTrace {
    let config = ["", "larson P=4 hoard-mag", "服务器 traffic ×"][rng.range(0, 2)];
    TrcTrace {
        seed: rng.next_u64(),
        config: config.to_string(),
        streams: (0..rng.range(1, 4))
            .map(|_| {
                (0..rng.range(0, 39))
                    .map(|_| TrcRecord {
                        dt: rng.next_u64(),
                        op: gen_op(rng),
                    })
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn encode_decode_is_identity() {
    Rng::for_each_case(CASES, |rng| {
        let trace = gen_trace(rng);
        let back = TrcTrace::decode(&trace.encode()).expect("own encoding decodes");
        assert_eq!(back, trace);
    });
}

#[test]
fn encoding_is_a_pure_function() {
    Rng::for_each_case(CASES, |rng| {
        let trace = gen_trace(rng);
        assert_eq!(trace.encode(), trace.encode());
    });
}

#[test]
fn every_single_byte_flip_is_rejected() {
    Rng::for_each_case(CASES, |rng| {
        let mut bytes = gen_trace(rng).encode();
        let flip = rng.next_u64();
        let i = (flip % bytes.len() as u64) as usize;
        let bit = 1u8 << (flip % 8);
        bytes[i] ^= bit;
        // FNV-1a chains bijective per-byte steps, so one flipped payload
        // byte always moves the checksum; flips inside the stored
        // checksum mismatch trivially; flips in the magic are typed.
        assert!(
            TrcTrace::decode(&bytes).is_err(),
            "flip of bit {} at byte {}/{} was accepted",
            flip % 8,
            i,
            bytes.len()
        );
    });
}

#[test]
fn every_truncation_is_rejected() {
    Rng::for_each_case(CASES, |rng| {
        let bytes = gen_trace(rng).encode();
        let n = rng.range(0, bytes.len() - 1);
        let err = TrcTrace::decode(&bytes[..n]).expect_err("prefix accepted");
        assert!(
            matches!(
                err,
                TrcError::Truncated(_) | TrcError::ChecksumMismatch { .. }
            ),
            "prefix {n}: unexpected error {err:?}"
        );
    });
}

#[test]
fn golden_fixture_decodes_with_stable_header() {
    // The fixture is the byte-level contract: if this test fails after
    // an intentional format change, bump TRC_VERSION, regenerate via
    // the blessing test in hoard-core (TRC_BLESS=1), and note the
    // migration in DESIGN.md §12.
    let bytes = include_bytes!("fixtures/golden.trc");
    let trace = TrcTrace::decode(bytes).expect("golden fixture decodes");
    assert_eq!(trace.seed, 42);
    assert_eq!(trace.config, "golden single-proc");
    assert!(!trace.is_empty());
    assert!(trace.allocs() > 0);
}
