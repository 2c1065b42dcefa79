//! A magazine refill pulls at most a quarter of a superblock, so the
//! front-end holds no more memory than plain Hoard on a same-processor
//! churn of small and mid-size blocks.
//!
//! Eight streams each keep resident objects for the whole run and, round
//! after round, allocate a batch of 24 objects rotating over 16, 64 and
//! 256 bytes, then free the batch — the shape of the repo benchmark's
//! `churn-local`. Plain Hoard holds 24 superblocks at its peak. The
//! 256-byte requests fall in the 280-byte class; refilling half a
//! 32-block magazine of it (4 480 bytes, more than half a superblock),
//! the magazine configuration holds 32. Capped at a quarter of a
//! superblock (7 blocks), it holds plain Hoard's 24.

use hoard_core::{HoardAllocator, HoardConfig};
use hoard_sim::Rng;
use hoard_workloads::trace::{replay, Trace, TraceBuilder};

const STREAMS: usize = 8;
const ROUNDS: usize = 64;
const BATCH: usize = 24;
const SIZES: [u32; 3] = [16, 64, 256];
const RESIDENTS: [(usize, u32); 2] = [(20, 256), (90, 64)];

fn churn() -> Trace {
    let mut b = TraceBuilder::new(STREAMS);
    let mut rngs: Vec<Rng> = (0..STREAMS).map(|t| Rng::new(2000, t)).collect();
    let mut residents = Vec::new();
    for t in 0..STREAMS {
        for (count, size) in RESIDENTS {
            for _ in 0..count {
                residents.push((t, b.alloc(t, size)));
            }
        }
    }
    let mut batch = Vec::new();
    for _ in 0..ROUNDS {
        for (t, rng) in rngs.iter_mut().enumerate() {
            let phase = rng.range(0, 2);
            for i in 0..BATCH {
                batch.push(b.alloc(t, SIZES[(phase + i) % SIZES.len()]));
                b.work(t, rng.range(28, 32) as u32);
            }
            for id in batch.drain(..) {
                b.free(t, id);
            }
        }
    }
    for (t, id) in residents {
        b.free(t, id);
    }
    b.finish().expect("a well-formed trace")
}

#[test]
fn magazines_hold_no_more_than_plain_hoard_on_a_local_churn() {
    let trace = churn();
    let held_peak = |config: HoardConfig| {
        let h = HoardAllocator::with_config(config).unwrap();
        let result = replay(&h, &trace);
        assert_eq!(result.snapshot.allocs, result.snapshot.frees);
        result.snapshot.held_peak
    };
    let plain = held_peak(HoardConfig::new());
    let held = held_peak(HoardConfig::with_default_magazines());
    assert!(
        held <= plain,
        "hoard_mag held {held} bytes at its peak, plain hoard {plain}"
    );
}
