//! Hardening-level overhead on the small-allocation fast path.
//!
//! `Off` vs `Basic` vs `Full` on exactly the paths the levels touch:
//! the single alloc/free pair (free-list hit plus the deallocate
//! checks), LIFO batch churn (block reuse, where `Full` verifies
//! poison and rewrites canaries), and mixed small sizes. `Off` must
//! price at the paper's layout — no canary stride, no checks. Measured
//! medians are recorded in `results/hardening_overhead.txt`.

use hoard_bench::report;
use hoard_core::{HardeningLevel, HoardAllocator, HoardConfig};
use hoard_mem::MtAllocator;
use std::hint::black_box;

const LEVELS: [(HardeningLevel, &str); 3] = [
    (HardeningLevel::Off, "off"),
    (HardeningLevel::Basic, "basic"),
    (HardeningLevel::Full, "full"),
];

fn build(level: HardeningLevel) -> HoardAllocator {
    HoardAllocator::with_config(HoardConfig::new().with_hardening(level))
        .expect("hardened config is valid")
}

fn bench_pair() {
    for (level, label) in LEVELS {
        for size in [8usize, 64, 512] {
            let alloc = build(level);
            let name = format!("hardening_alloc_free_pair/{label}/{size}");
            report(&name, 1, || unsafe {
                let p = alloc.allocate(black_box(size)).unwrap();
                alloc.deallocate(black_box(p));
            });
        }
    }
}

fn bench_batch_churn() {
    const BATCH: usize = 100;
    for (level, label) in LEVELS {
        let alloc = build(level);
        let mut ptrs = Vec::with_capacity(BATCH);
        let name = format!("hardening_batch_churn/{label}");
        report(&name, 2 * BATCH as u64, || unsafe {
            for _ in 0..BATCH {
                ptrs.push(alloc.allocate(black_box(64)).unwrap());
            }
            for p in ptrs.drain(..) {
                alloc.deallocate(p);
            }
        });
    }
}

fn bench_mixed_classes() {
    // Rotating small sizes so several size classes (and their free
    // lists) stay warm — closer to workload traffic than one class.
    const SIZES: [usize; 6] = [8, 24, 48, 96, 256, 1024];
    for (level, label) in LEVELS {
        let alloc = build(level);
        let mut ptrs = Vec::with_capacity(SIZES.len());
        let name = format!("hardening_mixed_small/{label}");
        report(&name, 2 * SIZES.len() as u64, || unsafe {
            for size in SIZES {
                ptrs.push(alloc.allocate(black_box(size)).unwrap());
            }
            for p in ptrs.drain(..) {
                alloc.deallocate(p);
            }
        });
    }
}

fn main() {
    bench_pair();
    bench_batch_churn();
    bench_mixed_classes();
}
