//! Property-based differential testing of the baseline allocators: a
//! shared model (a map of live blocks) checks every allocator against
//! the same randomly generated traces, verifying non-overlap, content
//! integrity, usable-size contracts, and exact accounting.

use hoard_baselines::{
    MtLikeAllocator, OwnershipAllocator, PurePrivateAllocator, SerialAllocator,
};
use hoard_mem::MtAllocator;
use hoard_sim::Rng;
use std::collections::BTreeMap;
use std::ptr::NonNull;

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    Free(usize),
}

/// Up to 199 ops: small allocations, some on the large path, and frees
/// of any live block.
fn gen_ops(rng: &mut Rng) -> Vec<Op> {
    (0..rng.range(1, 199))
        .map(|_| match rng.range(0, 7) {
            0..=2 => Op::Alloc(rng.range(1, 2000)),
            3 => Op::Alloc(rng.range(4001, 20_000)), // large path
            _ => Op::Free(rng.next_u64() as usize),
        })
        .collect()
}

/// Check a fresh allocator against the model on each of 48 generated
/// traces; a failure names the seed that reproduces it.
fn check<A: MtAllocator>(new: fn() -> A) {
    Rng::for_each_case(48, |rng| check_trace(&new(), &gen_ops(rng)));
}

fn check_trace(alloc: &dyn MtAllocator, trace: &[Op]) {
    // Model: payload address -> (size, fill byte). BTreeMap gives
    // deterministic overlap queries via range scans.
    let mut model: BTreeMap<usize, (usize, u8)> = BTreeMap::new();
    let mut order: Vec<usize> = Vec::new();
    let mut stamp = 0u8;
    for op in trace {
        match op {
            Op::Alloc(size) => {
                stamp = stamp.wrapping_add(1);
                let p = unsafe { alloc.allocate(*size) }.expect("allocation");
                let addr = p.as_ptr() as usize;
                assert_eq!(addr % 8, 0, "{}: alignment", alloc.name());
                assert!(
                    unsafe { alloc.usable_size(p) } >= *size,
                    "{}: usable_size",
                    alloc.name()
                );
                // Overlap check against the model: nearest block below
                // must end before us; we must end before the next above.
                if let Some((&prev_addr, &(prev_size, _))) =
                    model.range(..=addr).next_back()
                {
                    assert!(
                        prev_addr + prev_size <= addr,
                        "{}: overlaps predecessor",
                        alloc.name()
                    );
                }
                if let Some((&next_addr, _)) = model.range(addr + 1..).next() {
                    assert!(
                        addr + size <= next_addr,
                        "{}: overlaps successor",
                        alloc.name()
                    );
                }
                unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, *size) };
                model.insert(addr, (*size, stamp));
                order.push(addr);
            }
            Op::Free(pick) => {
                if order.is_empty() {
                    continue;
                }
                let addr = order.swap_remove(pick % order.len());
                let (size, fill) = model.remove(&addr).expect("model holds it");
                for off in (0..size).step_by(61) {
                    assert_eq!(
                        unsafe { *(addr as *const u8).add(off) },
                        fill,
                        "{}: corruption",
                        alloc.name()
                    );
                }
                unsafe {
                    alloc.deallocate(NonNull::new_unchecked(addr as *mut u8));
                }
            }
        }
    }
    for addr in order {
        unsafe { alloc.deallocate(NonNull::new_unchecked(addr as *mut u8)) };
    }
    let snap = alloc.stats();
    assert_eq!(snap.live_current, 0, "{}: leak", alloc.name());
    assert_eq!(snap.allocs, snap.frees, "{}: op imbalance", alloc.name());
}

#[test]
fn serial_model_checked() {
    check(SerialAllocator::new);
}

#[test]
fn pure_private_model_checked() {
    check(PurePrivateAllocator::new);
}

#[test]
fn ownership_model_checked() {
    check(OwnershipAllocator::new);
}

#[test]
fn mtlike_model_checked() {
    check(MtLikeAllocator::new);
}
