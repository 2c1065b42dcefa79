//! Flattening a multi-stream trace to one allocator-independent order.
//!
//! The wall-clock loop needs the `P = 8` trace as a single sequence it
//! can run on one host thread while impersonating the issuing
//! processor. The order must not depend on the allocator under test, so
//! it is fixed here: round-robin over the streams, one alloc or free
//! per turn, and a `Free` of a foreign object waits for its `Send`.

use hoard_workloads::trace::{Trace, TraceOp};

/// One `GlobalAlloc` call of the flat trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatOp {
    pub proc: u16,
    pub free: bool,
    /// Where the loop keeps the pointer between the alloc and its free.
    /// Slots are reused, lowest free first, so the table is as long as
    /// the most objects ever live and stays in cache: the loop should
    /// time the allocator's memory traffic, not its own.
    pub slot: u32,
    /// Requested bytes (also on the free, for the `Layout`).
    pub size: u32,
}

/// Every op of `trace` as `(stream, index in stream)`, in round-robin
/// order: a stream's turn runs up to and including its next alloc or
/// free, and is skipped while that free's object has not been sent to it.
///
/// # Panics
///
/// Panics if a free waits for a send that never comes; validated traces
/// whose sends precede their frees in some sequential order cannot.
pub fn round_robin(trace: &Trace) -> Vec<(u16, u32)> {
    let ids = trace
        .streams
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            TraceOp::Alloc { id, .. } => Some(id as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut holder = vec![u16::MAX; ids];
    let mut pcs = vec![0usize; trace.threads()];
    let mut order = Vec::with_capacity(trace.len());
    loop {
        let mut progressed = false;
        for (t, stream) in trace.streams.iter().enumerate() {
            while let Some(&op) = stream.get(pcs[t]) {
                match op {
                    TraceOp::Free { id } if holder[id as usize] != t as u16 => break,
                    TraceOp::Alloc { id, .. } => holder[id as usize] = t as u16,
                    TraceOp::Send { id, to } => holder[id as usize] = to,
                    TraceOp::Free { .. } | TraceOp::Work { .. } => {}
                }
                order.push((t as u16, pcs[t] as u32));
                pcs[t] += 1;
                progressed = true;
                if matches!(op, TraceOp::Alloc { .. } | TraceOp::Free { .. }) {
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    assert_eq!(
        order.len(),
        trace.len(),
        "a free waits for a send that never comes"
    );
    order
}

/// The allocs and frees of `trace` in [`round_robin`] order; `Work` and
/// `Send` are dropped (a send only decides who frees).
pub fn flatten(trace: &Trace) -> Vec<FlatOp> {
    let mut live = std::collections::HashMap::new();
    let mut free_slots = std::collections::BinaryHeap::new();
    let mut slots = 0u32;
    round_robin(trace)
        .into_iter()
        .filter_map(|(t, i)| match trace.streams[t as usize][i as usize] {
            TraceOp::Alloc { id, size, .. } => {
                let slot = free_slots.pop().map_or_else(
                    || {
                        slots += 1;
                        slots - 1
                    },
                    |std::cmp::Reverse(slot)| slot,
                );
                live.insert(id, (slot, size));
                Some(FlatOp {
                    proc: t,
                    free: false,
                    slot,
                    size,
                })
            }
            TraceOp::Free { id } => {
                let (slot, size) = live.remove(&id).expect("round_robin puts the alloc first");
                free_slots.push(std::cmp::Reverse(slot));
                Some(FlatOp {
                    proc: t,
                    free: true,
                    slot,
                    size,
                })
            }
            TraceOp::Send { .. } | TraceOp::Work { .. } => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    #[test]
    fn flattening_keeps_stream_order_and_send_dependencies() {
        for w in ALL {
            let trace = w.generate(9).p8;
            let order = round_robin(&trace);
            // Per-stream program order, every op exactly once.
            let mut next = vec![0u32; trace.threads()];
            // Where each object is when the order reaches an op.
            let mut holder = std::collections::HashMap::new();
            for &(t, i) in &order {
                assert_eq!(i, next[t as usize], "{}: stream {t} out of order", w.name());
                next[t as usize] += 1;
                match trace.streams[t as usize][i as usize] {
                    TraceOp::Alloc { id, .. } => {
                        holder.insert(id, t);
                    }
                    TraceOp::Send { id, to } => {
                        assert_eq!(holder[&id], t, "sender holds the object");
                        holder.insert(id, to);
                    }
                    TraceOp::Free { id } => {
                        assert_eq!(
                            holder.remove(&id),
                            Some(t),
                            "{}: free before send",
                            w.name()
                        );
                    }
                    TraceOp::Work { .. } => {}
                }
            }
            assert!(holder.is_empty());
            for (t, stream) in trace.streams.iter().enumerate() {
                assert_eq!(next[t] as usize, stream.len());
            }

            // Every alloc is freed, from the slot it was put in, and no
            // slot holds two objects at once.
            let flat = flatten(&trace);
            let mut held = std::collections::HashMap::new();
            for op in &flat {
                if op.free {
                    assert_eq!(held.remove(&op.slot), Some(op.size));
                } else {
                    assert_eq!(held.insert(op.slot, op.size), None);
                }
            }
            assert!(held.is_empty());
            assert_eq!(
                flat.len() as u64,
                2 * crate::workloads::totals(&trace, 4096).allocs
            );
        }
    }

    #[test]
    fn flat_frees_carry_the_allocation_size_and_freeing_processor() {
        let mut b = hoard_workloads::trace::TraceBuilder::new(2);
        let a = b.alloc(0, 100);
        b.send(0, a, 1);
        b.free(1, a);
        let flat = flatten(&b.finish().expect("valid"));
        assert_eq!(
            flat,
            vec![
                FlatOp {
                    proc: 0,
                    free: false,
                    slot: 0,
                    size: 100
                },
                FlatOp {
                    proc: 1,
                    free: true,
                    slot: 0,
                    size: 100
                },
            ]
        );
    }
}
