//! `larson` — the Larson & Krishnan server benchmark.
//!
//! Each thread owns an array of slots holding live objects. Within a
//! round it performs random replacements (free the slot's object,
//! allocate a new one). At the end of a round the thread passes its
//! whole slot array to the *next* thread — the paper's "bleeding" of
//! objects across threads, modelling a server where a connection's
//! memory is freed by a different worker than allocated it. Remote
//! frees are this benchmark's weapon: allocators whose frees contend on
//! the owner's heap (or whose caches swallow remote memory) separate
//! clearly from Hoard here.

use crate::{LiveMeter, Obj, WorkloadResult};
use hoard_mem::MtAllocator;
use hoard_sim::{vchannel, work, Machine, Rng, VReceiver, VSender};
use std::sync::Mutex;

/// Parameters for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Slots (live objects) per thread.
    pub slots_per_thread: usize,
    /// Rounds (object arrays bleed to the next thread each round).
    pub rounds: usize,
    /// Random replacements per thread per round.
    pub ops_per_round: u64,
    /// Minimum object size in bytes.
    pub min_size: usize,
    /// Maximum object size in bytes.
    pub max_size: usize,
    /// Local compute units per replacement.
    pub work_per_op: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            slots_per_thread: 500,
            rounds: 4,
            ops_per_round: 4_000,
            min_size: 8,
            max_size: 64,
            work_per_op: 20,
            seed: 0x1A25,
        }
    }
}

/// Run larson on `threads` virtual processors. Returns throughput-ready
/// results (`ops` counts replacements).
pub fn run(alloc: &dyn MtAllocator, threads: usize, params: &Params) -> WorkloadResult {
    hoard_sim::reset_cache();
    let meter = LiveMeter::new();

    // Ring of channels: thread i sends its slots to thread (i+1) % P.
    let mut senders: Vec<Option<VSender<Vec<Obj>>>> = Vec::new();
    let mut receivers: Vec<Option<VReceiver<Vec<Obj>>>> = Vec::new();
    for _ in 0..threads {
        let (tx, rx) = vchannel::<Vec<Obj>>();
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }
    // Receivers are taken by their own thread; senders by the *previous*.
    let receivers = Mutex::new(receivers);
    let senders = Mutex::new(senders);

    let report = Machine::new(threads).run(|proc| {
        let meter = &meter;
        let tx = senders.lock().expect("senders")[(proc + 1) % threads]
            .take()
            .expect("sender already taken");
        let rx = receivers.lock().expect("receivers")[proc]
            .take()
            .expect("receiver already taken");
        move || {
            let mut rng = Rng::new(params.seed, proc);
            // Warm-up: fill the slots (under memory pressure, as many
            // as the allocator will give us).
            let mut slots: Vec<Obj> = (0..params.slots_per_thread)
                .filter_map(|_| {
                    Obj::try_alloc(alloc, meter, rng.range(params.min_size, params.max_size))
                })
                .collect();
            for round in 0..params.rounds {
                for _ in 0..params.ops_per_round {
                    if slots.is_empty() {
                        // Fully starved: try to re-seed a slot and move on.
                        let size = rng.range(params.min_size, params.max_size);
                        if let Some(fresh) = Obj::try_alloc(alloc, meter, size) {
                            slots.push(fresh);
                        }
                        continue;
                    }
                    let idx = rng.range(0, slots.len() - 1);
                    let size = rng.range(params.min_size, params.max_size);
                    match Obj::try_alloc(alloc, meter, size) {
                        Some(fresh) => {
                            fresh.write();
                            work(params.work_per_op);
                            // This free is usually *remote*: after the
                            // first round most slots were allocated by
                            // another thread.
                            let old = std::mem::replace(&mut slots[idx], fresh);
                            old.free(alloc, meter);
                        }
                        None => {
                            // Replacement refused: release the victim
                            // anyway, shedding load like a server under
                            // memory pressure would.
                            let old = slots.swap_remove(idx);
                            old.free(alloc, meter);
                        }
                    }
                }
                if round + 1 < params.rounds {
                    // Bleed: hand the survivors to the next thread.
                    tx.send(std::mem::take(&mut slots)).expect("ring closed");
                    slots = rx.recv().expect("ring closed");
                }
            }
            for obj in slots {
                obj.free(alloc, meter);
            }
        }
    });

    WorkloadResult {
        makespan: report.makespan(),
        ops: params.ops_per_round * params.rounds as u64 * threads as u64,
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_core::HoardAllocator;

    fn small() -> Params {
        Params {
            slots_per_thread: 100,
            rounds: 3,
            ops_per_round: 500,
            ..Params::default()
        }
    }

    #[test]
    fn completes_with_zero_leak_and_remote_frees() {
        let h = HoardAllocator::new_default();
        let r = run(&h, 4, &small());
        assert_eq!(r.snapshot.live_current, 0);
        assert!(
            r.snapshot.remote_frees > 0,
            "bled objects must produce remote frees"
        );
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn single_thread_ring_works() {
        let h = HoardAllocator::new_default();
        let r = run(&h, 1, &small());
        assert_eq!(r.snapshot.live_current, 0);
    }

    #[test]
    fn live_memory_stays_near_slot_capacity() {
        let h = HoardAllocator::new_default();
        let p = small();
        let r = run(&h, 4, &p);
        let upper =
            (4 * p.slots_per_thread * p.max_size) as u64 + 4 * p.max_size as u64;
        assert!(
            r.max_live_requested <= upper,
            "live {} exceeds slot capacity {upper}",
            r.max_live_requested
        );
    }
}
