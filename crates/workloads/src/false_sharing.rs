//! `active-false` and `passive-false` — the paper's false-sharing
//! microbenchmarks.
//!
//! * **active-false**: threads allocate small objects back-to-back (the
//!   allocations are deliberately sequenced so they are temporally
//!   adjacent, as they are in the original pthread benchmark), then each
//!   thread hammers writes on its own object. An allocator that carves
//!   consecutive blocks from one heap (serial) puts several threads'
//!   objects on one cache line — *it* created the sharing, hence
//!   "active".
//! * **passive-false**: one thread allocates all objects and hands them
//!   out; each recipient frees its object and allocates a replacement,
//!   then hammers writes. Allocators that give the freeing thread the
//!   same (line-sharing) block back — pure-private heaps, caching
//!   allocators, serial LIFO lists — perpetuate the sharing the *program*
//!   started, hence "passive". Hoard's owner-returning frees break the
//!   cycle.

use crate::{LiveMeter, Obj, WorkloadResult};
use hoard_mem::MtAllocator;
use hoard_sim::{vchannel, work, Machine, VBarrier, VReceiver, VSender};
use std::sync::Mutex;

/// Parameters shared by both variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Object size (small enough that several fit one cache line).
    pub object_size: usize,
    /// Total writes across all threads (fixed total work).
    pub total_writes: u64,
    /// Writes between an object's allocation and its free (the original
    /// benchmark's `num-times`); the number of malloc/free cycles is
    /// `total_writes / (threads * writes_per_object)`.
    pub writes_per_object: u64,
    /// Local compute units per write.
    pub work_per_write: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            object_size: 8,
            total_writes: 100_000,
            writes_per_object: 100,
            work_per_write: 10,
        }
    }
}

fn cycles_for(params: &Params, threads: usize) -> u64 {
    (params.total_writes / (threads as u64 * params.writes_per_object)).max(1)
}

/// Run `active-false` on `threads` virtual processors.
pub fn active_false(alloc: &dyn MtAllocator, threads: usize, params: &Params) -> WorkloadResult {
    hoard_sim::reset_cache();
    let meter = LiveMeter::new();
    let barrier = VBarrier::new(threads);
    let cycles = cycles_for(params, threads);

    // The *first* allocations are sequenced in real time with a ticket,
    // so the allocator sees the threads' initial requests back-to-back
    // exactly like the original benchmark's startup (no virtual-time
    // cost attached). Subsequent cycles free and immediately reallocate,
    // which under a shared-LIFO allocator keeps handing back blocks on
    // the shared lines — the benchmark's steady state. Each free+realloc
    // pair takes the same ticket round-robin, as in `passive_false`:
    // two pairs interleaved in real time would swap blocks or carve
    // fresh ones, and the lines shared would depend on the host.
    let turn = std::sync::atomic::AtomicUsize::new(0);
    let report = Machine::new(threads).run(|proc| {
        let meter = &meter;
        let barrier = &barrier;
        let turn = &turn;
        move || {
            while turn.load(std::sync::atomic::Ordering::Acquire) != proc {
                std::thread::yield_now();
            }
            let mut obj = Obj::alloc(alloc, meter, params.object_size);
            turn.fetch_add(1, std::sync::atomic::Ordering::Release);
            barrier.wait();
            for cycle in 0..cycles {
                for _ in 0..params.writes_per_object {
                    obj.write();
                    work(params.work_per_write);
                }
                while turn.load(std::sync::atomic::Ordering::Acquire) % threads != proc {
                    std::thread::yield_now();
                }
                obj.free(alloc, meter);
                if cycle + 1 < cycles {
                    obj = Obj::alloc(alloc, meter, params.object_size);
                }
                turn.fetch_add(1, std::sync::atomic::Ordering::Release);
                if cycle + 1 == cycles {
                    break;
                }
            }
        }
    });

    WorkloadResult {
        makespan: report.makespan(),
        ops: cycles * params.writes_per_object * threads as u64,
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report,
    }
}

/// Run `passive-false` on `threads` virtual processors.
pub fn passive_false(alloc: &dyn MtAllocator, threads: usize, params: &Params) -> WorkloadResult {
    hoard_sim::reset_cache();
    let meter = LiveMeter::new();
    let barrier = VBarrier::new(threads);
    let cycles = cycles_for(params, threads);

    // Mailboxes: the parent (processor 0) hands each thread one of its
    // back-to-back allocations (which share cache lines by construction).
    let mut senders: Vec<VSender<Obj>> = Vec::new();
    let mut receivers: Vec<Option<VReceiver<Obj>>> = Vec::new();
    for _ in 0..threads {
        let (tx, rx) = vchannel::<Obj>();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let receivers = Mutex::new(receivers);
    let senders = senders; // parent clones them all

    // Children perform their free+realloc step in processor order (a
    // real-time ticket, no virtual cost): each child's replacement comes
    // off the allocator's reuse path deterministically, exactly like the
    // original benchmark's sequential handoff — otherwise a racing child
    // can carve a fresh (unshared) block and the measurement gets noisy.
    let turn = std::sync::atomic::AtomicUsize::new(0);
    let report = Machine::new(threads).run(|proc| {
        let meter = &meter;
        let barrier = &barrier;
        let turn = &turn;
        let senders: Vec<VSender<Obj>> = senders.clone();
        let rx = receivers.lock().expect("receivers")[proc]
            .take()
            .expect("receiver already taken");
        move || {
            if proc == 0 {
                for tx in &senders {
                    let obj = Obj::alloc(alloc, meter, params.object_size);
                    tx.send(obj).expect("mailbox closed");
                }
            }
            let handed = rx.recv().expect("mailbox closed");
            // The passive step: free the parent's object and allocate a
            // replacement. A passively-false-sharing allocator hands the
            // freeing thread the very same (shared-line) block — and
            // keeps doing so on every later cycle.
            while turn.load(std::sync::atomic::Ordering::Acquire) != proc {
                std::thread::yield_now();
            }
            handed.free(alloc, meter);
            let mut own = Obj::alloc(alloc, meter, params.object_size);
            turn.fetch_add(1, std::sync::atomic::Ordering::Release);
            barrier.wait();
            for cycle in 0..cycles {
                for _ in 0..params.writes_per_object {
                    own.write();
                    work(params.work_per_write);
                }
                // The free+realloc pair is sequenced round-robin in real
                // time so a shared-free-list allocator's pool never runs
                // a transient deficit (which would carve fresh, unshared
                // blocks and make the measurement nondeterministic).
                while turn.load(std::sync::atomic::Ordering::Acquire) % threads != proc {
                    std::thread::yield_now();
                }
                own.free(alloc, meter);
                if cycle + 1 < cycles {
                    own = Obj::alloc(alloc, meter, params.object_size);
                }
                turn.fetch_add(1, std::sync::atomic::Ordering::Release);
                if cycle + 1 == cycles {
                    break;
                }
            }
        }
    });

    WorkloadResult {
        makespan: report.makespan(),
        ops: cycles * params.writes_per_object * threads as u64,
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_baselines::{PurePrivateAllocator, SerialAllocator};
    use hoard_core::HoardAllocator;

    fn small() -> Params {
        Params {
            total_writes: 20_000,
            ..Params::default()
        }
    }

    /// Fresh allocator per run: a `VLock` remembers its virtual release
    /// time, so reusing an instance across machine runs (which reset
    /// clocks to zero) would contaminate the second measurement.
    fn speedup_active(mut factory: impl FnMut() -> Box<dyn MtAllocator>, p: &Params) -> f64 {
        let t1 = active_false(&*factory(), 1, p).makespan;
        let t4 = active_false(&*factory(), 4, p).makespan;
        t1 as f64 / t4 as f64
    }

    #[test]
    fn active_false_distinguishes_hoard_from_serial() {
        let p = small();
        let hoard = speedup_active(|| Box::new(HoardAllocator::new_default()), &p);
        let serial = speedup_active(|| Box::new(SerialAllocator::new()), &p);
        assert!(
            hoard > 2.5,
            "hoard avoids active false sharing, speedup {hoard:.2}"
        );
        assert!(
            serial < hoard * 0.7,
            "serial must suffer: serial {serial:.2} vs hoard {hoard:.2}"
        );
    }

    #[test]
    fn passive_false_distinguishes_hoard_from_pure_private() {
        let p = small();
        let hoard = {
            let a = HoardAllocator::new_default();
            let t1 = passive_false(&a, 1, &p).makespan;
            let a = HoardAllocator::new_default();
            let t4 = passive_false(&a, 4, &p).makespan;
            t1 as f64 / t4 as f64
        };
        let private = {
            let a = PurePrivateAllocator::new();
            let t1 = passive_false(&a, 1, &p).makespan;
            let a = PurePrivateAllocator::new();
            let t4 = passive_false(&a, 4, &p).makespan;
            t1 as f64 / t4 as f64
        };
        assert!(
            hoard > 2.5,
            "hoard breaks passive false sharing, speedup {hoard:.2}"
        );
        assert!(
            private < hoard * 0.7,
            "pure-private must suffer: {private:.2} vs hoard {hoard:.2}"
        );
    }

    #[test]
    fn no_leaks_in_either_variant() {
        let a = HoardAllocator::new_default();
        let r = active_false(&a, 3, &small());
        assert_eq!(r.snapshot.live_current, 0);
        let a = HoardAllocator::new_default();
        let r = passive_false(&a, 3, &small());
        assert_eq!(r.snapshot.live_current, 0);
    }
}
