//! `storm` — a slow-path stress for the allocator back-end.
//!
//! Where `larson` exercises steady-state churn, storm is built to live
//! almost entirely in the *slow paths* the magazine front-end normally
//! hides: every round, each thread allocates a batch far larger than a
//! magazine holds (forcing refills and fresh superblocks), bleeds half
//! of it to the next thread in a ring (so half of all frees are
//! foreign — remote pushes and drains), then frees its own half and the
//! half it received (forcing flushes and emptiness-driven superblock
//! transfers). The result is a refill/flush/transfer ping-pong that
//! lands squarely on whichever structure serializes the back-end: the
//! heap locks in the locked configuration, the packed remote words and
//! Treiber-stack cache in the lock-free one.

use crate::{LiveMeter, Obj, WorkloadResult};
use hoard_mem::MtAllocator;
use hoard_sim::{vchannel, work, Machine, Rng, VReceiver, VSender};
use std::sync::Mutex;

/// Parameters for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Objects allocated per thread per round. Keep this several times
    /// the magazine capacity so every round spills out of the front-end.
    pub batch: usize,
    /// Rounds of allocate → bleed → free.
    pub rounds: usize,
    /// Minimum object size in bytes.
    pub min_size: usize,
    /// Maximum object size in bytes.
    pub max_size: usize,
    /// Local compute units per object.
    pub work_per_op: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            // ~8 size classes in 8..64; half a batch freed locally in
            // one burst is ~40 pushes per class — past any magazine's
            // capacity, so every round also storms the flush path.
            batch: 640,
            rounds: 10,
            min_size: 8,
            max_size: 64,
            work_per_op: 4,
            seed: 0x5707,
        }
    }
}

/// Run the storm on `threads` virtual processors (`ops` counts
/// allocations).
pub fn run(alloc: &dyn MtAllocator, threads: usize, params: &Params) -> WorkloadResult {
    hoard_sim::reset_cache();
    let meter = LiveMeter::new();

    // Ring of channels, as in larson: thread i bleeds to (i+1) % P.
    let mut senders: Vec<Option<VSender<Vec<Obj>>>> = Vec::new();
    let mut receivers: Vec<Option<VReceiver<Vec<Obj>>>> = Vec::new();
    for _ in 0..threads {
        let (tx, rx) = vchannel::<Vec<Obj>>();
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }
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
            for _ in 0..params.rounds {
                // Burst-allocate: blows through the magazine and forces
                // refills, adoptions, and fresh superblocks.
                let mut batch: Vec<Obj> = (0..params.batch)
                    .filter_map(|_| {
                        let size = rng.range(params.min_size, params.max_size);
                        let obj = Obj::try_alloc(alloc, meter, size)?;
                        obj.write();
                        work(params.work_per_op);
                        Some(obj)
                    })
                    .collect();
                // Bleed half to the neighbour; its frees become foreign.
                let half = batch.split_off(batch.len() / 2);
                tx.send(half).expect("ring closed");
                // Free the retained half in one burst: a pure push
                // phase that overflows the magazines (flushes) and
                // retires superblocks (transfers).
                for obj in batch {
                    obj.free(alloc, meter);
                }
                // Free the received half: every one is foreign, so this
                // hammers the remote-free path of the neighbour's
                // structures.
                let foreign = rx.recv().expect("ring closed");
                for obj in foreign {
                    obj.free(alloc, meter);
                }
            }
        }
    });

    WorkloadResult {
        makespan: report.makespan(),
        ops: (params.batch * params.rounds * threads) as u64,
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_core::{HoardAllocator, HoardConfig};

    fn small() -> Params {
        Params {
            batch: 560,
            rounds: 3,
            ..Params::default()
        }
    }

    #[test]
    fn storms_the_slow_paths_and_leaks_nothing() {
        let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
        let r = run(&h, 4, &small());
        assert_eq!(r.snapshot.live_current, 0);
        assert!(r.snapshot.remote_frees > 0, "bled halves free remotely");
        assert!(
            r.snapshot.magazines.refills > 0 && r.snapshot.magazines.flushes > 0,
            "batches larger than a magazine must spill"
        );
    }

    #[test]
    fn lockfree_backend_survives_the_storm() {
        let h = HoardAllocator::with_config(HoardConfig::with_lockfree()).unwrap();
        let r = run(&h, 4, &small());
        assert_eq!(r.snapshot.live_current, 0);
        assert!(r.snapshot.magazines.remote_pushes > 0, "foreign frees ride the packed word");
    }
}
