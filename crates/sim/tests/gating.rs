//! Integration tests for the virtual-time machinery under adversarial
//! schedules: the ordering gate's convoy prevention, deadlock freedom
//! with nested locks, and the blocked-state bookkeeping of barriers and
//! channels.

use hoard_sim::{now, sequential_scope, vchannel, work, Machine, VBarrier, VLock};
use std::sync::Arc;

#[test]
fn convoy_prevention_across_a_shared_lock() {
    // Workers do mostly-local work with occasional brief lock use. The
    // naive single-host pitfall: the first-scheduled worker finishes
    // entirely, and everyone else inherits its final release time. With
    // the gate, the makespan must stay near the per-worker ideal.
    let p = 8usize;
    let rounds = 50u64;
    let local = 1_000u64;
    let lock = Arc::new(VLock::new());
    let report = Machine::new(p).run(|_| {
        let lock = Arc::clone(&lock);
        move || {
            for _ in 0..rounds {
                work(local);
                let _g = lock.lock();
                work(10);
            }
        }
    });
    let ideal = rounds * (local + 10 + 20);
    assert!(
        report.makespan() < ideal * 2,
        "convoy detected: makespan {} vs ideal {ideal}",
        report.makespan()
    );
    // Sanity: without any lock the same work would be `ideal`-ish.
    assert!(report.makespan() >= rounds * local);
}

#[test]
fn nested_lock_acquisition_does_not_deadlock() {
    // Outer lock held while taking an inner one (Hoard's heap -> global
    // pattern): the gate must never fire while holding a lock, or the
    // minimum-clock worker could be blocked on the holder.
    let outer: Arc<Vec<VLock>> = Arc::new((0..4).map(|_| VLock::new()).collect());
    let inner = Arc::new(VLock::new());
    let report = Machine::new(4).run(|proc| {
        let outer = Arc::clone(&outer);
        let inner = Arc::clone(&inner);
        move || {
            for round in 0..200u64 {
                // Stagger virtual progress so gates would engage.
                work((proc as u64 + 1) * 37 + round % 13);
                let _o = outer[proc].lock();
                let _i = inner.lock();
                work(5);
            }
        }
    });
    assert!(report.makespan() > 0, "completed without deadlock");
}

#[test]
fn barrier_and_channel_blocked_states_release_the_gate() {
    // Producer sprints ahead in virtual time, consumer blocks on the
    // channel; a third worker takes locks continuously. If blocked
    // workers were not excluded from the gate minimum this would stall
    // for the yield limit on every acquisition and take minutes.
    let (tx, rx) = vchannel::<u64>();
    let lock = Arc::new(VLock::new());
    let barrier = Arc::new(VBarrier::new(3));
    let start = std::time::Instant::now();
    let report = Machine::new(3).run(|proc| {
        let tx = tx.clone();
        let rx = rx.clone();
        let lock = Arc::clone(&lock);
        let barrier = Arc::clone(&barrier);
        move || {
            barrier.wait();
            match proc {
                0 => {
                    for i in 0..50u64 {
                        work(10_000); // far ahead
                        tx.send(i).expect("consumer alive");
                    }
                }
                1 => {
                    for _ in 0..50u64 {
                        let _ = rx.recv().expect("producer alive");
                    }
                }
                _ => {
                    for _ in 0..200u64 {
                        let _g = lock.lock();
                        work(100);
                    }
                }
            }
            barrier.wait();
        }
    });
    assert!(report.makespan() >= 500_000, "producer work dominates");
    assert!(
        start.elapsed().as_secs() < 30,
        "gate stalls detected: took {:?}",
        start.elapsed()
    );
}

#[test]
fn virtual_time_is_schedule_invariant_for_independent_workers() {
    // No shared state: the virtual result must be identical run to run
    // regardless of how the host schedules the threads.
    let run = || {
        Machine::new(6)
            .run(|proc| move || work((proc as u64 + 1) * 12_345))
            .per_processor()
            .to_vec()
    };
    assert_eq!(run(), run());
}

#[test]
fn makespan_reflects_critical_path_with_channels() {
    // A two-stage virtual pipeline: the makespan must be at least the
    // critical path (producer work + transfer + consumer work for the
    // last item), not the sum of all work.
    let (tx, rx) = vchannel::<()>();
    let items = 20u64;
    let report = Machine::new(2).run(|proc| {
        let tx = tx.clone();
        let rx = rx.clone();
        move || {
            if proc == 0 {
                for _ in 0..items {
                    work(100);
                    tx.send(()).expect("consumer alive");
                }
            } else {
                for _ in 0..items {
                    rx.recv().expect("producer alive");
                    work(300);
                }
            }
        }
    });
    let producer_total = items * 100;
    let consumer_total = items * 300;
    assert!(report.makespan() >= consumer_total);
    assert!(
        report.makespan() >= producer_total + 300,
        "last item's consumer work extends past the producer"
    );
    // And it must not serialize the two stages completely.
    assert!(
        report.makespan() < producer_total + consumer_total + 100 * 300,
        "pipeline did not overlap at all"
    );
}

#[test]
fn charging_stays_sound_after_every_context_exit() {
    // `charge` publishes through a cached pointer into the attached
    // machine's clock array. Every way out of a context — a worker
    // finishing, a scope returning, a scope unwinding, a nested scope
    // handing back to its parent — must leave that pointer either null
    // or aimed at a live machine, or these charges write freed memory.
    let report = Machine::new(2).run(|_| || work(10));
    assert_eq!(report.makespan(), 10);
    let t = now();
    work(1);
    assert_eq!(now(), t + 1, "the calling thread was never attached");

    let inner_then_outer = sequential_scope(2, || {
        let inner = sequential_scope(3, || {
            work(40);
            now()
        });
        work(2); // back on the outer scope's slot
        (inner, now())
    });
    assert_eq!(inner_then_outer, (40, 2));
    work(1);
    assert_eq!(now(), t + 2, "scope exit restored the caller's clock");

    let unwound = std::panic::catch_unwind(|| sequential_scope(2, || panic!("unwind the scope")));
    assert!(unwound.is_err());
    work(1);
    assert_eq!(now(), t + 3);
}
