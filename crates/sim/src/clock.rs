//! Per-thread virtual clocks and virtual-processor identities.
//!
//! Each OS thread participating in a simulation owns a [`VirtualClock`]:
//! a monotonically increasing counter of abstract cost units. The clock
//! lives in a `thread_local` `Cell`, so advancing it is a couple of
//! nanoseconds — cheap enough to leave permanently enabled inside the
//! allocators.
//!
//! Threads also carry a *virtual processor id*. Under [`crate::Machine`]
//! the id is the processor index `0..p`; threads created outside a
//! machine lazily draw a unique id from a global counter, so allocators
//! can always map "current thread" to a heap without registration.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static CLOCK: Cell<u64> = const { Cell::new(0) };
    static PROC: Cell<usize> = const { Cell::new(usize::MAX) };
    static ALLOC_SITE: Cell<u32> = const { Cell::new(0) };
}

static NEXT_FREE_PROC: AtomicUsize = AtomicUsize::new(0);

/// A handle to the calling thread's virtual clock.
///
/// Mostly used through the free functions [`now`], [`charge`] and
/// [`set_clock`]; the struct exists so the clock can be named in APIs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock;

impl VirtualClock {
    /// Current virtual time of the calling thread.
    pub fn now(&self) -> u64 {
        now()
    }

    /// Advance the calling thread's virtual time by `units`.
    pub fn charge(&self, units: u64) {
        charge(units)
    }
}

/// Current virtual time of the calling thread.
#[inline]
pub fn now() -> u64 {
    CLOCK.with(|c| c.get())
}

/// Advance the calling thread's virtual time by `units`.
#[inline]
pub fn charge(units: u64) {
    CLOCK.with(|c| {
        let t = c.get() + units;
        c.set(t);
        crate::gate::publish(t);
    });
}

/// Set the calling thread's virtual time to `max(current, t)`.
///
/// Used by synchronization primitives ([`crate::VLock`],
/// [`crate::VBarrier`], [`crate::vchannel`]) to express "this thread
/// could not have proceeded before virtual time `t`".
#[inline]
pub fn set_clock(t: u64) {
    CLOCK.with(|c| {
        if t > c.get() {
            c.set(t);
            crate::gate::publish(t);
        }
    });
}

/// Reset the calling thread's clock to zero (machine start).
pub(crate) fn reset_clock() {
    CLOCK.with(|c| c.set(0));
}

/// Switch the calling thread's virtual-processor context to
/// (`proc`, `t`), returning the previous `(proc, clock)` pair.
///
/// This is the context switch of a **sequential** multiprocessor
/// simulation (see [`crate::sequential_scope`]): one OS thread
/// impersonates every virtual processor in turn, so — unlike
/// [`set_clock`] — the clock here may move *backwards*. Each virtual
/// processor's own timeline stays monotone; it is only the host
/// thread's view that jumps around. Must not be called from inside a
/// [`crate::Machine`] worker, whose processor identity is fixed.
#[inline]
pub fn switch_context(proc: usize, t: u64) -> (usize, u64) {
    let prev_proc = PROC.with(|p| p.replace(proc));
    let prev_clock = CLOCK.with(|c| c.replace(t));
    crate::gate::publish(t);
    (prev_proc, prev_clock)
}

/// The calling thread's virtual processor id.
///
/// Inside a [`crate::Machine`] run this is the processor index assigned
/// by the machine; elsewhere a process-unique id is lazily assigned, so
/// the function never fails and two distinct threads never share an id
/// (machine processor ids are reused across runs by design — a machine
/// *is* the set of processors).
#[inline]
pub fn current_proc() -> usize {
    PROC.with(|p| {
        let v = p.get();
        if v != usize::MAX {
            v
        } else {
            // Lazily assigned ids start far above any machine size so they
            // never collide with the ids a Machine hands out.
            let id = NEXT_FREE_PROC.fetch_add(1, Ordering::Relaxed) + 1024;
            p.set(id);
            id
        }
    })
}

/// Whether the calling thread has already been assigned a processor id
/// (true inside `Machine::run` workers and after the first
/// [`current_proc`] call).
pub fn has_proc() -> bool {
    PROC.with(|p| p.get() != usize::MAX)
}

/// Assign a machine processor id to the calling thread.
pub(crate) fn set_proc(id: usize) {
    PROC.with(|p| p.set(id));
}

/// Tag the calling thread's next allocations with `site`, returning the
/// previous tag.
///
/// The *allocation site* is a workload-chosen token (0 = untagged)
/// identifying the logical call site of the allocations that follow —
/// the simulated analogue of a return-address sample. It rides in a
/// thread-local so the tag crosses the allocator API without widening
/// any signature; an attached heap profiler reads it via
/// [`current_alloc_site`], and with no profiler attached the register
/// is never consulted. Callers restore the previous tag when their
/// scope ends (see `Obj::alloc_site` in the workloads crate).
pub fn set_alloc_site(site: u32) -> u32 {
    ALLOC_SITE.with(|s| s.replace(site))
}

/// The calling thread's current allocation-site tag (0 = untagged).
pub fn current_alloc_site() -> u32 {
    ALLOC_SITE.with(|s| s.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let t0 = now();
        charge(5);
        charge(7);
        assert_eq!(now(), t0 + 12);
    }

    #[test]
    fn set_clock_is_monotone() {
        charge(100);
        let t = now();
        set_clock(t.saturating_sub(50));
        assert_eq!(now(), t, "set_clock must never move time backwards");
        set_clock(t + 50);
        assert_eq!(now(), t + 50);
    }

    #[test]
    fn lazily_assigned_proc_ids_are_distinct() {
        let a = std::thread::spawn(current_proc).join().unwrap();
        let b = std::thread::spawn(current_proc).join().unwrap();
        assert_ne!(a, b);
        assert!(a >= 1024 && b >= 1024);
    }

    #[test]
    fn proc_id_is_stable_within_a_thread() {
        assert_eq!(current_proc(), current_proc());
    }
}
