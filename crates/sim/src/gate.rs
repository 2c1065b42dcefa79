//! Virtual-time ordering gate — conservative scheduling for the
//! single-host simulation.
//!
//! On a multiprocessor, threads contend for a lock at roughly the times
//! their (virtual) clocks say; on this simulator's single-core host, the
//! OS may run one worker to completion before another starts, so the
//! *real* acquisition order can be wildly different from virtual-time
//! order. A naive virtually-timed lock then produces a convoy: the late
//! runner inherits the early runner's *final* release time and the
//! simulation degenerates to full serialization.
//!
//! The fix is the conservative discrete-event rule: before acquiring a
//! lock (the only ordering-sensitive operation), a worker whose virtual
//! clock is more than a small window ahead of the slowest *runnable*
//! worker in its machine yields the host CPU until the laggards catch
//! up. Blocked workers (waiting at a barrier or on a channel) and
//! finished workers are excluded from the minimum — their clocks only
//! move when someone else progresses, so waiting on them would deadlock.
//! Workers holding a lock are never gated (see [`crate::VLock`]), which
//! keeps the protocol deadlock-free: the minimum-clock worker is always
//! free to run.

use crate::cache::CacheModel;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// How far (in virtual units) a worker may run ahead of the slowest
/// runnable worker before it yields. Smaller = more faithful ordering,
/// more host yields.
const WINDOW: u64 = 1_000;

/// Yield budget before a gate gives up (escape hatch against
/// pathological schedules; counted in [`MachineState::gate_timeouts`]).
const YIELD_LIMIT: u32 = 20_000;

/// Worker states for the gate's minimum computation.
pub(crate) const STATE_ACTIVE: u8 = 0;
pub(crate) const STATE_BLOCKED: u8 = 1;
pub(crate) const STATE_DONE: u8 = 2;

/// Shared per-machine scheduling state, including the machine's own
/// cache model (so concurrent machines — e.g. parallel tests — cannot
/// interfere with each other's coherence state).
#[derive(Debug)]
pub(crate) struct MachineState {
    pub clocks: Vec<AtomicU64>,
    pub states: Vec<AtomicU8>,
    pub gate_timeouts: AtomicUsize,
    pub cache: CacheModel,
}

impl MachineState {
    pub fn new(processors: usize) -> Arc<Self> {
        Self::with_cache(processors, CacheModel::new())
    }

    /// A machine state with a caller-chosen cache model (the
    /// deterministic one for [`crate::sequential_scope`]).
    pub fn with_cache(processors: usize, cache: CacheModel) -> Arc<Self> {
        Arc::new(MachineState {
            clocks: (0..processors).map(|_| AtomicU64::new(0)).collect(),
            states: (0..processors).map(|_| AtomicU8::new(STATE_ACTIVE)).collect(),
            gate_timeouts: AtomicUsize::new(0),
            cache,
        })
    }

    /// Minimum clock over *other* active workers, or `None` when every
    /// other worker is blocked or done.
    fn min_other_active(&self, me: usize) -> Option<u64> {
        let mut min = None;
        for i in 0..self.clocks.len() {
            if i == me || self.states[i].load(Ordering::Relaxed) != STATE_ACTIVE {
                continue;
            }
            let c = self.clocks[i].load(Ordering::Relaxed);
            min = Some(min.map_or(c, |m: u64| m.min(c)));
        }
        min
    }
}

/// A worker's machine context: the machine it belongs to (an owning
/// `Arc`, keeping it alive) and its slot index there.
pub(crate) type MachineCtx = (Arc<MachineState>, usize);

/// Owner of the calling thread's [`MachineCtx`]. Its destructor clears
/// [`PUBLISH_SLOT`], so a thread that exits while still attached (a
/// panicking worker) cannot leave the slot pointer behind its `Arc`.
struct CtxCell(Option<MachineCtx>);

impl Drop for CtxCell {
    fn drop(&mut self) {
        // `PUBLISH_SLOT` has no destructor, so it is still accessible
        // while this thread's other thread-locals are being destroyed.
        PUBLISH_SLOT.with(|p| p.set(std::ptr::null()));
    }
}

thread_local! {
    /// This worker's machine context.
    static CTX: std::cell::RefCell<CtxCell> = const { std::cell::RefCell::new(CtxCell(None)) };
    /// `&state.clocks[idx]` of the context in `CTX`, null when detached:
    /// what [`publish`] stores through, so a charge costs one
    /// thread-local load instead of a `RefCell` borrow. Only
    /// [`swap_ctx`] (and `CtxCell`'s destructor) write it, always before
    /// the `Arc` it points into can be released, so it never dangles.
    static PUBLISH_SLOT: Cell<*const AtomicU64> = const { Cell::new(std::ptr::null()) };
    /// Depth of currently held [`crate::VLock`]s; gating only at depth 0.
    static LOCK_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Swap the calling thread's machine context wholesale, returning the
/// previous one (for [`crate::sequential_scope`], which must restore
/// the caller's context on exit rather than mark it done). The one
/// place `CTX` and `PUBLISH_SLOT` change, so they cannot disagree.
pub(crate) fn swap_ctx(new: Option<MachineCtx>) -> Option<MachineCtx> {
    let slot = new.as_ref().map_or(std::ptr::null(), |(state, idx)| {
        &state.clocks[*idx] as *const AtomicU64
    });
    // Re-point the slot first: the previous `Arc` goes back to the
    // caller, who may drop it (and free its clocks) immediately.
    // `clocks` is never resized, so the new address is stable for as
    // long as `CTX` holds `new`.
    PUBLISH_SLOT.with(|p| p.set(slot));
    CTX.with(|c| std::mem::replace(&mut c.borrow_mut().0, new))
}

/// Attach the calling worker to `state` as processor `idx`.
pub(crate) fn attach(state: &Arc<MachineState>, idx: usize) {
    swap_ctx(Some((Arc::clone(state), idx)));
}

/// Detach the calling worker (marks it done).
pub(crate) fn detach() {
    if let Some((state, idx)) = swap_ctx(None) {
        state.states[idx].store(STATE_DONE, Ordering::Relaxed);
    }
}

/// Publish the calling worker's clock to its machine slot (no-op for
/// non-machine threads).
#[inline]
pub(crate) fn publish(clock: u64) {
    let slot = PUBLISH_SLOT.with(|p| p.get());
    if !slot.is_null() {
        // SAFETY: a non-null `PUBLISH_SLOT` points into the
        // `MachineState` whose `Arc` this thread's `CTX` holds (see
        // `swap_ctx`), so the `AtomicU64` is live.
        unsafe { (*slot).store(clock, Ordering::Relaxed) };
    }
}

/// Whether the calling thread is attached to a machine: `CTX` is `Some`
/// exactly when `PUBLISH_SLOT` is non-null ([`swap_ctx`] keeps the two
/// together), so this is one thread-local load where asking `CTX` would
/// borrow a `RefCell` — what lets [`crate::VLock::lock`] skip the gate on
/// a plain thread (a `GlobalAlloc` user, a wall-clock loop).
#[inline]
pub(crate) fn attached() -> bool {
    !PUBLISH_SLOT.with(|p| p.get()).is_null()
}

/// Where [`publish`] currently stores (null when detached).
#[cfg(test)]
pub(crate) fn publish_slot() -> *const AtomicU64 {
    PUBLISH_SLOT.with(|p| p.get())
}

/// The calling worker's machine cache model, if attached to a machine.
pub(crate) fn machine_cache<T>(f: impl FnOnce(&CacheModel) -> T) -> Option<T> {
    CTX.with(|c| c.borrow().0.as_ref().map(|(state, _)| f(&state.cache)))
}

/// Mark the calling worker blocked (excluded from gate minima) while `f`
/// performs a real blocking wait.
pub(crate) fn while_blocked<T>(f: impl FnOnce() -> T) -> T {
    let ctx = CTX.with(|c| c.borrow().0.clone());
    if let Some((state, idx)) = ctx {
        state.states[idx].store(STATE_BLOCKED, Ordering::Relaxed);
        let out = f();
        state.states[idx].store(STATE_ACTIVE, Ordering::Relaxed);
        out
    } else {
        f()
    }
}

/// Current lock-hold depth of this thread.
#[inline]
pub(crate) fn lock_depth() -> u32 {
    LOCK_DEPTH.with(|d| d.get())
}

#[inline]
pub(crate) fn inc_lock_depth() {
    LOCK_DEPTH.with(|d| d.set(d.get() + 1));
}

#[inline]
pub(crate) fn dec_lock_depth() {
    LOCK_DEPTH.with(|d| d.set(d.get() - 1));
}

/// The ordering gate: yield the host CPU until this worker's virtual
/// clock is within [`WINDOW`] of the slowest runnable peer. Called by
/// [`crate::VLock::lock`] at lock depth 0 on an [`attached`] thread (it
/// returns at once on any other).
pub(crate) fn gate(my_clock: u64) {
    // Borrowed, not cloned: nothing below re-enters `CTX`, and an `Arc`
    // clone would put two RMWs on a shared refcount into every lock.
    CTX.with(|c| {
        let ctx = c.borrow();
        let Some((state, idx)) = ctx.0.as_ref() else {
            return;
        };
        state.clocks[*idx].store(my_clock, Ordering::Relaxed);
        let mut spins = 0u32;
        loop {
            match state.min_other_active(*idx) {
                Some(min) if my_clock > min + WINDOW => {
                    spins += 1;
                    if spins > YIELD_LIMIT {
                        state.gate_timeouts.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    std::thread::yield_now();
                }
                _ => return,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `attached()` is `CTX.is_some()`, and both read `expect`.
    fn assert_attached(expect: bool) {
        assert_eq!(CTX.with(|c| c.borrow().0.is_some()), expect);
        assert_eq!(attached(), expect);
    }

    #[test]
    fn non_machine_threads_are_never_gated() {
        // Must return immediately: no context attached.
        assert_attached(false);
        gate(u64::MAX);
        std::thread::spawn(|| assert_attached(false))
            .join()
            .expect("a fresh thread starts detached");
        // A sequential scope attaches its caller for its duration, nested
        // or not, and hands back what it found.
        crate::sequential_scope(2, || {
            assert_attached(true);
            crate::sequential_scope(3, || assert_attached(true));
            assert_attached(true);
        });
        assert_attached(false);
    }

    #[test]
    fn min_excludes_blocked_done_and_self() {
        let s = MachineState::new(4);
        s.clocks[0].store(10, Ordering::Relaxed);
        s.clocks[1].store(20, Ordering::Relaxed);
        s.clocks[2].store(5, Ordering::Relaxed);
        s.clocks[3].store(1, Ordering::Relaxed);
        s.states[2].store(STATE_BLOCKED, Ordering::Relaxed);
        s.states[3].store(STATE_DONE, Ordering::Relaxed);
        assert_eq!(s.min_other_active(0), Some(20));
        assert_eq!(s.min_other_active(1), Some(10));
        s.states[0].store(STATE_DONE, Ordering::Relaxed);
        assert_eq!(s.min_other_active(1), None, "nobody else runnable");
    }

    #[test]
    fn publish_slot_is_cleared_before_the_machine_state_can_drop() {
        // What a `Machine::run` worker does, with the thread-local
        // context holding the *last* `Arc`: detaching frees the state,
        // and a later charge must not store through the old slot.
        assert!(publish_slot().is_null());
        assert_attached(false);
        let state = MachineState::new(2);
        let weak = Arc::downgrade(&state);
        attach(&state, 1);
        assert_attached(true);
        drop(state);
        let live = weak.upgrade().expect("the context keeps the machine alive");
        assert_eq!(publish_slot(), &live.clocks[1] as *const AtomicU64);
        crate::clock::charge(7);
        assert_eq!(live.clocks[1].load(Ordering::Relaxed), crate::clock::now());
        drop(live);
        detach();
        assert!(publish_slot().is_null());
        assert_attached(false);
        assert!(weak.upgrade().is_none(), "detach released the last Arc");
        let t = crate::clock::now();
        crate::clock::charge(5);
        assert_eq!(
            crate::clock::now(),
            t + 5,
            "detached charge is a plain clock bump"
        );
    }

    #[test]
    fn lock_depth_nests() {
        assert_eq!(lock_depth(), 0);
        inc_lock_depth();
        inc_lock_depth();
        assert_eq!(lock_depth(), 2);
        dec_lock_depth();
        dec_lock_depth();
        assert_eq!(lock_depth(), 0);
    }
}
