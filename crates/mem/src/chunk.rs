//! Chunk sources — the allocators' "operating system".
//!
//! Hoard and the baselines never talk to the host allocator directly;
//! they request superblock-sized, superblock-aligned chunks from a
//! [`ChunkSource`]. This indirection gives us three things the
//! reproduction needs:
//!
//! 1. **Accounting** — `A(t)`, the bytes currently/maximally *held* from
//!    the OS, which together with the in-use bytes `U(t)` yields the
//!    paper's fragmentation and blowup measurements.
//! 2. **Virtual cost** — each chunk allocation charges the
//!    [`Cost::OsChunk`](hoard_sim::Cost) penalty, so allocators that go
//!    to the OS too often pay for it in the simulated figures.
//! 3. **Failure injection** — [`LimitedSource`] and [`FailingSource`]
//!    let tests exercise out-of-memory paths deterministically.

use crate::stats::peak_max;
use hoard_sim::{charge_cost, Cost};
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Provider of large aligned chunks. Implementations must be thread-safe.
///
/// # Safety
///
/// Implementations must return chunks that are valid for reads and writes
/// of `layout.size()` bytes, aligned to `layout.align()`, and exclusively
/// owned by the caller until passed back to [`free_chunk`].
///
/// [`free_chunk`]: ChunkSource::free_chunk
pub unsafe trait ChunkSource: Send + Sync {
    /// Allocate a chunk of the given layout, or `None` when exhausted.
    ///
    /// # Safety
    ///
    /// `layout` must have nonzero size.
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>>;

    /// Return a chunk previously obtained from [`alloc_chunk`] with the
    /// same layout.
    ///
    /// # Safety
    ///
    /// `ptr` must come from this source's `alloc_chunk` with an identical
    /// `layout`, and must not be used afterwards.
    ///
    /// [`alloc_chunk`]: ChunkSource::alloc_chunk
    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout);

    /// Accounting snapshot.
    fn stats(&self) -> SourceStats;
}

// A shared reference to a source is itself a source: this lets a test
// hand an allocator `&source` and keep the original to inspect stats
// after the allocator (and its Drop) are gone.
unsafe impl<S: ChunkSource> ChunkSource for &S {
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
        (**self).alloc_chunk(layout)
    }

    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
        (**self).free_chunk(ptr, layout);
    }

    fn stats(&self) -> SourceStats {
        (**self).stats()
    }
}

/// Point-in-time accounting of a [`ChunkSource`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Bytes currently held from the OS.
    pub held_current: u64,
    /// High-water mark of held bytes — the `A` in the paper's
    /// fragmentation ratio `A / U`.
    pub held_peak: u64,
    /// Number of chunk allocations performed.
    pub chunk_allocs: u64,
    /// Number of chunks returned.
    pub chunk_frees: u64,
}

#[derive(Debug, Default)]
struct Counters {
    held: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl Counters {
    const fn new() -> Self {
        Counters {
            held: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    fn on_alloc(&self, bytes: u64) {
        let now = self.held.fetch_add(bytes, Ordering::Relaxed) + bytes;
        peak_max(&self.peak, now);
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    fn on_free(&self, bytes: u64) {
        self.held.fetch_sub(bytes, Ordering::Relaxed);
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SourceStats {
        SourceStats {
            held_current: self.held.load(Ordering::Relaxed),
            held_peak: self.peak.load(Ordering::Relaxed),
            chunk_allocs: self.allocs.load(Ordering::Relaxed),
            chunk_frees: self.frees.load(Ordering::Relaxed),
        }
    }
}

/// The default chunk source: the host *system* allocator plus virtual OS
/// cost.
///
/// Deliberately calls [`std::alloc::System`] rather than the global
/// `std::alloc::alloc`: when a Hoard instance built on this source is
/// installed as `#[global_allocator]`, going through the global hooks
/// would recurse into Hoard itself.
#[derive(Debug, Default)]
pub struct SystemSource {
    counters: Counters,
}

impl SystemSource {
    /// Create a source with zeroed counters. `const`, so a source can be
    /// embedded in a `static` allocator.
    pub const fn new() -> Self {
        SystemSource {
            counters: Counters::new(),
        }
    }
}

unsafe impl ChunkSource for SystemSource {
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
        use std::alloc::GlobalAlloc;
        charge_cost(Cost::OsChunk);
        let ptr = std::alloc::System.alloc(layout);
        let nn = NonNull::new(ptr)?;
        // Whether the host recycled this address must not leak into the
        // virtual cost model: declare the chunk's lines cold.
        hoard_sim::chunk_acquired(nn.as_ptr(), layout.size());
        self.counters.on_alloc(layout.size() as u64);
        Some(nn)
    }

    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
        use std::alloc::GlobalAlloc;
        charge_cost(Cost::OsRelease);
        std::alloc::System.dealloc(ptr.as_ptr(), layout);
        self.counters.on_free(layout.size() as u64);
    }

    fn stats(&self) -> SourceStats {
        self.counters.snapshot()
    }
}

/// A source that refuses allocations beyond a byte budget — deterministic
/// out-of-memory injection for tests and for bounding runaway blowup
/// demonstrations.
#[derive(Debug)]
pub struct LimitedSource<S> {
    inner: S,
    capacity: u64,
}

impl<S: ChunkSource> LimitedSource<S> {
    /// Wrap `inner`, refusing to exceed `capacity` bytes held at once.
    pub fn new(inner: S, capacity: u64) -> Self {
        LimitedSource { inner, capacity }
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

unsafe impl<S: ChunkSource> ChunkSource for LimitedSource<S> {
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
        // Optimistic check; a benign race can slightly overshoot, which is
        // acceptable for test budgeting (exactness is not required).
        if self.inner.stats().held_current + layout.size() as u64 > self.capacity {
            return None;
        }
        self.inner.alloc_chunk(layout)
    }

    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
        self.inner.free_chunk(ptr, layout);
    }

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

/// A source that succeeds `successes` times and then fails every
/// allocation — for exercising error paths mid-operation.
#[derive(Debug)]
pub struct FailingSource<S> {
    inner: S,
    remaining: AtomicUsize,
}

impl<S: ChunkSource> FailingSource<S> {
    /// Wrap `inner`, allowing exactly `successes` chunk allocations.
    pub fn new(inner: S, successes: usize) -> Self {
        FailingSource {
            inner,
            remaining: AtomicUsize::new(successes),
        }
    }
}

unsafe impl<S: ChunkSource> ChunkSource for FailingSource<S> {
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return None;
            }
            match self.remaining.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.inner.alloc_chunk(layout)
    }

    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
        self.inner.free_chunk(ptr, layout);
    }

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, size.next_power_of_two()).unwrap()
    }

    #[test]
    fn system_source_tracks_held_and_peak() {
        let s = SystemSource::new();
        let l = layout(8192);
        let a = unsafe { s.alloc_chunk(l) }.unwrap();
        let b = unsafe { s.alloc_chunk(l) }.unwrap();
        assert_eq!(s.stats().held_current, 16384);
        unsafe { s.free_chunk(a, l) };
        assert_eq!(s.stats().held_current, 8192);
        assert_eq!(s.stats().held_peak, 16384, "peak survives frees");
        unsafe { s.free_chunk(b, l) };
        let st = s.stats();
        assert_eq!(st.held_current, 0);
        assert_eq!(st.chunk_allocs, 2);
        assert_eq!(st.chunk_frees, 2);
    }

    #[test]
    fn system_source_chunks_are_aligned_and_writable() {
        let s = SystemSource::new();
        let l = Layout::from_size_align(16384, 16384).unwrap();
        let p = unsafe { s.alloc_chunk(l) }.unwrap();
        assert_eq!(p.as_ptr() as usize % 16384, 0);
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0xAB, 16384);
            assert_eq!(*p.as_ptr(), 0xAB);
            s.free_chunk(p, l);
        }
    }

    #[test]
    fn system_source_charges_virtual_os_cost() {
        let s = SystemSource::new();
        let t0 = hoard_sim::now();
        let l = layout(8192);
        let p = unsafe { s.alloc_chunk(l) }.unwrap();
        assert!(hoard_sim::now() >= t0 + hoard_sim::CostModel::current().os_chunk);
        unsafe { s.free_chunk(p, l) };
    }

    #[test]
    fn limited_source_enforces_budget() {
        let s = LimitedSource::new(SystemSource::new(), 16384);
        let l = layout(8192);
        let a = unsafe { s.alloc_chunk(l) }.unwrap();
        let b = unsafe { s.alloc_chunk(l) }.unwrap();
        assert!(unsafe { s.alloc_chunk(l) }.is_none(), "over budget");
        unsafe { s.free_chunk(a, l) };
        let c = unsafe { s.alloc_chunk(l) }.expect("freed budget is reusable");
        unsafe {
            s.free_chunk(b, l);
            s.free_chunk(c, l);
        }
    }

    #[test]
    fn failing_source_counts_down() {
        let s = FailingSource::new(SystemSource::new(), 2);
        let l = layout(8192);
        let a = unsafe { s.alloc_chunk(l) }.unwrap();
        let b = unsafe { s.alloc_chunk(l) }.unwrap();
        assert!(unsafe { s.alloc_chunk(l) }.is_none());
        assert!(unsafe { s.alloc_chunk(l) }.is_none(), "stays failed");
        unsafe {
            s.free_chunk(a, l);
            s.free_chunk(b, l);
        }
    }
}
