//! Private heaps **with ownership**: the paper's model of `ptmalloc`
//! (glibc) arenas.
//!
//! Threads map to arenas; `free` returns a block to the arena it came
//! from (ownership), which fixes pure-private's unbounded blowup — but
//! arenas never return memory to each other or to the OS, so worst-case
//! consumption is still `O(P)` times a serial allocator's. Like
//! `ptmalloc`, a thread finding its arena lock busy *moves on to another
//! arena* ("arena stealing"), which lets blocks from one thread's cache
//! lines end up serving another thread — passive false sharing — and
//! makes remote frees contend with the owner's allocations (the Larson
//! effect in the paper's figures).

use crate::subheap::{decode_header, encode_header, Arena, ChunkRegistry};
use crate::{BASELINE_CHUNK, DEFAULT_HEAPS};
use hoard_mem::{
    large, read_header, write_header, AllocSnapshot, AllocStats, ChunkSource, MtAllocator,
    SizeClassTable, SystemSource, Tag,
};
use hoard_sim::{charge_cost, current_proc, Cost};
use std::ptr::NonNull;

/// Arena allocator with owner-returning frees (`ptmalloc`-like).
pub struct OwnershipAllocator<Src: ChunkSource = SystemSource> {
    classes: SizeClassTable,
    arenas: Vec<Arena>,
    chunks: ChunkRegistry,
    stats: AllocStats,
    source: Src,
    chunk_size: usize,
}

impl OwnershipAllocator<SystemSource> {
    /// Default: [`DEFAULT_HEAPS`] arenas over the system source.
    pub fn new() -> Self {
        Self::with_arenas(DEFAULT_HEAPS)
    }

    /// Build with `arenas` arenas.
    ///
    /// # Panics
    ///
    /// Panics if `arenas == 0` or `arenas > 256`.
    pub fn with_arenas(arenas: usize) -> Self {
        Self::with_source(arenas, SystemSource::new())
    }
}

impl Default for OwnershipAllocator<SystemSource> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Src: ChunkSource> OwnershipAllocator<Src> {
    /// Build with `arenas` arenas over a custom source.
    ///
    /// # Panics
    ///
    /// Panics if `arenas == 0` or `arenas > 256`.
    pub fn with_source(arenas: usize, source: Src) -> Self {
        assert!(arenas > 0 && arenas <= 256, "arenas must be in 1..=256");
        OwnershipAllocator {
            classes: SizeClassTable::for_superblock_size(BASELINE_CHUNK / 8),
            arenas: (0..arenas).map(|_| Arena::new()).collect(),
            chunks: ChunkRegistry::new(),
            stats: AllocStats::new(),
            source,
            chunk_size: BASELINE_CHUNK,
        }
    }

    fn home_arena(&self) -> usize {
        current_proc() % self.arenas.len()
    }

    /// Allocate from arena `idx` (lock already held).
    unsafe fn alloc_in(&self, idx: usize, class: usize, block_size: usize) -> Option<NonNull<u8>> {
        let arena = &self.arenas[idx];
        let mut payload = arena.heap.pop(class);
        if payload.is_null() {
            payload = arena.heap.carve(block_size);
        }
        if payload.is_null() {
            let chunk = self.chunks.alloc_chunk(&self.source, self.chunk_size)?;
            arena.heap.add_chunk(chunk.as_ptr(), self.chunk_size);
            payload = arena.heap.carve(block_size);
            debug_assert!(!payload.is_null());
        }
        write_header(payload, encode_header(class, idx));
        self.stats.on_alloc(block_size as u64);
        Some(NonNull::new_unchecked(payload))
    }
}

unsafe impl<Src: ChunkSource> MtAllocator for OwnershipAllocator<Src> {
    fn name(&self) -> &'static str {
        "ownership"
    }

    unsafe fn allocate(&self, size: usize) -> Option<NonNull<u8>> {
        debug_assert!(size > 0);
        charge_cost(Cost::MallocFast);
        let Some(class) = self.classes.index_for(size) else {
            let p = large::alloc_large(&self.source, size)?;
            self.stats.on_alloc(size as u64);
            return Some(p);
        };
        let block_size = self.classes.class(class).block_size as usize;
        let home = self.home_arena();
        let n = self.arenas.len();
        // ptmalloc's arena walk: try the home arena, then steal the first
        // unlocked one; if everything is busy, block on home.
        for attempt in 0..n {
            let idx = (home + attempt) % n;
            if let Some(_guard) = self.arenas[idx].lock.try_lock() {
                return self.alloc_in(idx, class, block_size);
            }
        }
        let _guard = self.arenas[home].lock.lock();
        self.alloc_in(home, class, block_size)
    }

    unsafe fn deallocate(&self, ptr: NonNull<u8>) {
        charge_cost(Cost::FreeFast);
        let header = read_header(ptr.as_ptr());
        match header.tag {
            Tag::Large => {
                let size = large::free_large(&self.source, header.value)
                    .expect("corrupt large-object header");
                self.stats.on_free(size as u64, false);
            }
            Tag::Baseline => {
                let (class, owner) = decode_header(header);
                let block_size = self.classes.class(class).block_size as u64;
                // Ownership: the block goes home, contending with the
                // owner's own allocations.
                let arena = &self.arenas[owner];
                let _guard = arena.lock.lock();
                arena.heap.push(class, ptr.as_ptr());
                self.stats.on_free(block_size, owner != self.home_arena());
            }
            _ => unreachable!("pointer was not allocated by OwnershipAllocator"),
        }
    }

    fn stats(&self) -> AllocSnapshot {
        self.stats.snapshot().with_source(self.source.stats())
    }

    unsafe fn usable_size(&self, ptr: NonNull<u8>) -> usize {
        let header = read_header(ptr.as_ptr());
        match header.tag {
            Tag::Large => large::large_size(header.value),
            Tag::Baseline => self.classes.class(decode_header(header).0).block_size as usize,
            _ => unreachable!("pointer was not allocated by OwnershipAllocator"),
        }
    }
}

impl<Src: ChunkSource> Drop for OwnershipAllocator<Src> {
    fn drop(&mut self) {
        self.chunks.release_all(&self.source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip() {
        let a = OwnershipAllocator::new();
        unsafe {
            let p = a.allocate(500).unwrap();
            std::ptr::write_bytes(p.as_ptr(), 5, 500);
            a.deallocate(p);
        }
        assert_eq!(a.stats().live_current, 0);
    }

    #[test]
    fn frees_return_to_the_owning_arena() {
        // Allocate here, free on another thread; allocating *here* again
        // must reuse the block (it came home), and the remote thread's
        // own allocation must NOT be that block.
        let a = Arc::new(OwnershipAllocator::with_arenas(8));
        hoard_sim::Machine::new(2).run(|proc| -> Box<dyn FnOnce() + Send> {
            let a = Arc::clone(&a);
            if proc == 0 {
                Box::new(move || {
                    let p = unsafe { a.allocate(64) }.unwrap().as_ptr() as usize;
                    // Hand to proc 1 through a side channel (the test is
                    // sequential enough: stash in a static).
                    STASH.store(p, std::sync::atomic::Ordering::SeqCst);
                    while STASH.load(std::sync::atomic::Ordering::SeqCst) != 0 {
                        std::thread::yield_now();
                    }
                    let q = unsafe { a.allocate(64) }.unwrap().as_ptr() as usize;
                    assert_eq!(q, p, "block must have come home to arena 0");
                })
            } else {
                Box::new(move || {
                    loop {
                        let p = STASH.load(std::sync::atomic::Ordering::SeqCst);
                        if p != 0 {
                            unsafe { a.deallocate(NonNull::new_unchecked(p as *mut u8)) };
                            let mine =
                                unsafe { a.allocate(64) }.unwrap().as_ptr() as usize;
                            assert_ne!(mine, p, "remote block must not serve proc 1");
                            STASH.store(0, std::sync::atomic::Ordering::SeqCst);
                            break;
                        }
                        std::thread::yield_now();
                    }
                })
            }
        });
        static STASH: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    }

    #[test]
    fn producer_consumer_blowup_is_bounded() {
        // Ownership fixes pure-private's runaway growth: the producer
        // reuses blocks the consumer sends home.
        let a = Arc::new(OwnershipAllocator::with_arenas(8));
        // One batch in flight at a time: the producer waits for the
        // consumer's ack before allocating the next.
        let (tx, rx) = hoard_sim::vchannel::<Vec<usize>>();
        let (ack_tx, ack_rx) = hoard_sim::vchannel::<()>();
        hoard_sim::Machine::new(2).run(|proc| -> Box<dyn FnOnce() + Send> {
            let a = Arc::clone(&a);
            if proc == 0 {
                let (tx, ack_rx) = (tx.clone(), ack_rx.clone());
                Box::new(move || {
                    for _ in 0..40 {
                        let ptrs: Vec<usize> = (0..64)
                            .map(|_| unsafe { a.allocate(256) }.unwrap().as_ptr() as usize)
                            .collect();
                        tx.send(ptrs).unwrap();
                        ack_rx.recv().unwrap();
                    }
                })
            } else {
                let (rx, ack_tx) = (rx.clone(), ack_tx.clone());
                Box::new(move || {
                    for _ in 0..40 {
                        for p in rx.recv().unwrap() {
                            unsafe { a.deallocate(NonNull::new_unchecked(p as *mut u8)) };
                        }
                        ack_tx.send(()).unwrap();
                    }
                })
            }
        });
        let snap = a.stats();
        assert_eq!(snap.live_current, 0);
        assert!(snap.remote_frees > 0);
        assert!(
            snap.held_peak <= 8 * BASELINE_CHUNK as u64,
            "ownership must bound producer-consumer growth, held_peak = {}",
            snap.held_peak
        );
    }

    #[test]
    fn arena_stealing_when_home_is_busy() {
        // Hold arena 0's lock hostage on this thread, then allocate from
        // a worker mapped to arena 0: it must steal another arena rather
        // than block (observable via the header's owner byte).
        let a = Arc::new(OwnershipAllocator::with_arenas(4));
        let hostage = Arc::clone(&a);
        let _outer = hostage.arenas[0].lock.lock();
        let a2 = Arc::clone(&a);
        let owner = std::thread::spawn(move || {
            // Force this worker onto arena 0 by construction: proc ids of
            // plain threads are arbitrary, so loop until one maps to 0.
            let idx = a2.home_arena();
            let p = unsafe { a2.allocate(64) }.unwrap();
            let (_, got) = decode_header(unsafe { read_header(p.as_ptr()) });
            unsafe { a2.deallocate(p) };
            (idx, got)
        })
        .join()
        .unwrap();
        if owner.0 == 0 {
            assert_ne!(owner.1, 0, "home was locked; allocation must steal");
        } else {
            assert_eq!(owner.1, owner.0, "uncontended home serves directly");
        }
    }

    #[test]
    fn parallel_churn_with_remote_frees_is_safe() {
        let a = Arc::new(OwnershipAllocator::with_arenas(8));
        let (tx, rx) = hoard_sim::vchannel::<usize>();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                let tx = tx.clone();
                let rx = rx.clone();
                std::thread::spawn(move || {
                    for i in 0..2000usize {
                        let p = unsafe { a.allocate(8 + (i * t) % 400) }.unwrap();
                        tx.send(p.as_ptr() as usize).unwrap();
                        if let Ok(Some(q)) = rx.try_recv() {
                            unsafe { a.deallocate(NonNull::new_unchecked(q as *mut u8)) };
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(tx);
        while let Ok(Some(q)) = rx.try_recv() {
            unsafe { a.deallocate(NonNull::new_unchecked(q as *mut u8)) };
        }
        assert_eq!(a.stats().live_current, 0);
    }
}
