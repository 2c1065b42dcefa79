//! Pure private heaps: the paper's model of Cilk 4.1 and STL
//! per-thread allocators.
//!
//! Each thread owns a private heap; `malloc` takes from it and `free`
//! returns the block **to the freeing thread's heap**, wherever it came
//! from. That makes every operation lock-local (near-perfect
//! scalability) but, as the paper's Section 2 shows, lets memory leak
//! from producers to consumers: in a producer–consumer loop the
//! producer's heap never gets anything back, so it keeps drawing fresh
//! chunks — **unbounded blowup** (`O(mem(1) · P)` in the round-robin
//! case; unbounded for a fixed producer). It also inherits **passive
//! false sharing**: a block freed by thread B is handed to B's next
//! `malloc` even though its neighbors still belong to thread A.

use crate::subheap::{decode_header, encode_header, Arena, ChunkRegistry};
use crate::{BASELINE_CHUNK, DEFAULT_HEAPS};
use hoard_mem::{
    large, read_header, write_header, AllocSnapshot, AllocStats, ChunkSource, MtAllocator,
    SizeClassTable, SystemSource, Tag,
};
use hoard_sim::{charge_cost, current_proc, Cost};
use std::ptr::NonNull;

/// Per-thread private heaps with freeing-thread frees (Cilk/STL-like).
pub struct PurePrivateAllocator<Src: ChunkSource = SystemSource> {
    classes: SizeClassTable,
    arenas: Vec<Arena>,
    chunks: ChunkRegistry,
    stats: AllocStats,
    source: Src,
    chunk_size: usize,
}

impl PurePrivateAllocator<SystemSource> {
    /// Default: [`DEFAULT_HEAPS`] private heaps over the system source.
    pub fn new() -> Self {
        Self::with_heaps(DEFAULT_HEAPS)
    }

    /// Build with `heaps` private heaps.
    ///
    /// # Panics
    ///
    /// Panics if `heaps == 0` or `heaps > 256`.
    pub fn with_heaps(heaps: usize) -> Self {
        Self::with_source(heaps, SystemSource::new())
    }
}

impl Default for PurePrivateAllocator<SystemSource> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Src: ChunkSource> PurePrivateAllocator<Src> {
    /// Build with `heaps` private heaps over a custom source.
    ///
    /// # Panics
    ///
    /// Panics if `heaps == 0` or `heaps > 256` (the header encoding
    /// carries the heap index in one byte).
    pub fn with_source(heaps: usize, source: Src) -> Self {
        assert!(heaps > 0 && heaps <= 256, "heaps must be in 1..=256");
        PurePrivateAllocator {
            classes: SizeClassTable::for_superblock_size(BASELINE_CHUNK / 8),
            arenas: (0..heaps).map(|_| Arena::new()).collect(),
            chunks: ChunkRegistry::new(),
            stats: AllocStats::new(),
            source,
            chunk_size: BASELINE_CHUNK,
        }
    }

    fn my_arena(&self) -> usize {
        current_proc() % self.arenas.len()
    }
}

unsafe impl<Src: ChunkSource> MtAllocator for PurePrivateAllocator<Src> {
    fn name(&self) -> &'static str {
        "private"
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
        let idx = self.my_arena();
        let arena = &self.arenas[idx];
        let _guard = arena.lock.lock();
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
                let (class, origin) = decode_header(header);
                let block_size = self.classes.class(class).block_size as u64;
                // The defining behavior: free to the *freeing* thread's
                // heap, not the origin's.
                let idx = self.my_arena();
                let arena = &self.arenas[idx];
                let _guard = arena.lock.lock();
                // Re-stamp the header so the block now belongs here.
                write_header(ptr.as_ptr(), encode_header(class, idx));
                arena.heap.push(class, ptr.as_ptr());
                self.stats.on_free(block_size, origin != idx);
            }
            _ => unreachable!("pointer was not allocated by PurePrivateAllocator"),
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
            _ => unreachable!("pointer was not allocated by PurePrivateAllocator"),
        }
    }
}

impl<Src: ChunkSource> Drop for PurePrivateAllocator<Src> {
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
        let a = PurePrivateAllocator::new();
        unsafe {
            let p = a.allocate(333).unwrap();
            std::ptr::write_bytes(p.as_ptr(), 9, 333);
            assert!(a.usable_size(p) >= 333);
            a.deallocate(p);
        }
        assert_eq!(a.stats().live_current, 0);
    }

    #[test]
    fn producer_consumer_blowup_is_unbounded() {
        // The paper's key negative result for this class: producer
        // allocates, consumer frees; the producer's heap never sees the
        // memory again, so held memory grows linearly with iterations.
        let a = Arc::new(PurePrivateAllocator::with_heaps(8));
        let rounds = 40usize;
        let batch = 64usize;
        // One batch in flight at a time: the producer waits for the
        // consumer's ack before allocating the next.
        let (tx, rx) = hoard_sim::vchannel::<Vec<usize>>();
        let (ack_tx, ack_rx) = hoard_sim::vchannel::<()>();
        // Run under a simulated machine so producer and consumer map to
        // *distinct* heaps deterministically (procs 0 and 1). The
        // sim-aware channel marks blocked workers for the ordering gate —
        // raw blocking channels would stall peers' gates.
        hoard_sim::Machine::new(2).run(|proc| -> Box<dyn FnOnce() + Send> {
            if proc == 0 {
                let a = Arc::clone(&a);
                let (tx, ack_rx) = (tx.clone(), ack_rx.clone());
                Box::new(move || {
                    for _ in 0..rounds {
                        let ptrs: Vec<usize> = (0..batch)
                            .map(|_| unsafe { a.allocate(256) }.unwrap().as_ptr() as usize)
                            .collect();
                        tx.send(ptrs).unwrap();
                        ack_rx.recv().unwrap();
                    }
                })
            } else {
                let a = Arc::clone(&a);
                let (rx, ack_tx) = (rx.clone(), ack_tx.clone());
                Box::new(move || {
                    for _ in 0..rounds {
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
        // Live never exceeded one batch (64 x 256B = 16 KiB), but held
        // memory grew with the total volume produced (40 x 16 KiB =
        // 640 KiB of blocks): blowup far above any constant.
        assert!(
            snap.held_peak >= (rounds as u64 - 2) * (batch as u64) * 264 / 2,
            "expected runaway growth, held_peak = {}",
            snap.held_peak
        );
        assert!(snap.remote_frees > 0);
    }

    #[test]
    fn freed_blocks_migrate_to_the_freeing_heap() {
        let a = Arc::new(PurePrivateAllocator::with_heaps(8));
        // Allocate here, free on another thread, then allocate there: the
        // other thread must get the same block back.
        let p = unsafe { a.allocate(64) }.unwrap().as_ptr() as usize;
        let a2 = Arc::clone(&a);
        let reused = std::thread::spawn(move || unsafe {
            a2.deallocate(NonNull::new_unchecked(p as *mut u8));
            a2.allocate(64).unwrap().as_ptr() as usize
        })
        .join()
        .unwrap();
        assert_eq!(reused, p, "passive-false-sharing hand-off");
    }

    #[test]
    fn parallel_churn_is_safe_and_balanced() {
        let a = Arc::new(PurePrivateAllocator::with_heaps(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..3000usize {
                        let p = unsafe { a.allocate(8 + i % 300) }.unwrap();
                        unsafe { a.deallocate(p) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = a.stats();
        assert_eq!(snap.live_current, 0);
        // Local churn must not blow up: each thread reuses its own heap.
        assert!(
            snap.held_peak <= 8 * 2 * BASELINE_CHUNK as u64,
            "local churn grew: {}",
            snap.held_peak
        );
    }
}
