//! Large objects (requests above `S/2`).
//!
//! The paper routes requests larger than half a superblock straight to
//! the operating system — they are rare, page-granular, and would waste
//! most of a superblock. Each large object gets its own chunk: a small
//! `LargeHeader` at the chunk start, the payload at a fixed offset,
//! and the standard per-block header word tagged [`Tag::Large`]
//! immediately before the payload so `free` can dispatch without knowing
//! the size.
//!
//! [`alloc_large`] and [`free_large`] are that path, one OS round trip
//! per call. [`LargePool`] sits in front of them for an allocator that
//! would rather keep a freed chunk than unmap it: chunks of up to
//! [`POOL_PAGES`] pages are parked by exact page count and handed to the
//! next request of that count, and the pool never holds more than the
//! program itself has had out at once (`live + parked ≤ peak`).

use crate::{align_up, write_header, ChunkSource, HeaderWord, Tag, HEADER_SIZE};
use hoard_sim::{charge_cost, single_writer_add, single_writer_sub, Cost, VLock};
use std::alloc::Layout;
use std::ptr::{null_mut, NonNull};
use std::sync::atomic::{
    AtomicPtr, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

/// Alignment of large-object chunks (page-like).
const CHUNK_ALIGN: usize = 4096;

/// Payload offset within the chunk: room for [`LargeHeader`] plus the
/// tag word, rounded to a cache line.
const PREFIX: usize = 64;

const LARGE_MAGIC: u64 = 0x1A26_E0B1_1A26_E0B1;

/// Magic of a chunk parked in a [`LargePool`]: a second `free` of its
/// pointer fails [`free_large`]'s check like any corrupt header.
const PARKED_MAGIC: u64 = 0x9A2C_ED00_9A2C_ED00;

/// Largest chunk a [`LargePool`] parks, in pages (256 KiB); a larger
/// one goes back to the source when freed.
pub const POOL_PAGES: usize = 64;

/// Header at the start of every large-object chunk.
#[repr(C)]
struct LargeHeader {
    magic: u64,
    /// Requested payload size in bytes.
    size: usize,
    /// Total chunk size (for the free's layout).
    chunk_size: usize,
    /// Next parked chunk of the same page count (parked chunks only).
    next: *mut LargeHeader,
}

const _: () = assert!(std::mem::size_of::<LargeHeader>() + HEADER_SIZE <= PREFIX);

/// Chunk bytes behind a large object of `size` payload bytes.
fn chunk_size_for(size: usize) -> usize {
    align_up(PREFIX + size, CHUNK_ALIGN)
}

/// Write the chunk and block headers of a large object into `chunk`
/// and return its payload.
///
/// # Safety
///
/// `chunk` must be valid for writes of [`PREFIX`] bytes.
unsafe fn format_chunk(chunk: *mut u8, size: usize, chunk_size: usize) -> NonNull<u8> {
    (chunk as *mut LargeHeader).write(LargeHeader {
        magic: LARGE_MAGIC,
        size,
        chunk_size,
        next: null_mut(),
    });
    let payload = chunk.add(PREFIX);
    write_header(payload, HeaderWord::new(Tag::Large, chunk as usize));
    NonNull::new_unchecked(payload)
}

/// Allocate a large object of `size` bytes from `source`.
///
/// # Safety
///
/// `size` must be nonzero.
pub unsafe fn alloc_large<S: ChunkSource>(source: &S, size: usize) -> Option<NonNull<u8>> {
    let chunk_size = chunk_size_for(size);
    let layout = Layout::from_size_align(chunk_size, CHUNK_ALIGN).expect("large layout");
    let chunk = source.alloc_chunk(layout)?;
    Some(format_chunk(chunk.as_ptr(), size, chunk_size))
}

/// Free a large object; returns its payload size (for accounting), or
/// `None` — without touching the chunk — when the header's magic does
/// not verify. The magic check is always on (not a `debug_assert`): a
/// corrupt or forged header would otherwise feed an attacker-controlled
/// `Layout` straight into `free_chunk`. Callers route `None` into their
/// corruption-reporting path.
///
/// # Safety
///
/// `chunk_addr` must be the [`Tag::Large`] header value of a live large
/// object previously produced by [`alloc_large`] on the same `source`,
/// or at minimum point at `size_of::<LargeHeader>()` readable bytes.
pub unsafe fn free_large<S: ChunkSource>(source: &S, chunk_addr: usize) -> Option<usize> {
    let hdr = chunk_addr as *mut LargeHeader;
    if (*hdr).magic != LARGE_MAGIC {
        return None;
    }
    let size = (*hdr).size;
    let chunk_size = (*hdr).chunk_size;
    let layout = Layout::from_size_align(chunk_size, CHUNK_ALIGN).expect("large layout");
    source.free_chunk(NonNull::new_unchecked(chunk_addr as *mut u8), layout);
    Some(size)
}

/// Payload size of a live large object.
///
/// # Safety
///
/// As for [`free_large`], but the object stays live.
pub unsafe fn large_size(chunk_addr: usize) -> usize {
    let hdr = chunk_addr as *mut LargeHeader;
    debug_assert_eq!((*hdr).magic, LARGE_MAGIC, "corrupt large-object header");
    (*hdr).size
}

/// Parked chunks of one page count, newest first, linked through
/// [`LargeHeader::next`]. Written only under the pool's lock.
struct Bucket {
    head: AtomicPtr<LargeHeader>,
    len: AtomicU64,
}

/// A size-bucketed pool of freed large chunks in front of a
/// [`ChunkSource`].
///
/// Four byte counts, all in chunk bytes: `live` (out with the program:
/// granted by the source or popped from a bucket), `parked` (held in
/// the buckets), `peak` (the high-water mark of `live`) and `pending`
/// (misses the source has been asked for and has not yet answered).
/// `parked` moves only under the lock; the other three are
/// read-modify-writes, because a grant, a refusal and the free of a
/// chunk too big to park move them outside it.
///
/// Every unlock leaves **`live + pending + parked ≤ peak`, or nothing
/// parked**. A hit un-parks a chunk (the sum is unchanged). A free
/// parks its chunk if the sum — which parking does not change — fits,
/// as it always does unless a miss is in flight, and returns it to the
/// source otherwise. A miss adds its bytes to `pending` and first
/// returns parked chunks to the source, largest first, until the sum
/// fits or no chunk is left. A grant moves the bytes from `pending` to
/// `live` and raises `peak` to the new `live`; a refusal drops them
/// from `pending` and leaves no trace — a refused request was never
/// the program's. `live ≤ peak` by construction (but for the instant
/// between a grant's two instructions), so either way
/// **`live + parked ≤ peak`**: the large path holds from the OS at most
/// what the program itself has had live at once.
///
/// A hit and a park each charge [`Cost::SuperblockTransfer`] (a chunk
/// changing hands through a shared structure) once the lock is
/// released — the critical section is the list splice, which the
/// lock's own costs price — and a miss pays the source's costs, also
/// outside it. A recycled chunk is *not* declared cold: its lines keep
/// their last writer, like any memory that migrates between
/// processors.
pub struct LargePool {
    lock: VLock,
    /// `buckets[n - 1]` parks the chunks of exactly `n` pages.
    buckets: [Bucket; POOL_PAGES],
    live: AtomicU64,
    pending: AtomicU64,
    parked: AtomicU64,
    peak: AtomicU64,
    /// Chunk bytes of the lists [`pop`](Self::pop) gave up on: in no
    /// other count, and still held from the source.
    abandoned: AtomicU64,
}

impl LargePool {
    /// An empty pool. `const`, so it can sit in a `static` allocator.
    pub const fn new() -> Self {
        LargePool {
            lock: VLock::new(),
            buckets: [const {
                Bucket {
                    head: AtomicPtr::new(null_mut()),
                    len: AtomicU64::new(0),
                }
            }; POOL_PAGES],
            live: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
        }
    }

    /// Chunk bytes currently out with the program.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Relaxed)
    }

    /// Chunk bytes currently parked.
    pub fn parked_bytes(&self) -> u64 {
        self.parked.load(Relaxed)
    }

    /// High-water mark of [`live_bytes`](Self::live_bytes). A request
    /// the source refused never counts.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Relaxed)
    }

    /// Chunk bytes leaked with lists abandoned as corrupt: the source
    /// still holds them, the pool will never follow them.
    pub fn abandoned_bytes(&self) -> u64 {
        self.abandoned.load(Relaxed)
    }

    /// `(acquisitions, virtually contended acquisitions)` of the lock.
    pub fn lock_counts(&self) -> (u64, u64) {
        (self.lock.acquisitions(), self.lock.contentions())
    }

    /// `live + pending + parked`. A grant adds to `live` before it
    /// takes from `pending`, and `pending` is read first: a chunk being
    /// granted is counted once or twice, never missed.
    fn claimed(&self) -> u64 {
        self.pending.load(Acquire) + self.live_bytes() + self.parked_bytes()
    }

    /// Allocate a large object of `size` bytes: the newest parked chunk
    /// of its page count, else one from `source`. Returns the payload
    /// and whether it was a pool hit; `None` when `source` refuses.
    ///
    /// `on_corrupt` is called — after the lock is released, at most
    /// once — with the address of a parked header found overwritten
    /// (see [`pop`](Self::pop)).
    ///
    /// # Safety
    ///
    /// `size` must be nonzero, and `source` the one every chunk of this
    /// pool came from.
    pub unsafe fn alloc<S: ChunkSource>(
        &self,
        source: &S,
        size: usize,
        on_corrupt: impl FnOnce(usize),
    ) -> Option<(NonNull<u8>, bool)> {
        let chunk_size = chunk_size_for(size);
        let pages = chunk_size / CHUNK_ALIGN;
        let mut corrupt = None;
        let guard = self.lock.lock();
        let hit = if pages <= POOL_PAGES {
            self.pop(pages - 1, &mut corrupt)
        } else {
            null_mut()
        };
        let excess = if hit.is_null() {
            self.pending.fetch_add(chunk_size as u64, Relaxed);
            self.detach(false, &mut corrupt)
        } else {
            self.live.fetch_add(chunk_size as u64, Relaxed);
            null_mut()
        };
        drop(guard);
        if let Some(addr) = corrupt {
            on_corrupt(addr);
        }
        if !hit.is_null() {
            charge_cost(Cost::SuperblockTransfer);
            return Some((format_chunk(hit as *mut u8, size, chunk_size), true));
        }
        release_chain(source, excess);
        let p = alloc_large(source, size);
        if p.is_some() {
            let live = self.live.fetch_add(chunk_size as u64, Relaxed) + chunk_size as u64;
            self.peak.fetch_max(live, Relaxed);
        }
        self.pending.fetch_sub(chunk_size as u64, Release);
        p.map(|p| (p, false))
    }

    /// Free a large object: park its chunk, or return it to `source`
    /// when it is above [`POOL_PAGES`] (no lock taken) or would not fit
    /// under the peak. Returns the payload size and whether the chunk
    /// was parked, or `None` — the chunk untouched — when the header's
    /// magic does not verify (as [`free_large`]).
    ///
    /// # Safety
    ///
    /// As for [`free_large`], with `source` as for [`alloc`](Self::alloc).
    pub unsafe fn free<S: ChunkSource>(&self, source: &S, chunk_addr: usize) -> Option<(usize, bool)> {
        let hdr = chunk_addr as *mut LargeHeader;
        if (*hdr).magic != LARGE_MAGIC {
            return None;
        }
        let (size, chunk_size) = ((*hdr).size, (*hdr).chunk_size);
        let pages = chunk_size / CHUNK_ALIGN;
        if pages <= POOL_PAGES {
            let guard = self.lock.lock();
            if self.claimed() <= self.peak_bytes() {
                let bucket = &self.buckets[pages - 1];
                (*hdr).magic = PARKED_MAGIC;
                (*hdr).next = bucket.head.load(Relaxed);
                bucket.head.store(hdr, Relaxed);
                single_writer_add(&bucket.len, 1);
                single_writer_add(&self.parked, chunk_size as u64);
                self.live.fetch_sub(chunk_size as u64, Relaxed);
                drop(guard);
                charge_cost(Cost::SuperblockTransfer);
                return Some((size, true));
            }
        }
        self.live.fetch_sub(chunk_size as u64, Relaxed);
        free_large(source, chunk_addr).map(|size| (size, false))
    }

    /// Return every parked chunk to `source` (out-of-memory recovery,
    /// teardown); returns how many. `on_corrupt` as for
    /// [`alloc`](Self::alloc).
    ///
    /// # Safety
    ///
    /// `source` as for [`alloc`](Self::alloc).
    pub unsafe fn drain<S: ChunkSource>(&self, source: &S, on_corrupt: impl FnOnce(usize)) -> u64 {
        if self.parked_bytes() == 0 {
            return 0;
        }
        let mut corrupt = None;
        let chain = {
            let _guard = self.lock.lock();
            self.detach(true, &mut corrupt)
        };
        if let Some(addr) = corrupt {
            on_corrupt(addr);
        }
        release_chain(source, chain)
    }

    /// Pop `bucket`'s newest chunk; null when it is empty. A head whose
    /// magic is no longer [`PARKED_MAGIC`] was written through a stale
    /// pointer, so its link cannot be trusted: the bucket's whole list
    /// is abandoned (leaked, never followed, moved from `parked` to
    /// `abandoned`), `corrupt` names the header and the pop reads as
    /// empty.
    ///
    /// # Safety
    ///
    /// The lock is held.
    unsafe fn pop(&self, bucket: usize, corrupt: &mut Option<usize>) -> *mut LargeHeader {
        let b = &self.buckets[bucket];
        let hdr = b.head.load(Relaxed);
        if hdr.is_null() {
            return hdr;
        }
        let chunk_size = ((bucket + 1) * CHUNK_ALIGN) as u64;
        if (*hdr).magic != PARKED_MAGIC {
            corrupt.get_or_insert(hdr as usize);
            let lost = b.len.load(Relaxed) * chunk_size;
            single_writer_sub(&self.parked, lost);
            single_writer_add(&self.abandoned, lost);
            b.head.store(null_mut(), Relaxed);
            b.len.store(0, Relaxed);
            return null_mut();
        }
        b.head.store((*hdr).next, Relaxed);
        single_writer_sub(&b.len, 1);
        single_writer_sub(&self.parked, chunk_size);
        hdr
    }

    /// Detach parked chunks, largest bucket first — all of them, or
    /// only until `live + pending + parked ≤ peak` holds again — and
    /// return them chained through `next`, to be released outside the
    /// lock.
    ///
    /// # Safety
    ///
    /// The lock is held.
    unsafe fn detach(&self, all: bool, corrupt: &mut Option<usize>) -> *mut LargeHeader {
        let mut chain = null_mut();
        let mut bucket = POOL_PAGES;
        while bucket > 0 && (all || self.claimed() > self.peak_bytes()) {
            let hdr = self.pop(bucket - 1, corrupt);
            if hdr.is_null() {
                bucket -= 1;
            } else {
                (*hdr).next = chain;
                chain = hdr;
            }
        }
        chain
    }
}

impl Default for LargePool {
    fn default() -> Self {
        Self::new()
    }
}

/// Return a chain of detached chunks to `source`; returns how many.
///
/// # Safety
///
/// Every chunk of the chain came from `source` and is on no list.
unsafe fn release_chain<S: ChunkSource>(source: &S, mut hdr: *mut LargeHeader) -> u64 {
    let mut released = 0;
    while !hdr.is_null() {
        let next = (*hdr).next;
        // The miss path proper: a parked chunk leaves as it would have
        // left unparked.
        (*hdr).magic = LARGE_MAGIC;
        free_large(source, hdr as usize);
        released += 1;
        hdr = next;
    }
    released
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_header, FailingSource, LimitedSource, SystemSource};
    use hoard_sim::Rng;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn roundtrip_and_accounting() {
        let src = SystemSource::new();
        unsafe {
            let p = alloc_large(&src, 10_000).unwrap();
            assert_eq!(p.as_ptr() as usize % 8, 0);
            std::ptr::write_bytes(p.as_ptr(), 0xCD, 10_000);
            let h = read_header(p.as_ptr());
            assert_eq!(h.tag, Tag::Large);
            assert_eq!(large_size(h.value), 10_000);
            assert!(src.stats().held_current >= 10_000);
            let freed = free_large(&src, h.value);
            assert_eq!(freed, Some(10_000));
            assert_eq!(src.stats().held_current, 0);
        }
    }

    #[test]
    fn chunk_is_page_rounded() {
        let src = SystemSource::new();
        unsafe {
            let p = alloc_large(&src, 1).unwrap();
            assert_eq!(src.stats().held_current, 4096, "one page for a tiny large object");
            let h = read_header(p.as_ptr());
            assert!(free_large(&src, h.value).is_some());
        }
    }

    #[test]
    fn distinct_large_objects_do_not_overlap() {
        let src = SystemSource::new();
        unsafe {
            let a = alloc_large(&src, 5000).unwrap();
            let b = alloc_large(&src, 5000).unwrap();
            std::ptr::write_bytes(a.as_ptr(), 0x11, 5000);
            std::ptr::write_bytes(b.as_ptr(), 0x22, 5000);
            assert_eq!(*a.as_ptr(), 0x11);
            assert_eq!(*b.as_ptr(), 0x22);
            let ha = read_header(a.as_ptr());
            let hb = read_header(b.as_ptr());
            assert!(free_large(&src, ha.value).is_some());
            assert!(free_large(&src, hb.value).is_some());
        }
    }

    #[test]
    fn corrupt_magic_is_refused_without_freeing() {
        let src = SystemSource::new();
        unsafe {
            let p = alloc_large(&src, 3000).unwrap();
            let h = read_header(p.as_ptr());
            // Smash the magic the way a heap-overflow would.
            let hdr = h.value as *mut u64;
            let good = hdr.read();
            hdr.write(0xBAD0_BEEF);
            assert_eq!(free_large(&src, h.value), None, "corrupt header refused");
            assert!(src.stats().held_current > 0, "chunk must not be freed");
            // Restore and free for a clean exit.
            hdr.write(good);
            assert_eq!(free_large(&src, h.value), Some(3000));
            assert_eq!(src.stats().held_current, 0);
        }
    }

    fn no_corruption(addr: usize) {
        panic!("parked header at {addr:#x} reported corrupt");
    }

    /// The pool against a model of the program: random allocations
    /// (bucketed and bypassing sizes, a few recurring so hits occur) and
    /// random frees over a borrowed source with a budget it keeps
    /// running into, every rule checked after every step. A refused
    /// request is not the program's: it must leave every count, `peak`
    /// included, where the model has it.
    #[test]
    fn holds_at_most_the_programs_own_high_water_mark() {
        let (hits, bypasses, refusals) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        Rng::for_each_case(32, |rng| unsafe {
            let src = LimitedSource::new(SystemSource::new(), 1 << 20);
            let pool = LargePool::new();
            let mut out: Vec<(NonNull<u8>, usize)> = Vec::new();
            let (mut live, mut peak) = (0u64, 0u64);
            for step in 0..300 {
                if out.is_empty() || rng.range(0, 99) < 55 {
                    let size = match rng.range(0, 2) {
                        0 => [5_000, 20_000, 100_000][rng.range(0, 2)],
                        _ => rng.range(4_097, 300 * 1024),
                    };
                    let chunk_size = chunk_size_for(size);
                    let before = src.stats().chunk_allocs;
                    if let Some((p, hit)) = pool.alloc(&src, size, no_corruption) {
                        assert_eq!(hit, src.stats().chunk_allocs == before, "a hit asks the source nothing");
                        let hdr = read_header(p.as_ptr()).value as *mut LargeHeader;
                        assert_eq!(((*hdr).magic, (*hdr).size), (LARGE_MAGIC, size), "header reads the new size");
                        assert_eq!((*hdr).chunk_size, chunk_size, "exactly the requested page count");
                        std::ptr::write_bytes(p.as_ptr(), step as u8, size);
                        hits.set(hits.get() + u32::from(hit));
                        out.push((p, size));
                        live += chunk_size as u64;
                        peak = peak.max(live);
                    } else {
                        assert!(live + chunk_size as u64 > src.capacity(), "refused with room to spare");
                        refusals.set(refusals.get() + 1);
                    }
                } else {
                    let (p, size) = out.swap_remove(rng.range(0, out.len() - 1));
                    let chunk_size = chunk_size_for(size);
                    let bypass = chunk_size / CHUNK_ALIGN > POOL_PAGES;
                    let freed = pool.free(&src, read_header(p.as_ptr()).value);
                    assert_eq!(freed, Some((size, !bypass)));
                    bypasses.set(bypasses.get() + u32::from(bypass));
                    live -= chunk_size as u64;
                }
                assert_eq!((pool.live_bytes(), pool.peak_bytes()), (live, peak));
                assert!(live + pool.parked_bytes() <= peak, "live + parked <= peak");
                assert_eq!(src.stats().held_current, live + pool.parked_bytes());
            }
            pool.drain(&src, no_corruption);
            assert_eq!(pool.parked_bytes(), 0);
            assert_eq!(src.stats().held_current, live, "drain leaves only what the program has");
            for (p, _) in out {
                pool.free(&src, read_header(p.as_ptr()).value).expect("live object");
            }
            pool.drain(&src, no_corruption);
            assert_eq!(src.stats().held_current, 0);
        });
        assert!(
            hits.get() > 100 && bypasses.get() > 100 && refusals.get() > 100,
            "{hits:?} hits, {bypasses:?} bypasses, {refusals:?} refusals"
        );
    }

    /// Real threads over a source that refuses now and then: misses in
    /// flight beside parks, grants and refusals beside hits. Whatever
    /// the interleaving, the pool ends inside its bound and every byte
    /// the source holds is a parked one.
    #[test]
    fn threads_leave_the_pool_inside_its_bound() {
        const THREADS: u64 = 4;
        const SIZES: [usize; 5] = [5_000, 20_000, 20_000, 100_000, 300_000];
        let src = LimitedSource::new(SystemSource::new(), 500_000);
        let pool = LargePool::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (src, pool) = (&src, &pool);
                scope.spawn(move || unsafe {
                    let mut rng = Rng::new(t, 20);
                    // At most two objects out per thread.
                    let mut out: Vec<NonNull<u8>> = Vec::new();
                    for _ in 0..4_000 {
                        if out.len() < 2 && rng.range(0, 1) == 0 {
                            let got = pool.alloc(src, SIZES[rng.range(0, 4)], no_corruption);
                            out.extend(got.map(|(p, _)| p));
                        } else if !out.is_empty() {
                            let p = out.swap_remove(rng.range(0, out.len() - 1));
                            pool.free(src, read_header(p.as_ptr()).value).expect("live object");
                        }
                    }
                    for p in out {
                        pool.free(src, read_header(p.as_ptr()).value).expect("live object");
                    }
                });
            }
        });
        assert_eq!(pool.live_bytes(), 0);
        assert!(pool.parked_bytes() <= pool.peak_bytes(), "parked <= peak");
        assert!(pool.peak_bytes() <= THREADS * 2 * chunk_size_for(300_000) as u64);
        assert_eq!(src.stats().held_current, pool.parked_bytes());
        unsafe { pool.drain(&src, no_corruption) };
        assert_eq!(src.stats().held_current, 0);
    }

    type During<'a> = Box<dyn FnOnce(&SystemSource) + Send + 'a>;

    /// A source whose next `alloc_chunk` first runs `during`: another
    /// thread's call landing while a miss is in flight, made
    /// deterministic. `refuse` makes that one request fail afterwards.
    struct MidMiss<'a> {
        inner: SystemSource,
        during: Mutex<Option<During<'a>>>,
        refuse: bool,
    }

    unsafe impl ChunkSource for MidMiss<'_> {
        unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
            let during = self.during.lock().unwrap().take();
            match during {
                Some(during) => {
                    during(&self.inner);
                    if self.refuse { None } else { self.inner.alloc_chunk(layout) }
                }
                None => self.inner.alloc_chunk(layout),
            }
        }

        unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
            self.inner.free_chunk(ptr, layout);
        }

        fn stats(&self) -> crate::SourceStats {
            self.inner.stats()
        }
    }

    #[test]
    fn free_during_a_miss_parks_only_what_the_grant_will_leave_room_for() {
        let pool = LargePool::new();
        let (ten, five) = (10 * 4096 - PREFIX, 5 * 4096 - PREFIX);
        let mut src = MidMiss { inner: SystemSource::new(), during: Mutex::new(None), refuse: false };
        unsafe {
            let a = pool.alloc(&src, ten, no_corruption).unwrap().0;
            let a = read_header(a.as_ptr()).value;
            // Parked, `a` would sit beside the 5 pages about to be
            // granted: 15 against a peak of 10.
            let pool = &pool;
            let during = move |inner: &SystemSource| assert_eq!(pool.free(inner, a), Some((ten, false)));
            *src.during.get_mut().unwrap() = Some(Box::new(during));
            let b = pool.alloc(&src, five, no_corruption).unwrap().0;
            assert_eq!((pool.live_bytes(), pool.parked_bytes(), pool.peak_bytes()), (5 * 4096, 0, 10 * 4096));
            assert_eq!(src.stats().held_current, 5 * 4096);
            assert_eq!(pool.free(&src, read_header(b.as_ptr()).value), Some((five, true)));
            pool.drain(&src, no_corruption);
        }
        assert_eq!(src.stats().held_current, 0);
    }

    #[test]
    fn refused_miss_in_flight_inflates_nobody_elses_peak() {
        let pool = LargePool::new();
        let (twenty, ten, two) = (20 * 4096 - PREFIX, 10 * 4096 - PREFIX, 2 * 4096 - PREFIX);
        let b = AtomicUsize::new(0);
        let mut src = MidMiss { inner: SystemSource::new(), during: Mutex::new(None), refuse: true };
        unsafe {
            let (a, _) = pool.alloc(&src.inner, ten, no_corruption).unwrap();
            pool.free(&src, read_header(a.as_ptr()).value).unwrap();
            // The 20-page request releases the 10 parked pages, is
            // still unanswered when 2 pages are granted, and is refused.
            let during = |inner: &SystemSource| {
                let (p, hit) = pool.alloc(inner, two, no_corruption).unwrap();
                assert!(!hit);
                b.store(read_header(p.as_ptr()).value, Relaxed);
            };
            *src.during.get_mut().unwrap() = Some(Box::new(during));
            assert!(pool.alloc(&src, twenty, no_corruption).is_none());
            assert_eq!((pool.live_bytes(), pool.parked_bytes(), pool.peak_bytes()), (2 * 4096, 0, 10 * 4096));
            assert_eq!(pool.claimed(), 2 * 4096);
            assert_eq!(pool.free(&src, b.load(Relaxed)), Some((two, true)));
            pool.drain(&src, no_corruption);
        }
        assert_eq!(src.stats().held_current, 0);
    }

    #[test]
    fn second_free_of_a_parked_chunk_is_refused() {
        let src = SystemSource::new();
        let pool = LargePool::new();
        unsafe {
            let (p, _) = pool.alloc(&src, 10_000, no_corruption).unwrap();
            let chunk = read_header(p.as_ptr()).value;
            assert_eq!(pool.free(&src, chunk), Some((10_000, true)));
            assert_eq!(pool.free(&src, chunk), None, "parked magic fails the check");
            assert_eq!(free_large(&src, chunk), None);
            assert_eq!(src.stats().chunk_frees, 0, "the source never saw the chunk");
            assert_eq!(pool.drain(&src, no_corruption), 1);
        }
        assert_eq!(src.stats().held_current, 0);
    }

    #[test]
    fn overwritten_parked_header_abandons_its_bucket_only() {
        let src = SystemSource::new();
        let pool = LargePool::new();
        unsafe {
            let a = pool.alloc(&src, 10_000, no_corruption).unwrap().0;
            let b = pool.alloc(&src, 10_000, no_corruption).unwrap().0;
            let c = pool.alloc(&src, 30_000, no_corruption).unwrap().0;
            let chunk = |p: NonNull<u8>| read_header(p.as_ptr()).value;
            for p in [a, b, c] {
                pool.free(&src, chunk(p)).unwrap();
            }
            // A write through the stale pointer `b` reaches its header.
            (chunk(b) as *mut u64).write(0xBAD0_BEEF);
            let reported = Cell::new(0);
            let (p, hit) = pool.alloc(&src, 10_000, |addr| reported.set(addr)).unwrap();
            assert!(!hit, "fell through to the source");
            assert_eq!(reported.get(), chunk(b));
            assert_eq!(pool.parked_bytes(), chunk_size_for(30_000) as u64, "other buckets stand");
            assert_eq!(pool.abandoned_bytes(), 2 * chunk_size_for(10_000) as u64);
            assert!(pool.alloc(&src, 30_000, no_corruption).unwrap().1);
            pool.free(&src, chunk(p)).unwrap();
            pool.free(&src, chunk(c)).unwrap();
            pool.drain(&src, no_corruption);
            // The abandoned list (`a`, `b`) is leaked, not followed.
            assert_eq!(src.stats().held_current, pool.abandoned_bytes());
            for p in [a, b] {
                (chunk(p) as *mut u64).write(LARGE_MAGIC);
                free_large(&src, chunk(p)).unwrap();
            }
        }
    }

    #[test]
    fn refused_miss_leaves_no_trace_but_the_chunks_it_released() {
        let src = FailingSource::new(SystemSource::new(), 1);
        let pool = LargePool::new();
        unsafe {
            let (p, _) = pool.alloc(&src, 10_000, no_corruption).unwrap();
            pool.free(&src, read_header(p.as_ptr()).value).unwrap();
            // 13 pages asked for plus 3 parked would pass the peak of 3:
            // the parked chunk goes back before the source is asked.
            assert!(pool.alloc(&src, 50_000, no_corruption).is_none());
            assert_eq!((pool.live_bytes(), pool.parked_bytes()), (0, 0));
            assert_eq!(pool.peak_bytes(), chunk_size_for(10_000) as u64, "a refused request is not in the peak");
            assert_eq!(pool.claimed(), 0, "nor left pending");
            assert_eq!(src.stats().held_current, 0);
            // One acquisition per call; a refusal takes no second one.
            assert_eq!(pool.lock_counts(), (3, 0));
        }
    }
}
