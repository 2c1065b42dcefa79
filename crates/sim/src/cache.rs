//! A lossy cache-line directory modelling coherence traffic.
//!
//! The model tracks, per 64-byte line, which virtual processor last
//! *wrote* it. Touching a line whose last writer is another processor
//! costs [`Cost::CacheRemote`] (a coherence transfer); touching one's own
//! line costs [`Cost::CacheHit`]. That asymmetry is all that is needed to
//! reproduce the paper's false-sharing results: `active-false` and
//! `passive-false` hammer lines that — under a non-heap-partitioned
//! allocator — are shared between threads, so every write pays the remote
//! cost, while Hoard's per-heap superblocks keep each thread's objects on
//! private lines.
//!
//! The directory is a fixed-size, lock-free, *lossy* open hash of
//! `AtomicU64` entries (line address tag ⊕ owner id). Collisions simply
//! overwrite — acceptable for a cost model, and part of every published
//! virtual time: slot hash, tag width and size must not change.
//!
//! Everything else the model knows about a line — its dense first-touch
//! id and which processors have live blocks on it — lives in one
//! [`LineTable`] keyed by 4 KiB page, behind one lock taken once per
//! call. A call does one map lookup per page it crosses and plain array
//! indexing per line.

use crate::clock::{charge, current_proc};
use crate::cost::{self, Cost};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

#[cfg(test)]
mod reference;

/// Cache line size of the modelled machine, in bytes.
pub const LINE: usize = 64;

const DIR_BITS: usize = 16;
const DIR_SIZE: usize = 1 << DIR_BITS;

/// Granule of the line table: one map entry covers this many bytes.
const PAGE: usize = 4096;
const LINES_PER_PAGE: usize = PAGE / LINE;

/// "No dense id assigned" (ids count up from 0 and are never reused).
const NO_ID: u64 = u64::MAX;

/// The cache-line directory. One process-global instance is used by
/// [`crate::touch`]; independent instances can be made for unit tests.
pub struct CacheModel {
    /// Each slot packs `(line_tag << 16) | owner_proc`, 0 = empty.
    dir: Box<[AtomicU64]>,
    /// Per-line renaming and residency, see [`LineTable`].
    ///
    /// Locked with `unwrap_or_else(|e| e.into_inner())`: a panicking
    /// workload thread must not poison the whole simulation — every
    /// update leaves the table valid at every step.
    lines: Mutex<LineTable>,
    /// When set, real line addresses are renamed to dense ids in
    /// first-touch order before directory hashing. The lossy directory's
    /// collision pattern then depends only on the *order* lines are
    /// touched — not on where the OS happened to map the memory — which
    /// is what makes sequential replay byte-deterministic across
    /// processes and ASLR (see [`CacheModel::deterministic`]).
    renaming: bool,
    remote_transfers: AtomicU64,
    local_hits: AtomicU64,
}

/// What the model records per line, grouped by page: memory grows with
/// the pages touched or registered since the last [`CacheModel::reset`]
/// (about 1 KiB each) and nothing is dropped in between.
#[derive(Default)]
struct LineTable {
    pages: HashMap<usize, Box<Page>, BuildHasherDefault<PageHasher>>,
    /// Next dense id. A monotonic counter, never a count of live
    /// entries: [`CacheModel::chunk_acquired`] forgets ids when the OS
    /// recycles an address, and a reused id would let two live lines
    /// alias one directory tag.
    next_id: u64,
}

/// The 64 lines of one 4 KiB page.
struct Page {
    /// Dense first-touch id per line ([`NO_ID`] until touched, and again
    /// after `chunk_acquired`). Used in renaming mode only.
    ids: [u64; LINES_PER_PAGE],
    /// Exact residency: per line, one processor's count of *live
    /// registered blocks* on it, held inline. A line with live blocks of
    /// two or more processors is **shared**, and every write to it pays
    /// the remote cost — this is how allocator-induced false sharing
    /// becomes visible even on a single-core host, where real thread
    /// interleaving is too coarse for the last-writer model alone.
    /// Workloads register blocks on allocation (see
    /// [`CacheModel::register_block`]).
    first: [Resident; LINES_PER_PAGE],
    /// `(line, resident)` for every further processor on a line whose
    /// inline cell is taken: empty unless the page has shared lines.
    more: Vec<(u8, Resident)>,
}

/// `blocks` live registered blocks of processor `proc` (free when 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Resident {
    proc: u32,
    blocks: u32,
}

impl Default for Page {
    fn default() -> Self {
        Page {
            ids: [NO_ID; LINES_PER_PAGE],
            first: [Resident::default(); LINES_PER_PAGE],
            more: Vec::new(),
        }
    }
}

impl Page {
    /// The line's dense id, assigned from `next_id` on first touch.
    fn dense_id(&mut self, line: usize, next_id: &mut u64) -> u64 {
        let id = &mut self.ids[line];
        if *id == NO_ID {
            *id = *next_id;
            *next_id += 1;
        }
        *id
    }

    /// Index in `more` of `proc`'s entry for the line.
    fn spilled(&self, line: usize, proc: u32) -> Option<usize> {
        self.more
            .iter()
            .position(|&(l, r)| l as usize == line && r.proc == proc)
    }

    /// Count one more live block of `proc` on the line.
    fn add(&mut self, line: usize, proc: u32) {
        let first = self.first[line];
        if first.blocks > 0 && first.proc == proc {
            self.first[line].blocks += 1;
        } else if let Some(i) = self.spilled(line, proc) {
            self.more[i].1.blocks += 1;
        } else if first.blocks == 0 {
            self.first[line] = Resident { proc, blocks: 1 };
        } else {
            self.more.push((line as u8, Resident { proc, blocks: 1 }));
        }
    }

    /// Drop one block of `proc` from the line; a processor with none
    /// there is ignored.
    fn remove(&mut self, line: usize, proc: u32) {
        let first = self.first[line];
        if first.blocks > 0 && first.proc == proc {
            self.first[line].blocks -= 1;
        } else if let Some(i) = self.spilled(line, proc) {
            self.more[i].1.blocks -= 1;
            if self.more[i].1.blocks == 0 {
                self.more.swap_remove(i);
            }
        }
    }

    /// Whether a processor other than `proc` has a live block on the line.
    fn shared_beyond(&self, line: usize, proc: u32) -> bool {
        let first = self.first[line];
        (first.blocks > 0 && first.proc != proc)
            || self
                .more
                .iter()
                .any(|&(l, r)| l as usize == line && r.proc != proc)
    }
}

/// Page numbers come from the allocator under test, never from outside
/// the program, and are near-sequential: one multiply spreads them, and
/// folding the high half down feeds the map's low-bit bucket index.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(b as usize);
        }
    }

    fn write_usize(&mut self, n: usize) {
        let h = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Split the lines overlapping `ptr..ptr + len` into per-page runs:
/// `(page number, line indices within the page)`.
fn pages_of(ptr: *mut u8, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut line = ptr as usize / LINE;
    // An empty range covers no line, even one that starts mid-line.
    let end = if len == 0 {
        line
    } else {
        (ptr as usize + len).div_ceil(LINE)
    };
    std::iter::from_fn(move || {
        if line >= end {
            return None;
        }
        let page = line / LINES_PER_PAGE;
        let stop = end.min((page + 1) * LINES_PER_PAGE);
        let run = line % LINES_PER_PAGE..stop - page * LINES_PER_PAGE;
        line = stop;
        Some((page, run))
    })
}

impl std::fmt::Debug for CacheModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheModel")
            .field("slots", &self.dir.len())
            .field("remote_transfers", &self.remote_transfers())
            .field("local_hits", &self.local_hits())
            .finish()
    }
}

impl CacheModel {
    /// Create a directory with the default number of slots.
    pub fn new() -> Self {
        let dir: Vec<AtomicU64> = (0..DIR_SIZE).map(|_| AtomicU64::new(0)).collect();
        CacheModel {
            dir: dir.into_boxed_slice(),
            lines: Mutex::new(LineTable::default()),
            renaming: false,
            remote_transfers: AtomicU64::new(0),
            local_hits: AtomicU64::new(0),
        }
    }

    /// Create a directory whose hash-collision behavior is independent
    /// of real memory placement: line addresses are renamed to dense
    /// ids in first-touch order before hashing. With a deterministic
    /// touch order (one thread driving the simulation, as under
    /// [`crate::sequential_scope`]), every cost this model charges is a
    /// pure function of the workload — ASLR cannot perturb it.
    pub fn deterministic() -> Self {
        CacheModel {
            renaming: true,
            ..Self::new()
        }
    }

    fn lines(&self) -> MutexGuard<'_, LineTable> {
        self.lines.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Note that `ptr..ptr+len` was just handed out by the operating
    /// system: drop any dense-id renamings for its lines, so a recycled
    /// address is indistinguishable from a brand-new mapping (cold
    /// lines, fresh ids). Without this, *whether* the host allocator
    /// reuses an address decides whether the chunk's lines inherit warm
    /// directory ownership — host-dependent state that breaks replay
    /// determinism. Residency is left alone. No-op outside deterministic
    /// mode, where the directory is keyed on real addresses and
    /// staleness is ordinary lossy-collision noise.
    pub fn chunk_acquired(&self, ptr: *mut u8, len: usize) {
        if !self.renaming {
            return;
        }
        let mut table = self.lines();
        for (page, run) in pages_of(ptr, len) {
            if let Some(page) = table.pages.get_mut(&page) {
                page.ids[run].fill(NO_ID);
            }
        }
    }

    /// Record that the calling processor now owns a live block at
    /// `ptr..ptr+len`; its cache lines become (co-)resident.
    pub fn register_block(&self, ptr: *mut u8, len: usize) {
        let me = current_proc() as u32;
        let mut table = self.lines();
        for (page, run) in pages_of(ptr, len) {
            let page = table.pages.entry(page).or_default();
            for line in run {
                page.add(line, me);
            }
        }
    }

    /// Remove a block previously recorded with
    /// [`register_block`](Self::register_block). The *freeing* processor
    /// may differ from the registering one; pass the registering
    /// processor's id as `owner_proc`.
    pub fn unregister_block(&self, ptr: *mut u8, len: usize, owner_proc: usize) {
        let mut table = self.lines();
        for (page, run) in pages_of(ptr, len) {
            if let Some(page) = table.pages.get_mut(&page) {
                for line in run {
                    page.remove(line, owner_proc as u32);
                }
            }
        }
    }

    /// Touch `len` bytes at `ptr`, charging per-line costs to the calling
    /// virtual processor and recording it as owner of written lines.
    ///
    /// When `write` is true one byte per line is actually written
    /// (volatile), so the host memory system sees the traffic too.
    pub fn touch(&self, ptr: *mut u8, len: usize, write: bool) {
        if len == 0 {
            return;
        }
        let me = current_proc();
        let mut remote = 0u64;
        let mut local = 0u64;
        let mut table = self.lines();
        let LineTable { pages, next_id } = &mut *table;
        for (number, run) in pages_of(ptr, len) {
            // Renaming gives every touched line an id, so the page must
            // exist; address-keyed mode only consults residency.
            let mut page = if self.renaming {
                Some(pages.entry(number).or_default())
            } else {
                pages.get_mut(&number)
            };
            for i in run {
                // The real line index; its address is `index * LINE`.
                let index = number * LINES_PER_PAGE + i;
                let key = match &mut page {
                    Some(page) if self.renaming => page.dense_id(i, next_id),
                    _ => index as u64,
                };
                let slot = &self.dir[Self::slot(key)];
                let tag = Self::tag(key);
                let cur = slot.load(Ordering::Relaxed);
                let owned_by_me = cur >> 16 == tag && (cur & 0xFFFF) == (me as u64 & 0xFFFF);
                // A line co-resident with another processor's live block
                // is in perpetual coherence conflict: writes always pay
                // the remote cost (allocator-induced false sharing).
                // Otherwise fall back to the last-writer migration model.
                let shared = write
                    && page
                        .as_ref()
                        .is_some_and(|page| page.shared_beyond(i, me as u32));
                if owned_by_me && !shared {
                    local += 1;
                } else {
                    remote += 1;
                }
                if write {
                    slot.store((tag << 16) | (me as u64 & 0xFFFF), Ordering::Relaxed);
                    // Real traffic: one volatile byte per line keeps the
                    // access pattern honest without dominating host
                    // runtime.
                    unsafe {
                        let p = (index * LINE).max(ptr as usize) as *mut u8;
                        std::ptr::write_volatile(p, std::ptr::read_volatile(p).wrapping_add(1));
                    }
                }
            }
        }
        drop(table);
        charge(local * cost::get(Cost::CacheHit) + remote * cost::get(Cost::CacheRemote));
        if remote > 0 {
            self.remote_transfers.fetch_add(remote, Ordering::Relaxed);
        }
        if local > 0 {
            self.local_hits.fetch_add(local, Ordering::Relaxed);
        }
    }

    /// Total remote (cross-processor) line transfers recorded.
    pub fn remote_transfers(&self) -> u64 {
        self.remote_transfers.load(Ordering::Relaxed)
    }

    /// Total owner-local line touches recorded.
    pub fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    /// Clear directory, line table and counters (between experiment runs).
    pub fn reset(&self) {
        for slot in self.dir.iter() {
            slot.store(0, Ordering::Relaxed);
        }
        *self.lines() = LineTable::default();
        self.remote_transfers.store(0, Ordering::Relaxed);
        self.local_hits.store(0, Ordering::Relaxed);
    }

    fn slot(key: u64) -> usize {
        // Fibonacci hashing of the line key (real line index, or the
        // dense first-touch id in deterministic mode).
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> (64 - DIR_BITS)) as usize
    }

    fn tag(key: u64) -> u64 {
        key & 0xFFFF_FFFF_FFFF
    }
}

impl Default for CacheModel {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global directory used by [`crate::touch`].
pub fn global() -> &'static CacheModel {
    use std::sync::OnceLock;
    static GLOBAL: OnceLock<CacheModel> = OnceLock::new();
    GLOBAL.get_or_init(CacheModel::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::now;

    fn buf() -> Box<[u8; 4 * LINE]> {
        Box::new([0u8; 4 * LINE])
    }

    #[test]
    fn first_touch_is_remote_then_local() {
        let m = CacheModel::new();
        let mut b = buf();
        let p = b.as_mut_ptr();
        m.touch(p, 8, true);
        assert_eq!(m.remote_transfers(), 1, "cold line counts as transfer");
        m.touch(p, 8, true);
        assert_eq!(m.remote_transfers(), 1);
        assert_eq!(m.local_hits(), 1);
    }

    #[test]
    fn write_from_other_proc_invalidates() {
        // Simulate the other processor by lying about ownership: write
        // from a spawned thread (different proc id), then touch here.
        let m = std::sync::Arc::new(CacheModel::new());
        let mut b = buf();
        let p = b.as_mut_ptr() as usize;
        let m2 = std::sync::Arc::clone(&m);
        std::thread::spawn(move || {
            m2.touch(p as *mut u8, 8, true);
        })
        .join()
        .unwrap();
        let before = m.remote_transfers();
        m.touch(p as *mut u8, 8, true);
        assert_eq!(m.remote_transfers(), before + 1, "line owned elsewhere");
        m.touch(p as *mut u8, 8, true);
        assert_eq!(m.remote_transfers(), before + 1, "now owned locally");
    }

    #[test]
    fn touch_spans_all_lines() {
        let m = CacheModel::new();
        let mut b = buf();
        // Touch a range crossing 3 lines starting mid-line. `Box` only
        // aligns to 1, so find the first line boundary (the spare line
        // of `buf` absorbs the skew).
        let skew = b.as_mut_ptr().align_offset(LINE);
        m.touch(unsafe { b.as_mut_ptr().add(skew + 32) }, 2 * LINE, true);
        assert_eq!(m.remote_transfers() + m.local_hits(), 3);
    }

    #[test]
    fn touch_charges_virtual_time() {
        let m = CacheModel::new();
        let mut b = buf();
        let t0 = now();
        m.touch(b.as_mut_ptr(), 8, true);
        assert!(now() > t0);
    }

    #[test]
    fn reads_do_not_take_ownership() {
        let m = std::sync::Arc::new(CacheModel::new());
        let mut b = buf();
        let p = b.as_mut_ptr() as usize;
        let m2 = std::sync::Arc::clone(&m);
        // Another proc owns the line.
        std::thread::spawn(move || m2.touch(p as *mut u8, 8, true))
            .join()
            .unwrap();
        let r0 = m.remote_transfers();
        m.touch(p as *mut u8, 8, false); // read: remote, but no ownership change
        m.touch(p as *mut u8, 8, false); // still remote
        assert_eq!(m.remote_transfers(), r0 + 2);
    }

    #[test]
    fn zero_length_touch_is_free() {
        let m = CacheModel::new();
        let t0 = now();
        m.touch(std::ptr::NonNull::<u8>::dangling().as_ptr(), 0, true);
        assert_eq!(now(), t0);
        assert_eq!(m.remote_transfers() + m.local_hits(), 0);
    }

    #[test]
    fn co_resident_lines_make_writes_remote() {
        let m = std::sync::Arc::new(CacheModel::new());
        let mut b = buf();
        let p = b.as_mut_ptr() as usize;
        // I own the line (write once)...
        m.touch(p as *mut u8, 8, true);
        m.touch(p as *mut u8, 8, true);
        let baseline_remote = m.remote_transfers();
        // ...then another processor registers a live block on it.
        let m2 = std::sync::Arc::clone(&m);
        let other = std::thread::spawn(move || {
            m2.register_block((p + 16) as *mut u8, 8);
            crate::current_proc()
        })
        .join()
        .unwrap();
        m.touch(p as *mut u8, 8, true);
        assert_eq!(
            m.remote_transfers(),
            baseline_remote + 1,
            "write to a shared line must be remote"
        );
        // Unregister (freeing proc differs from owner — allowed).
        m.unregister_block((p + 16) as *mut u8, 8, other);
        m.touch(p as *mut u8, 8, true);
        m.touch(p as *mut u8, 8, true);
        assert_eq!(
            m.remote_transfers(),
            baseline_remote + 1,
            "exclusive again after unregister"
        );
    }

    #[test]
    fn own_registered_blocks_do_not_conflict() {
        let m = CacheModel::new();
        let mut b = buf();
        let p = b.as_mut_ptr();
        m.register_block(p, 8);
        m.register_block(unsafe { p.add(16) }, 8);
        m.touch(p, 8, true);
        m.touch(p, 8, true);
        assert_eq!(m.local_hits(), 1, "self-sharing is not false sharing");
        m.unregister_block(p, 8, crate::current_proc());
        m.unregister_block(unsafe { p.add(16) }, 8, crate::current_proc());
    }

    #[test]
    fn reads_of_shared_lines_are_not_penalized_by_residency() {
        // Only writes trigger the perpetual-conflict rule; reads use the
        // last-writer model alone.
        let m = std::sync::Arc::new(CacheModel::new());
        let mut b = buf();
        let p = b.as_mut_ptr() as usize;
        m.touch(p as *mut u8, 8, true); // own it
        let m2 = std::sync::Arc::clone(&m);
        std::thread::spawn(move || m2.register_block((p + 16) as *mut u8, 8))
            .join()
            .unwrap();
        let before = m.local_hits();
        m.touch(p as *mut u8, 8, false); // read
        assert_eq!(m.local_hits(), before + 1);
    }

    #[test]
    fn reset_clears_state() {
        let m = CacheModel::new();
        let mut b = buf();
        m.touch(b.as_mut_ptr(), 8, true);
        m.reset();
        assert_eq!(m.remote_transfers(), 0);
        assert_eq!(m.local_hits(), 0);
        m.touch(b.as_mut_ptr(), 8, true);
        assert_eq!(m.remote_transfers(), 1, "directory forgot ownership");
    }

    #[test]
    fn ranges_split_at_page_boundaries() {
        let runs = |ptr: usize, len: usize| pages_of(ptr as *mut u8, len).collect::<Vec<_>>();
        assert_eq!(runs(PAGE + 70, 0), vec![], "an empty range covers no line");
        assert_eq!(runs(PAGE + 70, 1), vec![(1, 1..2)], "mid-line start");
        assert_eq!(
            runs(PAGE, LINE),
            vec![(1, 0..1)],
            "ends exactly on a line boundary"
        );
        assert_eq!(
            runs(2 * PAGE - 1, PAGE + 2),
            vec![(1, 63..64), (2, 0..64), (3, 0..1)],
            "one byte either side of a whole page"
        );
    }

    #[test]
    fn other_processors_spill_and_return_the_inline_cell() {
        let mut page = Page::default();
        page.add(5, 1);
        page.add(5, 1);
        assert!(page.more.is_empty(), "a single owner never allocates");
        page.add(5, 2);
        page.add(5, 3);
        assert_eq!(page.more.len(), 2);
        assert!(page.shared_beyond(5, 1) && page.shared_beyond(5, 2));
        // The inline owner leaves; a newcomer takes the cell over while
        // the spilled processors stay where they are.
        page.remove(5, 1);
        page.remove(5, 1);
        page.add(5, 4);
        assert_eq!(page.first[5], Resident { proc: 4, blocks: 1 });
        page.remove(5, 9); // never registered: ignored
        assert!([2, 3, 4].iter().all(|&proc| page.shared_beyond(5, proc)));
        for proc in [2, 3, 4] {
            page.remove(5, proc);
        }
        assert!(page.more.is_empty() && !page.shared_beyond(5, 0));
        assert!(!page.shared_beyond(6, 0), "neighbouring lines untouched");
    }

    /// One call into a cache model from virtual processor `proc`.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Touch { write: bool },
        Register,
        Unregister { owner: usize },
        ChunkAcquired,
        Reset,
    }

    /// The surface the line table and the PR 12 two-map model share.
    macro_rules! apply {
        ($model:expr, $proc:expr, $call:expr, $ptr:expr, $len:expr) => {{
            crate::switch_context($proc, 0);
            match $call {
                Call::Touch { write } => $model.touch($ptr, $len, write),
                Call::Register => $model.register_block($ptr, $len),
                Call::Unregister { owner } => $model.unregister_block($ptr, $len, owner),
                Call::ChunkAcquired => $model.chunk_acquired($ptr, $len),
                Call::Reset => $model.reset(),
            }
            (crate::now(), $model.remote_transfers(), $model.local_hits())
        }};
    }

    /// Drive the line table and the reference with the same seeded
    /// sequence of calls from several virtual processors and require the
    /// same virtual time charged and the same counters after every call.
    fn check_against_reference(model: CacheModel, old: reference::CacheModel, seed: u64) {
        const PROCS: usize = 5;
        const PAGES: usize = 6;
        let _model = cost::TEST_MODEL_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut arena = vec![0u8; (PAGES + 1) * PAGE];
        let base = arena.as_mut_ptr() as usize;
        let base = base + (PAGE - base % PAGE) % PAGE;
        let mut rng = crate::Rng::new(seed, 0);
        let mut below = |n: usize| rng.range(0, n - 1);
        // Live registrations: (offset, len, registering processor).
        let mut blocks: Vec<(usize, usize, usize)> = Vec::new();

        let mut seen = (false, false);
        crate::sequential_scope(PROCS, || {
            for step in 0..6_000 {
                let proc = below(PROCS);
                // Mostly object-sized ranges at any byte offset (so they
                // start mid-line), some spanning a page or more.
                let mut len = match below(8) {
                    0 => 1 + below(2 * PAGE),
                    1 => 0,
                    _ => 1 + below(3 * LINE),
                };
                let mut off = below(PAGES * PAGE - len);
                let call = match below(100) {
                    roll @ 0..=44 => Call::Touch {
                        write: roll % 3 != 0,
                    },
                    45..=64 => {
                        blocks.push((off, len, proc));
                        Call::Register
                    }
                    65..=84 if !blocks.is_empty() => {
                        // Any processor frees; the owner is whoever
                        // registered the block.
                        let i = below(blocks.len());
                        let owner;
                        (off, len, owner) = blocks.swap_remove(i);
                        Call::Unregister { owner }
                    }
                    // An owner with no block on the range.
                    65..=89 => Call::Unregister { owner: proc },
                    90..=98 => {
                        // Chunks are whole pages: the purge cuts through
                        // ranges touched earlier and may cover a page
                        // nothing ever touched.
                        off = off / PAGE * PAGE;
                        len = PAGE * (1 + below(2)).min(PAGES - off / PAGE);
                        Call::ChunkAcquired
                    }
                    _ => {
                        blocks.clear();
                        Call::Reset
                    }
                };
                let ptr = (base + off) as *mut u8;
                let got = apply!(model, proc, call, ptr, len);
                let want = apply!(old, proc, call, ptr, len);
                assert_eq!(
                    got, want,
                    "seed {seed} step {step}: {call:?} of {len} bytes at +{off} by {proc} \
                     (virtual time charged, remote transfers, local hits)"
                );
                seen = (seen.0 || got.1 > 0, seen.1 || got.2 > 0);
            }
        });
        assert_eq!(seen, (true, true), "both outcomes were exercised");
    }

    #[test]
    fn line_table_matches_reference_model() {
        for seed in [1, 2, 0xC0FFEE] {
            check_against_reference(
                CacheModel::deterministic(),
                reference::CacheModel::deterministic(),
                seed,
            );
            check_against_reference(CacheModel::new(), reference::CacheModel::new(), seed);
        }
    }
}
