//! The cache model as it stood before the page-structured line table:
//! one `HashMap` renaming line addresses to dense ids, one `HashMap` of
//! per-line residency counts, each behind its own lock and probed once
//! per line. Kept verbatim as the reference the line table is checked
//! against step by step (`tests::line_table_matches_reference_model`);
//! it is compiled for tests only.

use super::{DIR_BITS, DIR_SIZE, LINE};
use crate::clock::{charge, current_proc};
use crate::cost::{self, Cost};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The cache-line directory as of PR 12.
pub struct CacheModel {
    /// Each slot packs `(line_tag << 16) | owner_proc`, 0 = empty.
    dir: Box<[AtomicU64]>,
    /// Exact residency directory: line address → per-processor counts of
    /// *live registered blocks* touching the line. A line with live
    /// blocks of two or more processors is **shared**, and every write
    /// to it pays the remote cost — this is how allocator-induced false
    /// sharing becomes visible even on a single-core host, where real
    /// thread interleaving is too coarse for the last-writer model
    /// alone. Workloads register blocks on allocation (see
    /// [`register_block`](Self::register_block)).
    ///
    /// Locked with `unwrap_or_else(|e| e.into_inner())`: a panicking
    /// workload thread must not poison the whole simulation — the map
    /// is a monotonic residency record, valid even mid-update.
    residency: Mutex<HashMap<usize, ProcCounts>>,
    /// When present, real line addresses are renamed to dense ids in
    /// first-touch order before directory hashing. The lossy directory's
    /// collision pattern then depends only on the *order* lines are
    /// touched — not on where the OS happened to map the memory — which
    /// is what makes sequential replay byte-deterministic across
    /// processes and ASLR (see [`CacheModel::deterministic`]).
    renaming: Option<Mutex<Renaming>>,
    remote_transfers: AtomicU64,
    local_hits: AtomicU64,
}

/// Address → dense-id renaming state for deterministic mode. Ids come
/// from a monotonic counter (never `map.len()`): [`chunk_acquired`]
/// removes entries when the OS recycles an address, and a reused id
/// would let two live lines alias one directory tag.
///
/// [`chunk_acquired`]: CacheModel::chunk_acquired
#[derive(Debug, Default)]
struct Renaming {
    map: HashMap<usize, u64>,
    next: u64,
}

/// Per-line counts of live blocks per processor (small inline map).
#[derive(Debug, Default, Clone)]
struct ProcCounts {
    entries: Vec<(usize, u32)>, // (proc, live blocks)
}

impl ProcCounts {
    fn add(&mut self, proc_id: usize) {
        for (p, n) in &mut self.entries {
            if *p == proc_id {
                *n += 1;
                return;
            }
        }
        self.entries.push((proc_id, 1));
    }

    /// Returns true when the line became completely unoccupied.
    fn remove(&mut self, proc_id: usize) -> bool {
        if let Some(i) = self.entries.iter().position(|(p, _)| *p == proc_id) {
            self.entries[i].1 -= 1;
            if self.entries[i].1 == 0 {
                self.entries.swap_remove(i);
            }
        }
        self.entries.is_empty()
    }

    fn shared_beyond(&self, proc_id: usize) -> bool {
        self.entries.iter().any(|(p, n)| *p != proc_id && *n > 0)
    }
}

impl CacheModel {
    /// Create a directory with the default number of slots.
    pub fn new() -> Self {
        let dir: Vec<AtomicU64> = (0..DIR_SIZE).map(|_| AtomicU64::new(0)).collect();
        CacheModel {
            dir: dir.into_boxed_slice(),
            residency: Mutex::new(HashMap::new()),
            renaming: None,
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
            renaming: Some(Mutex::new(Renaming::default())),
            ..Self::new()
        }
    }

    /// The directory index key for `line_addr`: the dense first-touch
    /// id in deterministic mode, the real line index otherwise.
    fn line_key(&self, line_addr: usize) -> u64 {
        match &self.renaming {
            Some(renaming) => {
                let mut r = renaming.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(&id) = r.map.get(&line_addr) {
                    return id;
                }
                let id = r.next;
                r.next += 1;
                r.map.insert(line_addr, id);
                id
            }
            None => (line_addr / LINE) as u64,
        }
    }

    /// Note that `ptr..ptr+len` was just handed out by the operating
    /// system: drop any dense-id renamings for its lines, so a recycled
    /// address is indistinguishable from a brand-new mapping (cold
    /// lines, fresh ids). Without this, *whether* the host allocator
    /// reuses an address decides whether the chunk's lines inherit warm
    /// directory ownership — host-dependent state that breaks replay
    /// determinism. No-op outside deterministic mode, where the
    /// directory is keyed on real addresses and staleness is ordinary
    /// lossy-collision noise.
    pub fn chunk_acquired(&self, ptr: *mut u8, len: usize) {
        let Some(renaming) = &self.renaming else {
            return;
        };
        if len == 0 {
            return;
        }
        let mut r = renaming.lock().unwrap_or_else(|e| e.into_inner());
        let mut line = ptr as usize & !(LINE - 1);
        let end = ptr as usize + len;
        while line < end {
            r.map.remove(&line);
            line += LINE;
        }
    }

    /// Record that the calling processor now owns a live block at
    /// `ptr..ptr+len`; its cache lines become (co-)resident.
    pub fn register_block(&self, ptr: *mut u8, len: usize) {
        if len == 0 {
            return;
        }
        let me = current_proc();
        let mut map = self.residency.lock().unwrap_or_else(|e| e.into_inner());
        let mut line = ptr as usize & !(LINE - 1);
        let end = ptr as usize + len;
        while line < end {
            map.entry(line).or_default().add(me);
            line += LINE;
        }
    }

    /// Remove a block previously recorded with
    /// [`register_block`](Self::register_block). The *freeing* processor
    /// may differ from the registering one; pass the registering
    /// processor's id as `owner_proc`.
    pub fn unregister_block(&self, ptr: *mut u8, len: usize, owner_proc: usize) {
        if len == 0 {
            return;
        }
        let mut map = self.residency.lock().unwrap_or_else(|e| e.into_inner());
        let mut line = ptr as usize & !(LINE - 1);
        let end = ptr as usize + len;
        while line < end {
            if let Some(counts) = map.get_mut(&line) {
                if counts.remove(owner_proc) {
                    map.remove(&line);
                }
            }
            line += LINE;
        }
    }

    fn line_is_shared(&self, line: usize, me: usize) -> bool {
        let map = self.residency.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&line).is_some_and(|c| c.shared_beyond(me))
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
        let me = current_proc() as u64;
        let start = ptr as usize & !(LINE - 1);
        let end = ptr as usize + len;
        let mut line = start;
        let mut cost_units = 0u64;
        let mut remote = 0u64;
        let mut local = 0u64;
        while line < end {
            let key = self.line_key(line);
            let slot = &self.dir[Self::slot(key)];
            let tag = Self::tag(key);
            let cur = slot.load(Ordering::Relaxed);
            let owned_by_me = cur >> 16 == tag && (cur & 0xFFFF) == (me & 0xFFFF);
            // A line co-resident with another processor's live block is
            // in perpetual coherence conflict: writes always pay the
            // remote cost (allocator-induced false sharing). Otherwise
            // fall back to the last-writer migration model.
            let shared = write && self.line_is_shared(line, me as usize);
            if owned_by_me && !shared {
                cost_units += cost::get(Cost::CacheHit);
                local += 1;
            } else {
                cost_units += cost::get(Cost::CacheRemote);
                remote += 1;
            }
            if write {
                slot.store((tag << 16) | (me & 0xFFFF), Ordering::Relaxed);
                // Real traffic: one volatile byte per line keeps the
                // access pattern honest without dominating host runtime.
                unsafe {
                    let p = line.max(ptr as usize) as *mut u8;
                    std::ptr::write_volatile(p, std::ptr::read_volatile(p).wrapping_add(1));
                }
            }
            line += LINE;
        }
        charge(cost_units);
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

    /// Clear directory, residency and counters (between experiment runs).
    pub fn reset(&self) {
        for slot in self.dir.iter() {
            slot.store(0, Ordering::Relaxed);
        }
        self.residency
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        if let Some(renaming) = &self.renaming {
            let mut r = renaming.lock().unwrap_or_else(|e| e.into_inner());
            r.map.clear();
            r.next = 0;
        }
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
