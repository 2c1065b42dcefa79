//! Intrusive doubly-linked lists of superblocks.
//!
//! Heads are `AtomicPtr`s stored in the heap; links are the `next`/`prev`
//! fields of [`Superblock`]. All operations require the owning heap's
//! lock — the atomics are used only as shareable pointer-sized cells
//! (relaxed ordering; the heap lock provides the necessary
//! synchronization edges).

use crate::superblock::Superblock;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Push `sb` at the front of the list rooted at `head`.
///
/// # Safety
///
/// Caller holds the owning heap's lock; `sb` is live and unlinked.
#[inline]
pub(crate) unsafe fn push_front(head: &AtomicPtr<Superblock>, sb: *mut Superblock) {
    let old = head.load(Ordering::Relaxed);
    (*sb).next = old;
    (*sb).prev = ptr::null_mut();
    if !old.is_null() {
        (*old).prev = sb;
    }
    head.store(sb, Ordering::Relaxed);
}

/// Unlink `sb` from the list rooted at `head`.
///
/// # Safety
///
/// Caller holds the owning heap's lock; `sb` is linked in exactly this
/// list.
#[inline]
pub(crate) unsafe fn remove(head: &AtomicPtr<Superblock>, sb: *mut Superblock) {
    let prev = (*sb).prev;
    let next = (*sb).next;
    if prev.is_null() {
        debug_assert_eq!(head.load(Ordering::Relaxed), sb, "sb not in this list");
        head.store(next, Ordering::Relaxed);
    } else {
        (*prev).next = next;
    }
    if !next.is_null() {
        (*next).prev = prev;
    }
    (*sb).next = ptr::null_mut();
    (*sb).prev = ptr::null_mut();
}

/// Pop the front superblock, or null when empty.
///
/// # Safety
///
/// Caller holds the owning heap's lock.
#[inline]
pub(crate) unsafe fn pop_front(head: &AtomicPtr<Superblock>) -> *mut Superblock {
    let sb = head.load(Ordering::Relaxed);
    if !sb.is_null() {
        remove(head, sb);
    }
    sb
}

/// Count the list's elements (debug/validation only; O(n)).
///
/// # Safety
///
/// Caller holds the owning heap's lock.
#[cfg_attr(not(test), allow(dead_code))] // test & validation helper
pub(crate) unsafe fn len(head: &AtomicPtr<Superblock>) -> usize {
    let mut n = 0;
    let mut cur = head.load(Ordering::Relaxed);
    while !cur.is_null() {
        n += 1;
        cur = (*cur).next;
    }
    n
}

/// Iterate the list calling `f` on each element; stops early when `f`
/// returns `true` and returns that element (or null).
///
/// # Safety
///
/// Caller holds the owning heap's lock; `f` must not unlink elements.
#[cfg_attr(not(test), allow(dead_code))] // test & validation helper
pub(crate) unsafe fn find(
    head: &AtomicPtr<Superblock>,
    mut f: impl FnMut(*mut Superblock) -> bool,
) -> *mut Superblock {
    let mut cur = head.load(Ordering::Relaxed);
    while !cur.is_null() {
        if f(cur) {
            return cur;
        }
        cur = (*cur).next;
    }
    ptr::null_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::Layout;

    const S: usize = 4096;

    fn make_sb(class: u32) -> (*mut Superblock, Layout) {
        let layout = Layout::from_size_align(S, 4096).unwrap();
        unsafe {
            let p = std::alloc::alloc(layout);
            assert!(!p.is_null());
            (Superblock::init(p, S, class, 8, 1, 0), layout)
        }
    }

    fn free_sb(sb: *mut Superblock, layout: Layout) {
        unsafe { std::alloc::dealloc(sb as *mut u8, layout) };
    }

    #[test]
    fn push_pop_is_lifo() {
        let head = AtomicPtr::new(ptr::null_mut());
        let (a, la) = make_sb(0);
        let (b, lb) = make_sb(1);
        unsafe {
            push_front(&head, a);
            push_front(&head, b);
            assert_eq!(len(&head), 2);
            assert_eq!(pop_front(&head), b);
            assert_eq!(pop_front(&head), a);
            assert!(pop_front(&head).is_null());
            assert_eq!(len(&head), 0);
        }
        free_sb(a, la);
        free_sb(b, lb);
    }

    #[test]
    fn remove_from_middle_front_back() {
        let head = AtomicPtr::new(ptr::null_mut());
        let sbs: Vec<_> = (0..3).map(make_sb).collect();
        unsafe {
            for (sb, _) in &sbs {
                push_front(&head, *sb);
            }
            // List order: 2, 1, 0. Remove middle (1).
            remove(&head, sbs[1].0);
            assert_eq!(len(&head), 2);
            assert_eq!(head.load(Ordering::Relaxed), sbs[2].0);
            assert_eq!((*sbs[2].0).next, sbs[0].0);
            assert_eq!((*sbs[0].0).prev, sbs[2].0);
            // Remove front (2).
            remove(&head, sbs[2].0);
            assert_eq!(head.load(Ordering::Relaxed), sbs[0].0);
            assert!((*sbs[0].0).prev.is_null());
            // Remove last (0).
            remove(&head, sbs[0].0);
            assert!(head.load(Ordering::Relaxed).is_null());
        }
        for (sb, l) in sbs {
            free_sb(sb, l);
        }
    }

    #[test]
    fn find_matches_predicate() {
        let head = AtomicPtr::new(ptr::null_mut());
        let sbs: Vec<_> = (0..4).map(make_sb).collect();
        unsafe {
            for (sb, _) in &sbs {
                push_front(&head, *sb);
            }
            let hit = find(&head, |sb| (*sb).class == 2);
            assert_eq!(hit, sbs[2].0);
            let miss = find(&head, |sb| (*sb).class == 99);
            assert!(miss.is_null());
        }
        for (sb, l) in sbs {
            free_sb(sb, l);
        }
    }
}
