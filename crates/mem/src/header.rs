//! Block headers — how a pointer finds its way home on `free`.
//!
//! Every block any allocator in this workspace hands out is preceded by
//! one machine word (the *header*), so `deallocate(ptr)` can recover
//! everything it needs from `ptr` alone, exactly like C `free`. The low
//! three bits of the word are a [`Tag`] discriminating the block kind;
//! the upper bits carry a pointer or small payload. (Superblock and heap
//! structures are ≥ 8-aligned, so their low bits are free for tagging.)

use crate::util::MIN_ALIGN;

/// Size in bytes of the per-block header word.
pub const HEADER_SIZE: usize = std::mem::size_of::<usize>();

const TAG_MASK: usize = 0b111;

/// Block kind stored in a header's low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Upper bits: address of the owning superblock header (Hoard).
    Superblock = 0,
    /// Upper bits: address of a large-object header.
    Large = 1,
    /// Upper bits: allocator-specific payload (baselines store the size
    /// class and owning-heap index here).
    Baseline = 2,
    /// Upper bits: byte offset back to the block's *real* header, used
    /// for over-aligned `GlobalAlloc` requests.
    Offset = 3,
    /// Upper bits: address of the superblock that freed the block. A
    /// hardened allocator rewrites a block's header with this tag on
    /// `free` (and back to [`Tag::Superblock`] on reuse), so a second
    /// `free` of the same pointer is detected in O(1).
    Freed = 4,
}

impl Tag {
    /// Decode a tag, or `None` for bit patterns no allocator emits.
    /// Hardened deallocation paths use this to classify wild pointers
    /// without panicking.
    #[inline]
    pub fn try_from_bits(bits: usize) -> Option<Tag> {
        match bits {
            0 => Some(Tag::Superblock),
            1 => Some(Tag::Large),
            2 => Some(Tag::Baseline),
            3 => Some(Tag::Offset),
            4 => Some(Tag::Freed),
            _ => None,
        }
    }

    #[inline]
    fn from_bits(bits: usize) -> Tag {
        Tag::try_from_bits(bits).expect("unassigned header tag bits")
    }
}

/// A decoded header word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderWord {
    /// Block kind.
    pub tag: Tag,
    /// Tag-specific payload (pointer address or small integer). Always a
    /// multiple of 8 for pointer payloads.
    pub value: usize,
}

impl HeaderWord {
    /// Encode a header word.
    ///
    /// # Panics
    ///
    /// Panics if `value` has any of its low three bits set (pointer
    /// payloads must be 8-aligned; integer payloads must be pre-shifted
    /// by the caller via [`HeaderWord::from_int`]).
    #[inline]
    pub fn new(tag: Tag, value: usize) -> Self {
        assert_eq!(value & TAG_MASK, 0, "header payload must be 8-aligned");
        HeaderWord { tag, value }
    }

    /// Encode an integer payload (shifted into the upper bits).
    #[inline]
    pub fn from_int(tag: Tag, int: usize) -> Self {
        HeaderWord {
            tag,
            value: int << 3,
        }
    }

    /// Decode an integer payload written by [`HeaderWord::from_int`].
    #[inline]
    pub fn to_int(self) -> usize {
        self.value >> 3
    }

    #[inline]
    fn encode(self) -> usize {
        self.value | self.tag as usize
    }

    #[inline]
    fn decode(word: usize) -> Self {
        HeaderWord {
            tag: Tag::from_bits(word & TAG_MASK),
            value: word & !TAG_MASK,
        }
    }
}

/// Write the header for the block whose payload begins at `payload`.
///
/// # Safety
///
/// The `HEADER_SIZE` bytes immediately before `payload` must be valid for
/// writes and reserved for the header; `payload` must be 8-aligned.
#[inline]
pub unsafe fn write_header(payload: *mut u8, word: HeaderWord) {
    debug_assert_eq!(payload as usize % MIN_ALIGN, 0);
    let slot = payload.sub(HEADER_SIZE) as *mut usize;
    slot.write(word.encode());
}

/// Read the header of the block whose payload begins at `payload`.
///
/// # Safety
///
/// `payload` must point at a live block previously prepared with
/// [`write_header`].
#[inline]
pub unsafe fn read_header(payload: *mut u8) -> HeaderWord {
    debug_assert_eq!(payload as usize % MIN_ALIGN, 0);
    let slot = payload.sub(HEADER_SIZE) as *mut usize;
    HeaderWord::decode(slot.read())
}

/// Read a header without trusting its contents: returns `None` when the
/// tag bits do not decode to any [`Tag`]. Hardened deallocation uses
/// this so a wild pointer produces a report instead of a panic.
///
/// # Safety
///
/// The `HEADER_SIZE` bytes before `payload` must be readable; `payload`
/// must be 8-aligned.
#[inline]
pub unsafe fn try_read_header(payload: *mut u8) -> Option<HeaderWord> {
    debug_assert_eq!(payload as usize % MIN_ALIGN, 0);
    let slot = payload.sub(HEADER_SIZE) as *mut usize;
    let word = slot.read();
    Tag::try_from_bits(word & TAG_MASK).map(|tag| HeaderWord {
        tag,
        value: word & !TAG_MASK,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pointer_payload() {
        let mut buf = [0u8; 64];
        let payload = unsafe { buf.as_mut_ptr().add(16) };
        let payload = crate::align_up(payload as usize, 8) as *mut u8;
        let fake_superblock = 0xDEAD_BEE0usize; // 8-aligned
        unsafe {
            write_header(payload, HeaderWord::new(Tag::Superblock, fake_superblock));
            let h = read_header(payload);
            assert_eq!(h.tag, Tag::Superblock);
            assert_eq!(h.value, fake_superblock);
        }
    }

    #[test]
    fn roundtrip_every_tag() {
        let mut buf = [0u8; 64];
        let payload = crate::align_up(buf.as_mut_ptr() as usize + 8, 8) as *mut u8;
        for tag in [Tag::Superblock, Tag::Large, Tag::Baseline, Tag::Offset, Tag::Freed] {
            unsafe {
                write_header(payload, HeaderWord::new(tag, 0x1000));
                assert_eq!(read_header(payload).tag, tag);
            }
        }
    }

    #[test]
    fn try_read_header_rejects_unassigned_tags() {
        let mut buf = [0u8; 64];
        let payload = crate::align_up(buf.as_mut_ptr() as usize + 8, 8) as *mut u8;
        unsafe {
            write_header(payload, HeaderWord::new(Tag::Freed, 0x2000));
            let h = try_read_header(payload).expect("freed tag decodes");
            assert_eq!(h.tag, Tag::Freed);
            assert_eq!(h.value, 0x2000);
            // Raw garbage in the tag bits must not decode.
            let slot = payload.sub(HEADER_SIZE) as *mut usize;
            for bits in 5..8usize {
                slot.write(0x3000 | bits);
                assert_eq!(try_read_header(payload), None, "tag bits {bits}");
            }
        }
    }

    #[test]
    fn int_payload_roundtrip() {
        let w = HeaderWord::from_int(Tag::Baseline, 12345);
        assert_eq!(w.to_int(), 12345);
        assert_eq!(w.tag, Tag::Baseline);
    }

    #[test]
    #[should_panic(expected = "8-aligned")]
    fn unaligned_pointer_payload_rejected() {
        let _ = HeaderWord::new(Tag::Superblock, 0x1001);
    }

    #[test]
    fn header_is_one_word() {
        assert_eq!(HEADER_SIZE, std::mem::size_of::<usize>());
    }
}
