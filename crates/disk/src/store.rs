//! Sparse in-memory byte store backing a simulated disk.
//!
//! The simulation carries *real data* end to end so that integration tests
//! can assert byte-for-byte integrity through striping, caching, and
//! prefetching. Unwritten regions read back as zeros, like a fresh disk.
//!
//! A page is one of two kinds:
//!
//! * **Resident**: real bytes, held as a [`Bytes`] view, so a read that
//!   falls inside a single page hands back a zero-copy view instead of
//!   allocating and copying a fresh buffer. A write that covers a whole
//!   page stores a view of the writer's own buffer: no byte is copied, and
//!   the bytes are materialized once, by whoever produced them. A partial
//!   write copies its piece into the page, copy-on-write: a page whose
//!   allocation is shared (with a read view, with the writer, or with the
//!   neighbouring pages of one adopted buffer) is replaced by a private
//!   copy first, so no `Bytes` ever changes underneath its holder. An
//!   adopted page keeps its whole source allocation alive until every
//!   page sharing that allocation has been overwritten.
//! * **Pattern**: a descriptor of test-pattern content, a
//!   [`PatternLayout`] plus the slot-file offset of the page's first byte.
//!   Writing a [`Content::Pattern`] that covers a whole page records only
//!   the descriptor; a read synthesizes just the requested range with the
//!   pattern kernel. A partially covered page is materialized, and a byte
//!   write into a pattern page materializes that page first.
//!
//! Every read returns real bytes whichever kind backs it, so the layers
//! above cannot tell the two apart; only the store's footprint differs.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::ops::Range;

use bytes::{Bytes, BytesMut};

use crate::pattern::PatternLayout;

/// Internal page size of the sparse store (independent of any file-system
/// block size above it). Sized to the machine's 64 KB transfer unit so the
/// common stripe-unit-aligned read is served by one shared page.
pub const STORE_PAGE: u64 = 64 * 1024;

/// The payload of a device write: real bytes, or a range of a pattern
/// file's slot content that the store can keep virtual. Slices like
/// [`Bytes`], and every `Bytes` converts into one.
#[derive(Debug, Clone)]
pub enum Content {
    /// Real bytes.
    Bytes(Bytes),
    /// Slot-file bytes `[at, at + len)` of the pattern file `layout`
    /// describes.
    Pattern {
        /// The slot of the pattern file this range belongs to.
        layout: PatternLayout,
        /// Slot-file offset of the first byte.
        at: u64,
        /// Length in bytes.
        len: usize,
    },
}

impl Content {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Content::Bytes(b) => b.len(),
            Content::Pattern { len, .. } => *len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1) sub-range. Panics if the range is out of bounds, like
    /// [`Bytes::slice`].
    pub fn slice(&self, range: Range<usize>) -> Content {
        match self {
            Content::Bytes(b) => Content::Bytes(b.slice(range)),
            Content::Pattern { layout, at, len } => {
                assert!(
                    range.start <= range.end && range.end <= *len,
                    "slice out of bounds"
                );
                Content::Pattern {
                    layout: *layout,
                    at: at + range.start as u64,
                    len: range.len(),
                }
            }
        }
    }
}

impl From<Bytes> for Content {
    fn from(b: Bytes) -> Content {
        Content::Bytes(b)
    }
}

/// One page of the store.
enum Page {
    /// Real bytes, `STORE_PAGE` long, possibly shared with read views and
    /// with the writer's buffer.
    Resident(Bytes),
    /// Pattern bytes: byte `j` is slot-file byte `at + j` of `layout`.
    Pattern { layout: PatternLayout, at: u64 },
}

/// A sparse, page-granular byte store addressed by absolute disk offset.
#[derive(Default)]
pub struct BlockStore {
    pages: BTreeMap<u64, Page>,
    /// Shared all-zero page backing single-page reads of holes.
    zero: OnceCell<Bytes>,
    /// Total bytes ever written (for capacity accounting in tests).
    bytes_written: u64,
}

/// The per-page pieces of `[offset, offset + len)`: `(page index, offset
/// in the page, offset in the range, piece length)`.
fn pieces(offset: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= len {
            return None;
        }
        let abs = offset + pos as u64;
        let in_page = (abs % STORE_PAGE) as usize;
        let chunk = ((STORE_PAGE as usize) - in_page).min(len - pos);
        let piece = (abs / STORE_PAGE, in_page, pos, chunk);
        pos += chunk;
        Some(piece)
    })
}

impl BlockStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn zero_page(&self) -> Bytes {
        self.zero
            .get_or_init(|| Bytes::from(vec![0u8; STORE_PAGE as usize]))
            .clone()
    }

    /// Read `len` bytes starting at `offset`. Holes read as zeros.
    ///
    /// A read contained in one resident page (or a hole) is zero-copy: it
    /// returns a view of the page (or of a shared zero page). A read of a
    /// pattern page synthesizes only the requested range.
    pub fn read(&self, offset: u64, len: usize) -> Bytes {
        let in_page = (offset % STORE_PAGE) as usize;
        if in_page + len <= STORE_PAGE as usize {
            let page = match self.pages.get(&(offset / STORE_PAGE)) {
                Some(Page::Resident(page)) => page.clone(),
                Some(Page::Pattern { layout, at }) => {
                    let mut out = BytesMut::zeroed(len);
                    layout.fill(at + in_page as u64, &mut out);
                    return out.freeze();
                }
                None => self.zero_page(),
            };
            return page.slice(in_page..in_page + len);
        }
        let mut out = BytesMut::zeroed(len);
        for (idx, in_page, pos, chunk) in pieces(offset, len) {
            let dst = &mut out[pos..pos + chunk];
            match self.pages.get(&idx) {
                Some(Page::Resident(page)) => {
                    dst.copy_from_slice(&page[in_page..in_page + chunk]);
                }
                Some(Page::Pattern { layout, at }) => layout.fill(at + in_page as u64, dst),
                None => {}
            }
        }
        out.freeze()
    }

    /// The bytes of page `idx`, private to the store and writable: a hole
    /// becomes a zeroed page, a pattern page is materialized, and a page
    /// whose allocation is shared is copied first.
    fn page_mut(&mut self, idx: u64) -> Option<&mut [u8]> {
        let page = self
            .pages
            .entry(idx)
            .or_insert_with(|| Page::Resident(Bytes::from(vec![0u8; STORE_PAGE as usize])));
        if let Page::Pattern { layout, at } = *page {
            let mut bytes = vec![0u8; STORE_PAGE as usize];
            layout.fill(at, &mut bytes);
            *page = Page::Resident(Bytes::from(bytes));
        }
        let Page::Resident(slot) = page else {
            return None;
        };
        if slot.get_mut().is_none() {
            // Copy-on-write: a read view, the writer or a neighbouring
            // adopted page still shares this allocation; give the store a
            // private copy before mutating.
            *slot = Bytes::copy_from_slice(slot);
        }
        slot.get_mut()
    }

    /// Write `data` starting at `offset`.
    ///
    /// Each page the write covers whole is adopted without a copy: real
    /// bytes become a view of the writer's buffer, and pattern content a
    /// pattern page. The partial pages at either end are copied in.
    pub fn write(&mut self, offset: u64, data: &Content) {
        for (idx, in_page, pos, chunk) in pieces(offset, data.len()) {
            let piece = data.slice(pos..pos + chunk);
            if chunk == STORE_PAGE as usize {
                let page = match piece {
                    Content::Bytes(b) => Page::Resident(b),
                    Content::Pattern { layout, at, .. } => Page::Pattern { layout, at },
                };
                self.pages.insert(idx, page);
            } else {
                self.write_partial(idx, in_page, &piece);
            }
        }
        self.bytes_written += data.len() as u64;
    }

    /// Copy `piece` into page `idx` from byte `in_page` on.
    fn write_partial(&mut self, idx: u64, in_page: usize, piece: &Content) {
        let Some(page) = self.page_mut(idx) else {
            return;
        };
        let dst = &mut page[in_page..in_page + piece.len()];
        match piece {
            Content::Bytes(b) => dst.copy_from_slice(b),
            Content::Pattern { layout, at, .. } => layout.fill(*at, dst),
        }
    }

    /// Number of resident (materialized) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| matches!(p, Page::Resident(_)))
            .count()
    }

    /// Number of pattern pages (held as descriptors, no bytes).
    pub fn pattern_pages(&self) -> usize {
        self.pages.len() - self.resident_pages()
    }

    /// Total bytes written over the store's lifetime.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Real-byte content holding a copy of `v`.
    fn real(v: &[u8]) -> Content {
        Content::from(Bytes::copy_from_slice(v))
    }

    #[test]
    fn holes_read_as_zeros() {
        let store = BlockStore::new();
        let data = store.read(12_345, 100);
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(data.len(), 100);
        // A hole read spanning pages also reads zero.
        let wide = store.read(STORE_PAGE - 7, 50);
        assert!(wide.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let mut store = BlockStore::new();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        // Deliberately straddle several pages at an odd offset.
        store.write(STORE_PAGE * 3 + 17, &real(&payload));
        let back = store.read(STORE_PAGE * 3 + 17, payload.len());
        assert_eq!(&back[..], &payload[..]);
        // Just before and after are still zero.
        assert_eq!(store.read(STORE_PAGE * 3 + 16, 1)[0], 0);
        assert_eq!(
            store.read(STORE_PAGE * 3 + 17 + payload.len() as u64, 1)[0],
            0
        );
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut store = BlockStore::new();
        store.write(100, &real(&[1u8; 200]));
        store.write(150, &real(&[2u8; 50]));
        let back = store.read(100, 200);
        assert!(back[..50].iter().all(|&b| b == 1));
        assert!(back[50..100].iter().all(|&b| b == 2));
        assert!(back[100..].iter().all(|&b| b == 1));
    }

    #[test]
    fn sparse_footprint_stays_small() {
        let mut store = BlockStore::new();
        store.write(0, &real(&[7u8; 1]));
        store.write(STORE_PAGE * 1000, &real(&[7u8; 1]));
        assert_eq!(store.resident_pages(), 2);
        assert_eq!(store.bytes_written(), 2);
    }

    #[test]
    fn single_page_read_shares_the_page() {
        let mut store = BlockStore::new();
        store.write(0, &real(&[9u8; 1024]));
        let a = store.read(0, 512);
        let b = store.read(256, 512);
        assert!(a.iter().all(|&x| x == 9));
        assert_eq!(&b[..256], &[9u8; 256][..]);
        // Both reads are views of the resident page, not copies of it.
        let Some(Page::Resident(page)) = store.pages.get(&0) else {
            panic!("page 0 is not resident");
        };
        assert_eq!(a.as_ptr(), page.as_ptr());
        assert_eq!(b.as_ptr(), page.as_ptr().wrapping_add(256));
    }

    #[test]
    fn write_after_read_does_not_mutate_outstanding_views() {
        let mut store = BlockStore::new();
        store.write(0, &real(&[1u8; 100]));
        let view = store.read(0, 100);
        store.write(0, &real(&[2u8; 100]));
        // The earlier view still sees the old bytes (copy-on-write)…
        assert!(view.iter().all(|&b| b == 1));
        // …while a fresh read sees the new ones.
        assert!(store.read(0, 100).iter().all(|&b| b == 2));
    }

    #[test]
    fn hole_reads_share_one_zero_page() {
        let store = BlockStore::new();
        let a = store.read(0, 64);
        let b = store.read(STORE_PAGE * 5 + 3, 64);
        assert!(a.iter().chain(b.iter()).all(|&x| x == 0));
        // Both are views of the same lazily created zero page.
        let zero = store.zero.get().unwrap().as_ptr();
        assert_eq!(a.as_ptr(), zero);
        assert_eq!(b.as_ptr(), zero.wrapping_add(3));
        assert_eq!(store.resident_pages(), 0);
    }

    /// Two pages of distinct real bytes.
    fn two_pages() -> Bytes {
        (0..2 * STORE_PAGE as usize)
            .map(|i| (i % 253) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    #[test]
    fn whole_page_writes_keep_the_writers_buffer() {
        let mut store = BlockStore::new();
        let data = two_pages();
        store.write(0, &Content::from(data.clone()));
        assert_eq!(store.resident_pages(), 2);
        // Each page is a view of the writer's bytes, not a copy of them.
        let page = STORE_PAGE as usize;
        assert_eq!(store.read(0, page).as_ptr(), data.as_ptr());
        assert_eq!(
            store.read(STORE_PAGE, page).as_ptr(),
            data.as_ptr().wrapping_add(page)
        );
        assert_eq!(store.read(0, 2 * page), data);
    }

    #[test]
    fn partial_write_into_an_adopted_page_copies_it_first() {
        let data = two_pages();
        let before = data.to_vec();
        // Two stores adopt one buffer, as every replica of a populated
        // slot does.
        let (mut store, mut replica) = (BlockStore::new(), BlockStore::new());
        store.write(0, &Content::from(data.clone()));
        replica.write(0, &Content::from(data.clone()));
        let view = store.read(STORE_PAGE + 10, 100);
        store.write(STORE_PAGE + 7, &real(&[0xee; 300]));
        let mut expect = before.clone();
        expect[STORE_PAGE as usize + 7..STORE_PAGE as usize + 307].fill(0xee);
        assert_eq!(store.read(0, expect.len()), expect);
        // The writer's buffer, the earlier view and the other store still
        // see the old bytes.
        assert_eq!(data, before);
        assert_eq!(view, &before[STORE_PAGE as usize + 10..][..100]);
        assert_eq!(replica.read(0, before.len()), before);
        // Only the written page became private; its neighbour is still
        // the writer's.
        assert_eq!(store.read(0, 64).as_ptr(), data.as_ptr());
    }

    const LAYOUT: PatternLayout = PatternLayout {
        seed: 11,
        stripe_unit: 16 * 1024,
        factor: 3,
        slot: 2,
    };

    /// The bytes `content` stands for.
    fn bytes_of(content: &Content) -> Bytes {
        match content {
            Content::Bytes(b) => b.clone(),
            Content::Pattern { layout, at, len } => {
                let mut out = BytesMut::zeroed(*len);
                layout.fill(*at, &mut out);
                out.freeze()
            }
        }
    }

    fn pattern(at: u64, len: usize) -> Content {
        Content::Pattern {
            layout: LAYOUT,
            at,
            len,
        }
    }

    #[test]
    fn whole_pages_stay_virtual_and_read_back_exactly() {
        let mut store = BlockStore::new();
        let len = 3 * STORE_PAGE as usize;
        let content = pattern(STORE_PAGE, len);
        store.write(STORE_PAGE, &content);
        assert_eq!((store.resident_pages(), store.pattern_pages()), (0, 3));
        assert_eq!(store.bytes_written(), len as u64);
        let expect = bytes_of(&content);
        // Whole range, a straddling range and a single-page sub-range.
        assert_eq!(store.read(STORE_PAGE, len), expect);
        let (lo, n) = (STORE_PAGE - 100, STORE_PAGE as usize + 300);
        let back = store.read(lo, n);
        assert!(back[..100].iter().all(|&b| b == 0));
        assert_eq!(&back[100..], &expect[..n - 100]);
        assert_eq!(
            store.read(STORE_PAGE * 2 + 7, 999),
            expect.slice(65_543..66_542)
        );
        // Reads never materialize.
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn partial_pattern_pages_are_materialized() {
        let mut store = BlockStore::new();
        store.write(0, &real(&[5u8; 200]));
        let content = pattern(40, STORE_PAGE as usize + 1000);
        store.write(100, &content);
        // Page 0 is covered from byte 100 on, page 1 only in part.
        assert_eq!((store.resident_pages(), store.pattern_pages()), (2, 0));
        let back = store.read(0, STORE_PAGE as usize * 2);
        assert!(back[..100].iter().all(|&b| b == 5));
        assert_eq!(&back[100..100 + content.len()], &bytes_of(&content)[..]);
        assert!(back[100 + content.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn byte_write_into_a_pattern_page_materializes_it() {
        let mut store = BlockStore::new();
        let content = pattern(0, 2 * STORE_PAGE as usize);
        store.write(0, &content);
        let view = store.read(STORE_PAGE, 64);
        store.write(STORE_PAGE + 1_000, &real(&[0xee; 100]));
        assert_eq!((store.resident_pages(), store.pattern_pages()), (1, 1));
        let mut expect = bytes_of(&content).to_vec();
        expect[STORE_PAGE as usize + 1_000..STORE_PAGE as usize + 1_100].fill(0xee);
        assert_eq!(store.read(0, expect.len()), expect);
        // An earlier view is unaffected.
        assert_eq!(
            view,
            bytes_of(&content).slice(STORE_PAGE as usize..STORE_PAGE as usize + 64)
        );
        // Pattern content written back over a resident page makes it
        // virtual again.
        store.write(0, &content);
        assert_eq!((store.resident_pages(), store.pattern_pages()), (0, 2));
    }

    #[test]
    fn content_slices_like_bytes() {
        let p = pattern(10, 1000);
        let s = p.slice(100..300);
        assert_eq!(s.len(), 200);
        assert_eq!(bytes_of(&s), bytes_of(&p).slice(100..300));
        assert!(p.slice(5..5).is_empty());
        let b = Content::from(Bytes::from(vec![1u8, 2, 3]));
        assert_eq!(bytes_of(&b.slice(1..3)), vec![2u8, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn content_slice_past_end_panics() {
        pattern(0, 10).slice(5..11);
    }
}
