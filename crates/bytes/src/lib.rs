//! Minimal in-repo `Bytes`/`BytesMut`.
//!
//! The workspace needs exactly two things from a byte-buffer type:
//! cheap O(1) clones/slices of immutable payloads (so a 1 MB read reply
//! can fan through the mesh, cache, and prefetch list without copies),
//! and a mutable staging buffer that freezes into one. The crates.io
//! `bytes` crate does this with atomics and a vtable; here one
//! reference-counted vector (`Arc<Vec<u8>>`) plus a range is enough, and
//! keeping it in-repo makes the build hermetic (tier-1 verify needs no
//! registry access).
//!
//! The vector is what makes [`BytesMut::freeze`] and
//! `Bytes::from(Vec<u8>)` copy-free: the vector's buffer becomes the
//! payload as is, and only the small reference-count header is
//! allocated. (An `Arc<[u8]>` stores its counts in front of the bytes, so
//! building one from a `Vec` must allocate again and copy every byte.)
//! Owners that keep pages, like the sparse disk store, keep them as
//! `Bytes` too: a whole-page write is stored as a view of the writer's
//! buffer, and a page is written in place through [`Bytes::get_mut`]
//! only while no other view shares its allocation. So every large buffer
//! in the workspace has one allocation shape, and a freed one can be
//! reused for the next.
//!
//! The reference counts are atomic (`Arc`, not `Rc`) so a payload can
//! cross a shard boundary in the parallel kernel: each sharded world
//! runs on its own host thread, and a cross-shard mesh frame carries its
//! `Bytes` with it. Clones are still cheap (one atomic increment) and
//! immutable content needs no further synchronization. The API is the
//! subset the workspace uses, name-compatible with the real crate.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable slice of bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (allocates only the reference-count header).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap a static slice. (Copies once; the simulator only uses this
    /// for tiny test payloads, so sharing the allocation is not worth a
    /// second representation.)
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Copy from any slice.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Writable access to this view's bytes, or `None` while any other
    /// view (a clone, a slice, or a view of another range) shares the
    /// allocation. Only this view's range is writable, so the bytes it
    /// hands out are exactly the ones [`Deref`] reads.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        let (start, end) = (self.start, self.end);
        Arc::get_mut(&mut self.data).map(|v| &mut v[start..end])
    }

    /// O(1) sub-slice sharing the same allocation. Panics if the range
    /// is out of bounds, like slicing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Take over the vector's allocation: no byte is copied.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A mutable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Pre-allocate capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// A zero-filled buffer of `len` bytes (scatter-gather target).
    pub fn zeroed(len: usize) -> BytesMut {
        BytesMut { data: vec![0; len] }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grow or shrink to `len`, filling new bytes with `fill`.
    pub fn resize(&mut self, len: usize, fill: u8) {
        self.data.resize(len, fill);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Convert into an immutable [`Bytes`] that keeps this buffer's
    /// allocation: no byte is copied, and only the reference-count
    /// header is allocated.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> BytesMut {
        BytesMut { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_no_copies() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(b, c);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        // Sub-slicing a slice stays relative to the slice.
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(s.slice(..0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_end_panics() {
        Bytes::from(vec![1, 2, 3]).slice(0..4);
    }

    #[test]
    fn get_mut_only_on_a_unique_view_and_only_its_range() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]).slice(1..4);
        let at = b.as_ptr();
        let view = b.get_mut().expect("the only view");
        assert_eq!((view.as_ptr(), &view[..]), (at, &[2u8, 3, 4][..]));
        view[0] = 9;
        assert_eq!(b, vec![9u8, 3, 4]);
        // A clone or a slice shares the allocation: no writable access
        // until it is gone.
        let c = b.clone();
        assert!(b.get_mut().is_none());
        drop(c);
        let s = b.slice(2..);
        assert!(b.get_mut().is_none());
        assert_eq!(s, vec![4u8]);
        drop(s);
        assert!(b.get_mut().is_some());
    }

    #[test]
    fn bytes_crosses_threads() {
        // The parallel kernel ships read replies across shard worlds:
        // a Bytes (and anything holding one) must be Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bytes>();
    }

    #[test]
    fn freeze_roundtrip_and_eq_forms() {
        let mut m = BytesMut::zeroed(4);
        m[1] = 9;
        m[2..4].copy_from_slice(&[7, 8]);
        let b = m.freeze();
        assert_eq!(b, vec![0u8, 9, 7, 8]);
        assert_eq!(vec![0u8, 9, 7, 8], b);
        assert_eq!(b, [0u8, 9, 7, 8][..]);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xy").len(), 2);
    }

    #[test]
    fn freeze_keeps_the_allocation() {
        let m = BytesMut::zeroed(64 * 1024);
        let at = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.len(), 64 * 1024);

        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(&[1, 2, 3]);
        m.extend_from_slice(&[4, 5]);
        let at = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b, vec![1u8, 2, 3, 4, 5]);
    }

    #[test]
    fn from_vec_keeps_the_allocation_and_views_share_it() {
        let v = vec![10u8, 11, 12, 13, 14, 15];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        // Clones and slices are views of the same buffer.
        let c = b.clone();
        assert_eq!(c.as_ptr(), at);
        let s = c.slice(2..5);
        assert_eq!(s.as_ptr(), at.wrapping_add(2));
        assert_eq!(&s[..], &[12, 13, 14]);
        assert_eq!(s.slice(1..).as_ptr(), at.wrapping_add(3));
        drop(b);
        assert_eq!(c, vec![10u8, 11, 12, 13, 14, 15]);
        assert_eq!(&s[..], &[12, 13, 14]);
    }

    #[test]
    fn bytes_mut_grows() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[1, 2]);
        m.resize(4, 7);
        assert_eq!(&m[..], &[1, 2, 7, 7]);
        m.resize(1, 0);
        assert_eq!(&m[..], &[1]);
    }
}
