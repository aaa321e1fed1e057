//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset of `bytes` 1.x this workspace uses: the
//! cheaply-cloneable immutable byte container [`Bytes`] with
//! `From<Vec<u8>>`, [`Bytes::copy_from_slice`], `Deref<Target = [u8]>`,
//! slicing, and equality against byte slices and `Vec<u8>`. Backed by an
//! `Arc<[u8]>` plus a window, so `clone()` is a reference-count bump — the
//! property the simulator's zero-allocation data path relies on.

// The raw-view representation needs `unsafe`; each item holding it
// carries an explicit `allow`.
#![deny(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::ptr::NonNull;
use std::sync::Arc;

/// A cheaply cloneable, immutable chunk of contiguous memory.
///
/// Stored as a raw view pointer + length plus an optional owning
/// `Arc<[u8]>` keeping the allocation alive — 32 bytes total, with
/// `as_slice` a single pointer reconstruction. Views of `'static` data
/// (and empty views) have no owner, so cloning or dropping them never
/// touches a reference count — the property the simulator's shared
/// all-zeroes DRAM cell relies on.
pub struct Bytes {
    /// First byte of the view: into `owner`'s allocation when `owner` is
    /// `Some`, into `'static` data (or dangling, when `len == 0`)
    /// otherwise. The allocation outlives the view either way, which is
    /// what makes `as_slice` sound. `NonNull` so `Option<Bytes>` stays 32
    /// bytes via the pointer niche.
    ptr: NonNull<u8>,
    len: usize,
    owner: Option<Arc<[u8]>>,
}

// SAFETY: `Bytes` is an immutable view whose backing memory is either
// `'static` or owned by the `Arc` it carries; both are safe to share and
// send across threads.
#[allow(unsafe_code)]
unsafe impl Send for Bytes {}
#[allow(unsafe_code)]
unsafe impl Sync for Bytes {}

#[allow(unsafe_code)]
impl Bytes {
    /// Creates a new empty `Bytes` (no allocation).
    #[inline]
    pub const fn new() -> Self {
        Bytes { ptr: NonNull::dangling(), len: 0, owner: None }
    }

    /// Creates `Bytes` by copying `data` into a fresh allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Creates `Bytes` from a static slice without copying. Clones of the
    /// result never touch a reference count.
    #[inline]
    pub const fn from_static(data: &'static [u8]) -> Self {
        // SAFETY: a slice's data pointer is never null.
        let ptr = unsafe { NonNull::new_unchecked(data.as_ptr().cast_mut()) };
        Bytes { ptr, len: data.len(), owner: None }
    }

    /// Number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a sub-view of `self` for the given range (zero-copy; bumps
    /// the reference count).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let len = self.len;
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds: {begin}..{end} of {len}");
        // SAFETY: `begin <= self.len`, so the offset stays inside (or one
        // past the end of) the backing allocation.
        let ptr = unsafe { self.ptr.add(begin) };
        Bytes { ptr, len: end - begin, owner: self.owner.clone() }
    }

    /// The bytes as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` is inside the backing allocation (see
        // the field invariant), which lives at least as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Copies the view out into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Self {
        Bytes { ptr: self.ptr, len: self.len, owner: self.owner.clone() }
    }
}

impl Default for Bytes {
    #[inline]
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(v.into_boxed_slice())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

#[allow(unsafe_code)]
impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        let owner: Arc<[u8]> = Arc::from(b);
        // SAFETY: an `Arc<[u8]>`'s data pointer is never null, and the
        // heap allocation it points into is stable across moves of the
        // `Arc` handle itself.
        let ptr = unsafe { NonNull::new_unchecked(owner.as_ptr().cast_mut()) };
        Bytes { ptr, len: owner.len(), owner: Some(owner) }
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes::copy_from_slice(&a)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;

    #[test]
    fn construction_and_equality() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b, vec![1u8, 2, 3]);
        assert_eq!(vec![1u8, 2, 3], b);
        assert_eq!(b, [1u8, 2, 3]);
        assert_eq!(b[1], 2);
        let c = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(b, c);
    }

    #[test]
    fn clone_is_shallow_and_slice_windows() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(b.as_slice().as_ptr(), c.as_slice().as_ptr());
        let s = b.slice(2..5);
        assert_eq!(s, [2u8, 3, 4]);
        assert_eq!(s.slice(1..), [3u8, 4]);
    }

    #[test]
    fn from_static_is_zero_copy() {
        static DATA: [u8; 4] = [9u8, 8, 7, 6];
        let b = Bytes::from_static(&DATA);
        assert_eq!(b.as_slice().as_ptr(), DATA.as_ptr());
        let c = b.clone();
        assert_eq!(c.as_slice().as_ptr(), DATA.as_ptr());
        assert_eq!(c.slice(1..3), [8u8, 7]);
    }

    #[test]
    fn layout_is_32_bytes() {
        // The simulator moves `Bytes` through grant/playback/response
        // structs every cycle; the compact layout is load-bearing.
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
        assert_eq!(std::mem::size_of::<Option<Bytes>>(), 32, "niche in `owner`'s Arc");
    }

    #[test]
    fn empty_is_allocation_free() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(e, Vec::<u8>::new());
        let d = Bytes::default();
        assert_eq!(e, d);
    }
}
