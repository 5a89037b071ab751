//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the subset of the real `bytes` API the workspace uses:
//! [`Bytes`] (a cheaply clonable, sliceable shared buffer) and
//! [`BytesMut`] (a growable buffer that freezes into `Bytes`). Clones
//! share the underlying allocation via `Arc`, which is exactly the
//! zero-copy property the simulator's packet hot path relies on: a
//! packet forwarded across five hops clones the `Arc`, not the payload.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable contiguous slice of memory.
///
/// Either a borrowed `&'static [u8]` or a shared, refcounted `Vec<u8>`
/// with a `[start, end)` window. `clone()` is O(1) and never copies the
/// payload.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        end: usize,
    },
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes {
            repr: Repr::Static(&[]),
        }
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(s),
        }
    }

    /// Copies `s` into a fresh owned buffer.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Length in bytes. A shared buffer's comes from its window alone,
    /// without loading the `Vec` behind the `Arc`.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Static(s) => s.len(),
            Repr::Shared { start, end, .. } => end - start,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a slice of self for the provided range, sharing the
    /// underlying storage (O(1), no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let len = self.len();
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
        assert!(
            begin <= end && end <= len,
            "slice {begin}..{end} out of range {len}"
        );
        match &self.repr {
            Repr::Static(s) => Bytes {
                repr: Repr::Static(&s[begin..end]),
            },
            Repr::Shared { buf, start, .. } => Bytes {
                repr: Repr::Shared {
                    buf: buf.clone(),
                    start: start + begin,
                    end: start + end,
                },
            },
        }
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            repr: Repr::Shared {
                buf: Arc::new(v),
                start: 0,
                end,
            },
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
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

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
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
        for &b in self.as_slice().iter().take(32) {
            if (0x20..0x7f).contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "... {} bytes", self.len())?;
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

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A unique, growable byte buffer that can be frozen into [`Bytes`].
#[derive(Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Ensures space for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Clears contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Splits off the filled portion, leaving `self` empty (the real
    /// crate shares the allocation; here the split takes it, and the
    /// next write grows a fresh one).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            buf: std::mem::take(&mut self.buf),
        }
    }

    /// Converts into an immutable `Bytes` without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(&b[..], &c[..]);
        // Same backing allocation (pointer equality of the slices).
        assert_eq!(b.as_slice().as_ptr(), c.as_slice().as_ptr());
    }

    #[test]
    fn slice_is_zero_copy() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_slice().as_ptr(), b.as_slice()[2..].as_ptr());
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
    }

    #[test]
    fn len_is_the_window() {
        let b = Bytes::from(vec![0; 10]);
        for (from, to) in [(0, 10), (3, 7), (4, 4), (10, 10)] {
            let s = b.slice(from..to);
            assert_eq!(s.len(), to - from);
            assert_eq!(s.len(), s.as_slice().len());
            assert_eq!(s.is_empty(), from == to);
        }
    }

    #[test]
    fn static_round_trip() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(b, *b"hello");
        assert_eq!(b.slice(1..3), *b"el");
    }

    #[test]
    fn static_array_converts_without_copy() {
        static MSG: [u8; 5] = *b"hello";
        let b = Bytes::from(&MSG);
        assert_eq!(b, *b"hello");
        assert_eq!(b.as_slice().as_ptr(), MSG.as_ptr());
        let lit: Bytes = b"lit".into();
        assert_eq!(lit, *b"lit");
    }

    #[test]
    fn bytes_mut_freeze() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"abc");
        m.put_u8(b'd');
        let split = m.split();
        assert!(m.is_empty());
        assert_eq!(split.freeze(), *b"abcd");
    }
}
