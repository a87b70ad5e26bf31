//! FNV-1a 64-bit hashing for fingerprints.
//!
//! FNV-1a is not collision-resistant; it is used here only to fingerprint
//! database dumps and constraint sets for cache keys, where an adversarial
//! collision is not part of the threat model and a stable, dependency-free
//! hash that can be reproduced by any client matters more.
//!
//! [`Fnv1a64`] is the one implementation: a streaming hasher that is also
//! an [`io::Write`] sink, so a serializer can hash its output without
//! materializing it. [`fnv1a64`] and [`fnv1a64_parts`] are thin wrappers.

use std::io;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// A streaming FNV-1a 64 hasher. Feeding bytes in any number of pieces
/// gives the hash of their concatenation. Its `io::Write` impl never
/// fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A hasher that has seen no bytes.
    pub const fn new() -> Fnv1a64 {
        Fnv1a64(FNV_OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The hash of every byte fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64::new()
    }
}

impl io::Write for Fnv1a64 {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// FNV-1a folded over several slices, as if they were concatenated with a
/// `0xFF` separator (so `["ab", "c"]` and `["a", "bc"]` hash differently —
/// `0xFF` never occurs inside UTF-8 text).
pub fn fnv1a64_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = Fnv1a64::new();
    for part in parts {
        h.update(part);
        h.update(&[0xFF]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_in_pieces_hashes_the_concatenation() {
        let mut h = Fnv1a64::new();
        write!(h, "f{}", 0).unwrap();
        h.write_all(b"ob").unwrap();
        h.write_all(b"").unwrap();
        h.write_all(b"ar").unwrap();
        assert_eq!(h.finish(), fnv1a64(b"f0obar"));
    }

    #[test]
    fn parts_are_separator_sensitive() {
        assert_ne!(
            fnv1a64_parts([b"ab".as_slice(), b"c".as_slice()]),
            fnv1a64_parts([b"a".as_slice(), b"bc".as_slice()]),
        );
        assert_ne!(fnv1a64_parts([b"ab".as_slice()]), fnv1a64(b"ab"));
        assert_eq!(fnv1a64_parts([b"ab".as_slice()]), fnv1a64(b"ab\xff"));
    }
}
