//! Deterministic FNV-1a hashing (64-bit) — the workspace's one hash
//! function for both structural-hash tables and content keys.
//!
//! Two faces over the same algorithm:
//!
//! * [`FnvHasher`] implements [`std::hash::Hasher`], so
//!   [`FnvBuildHasher`] drops into any `HashMap`. The [`Mig`]'s
//!   structural-hash table uses it: strash keys are three packed
//!   [`Signal`]s (12 bytes), for which SipHash's per-lookup setup cost
//!   dominates — on a 10⁶-gate synthetic build the table is queried
//!   once per gate, so the hasher is on the construction hot path.
//! * [`Fnv64`] is the streaming content hasher (explicit
//!   `write_u64` / `write_f64` feeds) that `wavepipe`'s result cache
//!   keys are built from. Unlike `std`'s randomized default hasher its
//!   digests are stable across processes and runs, which is what lets
//!   cached results be compared against golden re-runs.
//!
//! [`Mig`]: crate::Mig
//! [`Signal`]: crate::Signal

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a as a [`std::hash::Hasher`], for `HashMap`s whose keys are
/// short and whose lookups are hot (the strash table).
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

/// Plugs [`FnvHasher`] into `HashMap::with_hasher` / `Default`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Streaming FNV-1a content hasher over explicit byte/word feeds.
///
/// Not `std::hash`: digests must be stable across processes and runs
/// (cached results are compared against golden re-runs), and the
/// explicit `write_*` API keeps every feed's byte encoding visible at
/// the call site.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(OFFSET)
    }

    /// Feeds a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an `f64` by bit pattern, so equal bit patterns hash equal
    /// and -0.0 / 0.0 / NaN payloads are distinguished exactly as the
    /// bit-identicality golden tests require.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        let mut a = Fnv64::new();
        a.write_f64(0.0);
        let mut b = Fnv64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "bit patterns, not numeric equality");
    }

    /// The published FNV-1a/64 reference vectors — both faces must
    /// produce them bit-for-bit (downstream crates key caches and
    /// content hashes on these digests).
    #[test]
    fn matches_reference_fnv1a_vectors() {
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325, "offset basis");
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hasher_face_matches_the_content_face() {
        let mut h = FnvHasher::default();
        h.write(b"wavepipe");
        assert_eq!(h.finish(), hash_bytes(b"wavepipe"));
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut map: HashMap<[u32; 3], u32, FnvBuildHasher> = HashMap::default();
        map.insert([1, 2, 3], 7);
        map.insert([3, 2, 1], 9);
        assert_eq!(map.get(&[1, 2, 3]), Some(&7));
        assert_eq!(map.get(&[3, 2, 1]), Some(&9));
        assert_eq!(map.get(&[2, 2, 2]), None);
    }
}
