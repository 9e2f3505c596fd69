//! Tiny deterministic content hashing (FNV-1a, 64-bit) for the engine's
//! cache keys. Not `std::hash`: the keys must be stable across
//! processes and runs, because cached results are compared against
//! golden re-runs, and `std`'s hasher is randomized by design.
//!
//! The implementation lives in [`mig::fnv`] — the same algorithm backs
//! the MIG's structural-hash table — so the workspace has exactly one
//! FNV definition.

pub(crate) use mig::fnv::Fnv64 as Fnv;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        let mut a = Fnv::new();
        a.write_f64(0.0);
        let mut b = Fnv::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "bit patterns, not numeric equality");
    }

    /// Pins the re-export to the reference FNV-1a/64 algorithm with the
    /// published test vectors: the engine's cache keys and the spec
    /// content hashes are built from these digests.
    #[test]
    fn matches_reference_fnv1a_vectors() {
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325, "offset basis");
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
