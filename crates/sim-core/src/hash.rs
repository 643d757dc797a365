//! One stable 64-bit hash for the whole workspace.
//!
//! FNV-1a (64-bit) with the SplitMix64 finalizer: tiny, dependency-free
//! and bit-identical on every platform, which is the property the
//! router's hash ring, the trace digests and the reply digests all
//! rely on. The finalizer matters: raw FNV has weak avalanche in the
//! high bits, and keys that differ only in a few suffix characters
//! (ring vnode names) would otherwise cluster on one arc. Every
//! per-byte step and the finalizer are bijections of the running
//! state, so flipping any one input byte always changes the output.
//! Not cryptographic.

/// The SplitMix64 output finalizer (Stafford's Mix13 variant), shared
/// with [`crate::SplitMix64`].
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a-64 of `bytes`, finalized with the SplitMix64 mixer.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    mix64(h)
}

/// Digest a log-likelihood vector bit for bit: [`fnv1a64`] over the
/// IEEE-754 little-endian bytes, so two vectors digest equal iff they
/// are byte-identical on the wire.
pub fn digest_lls(lls: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(lls.len() * 8);
    for ll in lls {
        bytes.extend_from_slice(&ll.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_pinned_values() {
        // Pinned before the ring, trace and reply digests moved here:
        // committed traces and ring placement depend on these bits.
        assert_eq!(fnv1a64(b""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(fnv1a64(b"NIPS10"), 0xb8f0_b7d9_8cd2_64d5);
        assert_eq!(fnv1a64(b"127.0.0.1:9000#0"), 0x1018_3669_cb57_11e2);
    }

    #[test]
    fn ll_digest_hashes_little_endian_bits() {
        let lls = [-1.5f64, 0.25];
        let mut bytes = Vec::new();
        for ll in lls {
            bytes.extend_from_slice(&ll.to_le_bytes());
        }
        assert_eq!(digest_lls(&lls), fnv1a64(&bytes));
        assert_eq!(digest_lls(&[]), fnv1a64(b""));
    }
}
