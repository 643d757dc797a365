//! Digests for payloads, replies and trace files: `sim_core`'s
//! FNV-1a-64 with the SplitMix64 finalizer, the same construction the
//! router's hash ring uses. Not cryptographic; the property that
//! matters here is that any single-byte change propagates to the
//! output, so bit-flips in a trace file or a reply never go unnoticed.

/// Digest a reply: the log-likelihood vector, bit for bit.
pub use sim_core::digest_lls;
/// Digest a byte slice.
pub use sim_core::fnv1a64 as digest_bytes;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic_and_sensitive() {
        assert_eq!(digest_bytes(b"abc"), digest_bytes(b"abc"));
        assert_ne!(digest_bytes(b"abc"), digest_bytes(b"abd"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
    }

    #[test]
    fn single_byte_flips_always_change_the_digest() {
        // Every per-byte step is a bijection of the state for a fixed
        // suffix, so flipping any one byte must change the output.
        let base: Vec<u8> = (0..64u8).collect();
        let d0 = digest_bytes(&base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut v = base.clone();
                v[i] ^= flip;
                assert_ne!(digest_bytes(&v), d0, "flip {flip:#x} at {i}");
            }
        }
    }

    #[test]
    fn ll_digest_is_bit_exact() {
        let a = [0.1f64, -2.5, f64::NEG_INFINITY];
        assert_eq!(digest_lls(&a), digest_lls(&a));
        let b = [0.1f64, -2.5 + 1e-15, f64::NEG_INFINITY];
        assert_ne!(digest_lls(&a), digest_lls(&b));
        // -0.0 and 0.0 are different bit patterns, hence different
        // digests — "bit-identical" means exactly that.
        assert_ne!(digest_lls(&[0.0]), digest_lls(&[-0.0]));
    }
}
