//! Content checksums for cache files and identities.
//!
//! [`checksum`] provides the integrity fingerprint used by persistent
//! cache files: an entry whose stored checksum does not match
//! `checksum(key, values)` has been corrupted (poisoned) and must be
//! dropped, not served.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Integrity fingerprint of one cache entry: FNV-1a over the key bytes
/// followed by every value's IEEE-754 bit pattern (little-endian).
pub fn checksum(key: &str, values: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in key.bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_value_and_key_tampering() {
        let c = checksum("cfg/op/n8/s1", &[100.0, 200.0]);
        assert_ne!(c, checksum("cfg/op/n8/s1", &[100.0, 200.5]));
        assert_ne!(c, checksum("cfg/op/n8/s2", &[100.0, 200.0]));
        assert_eq!(c, checksum("cfg/op/n8/s1", &[100.0, 200.0]));
    }
}
