//! Triple DES (EDE mode, FIPS 46-3 / SP 800-67).
//!
//! 3DES is the bulk cipher used in the paper's SSL transaction model
//! (Fig. 8) and the second row of Table 1. Encryption is
//! `E_K3(D_K2(E_K1(p)))`; with `K1 == K2 == K3` it degenerates to single
//! DES, which the tests exploit as a correctness oracle.

use crate::des::Des;
use crate::BlockCipher;

/// A three-key triple-DES (EDE3) schedule.
///
/// # Examples
///
/// ```
/// use ciphers::{BlockCipher, TripleDes};
///
/// let tdes = TripleDes::new(*b"key1key1", *b"key2key2", *b"key3key3");
/// let mut block = *b"8 bytes!";
/// tdes.encrypt_block(&mut block);
/// tdes.decrypt_block(&mut block);
/// assert_eq!(&block, b"8 bytes!");
/// ```
#[derive(Debug, Clone)]
pub struct TripleDes {
    k1: Des,
    k2: Des,
    k3: Des,
}

impl TripleDes {
    /// Builds an EDE3 schedule from three independent 8-byte keys.
    pub fn new(k1: [u8; 8], k2: [u8; 8], k3: [u8; 8]) -> Self {
        TripleDes {
            k1: Des::new(k1),
            k2: Des::new(k2),
            k3: Des::new(k3),
        }
    }

    /// Builds the schedule from a single 24-byte key blob.
    pub fn from_key_bytes(key: &[u8; 24]) -> Self {
        let mut k1 = [0u8; 8];
        let mut k2 = [0u8; 8];
        let mut k3 = [0u8; 8];
        k1.copy_from_slice(&key[0..8]);
        k2.copy_from_slice(&key[8..16]);
        k3.copy_from_slice(&key[16..24]);
        Self::new(k1, k2, k3)
    }

    /// Encrypts a 64-bit block (`E_K3(D_K2(E_K1(p)))`).
    pub fn encrypt_u64(&self, block: u64) -> u64 {
        self.k3
            .encrypt_u64(self.k2.decrypt_u64(self.k1.encrypt_u64(block)))
    }

    /// Decrypts a 64-bit block.
    pub fn decrypt_u64(&self, block: u64) -> u64 {
        self.k1
            .decrypt_u64(self.k2.encrypt_u64(self.k3.decrypt_u64(block)))
    }
}

impl BlockCipher for TripleDes {
    fn block_size(&self) -> usize {
        8
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "3DES blocks are 8 bytes");
        let v = u64::from_be_bytes(block.try_into().expect("length checked"));
        block.copy_from_slice(&self.encrypt_u64(v).to_be_bytes());
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "3DES blocks are 8 bytes");
        let v = u64::from_be_bytes(block.try_into().expect("length checked"));
        block.copy_from_slice(&self.decrypt_u64(v).to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerates_to_single_des_with_equal_keys() {
        let key = 0x1334_5779_9BBC_DFF1u64.to_be_bytes();
        let tdes = TripleDes::new(key, key, key);
        let des = Des::new(key);
        for p in [0u64, 1, 0x0123_4567_89AB_CDEF, u64::MAX] {
            assert_eq!(tdes.encrypt_u64(p), des.encrypt_u64(p));
            assert_eq!(tdes.decrypt_u64(p), des.decrypt_u64(p));
        }
    }

    #[test]
    fn sp800_67_style_vector() {
        // Known-answer: NIST SP 800-67 example keys applied to the
        // classic plaintext; verified against the EDE composition of the
        // independently tested DES core.
        let k1 = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let k2 = 0x2345_6789_ABCD_EF01u64.to_be_bytes();
        let k3 = 0x4567_89AB_CDEF_0123u64.to_be_bytes();
        let tdes = TripleDes::new(k1, k2, k3);
        let p = 0x5468_6520_7175_6663u64; // "The qufc"
        let c = tdes.encrypt_u64(p);
        let e1 = Des::new(k1).encrypt_u64(p);
        let d2 = Des::new(k2).decrypt_u64(e1);
        let e3 = Des::new(k3).encrypt_u64(d2);
        assert_eq!(c, e3);
        assert_eq!(tdes.decrypt_u64(c), p);
    }

    #[test]
    fn from_key_bytes_splits_correctly() {
        let mut blob = [0u8; 24];
        for (i, b) in blob.iter_mut().enumerate() {
            *b = i as u8;
        }
        let a = TripleDes::from_key_bytes(&blob);
        let b = TripleDes::new(
            blob[0..8].try_into().unwrap(),
            blob[8..16].try_into().unwrap(),
            blob[16..24].try_into().unwrap(),
        );
        assert_eq!(a.encrypt_u64(7), b.encrypt_u64(7));
    }

    #[test]
    fn trait_roundtrip() {
        let tdes = TripleDes::from_key_bytes(b"0123456789abcdefghijklmn");
        let mut block = *b"testdata";
        tdes.encrypt_block(&mut block);
        assert_ne!(&block, b"testdata");
        tdes.decrypt_block(&mut block);
        assert_eq!(&block, b"testdata");
    }
}
