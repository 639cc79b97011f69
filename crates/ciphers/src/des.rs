//! The Data Encryption Standard (FIPS 46-3).
//!
//! The implementation deliberately exposes its internal round structure
//! ([`Des::round_keys`], [`feistel_f`], [`initial_permutation`], …): these
//! are the "basic operations" the platform characterizes on the XR32
//! instruction-set simulator and accelerates with the `des_sbox` /
//! `des_perm` custom instructions, and the equivalence tests between the
//! native and XR32-assembly kernels are written against them.

use crate::bits::{join, permute, rotl, split};
use crate::BlockCipher;

/// Initial permutation IP.
pub const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation IP⁻¹.
pub const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion E (32 → 48 bits).
pub const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18,
    19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation P (32 → 32 bits) applied after the S-boxes.
pub const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// Permuted choice 1 (64-bit key → 56 bits).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2 (56 bits → 48-bit round key).
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-rotation schedule for the 16 rounds.
const SHIFTS: [u32; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight DES S-boxes, each mapping a 6-bit input to a 4-bit output.
/// Indexed `SBOXES[box][row * 16 + column]` per FIPS 46-3.
pub const SBOXES: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Applies the initial permutation IP to a 64-bit block.
pub fn initial_permutation(block: u64) -> u64 {
    permute(block, 64, &IP)
}

/// Applies the final permutation IP⁻¹ to a 64-bit block.
pub fn final_permutation(block: u64) -> u64 {
    permute(block, 64, &FP)
}

/// Expands a 32-bit half-block to 48 bits via table E.
pub fn expand(half: u32) -> u64 {
    permute(half as u64, 32, &E)
}

/// Runs all eight S-boxes over a 48-bit value, producing 32 bits.
fn sbox_substitute(x48: u64) -> u32 {
    let mut out = 0u32;
    for (i, sbox) in SBOXES.iter().enumerate() {
        let six = ((x48 >> (42 - 6 * i)) & 0x3f) as u8;
        let row = ((six >> 4) & 2) | (six & 1);
        let col = (six >> 1) & 0xf;
        out = (out << 4) | sbox[(row * 16 + col) as usize] as u32;
    }
    out
}

/// Applies permutation P to a 32-bit value.
pub fn permute_p(x: u32) -> u32 {
    permute(x as u64, 32, &P) as u32
}

/// The Feistel function `f(R, K)` of one DES round.
pub fn feistel_f(right: u32, round_key: u64) -> u32 {
    permute_p(sbox_substitute(expand(right) ^ round_key))
}

/// Derives the sixteen 48-bit round keys from a 64-bit key (parity bits
/// ignored per PC-1).
pub fn key_schedule(key: u64) -> [u64; 16] {
    let k56 = permute(key, 64, &PC1);
    let (mut c, mut d) = split(k56, 56);
    let mut round_keys = [0u64; 16];
    for (i, &s) in SHIFTS.iter().enumerate() {
        c = rotl(c, 28, s);
        d = rotl(d, 28, s);
        round_keys[i] = permute(join(c, d, 56), 56, &PC2);
    }
    round_keys
}

/// A DES key schedule ready for encryption and decryption.
///
/// # Examples
///
/// ```
/// use ciphers::{BlockCipher, Des};
///
/// let des = Des::new(0x1334_5779_9BBC_DFF1u64.to_be_bytes());
/// let mut block = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
/// des.encrypt_block(&mut block);
/// assert_eq!(u64::from_be_bytes(block), 0x85E8_1354_0F0A_B405);
/// ```
#[derive(Debug, Clone)]
pub struct Des {
    round_keys: [u64; 16],
}

impl Des {
    /// Builds the key schedule from an 8-byte key.
    pub fn new(key: [u8; 8]) -> Self {
        Des {
            round_keys: key_schedule(u64::from_be_bytes(key)),
        }
    }

    /// The sixteen 48-bit round keys.
    pub fn round_keys(&self) -> &[u64; 16] {
        &self.round_keys
    }

    /// Encrypts a 64-bit block.
    pub fn encrypt_u64(&self, block: u64) -> u64 {
        self.crypt(block, false)
    }

    /// Decrypts a 64-bit block.
    pub fn decrypt_u64(&self, block: u64) -> u64 {
        self.crypt(block, true)
    }

    fn crypt(&self, block: u64, decrypt: bool) -> u64 {
        let ip = initial_permutation(block);
        let (l64, r64) = split(ip, 64);
        let (mut l, mut r) = (l64 as u32, r64 as u32);
        for i in 0..16 {
            let k = if decrypt {
                self.round_keys[15 - i]
            } else {
                self.round_keys[i]
            };
            let new_r = l ^ feistel_f(r, k);
            l = r;
            r = new_r;
        }
        // Note the final swap: R16 is the high half.
        final_permutation(join(r as u64, l as u64, 64))
    }
}

impl BlockCipher for Des {
    fn block_size(&self) -> usize {
        8
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "DES blocks are 8 bytes");
        let v = u64::from_be_bytes(block.try_into().expect("length checked"));
        block.copy_from_slice(&self.encrypt_u64(v).to_be_bytes());
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "DES blocks are 8 bytes");
        let v = u64::from_be_bytes(block.try_into().expect("length checked"));
        block.copy_from_slice(&self.decrypt_u64(v).to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_classic_vector() {
        // The worked example from FIPS 46 / Stallings.
        let des = Des::new(0x1334_5779_9BBC_DFF1u64.to_be_bytes());
        assert_eq!(
            des.encrypt_u64(0x0123_4567_89AB_CDEF),
            0x85E8_1354_0F0A_B405
        );
        assert_eq!(
            des.decrypt_u64(0x85E8_1354_0F0A_B405),
            0x0123_4567_89AB_CDEF
        );
    }

    #[test]
    fn known_zero_output_vector() {
        let des = Des::new(0x0E32_9232_EA6D_0D73u64.to_be_bytes());
        assert_eq!(des.encrypt_u64(0x8787_8787_8787_8787), 0);
    }

    #[test]
    fn nbs_maintenance_vector() {
        // From the NBS test set: all-ones key.
        let des = Des::new([0xFF; 8]);
        assert_eq!(
            des.encrypt_u64(0xFFFF_FFFF_FFFF_FFFF),
            0x7359_B216_3E4E_DC58
        );
    }

    #[test]
    fn ip_and_fp_are_inverses() {
        for v in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(final_permutation(initial_permutation(v)), v);
            assert_eq!(initial_permutation(final_permutation(v)), v);
        }
    }

    #[test]
    fn expand_duplicates_edge_bits() {
        // Bit 32 of the input (LSB) appears as output bits 1 and 47.
        let e = expand(1);
        assert_eq!(e >> 47, 1);
        assert_eq!((e >> 1) & 1, 1);
    }

    #[test]
    fn sbox_rows_are_permutations_of_0_to_15() {
        for (b, sbox) in SBOXES.iter().enumerate() {
            for row in 0..4 {
                let mut seen = [false; 16];
                for col in 0..16 {
                    seen[sbox[row * 16 + col] as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "sbox {b} row {row}");
            }
        }
    }

    #[test]
    fn key_schedule_produces_distinct_round_keys() {
        let ks = key_schedule(0x1334_5779_9BBC_DFF1);
        for i in 0..16 {
            for j in i + 1..16 {
                assert_ne!(ks[i], ks[j], "rounds {i} and {j}");
            }
        }
        // Known K1 for this key (Stallings worked example).
        assert_eq!(ks[0], 0x1B02_EFFC_7072);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_via_trait() {
        use crate::BlockCipher;
        let des = Des::new(*b"K3ys3cr3");
        let mut block = *b"plaintxt";
        des.encrypt_block(&mut block);
        assert_ne!(&block, b"plaintxt");
        des.decrypt_block(&mut block);
        assert_eq!(&block, b"plaintxt");
    }

    #[test]
    fn complementation_property() {
        // DES(k̄, p̄) = DES(k, p)̄ — a classic structural property.
        let k = 0x0123_4567_89AB_CDEFu64;
        let p = 0x1122_3344_5566_7788u64;
        let c = Des::new(k.to_be_bytes()).encrypt_u64(p);
        let cc = Des::new((!k).to_be_bytes()).encrypt_u64(!p);
        assert_eq!(cc, !c);
    }
}
