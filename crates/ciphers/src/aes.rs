//! The Advanced Encryption Standard (FIPS 197).
//!
//! Supports AES-128/192/256. The S-box is derived algebraically (GF(2⁸)
//! inversion plus the affine transform) rather than transcribed, so the
//! table is self-constructing; known-answer tests pin it to FIPS 197.
//! Round primitives ([`sub_bytes`], [`shift_rows`], [`mix_columns`], …)
//! are public because the platform's XR32 `aes_tbox` custom instruction
//! is validated against them.

use crate::BlockCipher;
use std::sync::OnceLock;

/// Multiplies two elements of GF(2⁸) modulo the AES polynomial
/// `x⁸ + x⁴ + x³ + x + 1` (0x11b).
pub fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

fn sbox_tables() -> &'static ([u8; 256], [u8; 256]) {
    static TABLES: OnceLock<([u8; 256], [u8; 256])> = OnceLock::new();
    TABLES.get_or_init(|| {
        // GF(2^8) inverses by exhaustive search (one-time cost).
        let mut inv = [0u8; 256];
        for x in 1..=255u8 {
            for y in 1..=255u8 {
                if gmul(x, y) == 1 {
                    inv[x as usize] = y;
                    break;
                }
            }
        }
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for x in 0..=255u8 {
            let b = inv[x as usize];
            let s = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
            sbox[x as usize] = s;
            inv_sbox[s as usize] = x;
        }
        (sbox, inv_sbox)
    })
}

/// The AES S-box value for `x`.
pub fn sbox(x: u8) -> u8 {
    sbox_tables().0[x as usize]
}

/// The inverse AES S-box value for `x`.
fn inv_sbox(x: u8) -> u8 {
    sbox_tables().1[x as usize]
}

/// Applies SubBytes to a state (16 bytes, `state[r + 4c]` layout).
pub fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = sbox(*b);
    }
}

/// Applies InvSubBytes.
pub fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = inv_sbox(*b);
    }
}

/// Applies ShiftRows: row `r` rotates left by `r`.
pub fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

/// Applies InvShiftRows.
pub fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
        }
    }
}

/// Applies MixColumns.
pub fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[1 + 4 * c],
            state[2 + 4 * c],
            state[3 + 4 * c],
        ];
        state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        state[1 + 4 * c] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        state[2 + 4 * c] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        state[3 + 4 * c] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

/// Applies InvMixColumns.
pub fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[1 + 4 * c],
            state[2 + 4 * c],
            state[3 + 4 * c],
        ];
        state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[1 + 4 * c] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[2 + 4 * c] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[3 + 4 * c] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
}

/// XORs a round key (as four words) into the state.
pub fn add_round_key(state: &mut [u8; 16], round_key: &[u32; 4]) {
    for c in 0..4 {
        let w = round_key[c].to_be_bytes();
        for r in 0..4 {
            state[r + 4 * c] ^= w[r];
        }
    }
}

/// AES key size variants.
#[derive(Debug, Clone, Copy)]
enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Key length in 32-bit words (Nk).
    fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }

    /// Number of rounds (Nr).
    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }
}

/// An expanded AES key schedule.
///
/// # Examples
///
/// ```
/// use ciphers::aes::Aes;
///
/// // FIPS 197 Appendix C.1 known-answer test.
/// let key: Vec<u8> = (0..16).collect();
/// let aes = Aes::new_128(key[..].try_into().expect("16 bytes"));
/// let mut block = [0u8; 16];
/// for (i, b) in block.iter_mut().enumerate() {
///     *b = (i as u8) * 0x11;
/// }
/// aes.encrypt_block16(&mut block);
/// assert_eq!(block[0], 0x69);
/// assert_eq!(block[15], 0x5a);
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    round_keys: Vec<[u32; 4]>,
    size: KeySize,
}

impl Aes {
    /// Expands a 128-bit key.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, KeySize::Aes128)
    }

    /// Expands a key whose length selects the variant (16, 24 or 32
    /// bytes).
    ///
    /// # Panics
    ///
    /// Panics if the key length is not 16, 24 or 32 bytes.
    pub fn new(key: &[u8]) -> Self {
        let size = match key.len() {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            n => panic!("invalid AES key length {n}; expected 16, 24 or 32"),
        };
        Self::expand(key, size)
    }

    fn expand(key: &[u8], size: KeySize) -> Self {
        let nk = size.nk();
        let nr = size.rounds();
        debug_assert_eq!(key.len(), 4 * nk);
        let mut w = vec![0u32; 4 * (nr + 1)];
        for (i, wi) in w.iter_mut().take(nk).enumerate() {
            *wi = u32::from_be_bytes(key[4 * i..4 * i + 4].try_into().expect("chunked"));
        }
        let mut rcon = 1u8;
        for i in nk..4 * (nr + 1) {
            let mut t = w[i - 1];
            if i % nk == 0 {
                t = sub_word(t.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = gmul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                t = sub_word(t);
            }
            w[i] = w[i - nk] ^ t;
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect();
        Aes { round_keys, size }
    }

    /// The expanded round keys (Nr + 1 entries of four words).
    pub fn round_keys(&self) -> &[[u32; 4]] {
        &self.round_keys
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block16(&self, block: &mut [u8; 16]) {
        let mut state = to_state(block);
        let nr = self.size.rounds();
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..nr {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[nr]);
        from_state(&state, block);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block16(&self, block: &mut [u8; 16]) {
        let mut state = to_state(block);
        let nr = self.size.rounds();
        add_round_key(&mut state, &self.round_keys[nr]);
        for round in (1..nr).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        add_round_key(&mut state, &self.round_keys[0]);
        from_state(&state, block);
    }
}

fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([sbox(b[0]), sbox(b[1]), sbox(b[2]), sbox(b[3])])
}

// FIPS 197 fills the state column by column (state[r][c] = in[r + 4c]),
// which with the flat `r + 4c` layout used here is exactly input order.
fn to_state(block: &[u8; 16]) -> [u8; 16] {
    *block
}

fn from_state(state: &[u8; 16], block: &mut [u8; 16]) {
    *block = *state;
}

impl BlockCipher for Aes {
    fn block_size(&self) -> usize {
        16
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES blocks are 16 bytes");
        let mut b: [u8; 16] = block.try_into().expect("length checked");
        self.encrypt_block16(&mut b);
        block.copy_from_slice(&b);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES blocks are 16 bytes");
        let mut b: [u8; 16] = block.try_into().expect("length checked");
        self.decrypt_block16(&mut b);
        block.copy_from_slice(&b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_entries() {
        assert_eq!(sbox(0x00), 0x63);
        assert_eq!(sbox(0x01), 0x7c);
        assert_eq!(sbox(0x53), 0xed);
        assert_eq!(sbox(0xff), 0x16);
        for x in 0..=255u8 {
            assert_eq!(inv_sbox(sbox(x)), x);
        }
    }

    #[test]
    fn gmul_known_products() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xab), 0);
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key: Vec<u8> = (0..16).collect();
        let aes = Aes::new_128(key[..].try_into().unwrap());
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block16(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block16(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        let key: Vec<u8> = (0..24).collect();
        let aes = Aes::new(&key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block16(&mut block);
        assert_eq!(block.to_vec(), hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: Vec<u8> = (0..32).collect();
        let aes = Aes::new(&key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block16(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn fips197_appendix_b_vector() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key);
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        aes.encrypt_block16(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn key_expansion_first_words_fips_a1() {
        // FIPS 197 Appendix A.1, w[4] and w[43].
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key);
        assert_eq!(aes.round_keys()[1][0], 0xa0fafe17);
        assert_eq!(aes.round_keys()[10][3], 0xb6630ca6);
    }

    #[test]
    fn round_primitives_invert() {
        let mut state: [u8; 16] = hex("00102030405060708090a0b0c0d0e0f0").try_into().unwrap();
        let orig = state;
        shift_rows(&mut state);
        inv_shift_rows(&mut state);
        assert_eq!(state, orig);
        mix_columns(&mut state);
        inv_mix_columns(&mut state);
        assert_eq!(state, orig);
        sub_bytes(&mut state);
        inv_sub_bytes(&mut state);
        assert_eq!(state, orig);
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn bad_key_length_panics() {
        let _ = Aes::new(&[0u8; 10]);
    }

    #[test]
    fn trait_roundtrip_all_sizes() {
        use crate::BlockCipher;
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8).map(|i| i.wrapping_mul(37)).collect();
            let aes = Aes::new(&key);
            let mut block = *b"0123456789abcdef";
            aes.encrypt_block(&mut block);
            assert_ne!(&block, b"0123456789abcdef");
            aes.decrypt_block(&mut block);
            assert_eq!(&block, b"0123456789abcdef");
        }
    }
}
