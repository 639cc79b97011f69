//! Block-cipher modes of operation (CBC, CTR) with PKCS#7 padding.
//!
//! The platform's bulk-data path (SSL record encryption in Fig. 8,
//! real-time video decryption in the prototype demo) runs a block cipher
//! in one of these modes.

use crate::BlockCipher;
use core::fmt;

/// Error returned when decryption output has invalid PKCS#7 padding or a
/// ciphertext has an impossible length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CipherError {
    /// Ciphertext length is not a multiple of the block size.
    BadLength {
        /// Offending input length.
        len: usize,
        /// Cipher block size.
        block: usize,
    },
    /// PKCS#7 padding bytes are inconsistent.
    BadPadding,
    /// An initialization vector of the wrong size was supplied.
    BadIv {
        /// Offending IV length.
        len: usize,
        /// Cipher block size.
        block: usize,
    },
}

impl fmt::Display for CipherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CipherError::BadLength { len, block } => {
                write!(f, "ciphertext length {len} is not a multiple of {block}")
            }
            CipherError::BadPadding => write!(f, "invalid pkcs#7 padding"),
            CipherError::BadIv { len, block } => {
                write!(f, "iv length {len} does not match block size {block}")
            }
        }
    }
}

impl std::error::Error for CipherError {}

/// Applies PKCS#7 padding, returning a buffer whose length is a multiple
/// of `block`.
pub fn pad_pkcs7(data: &[u8], block: usize) -> Vec<u8> {
    assert!((1..=255).contains(&block));
    let pad = block - data.len() % block;
    let mut out = data.to_vec();
    out.extend(std::iter::repeat_n(pad as u8, pad));
    out
}

/// Strips PKCS#7 padding.
///
/// # Errors
///
/// Returns [`CipherError::BadPadding`] if the final bytes are not valid
/// padding.
pub fn unpad_pkcs7(data: &[u8], block: usize) -> Result<Vec<u8>, CipherError> {
    if data.is_empty() || !data.len().is_multiple_of(block) {
        return Err(CipherError::BadPadding);
    }
    let pad = *data.last().expect("nonempty") as usize;
    if pad == 0 || pad > block || pad > data.len() {
        return Err(CipherError::BadPadding);
    }
    if data[data.len() - pad..].iter().any(|&b| b as usize != pad) {
        return Err(CipherError::BadPadding);
    }
    Ok(data[..data.len() - pad].to_vec())
}

/// Encrypts `data` in CBC mode with PKCS#7 padding.
///
/// # Errors
///
/// Returns [`CipherError::BadIv`] if the IV length differs from the block
/// size.
pub fn cbc_encrypt<C: BlockCipher + ?Sized>(
    cipher: &C,
    iv: &[u8],
    data: &[u8],
) -> Result<Vec<u8>, CipherError> {
    let bs = cipher.block_size();
    if iv.len() != bs {
        return Err(CipherError::BadIv {
            len: iv.len(),
            block: bs,
        });
    }
    let mut out = pad_pkcs7(data, bs);
    let mut prev = iv.to_vec();
    for block in out.chunks_exact_mut(bs) {
        for (b, p) in block.iter_mut().zip(&prev) {
            *b ^= p;
        }
        cipher.encrypt_block(block);
        prev.copy_from_slice(block);
    }
    Ok(out)
}

/// Decrypts CBC-mode ciphertext and strips PKCS#7 padding.
///
/// # Errors
///
/// Returns [`CipherError`] on bad IV, length, or padding.
pub fn cbc_decrypt<C: BlockCipher + ?Sized>(
    cipher: &C,
    iv: &[u8],
    data: &[u8],
) -> Result<Vec<u8>, CipherError> {
    let bs = cipher.block_size();
    if iv.len() != bs {
        return Err(CipherError::BadIv {
            len: iv.len(),
            block: bs,
        });
    }
    if data.is_empty() || !data.len().is_multiple_of(bs) {
        return Err(CipherError::BadLength {
            len: data.len(),
            block: bs,
        });
    }
    let mut out = data.to_vec();
    let mut prev = iv.to_vec();
    for block in out.chunks_exact_mut(bs) {
        let saved = block.to_vec();
        cipher.decrypt_block(block);
        for (b, p) in block.iter_mut().zip(&prev) {
            *b ^= p;
        }
        prev = saved;
    }
    unpad_pkcs7(&out, bs)
}

/// Encrypts or decrypts in CTR mode (symmetric). The counter block is the
/// IV with its trailing 4 bytes treated as a big-endian counter. No
/// padding is applied; output length equals input length.
///
/// # Errors
///
/// Returns [`CipherError::BadIv`] if the nonce length differs from the
/// block size.
pub fn ctr_xcrypt<C: BlockCipher + ?Sized>(
    cipher: &C,
    nonce: &[u8],
    data: &[u8],
) -> Result<Vec<u8>, CipherError> {
    let bs = cipher.block_size();
    if nonce.len() != bs {
        return Err(CipherError::BadIv {
            len: nonce.len(),
            block: bs,
        });
    }
    let mut out = data.to_vec();
    let mut counter_block = nonce.to_vec();
    let mut counter = u32::from_be_bytes(
        counter_block[bs - 4..]
            .try_into()
            .expect("4 trailing bytes"),
    );
    for chunk in out.chunks_mut(bs) {
        let mut keystream = counter_block.clone();
        cipher.encrypt_block(&mut keystream);
        for (b, k) in chunk.iter_mut().zip(&keystream) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
        counter_block[bs - 4..].copy_from_slice(&counter.to_be_bytes());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;
    use crate::des::Des;

    fn aes() -> Aes {
        Aes::new(&[7u8; 16])
    }

    fn des() -> Des {
        Des::new([3u8; 8])
    }

    #[test]
    fn pkcs7_roundtrip_all_remainders() {
        for n in 0..33 {
            let data: Vec<u8> = (0..n as u8).collect();
            let padded = pad_pkcs7(&data, 16);
            assert_eq!(padded.len() % 16, 0);
            assert!(padded.len() > data.len());
            assert_eq!(unpad_pkcs7(&padded, 16).unwrap(), data);
        }
    }

    #[test]
    fn pkcs7_rejects_corruption() {
        let padded = pad_pkcs7(b"hello", 8);
        let mut bad = padded.clone();
        *bad.last_mut().unwrap() = 0;
        assert_eq!(unpad_pkcs7(&bad, 8), Err(CipherError::BadPadding));
        let mut bad2 = padded;
        *bad2.last_mut().unwrap() = 9; // > block size
        assert_eq!(unpad_pkcs7(&bad2, 8), Err(CipherError::BadPadding));
    }

    #[test]
    fn cbc_hides_equal_blocks() {
        let msg = [0x42u8; 32]; // two identical blocks
        let c = cbc_encrypt(&aes(), &[9u8; 16], &msg).unwrap();
        assert_ne!(c[0..16], c[16..32], "CBC chains state across blocks");
    }

    #[test]
    fn cbc_roundtrip_with_des() {
        let iv = [0x55u8; 8];
        let msg = b"the quick brown fox jumps over the lazy dog";
        let ct = cbc_encrypt(&des(), &iv, msg).unwrap();
        assert_eq!(cbc_decrypt(&des(), &iv, &ct).unwrap(), msg);
    }

    #[test]
    fn cbc_wrong_iv_fails_roundtrip() {
        let ct = cbc_encrypt(&aes(), &[1u8; 16], b"secret message!!").unwrap();
        let wrong = cbc_decrypt(&aes(), &[2u8; 16], &ct);
        // Either padding fails or the plaintext differs.
        if let Ok(pt) = wrong {
            assert_ne!(pt, b"secret message!!");
        }
    }

    #[test]
    fn cbc_iv_length_checked() {
        assert!(matches!(
            cbc_encrypt(&aes(), &[0u8; 8], b"x"),
            Err(CipherError::BadIv { len: 8, block: 16 })
        ));
    }

    #[test]
    fn cbc_rejects_ragged_ciphertext() {
        assert!(matches!(
            cbc_decrypt(&aes(), &[0u8; 16], &[0u8; 17]),
            Err(CipherError::BadLength { len: 17, block: 16 })
        ));
    }

    #[test]
    fn ctr_is_its_own_inverse_and_length_preserving() {
        let nonce = [0xa5u8; 16];
        let msg = b"stream mode keeps exact length"; // 30 bytes
        let ct = ctr_xcrypt(&aes(), &nonce, msg).unwrap();
        assert_eq!(ct.len(), msg.len());
        assert_eq!(ctr_xcrypt(&aes(), &nonce, &ct).unwrap(), msg);
    }

    #[test]
    fn ctr_counter_advances_per_block() {
        let nonce = [0u8; 16];
        let zeros = [0u8; 48];
        let ks = ctr_xcrypt(&aes(), &nonce, &zeros).unwrap();
        assert_ne!(ks[0..16], ks[16..32]);
        assert_ne!(ks[16..32], ks[32..48]);
    }
}
