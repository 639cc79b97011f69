//! Pins the keys that key generation derives from fixed seeds.
//!
//! RSA and ElGamal key generation sit on prime generation, and prime
//! generation on Miller–Rabin: which candidates a seed reaches, which
//! witnesses it draws and which verdicts they give decide every key.
//! The digest folds every field of the generated keys and a few primes
//! into one FNV-1a value. A failure here means a seed now yields other
//! keys, never a reason to re-pin the value.

// Glob imports on purpose: `prime` names prime generation in whichever
// layer of the library holds it, so the pin reads the same digest
// across a move of that module between `mpint` and `pubkey`.
use mpint::*;
use pubkey::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The digest of [`keygen_digest`], computed while Miller–Rabin still
/// ran on its own Montgomery ladder in `mpint`.
const PINNED: u64 = 0xaf17_9116_1e59_4e67;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn nat(&mut self, n: &Natural) {
        self.word(n.limbs().len() as u64);
        for &l in n.limbs() {
            self.word(u64::from(l));
        }
    }
}

fn keygen_digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (seed, bits) in [(0x2002_u64, 256usize), (0x2003, 512), (0x2004, 1024)] {
        let kp = rsa::KeyPair::generate(bits, &mut StdRng::seed_from_u64(seed));
        let crt = &kp.private.crt;
        for n in [
            &kp.public.n,
            &kp.public.e,
            &kp.private.n,
            &kp.private.e,
            &kp.private.d,
            &crt.p,
            &crt.q,
            &crt.dp,
            &crt.dq,
            &crt.qinv,
        ] {
            h.nat(n);
        }
    }
    for (seed, bits) in [(0xe1_u64, 64usize), (0xe2, 128)] {
        let params = elgamal::Params::generate(bits, &mut StdRng::seed_from_u64(seed));
        h.nat(&params.p);
        h.nat(&params.g);
    }
    let mut rng = StdRng::seed_from_u64(0xdac_2002);
    for bits in [2usize, 17, 64, 96, 160] {
        h.nat(&prime::gen_prime(bits, &mut rng));
    }
    for start in [
        Natural::zero(),
        Natural::from_u64(65_536),
        Natural::from_u64(u64::MAX),
        Natural::one() << 127,
    ] {
        h.nat(&prime::next_prime(&start, &mut rng));
    }
    h.0
}

#[test]
fn generated_keys_match_the_pinned_digest() {
    let got = keygen_digest();
    assert_eq!(got, PINNED, "seeded key generation changed: {got:#018x}");
}
