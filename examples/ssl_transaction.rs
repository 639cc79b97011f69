//! SSL transaction acceleration (the paper's Fig. 8 scenario).
//!
//! Runs a functional SSL-style exchange through the platform API
//! (RSA handshake, 3DES bulk records, SHA-1 MACs), then prints the
//! measured speedup of whole transactions across session sizes.
//!
//! Run with: `cargo run --release --example ssl_transaction`

use rand::SeedableRng;
use wsp::mpint::Natural;
use wsp::secproc::platform::{Algorithm, PlatformKind, SecurityProcessor};
use wsp::secproc::ssl::{self, SslCostModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x55E);

    // --- the functional exchange (what the platform computes) ---
    let server = SecurityProcessor::new(PlatformKind::Optimized);
    let kp = server.rsa_generate(512, &mut rng);
    // Client encrypts a premaster secret under the server's public key.
    let premaster = Natural::random_below(&mut rng, &kp.public.n);
    let ct = server.rsa_encrypt(&kp, &premaster)?;
    assert_eq!(server.rsa_decrypt(&kp, &ct)?, premaster);
    // Session keys derive from the premaster; bulk data flows under 3DES.
    let session_key: Vec<u8> = premaster
        .to_bytes_be()
        .iter()
        .cycle()
        .take(24)
        .copied()
        .collect();
    let iv = [3u8; 8];
    let record = vec![0x42u8; 4096];
    let protected = server.encrypt_cbc(Algorithm::TripleDes, &session_key, &iv, &record)?;
    let mac = server.sha1(&protected);
    println!(
        "functional exchange ok: handshake + {}B record + MAC {:02x}{:02x}..",
        record.len(),
        mac[0],
        mac[1]
    );

    // --- measured transaction speedups (Fig. 8) ---
    println!("\nmeasuring component costs on the XR32 ISS (this takes a moment)...");
    let mut base_p = SecurityProcessor::new(PlatformKind::Baseline);
    let mut opt_p = SecurityProcessor::new(PlatformKind::Optimized);
    let tdes_base = base_p.symmetric_cycles_per_byte(Algorithm::TripleDes);
    let tdes_opt = opt_p.symmetric_cycles_per_byte(Algorithm::TripleDes);
    let sha_cpb = base_p.symmetric_cycles_per_byte(Algorithm::Sha1);

    // Handshake cost measured at a laptop-friendly 256-bit modulus,
    // extrapolated to the paper's RSA-1024 magnitude (schoolbook modexp
    // scales cubically in modulus size); the measured base/optimized
    // ratio is preserved.
    let (_, dec) = wsp::secproc::measure::measure_rsa(base_p.config(), 256, None)
        .expect("RSA co-simulation is infallible on the bundled platforms");
    let scale = (1024.0f64 / 256.0).powi(3);
    let base_model = SslCostModel {
        handshake_cycles: dec.base_cycles * scale,
        bulk_cycles_per_byte: tdes_base,
        misc_cycles_per_byte: sha_cpb,
        misc_fixed_cycles: 1.0e6,
    };
    let opt_model = SslCostModel {
        handshake_cycles: dec.opt_cycles * scale,
        bulk_cycles_per_byte: tdes_opt,
        misc_cycles_per_byte: sha_cpb, // misc stays unaccelerated
        misc_fixed_cycles: 1.0e6,
    };

    let sizes: Vec<u64> = (0..=5).map(|i| 1024u64 << i).collect();
    let series = ssl::speedup_series(&base_model, &opt_model, &sizes);
    println!();
    print!("{}", ssl::render_series(&series));
    println!(
        "\nsmall transactions ride the RSA speedup ({:.1}X here); large ones\n\
         fall toward the Amdahl limit set by the unaccelerated misc share.",
        dec.base_cycles / dec.opt_cycles
    );
    Ok(())
}
