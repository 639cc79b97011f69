//! Integration tests of the platform facade, the SSL model, and the
//! processing-gap model working from measured data.

use rand::SeedableRng;
use wsp::ciphers::{BlockCipher, TripleDes};
use wsp::mpint::Natural;
use wsp::secproc::platform::{Algorithm, PlatformKind, SecurityProcessor};
use wsp::secproc::ssl::{speedup_series, SslCostModel};
use wsp::secproc::{gap, measure};
use wsp::xr32::config::CpuConfig;

#[test]
fn platform_speedups_match_paper_shape() {
    let mut base = SecurityProcessor::new(PlatformKind::Baseline);
    let mut opt = SecurityProcessor::new(PlatformKind::Optimized);
    for (algo, lo, hi) in [(Algorithm::Des, 8.0, 80.0), (Algorithm::Aes128, 5.0, 60.0)] {
        let b = base.symmetric_cycles_per_byte(algo);
        let o = opt.symmetric_cycles_per_byte(algo);
        let s = b / o;
        assert!(
            s > lo && s < hi,
            "{algo:?} speedup {s:.1} outside [{lo},{hi}]"
        );
    }
    // SHA-1 is unaccelerated: both platforms cost the same.
    let bs = base.symmetric_cycles_per_byte(Algorithm::Sha1);
    let os = opt.symmetric_cycles_per_byte(Algorithm::Sha1);
    assert!((bs - os).abs() / bs < 0.05, "sha1 {bs:.1} vs {os:.1}");
}

#[test]
fn platform_bulk_crypto_interoperates_with_ciphers_crate() {
    let proc = SecurityProcessor::new(PlatformKind::Optimized);
    let key = *b"abcdefghijklmnopqrstuvwx";
    let iv = [1u8; 8];
    let data = b"record-layer payload with padding";
    let ct = proc
        .encrypt_cbc(Algorithm::TripleDes, &key, &iv, data)
        .unwrap();
    // Decrypt with the ciphers crate directly.
    let tdes = TripleDes::from_key_bytes(&key);
    assert_eq!(tdes.block_size(), 8);
    let pt = wsp::ciphers::modes::cbc_decrypt(&tdes, &iv, &ct).unwrap();
    assert_eq!(pt, data);
}

#[test]
fn ssl_series_from_measured_components_has_paper_shape() {
    let config = CpuConfig::default();
    let tdes = measure::measure_tdes(&config, 4, None);
    // Measure the handshake at a test-friendly 128-bit modulus, then
    // extrapolate to the paper's RSA-1024 magnitude (schoolbook modexp
    // scales cubically in the modulus size), keeping the measured
    // base/optimized ratio.
    let (_, dec) = measure::measure_rsa(&config, 128, None)
        .expect("RSA co-simulation is infallible on the bundled platforms");
    let scale = (1024.0f64 / 128.0).powi(3);
    let sha_cpb = 40.0; // representative misc cost
    let base = SslCostModel {
        handshake_cycles: dec.base_cycles * scale,
        bulk_cycles_per_byte: tdes.base_cpb,
        misc_cycles_per_byte: sha_cpb,
        misc_fixed_cycles: 1.0e5,
    };
    let opt = SslCostModel {
        handshake_cycles: dec.opt_cycles * scale,
        bulk_cycles_per_byte: tdes.opt_cpb,
        misc_cycles_per_byte: sha_cpb,
        misc_fixed_cycles: 1.0e5,
    };
    let sizes: Vec<u64> = (0..=8).map(|i| 1024u64 << i).collect();
    let series = speedup_series(&base, &opt, &sizes);
    // Speedup > 1 everywhere, declining with transaction size once the
    // handshake is amortized.
    for p in &series {
        assert!(
            p.speedup() > 1.0,
            "at {} bytes: {:.2}",
            p.bytes,
            p.speedup()
        );
    }
    let first = series.first().unwrap();
    let last = series.last().unwrap();
    assert!(first.speedup() > last.speedup());
    // Breakdown shifts from public-key to symmetric+misc.
    assert!(first.base_breakdown.public_key / first.base_breakdown.total() > 0.4);
    assert!(last.base_breakdown.public_key / last.base_breakdown.total() < 0.4);
}

#[test]
fn gap_trend_uses_measured_costs() {
    let config = CpuConfig::default();
    let des = measure::measure_des(&config, 4, None);
    let rows = gap::trend(des.base_cpb);
    assert_eq!(rows.len(), 5);
    assert!(rows.last().unwrap().gap_factor() > rows.first().unwrap().gap_factor());
    // The optimized platform closes the gap by the measured speedup.
    let opt_rows = gap::trend(des.opt_cpb);
    for (b, o) in rows.iter().zip(&opt_rows) {
        assert!(o.required_mips < b.required_mips / 5.0);
    }
}

#[test]
fn rsa_interoperates_across_platform_kinds() {
    // A ciphertext produced with the baseline algorithms must decrypt
    // on the optimized platform (they are the same math).
    let base = SecurityProcessor::new(PlatformKind::Baseline);
    let opt = SecurityProcessor::new(PlatformKind::Optimized);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let kp = base.rsa_generate(256, &mut rng);
    let m = Natural::from_u64(0xfeed_beef);
    let ct_base = base.rsa_encrypt(&kp, &m).unwrap();
    let ct_opt = opt.rsa_encrypt(&kp, &m).unwrap();
    assert_eq!(ct_base, ct_opt, "textbook RSA is deterministic");
    assert_eq!(opt.rsa_decrypt(&kp, &ct_base).unwrap(), m);
    assert_eq!(base.rsa_decrypt(&kp, &ct_opt).unwrap(), m);
}
