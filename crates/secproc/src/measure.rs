//! Table 1 measurements: cycles/byte (symmetric) and cycles/operation
//! (RSA) on the baseline vs. optimized platform.

use crate::issops::{IssMpn, KernelVariant};
use crate::kcache::{self, KCache};
use crate::simcipher::{SimAes, SimDes, Variant};
use mpint::Natural;
use pubkey::modexp::ExpCache;
use pubkey::ops::MpnOps;
use pubkey::rsa::{KeyPair, RsaError};
use pubkey::space::ModExpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xpar::Pool;
use xr32::config::CpuConfig;

/// One symmetric-algorithm row of Table 1.
#[derive(Debug, Clone)]
pub struct SymmetricRow {
    /// Algorithm name as printed.
    pub name: &'static str,
    /// Baseline cycles/byte (original software, Table 1 column 1).
    pub base_cpb: f64,
    /// Optimized-platform cycles/byte (column 2).
    pub opt_cpb: f64,
}

impl SymmetricRow {
    /// The speedup factor (column 3).
    pub fn speedup(&self) -> f64 {
        self.base_cpb / self.opt_cpb
    }
}

/// One RSA row of Table 1 (cycles per operation).
#[derive(Debug, Clone)]
pub struct RsaRow {
    /// Operation name as printed.
    pub name: &'static str,
    /// Baseline cycles.
    pub base_cycles: f64,
    /// Optimized cycles.
    pub opt_cycles: f64,
}

impl RsaRow {
    /// The speedup factor.
    pub fn speedup(&self) -> f64 {
        self.base_cycles / self.opt_cycles
    }
}

/// Measures the DES row over `blocks` blocks, served from the
/// kernel-cycle cache (unit `table1:des`) when one is given.
pub fn measure_des(config: &CpuConfig, blocks: usize, cache: Option<&KCache>) -> SymmetricRow {
    sym_row(config, "table1:des", blocks, cache, "DES enc./dec.", || {
        let key = *b"\x13\x34\x57\x79\x9B\xBC\xDF\xF1";
        let mut base = SimDes::new(config.clone(), Variant::Base, key);
        let mut fast = SimDes::new(config.clone(), Variant::Accelerated, key);
        [base.cycles_per_byte(blocks), fast.cycles_per_byte(blocks)]
    })
}

/// Measures the 3DES row: three chained DES passes (EDE) per block
/// (cache unit `table1:tdes`).
pub fn measure_tdes(config: &CpuConfig, blocks: usize, cache: Option<&KCache>) -> SymmetricRow {
    let keys = [
        *b"\x01\x23\x45\x67\x89\xAB\xCD\xEF",
        *b"\x23\x45\x67\x89\xAB\xCD\xEF\x01",
        *b"\x45\x67\x89\xAB\xCD\xEF\x01\x23",
    ];
    let run = |variant: Variant| -> f64 {
        let mut passes: Vec<SimDes> = keys
            .iter()
            .map(|k| SimDes::new(config.clone(), variant, *k))
            .collect();
        let mut x = 0x0123_4567_89ab_cdefu64;
        // Warm all three key schedules' cache footprints.
        for (i, p) in passes.iter_mut().enumerate() {
            let (out, _) = p.crypt_block(x, i == 1);
            x = out;
        }
        let mut total = 0u64;
        for _ in 0..blocks - 1 {
            for (i, p) in passes.iter_mut().enumerate() {
                let (out, cycles) = p.crypt_block(x, i == 1);
                x = out;
                total += cycles;
            }
        }
        total as f64 / ((blocks - 1) as f64 * 8.0)
    };
    sym_row(
        config,
        "table1:tdes",
        blocks,
        cache,
        "3DES enc./dec.",
        || [run(Variant::Base), run(Variant::Accelerated)],
    )
}

/// Measures the AES-128 row (cache unit `table1:aes`).
fn measure_aes(config: &CpuConfig, blocks: usize, cache: Option<&KCache>) -> SymmetricRow {
    sym_row(config, "table1:aes", blocks, cache, "AES enc./dec.", || {
        let key: [u8; 16] = *b"paper-aes-key128";
        let mut base = SimAes::new(config.clone(), Variant::Base, &key);
        let mut fast = SimAes::new(config.clone(), Variant::Accelerated, &key);
        [base.cycles_per_byte(blocks), fast.cycles_per_byte(blocks)]
    })
}

/// One symmetric row from `measure` (`[base_cpb, opt_cpb]`), served
/// from the kernel-cycle cache when one is given. The key embeds the
/// core fingerprint, the row's unit name, and the block count.
fn sym_row(
    config: &CpuConfig,
    unit: &str,
    blocks: usize,
    cache: Option<&KCache>,
    name: &'static str,
    measure: impl FnOnce() -> [f64; 2],
) -> SymmetricRow {
    let [base_cpb, opt_cpb] = match cache {
        Some(kc) => {
            let key = kcache::key(config.fingerprint(), "sim", unit, blocks as u64, 0);
            let v = kc.get_or_compute(&key, 2, || measure().to_vec());
            [v[0], v[1]]
        }
        None => measure(),
    };
    SymmetricRow {
        name,
        base_cpb,
        opt_cpb,
    }
}

/// Measures the RSA rows by full ISS co-simulation: baseline =
/// schoolbook multiply/divide, binary scanning, no CRT, on the base
/// kernels; optimized = the explored configuration (Montgomery, 5-bit
/// windows, Garner CRT, cached contexts) on the accelerated kernels.
///
/// Returns `(encrypt_row, decrypt_row)`. `bits` is the modulus size —
/// use small sizes in tests (co-simulation executes every limb
/// operation cycle-accurately). With a cache, both platforms'
/// encrypt/decrypt co-simulations are one measurement unit
/// (`table1:rsa`, values `[enc_base, dec_base, enc_opt, dec_opt]`).
///
/// # Errors
///
/// Returns [`RsaError`] if a co-simulated operation fails (a
/// platform defect, not a data-dependent condition); never on a cache
/// hit.
pub fn measure_rsa(
    config: &CpuConfig,
    bits: usize,
    cache: Option<&KCache>,
) -> Result<(RsaRow, RsaRow), RsaError> {
    let measure = || -> Result<Vec<f64>, RsaError> {
        let mut rng = StdRng::seed_from_u64(0x45A);
        let kp = KeyPair::generate(bits, &mut rng);
        let msg = Natural::random_below(&mut rng, &kp.public.n);

        let run = |variant: KernelVariant, cfg: &ModExpConfig| -> Result<(f64, f64), RsaError> {
            let mut iss = IssMpn::with_variant(config.clone(), variant);
            iss.set_verify(false);
            let mut cache = ExpCache::new();
            // Prime the cache (CacheMode::None configs ignore it), then
            // measure one encrypt and one decrypt.
            let ct = kp.public.encrypt_raw(&mut iss, &msg, cfg, &mut cache)?;
            MpnOps::<u32>::reset(&mut iss);
            let ct2 = kp.public.encrypt_raw(&mut iss, &msg, cfg, &mut cache)?;
            assert_eq!(ct, ct2);
            let enc = MpnOps::<u32>::cycles(&iss);

            let pt = kp.private.decrypt_raw(&mut iss, &ct, cfg, &mut cache)?;
            assert_eq!(pt, msg, "RSA roundtrip on the simulator");
            MpnOps::<u32>::reset(&mut iss);
            kp.private.decrypt_raw(&mut iss, &ct, cfg, &mut cache)?;
            let dec = MpnOps::<u32>::cycles(&iss);
            Ok((enc, dec))
        };

        let (enc_base, dec_base) = run(KernelVariant::Base, &ModExpConfig::baseline())?;
        let (enc_opt, dec_opt) = run(
            KernelVariant::Accelerated {
                add_lanes: 16,
                mac_lanes: 4,
            },
            &ModExpConfig::optimized(),
        )?;
        Ok(vec![enc_base, dec_base, enc_opt, dec_opt])
    };
    let v = match cache {
        Some(kc) => {
            let key = kcache::key(
                config.fingerprint(),
                "iss",
                "table1:rsa",
                bits as u64,
                0x45A,
            );
            kc.try_get_or_compute(&key, 4, measure)?
        }
        None => measure()?,
    };
    Ok((
        RsaRow {
            name: "RSA enc.",
            base_cycles: v[0],
            opt_cycles: v[2],
        },
        RsaRow {
            name: "RSA dec.",
            base_cycles: v[1],
            opt_cycles: v[3],
        },
    ))
}

/// The full Table 1: symmetric rows plus RSA rows, with a text
/// renderer.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// DES / 3DES / AES rows.
    pub symmetric: Vec<SymmetricRow>,
    /// RSA encrypt/decrypt rows.
    pub rsa: Vec<RsaRow>,
    /// RSA modulus size measured.
    pub rsa_bits: usize,
}

impl Table1 {
    /// Measures everything. `blocks` controls symmetric averaging;
    /// `rsa_bits` the modulus size. The four independent measurement
    /// units (DES, 3DES, AES, RSA) run in parallel on `pool`, each
    /// optionally served from the kernel-cycle cache. The table is
    /// identical for any thread count and cache state.
    pub fn measure(
        config: &CpuConfig,
        blocks: usize,
        rsa_bits: usize,
        pool: &Pool,
        cache: Option<&KCache>,
    ) -> Self {
        let units = [0usize, 1, 2, 3];
        let rows = pool.par_map(&units, |_, &u| match u {
            0 => (vec![measure_des(config, blocks, cache)], vec![]),
            1 => (vec![measure_tdes(config, blocks, cache)], vec![]),
            2 => (vec![measure_aes(config, blocks, cache)], vec![]),
            _ => {
                let (enc, dec) = measure_rsa(config, rsa_bits, cache)
                    .expect("RSA co-simulation is infallible on the bundled platforms");
                (vec![], vec![enc, dec])
            }
        });
        let (symmetric, rsa): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        Table1 {
            symmetric: symmetric.concat(),
            rsa: rsa.concat(),
            rsa_bits,
        }
    }

    /// Serializes the table for a structured run report: one object per
    /// row with base/optimized costs and the speedup factor.
    pub fn to_json(&self) -> xobs::Json {
        let mut symmetric = Vec::new();
        for row in &self.symmetric {
            symmetric.push(
                xobs::Json::obj()
                    .set("name", row.name)
                    .set("base_cycles_per_byte", row.base_cpb)
                    .set("opt_cycles_per_byte", row.opt_cpb)
                    .set("speedup", row.speedup()),
            );
        }
        let mut rsa = Vec::new();
        for row in &self.rsa {
            rsa.push(
                xobs::Json::obj()
                    .set("name", row.name)
                    .set("base_cycles", row.base_cycles)
                    .set("opt_cycles", row.opt_cycles)
                    .set("speedup", row.speedup()),
            );
        }
        xobs::Json::obj()
            .set("rsa_bits", self.rsa_bits as u64)
            .set("symmetric", symmetric)
            .set("rsa", rsa)
    }

    /// Renders the table in the paper's format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("algorithm        | original (cyc/B) | final (cyc/B) | speedup\n");
        out.push_str("-----------------+------------------+---------------+--------\n");
        for row in &self.symmetric {
            out.push_str(&format!(
                "{:<16} | {:>16.1} | {:>13.1} | {:>6.1}X\n",
                row.name,
                row.base_cpb,
                row.opt_cpb,
                row.speedup()
            ));
        }
        out.push_str(&format!("-- RSA-{} (cycles/op) --\n", self.rsa_bits));
        for row in &self.rsa {
            out.push_str(&format!(
                "{:<16} | {:>16.3e} | {:>13.3e} | {:>6.1}X\n",
                row.name,
                row.base_cycles,
                row.opt_cycles,
                row.speedup()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_row_shape_matches_paper() {
        let row = measure_des(&CpuConfig::default(), 5, None);
        // Paper: 476.8 -> 15.4 (31.0X). Our shape: hundreds of c/B base,
        // tens optimized, speedup in the tens.
        assert!(row.base_cpb > 150.0, "base {:.1}", row.base_cpb);
        assert!(row.opt_cpb < 60.0, "opt {:.1}", row.opt_cpb);
        assert!(
            row.speedup() > 8.0 && row.speedup() < 80.0,
            "speedup {:.1}",
            row.speedup()
        );
    }

    #[test]
    fn tdes_costs_about_three_des() {
        let des = measure_des(&CpuConfig::default(), 4, None);
        let tdes = measure_tdes(&CpuConfig::default(), 4, None);
        let ratio = tdes.base_cpb / des.base_cpb;
        assert!(ratio > 2.5 && ratio < 3.5, "3DES/DES ratio {ratio:.2}");
        assert!(tdes.speedup() > 8.0);
    }

    #[test]
    fn aes_row_shape_matches_paper() {
        let row = measure_aes(&CpuConfig::default(), 4, None);
        assert!(row.base_cpb > 100.0, "base {:.1}", row.base_cpb);
        assert!(
            row.speedup() > 5.0 && row.speedup() < 60.0,
            "speedup {:.1}",
            row.speedup()
        );
    }

    #[test]
    fn rsa_rows_decrypt_gains_more_than_encrypt() {
        // Small modulus keeps co-simulation fast in tests.
        let (enc, dec) = measure_rsa(&CpuConfig::default(), 128, None).unwrap();
        assert!(enc.speedup() > 2.0, "enc speedup {:.1}", enc.speedup());
        assert!(dec.speedup() > 5.0, "dec speedup {:.1}", dec.speedup());
        assert!(
            dec.speedup() > enc.speedup(),
            "CRT + windowing favor decryption: dec {:.1} vs enc {:.1}",
            dec.speedup(),
            enc.speedup()
        );
    }

    #[test]
    fn pooled_table_matches_serial_and_warms_to_full_hits() {
        let cfg = CpuConfig::default();
        let kc = KCache::new();
        let a = Table1::measure(&cfg, 3, 64, &Pool::new(1), None);
        let b = Table1::measure(&cfg, 3, 64, &Pool::new(4), Some(&kc));
        let c = Table1::measure(&cfg, 3, 64, &Pool::new(4), Some(&kc));
        assert_eq!(kc.misses(), 4, "four cold units");
        assert_eq!(kc.hits(), 4, "warm re-run serves every unit");
        assert_eq!(kc.hit_rate(), 0.5);
        for (x, y, z) in a
            .symmetric
            .iter()
            .zip(&b.symmetric)
            .zip(&c.symmetric)
            .map(|((x, y), z)| (x, y, z))
        {
            assert_eq!(x.base_cpb, y.base_cpb, "{} threads", x.name);
            assert_eq!(x.opt_cpb, z.opt_cpb, "{} warm", x.name);
        }
        for (x, y) in a.rsa.iter().zip(&c.rsa) {
            assert_eq!(x.base_cycles, y.base_cycles, "{}", x.name);
            assert_eq!(x.opt_cycles, y.opt_cycles, "{}", x.name);
        }
    }

    #[test]
    fn render_includes_all_rows() {
        let t = Table1 {
            symmetric: vec![SymmetricRow {
                name: "DES enc./dec.",
                base_cpb: 476.8,
                opt_cpb: 15.4,
            }],
            rsa: vec![RsaRow {
                name: "RSA dec.",
                base_cycles: 1.2658e10,
                opt_cycles: 1.9078e8,
            }],
            rsa_bits: 1024,
        };
        let text = t.render();
        assert!(text.contains("DES enc./dec."));
        assert!(text.contains("31.0X"));
        assert!(text.contains("66.3X") || text.contains("66.4X"));
    }
}
