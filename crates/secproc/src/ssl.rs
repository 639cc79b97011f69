//! The SSL transaction model behind the paper's Fig. 8.
//!
//! An SSL transaction is modeled as the paper describes: a handshake in
//! which "the server and client authenticate each other, using
//! public-key techniques such as RSA", followed by "rapid encryption and
//! decryption of bulk data" under symmetric keys, plus miscellaneous
//! processing (record MACs, protocol bookkeeping) that no custom
//! instruction accelerates. The workload breakup therefore shifts from
//! public-key-dominated (small transactions) to bulk-dominated (large
//! ones), and the overall speedup follows Amdahl's law over the three
//! components.

/// Cycle costs of one platform for the three SSL workload components.
#[derive(Debug, Clone, Copy)]
pub struct SslCostModel {
    /// Public-key cycles per handshake (RSA private-key operation plus
    /// the peer's public-key work attributed to this endpoint).
    pub handshake_cycles: f64,
    /// Symmetric bulk cipher cycles per byte (3DES in the paper's
    /// setup).
    pub bulk_cycles_per_byte: f64,
    /// Miscellaneous cycles per byte (record MACs — SHA-1 here —
    /// fragmentation, copying).
    pub misc_cycles_per_byte: f64,
    /// Fixed miscellaneous cycles per transaction (session setup,
    /// protocol state).
    pub misc_fixed_cycles: f64,
}

/// Workload breakdown of one transaction, in cycles.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Public-key share.
    pub public_key: f64,
    /// Symmetric-cipher share.
    pub symmetric: f64,
    /// Miscellaneous share.
    pub misc: f64,
}

impl Breakdown {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.public_key + self.symmetric + self.misc
    }

    /// Percentage shares `(pk, sym, misc)`.
    fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        (
            100.0 * self.public_key / t,
            100.0 * self.symmetric / t,
            100.0 * self.misc / t,
        )
    }
}

impl SslCostModel {
    /// Cycles of one transaction moving `bytes` of application data.
    pub fn transaction(&self, bytes: u64) -> Breakdown {
        Breakdown {
            public_key: self.handshake_cycles,
            symmetric: self.bulk_cycles_per_byte * bytes as f64,
            misc: self.misc_cycles_per_byte * bytes as f64 + self.misc_fixed_cycles,
        }
    }
}

/// One point of the Fig. 8 series.
#[derive(Debug, Clone, Copy)]
pub struct SslPoint {
    /// Transaction size in bytes.
    pub bytes: u64,
    /// Baseline transaction cycles.
    pub base_cycles: f64,
    /// Optimized transaction cycles.
    pub opt_cycles: f64,
    /// Baseline workload breakdown.
    pub base_breakdown: Breakdown,
}

impl SslPoint {
    /// Transaction speedup at this size.
    pub fn speedup(&self) -> f64 {
        self.base_cycles / self.opt_cycles
    }
}

/// Computes the Fig. 8 speedup series over the given transaction
/// sizes.
pub fn speedup_series(base: &SslCostModel, opt: &SslCostModel, sizes: &[u64]) -> Vec<SslPoint> {
    sizes
        .iter()
        .map(|&bytes| {
            let b = base.transaction(bytes);
            let o = opt.transaction(bytes);
            SslPoint {
                bytes,
                base_cycles: b.total(),
                opt_cycles: o.total(),
                base_breakdown: b,
            }
        })
        .collect()
}

/// Serializes the series for a structured run report: one object per
/// size with cycles, speedup, and the baseline workload breakup.
pub fn series_to_json(points: &[SslPoint]) -> xobs::Json {
    let mut rows = Vec::with_capacity(points.len());
    for p in points {
        let (pk, sym, misc) = p.base_breakdown.percentages();
        rows.push(
            xobs::Json::obj()
                .set("bytes", p.bytes)
                .set("base_cycles", p.base_cycles)
                .set("opt_cycles", p.opt_cycles)
                .set("speedup", p.speedup())
                .set("base_pk_pct", pk)
                .set("base_symmetric_pct", sym)
                .set("base_misc_pct", misc),
        );
    }
    xobs::Json::from(rows)
}

/// Renders the series as the Fig. 8 table: size, breakdown, speedup.
pub fn render_series(points: &[SslPoint]) -> String {
    let mut out = String::from(
        "size (KB) | pub-key % | symmetric % | misc % | speedup\n----------+-----------+-------------+--------+--------\n",
    );
    for p in points {
        let (pk, sym, misc) = p.base_breakdown.percentages();
        out.push_str(&format!(
            "{:>9.0} | {:>9.1} | {:>11.1} | {:>6.1} | {:>6.2}X\n",
            p.bytes as f64 / 1024.0,
            pk,
            sym,
            misc,
            p.speedup()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Models shaped like the paper's platform: the optimized side
    /// accelerates the handshake ~66×, bulk ~34×, and misc not at all.
    fn paper_shaped_models() -> (SslCostModel, SslCostModel) {
        let base = SslCostModel {
            handshake_cycles: 1.2e9,
            bulk_cycles_per_byte: 1400.0,
            misc_cycles_per_byte: 180.0,
            misc_fixed_cycles: 3.0e6,
        };
        let opt = SslCostModel {
            handshake_cycles: base.handshake_cycles / 66.0,
            bulk_cycles_per_byte: base.bulk_cycles_per_byte / 34.0,
            misc_cycles_per_byte: base.misc_cycles_per_byte, // unaccelerated
            misc_fixed_cycles: base.misc_fixed_cycles,
        };
        (base, opt)
    }

    #[test]
    fn small_transactions_are_handshake_dominated() {
        let (base, _) = paper_shaped_models();
        let b = base.transaction(1024);
        let (pk, _, _) = b.percentages();
        assert!(pk > 95.0, "1KB transaction pk share {pk:.1}%");
    }

    #[test]
    fn large_transactions_shift_to_bulk() {
        let (base, _) = paper_shaped_models();
        let small = base.transaction(1024).percentages();
        let large = base.transaction(32 * 1024 * 1024).percentages();
        assert!(large.0 < small.0, "pk share falls with size");
        assert!(large.1 > small.1, "symmetric share grows with size");
    }

    #[test]
    fn speedup_declines_from_pk_factor_toward_amdahl_limit() {
        let (base, opt) = paper_shaped_models();
        let sizes: Vec<u64> = (0..=15).map(|i| 1024u64 << i).collect();
        let series = speedup_series(&base, &opt, &sizes);
        // Monotone decreasing after the handshake stops dominating.
        let first = series.first().unwrap().speedup();
        let last = series.last().unwrap().speedup();
        assert!(
            first > 20.0,
            "small transactions near the pk speedup: {first:.1}"
        );
        assert!(last < 10.0, "large transactions Amdahl-limited: {last:.1}");
        assert!(first > last);
        // The limit is bounded by the unaccelerated misc share.
        let limit = (base.bulk_cycles_per_byte + base.misc_cycles_per_byte)
            / (opt.bulk_cycles_per_byte + opt.misc_cycles_per_byte);
        assert!((last - limit).abs() / limit < 0.35);
    }

    #[test]
    fn render_has_one_row_per_size() {
        let (base, opt) = paper_shaped_models();
        let series = speedup_series(&base, &opt, &[1024, 2048, 4096]);
        let text = render_series(&series);
        assert_eq!(text.lines().count(), 2 + 3);
        assert!(text.contains("speedup"));
    }

    #[test]
    fn json_series_round_trips() {
        let (base, opt) = paper_shaped_models();
        let series = speedup_series(&base, &opt, &[1024, 4096]);
        let json = series_to_json(&series);
        let parsed = xobs::json::parse(&json.to_string_compact()).unwrap();
        let rows = parsed.as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("bytes").unwrap().as_f64(), Some(1024.0));
        assert!(rows[1].get("speedup").unwrap().as_f64().unwrap() > 1.0);
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let (base, _) = paper_shaped_models();
        let (a, b, c) = base.transaction(8192).percentages();
        assert!((a + b + c - 100.0).abs() < 1e-9);
    }
}
