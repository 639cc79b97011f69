//! Pins the resilience log of every ISS-backed flow step under one
//! fixed fault campaign.
//!
//! Characterization, the A-D curves, the Fig. 4 leaves, co-simulation
//! and ad-hoc kernel measurements each retry, fall back and quarantine
//! through the flow's resilience protocol. [`flow_digest`] runs all of
//! them on one context and folds every recorded degradation, the
//! quarantine set and every returned cycle count into one FNV-1a
//! digest, which must equal the pinned value at 1 and 4 worker
//! threads. A failure here means a fault-path outcome changed, never a
//! reason to re-pin the value.

use kreg::{id, KernelError};
use macromodel::charact::CharactOptions;
use pubkey::space::{CacheMode, CrtMode, ModExpConfig, Radix};
use pubkey::MulAlgo;
use secproc::flow::{Degradation, FlowBuilder};
use secproc::issops::KernelVariant;
use xfault::{FaultPolicy, PlanSpec};
use xpar::Pool;
use xr32::config::CpuConfig;

/// The digest of [`flow_digest`], computed before the flow's ISS
/// measurement units shared one retry loop.
const PINNED: u64 = 0xa152_3700_c658_8006;

/// FNV-1a over the bytes of every folded item.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    fn cycles(&mut self, c: f64) {
        self.bytes(&c.to_bits().to_le_bytes());
    }
}

/// `deg` as the digest folds it: its compact report object, with the
/// retry seeds as bare integers rather than the report's decimal
/// strings, the form the pinned digest was taken with.
fn folded(deg: Degradation) -> String {
    let seeds: Vec<String> = deg.retry_seeds.iter().map(u64::to_string).collect();
    let bare = Degradation {
        retry_seeds: Vec::new(),
        ..deg
    };
    bare.to_json().to_string_compact().replacen(
        "\"retry_seeds\":[]",
        &format!("\"retry_seeds\":[{}]", seeds.join(",")),
        1,
    )
}

/// Runs every ISS-backed step on one faulted context at `threads`
/// workers and returns the digest of what it recorded and returned.
fn flow_digest(threads: usize) -> u64 {
    let cfg = CpuConfig::default();
    let pool = Pool::new(threads);
    let plan = PlanSpec::all_sites(11, 2_000);
    let faulted = || {
        FlowBuilder::new(&cfg)
            .pool(&pool)
            .fault_policy(FaultPolicy {
                cycle_budget: 1_000_000,
                ..FaultPolicy::with_plan(plan)
            })
            .build()
            .unwrap()
    };
    let ctx = faulted();
    let mut d = Digest(0xcbf2_9ce4_8422_2325);

    let opts = CharactOptions {
        train_samples: 12,
        validation_points: 5,
    };
    let models = ctx.characterize(8, &opts);
    for (name, model) in models.models32.iter().chain(&models.models16) {
        d.str(name);
        for n in 1..=8u64 {
            d.cycles(model.predict(&[n]));
        }
    }
    let curves = |d: &mut Digest| {
        for curve in ctx.curves(8).values() {
            for p in curve.points() {
                d.cycles(p.cycles);
            }
        }
    };
    curves(&mut d);
    let graph = ctx.fig4_graph(8);
    for leaf in [id::ADD_N, id::ADDMUL_1] {
        d.cycles(graph.local_cycles(leaf.name()));
    }
    let measure = |d: &mut Digest, c: Result<f64, KernelError>| match c {
        Ok(c) => d.cycles(c),
        Err(KernelError::Quarantined { failures, .. }) => d.str(&format!("q{failures}")),
        Err(e) => panic!("fault-free failure: {e}"),
    };
    // Large enough that every injected attempt fails: the kernel's
    // failed units reach the quarantine threshold, after which it is
    // refused.
    for _ in 0..3 {
        let c = ctx.measure_kernel_cycles(KernelVariant::Base, id::ADD_N, 8192, 7, 8);
        measure(&mut d, c);
    }
    // A quarantined kernel degrades the later steps.
    curves(&mut d);
    let candidates = [
        ModExpConfig::optimized(),
        ModExpConfig {
            mul: MulAlgo::Montgomery,
            window: 4,
            crt: CrtMode::None,
            radix: Radix::R16,
            cache: CacheMode::Context,
        },
    ];
    d.cycles(ctx.cosimulate(&models, &candidates[0], 64, 4.0).unwrap());

    // On a context with nothing quarantined, co-simulation and ad-hoc
    // measurements retry and fall back through the protocol.
    let fresh = faulted();
    for candidate in &candidates {
        d.cycles(fresh.cosimulate(&models, candidate, 64, 4.0).unwrap());
    }
    for kernel in id::MPN {
        let c = fresh.measure_kernel_cycles(KernelVariant::Base, kernel, 64, 7, 8);
        measure(&mut d, c);
    }

    for c in [&ctx, &fresh] {
        for deg in c.degradations() {
            d.str(&folded(deg));
        }
        for kernel in c.quarantined() {
            d.str(&kernel);
        }
    }
    d.0
}

#[test]
fn resilience_log_matches_the_pinned_digest_at_1_and_4_threads() {
    for threads in [1, 4] {
        let got = flow_digest(threads);
        assert_eq!(got, PINNED, "threads={threads}: digest {got:#018x}");
    }
}
