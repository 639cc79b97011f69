//! Property tests for the core-model contract: out-of-order execution
//! ([`wsp::xr32::xcore`]) reorders *timing*, never *results*. The
//! scoreboarded out-of-order pipeline, the in-order pipeline and the
//! pre-decoded fast path must be architecturally indistinguishable —
//! same final registers, same whole-memory digest, same
//! retired-instruction count — over random stimuli drawn from the kreg
//! stimulus spaces, at every accelerator level (so custom-instruction
//! latencies flow through the scoreboard too), and a divergence must
//! surface as the same typed [`wsp::kreg::KernelError`] stream on
//! every engine, never a panic.

use proptest::prelude::*;
use wsp::kreg::{self, id, KernelError, LibKind};
use wsp::secproc::issops::{ArchState, IssMpn, KernelVariant};
use wsp::xr32::config::CpuConfig;
use wsp::xr32::{ExtensionSet, Fidelity};

/// Every accelerator level the A-D curves measure, plus the base core:
/// each core model must agree under the custom instructions of each.
const LEVELS: [KernelVariant; 5] = [
    KernelVariant::Base,
    KernelVariant::Accelerated {
        add_lanes: 2,
        mac_lanes: 1,
    },
    KernelVariant::Accelerated {
        add_lanes: 4,
        mac_lanes: 2,
    },
    KernelVariant::Accelerated {
        add_lanes: 8,
        mac_lanes: 4,
    },
    KernelVariant::Accelerated {
        add_lanes: 16,
        mac_lanes: 4,
    },
];

/// Drives every register-convention kernel in the registry at both
/// radices and returns the end-of-sweep architectural state pair.
fn sweep(
    config: &CpuConfig,
    variant: KernelVariant,
    fidelity: Fidelity,
    n: usize,
    seed: u64,
) -> (ArchState, ArchState) {
    let mut iss = IssMpn::with_variant(config.clone(), variant);
    iss.set_fidelity(fidelity);
    for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
        iss.verify32(desc.id, n, seed)
            .unwrap_or_else(|e| panic!("{} r32 under {variant:?}: {e}", desc.id));
        iss.verify16(desc.id, n, seed)
            .unwrap_or_else(|e| panic!("{} r16 under {variant:?}: {e}", desc.id));
    }
    assert!(
        iss.take_kernel_errors().is_empty(),
        "sweep under {variant:?} must be divergence-free"
    );
    (iss.arch_state32(), iss.arch_state16())
}

// Each case sweeps the whole registry on three engines at five levels;
// keep the case count low.
fn config() -> ProptestConfig {
    ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(config())]

    /// In-order, out-of-order and fast-path execution agree bit-for-bit
    /// on final registers, memory digest and retired count over random
    /// kreg stimuli, at every accelerator level.
    #[test]
    fn all_core_models_agree_at_every_level(
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let io = CpuConfig::default();
        let ooo = CpuConfig::ooo();
        for variant in LEVELS {
            let reference = sweep(&io, variant, Fidelity::CycleAccurate, n, seed);
            prop_assert_eq!(
                &sweep(&ooo, variant, Fidelity::CycleAccurate, n, seed),
                &reference,
                "out-of-order vs in-order, variant {:?}", variant
            );
            prop_assert_eq!(
                &sweep(&io, variant, Fidelity::Fast, n, seed),
                &reference,
                "fast path vs in-order, variant {:?}", variant
            );
        }
    }

    /// A wrong kernel driven with verification on is reported as the
    /// same typed divergence stream on every engine — the checker sits
    /// above the core model — never a panic.
    #[test]
    fn divergence_streams_agree_across_core_models(seed in any::<u64>()) {
        // "add" that drops the carry chain: wrong for carrying inputs.
        let wrong = "
;! entry mpn_add_n inputs=a0-a3 secret-ptr=a1,a2
mpn_add_n:
    movi a6, 0
.lp:
    lw   a4, a1, 0
    lw   a5, a2, 0
    add  a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a1, a1, 4
    addi a2, a2, 4
    addi a3, a3, -1
    bne  a3, a6, .lp
    movi a0, 0
    ret
";
        let run = |config: &CpuConfig, fidelity: Fidelity| {
            let mut iss =
                IssMpn::with_library(config.clone(), wrong, ExtensionSet::new());
            iss.set_fidelity(fidelity);
            // 8 limbs of random data virtually always carry somewhere.
            let result = iss.verify32(id::ADD_N, 8, seed);
            (result, iss.take_kernel_errors())
        };
        let (io_result, io_errors) = run(&CpuConfig::default(), Fidelity::CycleAccurate);
        let (ooo_result, ooo_errors) = run(&CpuConfig::ooo(), Fidelity::CycleAccurate);
        let (fast_result, fast_errors) = run(&CpuConfig::default(), Fidelity::Fast);
        prop_assert_eq!(&ooo_errors, &io_errors, "error streams must agree (ooo)");
        prop_assert_eq!(&fast_errors, &io_errors, "error streams must agree (fast)");
        prop_assert_eq!(&ooo_result, &io_result);
        prop_assert_eq!(&fast_result, &io_result);
        if let Err(e) = io_result {
            prop_assert!(matches!(e, KernelError::Divergence { .. }), "{}", e);
            prop_assert!(!io_errors.is_empty());
        }
    }
}

// --- Golden timing -------------------------------------------------------
//
// The property tests above pin *architectural* agreement. The tests
// below pin *timing*: every cycle, class count and cache hit/miss of a
// fixed kernel workload on both core models, the trace-event stream of
// one traced workload per core, and the outcome of one fault-injected
// workload per core. The expected digests were generated once and must
// never move: an engine refactor that changes a single cycle, event or
// fault draw fails here.

mod golden {
    use wsp::kreg::kernels::mpn;
    use wsp::kreg::{self, id, KernelId, LibKind};
    use wsp::secproc::insns::mpn_extension_set;
    use wsp::xr32::asm::{assemble, Program};
    use wsp::xr32::config::CpuConfig;
    use wsp::xr32::{Cpu, ExtensionSet, Fidelity, RunSummary};
    use xfault::{FaultSite, PlanSpec};

    const RP: u32 = 0x1000;
    const AP: u32 = 0x40000;
    const BP: u32 = 0x80000;

    /// The accelerator levels pinned: the base core and one mid-range
    /// accelerated configuration.
    const ACCEL: (u32, u32) = (4, 2);

    /// FNV-1a over little-endian words.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }

        fn bytes(&mut self, s: &[u8]) {
            self.word(s.len() as u64);
            for &b in s {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }

        fn summary(&mut self, s: &RunSummary) {
            let c = s.classes;
            for v in [
                s.cycles,
                s.instructions,
                c.alu,
                c.mem,
                c.control,
                c.mul,
                c.custom,
                s.icache.hits,
                s.icache.misses,
                s.dcache.hits,
                s.dcache.misses,
            ] {
                self.word(v);
            }
        }
    }

    /// A core running one radix side of a kernel library.
    struct Side {
        cpu: Cpu,
        prog: Program,
        radix: u32,
    }

    /// The 32-bit side (at the given accelerator level, `None` for the
    /// base library) and the 16-bit base side.
    fn sides(config: &CpuConfig, accel: Option<(u32, u32)>) -> [Side; 2] {
        let (src32, ext) = match accel {
            None => (mpn::base32_source(), ExtensionSet::new()),
            Some((a, m)) => (mpn::accel32_source(a, m), mpn_extension_set(a, m)),
        };
        [
            Side {
                cpu: Cpu::with_extensions(config.clone(), ext),
                prog: assemble(&src32).unwrap(),
                radix: 32,
            },
            Side {
                cpu: Cpu::new(config.clone()),
                prog: assemble(&mpn::base16_source()).unwrap(),
                radix: 16,
            },
        ]
    }

    fn mpn_kernels() -> Vec<KernelId> {
        kreg::registry()
            .iter()
            .filter(|d| d.lib == LibKind::Mpn)
            .map(|d| d.id)
            .collect()
    }

    /// Writes deterministic operands for one call of `kernel` on `n`
    /// limbs into the side's memory and returns the register arguments
    /// (the `IssMpn` calling conventions).
    fn stage(side: &mut Side, kernel: KernelId, n: usize, state: &mut u64) -> Vec<u32> {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 32) as u32
        };
        let (bytes, mask, top) = match side.radix {
            32 => (4, u32::MAX, 0x8000_0000),
            _ => (2, 0xffff, 0x8000),
        };
        let fill = |cpu: &mut Cpu, at: u32, next: &mut dyn FnMut() -> u32| {
            for i in 0..n as u32 {
                let v = next() & mask;
                let m = cpu.mem_mut();
                if bytes == 4 {
                    m.store_u32(at + 4 * i, v).unwrap();
                } else {
                    m.store_u16(at + 2 * i, v as u16).unwrap();
                }
            }
        };
        let n32 = n as u32;
        match kernel {
            id::ADD_N | id::SUB_N => {
                fill(&mut side.cpu, AP, &mut next);
                fill(&mut side.cpu, BP, &mut next);
                vec![RP, AP, BP, n32]
            }
            id::MUL_1 | id::ADDMUL_1 | id::SUBMUL_1 => {
                fill(&mut side.cpu, AP, &mut next);
                fill(&mut side.cpu, RP, &mut next);
                vec![RP, AP, n32, next() & mask]
            }
            id::LSHIFT | id::RSHIFT => {
                fill(&mut side.cpu, AP, &mut next);
                vec![RP, AP, n32, next() % (side.radix - 1) + 1]
            }
            id::DIV_QHAT => {
                let d1 = (next() & mask) | top;
                let d0 = next() & mask;
                let n2 = (next() & mask) % d1;
                vec![n2, next() & mask, next() & mask, d1, d0]
            }
            other => panic!("no calling convention for {other}"),
        }
    }

    /// Digest of every `RunSummary` of the pinned kernel workload (all
    /// register-convention mpn kernels at n in {1, 8, 64}, both radices)
    /// on one persistent core per radix.
    fn workload_digest(config: &CpuConfig, accel: Option<(u32, u32)>) -> (u64, u64) {
        let mut h = Fnv::new();
        let mut cycles = 0;
        for mut side in sides(config, accel) {
            let mut state = 0x601d_u64;
            for n in [1, 8, 64] {
                for kernel in mpn_kernels() {
                    let args = stage(&mut side, kernel, n, &mut state);
                    let s = side
                        .cpu
                        .call(&side.prog, kernel.name(), &args)
                        .unwrap_or_else(|e| panic!("{kernel} n={n}: {e}"));
                    h.summary(&s);
                    cycles += s.cycles;
                }
            }
        }
        (h.0, cycles)
    }

    /// Digest of the trace-event stream of the pinned workload at n = 8
    /// on both libraries.
    fn trace_digest(config: &CpuConfig) -> (u64, usize) {
        let mut sink = xobs::VecSink::new();
        for accel in [None, Some(ACCEL)] {
            for mut side in sides(config, accel) {
                let mut state = 0x7ace_u64;
                for kernel in mpn_kernels() {
                    let args = stage(&mut side, kernel, 8, &mut state);
                    side.cpu
                        .call_traced(&side.prog, kernel.name(), &args, Some(&mut sink))
                        .unwrap();
                }
            }
        }
        let mut h = Fnv::new();
        for ev in sink.events() {
            h.bytes(format!("{ev:?}").as_bytes());
        }
        (h.0, sink.events().len())
    }

    /// Outcome of the pinned fault-injected workload: the final
    /// architectural state, per-site fired counts and per-call results
    /// (digest), plus the cycle counter.
    struct Faulted {
        arch: u64,
        fired: [u64; 4],
        cycles: u64,
    }

    fn faulted_run(config: &CpuConfig, fidelity: Fidelity) -> Faulted {
        let [mut side, _] = sides(config, Some(ACCEL));
        side.cpu.set_fidelity(fidelity);
        side.cpu.set_fuel(20_000);
        side.cpu
            .set_fault_plan(PlanSpec::all_sites(0xfa17, 20_000).plan(0));
        let mut h = Fnv::new();
        let mut state = 0xbad_u64;
        for n in [8, 64] {
            for kernel in mpn_kernels() {
                let args = stage(&mut side, kernel, n, &mut state);
                match side.cpu.call(&side.prog, kernel.name(), &args) {
                    Ok(s) => h.word(s.instructions),
                    Err(e) => h.bytes(e.to_string().as_bytes()),
                }
            }
        }
        for r in 0..16 {
            h.word(u64::from(side.cpu.reg(r)));
        }
        h.word(side.cpu.mem().digest());
        h.word(side.cpu.retired());
        let plan = side.cpu.take_fault_plan().unwrap();
        Faulted {
            arch: h.0,
            fired: FaultSite::ALL.map(|s| plan.fired(s)),
            cycles: side.cpu.cycles(),
        }
    }

    #[test]
    fn run_summaries_match_golden_timing() {
        let accel = Some(ACCEL);
        let got = [
            workload_digest(&CpuConfig::default(), None),
            workload_digest(&CpuConfig::default(), accel),
            workload_digest(&CpuConfig::ooo(), None),
            workload_digest(&CpuConfig::ooo(), accel),
        ];
        let want = [
            (2390024171652518212, 19192),
            (10297829815779952252, 16782),
            (17285042818824997510, 8942),
            (7924698241289789556, 7788),
        ];
        assert_eq!(got, want, "io/base, io/accel, ooo/base, ooo/accel");
    }

    #[test]
    fn trace_streams_match_golden() {
        let got = [
            trace_digest(&CpuConfig::default()),
            trace_digest(&CpuConfig::ooo()),
        ];
        let want = [(8434110521398875744, 9056), (16206667453437110423, 4226)];
        assert_eq!(got, want, "io, ooo");
    }

    #[test]
    fn faulted_runs_match_golden() {
        // The plan draws in program order, so the architectural outcome
        // and the fired counts are the same on every engine; only the
        // cycle counter differs between core models.
        let arch = 9125418704515012854;
        let fired = [10, 575, 28, 2];
        for (config, cycles) in [(CpuConfig::default(), 41135), (CpuConfig::ooo(), 15835)] {
            let got = faulted_run(&config, Fidelity::CycleAccurate);
            assert_eq!(
                (got.arch, got.fired, got.cycles),
                (arch, fired, cycles),
                "{}",
                config.core_id()
            );
            let fast = faulted_run(&config, Fidelity::Fast);
            assert_eq!(
                (fast.arch, fast.fired),
                (arch, fired),
                "fast path under the same plan ({})",
                config.core_id()
            );
        }
    }
}
