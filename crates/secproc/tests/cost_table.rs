//! The call memo's cost table times `div_qhat` without the in-order
//! timing model, and replays a call whose inputs an earlier tabled call
//! had from that call's record. The walk must prove every bundled
//! library's `div_qhat` on the default core, and a tabled or replayed
//! call must leave every cycle, register, retired count, cache
//! statistic and later hit or miss exactly where the plain model leaves
//! it — on every core configuration, the ones the walk rejects
//! included.

use kreg::kernels::mpn as kmpn;
use kreg::KernelVariant;
use mpint::mpn::div_qhat_reference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secproc::insns::mpn_extension_set;
use std::collections::BTreeSet;
use xobs::trace::{TraceEvent, VecSink};
use xr32::cpu::RunSummary;
use xr32::xcore::memo::cost_table_proves;
use xr32::xcore::{CallMemo, MemoStats};
use xr32::{assemble, CacheConfig, Cpu, CpuConfig, ExtensionSet, Program};

/// A library: its source, limb width and extension set.
struct Library {
    name: String,
    source: String,
    bits: u32,
    ext: ExtensionSet,
}

/// The base 32-bit library, two accelerated ones (`div_qhat` sits at
/// other pcs and I-lines in each) and the base 16-bit library.
fn libraries() -> Vec<Library> {
    let accel = |add_lanes, mac_lanes| Library {
        name: format!("accel32-a{add_lanes}m{mac_lanes}"),
        source: kmpn::accel32_source(add_lanes, mac_lanes),
        bits: 32,
        ext: mpn_extension_set(add_lanes, mac_lanes),
    };
    vec![
        Library {
            name: "base32".into(),
            source: kmpn::base32_source(),
            bits: 32,
            ext: ExtensionSet::new(),
        },
        accel(2, 1),
        accel(16, 4),
        Library {
            name: "base16".into(),
            source: kmpn::base16_source(),
            bits: 16,
            ext: ExtensionSet::new(),
        },
    ]
}

#[test]
fn the_walk_proves_div_qhat_in_every_bundled_library() {
    let config = CpuConfig::default();
    let mut sources: Vec<String> = KernelVariant::ALL
        .iter()
        .map(|variant| match *variant {
            KernelVariant::Base => kmpn::base32_source(),
            KernelVariant::Accelerated {
                add_lanes,
                mac_lanes,
            } => kmpn::accel32_source(add_lanes, mac_lanes),
        })
        .collect();
    sources.push(kmpn::base16_source());
    for source in &sources {
        let prog = assemble(source).unwrap();
        let entry = prog.label("div_qhat").unwrap();
        assert!(cost_table_proves(&prog, entry, &config));
        for other in ["mpn_add_n", "mpn_addmul_1", "mpn_lshift"] {
            let entry = prog.label(other).unwrap();
            assert!(!cost_table_proves(&prog, entry, &config), "{other}");
        }
    }
}

/// Loads through a table of addresses: its traced D-cache stream shows
/// every later hit and miss.
const WALK: &str = "
walk:                      ; a0=table a1=count
    movi a6, 0
.walk_loop:
    lw   a4, a0, 0
    lw   a5, a4, 0
    addi a0, a0, 4
    addi a1, a1, -1
    bne  a1, a6, .walk_loop
    ret
";

const RP: u32 = 0x1000;
const AP: u32 = 0x2000;
const BP: u32 = 0x3000;
const TABLE: u32 = 0x4000;

/// One library on a core with `div_qhat` declared register-only and on
/// a plain core, checked equal after every call.
struct Pair {
    lib: Program,
    walk: Program,
    memo: Cpu,
    plain: Cpu,
    bits: u32,
}

impl Pair {
    fn new(library: &Library, config: &CpuConfig) -> Self {
        let lib = assemble(&library.source).unwrap();
        let mut memo = Cpu::with_extensions(config.clone(), library.ext.clone());
        let mut table = CallMemo::new();
        table.declare_register_only(&lib, lib.label("div_qhat").unwrap());
        memo.set_call_memo(Some(table));
        Pair {
            walk: assemble(WALK).unwrap(),
            plain: Cpu::with_extensions(config.clone(), library.ext.clone()),
            memo,
            lib,
            bits: library.bits,
        }
    }

    fn stats(&self) -> MemoStats {
        self.memo.call_memo().unwrap().stats()
    }

    /// Calls `label` of the library (or of the walk) on both cores,
    /// each with its own sink when `traced`, and checks they agree, in
    /// error too.
    fn call(&mut self, walk: bool, label: &str, args: &[u32], traced: bool) -> Option<RunSummary> {
        let prog = if walk { &self.walk } else { &self.lib };
        let entry = prog.label(label).unwrap();
        let (mut m_sink, mut p_sink) = (VecSink::new(), VecSink::new());
        let (m, p) = if traced {
            let m = self
                .memo
                .call_at(prog, entry, label, args, Some(&mut m_sink));
            let p = self
                .plain
                .call_at(prog, entry, label, args, Some(&mut p_sink));
            (m, p)
        } else {
            let m = self.memo.call_at(prog, entry, label, args, None);
            (m, self.plain.call_at(prog, entry, label, args, None))
        };
        let summary = |s: &RunSummary| (s.cycles, s.instructions, s.classes, s.icache, s.dcache);
        assert_eq!(
            m.as_ref().map(summary),
            p.as_ref().map(summary),
            "{label} {args:x?}"
        );
        assert_eq!(self.memo.cycles(), self.plain.cycles(), "{label}");
        for i in 0..16 {
            assert_eq!(self.memo.reg(i), self.plain.reg(i), "{label}: a{i}");
        }
        assert_eq!(self.memo.retired(), self.plain.retired());
        assert_eq!(m_sink.events(), p_sink.events(), "traced {label}");
        m.ok()
    }

    fn write(&mut self, addr: u32, words: &[u32]) {
        for cpu in [&mut self.memo, &mut self.plain] {
            cpu.mem_mut().write_words(addr, words).unwrap();
        }
    }

    /// `div_qhat` on `args`; checks the quotient against the
    /// reference. Returns the instruction count, or `None` if the call
    /// failed.
    fn div_qhat(&mut self, args: [u32; 5], traced: bool) -> Option<u64> {
        let summary = self.call(false, "div_qhat", &args, traced)?;
        assert_eq!(self.memo.reg(0), reference(self.bits, args), "{args:x?}");
        Some(summary.instructions)
    }

    /// `mpn_add_n` over `n` limbs: other code through the I-cache.
    fn add_n(&mut self, rng: &mut StdRng, n: u32) {
        let words: Vec<u32> = (0..2 * n).map(|_| rng.random()).collect();
        self.write(AP, &words[..n as usize]);
        self.write(BP, &words[n as usize..]);
        self.call(false, "mpn_add_n", &[RP, AP, BP, n], false);
    }

    /// A traced walk over `count` random words near the operands.
    fn walk(&mut self, rng: &mut StdRng, count: usize) {
        let targets: Vec<u32> = (0..count)
            .map(|_| RP + 4 * rng.random_range(0..0x1000u32))
            .collect();
        self.write(TABLE, &targets);
        self.call(true, "walk", &[TABLE, count as u32], true);
    }
}

/// `div_qhat`'s operands `[n2, n1, n0, d1, d0]` of `bits`-bit limbs,
/// of input class `case`: 0 the clamp (`n2 == d1`), 1 a low divisor
/// limb and numerator limb that make the first estimate too big, 2 no
/// correction at all (`d0 == 0`), else random.
fn operands(rng: &mut StdRng, bits: u32, case: u32) -> [u32; 5] {
    let mask = u32::MAX >> (32 - bits);
    let mut limb = || rng.random::<u32>() & mask;
    let d1 = limb() | 1 << (bits - 1);
    let n2 = match case {
        0 => d1,
        _ => limb() % d1,
    };
    let (n1, n0, d0) = (limb(), limb(), limb());
    match case {
        1 => [n2, n1, 0, d1, mask],
        2 => [n2, n1, n0, d1, 0],
        _ => [n2, n1, n0, d1, d0],
    }
}

/// The host's quotient estimate for `operands` of `bits`-bit limbs.
fn reference(bits: u32, [n2, n1, n0, d1, d0]: [u32; 5]) -> u32 {
    match bits {
        32 => div_qhat_reference::<u32>(n2, n1, n0, d1, d0),
        _ => {
            let h = |v: u32| v as u16;
            u32::from(div_qhat_reference::<u16>(h(n2), h(n1), h(n0), h(d1), h(d0)))
        }
    }
}

#[test]
fn tabled_div_qhat_calls_equal_the_plain_model() {
    let cache = |size_bytes, line_bytes, ways| CacheConfig {
        size_bytes,
        line_bytes,
        ways,
    };
    let configs = [
        CpuConfig::default(),
        CpuConfig {
            mul_latency: 4,
            branch_penalty: 1,
            icache: cache(512, 16, 2),
            ..CpuConfig::default()
        },
        CpuConfig {
            mul_latency: 8,
            icache: cache(1024, 32, 1),
            ..CpuConfig::default()
        },
        CpuConfig {
            mul_latency: 3,
            branch_penalty: 0,
            icache: cache(256, 8, 4),
            ..CpuConfig::default()
        },
        // `div_qhat`'s multiply fails on this core: the walk rejects
        // it, and every call fails alike on the plain model.
        CpuConfig {
            has_mul: false,
            icache: cache(512, 16, 2),
            ..CpuConfig::default()
        },
    ];
    for (c, config) in configs.iter().enumerate() {
        for library in libraries() {
            let mut pair = Pair::new(&library, config);
            let entry = pair.lib.label("div_qhat").unwrap();
            let proven = cost_table_proves(&pair.lib, entry, config);
            assert_eq!(proven, config.has_mul, "{} on config {c}", library.name);
            let mut rng = StdRng::seed_from_u64(c as u64);
            let mut paths = BTreeSet::new();
            // The operand sets of earlier calls, which later calls repeat.
            let mut used = Vec::new();
            for _ in 0..300 {
                match rng.random_range(0..14) {
                    0..=5 => {
                        let case = rng.random_range(0..4);
                        let args = operands(&mut rng, pair.bits, case);
                        used.push(args);
                        paths.extend(pair.div_qhat(args, false));
                    }
                    6..=8 if !used.is_empty() => {
                        let args = used[rng.random_range(0..used.len())];
                        pair.div_qhat(args, false);
                    }
                    9..=10 => {
                        let n = rng.random_range(1..6);
                        pair.add_n(&mut rng, n);
                    }
                    11..=12 => {
                        let count = rng.random_range(1..8);
                        pair.walk(&mut rng, count);
                    }
                    _ => {
                        let args = operands(&mut rng, pair.bits, 3);
                        pair.div_qhat(args, true);
                    }
                }
            }
            let what = format!("{} on config {c}", library.name);
            let stats = pair.stats();
            assert_eq!(stats.tabled > 0, proven, "{what}: {stats:?}");
            assert_eq!(stats.replays > 0, proven, "{what}: {stats:?}");
            assert_eq!(paths.len() > 4, proven, "{what}: {paths:?}");
            pair.walk(&mut rng, 32);
            let args = operands(&mut rng, pair.bits, 3);
            pair.div_qhat(args, true);
        }
    }
}

/// The pcs a traced plain run of `div_qhat` retires over 40 operand
/// sets of class `case`.
fn retired_pcs(library: &Library, case: u32) -> BTreeSet<u32> {
    let lib = assemble(&library.source).unwrap();
    let entry = lib.label("div_qhat").unwrap();
    let mut cpu = Cpu::with_extensions(CpuConfig::default(), library.ext.clone());
    let mut rng = StdRng::seed_from_u64(9);
    let mut sink = VecSink::new();
    for _ in 0..40 {
        let args = operands(&mut rng, library.bits, case);
        cpu.call_at(&lib, entry, "div_qhat", &args, Some(&mut sink))
            .unwrap();
        assert_eq!(cpu.reg(0), reference(library.bits, args), "{args:x?}");
    }
    let retired = sink.events().iter().filter_map(|e| match e {
        TraceEvent::Retire { pc, .. } => Some(*pc),
        _ => None,
    });
    retired.collect()
}

/// The clamp and the too-big classes reach code that calls needing no
/// correction never reach.
#[test]
fn the_input_classes_reach_the_clamp_and_correction_paths() {
    for library in libraries() {
        let plain = retired_pcs(&library, 2);
        for (case, what) in [(0, "the clamp"), (1, "a too-big estimate")] {
            let pcs = retired_pcs(&library, case);
            assert!(!pcs.is_subset(&plain), "{}: {what}", library.name);
        }
    }
}
