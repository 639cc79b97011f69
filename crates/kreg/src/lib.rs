//! The typed kernel registry shared by all four methodology phases.
//!
//! The paper's methodology — performance characterization, algorithm
//! exploration, custom-instruction formulation, global selection —
//! iterates over *one* set of library kernels. This crate is the single
//! source of truth for that set: each kernel is named by a [`KernelId`]
//! and described by a [`KernelDescriptor`] carrying
//!
//! - the assembly source (via [`kernels`]) and entry symbol,
//! - the ISS calling convention and host golden-reference functions
//!   ([`CallConv`]),
//! - the stimulus parameter space and monomial basis used for
//!   macro-model characterization ([`StimulusSpec`]),
//! - the custom-instruction family and its A-D resource levels
//!   ([`InsnFamilySpec`]),
//! - the kernel-cycle cache tag ([`KernelDescriptor::cache_tag`] and
//!   the `charact`/`curve` measurement-unit names derived from it).
//!
//! Consumers (the ISS-backed ops provider, the methodology driver, the
//! bench harnesses, CI) enumerate [`registry`] instead of keeping their
//! own kernel lists, so adding a workload means adding one descriptor
//! here — the phases, the lint gate and the property tests pick it up
//! automatically. The SHA-1 compression kernel is registered exactly
//! this way, as the extensibility proof.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;

use macromodel::model::Monomial;
use macromodel::stimulus::ParamSpace;
use mpint::mpn;
use std::fmt;
use tie::insn::CustomInsn;

/// A registered kernel's identity: a typed handle over the canonical
/// kernel name. Obtain ids from the constants in [`id`]; the inner name
/// is deliberately private so new names can only enter the system
/// through the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(&'static str);

impl KernelId {
    /// The canonical kernel name (entry label, macro-model registry key
    /// and kernel-cycle cache tag).
    pub const fn name(self) -> &'static str {
        self.0
    }

    /// Resolves a canonical kernel name back to its typed id — the
    /// wire-deserialization inverse of [`KernelId::name`]. Only names
    /// the registry knows resolve, so a parsed id is always runnable.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Unknown`] for unregistered names.
    pub fn parse(name: &str) -> Result<KernelId, KernelError> {
        lookup(name)
            .map(|d| d.id)
            .ok_or_else(|| KernelError::Unknown(name.to_owned()))
    }
}

impl std::str::FromStr for KernelId {
    type Err = KernelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KernelId::parse(s)
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// The registered kernel ids.
pub mod id {
    use super::KernelId;

    /// `r = a + b` over limb vectors, carry out.
    pub const ADD_N: KernelId = KernelId("mpn_add_n");
    /// `r = a - b` over limb vectors, borrow out.
    pub const SUB_N: KernelId = KernelId("mpn_sub_n");
    /// `r = a * b` for single-limb `b`, high limb out.
    pub const MUL_1: KernelId = KernelId("mpn_mul_1");
    /// `r += a * b`, carry limb out.
    pub const ADDMUL_1: KernelId = KernelId("mpn_addmul_1");
    /// `r -= a * b`, borrow limb out.
    pub const SUBMUL_1: KernelId = KernelId("mpn_submul_1");
    /// Left shift by `0 < cnt < width`.
    pub const LSHIFT: KernelId = KernelId("mpn_lshift");
    /// Right shift by `0 < cnt < width`.
    pub const RSHIFT: KernelId = KernelId("mpn_rshift");
    /// 3-by-2 quotient-limb estimate of schoolbook division.
    pub const DIV_QHAT: KernelId = KernelId("div_qhat");
    /// SHA-1 compression over one 64-byte block (fixed memory map).
    pub const SHA1: KernelId = KernelId("sha1_compress");

    /// The multi-precision basic operations, in the stable order every
    /// phase iterates them.
    pub const MPN: [KernelId; 8] = [
        ADD_N, SUB_N, MUL_1, ADDMUL_1, SUBMUL_1, LSHIFT, RSHIFT, DIV_QHAT,
    ];
    /// Every registered kernel, in registry order.
    pub const ALL: [KernelId; 9] = [
        ADD_N, SUB_N, MUL_1, ADDMUL_1, SUBMUL_1, LSHIFT, RSHIFT, DIV_QHAT, SHA1,
    ];
}

/// Canonical kernel names as plain strings (the macro-model registry
/// and call-count keys). Prefer [`id`] for anything that dispatches;
/// these exist for map keys and display.
pub mod opname {
    use super::id;

    /// `mpn_add_n`
    pub const ADD_N: &str = id::ADD_N.name();
    /// `mpn_sub_n`
    pub const SUB_N: &str = id::SUB_N.name();
    /// `mpn_mul_1`
    pub const MUL_1: &str = id::MUL_1.name();
    /// `mpn_addmul_1`
    pub const ADDMUL_1: &str = id::ADDMUL_1.name();
    /// `mpn_submul_1`
    pub const SUBMUL_1: &str = id::SUBMUL_1.name();
    /// `mpn_lshift`
    pub const LSHIFT: &str = id::LSHIFT.name();
    /// `mpn_rshift`
    pub const RSHIFT: &str = id::RSHIFT.name();
    /// 3-by-2 quotient-limb estimation step of schoolbook division
    pub const DIV_QHAT: &str = id::DIV_QHAT.name();
    /// SHA-1 compression
    pub const SHA1: &str = id::SHA1.name();
    /// All basic-operation names, in a stable order.
    pub const ALL: [&str; 8] = [
        ADD_N, SUB_N, MUL_1, ADDMUL_1, SUBMUL_1, LSHIFT, RSHIFT, DIV_QHAT,
    ];
}

/// The `add<k>`/`sub<k>` datapath widths the accelerated library
/// supports.
pub const ADD_LANES: [u32; 4] = [2, 4, 8, 16];
/// The `mac<k>`/`msub<k>` datapath widths the accelerated library
/// supports.
pub const MAC_LANES: [u32; 3] = [1, 2, 4];

/// Which kernel library the 32-bit side of an ISS provider runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Plain RISC kernels (the optimized-software baseline).
    Base,
    /// Custom-instruction kernels with the given adder/MAC lane counts.
    Accelerated {
        /// `add<k>`/`sub<k>` datapath lanes (one of [`ADD_LANES`]).
        add_lanes: u32,
        /// `mac<k>`/`msub<k>` datapath lanes (one of [`MAC_LANES`]).
        mac_lanes: u32,
    },
}

impl KernelVariant {
    /// Every variant the bundled libraries support: the base library,
    /// then each (add, mac) lane pair, add lanes major.
    pub const ALL: [KernelVariant; 1 + ADD_LANES.len() * MAC_LANES.len()] = {
        let mut all = [KernelVariant::Base; 1 + ADD_LANES.len() * MAC_LANES.len()];
        let mut i = 1;
        while i < all.len() {
            all[i] = KernelVariant::Accelerated {
                add_lanes: ADD_LANES[(i - 1) / MAC_LANES.len()],
                mac_lanes: MAC_LANES[(i - 1) % MAC_LANES.len()],
            };
            i += 1;
        }
        all
    };

    /// This variant's position in [`KernelVariant::ALL`]; `None` for
    /// lane counts the accelerated library does not support.
    pub fn index(&self) -> Option<usize> {
        match *self {
            KernelVariant::Base => Some(0),
            KernelVariant::Accelerated {
                add_lanes,
                mac_lanes,
            } => {
                let a = ADD_LANES.iter().position(|&l| l == add_lanes)?;
                let m = MAC_LANES.iter().position(|&l| l == mac_lanes)?;
                Some(1 + a * MAC_LANES.len() + m)
            }
        }
    }

    /// A short stable tag naming this variant, used in kernel-cycle
    /// cache keys.
    pub fn tag(&self) -> String {
        match self {
            KernelVariant::Base => "base".to_owned(),
            KernelVariant::Accelerated {
                add_lanes,
                mac_lanes,
            } => format!("accel-a{add_lanes}m{mac_lanes}"),
        }
    }

    /// Parses a tag produced by [`KernelVariant::tag`] back to the
    /// variant (`"base"`, `"accel-a<add>m<mac>"`); `None` for anything
    /// else — lane counts outside [`ADD_LANES`] and [`MAC_LANES`], and
    /// xopt-generated `gen-…` tags, which name synthesized libraries
    /// rather than selectable variants. A parsed variant always builds.
    pub fn parse_tag(tag: &str) -> Option<KernelVariant> {
        if tag == "base" {
            return Some(KernelVariant::Base);
        }
        let rest = tag.strip_prefix("accel-a")?;
        let (add, mac) = rest.split_once('m')?;
        let variant = KernelVariant::Accelerated {
            add_lanes: add.parse().ok()?,
            mac_lanes: mac.parse().ok()?,
        };
        variant.index().map(|_| variant)
    }
}

/// A typed kernel-layer failure. Divergences are *recorded*, not
/// panicked, so a bench run surfaces them through its run report
/// instead of aborting mid-measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The name does not correspond to a registered kernel.
    Unknown(String),
    /// The kernel's ISS result disagreed with its host golden
    /// reference.
    Divergence {
        /// The diverging kernel.
        kernel: KernelId,
        /// What disagreed (operand size, which output).
        detail: String,
    },
    /// The kernel is registered but the requested operation does not
    /// apply to it (wrong radix width, non-register calling
    /// convention).
    Unsupported {
        /// The kernel the request named.
        kernel: KernelId,
        /// Why it cannot be served.
        detail: String,
    },
    /// The kernel exceeded its cycle budget — a corrupted (or genuinely
    /// runaway) kernel was stopped by the watchdog instead of hanging
    /// the measurement pool.
    Timeout {
        /// The kernel that ran away.
        kernel: KernelId,
        /// Instructions executed when the watchdog fired.
        executed: u64,
    },
    /// The simulated hardware faulted while running the kernel (bad
    /// memory access, illegal instruction — typically the downstream
    /// effect of an injected fault).
    Faulted {
        /// The kernel that faulted.
        kernel: KernelId,
        /// The underlying simulator error.
        detail: String,
    },
    /// The kernel failed too many measurement units and has been
    /// quarantined by the flow's fault policy; its results now come
    /// from fallbacks (macro models or fault-free remeasurement).
    Quarantined {
        /// The quarantined kernel.
        kernel: KernelId,
        /// Failed units that triggered the quarantine.
        failures: u32,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Unknown(name) => write!(f, "unknown kernel `{name}`"),
            KernelError::Divergence { kernel, detail } => {
                write!(
                    f,
                    "kernel `{kernel}` diverged from golden reference: {detail}"
                )
            }
            KernelError::Unsupported { kernel, detail } => {
                write!(f, "kernel `{kernel}` unsupported here: {detail}")
            }
            KernelError::Timeout { kernel, executed } => {
                write!(
                    f,
                    "kernel `{kernel}` exceeded its cycle budget after {executed} instructions"
                )
            }
            KernelError::Faulted { kernel, detail } => {
                write!(f, "kernel `{kernel}` faulted in the ISS: {detail}")
            }
            KernelError::Quarantined { kernel, failures } => {
                write!(
                    f,
                    "kernel `{kernel}` quarantined after {failures} failed units"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// The ISS calling convention of a kernel, with the host
/// golden-reference function for each supported radix width embedded in
/// the matching shape. The ISS-backed provider both *drives* the kernel
/// (argument registers, operand buffers, result extraction) and
/// *checks* it from this one description.
#[derive(Debug, Clone, Copy)]
pub enum CallConv {
    /// `(rp, ap, bp, n)` in `a0..a3`; carry/borrow flag returned in
    /// `a0`.
    VecVec {
        /// 32-bit-limb reference.
        golden32: fn(&mut [u32], &[u32], &[u32]) -> bool,
        /// 16-bit-limb reference.
        golden16: fn(&mut [u16], &[u16], &[u16]) -> bool,
    },
    /// `(rp, ap, n, b)` in `a0..a3`; carry/borrow limb returned in
    /// `a0`.
    VecScalar {
        /// Whether the kernel reads `rp` before writing it
        /// (`addmul`/`submul` accumulate; `mul_1` overwrites).
        accumulate: bool,
        /// 32-bit-limb reference.
        golden32: fn(&mut [u32], &[u32], u32) -> u32,
        /// 16-bit-limb reference.
        golden16: fn(&mut [u16], &[u16], u16) -> u16,
    },
    /// `(rp, ap, n, cnt)` in `a0..a3`; shifted-out bits returned in
    /// `a0`.
    VecShift {
        /// 32-bit-limb reference.
        golden32: fn(&mut [u32], &[u32], u32) -> u32,
        /// 16-bit-limb reference.
        golden16: fn(&mut [u16], &[u16], u32) -> u16,
    },
    /// Five scalars `(n2, n1, n0, d1, d0)` in `a0..a4`; quotient
    /// estimate returned in `a0`.
    Div3by2 {
        /// 32-bit reference.
        golden32: fn(u32, u32, u32, u32, u32) -> u32,
        /// 16-bit reference.
        golden16: fn(u16, u16, u16, u16, u16) -> u16,
    },
    /// No register arguments: operands live at the fixed addresses of
    /// the kernel's memory map (block ciphers, hashes).
    BlockMem {
        /// SHA-1 state-compression reference.
        golden_sha1: fn(&mut [u32; 5], &[u8; 64]),
    },
}

/// Which kernel library provides a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibKind {
    /// The multi-precision libraries: present at both radices
    /// ([`kernels::mpn::base32_source`], [`kernels::mpn::base16_source`])
    /// and in every accelerated 32-bit lane configuration.
    Mpn,
    /// The standalone SHA-1 block program ([`kernels::sha::source`]),
    /// 32-bit core only.
    Sha1,
}

/// How to stimulate a kernel for macro-model characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StimulusSpec {
    /// The operand length in limbs sweeps `1..=max_limbs`; affine
    /// basis.
    Limbs,
    /// A single fixed-size point (scalar kernels); constant basis.
    Point,
    /// `1..=4` message blocks chained through the kernel; affine basis
    /// in the block count.
    Blocks,
}

impl StimulusSpec {
    /// The characterization parameter space at the given maximum
    /// operand size.
    pub fn space(&self, max_limbs: usize) -> ParamSpace {
        match self {
            StimulusSpec::Limbs => ParamSpace::new(vec![(1, max_limbs as u64)]),
            StimulusSpec::Point => ParamSpace::new(vec![(1, 1)]),
            StimulusSpec::Blocks => ParamSpace::new(vec![(1, 4)]),
        }
    }

    /// The monomial basis the macro-model is fitted over.
    pub fn basis(&self) -> Vec<Monomial> {
        match self {
            StimulusSpec::Point => vec![Monomial::constant(1)],
            _ => vec![Monomial::constant(1), Monomial::linear(1, 0)],
        }
    }
}

/// One resource level of a custom-instruction family: the datapath
/// lane count of the A-D curve point and the kernel-library lane
/// configuration that exercises it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelLevel {
    /// Datapath lanes of this point (the `<k>` of the mnemonic).
    pub lanes: u32,
    /// `add<k>` lanes of the library variant to run.
    pub add_lanes: u32,
    /// `mac<k>` lanes of the library variant to run.
    pub mac_lanes: u32,
}

impl AccelLevel {
    /// The kernel-library variant measuring this level.
    pub fn variant(&self) -> KernelVariant {
        KernelVariant::Accelerated {
            add_lanes: self.add_lanes,
            mac_lanes: self.mac_lanes,
        }
    }

    /// The kernel-cycle cache tag of the *xopt-generated* library at
    /// this level, distinct from the hand-written `accel-a{a}m{m}` tag
    /// so the two never share cache entries.
    pub fn generated_tag(&self) -> String {
        format!("gen-a{}m{}", self.add_lanes, self.mac_lanes)
    }
}

/// The canonical loop shape a custom-instruction family replaces — the
/// dataflow pattern `xopt`'s selection pass matches against a kernel's
/// SSA-lite graph before substituting the family's wide datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopPattern {
    /// Two streamed loads combined by a carry-chained add/sub and
    /// stored to a third stream (`mpn_add_n`/`mpn_sub_n`).
    ElementwiseCarry,
    /// A streamed load multiplied by a loop-invariant scalar and
    /// accumulated into a second stream, carry limb threaded through a
    /// GPR (`mpn_addmul_1`/`mpn_submul_1`).
    MulAccumulate,
}

/// The custom-instruction family accelerating a kernel, with its A-D
/// resource levels (the base software point is implicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsnFamilySpec {
    /// The `tie` instruction family name (`add`, `mac`).
    pub family: &'static str,
    /// Resource levels, cheapest first.
    pub levels: &'static [AccelLevel],
    /// The canonical loop shape the family's datapath replaces (what
    /// `xopt` pattern-matches during instruction selection).
    pub pattern: LoopPattern,
}

impl InsnFamilySpec {
    /// The [`tie::CustomInsn`] of one level, given its structural area
    /// (areas come from the platform's instruction catalog, which lives
    /// above this crate).
    pub fn insn(&self, level: &AccelLevel, area: u64) -> CustomInsn {
        CustomInsn::new(self.family, level.lanes, area)
    }
}

/// Where a kernel's accelerated variants come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantSource {
    /// Hand-written accelerated assembly
    /// ([`kernels::mpn::accel32_source`]) drives the A-D curve.
    HandWritten,
    /// The `xopt` pipeline rewrites the canonical base source into a
    /// generated variant per [`AccelLevel`]; the hand-written library
    /// is still measured side-by-side as the comparison baseline.
    Generated,
}

/// The single source of truth for one registered kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelDescriptor {
    /// The kernel's identity.
    pub id: KernelId,
    /// The assembly entry label (identical to `id.name()` for every
    /// current kernel; the invariant is pinned by tests).
    pub entry: &'static str,
    /// Which library carries the kernel.
    pub lib: LibKind,
    /// Calling convention + golden references.
    pub conv: CallConv,
    /// Characterization stimulus space, when the kernel is
    /// macro-modeled. `None` would exclude it from phase 1 (no current
    /// kernel opts out; CI fails descriptors missing this).
    pub stimulus: Option<StimulusSpec>,
    /// Custom-instruction family, for kernels with phase-3 A-D curves.
    pub family: Option<InsnFamilySpec>,
    /// Whether the phase-3 variants are hand-written or xopt-generated.
    /// Meaningless (and [`VariantSource::HandWritten`]) for kernels
    /// without a family.
    pub variants: VariantSource,
}

impl KernelDescriptor {
    /// The radix widths this kernel exists at.
    pub fn widths(&self) -> &'static [u32] {
        match self.lib {
            LibKind::Mpn => &[32, 16],
            LibKind::Sha1 => &[32],
        }
    }

    /// The kernel-cycle cache tag (the op component of cache keys).
    pub fn cache_tag(&self) -> &'static str {
        self.id.name()
    }

    /// The phase-1 measurement-unit name at one radix width, as used in
    /// kernel-cycle cache keys.
    pub fn charact_unit(&self, width: u32) -> String {
        format!("charact{width}:{}", self.cache_tag())
    }

    /// The phase-3 measurement-unit name, as used in kernel-cycle cache
    /// keys.
    pub fn curve_unit(&self) -> String {
        format!("curve:{}", self.cache_tag())
    }

    /// [`charact_unit`](Self::charact_unit) qualified with the core
    /// configuration (`CoreConfigId`, e.g. `"io"` or `"ooo-…"`) whose
    /// pipeline produced the measurement: `charact<w>:<tag>@<core>`.
    /// Measurements from different core models never share a unit name
    /// (the cache key also embeds the full config fingerprint; the
    /// suffix keeps human-readable keys and reports unambiguous).
    pub fn charact_unit_on(&self, width: u32, core_id: &str) -> String {
        format!("charact{width}:{}@{core_id}", self.cache_tag())
    }

    /// [`curve_unit`](Self::curve_unit) qualified with the core
    /// configuration: `curve:<tag>@<core>`.
    pub fn curve_unit_on(&self, core_id: &str) -> String {
        format!("curve:{}@{core_id}", self.cache_tag())
    }
}

/// A-D levels of the `add<k>` family (measured with a 1-lane MAC
/// configured, which the add curve does not exercise).
const ADD_LEVELS: [AccelLevel; 4] = [
    AccelLevel {
        lanes: 2,
        add_lanes: 2,
        mac_lanes: 1,
    },
    AccelLevel {
        lanes: 4,
        add_lanes: 4,
        mac_lanes: 1,
    },
    AccelLevel {
        lanes: 8,
        add_lanes: 8,
        mac_lanes: 1,
    },
    AccelLevel {
        lanes: 16,
        add_lanes: 16,
        mac_lanes: 1,
    },
];

/// A-D levels of the `mac<k>` family (measured with a 2-lane adder
/// configured, which the mac curve does not exercise).
const MAC_LEVELS: [AccelLevel; 3] = [
    AccelLevel {
        lanes: 1,
        add_lanes: 2,
        mac_lanes: 1,
    },
    AccelLevel {
        lanes: 2,
        add_lanes: 2,
        mac_lanes: 2,
    },
    AccelLevel {
        lanes: 4,
        add_lanes: 2,
        mac_lanes: 4,
    },
];

static REGISTRY: [KernelDescriptor; 9] = [
    KernelDescriptor {
        id: id::ADD_N,
        entry: "mpn_add_n",
        lib: LibKind::Mpn,
        conv: CallConv::VecVec {
            golden32: mpn::add_n::<u32>,
            golden16: mpn::add_n::<u16>,
        },
        stimulus: Some(StimulusSpec::Limbs),
        family: Some(InsnFamilySpec {
            family: "add",
            levels: &ADD_LEVELS,
            pattern: LoopPattern::ElementwiseCarry,
        }),
        variants: VariantSource::Generated,
    },
    KernelDescriptor {
        id: id::SUB_N,
        entry: "mpn_sub_n",
        lib: LibKind::Mpn,
        conv: CallConv::VecVec {
            golden32: mpn::sub_n::<u32>,
            golden16: mpn::sub_n::<u16>,
        },
        stimulus: Some(StimulusSpec::Limbs),
        family: None,
        variants: VariantSource::HandWritten,
    },
    KernelDescriptor {
        id: id::MUL_1,
        entry: "mpn_mul_1",
        lib: LibKind::Mpn,
        conv: CallConv::VecScalar {
            accumulate: false,
            golden32: mpn::mul_1::<u32>,
            golden16: mpn::mul_1::<u16>,
        },
        stimulus: Some(StimulusSpec::Limbs),
        family: None,
        variants: VariantSource::HandWritten,
    },
    KernelDescriptor {
        id: id::ADDMUL_1,
        entry: "mpn_addmul_1",
        lib: LibKind::Mpn,
        conv: CallConv::VecScalar {
            accumulate: true,
            golden32: mpn::addmul_1::<u32>,
            golden16: mpn::addmul_1::<u16>,
        },
        stimulus: Some(StimulusSpec::Limbs),
        family: Some(InsnFamilySpec {
            family: "mac",
            levels: &MAC_LEVELS,
            pattern: LoopPattern::MulAccumulate,
        }),
        variants: VariantSource::Generated,
    },
    KernelDescriptor {
        id: id::SUBMUL_1,
        entry: "mpn_submul_1",
        lib: LibKind::Mpn,
        conv: CallConv::VecScalar {
            accumulate: true,
            golden32: mpn::submul_1::<u32>,
            golden16: mpn::submul_1::<u16>,
        },
        stimulus: Some(StimulusSpec::Limbs),
        family: None,
        variants: VariantSource::HandWritten,
    },
    KernelDescriptor {
        id: id::LSHIFT,
        entry: "mpn_lshift",
        lib: LibKind::Mpn,
        conv: CallConv::VecShift {
            golden32: mpn::lshift::<u32>,
            golden16: mpn::lshift::<u16>,
        },
        stimulus: Some(StimulusSpec::Limbs),
        family: None,
        variants: VariantSource::HandWritten,
    },
    KernelDescriptor {
        id: id::RSHIFT,
        entry: "mpn_rshift",
        lib: LibKind::Mpn,
        conv: CallConv::VecShift {
            golden32: mpn::rshift::<u32>,
            golden16: mpn::rshift::<u16>,
        },
        stimulus: Some(StimulusSpec::Limbs),
        family: None,
        variants: VariantSource::HandWritten,
    },
    KernelDescriptor {
        id: id::DIV_QHAT,
        entry: "div_qhat",
        lib: LibKind::Mpn,
        conv: CallConv::Div3by2 {
            golden32: mpn::div_qhat_reference::<u32>,
            golden16: mpn::div_qhat_reference::<u16>,
        },
        stimulus: Some(StimulusSpec::Point),
        family: None,
        variants: VariantSource::HandWritten,
    },
    KernelDescriptor {
        id: id::SHA1,
        entry: "sha1_compress",
        lib: LibKind::Sha1,
        conv: CallConv::BlockMem {
            golden_sha1: ciphers::sha1::compress,
        },
        stimulus: Some(StimulusSpec::Blocks),
        family: None,
        variants: VariantSource::HandWritten,
    },
];

/// Every registered kernel, in the stable iteration order all phases
/// share (the multi-precision ops first, then the block kernels).
pub fn registry() -> &'static [KernelDescriptor] {
    &REGISTRY
}

/// The descriptor of a kernel id, if registered.
pub fn get(kernel: KernelId) -> Option<&'static KernelDescriptor> {
    REGISTRY.iter().find(|d| d.id == kernel)
}

/// Resolves a kernel name (e.g. from a report or CLI) to its
/// descriptor.
pub fn lookup(name: &str) -> Option<&'static KernelDescriptor> {
    REGISTRY.iter().find(|d| d.id.name() == name)
}

/// One lintable assembly library derived from the registry: a stable
/// label plus the full source text (with its `;!` entry/secret/cust
/// annotations).
#[derive(Debug, Clone)]
pub struct LintUnit {
    /// Stable unit name, usable as a file stem.
    pub label: String,
    /// The assembly source.
    pub source: String,
}

/// Enumerates every assembly library the registered kernels live in:
/// the base libraries of each [`LibKind`] present plus every
/// accelerated lane configuration reachable from the registered
/// [`InsnFamilySpec`] levels. This is what the CI lint gate iterates,
/// so a kernel cannot be registered without being linted.
pub fn lint_units() -> Vec<LintUnit> {
    let mut units = Vec::new();
    if REGISTRY.iter().any(|d| d.lib == LibKind::Mpn) {
        units.push(LintUnit {
            label: "mpn_base32".to_owned(),
            source: kernels::mpn::base32_source(),
        });
        units.push(LintUnit {
            label: "mpn_base16".to_owned(),
            source: kernels::mpn::base16_source(),
        });
        let mut adds = Vec::new();
        let mut macs = Vec::new();
        for d in &REGISTRY {
            if let Some(f) = &d.family {
                for level in f.levels {
                    if !adds.contains(&level.add_lanes) {
                        adds.push(level.add_lanes);
                    }
                    if !macs.contains(&level.mac_lanes) {
                        macs.push(level.mac_lanes);
                    }
                }
            }
        }
        adds.sort_unstable();
        macs.sort_unstable();
        for &al in &adds {
            for &ml in &macs {
                units.push(LintUnit {
                    label: format!("mpn_accel32_a{al}m{ml}"),
                    source: kernels::mpn::accel32_source(al, ml),
                });
            }
        }
    }
    if REGISTRY.iter().any(|d| d.lib == LibKind::Sha1) {
        units.push(LintUnit {
            label: "sha1".to_owned(),
            source: kernels::sha::source(&kernels::sha::MemoryMap::default()),
        });
    }
    units
}

/// Audits the registry invariants CI gates on: cache tags unique,
/// every descriptor has a stimulus space, entry labels match ids and
/// appear (annotated) in at least one lint unit. Returns the list of
/// violations (empty = healthy).
pub fn audit() -> Vec<String> {
    let mut problems = Vec::new();
    let mut tags: Vec<&str> = Vec::new();
    let units = lint_units();
    for d in registry() {
        let tag = d.cache_tag();
        if tags.contains(&tag) {
            problems.push(format!("duplicate cache tag `{tag}`"));
        }
        tags.push(tag);
        if d.stimulus.is_none() {
            problems.push(format!(
                "kernel `{}` has no stimulus space (cannot be characterized)",
                d.id
            ));
        }
        if d.entry != d.id.name() {
            problems.push(format!(
                "kernel `{}` entry label `{}` does not match its id",
                d.id, d.entry
            ));
        }
        let annotated = format!(";! entry {}", d.entry);
        if !units.iter().any(|u| u.source.contains(&annotated)) {
            problems.push(format!(
                "kernel `{}` has no annotated `;! entry {}` in any lint unit",
                d.id, d.entry
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_internally_consistent() {
        assert!(audit().is_empty(), "{:?}", audit());
        assert_eq!(registry().len(), id::ALL.len());
        for (d, want) in registry().iter().zip(id::ALL) {
            assert_eq!(d.id, want, "registry order matches id::ALL");
        }
    }

    #[test]
    fn ids_match_by_value_and_pattern() {
        let x = id::ADD_N;
        assert!(matches!(x, id::ADD_N));
        assert_eq!(x.name(), opname::ADD_N);
        assert_ne!(id::ADD_N, id::SUB_N);
        assert_eq!(lookup("div_qhat").unwrap().id, id::DIV_QHAT);
        assert!(lookup("mpn_frobnicate").is_none());
    }

    #[test]
    fn stimulus_spaces_and_bases_have_the_documented_shapes() {
        let limbs = StimulusSpec::Limbs;
        assert_eq!(limbs.space(16).range(0), (1, 16));
        assert_eq!(limbs.basis().len(), 2);
        let point = StimulusSpec::Point;
        assert_eq!(point.space(16).range(0), (1, 1));
        assert_eq!(point.basis().len(), 1);
        let blocks = StimulusSpec::Blocks;
        assert_eq!(blocks.space(64).range(0), (1, 4));
    }

    #[test]
    fn core_qualified_units_are_distinct_per_core() {
        let d = get(id::ADD_N).unwrap();
        assert_eq!(d.charact_unit(32), "charact32:mpn_add_n");
        assert_eq!(d.charact_unit_on(32, "io"), "charact32:mpn_add_n@io");
        assert_eq!(d.curve_unit_on("io"), "curve:mpn_add_n@io");
        assert_ne!(
            d.charact_unit_on(32, "io"),
            d.charact_unit_on(32, "ooo-i2x2-r32s16l8b256"),
            "different cores must never share a measurement unit"
        );
        assert_ne!(
            d.curve_unit_on("io"),
            d.curve_unit_on("ooo-i2x2-r32s16l8b256")
        );
    }

    #[test]
    fn lint_units_cover_all_lane_configurations() {
        let units = lint_units();
        let labels: Vec<&str> = units.iter().map(|u| u.label.as_str()).collect();
        assert!(labels.contains(&"mpn_base32"));
        assert!(labels.contains(&"mpn_base16"));
        assert!(labels.contains(&"sha1"));
        // 4 add-lane values x 3 mac-lane values.
        assert_eq!(
            labels
                .iter()
                .filter(|l| l.starts_with("mpn_accel32"))
                .count(),
            12
        );
    }

    #[test]
    fn canonical_units_compose_the_base_library() {
        // The per-kernel canonical units are exactly the slices the
        // base32 library is concatenated from, in registry order.
        let whole = kernels::mpn::base32_source();
        let mut rebuilt = String::new();
        for k in id::MPN {
            let unit = kernels::mpn::canonical_source32(k).expect("mpn kernel has a unit");
            assert!(unit.contains(&format!(";! entry {}", k.name())));
            rebuilt.push_str(unit);
        }
        assert_eq!(whole, rebuilt);
        assert!(kernels::mpn::canonical_source32(id::SHA1).is_none());
    }

    #[test]
    fn variant_provenance_and_generated_tags() {
        let add = get(id::ADD_N).unwrap();
        assert_eq!(add.variants, VariantSource::Generated);
        let Some(f) = &add.family else {
            panic!("add_n has a family")
        };
        assert_eq!(f.pattern, LoopPattern::ElementwiseCarry);
        assert_eq!(f.levels[0].generated_tag(), "gen-a2m1");
        assert_ne!(f.levels[0].generated_tag(), f.levels[0].variant().tag());

        let mac = get(id::ADDMUL_1).unwrap();
        assert_eq!(mac.variants, VariantSource::Generated);
        assert_eq!(mac.family.unwrap().pattern, LoopPattern::MulAccumulate);
        assert_eq!(get(id::SUB_N).unwrap().variants, VariantSource::HandWritten);
    }

    #[test]
    fn golden_references_compute() {
        let Some(d) = get(id::ADD_N) else {
            panic!("add_n registered")
        };
        let CallConv::VecVec { golden32, .. } = d.conv else {
            panic!("add_n is VecVec")
        };
        let mut r = [0u32; 2];
        let carry = golden32(&mut r, &[u32::MAX, 1], &[1, 2]);
        assert_eq!(r, [0, 4]);
        assert!(!carry);

        let Some(d) = get(id::DIV_QHAT) else {
            panic!("div_qhat registered")
        };
        let CallConv::Div3by2 { golden16, .. } = d.conv else {
            panic!("div_qhat is Div3by2")
        };
        assert_eq!(golden16(0, 1, 0, 0x8000, 0), 0);
    }

    #[test]
    fn errors_render_usefully() {
        let e = KernelError::Divergence {
            kernel: id::MUL_1,
            detail: "n=3".to_owned(),
        };
        assert!(e.to_string().contains("mpn_mul_1"));
        assert!(KernelError::Unknown("nope".into())
            .to_string()
            .contains("nope"));
        let t = KernelError::Timeout {
            kernel: id::ADD_N,
            executed: 1234,
        };
        assert!(t.to_string().contains("cycle budget"));
        assert!(t.to_string().contains("1234"));
        let q = KernelError::Quarantined {
            kernel: id::SHA1,
            failures: 3,
        };
        assert!(q.to_string().contains("quarantined"));
        let f = KernelError::Faulted {
            kernel: id::MUL_1,
            detail: "illegal instruction".into(),
        };
        assert!(f.to_string().contains("faulted"));
    }

    #[test]
    fn kernel_ids_round_trip_through_their_names() {
        for k in id::ALL {
            assert_eq!(KernelId::parse(k.name()).unwrap(), k);
            assert_eq!(k.name().parse::<KernelId>().unwrap(), k);
        }
        let e = KernelId::parse("mpn_frobnicate").unwrap_err();
        assert!(matches!(e, KernelError::Unknown(name) if name == "mpn_frobnicate"));
    }

    #[test]
    fn variant_tags_round_trip() {
        assert_eq!(KernelVariant::ALL.len(), 13);
        for (i, v) in KernelVariant::ALL.into_iter().enumerate() {
            assert_eq!(KernelVariant::parse_tag(&v.tag()), Some(v));
            assert_eq!(v.index(), Some(i));
        }
        assert_eq!(KernelVariant::parse_tag("gen-a4m2"), None);
        assert_eq!(KernelVariant::parse_tag("accel-a4"), None);
        assert_eq!(KernelVariant::parse_tag("accel-axmy"), None);
    }

    #[test]
    fn variant_tags_with_unsupported_lane_counts_are_rejected() {
        for tag in ["accel-a3m1", "accel-a4m3", "accel-a0m0", "accel-a32m8"] {
            assert_eq!(KernelVariant::parse_tag(tag), None, "{tag}");
        }
        let odd = KernelVariant::Accelerated {
            add_lanes: 3,
            mac_lanes: 1,
        };
        assert_eq!(odd.index(), None);
    }
}
