//! The ISS-backed basic-operations provider.
//!
//! [`IssMpn`] implements [`pubkey::ops::MpnOps`] by running the XR32
//! assembly kernels on the cycle-accurate simulator for **every** basic
//! operation — the paper's slow-but-accurate reference evaluation
//! method ("several hours to few days per candidate algorithm" on real
//! hardware models; our XR32 is faster but still orders of magnitude
//! slower than macro-model estimation).
//!
//! The kernels, their entry labels, calling conventions and host golden
//! references all come from the kernel registry ([`kreg`]): dispatch is
//! by [`KernelId`], not by string matching. Every call optionally
//! verifies the kernel's result against the registered golden
//! reference; a mismatch is *recorded* as a typed
//! [`KernelError::Divergence`] (retrievable via
//! [`IssMpn::kernel_errors`] and surfaced through run reports) instead
//! of aborting the measurement.

use crate::insns;
use kreg::kernels::mpn as kmpn;
use kreg::{id, CallConv, KernelError, KernelId};
use mpint::limb::Limb;
use pubkey::ops::{slot, CallCounts, MpnOps};
use std::sync::{Arc, OnceLock};
use xfault::{FaultPlan, PlanSpec};
use xobs::trace::TraceSink;
use xr32::asm::{assemble, Program};
use xr32::config::CpuConfig;
use xr32::cpu::{Cpu, SimError};
use xr32::ext::ExtensionSet;
use xr32::xcore::{CallMemo, MemoStats};
use xr32::{Fidelity, Reg};

pub use kreg::KernelVariant;

/// Snapshot of one radix core's architectural state: the exact fields
/// the dual-fidelity co-simulation spot checks compare between the fast
/// and cycle-accurate engines (timing state is deliberately excluded —
/// the fast path models none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// General registers `a0`–`a15`.
    pub regs: [u32; 16],
    /// FNV-1a digest of the whole data memory.
    pub mem_digest: u64,
    /// Cumulative retired-instruction count of the core.
    pub retired: u64,
}

impl ArchState {
    fn of(cpu: &Cpu) -> Self {
        let mut regs = [0u32; 16];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = cpu.reg(i);
        }
        ArchState {
            regs,
            mem_digest: cpu.mem().digest(),
            retired: cpu.retired(),
        }
    }
}

/// Base addresses of the kernel operand regions in simulator memory.
const RP_ADDR: u32 = 0x1000;
const AP_ADDR: u32 = 0x40000;
const BP_ADDR: u32 = 0x80000;

/// The bundled kernel libraries, each assembled on first use and then
/// shared by every provider in the process: one slot per
/// [`KernelVariant::ALL`] entry for the 32-bit side, then the 16-bit
/// base library. A `OnceLock` cannot poison: a panicking first
/// assembly leaves its slot empty.
static LIBRARIES: [OnceLock<Arc<Program>>; KernelVariant::ALL.len() + 1] =
    [const { OnceLock::new() }; KernelVariant::ALL.len() + 1];

/// The shared library in `slot`, assembling `source` on first use.
fn library(slot: usize, source: impl FnOnce() -> String) -> Arc<Program> {
    let prog = LIBRARIES[slot].get_or_init(|| {
        Arc::new(assemble(&source()).expect("bundled kernel libraries must assemble"))
    });
    Arc::clone(prog)
}

/// The public input registers of each [`id::MPN`] kernel, as indices:
/// its `;! entry` inputs minus `secret=`. Operand pointers are public
/// (the limbs they point to are secret), and every entry's inputs
/// include `sp` (14) and `ra` (15). `None` for `div_qhat`, which is
/// declared `public` and variable-time: its path depends on all five
/// inputs, so a call memo times it from a cost table instead
/// ([`CallMemo::declare_register_only`]).
const PUBLIC_INPUTS: [Option<&[u8]>; 8] = [
    Some(&[0, 1, 2, 3, 14, 15]), // mpn_add_n: rp ap bp n
    Some(&[0, 1, 2, 3, 14, 15]), // mpn_sub_n: rp ap bp n
    Some(&[0, 1, 2, 14, 15]),    // mpn_mul_1: rp ap n (b secret)
    Some(&[0, 1, 2, 14, 15]),    // mpn_addmul_1: rp ap n (b secret)
    Some(&[0, 1, 2, 14, 15]),    // mpn_submul_1: rp ap n (b secret)
    Some(&[0, 1, 2, 3, 14, 15]), // mpn_lshift: rp ap n cnt
    Some(&[0, 1, 2, 3, 14, 15]), // mpn_rshift: rp ap n cnt
    None,                        // div_qhat
];

/// One radix side of the provider: its core, its kernel library, and
/// the library's entry pcs for the [`id::MPN`] kernels, resolved once
/// (`None` for a kernel the library lacks).
struct Side {
    cpu: Cpu,
    prog: Arc<Program>,
    entries: [Option<usize>; 8],
}

impl Side {
    fn new(cpu: Cpu, prog: Arc<Program>) -> Self {
        let entries = id::MPN.map(|k| prog.label(k.name()));
        let mut side = Side { cpu, prog, entries };
        side.cpu.set_fuel(u64::MAX);
        side
    }

    /// Attaches a call memo declaring every constant-time kernel of
    /// the library with its public inputs, and `div_qhat`
    /// register-only.
    fn memoize(&mut self) {
        let mut memo = CallMemo::new();
        for (&entry, public) in self.entries.iter().zip(PUBLIC_INPUTS) {
            match (entry, public) {
                (Some(entry), Some(public)) => {
                    let public: Vec<Reg> = public.iter().map(|&r| Reg::new(r)).collect();
                    memo.declare(&self.prog, entry, &public);
                }
                (Some(entry), None) => memo.declare_register_only(&self.prog, entry),
                (None, _) => {}
            }
        }
        self.cpu.set_call_memo(Some(memo));
    }

    fn memo_stats(&self) -> MemoStats {
        self.cpu
            .call_memo()
            .map_or_else(MemoStats::default, CallMemo::stats)
    }
}

/// ISS-backed [`MpnOps`] provider (32-bit and 16-bit radix sides).
pub struct IssMpn {
    s32: Side,
    s16: Side,
    cycles: f64,
    counts: CallCounts,
    glue_cost: f64,
    verify: bool,
    /// Serve every call by its golden reference once a kernel error is
    /// recorded (see [`IssMpn::golden_after_error`]).
    golden_after_error: bool,
    errors: Vec<KernelError>,
    sink: Option<Box<dyn TraceSink>>,
    fidelity: Fidelity,
}

impl IssMpn {
    /// Builds a provider running the base kernels on the given core
    /// configuration.
    pub fn base(config: CpuConfig) -> Self {
        Self::with_variant(config, KernelVariant::Base)
    }

    /// Builds a provider running the accelerated kernels (the matching
    /// extension set is configured automatically).
    pub fn accelerated(config: CpuConfig, add_lanes: u32, mac_lanes: u32) -> Self {
        Self::with_variant(
            config,
            KernelVariant::Accelerated {
                add_lanes,
                mac_lanes,
            },
        )
    }

    /// Builds a provider for an explicit kernel variant. Its kernel
    /// libraries are assembled once per process and shared.
    ///
    /// # Panics
    ///
    /// Panics if the variant's lane counts are unsupported (see
    /// [`KernelVariant::index`]) or the bundled kernel sources fail to
    /// assemble (a build defect, not a runtime condition).
    pub fn with_variant(config: CpuConfig, variant: KernelVariant) -> Self {
        let slot = variant
            .index()
            .expect("kernel variant with supported lane counts");
        let (prog32, ext) = match variant {
            KernelVariant::Base => (library(slot, kmpn::base32_source), ExtensionSet::new()),
            KernelVariant::Accelerated {
                add_lanes,
                mac_lanes,
            } => (
                library(slot, || kmpn::accel32_source(add_lanes, mac_lanes)),
                insns::mpn_extension_set(add_lanes, mac_lanes),
            ),
        };
        Self::with_program(config, prog32, ext)
    }

    /// Builds a provider running an arbitrary 32-bit kernel library —
    /// e.g. an `xopt`-generated variant unit — under `ext`. The 16-bit
    /// radix side always runs the bundled base library. Kernels absent
    /// from `src32` simply fail at call time with an undefined-label
    /// error, so a single-kernel library is fine for single-kernel
    /// measurements.
    ///
    /// # Panics
    ///
    /// Panics if `src32` (or the bundled 16-bit library) fails to
    /// assemble — callers are expected to hand over already-gated
    /// sources.
    pub fn with_library(config: CpuConfig, src32: &str, ext: ExtensionSet) -> Self {
        let prog32 = assemble(src32).expect("32-bit kernel library must assemble");
        Self::with_program(config, Arc::new(prog32), ext)
    }

    fn with_program(config: CpuConfig, prog32: Arc<Program>, ext: ExtensionSet) -> Self {
        let prog16 = library(KernelVariant::ALL.len(), kmpn::base16_source);
        IssMpn {
            s32: Side::new(Cpu::with_extensions(config.clone(), ext), prog32),
            s16: Side::new(Cpu::new(config), prog16),
            cycles: 0.0,
            counts: CallCounts::default(),
            glue_cost: 4.0,
            verify: true,
            golden_after_error: false,
            errors: Vec::new(),
            sink: None,
            fidelity: Fidelity::CycleAccurate,
        }
    }

    /// Runs `f` on this provider as a discarded warm-up: its kernel
    /// calls run as ordinary timed calls, leaving the simulated caches,
    /// an out-of-order core's branch predictor and the pipeline where
    /// the next timed run starts from, and the provider's cycle total
    /// and call counts are restored afterwards. The cores' own clocks
    /// ([`IssMpn::core_cycles`]) keep the warm-up's cycles. Recorded
    /// kernel errors are kept.
    pub fn warm_up<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let (cycles, counts) = (self.cycles, self.counts);
        let out = f(self);
        self.cycles = cycles;
        self.counts = counts;
        out
    }

    /// Attaches a call memo to both radix cores: a call of a
    /// constant-time kernel whose public inputs were seen before
    /// replays the in-order model's recorded cost on the functional
    /// executor, with every cycle, cache statistic and later hit or
    /// miss unchanged (see [`xr32::xcore::memo`]). A `div_qhat` call
    /// is timed from a cost table proven for the core's configuration
    /// on its first call, where the proof holds. The memo serves
    /// warm-up and timed calls alike, and declines calls on an
    /// out-of-order core, with a trace sink attached or a fault plan
    /// armed. Co-simulation arms it; every other user keeps the plain
    /// timing model.
    pub(crate) fn memoize_calls(&mut self) {
        self.s32.memoize();
        self.s16.memoize();
    }

    /// How often the two radix cores' call memos were consulted,
    /// replayed and tabled (all zero unless co-simulation armed them).
    pub fn memo_stats(&self) -> MemoStats {
        let (a, b) = (self.s32.memo_stats(), self.s16.memo_stats());
        MemoStats {
            calls: a.calls + b.calls,
            replays: a.replays + b.replays,
            replayed_insns: a.replayed_insns + b.replayed_insns,
            tabled: a.tabled + b.tabled,
            tabled_insns: a.tabled_insns + b.tabled_insns,
        }
    }

    /// Makes the first recorded kernel error end the simulation: the
    /// failing call returns its golden result, and every later call is
    /// served by its golden reference without simulating. For a
    /// verifying provider whose run is lost at its first error (a
    /// faulted co-simulation attempt): the arithmetic above the kernels
    /// never sees a corrupted result, and no later call can burn the
    /// watchdog budget.
    pub(crate) fn golden_after_error(&mut self) {
        self.golden_after_error = true;
    }

    /// Whether calls are served by their golden references.
    fn lost(&self) -> bool {
        self.golden_after_error && !self.errors.is_empty()
    }

    /// Selects the execution engine for both radix cores. The default
    /// is [`Fidelity::CycleAccurate`]. With [`Fidelity::Fast`]
    /// selected, kernel invocations run on the pre-decoded functional
    /// engine: golden verification ([`IssMpn::verify32`] /
    /// [`IssMpn::verify16`]) is bit-identical but cycle measurement is
    /// structurally refused — [`IssMpn::measure32`] /
    /// [`IssMpn::measure16`] return a typed
    /// [`KernelError::Unsupported`].
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        self.fidelity = fidelity;
        self.s32.cpu.set_fidelity(fidelity);
        self.s16.cpu.set_fidelity(fidelity);
    }

    /// The execution engine both radix cores currently use.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Architectural state of the 32-bit radix core (for dual-fidelity
    /// co-simulation spot checks).
    pub fn arch_state32(&self) -> ArchState {
        ArchState::of(&self.s32.cpu)
    }

    /// Architectural state of the 16-bit radix core.
    pub fn arch_state16(&self) -> ArchState {
        ArchState::of(&self.s16.cpu)
    }

    /// Attaches (or detaches, with `None`) a trace sink observing every
    /// kernel invocation on both radix cores. Each `cpu.call` is
    /// bracketed by synthetic entry Call/Ret events, so cycle
    /// attribution over a whole co-simulation covers every simulated
    /// cycle. Use [`xobs::trace::Shared`] to keep access to the sink's
    /// accumulated state while the provider owns it.
    pub fn set_trace_sink(&mut self, sink: Option<Box<dyn TraceSink>>) {
        self.sink = sink;
    }

    /// Raw cycle counters of the two radix cores, `(cpu32, cpu16)`.
    /// Their sum is the total simulated cycles an attached
    /// [`xobs::Attribution`] sink must account for exactly.
    pub fn core_cycles(&self) -> (u64, u64) {
        (self.s32.cpu.cycles(), self.s16.cpu.cycles())
    }

    /// The *CoreConfigId* of the pipeline model both radix cores run
    /// (`"io"`, `"ooo-…"`). `measure32`/`measure16` cycle counts are
    /// only comparable between ISS instances that report the same id;
    /// the flow layers stamp it into measurement units, span attributes
    /// and report points.
    pub fn core_id(&self) -> String {
        self.s32.cpu.config().core_id()
    }

    /// Enables/disables per-call verification against the registered
    /// golden reference (on by default).
    pub fn set_verify(&mut self, verify: bool) {
        self.verify = verify;
    }

    /// Arms a deterministic fault-injection campaign on both radix
    /// cores. `stream` distinguishes measurement units so concurrent
    /// units draw independent decision sequences from the same campaign
    /// seed (the 16-bit core gets a sibling stream).
    pub fn set_fault_plan(&mut self, spec: PlanSpec, stream: u64) {
        self.s32
            .cpu
            .set_fault_plan(spec.plan(stream.wrapping_mul(2)));
        self.s16
            .cpu
            .set_fault_plan(spec.plan(stream.wrapping_mul(2).wrapping_add(1)));
    }

    /// Disarms fault injection and returns the plans of the two radix
    /// cores `(cpu32, cpu16)` with their fired-injection counters.
    pub fn take_fault_plans(&mut self) -> (Option<FaultPlan>, Option<FaultPlan>) {
        (
            self.s32.cpu.take_fault_plan(),
            self.s16.cpu.take_fault_plan(),
        )
    }

    /// Total faults injected so far across both cores' armed plans.
    pub fn faults_fired(&self) -> u64 {
        self.s32
            .cpu
            .fault_plan()
            .map_or(0, FaultPlan::total_fired)
            .saturating_add(self.s16.cpu.fault_plan().map_or(0, FaultPlan::total_fired))
    }

    /// Bounds every kernel call to `budget` instructions: a corrupted
    /// kernel that loops forever is stopped and recorded as a typed
    /// [`KernelError::Timeout`] instead of hanging the measurement
    /// pool. `u64::MAX` (the construction default) disarms the
    /// watchdog.
    pub fn set_cycle_budget(&mut self, budget: u64) {
        self.s32.cpu.set_fuel(budget);
        self.s16.cpu.set_fuel(budget);
    }

    /// Sets the cycle cost charged per glue unit (algorithm-layer
    /// control overhead).
    pub fn set_glue_cost(&mut self, cost: f64) {
        self.glue_cost = cost;
    }

    /// Kernel divergences recorded so far (verification mode). Empty
    /// means every verified call matched its golden reference.
    pub fn kernel_errors(&self) -> &[KernelError] {
        &self.errors
    }

    /// Drains and returns the recorded kernel divergences.
    pub fn take_kernel_errors(&mut self) -> Vec<KernelError> {
        std::mem::take(&mut self.errors)
    }

    fn diverge(&mut self, kernel: KernelId, detail: String) {
        self.errors.push(KernelError::Divergence { kernel, detail });
    }

    /// Measures one kernel invocation: runs `kernel` on freshly written
    /// operands of `n` limbs (32-bit side) and returns the cycle count.
    /// Used by the characterization phase. Block-memory kernels (no
    /// register arguments) are measured by their own harnesses and
    /// yield [`KernelError::Unsupported`] here. Errors recorded
    /// *during* the measured invocation (divergence in verify mode,
    /// watchdog timeout, simulator fault) surface as `Err` so the flow
    /// layer can retry or quarantine.
    ///
    /// Cycle measurement is only meaningful on the cycle-accurate
    /// engine; with [`Fidelity::Fast`] selected this returns a typed
    /// [`KernelError::Unsupported`] so a mis-routed measurement can
    /// never silently report zero cycles.
    pub fn measure32(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<f64, KernelError> {
        self.measure::<u32>(kernel, n, seed)
    }

    /// 16-bit-radix counterpart of [`IssMpn::measure32`].
    pub fn measure16(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<f64, KernelError> {
        self.measure::<u16>(kernel, n, seed)
    }

    /// Verifies one kernel invocation against its registered golden
    /// reference on the same deterministic stimulus stream
    /// [`IssMpn::measure32`] uses, without reading cycles — the
    /// correctness half of a measurement, valid on either engine.
    /// Verification is forced on for the call regardless of
    /// [`IssMpn::set_verify`].
    pub fn verify32(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError> {
        self.verify::<u32>(kernel, n, seed)
    }

    /// 16-bit-radix counterpart of [`IssMpn::verify32`].
    pub fn verify16(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError> {
        self.verify::<u16>(kernel, n, seed)
    }

    fn measure<L: Limb>(
        &mut self,
        kernel: KernelId,
        n: usize,
        seed: u64,
    ) -> Result<f64, KernelError>
    where
        Self: MpnOps<L>,
    {
        if self.fidelity == Fidelity::Fast {
            return Err(KernelError::Unsupported {
                kernel,
                detail: "cycle measurement requires the cycle-accurate engine \
                         (Fidelity::CycleAccurate)"
                    .to_owned(),
            });
        }
        let before = self.cycles;
        self.drive::<L>(kernel, n, seed)?;
        Ok(self.cycles - before)
    }

    fn verify<L: Limb>(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError>
    where
        Self: MpnOps<L>,
    {
        let was = self.verify;
        self.verify = true;
        let out = self.drive::<L>(kernel, n, seed);
        self.verify = was;
        out
    }

    /// Drives one `L`-radix kernel invocation on deterministic stimuli
    /// derived from `seed` (the stream both `measure*` and `verify*`
    /// consume, byte-identical between them): each limb is the top
    /// `L::BITS` bits of one LCG step.
    fn drive<L: Limb>(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError>
    where
        Self: MpnOps<L>,
    {
        self.check_operands(kernel, n, L::BITS as usize / 8)?;
        let errors_before = self.errors.len();
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            L::from_u64(x >> (64 - L::BITS))
        };
        let mut limbs = |n: usize| -> Vec<L> { (0..n).map(|_| next()).collect() };
        match kernel {
            id::ADD_N | id::SUB_N => {
                let (a, b) = (limbs(n), limbs(n));
                let mut r = vec![L::ZERO; n];
                if kernel == id::ADD_N {
                    MpnOps::<L>::add_n(self, &mut r, &a, &b);
                } else {
                    MpnOps::<L>::sub_n(self, &mut r, &a, &b);
                }
            }
            id::MUL_1 | id::ADDMUL_1 | id::SUBMUL_1 => {
                let (a, mut r) = (limbs(n), limbs(n));
                let b = next();
                match kernel {
                    id::MUL_1 => MpnOps::<L>::mul_1(self, &mut r, &a, b),
                    id::ADDMUL_1 => MpnOps::<L>::addmul_1(self, &mut r, &a, b),
                    _ => MpnOps::<L>::submul_1(self, &mut r, &a, b),
                };
            }
            id::LSHIFT | id::RSHIFT => {
                let a = limbs(n);
                let mut r = vec![L::ZERO; n];
                let cnt = (next().to_u64() % u64::from(L::BITS - 1)) as u32 + 1;
                if kernel == id::LSHIFT {
                    MpnOps::<L>::lshift(self, &mut r, &a, cnt);
                } else {
                    MpnOps::<L>::rshift(self, &mut r, &a, cnt);
                }
            }
            id::DIV_QHAT => {
                let d1 = next() | L::ONE << (L::BITS - 1);
                let d0 = next();
                let n2 = L::from_u64(next().to_u64() % d1.to_u64());
                MpnOps::<L>::div_qhat(self, n2, next(), next(), d1, d0);
            }
            other => {
                return Err(KernelError::Unsupported {
                    kernel: other,
                    detail: format!("no register-level {}-bit measurement harness", L::BITS),
                })
            }
        }
        if let Some(e) = self.errors.get(errors_before) {
            return Err(e.clone());
        }
        Ok(())
    }

    /// Refuses, before anything is simulated, `n` limbs of
    /// `limb_bytes` each that overrun the kernel operand regions. The
    /// smallest region bounds them all; `div_qhat` takes its operands
    /// in registers, so any `n` passes.
    fn check_operands(
        &self,
        kernel: KernelId,
        n: usize,
        limb_bytes: usize,
    ) -> Result<(), KernelError> {
        let mem_size = self.s32.cpu.config().mem_size;
        let region = ((AP_ADDR - RP_ADDR).min(BP_ADDR - AP_ADDR) as usize)
            .min(mem_size.saturating_sub(BP_ADDR as usize));
        let capacity = region / limb_bytes;
        if n <= capacity || !id::MPN.contains(&kernel) || kernel == id::DIV_QHAT {
            return Ok(());
        }
        Err(KernelError::Unsupported {
            kernel,
            detail: format!("{n} limbs overrun the {capacity}-limb kernel operand regions"),
        })
    }

    /// Records a simulator error as the matching typed kernel error.
    /// The degraded in-band result is 0 — callers on the measurement
    /// path must check [`IssMpn::kernel_errors`] (or use
    /// [`IssMpn::measure32`]/[`IssMpn::measure16`], which surface newly
    /// recorded errors as `Err`).
    fn record_sim_error(&mut self, kernel: KernelId, e: SimError) {
        self.errors.push(match e {
            SimError::OutOfFuel { executed } => KernelError::Timeout { kernel, executed },
            other => KernelError::Faulted {
                kernel,
                detail: other.to_string(),
            },
        });
    }

    /// Runs the [`id::MPN`] kernel in `slot` on the `L`-radix core and
    /// returns `a0`. A kernel absent from the library fails with the
    /// simulator's undefined-label error. A simulator fault or watchdog
    /// timeout is recorded as a typed error and yields a degraded 0
    /// result.
    fn call<L: Limb>(&mut self, slot: usize, args: &[u32]) -> u32 {
        let kernel = id::MPN[slot];
        let side = if L::BITS == 32 {
            &mut self.s32
        } else {
            &mut self.s16
        };
        let sink = self.sink.as_deref_mut();
        let run = match side.entries[slot] {
            Some(entry) => side
                .cpu
                .call_at(&side.prog, entry, kernel.name(), args, sink),
            None => side.cpu.call_traced(&side.prog, kernel.name(), args, sink),
        };
        match run {
            Ok(summary) => {
                self.cycles += summary.cycles as f64;
                side.cpu.reg(0)
            }
            Err(e) => {
                self.record_sim_error(kernel, e);
                0
            }
        }
    }

    /// The core of the `L`-radix side.
    fn cpu<L: Limb>(&mut self) -> &mut Cpu {
        if L::BITS == 32 {
            &mut self.s32.cpu
        } else {
            &mut self.s16.cpu
        }
    }

    /// A limb-vector pair kernel (`add_n`, `sub_n`): returns its carry.
    fn vec_vec<L: Limb>(
        &mut self,
        slot: usize,
        golden: impl FnOnce() -> fn(&mut [L], &[L], &[L]) -> bool,
        r: &mut [L],
        a: &[L],
        b: &[L],
    ) -> bool {
        self.counts.bump(slot);
        let n = a.len();
        if self.lost() {
            return golden()(&mut r[..n], a, b);
        }
        let cpu = self.cpu::<L>();
        write_limbs(cpu, AP_ADDR, a);
        write_limbs(cpu, BP_ADDR, b);
        let carry = self.call::<L>(slot, &[RP_ADDR, AP_ADDR, BP_ADDR, n as u32]) != 0;
        read_limbs(self.cpu::<L>(), RP_ADDR, &mut r[..n]);
        if self.verify {
            let mut expect = vec![L::ZERO; n];
            let ec = golden()(&mut expect, a, b);
            if r[..n] != expect[..] || carry != ec {
                self.diverge(id::MPN[slot], format!("n={n}"));
            }
            if self.lost() {
                r[..n].copy_from_slice(&expect);
                return ec;
            }
        }
        carry
    }

    /// A limb-vector by scalar kernel (`mul_1`, and the accumulating
    /// `addmul_1`/`submul_1`, which also read `r`): returns its carry
    /// limb.
    fn vec_scalar<L: Limb>(
        &mut self,
        slot: usize,
        golden: impl FnOnce() -> fn(&mut [L], &[L], L) -> L,
        r: &mut [L],
        a: &[L],
        b: L,
    ) -> L {
        self.counts.bump(slot);
        let n = a.len();
        if self.lost() {
            return golden()(&mut r[..n], a, b);
        }
        let accumulates = slot != slot::MUL_1;
        let expect = self.verify.then(|| {
            let mut expect = if accumulates {
                r[..n].to_vec()
            } else {
                vec![L::ZERO; n]
            };
            let ec = golden()(&mut expect, a, b);
            (expect, ec)
        });
        let cpu = self.cpu::<L>();
        write_limbs(cpu, AP_ADDR, a);
        if accumulates {
            write_limbs(cpu, RP_ADDR, &r[..n]);
        }
        let args = [RP_ADDR, AP_ADDR, n as u32, b.to_u64() as u32];
        let carry = L::from_u64(self.call::<L>(slot, &args) as u64);
        read_limbs(self.cpu::<L>(), RP_ADDR, &mut r[..n]);
        if let Some((expect, ec)) = expect {
            if r[..n] != expect[..] || carry != ec {
                self.diverge(id::MPN[slot], format!("n={n}"));
            }
            if self.lost() {
                r[..n].copy_from_slice(&expect);
                return ec;
            }
        }
        carry
    }

    /// A shift kernel (`lshift`, `rshift`): returns the shifted-out
    /// bits.
    fn vec_shift<L: Limb>(
        &mut self,
        slot: usize,
        golden: impl FnOnce() -> fn(&mut [L], &[L], u32) -> L,
        r: &mut [L],
        a: &[L],
        cnt: u32,
    ) -> L {
        self.counts.bump(slot);
        let n = a.len();
        if self.lost() {
            return golden()(&mut r[..n], a, cnt);
        }
        write_limbs(self.cpu::<L>(), AP_ADDR, a);
        let args = [RP_ADDR, AP_ADDR, n as u32, cnt];
        let out_bits = L::from_u64(self.call::<L>(slot, &args) as u64);
        read_limbs(self.cpu::<L>(), RP_ADDR, &mut r[..n]);
        if self.verify {
            let mut expect = vec![L::ZERO; n];
            let eo = golden()(&mut expect, a, cnt);
            if r[..n] != expect[..] || out_bits != eo {
                self.diverge(id::MPN[slot], format!("n={n} cnt={cnt}"));
            }
            if self.lost() {
                r[..n].copy_from_slice(&expect);
                return eo;
            }
        }
        out_bits
    }

    /// The 3-by-2 quotient-limb estimate.
    fn div3by2<L: Limb>(
        &mut self,
        golden: impl FnOnce() -> fn(L, L, L, L, L) -> L,
        [n2, n1, n0, d1, d0]: [L; 5],
    ) -> L {
        self.counts.bump(slot::DIV_QHAT);
        if self.lost() {
            return golden()(n2, n1, n0, d1, d0);
        }
        let args = [n2, n1, n0, d1, d0].map(|l| l.to_u64() as u32);
        let q = L::from_u64(self.call::<L>(slot::DIV_QHAT, &args) as u64);
        if self.verify {
            let expect = golden()(n2, n1, n0, d1, d0);
            if q != expect {
                self.diverge(
                    id::DIV_QHAT,
                    format!("got {} expected {}", q.to_u64(), expect.to_u64()),
                );
            }
            if self.lost() {
                return expect;
            }
        }
        q
    }
}

/// Writes limbs into simulator memory (width-dispatched).
fn write_limbs<L: Limb>(cpu: &mut Cpu, addr: u32, data: &[L]) {
    match L::BITS {
        32 => {
            for (i, &v) in data.iter().enumerate() {
                cpu.mem_mut()
                    .store_u32(addr + 4 * i as u32, v.to_u64() as u32)
                    .expect("kernel operand region in range");
            }
        }
        16 => {
            for (i, &v) in data.iter().enumerate() {
                cpu.mem_mut()
                    .store_u16(addr + 2 * i as u32, v.to_u64() as u16)
                    .expect("kernel operand region in range");
            }
        }
        other => panic!("unsupported limb width {other}"),
    }
}

/// Reads `out.len()` limbs from simulator memory into `out`.
fn read_limbs<L: Limb>(cpu: &Cpu, addr: u32, out: &mut [L]) {
    match L::BITS {
        32 => {
            for (i, o) in out.iter_mut().enumerate() {
                let v = cpu.mem().load_u32(addr + 4 * i as u32).expect("in range");
                *o = L::from_u64(v as u64);
            }
        }
        16 => {
            for (i, o) in out.iter_mut().enumerate() {
                let v = cpu.mem().load_u16(addr + 2 * i as u32).expect("in range");
                *o = L::from_u64(v as u64);
            }
        }
        other => panic!("unsupported limb width {other}"),
    }
}

/// The registered golden reference of one kernel at the macro's limb
/// width, looked up only when a call is verified: `$golden` is the
/// `CallConv` field name (`golden32` or `golden16`) and `$shape` the
/// convention the kernel must have.
macro_rules! golden {
    ($kernel:expr, $shape:ident, $golden:ident) => {
        || {
            let desc = kreg::get($kernel).expect("kernel registered");
            match desc.conv {
                CallConv::$shape { $golden: g, .. } => g,
                _ => unreachable!("registry pins {} as {}", $kernel, stringify!($shape)),
            }
        }
    };
}

macro_rules! impl_iss_mpnops {
    ($limb:ty, $golden:ident) => {
        impl MpnOps<$limb> for IssMpn {
            fn add_n(&mut self, r: &mut [$limb], a: &[$limb], b: &[$limb]) -> bool {
                self.vec_vec(slot::ADD_N, golden!(id::ADD_N, VecVec, $golden), r, a, b)
            }

            fn sub_n(&mut self, r: &mut [$limb], a: &[$limb], b: &[$limb]) -> bool {
                self.vec_vec(slot::SUB_N, golden!(id::SUB_N, VecVec, $golden), r, a, b)
            }

            fn mul_1(&mut self, r: &mut [$limb], a: &[$limb], b: $limb) -> $limb {
                let g = golden!(id::MUL_1, VecScalar, $golden);
                self.vec_scalar(slot::MUL_1, g, r, a, b)
            }

            fn addmul_1(&mut self, r: &mut [$limb], a: &[$limb], b: $limb) -> $limb {
                let g = golden!(id::ADDMUL_1, VecScalar, $golden);
                self.vec_scalar(slot::ADDMUL_1, g, r, a, b)
            }

            fn submul_1(&mut self, r: &mut [$limb], a: &[$limb], b: $limb) -> $limb {
                let g = golden!(id::SUBMUL_1, VecScalar, $golden);
                self.vec_scalar(slot::SUBMUL_1, g, r, a, b)
            }

            fn lshift(&mut self, r: &mut [$limb], a: &[$limb], cnt: u32) -> $limb {
                let g = golden!(id::LSHIFT, VecShift, $golden);
                self.vec_shift(slot::LSHIFT, g, r, a, cnt)
            }

            fn rshift(&mut self, r: &mut [$limb], a: &[$limb], cnt: u32) -> $limb {
                let g = golden!(id::RSHIFT, VecShift, $golden);
                self.vec_shift(slot::RSHIFT, g, r, a, cnt)
            }

            fn div_qhat(&mut self, n2: $limb, n1: $limb, n0: $limb, d1: $limb, d0: $limb) -> $limb {
                let g = golden!(id::DIV_QHAT, Div3by2, $golden);
                self.div3by2(g, [n2, n1, n0, d1, d0])
            }

            fn glue(&mut self, units: u64) {
                self.cycles += self.glue_cost * units as f64;
            }

            fn cycles(&self) -> f64 {
                self.cycles
            }

            fn reset(&mut self) {
                self.cycles = 0.0;
                self.counts.clear();
            }

            fn call_count(&self, op: KernelId) -> u64 {
                self.counts.get(op)
            }
        }
    };
}

impl_iss_mpnops!(u32, golden32);
impl_iss_mpnops!(u16, golden16);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xr32::xcore::memo;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x155)
    }

    #[test]
    fn base_kernels_match_native_u32() {
        let mut iss = IssMpn::base(CpuConfig::default());
        let mut r = rng();
        for n in [1usize, 2, 3, 7, 8, 31, 32] {
            let a: Vec<u32> = (0..n).map(|_| r.random()).collect();
            let b: Vec<u32> = (0..n).map(|_| r.random()).collect();
            let mut out = vec![0u32; n];
            // Verification mode records divergences; none must occur.
            MpnOps::<u32>::add_n(&mut iss, &mut out, &a, &b);
            MpnOps::<u32>::sub_n(&mut iss, &mut out, &a, &b);
            MpnOps::<u32>::mul_1(&mut iss, &mut out, &a, 0xdead_beef);
            let mut acc = b.clone();
            MpnOps::<u32>::addmul_1(&mut iss, &mut acc, &a, xpar::SEED_STEP32);
            MpnOps::<u32>::submul_1(&mut iss, &mut acc, &a, 0x0bad_f00d);
            MpnOps::<u32>::lshift(&mut iss, &mut out, &a, 13);
            MpnOps::<u32>::rshift(&mut iss, &mut out, &a, 5);
        }
        assert!(MpnOps::<u32>::cycles(&iss) > 0.0);
        assert!(iss.kernel_errors().is_empty(), "{:?}", iss.kernel_errors());
    }

    #[test]
    fn base_kernels_match_native_u16() {
        let mut iss = IssMpn::base(CpuConfig::default());
        let mut r = rng();
        for n in [1usize, 5, 16, 33] {
            let a: Vec<u16> = (0..n).map(|_| r.random()).collect();
            let b: Vec<u16> = (0..n).map(|_| r.random()).collect();
            let mut out = vec![0u16; n];
            MpnOps::<u16>::add_n(&mut iss, &mut out, &a, &b);
            MpnOps::<u16>::sub_n(&mut iss, &mut out, &a, &b);
            MpnOps::<u16>::mul_1(&mut iss, &mut out, &a, 0xbeef);
            let mut acc = b.clone();
            MpnOps::<u16>::addmul_1(&mut iss, &mut acc, &a, 0x79b9);
            MpnOps::<u16>::submul_1(&mut iss, &mut acc, &a, 0xf00d);
            MpnOps::<u16>::lshift(&mut iss, &mut out, &a, 7);
            MpnOps::<u16>::rshift(&mut iss, &mut out, &a, 3);
        }
        assert!(iss.kernel_errors().is_empty(), "{:?}", iss.kernel_errors());
    }

    #[test]
    fn accelerated_kernels_match_native() {
        for (al, ml) in [(2u32, 1u32), (4, 2), (8, 4), (16, 4)] {
            let mut iss = IssMpn::accelerated(CpuConfig::default(), al, ml);
            let mut r = rng();
            for n in [1usize, 3, 4, 17, 32] {
                let a: Vec<u32> = (0..n).map(|_| r.random()).collect();
                let b: Vec<u32> = (0..n).map(|_| r.random()).collect();
                let mut out = vec![0u32; n];
                MpnOps::<u32>::add_n(&mut iss, &mut out, &a, &b);
                MpnOps::<u32>::sub_n(&mut iss, &mut out, &a, &b);
                let mut acc = b.clone();
                MpnOps::<u32>::addmul_1(&mut iss, &mut acc, &a, 0x1234_5677);
                MpnOps::<u32>::submul_1(&mut iss, &mut acc, &a, 0x7654_3211);
            }
            assert!(iss.kernel_errors().is_empty(), "a{al}m{ml}");
        }
    }

    #[test]
    fn div_qhat_kernel_matches_reference_u32_and_u16() {
        let mut iss = IssMpn::base(CpuConfig::default());
        let mut r = rng();
        for _ in 0..40 {
            let d1: u32 = r.random::<u32>() | 0x8000_0000;
            let d0: u32 = r.random();
            let n2: u32 = r.random::<u32>() % d1;
            let n1: u32 = r.random();
            let n0: u32 = r.random();
            // verify-mode records any mismatch with the reference.
            MpnOps::<u32>::div_qhat(&mut iss, n2, n1, n0, d1, d0);

            let d1: u16 = r.random::<u16>() | 0x8000;
            let d0: u16 = r.random();
            let n2: u16 = r.random::<u16>() % d1;
            MpnOps::<u16>::div_qhat(&mut iss, n2, r.random(), r.random(), d1, d0);
        }
        assert!(iss.kernel_errors().is_empty(), "{:?}", iss.kernel_errors());
    }

    #[test]
    fn div_qhat_kernel_edge_case_top_limb_equals_divisor() {
        let mut iss = IssMpn::base(CpuConfig::default());
        // n2 == d1: the Knuth clamp path.
        MpnOps::<u32>::div_qhat(&mut iss, 0x8000_0000, 5, 7, 0x8000_0000, 0x1234);
        MpnOps::<u32>::div_qhat(
            &mut iss,
            0xffff_ffff,
            0xffff_ffff,
            0xffff_ffff,
            0xffff_ffff,
            0xffff_ffff,
        );
        MpnOps::<u16>::div_qhat(&mut iss, 0x8000, 5, 7, 0x8000, 0x34);
        assert!(iss.kernel_errors().is_empty(), "{:?}", iss.kernel_errors());
    }

    #[test]
    fn acceleration_reduces_cycles() {
        let n = 32;
        let a: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(xpar::SEED_STEP32))
            .collect();
        let b: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x85eb_ca6b)).collect();

        let mut base = IssMpn::base(CpuConfig::default());
        let mut out = vec![0u32; n];
        // Warm the caches, then measure.
        MpnOps::<u32>::add_n(&mut base, &mut out, &a, &b);
        MpnOps::<u32>::reset(&mut base);
        MpnOps::<u32>::add_n(&mut base, &mut out, &a, &b);
        let base_cycles = MpnOps::<u32>::cycles(&base);

        let mut fast = IssMpn::accelerated(CpuConfig::default(), 8, 4);
        MpnOps::<u32>::add_n(&mut fast, &mut out, &a, &b);
        MpnOps::<u32>::reset(&mut fast);
        MpnOps::<u32>::add_n(&mut fast, &mut out, &a, &b);
        let fast_cycles = MpnOps::<u32>::cycles(&fast);

        assert!(
            fast_cycles * 1.5 < base_cycles,
            "accelerated add_n {fast_cycles} vs base {base_cycles}"
        );
    }

    #[test]
    fn measure32_is_monotone_in_n() {
        let mut iss = IssMpn::base(CpuConfig::default());
        let c8 = iss.measure32(id::ADDMUL_1, 8, 1).unwrap();
        let c32 = iss.measure32(id::ADDMUL_1, 32, 2).unwrap();
        assert!(c32 > c8, "32-limb ({c32}) vs 8-limb ({c8})");
    }

    #[test]
    fn block_kernels_are_unsupported_by_register_harness() {
        let mut iss = IssMpn::base(CpuConfig::default());
        let err = iss.measure32(id::SHA1, 1, 1).unwrap_err();
        assert!(matches!(err, KernelError::Unsupported { kernel, .. } if kernel == id::SHA1));
        let err = iss.measure16(id::SHA1, 1, 1).unwrap_err();
        assert!(matches!(err, KernelError::Unsupported { .. }));
    }

    #[test]
    fn glue_is_charged() {
        let mut iss = IssMpn::base(CpuConfig::default());
        iss.set_glue_cost(3.0);
        MpnOps::<u32>::glue(&mut iss, 5);
        assert_eq!(MpnOps::<u32>::cycles(&iss), 15.0);
    }

    #[test]
    fn injected_data_faults_surface_as_typed_divergences() {
        // A certain-fire data-fault campaign corrupts every load, so a
        // verified measurement must report a divergence instead of
        // silently returning corrupted cycles.
        let mut iss = IssMpn::base(CpuConfig::default());
        iss.set_fault_plan(
            PlanSpec::new(7, 1_000_000, &[xfault::FaultSite::DataMem]),
            0,
        );
        let err = iss.measure32(id::ADD_N, 8, 1).unwrap_err();
        assert!(
            matches!(err, KernelError::Divergence { kernel, .. } if kernel == id::ADD_N),
            "got {err}"
        );
        assert!(!iss.kernel_errors().is_empty());
        let (p32, _) = iss.take_fault_plans();
        assert!(p32.unwrap().total_fired() > 0);
    }

    #[test]
    fn cycle_budget_turns_runaway_kernels_into_timeouts() {
        let mut iss = IssMpn::base(CpuConfig::default());
        // A budget far below any real kernel invocation: the watchdog
        // must fire and the measurement must report a typed timeout.
        iss.set_cycle_budget(4);
        let err = iss.measure32(id::ADDMUL_1, 32, 1).unwrap_err();
        assert!(
            matches!(err, KernelError::Timeout { kernel, .. } if kernel == id::ADDMUL_1),
            "got {err}"
        );
        // Disarming the watchdog restores normal measurement.
        iss.take_kernel_errors();
        iss.set_cycle_budget(u64::MAX);
        assert!(iss.measure32(id::ADDMUL_1, 32, 1).is_ok());
    }

    #[test]
    fn fast_fidelity_verifies_but_refuses_measurement() {
        let mut iss = IssMpn::base(CpuConfig::default());
        iss.set_fidelity(Fidelity::Fast);
        iss.verify32(id::ADD_N, 8, 1).unwrap();
        assert!(iss.kernel_errors().is_empty());
        let err = iss.measure32(id::ADD_N, 8, 1).unwrap_err();
        assert!(
            matches!(err, KernelError::Unsupported { kernel, .. } if kernel == id::ADD_N),
            "got {err}"
        );
        let err = iss.measure16(id::ADD_N, 8, 1).unwrap_err();
        assert!(matches!(err, KernelError::Unsupported { .. }), "got {err}");
    }

    #[test]
    fn fast_and_accurate_agree_on_architectural_state() {
        let drive = |fidelity: Fidelity| {
            let mut iss = IssMpn::base(CpuConfig::default());
            iss.set_fidelity(fidelity);
            for kernel in [
                id::ADD_N,
                id::SUB_N,
                id::MUL_1,
                id::ADDMUL_1,
                id::SUBMUL_1,
                id::LSHIFT,
                id::RSHIFT,
                id::DIV_QHAT,
            ] {
                for n in [1usize, 3, 8, 33] {
                    iss.verify32(kernel, n, 0xC0FFEE ^ n as u64).unwrap();
                    iss.verify16(kernel, n, 0xC0FFEE ^ n as u64).unwrap();
                }
            }
            (iss.arch_state32(), iss.arch_state16())
        };
        let accurate = drive(Fidelity::CycleAccurate);
        let fast = drive(Fidelity::Fast);
        assert_eq!(accurate, fast, "engines must agree bit-for-bit");
        assert!(fast.0.retired > 0);
    }

    #[test]
    fn same_campaign_seed_and_stream_reproduce_identical_errors() {
        let run = || {
            let mut iss = IssMpn::base(CpuConfig::default());
            iss.set_fault_plan(PlanSpec::all_sites(0xFEED, 200_000), 3);
            let r = iss.measure32(id::MUL_1, 8, 5);
            let errs: Vec<String> = iss
                .take_kernel_errors()
                .into_iter()
                .map(|e| e.to_string())
                .collect();
            (r.map_err(|e| e.to_string()), errs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn providers_of_one_variant_share_one_library() {
        let base = || IssMpn::base(CpuConfig::default());
        let (a, b) = (base(), base());
        assert!(Arc::ptr_eq(&a.s32.prog, &b.s32.prog));
        let accel = IssMpn::accelerated(CpuConfig::ooo(), 4, 2);
        assert!(!Arc::ptr_eq(&a.s32.prog, &accel.s32.prog));
        assert!(
            Arc::ptr_eq(&a.s16.prog, &accel.s16.prog),
            "one 16-bit library"
        );
        // Generated sources are assembled per provider.
        let src = kmpn::base32_source();
        let gen = IssMpn::with_library(CpuConfig::default(), &src, ExtensionSet::new());
        assert!(!Arc::ptr_eq(&a.s32.prog, &gen.s32.prog));
    }

    #[test]
    fn concurrent_construction_yields_one_library_per_variant() {
        let pool = xpar::Pool::new(8);
        let jobs: Vec<usize> = (0..8 * KernelVariant::ALL.len()).collect();
        let built = pool.par_map(&jobs, |_, &j| {
            // Each worker walks the variants from a different start.
            let v = KernelVariant::ALL[(j * 5) % KernelVariant::ALL.len()];
            let iss = IssMpn::with_variant(CpuConfig::default(), v);
            (v.index().unwrap(), Arc::as_ptr(&iss.s32.prog) as usize)
        });
        let mut seen = [None; KernelVariant::ALL.len()];
        for (ix, ptr) in built {
            assert_eq!(
                *seen[ix].get_or_insert(ptr),
                ptr,
                "variant {ix} built twice"
            );
        }
        let mut ptrs: Vec<usize> = seen.iter().map(|p| p.unwrap()).collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        assert_eq!(
            ptrs.len(),
            KernelVariant::ALL.len(),
            "one library per variant"
        );
    }

    #[test]
    fn kernel_entries_resolve_once_and_absent_kernels_fail_typed() {
        let iss = IssMpn::base(CpuConfig::default());
        for (slot, k) in id::MPN.into_iter().enumerate() {
            assert_eq!(iss.s32.entries[slot], iss.s32.prog.label(k.name()));
            assert!(iss.s16.entries[slot].is_some(), "{k}");
        }
        // A single-kernel library: the other kernels keep failing with
        // the simulator's undefined-label error.
        let src = "mpn_add_n:\n    movi a0, 0\n    ret\n";
        let mut one = IssMpn::with_library(CpuConfig::default(), src, ExtensionSet::new());
        one.set_verify(false);
        assert!(one.measure32(id::ADD_N, 4, 1).is_ok());
        let err = one.measure32(id::MUL_1, 4, 1).unwrap_err();
        assert!(
            matches!(&err, KernelError::Faulted { kernel, detail }
                if *kernel == id::MUL_1 && detail.contains("undefined entry label \"mpn_mul_1\"")),
            "got {err}"
        );
    }

    /// The `;! entry` annotation of `kernel` in `src` and the source
    /// lines up to the next entry.
    fn entry_section(src: &str, kernel: KernelId) -> Vec<&str> {
        let head = format!(";! entry {} ", kernel.name());
        let mut lines = src.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines.next().expect("annotated entry");
        std::iter::once(first)
            .chain(lines.take_while(|l| !l.starts_with(";! entry ")))
            .collect()
    }

    #[test]
    fn memoized_kernels_key_on_their_linted_public_inputs() {
        for variant in KernelVariant::ALL {
            let mut iss = IssMpn::with_variant(CpuConfig::default(), variant);
            iss.memoize_calls();
            let src32 = match variant {
                KernelVariant::Base => kmpn::base32_source(),
                KernelVariant::Accelerated {
                    add_lanes,
                    mac_lanes,
                } => kmpn::accel32_source(add_lanes, mac_lanes),
            };
            let src16 = kmpn::base16_source();
            for (side, src) in [(&iss.s32, &src32), (&iss.s16, &src16)] {
                let spec = xlint::SecretSpec::from_source(src).unwrap();
                let report = xlint::analyze_source(src).unwrap();
                assert!(report.is_clean(), "{variant:?}: {:?}", report.findings());
                let memo = side.cpu.call_memo().expect("memo attached");
                for (kernel, entry) in id::MPN.into_iter().zip(side.entries) {
                    let entry = entry.expect("every mpn kernel is in the library");
                    let public = memo.public_inputs(&side.prog, entry);
                    if kernel == id::DIV_QHAT {
                        // Variable-time, so not keyed: a cost table times it.
                        assert_eq!(public, None, "{variant:?}: div_qhat is keyed");
                        let config = side.cpu.config();
                        assert!(
                            memo::cost_table_proves(&side.prog, entry, config),
                            "{variant:?}: div_qhat is cost-tabled"
                        );
                        continue;
                    }
                    let annotated = spec
                        .entries()
                        .iter()
                        .find(|e| e.label == kernel.name())
                        .expect("annotated entry");
                    let expect: Vec<Reg> = (0..16)
                        .map(Reg::new)
                        .filter(|&r| annotated.inputs.contains(r) && !annotated.secret.contains(r))
                        .collect();
                    assert_eq!(public, Some(expect), "{variant:?} {kernel}");
                    let section = entry_section(src, kernel);
                    assert!(
                        section.iter().all(|l| !l.contains("allow(")),
                        "{variant:?} {kernel}: a memoized entry carries an allow waiver"
                    );
                }
            }
        }
    }

    #[test]
    fn measurement_providers_never_take_the_memo_path() {
        let mut iss = IssMpn::base(CpuConfig::default());
        for _ in 0..3 {
            iss.measure32(id::ADD_N, 8, 5).unwrap();
            iss.measure16(id::LSHIFT, 8, 5).unwrap();
            iss.verify32(id::MUL_1, 8, 5).unwrap();
            let _ = iss.warm_up(|iss| iss.measure32(id::SUB_N, 8, 5));
        }
        assert_eq!(iss.memo_stats(), MemoStats::default());
        assert!(iss.s32.cpu.call_memo().is_none() && iss.s16.cpu.call_memo().is_none());
    }

    #[test]
    fn a_memoized_provider_replays_repeated_keys_with_unchanged_cycles() {
        let mut plain = IssMpn::base(CpuConfig::default());
        let mut memo = IssMpn::base(CpuConfig::default());
        memo.memoize_calls();
        for seed in 0..4 {
            for kernel in id::MPN {
                let a = plain.measure32(kernel, 8, seed).unwrap();
                assert_eq!(memo.measure32(kernel, 8, seed).unwrap(), a, "{kernel}");
                let a = plain.measure16(kernel, 8, seed).unwrap();
                assert_eq!(memo.measure16(kernel, 8, seed).unwrap(), a, "{kernel}");
            }
        }
        assert_eq!(memo.arch_state32(), plain.arch_state32());
        assert_eq!(memo.arch_state16(), plain.arch_state16());
        let stats = memo.memo_stats();
        assert!(stats.replays > 0, "{stats:?}");
        // Two radices × seven constant-time kernels and `div_qhat` ×
        // four seeds; the first `div_qhat` call on each core runs the
        // plain model, which fills its I-lines.
        assert_eq!(stats.calls, 2 * 8 * 4);
        assert_eq!(stats.tabled, 2 * 3, "{stats:?}");
        assert!(stats.tabled_insns > 300 * stats.tabled, "{stats:?}");
    }

    #[test]
    fn a_lost_provider_serves_golden_results_without_simulating() {
        let mut iss = IssMpn::base(CpuConfig::default());
        iss.golden_after_error();
        iss.set_fault_plan(
            PlanSpec::new(7, 1_000_000, &[xfault::FaultSite::DataMem]),
            0,
        );
        let (a, b) = ([5u32, 6, 7], [1u32, 2, 3]);
        let mut r = [0u32; 3];
        MpnOps::<u32>::add_n(&mut iss, &mut r, &a, &b);
        assert_eq!(r, [6, 8, 10], "the failing call returns its golden result");
        assert_eq!(iss.kernel_errors().len(), 1);
        let retired = iss.arch_state32().retired;
        let carry = MpnOps::<u32>::addmul_1(&mut iss, &mut r, &a, 2);
        assert_eq!((r, carry), ([16, 20, 24], 0));
        let q = MpnOps::<u32>::div_qhat(&mut iss, 1, 0, 0, 0x8000_0000, 0);
        assert_eq!(q, 2);
        let out = MpnOps::<u32>::lshift(&mut iss, &mut r, &a, 1);
        assert_eq!((r, out), ([10, 12, 14], 0));
        assert_eq!(iss.arch_state32().retired, retired, "nothing simulated");
        assert_eq!(iss.kernel_errors().len(), 1, "no further errors");
        assert_eq!(MpnOps::<u32>::call_count(&iss, id::ADDMUL_1), 1);
    }

    #[test]
    fn operand_counts_beyond_the_operand_regions_are_refused() {
        // The result region [RP_ADDR, AP_ADDR) is the smallest.
        let words = (AP_ADDR - RP_ADDR) as usize / 4;
        let halves = (AP_ADDR - RP_ADDR) as usize / 2;
        let mut iss = IssMpn::base(CpuConfig::default());
        iss.set_verify(false);
        for kernel in [id::ADD_N, id::ADDMUL_1, id::LSHIFT] {
            let err = iss.measure32(kernel, words + 1, 1).unwrap_err();
            assert!(
                matches!(err, KernelError::Unsupported { kernel: k, .. } if k == kernel),
                "got {err}"
            );
            let err = iss.measure16(kernel, halves + 1, 1).unwrap_err();
            assert!(matches!(err, KernelError::Unsupported { .. }), "got {err}");
            assert!(iss.verify32(kernel, 1 << 20, 1).is_err());
        }
        assert!(iss.kernel_errors().is_empty(), "refused before simulating");
        assert!(iss.measure32(id::ADD_N, words, 1).is_ok());
        assert!(iss.measure16(id::SUB_N, halves, 1).is_ok());
        // Register operands only: any count passes.
        assert!(iss.measure32(id::DIV_QHAT, 1 << 20, 1).is_ok());
    }
}
