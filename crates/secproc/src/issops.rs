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
use xfault::{FaultPlan, PlanSpec};
use xobs::trace::TraceSink;
use xr32::asm::{assemble, Program};
use xr32::config::CpuConfig;
use xr32::cpu::{Cpu, SimError};
use xr32::ext::ExtensionSet;
use xr32::Fidelity;

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

/// ISS-backed [`MpnOps`] provider (32-bit and 16-bit radix sides).
pub struct IssMpn {
    cpu32: Cpu,
    prog32: Program,
    cpu16: Cpu,
    prog16: Program,
    cycles: f64,
    counts: CallCounts,
    glue_cost: f64,
    verify: bool,
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

    /// Builds a provider for an explicit kernel variant.
    ///
    /// # Panics
    ///
    /// Panics if the bundled kernel sources fail to assemble (a build
    /// defect, not a runtime condition).
    pub fn with_variant(config: CpuConfig, variant: KernelVariant) -> Self {
        let (src32, ext): (String, ExtensionSet) = match variant {
            KernelVariant::Base => (kmpn::base32_source(), ExtensionSet::new()),
            KernelVariant::Accelerated {
                add_lanes,
                mac_lanes,
            } => (
                kmpn::accel32_source(add_lanes, mac_lanes),
                insns::mpn_extension_set(add_lanes, mac_lanes),
            ),
        };
        Self::with_library(config, &src32, ext)
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
        let prog16 =
            assemble(&kmpn::base16_source()).expect("bundled 16-bit kernels must assemble");
        let mut cpu32 = Cpu::with_extensions(config.clone(), ext);
        cpu32.set_fuel(u64::MAX);
        let mut cpu16 = Cpu::new(config);
        cpu16.set_fuel(u64::MAX);
        IssMpn {
            cpu32,
            prog32,
            cpu16,
            prog16,
            cycles: 0.0,
            counts: CallCounts::default(),
            glue_cost: 4.0,
            verify: true,
            errors: Vec::new(),
            sink: None,
            fidelity: Fidelity::CycleAccurate,
        }
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
        self.cpu32.set_fidelity(fidelity);
        self.cpu16.set_fidelity(fidelity);
    }

    /// The execution engine both radix cores currently use.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Architectural state of the 32-bit radix core (for dual-fidelity
    /// co-simulation spot checks).
    pub fn arch_state32(&self) -> ArchState {
        ArchState::of(&self.cpu32)
    }

    /// Architectural state of the 16-bit radix core.
    pub fn arch_state16(&self) -> ArchState {
        ArchState::of(&self.cpu16)
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

    /// Detaches and returns the current trace sink.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Raw cycle counters of the two radix cores, `(cpu32, cpu16)`.
    /// Their sum is the total simulated cycles an attached
    /// [`xobs::Attribution`] sink must account for exactly.
    pub fn core_cycles(&self) -> (u64, u64) {
        (self.cpu32.cycles(), self.cpu16.cycles())
    }

    /// The *CoreConfigId* of the pipeline model both radix cores run
    /// (`"io"`, `"ooo-…"`). `measure32`/`measure16` cycle counts are
    /// only comparable between ISS instances that report the same id;
    /// the flow layers stamp it into measurement units, span attributes
    /// and report points.
    pub fn core_id(&self) -> String {
        self.cpu32.config().core_id()
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
        self.cpu32.set_fault_plan(spec.plan(stream.wrapping_mul(2)));
        self.cpu16
            .set_fault_plan(spec.plan(stream.wrapping_mul(2).wrapping_add(1)));
    }

    /// Disarms fault injection and returns the plans of the two radix
    /// cores `(cpu32, cpu16)` with their fired-injection counters.
    pub fn take_fault_plans(&mut self) -> (Option<FaultPlan>, Option<FaultPlan>) {
        (self.cpu32.take_fault_plan(), self.cpu16.take_fault_plan())
    }

    /// Total faults injected so far across both cores' armed plans.
    pub fn faults_fired(&self) -> u64 {
        self.cpu32
            .fault_plan()
            .map_or(0, FaultPlan::total_fired)
            .saturating_add(self.cpu16.fault_plan().map_or(0, FaultPlan::total_fired))
    }

    /// Bounds every kernel call to `budget` instructions: a corrupted
    /// kernel that loops forever is stopped and recorded as a typed
    /// [`KernelError::Timeout`] instead of hanging the measurement
    /// pool. `u64::MAX` (the construction default) disarms the
    /// watchdog.
    pub fn set_cycle_budget(&mut self, budget: u64) {
        self.cpu32.set_fuel(budget);
        self.cpu16.set_fuel(budget);
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
        if self.fidelity == Fidelity::Fast {
            return Err(KernelError::Unsupported {
                kernel,
                detail: "cycle measurement requires the cycle-accurate engine \
                         (Fidelity::CycleAccurate)"
                    .to_owned(),
            });
        }
        let before = self.cycles;
        self.drive32(kernel, n, seed)?;
        Ok(self.cycles - before)
    }

    /// Verifies one kernel invocation against its registered golden
    /// reference on the same deterministic stimulus stream
    /// [`IssMpn::measure32`] uses, without reading cycles — the
    /// correctness half of a measurement, valid on either engine.
    /// Verification is forced on for the call regardless of
    /// [`IssMpn::set_verify`].
    pub fn verify32(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError> {
        let was = self.verify;
        self.verify = true;
        let out = self.drive32(kernel, n, seed);
        self.verify = was;
        out
    }

    /// Drives one 32-bit kernel invocation on deterministic stimuli
    /// derived from `seed` (the stream both [`IssMpn::measure32`] and
    /// [`IssMpn::verify32`] consume, byte-identical between them).
    fn drive32(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError> {
        let errors_before = self.errors.len();
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 32) as u32
        };
        match kernel {
            id::ADD_N | id::SUB_N => {
                let a: Vec<u32> = (0..n).map(|_| next()).collect();
                let b: Vec<u32> = (0..n).map(|_| next()).collect();
                let mut r = vec![0u32; n];
                if kernel == id::ADD_N {
                    MpnOps::<u32>::add_n(self, &mut r, &a, &b);
                } else {
                    MpnOps::<u32>::sub_n(self, &mut r, &a, &b);
                }
            }
            id::MUL_1 | id::ADDMUL_1 | id::SUBMUL_1 => {
                let a: Vec<u32> = (0..n).map(|_| next()).collect();
                let mut r: Vec<u32> = (0..n).map(|_| next()).collect();
                let b = next();
                match kernel {
                    id::MUL_1 => {
                        MpnOps::<u32>::mul_1(self, &mut r, &a, b);
                    }
                    id::ADDMUL_1 => {
                        MpnOps::<u32>::addmul_1(self, &mut r, &a, b);
                    }
                    _ => {
                        MpnOps::<u32>::submul_1(self, &mut r, &a, b);
                    }
                }
            }
            id::LSHIFT | id::RSHIFT => {
                let a: Vec<u32> = (0..n).map(|_| next()).collect();
                let mut r = vec![0u32; n];
                let cnt = (next() % 31) + 1;
                if kernel == id::LSHIFT {
                    MpnOps::<u32>::lshift(self, &mut r, &a, cnt);
                } else {
                    MpnOps::<u32>::rshift(self, &mut r, &a, cnt);
                }
            }
            id::DIV_QHAT => {
                let d1 = next() | 0x8000_0000;
                let d0 = next();
                let n2 = next() % d1;
                MpnOps::<u32>::div_qhat(self, n2, next(), next(), d1, d0);
            }
            other => {
                return Err(KernelError::Unsupported {
                    kernel: other,
                    detail: "no register-level 32-bit measurement harness".to_owned(),
                })
            }
        }
        if let Some(e) = self.errors.get(errors_before) {
            return Err(e.clone());
        }
        Ok(())
    }

    /// 16-bit-radix counterpart of [`IssMpn::measure32`].
    pub fn measure16(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<f64, KernelError> {
        if self.fidelity == Fidelity::Fast {
            return Err(KernelError::Unsupported {
                kernel,
                detail: "cycle measurement requires the cycle-accurate engine \
                         (Fidelity::CycleAccurate)"
                    .to_owned(),
            });
        }
        let before = self.cycles;
        self.drive16(kernel, n, seed)?;
        Ok(self.cycles - before)
    }

    /// 16-bit-radix counterpart of [`IssMpn::verify32`].
    pub fn verify16(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError> {
        let was = self.verify;
        self.verify = true;
        let out = self.drive16(kernel, n, seed);
        self.verify = was;
        out
    }

    /// 16-bit-radix counterpart of [`IssMpn::drive32`].
    fn drive16(&mut self, kernel: KernelId, n: usize, seed: u64) -> Result<(), KernelError> {
        let errors_before = self.errors.len();
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 48) as u16
        };
        match kernel {
            id::ADD_N | id::SUB_N => {
                let a: Vec<u16> = (0..n).map(|_| next()).collect();
                let b: Vec<u16> = (0..n).map(|_| next()).collect();
                let mut r = vec![0u16; n];
                if kernel == id::ADD_N {
                    MpnOps::<u16>::add_n(self, &mut r, &a, &b);
                } else {
                    MpnOps::<u16>::sub_n(self, &mut r, &a, &b);
                }
            }
            id::MUL_1 | id::ADDMUL_1 | id::SUBMUL_1 => {
                let a: Vec<u16> = (0..n).map(|_| next()).collect();
                let mut r: Vec<u16> = (0..n).map(|_| next()).collect();
                let b = next();
                match kernel {
                    id::MUL_1 => {
                        MpnOps::<u16>::mul_1(self, &mut r, &a, b);
                    }
                    id::ADDMUL_1 => {
                        MpnOps::<u16>::addmul_1(self, &mut r, &a, b);
                    }
                    _ => {
                        MpnOps::<u16>::submul_1(self, &mut r, &a, b);
                    }
                }
            }
            id::LSHIFT | id::RSHIFT => {
                let a: Vec<u16> = (0..n).map(|_| next()).collect();
                let mut r = vec![0u16; n];
                let cnt = ((next() % 15) + 1) as u32;
                if kernel == id::LSHIFT {
                    MpnOps::<u16>::lshift(self, &mut r, &a, cnt);
                } else {
                    MpnOps::<u16>::rshift(self, &mut r, &a, cnt);
                }
            }
            id::DIV_QHAT => {
                let d1 = next() | 0x8000;
                let d0 = next();
                let n2 = next() % d1;
                MpnOps::<u16>::div_qhat(self, n2, next(), next(), d1, d0);
            }
            other => {
                return Err(KernelError::Unsupported {
                    kernel: other,
                    detail: "no register-level 16-bit measurement harness".to_owned(),
                })
            }
        }
        if let Some(e) = self.errors.get(errors_before) {
            return Err(e.clone());
        }
        Ok(())
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

    /// Runs a register-convention kernel on the 32-bit core and returns
    /// `a0`. The entry label is the kernel's registered name. A
    /// simulator fault or watchdog timeout is recorded as a typed error
    /// and yields a degraded 0 result.
    fn call32(&mut self, kernel: KernelId, args: &[u32]) -> u32 {
        match self
            .cpu32
            .call_traced(&self.prog32, kernel.name(), args, self.sink.as_deref_mut())
        {
            Ok(summary) => {
                self.cycles += summary.cycles as f64;
                self.cpu32.reg(0)
            }
            Err(e) => {
                self.record_sim_error(kernel, e);
                0
            }
        }
    }

    fn call16(&mut self, kernel: KernelId, args: &[u32]) -> u32 {
        match self
            .cpu16
            .call_traced(&self.prog16, kernel.name(), args, self.sink.as_deref_mut())
        {
            Ok(summary) => {
                self.cycles += summary.cycles as f64;
                self.cpu16.reg(0)
            }
            Err(e) => {
                self.record_sim_error(kernel, e);
                0
            }
        }
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

fn read_limbs<L: Limb>(cpu: &Cpu, addr: u32, n: usize) -> Vec<L> {
    match L::BITS {
        32 => (0..n)
            .map(|i| L::from_u64(cpu.mem().load_u32(addr + 4 * i as u32).expect("in range") as u64))
            .collect(),
        16 => (0..n)
            .map(|i| L::from_u64(cpu.mem().load_u16(addr + 2 * i as u32).expect("in range") as u64))
            .collect(),
        other => panic!("unsupported limb width {other}"),
    }
}

/// Fetches the registered golden reference of one kernel at the macro's
/// limb width: `$golden` is the `CallConv` field name (`golden32` or
/// `golden16`) and `$shape` the convention the kernel must have.
macro_rules! golden {
    ($kernel:expr, $shape:ident, $golden:ident) => {{
        let desc = kreg::get($kernel).expect("kernel registered");
        match desc.conv {
            CallConv::$shape { $golden: g, .. } => g,
            _ => unreachable!("registry pins {} as {}", $kernel, stringify!($shape)),
        }
    }};
}

macro_rules! impl_iss_mpnops {
    ($limb:ty, $call:ident, $golden:ident) => {
        impl MpnOps<$limb> for IssMpn {
            fn add_n(&mut self, r: &mut [$limb], a: &[$limb], b: &[$limb]) -> bool {
                self.counts.bump(slot::ADD_N);
                let cpu = if <$limb>::BITS == 32 {
                    &mut self.cpu32
                } else {
                    &mut self.cpu16
                };
                write_limbs(cpu, AP_ADDR, a);
                write_limbs(cpu, BP_ADDR, b);
                let carry = self.$call(id::ADD_N, &[RP_ADDR, AP_ADDR, BP_ADDR, a.len() as u32]);
                let cpu = if <$limb>::BITS == 32 {
                    &self.cpu32
                } else {
                    &self.cpu16
                };
                let out: Vec<$limb> = read_limbs(cpu, RP_ADDR, a.len());
                r.copy_from_slice(&out);
                if self.verify {
                    let g = golden!(id::ADD_N, VecVec, $golden);
                    let mut expect = vec![<$limb as Limb>::ZERO; a.len()];
                    let ec = g(&mut expect, a, b);
                    if out != expect || (carry != 0) != ec {
                        self.diverge(id::ADD_N, format!("n={}", a.len()));
                    }
                }
                carry != 0
            }

            fn sub_n(&mut self, r: &mut [$limb], a: &[$limb], b: &[$limb]) -> bool {
                self.counts.bump(slot::SUB_N);
                let cpu = if <$limb>::BITS == 32 {
                    &mut self.cpu32
                } else {
                    &mut self.cpu16
                };
                write_limbs(cpu, AP_ADDR, a);
                write_limbs(cpu, BP_ADDR, b);
                let borrow = self.$call(id::SUB_N, &[RP_ADDR, AP_ADDR, BP_ADDR, a.len() as u32]);
                let cpu = if <$limb>::BITS == 32 {
                    &self.cpu32
                } else {
                    &self.cpu16
                };
                let out: Vec<$limb> = read_limbs(cpu, RP_ADDR, a.len());
                r.copy_from_slice(&out);
                if self.verify {
                    let g = golden!(id::SUB_N, VecVec, $golden);
                    let mut expect = vec![<$limb as Limb>::ZERO; a.len()];
                    let eb = g(&mut expect, a, b);
                    if out != expect || (borrow != 0) != eb {
                        self.diverge(id::SUB_N, format!("n={}", a.len()));
                    }
                }
                borrow != 0
            }

            fn mul_1(&mut self, r: &mut [$limb], a: &[$limb], b: $limb) -> $limb {
                self.counts.bump(slot::MUL_1);
                let cpu = if <$limb>::BITS == 32 {
                    &mut self.cpu32
                } else {
                    &mut self.cpu16
                };
                write_limbs(cpu, AP_ADDR, a);
                let carry = self.$call(
                    id::MUL_1,
                    &[RP_ADDR, AP_ADDR, a.len() as u32, b.to_u64() as u32],
                );
                let cpu = if <$limb>::BITS == 32 {
                    &self.cpu32
                } else {
                    &self.cpu16
                };
                let out: Vec<$limb> = read_limbs(cpu, RP_ADDR, a.len());
                r.copy_from_slice(&out);
                if self.verify {
                    let g = golden!(id::MUL_1, VecScalar, $golden);
                    let mut expect = vec![<$limb as Limb>::ZERO; a.len()];
                    let ec = g(&mut expect, a, b);
                    if out != expect || <$limb as Limb>::from_u64(carry as u64) != ec {
                        self.diverge(id::MUL_1, format!("n={}", a.len()));
                    }
                }
                <$limb as Limb>::from_u64(carry as u64)
            }

            fn addmul_1(&mut self, r: &mut [$limb], a: &[$limb], b: $limb) -> $limb {
                self.counts.bump(slot::ADDMUL_1);
                let expect_pair = if self.verify {
                    let g = golden!(id::ADDMUL_1, VecScalar, $golden);
                    let mut expect = r[..a.len()].to_vec();
                    let ec = g(&mut expect, a, b);
                    Some((expect, ec))
                } else {
                    None
                };
                let cpu = if <$limb>::BITS == 32 {
                    &mut self.cpu32
                } else {
                    &mut self.cpu16
                };
                write_limbs(cpu, AP_ADDR, a);
                write_limbs(cpu, RP_ADDR, &r[..a.len()]);
                let carry = self.$call(
                    id::ADDMUL_1,
                    &[RP_ADDR, AP_ADDR, a.len() as u32, b.to_u64() as u32],
                );
                let cpu = if <$limb>::BITS == 32 {
                    &self.cpu32
                } else {
                    &self.cpu16
                };
                let out: Vec<$limb> = read_limbs(cpu, RP_ADDR, a.len());
                r[..a.len()].copy_from_slice(&out);
                if let Some((expect, ec)) = expect_pair {
                    if out != expect || <$limb as Limb>::from_u64(carry as u64) != ec {
                        self.diverge(id::ADDMUL_1, format!("n={}", a.len()));
                    }
                }
                <$limb as Limb>::from_u64(carry as u64)
            }

            fn submul_1(&mut self, r: &mut [$limb], a: &[$limb], b: $limb) -> $limb {
                self.counts.bump(slot::SUBMUL_1);
                let expect_pair = if self.verify {
                    let g = golden!(id::SUBMUL_1, VecScalar, $golden);
                    let mut expect = r[..a.len()].to_vec();
                    let ec = g(&mut expect, a, b);
                    Some((expect, ec))
                } else {
                    None
                };
                let cpu = if <$limb>::BITS == 32 {
                    &mut self.cpu32
                } else {
                    &mut self.cpu16
                };
                write_limbs(cpu, AP_ADDR, a);
                write_limbs(cpu, RP_ADDR, &r[..a.len()]);
                let borrow = self.$call(
                    id::SUBMUL_1,
                    &[RP_ADDR, AP_ADDR, a.len() as u32, b.to_u64() as u32],
                );
                let cpu = if <$limb>::BITS == 32 {
                    &self.cpu32
                } else {
                    &self.cpu16
                };
                let out: Vec<$limb> = read_limbs(cpu, RP_ADDR, a.len());
                r[..a.len()].copy_from_slice(&out);
                if let Some((expect, ec)) = expect_pair {
                    if out != expect || <$limb as Limb>::from_u64(borrow as u64) != ec {
                        self.diverge(id::SUBMUL_1, format!("n={}", a.len()));
                    }
                }
                <$limb as Limb>::from_u64(borrow as u64)
            }

            fn lshift(&mut self, r: &mut [$limb], a: &[$limb], cnt: u32) -> $limb {
                self.counts.bump(slot::LSHIFT);
                let cpu = if <$limb>::BITS == 32 {
                    &mut self.cpu32
                } else {
                    &mut self.cpu16
                };
                write_limbs(cpu, AP_ADDR, a);
                let out_bits = self.$call(id::LSHIFT, &[RP_ADDR, AP_ADDR, a.len() as u32, cnt]);
                let cpu = if <$limb>::BITS == 32 {
                    &self.cpu32
                } else {
                    &self.cpu16
                };
                let out: Vec<$limb> = read_limbs(cpu, RP_ADDR, a.len());
                r.copy_from_slice(&out);
                if self.verify {
                    let g = golden!(id::LSHIFT, VecShift, $golden);
                    let mut expect = vec![<$limb as Limb>::ZERO; a.len()];
                    let eo = g(&mut expect, a, cnt);
                    if out != expect || <$limb as Limb>::from_u64(out_bits as u64) != eo {
                        self.diverge(id::LSHIFT, format!("n={} cnt={cnt}", a.len()));
                    }
                }
                <$limb as Limb>::from_u64(out_bits as u64)
            }

            fn rshift(&mut self, r: &mut [$limb], a: &[$limb], cnt: u32) -> $limb {
                self.counts.bump(slot::RSHIFT);
                let cpu = if <$limb>::BITS == 32 {
                    &mut self.cpu32
                } else {
                    &mut self.cpu16
                };
                write_limbs(cpu, AP_ADDR, a);
                let out_bits = self.$call(id::RSHIFT, &[RP_ADDR, AP_ADDR, a.len() as u32, cnt]);
                let cpu = if <$limb>::BITS == 32 {
                    &self.cpu32
                } else {
                    &self.cpu16
                };
                let out: Vec<$limb> = read_limbs(cpu, RP_ADDR, a.len());
                r.copy_from_slice(&out);
                if self.verify {
                    let g = golden!(id::RSHIFT, VecShift, $golden);
                    let mut expect = vec![<$limb as Limb>::ZERO; a.len()];
                    let eo = g(&mut expect, a, cnt);
                    if out != expect || <$limb as Limb>::from_u64(out_bits as u64) != eo {
                        self.diverge(id::RSHIFT, format!("n={} cnt={cnt}", a.len()));
                    }
                }
                <$limb as Limb>::from_u64(out_bits as u64)
            }

            fn div_qhat(&mut self, n2: $limb, n1: $limb, n0: $limb, d1: $limb, d0: $limb) -> $limb {
                self.counts.bump(slot::DIV_QHAT);
                let q = self.$call(
                    id::DIV_QHAT,
                    &[
                        n2.to_u64() as u32,
                        n1.to_u64() as u32,
                        n0.to_u64() as u32,
                        d1.to_u64() as u32,
                        d0.to_u64() as u32,
                    ],
                );
                let q = <$limb as Limb>::from_u64(q as u64);
                if self.verify {
                    let g = golden!(id::DIV_QHAT, Div3by2, $golden);
                    let expect = g(n2, n1, n0, d1, d0);
                    if q != expect {
                        self.diverge(
                            id::DIV_QHAT,
                            format!("got {} expected {}", q.to_u64(), expect.to_u64()),
                        );
                    }
                }
                q
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

impl_iss_mpnops!(u32, call32, golden32);
impl_iss_mpnops!(u16, call16, golden16);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
}
