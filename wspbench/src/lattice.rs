//! The ISS lattice and the platform self-check.
//!
//! The lattice is every register-convention mpn kernel × both radices ×
//! a ladder of operand sizes, with stimuli drawn from the run seed —
//! the workload the `fastpath_gate` co-simulation runs. One *pass* calls
//! every kernel at every size once: on the fast path through
//! `verify32/16` (each call checked against the golden reference), on
//! the two cycle-accurate cores through `measure32/16` with
//! verification off.

use crate::Checks;
use kreg::{KernelError, KernelId, LibKind};
use secproc::issops::{ArchState, IssMpn};
use xobs::Json;
use xr32::config::CpuConfig;
use xr32::Fidelity;

/// Operand sizes crossing the lane boundaries, typical mpn lengths, and
/// two large points where interpretation dominates.
pub const SIZES: [usize; 10] = [1, 2, 3, 4, 8, 16, 64, 128, 256, 512];

/// One of the three execution engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The pre-decoded functional fast path.
    Fast,
    /// The cycle-accurate in-order core.
    InOrder,
    /// The scoreboarded out-of-order core.
    Ooo,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::Fast, Engine::InOrder, Engine::Ooo];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Fast => "fast",
            Engine::InOrder => "inorder",
            Engine::Ooo => "ooo",
        }
    }

    /// A fresh provider on this engine.
    pub fn iss(self) -> IssMpn {
        let config = match self {
            Engine::Ooo => CpuConfig::ooo(),
            Engine::Fast | Engine::InOrder => CpuConfig::default(),
        };
        let mut iss = IssMpn::base(config);
        match self {
            Engine::Fast => iss.set_fidelity(Fidelity::Fast),
            Engine::InOrder | Engine::Ooo => iss.set_verify(false),
        }
        iss
    }
}

fn kernels() -> impl Iterator<Item = KernelId> {
    kreg::registry()
        .iter()
        .filter(|d| d.lib == LibKind::Mpn)
        .map(|d| d.id)
}

/// The stimulus seed of one kernel call.
fn stimulus(seed: u64, pass: u64, call: usize) -> u64 {
    seed.wrapping_mul(xpar::SEED_STEP) ^ (pass << 32) ^ call as u64
}

/// Both radix cores' architectural state after one kernel's sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelState {
    pub kernel: KernelId,
    pub r32: ArchState,
    pub r16: ArchState,
}

/// Runs pass `pass_no` of the lattice on `iss` (built by `engine`).
/// Returns the kernel calls made, or the first kernel error. With
/// `states`, captures the architectural state after each kernel.
///
/// # Errors
///
/// A golden-reference divergence (fast path) or a simulator fault.
pub fn pass(
    iss: &mut IssMpn,
    engine: Engine,
    sizes: &[usize],
    seed: u64,
    pass_no: u64,
    mut states: Option<&mut Vec<KernelState>>,
) -> Result<u64, KernelError> {
    let mut calls = 0;
    for (k, kernel) in kernels().enumerate() {
        for (i, &n) in sizes.iter().enumerate() {
            let s = stimulus(seed, pass_no, k * sizes.len() + i);
            if engine == Engine::Fast {
                iss.verify32(kernel, n, s)?;
                iss.verify16(kernel, n, s)?;
            } else {
                iss.measure32(kernel, n, s)?;
                iss.measure16(kernel, n, s)?;
            }
            calls += 2;
        }
        if let Some(states) = states.as_deref_mut() {
            states.push(KernelState {
                kernel,
                r32: iss.arch_state32(),
                r16: iss.arch_state16(),
            });
        }
    }
    Ok(calls)
}

/// Retired instructions and simulated cycles of one engine's pass
/// (cycles are 0 on the fast path, which models no timing).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounts {
    pub insns: u64,
    pub cycles: u64,
}

/// The platform self-check every workload's set-up runs: pass 0 of the
/// lattice on each engine from fresh state. The three engines'
/// per-kernel architectural states must agree, and no call may fail.
/// Returns the deterministic results document and each engine's counts.
pub fn self_check(sizes: &[usize], seed: u64, checks: &mut Checks) -> (Json, [PassCounts; 3]) {
    let mut runs = Vec::new();
    let mut counts = [PassCounts::default(); 3];
    for (engine, count) in Engine::ALL.into_iter().zip(&mut counts) {
        let mut iss = engine.iss();
        let mut states = Vec::new();
        let result = pass(&mut iss, engine, sizes, seed, 0, Some(&mut states));
        checks.check(result.is_ok(), || {
            format!("self-check on {}: {}", engine.name(), result.unwrap_err())
        });
        let (c32, c16) = iss.core_cycles();
        *count = PassCounts {
            insns: states.last().map_or(0, |s| s.r32.retired + s.r16.retired),
            cycles: c32 + c16,
        };
        runs.push(states);
    }
    for (engine, states) in Engine::ALL.iter().zip(&runs).skip(1) {
        checks.check(states == &runs[0], || {
            format!(
                "{} and fast path disagree on architectural state",
                engine.name()
            )
        });
    }
    let kernels: Vec<Json> = runs[0]
        .iter()
        .map(|s| {
            Json::obj()
                .set("kernel", s.kernel.name())
                .set("r32", arch_json(&s.r32))
                .set("r16", arch_json(&s.r16))
        })
        .collect();
    let doc = Json::obj()
        .set("kernels", kernels)
        .set("inorder_cycles", counts[1].cycles)
        .set("ooo_cycles", counts[2].cycles);
    (doc, counts)
}

fn arch_json(s: &ArchState) -> Json {
    Json::obj()
        .set(
            "regs",
            Json::Arr(s.regs.iter().map(|&r| Json::from(r)).collect()),
        )
        .set("mem", format!("{:016x}", s.mem_digest))
        .set("retired", s.retired)
}
