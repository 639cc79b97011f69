//! The call memo: constant-time and register-only kernel calls at
//! functional speed on the in-order core.
//!
//! A memo serves two kinds of declared entry. It accounts a keyed call
//! it has seen before without executing it, and runs a register-only
//! call on the functional executor without the in-order timing model,
//! or applies the record of an earlier one with the same inputs;
//! either way it applies exactly the effects the model would have had.
//! Every other call of a declared entry runs the plain timed model.
//!
//! # Keyed entries
//!
//! A constant-time kernel never branches or forms an address from its
//! secret operands (the property `xlint`'s taint checker proves for the
//! annotated `mpn` and SHA-1 kernels), so the path a call takes — and
//! with it the lines it fetches and accesses and every interlock of the
//! in-order pipeline — is a function of the program, the entry pc and
//! the values of the call's *public* input registers. The memo keys on
//! exactly those. Which registers are public, and which other
//! registers are inputs, is declared per entry
//! ([`CallMemo::declare_computed`]).
//!
//! **Record.** The first call with a key runs the plain timed in-order
//! model. The record keeps the call's cycles, the distinct lines of
//! each cache in last-touch order, each cache's hit count, its class
//! counts, the exit ready time (relative to entry) of every register
//! whose ready time it moved, and its write set: the destinations of
//! the ops it ran, the carry included. It is kept only if every access
//! hit and the pipeline was settled at entry (no register ready after
//! the clock), because only then is the call's timing independent of
//! what ran before it. The lines come from the caches' LRU stamps: with
//! the previous access's line forgotten first, every access of the call
//! ticks its cache's clock, so the lines stamped after the call began
//! are exactly the lines it touched, and their stamp order is their
//! last-touch order.
//!
//! **Replay.** A later call with a known key is replayed when the
//! pipeline is settled, every footprint line is resident and the fuel
//! budget covers the recorded instruction count. Every access of the
//! call then hits, exactly as recorded. The record is applied: the
//! cycles and hit counts are added, the footprint lines are re-touched
//! in last-touch order and the written registers' ready times are set.
//! The call itself does not execute, and the replay adds the record's
//! class counts. Its entry is *caller-computed*: the caller holds the
//! kernel's reference, writes the call's memory outputs and sets its
//! return value. The memo keeps the replay's registers and the
//! contents of the data lines the call loads from, and marks every
//! register of the record's write set as last written by this replay.
//! A record whose path ran a custom op replays by executing instead, on
//! the functional executor with no timing model: the executor cannot
//! see which state a custom op's semantics write, nor which memory it
//! reads. Otherwise the plain timed model runs.
//!
//! **Exact state on demand.** Only registers and the carry can be left
//! behind by a replay that did not execute. Reading one
//! ([`Cpu::reg`](crate::cpu::Cpu::reg),
//! [`Cpu::regs`](crate::cpu::Cpu::regs)) re-executes the latest replay
//! of each record that last wrote a register read, in replay order, on
//! a scratch copy restored from the kept inputs, and reads off what
//! each wrote last. The re-execution is the path check: its class
//! counts must be the record's, or the entry's public inputs are
//! incomplete. A run the memo does not serve makes every register
//! exact first. A keyed entry reads no register before writing it but
//! its declared inputs (`xlint`'s must-defined proof), and a proven
//! register-only routine none but those live at its entry, so a call
//! of either needs only those exact; a call that executes clears the
//! marks of the registers it writes. A custom op may touch the carry,
//! so a call that may run one needs the carry exact too.
//!
//! # Register-only entries: the cost table
//!
//! A routine that reaches no load, store, custom op, `call`, `jr`,
//! `halt` or failing op from its entry, and writes no `ra`, touches only
//! registers ([`CallMemo::declare_register_only`]). Its path may depend
//! on any input (`div_qhat`'s does), so no key would be small; instead
//! the memo proves once per core that every op costs a constant.
//!
//! **The proof.** On the first call a walk over the routine's control
//! flow graph drives the real in-order model (`InOrderCore::retire`)
//! on the records the executor would stream, one op and outcome (not
//! taken, taken) at a time, from a scratch timing state whose I-line
//! for that op is resident. The abstract state at a pc is each
//! register's ready time relative to the clock (zero when ready); the
//! model's stall, issue and refill cycles and its new ready times
//! depend on nothing else. The walk starts from a settled pipeline and
//! accepts the routine only if every pc is reached in one state on
//! every path and the pipeline is settled again after each `ret`. Then
//! an op's cycles are a constant, `cost[pc][taken]`, whatever path led
//! to it. A join of unequal states (say, a multiply whose consumer is
//! reached at path-dependent distances) rejects the entry, which then
//! keeps the plain model on this core.
//!
//! **The fast path.** A call of a proven entry, with every I-line the
//! routine can fetch resident and a settled pipeline, runs on the
//! executor with a tiny model that adds each op's tabled cost, notes
//! the last fetch of each I-line and collects the registers the path
//! writes. Every fetch of the call then hits, and afterwards the hits
//! (one per op) are counted, the lines re-touched in last-touch order
//! and the cycles added. The ready times the plain model would have set
//! all lie at or before the exit clock, where the model cannot tell
//! them from the earlier ones left in place: a ready time only ever
//! delays an op to `max(clock, ready)`.
//!
//! **Records.** The walk proves more than constant costs: a tabled
//! call's cycles, fetches and I-lines are a function of its path, and a
//! register-only routine's path and outputs are a function of its
//! live-in registers (the registers, and the carry, some path reads
//! before writing them). So each tabled call that returns is recorded,
//! keyed on those values: its cycles, its fetch count, its I-lines in
//! last-touch order, its class counts, its write set and the exit
//! values of the registers and carry it wrote. A later call with the
//! same live-ins, under the fast path's conditions and with fuel for
//! the record's count, does not execute: the record is applied exactly
//! as a tabled call's effects are (hits counted, lines re-touched,
//! cycles added), the recorded registers and carry are written and
//! their stale marks cleared. Unlike a keyed replay, the registers are
//! exact at once, so nothing is left for the caller to compute or for
//! a read to re-execute. A routine may meet thousands of distinct
//! inputs on one core, and their paths are far fewer, so the records
//! are packed: each keeps its live-in values, the number of its path,
//! whose effects are kept once, and the exit values of the registers
//! the routine can write. A memo keeps every record for as long as it
//! lives.
//!
//! # Why the re-touch is exact
//!
//! The caches are LRU. After a stream of hits, no line was filled or
//! evicted, and the recency order within each set is fixed by the order
//! of each line's *last* access alone. Re-touching the distinct lines
//! in last-touch order gives them fresh stamps in that order, newer
//! than every untouched line, so every later victim choice, hit and
//! miss is the timed run's. The absolute LRU stamps and the tick
//! counter differ (fewer ticks), and nothing reads them except victim
//! selection, which compares stamps within a set.

use super::{InOrderCore, Timing, Tracer};
use crate::asm::Program;
use crate::config::CpuConfig;
use crate::cpu::{ClassCounts, SimError, RETURN_SENTINEL};
use crate::ext::{ExtensionSet, UserRegFile};
use crate::isa::Reg;
use crate::mem::Memory;
use crate::xjit::{
    self, Arch, FastProgram, Flow, OpClass, Retired, TimingModel, Untimed, ALL, CARRY, CUSTOM,
};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

/// How often a core's memo was consulted and how it served the calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Calls of declared entries that consulted the memo.
    pub calls: u64,
    /// Of those, calls replayed from a record: calls of keyed entries
    /// with a known key, and calls of tabled register-only entries with
    /// known live-in values.
    pub replays: u64,
    /// Instructions replayed calls accounted for without executing
    /// (a replay of a path with a custom op executes, and is not
    /// counted here).
    pub replayed_insns: u64,
    /// Instructions re-executed to make registers exact on demand.
    pub reexecuted_insns: u64,
    /// Of the calls, calls of register-only entries that executed,
    /// timed from their cost table (replays are not counted here).
    pub tabled: u64,
    /// Instructions executed by tabled calls.
    pub tabled_insns: u64,
}

impl AddAssign for MemoStats {
    fn add_assign(&mut self, other: MemoStats) {
        self.calls += other.calls;
        self.replays += other.replays;
        self.replayed_insns += other.replayed_insns;
        self.reexecuted_insns += other.reexecuted_insns;
        self.tabled += other.tabled;
        self.tabled_insns += other.tabled_insns;
    }
}

/// A per-core memo of constant-time and register-only kernel calls (see
/// the module docs). Attach one with
/// [`Cpu::set_call_memo`](crate::cpu::Cpu::set_call_memo); it serves
/// [`Cpu::call_at`](crate::cpu::Cpu::call_at) calls of declared entries
/// on the in-order core, with no trace sink and no fault plan, and
/// declines everything else. A memo serves one core: its records and
/// cost tables hold for that core's configuration.
#[derive(Debug, Default)]
pub struct CallMemo {
    declared: Vec<Declared>,
    index: HashMap<Key, usize, BuildHasherDefault<KeyHasher>>,
    records: Vec<Record>,
    /// The registers (bit 16: the carry) last written by a replay that
    /// did not execute: their values on the core are stale.
    stale: u32,
    /// Per stale register, the record of the replay that wrote it last.
    writer: [usize; 17],
    /// Replays that did not execute so far: orders their kept inputs.
    skipped: u64,
    stats: MemoStats,
    /// Re-executed instructions: readers take `&self`.
    reexecuted: AtomicU64,
}

/// One declared entry: `program`'s fingerprint, the entry pc, a keyed
/// entry's input registers as a mask and how the memo serves it.
#[derive(Debug)]
struct Declared {
    fp: u64,
    entry: usize,
    inputs: u32,
    serve: Serve,
}

#[derive(Debug)]
enum Serve {
    /// Keyed on the registers of this mask.
    Keyed(u16),
    /// Register-only, not yet walked.
    Unproven,
    /// Register-only and proven, with the records of its calls.
    Tabled(CostTable, Records),
    /// Register-only, but its costs are not constant on this core.
    Rejected,
}

/// A memo key: the program, the entry and the values of the entry's
/// public input registers, in register order (zero-padded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    fp: u64,
    entry: usize,
    inputs: [u32; MAX_PUBLIC],
}

/// The most public input registers an entry may declare.
const MAX_PUBLIC: usize = 8;

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fp);
        state.write_u64(self.entry as u64);
        for v in self.inputs {
            state.write_u32(v);
        }
    }
}

/// A multiply-rotate hasher for the few-word memo keys. SipHash, the
/// default, made a cold exploration job ~4% slower; its protection
/// against crafted collisions is not needed here, since a key holds a
/// simulated program's own register values and a memo holds a handful
/// of records.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What one all-hit call from a settled pipeline costs and writes, and
/// the inputs of its latest replay that did not execute.
#[derive(Debug)]
struct Record {
    fp: u64,
    entry: usize,
    cycles: u64,
    classes: ClassCounts,
    ihits: u64,
    dhits: u64,
    /// Distinct I- and D-line addresses, in last-touch order.
    ilines: Box<[u64]>,
    dlines: Box<[u64]>,
    /// `(register, ready time - entry clock)` of each register whose
    /// ready time the call moved.
    ready: Box<[(u8, u64)]>,
    /// The registers (and [`CARRY`]) the call writes, with [`CUSTOM`]
    /// if it ran a custom op.
    writes: u32,
    /// The distinct D-line addresses the call loads from, ascending.
    loads: Box<[u64]>,
    /// The order of the latest replay that did not execute, its
    /// registers at entry and the contents of the lines it loads from.
    latest: u64,
    regs: [u32; 16],
    lines: Vec<u8>,
}

impl Record {
    /// Whether every footprint line is resident.
    fn resident(&self, t: &Timing) -> bool {
        self.ilines.iter().all(|&l| t.icache.holds(l))
            && self.dlines.iter().all(|&l| t.dcache.holds(l))
    }

    /// Leaves `t` as the recorded call leaves it.
    fn apply(&self, t: &mut Timing) {
        t.icache.add_hits(self.ihits);
        t.dcache.add_hits(self.dhits);
        for &l in self.ilines.iter() {
            t.icache.touch(l);
        }
        for &l in self.dlines.iter() {
            t.dcache.touch(l);
        }
        let entry = t.cycles;
        t.cycles += self.cycles;
        for &(r, at) in self.ready.iter() {
            t.reg_ready[r as usize] = entry + at;
        }
    }
}

/// The address of data line `line` and its length: `line_bytes`,
/// clipped to a memory of `size` bytes.
fn line_span(line: u64, line_bytes: usize, size: usize) -> (u32, usize) {
    let at = line as usize * line_bytes;
    (at as u32, line_bytes.min(size - at))
}

/// The distinct lines of `line_bytes` that hold `addrs`, ascending.
fn line_set(addrs: &[u32], line_bytes: usize) -> Box<[u64]> {
    let mut lines: Vec<u64> = addrs
        .iter()
        .map(|&a| u64::from(a) / line_bytes as u64)
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines.into()
}

/// The bits set in `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The most distinct I-lines a cost-tabled routine may fetch.
const MAX_LINES: usize = 64;

/// The proven per-op costs of a register-only routine.
#[derive(Debug)]
struct CostTable {
    /// The lowest pc the routine reaches.
    base: usize,
    /// Per pc from `base` to the highest reachable one.
    ops: Box<[TabledOp]>,
    /// The distinct I-line addresses the routine can fetch.
    lines: Box<[u64]>,
    /// The registers (bit 16: the carry) some path reads before
    /// writing them.
    inputs: u32,
    /// The registers (bit 16: the carry) some op writes.
    outputs: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct TabledOp {
    /// The op's cycles, not taken and taken.
    cost: [u32; 2],
    /// The registers the op writes.
    writes: u32,
    /// The index of the op's I-line in `CostTable::lines`.
    line: u8,
}

/// A node of the cost-table walk: the ready offsets every path reaches
/// the op with, and the op's cycles per outcome.
struct Node {
    ready: [u64; 16],
    cost: [u32; 2],
}

impl CostTable {
    /// Walks the routine at `entry` (see the module docs). `None` if it
    /// is not register-only or an op's cost depends on the path.
    fn prove(
        program: &Program,
        prog: &FastProgram,
        entry: usize,
        config: &CpuConfig,
    ) -> Option<CostTable> {
        let ra = Reg::RA.index() as u8;
        let mut scratch = Timing::new(config);
        let mut nodes = BTreeMap::new();
        nodes.insert(
            entry,
            Node {
                ready: [0; 16],
                cost: [0; 2],
            },
        );
        let mut work = vec![entry];
        while let Some(pc) = work.pop() {
            let exits = match prog.register_flow(pc)? {
                Flow::Next => [Some((false, pc + 1)), None],
                Flow::Branch(t) => [Some((false, pc + 1)), Some((true, t))],
                Flow::Jump(t) => [Some((true, t)), None],
                Flow::Ret => [Some((true, RETURN_SENTINEL as usize)), None],
            };
            for (taken, next) in exits.into_iter().flatten() {
                let op = prog.retired(pc, taken, next);
                if op.dest == Some(ra) {
                    return None;
                }
                let ready = nodes[&pc].ready;
                let (cost, after) = step(&mut scratch, program, config, &op, &ready)?;
                nodes.get_mut(&pc).expect("walked").cost[taken as usize] = cost;
                if next == RETURN_SENTINEL as usize {
                    if after != [0; 16] {
                        return None;
                    }
                    continue;
                }
                match nodes.entry(next) {
                    Entry::Vacant(v) => {
                        v.insert(Node {
                            ready: after,
                            cost: [0; 2],
                        });
                        work.push(next);
                    }
                    Entry::Occupied(o) if o.get().ready != after => return None,
                    Entry::Occupied(_) => {}
                }
            }
        }
        let shift = config.icache.line_bytes.trailing_zeros();
        let line_of = |pc: usize| (pc as u64 * 4) >> shift;
        let mut lines: Vec<u64> = nodes.keys().map(|&pc| line_of(pc)).collect();
        lines.dedup();
        if lines.len() > MAX_LINES {
            return None;
        }
        let base = *nodes.keys().next().expect("the entry");
        let top = *nodes.keys().next_back().expect("the entry");
        let mut ops = vec![TabledOp::default(); top - base + 1];
        for (&pc, node) in &nodes {
            ops[pc - base] = TabledOp {
                cost: node.cost,
                writes: prog.writes(pc),
                line: lines.binary_search(&line_of(pc)).expect("listed") as u8,
            };
        }
        let outputs = ops.iter().fold(0, |m, op| m | op.writes);
        Some(CostTable {
            base,
            ops: ops.into(),
            lines: lines.into(),
            inputs: live_in(prog, &nodes, entry),
            outputs,
        })
    }
}

/// The registers (bit 16: the carry) some path from `entry` through the
/// walked `nodes` reads before writing them: backward liveness to a
/// fixed point.
fn live_in(prog: &FastProgram, nodes: &BTreeMap<usize, Node>, entry: usize) -> u32 {
    let mut live: BTreeMap<usize, u32> = nodes.keys().map(|&pc| (pc, 0)).collect();
    loop {
        let mut changed = false;
        for &pc in nodes.keys().rev() {
            let out = match prog.register_flow(pc).expect("walked") {
                Flow::Next => live[&(pc + 1)],
                Flow::Branch(t) => live[&(pc + 1)] | live[&t],
                Flow::Jump(t) => live[&t],
                Flow::Ret => 0,
            };
            let at = prog.reads(pc) | out & !prog.writes(pc);
            changed |= live.insert(pc, at) != Some(at);
        }
        if !changed {
            return live[&entry];
        }
    }
}

/// Retires `op` on the in-order model from a clock with register ready
/// offsets `ready` and the op's I-line resident. Returns its cycles and
/// the ready offsets after it; `None` if it touched a cache otherwise.
fn step(
    t: &mut Timing,
    program: &Program,
    config: &CpuConfig,
    op: &Retired<'_>,
    ready: &[u64; 16],
) -> Option<(u32, [u64; 16])> {
    /// Any clock: the model's charges do not depend on its value.
    const CLOCK: u64 = 1 << 40;
    t.icache.access(op.pc as u64 * 4);
    let (icache, dcache) = (t.icache.stats(), t.dcache.stats());
    t.cycles = CLOCK;
    t.reg_ready = ready.map(|r| CLOCK + r);
    let trace = Tracer::new(None, program, op.pc, "", CLOCK);
    InOrderCore::new(t, config, trace).retire(op);
    if t.icache.stats().misses != icache.misses || t.dcache.stats() != dcache {
        return None;
    }
    let cost = u32::try_from(t.cycles - CLOCK).ok()?;
    Some((cost, t.reg_ready.map(|r| r.saturating_sub(t.cycles))))
}

/// Whether `program`'s routine at `entry` is register-only with a
/// constant cost per op under `config`: whether a memo would time its
/// calls from a cost table (see the module docs).
pub fn cost_table_proves(program: &Program, entry: usize, config: &CpuConfig) -> bool {
    let prog = FastProgram::decode(program, config, &ExtensionSet::new());
    CostTable::prove(program, &prog, entry, config).is_some()
}

/// What a tabled call does: its cycles, its fetches (every one a hit),
/// the distinct I-lines it fetched in last-touch order and the
/// registers (bit 16: the carry) it writes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct TabledRun {
    cycles: u64,
    fetches: u64,
    lines: Box<[u64]>,
    writes: u32,
}

impl TabledRun {
    /// Leaves `t` as the call leaves it: counts the hits, re-touches the
    /// lines in last-touch order and adds the cycles.
    fn apply(&self, t: &mut Timing) {
        t.icache.add_hits(self.fetches);
        for &line in self.lines.iter() {
            t.icache.touch(line);
        }
        t.cycles += self.cycles;
    }
}

/// The records of a proven routine's calls that returned (see the
/// module docs), packed into one flat table: a routine may be called
/// with thousands of distinct inputs on one core, and a call's path
/// is one of far fewer.
#[derive(Debug)]
struct Records {
    /// The routine's live-in registers and the registers it can write
    /// (bit 16: the carry).
    inputs: u32,
    outputs: u32,
    /// Per record, `stride` words: the live-in values in register
    /// order (the carry as 0 or 1), the number of the record's path and
    /// the exit values of the registers the routine can write.
    words: Vec<u32>,
    stride: usize,
    /// A record's number by a hash of its live-in values; of records
    /// whose live-ins hash alike, the latest.
    index: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// The distinct paths, by number.
    paths: Vec<Path>,
    numbers: HashMap<Path, u32>,
}

/// What a tabled call that returned did, and its class counts.
type Path = (TabledRun, ClassCounts);

/// A call's live-in values (as many as the routine has, then zeros)
/// and their hash.
type LiveIns = ([u32; 17], u64);

/// The values of the registers of `mask` (bit 16: the carry, as 0 or
/// 1) in `arch`, in register order.
fn values(mask: u32, arch: &Arch) -> impl Iterator<Item = u32> + '_ {
    bits(mask).map(|r| arch.regs.get(r).copied().unwrap_or(u32::from(arch.carry)))
}

impl Records {
    fn new(table: &CostTable) -> Self {
        let (inputs, outputs) = (table.inputs, table.outputs);
        Records {
            inputs,
            outputs,
            words: Vec::new(),
            stride: (inputs.count_ones() + 1 + outputs.count_ones()) as usize,
            index: HashMap::default(),
            paths: Vec::new(),
            numbers: HashMap::new(),
        }
    }

    /// The live-in values of a call on `arch`.
    fn key(&self, arch: &Arch) -> LiveIns {
        let mut live = [0; 17];
        let mut hasher = KeyHasher::default();
        for (v, value) in live.iter_mut().zip(values(self.inputs, arch)) {
            *v = value;
            hasher.write_u32(value);
        }
        (live, hasher.finish())
    }

    /// The record of a call with live-in values `live`: its path and
    /// its exit values.
    fn find(&self, (live, hash): &LiveIns) -> Option<(&Path, &[u32])> {
        let n = self.inputs.count_ones() as usize;
        let at = *self.index.get(hash)? as usize * self.stride;
        let rec = &self.words[at..at + self.stride];
        (rec[..n] == live[..n]).then(|| (&self.paths[rec[n] as usize], &rec[n + 1..]))
    }

    /// Records a call with live-in values `live` that took `path` and
    /// left `arch`.
    fn insert(&mut self, (live, hash): LiveIns, path: Path, arch: &Arch) {
        let paths = &mut self.paths;
        let number = *self.numbers.entry(path).or_insert_with_key(|path| {
            paths.push(path.clone());
            paths.len() as u32 - 1
        });
        let record =
            u32::try_from(self.words.len() / self.stride).expect("fewer than 2^32 records");
        let n = self.inputs.count_ones() as usize;
        self.words.extend_from_slice(&live[..n]);
        self.words.push(number);
        self.words.extend(values(self.outputs, arch));
        self.index.insert(hash, record);
    }
}

/// The model of a tabled call: adds each op's tabled cost, notes the
/// last fetch of each I-line and collects the registers written, then
/// stores the call's [`TabledRun`] in `out` when the run ends (in error
/// too, as the plain model charges every op it retired).
struct Tabled<'a> {
    table: &'a CostTable,
    out: &'a mut TabledRun,
    writes: u32,
    cycles: u64,
    fetches: u64,
    /// The line of the previous fetch, as an index into the table's.
    line: usize,
    /// Per line, the run of fetches it was last fetched in (0: never).
    last: [u32; MAX_LINES],
    runs: u32,
}

impl TimingModel for Tabled<'_> {
    #[inline(always)]
    fn retire(&mut self, op: &Retired<'_>) {
        let at = self.table.ops[op.pc - self.table.base];
        self.cycles += u64::from(at.cost[op.taken as usize]);
        self.fetches += 1;
        self.writes |= at.writes;
        let line = at.line as usize;
        if line != self.line {
            self.line = line;
            self.runs += 1;
            self.last[line] = self.runs;
        }
    }

    fn finish(self, _: Option<usize>) {
        let mut order = [(0u32, 0u64); MAX_LINES];
        let mut n = 0;
        for (&run, &line) in self.last.iter().zip(self.table.lines.iter()) {
            if run > 0 {
                order[n] = (run, line);
                n += 1;
            }
        }
        order[..n].sort_unstable();
        *self.out = TabledRun {
            cycles: self.cycles,
            fetches: self.fetches,
            lines: order[..n].iter().map(|&(_, line)| line).collect(),
            writes: self.writes,
        };
    }
}

impl CostTable {
    /// Serves a call of the routine: replays its record when the
    /// pipeline is settled, every line the routine can fetch is
    /// resident, its live-ins are known and the fuel covers the
    /// record's count; runs it tabled under the first two conditions
    /// (and records it if it returns), else on the plain timed model.
    /// Returns the outcome and the registers written.
    fn serve(
        &self,
        records: &mut Records,
        stats: &mut MemoStats,
        mut call: MemoCall<'_>,
    ) -> (Result<ClassCounts, SimError>, u32) {
        let t = &*call.timing;
        if !(self.lines.iter().all(|&l| t.icache.holds(l)) && call.settled()) {
            return call.timed(None);
        }
        let key = records.key(call.arch);
        let known = records.find(&key);
        if let Some(((run, classes), exits)) = known {
            if classes.total() <= call.fuel {
                run.apply(call.timing);
                let arch = &mut *call.arch;
                for (r, &v) in bits(records.outputs).zip(exits) {
                    if run.writes >> r & 1 != 0 {
                        match arch.regs.get_mut(r) {
                            Some(reg) => *reg = v,
                            None => arch.carry = v != 0,
                        }
                    }
                }
                stats.replays += 1;
                stats.replayed_insns += classes.total();
                return (Ok(*classes), run.writes);
            }
        }
        let known = known.is_some();
        let mut run = TabledRun::default();
        let model = Tabled {
            table: self,
            out: &mut run,
            writes: 0,
            cycles: 0,
            fetches: 0,
            line: usize::MAX,
            last: [0; MAX_LINES],
            runs: 0,
        };
        let out = xjit::run(call.prog, call.entry, call.arch, call.fuel, None, model);
        run.apply(call.timing);
        let writes = run.writes;
        stats.tabled += 1;
        if let Ok(classes) = out {
            stats.tabled_insns += classes.total();
            if !known {
                records.insert(key, (run, classes), call.arch);
            }
        }
        (out, writes)
    }
}

/// A timing model that also collects the write sets of the ops it
/// retires, and the addresses they load from into `loads` if given.
struct Tracked<'a, M> {
    model: M,
    prog: &'a FastProgram,
    writes: &'a mut u32,
    loads: Option<&'a mut Vec<u32>>,
}

impl<M: TimingModel> TimingModel for Tracked<'_, M> {
    #[inline(always)]
    fn retire(&mut self, op: &Retired<'_>) {
        if !op.faulted {
            *self.writes |= self.prog.writes(op.pc);
            if let (Some(loads), OpClass::Load) = (&mut self.loads, op.class) {
                loads.push(op.addr);
            }
        }
        self.model.retire(op);
    }

    fn finish(self, end: Option<usize>) {
        self.model.finish(end);
    }
}

/// One call offered to the memo: the core's state the call runs on.
pub(crate) struct MemoCall<'a> {
    pub program: &'a Program,
    pub prog: &'a FastProgram,
    pub entry: usize,
    pub arch: &'a mut Arch,
    pub fuel: u64,
    pub timing: &'a mut Timing,
    pub config: &'a CpuConfig,
}

impl MemoCall<'_> {
    /// Whether every register's result is ready by the clock.
    fn settled(&self) -> bool {
        let t = &*self.timing;
        t.reg_ready.iter().all(|&r| r <= t.cycles)
    }

    /// Runs the call on the plain timed in-order model, collecting the
    /// addresses it loads from into `loads` if given. Returns its
    /// outcome and the registers it wrote.
    fn timed(&mut self, loads: Option<&mut Vec<u32>>) -> (Result<ClassCounts, SimError>, u32) {
        let mut writes = 0;
        let trace = Tracer::new(None, self.program, self.entry, "", self.timing.cycles);
        let model = Tracked {
            model: InOrderCore::new(self.timing, self.config, trace),
            prog: self.prog,
            writes: &mut writes,
            loads,
        };
        let out = xjit::run(self.prog, self.entry, self.arch, self.fuel, None, model);
        (out, writes)
    }
}

/// How the memo served a call of a declared entry.
pub(crate) enum Served {
    /// The call ran.
    Ran(Result<ClassCounts, SimError>),
    /// The call was replayed without executing: its caller writes its
    /// outputs (see [`CallMemo::declare_computed`]).
    Skipped(ClassCounts),
    /// The call needs these registers (bit 16: the carry) exact first.
    Settle(u32),
}

impl CallMemo {
    /// An empty memo with no declared entries.
    pub fn new() -> Self {
        CallMemo::default()
    }

    /// Declares `program`'s routine at `entry` memoizable, keyed on the
    /// values of its `public` input registers, with `secret` its other
    /// input registers. Its calls are caller-computed: a replay that
    /// does not execute leaves the call's memory outputs and its return
    /// value in `a0` to the caller, which must write them (see the
    /// module docs and [`RunSummary::skipped`](crate::cpu::RunSummary::skipped)).
    ///
    /// Declare only routines whose path and addresses depend on nothing
    /// but the public registers' values — constant-time code whose
    /// other inputs are secret data —, that read no register and no
    /// carry before writing it other than their inputs, that write no
    /// memory but the outputs their caller computes, and that end in a
    /// return.
    ///
    /// # Panics
    ///
    /// Panics if more than eight distinct registers are public.
    pub fn declare_computed(
        &mut self,
        program: &Program,
        entry: usize,
        public: &[Reg],
        secret: &[Reg],
    ) {
        let mask = public.iter().fold(0u16, |m, r| m | 1 << r.index());
        assert!(
            mask.count_ones() as usize <= MAX_PUBLIC,
            "at most {MAX_PUBLIC} public input registers"
        );
        let inputs = secret
            .iter()
            .fold(u32::from(mask), |m, r| m | 1 << r.index());
        self.declare_as(program, entry, inputs, Serve::Keyed(mask));
    }

    /// Declares `program`'s routine at `entry` register-only: its calls
    /// are timed from a cost table, proven on the first call, or
    /// replayed from the record of an earlier call with the same
    /// live-in registers (see the module docs). A routine the proof
    /// rejects keeps the plain model, so any routine may be declared.
    pub fn declare_register_only(&mut self, program: &Program, entry: usize) {
        self.declare_as(program, entry, 0, Serve::Unproven);
    }

    fn declare_as(&mut self, program: &Program, entry: usize, inputs: u32, serve: Serve) {
        self.declared.push(Declared {
            fp: program.fingerprint(),
            entry,
            inputs,
            serve,
        });
    }

    /// The declaration of `program`'s routine at `entry`, if any.
    fn declared(&self, program: &Program, entry: usize) -> Option<&Declared> {
        let fp = program.fingerprint();
        self.declared
            .iter()
            .find(|d| d.fp == fp && d.entry == entry)
    }

    /// The public input registers declared for `program`'s keyed
    /// routine at `entry`, or `None` for an entry declared
    /// register-only or not at all.
    pub fn public_inputs(&self, program: &Program, entry: usize) -> Option<Vec<Reg>> {
        match self.declared(program, entry)?.serve {
            Serve::Keyed(mask) => Some(regs_of(u32::from(mask))),
            _ => None,
        }
    }

    /// All input registers declared for `program`'s keyed routine at
    /// `entry`, public and secret, or `None` for an entry declared
    /// register-only or not at all.
    pub fn inputs(&self, program: &Program, entry: usize) -> Option<Vec<Reg>> {
        let declared = self.declared(program, entry)?;
        matches!(declared.serve, Serve::Keyed(_)).then(|| regs_of(declared.inputs))
    }

    /// How often the memo was consulted, replayed, re-executed and
    /// tabled.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            reexecuted_insns: self.reexecuted.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Serves `call` from a record or a cost table, or runs it timed,
    /// and records it if it is the first call of a keyed entry with
    /// its key or a tabled call that returns. `None` when the entry is
    /// undeclared.
    pub(crate) fn call(&mut self, call: MemoCall<'_>) -> Option<Served> {
        let fp = call.program.fingerprint();
        let ix = self
            .declared
            .iter()
            .position(|d| d.fp == fp && d.entry == call.entry)?;
        let declared = &mut self.declared[ix];
        if let Serve::Unproven = declared.serve {
            declared.serve =
                match CostTable::prove(call.program, call.prog, call.entry, call.config) {
                    Some(table) => {
                        let records = Records::new(&table);
                        Serve::Tabled(table, records)
                    }
                    None => Serve::Rejected,
                };
        }
        // A rejected routine may read anything.
        let inputs = match &declared.serve {
            Serve::Tabled(table, _) => table.inputs,
            Serve::Rejected => ALL,
            _ => declared.inputs,
        };
        let stale = inputs & self.stale;
        if stale != 0 {
            return Some(Served::Settle(stale));
        }
        let served = match &mut declared.serve {
            Serve::Keyed(mask) => {
                let mask = *mask;
                self.keyed(fp, mask, call)
            }
            Serve::Tabled(table, records) => {
                let (out, writes) = table.serve(records, &mut self.stats, call);
                self.stale &= !writes;
                Served::Ran(out)
            }
            Serve::Unproven | Serve::Rejected => self.ran(call),
        };
        if !matches!(served, Served::Settle(_)) {
            self.stats.calls += 1;
        }
        Some(served)
    }

    /// Serves a call of a keyed entry.
    fn keyed(&mut self, fp: u64, mask: u16, call: MemoCall<'_>) -> Served {
        let mut inputs = [0u32; MAX_PUBLIC];
        let public = (0..16).filter(|r| mask >> r & 1 != 0);
        for (v, r) in inputs.iter_mut().zip(public) {
            *v = call.arch.regs[r];
        }
        let key = Key {
            fp,
            entry: call.entry,
            inputs,
        };
        let found = self.index.get(&key).copied();
        let custom = found.map_or(call.prog.has_custom(), |ix| {
            self.records[ix].writes & CUSTOM != 0
        });
        if custom && self.stale & CARRY != 0 {
            return Served::Settle(CARRY);
        }
        if !call.settled() {
            return self.ran(call);
        }
        match found {
            Some(ix) => {
                let rec = &self.records[ix];
                if rec.classes.total() <= call.fuel && rec.resident(call.timing) {
                    self.replay(ix, call)
                } else {
                    self.ran(call)
                }
            }
            None => self.record(key, call),
        }
    }

    /// Runs `call` on the plain timed model.
    fn ran(&mut self, mut call: MemoCall<'_>) -> Served {
        let (out, writes) = call.timed(None);
        self.stale &= !writes;
        Served::Ran(out)
    }

    fn replay(&mut self, ix: usize, call: MemoCall<'_>) -> Served {
        let rec = &mut self.records[ix];
        self.stats.replays += 1;
        if rec.writes & CUSTOM != 0 {
            let out = xjit::run(call.prog, call.entry, call.arch, call.fuel, None, Untimed);
            assert_eq!(
                out.as_ref().ok(),
                Some(&rec.classes),
                "a memoized call took another path: its entry's public inputs are incomplete"
            );
            rec.apply(call.timing);
            self.stale &= !rec.writes;
            return Served::Ran(out);
        }
        rec.apply(call.timing);
        self.skipped += 1;
        rec.latest = self.skipped;
        rec.regs = call.arch.regs;
        let line_bytes = call.config.dcache.line_bytes;
        rec.lines.resize(rec.loads.len() * line_bytes, 0);
        let mem = &call.arch.mem;
        for (i, &line) in rec.loads.iter().enumerate() {
            let (at, len) = line_span(line, line_bytes, mem.size());
            let out = &mut rec.lines[i * line_bytes..][..len];
            mem.read_into(at, out)
                .expect("a footprint line lies in memory");
        }
        for r in bits(rec.writes) {
            self.writer[r] = ix;
        }
        self.stale |= rec.writes;
        self.stats.replayed_insns += rec.classes.total();
        Served::Skipped(rec.classes)
    }

    fn record(&mut self, key: Key, mut call: MemoCall<'_>) -> Served {
        let timing = &mut *call.timing;
        let (start, ready) = (timing.cycles, timing.reg_ready);
        let (i0, d0) = (timing.icache.stats(), timing.dcache.stats());
        timing.icache.forget_last();
        timing.dcache.forget_last();
        let clocks = (timing.icache.clock(), timing.dcache.clock());
        let mut loads = Vec::new();
        let (out, writes) = call.timed(Some(&mut loads));
        self.stale &= !writes;
        let timing = &*call.timing;
        let (i1, d1) = (timing.icache.stats(), timing.dcache.stats());
        if let Ok(classes) = &out {
            if i1.misses == i0.misses && d1.misses == d0.misses {
                let moved =
                    (0..16u8).filter(|&r| timing.reg_ready[r as usize] != ready[r as usize]);
                let rec = Record {
                    fp: key.fp,
                    entry: key.entry,
                    cycles: timing.cycles - start,
                    classes: *classes,
                    ihits: i1.hits - i0.hits,
                    dhits: d1.hits - d0.hits,
                    ilines: timing.icache.used_since(clocks.0),
                    dlines: timing.dcache.used_since(clocks.1),
                    ready: moved
                        .map(|r| (r, timing.reg_ready[r as usize] - start))
                        .collect(),
                    writes,
                    loads: line_set(&loads, call.config.dcache.line_bytes),
                    latest: 0,
                    regs: [0; 16],
                    lines: Vec::new(),
                };
                self.index.insert(key, self.records.len());
                self.records.push(rec);
            }
        }
        Served::Ran(out)
    }

    /// Whether any register `want` names (bit 16: the carry) is stale.
    pub(crate) fn is_stale(&self, want: u32) -> bool {
        self.stale & want != 0
    }

    /// Clears the marks of the registers in `written` (bit 16: the
    /// carry): the core's values are exact again.
    pub(crate) fn forget(&mut self, written: u32) {
        self.stale &= !written;
    }

    /// Makes the stale registers of `want` (bit 16: the carry) exact in
    /// `regs` and `carry`: re-executes the latest replay of each record
    /// that last wrote one, in replay order, on a scratch copy of a
    /// core under `config` restored from the replay's inputs, and copies
    /// out every stale register it wrote last. `decoded` holds the
    /// core's pre-decoded programs. Returns the registers made exact.
    ///
    /// # Panics
    ///
    /// Panics if a re-executed call takes another path than its record:
    /// its entry's public inputs are incomplete.
    pub(crate) fn exact(
        &self,
        decoded: &[(u64, FastProgram)],
        config: &CpuConfig,
        want: u32,
        regs: &mut [u32; 16],
        carry: &mut bool,
    ) -> u32 {
        if want & self.stale == 0 {
            return 0;
        }
        let mut order: Vec<usize> = bits(want & self.stale).map(|r| self.writer[r]).collect();
        order.sort_unstable_by_key(|&ix| self.records[ix].latest);
        order.dedup();
        let mut scratch = Arch {
            regs: [0; 16],
            carry: false,
            mem: Memory::new(config.mem_size),
            uregs: UserRegFile::new(0, 0),
        };
        let line_bytes = config.dcache.line_bytes;
        let mut done = 0;
        for ix in order {
            let rec = &self.records[ix];
            let prog = decoded
                .iter()
                .find_map(|(fp, prog)| (*fp == rec.fp).then_some(prog))
                .expect("a replayed program stays decoded");
            scratch.regs = rec.regs;
            for (i, &line) in rec.loads.iter().enumerate() {
                let (at, len) = line_span(line, line_bytes, config.mem_size);
                let bytes = &rec.lines[i * line_bytes..][..len];
                scratch.mem.write_bytes(at, bytes).expect("in memory");
            }
            let insns = rec.classes.total();
            let out = xjit::run(prog, rec.entry, &mut scratch, insns, None, Untimed);
            assert_eq!(
                out.ok(),
                Some(rec.classes),
                "a memoized call took another path: its entry's public inputs are incomplete"
            );
            self.reexecuted.fetch_add(insns, Ordering::Relaxed);
            for r in bits(self.stale).filter(|&r| self.writer[r] == ix) {
                match regs.get_mut(r) {
                    Some(reg) => *reg = scratch.regs[r],
                    None => *carry = scratch.carry,
                }
                done |= 1 << r;
            }
        }
        done
    }
}

/// The registers of a mask.
fn regs_of(mask: u32) -> Vec<Reg> {
    bits(mask & 0xffff).map(|r| Reg::new(r as u8)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cache::CacheConfig;
    use crate::cpu::{Cpu, RunSummary};
    use crate::ext::CustomInsnDef;
    use crate::isa::UserReg;
    use xobs::trace::{TraceEvent, VecSink};

    /// Three constant-time kernels — `add` (`rp[i] = ap[i] + bp[i]`,
    /// keyed on its four arguments, `sp` and `ra`), `sum` (`s` plus the
    /// sum of `ap`'s limbs, with `s` secret) and `twice` (one limb
    /// doubled by a custom op through a user register) —, a routine
    /// loading through a table of addresses, one that returns with a
    /// multiply still in flight on a slow multiplier, and two
    /// register-only ones: `div`, a bit-serial restoring division whose
    /// path depends on its data, and `pick`, whose two paths write
    /// different registers, one of them the carry.
    const SOURCE: &str = "
add:                       ; a0=rp a1=ap a2=bp a3=n -> a0=carry
    movi a6, 0
    clc
.add_loop:
    lw   a4, a1, 0
    lw   a5, a2, 0
    addi a1, a1, 4
    addi a2, a2, 4
    addc a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a3, a3, -1
    bne  a3, a6, .add_loop
    movi a0, 0
    movi a5, 0
    addc a0, a0, a5
    ret
walk:                      ; a0=table a1=count
    movi a6, 0
.walk_loop:
    lw   a4, a0, 0
    lw   a5, a4, 0
    addi a0, a0, 4
    addi a1, a1, -1
    bne  a1, a6, .walk_loop
    ret
slow:
    mul  a5, a0, a0
    ret
sum:                       ; a0=ap a1=n a2=s -> a0=s+sum, a8=xor
    movi a6, 0
    movi a8, 0
    mov  a9, a2
.sum_loop:
    lw   a4, a0, 0
    add  a9, a9, a4
    xor  a8, a8, a4
    addi a0, a0, 4
    addi a1, a1, -1
    bne  a1, a6, .sum_loop
    mov  a0, a9
    ret
twice:                     ; a0=ap a1=rp -> rp[0] = a0 = 2*ap[0]
    lw   a4, a0, 0
    cust dbl ur1, a4
    sw   a4, a1, 0
    mov  a0, a4
    ret
div:                       ; a0=n a1=d -> a0=n/d a1=n%d (d >= 2^31)
    movi a6, 0
    movi a2, 0
    movi a3, 0
    movi a4, 32
.div_loop:
    srli a5, a0, 31
    slli a0, a0, 1
    srli a7, a3, 31
    slli a3, a3, 1
    or   a3, a3, a5
    slli a2, a2, 1
    bne  a7, a6, .div_sub
    bltu a3, a1, .div_next
.div_sub:
    sub  a3, a3, a1
    ori  a2, a2, 1
.div_next:
    addi a4, a4, -1
    bne  a4, a6, .div_loop
    mul  a5, a2, a1
    mov  a0, a2
    mov  a1, a3
    ret
pick:                      ; a0=x a1=y -> a2=x+y, carry out if x < y; else a3=x
    bltu a0, a1, .pick_add
    mov  a3, a0
    ret
.pick_add:
    clc
    addc a2, a0, a1
    ret
";

    const RP: u32 = 0x1000;
    const AP: u32 = 0x1040;
    const BP: u32 = 0x1080;
    const TABLE: u32 = 0x2000;

    /// Small caches, so the kernel, the walk and their data evict one
    /// another: 8 I-lines in 4 sets, 16 D-lines in 8 sets.
    fn config() -> CpuConfig {
        let cache = |size_bytes| CacheConfig {
            size_bytes,
            line_bytes: 16,
            ways: 2,
        };
        CpuConfig {
            icache: cache(128),
            dcache: cache(256),
            ..CpuConfig::default()
        }
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Everything a run reports.
    fn summary(s: &RunSummary) -> impl PartialEq + std::fmt::Debug {
        (s.cycles, s.instructions, s.classes, s.icache, s.dcache)
    }

    /// `cust dbl urN, aM`: `aM *= 2`, and `urN[0]` keeps the product.
    fn extensions() -> ExtensionSet {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("dbl", 1, 0, |ctx, op| {
            let r = op.regs[0].index();
            ctx.regs[r] = ctx.regs[r].wrapping_mul(2);
            ctx.uregs.get_mut(op.uregs[0])[0] = ctx.regs[r];
            Ok(())
        }));
        ext
    }

    /// The same program on a core with the memo attached and on a plain
    /// one, checked equal after every call, and their whole state too
    /// when `snapshots` is set.
    struct Pair {
        prog: Program,
        memo: Cpu,
        plain: Cpu,
        snapshots: bool,
    }

    impl Pair {
        fn new(config: CpuConfig) -> Self {
            let prog = assemble(SOURCE).unwrap();
            let mut memo = Cpu::with_extensions(config.clone(), extensions());
            let mut table = CallMemo::new();
            let regs = |r: &[u8]| r.iter().map(|&r| Reg::new(r)).collect::<Vec<_>>();
            let add = prog.label("add").unwrap();
            table.declare_computed(&prog, add, &regs(&[0, 1, 2, 3, 14, 15]), &[]);
            let sum = prog.label("sum").unwrap();
            table.declare_computed(&prog, sum, &regs(&[0, 1, 14, 15]), &regs(&[2]));
            let twice = prog.label("twice").unwrap();
            table.declare_computed(&prog, twice, &regs(&[0, 1, 14, 15]), &[]);
            table.declare_register_only(&prog, prog.label("div").unwrap());
            table.declare_register_only(&prog, prog.label("pick").unwrap());
            memo.set_call_memo(Some(table));
            Pair {
                prog,
                memo,
                plain: Cpu::with_extensions(config, extensions()),
                snapshots: true,
            }
        }

        fn stats(&self) -> MemoStats {
            self.memo.call_memo().unwrap().stats()
        }

        /// The statistics of how the memo served calls, without the
        /// re-executions reads cost.
        fn served(&self) -> MemoStats {
            MemoStats {
                reexecuted_insns: 0,
                ..self.stats()
            }
        }

        fn write(&mut self, addr: u32, words: &[u32]) {
            for cpu in [&mut self.memo, &mut self.plain] {
                cpu.mem_mut().write_words(addr, words).unwrap();
            }
        }

        /// Calls `label` on both cores, each with its own sink when
        /// `traced`, and checks they agree.
        fn call(&mut self, label: &str, args: &[u32], traced: bool) -> Vec<TraceEvent<String>> {
            let entry = self.prog.label(label).unwrap();
            let mut sinks = (VecSink::new(), VecSink::new());
            let (m, p) = if traced {
                let m = self
                    .memo
                    .call_at(&self.prog, entry, label, args, Some(&mut sinks.0));
                let p = self
                    .plain
                    .call_at(&self.prog, entry, label, args, Some(&mut sinks.1));
                (m, p)
            } else {
                let m = self.memo.call_at(&self.prog, entry, label, args, None);
                (m, self.plain.call_at(&self.prog, entry, label, args, None))
            };
            let (m, p) = (m.unwrap(), p.unwrap());
            assert!(!p.skipped);
            if m.skipped {
                self.compute(label, args);
            }
            assert_eq!(summary(&m), summary(&p), "{label} {args:x?}");
            assert_eq!(self.memo.cycles(), self.plain.cycles());
            assert_eq!(self.memo.mem().digest(), self.plain.mem().digest());
            assert_eq!(self.memo.retired(), self.plain.retired());
            assert_eq!(sinks.0.events(), sinks.1.events(), "traced {label}");
            if self.snapshots {
                self.check_state();
            }
            sinks.0.into_events()
        }

        /// Writes the outputs of a call of `label` the memo core did not
        /// execute, computed on the host from its inputs in memory.
        fn compute(&mut self, label: &str, args: &[u32]) {
            let cpu = &mut self.memo;
            let limbs = |cpu: &Cpu, at: u32, n: u32| cpu.mem().read_words(at, n as usize).unwrap();
            let a0 = match (label, args) {
                ("add", &[rp, ap, bp, n]) => {
                    let (a, b) = (limbs(cpu, ap, n), limbs(cpu, bp, n));
                    let mut carry = 0u64;
                    let r: Vec<u32> = a
                        .iter()
                        .zip(&b)
                        .map(|(&x, &y)| {
                            let t = u64::from(x) + u64::from(y) + carry;
                            carry = t >> 32;
                            t as u32
                        })
                        .collect();
                    cpu.mem_mut().write_words(rp, &r).unwrap();
                    carry as u32
                }
                ("sum", &[ap, n, s]) => limbs(cpu, ap, n)
                    .iter()
                    .fold(s, |acc, &x| acc.wrapping_add(x)),
                _ => panic!("{label} replays by executing"),
            };
            cpu.set_reg(0, a0);
        }

        /// Checks the two cores' registers (one at a time and all at
        /// once), carry and user registers equal.
        fn check_state(&self) {
            let (memo, plain) = (&self.memo, &self.plain);
            for i in 0..16 {
                assert_eq!(memo.reg(i), plain.reg(i), "a{i}");
            }
            assert_eq!(memo.regs(), plain.regs());
            assert_eq!(memo.carry(), plain.carry());
            for u in 0..plain.uregs().len() {
                let ur = UserReg::new(u as u8);
                assert_eq!(memo.uregs().get(ur), plain.uregs().get(ur), "ur{u}");
            }
        }

        /// `sum` over `n` fresh random limbs plus a random secret.
        fn sum(&mut self, rng: &mut Rng, n: u32) {
            let limbs: Vec<u32> = (0..n).map(|_| rng.next() as u32).collect();
            self.write(AP, &limbs);
            self.call("sum", &[AP, n, rng.next() as u32], false);
        }

        /// `twice` on a fresh random limb.
        fn twice(&mut self, rng: &mut Rng) {
            self.write(AP, &[rng.next() as u32]);
            self.call("twice", &[AP, RP], false);
        }

        /// `add` on `n` fresh random limbs.
        fn add(&mut self, rng: &mut Rng, n: u32) {
            let limbs: Vec<u32> = (0..2 * n).map(|_| rng.next() as u32).collect();
            self.write(AP, &limbs[..n as usize]);
            self.write(BP, &limbs[n as usize..]);
            self.call("add", &[RP, AP, BP, n], false);
        }

        /// A traced load from each of `targets`: the hit/miss sequence
        /// (and cycle stamps) of the stream must agree.
        fn walk(&mut self, targets: &[u32]) {
            self.write(TABLE, targets);
            let events = self.call("walk", &[TABLE, targets.len() as u32], true);
            assert!(events.iter().any(|e| matches!(e, TraceEvent::Cache { .. })));
        }

        /// A walk over `count` random word addresses near the kernel's
        /// operands.
        fn random_walk(&mut self, rng: &mut Rng, count: usize) {
            let targets: Vec<u32> = (0..count)
                .map(|_| 0x1000 + 4 * rng.below(0x100) as u32)
                .collect();
            self.walk(&targets);
        }

        /// `div` of a random numerator by a random divisor with its top
        /// bit set.
        fn div(&mut self, rng: &mut Rng) {
            self.div_of(rng.next() as u32, rng.next() as u32 | 1 << 31);
        }

        /// `div` of `n` by `d`, checked against the host's division.
        fn div_of(&mut self, n: u32, d: u32) {
            self.call("div", &[n, d], false);
            assert_eq!((self.memo.reg(0), self.memo.reg(1)), (n / d, n % d));
        }

        /// The memo's (tabled, replays) counts.
        fn tabled(&self) -> (u64, u64) {
            let stats = self.stats();
            (stats.tabled, stats.replays)
        }
    }

    #[test]
    fn replays_equal_the_plain_model_under_random_interleavings() {
        for seed in 1..=4 {
            let mut rng = Rng(seed);
            let mut pair = Pair::new(config());
            for _ in 0..400 {
                match rng.below(9) {
                    0..=5 => {
                        let n = [2, 4, 8][rng.below(3) as usize];
                        pair.add(&mut rng, n);
                    }
                    _ => {
                        let count = 1 + rng.below(6) as usize;
                        pair.random_walk(&mut rng, count);
                    }
                }
            }
            let stats = pair.stats();
            assert!(stats.replays > 0, "seed {seed}: {stats:?}");
            assert!(stats.replays < stats.calls, "seed {seed}: {stats:?}");
        }
    }

    #[test]
    fn state_is_exact_on_demand_under_random_interleavings() {
        for seed in 1..=4 {
            let mut rng = Rng(seed);
            let mut pair = Pair::new(config());
            pair.snapshots = false;
            for _ in 0..500 {
                match rng.below(14) {
                    0..=3 => {
                        let n = [2, 4, 8][rng.below(3) as usize];
                        pair.add(&mut rng, n);
                    }
                    4..=6 => {
                        let n = [1, 3][rng.below(2) as usize];
                        pair.sum(&mut rng, n);
                    }
                    7 => pair.twice(&mut rng),
                    8..=9 => pair.div(&mut rng),
                    10 => {
                        let count = 1 + rng.below(6) as usize;
                        pair.random_walk(&mut rng, count);
                    }
                    11..=12 => {
                        let i = rng.below(16) as usize;
                        assert_eq!(pair.memo.reg(i), pair.plain.reg(i), "seed {seed}: a{i}");
                    }
                    _ => pair.check_state(),
                }
            }
            pair.check_state();
            let stats = pair.stats();
            assert!(stats.replayed_insns > 0, "seed {seed}: {stats:?}");
            assert!(stats.reexecuted_insns > 0, "seed {seed}: {stats:?}");
            assert!(stats.tabled > 0, "seed {seed}: {stats:?}");
        }
    }

    #[test]
    fn a_read_re_executes_the_last_writer_of_each_register() {
        let mut rng = Rng(14);
        let mut pair = Pair::new(config());
        pair.snapshots = false;
        for _ in 0..3 {
            pair.sum(&mut rng, 3);
        }
        for _ in 0..3 {
            pair.add(&mut rng, 4);
        }
        let stats = pair.stats();
        assert_eq!(stats.replays, 2, "{stats:?}");
        assert_eq!(stats.reexecuted_insns, 0, "nothing read yet");
        let (add, sum) = (2 + 4 * 9 + 4, 3 + 3 * 6 + 2);
        // `sum` last wrote a8 and a9; `add` a1 to a6 and the carry; the
        // caller set a0.
        let reexecuted = |pair: &Pair| pair.stats().reexecuted_insns;
        assert_eq!(pair.memo.reg(0), pair.plain.reg(0));
        assert_eq!(reexecuted(&pair), 0, "a0 is exact");
        assert_eq!(pair.memo.reg(3), pair.plain.reg(3));
        assert_eq!(reexecuted(&pair), add);
        assert_eq!(pair.memo.reg(8), pair.plain.reg(8));
        assert_eq!(reexecuted(&pair), add + sum);
        assert_eq!(pair.memo.regs(), pair.plain.regs());
        assert_eq!(reexecuted(&pair), 2 * (add + sum), "each writer once");
        assert_eq!(pair.memo.carry(), pair.plain.carry());
        assert_eq!(reexecuted(&pair), 3 * add + 2 * sum);
        // An undeclared run makes every register exact on the core.
        pair.random_walk(&mut rng, 4);
        assert_eq!(reexecuted(&pair), 4 * add + 3 * sum);
        pair.check_state();
        assert_eq!(reexecuted(&pair), 4 * add + 3 * sum, "nothing stale");
        // A call of a program with a custom op needs the carry exact:
        // making it so makes all `add` wrote exact.
        pair.add(&mut rng, 4);
        pair.add(&mut rng, 4);
        assert_eq!(pair.stats().replays, 3, "the walk evicted a line");
        pair.twice(&mut rng);
        assert_eq!(reexecuted(&pair), 5 * add + 3 * sum);
        pair.check_state();
        assert_eq!(reexecuted(&pair), 5 * add + 3 * sum);
    }

    #[test]
    fn a_record_replays_on_a_core_in_the_same_state() {
        let mut rng = Rng(7);
        let mut pair = Pair::new(config());
        pair.add(&mut rng, 4);
        assert_eq!(pair.stats().replays, 0, "the first call misses");
        pair.add(&mut rng, 4);
        assert_eq!(pair.stats().replays, 0, "the second call records");
        pair.add(&mut rng, 4);
        let stats = pair.stats();
        assert_eq!((stats.calls, stats.replays), (3, 1));
        assert_eq!(stats.replayed_insns, 2 + 4 * 9 + 4);
        pair.random_walk(&mut rng, 24);
    }

    #[test]
    fn an_evicted_footprint_line_runs_timed() {
        let mut rng = Rng(8);
        let mut pair = Pair::new(config());
        for _ in 0..3 {
            pair.add(&mut rng, 4);
        }
        assert_eq!(pair.stats().replays, 1);
        // Three lines in `rp`'s set evict it.
        pair.walk(&[0x1100, 0x1200, 0x1300]);
        pair.add(&mut rng, 4);
        assert_eq!(pair.stats().replays, 1, "evicted: timed");
        pair.add(&mut rng, 4);
        assert_eq!(pair.stats().replays, 2, "resident again");
        pair.random_walk(&mut rng, 24);
    }

    #[test]
    fn an_unsettled_pipeline_runs_timed() {
        let mut rng = Rng(9);
        let slow_mul = CpuConfig {
            mul_latency: 8,
            ..config()
        };
        let mut pair = Pair::new(slow_mul);
        for _ in 0..3 {
            pair.add(&mut rng, 4);
        }
        assert_eq!(pair.stats().replays, 1);
        pair.call("slow", &[3], false);
        assert!(!pair.memo.settled(), "a multiply is in flight");
        pair.add(&mut rng, 4);
        assert_eq!(pair.stats().replays, 1, "unsettled: timed");
        pair.random_walk(&mut rng, 24);
    }

    #[test]
    fn traced_faulted_and_out_of_order_calls_bypass_the_memo() {
        let mut rng = Rng(10);
        let mut pair = Pair::new(config());
        for _ in 0..3 {
            pair.add(&mut rng, 4);
        }
        let before = pair.served();
        assert_eq!(before.replays, 1);
        let args = [RP, AP, BP, 4];
        pair.call("add", &args, true);
        assert_eq!(pair.served(), before, "a sink is attached");
        let quiet = xfault::PlanSpec::all_sites(1, 0);
        pair.memo.set_fault_plan(quiet.plan(0));
        pair.plain.set_fault_plan(quiet.plan(0));
        pair.call("add", &args, false);
        assert_eq!(pair.served(), before, "a plan is armed");
        pair.memo.take_fault_plan();
        pair.plain.take_fault_plan();
        pair.call("add", &args, false);
        assert_eq!(pair.stats().replays, 2);

        let mut ooo = Pair::new(CpuConfig::ooo());
        for _ in 0..3 {
            ooo.add(&mut rng, 4);
        }
        assert_eq!(ooo.stats(), MemoStats::default(), "out-of-order core");
    }

    #[test]
    fn undeclared_entries_and_plain_runs_are_not_memoized() {
        let mut rng = Rng(11);
        let mut pair = Pair::new(config());
        for _ in 0..3 {
            pair.random_walk(&mut rng, 4);
        }
        assert_eq!(pair.stats(), MemoStats::default());
        let entry = pair.prog.label("add").unwrap();
        for _ in 0..3 {
            pair.memo.run_from(&pair.prog, entry).unwrap_err();
        }
        assert_eq!(pair.stats(), MemoStats::default(), "not a call");
        let memo = pair.memo.call_memo().unwrap();
        assert_eq!(
            memo.public_inputs(&pair.prog, entry),
            Some([0, 1, 2, 3, 14, 15].map(Reg::new).to_vec())
        );
        assert_eq!(memo.public_inputs(&pair.prog, entry + 1), None);
    }

    #[test]
    #[should_panic(expected = "at most 8 public input registers")]
    fn keys_hold_at_most_eight_registers() {
        let prog = assemble(SOURCE).unwrap();
        let nine: Vec<Reg> = (0..9).map(Reg::new).collect();
        CallMemo::new().declare_computed(&prog, 0, &nine, &[]);
    }

    /// Whether the cost-table walk proves `label` in `source` under
    /// `config`.
    fn proves(source: &str, label: &str, config: &CpuConfig) -> bool {
        let prog = assemble(source).unwrap();
        cost_table_proves(&prog, prog.label(label).unwrap(), config)
    }

    #[test]
    fn the_walk_proves_a_register_only_routine_with_balanced_paths() {
        assert!(proves(SOURCE, "div", &config()));
        assert!(proves(SOURCE, "div", &CpuConfig::default()));
        // `slow` returns with its multiply done under the default
        // two-cycle multiplier.
        assert!(proves(SOURCE, "slow", &CpuConfig::default()));
        assert!(proves("spin:\n    j spin\n", "spin", &CpuConfig::default()));
    }

    #[test]
    fn the_walk_rejects_memory_control_and_custom_ops() {
        let config = CpuConfig::default();
        for (what, body) in [
            ("a load", "lw a0, a0, 0\n    ret"),
            ("a store", "sw a0, a1, 0\n    ret"),
            ("a jr", "jr a0"),
            ("a call", "call leaf\n    ret\nleaf:\n    ret"),
            ("a halt", "halt"),
            ("a custom op", "cust nosuch a0\n    ret"),
            ("a write of ra", "movi ra, 0\n    ret"),
            ("falling off the end", "nop"),
        ] {
            let source = format!("f:\n    movi a1, 4\n    {body}\n");
            assert!(!proves(&source, "f", &config), "{what}");
        }
        let skipped = "f:\n    beq a0, a1, .out\n    lw a0, a0, 0\n.out:\n    ret\n";
        assert!(!proves(skipped, "f", &config), "a load on one path");
        assert!(!proves(SOURCE, "add", &config));
        assert!(!proves(SOURCE, "walk", &config));
        let no_mul = CpuConfig {
            has_mul: false,
            ..CpuConfig::default()
        };
        assert!(!proves(SOURCE, "div", &no_mul), "a multiply that fails");
    }

    #[test]
    fn the_walk_rejects_path_dependent_and_unsettled_multiplies() {
        let at = |mul_latency, branch_penalty| CpuConfig {
            mul_latency,
            branch_penalty,
            ..CpuConfig::default()
        };
        // The product's consumer is two ops away on one path and one
        // refilled branch away on the other.
        let racy = "f:
    mul  a5, a0, a0
    beq  a1, a2, .skip
    addi a3, a3, 1
.skip:
    add  a4, a5, a5
    ret
";
        assert!(proves(racy, "f", &at(2, 2)), "settled on both paths");
        assert!(!proves(racy, "f", &at(4, 2)), "path-dependent stall");
        // A multiply still in flight when the routine returns.
        assert!(!proves(SOURCE, "slow", &at(8, 2)));
        assert!(!proves(SOURCE, "div", &at(8, 2)));
        assert!(proves(SOURCE, "div", &at(4, 2)));
        assert!(!proves(SOURCE, "div", &at(5, 0)));
    }

    #[test]
    fn tabled_calls_equal_the_plain_model_under_random_interleavings() {
        // (mul_latency, branch_penalty, I-cache bytes, line bytes,
        // whether the walk proves `div`).
        let configs = [
            (2, 2, 128, 16, true),
            (4, 2, 256, 32, true),
            (2, 0, 256, 16, true),
            (8, 2, 128, 16, false),
            (5, 0, 128, 16, false),
        ];
        for (seed, (mul_latency, branch_penalty, bytes, line, proven)) in (1..).zip(configs) {
            let icache = CacheConfig {
                size_bytes: bytes,
                line_bytes: line,
                ways: 2,
            };
            let mut pair = Pair::new(CpuConfig {
                mul_latency,
                branch_penalty,
                icache,
                ..config()
            });
            let mut rng = Rng(seed);
            for _ in 0..300 {
                match rng.below(9) {
                    0..=4 => pair.div(&mut rng),
                    5..=6 => {
                        let n = [2, 4][rng.below(2) as usize];
                        pair.add(&mut rng, n);
                    }
                    _ => {
                        let count = 1 + rng.below(6) as usize;
                        pair.random_walk(&mut rng, count);
                    }
                }
            }
            let stats = pair.stats();
            assert_eq!(stats.tabled > 0, proven, "seed {seed}: {stats:?}");
            assert!(stats.tabled_insns >= 32 * 5 * stats.tabled, "{stats:?}");
            pair.random_walk(&mut rng, 24);
        }
    }

    #[test]
    fn a_tabled_call_waits_for_its_lines_and_a_settled_pipeline() {
        let mut rng = Rng(12);
        let mut pair = Pair::new(CpuConfig {
            mul_latency: 4,
            branch_penalty: 0,
            ..config()
        });
        let known = (0x9e37_79b9, 0x8765_4321);
        pair.div_of(known.0, known.1);
        assert_eq!(pair.tabled(), (0, 0), "cold lines: plain model");
        pair.div_of(known.0, known.1);
        assert_eq!(pair.tabled(), (1, 0), "tabled and recorded");
        pair.div_of(known.0, known.1);
        assert_eq!(pair.tabled(), (1, 1), "replayed");
        // `slow` leaves its product in flight on this multiplier.
        pair.call("slow", &[3], false);
        assert!(!pair.memo.settled());
        pair.div_of(known.0, known.1);
        assert_eq!(pair.tabled(), (1, 1), "unsettled: plain model");
        pair.div(&mut rng);
        assert_eq!(pair.tabled(), (2, 1));
        pair.div_of(known.0, known.1);
        assert_eq!(pair.tabled(), (2, 2));
        // `div` fills both ways of two I-cache sets, and `add`'s code
        // evicts a line from each.
        pair.add(&mut rng, 2);
        pair.div_of(known.0, known.1);
        assert_eq!(pair.tabled(), (2, 2), "evicted lines: plain model");
        pair.div_of(known.0, known.1);
        assert_eq!(pair.tabled(), (2, 3));
        pair.div(&mut rng);
        assert_eq!(pair.tabled(), (3, 3));
        pair.random_walk(&mut rng, 24);
    }

    #[test]
    fn a_tabled_call_out_of_fuel_charges_what_it_retired() {
        let mut pair = Pair::new(config());
        let mut rng = Rng(13);
        for _ in 0..2 {
            pair.div(&mut rng);
        }
        let entry = pair.prog.label("div").unwrap();
        let args = [7, 1 << 31];
        pair.div_of(args[0], args[1]);
        assert_eq!(pair.tabled(), (2, 0), "recorded");
        for cpu in [&mut pair.memo, &mut pair.plain] {
            cpu.set_fuel(100);
        }
        let m = pair.memo.call_at(&pair.prog, entry, "div", &args, None);
        let p = pair.plain.call_at(&pair.prog, entry, "div", &args, None);
        assert!(
            matches!(m, Err(SimError::OutOfFuel { executed: 100 })),
            "{m:?}"
        );
        assert!(
            matches!(p, Err(SimError::OutOfFuel { executed: 100 })),
            "{p:?}"
        );
        assert_eq!(pair.tabled(), (3, 0), "short of fuel: no replay");
        assert_eq!(pair.memo.cycles(), pair.plain.cycles());
        pair.check_state();
        for cpu in [&mut pair.memo, &mut pair.plain] {
            cpu.set_fuel(u64::MAX);
        }
        pair.div_of(args[0], args[1]);
        assert_eq!(pair.tabled(), (3, 1), "fuelled: replayed");
        pair.random_walk(&mut rng, 24);
        pair.div(&mut rng);
    }

    #[test]
    fn a_tabled_replay_writes_its_records_registers_and_clears_their_marks() {
        let mut rng = Rng(15);
        // An I-cache that holds every routine: nothing is evicted.
        let mut pair = Pair::new(CpuConfig {
            icache: CacheConfig {
                size_bytes: 4096,
                line_bytes: 16,
                ways: 2,
            },
            ..config()
        });
        pair.snapshots = false;
        fn memo(pair: &Pair) -> &CallMemo {
            pair.memo.call_memo().unwrap()
        }
        // `pick` writes a2 and the carry on one path, a3 on the other.
        let (sums, copies) = ([1, 2], [5, 3]);
        for _ in 0..2 {
            pair.call("pick", &sums, false);
            pair.call("pick", &copies, false);
        }
        assert_eq!(pair.tabled(), (2, 1), "one cold call, two recorded");
        // A replayed `add` leaves a1 to a6 and the carry stale, and an
        // executed `div` makes a0 to a7 exact.
        for _ in 0..3 {
            pair.add(&mut rng, 4);
        }
        pair.div(&mut rng);
        assert_eq!(memo(&pair).stale, CARRY);
        pair.call("pick", &sums, false);
        assert_eq!(pair.tabled(), (2, 3), "`add` and `pick` replayed");
        assert_eq!(memo(&pair).stale, 0, "the replay wrote the carry");
        pair.check_state();
        // The other path writes a3 alone: the carry stays stale.
        pair.add(&mut rng, 4);
        pair.div(&mut rng);
        pair.call("pick", &copies, false);
        assert_eq!(pair.tabled(), (3, 5));
        assert_eq!(memo(&pair).stale, CARRY);
        assert_eq!(memo(&pair).stats().reexecuted_insns, 0);
        assert_eq!(pair.memo.carry(), pair.plain.carry());
        let add = 2 + 4 * 9 + 4;
        assert_eq!(memo(&pair).stats().reexecuted_insns, add, "`add` re-ran");
        pair.check_state();
    }
}
