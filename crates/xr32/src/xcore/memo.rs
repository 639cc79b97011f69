//! The call memo: constant-time kernel calls replayed at functional
//! speed on the in-order core.
//!
//! A constant-time kernel never branches or forms an address from its
//! secret operands (the property `xlint`'s taint checker proves for the
//! annotated `mpn` kernels), so the path a call takes — and with it the
//! lines it fetches and accesses and every interlock of the in-order
//! pipeline — is a function of the program, the entry pc and the
//! values of the call's *public* input registers. The memo keys on
//! exactly those. Which registers are public is declared per entry
//! ([`CallMemo::declare`]); an undeclared entry is never memoized.
//!
//! **Record.** The first call with a key runs the plain timed in-order
//! model. The record keeps the call's cycles, the distinct lines of
//! each cache in last-touch order, each cache's hit count, the
//! instruction count and the exit ready time (relative to entry) of
//! every register the call wrote. It is kept only if every access hit
//! and the pipeline was settled at entry (no register ready after the
//! clock), because only then is the call's timing independent of what
//! ran before it. The lines come from the caches' LRU stamps: with the
//! previous access's line forgotten first, every access of the call
//! ticks its cache's clock, so the lines stamped after the call began
//! are exactly the lines it touched, and their stamp order is their
//! last-touch order.
//!
//! **Replay.** A later call with a known key is replayed when the
//! pipeline is settled, every footprint line is resident and the fuel
//! budget covers the recorded instruction count. Every access of the
//! call then hits, exactly as recorded. The call runs on the functional
//! executor with no timing model (it still meters fuel), and the record
//! is applied: the cycles and hit counts are added, the footprint lines
//! are re-touched in last-touch order and the written registers' ready
//! times are set. Otherwise the plain timed model runs.
//!
//! **Why the re-touch is exact.** The caches are LRU. After a stream of
//! hits, no line was filled or evicted, and the recency order within
//! each set is fixed by the order of each line's *last* access alone.
//! Re-touching the distinct lines in last-touch order gives them fresh
//! stamps in that order, newer than every untouched line, so every
//! later victim choice, hit and miss is the timed run's. The absolute
//! LRU stamps and the tick counter differ (fewer ticks), and nothing
//! reads them except victim selection, which compares stamps within a
//! set.
//!
//! A discarded warm-up
//! ([`Cpu::set_warm_up`](crate::cpu::Cpu::set_warm_up)) replays the
//! same way but charges nothing: it leaves the clock and the ready
//! times alone, as the warm-only model does. A warm-up call with an
//! unknown key is recorded on the timed model, after which the clock
//! and ready times are put back.

use super::{InOrderCore, Timing, Tracer};
use crate::asm::Program;
use crate::config::CpuConfig;
use crate::cpu::{ClassCounts, SimError};
use crate::isa::Reg;
use crate::xjit::{self, Arch, FastProgram, Untimed};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// How often a core's memo was consulted and how often it replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Calls of declared entries that consulted the memo.
    pub calls: u64,
    /// Of those, calls replayed on the functional executor.
    pub replays: u64,
    /// Instructions executed by replayed calls.
    pub replayed_insns: u64,
}

/// A per-core memo of constant-time kernel calls (see the module
/// docs). Attach one with
/// [`Cpu::set_call_memo`](crate::cpu::Cpu::set_call_memo); it serves
/// [`Cpu::call_at`](crate::cpu::Cpu::call_at) calls of declared entries
/// on the in-order core, with no trace sink and no fault plan, and
/// declines everything else.
#[derive(Debug, Default)]
pub struct CallMemo {
    /// `(program fingerprint, entry pc, public input-register mask)` of
    /// every declared entry.
    declared: Vec<(u64, usize, u16)>,
    records: HashMap<Key, Record, BuildHasherDefault<KeyHasher>>,
    stats: MemoStats,
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

/// What one all-hit call from a settled pipeline costs.
#[derive(Debug)]
struct Record {
    cycles: u64,
    insns: u64,
    ihits: u64,
    dhits: u64,
    /// Distinct I- and D-line addresses, in last-touch order.
    ilines: Box<[u64]>,
    dlines: Box<[u64]>,
    /// `(register, ready time - entry clock)` of each register written.
    ready: Box<[(u8, u64)]>,
}

impl Record {
    /// Whether every footprint line is resident.
    fn resident(&self, t: &Timing) -> bool {
        self.ilines.iter().all(|&l| t.icache.holds(l))
            && self.dlines.iter().all(|&l| t.dcache.holds(l))
    }

    /// Leaves `t` as the recorded call leaves it; a warm-up (`charge`
    /// false) only touches the caches.
    fn apply(&self, t: &mut Timing, charge: bool) {
        t.icache.add_hits(self.ihits);
        t.dcache.add_hits(self.dhits);
        for &l in self.ilines.iter() {
            t.icache.touch(l);
        }
        for &l in self.dlines.iter() {
            t.dcache.touch(l);
        }
        if charge {
            let entry = t.cycles;
            t.cycles += self.cycles;
            for &(r, at) in self.ready.iter() {
                t.reg_ready[r as usize] = entry + at;
            }
        }
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
    /// Whether the call is timed (false for a discarded warm-up).
    pub charge: bool,
}

impl CallMemo {
    /// An empty memo with no declared entries.
    pub fn new() -> Self {
        CallMemo::default()
    }

    /// Declares `program`'s routine at `entry` memoizable, keyed on the
    /// values of its `public` input registers.
    ///
    /// Declare only routines whose path and addresses depend on nothing
    /// but those registers' values — constant-time code whose other
    /// inputs are secret data — and that end in a return.
    ///
    /// # Panics
    ///
    /// Panics if more than eight distinct registers are public.
    pub fn declare(&mut self, program: &Program, entry: usize, public: &[Reg]) {
        let mask = public.iter().fold(0u16, |m, r| m | 1 << r.index());
        assert!(
            mask.count_ones() as usize <= MAX_PUBLIC,
            "at most {MAX_PUBLIC} public input registers"
        );
        self.declared.push((program.fingerprint(), entry, mask));
    }

    /// The public input registers declared for `program`'s routine at
    /// `entry`, or `None` for an undeclared entry.
    pub fn public_inputs(&self, program: &Program, entry: usize) -> Option<Vec<Reg>> {
        let mask = self.mask(program.fingerprint(), entry)?;
        Some(
            (0..16u8)
                .filter(|i| mask >> i & 1 != 0)
                .map(Reg::new)
                .collect(),
        )
    }

    /// How often the memo was consulted and replayed.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    fn mask(&self, fp: u64, entry: usize) -> Option<u16> {
        self.declared
            .iter()
            .find(|&&(f, e, _)| f == fp && e == entry)
            .map(|&(_, _, mask)| mask)
    }

    /// Serves `call` by replay, or runs it timed and records it. `None`
    /// when the caller must run the plain model: the entry is
    /// undeclared, or the key is known but cannot replay, or the
    /// pipeline is not settled.
    pub(crate) fn call(&mut self, call: MemoCall<'_>) -> Option<Result<ClassCounts, SimError>> {
        let mask = self.mask(call.program.fingerprint(), call.entry)?;
        self.stats.calls += 1;
        let mut inputs = [0u32; MAX_PUBLIC];
        let public = (0..16).filter(|r| mask >> r & 1 != 0);
        for (v, r) in inputs.iter_mut().zip(public) {
            *v = call.arch.regs[r];
        }
        let key = Key {
            fp: call.program.fingerprint(),
            entry: call.entry,
            inputs,
        };
        let t = &*call.timing;
        if t.reg_ready.iter().any(|&r| r > t.cycles) {
            return None;
        }
        let replayable = self
            .records
            .get(&key)
            .map(|rec| rec.insns <= call.fuel && rec.resident(t));
        match replayable {
            Some(true) => Some(self.replay(key, call)),
            Some(false) => None,
            None => Some(self.record(key, call)),
        }
    }

    fn replay(&mut self, key: Key, call: MemoCall<'_>) -> Result<ClassCounts, SimError> {
        let rec = &self.records[&key];
        let classes = xjit::run(call.prog, call.entry, call.arch, call.fuel, None, Untimed)?;
        assert_eq!(
            classes.total(),
            rec.insns,
            "a memoized call took another path: its entry's public inputs are incomplete"
        );
        rec.apply(call.timing, call.charge);
        self.stats.replays += 1;
        self.stats.replayed_insns += rec.insns;
        Ok(classes)
    }

    fn record(&mut self, key: Key, call: MemoCall<'_>) -> Result<ClassCounts, SimError> {
        let MemoCall {
            program,
            prog,
            entry,
            arch,
            fuel,
            timing,
            config,
            charge,
        } = call;
        let (start, ready) = (timing.cycles, timing.reg_ready);
        let (i0, d0) = (timing.icache.stats(), timing.dcache.stats());
        timing.icache.forget_last();
        timing.dcache.forget_last();
        let clocks = (timing.icache.clock(), timing.dcache.clock());
        let trace = Tracer::new(None, program, entry, "", start);
        let model = InOrderCore::new(timing, config, trace);
        let out = xjit::run(prog, entry, arch, fuel, None, model);
        let (i1, d1) = (timing.icache.stats(), timing.dcache.stats());
        if let Ok(classes) = &out {
            if i1.misses == i0.misses && d1.misses == d0.misses {
                let written =
                    (0..16u8).filter(|&r| timing.reg_ready[r as usize] != ready[r as usize]);
                let rec = Record {
                    cycles: timing.cycles - start,
                    insns: classes.total(),
                    ihits: i1.hits - i0.hits,
                    dhits: d1.hits - d0.hits,
                    ilines: timing.icache.used_since(clocks.0),
                    dlines: timing.dcache.used_since(clocks.1),
                    ready: written
                        .map(|r| (r, timing.reg_ready[r as usize] - start))
                        .collect(),
                };
                self.records.insert(key, rec);
            }
        }
        if !charge {
            // A warm-up leaves the clock and the ready times alone.
            timing.cycles = start;
            timing.reg_ready = ready;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cache::CacheConfig;
    use crate::cpu::{Cpu, RunSummary};
    use xobs::trace::{OwnedEvent, VecSink};

    /// A constant-time kernel (`add`: `rp[i] = ap[i] + bp[i]`, keyed on
    /// its four arguments, `sp` and `ra`), a routine loading through a table of
    /// addresses, and one that returns with a multiply still in flight
    /// on a slow multiplier.
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

    /// The same program on a core with the memo attached and on a plain
    /// one, checked equal after every step.
    struct Pair {
        prog: Program,
        memo: Cpu,
        plain: Cpu,
    }

    impl Pair {
        fn new(config: CpuConfig) -> Self {
            let prog = assemble(SOURCE).unwrap();
            let mut memo = Cpu::new(config.clone());
            let mut table = CallMemo::new();
            let public = [0, 1, 2, 3, 14, 15].map(Reg::new);
            table.declare(&prog, prog.label("add").unwrap(), &public);
            memo.set_call_memo(Some(table));
            Pair {
                prog,
                memo,
                plain: Cpu::new(config),
            }
        }

        fn stats(&self) -> MemoStats {
            self.memo.call_memo().unwrap().stats()
        }

        fn write(&mut self, addr: u32, words: &[u32]) {
            for cpu in [&mut self.memo, &mut self.plain] {
                cpu.mem_mut().write_words(addr, words).unwrap();
            }
        }

        /// Calls `label` on both cores, each with its own sink when
        /// `traced`, and checks they agree.
        fn call(&mut self, label: &str, args: &[u32], traced: bool) -> Vec<OwnedEvent> {
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
            assert_eq!(summary(&m), summary(&p), "{label} {args:x?}");
            assert_eq!(self.memo.cycles(), self.plain.cycles());
            for i in 0..16 {
                assert_eq!(self.memo.reg(i), self.plain.reg(i), "a{i}");
            }
            assert_eq!(self.memo.mem().digest(), self.plain.mem().digest());
            assert_eq!(self.memo.retired(), self.plain.retired());
            assert_eq!(sinks.0.events(), sinks.1.events(), "traced {label}");
            sinks.0.into_events()
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
            assert!(events.iter().any(|e| matches!(e, OwnedEvent::Cache { .. })));
        }

        /// A walk over `count` random word addresses near the kernel's
        /// operands.
        fn random_walk(&mut self, rng: &mut Rng, count: usize) {
            let targets: Vec<u32> = (0..count)
                .map(|_| 0x1000 + 4 * rng.below(0x100) as u32)
                .collect();
            self.walk(&targets);
        }

        fn set_warm_up(&mut self, on: bool) {
            self.memo.set_warm_up(on);
            self.plain.set_warm_up(on);
        }
    }

    #[test]
    fn replays_equal_the_plain_model_under_random_interleavings() {
        for seed in 1..=4 {
            let mut rng = Rng(seed);
            let mut pair = Pair::new(config());
            for _ in 0..400 {
                match rng.below(10) {
                    0..=5 => {
                        let n = [2, 4, 8][rng.below(3) as usize];
                        pair.add(&mut rng, n);
                    }
                    6..=8 => {
                        let count = 1 + rng.below(6) as usize;
                        pair.random_walk(&mut rng, count);
                    }
                    _ => pair.set_warm_up(rng.below(2) == 0),
                }
            }
            let stats = pair.stats();
            assert!(stats.replays > 0, "seed {seed}: {stats:?}");
            assert!(stats.replays < stats.calls, "seed {seed}: {stats:?}");
        }
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
        let before = pair.stats();
        assert_eq!(before.replays, 1);
        let args = [RP, AP, BP, 4];
        pair.call("add", &args, true);
        assert_eq!(pair.stats(), before, "a sink is attached");
        let quiet = xfault::PlanSpec::all_sites(1, 0);
        pair.memo.set_fault_plan(quiet.plan(0));
        pair.plain.set_fault_plan(quiet.plan(0));
        pair.call("add", &args, false);
        assert_eq!(pair.stats(), before, "a plan is armed");
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
        CallMemo::new().declare(&prog, 0, &nine);
    }
}
