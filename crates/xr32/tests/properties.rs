//! Property-based tests for the XR32 simulator: assembler round trips,
//! ALU semantics against host arithmetic, and timing-model invariants.

use proptest::prelude::*;
use xobs::{Attribution, EventStats, VecSink};
use xr32::asm::assemble;
use xr32::config::CpuConfig;
use xr32::cpu::Cpu;

/// Assembles a random straight-line/loop/call program from a template:
/// `main` stores `values`, loops `n` times accumulating loads, and calls
/// a helper once per iteration. Exercises every trace hook point.
fn random_program(values: &[u32], n: u32) -> xr32::asm::Program {
    let mut src = String::from("main:\n movi a1, 0x100\n");
    for (i, v) in values.iter().enumerate() {
        src.push_str(&format!(" movi a2, {}\n sw a2, a1, {}\n", *v as i64, 4 * i));
    }
    src.push_str(&format!(
        " movi a0, {n}
          movi a4, 0
        loop:
          lw   a3, a1, 0
          add  a4, a4, a3
          addi sp, sp, -4
          sw   ra, sp, 0
          call helper
          lw   ra, sp, 0
          addi sp, sp, 4
          movi a5, 0
          addi a0, a0, -1
          bne  a0, a5, loop
          halt
        helper:
          mul  a6, a4, a4
          add  a6, a6, a4
          ret
        "
    ));
    assemble(&src).expect("valid template program")
}

fn run_binop(op: &str, a: u32, b: u32) -> u32 {
    let src = format!(
        "main:
            movi a1, {a}
            movi a2, {b}
            {op}  a3, a1, a2
            halt",
        a = a as i64,
        b = b as i64,
    );
    let p = assemble(&src).expect("valid program");
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.run(&p).expect("halts");
    cpu.reg(3)
}

proptest! {
    #[test]
    fn alu_ops_match_host_semantics(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(run_binop("add", a, b), a.wrapping_add(b));
        prop_assert_eq!(run_binop("sub", a, b), a.wrapping_sub(b));
        prop_assert_eq!(run_binop("and", a, b), a & b);
        prop_assert_eq!(run_binop("or", a, b), a | b);
        prop_assert_eq!(run_binop("xor", a, b), a ^ b);
        prop_assert_eq!(run_binop("sll", a, b), a << (b & 31));
        prop_assert_eq!(run_binop("srl", a, b), a >> (b & 31));
        prop_assert_eq!(run_binop("sra", a, b), ((a as i32) >> (b & 31)) as u32);
        prop_assert_eq!(run_binop("sltu", a, b), (a < b) as u32);
        prop_assert_eq!(run_binop("slt", a, b), ((a as i32) < (b as i32)) as u32);
        prop_assert_eq!(run_binop("mul", a, b), a.wrapping_mul(b));
        prop_assert_eq!(
            run_binop("mulhu", a, b),
            ((a as u64 * b as u64) >> 32) as u32
        );
    }

    #[test]
    fn addc_subc_chain_works_like_u64(a in any::<u64>(), b in any::<u64>()) {
        // Two-limb add with carry must equal 64-bit addition.
        let src = format!(
            "main:
                movi a1, {al}
                movi a2, {ah}
                movi a3, {bl}
                movi a4, {bh}
                clc
                addc a5, a1, a3
                addc a6, a2, a4
                halt",
            al = (a as u32) as i64,
            ah = ((a >> 32) as u32) as i64,
            bl = (b as u32) as i64,
            bh = ((b >> 32) as u32) as i64,
        );
        let p = assemble(&src).expect("valid");
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.run(&p).expect("halts");
        let sum = a.wrapping_add(b);
        prop_assert_eq!(cpu.reg(5), sum as u32);
        prop_assert_eq!(cpu.reg(6), (sum >> 32) as u32);
    }

    #[test]
    fn memory_roundtrip_through_cpu(values in prop::collection::vec(any::<u32>(), 1..16)) {
        // Store then load each word through simulated instructions.
        let mut src = String::from("main:\n movi a1, 0x100\n");
        for (i, v) in values.iter().enumerate() {
            src.push_str(&format!(" movi a2, {}\n sw a2, a1, {}\n", *v as i64, 4 * i));
        }
        for (i, _) in values.iter().enumerate() {
            src.push_str(&format!(" lw a3, a1, {}\n sw a3, a1, {}\n", 4 * i, 0x100 + 4 * i));
        }
        src.push_str(" halt\n");
        let p = assemble(&src).expect("valid");
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.run(&p).expect("halts");
        let out = cpu.mem().read_words(0x200, values.len()).expect("in range");
        prop_assert_eq!(out, values);
    }

    #[test]
    fn cycles_monotone_in_loop_count(n in 1u32..200) {
        let src = format!(
            "main:
                movi a0, {n}
                movi a1, 0
            loop:
                addi a0, a0, -1
                bne  a0, a1, loop
                halt"
        );
        let p = assemble(&src).expect("valid");
        let mut c1 = Cpu::new(CpuConfig::default());
        let s1 = c1.run(&p).expect("halts");
        // Double the count must cost strictly more cycles.
        let src2 = src.replace(&format!("movi a0, {n}"), &format!("movi a0, {}", 2 * n));
        let p2 = assemble(&src2).expect("valid");
        let mut c2 = Cpu::new(CpuConfig::default());
        let s2 = c2.run(&p2).expect("halts");
        prop_assert!(s2.cycles > s1.cycles);
        prop_assert_eq!(s2.instructions, s1.instructions + 2 * n as u64);
    }

    #[test]
    fn cache_miss_penalty_visible(stride in 1u32..6) {
        // Strided loads across lines must not be faster than repeated
        // loads of one address.
        let hot = "main:
            movi a1, 0x100
            movi a0, 64
            movi a2, 0
        loop:
            lw a3, a1, 0
            addi a0, a0, -1
            bne a0, a2, loop
            halt";
        let cold_src = format!(
            "main:
                movi a1, 0x100
                movi a0, 64
                movi a2, 0
            loop:
                lw a3, a1, 0
                addi a1, a1, {}
                addi a0, a0, -1
                bne a0, a2, loop
                halt",
            stride * 64
        );
        let ph = assemble(hot).expect("valid");
        let pc = assemble(&cold_src).expect("valid");
        let mut ch = Cpu::new(CpuConfig::default());
        let sh = ch.run(&ph).expect("halts");
        let mut cc = Cpu::new(CpuConfig::default());
        let sc = cc.run(&pc).expect("halts");
        prop_assert!(sc.cycles > sh.cycles, "cold {} vs hot {}", sc.cycles, sh.cycles);
        prop_assert!(sc.dcache.misses > sh.dcache.misses);
    }

    /// Observer effect = 0: attaching a trace sink must not change
    /// architectural state, cycle counts, instruction counts, or cache
    /// statistics on random programs.
    #[test]
    fn tracing_is_invisible_to_the_machine(
        values in prop::collection::vec(any::<u32>(), 1..8),
        n in 1u32..20,
    ) {
        let p = random_program(&values, n);
        let mut plain = Cpu::new(CpuConfig::default());
        let s_plain = plain.run(&p).expect("halts");
        let mut traced = Cpu::new(CpuConfig::default());
        let mut sink = VecSink::new();
        let s_traced = traced.run_traced(&p, Some(&mut sink)).expect("halts");

        prop_assert_eq!(s_plain.cycles, s_traced.cycles);
        prop_assert_eq!(s_plain.instructions, s_traced.instructions);
        prop_assert_eq!(s_plain.icache, s_traced.icache);
        prop_assert_eq!(s_plain.dcache, s_traced.dcache);
        for i in 0..16 {
            prop_assert_eq!(plain.reg(i), traced.reg(i), "register a{} diverged", i);
        }
        prop_assert_eq!(
            plain.mem().read_words(0x100, values.len()).expect("in range"),
            traced.mem().read_words(0x100, values.len()).expect("in range")
        );
        prop_assert!(!sink.events().is_empty());
    }

    /// Conservation: folded-stack inclusive cycles reconstructed from
    /// the event stream sum to the run's total simulated cycles, and
    /// per-category event tallies agree with the run summary.
    #[test]
    fn attribution_accounts_for_every_cycle(
        values in prop::collection::vec(any::<u32>(), 1..8),
        n in 1u32..20,
    ) {
        let p = random_program(&values, n);
        let mut cpu = Cpu::new(CpuConfig::default());
        let mut sink = VecSink::new();
        cpu.run_traced(&p, Some(&mut sink)).expect("halts");
        let mut attr = Attribution::new();
        let mut stats = EventStats::new();
        xobs::bintrace::replay(sink.events(), &mut attr);
        xobs::bintrace::replay(sink.events(), &mut stats);
        let total = cpu.cycles();
        prop_assert_eq!(attr.open_frames(), 0);
        prop_assert_eq!(attr.unmatched_rets(), 0);
        prop_assert_eq!(attr.total_cycles(), total);
        let folded_sum: u64 = attr
            .folded()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        prop_assert_eq!(folded_sum, total);
        prop_assert_eq!(stats.retires, cpu_instructions(&p));
        prop_assert_eq!(stats.last_cycle, total);
    }
}

/// Instruction count of an untraced reference run (helper for the
/// conservation property).
fn cpu_instructions(p: &xr32::asm::Program) -> u64 {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.run(p).expect("halts").instructions
}
