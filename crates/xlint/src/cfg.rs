//! Control-flow graph over an assembled [`Program`].
//!
//! Basic blocks split on branch/jump/call/ret boundaries and on label
//! targets. Control flow is interprocedural: a `call` edge enters the
//! callee, and each `ret` edge returns to the continuation of every
//! call site of the *function region* the `ret` belongs to.
//!
//! Function regions exploit the kernel libraries' layout convention:
//! global (non-`.`) labels start functions, and a function's body is
//! the contiguous range up to the next global label. This keeps return
//! edges precise without a context-sensitive analysis.

use std::collections::BTreeMap;
use xr32::asm::Program;
use xr32::isa::Insn;

/// A maximal straight-line instruction sequence `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
}

/// The control-flow graph: blocks plus instruction-level successor
/// lookup.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// Block index of each instruction.
    block_of: Vec<usize>,
    /// Function-region start of each instruction (global-label pc, or 0).
    region_of: Vec<usize>,
    /// Call continuations per callee region start: `region -> [pc+1...]`.
    returns_to: BTreeMap<usize, Vec<usize>>,
    insn_count: usize,
}

impl Cfg {
    /// Builds the CFG for `program`.
    pub fn build(program: &Program) -> Cfg {
        let insns = program.insns();
        let n = insns.len();

        // Function regions from global labels.
        let mut region_starts: Vec<usize> = program.global_labels().map(|(_, at)| at).collect();
        region_starts.sort_unstable();
        region_starts.dedup();
        let mut region_of = vec![0usize; n];
        {
            let mut current = 0usize;
            let mut next_ix = 0usize;
            for (pc, region) in region_of.iter_mut().enumerate() {
                while next_ix < region_starts.len() && region_starts[next_ix] == pc {
                    current = pc;
                    next_ix += 1;
                }
                *region = current;
            }
        }

        // Call continuations grouped by callee region.
        let mut returns_to: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pc, insn) in insns.iter().enumerate() {
            if let Insn::Call(target) = insn {
                returns_to.entry(*target).or_default().push(pc + 1);
            }
        }

        // Block leaders: 0, label targets, branch targets, and
        // instructions after block enders.
        let mut leader = vec![false; n + 1];
        if n > 0 {
            leader[0] = true;
        }
        for &at in program.labels().values() {
            if at < n {
                leader[at] = true;
            }
        }
        for (pc, insn) in insns.iter().enumerate() {
            if let Some(t) = insn.branch_target() {
                leader[t] = true;
            }
            if insn.ends_block() && pc + 1 < n {
                leader[pc + 1] = true;
            }
            // Every call continuation is a leader (ret edges land there).
            if matches!(insn, Insn::Call(_)) && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }

        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (pc, &is_leader) in leader.iter().enumerate() {
            if pc > start && is_leader {
                blocks.push(BasicBlock {
                    start,
                    end: pc,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = pc;
            }
        }
        // (A branch to a label past the last instruction makes `n` a
        // leader, which starts no block.)
        if start < n {
            blocks.push(BasicBlock {
                start,
                end: n,
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }
        for (ix, b) in blocks.iter().enumerate() {
            for slot in &mut block_of[b.start..b.end] {
                *slot = ix;
            }
        }

        let mut cfg = Cfg {
            blocks,
            block_of,
            region_of,
            returns_to,
            insn_count: n,
        };

        // Block-level edges from the last instruction of each block.
        for ix in 0..cfg.blocks.len() {
            let last = cfg.blocks[ix].end - 1;
            let succ_pcs = cfg.insn_succs(last, insns);
            let mut succs: Vec<usize> = succ_pcs
                .into_iter()
                .filter(|&pc| pc < n)
                .map(|pc| cfg.block_of[pc])
                .collect();
            succs.sort_unstable();
            succs.dedup();
            cfg.blocks[ix].succs = succs;
        }
        for ix in 0..cfg.blocks.len() {
            for s in cfg.blocks[ix].succs.clone() {
                cfg.blocks[s].preds.push(ix);
            }
        }
        cfg
    }

    /// The basic blocks in program order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Block index containing `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// The function-region start (global label pc) containing `pc`.
    pub fn region_of(&self, pc: usize) -> usize {
        self.region_of[pc]
    }

    /// Successor *instruction* indices of the instruction at `pc`.
    /// Indices `== program.len()` never appear; falling off the end or
    /// returning to the host are simply edges to nowhere.
    pub fn insn_succs(&self, pc: usize, insns: &[Insn]) -> Vec<usize> {
        let insn = &insns[pc];
        let mut out = Vec::with_capacity(2);
        match insn {
            Insn::Ret => {
                // Return to the continuation of each call site of this
                // function region (none when called from the host).
                let region = self.region_of[pc];
                if let Some(sites) = self.returns_to.get(&region) {
                    out.extend(sites.iter().copied().filter(|&s| s < self.insn_count));
                }
            }
            Insn::Jr(_) | Insn::Halt => {}
            // A call's continuation is reached through the callee's
            // `ret`, not directly — no fall-through edge here.
            Insn::Call(t) => {
                if *t < self.insn_count {
                    out.push(*t);
                }
            }
            _ => {
                if let Some(t) = insn.branch_target().filter(|&t| t < self.insn_count) {
                    out.push(t);
                }
                if insn.falls_through() && pc + 1 < self.insn_count {
                    out.push(pc + 1);
                }
            }
        }
        out
    }

    /// Instruction indices reachable from the given entry pcs.
    pub fn reachable_from(&self, entries: &[usize], insns: &[Insn]) -> Vec<bool> {
        let mut seen = vec![false; self.insn_count];
        let mut work: Vec<usize> = entries
            .iter()
            .copied()
            .filter(|&e| e < self.insn_count)
            .collect();
        while let Some(pc) = work.pop() {
            if seen[pc] {
                continue;
            }
            seen[pc] = true;
            for s in self.insn_succs(pc, insns) {
                if !seen[s] {
                    work.push(s);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr32::asm::assemble;

    fn cfg_of(src: &str) -> (Program, Cfg) {
        let p = assemble(src).expect("assembles");
        let c = Cfg::build(&p);
        (p, c)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, c) = cfg_of("main: movi a0, 1\n addi a0, a0, 1\n halt");
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.blocks()[0].start, 0);
        assert_eq!(c.blocks()[0].end, 3);
        assert!(c.blocks()[0].succs.is_empty());
    }

    #[test]
    fn loop_splits_blocks_and_links_edges() {
        let (_, c) = cfg_of(
            "main:
                movi a0, 4
                movi a1, 0
            loop:
                addi a0, a0, -1
                bne  a0, a1, loop
                halt",
        );
        // Blocks: [movi,movi] [addi,bne] [halt]
        assert_eq!(c.blocks().len(), 3);
        assert_eq!(c.blocks()[0].succs, vec![1]);
        assert_eq!(c.blocks()[1].succs, vec![1, 2]);
        assert!(c.blocks()[2].succs.is_empty());
        assert_eq!(c.blocks()[1].preds, vec![0, 1]);
    }

    #[test]
    fn call_and_ret_connect_interprocedurally() {
        let (p, c) = cfg_of(
            "main:
                call f
                halt
            f:
                addi a0, a0, 1
                ret",
        );
        let f = p.label("f").expect("label");
        // call -> f
        assert_eq!(c.insn_succs(0, p.insns()), vec![f]);
        // ret -> continuation of the call (pc 1)
        let ret_pc = p.len() - 1;
        assert_eq!(c.insn_succs(ret_pc, p.insns()), vec![1]);
        let reach = c.reachable_from(&[0], p.insns());
        assert!(reach.iter().all(|&r| r));
    }

    #[test]
    fn ret_regions_keep_distinct_functions_separate() {
        let (p, c) = cfg_of(
            "main:
                call f
                call g
                halt
            f:
                ret
            g:
                ret",
        );
        let f_ret = p.label("f").expect("f");
        let g_ret = p.label("g").expect("g");
        assert_eq!(c.insn_succs(f_ret, p.insns()), vec![1]);
        assert_eq!(c.insn_succs(g_ret, p.insns()), vec![2]);
    }

    #[test]
    fn unreachable_code_not_marked() {
        let (p, c) = cfg_of(
            "main:
                halt
            orphan:
                nop
                halt",
        );
        let reach = c.reachable_from(&[0], p.insns());
        assert!(reach[0]);
        assert!(!reach[1]);
        assert!(!reach[2]);
    }
}
