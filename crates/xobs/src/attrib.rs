//! Cycle attribution: call-stack reconstruction from Call/Ret events
//! into an exclusive/inclusive per-function cycle tree.
//!
//! The executor brackets every run with a synthetic entry Call/Ret
//! pair, so the sum of top-level inclusive cycles equals the core's
//! total simulated cycle count exactly — across an entire co-simulation
//! of many `Cpu::call`s, not just a single run. Folded-stack output
//! ([`Attribution::folded`]) is flamegraph-compatible: one line per
//! unique stack with its exclusive cycle count, and the line values sum
//! back to the total.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{CacheSide, TraceEvent, TraceSink};

#[derive(Debug)]
struct Node {
    name: String,
    parent: usize,
    children: BTreeMap<String, usize>,
    calls: u64,
    inclusive: u64,
    exclusive: u64,
}

#[derive(Debug)]
struct Frame {
    node: usize,
    start_cycle: u64,
    child_cycles: u64,
    /// Whether the same function name is already live deeper in the
    /// stack (recursion): inclusive cycles aggregate topmost-only.
    reentrant: bool,
}

/// Per-function flat totals derived from the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatEntry {
    /// Function label.
    pub name: String,
    /// Number of completed invocations.
    pub calls: u64,
    /// Cycles spent in the function or its callees. Recursive
    /// re-entries are counted topmost-only, so the value never exceeds
    /// total simulated cycles.
    pub inclusive: u64,
    /// Cycles spent in the function's own instructions.
    pub exclusive: u64,
}

/// A [`TraceSink`] that reconstructs the dynamic call tree and
/// attributes every simulated cycle to exactly one function frame.
#[derive(Debug)]
pub struct Attribution {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    unmatched_rets: u64,
}

const ROOT: usize = 0;

impl Default for Attribution {
    fn default() -> Self {
        Self::new()
    }
}

impl Attribution {
    /// Creates an empty attribution tree.
    pub fn new() -> Self {
        Attribution {
            nodes: vec![Node {
                name: String::new(),
                parent: ROOT,
                children: BTreeMap::new(),
                calls: 0,
                inclusive: 0,
                exclusive: 0,
            }],
            stack: Vec::new(),
            unmatched_rets: 0,
        }
    }

    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent].children.get(name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_owned(),
            parent,
            children: BTreeMap::new(),
            calls: 0,
            inclusive: 0,
            exclusive: 0,
        });
        self.nodes[parent].children.insert(name.to_owned(), idx);
        idx
    }

    fn on_call(&mut self, callee: &str, cycle: u64) {
        let parent = self.stack.last().map_or(ROOT, |f| f.node);
        let reentrant = self.stack_has(callee);
        let node = self.child(parent, callee);
        self.stack.push(Frame {
            node,
            start_cycle: cycle,
            child_cycles: 0,
            reentrant,
        });
    }

    fn stack_has(&self, name: &str) -> bool {
        self.stack.iter().any(|f| self.nodes[f.node].name == name)
    }

    fn on_ret(&mut self, cycle: u64) {
        let Some(frame) = self.stack.pop() else {
            self.unmatched_rets += 1;
            return;
        };
        let total = cycle.saturating_sub(frame.start_cycle);
        let exclusive = total.saturating_sub(frame.child_cycles);
        let node = &mut self.nodes[frame.node];
        node.calls += 1;
        node.inclusive += total;
        node.exclusive += exclusive;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles += total;
        }
        let _ = frame.reentrant; // flat view re-derives re-entrancy per path
    }

    /// Ret events seen with no open frame (0 for well-formed traces).
    pub fn unmatched_rets(&self) -> u64 {
        self.unmatched_rets
    }

    /// Frames still open (0 once the executor has closed its synthetic
    /// entry frame).
    pub fn open_frames(&self) -> usize {
        self.stack.len()
    }

    /// Total attributed cycles: the sum of top-level inclusive cycles.
    /// With the executor's synthetic entry frames this equals the
    /// core's cumulative cycle counter exactly.
    pub fn total_cycles(&self) -> u64 {
        self.nodes[ROOT]
            .children
            .values()
            .map(|&c| self.nodes[c].inclusive)
            .sum()
    }

    /// Flat per-function totals, sorted by exclusive cycles descending.
    /// Inclusive cycles for recursive functions are aggregated
    /// topmost-only: a node whose path already contains the same name
    /// contributes only exclusive cycles.
    pub fn flat(&self) -> Vec<FlatEntry> {
        let mut map: BTreeMap<&str, FlatEntry> = BTreeMap::new();
        for (idx, node) in self.nodes.iter().enumerate().skip(1) {
            let entry = map.entry(node.name.as_str()).or_insert_with(|| FlatEntry {
                name: node.name.clone(),
                calls: 0,
                inclusive: 0,
                exclusive: 0,
            });
            entry.calls += node.calls;
            entry.exclusive += node.exclusive;
            if !self.path_repeats(idx) {
                entry.inclusive += node.inclusive;
            }
        }
        let mut out: Vec<FlatEntry> = map.into_values().collect();
        out.sort_by(|a, b| b.exclusive.cmp(&a.exclusive).then(a.name.cmp(&b.name)));
        out
    }

    /// Whether the node's name appears again among its ancestors.
    fn path_repeats(&self, idx: usize) -> bool {
        let name = &self.nodes[idx].name;
        let mut cur = self.nodes[idx].parent;
        while cur != ROOT {
            if &self.nodes[cur].name == name {
                return true;
            }
            cur = self.nodes[cur].parent;
        }
        false
    }

    /// Folded-stack text: one `path;to;func cycles` line per tree node
    /// with non-zero exclusive cycles, flamegraph-compatible. Line
    /// values sum to [`Attribution::total_cycles`].
    pub fn folded(&self) -> String {
        let mut lines = Vec::new();
        self.fold_into(ROOT, &mut String::new(), &mut lines);
        lines.sort();
        let mut out = String::new();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    fn fold_into(&self, idx: usize, path: &mut String, lines: &mut Vec<String>) {
        let node = &self.nodes[idx];
        let saved = path.len();
        if idx != ROOT {
            if !path.is_empty() {
                path.push(';');
            }
            path.push_str(&node.name);
            if node.exclusive > 0 {
                lines.push(format!("{path} {}", node.exclusive));
            }
        }
        for &child in node.children.values() {
            self.fold_into(child, path, lines);
        }
        path.truncate(saved);
    }

    /// A rendered top-`n` hot-function table (by exclusive cycles).
    pub fn hot_report(&self, n: usize) -> String {
        let total = self.total_cycles().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12} {:>6}",
            "function", "calls", "excl cyc", "incl cyc", "excl%"
        );
        for e in self.flat().into_iter().take(n) {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12} {:>12} {:>5.1}%",
                e.name,
                e.calls,
                e.exclusive,
                e.inclusive,
                100.0 * e.exclusive as f64 / total as f64
            );
        }
        let _ = writeln!(out, "total attributed cycles: {}", self.total_cycles());
        out
    }
}

impl TraceSink for Attribution {
    fn on_event(&mut self, ev: &TraceEvent<&str>) {
        match *ev {
            TraceEvent::Call { callee, cycle, .. } => self.on_call(callee, cycle),
            TraceEvent::Ret { cycle, .. } => self.on_ret(cycle),
            _ => {}
        }
    }
}

/// Per-side hit/miss tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and filled).
    pub misses: u64,
}

impl CacheTally {
    /// Hit rate in `[0, 1]` (1.0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A [`TraceSink`] tallying event categories: retires, stalls, branch
/// penalties, cache behaviour, and custom-instruction dispatches.
#[derive(Debug, Clone, Default)]
pub struct EventStats {
    /// Instructions retired.
    pub retires: u64,
    /// Interlock stalls observed.
    pub stalls: u64,
    /// Cycles lost to interlock stalls.
    pub stall_cycles: u64,
    /// Taken branches observed.
    pub taken_branches: u64,
    /// Cycles lost to taken-branch refills.
    pub branch_penalty_cycles: u64,
    /// Instruction-cache tallies.
    pub icache: CacheTally,
    /// Data-cache tallies.
    pub dcache: CacheTally,
    /// Custom-instruction dispatch counts by name.
    pub custom: BTreeMap<String, u64>,
    /// Cycle stamp of the last event seen.
    pub last_cycle: u64,
}

impl EventStats {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// A rendered multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "retired instructions : {}", self.retires);
        let _ = writeln!(
            out,
            "interlock stalls     : {} ({} cycles)",
            self.stalls, self.stall_cycles
        );
        let _ = writeln!(
            out,
            "taken branches       : {} ({} penalty cycles)",
            self.taken_branches, self.branch_penalty_cycles
        );
        let _ = writeln!(
            out,
            "icache               : {} hits / {} misses ({:.2}% hit)",
            self.icache.hits,
            self.icache.misses,
            100.0 * self.icache.hit_rate()
        );
        let _ = writeln!(
            out,
            "dcache               : {} hits / {} misses ({:.2}% hit)",
            self.dcache.hits,
            self.dcache.misses,
            100.0 * self.dcache.hit_rate()
        );
        if !self.custom.is_empty() {
            let _ = writeln!(out, "custom dispatches    :");
            for (name, count) in &self.custom {
                let _ = writeln!(out, "  {name:<20} {count}");
            }
        }
        out
    }
}

impl TraceSink for EventStats {
    fn on_event(&mut self, ev: &TraceEvent<&str>) {
        self.last_cycle = self.last_cycle.max(ev.cycle());
        match *ev {
            TraceEvent::Retire { .. } => self.retires += 1,
            TraceEvent::Stall { cycles, .. } => {
                self.stalls += 1;
                self.stall_cycles += u64::from(cycles);
            }
            TraceEvent::TakenBranch { penalty, .. } => {
                self.taken_branches += 1;
                self.branch_penalty_cycles += u64::from(penalty);
            }
            TraceEvent::Cache { side, hit, .. } => {
                let tally = match side {
                    CacheSide::Instruction => &mut self.icache,
                    CacheSide::Data => &mut self.dcache,
                };
                if hit {
                    tally.hits += 1;
                } else {
                    tally.misses += 1;
                }
            }
            TraceEvent::Custom { name, .. } => {
                *self.custom.entry(name.to_owned()).or_insert(0) += 1;
            }
            TraceEvent::Call { .. } | TraceEvent::Ret { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(callee: &'static str, cycle: u64) -> TraceEvent<&'static str> {
        TraceEvent::Call {
            pc: 0,
            callee,
            cycle,
        }
    }

    fn ret(cycle: u64) -> TraceEvent<&'static str> {
        TraceEvent::Ret { pc: 0, cycle }
    }

    fn feed(attr: &mut Attribution, events: &[TraceEvent<&'static str>]) {
        for ev in events {
            attr.on_event(ev);
        }
    }

    #[test]
    fn simple_nesting_attributes_exclusive() {
        // main [0,100): calls helper [10,40).
        let mut a = Attribution::new();
        feed(
            &mut a,
            &[call("main", 0), call("helper", 10), ret(40), ret(100)],
        );
        let flat = a.flat();
        let main = flat.iter().find(|e| e.name == "main").unwrap();
        let helper = flat.iter().find(|e| e.name == "helper").unwrap();
        assert_eq!(main.inclusive, 100);
        assert_eq!(main.exclusive, 70);
        assert_eq!(helper.inclusive, 30);
        assert_eq!(helper.exclusive, 30);
        assert_eq!(a.total_cycles(), 100);
        assert_eq!(a.open_frames(), 0);
    }

    #[test]
    fn recursion_counts_inclusive_topmost_only() {
        // fib [0,100) -> fib [10,90) -> fib [20,50).
        let mut a = Attribution::new();
        feed(
            &mut a,
            &[
                call("fib", 0),
                call("fib", 10),
                call("fib", 20),
                ret(50),
                ret(90),
                ret(100),
            ],
        );
        let flat = a.flat();
        let fib = &flat[0];
        assert_eq!(fib.calls, 3);
        assert_eq!(fib.inclusive, 100, "re-entries must not double-count");
        assert_eq!(fib.exclusive, 100);
        assert_eq!(a.total_cycles(), 100);
    }

    #[test]
    fn multiple_top_level_runs_sum_to_total() {
        // Two back-to-back runs, cycle counter continuing across them.
        let mut a = Attribution::new();
        feed(&mut a, &[call("des_block", 0), ret(500)]);
        feed(&mut a, &[call("aes_block", 500), ret(1300)]);
        assert_eq!(a.total_cycles(), 1300);
    }

    #[test]
    fn folded_values_sum_to_total() {
        let mut a = Attribution::new();
        feed(
            &mut a,
            &[
                call("main", 0),
                call("f", 10),
                call("g", 20),
                ret(30),
                ret(50),
                call("g", 60),
                ret(80),
                ret(100),
            ],
        );
        let folded = a.folded();
        let sum: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, a.total_cycles());
        assert!(folded.contains("main;f;g 10"));
        assert!(folded.contains("main;g 20"));
    }

    #[test]
    fn unmatched_ret_is_counted_not_fatal() {
        let mut a = Attribution::new();
        a.on_event(&ret(10));
        assert_eq!(a.unmatched_rets(), 1);
        assert_eq!(a.total_cycles(), 0);
    }

    #[test]
    fn hot_report_orders_by_exclusive() {
        let mut a = Attribution::new();
        feed(
            &mut a,
            &[call("cold", 0), call("hot", 1), ret(91), ret(100)],
        );
        let report = a.hot_report(2);
        let hot_pos = report.find("hot").unwrap();
        let cold_pos = report.find("cold").unwrap();
        assert!(hot_pos < cold_pos);
        assert!(report.contains("total attributed cycles: 100"));
    }

    #[test]
    fn event_stats_tallies_categories() {
        let mut s = EventStats::new();
        s.on_event(&TraceEvent::Retire { pc: 0, cycle: 1 });
        s.on_event(&TraceEvent::Stall {
            pc: 1,
            cycles: 2,
            cycle: 3,
        });
        s.on_event(&TraceEvent::TakenBranch {
            pc: 2,
            target: 9,
            penalty: 2,
            cycle: 5,
        });
        s.on_event(&TraceEvent::Cache {
            side: CacheSide::Instruction,
            addr: 0,
            hit: true,
            cycle: 5,
        });
        s.on_event(&TraceEvent::Cache {
            side: CacheSide::Data,
            addr: 64,
            hit: false,
            cycle: 25,
        });
        s.on_event(&TraceEvent::Custom {
            pc: 3,
            name: "aesround",
            latency: 1,
            cycle: 26,
        });
        assert_eq!(s.retires, 1);
        assert_eq!(s.stall_cycles, 2);
        assert_eq!(s.branch_penalty_cycles, 2);
        assert_eq!(s.icache.hits, 1);
        assert_eq!(s.dcache.misses, 1);
        assert_eq!(s.custom.get("aesround"), Some(&1));
        assert_eq!(s.last_cycle, 26);
        assert!(s.render().contains("aesround"));
    }
}
