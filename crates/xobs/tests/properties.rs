//! Property tests for the observability primitives: JSON round-trips,
//! binary-trace round-trips, attribution conservation laws, and span
//! tree well-formedness.

use proptest::prelude::*;

use xobs::attrib::Attribution;
use xobs::bintrace::{decode_trace, BinaryTraceWriter};
use xobs::json::{self, Json};
use xobs::span::{validate_span_json, Spans};
use xobs::trace::{CacheSide, TraceEvent, TraceSink};

/// A strategy producing arbitrary JSON trees of bounded depth.
fn arb_json() -> impl Strategy<Value = Json> {
    // Leaf pool; containers are built by wrapping random leaves so the
    // tree stays shallow but exercises every writer branch.
    let leaf = (any::<u8>(), any::<i64>(), any::<bool>()).prop_map(|(kind, n, b)| match kind % 5 {
        0 => Json::Null,
        1 => Json::from(b),
        2 => Json::from((n % 1_000_000) as f64 / 8.0),
        3 => Json::from(n % 1_000_000_000),
        _ => Json::from(format!("s{n}\"\\\u{1}ü€")),
    });
    prop::collection::vec(leaf, 0..8).prop_map(|leaves| {
        let mut obj = Json::obj();
        let mut arr = Vec::new();
        for (i, l) in leaves.into_iter().enumerate() {
            if i % 2 == 0 {
                obj = obj.set(format!("k{i}"), l);
            } else {
                arr.push(l);
            }
        }
        Json::obj().set("o", obj).set("a", arr)
    })
}

/// A strategy for well-nested Call/Ret sequences with monotone cycles.
/// Returns the events plus the final cycle stamp.
fn arb_callret() -> impl Strategy<Value = (Vec<TraceEvent<String>>, u64)> {
    prop::collection::vec((any::<u8>(), 1u64..50), 1..60).prop_map(|ops| {
        let names = ["modexp", "mul", "redc", "sq", "helper"];
        let mut events = Vec::new();
        let mut depth = 0usize;
        let mut cycle = 0u64;
        for (sel, dt) in ops {
            cycle += dt;
            // Bias toward call at shallow depth, ret at deep depth, so
            // both trees and towers occur.
            let do_call = depth == 0 || (!(sel as usize).is_multiple_of(3) && depth < 12);
            if do_call {
                events.push(TraceEvent::Call {
                    pc: depth as u32,
                    callee: names[sel as usize % names.len()].to_owned(),
                    cycle,
                });
                depth += 1;
            } else {
                events.push(TraceEvent::Ret {
                    pc: depth as u32,
                    cycle,
                });
                depth -= 1;
            }
        }
        // Close every open frame.
        while depth > 0 {
            cycle += 1;
            events.push(TraceEvent::Ret {
                pc: depth as u32,
                cycle,
            });
            depth -= 1;
        }
        (events, cycle)
    })
}

/// One span-tree mutation, as produced by [`arb_span_ops`].
#[derive(Debug, Clone)]
enum SpanOp {
    Enter(u8),
    Exit,
    Leaf(u16, u8),
    Event(u8),
    AddCycles(u16),
    AddTasks(u8),
    WallSpan(u8),
}

/// A strategy for arbitrary span-op sequences. Exits may outnumber
/// enters (they become no-ops on an empty stack) and enters may go
/// unclosed (the trailing guards close on drop), so the builder's
/// robustness is part of what's exercised.
fn arb_span_ops() -> impl Strategy<Value = Vec<SpanOp>> {
    let op = (any::<u8>(), any::<u16>(), any::<u8>()).prop_map(|(kind, n, m)| match kind % 7 {
        0 | 1 => SpanOp::Enter(m),
        2 => SpanOp::Exit,
        3 => SpanOp::Leaf(n, m),
        4 => SpanOp::Event(m),
        5 => SpanOp::AddCycles(n),
        _ => {
            if m % 2 == 0 {
                SpanOp::AddTasks(m)
            } else {
                SpanOp::WallSpan(m)
            }
        }
    });
    prop::collection::vec(op, 0..40)
}

/// Replays an op sequence onto a fresh tree and returns it together
/// with the cycles that must appear in the inclusive rollup.
fn build_spans(ops: &[SpanOp]) -> (Spans, f64) {
    let spans = Spans::new();
    let mut guards = Vec::new();
    let mut expected_cycles = 0.0f64;
    for op in ops {
        match op {
            SpanOp::Enter(m) => guards.push(spans.enter(format!("phase{m}"))),
            SpanOp::Exit => {
                if let Some(g) = guards.pop() {
                    g.end();
                }
            }
            SpanOp::Leaf(n, m) => {
                let cycles = f64::from(*n);
                spans.leaf(format!("unit{m}"), cycles, u64::from(*m), Some(0.25));
                expected_cycles += cycles;
            }
            SpanOp::Event(m) => spans.event("event", Json::obj().set("k", u64::from(*m))),
            SpanOp::AddCycles(n) => {
                let cycles = f64::from(*n);
                spans.add_cycles(cycles);
                // Credited to the innermost open span only; dropped on
                // an empty stack.
                if !guards.is_empty() {
                    expected_cycles += cycles;
                }
            }
            SpanOp::AddTasks(m) => spans.add_tasks(u64::from(*m)),
            SpanOp::WallSpan(m) => spans.wall_span(
                format!("xpar.worker-{}", m % 4),
                f64::from(*m),
                0.5,
                &[("worker", Json::from(u64::from(*m % 4)))],
            ),
        }
    }
    drop(guards);
    (spans, expected_cycles)
}

proptest! {
    /// Well-formedness: whatever the op sequence — unbalanced guards,
    /// events on an empty stack, wall-only spans anywhere — every
    /// serialized root passes the schema-5 span validator, and the
    /// inclusive rollup over the forest equals exactly the cycles
    /// credited through `leaf`/`add_cycles`.
    #[test]
    fn span_trees_are_wellformed_and_conserve_cycles(ops in arb_span_ops()) {
        let (spans, expected_cycles) = build_spans(&ops);
        let roots = spans.to_json_roots();
        for root in &roots {
            prop_assert!(
                validate_span_json(root).is_ok(),
                "invalid span: {:?} from {:?}",
                validate_span_json(root),
                root
            );
        }
        let rollup: f64 = roots
            .iter()
            .filter(|r| r.get("wall_only") != Some(&Json::Bool(true)))
            .map(|r| r.get("cycles").and_then(Json::as_f64).unwrap_or(0.0))
            .sum();
        prop_assert!((rollup - expected_cycles).abs() < 1e-6);
        prop_assert!((spans.total_cycles() - expected_cycles).abs() < 1e-6);
    }

    /// Determinism: two trees built from the same op sequence serialize
    /// to byte-identical JSON once report normalization strips the wall
    /// stamps and the wall-only (per-worker) spans — the contract that
    /// lets schema-5 reports diff across thread counts.
    #[test]
    fn span_trees_normalize_reproducibly(ops in arb_span_ops()) {
        let (a, _) = build_spans(&ops);
        let (b, _) = build_spans(&ops);
        let norm = |s: &Spans| {
            xobs::report::normalize(&Json::from(s.to_json_roots())).to_string_compact()
        };
        prop_assert_eq!(norm(&a), norm(&b));
    }

    #[test]
    fn json_round_trips(j in arb_json()) {
        let compact = j.to_string_compact();
        let pretty = j.to_string_pretty();
        prop_assert_eq!(&json::parse(&compact).unwrap(), &j);
        prop_assert_eq!(&json::parse(&pretty).unwrap(), &j);
    }

    #[test]
    fn binary_trace_round_trips(events in arb_callret()) {
        let (events, _) = events;
        let mut w = BinaryTraceWriter::new(Vec::new()).unwrap();
        for ev in &events {
            w.on_event(&ev.map_names(String::as_str));
        }
        // Mix in non-call events to cover every record tag.
        w.on_event(&TraceEvent::Cache {
            side: CacheSide::Data,
            addr: 0x40,
            hit: false,
            cycle: 1,
        });
        let bytes = w.finish().unwrap();
        let decoded = decode_trace(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), events.len() + 1);
        for (d, e) in decoded.iter().zip(&events) {
            prop_assert_eq!(d, e);
        }
    }

    /// Conservation: for any well-nested trace, top-level inclusive
    /// cycles sum to the final cycle stamp minus the first frame's
    /// start, exclusive cycles across ALL functions sum to the same
    /// total, and the folded-stack line values sum to it too.
    #[test]
    fn attribution_conserves_cycles(gen in arb_callret()) {
        let (events, _final_cycle) = gen;
        let mut attr = Attribution::new();
        let mut expected_total = 0u64;
        let mut depth = 0usize;
        let mut start = 0u64;
        for ev in &events {
            match ev {
                TraceEvent::Call { cycle, .. } => {
                    if depth == 0 {
                        start = *cycle;
                    }
                    depth += 1;
                }
                TraceEvent::Ret { cycle, .. } => {
                    depth -= 1;
                    if depth == 0 {
                        expected_total += cycle - start;
                    }
                }
                _ => {}
            }
            attr.on_event(&ev.map_names(String::as_str));
        }
        prop_assert_eq!(attr.open_frames(), 0);
        prop_assert_eq!(attr.unmatched_rets(), 0);
        prop_assert_eq!(attr.total_cycles(), expected_total);

        let excl_sum: u64 = attr.flat().iter().map(|e| e.exclusive).sum();
        prop_assert_eq!(excl_sum, expected_total);

        let folded_sum: u64 = attr
            .folded()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        prop_assert_eq!(folded_sum, expected_total);

        // Topmost-only inclusive: no function's inclusive cycles can
        // exceed the total.
        for e in attr.flat() {
            prop_assert!(e.inclusive <= expected_total);
        }
    }
}
