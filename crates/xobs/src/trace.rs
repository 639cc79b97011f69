//! ISS event tracing: the [`TraceSink`] trait and in-memory sinks.
//!
//! The XR32 executor offers hook points (instruction retire, interlock
//! stalls, taken branches, cache accesses, custom-instruction dispatch,
//! call/return) behind an `Option<&mut dyn TraceSink>`: with no sink
//! attached the hot interpreter loop pays one predictable branch per
//! hook site.
//!
//! One event type, [`TraceEvent`], is generic over how it holds its
//! names: sinks receive `TraceEvent<&str>`, borrowing label names from
//! the running program; recorded and decoded traces hold
//! `TraceEvent<String>`. The streaming binary format lives in
//! [`crate::bintrace`]; call-tree reconstruction in [`crate::attrib`].

use std::cell::RefCell;
use std::rc::Rc;

/// Which cache a [`TraceEvent::Cache`] access went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSide {
    /// Instruction fetch.
    Instruction,
    /// Data load/store.
    Data,
}

/// One simulator event. `cycle` stamps are the core's cumulative cycle
/// counter at the instant the event was produced, so a sink observing a
/// whole co-simulation sees a single non-decreasing timeline. `N` holds
/// the names: `&str` as sinks see them, `String` once recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent<N> {
    /// An instruction finished executing. `pc` is the instruction
    /// index; `cycle` the counter *after* the instruction's cost.
    Retire {
        /// Instruction index.
        pc: u32,
        /// Cycle counter after retirement.
        cycle: u64,
    },
    /// A source-operand interlock stalled issue (load-use delay or
    /// multiplier latency).
    Stall {
        /// Stalled instruction index.
        pc: u32,
        /// Cycles lost to the stall.
        cycles: u32,
        /// Cycle counter after the stall resolved.
        cycle: u64,
    },
    /// A taken branch/jump/call/return paid the pipeline refill
    /// penalty.
    TakenBranch {
        /// Branch instruction index.
        pc: u32,
        /// Destination instruction index.
        target: u32,
        /// Refill cycles charged.
        penalty: u32,
        /// Cycle counter after the penalty.
        cycle: u64,
    },
    /// A cache access. Misses allocate (fill) the line, so `hit ==
    /// false` is also the fill event.
    Cache {
        /// Instruction or data side.
        side: CacheSide,
        /// Byte address accessed.
        addr: u64,
        /// Whether the access hit.
        hit: bool,
        /// Cycle counter after any miss penalty.
        cycle: u64,
    },
    /// A custom (TIE) instruction was dispatched to its datapath.
    Custom {
        /// Instruction index.
        pc: u32,
        /// The custom instruction's registered name.
        name: N,
        /// Its registered latency.
        latency: u32,
        /// Cycle counter at dispatch.
        cycle: u64,
    },
    /// Control entered a function: an executed `call`, or the synthetic
    /// frame the executor opens for the run entry point.
    Call {
        /// Call-site instruction index (entry frames use the entry pc).
        pc: u32,
        /// Callee label (`<anon>` for unlabeled targets).
        callee: N,
        /// Cycle counter at entry.
        cycle: u64,
    },
    /// Control left a function: an executed `ret`, or the synthetic
    /// close of the run-entry frame at halt.
    Ret {
        /// Return instruction index.
        pc: u32,
        /// Cycle counter at exit.
        cycle: u64,
    },
}

impl<N> TraceEvent<N> {
    /// The event's cycle stamp.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Retire { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::TakenBranch { cycle, .. }
            | TraceEvent::Cache { cycle, .. }
            | TraceEvent::Custom { cycle, .. }
            | TraceEvent::Call { cycle, .. }
            | TraceEvent::Ret { cycle, .. } => cycle,
        }
    }

    /// The same event with its name (`Custom::name` or `Call::callee`)
    /// passed through `f`: `String::as_str` borrows a recorded event
    /// back for a sink, `|&n| n.to_owned()` records a borrowed one.
    pub fn map_names<'s, M>(&'s self, f: impl FnOnce(&'s N) -> M) -> TraceEvent<M> {
        match *self {
            TraceEvent::Retire { pc, cycle } => TraceEvent::Retire { pc, cycle },
            TraceEvent::Stall { pc, cycles, cycle } => TraceEvent::Stall { pc, cycles, cycle },
            TraceEvent::TakenBranch {
                pc,
                target,
                penalty,
                cycle,
            } => TraceEvent::TakenBranch {
                pc,
                target,
                penalty,
                cycle,
            },
            TraceEvent::Cache {
                side,
                addr,
                hit,
                cycle,
            } => TraceEvent::Cache {
                side,
                addr,
                hit,
                cycle,
            },
            TraceEvent::Custom {
                pc,
                ref name,
                latency,
                cycle,
            } => TraceEvent::Custom {
                pc,
                name: f(name),
                latency,
                cycle,
            },
            TraceEvent::Call {
                pc,
                ref callee,
                cycle,
            } => TraceEvent::Call {
                pc,
                callee: f(callee),
                cycle,
            },
            TraceEvent::Ret { pc, cycle } => TraceEvent::Ret { pc, cycle },
        }
    }
}

/// Receiver of simulator events.
///
/// Implementations must be cheap: the executor calls
/// [`TraceSink::on_event`] from the interpreter hot loop whenever a
/// sink is attached.
pub trait TraceSink {
    /// Handles one event.
    fn on_event(&mut self, ev: &TraceEvent<&str>);

    /// Flushes any buffered output (binary writers). Default: no-op.
    fn flush(&mut self) {}
}

/// A sink that records every event in memory (tests, small traces).
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent<String>>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[TraceEvent<String>] {
        &self.events
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent<String>> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn on_event(&mut self, ev: &TraceEvent<&str>) {
        self.events.push(ev.map_names(|&n| n.to_owned()));
    }
}

/// A shared handle to a sink, for components that take ownership of
/// their sink (e.g. `secproc::IssMpn::set_trace_sink`) while the caller
/// keeps access to the accumulated state.
///
/// `Shared` is `Rc`-based and therefore confined to one thread: it is
/// deliberately `!Send`, so handing a traced component to an
/// `xpar::Pool` worker is a compile error rather than a data race.
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use xobs::trace::{Shared, TraceSink, TraceEvent, VecSink};
///
/// let inner = Rc::new(RefCell::new(VecSink::new()));
/// let mut handle: Box<dyn TraceSink> = Box::new(Shared::new(inner.clone()));
/// handle.on_event(&TraceEvent::Retire { pc: 0, cycle: 1 });
/// assert_eq!(inner.borrow().events().len(), 1);
/// ```
///
/// The thread-confinement is compiler-enforced:
///
/// ```compile_fail
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use xobs::trace::{Shared, VecSink};
///
/// let handle = Shared::new(Rc::new(RefCell::new(VecSink::new())));
/// std::thread::spawn(move || drop(handle)); // `Rc` is !Send
/// ```
pub struct Shared<S: TraceSink>(Rc<RefCell<S>>);

impl<S: TraceSink> Shared<S> {
    /// Wraps a shared sink.
    pub fn new(inner: Rc<RefCell<S>>) -> Self {
        Shared(inner)
    }
}

impl<S: TraceSink> TraceSink for Shared<S> {
    fn on_event(&mut self, ev: &TraceEvent<&str>) {
        self.0.borrow_mut().on_event(ev);
    }

    fn flush(&mut self) {
        self.0.borrow_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(pc: u32, cycle: u64) -> TraceEvent<&'static str> {
        TraceEvent::Retire { pc, cycle }
    }

    #[test]
    fn owned_round_trip_preserves_event() {
        let events = [
            retire(0, 1),
            TraceEvent::Stall {
                pc: 1,
                cycles: 2,
                cycle: 4,
            },
            TraceEvent::TakenBranch {
                pc: 2,
                target: 0,
                penalty: 2,
                cycle: 7,
            },
            TraceEvent::Cache {
                side: CacheSide::Data,
                addr: 0x104,
                hit: false,
                cycle: 27,
            },
            TraceEvent::Custom {
                pc: 3,
                name: "sbox8",
                latency: 1,
                cycle: 28,
            },
            TraceEvent::Call {
                pc: 4,
                callee: "feistel",
                cycle: 99,
            },
            TraceEvent::Ret { pc: 5, cycle: 120 },
        ];
        for ev in events {
            let owned: TraceEvent<String> = ev.map_names(|&n| n.to_owned());
            assert_eq!(owned.map_names(String::as_str), ev);
        }
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.on_event(&retire(0, 1));
        s.on_event(&retire(1, 2));
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[1].cycle(), 2);
    }
}
