//! ISS event tracing: the [`TraceSink`] trait and in-memory sinks.
//!
//! The XR32 executor offers hook points (instruction retire, interlock
//! stalls, taken branches, cache accesses, custom-instruction dispatch,
//! call/return) behind an `Option<&mut dyn TraceSink>`: with no sink
//! attached the hot interpreter loop pays one predictable branch per
//! hook site, so tracing is zero-overhead-when-disabled in the sense
//! that matters (< 2 % on kernel throughput, pinned by the bench
//! harness).
//!
//! Events borrow label names from the running program
//! ([`TraceEvent`]); sinks that outlive the run own their copies
//! ([`OwnedEvent`]). The streaming binary format lives in
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
/// whole co-simulation sees a single non-decreasing timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent<'a> {
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
        name: &'a str,
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
        callee: &'a str,
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

impl TraceEvent<'_> {
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

    /// An owning copy of the event.
    pub fn to_owned_event(&self) -> OwnedEvent {
        match *self {
            TraceEvent::Retire { pc, cycle } => OwnedEvent::Retire { pc, cycle },
            TraceEvent::Stall { pc, cycles, cycle } => OwnedEvent::Stall { pc, cycles, cycle },
            TraceEvent::TakenBranch {
                pc,
                target,
                penalty,
                cycle,
            } => OwnedEvent::TakenBranch {
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
            } => OwnedEvent::Cache {
                side,
                addr,
                hit,
                cycle,
            },
            TraceEvent::Custom {
                pc,
                name,
                latency,
                cycle,
            } => OwnedEvent::Custom {
                pc,
                name: name.to_owned(),
                latency,
                cycle,
            },
            TraceEvent::Call { pc, callee, cycle } => OwnedEvent::Call {
                pc,
                callee: callee.to_owned(),
                cycle,
            },
            TraceEvent::Ret { pc, cycle } => OwnedEvent::Ret { pc, cycle },
        }
    }
}

/// An owning mirror of [`TraceEvent`] for sinks and trace files.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedEvent {
    /// See [`TraceEvent::Retire`].
    Retire {
        /// Instruction index.
        pc: u32,
        /// Cycle stamp.
        cycle: u64,
    },
    /// See [`TraceEvent::Stall`].
    Stall {
        /// Instruction index.
        pc: u32,
        /// Cycles lost.
        cycles: u32,
        /// Cycle stamp.
        cycle: u64,
    },
    /// See [`TraceEvent::TakenBranch`].
    TakenBranch {
        /// Branch instruction index.
        pc: u32,
        /// Destination instruction index.
        target: u32,
        /// Refill cycles charged.
        penalty: u32,
        /// Cycle stamp.
        cycle: u64,
    },
    /// See [`TraceEvent::Cache`].
    Cache {
        /// Instruction or data side.
        side: CacheSide,
        /// Byte address accessed.
        addr: u64,
        /// Whether the access hit.
        hit: bool,
        /// Cycle stamp.
        cycle: u64,
    },
    /// See [`TraceEvent::Custom`].
    Custom {
        /// Instruction index.
        pc: u32,
        /// Custom instruction name.
        name: String,
        /// Registered latency.
        latency: u32,
        /// Cycle stamp.
        cycle: u64,
    },
    /// See [`TraceEvent::Call`].
    Call {
        /// Call-site instruction index.
        pc: u32,
        /// Callee label.
        callee: String,
        /// Cycle stamp.
        cycle: u64,
    },
    /// See [`TraceEvent::Ret`].
    Ret {
        /// Return instruction index.
        pc: u32,
        /// Cycle stamp.
        cycle: u64,
    },
}

impl OwnedEvent {
    /// Borrows the event back as a [`TraceEvent`] (for replay into any
    /// sink).
    pub fn as_event(&self) -> TraceEvent<'_> {
        match self {
            OwnedEvent::Retire { pc, cycle } => TraceEvent::Retire {
                pc: *pc,
                cycle: *cycle,
            },
            OwnedEvent::Stall { pc, cycles, cycle } => TraceEvent::Stall {
                pc: *pc,
                cycles: *cycles,
                cycle: *cycle,
            },
            OwnedEvent::TakenBranch {
                pc,
                target,
                penalty,
                cycle,
            } => TraceEvent::TakenBranch {
                pc: *pc,
                target: *target,
                penalty: *penalty,
                cycle: *cycle,
            },
            OwnedEvent::Cache {
                side,
                addr,
                hit,
                cycle,
            } => TraceEvent::Cache {
                side: *side,
                addr: *addr,
                hit: *hit,
                cycle: *cycle,
            },
            OwnedEvent::Custom {
                pc,
                name,
                latency,
                cycle,
            } => TraceEvent::Custom {
                pc: *pc,
                name,
                latency: *latency,
                cycle: *cycle,
            },
            OwnedEvent::Call { pc, callee, cycle } => TraceEvent::Call {
                pc: *pc,
                callee,
                cycle: *cycle,
            },
            OwnedEvent::Ret { pc, cycle } => TraceEvent::Ret {
                pc: *pc,
                cycle: *cycle,
            },
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
    fn on_event(&mut self, ev: &TraceEvent<'_>);

    /// Flushes any buffered output (binary writers). Default: no-op.
    fn flush(&mut self) {}
}

/// A sink that records every event in memory (tests, small traces).
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<OwnedEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[OwnedEvent] {
        &self.events
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<OwnedEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn on_event(&mut self, ev: &TraceEvent<'_>) {
        self.events.push(ev.to_owned_event());
    }
}

/// Fans one event stream out to several sinks.
#[derive(Default)]
pub struct TeeSink<'s> {
    sinks: Vec<&'s mut dyn TraceSink>,
}

impl<'s> TeeSink<'s> {
    /// Builds a tee over the given sinks.
    pub fn new(sinks: Vec<&'s mut dyn TraceSink>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink<'_> {
    fn on_event(&mut self, ev: &TraceEvent<'_>) {
        for s in &mut self.sinks {
            s.on_event(ev);
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
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
    fn on_event(&mut self, ev: &TraceEvent<'_>) {
        self.0.borrow_mut().on_event(ev);
    }

    fn flush(&mut self) {
        self.0.borrow_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(pc: u32, cycle: u64) -> TraceEvent<'static> {
        TraceEvent::Retire { pc, cycle }
    }

    #[test]
    fn owned_round_trip_preserves_event() {
        let call = TraceEvent::Call {
            pc: 3,
            callee: "feistel",
            cycle: 99,
        };
        assert_eq!(call.to_owned_event().as_event(), call);
        let cache = TraceEvent::Cache {
            side: CacheSide::Data,
            addr: 0x104,
            hit: false,
            cycle: 7,
        };
        assert_eq!(cache.to_owned_event().as_event(), cache);
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.on_event(&retire(0, 1));
        s.on_event(&retire(1, 2));
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[1].as_event().cycle(), 2);
    }

    #[test]
    fn tee_duplicates_events() {
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        {
            let mut tee = TeeSink::new(vec![&mut a, &mut b]);
            tee.on_event(&retire(0, 5));
        }
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
    }
}
