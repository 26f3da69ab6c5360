//! Execution traces: an ordered record of what happened in a run.
//!
//! The paper's proofs constantly compare executions ("identical until
//! process P decides", "no process can distinguish E from E′ before
//! time τ"). [`Trace`] makes such comparisons executable: it is a
//! [`Probe`] — build with `SimBuilder::new(params).build_with_probe(nodes,
//! Trace::new())` and read `sim.probe()` — recording starts, deliveries,
//! timer fires and decisions per process, and
//! [`Trace::indistinguishable_for`] checks
//! whether a process observed the same prefix in two runs — the formal
//! heart of the merge arguments.

use std::fmt;

use validity_core::ProcessId;

use crate::probe::Probe;
use crate::time::Time;

/// One observable event from a process's point of view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// The process started.
    Started {
        /// When.
        at: Time,
    },
    /// The process received a message (rendered for comparison).
    Delivered {
        /// When.
        at: Time,
        /// The sender.
        from: ProcessId,
        /// `Debug` rendering of the message.
        message: String,
    },
    /// A local timer fired.
    TimerFired {
        /// When.
        at: Time,
        /// The timer tag.
        tag: u64,
    },
    /// The process decided (rendered).
    Decided {
        /// When.
        at: Time,
        /// `Debug` rendering of the output.
        output: String,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Started { at }
            | TraceEvent::Delivered { at, .. }
            | TraceEvent::TimerFired { at, .. }
            | TraceEvent::Decided { at, .. } => *at,
        }
    }

    /// The event with its timestamp erased — local *content* only.
    ///
    /// Indistinguishability in the paper's sense is about what a process
    /// observes (message contents and their order), not about wall-clock
    /// instants, which the adversary controls anyway.
    pub fn content(&self) -> String {
        match self {
            TraceEvent::Started { .. } => "started".to_string(),
            TraceEvent::Delivered { from, message, .. } => format!("recv {from}: {message}"),
            TraceEvent::TimerFired { tag, .. } => format!("timer {tag}"),
            TraceEvent::Decided { output, .. } => format!("decided {output}"),
        }
    }
}

/// A per-process log of observable events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<(ProcessId, TraceEvent)>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn record(&mut self, process: ProcessId, event: TraceEvent) {
        self.events.push((process, event));
    }

    /// All events, in global order.
    pub fn events(&self) -> &[(ProcessId, TraceEvent)] {
        &self.events
    }

    /// The events observed by one process, in order.
    pub fn view_of(&self, process: ProcessId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|(p, _)| *p == process)
            .map(|(_, e)| e)
            .collect()
    }

    /// Whether `process` observes the same *content prefix* in both traces
    /// up to (exclusive) its `limit`-th event — the "cannot distinguish E
    /// from E′" relation of the merge constructions.
    pub fn indistinguishable_for(&self, other: &Trace, process: ProcessId, limit: usize) -> bool {
        let a = self.view_of(process);
        let b = other.view_of(process);
        let k = limit.min(a.len()).min(b.len());
        if limit > a.len() && limit > b.len() && a.len() != b.len() {
            return false;
        }
        (0..k).all(|i| a[i].content() == b[i].content())
    }

    /// The first decision recorded for `process`, if any.
    pub fn decision_of(&self, process: ProcessId) -> Option<(Time, String)> {
        self.view_of(process).into_iter().find_map(|e| match e {
            TraceEvent::Decided { at, output } => Some((*at, output.clone())),
            _ => None,
        })
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Trace capture is a probe, like every other instrument. Message and
/// output contents are rendered eagerly with `format!("{:?}")`: that
/// rendering is what [`Trace::indistinguishable_for`] compares.
impl Probe for Trace {
    fn on_start(&mut self, at: Time, node: ProcessId) {
        self.record(node, TraceEvent::Started { at });
    }

    fn on_deliver(&mut self, at: Time, node: ProcessId, from: ProcessId, message: &dyn fmt::Debug) {
        self.record(
            node,
            TraceEvent::Delivered {
                at,
                from,
                message: format!("{message:?}"),
            },
        );
    }

    fn on_timer_fire(&mut self, at: Time, node: ProcessId, tag: u64) {
        self.record(node, TraceEvent::TimerFired { at, tag });
    }

    fn on_decide(&mut self, at: Time, node: ProcessId, output: &dyn fmt::Debug) {
        self.record(
            node,
            TraceEvent::Decided {
                at,
                output: format!("{output:?}"),
            },
        );
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (p, e) in &self.events {
            writeln!(f, "[{:>8}] {p}: {}", e.at(), e.content())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(ProcessId(0), TraceEvent::Started { at: 0 });
        t.record(
            ProcessId(0),
            TraceEvent::Delivered {
                at: 5,
                from: ProcessId(1),
                message: "hello".into(),
            },
        );
        t.record(ProcessId(1), TraceEvent::Started { at: 0 });
        t.record(
            ProcessId(0),
            TraceEvent::Decided {
                at: 9,
                output: "42".into(),
            },
        );
        t
    }

    #[test]
    fn view_of_filters_by_process() {
        let t = sample();
        assert_eq!(t.view_of(ProcessId(0)).len(), 3);
        assert_eq!(t.view_of(ProcessId(1)).len(), 1);
        assert_eq!(t.view_of(ProcessId(2)).len(), 0);
    }

    #[test]
    fn decision_lookup() {
        let t = sample();
        assert_eq!(t.decision_of(ProcessId(0)), Some((9, "42".into())));
        assert_eq!(t.decision_of(ProcessId(1)), None);
    }

    #[test]
    fn indistinguishability_ignores_timing() {
        let a = sample();
        let mut b = Trace::new();
        // Same contents, different times — still indistinguishable.
        b.record(ProcessId(0), TraceEvent::Started { at: 100 });
        b.record(
            ProcessId(0),
            TraceEvent::Delivered {
                at: 700,
                from: ProcessId(1),
                message: "hello".into(),
            },
        );
        b.record(
            ProcessId(0),
            TraceEvent::Decided {
                at: 900,
                output: "42".into(),
            },
        );
        assert!(a.indistinguishable_for(&b, ProcessId(0), 3));
    }

    #[test]
    fn indistinguishability_detects_divergence() {
        let a = sample();
        let mut b = Trace::new();
        b.record(ProcessId(0), TraceEvent::Started { at: 0 });
        b.record(
            ProcessId(0),
            TraceEvent::Delivered {
                at: 5,
                from: ProcessId(2), // different sender!
                message: "hello".into(),
            },
        );
        assert!(a.indistinguishable_for(&b, ProcessId(0), 1));
        assert!(!a.indistinguishable_for(&b, ProcessId(0), 2));
    }

    #[test]
    fn display_renders_one_line_per_event() {
        let t = sample();
        assert_eq!(t.to_string().lines().count(), t.len());
    }
}
