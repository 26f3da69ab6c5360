//! In-memory spans for the traced run, their self-time arithmetic, and the
//! Chrome-trace export.
//!
//! A span is recorded at each layer boundary the harness crosses: name,
//! start, end, parent, and the cell it belongs to. Handler calls are far
//! too many to record one by one, so their times *fold* into one child
//! span per cell whose duration is the sum of the calls (with the call
//! count beside it). A layer's self time is its spans' durations minus what
//! their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use validity_lab::report::json_str;

/// "No cell": spans of the pipeline phases around the cells.
pub const NO_CELL: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `simnet.run`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End. For a folded span, `start + Σ call durations`.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Index of the cell (in matrix order) or [`NO_CELL`].
    pub cell: u32,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. A disabled log records nothing, so the same replay
/// code serves the traced pass and the counting pass.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cell: u32,
}

/// A handle to an open span.
#[must_use = "an opened span must be closed"]
pub struct Open(Option<u32>);

impl SpanLog {
    /// A recording log.
    pub fn recording() -> SpanLog {
        SpanLog {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: NO_CELL,
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::recording()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the cell subsequent spans belong to.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            cell: self.cell,
            calls: 1,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close innermost-first.
    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of its own (for boundaries whose inside
    /// records no further spans).
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Records `calls` calls totalling `busy_ns` as one folded child of
    /// the innermost open span. Nothing is recorded for zero calls.
    pub fn fold(&mut self, name: &'static str, busy_ns: u64, calls: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        let parent = *self.stack.last().expect("a folded span needs a parent");
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            cell: self.cell,
            calls,
        });
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
    }
}

/// A span name's totals over one traced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Σ over its spans of (duration − child coverage).
    pub self_ns: u64,
    /// Σ of the spans' durations.
    pub total_ns: u64,
    /// Spans recorded (folded spans count their calls).
    pub calls: u64,
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children (folded children included, at their summed
/// duration). Timer granularity can make children sum past their parent
/// by nanoseconds; self time saturates at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let e = out.entry(s.name).or_default();
        e.self_ns += s.duration_ns().saturating_sub(covered);
        e.total_ns += s.duration_ns();
        e.calls += s.calls;
    }
    out
}

/// Σ of the root spans' durations — by telescoping, also the sum of every
/// self time when no child overruns its parent.
pub fn root_coverage_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

/// Renders the spans in the Chrome trace-event format (load in
/// `chrome://tracing` or Perfetto). `cell_keys[i]` names cell `i`.
pub fn chrome_trace(spans: &[Span], cell_keys: &[String]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"calls\": {}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.calls,
        );
        if let Some(key) = cell_keys.get(s.cell as usize) {
            let _ = write!(out, ", \"cell\": {}", json_str(key));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        calls: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
            calls,
        }
    }

    /// cell [0,100) ⊃ setup [0,10), run [10,90) ⊃ folded handler (50 ns
    /// over 7 calls) and folded hook (5 ns, 2 calls); collect [90,98);
    /// then a root aggregate [100,120).
    fn tree() -> Vec<Span> {
        vec![
            span("lab.cell", 0, 100, None, 1),
            span("protocols.setup", 0, 10, Some(0), 1),
            span("simnet.run", 10, 90, Some(0), 1),
            span("protocols.handler", 10, 60, Some(2), 7),
            span("adversary.hook", 10, 15, Some(2), 2),
            span("lab.collect", 90, 98, Some(0), 1),
            span("lab.aggregate", 100, 120, None, 1),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let t = self_times(&tree());
        assert_eq!(t["lab.cell"].self_ns, 100 - 10 - 80 - 8);
        assert_eq!(t["simnet.run"].self_ns, 80 - 50 - 5);
        assert_eq!(t["simnet.run"].total_ns, 80);
        assert_eq!(t["protocols.handler"].self_ns, 50);
        assert_eq!(t["protocols.handler"].calls, 7);
        assert_eq!(t["adversary.hook"].calls, 2);
        assert_eq!(t["lab.aggregate"].self_ns, 20);
        // Self times telescope to the root coverage.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, root_coverage_ns(&tree()));
        assert_eq!(sum, 120);
    }

    #[test]
    fn same_name_spans_accumulate_and_overruns_saturate() {
        let mut spans = tree();
        // A second cell whose folded child overruns it by timer jitter.
        spans.push(span("lab.cell", 120, 130, None, 1));
        spans.push(span("simnet.run", 120, 131, Some(7), 1));
        let t = self_times(&spans);
        assert_eq!(t["lab.cell"].self_ns, 2); // first cell's 2, second saturates at 0
        assert_eq!(t["lab.cell"].calls, 2);
        assert_eq!(t["simnet.run"].self_ns, 25 + 11);
    }

    #[test]
    fn log_nests_folds_and_tags_cells() {
        let mut log = SpanLog::recording();
        log.set_cell(3);
        let cell = log.open("lab.cell");
        let run = log.open("simnet.run");
        log.fold("protocols.handler", 40, 4);
        log.fold("adversary.hook", 0, 0); // no calls: not recorded
        log.close(run);
        log.close(cell);
        log.set_cell(NO_CELL);
        assert_eq!(log.leaf("lab.aggregate", || 7), 7);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(
            (spans[2].duration_ns(), spans[2].calls, spans[2].cell),
            (40, 4, 3)
        );
        assert_eq!((spans[3].parent, spans[3].cell), (None, NO_CELL));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let json = chrome_trace(&spans, &["a".into(), "b".into(), "c".into(), "k\"3".into()]);
        let parsed = validity_lab::json::Json::parse(&json).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("cell"))
                .and_then(|c| c.as_str()),
            Some("k\"3")
        );
        assert!(events[3].get("args").unwrap().get("cell").is_none());
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let s = log.open("lab.cell");
        log.fold("protocols.handler", 10, 1);
        log.close(s);
        assert!(log.into_spans().is_empty());
    }
}
