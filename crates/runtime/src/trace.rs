//! The event-trace layer: sinks consuming [`TraceSpan`] records.
//!
//! Every scheduler (the four baselines and the Laminar driver) and the
//! rollout engine can emit phase spans — `Prefill`, `DecodeStep`, `EnvCall`,
//! `WeightSync`, `TrainStep`, `Stall`, `Repack`, `Failure` — each carrying a
//! virtual-time window, the replica it ran on, and the weight version in
//! effect. A [`TraceSink`] decides what happens to them: [`NullTrace`] drops
//! everything at zero cost (the default for every `RlSystem::run`), while
//! [`RecordingTrace`] keeps them for inspection or JSONL export
//! (`laminar-experiments --trace <path>`).

pub use laminar_sim::trace::{SpanKind, TraceSpan};

/// Consumes trace spans emitted by a running system.
pub trait TraceSink {
    /// Records one span.
    fn record(&mut self, span: TraceSpan);

    /// Whether span production is worth the bookkeeping. Emitters may skip
    /// building spans entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records a batch of spans (drained from an engine buffer).
    fn record_all(&mut self, spans: Vec<TraceSpan>) {
        for s in spans {
            self.record(s);
        }
    }
}

/// The no-op sink: spans are dropped and emitters are told not to bother.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    fn record(&mut self, _span: TraceSpan) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// A sink that keeps every span in order of arrival.
#[derive(Debug, Clone, Default)]
pub struct RecordingTrace {
    spans: Vec<TraceSpan>,
}

impl RecordingTrace {
    /// An empty recording sink.
    pub fn new() -> Self {
        RecordingTrace::default()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Takes the recorded spans, leaving the sink empty.
    pub fn take(&mut self) -> Vec<TraceSpan> {
        std::mem::take(&mut self.spans)
    }

    /// Spans of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> Vec<TraceSpan> {
        self.spans
            .iter()
            .copied()
            .filter(|s| s.kind == kind)
            .collect()
    }

    /// The whole trace as JSONL (one span object per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        self.write_jsonl_into(&mut out);
        out
    }

    /// Streams the trace as JSONL into an existing buffer: every span is
    /// serialized in place through [`TraceSpan::write_json`], so a caller
    /// reusing one `String` across runs performs no per-span allocation.
    pub fn write_jsonl_into(&self, out: &mut String) {
        for s in &self.spans {
            s.write_json(out)
                .expect("fmt::Write on String is infallible");
            out.push('\n');
        }
    }

    /// Writes the trace as JSONL, appending to `path` so one invocation can
    /// accumulate spans across several system runs. Spans stream through one
    /// bounded chunk buffer rather than materializing the full trace in
    /// memory.
    pub fn append_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        // Flush at a chunk boundary well below the reserve so a full chunk
        // plus one worst-case line (~160 bytes) never reallocates.
        const CHUNK: usize = 1 << 16;
        let mut buf = String::with_capacity(CHUNK + 256);
        for s in &self.spans {
            s.write_json(&mut buf)
                .expect("fmt::Write on String is infallible");
            buf.push('\n');
            if buf.len() >= CHUNK {
                f.write_all(buf.as_bytes())?;
                buf.clear();
            }
        }
        f.write_all(buf.as_bytes())
    }
}

impl TraceSink for RecordingTrace {
    fn record(&mut self, span: TraceSpan) {
        self.spans.push(span);
    }

    fn record_all(&mut self, mut spans: Vec<TraceSpan>) {
        if self.spans.is_empty() {
            // Adopt the batch's storage outright instead of copying.
            self.spans = spans;
        } else {
            self.spans.append(&mut spans);
        }
    }
}

/// Longest stretch of a line [`first_line_difference`] quotes, in
/// characters.
const QUOTE_CHARS: usize = 160;

/// Names where two texts (report renders, JSONL traces) first differ:
/// `None` when they are byte-identical, otherwise the 1-based number of
/// the first differing line and both versions of it, each cut to 160
/// characters. When one text is a prefix of the other, the first extra
/// line is named and the shorter side reads `(end of text)`.
pub fn first_line_difference(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    // A final newline on both sides ends the last line rather than
    // starting an empty one.
    let (a, b) = match (a.strip_suffix('\n'), b.strip_suffix('\n')) {
        (Some(a), Some(b)) => (a, b),
        _ => (a, b),
    };
    let (mut left, mut right) = (a.split('\n'), b.split('\n'));
    let mut line = 0usize;
    loop {
        line += 1;
        match (left.next(), right.next()) {
            (Some(x), Some(y)) if x == y => {}
            (None, None) => unreachable!("unequal texts split into unequal lines"),
            (x, y) => return Some(format!("line {line}: {} vs {}", quote(x), quote(y))),
        }
    }
}

/// One side of a [`first_line_difference`] verdict.
fn quote(line: Option<&str>) -> String {
    match line {
        None => "(end of text)".to_string(),
        Some(l) => match l.char_indices().nth(QUOTE_CHARS) {
            Some((cut, _)) => format!("`{}…`", &l[..cut]),
            None => format!("`{l}`"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_sim::Time;

    #[test]
    fn null_trace_reports_disabled() {
        let mut t = NullTrace;
        assert!(!t.enabled());
        t.record(TraceSpan::new(
            SpanKind::Stall,
            Time::ZERO,
            Time::ZERO,
            None,
            0,
        ));
    }

    #[test]
    fn recording_trace_keeps_order_and_filters() {
        let mut t = RecordingTrace::new();
        t.record(TraceSpan::new(
            SpanKind::Prefill,
            Time::ZERO,
            Time::from_secs(1),
            Some(0),
            1,
        ));
        t.record(TraceSpan::new(
            SpanKind::TrainStep,
            Time::from_secs(1),
            Time::from_secs(2),
            None,
            1,
        ));
        assert!(t.enabled());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.of_kind(SpanKind::Prefill).len(), 1);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn record_all_drains_batch() {
        let mut t = RecordingTrace::new();
        let spans = vec![
            TraceSpan::new(
                SpanKind::DecodeStep,
                Time::ZERO,
                Time::from_secs(1),
                Some(2),
                4,
            ),
            TraceSpan::new(
                SpanKind::EnvCall,
                Time::from_secs(1),
                Time::from_secs(3),
                Some(2),
                4,
            ),
        ];
        t.record_all(spans);
        assert_eq!(t.take().len(), 2);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn equal_texts_have_no_difference() {
        assert_eq!(first_line_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_line_difference("", ""), None);
    }

    #[test]
    fn difference_names_the_first_differing_middle_line() {
        assert_eq!(
            first_line_difference("a\nb\nc\nd\n", "a\nB\nc\nD\n").as_deref(),
            Some("line 2: `b` vs `B`")
        );
        // Long lines are quoted up to 160 characters.
        let (x, y) = ("x".repeat(500), format!("{}y", "x".repeat(499)));
        let d = first_line_difference(&x, &y).expect("texts differ");
        assert_eq!(d, format!("line 1: `{0}…` vs `{0}…`", "x".repeat(160)));
    }

    #[test]
    fn difference_names_the_first_extra_line_of_a_longer_text() {
        assert_eq!(
            first_line_difference("a\nb\n", "a\nb\nc\nd\n").as_deref(),
            Some("line 3: (end of text) vs `c`")
        );
        assert_eq!(
            first_line_difference("a\nb\nc", "a\nb").as_deref(),
            Some("line 3: `c` vs (end of text)")
        );
    }
}
