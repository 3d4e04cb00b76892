//! Causal tracing: follow *one tone* through the whole pipeline.
//!
//! The metrics registry answers "how many / how fast on aggregate"; this
//! module answers "what happened to *this* tone". A [`TraceId`] is minted
//! when a tone emission is scheduled and propagated through every hop the
//! tone's evidence takes: scheduling, scene emission, capture-window
//! close, detection, controller decode — or, for a tone that was never
//! heard, the `missed` → health-penalty → replan chain an evacuation is
//! built from. Each hop records a [`TraceSpan`] carrying the hop's
//! *simulated-time* bounds (deterministic — bit-identical across thread
//! counts, like everything else in the pipeline) plus its *wall-clock*
//! cost (diagnostic only, explicitly excluded from the determinism
//! contract; see [`TraceSpan::deterministic_view`]).
//!
//! Spans land in a [`TraceSink`]: a bounded ring with a drop counter,
//! mirroring [`Journal`](crate::journal::Journal)'s inert-by-default
//! handle pattern — a disabled sink costs one branch per hop, safe to
//! leave wired through `std::thread::scope` hot paths. The retained tail
//! exports as Chrome trace-event JSON ([`TraceSink::to_chrome_json`]),
//! loadable in Perfetto / `chrome://tracing`, with one async
//! begin/end pair per span keyed by the trace id so concurrent tones
//! from different cells do not mis-nest.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A deterministic causal trace identifier for one scheduled tone.
///
/// Derived from `(cell, switch, seq)` with a splitmix64-style mixer — no
/// clock, no randomness — so the same scenario yields the same ids no
/// matter how many worker threads ran it, and a trace can be re-derived
/// from the schedule alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mint the id for the `seq`-th scheduled emission of switch
    /// `switch` in cell `cell`. Pure function of its inputs; never zero.
    pub fn derive(cell: u64, switch: u64, seq: u64) -> Self {
        let mut z = cell.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ switch.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ seq.wrapping_mul(0x94D0_49BB_1331_11EB)
            ^ 0xD6E8_FEB8_6659_FD93;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self(z | 1)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// The typed hops a tone's evidence takes through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Queue wait: from the schedule call to the emission firing.
    Schedule,
    /// Air time: the tone's signal playing in the scene.
    Emit,
    /// Window-close lag: from the end of the tone's signal to the
    /// capture-window boundary that makes it observable.
    WindowClose,
    /// Detect compute: the sharded capture + decode of the tone's window
    /// (wall cost is the whole window's listen, shared by its tones).
    Detect,
    /// The controller attributed a decoded event to the tone's device.
    Decode,
    /// Negative evidence: the tone was scheduled but never heard — the
    /// auto-close recorded at the expected-device ledger sweep.
    Missed,
    /// The miss was folded into the device's acoustic health score.
    HealthPenalty,
    /// The accumulated misses evacuated the tone's cell: live re-plan.
    Replan,
}

impl SpanKind {
    /// The span's wire name (`"schedule"`, `"emit"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Schedule => "schedule",
            SpanKind::Emit => "emit",
            SpanKind::WindowClose => "window_close",
            SpanKind::Detect => "detect",
            SpanKind::Decode => "decode",
            SpanKind::Missed => "missed",
            SpanKind::HealthPenalty => "health_penalty",
            SpanKind::Replan => "replan",
        }
    }
}

/// One recorded hop of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The tone this hop belongs to.
    pub trace: TraceId,
    /// Which pipeline hop this is.
    pub kind: SpanKind,
    /// Simulated-time start of the hop (deterministic).
    pub from: Duration,
    /// Simulated-time end of the hop (deterministic, `>= from`).
    pub to: Duration,
    /// Wall-clock cost of the hop in nanoseconds. Diagnostic only: wall
    /// time is **not** part of the determinism contract and differs run
    /// to run and thread count to thread count.
    pub wall_ns: u64,
    /// The acoustic cell the hop ran in (`usize::MAX` when unattributed).
    pub cell: usize,
    /// Free-form detail: the device name, decode/miss context, etc.
    pub detail: String,
}

impl TraceSpan {
    /// The span with its wall-clock field zeroed — everything that *is*
    /// covered by the determinism contract. Two runs of the same scenario
    /// (any thread counts) produce identical sequences of these.
    pub fn deterministic_view(&self) -> TraceSpan {
        TraceSpan {
            wall_ns: 0,
            ..self.clone()
        }
    }
}

#[derive(Debug)]
struct SinkState {
    ring: VecDeque<TraceSpan>,
    /// Index of the first retained span in the all-time sequence.
    first_index: u64,
    dropped: u64,
}

#[derive(Debug)]
struct SinkInner {
    state: Mutex<SinkState>,
    capacity: usize,
}

/// A bounded, shareable span sink. Cloning is a cheap `Arc` clone; the
/// default value is a disabled (no-op) sink, so instrumented code can
/// hold one unconditionally.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Arc<SinkInner>>);

impl TraceSink {
    /// A sink keeping the last `capacity` spans (capacity 0 keeps none
    /// but still counts drops).
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Some(Arc::new(SinkInner {
            state: Mutex::new(SinkState {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                first_index: 0,
                dropped: 0,
            }),
            capacity,
        })))
    }

    /// A sink that ignores every span — what disabled registries hand
    /// out, so un-traced runs pay one branch per hop.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// Is this a live sink?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Append a span, evicting the oldest if the ring is full.
    pub fn record(&self, span: TraceSpan) {
        let Some(inner) = &self.0 else { return };
        let mut state = inner.state.lock().unwrap();
        if inner.capacity == 0 {
            state.dropped += 1;
            state.first_index += 1;
            return;
        }
        if state.ring.len() == inner.capacity {
            state.ring.pop_front();
            state.dropped += 1;
            state.first_index += 1;
        }
        state.ring.push_back(span);
    }

    /// The retained spans, oldest first (empty when disabled).
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.state.lock().unwrap().ring.iter().cloned().collect()
        })
    }

    /// Retained spans whose all-time index is `>= since`, plus the
    /// cursor to pass as the next `since` — the `/trace?since=` contract.
    /// A `since` older than the retained tail silently returns from the
    /// oldest retained span (the gap is visible in [`TraceSink::dropped`]).
    pub fn spans_since(&self, since: u64) -> (u64, Vec<TraceSpan>) {
        let Some(inner) = &self.0 else {
            return (0, Vec::new());
        };
        let state = inner.state.lock().unwrap();
        let next = state.first_index + state.ring.len() as u64;
        let skip = since.saturating_sub(state.first_index) as usize;
        let spans = state.ring.iter().skip(skip).cloned().collect();
        (next, spans)
    }

    /// Every span of one trace, in record order (scans the retained
    /// tail).
    pub fn for_trace(&self, id: TraceId) -> Vec<TraceSpan> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .state
                .lock()
                .unwrap()
                .ring
                .iter()
                .filter(|s| s.trace == id)
                .cloned()
                .collect()
        })
    }

    /// Spans evicted from the ring (or rejected at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.state.lock().unwrap().dropped)
    }

    /// Spans ever recorded (retained + dropped).
    pub fn total(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| {
            let state = inner.state.lock().unwrap();
            state.first_index + state.ring.len() as u64
        })
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.state.lock().unwrap().ring.len())
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained tail as Chrome trace-event JSON (see
    /// [`chrome_trace_json`]).
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.spans())
    }
}

/// Escape a string for a JSON string literal (quotes not included).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render spans in the Chrome trace-event format (the JSON-object form,
/// loadable by Perfetto and `chrome://tracing`).
///
/// Each span becomes one **matched async begin/end pair** (`"ph": "b"` /
/// `"ph": "e"`) keyed by the trace id, so every tone renders as its own
/// track of hops and overlapping tones from different cells cannot
/// mis-nest the way synchronous `B`/`E` stack events would. Timestamps
/// are the span's *simulated-time* bounds in microseconds; the wall-clock
/// cost rides along in `args.wall_ns`.
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    let mut first = true;
    for s in spans {
        let ts = s.from.as_secs_f64() * 1e6;
        let te = s.to.as_secs_f64() * 1e6;
        let tid = if s.cell == usize::MAX { 0 } else { s.cell + 1 };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n  {{\"name\": \"{}\", \"cat\": \"mdn\", \"ph\": \"b\", \"id\": \"{}\", \
             \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \
             \"args\": {{\"detail\": \"{}\", \"wall_ns\": {}}}}},",
            s.kind.name(),
            s.trace,
            esc(&s.detail),
            s.wall_ns,
        );
        let _ = write!(
            out,
            "\n  {{\"name\": \"{}\", \"cat\": \"mdn\", \"ph\": \"e\", \"id\": \"{}\", \
             \"pid\": 1, \"tid\": {tid}, \"ts\": {te}}}",
            s.kind.name(),
            s.trace,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, kind: SpanKind, from_ms: u64, to_ms: u64) -> TraceSpan {
        TraceSpan {
            trace: TraceId(trace),
            kind,
            from: Duration::from_millis(from_ms),
            to: Duration::from_millis(to_ms),
            wall_ns: 42,
            cell: 0,
            detail: "c0-s0".into(),
        }
    }

    #[test]
    fn trace_id_is_deterministic_and_distinct() {
        let a = TraceId::derive(0, 0, 0);
        assert_eq!(a, TraceId::derive(0, 0, 0));
        // Neighbouring coordinates must not collide.
        let mut seen = std::collections::BTreeSet::new();
        for cell in 0..8u64 {
            for sw in 0..8u64 {
                for seq in 0..8u64 {
                    assert!(seen.insert(TraceId::derive(cell, sw, seq)));
                }
            }
        }
        assert_ne!(a.0, 0, "ids are never zero");
    }

    #[test]
    fn ring_keeps_newest_counts_drops_and_cursors() {
        let sink = TraceSink::with_capacity(3);
        for i in 0..5u64 {
            sink.record(span(i, SpanKind::Schedule, i, i + 1));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.total(), 5);
        let ids: Vec<u64> = sink.spans().iter().map(|s| s.trace.0).collect();
        assert_eq!(ids, [2, 3, 4]);
        // Cursor semantics: since=4 returns only the newest span; the
        // returned cursor re-fetches nothing until new spans arrive.
        let (next, tail) = sink.spans_since(4);
        assert_eq!(next, 5);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].trace.0, 4);
        let (_, empty) = sink.spans_since(next);
        assert!(empty.is_empty());
        // A cursor older than the retained tail clamps to the tail.
        let (_, clamped) = sink.spans_since(0);
        assert_eq!(clamped.len(), 3);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        sink.record(span(1, SpanKind::Emit, 0, 1));
        assert!(sink.spans().is_empty());
        assert_eq!(sink.dropped(), 0);
        assert!(!sink.is_enabled());
        assert_eq!(sink.spans_since(0), (0, Vec::new()));
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let sink = TraceSink::with_capacity(0);
        sink.record(span(1, SpanKind::Emit, 0, 1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.total(), 1);
    }

    #[test]
    fn for_trace_filters_and_preserves_order() {
        let sink = TraceSink::with_capacity(16);
        sink.record(span(7, SpanKind::Schedule, 0, 10));
        sink.record(span(9, SpanKind::Schedule, 0, 10));
        sink.record(span(7, SpanKind::Emit, 10, 20));
        let spans = sink.for_trace(TraceId(7));
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Schedule, SpanKind::Emit]);
    }

    #[test]
    fn deterministic_view_zeroes_wall_only() {
        let s = span(7, SpanKind::Detect, 0, 300);
        let v = s.deterministic_view();
        assert_eq!(v.wall_ns, 0);
        assert_eq!(
            (v.trace, v.kind, v.from, v.to, v.cell),
            (s.trace, s.kind, s.from, s.to, s.cell)
        );
        assert_eq!(v.detail, s.detail);
    }

    #[test]
    fn chrome_json_emits_matched_pairs() {
        let sink = TraceSink::with_capacity(8);
        sink.record(span(7, SpanKind::Schedule, 0, 100));
        sink.record(span(7, SpanKind::Emit, 100, 250));
        let json = sink.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\": \"b\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"e\"").count(), 2);
        assert!(json.contains("\"name\": \"schedule\""));
        assert!(json.contains("\"wall_ns\": 42"));
        // Simulated time in microseconds.
        assert!(json.contains("\"ts\": 100000"), "{json}");
        // Detail strings are escaped.
        let tricky = TraceSpan {
            detail: "a\"b\\c".into(),
            ..span(8, SpanKind::Missed, 0, 1)
        };
        let json = chrome_trace_json(&[tricky]);
        assert!(json.contains("a\\\"b\\\\c"));
    }
}
