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
//! Spans land in a [`TraceSink`]: the same bounded ring with a drop
//! counter that backs [`Journal`](crate::journal::Journal), inert by
//! default — a disabled sink costs one branch per hop, safe to leave
//! wired through `std::thread::scope` hot paths. The retained tail
//! exports as Chrome trace-event JSON ([`TraceSink::to_chrome_json`]),
//! loadable in Perfetto / `chrome://tracing`, with one async
//! begin/end pair per span keyed by the trace id so concurrent tones
//! from different cells do not mis-nest.

use crate::export::json_escape;
use crate::ring::Ring;
use std::fmt;
use std::fmt::Write as _;
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

/// A bounded, shareable span sink. Cloning is a cheap `Arc` clone; the
/// default value is a disabled (no-op) sink, so instrumented code can
/// hold one unconditionally.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Ring<TraceSpan>);

impl TraceSink {
    /// A sink keeping the last `capacity` spans (capacity 0 keeps none
    /// but still counts drops).
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Ring::with_capacity(capacity))
    }

    /// A sink that ignores every span — what disabled registries hand
    /// out, so un-traced runs pay one branch per hop.
    pub const fn disabled() -> Self {
        Self(Ring::disabled())
    }

    /// Is this a live sink?
    pub fn is_enabled(&self) -> bool {
        self.0.is_enabled()
    }

    /// Append a span, evicting the oldest if the ring is full.
    pub fn record(&self, span: TraceSpan) {
        self.0.push(span);
    }

    /// The retained spans, oldest first (empty when disabled).
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.0.items()
    }

    /// Retained spans whose all-time index is `>= since`, plus the
    /// cursor to pass as the next `since` — the `/trace?since=` contract.
    /// A `since` older than the retained tail silently returns from the
    /// oldest retained span (the gap is visible in [`TraceSink::dropped`]).
    pub fn spans_since(&self, since: u64) -> (u64, Vec<TraceSpan>) {
        self.0.since(since)
    }

    /// Spans evicted from the ring (or rejected at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.0.evicted()
    }

    /// Spans ever recorded (retained + dropped).
    pub fn total(&self) -> u64 {
        self.0.total()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.0.len()
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
            json_escape(&s.detail),
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

    /// The ring itself is tested in `ring.rs`; this checks the sink
    /// hands its spans to it and reads them back through the cursor.
    #[test]
    fn records_into_the_ring() {
        let sink = TraceSink::with_capacity(2);
        for i in 0..3u64 {
            sink.record(span(i, SpanKind::Schedule, i, i + 1));
        }
        let ids = |spans: Vec<TraceSpan>| spans.iter().map(|s| s.trace.0).collect::<Vec<_>>();
        assert_eq!(ids(sink.spans()), [1, 2]);
        let (next, tail) = sink.spans_since(2);
        assert_eq!((next, ids(tail)), (3, vec![2]));
        assert_eq!((sink.len(), sink.dropped(), sink.total()), (2, 1, 3));
        assert!(sink.is_enabled() && !sink.is_empty());
        assert!(!TraceSink::disabled().is_enabled());
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
