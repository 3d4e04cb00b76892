//! Exporters: Prometheus text-format dump and JSON snapshot.
//!
//! Both walk the registry's name table once, load each atomic with a
//! relaxed read, and render. Neither pauses writers — exports are
//! point-in-time and safe to take while detection workers run.
//!
//! The [`Snapshot`] is the machine-readable form (same spirit as the
//! `BENCH_*.json` summaries): flat maps keyed by the rendered sample name
//! (`name` or `name{k="v"}`), plus the journal tail. Counters and gauges
//! are deterministic for a deterministic scenario; histograms carry wall
//! time and are *not* — comparisons that need bit-exactness should stick
//! to [`Snapshot::counters`]. The JSON emitter is hand-rolled so this
//! crate stays dependency-free.

use crate::journal::JournalEvent;
use crate::registry::{bucket_upper_bound, Metric, MetricKey, Registry, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

/// Point-in-time values of one histogram (`Default`: an empty one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (0 if none).
    pub max: u64,
    /// Mean of recorded values (0.0 if none).
    pub mean: f64,
    /// Occupied log₂ buckets as `(inclusive_upper_bound, count)` pairs,
    /// ascending; empty buckets are omitted.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the log₂ bucket the target rank lands in.
    ///
    /// The true value's bucket is exact, so the estimate is off by at
    /// most the bucket width; the top occupied bucket's upper edge is
    /// clamped to the recorded [`max`](Self::max), which makes
    /// `quantile(1.0)` return `max` exactly. Returns 0.0 on an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0.0;
        for &(le, n) in &self.buckets {
            let next = cumulative + n as f64;
            if next >= rank {
                let lo = if le == 0 { 0 } else { le / 2 + 1 };
                let hi = le.min(self.max).max(lo);
                let frac = (rank - cumulative) / n as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
            cumulative = next;
        }
        self.max as f64
    }
}

/// A point-in-time JSON-serialisable view of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values keyed by rendered sample name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values keyed by rendered sample name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries keyed by rendered sample name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// The journal tail, oldest first.
    pub journal: Vec<JournalEvent>,
    /// Events evicted from the journal ring.
    pub journal_dropped: u64,
}

/// Escape a string for a JSON string literal (quotes not included).
pub(crate) fn json_escape(s: &str) -> String {
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

/// Render an `f64` as a JSON number (JSON has no NaN/Inf; clamp to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Serialise to pretty-printed JSON (two-space indent, stable key
    /// order — maps are `BTreeMap`s).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");

        out.push_str("  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json_escape(k), json_f64(*v));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(le, n)| format!("[{le}, {n}]"))
                .collect();
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {}, \"buckets\": [{}]}}",
                json_escape(k),
                h.count,
                h.sum,
                h.max,
                json_f64(h.mean),
                buckets.join(", ")
            );
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"journal\": [");
        first = true;
        for e in &self.journal {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"at_ms\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
                json_f64(e.at.as_secs_f64() * 1e3),
                json_escape(&e.kind),
                json_escape(&e.detail)
            );
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });

        let _ = write!(out, "  \"journal_dropped\": {}\n}}", self.journal_dropped);
        out
    }
}

impl Registry {
    /// Take a point-in-time [`Snapshot`] (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let mut snap = Snapshot {
            journal: inner.journal.events(),
            journal_dropped: inner.journal.dropped(),
            ..Snapshot::default()
        };
        // Ring overflow must be visible in scrapes, not just in-process:
        // surface both drop counters as synthetic counter samples.
        snap.counters.insert(
            "mdn_obs_journal_dropped_total".into(),
            inner.journal.dropped(),
        );
        snap.counters
            .insert("mdn_obs_trace_dropped_total".into(), inner.trace.dropped());
        let metrics = inner.metrics.lock().unwrap();
        for (key, metric) in metrics.iter() {
            let rendered = key.render();
            match metric {
                Metric::Counter(cell) => {
                    snap.counters.insert(rendered, cell.load(Ordering::Relaxed));
                }
                Metric::Gauge(cell) => {
                    snap.gauges
                        .insert(rendered, f64::from_bits(cell.load(Ordering::Relaxed)));
                }
                Metric::Histogram(cell) => {
                    let count = cell.count.load(Ordering::Relaxed);
                    let sum = cell.sum.load(Ordering::Relaxed);
                    let buckets: Vec<(u64, u64)> = (0..HISTOGRAM_BUCKETS)
                        .filter_map(|i| {
                            let n = cell.buckets[i].load(Ordering::Relaxed);
                            (n > 0).then(|| (bucket_upper_bound(i), n))
                        })
                        .collect();
                    snap.histograms.insert(
                        rendered,
                        HistogramSnapshot {
                            count,
                            sum,
                            max: cell.max.load(Ordering::Relaxed),
                            mean: if count == 0 {
                                0.0
                            } else {
                                sum as f64 / count as f64
                            },
                            buckets,
                        },
                    );
                }
            }
        }
        snap
    }

    /// Render the registry in the Prometheus text exposition format
    /// (empty string when disabled). Histograms emit cumulative
    /// `_bucket{le=...}` samples plus `_sum` and `_count`.
    pub fn prometheus(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let metrics = inner.metrics.lock().unwrap();
        let mut out = String::new();
        let mut last_family = None::<String>;
        for (key, metric) in metrics.iter() {
            let family = &key.name;
            if last_family.as_deref() != Some(family) {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = Some(family.clone());
            }
            match metric {
                Metric::Counter(cell) => {
                    let _ = writeln!(out, "{} {}", key.render(), cell.load(Ordering::Relaxed));
                }
                Metric::Gauge(cell) => {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        key.render(),
                        f64::from_bits(cell.load(Ordering::Relaxed))
                    );
                }
                Metric::Histogram(cell) => {
                    let mut cumulative = 0u64;
                    for i in 0..HISTOGRAM_BUCKETS {
                        let n = cell.buckets[i].load(Ordering::Relaxed);
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            render_with_extra_label(key, "_bucket", "le", &le_bound(i)),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {cumulative}",
                        render_with_extra_label(key, "_bucket", "le", "+Inf"),
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_suffixed(key, "_sum"),
                        cell.sum.load(Ordering::Relaxed)
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_suffixed(key, "_count"),
                        cell.count.load(Ordering::Relaxed)
                    );
                }
            }
        }
        let _ = writeln!(out, "# TYPE mdn_obs_journal_dropped_total counter");
        let _ = writeln!(
            out,
            "mdn_obs_journal_dropped_total {}",
            inner.journal.dropped()
        );
        let _ = writeln!(out, "# TYPE mdn_obs_trace_dropped_total counter");
        let _ = writeln!(out, "mdn_obs_trace_dropped_total {}", inner.trace.dropped());
        out
    }
}

fn le_bound(bucket: usize) -> String {
    if bucket >= 64 {
        "+Inf".to_string()
    } else {
        bucket_upper_bound(bucket).to_string()
    }
}

fn render_suffixed(key: &MetricKey, suffix: &str) -> String {
    let mut renamed = key.clone();
    renamed.name.push_str(suffix);
    renamed.render()
}

fn render_with_extra_label(key: &MetricKey, suffix: &str, k: &str, v: &str) -> String {
    let mut renamed = key.clone();
    renamed.name.push_str(suffix);
    renamed.labels.push((k.to_string(), v.to_string()));
    renamed.labels.sort();
    renamed.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden test: exact Prometheus text for a small fixed registry.
    #[test]
    fn prometheus_golden() {
        let reg = Registry::new();
        reg.counter("mdn_health_recoveries_total", &[]).add(2);
        reg.counter("mdn_channel_frames_total", &[("dir", "to_switch")])
            .add(7);
        reg.counter("mdn_channel_frames_total", &[("dir", "to_controller")])
            .add(3);
        reg.gauge("mdn_queue_high_water", &[("queue", "sw1")])
            .set(5.0);
        let h = reg.histogram("mdn_stage_ns", &[("stage", "detect")]);
        h.record(3); // bucket le=3
        h.record(3);
        h.record(900); // bucket le=1023
        let expected = "\
# TYPE mdn_channel_frames_total counter
mdn_channel_frames_total{dir=\"to_controller\"} 3
mdn_channel_frames_total{dir=\"to_switch\"} 7
# TYPE mdn_health_recoveries_total counter
mdn_health_recoveries_total 2
# TYPE mdn_queue_high_water gauge
mdn_queue_high_water{queue=\"sw1\"} 5
# TYPE mdn_stage_ns histogram
mdn_stage_ns_bucket{le=\"3\",stage=\"detect\"} 2
mdn_stage_ns_bucket{le=\"1023\",stage=\"detect\"} 3
mdn_stage_ns_bucket{le=\"+Inf\",stage=\"detect\"} 3
mdn_stage_ns_sum{stage=\"detect\"} 906
mdn_stage_ns_count{stage=\"detect\"} 3
# TYPE mdn_obs_journal_dropped_total counter
mdn_obs_journal_dropped_total 0
# TYPE mdn_obs_trace_dropped_total counter
mdn_obs_trace_dropped_total 0
";
        assert_eq!(reg.prometheus(), expected);
    }

    /// Golden test: exact JSON for a small fixed registry.
    #[test]
    fn json_golden() {
        let reg = Registry::new();
        reg.counter("a_total", &[]).inc();
        reg.gauge("b", &[]).set(1.5);
        let h = reg.histogram("c_ns", &[]);
        h.record(10);
        reg.journal()
            .record(std::time::Duration::from_secs(1), "k", "d\"x\"");
        let expected = "\
{
  \"counters\": {
    \"a_total\": 1,
    \"mdn_obs_journal_dropped_total\": 0,
    \"mdn_obs_trace_dropped_total\": 0
  },
  \"gauges\": {
    \"b\": 1.5
  },
  \"histograms\": {
    \"c_ns\": {\"count\": 1, \"sum\": 10, \"max\": 10, \"mean\": 10.0, \"buckets\": [[15, 1]]}
  },
  \"journal\": [
    {\"at_ms\": 1000.0, \"kind\": \"k\", \"detail\": \"d\\\"x\\\"\"}
  ],
  \"journal_dropped\": 0
}";
        assert_eq!(reg.snapshot().to_json(), expected);
    }

    #[test]
    fn histogram_snapshot_mean_and_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("v_ns", &[]);
        h.record(0);
        h.record(1);
        h.record(1000);
        let snap = reg.snapshot();
        let hs = &snap.histograms["v_ns"];
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 1001);
        assert_eq!(hs.max, 1000);
        assert!((hs.mean - 1001.0 / 3.0).abs() < 1e-9);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (1023, 1)]);
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn empty_registry_exports_empty_objects() {
        let reg = Registry::new();
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        // The synthetic drop counters are always present in scrapes.
        assert!(json.contains("\"mdn_obs_journal_dropped_total\": 0"));
        assert!(reg.prometheus().contains("mdn_obs_trace_dropped_total 0"));
        let disabled = Registry::disabled();
        assert_eq!(disabled.prometheus(), "");
        assert_eq!(disabled.snapshot(), Snapshot::default());
    }

    #[test]
    fn dropped_counters_track_ring_overflow() {
        let reg = Registry::with_journal_capacity(2);
        for i in 0..5 {
            reg.journal()
                .record(std::time::Duration::from_secs(i), "k", "d");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["mdn_obs_journal_dropped_total"], 3);
        assert_eq!(snap.journal_dropped, 3);
        assert!(reg.prometheus().contains("mdn_obs_journal_dropped_total 3"));

        let traced = Registry::with_trace(1);
        let sink = traced.trace();
        for seq in 0..4u64 {
            sink.record(crate::trace::TraceSpan {
                trace: crate::trace::TraceId::derive(0, 0, seq),
                kind: crate::trace::SpanKind::Schedule,
                from: std::time::Duration::ZERO,
                to: std::time::Duration::ZERO,
                wall_ns: 0,
                cell: 0,
                detail: String::new(),
            });
        }
        let snap = traced.snapshot();
        assert_eq!(snap.counters["mdn_obs_trace_dropped_total"], 3);
        assert!(traced
            .prometheus()
            .contains("mdn_obs_trace_dropped_total 3"));
    }

    /// Regression: quantile interpolation against exact hand-computed
    /// values on the uniform distribution 1..=1000.
    #[test]
    fn quantile_interpolates_log2_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("q_ns", &[]);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let hs = reg.snapshot().histograms["q_ns"].clone();
        // rank 500 lands in bucket [256, 511] after 255 earlier values:
        // 256 + (500-255)/256 * (511-256) = 500.04296875 exactly.
        assert_eq!(hs.quantile(0.5), 500.04296875);
        // The top bucket's edge clamps to max, so p100 is exact.
        assert_eq!(hs.quantile(1.0), 1000.0);
        // p0 returns the lower edge of the first occupied bucket.
        assert_eq!(hs.quantile(0.0), 1.0);
        // Out-of-range q clamps rather than extrapolating.
        assert_eq!(hs.quantile(2.0), 1000.0);
        // rank 990 lands in the top bucket [512, min(1023, 1000)]:
        // 512 + (990-511)/489 * (1000-512) = 990.0981595...
        assert!((hs.quantile(0.99) - (512.0 + 479.0 / 489.0 * 488.0)).abs() < 1e-9);

        // Degenerate cases.
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            mean: 0.0,
            buckets: vec![],
        };
        assert_eq!(empty.quantile(0.5), 0.0);
        let zeros = reg.histogram("z_ns", &[]);
        zeros.record(0);
        zeros.record(0);
        assert_eq!(reg.snapshot().histograms["z_ns"].quantile(0.9), 0.0);
    }

    /// Golden test: JSON string escaping for label values carrying
    /// quotes, backslashes and newlines (alongside the Prometheus
    /// golden, which only meets quotes/backslashes via `MetricKey`).
    #[test]
    fn json_escaping_golden() {
        let reg = Registry::new();
        reg.counter("weird_total", &[("path", "a\"b\\c\nd")]).inc();
        let json = reg.snapshot().to_json();
        // MetricKey::render escapes `\` and `"` for Prometheus, then
        // json_escape re-escapes those backslashes and the raw newline.
        let expected_key = "weird_total{path=\\\"a\\\\\\\"b\\\\\\\\c\\nd\\\"}";
        assert!(json.contains(expected_key), "{json}");
        // The emitted document must survive a JSON parse round-trip of
        // its counter key: unescape and compare.
        let line = json
            .lines()
            .find(|l| l.contains("weird_total"))
            .unwrap()
            .trim();
        assert!(line.ends_with(": 1") || line.ends_with(": 1,"));
    }
}
