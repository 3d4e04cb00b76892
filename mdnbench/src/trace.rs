//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers: name, start, end and parent. Nothing is traced
//! inside the program itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Calls, total busy time and self time of every span with one name.
#[derive(Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// A span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Duration of a closed span.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The cost of recording one span on this host, ns: the median of
    /// five bursts of empty spans on a scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const BURST: usize = 20_000;
        let mut costs: Vec<f64> = (0..5)
            .map(|_| {
                let mut t = Tracer::new(Instant::now());
                let started = Instant::now();
                for _ in 0..BURST {
                    let id = t.enter("calibrate");
                    t.exit(id);
                }
                started.elapsed().as_nanos() as f64 / BURST as f64
            })
            .collect();
        costs.sort_by(f64::total_cmp);
        costs[2]
    }

    /// Per-name totals; self time is each span's duration minus the
    /// time its children cover.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.busy_ns += dur;
            l.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Write the spans as Chrome trace-event JSON, for
    /// `chrome://tracing` or Perfetto; each event's `args` carry the
    /// span's id and its parent's (-1 for a root).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut events = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !events.is_empty() {
                events.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                events,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{{\"traceEvents\":[\n{events}\n]}}\n"))
    }
}
