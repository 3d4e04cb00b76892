//! The repository's benchmark; `BENCHMARK.json` at the repository root
//! is its spec and `README.md` beside this package explains it.
//!
//! ```text
//! cargo run --release --offline --manifest-path mdnbench/Cargo.toml -- \
//!     --workload <hall_600|fabric|chaos|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced,
//! rescaled to a reference host speed by the probe in `host.rs`;
//! `--trace 1` runs the workload once untraced and once as a traced
//! replay, and prints the per-layer ledger. Either way the run's
//! deterministic outcome is checked, and the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `--workload all` runs every workload in its own process.
//! `--record` prints the workload's `expected.txt` line instead.

mod expected;
mod host;
mod replay;
mod scenario;
mod stats;
mod trace;
mod workloads;

use scenario::{Outcome, Pass, DISPATCH_KINDS};
use stats::{median, percentile, tail_quantile};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

/// Untimed set-ups before the timed ones.
const SETUP_WARMUPS: usize = 5;
/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Samples the window tail leaves beyond it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a run prints as its last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(
        verdict: &Result<(), String>,
        attempted: u64,
        metrics: Vec<(&'static str, f64, &'static str)>,
    ) -> Self {
        if let Err(e) = verdict {
            println!("INCORRECT: {e}");
        }
        Self {
            correct: verdict.is_ok(),
            attempted,
            failed: if verdict.is_ok() { 0 } else { attempted },
            metrics,
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (name, value, unit) in &self.metrics {
            if !m.is_empty() {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Confine this process to the CPU it started on. The benchmark measures
/// the program on one core, the ROADMAP's CI host: with one CPU allowed,
/// `available_parallelism()` is 1, so the program's per-call scoped-thread
/// fan-outs (detector frames, scene render, shard listen) run inline
/// instead of measuring the scheduler of a shared multi-core host. Must
/// run before any thread is spawned; later threads inherit the mask.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's CPU number.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u8; 128];
    let Some(cpu) = usize::try_from(cpu).ok().filter(|&c| c / 8 < mask.len()) else {
        return;
    };
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a live, initialised buffer of `mask.len()` bytes,
    // the `cpu_set_t` layout glibc expects; pid 0 names this thread.
    if unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) } != 0 {
        eprintln!("mdnbench: could not pin to CPU {cpu}; running unpinned");
    }
}

/// This process's peak resident memory (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Check an outcome against its recorded line, or against `reference`
/// (computed only then) when this seed has no record.
fn check_outcome(
    w: Workload,
    seed: u64,
    got: &Outcome,
    reference: impl FnOnce() -> Result<Outcome, String>,
) -> Result<(), String> {
    match expected::check(w, seed, got) {
        Some(verdict) => verdict,
        None => match got.acoustic_mismatch(&reference()?) {
            Some(diff) => Err(format!("outcome differs from the reference: {diff}")),
            None => Ok(()),
        },
    }
}

/// `--trace 0`: set up `SETUP_WARMUPS + SETUPS` times, then step the
/// fixed pass as many times as fit `seconds` at the workload's
/// reference pass length. The host probe runs after every window step;
/// each pass's loop and window-step times are rescaled by its own
/// probes' factor, and the set-ups by that of the pass that follows
/// them.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let spec = w.spec(seed);
    let mut probe = host::Probe::new();
    // Set-up-only samples first, so at most one scenario is alive at a
    // time and `peak_rss_mb` stays one pass's peak. The first set-ups
    // of a process run slower while the allocator's heap grows.
    for _ in 0..SETUP_WARMUPS {
        scenario::Run::new(&spec)?;
    }
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        setups.push(scenario::Run::new(&spec)?.setup_s());
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut scales: Vec<f64> = Vec::new();
    let mut steps_ms: Vec<f64> = Vec::new();
    let (mut measured, mut raw) = (0.0, 0.0);
    let wanted = ((seconds / w.pass_seconds()).round() as usize).max(1);
    while passes.len() < wanted {
        let mut run = scenario::Run::new(&spec)?;
        let mut probes = Vec::with_capacity(spec.windows as usize);
        while !run.done() {
            run.step()?;
            probes.push(probe.sample());
        }
        let pass = run.finish()?;
        let scale = host::factor(&probes);
        steps_ms.extend(pass.step_ns.iter().map(|&ns| ns as f64 * scale / 1e6));
        scales.push(scale);
        measured += pass.loop_s * scale;
        raw += pass.loop_s;
        passes.push(pass);
    }
    let rss = peak_rss_mb()?;

    let first = &passes[0].outcome;
    let mut verdict = check_outcome(w, seed, first, || scenario::oracle(&spec));
    if let Some(i) = passes.iter().position(|p| p.outcome != *first) {
        verdict = Err(format!("pass {i} differs from pass 0"));
    }

    steps_ms.sort_by(f64::total_cmp);
    let n = steps_ms.len();
    // Fixed from one pass's window count, so every run reports the same
    // percentile; extra passes only add samples beyond it.
    let q_tail = tail_quantile(spec.windows as usize, TAIL_BEYOND);
    let (p50, tail) = (percentile(&steps_ms, 0.5), percentile(&steps_ms, q_tail));
    let sim_s = spec.total().as_secs_f64() * passes.len() as f64;
    let setup_s = median(&setups) * scales[0];
    let p = &passes[0];
    println!(
        "workload {} seed {seed}: {} pass(es) of {} windows",
        w.name(),
        passes.len(),
        spec.windows
    );
    let per_pass: Vec<String> = passes
        .iter()
        .zip(&scales)
        .map(|(p, s)| format!("{:.3} s x {s:.3}", p.loop_s))
        .collect();
    println!(
        "passes, raw stepping time x host rescale factor ({:.2} ms reference probe time): {}",
        host::NOMINAL_NS / 1e6,
        per_pass.join(", ")
    );
    println!(
        "realtime_factor {:.4} x ({sim_s:.1} s simulated in {measured:.3} s of stepping, rescaled; {raw:.3} s raw, {:.4} x)",
        sim_s / measured,
        sim_s / raw
    );
    println!("window_wall_p50_ms {p50:.3} ms (p50, n={n}, rescaled)");
    println!(
        "window_wall_tail_ms {tail:.3} ms (p{:.1}, n={n}, rescaled)",
        q_tail * 100.0
    );
    println!(
        "availability {:.5} ({} of {} scheduled tones heard)",
        first.availability(),
        first.heard,
        first.expected
    );
    println!("setup_s {setup_s:.5} s (median of {}, rescaled)", setups.len());
    println!(
        "peak_rss_mb {rss:.1} MB (scene.live_emissions_max {}, net.rx_log_records {})",
        p.live_emissions_max, p.rx_log_records
    );
    println!(
        "outcome: events_total {} delivered {} dropped {} tones {} replans {} digest {:016x}",
        first.events_total,
        first.delivered,
        first.dropped,
        first.tone_events,
        first.replans_text(),
        first.digest()
    );
    Ok(Report::new(
        &verdict,
        n as u64,
        vec![
            ("realtime_factor", sim_s / measured, "x"),
            ("window_wall_p50_ms", p50, "ms"),
            ("window_wall_tail_ms", tail, "ms"),
            ("availability", first.availability(), "ratio"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    ))
}

/// The per-layer metrics, in `BENCHMARK.json` order.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("setup.plan_s", "s"),
    ("setup.build_s", "s"),
    ("net.deliver.count", "count"),
    ("net.deliver.busy_s", "s"),
    ("net.generate.count", "count"),
    ("net.generate.busy_s", "s"),
    ("net.port_free.count", "count"),
    ("net.port_free.busy_s", "s"),
    ("loop.wall_s", "s"),
    ("net.queue_s", "s"),
    ("loop.queue_s", "s"),
    ("net.rx_log_records", "count"),
    ("encoder.emit.calls", "count"),
    ("encoder.emit.busy_s", "s"),
    ("scene.render.calls", "count"),
    ("scene.render.busy_s", "s"),
    ("scene.render_total.calls", "count"),
    ("scene.gc.busy_s", "s"),
    ("scene.gc.retired", "count"),
    ("scene.live_emissions_max", "count"),
    ("mic.capture.calls", "count"),
    ("mic.capture.busy_s", "s"),
    ("detect.decode.calls", "count"),
    ("detect.decode.busy_s", "s"),
    ("detect.goertzel.busy_s", "s"),
    ("detect.local_max.busy_s", "s"),
    ("detect.events", "count"),
    ("listen.merge.busy_s", "s"),
    ("listen.useful_share", "ratio"),
    ("heal.pass.calls", "count"),
    ("heal.pass.busy_s", "s"),
    ("heal.replan_pass.busy_s", "s"),
    ("heal.replans", "count"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// `--trace 1`: the untraced run, its network side alone, and the traced
/// replay of its acoustic plane, which must reproduce the untraced run
/// window for window.
fn layers(w: Workload, seed: u64) -> Result<Report, String> {
    let spec = w.spec(seed);
    let net_spec = workloads::network_only(&spec);
    // Window by window in lockstep, so a drift in the host's speed
    // lands on all four alike and the ratios between them hold.
    let mut untraced = scenario::Run::new(&spec)?;
    let mut network = scenario::Run::new(&net_spec)?;
    let mut replayer = replay::Replayer::new(&spec)?;
    let mut net_replayer = replay::Replayer::new(&net_spec)?;
    while !untraced.done() {
        untraced.step()?;
        network.step()?;
        replayer.step()?;
        net_replayer.step()?;
    }
    let (pass, net, rep) = (untraced.finish()?, network.finish()?, replayer.finish());
    let net_rep = net_replayer.finish();

    let mut verdict = check_outcome(w, seed, &pass.outcome, || Ok(rep.outcome.clone()));
    if let Some(diff) = rep.outcome.acoustic_mismatch(&pass.outcome) {
        verdict = Err(format!(
            "traced replay differs from the untraced run: {diff}"
        ));
    }
    let (got, want) = (&net.outcome, &pass.outcome);
    if (got.delivered, got.dropped) != (want.delivered, want.dropped) {
        verdict = Err(format!(
            "network-only replay delivered/dropped {}/{} != {}/{}",
            got.delivered, got.dropped, want.delivered, want.dropped
        ));
    }

    let spans = rep.tracer.layers();
    let busy = |name: &str| spans.get(name).map_or(0, |l| l.busy_ns);
    let calls = |name: &str| spans.get(name).map_or(0, |l| l.calls) as f64;
    let dispatch_s = |p: &Pass| secs(p.dispatch.iter().map(|d| d.sum_ns).sum());
    let acoustic_s = rep.acoustic_busy_s();
    // The network-only loop less its dispatch and its one silent cell's
    // listen: the event queue and the loop's own bookkeeping.
    let net_queue_s = net.loop_s - dispatch_s(&net) - net_rep.acoustic_busy_s();
    let named_s = dispatch_s(&pass) + net_queue_s + acoustic_s;
    let step_s = secs(pass.step_ns.iter().sum());
    let span_cost_s = trace::Tracer::span_cost_ns() * rep.tracer.len() as f64 / 1e9;

    let mut values: Vec<(String, f64)> = vec![
        ("setup.plan_s".into(), pass.plan_s),
        ("setup.build_s".into(), pass.build_s),
        ("loop.wall_s".into(), pass.loop_s),
        ("net.queue_s".into(), net_queue_s),
        ("loop.queue_s".into(), step_s - named_s),
        ("net.rx_log_records".into(), pass.rx_log_records as f64),
        ("encoder.emit.calls".into(), calls("encoder.emit")),
        ("encoder.emit.busy_s".into(), secs(busy("encoder.emit"))),
        ("scene.render.calls".into(), calls("scene.render")),
        ("scene.render.busy_s".into(), secs(busy("scene.render"))),
        (
            "scene.render_total.calls".into(),
            rep.render_total_calls as f64,
        ),
        ("scene.gc.busy_s".into(), secs(busy("scene.gc"))),
        ("scene.gc.retired".into(), rep.gc_retired as f64),
        (
            "scene.live_emissions_max".into(),
            rep.live_emissions_max as f64,
        ),
        ("mic.capture.calls".into(), calls("mic.capture")),
        ("mic.capture.busy_s".into(), secs(busy("mic.capture"))),
        ("detect.decode.calls".into(), calls("detect.decode")),
        ("detect.decode.busy_s".into(), secs(busy("detect.decode"))),
        ("detect.goertzel.busy_s".into(), secs(rep.goertzel_ns)),
        ("detect.local_max.busy_s".into(), secs(rep.local_max_ns)),
        ("detect.events".into(), rep.detect_events as f64),
        ("listen.merge.busy_s".into(), secs(busy("merge"))),
        (
            "listen.useful_share".into(),
            rep.useful_cell_windows as f64 / rep.cell_windows.max(1) as f64,
        ),
        ("heal.pass.calls".into(), calls("heal.pass")),
        ("heal.pass.busy_s".into(), secs(busy("heal.pass"))),
        ("heal.replan_pass.busy_s".into(), secs(rep.replan_pass_ns)),
        ("heal.replans".into(), rep.outcome.replans.len() as f64),
        (
            "trace.spans".into(),
            spans.values().map(|x| x.calls).sum::<u64>() as f64,
        ),
        ("trace.coverage".into(), named_s / pass.loop_s),
        (
            "trace.overhead_ratio".into(),
            rep.wall_s / (rep.wall_s - span_cost_s),
        ),
    ];
    for (kind, d) in DISPATCH_KINDS.iter().zip(&pass.dispatch) {
        values.push((format!("net.{kind}.count"), d.count as f64));
        values.push((format!("net.{kind}.busy_s"), secs(d.sum_ns)));
    }
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            (
                name,
                v.unwrap_or_else(|| panic!("per-layer metric {name} not computed")),
                unit,
            )
        })
        .collect();

    println!(
        "workload {} seed {seed}: untraced pass, then traced replay, of {} windows",
        w.name(),
        spec.windows
    );
    println!(
        "untraced loop {:.3} s, window steps {step_s:.3} s = dispatch {:.3} s + event queue {net_queue_s:.3} s + replayed acoustic {acoustic_s:.3} s + unexplained {:.3} s",
        pass.loop_s,
        dispatch_s(&pass),
        step_s - named_s
    );
    println!(
        "{:<16} {:>9} {:>11} {:>11}",
        "span", "calls", "busy_s", "self_s"
    );
    for (name, x) in &spans {
        println!(
            "{name:<16} {:>9} {:>11.4} {:>11.4}",
            x.calls,
            secs(x.busy_ns),
            secs(x.self_ns)
        );
    }
    let path = std::path::PathBuf::from(format!(".bench_trace/{}-{seed}.json", w.name()));
    rep.tracer
        .write_chrome(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(Report::new(&verdict, 2 * spec.windows, metrics))
}

/// `--workload all`: every workload in its own process, so each peak
/// RSS is that workload's own. Prints each workload's output, then one
/// summary line.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in workloads::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        all.correct &= last.starts_with("{\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        all.attempted += field("attempted");
        all.failed += field("failed");
    }
    Ok(all)
}

/// `--record`: print the workload's `expected.txt` line.
fn record(w: Workload, seed: u64) -> Result<(), String> {
    let pass = scenario::run_pass(&w.spec(seed))?;
    println!("{}", expected::line(w, seed, &pass.outcome));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mdnbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        let Some(w) = Workload::parse(&args.workload) else {
            eprintln!("mdnbench: unknown workload `{}`", args.workload);
            return ExitCode::from(2);
        };
        pin_to_one_cpu();
        if args.record {
            return match record(w, args.seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("mdnbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        if args.trace {
            layers(w, args.seed)
        } else {
            end_to_end(w, args.seed, args.seconds)
        }
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mdnbench: {e}");
            ExitCode::FAILURE
        }
    }
}
