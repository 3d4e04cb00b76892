//! Driving a built scenario to completion, and reporting on it.
//!
//! [`run`] steps the [`crate::eventloop::UnifiedLoop`] window by window
//! — scheduling each window's sonification just-in-time, pumping the
//! OpenFlow channel on app wakeups, keeping every window's
//! [`TickReport`] — and returns a [`ScenarioOutcome`] with the
//! counters every scenario summary reports. [`run_batch`] is the
//! fixed-tick reference implementation (pre-emit, then `tick`; no
//! network) that the fuzz harness holds the event path equal to.
//! [`execute`] is the whole experiment: registry and trace plumbing,
//! the live obs server with its end-of-run self-scrape, the
//! BENCH-compatible summary JSON, and the spec's `expect` gates.

use super::builder::ScenarioBuilder;
use super::spec::{Pattern, ScenarioError, ScenarioSpec};
use crate::eventloop::Step;
use crate::selfheal::TickReport;
use mdn_audio::signal::Window;
use mdn_obs::registry::DEFAULT_TRACE_CAPACITY;
use mdn_obs::{HistogramSnapshot, ObsServer, Registry};
use std::time::{Duration, Instant};

const MS: fn(u64) -> Duration = Duration::from_millis;

/// What a scenario run produced, counters and all.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-window reports, in order (the fuzz harness asserts these
    /// equal across batch/event paths and thread counts).
    pub windows: Vec<TickReport>,
    /// `(window end, evacuated cell)` for every replan.
    pub replans: Vec<(Duration, usize)>,
    /// Total events through the unified queue.
    pub events_total: u64,
    /// Packets delivered end-to-end.
    pub packets_delivered: u64,
    /// Packets dropped (queue + policy + link + crash).
    pub packets_dropped: u64,
    /// Tone emissions fired.
    pub tone_events: u64,
    /// Spent emissions garbage-collected by the scene GC.
    pub emissions_retired: u64,
    /// Emissions that failed to play (band/slot violations at fire time).
    pub emit_failures: u64,
    /// App wakeups processed.
    pub app_events: u64,
    /// FlowMods the OpenFlow agent applied to the live table.
    pub flow_mods: u64,
    /// PacketIns the agent sent up to the controller.
    pub packet_ins: u64,
    /// Rules in the pair switch's table after the run (controller runs).
    pub rules_installed: u64,
    /// Device-windows expected to decode.
    pub expected_emissions: u64,
    /// Device-windows that did decode.
    pub heard_emissions: u64,
    /// `heard / expected` (1.0 when nothing was scheduled).
    pub availability: f64,
    /// Wall-clock runtime of the stepping loop, seconds.
    pub wall_seconds: f64,
    /// Switches in the packet fabric.
    pub network_switches: usize,
    /// Hosts on the packet fabric.
    pub hosts: usize,
}

/// Schedule window `t`'s sonification onto the loop per the spec's
/// emission pattern; returns the expected device count. Emissions are
/// scheduled in time-sorted order (ties in cell-major order) so the
/// heap's `(time, seq)` fire order reproduces the batch mixing order —
/// the f32 contract the equivalence property pins down.
fn schedule_window(
    spec: &ScenarioSpec,
    pattern: Pattern,
    names: &[Vec<String>],
    t: u64,
    mut emit: impl FnMut(Duration, &str, usize, Duration),
) -> u64 {
    let win = spec.window();
    let e = &spec.emissions;
    let (switches_per_cell, slots_per_switch) = (
        spec.hall.cell.switches_per_cell,
        spec.hall.cell.slots_per_switch,
    );
    match pattern {
        Pattern::Rotate => {
            let start = win * t as u32 + MS(e.offset_ms);
            for (c, cell_names) in names.iter().enumerate() {
                let j = (t as usize + c) % switches_per_cell;
                let slot = t as usize % slots_per_switch;
                emit(start, &cell_names[j], slot, MS(e.duration_ms));
            }
            names.len() as u64
        }
        Pattern::All => {
            let start = win * t as u32 + MS(e.offset_ms);
            let slot = e.slot.unwrap_or(t as usize % slots_per_switch);
            let mut n = 0u64;
            for cell_names in names {
                for name in cell_names {
                    emit(start, name, slot, MS(e.duration_ms));
                    n += 1;
                }
            }
            n
        }
        Pattern::Explicit => {
            let flat: Vec<&String> = names.iter().flatten().collect();
            // Stable time sort: equal instants keep spec order.
            let mut emits: Vec<_> = e.explicit.iter().filter(|em| em.window == t).collect();
            emits.sort_by_key(|em| em.permil);
            let n = emits.len() as u64;
            for em in emits {
                let at = win * em.window as u32 + win.mul_f64(em.permil as f64 / 1000.0);
                emit(at, flat[em.dev], em.slot, MS(em.dur_ms));
            }
            n
        }
        Pattern::None => 0,
    }
}

/// Run the spec's experiment through the unified event loop.
pub fn run(spec: &ScenarioSpec, registry: &Registry) -> Result<ScenarioOutcome, ScenarioError> {
    let builder = ScenarioBuilder::new(spec)?;
    let built = builder.build(registry)?;
    let mut lp = built.lp;
    let mut agent = built.agent;
    let names = built.names;
    let pattern = builder.parsed().pattern;
    let win = spec.window();
    let horizon = spec.total() + win;

    let sched = |lp: &mut crate::eventloop::UnifiedLoop, t: u64| -> u64 {
        schedule_window(spec, pattern, &names, t, |at, name, slot, dur| {
            lp.schedule_emission(at, name, slot, dur);
        })
    };

    let mut expected_total = sched(&mut lp, 0);
    let mut heard_total = 0u64;
    let mut replans = Vec::new();
    let mut windows = Vec::new();
    let mut app_events = 0u64;
    let (mut flow_mods, mut packet_ins) = (0u64, 0u64);

    let window_wall_hist = registry.histogram("mdn_scenario_window_wall_ns", &[]);
    let wall_start = Instant::now();
    let mut last_t = wall_start;
    while (windows.len() as u64) < spec.windows {
        let step = lp.step(horizon);
        let now = Instant::now();
        let slice = now - last_t;
        last_t = now;
        match step {
            Step::Window { report } => {
                window_wall_hist.record(slice.as_nanos() as u64);
                heard_total += report.heard.len() as u64;
                if let Some(cell) = report.replanned {
                    replans.push((report.window.end(), cell));
                }
                windows.push(report);
                let next = windows.len() as u64;
                if next < spec.windows {
                    expected_total += sched(&mut lp, next);
                }
            }
            Step::App { .. } => {
                app_events += 1;
                if let Some(agent) = agent.as_mut() {
                    let report = agent
                        .pump(lp.net_mut())
                        .map_err(|e| ScenarioError::Run(format!("controller pump: {e}")))?;
                    flow_mods += report.flow_mods;
                    packet_ins += report.packet_ins;
                }
            }
            Step::Done => {
                return Err(ScenarioError::Run(format!(
                    "queue ran dry after {} of {} windows",
                    windows.len(),
                    spec.windows
                )))
            }
        }
    }
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    lp.net().publish_obs(registry);

    let rules_installed = built
        .pair_switch
        .map(|sw| lp.net_mut().switch_mut(sw).table.len() as u64)
        .unwrap_or(0);

    let counters = lp.net().counters;
    let (network_switches, hosts) = builder.parsed().topology.size();
    Ok(ScenarioOutcome {
        windows,
        replans,
        events_total: lp.net().events_processed(),
        packets_delivered: counters.delivered,
        packets_dropped: counters.queue_drops
            + counters.policy_drops
            + counters.link_drops
            + counters.crash_drops,
        tone_events: lp.emissions_fired(),
        emissions_retired: lp.emissions_retired(),
        emit_failures: lp.emit_failures(),
        app_events,
        flow_mods,
        packet_ins,
        rules_installed,
        expected_emissions: expected_total,
        heard_emissions: heard_total,
        availability: if expected_total == 0 {
            1.0
        } else {
            heard_total as f64 / expected_total as f64
        },
        wall_seconds,
        network_switches,
        hosts,
    })
}

/// The fixed-tick reference: pre-emit each window's tones into the
/// persistent scene, then `tick` — the §6 batch idiom, no network, no
/// scene GC. The event path must match this byte-for-byte; the fuzz
/// harness asserts it does.
pub fn run_batch(spec: &ScenarioSpec) -> Result<Vec<TickReport>, ScenarioError> {
    let builder = ScenarioBuilder::new(spec)?;
    let mut scene = builder.scene(None)?;
    let mut heal = builder.heal();
    let names = builder.device_names();
    let speaker = builder.speaker().cloned();
    let pattern = builder.parsed().pattern;
    let win = spec.window();

    let mut out = Vec::new();
    for t in 0..spec.windows {
        let start = win * t as u32;
        let mut expected = Vec::new();
        // Resolve each device from the CURRENT plan: after an
        // evacuation the migrated switch sounds its patched allocation —
        // exactly what the loop does at fire time.
        let mut emits: Vec<(Duration, String, usize, Duration)> = Vec::new();
        schedule_window(spec, pattern, &names, t, |at, name, slot, dur| {
            emits.push((at, name.to_string(), slot, dur));
        });
        for (at, name, slot, dur) in emits {
            let mut dev = heal.plan().sounding_device(&name).ok_or_else(|| {
                ScenarioError::Run(format!("device `{name}` left the plan in window {t}"))
            })?;
            if let Some(sp) = &speaker {
                dev.speaker = sp.clone();
            }
            let _ = dev.emit_slot(&mut scene, slot, at, dur);
            expected.push(name);
        }
        let w = Window::new(start, win);
        out.push(heal.tick(&scene, w, &expected));
    }
    Ok(out)
}

/// A scenario's headline numbers as JSON. Every scenario shares one key
/// set (`BENCH_soak.json` is soak_600's summary), so the CI matrix can
/// validate them all alike. `window_wall_ms` is the wall time between
/// consecutive window steps, packet dispatch included. Wall-clock figures
/// sit under their own keys (`wall_seconds`, `events_per_sec`,
/// `per_event_latency_us`, `dispatch_kind_us`, `window_wall_ms`); every
/// other key is deterministic for a spec. `per_event_latency_us` and
/// `dispatch_kind_us` are estimated from the network's sampled dispatch
/// timing (one event in 64 per kind); `dispatch_kind_count` stays the
/// exact, deterministic number of events of each kind dispatched.
pub fn summary(spec: &ScenarioSpec, out: &ScenarioOutcome, registry: &Registry) -> serde::Value {
    let snap = registry.snapshot();
    let hist = |name: &str| snap.histograms.get(name).cloned().unwrap_or_default();
    let dispatch = hist("mdn_net_dispatch_ns{kind=\"all\"}");
    let window_wall = hist("mdn_scenario_window_wall_ns");
    let us = |h: &HistogramSnapshot, q: f64| h.quantile(q) / 1e3;
    let ms = |h: &HistogramSnapshot, q: f64| h.quantile(q) / 1e6;
    let kind_hist = |kind: &str| hist(&format!("mdn_net_dispatch_ns{{kind=\"{kind}\"}}"));
    let kind_us = |kind: &str| {
        let h = kind_hist(kind);
        serde_json::json!({"p50": us(&h, 0.50), "p99": us(&h, 0.99)})
    };

    serde_json::json!({
        "bench": spec.name.as_str(),
        "unit": "events/sec through the unified queue; latency percentiles in us/ms",
        "seed": spec.seed,
        "sample_rate": spec.sample_rate,
        "window_ms": spec.window_ms,
        "windows": spec.windows,
        "sim_seconds": spec.total().as_secs_f64(),
        "cells": spec.hall.cells,
        "sounding_switches": spec.hall.cells * spec.hall.cell.switches_per_cell,
        "network_switches": out.network_switches,
        "hosts": out.hosts,
        "events_total": out.events_total,
        "packets_delivered": out.packets_delivered,
        "packets_dropped": out.packets_dropped,
        "tone_events": out.tone_events,
        "emissions_retired": out.emissions_retired,
        "app_events": out.app_events,
        "flow_mods": out.flow_mods,
        "packet_ins": out.packet_ins,
        "replans": out.replans.len() as u64,
        "replan_at_s": out.replans.first().map(|(at, _)| at.as_secs_f64()),
        "availability": out.availability,
        "wall_seconds": out.wall_seconds,
        "events_per_sec": out.events_total as f64 / out.wall_seconds.max(1e-9),
        "per_event_latency_us": {
            "p50": us(&dispatch, 0.50),
            "p95": us(&dispatch, 0.95),
            "p99": us(&dispatch, 0.99),
            "max": dispatch.max as f64 / 1e3,
        },
        "dispatch_kind_count": {
            "deliver": kind_hist("deliver").count,
            "generate": kind_hist("generate").count,
            "port_free": kind_hist("port_free").count,
        },
        "dispatch_kind_us": {
            "deliver": kind_us("deliver"),
            "generate": kind_us("generate"),
            "port_free": kind_us("port_free"),
        },
        "window_wall_ms": {
            "p50": ms(&window_wall, 0.50),
            "p95": ms(&window_wall, 0.95),
            "p99": ms(&window_wall, 0.99),
            "max": window_wall.max as f64 / 1e6,
        },
    })
}

/// Check the spec's `expect` block against what actually happened.
pub fn check_expect(spec: &ScenarioSpec, out: &ScenarioOutcome) -> Result<(), ScenarioError> {
    let e = &spec.expect;
    let fail = |check: &str, detail: String| -> Result<(), ScenarioError> {
        Err(ScenarioError::Expect {
            check: check.into(),
            detail,
        })
    };
    if e.all_emissions_play && out.emit_failures > 0 {
        return fail(
            "all_emissions_play",
            format!("{} scheduled emissions failed to play", out.emit_failures),
        );
    }
    if let Some(min) = e.min_availability.filter(|&min| out.availability < min) {
        return fail(
            "min_availability",
            format!("availability {:.4} below floor {min:.4}", out.availability),
        );
    }
    let evacuations = out.replans.len() as u64;
    if let Some(want) = e.replans.filter(|&want| evacuations != want) {
        let detail = format!("expected {want} evacuations, saw {evacuations}");
        return fail("replans", detail);
    }
    let first = out.replans.first();
    if let Some(cell) = e
        .replanned_cell
        .filter(|&c| first.map(|&(_, got)| got) != Some(c))
    {
        let detail = format!("expected cell {cell} evacuated first, saw {first:?}");
        return fail("replanned_cell", detail);
    }
    if let (Some(after_ms), Some((at, _))) = (e.replan_after_ms, first) {
        if *at <= MS(after_ms) {
            let detail = format!("first evacuation at {at:?}, not after {after_ms} ms");
            return fail("replan_after_ms", detail);
        }
    }
    if let Some(want) = e.tone_events.filter(|&want| out.tone_events != want) {
        let detail = format!("expected {want} tone emissions, fired {}", out.tone_events);
        return fail("tone_events", detail);
    }
    let delivered = out.packets_delivered;
    if let Some(min) = e.min_packets_delivered.filter(|&min| delivered < min) {
        return fail(
            "min_packets_delivered",
            format!("{delivered} delivered, floor {min}"),
        );
    }
    if let Some(want_drops) = e.drops.filter(|&want| (out.packets_dropped > 0) != want) {
        let detail = format!(
            "expected drops={want_drops}, saw {} dropped",
            out.packets_dropped
        );
        return fail("drops", detail);
    }
    if let Some(min) = e.min_flow_mods.filter(|&min| out.flow_mods < min) {
        let detail = format!("{} FlowMods applied, floor {min}", out.flow_mods);
        return fail("min_flow_mods", detail);
    }
    if let Some(min) = e.min_packet_ins.filter(|&min| out.packet_ins < min) {
        let detail = format!("{} PacketIns sent, floor {min}", out.packet_ins);
        return fail("min_packet_ins", detail);
    }
    Ok(())
}

/// One raw HTTP GET against the run's own obs server (the end-of-run
/// self-scrape health check).
fn scrape(addr: std::net::SocketAddr, target: &str) -> Result<String, ScenarioError> {
    use std::io::{Read, Write};
    let err =
        |what: &str, e: std::io::Error| ScenarioError::Run(format!("self-scrape {what}: {e}"));
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| err("connect", e))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: scenario\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| err("send", e))?;
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .map_err(|e| err("read", e))?;
    Ok(out)
}

/// A completed run: the raw outcome plus its summary JSON.
pub struct ScenarioRun {
    /// Everything [`run`] measured.
    pub outcome: ScenarioOutcome,
    /// The BENCH-shaped summary.
    pub summary: serde::Value,
}

/// The whole experiment, end to end: set up the registry (with tracing
/// when the spec's output block asks for it), bind the live obs server,
/// run, write trace/bench artifacts, self-scrape as a health check, and
/// enforce the spec's expectations.
pub fn execute(spec: &ScenarioSpec) -> Result<ScenarioRun, ScenarioError> {
    let o = &spec.output;
    let tracing_on = o.trace_out.is_some() || o.obs_addr.is_some();
    let registry = if tracing_on {
        Registry::with_trace(
            o.trace_cap
                .map_or(DEFAULT_TRACE_CAPACITY, |cap| cap as usize),
        )
    } else {
        Registry::new()
    };
    // Bind before the run so a human can watch it live.
    let server = match &o.obs_addr {
        Some(addr) => {
            let handle = ObsServer::new(&registry, &registry.trace())
                .serve(addr.as_str())
                .map_err(|e| ScenarioError::Run(format!("bind obs server: {e}")))?;
            eprintln!("obs server on http://{}/metrics", handle.addr());
            Some(handle)
        }
        None => None,
    };

    let outcome = run(spec, &registry)?;

    if let Some(path) = &o.trace_out {
        let sink = registry.trace();
        std::fs::write(path, sink.to_chrome_json()).map_err(|e| ScenarioError::Io {
            path: path.clone(),
            err: e.to_string(),
        })?;
        eprintln!(
            "wrote {} trace spans ({} dropped) to {path}",
            sink.len(),
            sink.dropped()
        );
    }
    if let Some(handle) = server {
        let metrics = scrape(handle.addr(), "/metrics")?;
        if !metrics.starts_with("HTTP/1.1 200") || !metrics.contains("mdn_net_events_processed") {
            return Err(ScenarioError::Run(
                "metrics self-scrape missing published gauges".into(),
            ));
        }
        let trace = scrape(handle.addr(), "/trace?since=0")?;
        if !trace.starts_with("HTTP/1.1 200") || !trace.contains("\"traceEvents\"") {
            return Err(ScenarioError::Run(
                "trace self-scrape not Chrome JSON".into(),
            ));
        }
        eprintln!("self-scrape OK: /metrics and /trace served");
        if let Some(secs) = o.obs_hold_secs {
            eprintln!("holding obs server for {secs}s — curl it now");
            std::thread::sleep(Duration::from_secs(secs));
        }
        handle.shutdown();
    }

    let summary = summary(spec, &outcome, &registry);
    if let Some(path) = &o.bench_json {
        let text = serde_json::to_string_pretty(&summary)
            .map_err(|e| ScenarioError::Run(format!("summary serialization: {e}")))?;
        std::fs::write(path, text + "\n").map_err(|e| ScenarioError::Io {
            path: path.clone(),
            err: e.to_string(),
        })?;
        eprintln!("wrote {path}");
    }
    check_expect(spec, &outcome)?;
    Ok(ScenarioRun { outcome, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The summary with its wall-clock keys dropped.
    fn deterministic(summary: serde::Value) -> serde::Value {
        const WALL_CLOCK: [&str; 5] = [
            "wall_seconds",
            "events_per_sec",
            "per_event_latency_us",
            "dispatch_kind_us",
            "window_wall_ms",
        ];
        match summary {
            serde::Value::Object(mut fields) => {
                fields.retain(|(k, _)| !WALL_CLOCK.contains(&k.as_str()));
                serde::Value::Object(fields)
            }
            other => panic!("summary is not an object: {other:?}"),
        }
    }

    #[test]
    fn summaries_match_across_runs_once_wall_clock_keys_are_dropped() {
        let spec = ScenarioSpec::leaf_spine_hall(2, 2, 4, 4);
        let first = execute(&spec).expect("small spec runs");
        let second = execute(&spec).expect("small spec runs");
        let counts = first
            .summary
            .get("dispatch_kind_count")
            .expect("per-kind counts");
        assert!(counts.get("deliver").and_then(serde::Value::as_u64) > Some(0));
        assert_eq!(deterministic(first.summary), deterministic(second.summary));
    }
}
