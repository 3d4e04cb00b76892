//! Regenerate every figure and quantitative claim from the paper.
//!
//! ```text
//! cargo run --release -p mdn-bench --bin figures            # everything
//! cargo run --release -p mdn-bench --bin figures -- 2a 5a   # a subset
//! cargo run --release -p mdn-bench --bin figures -- claims  # just the sweeps
//! ```
//!
//! Prints the series each figure plots and writes CSV/JSON under
//! `results/`. Every file there is deterministic; Figure 2b's wall-clock
//! FFT latencies go to `BENCH_fig2b.json` at the workspace root instead.
//!
//! Each figure also checks the paper's verdict it reproduces (recall 1.0,
//! the heavy slot flagged, both fan rooms separated, ...). The outputs are
//! written first; then, if any verdict fails, the run exits non-zero.

use mdn_bench::experiments::{ablation, claims, fig2, fig3, fig4, fig5, fig6_7};
use mdn_bench::report::{print_table, write_csv, write_json};

/// One paper verdict: what must hold, and whether it did.
type Verdict = (String, bool);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |key: &str| {
        args.is_empty()
            || args.iter().any(|a| {
                let a = a.to_lowercase();
                a == key || key.starts_with(&a)
            })
    };

    let mut verdicts: Vec<Verdict> = Vec::new();
    if want("2a") {
        verdicts.extend(run_fig2a());
    }
    if want("2b") {
        run_fig2b();
    }
    if want("3") {
        verdicts.extend(run_fig3());
    }
    if want("4a") {
        verdicts.extend(run_fig4ab(false));
    }
    if want("4b") {
        verdicts.extend(run_fig4ab(true));
    }
    if want("4c") {
        verdicts.extend(run_fig4cd(false));
    }
    if want("4d") {
        verdicts.extend(run_fig4cd(true));
    }
    if want("5a") {
        run_fig5ab();
    }
    if want("5c") {
        verdicts.extend(run_fig5cd());
    }
    if want("6") {
        run_fig6();
    }
    if want("7") {
        verdicts.extend(run_fig7());
    }
    if want("claims") {
        verdicts.extend(run_claims());
    }
    if want("ablation") {
        verdicts.extend(run_ablation());
    }
    println!("\nAll requested figures regenerated; outputs in results/.");

    println!("\n== Paper verdicts ==");
    for (claim, ok) in &verdicts {
        println!("{}\t{claim}", if *ok { "ok" } else { "FAILED" });
    }
    let failed = verdicts.iter().filter(|(_, ok)| !ok).count();
    if failed > 0 {
        eprintln!("{failed} of {} paper verdicts failed", verdicts.len());
        std::process::exit(1);
    }
}

fn run_fig2a() -> Vec<Verdict> {
    let r = fig2::multiswitch_fft(5, 5);
    print_table(
        "Figure 2a — FFT of audio from 5 switches",
        &["switch", "emitted (Hz)", "identified"],
        &r.switches
            .iter()
            .zip(&r.emitted_hz)
            .map(|(s, &f)| {
                let hit = r.detected.iter().any(|(d, _)| d == s);
                vec![s.clone(), format!("{f:.0}"), format!("{hit}")]
            })
            .collect::<Vec<_>>(),
    );
    println!("recall: {:.2}, spurious: {}", r.recall, r.spurious.len());
    write_csv(
        "fig2a_spectrum",
        &["freq_hz", "magnitude"],
        &r.spectrum
            .iter()
            .map(|&(f, m)| vec![f, m])
            .collect::<Vec<_>>(),
    );
    write_json("fig2a", &r);
    vec![(
        format!(
            "fig2a: every switch identified, none spurious (recall {:.2}, spurious {})",
            r.recall,
            r.spurious.len()
        ),
        r.recall == 1.0 && r.spurious.is_empty(),
    )]
}

fn run_fig2b() {
    let r = fig2::fft_latency(1000);
    print_table(
        "Figure 2b — CDF of FFT processing time (~50 ms samples)",
        &["percentile", "latency (ms)"],
        &[
            vec!["p50".into(), format!("{:.4}", r.p50_ms)],
            vec!["p90".into(), format!("{:.4}", r.p90_ms)],
            vec!["p99".into(), format!("{:.4}", r.p99_ms)],
        ],
    );
    println!(
        "fraction within the paper's 0.35 ms: {:.3} (paper: ~0.90 on a Pi-class CPU)",
        r.fraction_under_paper_0_35ms
    );
    // Wall-clock timings differ run to run, so they stay out of the
    // byte-reproducible `results/`.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig2b.json");
    let json = serde_json::to_string_pretty(&r).expect("serialize fig2b");
    std::fs::write(path, json + "\n").expect("write BENCH_fig2b.json");
}

fn run_fig3() -> Vec<Verdict> {
    let r = fig3::port_knocking(&fig3::PortKnockParams::default());
    print_table(
        "Figure 3 — port knocking",
        &["metric", "value"],
        &[
            vec!["unlock time (s)".into(), format!("{:?}", r.unlock_time_s)],
            vec![
                "bytes before unlock".into(),
                format!("{}", r.bytes_before_unlock),
            ],
            vec![
                "bytes received total".into(),
                format!("{}", r.bytes_received),
            ],
            vec!["knock tones".into(), format!("{:?}", r.knock_tone_times_s)],
        ],
    );
    let rows: Vec<Vec<f64>> = r
        .sent_series
        .iter()
        .zip(&r.received_series)
        .map(|(&(t, s), &(_, rx))| vec![t, s, rx])
        .collect();
    write_csv(
        "fig3_bytes",
        &["t_s", "sent_bytes", "received_bytes"],
        &rows,
    );
    write_csv(
        "fig3b_mel_ridge",
        &["t_s", "mel_band"],
        &r.mel_ridge
            .iter()
            .map(|&(t, b)| vec![t, b as f64])
            .collect::<Vec<_>>(),
    );
    write_json("fig3", &r);
    vec![(
        format!(
            "fig3: the knock sequence unlocks, 0 bytes before unlock (unlock {:?} s, {} bytes)",
            r.unlock_time_s, r.bytes_before_unlock
        ),
        r.unlock_time_s.is_some() && r.bytes_before_unlock == 0,
    )]
}

fn run_fig4ab(noise: bool) -> Vec<Verdict> {
    let r = fig4::heavy_hitter(noise);
    let label = if noise {
        "4b (with music)"
    } else {
        "4a (clean)"
    };
    print_table(
        &format!("Figure {label} — heavy-hitter detection"),
        &["metric", "value"],
        &[
            vec!["heavy slot".into(), format!("{}", r.heavy_slot)],
            vec!["flagged".into(), format!("{:?}", r.flagged_slots)],
            vec!["correct".into(), format!("{}", r.correct)],
        ],
    );
    let name = if noise {
        "fig4b_slot_counts"
    } else {
        "fig4a_slot_counts"
    };
    write_csv(
        name,
        &["slot", "tones"],
        &r.slot_counts
            .iter()
            .map(|&(s, c)| vec![s as f64, c as f64])
            .collect::<Vec<_>>(),
    );
    write_json(if noise { "fig4b" } else { "fig4a" }, &r);
    vec![(
        format!(
            "fig{}: exactly the heavy slot {} flagged (flagged {:?})",
            if noise { "4b" } else { "4a" },
            r.heavy_slot,
            r.flagged_slots
        ),
        r.flagged_slots == [r.heavy_slot],
    )]
}

fn run_fig4cd(noise: bool) -> Vec<Verdict> {
    let r = fig4::port_scan(noise);
    let label = if noise {
        "4d (with music)"
    } else {
        "4c (clean)"
    };
    print_table(
        &format!("Figure {label} — port-scan detection"),
        &["metric", "value"],
        &[
            vec!["detected".into(), format!("{}", r.detected)],
            vec!["alerts".into(), format!("{:?}", r.alerts)],
            vec![
                "ridge monotonicity".into(),
                format!("{:.3}", r.ridge_monotonicity),
            ],
        ],
    );
    let name = if noise {
        "fig4d_mel_ridge"
    } else {
        "fig4c_mel_ridge"
    };
    write_csv(
        name,
        &["t_s", "mel_band"],
        &r.mel_ridge
            .iter()
            .map(|&(t, b)| vec![t, b as f64])
            .collect::<Vec<_>>(),
    );
    write_json(if noise { "fig4d" } else { "fig4c" }, &r);
    vec![(
        format!(
            "fig{}: the port scan is detected",
            if noise { "4d" } else { "4c" }
        ),
        r.detected,
    )]
}

fn run_fig5ab() {
    let r = fig5::load_balancing();
    print_table(
        "Figure 5a/5b — load balancing",
        &["metric", "value"],
        &[
            vec![
                "rebalance time (s)".into(),
                format!("{:?}", r.rebalance_time_s),
            ],
            vec!["peak queue before".into(), format!("{}", r.peak_before)],
            vec![
                "peak queue after drain".into(),
                format!("{}", r.peak_after_drain),
            ],
            vec!["delivered".into(), format!("{}", r.delivered)],
            vec![
                "bottom-path packets".into(),
                format!("{}", r.bottom_path_packets),
            ],
        ],
    );
    let rows: Vec<Vec<f64>> = r
        .queue_top
        .iter()
        .zip(&r.queue_bottom)
        .map(|(&(t, qt), &(_, qb))| vec![t, qt, qb])
        .collect();
    write_csv("fig5a_queues", &["t_s", "queue_top", "queue_bottom"], &rows);
    write_csv(
        "fig5b_tone_tracks",
        &["t_s", "m500", "m600", "m700"],
        &r.tone_tracks.iter().map(|&(t, a, b, c)| vec![t, a, b, c]).collect::<Vec<_>>(),
    );
    write_json("fig5a", &r);
}

fn run_fig5cd() -> Vec<Verdict> {
    let r = fig5::queue_monitor();
    print_table(
        "Figure 5c/5d — queue monitoring",
        &["metric", "value"],
        &[
            vec!["band accuracy".into(), format!("{:.3}", r.band_accuracy)],
            vec![
                "congestion onset (s)".into(),
                format!("{:?}", r.congestion_onset_s),
            ],
            vec!["drain heard (s)".into(), format!("{:?}", r.drain_s)],
        ],
    );
    let rows: Vec<Vec<f64>> = r
        .queue_series
        .iter()
        .zip(&r.true_bands)
        .map(|(&(t, q), &(_, b))| vec![t, q, b as f64])
        .collect();
    write_csv("fig5c_queue", &["t_s", "queue_pkts", "band"], &rows);
    write_csv(
        "fig5c_decoded",
        &["t_s", "band"],
        &r.decoded_bands
            .iter()
            .map(|&(t, b)| vec![t, b as f64])
            .collect::<Vec<_>>(),
    );
    write_csv(
        "fig5d_tone_tracks",
        &["t_s", "m500", "m600", "m700"],
        &r.tone_tracks
            .iter()
            .map(|&(t, a, b, c)| vec![t, a, b, c])
            .collect::<Vec<_>>(),
    );
    write_json("fig5c", &r);
    vec![(
        format!(
            "fig5c: every queue band decoded (accuracy {:.3})",
            r.band_accuracy
        ),
        r.band_accuracy == 1.0,
    )]
}

fn run_fig6() {
    let r = fig6_7::fan_spectrograms();
    print_table(
        "Figure 6 — fan on/off mel spectrograms",
        &["room", "blade-pass energy ratio (on/off)"],
        &r.blade_pass_ratio
            .iter()
            .map(|(room, ratio)| vec![room.clone(), format!("{ratio:.1}")])
            .collect::<Vec<_>>(),
    );
    for panel in &r.panels {
        let name = format!("fig6_{}_{}", panel.room, panel.fan);
        let rows: Vec<Vec<f64>> = panel
            .centers_hz
            .iter()
            .zip(&panel.band_energy)
            .map(|(&f, &e)| vec![f, e])
            .collect();
        write_csv(&name, &["center_hz", "energy"], &rows);
    }
    write_json("fig6", &r);
}

fn run_fig7() -> Vec<Verdict> {
    let r = fig6_7::fan_failure(10);
    for room in &r.rooms {
        print_table(
            &format!("Figure 7 — fan failure scores ({})", room.room),
            &["statistic", "value"],
            &[
                vec![
                    "on-vs-baseline (min..max)".into(),
                    format!(
                        "{:.1}..{:.1}",
                        room.on_scores.iter().cloned().fold(f64::INFINITY, f64::min),
                        room.on_scores.iter().cloned().fold(0.0, f64::max)
                    ),
                ],
                vec![
                    "off-vs-baseline (min..max)".into(),
                    format!(
                        "{:.1}..{:.1}",
                        room.off_scores
                            .iter()
                            .cloned()
                            .fold(f64::INFINITY, f64::min),
                        room.off_scores.iter().cloned().fold(0.0, f64::max)
                    ),
                ],
                vec!["threshold".into(), format!("{:.1}", room.threshold)],
                vec!["separated".into(), format!("{}", room.separated)],
            ],
        );
    }
    write_json("fig7", &r);
    let rooms: Vec<&str> = r.rooms.iter().map(|room| room.room.as_str()).collect();
    vec![(
        format!("fig7: fan on and off separated in both rooms ({rooms:?})"),
        r.rooms.len() == 2 && r.rooms.iter().all(|room| room.separated),
    )]
}

fn run_ablation() -> Vec<Verdict> {
    let r = ablation::monitoring_under_congestion();
    print_table(
        "Ablation A1 — in-band polling vs MDN queue tones",
        &["metric", "in-band", "MDN (sound)"],
        &[
            vec![
                "reports delivered".into(),
                format!("{}/{}", r.inband_delivered, r.reports_sent),
                format!("{}/{}", r.mdn_heard, r.reports_sent),
            ],
            vec![
                "delivered during congestion".into(),
                format!(
                    "{}/{}",
                    r.inband_delivered_during_congestion, r.reports_during_congestion
                ),
                format!(
                    "{}/{}",
                    r.mdn_heard_during_congestion, r.reports_during_congestion
                ),
            ],
            vec![
                "bytes added to the data network".into(),
                format!("{}", r.inband_bytes_on_bottleneck),
                format!("{}", r.mdn_bytes_on_network),
            ],
        ],
    );
    write_json("ablation_monitoring", &r);
    vec![(
        format!(
            "ablation A1: MDN delivers every report and beats in-band (MDN {}/{}, in-band {}/{})",
            r.mdn_heard, r.reports_sent, r.inband_delivered, r.reports_sent
        ),
        r.reports_sent == 40 && r.mdn_heard == r.reports_sent && r.mdn_heard > r.inband_delivered,
    )]
}

fn run_claims() -> Vec<Verdict> {
    // Duration is a two-curve sweep with its own shape.
    let duration = claims::duration_sweep(10);
    print_table(
        "claim_duration — the ~30 ms hardware floor",
        &["requested (ms)", "produced (ms)", "pipeline acc", "raw acc"],
        &duration
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.requested_ms),
                    format!("{}", p.produced_ms),
                    format!("{:.2}", p.pipeline_accuracy),
                    format!("{:.2}", p.raw_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_csv(
        "claim_duration",
        &[
            "requested_ms",
            "produced_ms",
            "pipeline_accuracy",
            "raw_accuracy",
        ],
        &duration
            .points
            .iter()
            .map(|p| {
                vec![
                    p.requested_ms,
                    p.produced_ms,
                    p.pipeline_accuracy,
                    p.raw_accuracy,
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("claim_duration", &duration);

    let sweeps = [
        ("claim_spacing", claims::spacing_sweep(10)),
        (
            "claim_capacity",
            claims::capacity_sweep(&[100, 250, 500, 750, 911]),
        ),
        ("claim_intensity", claims::intensity_sweep(10)),
    ];
    for (name, sweep) in &sweeps {
        print_table(
            &format!("{name} — {}", sweep.parameter),
            &["value", "accuracy"],
            &sweep
                .points
                .iter()
                .map(|p| vec![format!("{}", p.value), format!("{:.2}", p.accuracy)])
                .collect::<Vec<_>>(),
        );
        if let Some(knee) = sweep.knee {
            println!("knee (first ≥0.95 accuracy): {knee}");
        }
        write_csv(
            name,
            &["value", "accuracy"],
            &sweep
                .points
                .iter()
                .map(|p| vec![p.value, p.accuracy])
                .collect::<Vec<_>>(),
        );
        write_json(name, sweep);
    }
    let [(_, spacing), (_, capacity), (_, intensity)] = &sweeps;
    let at_911 = capacity
        .points
        .iter()
        .find(|p| p.value == 911.0)
        .map(|p| p.accuracy);
    vec![
        (
            format!(
                "claim_spacing: knee at or below 30 Hz (knee {:?})",
                spacing.knee
            ),
            spacing.knee.is_some_and(|knee| knee <= 30.0),
        ),
        (
            format!(
                "claim_intensity: knee at or below 30 dB (knee {:?})",
                intensity.knee
            ),
            intensity.knee.is_some_and(|knee| knee <= 30.0),
        ),
        (
            format!("claim_capacity: 911 simultaneous tones at accuracy >= 0.95 ({at_911:?})"),
            at_911.is_some_and(|accuracy| accuracy >= 0.95),
        ),
    ]
}
