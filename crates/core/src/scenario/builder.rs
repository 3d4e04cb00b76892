//! Lowering a validated [`ScenarioSpec`] into runnable parts.
//!
//! [`ScenarioBuilder::new`] validates the spec and runs the cell planner
//! (so planner-level rejections — capacity, reuse safety, slots outside
//! the speaker band — surface as typed errors here); [`ScenarioBuilder::build`]
//! assembles the full experiment: scene with faults and music sources,
//! self-heal controller, network fabric with traffic and scripted link
//! faults, an optional in-process OpenFlow controller, and the
//! [`UnifiedLoop`] that drives all of it — the setup the soak bench, the
//! chaos/equivalence tests and the obs examples used to each hand-roll.

use super::spec::{HallSpec, ScenarioError, ScenarioSpec};
use crate::cells::CellPlan;
use crate::eventloop::UnifiedLoop;
use crate::ofbridge::OfAgent;
use crate::selfheal::SelfHealingController;
use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::faults::{SceneFaultPlan, Window};
use mdn_acoustics::medium::Pos;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::speaker::Speaker;
use mdn_audio::signal::spl_to_amplitude;
use mdn_audio::synth::{render_sequence, Tone};
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology::leaf_spine;
use mdn_net::traffic::TrafficPattern;
use mdn_net::{NetFault, Network, NodeId};
use mdn_obs::Registry;
use mdn_proto::controller::LearningSwitch;
use std::time::Duration;

/// The lowered network side of a scenario: the fabric itself, the
/// scripted `link_flap` transitions as `(at, fault)` pairs, and the
/// controller-attached switch (if the spec asks for a controller).
type NetworkParts = (Network, Vec<(Duration, NetFault)>, Option<NodeId>);

const MS: fn(u64) -> Duration = Duration::from_millis;

/// Default SPL of injected music playback, dB — loud office speakers.
const MUSIC_SPL_DB: f64 = 75.0;
/// Default SPL of a scripted wide-band noise burst, dB.
const BURST_SPL_DB: f64 = 60.0;

/// Everything [`super::run()`] needs to drive one scenario.
pub struct BuiltScenario {
    /// The unified event loop over both worlds, ready to step.
    pub lp: UnifiedLoop,
    /// Initial device names, `(cell, switch)`-indexed; names persist
    /// across replans.
    pub names: Vec<Vec<String>>,
    /// `hall.cell.switches_per_cell`, captured for schedule arithmetic.
    pub switches_per_cell: usize,
    /// `hall.cell.slots_per_switch`, captured for schedule arithmetic.
    pub slots_per_switch: usize,
    /// The OpenFlow agent, when `controller.enabled`.
    pub agent: Option<OfAgent>,
    /// The `pair` topology's switch, for post-run table inspection.
    pub pair_switch: Option<NodeId>,
}

/// A spec checked against both the structural rules and the cell
/// planner, ready to lower.
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
    ambient: AmbientProfile,
    plan: CellPlan,
    speaker: Option<Speaker>,
}

/// The named ambient bed, with the optional SPL override applied.
fn ambient_profile(hall: &HallSpec) -> Result<AmbientProfile, ScenarioError> {
    let mut profile = match hall.ambient.as_str() {
        "quiet" => AmbientProfile::quiet(),
        "office" => AmbientProfile::office(),
        "datacenter" => AmbientProfile::datacenter(),
        other => {
            return Err(ScenarioError::invalid(
                "hall.ambient",
                format!("unknown ambient `{other}`"),
            ))
        }
    };
    if let Some(spl) = hall.ambient_spl {
        profile.level_spl = spl;
    }
    Ok(profile)
}

impl ScenarioBuilder {
    /// Validate `spec` and run the cell planner. This is the full
    /// rejection gate: anything that returns `Ok` here can be built.
    pub fn new(spec: &ScenarioSpec) -> Result<Self, ScenarioError> {
        spec.validate()?;
        let ambient = ambient_profile(&spec.hall)?;
        let mut cfg = spec.hall.cell.clone();
        let speaker = match spec.hall.speaker.as_str() {
            // The default testbed hardware: the planner's default band
            // already models it, and the loop's default speaker drives it.
            "cheap" => None,
            // §8 ultrasound-capable hardware: widen the planner's band
            // and drive every emission through the matching speaker.
            "ultrasound" => {
                cfg.speaker_band = Speaker::ultrasound_capable().band;
                Some(Speaker::ultrasound_capable())
            }
            other => {
                return Err(ScenarioError::invalid(
                    "hall.speaker",
                    format!("unknown speaker `{other}`"),
                ))
            }
        };
        let plan = CellPlan::plan(spec.hall.cells, std::slice::from_ref(&ambient), cfg)?;
        Ok(Self {
            spec: spec.clone(),
            ambient,
            plan,
            speaker,
        })
    }

    /// The planned hall.
    pub fn plan(&self) -> &CellPlan {
        &self.plan
    }

    /// The resolved ambient bed (SPL override applied).
    pub fn ambient(&self) -> &AmbientProfile {
        &self.ambient
    }

    /// The non-default speaker every emission drives, if any.
    pub fn speaker(&self) -> Option<&Speaker> {
        self.speaker.as_ref()
    }

    /// Initial device names, `(cell, switch)`-indexed.
    pub fn device_names(&self) -> Vec<Vec<String>> {
        self.plan
            .cells()
            .iter()
            .map(|c| c.device_names.clone())
            .collect()
    }

    /// The acoustic fault script lowered onto a [`SceneFaultPlan`]
    /// seeded from the scenario seed. Network faults (`link_flap`) and
    /// `music` sources are handled elsewhere.
    pub fn scene_faults(&self) -> Result<SceneFaultPlan, ScenarioError> {
        let total = self.spec.total();
        let mut faults = SceneFaultPlan::new(self.spec.seed);
        for f in &self.spec.faults {
            let from = MS(f.at_ms);
            let until = f.until_ms.map(MS).unwrap_or(total);
            let window = Window::between(from, until);
            match f.kind.as_str() {
                "mic_dead" => {
                    let cell = f.cell.unwrap_or(0);
                    faults =
                        faults.mic_dead_at(self.plan.cells()[cell].mic_pos, f.radius_m, window);
                }
                "speaker_dropout" => {
                    let dev = f.device.clone().expect("validated");
                    faults = faults.speaker_dropout(dev, window);
                }
                "speaker_degraded" => {
                    let dev = f.device.clone().expect("validated");
                    faults = faults.speaker_degraded(dev, window, f.level_db.unwrap_or(0.0));
                }
                "noise_burst" => {
                    faults = faults.noise_burst(window, f.level_db.unwrap_or(BURST_SPL_DB));
                }
                // Handled by `add_music_sources` / `net_faults`.
                "music" | "link_flap" => {}
                other => {
                    return Err(ScenarioError::invalid(
                        "faults",
                        format!("unknown fault kind `{other}`"),
                    ))
                }
            }
        }
        Ok(faults)
    }

    /// Mix each `music` fault into `scene` as a positional source near
    /// the target cell's microphone: the scripted notes cycled at
    /// `tempo_bpm` for the fault window — §3's "music playback is
    /// in-band interference" case, reproduced literally.
    pub fn add_music_sources(&self, scene: &mut Scene) {
        let total = self.spec.total();
        for f in self.spec.faults.iter().filter(|f| f.kind == "music") {
            let cell = f.cell.unwrap_or(0);
            let mic = self.plan.cells()[cell].mic_pos;
            let pos = Pos::new(mic.x + 0.5, mic.y + 0.5, mic.z);
            let start = MS(f.at_ms);
            let until = f.until_ms.map(MS).unwrap_or(total);
            let span = until.saturating_sub(start);
            let amp = spl_to_amplitude(f.level_db.unwrap_or(MUSIC_SPL_DB));
            let note = Duration::from_secs_f64(60.0 / f.tempo_bpm);
            let mut seq = Vec::new();
            let mut at = Duration::ZERO;
            let mut i = 0usize;
            while at < span {
                let len = note.min(span - at);
                seq.push((at, Tone::new(f.notes[i % f.notes.len()], len, amp)));
                at += note;
                i += 1;
            }
            let signal = render_sequence(&seq, self.spec.sample_rate);
            scene.add(pos, start, signal, format!("music-c{cell}"));
        }
    }

    /// The persistent scene: ambient bed seeded from the scenario seed,
    /// the acoustic fault script, and any music sources — pre-added up
    /// front so the batch and event-driven paths mix identical bytes.
    pub fn scene(&self, registry: Option<&Registry>) -> Result<Scene, ScenarioError> {
        let mut scene = Scene::new(self.spec.sample_rate, self.ambient.clone());
        scene.set_ambient_seed(self.spec.seed);
        scene.set_faults(self.scene_faults()?);
        self.add_music_sources(&mut scene);
        if let Some(reg) = registry {
            scene.attach_obs(reg);
        }
        Ok(scene)
    }

    /// The self-heal controller over the planned hall, threaded per the
    /// spec.
    pub fn heal(&self) -> SelfHealingController {
        let mut heal = SelfHealingController::with_config(
            self.plan.clone(),
            self.spec.selfheal.config.clone(),
        );
        heal.sharded_mut().set_threads(self.spec.selfheal.threads);
        heal
    }

    /// The network side: topology, flow rules, CBR generators, and the
    /// scripted `link_flap` faults as `(at, fault)` pairs for the loop.
    fn network(&self, registry: &Registry) -> Result<NetworkParts, ScenarioError> {
        let spec = &self.spec;
        let t = &spec.traffic;
        let total = spec.total();
        let mut net = Network::new();
        net.attach_obs(registry);
        let mut scripted = Vec::new();
        let mut pair_switch = None;

        match t.topology.as_str() {
            "none" => {}
            "pair" => {
                // h1 —(p0)— s —(p1)— h2: the equivalence/controller idiom.
                let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
                let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
                let s = net.add_switch("s", 2);
                let latency = Duration::from_micros(t.latency_us);
                net.connect(h1, 0, s, 0, t.leaf_bw, latency);
                net.connect(h2, 0, s, 1, t.leaf_bw, latency);
                if spec.controller.enabled {
                    // Empty table: every miss crosses a real TcpStream to
                    // the learning switch; CBR both ways so it learns both
                    // ports.
                    let fwd = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 40_000, Ip::v4(10, 0, 0, 2), 80);
                    for (host, flow) in [(h1, fwd), (h2, fwd.reversed())] {
                        net.attach_generator(
                            host,
                            TrafficPattern::Cbr {
                                flow,
                                pps: t.pps,
                                size: t.size,
                                start: Duration::ZERO,
                                stop: total,
                            },
                        );
                    }
                } else {
                    net.install_rule(
                        s,
                        Rule {
                            mat: Match::ANY,
                            priority: 0,
                            action: Action::Forward(1),
                        },
                    );
                    net.attach_generator(
                        h1,
                        TrafficPattern::Cbr {
                            flow: FlowKey::udp(
                                Ip::v4(10, 0, 0, 1),
                                7000,
                                Ip::v4(10, 0, 0, 2),
                                8000,
                            ),
                            pps: t.pps,
                            size: t.size,
                            start: Duration::ZERO,
                            stop: total,
                        },
                    );
                }
                pair_switch = Some(s);
            }
            "leaf_spine" => {
                let topo = leaf_spine(
                    &mut net,
                    t.spines,
                    t.leaves,
                    1,
                    t.leaf_bw,
                    t.spine_bw,
                    Duration::from_micros(t.latency_us),
                );
                let uplinks: Vec<usize> = (0..t.spines).map(|s| topo.uplink_port(s)).collect();
                for l in 0..t.leaves {
                    // Local host, then flow-hash ECMP up the spines.
                    net.install_rule(
                        topo.leaves[l],
                        Rule {
                            mat: Match::dst(topo.host_ip(l, 0)),
                            priority: 10,
                            action: Action::Forward(0),
                        },
                    );
                    net.install_rule(
                        topo.leaves[l],
                        Rule {
                            mat: Match::ANY,
                            priority: 0,
                            action: Action::SplitByFlow(uplinks.clone()),
                        },
                    );
                    // Exact host routes on every spine (spine port l faces leaf l).
                    for s in 0..t.spines {
                        net.install_rule(
                            topo.spines[s],
                            Rule {
                                mat: Match::dst(topo.host_ip(l, 0)),
                                priority: 10,
                                action: Action::Forward(l),
                            },
                        );
                    }
                }
                for l in 0..t.leaves {
                    let dst = (l + t.leaves / 2) % t.leaves;
                    net.attach_generator(
                        topo.host(l, 0),
                        TrafficPattern::Cbr {
                            flow: FlowKey::udp(
                                topo.host_ip(l, 0),
                                7000,
                                topo.host_ip(dst, 0),
                                8000,
                            ),
                            pps: t.pps,
                            size: t.size,
                            // Stagger within one inter-packet gap.
                            start: MS(l as u64 % t.stagger_ms.max(1)),
                            stop: total,
                        },
                    );
                }
                // A leaf's one CBR flow hashes onto a single uplink and
                // inbound traffic picks its spine at the source leaf, so
                // flapping one member link would usually carry no traffic
                // at all: a scripted flap takes the whole bundle down.
                for f in spec.faults.iter().filter(|f| f.kind == "link_flap") {
                    let leaf = f.leaf.expect("validated");
                    for &up in &uplinks {
                        let link = net.link_at(topo.leaves[leaf], up).expect("uplink wired");
                        scripted.push((MS(f.at_ms), NetFault::LinkDown(link)));
                        scripted.push((MS(f.until_ms.expect("validated")), NetFault::LinkUp(link)));
                    }
                }
            }
            other => {
                return Err(ScenarioError::invalid(
                    "traffic.topology",
                    format!("unknown topology `{other}`"),
                ))
            }
        }
        Ok((net, scripted, pair_switch))
    }

    /// Assemble the whole experiment: scene, heal loop, fabric, scripted
    /// faults, app wakeups, optional controller, and the
    /// [`UnifiedLoop`] wired for tracing and scene GC.
    pub fn build(&self, registry: &Registry) -> Result<BuiltScenario, ScenarioError> {
        let spec = &self.spec;
        let scene = self.scene(Some(registry))?;
        let mut heal = self.heal();
        heal.attach_obs(registry);
        let (net, scripted, pair_switch) = self.network(registry)?;

        let mut lp = UnifiedLoop::try_new(net, scene, heal, spec.window())?;
        lp.attach_trace(&registry.trace());
        if spec.hall.gc {
            // Worst-case propagation across the hall (one cell pitch per
            // cell) plus margin: the GC bound that keeps windows
            // byte-identical.
            let hall_m = spec.hall.cell.cell_pitch_m * spec.hall.cells as f64 + 10.0;
            lp.set_retire_delay_bound(Some(Duration::from_secs_f64(hall_m / 343.0 + 0.1)));
        }
        lp.set_speaker(self.speaker.clone());
        for (at, fault) in scripted {
            lp.schedule_fault(at, fault);
        }
        for app in &spec.apps {
            lp.schedule_app(MS(app.at_ms), app.token);
        }

        let agent = spec.controller.enabled.then(|| {
            let sw = pair_switch.expect("controller requires the pair topology");
            OfAgent::attach(lp.net_mut(), sw, Box::new(LearningSwitch::new()))
        });

        Ok(BuiltScenario {
            lp,
            names: self.device_names(),
            switches_per_cell: spec.hall.cell.switches_per_cell,
            slots_per_switch: spec.hall.cell.slots_per_switch,
            agent,
            pair_switch,
        })
    }
}
