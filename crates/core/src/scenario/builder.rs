//! Lowering a validated [`ScenarioSpec`] into runnable parts.
//!
//! [`ScenarioBuilder::new`] parses the spec into typed choices and runs
//! the cell planner (so planner-level rejections — capacity, reuse
//! safety, slots outside the speaker band, speaker faults naming a switch
//! the hall lacks — surface as typed errors here); [`ScenarioBuilder::build`]
//! assembles the full experiment: scene with faults and music sources,
//! self-heal controller, network fabric with traffic and scripted link
//! faults, an optional in-process OpenFlow controller, and the
//! [`UnifiedLoop`] that drives all of it — the setup the soak bench, the
//! chaos/equivalence tests and the obs examples used to each hand-roll.

use super::spec::{Fault, Parsed, ScenarioError, ScenarioSpec, Topology};
use crate::cells::CellPlan;
use crate::eventloop::UnifiedLoop;
use crate::ofbridge::OfAgent;
use crate::selfheal::SelfHealingController;
use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::faults::SceneFaultPlan;
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
/// `pair` topology's switch with whether the controller drives it.
type NetworkParts = (Network, Vec<(Duration, NetFault)>, Option<(NodeId, bool)>);

const MS: fn(u64) -> Duration = Duration::from_millis;

/// Everything [`super::run()`] needs to drive one scenario.
pub struct BuiltScenario {
    /// The unified event loop over both worlds, ready to step.
    pub lp: UnifiedLoop,
    /// Initial device names, `(cell, switch)`-indexed; names persist
    /// across replans.
    pub names: Vec<Vec<String>>,
    /// The OpenFlow agent, when `controller.enabled`.
    pub agent: Option<OfAgent>,
    /// The `pair` topology's switch, for post-run table inspection.
    pub pair_switch: Option<NodeId>,
}

/// A spec checked against both the structural rules and the cell
/// planner, ready to lower.
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
    parsed: Parsed,
    plan: CellPlan,
}

impl ScenarioBuilder {
    /// Parse `spec` and run the cell planner. This is the full
    /// rejection gate: anything that returns `Ok` here can be built.
    pub fn new(spec: &ScenarioSpec) -> Result<Self, ScenarioError> {
        let parsed = spec.parse()?;
        let mut cfg = spec.hall.cell.clone();
        // `cheap` is the default testbed hardware: the planner's default
        // band already models it, and the loop's default speaker drives
        // it. §8 ultrasound-capable hardware widens the planner's band.
        if let Some(speaker) = &parsed.speaker {
            cfg.speaker_band = speaker.band;
        }
        let plan = CellPlan::plan(spec.hall.cells, std::slice::from_ref(&parsed.ambient), cfg)?;
        for (i, f) in parsed.faults.iter().enumerate() {
            let (Fault::SpeakerDropout { device, .. } | Fault::SpeakerDegraded { device, .. }) = f
            else {
                continue;
            };
            if plan.find_device(device).is_none() {
                return Err(ScenarioError::invalid(
                    format!("faults[{i}]"),
                    format!("no switch `{device}` in the planned hall"),
                ));
            }
        }
        Ok(Self {
            spec: spec.clone(),
            parsed,
            plan,
        })
    }

    /// The typed choices the spec's strings name.
    pub(crate) fn parsed(&self) -> &Parsed {
        &self.parsed
    }

    /// The planned hall.
    pub fn plan(&self) -> &CellPlan {
        &self.plan
    }

    /// The resolved ambient bed (SPL override applied).
    pub fn ambient(&self) -> &AmbientProfile {
        &self.parsed.ambient
    }

    /// The non-default speaker every emission drives, if any.
    pub fn speaker(&self) -> Option<&Speaker> {
        self.parsed.speaker.as_ref()
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
    pub fn scene_faults(&self) -> SceneFaultPlan {
        let mut plan = SceneFaultPlan::new(self.spec.seed);
        for f in &self.parsed.faults {
            plan = match f {
                Fault::MicDead {
                    cell,
                    radius_m,
                    window,
                } => plan.mic_dead_at(self.plan.cells()[*cell].mic_pos, *radius_m, *window),
                Fault::SpeakerDropout { device, window } => {
                    plan.speaker_dropout(device.clone(), *window)
                }
                Fault::SpeakerDegraded {
                    device,
                    window,
                    atten_db,
                } => plan.speaker_degraded(device.clone(), *window, *atten_db),
                Fault::NoiseBurst { window, spl_db } => plan.noise_burst(*window, *spl_db),
                Fault::Music { .. } | Fault::LinkFlap { .. } => plan,
            };
        }
        plan
    }

    /// Mix each `music` fault into `scene` as a positional source near
    /// the target cell's microphone: the scripted notes cycled at
    /// `tempo_bpm` for the fault window — §3's "music playback is
    /// in-band interference" case, reproduced literally.
    pub fn add_music_sources(&self, scene: &mut Scene) {
        for f in &self.parsed.faults {
            let &Fault::Music {
                cell,
                window,
                spl_db,
                note,
                ref notes,
            } = f
            else {
                continue;
            };
            let mic = self.plan.cells()[cell].mic_pos;
            let pos = Pos::new(mic.x + 0.5, mic.y + 0.5, mic.z);
            let amp = spl_to_amplitude(spl_db);
            let mut seq = Vec::new();
            let mut at = Duration::ZERO;
            let mut i = 0usize;
            while at < window.len {
                let len = note.min(window.len - at);
                seq.push((at, Tone::new(notes[i % notes.len()], len, amp)));
                at += note;
                i += 1;
            }
            let signal = render_sequence(&seq, self.spec.sample_rate);
            scene.add(pos, window.from, signal, format!("music-c{cell}"));
        }
    }

    /// The persistent scene: ambient bed seeded from the scenario seed,
    /// the acoustic fault script, and any music sources — pre-added up
    /// front so the batch and event-driven paths mix identical bytes.
    pub fn scene(&self, registry: Option<&Registry>) -> Result<Scene, ScenarioError> {
        let mut scene = Scene::new(self.spec.sample_rate, self.parsed.ambient.clone());
        scene.set_ambient_seed(self.spec.seed);
        scene.set_faults(self.scene_faults());
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
    fn network(&self, registry: &Registry) -> NetworkParts {
        let t = &self.spec.traffic;
        let total = self.spec.total();
        let mut net = Network::new();
        net.attach_obs(registry);
        let mut scripted = Vec::new();
        let mut pair = None;
        // Every host sends one constant-rate flow from `start` to the
        // horizon; every table entry is a plain rule.
        let cbr = |flow, start| TrafficPattern::Cbr {
            flow,
            pps: t.pps,
            size: t.size,
            start,
            stop: total,
        };
        let rule = |mat, priority, action| Rule {
            mat,
            priority,
            action,
        };

        match self.parsed.topology {
            Topology::None => {}
            Topology::Pair { controller } => {
                // h1 —(p0)— s —(p1)— h2: the equivalence/controller idiom.
                let (ip1, ip2) = (Ip::v4(10, 0, 0, 1), Ip::v4(10, 0, 0, 2));
                let h1 = net.add_host("h1", ip1);
                let h2 = net.add_host("h2", ip2);
                let s = net.add_switch("s", 2);
                let latency = Duration::from_micros(t.latency_us);
                net.connect(h1, 0, s, 0, t.leaf_bw, latency);
                net.connect(h2, 0, s, 1, t.leaf_bw, latency);
                if controller {
                    // Empty table: every miss crosses a real TcpStream to
                    // the learning switch; CBR both ways so it learns both
                    // ports.
                    let fwd = FlowKey::tcp(ip1, 40_000, ip2, 80);
                    for (host, flow) in [(h1, fwd), (h2, fwd.reversed())] {
                        net.attach_generator(host, cbr(flow, Duration::ZERO));
                    }
                } else {
                    net.install_rule(s, rule(Match::ANY, 0, Action::Forward(1)));
                    let flow = FlowKey::udp(ip1, 7000, ip2, 8000);
                    net.attach_generator(h1, cbr(flow, Duration::ZERO));
                }
                pair = Some((s, controller));
            }
            Topology::LeafSpine { spines, leaves } => {
                let topo = leaf_spine(
                    &mut net,
                    spines,
                    leaves,
                    1,
                    t.leaf_bw,
                    t.spine_bw,
                    Duration::from_micros(t.latency_us),
                );
                let uplinks: Vec<usize> = (0..spines).map(|s| topo.uplink_port(s)).collect();
                for l in 0..leaves {
                    // Local host, then flow-hash ECMP up the spines.
                    let host = Match::dst(topo.host_ip(l, 0));
                    net.install_rule(topo.leaves[l], rule(host, 10, Action::Forward(0)));
                    let ecmp = Action::SplitByFlow(uplinks.clone());
                    net.install_rule(topo.leaves[l], rule(Match::ANY, 0, ecmp));
                    // Exact host routes on every spine (spine port l faces leaf l).
                    for s in 0..spines {
                        net.install_rule(topo.spines[s], rule(host, 10, Action::Forward(l)));
                    }
                }
                for l in 0..leaves {
                    let dst = (l + leaves / 2) % leaves;
                    let flow = FlowKey::udp(topo.host_ip(l, 0), 7000, topo.host_ip(dst, 0), 8000);
                    // Stagger within one inter-packet gap.
                    let start = MS(l as u64 % t.stagger_ms.max(1));
                    net.attach_generator(topo.host(l, 0), cbr(flow, start));
                }
                // A leaf's one CBR flow hashes onto a single uplink and
                // inbound traffic picks its spine at the source leaf, so
                // flapping one member link would usually carry no traffic
                // at all: a scripted flap takes the whole bundle down.
                for f in &self.parsed.faults {
                    let &Fault::LinkFlap { leaf, window } = f else {
                        continue;
                    };
                    for &up in &uplinks {
                        #[allow(
                            clippy::expect_used,
                            reason = "leaf_spine wires every leaf's uplink ports"
                        )]
                        let link = net.link_at(topo.leaves[leaf], up).expect("uplink wired");
                        scripted.push((window.from, NetFault::LinkDown(link)));
                        scripted.push((window.end(), NetFault::LinkUp(link)));
                    }
                }
            }
        }
        (net, scripted, pair)
    }

    /// Assemble the whole experiment: scene, heal loop, fabric, scripted
    /// faults, app wakeups, optional controller, and the
    /// [`UnifiedLoop`] wired for tracing and scene GC.
    pub fn build(&self, registry: &Registry) -> Result<BuiltScenario, ScenarioError> {
        let spec = &self.spec;
        let scene = self.scene(Some(registry))?;
        let mut heal = self.heal();
        heal.attach_obs(registry);
        let (net, scripted, pair) = self.network(registry);

        let mut lp = UnifiedLoop::try_new(net, scene, heal, spec.window())?;
        lp.attach_trace(&registry.trace());
        if spec.hall.gc {
            // Worst-case propagation across the hall (one cell pitch per
            // cell) plus margin: the GC bound that keeps windows
            // byte-identical.
            let hall_m = spec.hall.cell.cell_pitch_m * spec.hall.cells as f64 + 10.0;
            lp.set_retire_delay_bound(Some(Duration::from_secs_f64(hall_m / 343.0 + 0.1)));
        }
        lp.set_speaker(self.parsed.speaker.clone());
        for (at, fault) in scripted {
            lp.schedule_fault(at, fault);
        }
        for app in &spec.apps {
            lp.schedule_app(MS(app.at_ms), app.token);
        }

        let agent = match pair {
            Some((sw, true)) => Some(OfAgent::attach(
                lp.net_mut(),
                sw,
                Box::new(LearningSwitch::new()),
            )),
            Some((_, false)) | None => None,
        };

        Ok(BuiltScenario {
            lp,
            names: self.device_names(),
            agent,
            pair_switch: pair.map(|(sw, _)| sw),
        })
    }
}
