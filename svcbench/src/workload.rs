//! The three workloads: fleet shape, detector factory and the recorded
//! traces each robot replays.

use std::collections::HashMap;
use std::sync::Arc;

use roboads::control::{Mission, Path};
use roboads::core::{
    ActivationPolicy, DecisionDigest, DetectionReport, ModeSet, RecorderConfig, RoboAds,
    RoboAdsConfig, RobotFactory, ShardConfig,
};
use roboads::linalg::Vector;
use roboads::models::{presets, RobotSystem};
use roboads::obs::Telemetry;
use roboads::sim::{evaluate, EvalResult, Scenario, SimulationBuilder, Trace, TraceRecord};

use crate::measure::splitmix64;

/// Ticks per session: every Table II scenario runs for 200 iterations.
pub const TICKS: usize = 200;

/// How a workload's frames reach the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Encoded frames over a Unix-domain connection into `pump`.
    Wire,
    /// `ShardedFleet::offer`/`offer_input`/`step` called directly, with
    /// a health board observed and rendered every tick.
    InProcess,
}

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Model-signature groups (robot `i` is in group `i % groups`).
    pub groups: usize,
    pub snapshot_period: u64,
    /// Complete 7-mode bank with the lazy top-k schedule, instead of the
    /// paper's default bank run in full.
    pub lazy: bool,
    pub recorder: RecorderConfig,
    pub feed: Feed,
    /// Expected share of robots on the slab path (the shape check).
    pub slab_share: f64,
    /// Expected slab groups across the fleet.
    pub slab_groups: usize,
    /// The scenario each distinct trace replays, in trace order.
    pub scenarios: Vec<Scenario>,
    /// The distinct trace robot `i` replays, one entry per robot.
    pub trace_of: Vec<usize>,
    /// The shape check: the first session must seal an incident capsule.
    pub seals_capsules: bool,
}

pub const WORKLOADS: [&str; 3] = ["slab_256", "mixed_lazy_64", "service_churn_32"];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        // The ring covers a whole session, so every served tick's
        // decision is still in it when the session ends. (The default
        // ring preallocates 1024 slots per robot, five sessions' worth,
        // and every session builds a fresh fleet.)
        let session_ring = RecorderConfig {
            capacity: TICKS,
            ..RecorderConfig::default()
        };
        let attacks = |n: usize| -> Vec<Scenario> {
            Scenario::all_khepera()
                .into_iter()
                .cycle()
                .take(n)
                .collect()
        };
        Some(match name {
            "slab_256" => Spec {
                groups: 1,
                snapshot_period: 64,
                lazy: false,
                recorder: session_ring,
                feed: Feed::Wire,
                slab_share: 1.0,
                slab_groups: 1,
                // All twelve Table II rows round-robin in 64 traces;
                // each trace is replayed by four robots.
                scenarios: std::iter::once(Scenario::clean())
                    .chain(Scenario::all_khepera())
                    .cycle()
                    .take(64)
                    .collect(),
                trace_of: (0..256).map(|i| i % 64).collect(),
                seals_capsules: false,
            },
            "mixed_lazy_64" => Spec {
                groups: 16,
                snapshot_period: 64,
                lazy: true,
                recorder: session_ring,
                feed: Feed::Wire,
                slab_share: 0.0,
                slab_groups: 0,
                // Forty-eight clean traces, then sixteen attack traces.
                scenarios: std::iter::repeat_n(Scenario::clean(), 48)
                    .chain(attacks(16))
                    .collect(),
                // Every fourth robot replays an attack, the rest a clean
                // trace of their own.
                trace_of: (0..64)
                    .map(|i| {
                        if i % 4 == 3 {
                            48 + i / 4
                        } else {
                            i - (i + 1) / 4
                        }
                    })
                    .collect(),
                seals_capsules: false,
            },
            "service_churn_32" => Spec {
                groups: 2,
                snapshot_period: 8,
                lazy: false,
                // A short ring: alarms seal small capsules often.
                recorder: RecorderConfig {
                    capacity: 16,
                    pre: 8,
                    post: 4,
                    dt: 0.1,
                },
                feed: Feed::InProcess,
                slab_share: 1.0,
                slab_groups: 2,
                // The eleven attacks only, round-robin.
                scenarios: attacks(32),
                trace_of: (0..32).collect(),
                seals_capsules: true,
            },
            _ => return None,
        })
    }

    pub fn config(&self) -> RoboAdsConfig {
        let config = RoboAdsConfig::paper_defaults();
        if self.lazy {
            config.with_activation(ActivationPolicy::lazy_defaults())
        } else {
            config
        }
    }

    pub fn modes(&self, system: &RobotSystem) -> ModeSet {
        if self.lazy {
            ModeSet::complete(system)
        } else {
            ModeSet::one_reference_per_sensor(system)
        }
    }
}

/// One shard stepped on one thread. On a shared two-vCPU host a tick
/// stepped on two threads waits for the slower vCPU, and its time
/// varied from run to run beyond any usable regression bound: with
/// two shards (`ShardedFleet::step` spawns a thread per shard every
/// tick) on `mixed_lazy_64`, and with a 2-thread pool on
/// `service_churn_32` (README.md).
pub fn shard_config(snapshot_period: u64) -> ShardConfig {
    ShardConfig {
        shards: 1,
        threads_per_shard: 1,
        snapshot_period,
        steal_margin: 0,
    }
}

/// The evaluation mission's planned path (planned once per set-up:
/// every simulation of a run follows it).
pub fn evaluation_path() -> Path {
    Mission::evaluation_default()
        .plan(&presets::evaluation_arena(), 0.08)
        .expect("the evaluation mission plans")
}

/// The evaluation mission's start state, exactly as the simulation
/// runner builds it.
pub fn evaluation_x0(path: &Path) -> Vector {
    let (sx, sy) = path.waypoints()[0];
    let (lx, ly) = path.lookahead_point(sx, sy, 0.25);
    Vector::from_slice(&[sx, sy, (ly - sy).atan2(lx - sx)])
}

/// One recorded trace with what the checks need from it.
pub struct Recorded {
    pub scenario: Scenario,
    /// The frames the robot sends. The records' reports are blank: the
    /// reference decisions are kept as digests.
    pub trace: Trace,
    /// The reference decision at every tick.
    pub digests: Vec<DecisionDigest>,
    /// The reference report of the last tick.
    pub last: DetectionReport,
    /// The reference decisions evaluated against the ground truth.
    pub eval: EvalResult,
}

/// Simulates the workload's distinct traces from `seed`, on one thread
/// (split over two, `setup_s` waited for the slower vCPU, as the ticks
/// did: see `shard_config`).
///
/// The reference decisions come from a standalone detector, built like
/// the fleet's, stepped in process on exactly the frames the trace will
/// send. (The simulation's own detector saw the command after the bus's
/// fixed-point round trip, not the planned command the trace carries;
/// its output is discarded, so it runs the paper's default bank.)
pub fn simulate(spec: &Spec, seed: u64, path: &Path, x0: &Vector) -> Vec<Recorded> {
    let scenarios = &spec.scenarios;
    let system = presets::khepera_system();
    let one = |j: usize| {
        let scenario = scenarios[j].clone();
        let simulated = SimulationBuilder::khepera()
            .scenario(scenario.clone())
            .seed(splitmix64(seed ^ splitmix64(j as u64)))
            .path(path.clone())
            .duration(TICKS)
            .run()
            .expect("Table II scenarios simulate")
            .trace;
        let mut detector = RoboAds::new(
            presets::khepera_system(),
            spec.config(),
            x0.clone(),
            spec.modes(&system),
        )
        .expect("reference detector builds");
        let mut replayed = Trace::new(simulated.dt(), simulated.scenario_name());
        let mut trace = Trace::new(simulated.dt(), simulated.scenario_name());
        let mut digests = Vec::with_capacity(TICKS);
        for record in simulated.records() {
            let report = detector
                .step(&record.planned_command, &record.readings)
                .expect("the reference detector steps every recorded tick");
            digests.push(DecisionDigest::of(&report));
            replayed.push(TraceRecord {
                report,
                ..record.clone()
            });
            trace.push(TraceRecord {
                report: DetectionReport::blank(),
                ..record.clone()
            });
        }
        let eval = evaluate(&replayed, &scenario.ground_truth());
        let last = replayed.records()[TICKS - 1].report.clone();
        Recorded {
            scenario,
            trace,
            digests,
            last,
            eval,
        }
    };
    (0..scenarios.len()).map(one).collect()
}

/// The detector factory: signature group `i % groups` shares one model
/// set, so each group is one slab group. `telemetry` is attached to
/// every detector (a disabled context outside traced runs).
pub fn factory(spec: &Spec, ids: &[u64], x0: &Vector, telemetry: Telemetry) -> RobotFactory {
    let systems: Vec<RobotSystem> = (0..spec.groups)
        .map(|_| presets::khepera_system())
        .collect();
    let index: HashMap<u64, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let (config, x0, recorder) = (spec.config(), x0.clone(), spec.recorder);
    let modes = spec.modes(&systems[0]);
    let groups = spec.groups;
    Arc::new(move |id| {
        let i = index[&id];
        let system = systems[i % groups].clone();
        let mut detector = RoboAds::new(system, config.clone(), x0.clone(), modes.clone())?
            .with_recorder(recorder);
        detector.set_telemetry(telemetry.clone());
        Ok(detector)
    })
}

/// Robot ids drawn from `seed`: scattered 64-bit ids, as a real fleet
/// would have.
pub fn robot_ids(spec: &Spec, seed: u64) -> Vec<u64> {
    (0..spec.trace_of.len() as u64)
        .map(|n| splitmix64(seed.wrapping_mul(0x1_0000_0001) ^ splitmix64(n)))
        .collect()
}
