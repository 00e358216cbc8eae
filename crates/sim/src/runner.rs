use roboads_stats::{SeedableRng, StdRng};

use roboads_control::{
    BicycleTracker, DifferentialDriveTracker, Mission, Path, TrackingController,
};
use roboads_core::baseline::LinearizedOnceDetector;
use roboads_core::{
    DeadlinePolicy, DetectionReport, IncidentCapsule, ModeSet, RecorderConfig, RoboAds,
    RoboAdsConfig,
};
use roboads_linalg::Vector;
use roboads_models::sensors::WheelEncoderOdometry;
use roboads_models::{presets, Pose2, RobotSystem};

use roboads_obs::Telemetry;

use crate::attacks::{build_attacks, AttackSpec};
use crate::bus::{Bus, Frame, COMMAND_ID, SENSOR_ID_BASE};
use crate::eval::{evaluate, EvalResult};
use crate::platform::RobotPlatform;
use crate::scenario::Scenario;
use crate::telemetry::TelemetrySummary;
use crate::trace::{Trace, TraceRecord};
use crate::workflow::{ActuationWorkflow, SensingWorkflow};
use crate::{Result, SimError};

/// Which evaluation robot to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobotKind {
    /// Khepera III differential drive (IPS + wheel encoder + LiDAR).
    Khepera,
    /// Tamiya TT-02 bicycle model (IPS + IMU + LiDAR).
    Tamiya,
}

/// The result of a full simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-iteration records.
    pub trace: Trace,
    /// Evaluation against the scenario's ground truth.
    pub eval: EvalResult,
    /// The final iteration's detection report.
    pub report: DetectionReport,
    /// Detector-health summary condensed from the run's telemetry
    /// registry (step latency, per-mode distributions, failure counts).
    pub telemetry: TelemetrySummary,
    /// Incident capsules sealed by the flight recorder (empty unless
    /// [`SimulationBuilder::recorder`] was configured).
    pub capsules: Vec<IncidentCapsule>,
}

/// Builder wiring an arena, mission, tracker, workflows and the RoboADS
/// detector into one reproducible closed-loop run.
///
/// # Example
///
/// ```
/// use roboads_sim::{Scenario, SimulationBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = SimulationBuilder::khepera()
///     .scenario(Scenario::wheel_logic_bomb())
///     .seed(11)
///     .run()?;
/// assert!(outcome.eval.actuator_delay().unwrap() < 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    kind: RobotKind,
    scenario: Scenario,
    seed: u64,
    config: RoboAdsConfig,
    duration: Option<usize>,
    system: Option<RobotSystem>,
    mode_set: Option<ModeSet>,
    path_override: Option<Path>,
    use_linearized_baseline: bool,
    telemetry: Option<Telemetry>,
    recorder: Option<RecorderConfig>,
    attacks: Vec<AttackSpec>,
    frame_policy: DeadlinePolicy,
}

enum Detector {
    RoboAds(RoboAds),
    Baseline(LinearizedOnceDetector),
}

impl Detector {
    fn step(&mut self, u: &Vector, readings: &[Vector]) -> roboads_core::Result<DetectionReport> {
        match self {
            Detector::RoboAds(d) => d.step(u, readings),
            Detector::Baseline(d) => d.step(u, readings),
        }
    }

    fn record_tick(
        &mut self,
        stamp: u64,
        u: &Vector,
        readings: &[Vector],
        report: &DetectionReport,
    ) {
        if let Detector::RoboAds(d) = self {
            d.record_tick(stamp, u, readings, report);
        }
    }

    fn take_capsules(&mut self) -> Vec<IncidentCapsule> {
        if let Detector::RoboAds(d) = self {
            if let Some(recorder) = d.recorder_mut() {
                recorder.finish();
                return recorder.take_capsules();
            }
        }
        Vec::new()
    }
}

impl SimulationBuilder {
    /// Starts a Khepera run with paper-default configuration and a
    /// clean scenario.
    pub fn khepera() -> Self {
        SimulationBuilder {
            kind: RobotKind::Khepera,
            scenario: Scenario::clean(),
            seed: 0,
            config: RoboAdsConfig::paper_defaults(),
            duration: None,
            system: None,
            mode_set: None,
            path_override: None,
            use_linearized_baseline: false,
            telemetry: None,
            recorder: None,
            attacks: Vec::new(),
            frame_policy: DeadlinePolicy::HoldLast,
        }
    }

    /// Starts a Tamiya run.
    pub fn tamiya() -> Self {
        let mut b = SimulationBuilder::khepera();
        b.kind = RobotKind::Tamiya;
        b
    }

    /// Sets the scenario (attack/failure script).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the random seed for all noise and attack streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the detector configuration (used by the Fig. 7 sweeps).
    pub fn config(mut self, config: RoboAdsConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the run length in iterations (default: the scenario's).
    pub fn duration(mut self, iterations: usize) -> Self {
        self.duration = Some(iterations);
        self
    }

    /// Overrides the robot system (e.g. a quality-scaled sensor suite
    /// for the §V-E sweep).
    pub fn system(mut self, system: RobotSystem) -> Self {
        self.system = Some(system);
        self
    }

    /// Overrides the mode set (e.g. single-reference sets for Table IV).
    pub fn mode_set(mut self, mode_set: ModeSet) -> Self {
        self.mode_set = Some(mode_set);
        self
    }

    /// Overrides the mission path (e.g. the high-curvature perimeter
    /// loop the §V-G baseline comparison drives to exercise the
    /// nonlinearity).
    pub fn path(mut self, path: Path) -> Self {
        self.path_override = Some(path);
        self
    }

    /// Uses the linearize-once baseline detector of §V-G instead of
    /// RoboADS.
    pub fn linearized_baseline(mut self, yes: bool) -> Self {
        self.use_linearized_baseline = yes;
        self
    }

    /// Supplies the telemetry context threaded through the detector
    /// pipeline and the run loop. The default context has a disabled
    /// sink (spans/events vanish without reading the clock) but a live
    /// registry, so [`SimOutcome::telemetry`] is populated either way;
    /// pass one backed by a `RingBufferSink`/`WriterSink` to also
    /// capture spans and alarm events.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a flight recorder to the RoboADS detector: every tick's
    /// stamped inputs and decision digest are captured in a ring, and a
    /// confirmed alarm freezes a pre/post window into an
    /// [`IncidentCapsule`] (see [`SimOutcome::capsules`]). Ignored by
    /// the linearize-once baseline, which has no recorder hook.
    pub fn recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = Some(config);
        self
    }

    /// Registers a bus-level attack ([`crate::attacks`]), applied at
    /// the monitor seam — after every workflow published its frames,
    /// before the monitor decodes them. Attacks compose in
    /// registration order on the same bus, and draw from their own
    /// seeded RNG stream so adding one never perturbs the plant or
    /// sensor noise.
    pub fn bus_attack(mut self, spec: AttackSpec) -> Self {
        self.attacks.push(spec);
        self
    }

    /// Sets the monitor's missing-frame policy: what it does when no
    /// fresh frame for an arbitration id survived the tick (trashed,
    /// dropped, or only a stale-stamped replay present). The monitor
    /// consumes through the staleness-aware [`Bus::latest_fresh`] view,
    /// the standalone mirror of a fleet ingest deadline.
    ///
    /// * [`DeadlinePolicy::HoldLast`] (default) re-uses the last
    ///   consumed value for the missing id and keeps stepping the
    ///   detector — a frozen input is exactly what the detector should
    ///   flag.
    /// * [`DeadlinePolicy::MarkMissing`] freezes the detector: the step
    ///   is skipped and the previous tick's report re-used until fresh
    ///   frames return. It degrades to `HoldLast` on the very first
    ///   tick, when there is no previous report to freeze.
    pub fn frame_policy(mut self, policy: DeadlinePolicy) -> Self {
        self.frame_policy = policy;
        self
    }

    /// Executes the run.
    ///
    /// # Errors
    ///
    /// Propagates planning, detector-construction and stepping failures.
    pub fn run(self) -> Result<SimOutcome> {
        let system = match (&self.system, self.kind) {
            (Some(s), _) => s.clone(),
            (None, RobotKind::Khepera) => presets::khepera_system(),
            (None, RobotKind::Tamiya) => presets::tamiya_system(),
        };
        let arena = presets::evaluation_arena();
        let mission = Mission::evaluation_default();
        let path = match &self.path_override {
            Some(p) => p.clone(),
            None => mission.plan(&arena, 0.08)?,
        };

        // Face the initial lookahead point.
        let (sx, sy) = path.waypoints()[0];
        let (lx, ly) = path.lookahead_point(sx, sy, 0.25);
        let theta0 = (ly - sy).atan2(lx - sx);
        let x0 = Vector::from_slice(&[sx, sy, theta0]);

        let mut tracker: Box<dyn TrackingController> = match self.kind {
            RobotKind::Khepera => Box::new(DifferentialDriveTracker::new(
                path,
                presets::khepera_dynamics().wheel_base(),
                presets::CONTROL_PERIOD,
            )?),
            RobotKind::Tamiya => Box::new(BicycleTracker::new(
                path,
                presets::tamiya_dynamics().max_steer(),
                presets::CONTROL_PERIOD,
            )?),
        };

        let mode_set = self
            .mode_set
            .clone()
            .unwrap_or_else(|| ModeSet::one_reference_per_sensor(&system));
        let telemetry = self.telemetry.clone().unwrap_or_default();
        let mut detector = if self.use_linearized_baseline {
            Detector::Baseline(LinearizedOnceDetector::new(
                system.clone(),
                self.config.clone(),
                x0.clone(),
                mode_set,
            )?)
        } else {
            let mut ads = RoboAds::new(system.clone(), self.config.clone(), x0.clone(), mode_set)?
                .with_telemetry(telemetry.clone());
            if let Some(config) = self.recorder {
                ads.attach_recorder(config);
            }
            Detector::RoboAds(ads)
        };

        let misbehaviors = self.scenario.misbehaviors().to_vec();
        let mut sensing: Vec<SensingWorkflow> = (0..system.sensor_count())
            .map(|i| {
                let geometry = (system.sensor_name(i) == "wheel-encoder")
                    .then(WheelEncoderOdometry::khepera)
                    .transpose()
                    .map_err(SimError::from)?;
                SensingWorkflow::new(&system, i, &misbehaviors, geometry)
            })
            .collect::<Result<_>>()?;
        let mut actuation = ActuationWorkflow::new(&misbehaviors);
        let mut platform = RobotPlatform::new(&system, x0.clone())?;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let duration = self.duration.unwrap_or_else(|| self.scenario.duration());
        let dt = presets::CONTROL_PERIOD;
        let mut trace = Trace::new(dt, self.scenario.name());
        // The planner tracks the path using real-time IPS data (§V-A);
        // before the first reading it knows the initial pose.
        let mut controller_pose = Pose2::from_vector(&x0).expect("pose state");

        // Step latency is a metric, not a span: collected even with the
        // default disabled sink so the outcome summary always has it.
        let step_latency = telemetry.metrics().histogram("sim.step_latency_s");

        let mut bus = Bus::new();
        let (mut attacks, mut attack_rng) = build_attacks(&self.attacks, self.seed);
        // Hold-last state: before any frame for an id has ever been
        // consumed, the fallback is a zero reading of the right
        // dimension (the detector flags it; the run does not panic).
        let mut held_readings: Vec<Vector> = (0..system.sensor_count())
            .map(|i| Ok(Vector::zeros(system.sensor(i)?.dim())))
            .collect::<Result<_>>()?;
        let mut held_command = Vector::zeros(system.input_dim());
        for k in 0..duration {
            let _iter_span = telemetry.span("sim.iteration");
            let u_planned = tracker.command(&controller_pose);
            let (u_executed, d_a_true) = actuation.execute(k, &u_planned)?;
            platform.step(&system, &u_executed, &mut rng);

            // Workflows publish their readings on the communication bus
            // (Figure 1); the monitor decodes the freshest frame per
            // arbitration id. Data really round-trips through the
            // fixed-point frames.
            bus.clear();
            bus.begin_tick(k as u64);
            bus.publish(Frame::encode(COMMAND_ID, "planner", &u_planned));
            let mut d_s_true = Vec::with_capacity(sensing.len());
            for wf in &mut sensing {
                let (reading, anomaly) = wf.sense(&system, k, platform.state(), &mut rng)?;
                bus.publish(Frame::encode(
                    SENSOR_ID_BASE + wf.sensor_index() as u16,
                    system.sensor_name(wf.sensor_index()),
                    &reading,
                ));
                d_s_true.push(anomaly);
            }
            // Bus-level attacks sit between publish and decode: the
            // monitor seam of `crate::attacks`.
            for attack in &mut attacks {
                attack.apply(k, &mut bus, &mut attack_rng);
            }

            // The monitor consumes the staleness-aware fresh view; a
            // trashed/replayed id falls back per `DeadlinePolicy` instead
            // of panicking. With every frame on time this is the same
            // frame set `latest` would serve.
            let mut missing = false;
            let readings: Vec<Vector> = (0..system.sensor_count())
                .map(|i| match bus.latest_fresh(SENSOR_ID_BASE + i as u16) {
                    Some(frame) => {
                        held_readings[i] = frame.decode();
                        held_readings[i].clone()
                    }
                    None => {
                        missing = true;
                        held_readings[i].clone()
                    }
                })
                .collect();
            let u_monitored = match bus.latest_fresh(COMMAND_ID) {
                Some(frame) => {
                    held_command = frame.decode();
                    held_command.clone()
                }
                None => {
                    missing = true;
                    held_command.clone()
                }
            };

            let freeze = missing
                && self.frame_policy == DeadlinePolicy::MarkMissing
                && !trace.records().is_empty();
            let report = if freeze {
                // Frozen tick: the detector neither steps nor records —
                // the previous report stands until fresh frames return.
                trace.records().last().expect("non-empty").report.clone()
            } else {
                let step_started = std::time::Instant::now();
                let report = detector.step(&u_monitored, &readings)?;
                step_latency.record(step_started.elapsed().as_secs_f64());
                // Stamped with the bus tick so a capsule's timeline
                // matches the frames it was decoded from.
                detector.record_tick(k as u64, &u_monitored, &readings, &report);
                report
            };
            controller_pose = Pose2::from_vector(&readings[0]).expect("IPS readings carry a pose");

            trace.push(TraceRecord {
                k,
                time: (k + 1) as f64 * dt,
                true_state: platform.state().clone(),
                planned_command: u_planned,
                executed_command: u_executed,
                true_actuator_anomaly: d_a_true,
                readings,
                true_sensor_anomalies: d_s_true,
                report,
            });
        }

        let capsules = detector.take_capsules();
        let eval = evaluate(&trace, &self.scenario.ground_truth());
        let report =
            trace
                .records()
                .last()
                .map(|r| r.report.clone())
                .ok_or(SimError::InvalidParameter {
                    name: "duration",
                    value: "0".into(),
                })?;
        Ok(SimOutcome {
            trace,
            eval,
            report,
            telemetry: TelemetrySummary::from_registry(telemetry.metrics()),
            capsules,
        })
    }
}

/// A fresh, never-stepped RoboADS detector constructed exactly as
/// [`SimulationBuilder::run`] builds its own (same evaluation arena,
/// planned path, initial pose and default mode set) — the detector a
/// capsule replay needs: [`roboads_core::replay_capsule`] requires an
/// anchor-state twin of the recorded detector at birth.
///
/// # Errors
///
/// Propagates planning and detector-construction failures.
pub fn evaluation_detector(kind: RobotKind, config: &RoboAdsConfig) -> Result<RoboAds> {
    let system = match kind {
        RobotKind::Khepera => presets::khepera_system(),
        RobotKind::Tamiya => presets::tamiya_system(),
    };
    let arena = presets::evaluation_arena();
    let mission = Mission::evaluation_default();
    let path = mission.plan(&arena, 0.08)?;
    let (sx, sy) = path.waypoints()[0];
    let (lx, ly) = path.lookahead_point(sx, sy, 0.25);
    let theta0 = (ly - sy).atan2(lx - sx);
    let x0 = Vector::from_slice(&[sx, sy, theta0]);
    let mode_set = ModeSet::one_reference_per_sensor(&system);
    Ok(RoboAds::new(system, config.clone(), x0, mode_set)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_khepera_run_is_mostly_quiet() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(42)
            .run()
            .unwrap();
        assert_eq!(outcome.trace.len(), 200);
        assert!(
            outcome.eval.sensor_fpr() < 0.05,
            "fpr {}",
            outcome.eval.sensor_fpr()
        );
        assert!(outcome.eval.actuator_fpr() < 0.05);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            SimulationBuilder::khepera()
                .scenario(Scenario::ips_logic_bomb())
                .seed(seed)
                .duration(80)
                .run()
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(
            a.trace.records()[79].true_state,
            b.trace.records()[79].true_state
        );
        assert_eq!(a.report.misbehaving_sensors, b.report.misbehaving_sensors);
        let c = run(10);
        assert_ne!(
            a.trace.records()[79].true_state,
            c.trace.records()[79].true_state
        );
    }

    #[test]
    fn ips_spoofing_is_detected_and_identified() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(7)
            .run()
            .unwrap();
        assert_eq!(outcome.report.misbehaving_sensors, vec![0]);
        let delay = outcome.eval.sensor_delay().expect("should detect");
        assert!(delay < 1.0, "delay {delay}");
        assert!(outcome.eval.sensor_fnr() < 0.1);
    }

    #[test]
    fn wheel_logic_bomb_raises_actuator_alarm() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::wheel_logic_bomb())
            .seed(13)
            .run()
            .unwrap();
        assert!(outcome.report.actuator_alarm);
        assert!(outcome.eval.actuator_delay().unwrap() < 1.5);
        assert!(outcome.eval.actuator_fnr() < 0.15);
    }

    #[test]
    fn tamiya_runs_with_distinct_dynamics() {
        let outcome = SimulationBuilder::tamiya()
            .scenario(Scenario::tamiya_ips_spoofing())
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(outcome.report.misbehaving_sensors, vec![0]);
    }

    /// The bugfix pin: routing consumption through `latest_fresh` plus
    /// a hold-last/missing policy is *bitwise* invisible when every
    /// frame arrives on time — both policies reproduce the same trace,
    /// because neither ever fires.
    #[test]
    fn frame_policies_are_bitwise_invisible_when_all_frames_arrive() {
        let run = |policy| {
            SimulationBuilder::khepera()
                .scenario(Scenario::ips_spoofing())
                .seed(11)
                .duration(60)
                .frame_policy(policy)
                .run()
                .unwrap()
        };
        let hold = run(DeadlinePolicy::HoldLast);
        let mark = run(DeadlinePolicy::MarkMissing);
        for (a, b) in hold.trace.records().iter().zip(mark.trace.records()) {
            assert_eq!(a.readings, b.readings, "step {}", a.k);
            assert_eq!(a.report, b.report, "step {}", a.k);
        }
    }

    /// The old consumption path panicked on the first trashed frame
    /// ("every workflow published"); now a frame-trashing run completes,
    /// holds the last reading, and the detector indicts the frozen
    /// sensor.
    #[test]
    fn frame_trashing_holds_last_and_still_detects() {
        use crate::attacks::{AttackKind, AttackSpec};
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(5)
            .bus_attack(AttackSpec::new(
                AttackKind::FrameTrash,
                0,
                0.0,
                60,
                Some(60),
            ))
            .run()
            .unwrap();
        let records = outcome.trace.records();
        // Held: the IPS reading freezes at its last authentic value.
        assert_eq!(records[60].readings[0], records[59].readings[0]);
        assert_eq!(records[90].readings[0], records[59].readings[0]);
        // A frozen pose on a moving robot is an indictable anomaly.
        assert!(
            records[60..120]
                .iter()
                .any(|r| r.report.misbehaving_sensors.contains(&0)),
            "frozen IPS should be identified"
        );
        // After the window the authentic stream resumes.
        assert_ne!(records[121].readings[0], records[59].readings[0]);
    }

    /// Under `MarkMissing` the detector freezes instead: no new reports
    /// are produced while frames are missing.
    #[test]
    fn mark_missing_freezes_the_report_stream() {
        use crate::attacks::{AttackKind, AttackSpec};
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(5)
            .duration(100)
            .frame_policy(DeadlinePolicy::MarkMissing)
            .bus_attack(AttackSpec::new(
                AttackKind::FrameTrash,
                0,
                0.0,
                40,
                Some(20),
            ))
            .run()
            .unwrap();
        let records = outcome.trace.records();
        for k in 40..60 {
            assert_eq!(
                records[k].report, records[39].report,
                "report not frozen at {k}"
            );
        }
        assert_ne!(records[60].report.iteration, records[39].report.iteration);
    }

    #[test]
    fn zero_duration_is_an_error() {
        let r = SimulationBuilder::khepera().duration(0).run();
        assert!(r.is_err());
    }

    #[test]
    fn outcome_telemetry_summarizes_the_run() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(1)
            .duration(40)
            .run()
            .unwrap();
        let t = &outcome.telemetry;
        assert_eq!(t.steps, 40);
        assert_eq!(t.step_latency.count, 40);
        assert!(t.step_latency.p50 > 0.0);
        assert!(t.step_latency.p99 >= t.step_latency.p50);
        assert_eq!(t.modes.len(), 3, "one hypothesis per sensor");
        assert_eq!(t.numeric_failures, 0);
        // Per-mode histograms sample 1-in-16 commits (first commit
        // included): 40 iterations sample commits 1, 17 and 33.
        assert_eq!(t.modes[0].probability.count, 3);
        let json = t.to_json();
        assert!(json.contains("\"steps\":40"), "json {json}");
    }

    #[test]
    fn ring_buffer_telemetry_captures_spans_and_alarm_events() {
        use roboads_obs::{RingBufferSink, Telemetry};
        use std::sync::Arc;
        let ring = Arc::new(RingBufferSink::new(100_000));
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(7)
            .telemetry(Telemetry::new(ring.clone()))
            .run()
            .unwrap();
        assert!(outcome.report.sensor_misbehavior_detected());
        let spans = ring.spans();
        assert!(spans.iter().any(|s| s.name == "engine.step"));
        assert!(spans.iter().any(|s| s.name == "sim.iteration"));
        let events = ring.events();
        assert!(
            events
                .iter()
                .any(|e| e.name == "decision.sensor_alarm_confirmed"),
            "spoofing run must log a confirmed sensor alarm"
        );
        assert!(outcome.telemetry.sensor_alarms >= 1);
    }
}
