//! One benchmark run: set-up, warm-up, the timed sessions, recovery,
//! and the checks that the served decisions are the reference ones.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use roboads::core::{
    snapshot_detector, DecisionDigest, FleetEngine, FleetHealth, FleetIngest, ShardedFleet,
};
use roboads::linalg::Vector;
use roboads::obs::Telemetry;
use roboads::stats::ConfusionCounts;
use roboads::wire::{pump, FrameDecoder, WireFrame, WIRE_VERSION};

use crate::measure::{median, minimum, percentile, process_cpu, vm_rss_kib};
use crate::stream::{EncodedStream, Generator, TickReader};
use crate::tracer::{self_times, SelfTimes, SpanCollector, Tracer};
use crate::workload::{
    evaluation_path, evaluation_x0, factory, robot_ids, shard_config, simulate, Feed, Recorded,
    Spec, TICKS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `recover_shard(0)` calls after each timed session; `recovery_ms` is
/// their minimum over the run. One call a session left the minimum to
/// fifteen samples on `mixed_lazy_64`, and it spread 0.38 over ten runs.
const RECOVERIES: usize = 3;
/// Untimed service work before timing starts: a core left idle for
/// seconds runs slowly for its first second or so of work (README.md).
const WARMUP: Duration = Duration::from_secs(2);

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Robot-steps attempted in the timed sessions.
    pub attempted: u64,
    /// Robot-steps that errored or served a decision other than the
    /// reference, plus frames the service rejected.
    pub failed: u64,
    /// Every check that did not hold; empty when the run is correct.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// The benchmark's own spans of a traced run.
    pub spans: Option<Tracer>,
}

/// What the service did in one session, or in a run's sessions.
#[derive(Debug, Default)]
struct Served {
    /// One session's wall time between consecutive tick completions
    /// (the first tick from the session's start), in seconds.
    intervals: Vec<f64>,
    /// One session's process CPU seconds over the same intervals.
    cpu_intervals: Vec<f64>,
    robot_steps: u64,
    failed_steps: u64,
    frames: u64,
    rejected: u64,
    sessions: u64,
    /// Over a run: tick `k`'s wall time in every complete session.
    by_tick: Vec<Vec<f64>>,
    /// Over a run: tick `k`'s process CPU time in every complete session.
    cpu_by_tick: Vec<Vec<f64>>,
}

impl Served {
    /// Adds one session.
    fn absorb(&mut self, session: Served) {
        if session.intervals.len() == TICKS && session.cpu_intervals.len() == TICKS {
            self.by_tick.resize(TICKS, Vec::new());
            self.cpu_by_tick.resize(TICKS, Vec::new());
            for k in 0..TICKS {
                self.by_tick[k].push(session.intervals[k]);
                self.cpu_by_tick[k].push(session.cpu_intervals[k]);
            }
        }
        self.robot_steps += session.robot_steps;
        self.failed_steps += session.failed_steps;
        self.frames += session.frames;
        self.rejected += session.rejected;
        self.sessions += session.sessions;
    }
}

/// Per-layer counts a traced session gathers outside its spans.
#[derive(Debug, Default)]
struct LayerCounts {
    step_cpu: f64,
    step_wall: f64,
    snapshot_bytes: u64,
    snapshot_robots: u64,
    health_bytes: u64,
    capsules: u64,
    records: u64,
    sessions: u64,
    robot_steps: u64,
    active_modes: u64,
    awake: u64,
    program: SelfTimes,
}

/// The fixed state of a run: the fleet's shape, its inputs and the
/// reference decisions.
struct Bench {
    spec: Spec,
    ids: Vec<u64>,
    /// Every detector's start state.
    x0: Vector,
    recorded: Vec<Recorded>,
    stream: Option<Arc<EncodedStream>>,
}

impl Bench {
    fn reference(&self, robot: usize) -> &Recorded {
        &self.recorded[self.spec.trace_of[robot]]
    }

    fn fleet(&self, snapshot_period: u64, telemetry: Telemetry) -> ShardedFleet {
        ShardedFleet::new(
            &self.ids,
            factory(&self.spec, &self.ids, &self.x0, telemetry),
            shard_config(snapshot_period),
        )
        .expect("workload fleet builds")
    }

    /// Stages tick `k` of every robot's trace in process. Returns
    /// (frames offered, frames rejected).
    fn offer_tick(&self, fleet: &mut ShardedFleet, k: usize) -> (u64, u64) {
        let (mut offered, mut rejected) = (0, 0);
        for (i, &id) in self.ids.iter().enumerate() {
            let r = &self.reference(i).trace.records()[k];
            let mut accept = |ok: Result<bool, _>| {
                offered += 1;
                rejected += u64::from(!matches!(ok, Ok(true)));
            };
            accept(fleet.offer_input(id, &r.planned_command, k as u64));
            for (s, reading) in r.readings.iter().enumerate() {
                accept(fleet.offer(id, s, reading, k as u64));
            }
        }
        (offered, rejected)
    }

    /// Robot-steps of tick `k` whose report is not the reference one.
    fn mismatches_at(&self, fleet: &ShardedFleet, k: usize) -> u64 {
        let mut bad = 0;
        for (i, &id) in self.ids.iter().enumerate() {
            let ok = matches!(fleet.result(id), Some(Ok(())))
                && fleet.report(id).is_some_and(|r| {
                    DecisionDigest::of(r).bitwise_eq(&self.reference(i).digests[k])
                })
                && (k + 1 < TICKS || fleet.report(id) == Some(&self.reference(i).last));
            bad += u64::from(!ok);
        }
        bad
    }

    /// Robot-steps of the session just ended whose recorded decision
    /// differs from the reference (or is missing): every served tick is
    /// still in each robot's recorder ring.
    fn ring_mismatches(&self, fleet: &ShardedFleet) -> u64 {
        let mut bad = 0;
        for (i, &id) in self.ids.iter().enumerate() {
            let reference = self.reference(i);
            let recorder = fleet
                .detector(id)
                .and_then(|d| d.recorder())
                .expect("every detector has a recorder");
            let good = (0..TICKS)
                .filter(|&t| {
                    recorder
                        .ring_record(t)
                        .is_some_and(|r| r.digest.bitwise_eq(&reference.digests[t]))
                })
                .count();
            let last = fleet.report(id) == Some(&reference.last);
            bad += (TICKS - good) as u64 + u64::from(!last && good == TICKS);
        }
        bad
    }
}

/// Runs `spec` for about `seconds` of timed service work and checks it.
pub fn run(spec: Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();

    // The first set-up; its inputs, fleet and connection are kept.
    let setups = if trace { 1 } else { SETUPS };
    let (first, first_s, rss_base) = set_up(&spec, seed);
    eprintln!("svcbench: set-up 0: {first_s:.4} s");
    let mut setup_s = vec![first_s];
    let SetUp {
        bench,
        fleet: first_fleet,
        connection,
    } = first;
    let (socket, generator) = match connection {
        Some((service, producer)) => {
            let stream = Arc::clone(bench.stream.as_ref().expect("wire workloads encode"));
            (Some(service), Some(Generator::spawn(producer, stream)))
        }
        None => (None, None),
    };
    let socket = socket.as_ref();

    // Warm-up: the first session is checked tick by tick through the
    // benchmark's own loop; then plain sessions until both cores are
    // warm.
    let warm = Instant::now();
    let quiet_asleep = verified_session(&bench, first_fleet, socket, &mut out.problems);
    while warm.elapsed() < WARMUP {
        let fleet = bench.fleet(spec.snapshot_period, Telemetry::disabled());
        let (_, served) = timed_session(&bench, fleet, socket, &mut out.problems);
        check_served(&served, &mut out.problems);
    }

    // Timed sessions. A traced run times half its budget untraced, for
    // the tracing overhead, and traces the other half. After each
    // session, outside its timing, the shard is killed and recovered, so
    // the recoveries sample the same stretch of time as the ticks.
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut served = Served::default();
    let mut recoveries = Vec::new();
    let mut journal_frames = 0;
    let mut last_fleet = None;
    let timed = Instant::now();
    let mut paused = Duration::ZERO;
    let service_s = |paused: Duration| (timed.elapsed() - paused).as_secs_f64();
    while served.sessions == 0 || service_s(paused) < budget {
        drop(last_fleet.take());
        // The other set-ups, spread evenly over the timed phase and left
        // out of its time, so that their median samples the host over
        // the whole run rather than over one stretch of it.
        if setup_s.len() < setups
            && service_s(paused) >= budget * setup_s.len() as f64 / setups as f64
        {
            let start = Instant::now();
            let (_, s, _) = set_up(&spec, seed);
            eprintln!("svcbench: set-up {}: {s:.4} s", setup_s.len());
            setup_s.push(s);
            paused += start.elapsed();
        }
        let fleet = bench.fleet(spec.snapshot_period, Telemetry::disabled());
        let (mut fleet, session) = timed_session(&bench, fleet, socket, &mut out.problems);
        let (wall, cpu): (f64, f64) = (
            session.intervals.iter().sum(),
            session.cpu_intervals.iter().sum(),
        );
        eprintln!(
            "svcbench: session {}: tick p50 {:.4} ms, p95 {:.4} ms, {:.1} robot-steps/s, {:.3} us cpu/robot-step",
            served.sessions,
            median(&session.intervals).unwrap_or(0.0) * 1e3,
            percentile(&session.intervals, 0.95).unwrap_or(0.0) * 1e3,
            session.robot_steps as f64 / wall,
            cpu / session.robot_steps.max(1) as f64 * 1e6,
        );
        served.absorb(session);
        let (ms, journal) = recover(&bench, &mut fleet, &mut out.problems);
        recoveries.extend(ms);
        journal_frames = journal;
        last_fleet = Some(fleet);
    }
    let rss_mb = vm_rss_kib().saturating_sub(rss_base) as f64 / 1024.0;
    check_served(&served, &mut out.problems);
    drop(last_fleet.take());

    let traced = trace.then(|| traced_sessions(&bench, socket, budget, &mut out.problems));

    if let (Some(socket), Some(generator)) = (socket, generator) {
        if let Err(e) = generator.finish(socket) {
            out.problems.push(format!("generator failed: {e}"));
        }
    }

    let (slab_share, slab_groups) = twin_slab_shape(&bench);
    check_shape(
        &spec,
        slab_share,
        slab_groups,
        quiet_asleep,
        &mut out.problems,
    );

    out.attempted = served.robot_steps;
    out.failed = served.failed_steps + served.rejected;
    let failed_ratio = (served.rejected + served.failed_steps) as f64
        / (served.frames + served.robot_steps).max(1) as f64;
    let quality = detection_quality(&bench);
    let ticks = tick_floors(&served.by_tick);
    let cpu_ticks = tick_floors(&served.cpu_by_tick);
    let tick_p50_ms = median(&ticks).unwrap_or(0.0) * 1e3;
    let robot_ticks = (bench.ids.len() * ticks.len()).max(1) as f64;
    out.end_to_end = vec![
        metric("tick_p50_ms", "ms", tick_p50_ms),
        metric(
            "tick_p95_ms",
            "ms",
            tick_p50_ms * percentile(&tick_profile(&served.by_tick), 0.95).unwrap_or(0.0),
        ),
        metric(
            "robot_steps_per_s",
            "1/s",
            robot_ticks / ticks.iter().sum::<f64>(),
        ),
        metric(
            "cpu_us_per_robot_step",
            "us",
            cpu_ticks.iter().sum::<f64>() / robot_ticks * 1e6,
        ),
        metric(
            "recovery_ms",
            "ms",
            minimum(
                recoveries
                    .get(1..)
                    .filter(|warm| !warm.is_empty())
                    .unwrap_or(&recoveries),
            ),
        ),
        metric("setup_s", "s", median(&setup_s).unwrap_or(0.0)),
        metric("rss_mb", "MiB", rss_mb),
        metric("false_positive_rate", "ratio", quality.0),
        metric("false_negative_rate", "ratio", quality.1),
        metric("detect_delay_s", "s", quality.2),
        metric("failed_ratio", "ratio", failed_ratio),
    ];

    if let Some((tracer, counts, traced_p50_ms)) = traced {
        out.per_layer = layer_metrics(
            &bench,
            &tracer,
            &counts,
            LayerExtras {
                frames_rejected: served.rejected,
                journal_frames,
                slab_share,
                quiet_asleep,
                overhead: traced_p50_ms / tick_p50_ms - 1.0,
                false_positive_rate: quality.0,
                failed_ratio,
            },
        );
        out.spans = Some(tracer);
    }
    out
}

/// A set-up's products: the run's fixed state, the first session's
/// fleet and, for a wire workload, the connection (service end,
/// generator end).
struct SetUp {
    bench: Bench,
    fleet: ShardedFleet,
    connection: Option<(UnixStream, UnixStream)>,
}

/// One set-up: trace simulation, reference replay, stream encoding,
/// `ShardedFleet::new` and the connection. Returns it with its wall time
/// in seconds and the process RSS (KiB) just before `ShardedFleet::new`;
/// reading the RSS is not part of the set-up time.
fn set_up(spec: &Spec, seed: u64) -> (SetUp, f64, u64) {
    let start = Instant::now();
    let ids = robot_ids(spec, seed);
    let path = evaluation_path();
    let x0 = evaluation_x0(&path);
    let recorded = simulate(spec, seed, &path, &x0);
    let stream = (spec.feed == Feed::Wire).then(|| {
        let robots: Vec<(u64, &roboads::sim::Trace)> = ids
            .iter()
            .zip(&spec.trace_of)
            .map(|(&id, &a)| (id, &recorded[a].trace))
            .collect();
        let stream = EncodedStream::encode(&robots);
        assert_eq!(stream.ticks(), TICKS, "one flush per tick, one for Bye");
        Arc::new(stream)
    });
    let bench = Bench {
        spec: spec.clone(),
        ids,
        x0,
        recorded,
        stream,
    };
    let before_rss = start.elapsed();
    let rss = vm_rss_kib();
    let resumed = Instant::now();
    let fleet = bench.fleet(spec.snapshot_period, Telemetry::disabled());
    let connection =
        (spec.feed == Feed::Wire).then(|| UnixStream::pair().expect("a Unix-domain socket pair"));
    let seconds = (before_rss + resumed.elapsed()).as_secs_f64();
    (
        SetUp {
            bench,
            fleet,
            connection,
        },
        seconds,
        rss,
    )
}

/// Tick `k`'s shortest time over the run's sessions, for every `k`.
/// Every session replays the same 200 ticks from a fresh fleet, so tick
/// `k` costs the program the same in each. The host's vCPUs switch
/// between a fast and a slow speed (about 1.6× apart) for stretches of
/// a fraction of a second to several seconds, as other tenants come and
/// go; the share of slow time changes from run to run, and any quantile
/// of a tick's times but the lowest moves with it. The minimum is the
/// tick's cost on an uncontended core, and it keeps the program's own
/// slow ticks (snapshots, alarm onsets, capsule seals), which are slow
/// in every session.
fn tick_floors(by_tick: &[Vec<f64>]) -> Vec<f64> {
    by_tick.iter().map(|samples| minimum(samples)).collect()
}

/// Tick `k`'s time as a share of its session's median tick, median over
/// the run's sessions, for every `k`: the shape of a session's ticks,
/// whatever speed the host ran it at. Its 95th percentile scales
/// `tick_p50_ms` to `tick_p95_ms`. (The 95th percentile of the per-tick
/// minima instead picks out the ten or so ticks whose minimum, over
/// fewer than twenty sessions, happened never to land on a fast
/// stretch.)
fn tick_profile(by_tick: &[Vec<f64>]) -> Vec<f64> {
    let sessions = by_tick.first().map_or(0, Vec::len);
    let session_medians: Vec<f64> = (0..sessions)
        .map(|s| {
            let ticks: Vec<f64> = by_tick.iter().map(|samples| samples[s]).collect();
            median(&ticks).unwrap_or(f64::NAN)
        })
        .collect();
    by_tick
        .iter()
        .map(|samples| {
            let shares: Vec<f64> = samples
                .iter()
                .zip(&session_medians)
                .map(|(t, m)| t / m)
                .collect();
            median(&shares).unwrap_or(f64::NAN)
        })
        .collect()
}

fn check_served(served: &Served, problems: &mut Vec<String>) {
    if served.failed_steps > 0 {
        problems.push(format!(
            "{} robot-steps errored or served a decision other than the reference",
            served.failed_steps
        ));
    }
    if served.rejected > 0 {
        problems.push(format!("{} frames rejected", served.rejected));
    }
}

/// One session through `pump` (wire) or the in-process loop, untraced.
fn timed_session(
    bench: &Bench,
    mut fleet: ShardedFleet,
    socket: Option<&UnixStream>,
    problems: &mut Vec<String>,
) -> (ShardedFleet, Served) {
    let Some(socket) = socket else {
        let served = in_process_session(bench, &mut fleet, None, 0, &mut |_, _| {});
        return (fleet, served);
    };
    let stream = bench.stream.as_ref().expect("wire workloads encode");
    let stamp = || (Instant::now(), process_cpu());
    let mut reader = TickReader::new(socket, &stream.boundaries, stamp);
    let start = stamp();
    let summary = pump(&mut reader, &mut fleet);
    let mut served = Served {
        sessions: 1,
        robot_steps: (bench.ids.len() * TICKS) as u64,
        ..Served::default()
    };
    let mut previous = start;
    for &done in &reader.completions {
        served.intervals.push((done.0 - previous.0).as_secs_f64());
        served
            .cpu_intervals
            .push((done.1 - previous.1).as_secs_f64());
        previous = done;
    }
    match summary {
        Ok(summary) => {
            served.frames = summary.frames;
            served.rejected = summary.rejected;
            if !summary.clean_shutdown || summary.ticks != TICKS as u64 {
                problems.push(format!("session ended early: {summary:?}"));
            }
            if reader.completions.len() != TICKS {
                problems.push(format!(
                    "{} tick completions timed, expected {TICKS}",
                    reader.completions.len()
                ));
            }
        }
        Err(e) => problems.push(format!("pump failed: {e}")),
    }
    served.failed_steps = bench.ring_mismatches(&fleet);
    (fleet, served)
}

/// The in-process loop of `service_churn_32`: offers, step, and the
/// health board observed and rendered, every tick. With a tracer, each
/// call gets a span and snapshots are taken here every
/// `manual_snapshot` ticks. Every robot-step's report is checked after
/// its tick's completion is stamped. `after_tick` runs outside the
/// timing.
fn in_process_session(
    bench: &Bench,
    fleet: &mut ShardedFleet,
    mut tracer: Option<(&mut Tracer, &mut LayerCounts)>,
    manual_snapshot: u64,
    after_tick: &mut dyn FnMut(&ShardedFleet, usize),
) -> Served {
    let mut health = FleetHealth::new(bench.ids.len());
    let mut served = Served {
        sessions: 1,
        ..Served::default()
    };
    for k in 0..TICKS {
        let cpu = process_cpu();
        let start = Instant::now();
        let tick = tracer
            .as_mut()
            .map(|(t, _)| t.begin("tick", None, k as u64));
        let span = open(&mut tracer, "ingest.offer", tick, k);
        let (offered, rejected) = bench.offer_tick(fleet, k);
        close(&mut tracer, span);
        step_and_snapshot(fleet, &mut tracer, tick, k, manual_snapshot);
        let span = open(&mut tracer, "health.observe", tick, k);
        health.observe_shards(fleet);
        close(&mut tracer, span);
        let span = open(&mut tracer, "health.render", tick, k);
        let bytes = health.to_json().len() + health.to_prometheus().len();
        close(&mut tracer, span);
        let done = Instant::now();
        served
            .cpu_intervals
            .push((process_cpu() - cpu).as_secs_f64());
        if let Some((t, counts)) = tracer.as_mut() {
            t.end(tick.expect("traced"));
            counts.health_bytes += bytes as u64;
        }
        served.intervals.push((done - start).as_secs_f64());
        served.frames += offered;
        served.rejected += rejected;
        served.robot_steps += bench.ids.len() as u64;
        served.failed_steps += bench.mismatches_at(fleet, k);
        after_tick(fleet, k);
    }
    served
}

fn open(
    tracer: &mut Option<(&mut Tracer, &mut LayerCounts)>,
    name: &'static str,
    parent: Option<usize>,
    k: usize,
) -> Option<usize> {
    tracer
        .as_mut()
        .map(|(t, _)| t.begin(name, parent, k as u64))
}

fn close(tracer: &mut Option<(&mut Tracer, &mut LayerCounts)>, span: Option<usize>) {
    if let (Some((t, _)), Some(span)) = (tracer.as_mut(), span) {
        t.end(span);
    }
}

/// `ShardedFleet::step`, then, when tracing, the snapshots the fleet
/// would have taken itself, each in its own span.
fn step_and_snapshot(
    fleet: &mut ShardedFleet,
    tracer: &mut Option<(&mut Tracer, &mut LayerCounts)>,
    tick: Option<usize>,
    k: usize,
    manual_snapshot: u64,
) {
    let span = open(tracer, "shard.step", tick, k);
    let (cpu, wall) = (process_cpu(), Instant::now());
    // Robot-level errors are checked against the reference afterwards.
    let _ = fleet.step();
    let (cpu, wall) = (
        (process_cpu() - cpu).as_secs_f64(),
        wall.elapsed().as_secs_f64(),
    );
    close(tracer, span);
    if let Some((_, counts)) = tracer.as_mut() {
        counts.step_cpu += cpu;
        counts.step_wall += wall;
    }
    if manual_snapshot > 0 && fleet.tick().is_multiple_of(manual_snapshot) {
        for s in 0..fleet.shard_count() {
            let robots = fleet.status()[s].robots as u64;
            let span = open(tracer, "snapshot.shard", tick, k);
            let bytes = fleet.snapshot_shard(s) as u64;
            close(tracer, span);
            if let Some((_, counts)) = tracer.as_mut() {
                counts.snapshot_bytes += bytes;
                counts.snapshot_robots += robots;
            }
        }
    }
}

/// One session through the benchmark's own loop, wire or in process,
/// with every served decision checked.
fn served_session(
    bench: &Bench,
    fleet: &mut ShardedFleet,
    socket: Option<&UnixStream>,
    tracer: Option<(&mut Tracer, &mut LayerCounts)>,
    manual_snapshot: u64,
    after_tick: &mut dyn FnMut(&ShardedFleet, usize),
    problems: &mut Vec<String>,
) {
    let served = match socket {
        Some(socket) => {
            if let Err(e) = wire_session(bench, fleet, socket, tracer, manual_snapshot, after_tick)
            {
                problems.push(format!("wire session: {e}"));
            }
            Served {
                failed_steps: bench.ring_mismatches(fleet),
                ..Served::default()
            }
        }
        None => in_process_session(bench, fleet, tracer, manual_snapshot, after_tick),
    };
    check_served(&served, problems);
}

/// One wire session through the benchmark's own loop, which makes the
/// same public calls as `pump` (`FrameDecoder::feed`/`next_frame`,
/// `WireFrame::to_stamped`, `ShardedFleet::offer_frame`/`step`) over the
/// same tick-bounded reads, and calls `after_tick` between ticks.
fn wire_session(
    bench: &Bench,
    fleet: &mut ShardedFleet,
    socket: &UnixStream,
    mut tracer: Option<(&mut Tracer, &mut LayerCounts)>,
    manual_snapshot: u64,
    after_tick: &mut dyn FnMut(&ShardedFleet, usize),
) -> Result<(), String> {
    let stream = bench.stream.as_ref().expect("wire workloads encode");
    let mut reader = TickReader::new(socket, &stream.boundaries, || ());
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 8192];
    let mut k = 0;
    let mut tick = open(&mut tracer, "tick", None, k);
    let (mut decode_ns, mut decodes, mut offer_ns, mut offers) = (0u64, 0u64, 0u64, 0u64);
    loop {
        let span = open(&mut tracer, "wire.read", tick, k);
        let n = reader.read(&mut chunk).map_err(|e| e.to_string())?;
        close(&mut tracer, span);
        if n == 0 {
            return Err(format!("stream ended without Bye after {k} ticks"));
        }
        let t = Instant::now();
        decoder.feed(&chunk[..n]).map_err(|e| e.to_string())?;
        decode_ns += t.elapsed().as_nanos() as u64;
        loop {
            let t = Instant::now();
            let frame = decoder.next_frame().map_err(|e| e.to_string())?;
            decode_ns += t.elapsed().as_nanos() as u64;
            decodes += 1;
            let Some(frame) = frame else { break };
            match frame {
                WireFrame::Hello { version } if version == WIRE_VERSION => {}
                WireFrame::Hello { version } => return Err(format!("wire version {version}")),
                WireFrame::Bye => {
                    if let Some((t, _)) = tracer.as_mut() {
                        // The span opened for a tick that never came.
                        t.spans.truncate(tick.expect("traced"));
                    }
                    return if k == TICKS {
                        Ok(())
                    } else {
                        Err(format!("Bye after {k} ticks"))
                    };
                }
                WireFrame::TickEnd { .. } => {
                    step_and_snapshot(fleet, &mut tracer, tick, k, manual_snapshot);
                    if let Some((t, _)) = tracer.as_mut() {
                        let tick = tick.expect("traced");
                        t.add_total("wire.decode", tick, k as u64, decode_ns, decodes);
                        t.add_total("ingest.offer", tick, k as u64, offer_ns, offers);
                        t.end(tick);
                    }
                    (decode_ns, decodes, offer_ns, offers) = (0, 0, 0, 0);
                    after_tick(fleet, k);
                    k += 1;
                    tick = open(&mut tracer, "tick", None, k);
                }
                data => {
                    let t = Instant::now();
                    let stamped = data.to_stamped().expect("reading/input is a data frame");
                    let accepted = matches!(fleet.offer_frame(&stamped), Ok(true));
                    offer_ns += t.elapsed().as_nanos() as u64;
                    offers += 1;
                    if !accepted {
                        return Err(format!("frame rejected at tick {k}: {stamped:?}"));
                    }
                }
            }
        }
    }
}

/// The first warm-up session, through the benchmark's own loop so it
/// can look between ticks: the decisions as in every session, plus the
/// snapshot cadence and, for the lazy bank, whether it sleeps on quiet
/// ticks. Returns the share of quiet robot-ticks (no misbehavior, no
/// alarm) with the bank asleep.
fn verified_session(
    bench: &Bench,
    mut fleet: ShardedFleet,
    socket: Option<&UnixStream>,
    problems: &mut Vec<String>,
) -> f64 {
    let (mut quiet, mut asleep, mut late_snapshots) = (0u64, 0u64, 0u64);
    let period = bench.spec.snapshot_period;
    let mut check = |fleet: &ShardedFleet, k: usize| {
        let done = (k + 1) as u64;
        let expected = (done >= period).then(|| done / period * period);
        late_snapshots += fleet
            .status()
            .iter()
            .filter(|s| s.snapshot_tick != expected)
            .count() as u64;
        for (i, &id) in bench.ids.iter().enumerate() {
            let reference = bench.reference(i);
            let decision = &reference.digests[k];
            if !reference.scenario.ground_truth().any_at(k)
                && !decision.sensor_alarm
                && !decision.actuator_alarm
            {
                quiet += 1;
                asleep += u64::from(!fleet.detector(id).expect("routed").bank_awake());
            }
        }
    };
    served_session(bench, &mut fleet, socket, None, 0, &mut check, problems);
    if late_snapshots > 0 {
        problems.push(format!(
            "{late_snapshots} shard-ticks missed the {period}-tick snapshot cadence"
        ));
    }
    if bench.spec.seals_capsules {
        let capsules: usize = bench
            .ids
            .iter()
            .filter_map(|&id| fleet.detector(id)?.recorder().map(|r| r.capsules().len()))
            .sum();
        if capsules == 0 {
            problems.push("no incident capsule sealed".to_string());
        }
    }
    asleep as f64 / quiet.max(1) as f64
}

/// Traced sessions for `budget` seconds: spans around every public call
/// the loop makes, the program's own spans through the detectors'
/// telemetry, and per-tick counts read between ticks. Snapshots are
/// taken by the loop (`snapshot_period: 0`) so they get spans.
fn traced_sessions(
    bench: &Bench,
    socket: Option<&UnixStream>,
    budget: f64,
    problems: &mut Vec<String>,
) -> (Tracer, LayerCounts, f64) {
    let collector = Arc::new(SpanCollector::default());
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let start = Instant::now();
    while counts.sessions == 0 || start.elapsed().as_secs_f64() < budget {
        let mut fleet = bench.fleet(0, Telemetry::new(collector.clone()));
        let mut totals = std::mem::take(&mut counts.program);
        let (mut steps, mut modes, mut awake) = (0u64, 0u64, 0u64);
        let mut after = |fleet: &ShardedFleet, _k: usize| {
            collector.drain_into(&mut totals);
            for &id in &bench.ids {
                let detector = fleet.detector(id).expect("routed");
                steps += 1;
                modes += detector.active_modes() as u64;
                awake += u64::from(detector.bank_awake());
            }
        };
        let period = bench.spec.snapshot_period;
        let traced = Some((&mut tracer, &mut counts));
        served_session(
            bench, &mut fleet, socket, traced, period, &mut after, problems,
        );
        counts.program = totals;
        counts.robot_steps += steps;
        counts.active_modes += modes;
        counts.awake += awake;
        for &id in &bench.ids {
            if let Some(recorder) = fleet.detector(id).and_then(|d| d.recorder()) {
                counts.capsules += recorder.capsules().len() as u64;
                counts.records += recorder.recorded();
            }
        }
        counts.sessions += 1;
    }
    let mut by_tick = vec![Vec::new(); TICKS];
    for span in tracer.spans.iter().filter(|s| s.name == "tick") {
        by_tick[span.tick as usize].push(span.duration_ns() as f64 / 1e6);
    }
    let p50 = median(&tick_floors(&by_tick)).unwrap_or(0.0);
    (tracer, counts, p50)
}

/// Kills and recovers shard 0 of a session's fleet `RECOVERIES` times
/// and checks the recovered detectors are byte-equal to the ones lost.
/// Returns (each recovery's wall time in ms, journal frames replayed).
fn recover(
    bench: &Bench,
    fleet: &mut ShardedFleet,
    problems: &mut Vec<String>,
) -> (Vec<f64>, usize) {
    let states = |fleet: &ShardedFleet| -> Vec<Vec<u8>> {
        bench
            .ids
            .iter()
            .map(|&id| snapshot_detector(fleet.detector(id).expect("routed")))
            .collect()
    };
    let before = states(fleet);
    let journal = fleet.status()[0].journal_frames;
    let mut ms = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let start = Instant::now();
        if let Err(e) = fleet.recover_shard(0) {
            problems.push(format!("recovery failed: {e}"));
        }
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    // Each recovery rebuilds from the same snapshot and journal, not
    // from the detectors it replaces, so checking the last checks all.
    if states(fleet) != before {
        problems.push("recovered detectors differ from their state before the kill".into());
    }
    (ms, journal)
}

/// Robots on the slab path and slab groups, read from a twin fleet
/// engine built by the same factory and stepped once (`ShardedFleet`
/// does not expose its engines).
fn twin_slab_shape(bench: &Bench) -> (f64, usize) {
    let factory = factory(&bench.spec, &bench.ids, &bench.x0, Telemetry::disabled());
    let detectors = bench
        .ids
        .iter()
        .map(|&id| factory(id).expect("factory builds"))
        .collect();
    let mut engine = FleetEngine::new(detectors, 1);
    let mut ingest = FleetIngest::for_fleet(&engine);
    for i in 0..bench.ids.len() {
        let r = &bench.reference(i).trace.records()[0];
        let _ = ingest.offer_input_stamped(i, &r.planned_command, 0);
        for (sensor, reading) in r.readings.iter().enumerate() {
            let _ = ingest.offer_stamped(i, sensor, reading, 0);
        }
    }
    let _ = ingest.step(&mut engine);
    (
        engine.slab_robots() as f64 / bench.ids.len() as f64,
        engine.slab_groups(),
    )
}

/// Fails the run when a workload has left the path it exists to
/// measure.
fn check_shape(
    spec: &Spec,
    slab_share: f64,
    slab_groups: usize,
    quiet_asleep: f64,
    problems: &mut Vec<String>,
) {
    if slab_share != spec.slab_share || slab_groups != spec.slab_groups {
        problems.push(format!(
            "shape: slab share {slab_share} in {slab_groups} groups, expected {} in {}",
            spec.slab_share, spec.slab_groups
        ));
    }
    let lazy_ok = if spec.lazy {
        quiet_asleep >= 0.1
    } else {
        quiet_asleep == 0.0
    };
    if !lazy_ok {
        problems.push(format!(
            "shape: bank asleep on {quiet_asleep:.3} of quiet robot-ticks (lazy bank {})",
            if spec.lazy {
                "expected"
            } else {
                "not expected"
            }
        ));
    }
}

/// Pooled (false positive rate, false negative rate, mean detection
/// delay) of the served decisions against each robot's ground truth,
/// with `roboads_sim::evaluate` semantics. Every served decision is
/// checked equal to its trace's reference report, so this evaluates the
/// reference traces, weighted by the robots that replay them.
fn detection_quality(bench: &Bench) -> (f64, f64, f64) {
    let mut counts = ConfusionCounts::default();
    let mut delays = Vec::new();
    for &a in &bench.spec.trace_of {
        let eval = &bench.recorded[a].eval;
        counts.merge(&eval.sensor_counts);
        counts.merge(&eval.actuator_counts);
        delays.extend(
            eval.sensor_transitions
                .iter()
                .chain(&eval.actuator_transitions)
                .filter(|t| t.condition != "S0" && t.condition != "A0")
                .filter_map(|t| t.delay),
        );
    }
    let delay = delays.iter().sum::<f64>() / delays.len().max(1) as f64;
    (
        counts.false_positive_rate(),
        counts.false_negative_rate(),
        delay,
    )
}

struct LayerExtras {
    frames_rejected: u64,
    journal_frames: usize,
    slab_share: f64,
    quiet_asleep: f64,
    overhead: f64,
    false_positive_rate: f64,
    failed_ratio: f64,
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    bench: &Bench,
    tracer: &Tracer,
    counts: &LayerCounts,
    x: LayerExtras,
) -> Vec<Metric> {
    let spans = &tracer.spans;
    let own = self_times(spans);
    let total = |name: &str| -> (f64, f64) {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(ns, n), s| {
                (ns + s.duration_ns() as f64, n + s.calls as f64)
            })
    };
    let (tick_ns, ticks) = total("tick");
    let ticks = ticks.max(1.0);
    let per_tick_us = |name: &str| total(name).0 / ticks / 1e3;
    let unattributed: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "tick")
        .map(|(_, &o)| o as f64)
        .sum();
    let (snap_ns, snaps) = total("snapshot.shard");
    let (_, reads) = total("wire.read");
    let robot_steps = counts.robot_steps.max(1) as f64;
    let stream_bytes = bench.stream.as_ref().map_or(0.0, |s| {
        s.bytes.len() as f64 / (bench.ids.len() * TICKS) as f64
    });
    let per_session = |n: u64| n as f64 / counts.sessions.max(1) as f64;
    let mut metrics = vec![
        metric("wire.decode_us_per_tick", "us", per_tick_us("wire.decode")),
        metric("wire.read_wait_us_per_tick", "us", per_tick_us("wire.read")),
        metric("wire.bytes_per_robot_step", "B", stream_bytes),
        metric("wire.reads_per_tick", "count", reads / ticks),
        metric(
            "ingest.offer_us_per_tick",
            "us",
            per_tick_us("ingest.offer"),
        ),
        metric("ingest.frames_rejected", "count", x.frames_rejected as f64),
        metric("shard.step_us_per_tick", "us", per_tick_us("shard.step")),
        metric(
            "shard.step_parallelism",
            "ratio",
            counts.step_cpu / counts.step_wall.max(f64::MIN_POSITIVE),
        ),
        metric(
            "shard.journal_frames_at_recovery",
            "count",
            x.journal_frames as f64,
        ),
        metric(
            "snapshot.us_per_shard",
            "us",
            snap_ns / snaps.max(1.0) / 1e3,
        ),
        metric(
            "snapshot.bytes_per_robot",
            "B",
            counts.snapshot_bytes as f64 / counts.snapshot_robots.max(1) as f64,
        ),
    ];
    for name in [
        "engine.step",
        "engine.nuise_mode",
        "engine.parsimony",
        "engine.select",
        "engine.reanchor",
        "decision.assess",
    ] {
        let self_ns = counts.program.get(name).copied().unwrap_or(0);
        metrics.push(metric(
            &format!("{name}.self_us_per_robot_step"),
            "us",
            self_ns as f64 / robot_steps / 1e3,
        ));
    }
    metrics.extend([
        metric(
            "engine.active_modes_per_robot_step",
            "count",
            counts.active_modes as f64 / robot_steps,
        ),
        metric(
            "engine.awake_share",
            "ratio",
            counts.awake as f64 / robot_steps,
        ),
        metric("engine.quiet_asleep_share", "ratio", x.quiet_asleep),
        metric("fleet.slab_share", "ratio", x.slab_share),
        metric("recorder.capsules", "count", per_session(counts.capsules)),
        metric("recorder.records", "count", per_session(counts.records)),
        metric("health.observe_us", "us", per_tick_us("health.observe")),
        metric("health.render_us", "us", per_tick_us("health.render")),
        metric("health.bytes", "B", counts.health_bytes as f64 / ticks),
        metric(
            "trace.unattributed_share",
            "ratio",
            unattributed / tick_ns.max(1.0),
        ),
        metric("trace.overhead_share", "ratio", x.overhead),
        metric(
            "decision.false_positive_rate",
            "ratio",
            x.false_positive_rate,
        ),
        metric("service.failed_ratio", "ratio", x.failed_ratio),
    ]);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_floors_drop_ticks_slowed_by_the_host() {
        let mut sessions = vec![vec![1.0; TICKS]; 5];
        sessions.iter_mut().for_each(|s| s[7] = 3.0); // the program's slow tick
        sessions[2][100] = 50.0; // slowed by another tenant in one session
        for s in &mut sessions[..4] {
            s[150] = 1.6; // on a slow vCPU in most sessions
        }
        let mut served = Served::default();
        for intervals in sessions {
            served.absorb(Served {
                cpu_intervals: intervals.clone(),
                intervals,
                robot_steps: 1,
                ..Served::default()
            });
        }
        let ticks = tick_floors(&served.by_tick);
        assert_eq!((ticks[7], ticks[100], ticks[150]), (3.0, 1.0, 1.0));
        assert_eq!(percentile(&ticks, 1.0), Some(3.0));
        assert_eq!(tick_floors(&served.cpu_by_tick), ticks);
    }

    #[test]
    fn tick_profile_keeps_the_programs_shape_at_any_host_speed() {
        let mut served = Served::default();
        for speed in [1.0, 1.6, 1.0, 1.6, 1.3] {
            let mut intervals = vec![speed; TICKS];
            intervals[7] *= 3.0; // the program's slow tick, in every session
            served.absorb(Served {
                cpu_intervals: intervals.clone(),
                intervals,
                ..Served::default()
            });
        }
        served.by_tick[100][2] *= 50.0; // slowed by another tenant once
        let profile = tick_profile(&served.by_tick);
        assert_eq!((profile[7], profile[100], profile[150]), (3.0, 1.0, 1.0));
    }

    #[test]
    fn a_session_with_a_missing_tick_is_not_pooled() {
        let mut served = Served::default();
        served.absorb(Served {
            intervals: vec![1.0; TICKS - 1],
            cpu_intervals: vec![1.0; TICKS - 1],
            ..Served::default()
        });
        assert!(served.by_tick.is_empty());
    }
}
