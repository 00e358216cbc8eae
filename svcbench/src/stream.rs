//! The load generator: one session's wire stream encoded up front, the
//! thread that replays it over a Unix-domain connection, and the reader
//! that times tick completions around the production `pump`.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use roboads::sim::{stream_traces, Trace};

/// One session's wire bytes (`Hello`, every tick's frames and
/// `TickEnd`, then `Bye`) and the byte offset at which each of the
/// producer's per-tick flushes ended. `boundaries[k]` closes tick `k`;
/// the last entry closes the `Bye`.
#[derive(Debug)]
pub struct EncodedStream {
    pub bytes: Vec<u8>,
    pub boundaries: Vec<usize>,
}

impl EncodedStream {
    /// Encodes `robots`' traces with `roboads_sim::stream_traces`,
    /// noting the offset of every flush.
    pub fn encode(robots: &[(u64, &Trace)]) -> EncodedStream {
        let mut recording = EncodedStream {
            bytes: Vec::new(),
            boundaries: Vec::new(),
        };
        stream_traces(robots, &mut recording).expect("encoding into memory cannot fail");
        recording
    }

    /// Ticks in one session.
    pub fn ticks(&self) -> usize {
        self.boundaries.len() - 1
    }
}

impl Write for EncodedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.boundaries.push(self.bytes.len());
        Ok(())
    }
}

/// A reader that hands out a session's bytes only up to the next tick
/// boundary. `pump` asks for more bytes only once it has handled every
/// frame it decoded, so a read that arrives when every byte of tick `k`
/// has been handed out marks the moment `step(k)` returned: the reader
/// stamps it with `clock`. At the session's end it reports end of
/// stream, so `pump` returns after the `Bye` without reading into the
/// next session.
pub struct TickReader<'a, R, C, T> {
    inner: R,
    boundaries: &'a [usize],
    pos: usize,
    next: usize,
    clock: C,
    /// One stamp per completed tick, in tick order.
    pub completions: Vec<T>,
}

impl<'a, R: Read, C: FnMut() -> T, T> TickReader<'a, R, C, T> {
    pub fn new(inner: R, boundaries: &'a [usize], clock: C) -> Self {
        TickReader {
            inner,
            boundaries,
            pos: 0,
            next: 0,
            clock,
            completions: Vec::with_capacity(boundaries.len()),
        }
    }
}

impl<R: Read, C: FnMut() -> T, T> Read for TickReader<'_, R, C, T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let ticks = self.boundaries.len().saturating_sub(1);
        if self.next < ticks && self.pos == self.boundaries[self.next] {
            self.completions.push((self.clock)());
            self.next += 1;
        }
        let limit = self.boundaries.get(self.next).map_or(0, |&b| b - self.pos);
        if limit == 0 || buf.is_empty() {
            return Ok(0);
        }
        let len = buf.len().min(limit);
        let n = self.inner.read(&mut buf[..len])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "generator closed the connection mid-session",
            ));
        }
        self.pos += n;
        Ok(n)
    }
}

/// The generator thread: writes the session's bytes tick by tick, over
/// and over, until told to stop. It does no encoding, so it competes
/// with the service only for the write calls; the loop is closed by the
/// socket buffer.
pub struct Generator {
    handle: JoinHandle<io::Result<u64>>,
    stop: Arc<AtomicBool>,
}

impl Generator {
    pub fn spawn(mut socket: UnixStream, stream: Arc<EncodedStream>) -> Generator {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut sessions = 0;
            while !flag.load(Ordering::SeqCst) {
                let mut start = 0;
                for &end in &stream.boundaries {
                    socket.write_all(&stream.bytes[start..end])?;
                    start = end;
                }
                sessions += 1;
            }
            Ok(sessions)
        });
        Generator { handle, stop }
    }

    /// Stops the generator after the session it is writing, reads what
    /// it still sends until it closes, and joins it. Returns the number
    /// of sessions written.
    pub fn finish(self, mut socket: &UnixStream) -> io::Result<u64> {
        self.stop.store(true, Ordering::SeqCst);
        io::copy(&mut socket, &mut io::sink())?;
        self.handle.join().expect("generator thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    use roboads::control::Mission;
    use roboads::core::{RoboAds, RobotFactory, ShardConfig, ShardedFleet};
    use roboads::linalg::Vector;
    use roboads::models::presets;
    use roboads::obs::{EventRecord, Sink, SpanRecord, Telemetry};
    use roboads::sim::{Scenario, SimulationBuilder};
    use roboads::wire::pump;

    /// Counts completed `engine.step` spans: one per robot-step.
    #[derive(Debug, Default)]
    struct StepCounter(AtomicU64);

    impl Sink for StepCounter {
        fn record_span(&self, span: &SpanRecord) {
            if span.name == "engine.step" {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        fn record_event(&self, _: &EventRecord) {}
    }

    /// Hands out at most `max` bytes per read, like a busy socket.
    struct Trickle<'a> {
        bytes: &'a [u8],
        max: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.max).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn x0() -> Vector {
        let arena = presets::evaluation_arena();
        let path = Mission::evaluation_default().plan(&arena, 0.08).unwrap();
        let (sx, sy) = path.waypoints()[0];
        let (lx, ly) = path.lookahead_point(sx, sy, 0.25);
        Vector::from_slice(&[sx, sy, (ly - sy).atan2(lx - sx)])
    }

    /// Pumps `stream` through a fresh two-robot fleet, each read capped
    /// at `max` bytes, and returns the engine-step count seen at each
    /// completion stamp, the byte position of each stamp, and the
    /// pump's summary.
    fn pump_counting(
        stream: &EncodedStream,
        max: usize,
    ) -> (Vec<u64>, Vec<usize>, roboads::wire::ServeSummary) {
        let counter = Arc::new(StepCounter::default());
        let telemetry = Telemetry::new(counter.clone());
        let (system, x0) = (presets::khepera_system(), x0());
        let factory: RobotFactory = Arc::new(move |_| {
            let mut detector = RoboAds::with_defaults(system.clone(), x0.clone())?;
            detector.set_telemetry(telemetry.clone());
            Ok(detector)
        });
        let config = ShardConfig {
            shards: 1,
            threads_per_shard: 1,
            snapshot_period: 0,
            steal_margin: 0,
        };
        let mut fleet = ShardedFleet::new(&[7, 9], factory, config).unwrap();
        let positions = Mutex::new(Vec::new());
        let position = AtomicU64::new(0);
        let inner = Trickle {
            bytes: &stream.bytes,
            max,
        };
        // The clock also notes where in the stream each stamp fell.
        let tracked = PositionTap {
            inner,
            pos: &position,
        };
        let mut reader = TickReader::new(tracked, &stream.boundaries, || {
            positions
                .lock()
                .unwrap()
                .push(position.load(Ordering::SeqCst) as usize);
            counter.0.load(Ordering::SeqCst)
        });
        let summary = pump(&mut reader, &mut fleet).unwrap();
        let stamps = std::mem::take(&mut reader.completions);
        drop(reader);
        (stamps, positions.into_inner().unwrap(), summary)
    }

    /// Passes reads through and publishes the running byte count.
    struct PositionTap<'a, R> {
        inner: R,
        pos: &'a AtomicU64,
    }

    impl<R: Read> Read for PositionTap<'_, R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.pos.fetch_add(n as u64, Ordering::SeqCst);
            Ok(n)
        }
    }

    #[test]
    fn completions_are_stamped_exactly_at_each_tick_end() {
        let trace = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(3)
            .duration(12)
            .run()
            .unwrap()
            .trace;
        let stream = EncodedStream::encode(&[(7, &trace), (9, &trace)]);
        assert_eq!(stream.ticks(), 12);
        assert_eq!(*stream.boundaries.last().unwrap(), stream.bytes.len());
        // Every tick boundary falls inside the first 8 KiB read.
        assert!(stream.bytes.len() < 8192, "{} bytes", stream.bytes.len());
        for max in [usize::MAX, 7] {
            let (stamps, positions, summary) = pump_counting(&stream, max);
            // Stamp k is taken after both robots' step k and before
            // any step k+1.
            let expected: Vec<u64> = (1..=12).map(|k| 2 * k).collect();
            assert_eq!(stamps, expected, "max read {max}");
            assert_eq!(positions, stream.boundaries[..12], "max read {max}");
            assert_eq!(summary.ticks, 12);
            assert_eq!(summary.accepted, summary.frames);
            assert!(summary.clean_shutdown);
        }
    }

    #[test]
    fn reader_ends_the_session_without_reading_past_bye() {
        let bytes: Vec<u8> = (0..40).collect();
        let boundaries = [10, 25, 30];
        let mut source = &bytes[..];
        let mut reader = TickReader::new(&mut source, &boundaries, || ());
        let mut buf = [0u8; 64];
        assert_eq!(reader.read(&mut buf).unwrap(), 10);
        assert_eq!(reader.read(&mut buf).unwrap(), 15);
        assert_eq!(reader.read(&mut buf).unwrap(), 5);
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
        assert_eq!(reader.completions.len(), 2);
        assert_eq!(reader.pos, 30);
        assert_eq!(source.len(), 10, "the next session's bytes stay unread");
    }
}
