//! The traced run's spans: the benchmark's own spans around each public
//! call it makes, and a sink that collects the program's existing
//! `roboads_obs` spans so their self time can be attributed.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use roboads::obs::{EventRecord, Sink, SpanRecord};

/// One timed region. `parent` indexes the span it ran inside; `tick`
/// is the id every span of one tick shares. A span with `calls > 1`
/// sums that many short calls (frame decodes, frame offers), too many
/// to keep one by one: its `end_ns` is `start_ns` plus their total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tick: u64,
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the durations of the
/// spans whose parent it is.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Sets each span's parent to the innermost span that encloses it.
/// Spans recorded on one thread for one robot nest strictly, so
/// enclosure is parenthood.
pub fn infer_parents(spans: &mut [Span]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            if spans[i].start_ns >= spans[top].start_ns && spans[i].end_ns <= spans[top].end_ns {
                break;
            }
            stack.pop();
        }
        spans[i].parent = stack.last().copied();
        stack.push(i);
    }
}

/// The benchmark's own spans, kept in memory and written out when the
/// run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, tick: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            tick,
            calls: 1,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records `calls` short calls that together took `total_ns`.
    pub fn add_total(
        &mut self,
        name: &'static str,
        parent: usize,
        tick: u64,
        total_ns: u64,
        calls: u64,
    ) {
        let start = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + total_ns,
            parent: Some(parent),
            tick,
            calls,
        });
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tick\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.tick, s.calls
            )?;
        }
        Ok(())
    }
}

/// Collects the program's spans with the thread that closed them.
#[derive(Debug, Default)]
pub struct SpanCollector {
    spans: Mutex<Vec<(ThreadId, SpanRecord)>>,
}

impl Sink for SpanCollector {
    fn record_span(&self, span: &SpanRecord) {
        let thread = std::thread::current().id();
        self.spans
            .lock()
            .expect("span collector poisoned")
            .push((thread, span.clone()));
    }

    fn record_event(&self, _event: &EventRecord) {}
}

/// Total self time (ns) per program span name.
pub type SelfTimes = BTreeMap<&'static str, u64>;

impl SpanCollector {
    /// Moves the spans collected so far into `totals`. Parents are
    /// inferred by enclosure within each (thread, robot) stream, since
    /// a robot's step runs on one thread and its spans nest.
    pub fn drain_into(&self, totals: &mut SelfTimes) {
        let records = std::mem::take(&mut *self.spans.lock().expect("span collector poisoned"));
        let mut streams: HashMap<(ThreadId, u32), Vec<Span>> = HashMap::new();
        for (thread, r) in records {
            streams.entry((thread, r.robot)).or_default().push(Span {
                name: r.name,
                start_ns: r.start_ns,
                end_ns: r.start_ns + r.duration_ns,
                parent: None,
                tick: 0,
                calls: 1,
            });
        }
        for spans in streams.values_mut() {
            infer_parents(spans);
            for (span, own) in spans.iter().zip(self_times(spans)) {
                *totals.entry(span.name).or_default() += own;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            tick: 0,
            calls: 1,
        }
    }

    /// tick [0,100] ⊃ {step [10,40] ⊃ nuise [20,30]}, snapshot [50,90].
    fn nested() -> Vec<Span> {
        vec![
            span("tick", 0, 100, None),
            span("step", 10, 40, Some(0)),
            span("nuise", 20, 30, Some(1)),
            span("snapshot", 50, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&nested()), vec![30, 20, 10, 40]);
    }

    #[test]
    fn parents_are_inferred_from_enclosure() {
        let expected = nested();
        let mut shuffled: Vec<Span> = expected.iter().rev().cloned().collect();
        shuffled.iter_mut().for_each(|s| s.parent = Some(99));
        infer_parents(&mut shuffled);
        let parents: Vec<Option<usize>> = shuffled.iter().map(|s| s.parent).collect();
        // Reversed order: snapshot, nuise, step, tick.
        assert_eq!(parents, vec![Some(3), Some(2), Some(3), None]);
        assert_eq!(self_times(&shuffled), vec![40, 10, 20, 30]);
    }

    #[test]
    fn a_child_sharing_its_parents_start_is_still_a_child() {
        let mut spans = vec![span("inner", 5, 6, None), span("outer", 5, 9, None)];
        infer_parents(&mut spans);
        assert_eq!(spans[0].parent, Some(1));
        assert_eq!(self_times(&spans), vec![1, 3]);
    }

    #[test]
    fn summed_calls_count_against_their_parent() {
        let mut tracer = Tracer::new();
        let tick = tracer.begin("tick", None, 3);
        tracer.add_total("wire.decode", tick, 3, 0, 40);
        tracer.end(tick);
        tracer.spans[0].end_ns = tracer.spans[0].start_ns + 1_000;
        tracer.spans[1].end_ns = tracer.spans[1].start_ns + 250;
        assert_eq!(self_times(&tracer.spans), vec![750, 250]);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"wire.decode\""));
        assert!(text.contains("\"parent\":0,\"tick\":3,\"calls\":40"));
    }
}
