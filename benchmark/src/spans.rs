//! Harness-side spans: recorded in memory around calls into the
//! system, aggregated into self times, written out as a Chrome trace
//! when the run ends.
//!
//! Spans are recorded after the fact from instants the harness takes
//! anyway, so a traced request costs two extra clock reads and a few
//! `Vec` pushes; `harness.trace_overhead_pct` measures exactly that.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    /// Nanoseconds since the tracer's epoch.
    start: u64,
    end: u64,
    /// Display lane: concurrent requests of one wave get one each.
    lane: u32,
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
    /// Sum of the child spans' own durations (not clipped, not merged).
    pub child_ns: u64,
}

impl SpanTotals {
    /// Relative gap between the spans' duration and their self time
    /// plus their children's durations. Zero when children neither
    /// overlap nor leave their parent, which is what a request's spans
    /// must satisfy; a broken span tree shows here.
    pub fn sum_error(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let parts = (self.self_ns + self.child_ns) as f64;
        (self.total_ns as f64 - parts).abs() / self.total_ns as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span on lane 0.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.record_on(0, name, parent, start, end)
    }

    /// Records a finished span on a display lane of its own.
    pub fn record_on(
        &mut self,
        lane: u32,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start, end) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            parent,
            start,
            end: end.max(start),
            lane,
        });
        self.spans.len() - 1
    }

    /// Starts a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, start: Instant) -> SpanId {
        self.record(name, parent, start, start)
    }

    /// Ends a span started with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans[id].end = end.max(self.spans[id].start);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals. A span's self time is its duration minus the
    /// part of its interval that its children cover (children of one
    /// parent may overlap each other, as the requests of a wave do).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                child_ns[p] += s.end - s.start;
                let clipped = (s.start.max(parent.start), s.end.min(parent.end));
                if clipped.0 < clipped.1 {
                    children[p].push(clipped);
                }
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for ((s, intervals), child) in self.spans.iter().zip(&mut children).zip(child_ns) {
            let total = s.end - s.start;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered(intervals);
            t.child_ns += child;
        }
        out
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto): an array of complete (`"ph":"X"`) events with
    /// microsecond timestamps; span id and parent ride in `args`.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let event = Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start as f64 / 1e3)),
                ("dur", Json::Num((s.end - s.start) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.lane))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ]);
            if id > 0 {
                out.write_all(b",\n")?;
            }
            out.write_all(event.render().as_bytes())?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, us: u64) -> Instant {
        t.epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.record("request", None, at(&t, 0), at(&t, 100));
        t.record("run.compile", Some(root), at(&t, 10), at(&t, 40));
        t.record("run.execute", Some(root), at(&t, 40), at(&t, 90));
        let totals = t.totals();
        assert_eq!(totals["request"].total_ns, 100_000);
        assert_eq!(totals["request"].self_ns, 20_000);
        assert_eq!(totals["run.compile"].self_ns, 30_000);
        assert_eq!(totals["run.execute"].count, 1);
        assert_eq!(totals["request"].sum_error(), 0.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // A wave of concurrent requests: the union covers 0..90.
        let mut t = Tracer::new();
        let wave = t.record("serve.wave", None, at(&t, 0), at(&t, 100));
        t.record_on(1, "request", Some(wave), at(&t, 0), at(&t, 60));
        t.record_on(2, "request", Some(wave), at(&t, 30), at(&t, 90));
        let totals = t.totals();
        assert_eq!(totals["serve.wave"].self_ns, 10_000);
        assert_eq!(totals["request"].total_ns, 120_000);
        // Plain summation does not hold for overlapping children.
        assert!(totals["serve.wave"].sum_error() > 0.2);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let mut t = Tracer::new();
        let root = t.record("request", None, at(&t, 5), at(&t, 25));
        t.record("run.compile", Some(root), at(&t, 5), at(&t, 25));
        let path = std::env::temp_dir().join(format!("qc-bench-trace-{}.json", std::process::id()));
        t.write_chrome(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let doc = Json::parse(&text).expect("valid json");
        let events = doc.as_array().expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(5.0));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(20.0));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Json::as_f64), Some(0.0));
    }
}
