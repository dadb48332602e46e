//! In-memory host-time spans recorded around the benchmark's calls into
//! each layer. Spans are kept until the run ends, then reduced to a
//! per-name self-time table and written as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The op (request, forward, decode step) the span belongs to;
    /// spans of one op share it.
    op: u64,
}

/// A span recorder. When disabled every call is a no-op, so the
/// untraced run pays one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the self-time table.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span that later spans nest under until [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = end_ns;
    }

    /// Record a finished leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, op });
    }

    /// Time `f` as a leaf span named `name`, returning its result and
    /// its host milliseconds (measured whether or not tracing is on).
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let t1 = Instant::now();
        self.leaf(name, op, t0, t1);
        (r, (t1 - t0).as_secs_f64() * 1e3)
    }

    /// Per-name totals: span count, wall time, and self time (wall time
    /// minus the part covered by direct children).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ms += dur as f64 / 1e6;
            row.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        table
    }

    /// Chrome trace-event JSON of the first `limit` spans (the table
    /// covers all of them; the file is capped to stay loadable).
    pub fn chrome_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let depth = {
                let (mut d, mut p) = (0, s.parent);
                while let Some(q) = p {
                    d += 1;
                    p = self.spans[q].parent;
                }
                d
            };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{depth},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.begin("outer", 0);
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        t.leaf("inner", 0, a, Instant::now());
        t.end();
        let table = t.self_times();
        let (outer, inner) = (&table["outer"], &table["inner"]);
        assert!(inner.total_ms >= 5.0);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-9);
        assert!(t.chrome_json(10).contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("outer", 0);
        let ((), ms) = t.time("inner", 0, || ());
        t.end();
        assert_eq!(t.len(), 0);
        assert!(ms >= 0.0);
    }
}
