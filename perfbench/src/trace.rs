//! Spans the benchmark records around its own calls into the layers.
//!
//! A span holds a name, start, end, parent and request id. Spans live in
//! memory (each client thread keeps its own buffer) and are written out
//! once, when the run ends. A span's self time is its duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// What the interval covers, e.g. `request` or `probe.sql.read`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request this span belongs to, if any.
    pub req: Option<u64>,
}

/// Hands out span ids and timestamps; spans themselves are buffered by
/// whoever records them and handed back with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: std::sync::Mutex<Vec<Span>>,
}

/// A span that has started but not ended.
pub struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    req: Option<u64>,
}

impl Open {
    /// The id children name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: std::sync::Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<u64>, req: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: self.now_ns(),
            parent,
            req,
        }
    }

    /// Ends a span and returns it for the caller's buffer.
    pub fn close(&self, open: Open) -> Span {
        Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            parent: open.parent,
            req: open.req,
        }
    }

    /// Ends a span straight into the tracer's own buffer.
    pub fn close_into(&self, open: Open) {
        let span = self.close(open);
        self.absorb(vec![span]);
    }

    /// Takes over a buffer of finished spans.
    pub fn absorb(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .extend(spans);
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total and self time of all spans sharing a name.
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Writes the spans as one JSON array, one span per line.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}{}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.req),
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..30 and 20..50 and a
        // child sticking out past the root's end.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
        assert_eq!(t["child"].count, 3);
        assert_eq!(t["child"].self_ns, 20 + 30 + 30);
    }
}
