//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it, and an
//! optional request id shared by every span of one service request.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. Span names are `<layer>.<what>`; a layer's self time is
//! the time its spans cover minus the part their children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no span": the parent of a root span, the request of a span
/// outside any request.
pub const NONE: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// An instant on the tracer's clock, in nanoseconds.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id (ids only order spans; relaxed is enough).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span whose id was taken with [`Tracer::id`].
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span list lock poisoned").push(span);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Runs `f` inside a span named `name` under `parent` when tracing,
/// and returns its result with its wall time in seconds either way.
/// `f` receives the span's id (or [`NONE`] when not tracing), so that
/// its own spans can name it as their parent.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(u64) -> T,
) -> (T, f64) {
    match tracer {
        None => {
            let t = Instant::now();
            let out = f(NONE);
            (out, t.elapsed().as_secs_f64())
        }
        Some(tr) => {
            let id = tr.id();
            let start_ns = tr.now();
            let out = f(id);
            let end_ns = tr.now();
            tr.record(Span { id, parent, name, start_ns, end_ns, req: NONE });
            (out, (end_ns - start_ns) as f64 * 1e-9)
        }
    }
}

/// Total seconds covered by spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).sum()
}

/// Durations in seconds of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).collect()
}

/// Self time per layer in seconds: each span's duration minus the
/// union of its children's intervals, summed by the layer prefix of its
/// name.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NONE) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |iv| union_ns(iv));
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0.0) += s.dur_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"req\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns, req: NONE }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 70) of a [0, 100) parent.
        let spans = vec![
            sp(1, NONE, "bench.matrix", 0, 100),
            sp(2, 1, "core.run", 10, 50),
            sp(3, 1, "core.run", 30, 70),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["bench"] - 30e-9).abs() < 1e-15);
        assert!((by_layer["core"] - 80e-9).abs() < 1e-15);
    }
}
