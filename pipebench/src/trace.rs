//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer name, the op (job) it belongs to, its parent
//! span, and its start and end. Spans stay in memory and are written out
//! when the run ends. A layer's self time is its spans' durations minus
//! the part covered by child spans; the root `job` span's self time is
//! the op time no layer span covers (`trace.unattributed_pct`).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Root span of one op.
pub const JOB: &str = "job";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    on: bool,
    counting: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            counting: false,
            epoch,
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off; counters follow `counting`.
    pub fn set(&mut self, on: bool, counting: bool) {
        self.on = on;
        self.counting = on && counting;
    }

    /// Opens the root span of op `job`.
    pub fn begin_job(&mut self, job: u64) -> Option<usize> {
        self.job = job;
        self.begin(JOB)
    }

    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
            self.open.retain(|&o| o != id);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Adds to a counter (only while counting is on).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.counting {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_default() += s.end.saturating_sub(s.start).saturating_sub(c);
        }
        out
    }

    /// Total duration of root `job` spans.
    pub fn job_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == JOB)
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// Writes one JSON line per span.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.job,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(Instant::now());
        let job = tr.begin_job(0);
        assert!(job.is_none());
        tr.count("x", 1);
        assert_eq!(tr.counter("x"), 0);

        tr.set(true, true);
        let job = tr.begin_job(1);
        tr.span("a", || spin(Duration::from_millis(5)));
        let b = tr.begin("b");
        tr.span("c", || spin(Duration::from_millis(5)));
        tr.end(b);
        tr.end(job);
        tr.count("x", 3);

        let st = tr.self_times();
        assert!(st["a"] >= Duration::from_millis(5));
        assert!(
            st["b"] < Duration::from_millis(5),
            "child time leaked into b"
        );
        assert!(st["c"] >= Duration::from_millis(5));
        assert!(st[JOB] < Duration::from_millis(2));
        let covered: Duration = st.values().sum();
        assert_eq!(covered, tr.job_time());
        assert_eq!(tr.counter("x"), 3);
        assert!(tr.spans().iter().all(|s| s.job == 1));
    }
}
