//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions; the engine and server carry no tracing.
//! Each thread owns a [`Recorder`], keeps its spans in memory and hands
//! them back when it ends; [`write_csv`] writes them out once the run is
//! over. A span's self time is its duration minus the time its child spans
//! cover: children of one thread never overlap, so that is the sum of
//! their durations.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Ids index the owning thread's span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `table.exec`.
    pub name: &'static str,
    /// Index of the enclosing span in the same thread, if any.
    pub parent: Option<usize>,
    /// The request this span served (shared by all spans of one request).
    pub request: u64,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle returned by [`Recorder::begin`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Per-thread in-memory span recorder. A disabled recorder does nothing,
/// which is how the untraced half of the overhead comparison runs the
/// same code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder timing against `epoch`, recording only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder { enabled, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span named `name` for `request`, nested in the innermost
    /// open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, request, start_ns, end_ns: start_ns });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one thread: its duration minus the summed
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans.iter().zip(&child).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
}

/// Durations and self times (µs) per span name, over all threads.
#[derive(Default)]
pub struct SpanTable {
    /// name → (durations, self times), both in µs.
    pub by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
    /// request → name → summed duration in µs, for per-request arithmetic.
    pub by_request: BTreeMap<u64, BTreeMap<&'static str, f64>>,
}

impl SpanTable {
    /// Aggregates the spans of every thread.
    pub fn build(threads: &[Vec<Span>]) -> SpanTable {
        let mut table = SpanTable::default();
        for spans in threads {
            for (s, self_ns) in spans.iter().zip(self_times(spans)) {
                let dur = s.dur_ns() as f64 / 1e3;
                let entry = table.by_name.entry(s.name).or_default();
                entry.0.push(dur);
                entry.1.push(self_ns as f64 / 1e3);
                *table.by_request.entry(s.request).or_default().entry(s.name).or_default() += dur;
            }
        }
        table
    }

    /// Durations (µs) of the spans named `name`.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], |(d, _)| d.as_slice())
    }

    /// Self times (µs) of the spans named `name`.
    pub fn self_times(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], |(_, s)| s.as_slice())
    }
}

/// Writes every span as CSV: `thread,id,parent,request,name,start_ns,end_ns,self_ns`.
pub fn write_csv(path: &Path, threads: &[Vec<Span>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,id,parent,request,name,start_ns,end_ns,self_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{t},{i},{parent},{},{},{},{},{self_ns}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("wire", Some(0), 10, 40),
            span("exec", Some(0), 50, 70),
            span("inner", Some(2), 55, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 15, 5]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        let s = r.begin("x", 1);
        r.end(s);
        assert!(r.into_spans().is_empty());
        let mut r = Recorder::new(true, Instant::now());
        let outer = r.begin("outer", 1);
        r.time("inner", 1, || ());
        r.end(outer);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
