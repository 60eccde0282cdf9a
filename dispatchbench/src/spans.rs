//! Spans recorded by the benchmark around its calls into the program,
//! and the per-workload time breakdown built from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span: `parent` indexes the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers (`run`, `offer`, `pump`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
}

/// In-memory span store for one pass; written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<u32>) -> u32 {
        self.record(name, start, start, parent)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV: `id,name,start_ns,end_ns,parent`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{i},{},{},{},{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Rows of a breakdown, in order. `unattributed` closes the sum to the
/// run wall.
pub const ROWS: [&str; 7] = [
    "offer",
    "solve",
    "sink",
    "fsync",
    "other_dispatch",
    "finish",
    "unattributed",
];

/// Seconds per [`ROWS`] entry; the entries sum to the run wall.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Run wall the rows partition, in seconds.
    pub wall_s: f64,
    /// One value per [`ROWS`] entry, in seconds.
    pub rows: [f64; 7],
}

impl Breakdown {
    /// Partitions `wall_s` given the measured parts; the rest of the
    /// dispatch time is `other_dispatch`, the rest of the wall is
    /// `unattributed`.
    pub fn new(
        wall_s: f64,
        offer_s: f64,
        dispatch_s: f64,
        solve_s: f64,
        sink_s: f64,
        fsync_s: f64,
        finish_s: f64,
    ) -> Breakdown {
        let other = dispatch_s - solve_s - sink_s - fsync_s;
        let unattributed = wall_s - offer_s - dispatch_s - finish_s;
        Breakdown {
            wall_s,
            rows: [
                offer_s,
                solve_s,
                sink_s,
                fsync_s,
                other,
                finish_s,
                unattributed,
            ],
        }
    }

    /// Share of the wall nobody accounted for.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.rows[6] / self.wall_s
        } else {
            0.0
        }
    }
}
