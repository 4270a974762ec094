//! Spans recorded from the benchmark's own files, round the calls into
//! each layer. They are pushed to a preallocated vector and written out
//! once, when the run ends.

use crate::adapter::Json;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one traced query share `query`; `parent`
/// is the id of the span that caused this one, 0 for a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
    epoch: Instant,
    query: u32,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, so recording allocates
    /// nothing until that many have been pushed.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            epoch: Instant::now(),
            query: 0,
        }
    }

    /// Later spans belong to traced query number `query`.
    pub fn start_query(&mut self, query: u32) {
        self.query = query;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one and return its id.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            query: self.query,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`, and return its
    /// length in milliseconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Record `work` as one span; returns what it returned and the span's
    /// length in milliseconds.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = work();
        (out, self.end(id))
    }

    /// Write one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::Num(f64::from(span.id))),
                ("parent", Json::Num(f64::from(span.parent))),
                ("query", Json::Num(f64::from(span.query))),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}
