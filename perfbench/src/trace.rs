//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)`; spans of one operation share the
//! operation's index.  Spans are recorded from the benchmark's own code,
//! around calls into each layer's public functions, kept in memory while
//! the run measures, and written out once at exit.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: RefCell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: RefCell::new(0),
        }
    }
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.index].end_ns = end;
        self.tracer.open.borrow_mut().pop();
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts operation `op`: spans opened from now on carry its index.
    pub fn begin_op(&self, op: u64) {
        *self.op.borrow_mut() = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.now_ns();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            op: *self.op.borrow(),
            start_ns: start,
            end_ns: start,
            parent,
        });
        let index = spans.len() - 1;
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Times `f` as a span named `name`; returns its result and duration
    /// in ms.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let guard = self.span(name);
        let index = guard.index;
        let out = f();
        drop(guard);
        let ms = self.spans.borrow()[index].ms();
        (out, ms)
    }

    /// Durations (ms) of every closed span named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as a tab-separated line
    /// `index  op  name  start_ns  end_ns  parent`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\top\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Opens a span on an optional tracer (no-op when tracing is off).
pub fn span<'t>(tracer: Option<&'t Tracer>, name: &'static str) -> Option<SpanGuard<'t>> {
    tracer.map(|t| t.span(name))
}
