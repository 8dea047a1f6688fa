//! In-memory span recording for the traced runs. Spans are recorded by the
//! benchmark around its calls into each layer (the program itself is not
//! instrumented), kept in memory and written out once at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a named interval, the span that caused it, and the
/// job it belongs to (all spans of one job share the job id).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: String,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records an interval measured elsewhere (e.g. by a waiter thread).
    pub fn push(
        &mut self,
        name: &'static str,
        job: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            job: job.to_string(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let id = self.push(name, job, parent, start, Instant::now());
        (value, id)
    }

    /// Opens a span to be closed with [`Tracer::close`] (for a parent whose
    /// children are recorded in between).
    pub fn open(&mut self, name: &'static str, job: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, job, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Summed duration of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of the spans with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as JSON lines (times in seconds from the tracer's start).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"job\":\"{}\",\"start_s\":{:?},\"end_s\":{:?}}}",
                s.name,
                s.job.replace(['"', '\\'], "_"),
                s.start.duration_since(self.origin).as_secs_f64(),
                s.end.duration_since(self.origin).as_secs_f64(),
            );
        }
        out
    }
}
