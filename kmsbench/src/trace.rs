//! In-memory span and counter recorder.
//!
//! Spans (name, start, end, parent) and counters are kept in memory while
//! the benchmark runs and written once at the end as Chrome trace-event
//! JSON, which opens offline in Perfetto or `about:tracing`. A disabled
//! recorder only runs the wrapped closures, so untraced passes pay for
//! nothing but a branch.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// The recorder. Spans nest through the closure passed to [`Tracer::span`].
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(String, f64, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records a counter sample.
    pub fn counter(&mut self, name: &str, value: f64) {
        if self.enabled {
            let ts = self.now_us();
            self.counters.push((name.to_string(), ts, value));
        }
    }

    /// A position in the span list, for [`Tracer::total_ms`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans named `name` recorded since `mark`.
    pub fn total_ms(&self, name: &str, mark: usize) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    /// Renders every span and counter as Chrome trace-event JSON: one
    /// complete (`X`) event per span, with its id and parent id in `args`,
    /// and one counter (`C`) event per sample.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (id, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"kmsbench\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us
            );
        }
        for (name, ts, value) in &self.counters {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"{name}\", \"ph\": \"C\", \"ts\": {ts:.3}, \"pid\": 1, \
                 \"args\": {{\"value\": {}}}}}",
                crate::record::json_num(*value)
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}
