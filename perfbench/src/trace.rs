//! In-memory spans recorded by the benchmark around public calls.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are kept
//! in memory while the workload runs and written out once at the end,
//! so recording costs a lock and a `Vec` push. With tracing off no span
//! is stored, but every span still measures its own duration: the
//! untraced run times its operations with the same clock reads.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use parfait_telemetry::json::Json;

/// One closed span.
struct Rec {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// The span store for one process.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Rec>>,
}

/// An open span; closed by [`Span::end`] (or on drop).
pub struct Span<'a> {
    tracer: &'a Tracer,
    slot: Option<usize>,
    started: Instant,
    closed: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span under `parent` (a span id from [`Span::id`]).
    pub fn span(&self, name: &str, parent: Option<usize>, req: u64) -> Span<'_> {
        let started = Instant::now();
        let slot = self.on.then(|| {
            let mut spans = self.spans.lock().unwrap();
            let start = started - self.t0;
            spans.push(Rec { name: name.to_string(), start, end: start, parent, req });
            spans.len() - 1
        });
        Span { tracer: self, slot, started, closed: false }
    }

    /// Time `f` in a span and return its result with the duration.
    pub fn time<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.span(name, parent, 0);
        let out = f();
        (out, span.end())
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().unwrap();
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end - s.start).saturating_sub(child[i]);
            *out.entry(s.name.clone()).or_insert(0.0) += own.as_secs_f64();
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Every span as one JSON line, in the order they were opened.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().unwrap();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(i as i64)),
                ("name", Json::str(&s.name)),
                ("start_us", Json::Int(s.start.as_micros() as i64)),
                ("end_us", Json::Int(s.end.as_micros() as i64)),
                ("parent", s.parent.map(|p| Json::Int(p as i64)).unwrap_or(Json::Null)),
                ("req", Json::Int(s.req as i64)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

impl Span<'_> {
    /// The id children pass as their parent (`None` when untraced).
    pub fn id(&self) -> Option<usize> {
        self.slot
    }

    /// Close the span and return its duration in seconds.
    pub fn end(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let elapsed = self.started.elapsed();
        if !self.closed {
            self.closed = true;
            if let Some(i) = self.slot {
                let end = (self.started - self.tracer.t0) + elapsed;
                self.tracer.spans.lock().unwrap()[i].end = end;
            }
        }
        elapsed.as_secs_f64()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}
