//! In-memory span recorder for the traced pass.
//!
//! A span is recorded at each boundary where the benchmark calls into a
//! product layer (`core.launch`, `kernels.verify`, `bench.cache.flush`,
//! …) and around the benchmark's own glue (`vxbench.*`). Spans nest by
//! call order; a span's *self time* is its duration minus the part its
//! children cover. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::measure::ratio;

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Copy, Clone, Debug)]
pub struct SpanId(u32);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// 1-based; `parent == 0` marks a root.
    parent: u32,
    req: u32,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// Per-name aggregate over every recorded span of that name.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ self times (duration minus children).
    pub self_ns: u64,
    /// Σ of the `count` each span was closed with (work units).
    pub count: u64,
}

impl NameTotal {
    /// Mean duration of one call, in µs.
    pub fn us_per_call(&self) -> f64 {
        ratio(self.total_ns as f64 / 1e3, self.calls as f64)
    }

    /// Duration per counted work unit, in ns.
    pub fn ns_per_count(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    reqs: Vec<String>,
}

impl Spans {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            reqs: vec![String::new()],
        }
    }

    /// Sets the request identifier (`workload/rep/kernel/topology/policy`)
    /// stamped on every span opened from now on.
    pub fn set_req(&mut self, req: String) {
        self.reqs.push(req);
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let parent = self.stack.last().copied().unwrap_or(0);
        let req = (self.reqs.len() - 1) as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, parent, req, start_ns, end_ns: start_ns, count: 0 });
        let id = self.spans.len() as u32;
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id` (which must be the innermost open span) with `count`
    /// work units.
    pub fn exit(&mut self, id: SpanId, count: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id.0), "spans must close innermost-first");
        let span = &mut self.spans[id.0 as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Runs `f` inside a span named `name`, closing it with the work-unit
    /// count `f` returns alongside its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let id = self.enter(name);
        let (value, count) = f();
        self.exit(id, count);
        value
    }

    /// Aggregates by span name, in first-seen order.
    pub fn totals(&self) -> Vec<(&'static str, NameTotal)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                child_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut out: Vec<(&'static str, NameTotal)> = Vec::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let dur = span.end_ns - span.start_ns;
            let slot = match out.iter().position(|(n, _)| *n == span.name) {
                Some(i) => i,
                None => {
                    out.push((span.name, NameTotal::default()));
                    out.len() - 1
                }
            };
            let t = &mut out[slot].1;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*children);
            t.count += span.count;
        }
        out
    }

    /// The aggregate for one name (zeros when never recorded).
    pub fn total(&self, name: &str) -> NameTotal {
        self.totals().into_iter().find(|(n, _)| *n == name).map(|(_, t)| t).unwrap_or_default()
    }

    /// Renders the span file: per-name self-time table first, then every
    /// span. `start_ns`/`end_ns` are host ns since the recorder was made.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"host_ns\",\n \"self_time\": [");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n  {{\"name\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"count\": {}}}",
                t.calls, t.total_ns, t.self_ns, t.count
            );
        }
        s.push_str("\n ],\n \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"req\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                span.name,
                i + 1,
                span.parent,
                self.reqs[span.req as usize],
                span.start_ns,
                span.end_ns,
                span.count
            );
        }
        s.push_str("\n ]}\n");
        s
    }
}
