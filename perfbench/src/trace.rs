//! Spans recorded by the benchmark's own code around each call into a
//! layer. Kept in memory and written out when the run ends; a disabled
//! tracer records nothing but still times the call.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Spans of one request (a partition call, a serve
/// request) share `trace`.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `facade.partition`.
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request identifier.
    pub trace: u64,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
}

/// The span recorder of one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, returning its result and wall time in seconds. When
    /// tracing, records a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own children.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        trace: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> (T, f64) {
        let id = self.on.then(|| {
            let mut spans = self.spans.lock().expect("span list poisoned by a panic");
            spans.push(Span {
                name: name.to_string(),
                parent,
                trace,
                start_us: 0.0,
                end_us: 0.0,
            });
            spans.len() - 1
        });
        let started = Instant::now();
        let out = f(id);
        let ended = Instant::now();
        if let Some(id) = id {
            let mut spans = self.spans.lock().expect("span list poisoned by a panic");
            spans[id].start_us = started.duration_since(self.epoch).as_secs_f64() * 1e6;
            spans[id].end_us = ended.duration_since(self.epoch).as_secs_f64() * 1e6;
        }
        (out, ended.duration_since(started).as_secs_f64())
    }

    /// Writes every span as one JSON line with its self time: its duration
    /// minus the time its children cover.
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let mut child_us = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_us - s.start_us;
            writeln!(
                out,
                "{{\"span\": {}, \"id\": {i}, \"parent\": {}, \"trace\": {}, \"start_us\": {:.1}, \"dur_us\": {:.1}, \"self_us\": {:.1}}}",
                crate::util::json_str(&s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.trace,
                s.start_us,
                dur,
                (dur - child_us[i]).max(0.0),
            )?;
        }
        Ok(())
    }
}
