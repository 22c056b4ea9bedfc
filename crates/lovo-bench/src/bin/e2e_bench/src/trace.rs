//! Outside-in span recorder for the traced pass.
//!
//! The engine is not instrumented: the benchmark calls each stage's public
//! function inside a span of its own. Spans live in memory and are written
//! to `trace_<workload>.json` when the run ends. Nothing in the untraced
//! measurement touches this module.

use crate::estimators::ClassSamples;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is the span this call decomposes; `op` ties the
/// spans of one operation together; `class` is the op class (plan or content
/// index) its duration is a sample of.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub class: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Identity of the op a span belongs to.
#[derive(Debug, Clone, Copy)]
pub struct OpRef {
    pub op: u32,
    pub class: u32,
    pub parent: Option<u32>,
}

impl OpRef {
    /// The same op, one level down: spans recorded with it are children of
    /// span `parent`.
    pub fn under(self, parent: u32) -> Self {
        Self {
            parent: Some(parent),
            ..self
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    /// Span times count from the moment the tracer is made.
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span and returns the span's id with the result.
    pub fn span<T>(&mut self, name: &'static str, at: OpRef, call: impl FnOnce() -> T) -> (u32, T) {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: at.op,
            class: at.class,
            parent: at.parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() as u32 - 1, out)
    }

    /// Renames a span once its outcome is known (a submission turns out to be
    /// a cache hit only after it returns).
    pub fn retag(&mut self, id: u32, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Steady seconds of every span called `name` — Σ count × steady time
    /// over the op classes — with the span count.
    pub fn steady(&self, name: &str) -> (f64, usize) {
        let mut samples = ClassSamples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            samples.record(span.class, span.seconds());
        }
        (samples.steady_total(), samples.count())
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| own.get_mut(p as usize)) {
                *slot -= span.seconds();
            }
        }
        own
    }

    /// How much of the spans called `name` their direct children account
    /// for: Σ child durations over Σ span durations. The children are the
    /// replay of an opaque call, so a faithful decomposition gives a share
    /// near 1. `None` when no such span has a child.
    pub fn coverage(&self, name: &str) -> Option<f64> {
        let (mut parents, mut children) = (0.0, 0.0);
        for span in &self.spans {
            if span.name == name {
                parents += span.seconds();
            }
            let parent = span.parent.and_then(|p| self.spans.get(p as usize));
            if parent.is_some_and(|p| p.name == name) {
                children += span.seconds();
            }
        }
        (children > 0.0 && parents > 0.0).then(|| children / parents)
    }

    /// The spans as a JSON array, one object per span, in call order.
    pub fn to_json(&self) -> String {
        let own = self.self_seconds();
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"class\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.name,
                span.op,
                span.class,
                span.start_ns,
                span.end_ns,
                (own[id] * 1e9).round() as i64,
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(op: u32, class: u32, parent: Option<u32>) -> OpRef {
        OpRef { op, class, parent }
    }

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut tracer = Tracer::default();
        let (root, value) = tracer.span("root", at(0, 0, None), || 41 + 1);
        assert_eq!(value, 42);
        let root_ref = at(0, 0, None).under(root);
        tracer.span("child", root_ref, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("child", root_ref, || ());
        // Hand-set times so the arithmetic is exact.
        tracer.spans[0].start_ns = 0;
        tracer.spans[0].end_ns = 10_000;
        tracer.spans[1].start_ns = 10_000;
        tracer.spans[1].end_ns = 16_000;
        tracer.spans[2].start_ns = 16_000;
        tracer.spans[2].end_ns = 19_000;
        let own = tracer.self_seconds();
        assert!((own[0] - 1e-6).abs() < 1e-12);
        assert!((own[1] - 6e-6).abs() < 1e-12);
        assert_eq!(tracer.steady("child").1, 2);
        assert!((tracer.coverage("root").unwrap() - 0.9).abs() < 1e-9);
        assert_eq!(tracer.coverage("child"), None);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut tracer = Tracer::default();
        let (root, ()) = tracer.span("a.b", at(3, 7, None), || ());
        tracer.span("c.d", at(3, 7, Some(root)), || ());
        let json = tracer.to_json();
        assert!(json.starts_with("[\n") && json.ends_with(']'));
        assert!(json.contains("\"name\": \"a.b\", \"op\": 3, \"class\": 7, \"parent\": null"));
        assert!(json.contains("\"name\": \"c.d\", \"op\": 3, \"class\": 7, \"parent\": 0"));
        assert_eq!(json.matches("\"id\"").count(), 2);
    }
}
