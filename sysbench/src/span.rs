//! In-memory spans around the benchmark's calls into the simulator's
//! public API, and the self-time table derived from them.
//!
//! The recorder lives entirely in the benchmark: it times calls from the
//! outside and adds no tracing inside the program. A disabled recorder
//! only runs the closures it is handed, so the untraced run pays one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::CpuInstant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `host.write`.
    pub name: &'static str,
    /// Start, in CPU nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in CPU nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the call served: the image line on `edge`, the
    /// processor's index on the sea workloads.
    pub request: Option<u32>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span returned by [`Spans::enter`]; close it with
/// [`Spans::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: CpuInstant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            origin: CpuInstant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until its exit.
    pub fn enter(&mut self, name: &'static str, request: Option<u32>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`enter`](Self::enter).
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(self.open.pop(), Some(id), "spans must nest");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus
    /// the part its child spans cover. Over a closed tree the entries
    /// add up to the duration of the roots.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = table.entry(span.name).or_default();
            entry.count += 1;
            entry.self_ns += span.duration_ns() - children;
        }
        table
    }

    /// Total duration of the root spans, in nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as one JSON document, with the self-time table.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            );
        }
        out.push_str("\n],\"self_time_ns\":{");
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", t.self_ns);
        }
        out.push_str("}}\n");
        out
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Their summed self time, in nanoseconds.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_roots() {
        let mut spans = Spans::on();
        let root = spans.enter("run", None);
        for line in 0..3 {
            let open = spans.enter("line", Some(line));
            spans.time("host.write", Some(line), || std::hint::black_box(line * 2));
            spans.time("host.read", Some(line), || std::hint::black_box(line + 1));
            spans.exit(open);
        }
        spans.exit(root);
        let table = spans.self_times();
        let total: u64 = table.values().map(|t| t.self_ns).sum();
        assert_eq!(total, spans.root_ns());
        assert_eq!(table["line"].count, 3);
        assert_eq!(table["host.write"].count, 3);
        assert_eq!(spans.spans()[2].parent, Some(1));
        assert!(crate::json::validate(&spans.to_json("edge", 1)).is_ok());
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut spans = Spans::off();
        let open = spans.enter("run", None);
        assert_eq!(spans.time("host.write", None, || 7), 7);
        spans.exit(open);
        assert!(spans.spans().is_empty());
        assert!(spans.self_times().is_empty());
    }
}
