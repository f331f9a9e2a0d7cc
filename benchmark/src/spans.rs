//! Harness-side spans: one per call into a layer, recorded in memory
//! from the benchmark's own code and written out when the run ends.
//! Spans inside the program are a later change (ROADMAP item 3).

use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it
/// (the workload's root span has none).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log for one run; all spans share the run's workload
/// as their trace identifier.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose root span (index 0) is the workload itself.
    pub fn new(workload: &str) -> SpanLog {
        let mut log = SpanLog {
            origin: Instant::now(),
            workload: workload.into(),
            spans: Vec::new(),
        };
        log.open(workload, None);
        log
    }

    /// Index of the workload's root span.
    pub const ROOT: usize = 0;

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span, returning its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Run `f` inside a span under `parent`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The log as one JSON document (closing the root span first).
    pub fn finish_json(&mut self) -> String {
        self.close(Self::ROOT);
        let mut s = format!(
            "{{\"schema\": \"adaptagg-benchmark-spans/v1\", \"trace_id\": \"{}\", \"spans\": [\n",
            self.workload
        );
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            s.push_str(&format!(
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}}}{sep}\n",
                span.name,
                span.start_ns,
                span.end_ns,
                self.self_ns(i),
            ));
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new("w");
        let outer = log.open("outer", Some(SpanLog::ROOT));
        let ((), inner_ns) = log.time("inner", outer, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ns = log.close(outer);
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        assert_eq!(log.self_ns(outer), outer_ns - inner_ns);
        let json = log.finish_json();
        assert!(json.contains("\"trace_id\": \"w\""));
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"parent\": null"));
    }
}
