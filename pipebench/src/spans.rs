//! In-memory spans: name, start, end, parent and batch id, written out as
//! JSON lines when the run ends.  A span's self time is its duration minus
//! the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub batch: usize,
    /// Operations the span covers (evaluations timed as one group).
    pub count: usize,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        batch: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.counted(name, batch, 1, f)
    }

    /// [`Recorder::span`] over `count` operations timed as one group.
    pub fn counted<T>(
        &mut self,
        name: &'static str,
        batch: usize,
        count: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed();
        self.spans.push(Span { name, start, end: start, parent, batch, count });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        value
    }

    /// Self time of every span in seconds per operation, grouped by name,
    /// for spans whose batch passes `keep`.
    pub fn self_times(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end - span.start;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            if keep(span.batch) && span.count > 0 {
                let own = (span.end - span.start).saturating_sub(covered);
                by_name.entry(span.name).or_default().push(own.as_secs_f64() / span.count as f64);
            }
        }
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{},\"count\":{}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                span.batch,
                span.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("outer", 1, |rec| {
            std::thread::sleep(Duration::from_millis(5));
            rec.span("inner", 1, |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let times = rec.self_times(|_| true);
        let outer = times["outer"][0];
        let inner = times["inner"][0];
        assert!(inner >= 0.020);
        assert!((0.005..0.020).contains(&outer), "{outer}");
    }

    #[test]
    fn counted_spans_report_per_operation_time() {
        let mut rec = Recorder::new();
        rec.counted("group", 0, 4, |_| std::thread::sleep(Duration::from_millis(8)));
        let per_op = rec.self_times(|_| true)["group"][0];
        assert!((0.002..0.008).contains(&per_op), "{per_op}");
    }
}
