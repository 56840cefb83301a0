//! Spans recorded by the benchmark's own code around each call into a
//! layer. Kept in memory, written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a top-level span (one cycle, one statement).
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.end_batch`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The operation (cycle or statement) this span belongs to.
    pub op_id: u32,
}

/// In-memory span recorder. When disabled every method is a branch and a
/// clock read the caller needed anyway, so the untraced run measures the
/// same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span now; close it with [`Tracer::end`]. Returns its index
    /// (usable as a child's `parent`), or [`ROOT`] when disabled.
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: u32) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` and, when enabled, record it as a span. Returns `f`'s value
    /// and its wall time in seconds — the one clock both the end-to-end
    /// samples and the spans come from.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        if self.enabled {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
                parent,
                op_id,
            });
        }
        (r, secs)
    }

    /// Record an aggregated child interval of `busy_ns` under `parent` (for
    /// work seen only as a counter delta, such as the time the device
    /// wrapper spent inside the calls a library function made). It is
    /// placed at the parent's start; only its length is meaningful.
    pub fn child_busy(&mut self, name: &'static str, parent: u32, busy_ns: u64) {
        if !self.enabled || busy_ns == 0 {
            return;
        }
        let Some(p) = self.spans.get(parent as usize).copied() else {
            return;
        };
        self.spans.push(Span {
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + busy_ns.min(p.end_ns - p.start_ns),
            parent,
            op_id: p.op_id,
        });
    }

    /// Index of the most recently recorded span, or [`ROOT`].
    pub fn last(&self) -> u32 {
        if self.spans.is_empty() {
            ROOT
        } else {
            (self.spans.len() - 1) as u32
        }
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", ROOT, 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.begin("op", ROOT, 0), ROOT);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans.push(Span {
            name: "op",
            start_ns: 0,
            end_ns: 100,
            parent: ROOT,
            op_id: 1,
        });
        t.spans.push(Span {
            name: "store.end_batch",
            start_ns: 10,
            end_ns: 90,
            parent: 0,
            op_id: 1,
        });
        t.child_busy("vfs.busy", 1, 30);
        let own = t.self_times();
        assert!((own["op"] - 20e-9).abs() < 1e-15);
        assert!((own["store.end_batch"] - 50e-9).abs() < 1e-15);
        assert!((own["vfs.busy"] - 30e-9).abs() < 1e-15);
        assert_eq!(t.spans()[2].op_id, 1, "child inherits the op");
    }
}
