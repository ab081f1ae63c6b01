//! In-memory spans for the traced run, recorded from the benchmark's own
//! files around the calls into each layer and written out when the run
//! ends. The timed runs never touch this module.

use std::io::Write;
use std::time::Instant;

use crate::json::{obj, Json};

/// Index into [`Spans`]; `NO_PARENT` marks a root span.
pub type SpanId = u32;
/// Parent id of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The span that caused this one.
    pub parent: SpanId,
    /// Layer-qualified name (`runtime.serve_frame`, `pass`, ...).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Operations the interval covered (frames in a batch, ticks, ...).
    pub ops: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Spans nest through an explicit stack: the span on
/// top when a new one opens is its parent.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Spans {
    /// An empty recorder; time zero is now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let now = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns: now,
            end_ns: now,
            ops: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, recording how
    /// many operations it covered.
    pub fn exit(&mut self, id: SpanId, ops: u64) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.ops = ops;
    }

    /// Runs `f` inside a span covering one operation.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id, 1);
        out
    }

    /// Records a child of `parent` whose work was re-executed after the
    /// parent closed (a shadow of work the parent did inside a call that
    /// cannot be opened from outside). The child is laid inside the
    /// parent's interval at `offset_ns`, clipped to the parent's end, so
    /// the parent's self time excludes it. Returns the offset just past
    /// the child, for laying the next shadow beside it.
    pub fn shadow(&mut self, parent: SpanId, name: &'static str, offset_ns: u64, duration_ns: u64, ops: u64) -> u64 {
        let p = &self.spans[parent as usize];
        let start_ns = (p.start_ns + offset_ns).min(p.end_ns);
        let end_ns = (start_ns + duration_ns).min(p.end_ns);
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns,
            ops,
        });
        offset_ns + duration_ns
    }

    /// Every recorded span, in the order opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover. Children are clipped to the
    /// parent and overlapping children are counted once.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if start < end {
                    children[s.parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// For a run traced only by wrapping whole calls from outside: what
    /// recording cost, as the recorder's measured price per span times the
    /// spans recorded, over the time the root spans cover.
    pub fn wrapping_overhead_share(&self) -> f64 {
        const TRIALS: u32 = 10_000;
        let mut scratch = Spans::new();
        let start = Instant::now();
        for _ in 0..TRIALS {
            let id = scratch.enter("price");
            scratch.exit(id, 1);
        }
        let per_span_ns = start.elapsed().as_nanos() as f64 / f64::from(TRIALS);
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration_ns)
            .sum();
        self.spans.len() as f64 * per_span_ns / covered.max(1) as f64
    }

    /// Appends one JSON object per span to `path`.
    pub fn append_jsonl(&self, workload: &str, path: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                Json::Null
            } else {
                u64::from(s.parent).into()
            };
            let line = obj([
                ("id", (id as u64).into()),
                ("parent", parent),
                ("workload", workload.into()),
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("ops", s.ops.into()),
            ]);
            writeln!(out, "{}", line.write())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed intervals, so the arithmetic is exact.
    fn fixed(spans: &[(SpanId, u64, u64)]) -> Spans {
        let mut s = Spans::new();
        for &(parent, start_ns, end_ns) in spans {
            s.spans.push(Span {
                parent,
                name: "t",
                start_ns,
                end_ns,
                ops: 1,
            });
        }
        s
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let s = fixed(&[(NO_PARENT, 0, 100), (0, 10, 30), (0, 50, 60), (1, 12, 20)]);
        assert_eq!(s.self_times_ns(), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        // Children cover [10,40) ∪ [30,60) = 50 ns, and one sticks out past
        // the parent's end: only [90,100) of it counts.
        let s = fixed(&[(NO_PARENT, 0, 100), (0, 10, 40), (0, 30, 60), (0, 90, 150), (0, 35, 38)]);
        assert_eq!(s.self_times_ns()[0], 100 - 50 - 10);
    }

    #[test]
    fn enter_and_exit_nest_by_the_open_stack() {
        let mut s = Spans::new();
        let outer = s.enter("outer");
        let leaf = s.scope("inner", |s| {
            let leaf = s.enter("leaf");
            s.exit(leaf, 7);
            leaf
        });
        s.exit(outer, 1);
        let spans = s.all();
        assert_eq!(spans[1].parent, outer);
        assert_eq!(spans[leaf as usize].parent, 1, "leaf opened while inner was on top");
        assert_eq!(spans[leaf as usize].ops, 7);
        assert_eq!(spans[outer as usize].parent, NO_PARENT);
    }

    #[test]
    fn shadows_are_laid_side_by_side_inside_the_parent() {
        let mut s = fixed(&[(NO_PARENT, 100, 200)]);
        let next = s.shadow(0, "a", 0, 30, 128);
        let next = s.shadow(0, "b", next, 50, 128);
        assert_eq!(next, 80);
        s.shadow(0, "c", next, 500, 128); // clipped at the parent's end
        let spans = s.all();
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (100, 130));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (130, 180));
        assert_eq!((spans[3].start_ns, spans[3].end_ns), (180, 200));
        assert_eq!(s.self_times_ns()[0], 0);
    }
}
