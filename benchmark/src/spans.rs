//! Benchmark-side spans: one per call into a layer, kept in memory and
//! written out when the traced run ends.
//!
//! The program is not touched: spans wrap the calls the benchmark makes
//! (`engine.submit`, `engine.epoch`, `server.pump`, ...).  A layer's self
//! time is its span minus its direct children; what the root span's
//! children do not cover is the unattributed remainder.

use eris_obs::now_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same file, or [`NO_PARENT`].
    pub parent: u32,
    /// What the span worked on: the epoch number for engine spans, the
    /// pump number for server spans, the first `seq` of a client batch.
    pub request: u64,
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A single thread's span recorder.  Disabled recorders cost one branch.
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Append another thread's spans (its parent links stay valid).
    pub fn absorb(&mut self, other: Spans) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(kids);
        }
        out
    }

    /// Share of the spans called `root` that their direct children cover,
    /// and the uncovered nanoseconds.
    pub fn coverage(&self, root: &str) -> (f64, u64) {
        match self.totals().get(root) {
            Some(t) if t.total_ns > 0 => (
                (t.total_ns - t.self_ns) as f64 / t.total_ns as f64,
                t.self_ns,
            ),
            _ => (0.0, 0),
        }
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, request}`
    /// with `parent` the zero-based line number of the enclosing span.
    /// Synced before returning, so that writing these megabytes back is
    /// paid for by this run and not by the `fsync`s of the next one.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        w.flush()?;
        w.get_ref().sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut s = Spans::new(true);
        s.spans = vec![
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                request: 0,
            },
            Span {
                name: "epoch",
                start_ns: 10,
                end_ns: 50,
                parent: 0,
                request: 1,
            },
            Span {
                name: "inner",
                start_ns: 20,
                end_ns: 30,
                parent: 1,
                request: 1,
            },
            Span {
                name: "epoch",
                start_ns: 60,
                end_ns: 90,
                parent: 0,
                request: 2,
            },
        ];
        let t = s.totals();
        assert_eq!(
            t["run"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["epoch"],
            SpanTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(t["inner"].self_ns, 10);
        let (cov, rest) = s.coverage("run");
        assert!((cov - 0.7).abs() < 1e-12);
        assert_eq!(rest, 30);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_absorb_shifts_parents() {
        let mut off = Spans::new(false);
        off.enter("x", 0);
        off.exit();
        assert_eq!(off.len(), 0);

        let mut a = Spans::new(true);
        a.enter("a", 0);
        a.exit();
        let mut b = Spans::new(true);
        b.enter("b", 0);
        b.enter("c", 0);
        b.exit();
        b.exit();
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, NO_PARENT);
    }
}
