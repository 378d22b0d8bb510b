//! In-memory spans recorded from outside the library, at its public calls.
//!
//! A traced run keeps every span in memory and writes them out once, when the
//! run ends (`name,start_ns,end_ns,parent,op_id`, one line per span; `parent`
//! is the 1-based line number of the causing span among the data lines, 0 for
//! a root). A layer's *self time* is its span's duration minus the part of
//! that interval its child spans cover.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`SpanLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// Position of the span in [`SpanLog::spans`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `slurm.launcher.shrink`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by all spans of one operation (replay or cycle).
    pub op_id: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store with its own monotonic clock.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken by the caller to this log's clock.
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op_id: u32,
    ) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        id
    }

    /// Opens a span whose end is not known yet, so children can name it as
    /// their parent; [`close`](Self::close) sets the end.
    pub fn open(&mut self, name: &'static str, start_ns: u64, op_id: u32) -> SpanId {
        self.push(name, start_ns, start_ns, None, op_id)
    }

    /// Sets the end of a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans): its
    /// duration minus the union of its children's intervals, each clipped to
    /// the span. Children may overlap each other and arrive in any order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<u32> = (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].parent.is_some())
            .collect();
        children.sort_by_key(|&i| {
            let s = &self.spans[i as usize];
            (s.parent.map(|p| p.0), s.start_ns)
        });
        let mut covered = vec![0u64; self.spans.len()];
        // Children of one parent are now adjacent and ascending by start, so
        // the union is one sweep with a high-water mark per parent.
        let mut current_parent = None;
        let mut reach = 0u64;
        for i in children {
            let child = self.spans[i as usize];
            let parent_id = child.parent.expect("filtered on parent").0 as usize;
            let parent = self.spans[parent_id];
            if current_parent != Some(parent_id) {
                current_parent = Some(parent_id);
                reach = parent.start_ns;
            }
            let from = child.start_ns.max(reach);
            let to = child.end_ns.min(parent.end_ns);
            if to > from {
                covered[parent_id] += to - from;
                reach = to;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Writes at most `limit` spans (the first ones recorded) as CSV lines
    /// and returns how many were written.
    pub fn write_csv<W: Write>(&self, out: &mut W, limit: usize) -> io::Result<usize> {
        writeln!(out, "name,start_ns,end_ns,parent,op_id")?;
        let written = self.spans.len().min(limit);
        for span in &self.spans[..written] {
            writeln!(
                out,
                "{},{},{},{},{}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or(0, |p| p.0 + 1),
                span.op_id
            )?;
        }
        Ok(written)
    }

    /// Writes the span file of a run, creating its directory.
    pub fn write_csv_file(&self, path: &Path, limit: usize) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        let written = self.write_csv(&mut out, limit)?;
        out.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.push("root", 100, 1_100, None, 0);
        // Recorded out of order on purpose; 300..500 and 450..700 overlap.
        log.push("b", 450, 700, Some(root), 0);
        log.push("a", 300, 500, Some(root), 0);
        // Sticks out past the parent's end: only 1000..1100 counts.
        log.push("c", 1_000, 1_300, Some(root), 0);
        // A grandchild never counts against the root, only against `a`.
        log.push("a.inner", 320, 360, Some(SpanId(2)), 0);
        let own = log.self_times_ns();
        // root: 1000 - (300..700 = 400) - (1000..1100 = 100) = 500
        assert_eq!(own[0], 500);
        assert_eq!(own[1], 250, "childless span keeps its whole duration");
        assert_eq!(own[2], 200 - 40);
        assert_eq!(own[3], 300);
        assert_eq!(own[4], 40);
    }

    #[test]
    fn sibling_parents_do_not_share_a_high_water_mark() {
        let mut log = SpanLog::new();
        let first = log.push("cycle", 0, 100, None, 0);
        let second = log.push("cycle", 100, 200, None, 1);
        log.push("x", 10, 90, Some(first), 0);
        log.push("x", 110, 150, Some(second), 1);
        assert_eq!(log.self_times_ns(), vec![20, 60, 80, 40]);
    }

    #[test]
    fn open_then_close_sets_the_end() {
        let mut log = SpanLog::new();
        let id = log.open("run", 5, 3);
        log.push("pass", 6, 8, Some(id), 3);
        log.close(id, 20);
        assert_eq!(log.spans()[0].duration_ns(), 15);
        assert_eq!(log.self_times_ns()[0], 13);
    }

    #[test]
    fn csv_has_one_line_per_span_and_one_based_parents() {
        let mut log = SpanLog::new();
        let root = log.push("root", 0, 10, None, 7);
        log.push("leaf", 1, 2, Some(root), 7);
        log.push("late", 3, 4, Some(root), 7);
        let mut out = Vec::new();
        assert_eq!(log.write_csv(&mut out, 2).unwrap(), 2, "limit honoured");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "name,start_ns,end_ns,parent,op_id\nroot,0,10,0,7\nleaf,1,2,1,7\n"
        );
    }
}
