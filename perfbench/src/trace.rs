//! In-memory spans for the traced run: name, start, end, parent and
//! statement id, kept in a vector, then summarised and written out at the
//! end.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `retratree.qut`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// The statement this span belongs to.
    pub stmt: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Append-only span store.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, stmt: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, stmt);
        let out = f();
        self.close(id);
        out
    }

    /// Per-name totals of self time (duration minus direct children), ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }

    /// Per-name totals of duration, ms.
    pub fn total_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.ms();
        }
        out
    }

    /// Writes every span as one tab-separated line: statement, index,
    /// parent index (`-` for none), name, start ns, end ns.
    pub fn write_tsv(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        writeln!(w, "stmt\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.stmt, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Self time per span name: each span's duration minus the durations of its
/// direct children, summed by name, in milliseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
            stmt: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("sql.parse", 0, 10, Some(0)),
            span("retratree.qut", 10, 90, Some(0)),
            span("s2t.voting", 20, 60, Some(2)),
            span("stmt", 100, 130, None),
            span("sql.parse", 100, 105, Some(4)),
        ];
        let own = self_times(&spans);
        // 100 - 10 - 80 plus 30 - 5.
        assert_eq!(own["stmt"], 35.0);
        assert_eq!(own["sql.parse"], 15.0);
        assert_eq!(own["retratree.qut"], 40.0);
        assert_eq!(own["s2t.voting"], 40.0);
        // Self times partition the roots' wall time.
        let total: f64 = own.values().sum();
        assert_eq!(total, 130.0);
    }

    #[test]
    fn recorder_nests_and_counts() {
        let mut t = Tracer::default();
        let root = t.open("stmt", None, 7);
        let v = t.time("sql.parse", Some(root), 7, || 42);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.count("sql.parse"), 1);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].stmt, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let own = t.self_ms();
        let total = t.total_ms();
        assert!((own["stmt"] + own["sql.parse"] - total["stmt"]).abs() < 1e-9);
    }
}
