//! In-memory spans recorded around the benchmark's calls into the
//! program. Nothing inside the program is instrumented: each span covers
//! one public call (`joint_search`, `ServeFront::new`, `flush`, ...).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Name of the call the span covers.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id, for spans that serve one request.
    pub request: Option<u64>,
}

/// Spans kept per run; later spans are counted but not recorded, which
/// bounds memory under saturation traffic.
const MAX_SPANS: usize = 200_000;

/// Span recorder for the benchmark's main thread. When off, `enter` and
/// `exit` read no clock and record nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "pass the handle to Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`], with any spans opened
    /// inside it that are still open.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(calls, total ns, self ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 12, 8, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("flush", 0, 10, None),
            span("flush", 20, 25, None),
            span("try_run", 21, 24, Some(1)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["flush"], (2, 15, 12));
        assert_eq!(t["try_run"], (1, 3, 3));
    }

    #[test]
    fn tracer_nests_and_stays_silent_when_off() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer", None);
        let inner = tr.enter("inner", Some(7));
        tr.exit(inner);
        tr.exit(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].request), (Some(0), Some(7)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let o = off.enter("x", None);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
