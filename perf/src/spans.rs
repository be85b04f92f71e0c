//! Host-time spans recorded from the benchmark's side of the API.
//!
//! The program has no host-time spans of its own yet, so the traced run
//! wraps every boundary it can reach from outside — set-up phases, the
//! `serve` call, each `RequestSource` callback, each query — and keeps
//! `{name, start_ns, end_ns, parent, request_seq}` in memory until the
//! run ends. A span's self time is its duration minus the part of it
//! its child spans cover.

use aida_obs::Json;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_seq: Option<u64>,
    /// A request's pop-to-completion lifetime. Lifetimes of queued
    /// requests overlap each other and the queries running meanwhile,
    /// so they are recorded for reading but take no part in self-time
    /// accounting.
    pub lifetime: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log. `open`/`close` nest by call order; `record`
/// adds an interval whose ends were observed separately.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    /// A log that keeps spans (`enabled`) or only tells the time: the
    /// untraced runs share the workloads' code but record nothing.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request_seq: Option<u64>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request_seq,
            lifetime: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds an already-measured interval under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        request_seq: Option<u64>,
        lifetime: bool,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.stack.last().copied(),
            request_seq,
            lifetime,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order; `id` is the line
    /// number, which is what `parent` refers to.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut obj = Json::obj()
                .field("id", id)
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("parent", s.parent.map_or(Json::Null, Json::from))
                .field("request_seq", s.request_seq.map_or(Json::Null, Json::from));
            if s.lifetime {
                obj = obj.field("lifetime", true);
            }
            out.push_str(&obj.render());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: duration minus the union of its direct
/// (non-lifetime) children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), false) = (s.parent, s.lifetime) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// True when `id` is `root` or lies under it.
pub fn is_under(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// Spans that start before or end after their parent (empty when the
/// log is well-formed).
pub fn escaping_children(spans: &[Span]) -> Vec<usize> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.parent
                .is_some_and(|p| s.start_ns < spans[p].start_ns || s.end_ns > spans[p].end_ns)
        })
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_seq: None,
            lifetime: false,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let mut spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the shared 20..30 is covered once.
            span("b", 20, 50, Some(0)),
            span("a.inner", 12, 18, Some(1)),
            span("c", 90, 100, Some(0)),
        ];
        // A lifetime span covers nothing.
        spans.push(Span {
            lifetime: true,
            ..span("request", 0, 100, Some(0))
        });
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (40 + 10));
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 6);
        assert_eq!(own[4], 10);
    }

    #[test]
    fn subtree_self_times_sum_to_the_root_when_children_nest() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("a", 0, 400, Some(0)),
            span("a1", 100, 200, Some(1)),
            span("a2", 200, 400, Some(1)),
            span("b", 400, 1000, Some(0)),
            span("b1", 450, 460, Some(4)),
        ];
        assert!(escaping_children(&spans).is_empty());
        let own = self_times_ns(&spans);
        assert_eq!(own.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn open_close_nests_and_escapes_are_reported() {
        let mut log = SpanLog::new(true);
        let root = log.open("root", None);
        let child = log.open("child", Some(7));
        log.close(child);
        log.record("measured", 0, 1, None, false);
        log.close(root);
        assert_eq!(log.spans()[child].parent, Some(root));
        assert_eq!(log.spans()[child].request_seq, Some(7));
        assert_eq!(log.spans()[2].parent, Some(root));
        assert!(is_under(log.spans(), child, root));
        assert!(!is_under(log.spans(), root, child));

        let bad = vec![span("root", 10, 20, None), span("late", 15, 25, Some(0))];
        assert_eq!(escaping_children(&bad), vec![1]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::new(true);
        let root = log.open("serve", None);
        log.record("request", 1, 2, Some(3), true);
        log.close(root);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"id":0,"name":"serve","start_ns":"#));
        assert!(lines[0].contains(r#""parent":null,"request_seq":null"#));
        assert!(lines[1].contains(r#""parent":0,"request_seq":3,"lifetime":true"#));
    }
}
