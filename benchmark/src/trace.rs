//! Spans recorded by the traced pass: kept in memory, written as JSON
//! lines when the pass ends, summarised per name with self times.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover.

use crate::json::Json;
use crate::stats::percentile;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Spans of one request (or one restart cycle) share this.
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A root span whose children are layer calls re-executed outside its
/// wall-clock interval: each is re-based into the interval, end to end
/// from the root's start, so that the root's self time is the part of it
/// that no re-executed call explains.
pub struct Rebase {
    parent: u32,
    request_id: u64,
    cursor_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Re-executed children cut short because they did not fit what was
    /// left of their root (the twin ran slower than the real system).
    pub clamped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), clamped: 0 }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since the tracer was created (the trace's clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span whose interval was measured by the caller.
    pub fn push(
        &mut self,
        request_id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { id, request_id, name, start_ns, end_ns, parent });
        id
    }

    /// Times `f` as a span at its real position; returns its result, the
    /// span id and the duration.
    pub fn time<T>(
        &mut self,
        request_id: u64,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.push(request_id, name, start, end, parent), end - start)
    }

    /// Starts re-basing children into span `parent`.
    pub fn rebase(&self, parent: u32) -> Rebase {
        let p = &self.spans[parent as usize];
        Rebase { parent, request_id: p.request_id, cursor_ns: p.start_ns, end_ns: p.end_ns }
    }

    /// Records a re-executed call of `duration_ns` as the next child of
    /// the re-based root, clamped to what is left of the root.
    pub fn attach(&mut self, at: &mut Rebase, name: &'static str, duration_ns: u64) {
        let fit = duration_ns.min(at.end_ns - at.cursor_ns);
        if fit < duration_ns {
            self.clamped += 1;
        }
        self.push(at.request_id, name, at.cursor_ns, at.cursor_ns + fit, Some(at.parent));
        at.cursor_ns += fit;
    }

    /// Times `f` outside any root and attaches its duration to `at`.
    pub fn attach_timed<T>(
        &mut self,
        at: &mut Rebase,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.attach(at, name, ns);
        (out, ns)
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.duration_ns() };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One JSON object per line: `request_id`, `id`, `name`, `start_ns`,
/// `end_ns`, `parent` (a span id or null).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("request_id", Json::Int(s.request_id as i64)),
            ("id", Json::Int(s.id as i64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as i64))),
        ]);
        writeln!(w, "{}", line.compact())?;
    }
    w.flush()
}

/// Per-name totals of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameSummary {
    pub count: usize,
    pub median_ns: u64,
    pub median_self_ns: u64,
    pub total_ns: u64,
    pub total_self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.duration_ns());
        e.1.push(*self_ns);
    }
    by_name
        .into_iter()
        .map(|(name, (mut durs, mut selfs))| {
            durs.sort_unstable();
            selfs.sort_unstable();
            let summary = NameSummary {
                count: durs.len(),
                median_ns: percentile(&durs, 0.5),
                median_self_ns: percentile(&selfs, 0.5),
                total_ns: durs.iter().sum(),
                total_self_ns: selfs.iter().sum(),
            };
            (name, summary)
        })
        .collect()
}

/// Median duration of the spans called `name`, in microseconds (0 when
/// the trace has none — the layer did no work on this workload).
pub fn median_us(summary: &BTreeMap<&'static str, NameSummary>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |s| s.median_ns as f64 / 1e3)
}

/// Roots slower than this percentile of the roots are left out of the
/// shares: a request the host pre-empted in flight is slow as a whole,
/// and all of that time would be booked as the root's own.
const SHARE_TRIM: f64 = 0.95;

/// Each name's share of the root spans' time, by self time (the root's
/// own share is what no child explains), over the requests whose root is
/// within the `SHARE_TRIM` percentile of root durations. Largest first;
/// the shares sum to one.
pub fn shares(spans: &[Span], root: &str) -> Vec<(String, f64)> {
    let mut root_ns: Vec<u64> =
        spans.iter().filter(|s| s.name == root).map(Span::duration_ns).collect();
    if root_ns.is_empty() {
        return Vec::new();
    }
    root_ns.sort_unstable();
    let cut = percentile(&root_ns, SHARE_TRIM);
    let kept: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == root && s.duration_ns() <= cut)
        .map(|s| s.request_id)
        .collect();

    // Only spans inside a kept root count towards the breakdown.
    let under_root = |s: &Span| {
        let mut at = Some(s.id);
        while let Some(id) = at {
            if spans[id as usize].name == root {
                return true;
            }
            at = spans[id as usize].parent;
        }
        false
    };
    let selfs = self_times(spans);
    let mut inside: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if kept.contains(&s.request_id) && under_root(s) {
            *inside.entry(s.name).or_default() += self_ns;
        }
    }
    let total: u64 = inside.values().sum();
    let mut out: Vec<(String, f64)> = inside
        .into_iter()
        .map(|(n, ns)| (n.to_string(), ns as f64 / total.max(1) as f64))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { id, request_id: 1, name, start_ns: start, end_ns: end, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, "root", 0, 100, None),
            span(1, "a", 10, 40, Some(0)),
            span(2, "b", 30, 60, Some(0)), // overlaps a: union is 10..60
            span(3, "c", 90, 130, Some(0)), // sticks out: clipped to 90..100
            span(4, "leaf", 12, 20, Some(1)),
            span(5, "other", 0, 7, None),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 40, 8, 7]);
    }

    #[test]
    fn rebased_children_fit_their_root_and_leave_the_residual() {
        let mut t = Tracer::new();
        let root = t.push(9, "client.rtt", 1000, 1100, None);
        let mut at = t.rebase(root);
        t.attach(&mut at, "lang.parse", 30);
        t.attach(&mut at, "eval.exec", 50);
        let selfs = self_times(t.spans());
        assert_eq!(selfs[root as usize], 20, "residual = rtt - (parse + exec)");
        assert_eq!(t.clamped, 0);
        // a child longer than what is left is cut, never negative
        t.attach(&mut at, "server.wire", 500);
        let selfs = self_times(t.spans());
        assert_eq!(selfs[root as usize], 0);
        assert_eq!(t.spans()[3].duration_ns(), 20);
        assert_eq!(t.clamped, 1);
        assert!(t.spans().iter().all(|s| s.request_id == 9));
    }

    #[test]
    fn shares_sum_to_one_under_the_root() {
        let spans = vec![
            span(0, "client.rtt", 0, 100, None),
            span(1, "eval.exec", 0, 60, Some(0)),
            span(2, "server.wire", 60, 70, Some(0)),
            span(3, "eval.compile", 0, 1000, None), // outside any root
        ];
        let summary = summarize(&spans);
        let shares = shares(&spans, "client.rtt");
        assert_eq!(shares[0], ("eval.exec".to_string(), 0.6));
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(shares.iter().all(|(n, _)| n != "eval.compile"));
        assert_eq!(median_us(&summary, "eval.exec"), 0.06);
        assert_eq!(median_us(&summary, "storage.log"), 0.0);
    }

    #[test]
    fn shares_leave_out_the_slowest_roots() {
        // twenty requests of 100 ns, half explained by eval.exec; one more
        // was pre-empted and took a thousand times as long
        let mut spans = Vec::new();
        for r in 0..21u32 {
            let (start, len) = (r as u64 * 1_000_000, if r == 20 { 100_000 } else { 100 });
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                request_id: r as u64,
                name: "client.rtt",
                start_ns: start,
                end_ns: start + len,
                parent: None,
            });
            spans.push(Span {
                id: id + 1,
                request_id: r as u64,
                name: "eval.exec",
                start_ns: start,
                end_ns: start + 50,
                parent: Some(id),
            });
        }
        let shares = shares(&spans, "client.rtt");
        assert_eq!(shares.len(), 2);
        assert!(shares.iter().all(|(_, s)| *s == 0.5), "{shares:?}");
    }
}
