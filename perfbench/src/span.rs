//! In-memory spans around the calls the benchmark makes into each
//! layer, and the self-time reduction over them.
//!
//! A span is named `<layer>.<call>` after the module it enters. Spans
//! are buffered in memory while the traced phase runs and written out
//! once it ends, so recording costs two clock reads and a push.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in ns since the process's first span.
    pub start_ns: u64,
    /// End, in ns since the process's first span.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The operation (world, round, pass or scenario) it belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time covered, in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer (module) this span's call entered.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span that has started and not yet ended.
#[must_use = "an open span records nothing until `end` is called"]
pub struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    op: u64,
}

/// Start a span now.
pub fn begin(name: &'static str, parent: Option<u64>, op: u64) -> Open {
    // Relaxed: ids only need to be unique, they order nothing.
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    Open { id, name, start_ns: now_ns(), parent, op }
}

impl Open {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// End the span now, append it to `log` and return its duration in ns.
    pub fn end(self, log: &mut Vec<Span>) -> u64 {
        let span = Span {
            id: self.id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns().max(self.start_ns),
            parent: self.parent,
            op: self.op,
        };
        let d = span.duration_ns();
        log.push(span);
        d
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_start, mut cur_end) = (0, 0, 0);
    let mut open = false;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.clamp(lo, hi), e.clamp(lo, hi));
        if s >= e {
            continue;
        }
        if open && s <= cur_end {
            cur_end = cur_end.max(e);
        } else {
            if open {
                total += cur_end - cur_start;
            }
            (cur_start, cur_end, open) = (s, e, true);
        }
    }
    if open {
        total += cur_end - cur_start;
    }
    total
}

/// Self time of every span: its duration minus the part of it that
/// its children cover. Children running in parallel on other threads
/// overlap, so coverage is the union of their intervals, not the sum.
pub fn self_times(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let cover =
                children.get_mut(&s.id).map_or(0, |kids| covered(kids, s.start_ns, s.end_ns));
            (s, s.duration_ns() - cover)
        })
        .collect()
}

/// Self time summed per layer, in ns.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in self_times(spans) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Total duration of every span named `name`, in ns, and their count.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans.iter().filter(|s| s.name == name).fold((0, 0), |(t, n), s| (t + s.duration_ns(), n + 1))
}

/// Render spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span { id, name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, "fleet.round", 0, 100, None),
            // Two overlapping children (parallel workers) and one that
            // runs past its parent's end.
            span(2, "fleet.home", 10, 30, Some(1)),
            span(3, "fleet.home", 20, 50, Some(1)),
            span(4, "fleet.home", 90, 120, Some(1)),
            span(5, "core.build", 12, 18, Some(2)),
        ];
        let st = self_times(&spans);
        let of = |id: u64| st.iter().find(|(s, _)| s.id == id).unwrap().1;
        assert_eq!(of(1), 100 - (40 + 10), "union of [10,50) and [90,100)");
        assert_eq!(of(2), 20 - 6, "grandchild covers 6 ns of its parent");
        assert_eq!(of(3), 30);
        assert_eq!(of(5), 6);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["core"], 6);
        assert_eq!(by_layer["fleet"], 50 + 14 + 30 + 30);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = vec![span(7, "iotpolicy.explore", 5, 9, None)];
        assert_eq!(self_times(&spans)[0].1, 4);
        assert_eq!(total(&spans, "iotpolicy.explore"), (4, 1));
    }

    #[test]
    fn open_spans_nest_and_end_in_order() {
        let mut log = Vec::new();
        let outer = begin("sweep.job", None, 3);
        let inner = begin("core.run", Some(outer.id()), 3);
        inner.end(&mut log);
        outer.end(&mut log);
        assert_eq!(log[0].parent, Some(log[1].id));
        assert!(log[1].start_ns <= log[0].start_ns && log[0].end_ns <= log[1].end_ns);
        assert!(to_jsonl(&log).lines().count() == 2);
    }
}
