//! In-memory spans around the benchmark's own calls into the system.
//!
//! A span holds its name, start, end, parent span and the arrival
//! index of the transaction it belongs to. Spans are kept in memory
//! and written out when the run ends. Nothing inside the program is
//! instrumented: the spans time public calls only.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use camelot_types::FamilyId;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub arrival: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a transaction family stands, so spans recorded on runtime
/// threads (socket sends, datagram injection) find their transaction.
struct FamilyState {
    arrival: u64,
    commit_span: Option<u32>,
}

pub struct Tracing {
    base: Instant,
    next: AtomicU32,
    done: Mutex<Vec<Span>>,
    families: Mutex<HashMap<FamilyId, FamilyState>>,
}

impl Tracing {
    pub fn new(base: Instant) -> Tracing {
        Tracing {
            base,
            next: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
            families: Mutex::new(HashMap::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Reserves a span id, for a span whose children start before it
    /// ends.
    pub fn reserve(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        arrival: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            arrival,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.done.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` inside a span with id `id`.
    pub fn around_id<T>(
        &self,
        id: u32,
        name: &'static str,
        parent: Option<u32>,
        arrival: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(id, parent, name, arrival, start, Instant::now());
        out
    }

    /// Runs `f` inside a span belonging to `family`'s transaction; its
    /// parent is the transaction's commit call when one is open.
    pub fn around_family<T>(
        &self,
        name: &'static str,
        family: FamilyId,
        f: impl FnOnce() -> T,
    ) -> T {
        let (arrival, parent) = self
            .families
            .lock()
            .expect("family map poisoned")
            .get(&family)
            .map(|s| (Some(s.arrival), s.commit_span))
            .unwrap_or((None, None));
        self.around_id(self.reserve(), name, parent, arrival, f)
    }

    pub fn bind_family(&self, family: FamilyId, arrival: u64) {
        self.families.lock().expect("family map poisoned").insert(
            family,
            FamilyState {
                arrival,
                commit_span: None,
            },
        );
    }

    pub fn set_commit_span(&self, family: FamilyId, span: Option<u32>) {
        if let Some(s) = self
            .families
            .lock()
            .expect("family map poisoned")
            .get_mut(&family)
        {
            s.commit_span = span;
        }
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.done.lock().expect("span store poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// One JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = write!(out, "{{\"id\":{},\"name\":\"{}\"", s.id, s.name);
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(a) = s.arrival {
            let _ = write!(out, ",\"arrival\":{a}");
        }
        let _ = writeln!(
            out,
            ",\"start_ns\":{},\"end_ns\":{}}}",
            s.start_ns, s.end_ns
        );
    }
    out
}

/// Self time of every span: its duration minus the part of it that
/// its children cover (overlapping children are counted once, and a
/// child's time outside its parent is not subtracted).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|c| covered(s.start_ns, s.end_ns, c))
                .unwrap_or(0);
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            arrival: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 70);
        assert_eq!(st[&1], 20);
        assert_eq!(st[&2], 10);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        // Children on other threads may overlap each other and outlive
        // their parent; only the covered part of the parent counts.
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 90, 130),
            span(2, Some(0), 120, 150),
            span(3, Some(0), 190, 400),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 50 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 10, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 50);
        assert_eq!(st[&1], 40);
    }
}
