//! The span recorder behind the traced run, and the stage profile it
//! yields.
//!
//! Spans are recorded only from the benchmark's own files, around each
//! call into a library (see `api.rs`); nothing inside the program is
//! instrumented. A span is `(name, start, end, parent, thread)`, named
//! `<layer>.<call>` where the layer is the crate that does the work.
//! Spans are held in memory and turned into a profile when the run ends.
//! When recording is off every wrapper is a single branch, so the timed
//! iterations run the same code as the traced one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    /// `<layer>.<call>`, or a harness root (`setup`, `iteration`).
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Small per-process thread number (0 = first thread that recorded).
    pub thread: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The recorder. `Rec::off()` records nothing.
#[derive(Debug)]
pub struct Rec {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Rec {
    /// A recorder that records nothing.
    pub fn off() -> Rec {
        Rec::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Rec {
        Rec::new(true)
    }

    fn new(on: bool) -> Rec {
        Rec {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The innermost span open on this thread (the parent to hand to
    /// work that runs on other threads).
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Runs `f` inside a span whose parent is this thread's innermost
    /// open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.span_under(self.current(), name, f)
    }

    /// Runs `f` inside a span with an explicit parent (a span opened on
    /// another thread).
    pub fn span_under<T>(&self, parent: Option<usize>, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let thread = THREAD.with(|t| *t);
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name: name.to_string(),
                start: self.now(),
                end: 0,
                parent,
                thread,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.now();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    /// Adds `n` to a named work counter.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on {
            *self
                .counts
                .lock()
                .expect("counter map poisoned")
                .entry(name)
                .or_insert(0) += n;
        }
    }

    /// Everything recorded so far.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (
            self.spans.into_inner().expect("span list poisoned"),
            self.counts.into_inner().expect("counter map poisoned"),
        )
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Aggregate of every span with one name under one root.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stage {
    /// Spans aggregated.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus the union of its children),
    /// seconds.
    pub self_s: f64,
}

/// The profile of one recorded run.
#[derive(Debug, Default)]
pub struct Profile {
    /// `(root, span name)` → stage, where root is the outermost span
    /// (`setup` or `iteration`).
    pub stages: BTreeMap<(String, String), Stage>,
    /// Duration of each root, seconds.
    pub roots: BTreeMap<String, f64>,
    /// Share of each root's duration covered by its direct children.
    pub coverage: BTreeMap<String, f64>,
    /// Work counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// The raw spans, in the order they opened.
    pub spans: Vec<Span>,
}

impl Profile {
    /// Builds the profile. Each root name is expected once.
    pub fn build(spans: Vec<Span>, counts: BTreeMap<&'static str, u64>) -> Profile {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut p = Profile {
            counts,
            ..Profile::default()
        };
        for (i, s) in spans.iter().enumerate() {
            let kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start, spans[c].end))
                .collect();
            let inner = covered(kids, s.start, s.end);
            if s.parent.is_none() {
                p.roots.insert(s.name.clone(), s.dur() as f64 * 1e-9);
                let share = if s.dur() == 0 {
                    1.0
                } else {
                    inner as f64 / s.dur() as f64
                };
                p.coverage.insert(s.name.clone(), share);
            }
            let root = spans[root_of(i)].name.clone();
            let st = p.stages.entry((root, s.name.clone())).or_default();
            st.calls += 1;
            st.total_s += s.dur() as f64 * 1e-9;
            st.self_s += (s.dur() - inner) as f64 * 1e-9;
        }
        p.spans = spans;
        p
    }

    /// Summed self time of every span whose name satisfies `pick`,
    /// across all roots.
    pub fn self_s(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.stages
            .iter()
            .filter(|((_, name), _)| pick(name))
            .map(|(_, st)| st.self_s)
            .sum()
    }

    /// Number of spans whose name satisfies `pick`, across all roots.
    pub fn calls(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.stages
            .iter()
            .filter(|((_, name), _)| pick(name))
            .map(|(_, st)| st.calls)
            .sum()
    }

    /// A work counter (0 if never counted).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Use of a thread pool recorded as span `pool` whose children ran
    /// on the pool's threads: `(threads, busy seconds, capacity
    /// seconds)`, capacity being threads × the pool span's duration.
    pub fn pool_use(&self, pool: &str) -> Option<(usize, f64, f64)> {
        let (id, p) = self
            .spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == pool)?;
        let kids: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        let threads: std::collections::BTreeSet<u32> = kids.iter().map(|s| s.thread).collect();
        let busy: u64 = kids.iter().map(|s| s.dur()).sum();
        let capacity = threads.len() as f64 * p.dur() as f64 * 1e-9;
        Some((threads.len(), busy as f64 * 1e-9, capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(covered(vec![(0, 10), (5, 20)], 8, 15), 7);
        assert_eq!(covered(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children_on_other_threads() {
        let mk = |name: &str, start, end, parent| Span {
            name: name.to_string(),
            start,
            end,
            parent,
            thread: 0,
        };
        let spans = vec![
            mk("iteration", 0, 100, None),
            mk("analysis.map", 10, 90, Some(0)),
            mk("analysis.a", 10, 60, Some(1)),
            mk("analysis.b", 20, 80, Some(1)),
        ];
        let p = Profile::build(spans, BTreeMap::new());
        let map = &p.stages[&("iteration".to_string(), "analysis.map".to_string())];
        assert!((map.self_s - 10e-9).abs() < 1e-15);
        assert!((p.coverage["iteration"] - 0.8).abs() < 1e-12);
        assert_eq!(p.calls(|n| n.starts_with("analysis.")), 3);
    }

    #[test]
    fn off_records_nothing() {
        let rec = Rec::off();
        assert_eq!(rec.span("x", || 7), 7);
        rec.count("n", 3);
        let (spans, counts) = rec.finish();
        assert!(spans.is_empty() && counts.is_empty());
    }
}
