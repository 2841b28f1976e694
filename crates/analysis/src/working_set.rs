//! Working-set analysis (Denning working sets over trace windows).
//!
//! The working set of a trace at window size `w` is the number of
//! distinct pages touched in each consecutive window of `w` references;
//! its average is the classic memory-demand curve. Complete-system
//! traces show both the OS's own footprint and the *compounding* of
//! per-process footprints across context switches.

use atum_core::{TraceRecord, TraceSource, TraceStreamError};
use std::collections::HashSet;

/// The working-set measurement for one window size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkingSet {
    /// Window length in references.
    pub window: usize,
    /// Mean distinct pages per window.
    pub mean_pages: f64,
    /// Largest window observed.
    pub max_pages: usize,
    /// Number of windows measured.
    pub windows: usize,
}

/// Incremental working-set state for one window size: feed references
/// with [`WsState::step`], settle with [`WsState::finish`].
#[derive(Debug)]
struct WsState {
    window: usize,
    mean_acc: f64,
    max_pages: usize,
    windows: usize,
    /// The window's distinct pages, keyed `(pid << 32) | page`.
    current: HashSet<u64>,
    /// The window's previous reference (already in `current`), or
    /// [`NO_PAGE`] at the start of a window.
    last: u64,
    in_window: usize,
}

/// Never a page key: a pid has 8 bits, so real keys stay below 2^40.
const NO_PAGE: u64 = u64::MAX;

impl WsState {
    fn new(window: usize) -> WsState {
        assert!(window > 0, "window must be positive");
        WsState {
            window,
            mean_acc: 0.0,
            max_pages: 0,
            windows: 0,
            current: HashSet::new(),
            last: NO_PAGE,
            in_window: 0,
        }
    }

    fn step(&mut self, r: &TraceRecord) {
        if !r.is_ref() {
            return;
        }
        // A repeat of the window's previous page is already counted.
        let key = (r.pid() as u64) << 32 | r.page() as u64;
        if key != self.last {
            self.current.insert(key);
            self.last = key;
        }
        self.in_window += 1;
        if self.in_window == self.window {
            self.mean_acc += self.current.len() as f64;
            self.max_pages = self.max_pages.max(self.current.len());
            self.windows += 1;
            self.current.clear();
            self.last = NO_PAGE;
            self.in_window = 0;
        }
    }

    fn finish(&self) -> WorkingSet {
        WorkingSet {
            window: self.window,
            mean_pages: if self.windows == 0 {
                0.0
            } else {
                self.mean_acc / self.windows as f64
            },
            max_pages: self.max_pages,
            windows: self.windows,
        }
    }
}

/// Computes the working set of `source` at one window size, in one
/// pass. Pages are distinguished per process id (two processes touching
/// the same VA are two pages of demand). An in-memory trace passes
/// [`Trace::source`](atum_core::Trace::source).
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn working_set_stream<S: TraceSource>(
    source: &mut S,
    window: usize,
) -> Result<WorkingSet, TraceStreamError> {
    let mut state = WsState::new(window);
    source.stream(&mut |batch| {
        for r in batch {
            state.step(r);
        }
    })?;
    Ok(state.finish())
}

/// Computes the working-set curve across several window sizes, each as
/// [`working_set_stream`] would, in a **single pass** over the source
/// (window states are independent, so one traversal feeds them all).
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn working_set_curve_stream<S: TraceSource>(
    source: &mut S,
    windows: &[usize],
) -> Result<Vec<WorkingSet>, TraceStreamError> {
    let mut states: Vec<WsState> = windows.iter().map(|&w| WsState::new(w)).collect();
    source.stream(&mut |batch| {
        for r in batch {
            for s in &mut states {
                s.step(r);
            }
        }
    })?;
    Ok(states.iter().map(WsState::finish).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_core::{RecordKind, Trace, TraceRecord};

    fn trace_of(pages: &[(u8, u32)]) -> Trace {
        pages
            .iter()
            .map(|&(pid, page)| TraceRecord::new(RecordKind::Read, page * 512, 4, pid, false))
            .collect()
    }

    #[test]
    fn single_page_working_set_is_one() {
        let t = trace_of(&[(1, 5); 100]);
        let ws = working_set_stream(&mut t.source(), 10).unwrap();
        assert_eq!(ws.mean_pages, 1.0);
        assert_eq!(ws.max_pages, 1);
        assert_eq!(ws.windows, 10);
    }

    #[test]
    fn distinct_pages_counted() {
        let t = trace_of(&[(1, 0), (1, 1), (1, 2), (1, 3)]);
        let ws = working_set_stream(&mut t.source(), 4).unwrap();
        assert_eq!(ws.mean_pages, 4.0);
    }

    #[test]
    fn pids_separate_demand() {
        // Same VA from two pids is two pages of demand.
        let t = trace_of(&[(1, 7), (2, 7), (1, 7), (2, 7)]);
        let ws = working_set_stream(&mut t.source(), 4).unwrap();
        assert_eq!(ws.mean_pages, 2.0);
    }

    #[test]
    fn curve_is_monotone_in_window() {
        let pages: Vec<(u8, u32)> = (0..4096u32).map(|i| (1, i % 37)).collect();
        let t = trace_of(&pages);
        let curve = working_set_curve_stream(&mut t.source(), &[8, 64, 512]).unwrap();
        assert!(curve[0].mean_pages <= curve[1].mean_pages);
        assert!(curve[1].mean_pages <= curve[2].mean_pages);
        assert!(curve[2].mean_pages <= 37.0);
    }

    #[test]
    fn repeats_across_window_boundaries_match_brute_force() {
        // Runs of one page whose lengths straddle every window edge, so
        // windows open on the page the previous one closed with.
        let lens = [1usize, 2, 3, 5, 1, 4, 2, 7];
        let mut pages = Vec::new();
        for (i, &len) in lens.iter().cycle().take(40).enumerate() {
            let page = ((1 + i % 2) as u8, (i % 5) as u32);
            pages.extend(std::iter::repeat_n(page, len));
        }
        let t = trace_of(&pages);
        let windows = [1usize, 2, 3];
        let want: Vec<WorkingSet> = windows
            .iter()
            .map(|&w| {
                let counts: Vec<usize> = pages
                    .chunks_exact(w)
                    .map(|c| c.iter().collect::<std::collections::BTreeSet<_>>().len())
                    .collect();
                WorkingSet {
                    window: w,
                    mean_pages: counts.iter().sum::<usize>() as f64 / counts.len() as f64,
                    max_pages: counts.iter().copied().max().unwrap(),
                    windows: counts.len(),
                }
            })
            .collect();
        assert_eq!(
            working_set_curve_stream(&mut t.source(), &windows).unwrap(),
            want
        );
        for (w, ws) in windows.iter().zip(&want) {
            assert_eq!(working_set_stream(&mut t.source(), *w).unwrap(), *ws);
        }
    }

    #[test]
    fn markers_do_not_count() {
        let mut t = trace_of(&[(1, 0), (1, 1)]);
        t.push(TraceRecord::new(RecordKind::CtxSwitch, 0x9000, 0, 2, true));
        let ws = working_set_stream(&mut t.source(), 2).unwrap();
        assert_eq!(ws.windows, 1);
        assert_eq!(ws.mean_pages, 2.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        working_set_stream(&mut Trace::new().source(), 0).unwrap();
    }
}
