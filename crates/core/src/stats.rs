//! Trace characterisation — the quantities the paper's trace table
//! reports: length, reference mix, OS fraction, context switches,
//! distinct pages touched.

use crate::record::{RecordKind, TraceRecord};
use crate::stream::{TraceSource, TraceStreamError};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Summary statistics of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// All records, markers included.
    pub records: u64,
    /// Instruction-fetch references.
    pub ifetch: u64,
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
    /// References made in kernel mode.
    pub kernel_refs: u64,
    /// References made in user mode.
    pub user_refs: u64,
    /// Context-switch markers.
    pub ctx_switches: u64,
    /// Interrupt/exception markers.
    pub interrupts: u64,
    /// Distinct virtual pages touched (I + D).
    pub distinct_pages: u64,
    /// Distinct pages touched by data references only.
    pub distinct_data_pages: u64,
    /// References per process id.
    pub refs_by_pid: BTreeMap<u8, u64>,
}

impl TraceStats {
    /// Computes the statistics of every record `source` yields, in one
    /// pass from its beginning.
    ///
    /// # Errors
    ///
    /// Any [`TraceStreamError`] from the source.
    pub fn of(source: &mut impl TraceSource) -> Result<TraceStats, TraceStreamError> {
        let mut acc = StatsAccumulator::new();
        source.stream(&mut |batch| acc.add(batch))?;
        Ok(acc.finish())
    }

    /// Total memory references.
    pub fn total_refs(&self) -> u64 {
        self.ifetch + self.reads + self.writes
    }

    /// Fraction of references made by the operating system (0–1).
    pub fn os_fraction(&self) -> f64 {
        if self.total_refs() == 0 {
            0.0
        } else {
            self.kernel_refs as f64 / self.total_refs() as f64
        }
    }

    /// Fraction of references that are instruction fetches.
    pub fn ifetch_fraction(&self) -> f64 {
        if self.total_refs() == 0 {
            0.0
        } else {
            self.ifetch as f64 / self.total_refs() as f64
        }
    }

    /// Fraction of references that are writes.
    pub fn write_fraction(&self) -> f64 {
        if self.total_refs() == 0 {
            0.0
        } else {
            self.writes as f64 / self.total_refs() as f64
        }
    }
}

/// [`TraceStats`] gathered one record slice at a time, for a trace that
/// is never held whole: the slices' concatenation gets exactly the
/// statistics the whole trace has.
pub(crate) struct StatsAccumulator {
    s: TraceStats,
    pages: HashSet<u32>,
    data_pages: HashSet<u32>,
    // The I-stream and the D-stream each stay on one page for long
    // stretches, so a reference to the page its stream touched last is
    // already in the sets and skips the hashing. No page number reaches
    // `u32::MAX` (pages are 512 B), so it marks "none yet".
    last_i: u32,
    last_d: u32,
    by_pid: [u64; 256],
}

impl StatsAccumulator {
    pub(crate) fn new() -> StatsAccumulator {
        StatsAccumulator {
            s: TraceStats::default(),
            pages: HashSet::new(),
            data_pages: HashSet::new(),
            last_i: u32::MAX,
            last_d: u32::MAX,
            by_pid: [0; 256],
        }
    }

    /// Adds the next records of the trace, in order.
    pub(crate) fn add(&mut self, records: &[TraceRecord]) {
        let s = &mut self.s;
        for r in records {
            s.records += 1;
            let kind = r.kind();
            match kind {
                RecordKind::IFetch => s.ifetch += 1,
                RecordKind::Read => s.reads += 1,
                RecordKind::Write => s.writes += 1,
                RecordKind::CtxSwitch => s.ctx_switches += 1,
                RecordKind::Interrupt => s.interrupts += 1,
                RecordKind::SegmentMark => {}
            }
            if kind.is_ref() {
                if r.is_kernel() {
                    s.kernel_refs += 1;
                } else {
                    s.user_refs += 1;
                }
                self.by_pid[r.pid() as usize] += 1;
                let page = r.page();
                if kind.is_data() {
                    if page != self.last_d {
                        self.last_d = page;
                        self.pages.insert(page);
                        self.data_pages.insert(page);
                    }
                } else if page != self.last_i {
                    self.last_i = page;
                    self.pages.insert(page);
                }
            }
        }
    }

    /// The statistics of every record added.
    pub(crate) fn finish(self) -> TraceStats {
        let mut s = self.s;
        s.distinct_pages = self.pages.len() as u64;
        s.distinct_data_pages = self.data_pages.len() as u64;
        s.refs_by_pid = (0..=u8::MAX)
            .zip(self.by_pid)
            .filter(|&(_, n)| n > 0)
            .collect();
        s
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "refs: {} (I {:.1}% / R {:.1}% / W {:.1}%)",
            self.total_refs(),
            100.0 * self.ifetch_fraction(),
            100.0 * self.reads as f64 / self.total_refs().max(1) as f64,
            100.0 * self.write_fraction(),
        )?;
        writeln!(
            f,
            "os fraction: {:.1}%   context switches: {}   interrupts: {}",
            100.0 * self.os_fraction(),
            self.ctx_switches,
            self.interrupts
        )?;
        write!(
            f,
            "distinct pages: {} ({} data)   pids: {}",
            self.distinct_pages,
            self.distinct_data_pages,
            self.refs_by_pid.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn counts_and_fractions() {
        let mut t = Trace::new();
        for i in 0..6 {
            t.push(TraceRecord::new(RecordKind::IFetch, i * 512, 4, 1, false));
        }
        for i in 0..3 {
            t.push(TraceRecord::new(RecordKind::Read, 0x1000 + i, 4, 1, true));
        }
        t.push(TraceRecord::new(RecordKind::Write, 0x2000, 4, 2, false));
        t.push(TraceRecord::new(RecordKind::CtxSwitch, 0x9000, 0, 2, true));
        let s = t.stats();
        assert_eq!(s.total_refs(), 10);
        assert_eq!(s.ifetch, 6);
        assert_eq!(s.reads, 3);
        assert_eq!(s.writes, 1);
        assert_eq!(s.kernel_refs, 3);
        assert_eq!(s.user_refs, 7);
        assert_eq!(s.ctx_switches, 1);
        assert!((s.os_fraction() - 0.3).abs() < 1e-9);
        assert_eq!(s.distinct_pages, 6 + 1 + 1);
        assert_eq!(s.distinct_data_pages, 2);
        assert_eq!(s.refs_by_pid[&1], 9);
        assert_eq!(s.refs_by_pid[&2], 1);
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::new().stats();
        assert_eq!(s.total_refs(), 0);
        assert_eq!(s.os_fraction(), 0.0);
        assert!(!s.to_string().is_empty());
    }
}
