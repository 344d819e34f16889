//! Dynamic data-race detection.
//!
//! The paper's §IV-E limitation — Varity occasionally generating programs
//! where `comp` is written and read by multiple threads without
//! synchronization — was mitigated by *manually* filtering racy tests. We
//! automate that: during the first entry of every parallel region the
//! interpreter reports each shared-memory access here, and at region exit
//! the detector applies the classic happens-before-free criterion for the
//! serialized schedule:
//!
//! > two accesses to the same location from different threads, at least one
//! > of them a write, not both inside critical sections ⇒ data race.
//!
//! Thread-private state (privatized clauses, region-local declarations,
//! reduction copies of `comp`) is never reported, so the detector sees only
//! genuinely shared accesses.

use crate::kernel::{ArrayId, Kernel, SlotId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A shared-memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// The `comp` accumulator (when not reduction-privatized).
    Comp,
    /// A shared floating-point scalar.
    Scalar(SlotId),
    /// One element of a shared array.
    Elem(ArrayId, u32),
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Comp => f.write_str("comp"),
            Loc::Scalar(s) => write!(f, "scalar slot {s}"),
            Loc::Elem(a, i) => write!(f, "array {a}[{i}]"),
        }
    }
}

/// Compact set of thread ids: we only need "empty / one tid / several".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TidSet {
    first: Option<u32>,
    multiple: bool,
}

impl TidSet {
    fn insert(&mut self, tid: u32) {
        match self.first {
            None => self.first = Some(tid),
            Some(t) if t != tid => self.multiple = true,
            _ => {}
        }
    }

    /// Does the set contain a tid different from `tid`?
    fn has_other(&self, tid: u32) -> bool {
        self.multiple || matches!(self.first, Some(t) if t != tid)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct AccessInfo {
    unprot_read: TidSet,
    unprot_write: TidSet,
    prot_read: TidSet,
    prot_write: TidSet,
}

impl AccessInfo {
    fn race_kind(&self) -> Option<&'static str> {
        // unprotected write vs. anything from another thread
        if let Some(w) = self.unprot_write.first {
            if self.unprot_write.multiple {
                return Some("write/write (unprotected)");
            }
            if self.unprot_read.has_other(w) {
                return Some("write/read (unprotected)");
            }
            if self.prot_read.has_other(w) || self.prot_write.has_other(w) {
                return Some("unprotected write vs. critical access");
            }
        }
        // protected write vs. unprotected read from another thread
        if let Some(w) = self.prot_write.first {
            if self.unprot_read.has_other(w) {
                return Some("critical write vs. unprotected read");
            }
            if self.prot_write.multiple && self.unprot_read.first.is_some() {
                return Some("critical write vs. unprotected read");
            }
        }
        None
    }
}

/// The interned name of the `comp` accumulator, shared by every report.
fn comp_name() -> Arc<str> {
    static COMP: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(COMP.get_or_init(|| Arc::from("comp")))
}

impl Kernel {
    /// Human-readable name of a raced location. Scalar and array names were
    /// interned as `Arc<str>` when the kernel was lowered, so reports on
    /// them (and on `comp`) are refcount clones; only element locations
    /// allocate, because the index is dynamic.
    pub fn loc_name(&self, loc: Loc) -> Arc<str> {
        match loc {
            Loc::Comp => comp_name(),
            Loc::Scalar(s) => Arc::clone(&self.scalars[s as usize].name),
            Loc::Elem(a, i) => format!("{}[{}]", self.arrays[a as usize].name, i).into(),
        }
    }
}

/// One detected race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    pub region_id: u32,
    /// Interned location name (see [`Kernel::loc_name`]).
    pub location: Arc<str>,
    pub kind: String,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race in region {} on {}: {}",
            self.region_id, self.location, self.kind
        )
    }
}

/// Region-scoped access recorder.
#[derive(Debug, Default)]
pub struct RaceDetector {
    accesses: HashMap<Loc, AccessInfo>,
    reports: Vec<RaceReport>,
    active_region: Option<u32>,
}

impl RaceDetector {
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Begin recording for a region entry. The interpreter calls this for
    /// the *first* entry of each region only — subsequent entries repeat
    /// the same access pattern under the deterministic schedule.
    pub fn begin_region(&mut self, region_id: u32) {
        self.accesses.clear();
        self.active_region = Some(region_id);
    }

    /// True while a region is being recorded.
    pub fn recording(&self) -> bool {
        self.active_region.is_some()
    }

    /// Record an access by `tid`; `write` for stores, `protected` when the
    /// access happened inside an `omp critical`.
    pub fn record(&mut self, loc: Loc, tid: u32, write: bool, protected: bool) {
        if self.active_region.is_none() {
            return;
        }
        let info = self.accesses.entry(loc).or_default();
        let set = match (write, protected) {
            (true, true) => &mut info.prot_write,
            (true, false) => &mut info.unprot_write,
            (false, true) => &mut info.prot_read,
            (false, false) => &mut info.unprot_read,
        };
        set.insert(tid);
    }

    /// Finish the region: evaluate race conditions and store reports.
    pub fn end_region(&mut self, names: &dyn Fn(Loc) -> Arc<str>) {
        let Some(region_id) = self.active_region.take() else {
            return;
        };
        // Deterministic report order regardless of hash iteration.
        let mut found: Vec<(Loc, &'static str)> = self
            .accesses
            .iter()
            .filter_map(|(loc, info)| info.race_kind().map(|k| (*loc, k)))
            .collect();
        found.sort_by_key(|(loc, _)| match loc {
            Loc::Comp => (0u32, 0u32, 0u32),
            Loc::Scalar(s) => (1, *s, 0),
            Loc::Elem(a, i) => (2, *a, *i),
        });
        for (loc, kind) in found {
            self.reports.push(RaceReport {
                region_id,
                location: names(loc),
                kind: kind.to_string(),
            });
        }
        self.accesses.clear();
    }

    /// All races found so far.
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Consume the detector, returning the reports.
    pub fn into_reports(self) -> Vec<RaceReport> {
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_names(loc: Loc) -> Arc<str> {
        loc.to_string().into()
    }

    #[test]
    fn unprotected_write_write_race() {
        let mut d = RaceDetector::new();
        d.begin_region(0);
        d.record(Loc::Comp, 0, true, false);
        d.record(Loc::Comp, 1, true, false);
        d.end_region(&plain_names);
        assert_eq!(d.reports().len(), 1);
        assert!(d.reports()[0].kind.contains("write/write"));
    }

    #[test]
    fn single_thread_accesses_are_fine() {
        let mut d = RaceDetector::new();
        d.begin_region(0);
        d.record(Loc::Comp, 3, true, false);
        d.record(Loc::Comp, 3, false, false);
        d.record(Loc::Comp, 3, true, true);
        d.end_region(&plain_names);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn critical_protected_writes_are_fine() {
        let mut d = RaceDetector::new();
        d.begin_region(0);
        for tid in 0..8 {
            d.record(Loc::Comp, tid, true, true);
            d.record(Loc::Comp, tid, false, true);
        }
        d.end_region(&plain_names);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn critical_write_vs_unprotected_read_races() {
        let mut d = RaceDetector::new();
        d.begin_region(2);
        d.record(Loc::Scalar(4), 0, true, true);
        d.record(Loc::Scalar(4), 1, false, false);
        d.end_region(&plain_names);
        assert_eq!(d.reports().len(), 1);
        assert_eq!(d.reports()[0].region_id, 2);
        assert!(d.reports()[0].kind.contains("unprotected read"));
    }

    #[test]
    fn distinct_elements_do_not_race() {
        let mut d = RaceDetector::new();
        d.begin_region(0);
        for tid in 0..8 {
            d.record(Loc::Elem(0, tid), tid, true, false);
        }
        d.end_region(&plain_names);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn same_element_from_two_threads_races() {
        let mut d = RaceDetector::new();
        d.begin_region(1);
        d.record(Loc::Elem(0, 7), 0, true, false);
        d.record(Loc::Elem(0, 7), 5, false, false);
        d.end_region(&plain_names);
        assert_eq!(d.reports().len(), 1);
        assert!(d.reports()[0].location.contains("array"));
    }

    #[test]
    fn concurrent_reads_are_fine() {
        let mut d = RaceDetector::new();
        d.begin_region(0);
        for tid in 0..8 {
            d.record(Loc::Scalar(0), tid, false, false);
        }
        d.end_region(&plain_names);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn recording_outside_region_is_ignored() {
        let mut d = RaceDetector::new();
        d.record(Loc::Comp, 0, true, false);
        d.record(Loc::Comp, 1, true, false);
        assert!(d.reports().is_empty());
        assert!(!d.recording());
    }

    #[test]
    fn reports_are_deterministically_ordered() {
        let mut d = RaceDetector::new();
        d.begin_region(0);
        d.record(Loc::Elem(1, 3), 0, true, false);
        d.record(Loc::Elem(1, 3), 1, true, false);
        d.record(Loc::Scalar(2), 0, true, false);
        d.record(Loc::Scalar(2), 1, true, false);
        d.record(Loc::Comp, 0, true, false);
        d.record(Loc::Comp, 1, true, false);
        d.end_region(&plain_names);
        let locs: Vec<&str> = d.reports().iter().map(|r| &*r.location).collect();
        assert_eq!(locs, vec!["comp", "scalar slot 2", "array 1[3]"]);
    }
}
