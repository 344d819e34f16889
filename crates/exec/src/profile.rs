//! The opt-in VM hot-path profiler: where inside the bytecode engine do a
//! campaign's cycles go?
//!
//! An [`ExecProfile`] accumulates two views across every run it observes:
//!
//! * **per-opcode dispatch counts** — one slot per [`Instr`] variant,
//!   bumped once per dispatched instruction;
//! * **per-block totals** — the scratch already counts block hits for the
//!   deferred statistics flush ([`crate::vm`]); at the end of each run the
//!   profiler folds `hits × BlockCost` into a per-block-index aggregate
//!   (hits, budget ops, weighted cycles), so hot program regions stand out
//!   across thousands of kernels.
//!
//! A run that aborts on the op budget folds no blocks and adds no run:
//! its opcode counts are exactly what the VM dispatched before the abort.
//! A nest the VM prices at entry ([`crate::bytecode`], "Priced loop
//! nests") aborts at its `loop_start`, so such an abort dispatches nothing
//! inside the nest; a run it dooms ends at its first `bool_test` on a NaN
//! `!=`, or at its failing charge.
//!
//! Profiles merge by plain addition, so per-worker profiles combine into a
//! campaign-wide one in any order. Profiling is strictly out of band: the
//! VM consults the profile only to increment it, [`crate::stats::ExecStats`]
//! and `comp` are untouched (the debug-build parity check still passes),
//! and with no profile installed the dispatch loop compiles to exactly the
//! unprofiled code ([`crate::vm`] monomorphizes the loop on a profiling
//! flag).

use crate::bytecode::{BlockCost, Instr};
use std::sync::{Arc, Mutex};

/// Number of bytecode opcodes (the [`Instr`] variant count).
pub const OPCODE_COUNT: usize = 16;

/// Stable display names, indexed by [`opcode_index`].
pub const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "charge",
    "binary",
    "call",
    "store_comp",
    "store_scalar",
    "store_comp_bin",
    "store_scalar_bin",
    "store_elem",
    "bool_test",
    "loop_start",
    "loop_next",
    "critical_enter",
    "critical_exit",
    "region_enter",
    "region_exit",
    "halt",
];

/// The profile slot of one instruction.
#[inline]
pub fn opcode_index(ins: &Instr) -> usize {
    match ins {
        Instr::Charge(_) => 0,
        Instr::Binary { .. } => 1,
        Instr::Call { .. } => 2,
        Instr::StoreComp { .. } => 3,
        Instr::StoreScalar { .. } => 4,
        Instr::StoreCompBin { .. } => 5,
        Instr::StoreScalarBin { .. } => 6,
        Instr::StoreElem { .. } => 7,
        Instr::BoolTest { .. } => 8,
        Instr::LoopStart { .. } => 9,
        Instr::LoopNext { .. } => 10,
        Instr::CriticalEnter => 11,
        Instr::CriticalExit => 12,
        Instr::RegionEnter { .. } => 13,
        Instr::RegionExit { .. } => 14,
        Instr::Halt => 15,
    }
}

/// Accumulated execution totals of one block index (across all kernels a
/// profile observed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockProfile {
    /// Times a block with this index was entered.
    pub hits: u64,
    /// Budget ops charged by those entries.
    pub ops: u64,
    /// Weighted work cycles charged by those entries.
    pub cycles: u64,
}

/// Per-opcode and per-block execution totals — see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    opcodes: [u64; OPCODE_COUNT],
    blocks: Vec<BlockProfile>,
    runs: u64,
}

impl ExecProfile {
    /// An empty profile.
    pub fn new() -> ExecProfile {
        ExecProfile::default()
    }

    /// Count one dispatched instruction. A VM hook, public so tools (and
    /// the report crate's tests) can build synthetic profiles.
    #[inline]
    pub fn note_opcode(&mut self, idx: usize) {
        self.opcodes[idx] += 1;
    }

    /// Fold one finished run's block hit counts against its kernel's
    /// block costs (the VM's end-of-run hook).
    pub(crate) fn note_blocks(&mut self, hits: &[u64], costs: &[BlockCost]) {
        self.runs += 1;
        if self.blocks.len() < hits.len() {
            self.blocks.resize(hits.len(), BlockProfile::default());
        }
        for (slot, (&n, cost)) in self.blocks.iter_mut().zip(hits.iter().zip(costs)) {
            if n == 0 {
                continue;
            }
            slot.hits += n;
            slot.ops += cost.ops.saturating_mul(n);
            slot.cycles += cost.cycles.saturating_mul(n);
        }
    }

    /// Add `other`'s totals into `self` (commutative, associative).
    pub fn merge(&mut self, other: &ExecProfile) {
        for (acc, n) in self.opcodes.iter_mut().zip(&other.opcodes) {
            *acc += n;
        }
        if self.blocks.len() < other.blocks.len() {
            self.blocks
                .resize(other.blocks.len(), BlockProfile::default());
        }
        for (slot, b) in self.blocks.iter_mut().zip(&other.blocks) {
            slot.hits += b.hits;
            slot.ops += b.ops;
            slot.cycles += b.cycles;
        }
        self.runs += other.runs;
    }

    /// Zero every total, keeping allocations (per-program harvest cycle).
    pub fn reset(&mut self) {
        self.opcodes = [0; OPCODE_COUNT];
        self.blocks.clear();
        self.runs = 0;
    }

    /// `(name, dispatch count)` per opcode, in opcode order.
    pub fn opcode_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        OPCODE_NAMES
            .iter()
            .copied()
            .zip(self.opcodes.iter().copied())
    }

    /// Total dispatched instructions.
    pub fn total_dispatches(&self) -> u64 {
        self.opcodes.iter().sum()
    }

    /// Per-block-index totals (index 0 is every kernel's entry block).
    pub fn blocks(&self) -> &[BlockProfile] {
        &self.blocks
    }

    /// Number of VM runs folded into this profile. Only runs that
    /// complete count: a budget-aborted run leaves its dispatches in the
    /// opcode counts but adds no run, and a vendor binary that reuses
    /// another binary's interpretation never reaches the VM at all.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// True when the profile observed nothing.
    pub fn is_empty(&self) -> bool {
        self.runs == 0 && self.total_dispatches() == 0
    }
}

/// A shared, campaign-wide profile accumulator: workers install a profile
/// into their [`crate::ExecScratch`], run, and fold the harvest back here.
/// An `off` collector makes every hook a no-op — and, downstream, keeps
/// profiles out of worker scratches entirely, so the VM's unprofiled
/// dispatch loop runs.
#[derive(Clone, Default)]
pub struct ProfileCollector {
    inner: Option<Arc<Mutex<ExecProfile>>>,
}

impl ProfileCollector {
    /// Profiling disabled (the default).
    pub fn off() -> ProfileCollector {
        ProfileCollector { inner: None }
    }

    /// Profiling enabled, starting from an empty profile.
    pub fn enabled() -> ProfileCollector {
        ProfileCollector {
            inner: Some(Arc::new(Mutex::new(ExecProfile::new()))),
        }
    }

    /// Whether profiling is requested.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Install an empty profile into `scratch` when profiling is on (and
    /// one isn't installed yet); remove any leftover profile when off.
    pub fn install(&self, scratch: &mut crate::ExecScratch) {
        match &self.inner {
            Some(_) => {
                if scratch.profile.is_none() {
                    scratch.profile = Some(Box::default());
                }
            }
            None => scratch.profile = None,
        }
    }

    /// Fold the profile accumulated in `scratch` into the shared totals
    /// and reset it for the next harvest window.
    pub fn harvest(&self, scratch: &mut crate::ExecScratch) {
        if let (Some(shared), Some(profile)) = (&self.inner, scratch.profile.as_deref_mut()) {
            if !profile.is_empty() {
                shared
                    .lock()
                    .expect("profile collector poisoned")
                    .merge(profile);
            }
            profile.reset();
        }
    }

    /// Fold an already-aggregated profile into the shared totals.
    pub fn absorb(&self, profile: &ExecProfile) {
        if let Some(shared) = &self.inner {
            if !profile.is_empty() {
                shared
                    .lock()
                    .expect("profile collector poisoned")
                    .merge(profile);
            }
        }
    }

    /// Copy the campaign-wide totals out (empty when off).
    pub fn snapshot(&self) -> ExecProfile {
        self.inner
            .as_ref()
            .map(|shared| shared.lock().expect("profile collector poisoned").clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_names_cover_every_slot() {
        assert_eq!(OPCODE_NAMES.len(), OPCODE_COUNT);
        assert_eq!(opcode_index(&Instr::Halt), OPCODE_COUNT - 1);
        assert_eq!(opcode_index(&Instr::Charge(0)), 0);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = ExecProfile::new();
        a.note_opcode(1);
        a.note_blocks(
            &[2, 0, 1],
            &[
                BlockCost {
                    ops: 3,
                    cycles: 5,
                    ..BlockCost::default()
                },
                BlockCost::default(),
                BlockCost {
                    ops: 1,
                    cycles: 1,
                    ..BlockCost::default()
                },
            ],
        );
        let mut b = ExecProfile::new();
        b.note_opcode(1);
        b.note_opcode(15);
        b.note_blocks(
            &[1],
            &[BlockCost {
                ops: 7,
                cycles: 11,
                ..BlockCost::default()
            }],
        );

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_dispatches(), 3);
        assert_eq!(ab.runs(), 2);
        assert_eq!(
            ab.blocks()[0],
            BlockProfile {
                hits: 3,
                ops: 13,
                cycles: 21
            }
        );
        assert_eq!(ab.blocks().len(), 3);
    }

    #[test]
    fn collector_round_trip() {
        let off = ProfileCollector::off();
        assert!(!off.is_on());
        assert!(off.snapshot().is_empty());

        let on = ProfileCollector::enabled();
        let mut scratch = crate::ExecScratch::new();
        on.install(&mut scratch);
        assert!(scratch.profile.is_some());
        scratch.profile.as_mut().unwrap().note_opcode(2);
        on.harvest(&mut scratch);
        assert!(scratch.profile.as_ref().unwrap().is_empty());
        let snap = on.snapshot();
        assert_eq!(snap.total_dispatches(), 1);

        // An off collector strips a leftover profile so the VM runs the
        // unprofiled loop again.
        off.install(&mut scratch);
        assert!(scratch.profile.is_none());
    }
}
