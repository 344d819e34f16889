//! Reusable per-worker execution state.
//!
//! Every run of a kernel needs the same mutable state vectors: the scalar
//! and integer slot files, one buffer per array parameter, the VM's
//! operand stack and loop frames, per-block hit counters, the
//! region-analysis marks and the privatization/save buffers of parallel
//! regions. Allocating all of that per execution is pure overhead once a
//! campaign runs thousands of executions per worker — an [`ExecScratch`]
//! owns the buffers instead, and each run *resets* them (cheap fills over
//! warm memory, no allocator round-trips once the high-water mark is
//! reached).
//!
//! Every run takes a `&mut ExecScratch`
//! ([`crate::bytecode::CompiledKernel::run`], whichever engine it
//! dispatches to); a one-off run passes `&mut ExecScratch::new()`.
//! Outcomes are bit-identical either way — the reset restores exactly the
//! state a fresh allocation would have — which the `scratch_reuse`
//! differential suite pins over random program/input sequences.
//!
//! A scratch holds buffers and the opt-in profiler, never outcomes: which
//! runs may share an interpretation is the differential oracle's decision
//! (`ompfuzz_backends::oracle`), made per step.

use crate::kernel::{IntSlotId, Kernel, SlotId};
use ompfuzz_ast::FpType;

/// An active (serial or worksharing) loop of the bytecode VM.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopFrame {
    pub(crate) counter: IntSlotId,
    pub(crate) i: u64,
    pub(crate) end: u64,
}

/// Reusable execution state. See the module docs; construct once per
/// worker (or per test case) and pass to every run.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Floating-point slot file.
    pub(crate) scalars: Vec<f64>,
    /// Per-slot store precision (tree engine; the VM reads the compiled
    /// kernel's cached copy).
    pub(crate) slot_ty: Vec<FpType>,
    /// Integer slot file (int params + loop counters).
    pub(crate) ints: Vec<i64>,
    /// One value buffer per array parameter.
    pub(crate) arrays: Vec<Vec<f64>>,
    /// Per-array store precision (tree engine).
    pub(crate) array_ty: Vec<FpType>,
    /// The VM's f64 evaluation stack.
    pub(crate) stack: Vec<f64>,
    /// The VM's spilled outer loop frames.
    pub(crate) loops: Vec<LoopFrame>,
    /// The VM's per-block execution counters.
    pub(crate) block_hits: Vec<u64>,
    /// Regions whose first entry has been race-analyzed.
    pub(crate) region_analyzed: Vec<bool>,
    /// Slots privatized by the active region (tree engine).
    pub(crate) privatized: Vec<bool>,
    /// Pre-region values of privatized slots (private first, then
    /// firstprivate), reused across region entries.
    pub(crate) region_saved: Vec<(SlotId, f64)>,
    /// Per-thread reduction partials, reused across region entries.
    pub(crate) region_partials: Vec<f64>,
    /// Opt-in VM profiler ([`crate::profile::ExecProfile`]): installed by
    /// a [`crate::profile::ProfileCollector`], accumulated across this
    /// scratch's runs, harvested per program. `None` (the default) keeps
    /// the VM on its unprofiled dispatch loop; results are bit-identical
    /// either way.
    pub profile: Option<Box<crate::profile::ExecProfile>>,
}

impl ExecScratch {
    /// A fresh scratch; buffers grow to the sizes the first runs need and
    /// are reused from then on.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Reset the kernel-shaped state for one run of `k`: every slot file
    /// sized and zeroed exactly as a fresh allocation would be.
    pub(crate) fn reset_for(&mut self, k: &Kernel) {
        self.scalars.clear();
        self.scalars.resize(k.scalars.len(), 0.0);
        self.ints.clear();
        self.ints.resize(k.ints.len(), 0);
        self.arrays.resize_with(k.arrays.len(), Vec::new);
        for (buf, a) in self.arrays.iter_mut().zip(&k.arrays) {
            buf.clear();
            buf.resize(a.len as usize, 0.0);
        }
        self.stack.clear();
        self.loops.clear();
        self.region_analyzed.clear();
        self.region_analyzed.resize(k.region_count as usize, false);
        self.region_saved.clear();
        self.region_partials.clear();
    }

    /// Additionally reset the tree engine's per-run lookaside state.
    pub(crate) fn reset_tree(&mut self, k: &Kernel) {
        self.slot_ty.clear();
        self.slot_ty.extend(k.scalars.iter().map(|s| s.ty));
        self.array_ty.clear();
        self.array_ty.extend(k.arrays.iter().map(|a| a.ty));
        self.privatized.clear();
        self.privatized.resize(k.scalars.len(), false);
    }

    /// Reset the VM's per-block hit counters for a stream of `blocks`.
    pub(crate) fn reset_blocks(&mut self, blocks: usize) {
        self.block_hits.clear();
        self.block_hits.resize(blocks, 0);
    }
}
