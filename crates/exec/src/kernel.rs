//! The lowered, slot-resolved intermediate representation.
//!
//! Interpretation happens over this IR rather than the surface AST: variable
//! names are resolved to dense slot indices once (in
//! [`crate::lower`](mod@crate::lower)), so the hot interpreter loop never
//! hashes a string. This is the moral
//! equivalent of the "compile" step of a real OpenMP toolchain and is also
//! where the simulated backends hook their optimization passes.

use ompfuzz_ast::{AssignOp, BinOp, BoolOp, FpType, MathFunc, ReductionOp};
use std::sync::Arc;

/// Index of a floating-point scalar slot.
pub type SlotId = u32;
/// Index of an integer slot (int params and loop counters).
pub type IntSlotId = u32;
/// Index of an array.
pub type ArrayId = u32;

/// Lowered array index expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LIndex {
    /// Constant index.
    Const(u32),
    /// `counter % modulus`.
    LoopMod(IntSlotId, u32),
    /// `omp_get_thread_num()`.
    ThreadId,
}

/// Lowered arithmetic expression.
#[derive(Debug, Clone, PartialEq)]
pub enum LExpr {
    /// Floating-point literal (already rounded to its declared precision).
    Const(f64),
    /// Read a floating-point scalar slot.
    Scalar(SlotId),
    /// Read an array element.
    Elem(ArrayId, LIndex),
    /// Binary arithmetic.
    Binary(BinOp, Box<LExpr>, Box<LExpr>),
    /// Math-library call.
    Call(MathFunc, Box<LExpr>),
}

impl LExpr {
    /// Number of nodes, used for sanity checks and cost estimates.
    pub fn node_count(&self) -> usize {
        match self {
            LExpr::Const(_) | LExpr::Scalar(_) | LExpr::Elem(..) => 1,
            LExpr::Binary(_, l, r) => 1 + l.node_count() + r.node_count(),
            LExpr::Call(_, a) => 1 + a.node_count(),
        }
    }
}

/// Lowered boolean expression: `scalar <op> expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct LBool {
    pub lhs: SlotId,
    pub op: BoolOp,
    pub rhs: LExpr,
}

/// Loop bound after lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBound {
    Const(u32),
    /// Read an int slot at loop entry.
    IntSlot(IntSlotId),
}

/// A lowered `for` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LLoop {
    /// Counter slot (written by the loop machinery).
    pub counter: IntSlotId,
    pub bound: LBound,
    /// Worksharing: iterations are split statically across the team.
    pub omp_for: bool,
    pub body: Vec<LStmt>,
}

/// A lowered parallel region.
#[derive(Debug, Clone, PartialEq)]
pub struct LParallel {
    /// Stable region index (order of appearance in the program).
    pub region_id: u32,
    pub num_threads: u32,
    /// Slots with `private` semantics (fresh, zero-initialized per thread).
    pub private: Vec<SlotId>,
    /// Slots with `firstprivate` semantics (copy-initialized per thread).
    pub firstprivate: Vec<SlotId>,
    /// Optional reduction over `comp`.
    pub reduction: Option<ReductionOp>,
    /// Prelude statements (every thread runs them).
    pub prelude: Vec<LStmt>,
    /// The region's single loop.
    pub body_loop: LLoop,
}

/// A lowered statement.
#[derive(Debug, Clone, PartialEq)]
pub enum LStmt {
    /// `comp <op>= expr`.
    AssignComp(AssignOp, LExpr),
    /// `scalar <op>= expr` (declarations lower to plain assigns; their
    /// slots are pre-allocated and carry the declared precision).
    AssignScalar(SlotId, AssignOp, LExpr),
    /// `array[index] <op>= expr`.
    AssignElem(ArrayId, LIndex, AssignOp, LExpr),
    /// `if (bool) { body }`.
    If(LBool, Vec<LStmt>),
    /// A (serial or worksharing) loop.
    For(LLoop),
    /// An OpenMP parallel region.
    Parallel(LParallel),
    /// An `omp critical` section.
    Critical(Vec<LStmt>),
}

/// Metadata for one scalar slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotInfo {
    /// Interned at lowering time: race reports referencing this slot clone
    /// the `Arc` refcount instead of re-allocating the name per report.
    pub name: Arc<str>,
    pub ty: FpType,
    /// Bound from the input vector (kernel parameter) vs. local temporary.
    pub is_param: bool,
    /// Declared inside a parallel region: the variable is thread-private by
    /// C scoping even though the interpreter backs all threads with one
    /// slot, so the race detector must ignore it.
    pub region_local: bool,
}

/// Metadata for one array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayInfo {
    /// Interned at lowering time (see [`SlotInfo::name`]).
    pub name: Arc<str>,
    pub ty: FpType,
    pub len: u32,
}

/// Metadata for one int slot.
#[derive(Debug, Clone, PartialEq)]
pub struct IntSlotInfo {
    pub name: String,
    /// Int params come from the input vector; loop counters do not.
    pub is_param: bool,
}

/// Binding of one kernel parameter to its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamBinding {
    Scalar(SlotId),
    Int(IntSlotId),
    Array(ArrayId),
}

/// A fully lowered program, ready for interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    pub scalars: Vec<SlotInfo>,
    pub ints: Vec<IntSlotInfo>,
    pub arrays: Vec<ArrayInfo>,
    /// Kernel parameters in declaration order, each bound to its slot; the
    /// interpreter zips this with the input vector.
    pub param_order: Vec<ParamBinding>,
    pub body: Vec<LStmt>,
    /// Number of parallel regions (== max region_id + 1).
    pub region_count: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count() {
        let e = LExpr::Binary(
            BinOp::Add,
            Box::new(LExpr::Scalar(0)),
            Box::new(LExpr::Call(MathFunc::Sin, Box::new(LExpr::Const(1.0)))),
        );
        assert_eq!(e.node_count(), 4);
    }
}
