//! The deterministic interpreter.
//!
//! One call to `run`, reached through
//! [`crate::bytecode::CompiledKernel::run`] with [`ExecEngine::Tree`],
//! executes a lowered [`Kernel`] on one [`TestInput`] and returns the final
//! `comp` value plus full [`ExecStats`]. Execution is a pure function of
//! `(kernel, input, options)`:
//!
//! * floating point follows IEEE 754 double precision, with rounding to
//!   binary32 at stores to `float` variables (C's store-truncation);
//! * parallel regions run their threads **in tid order** — a legal
//!   serialization of any race-free schedule — so every backend that reuses
//!   an interpretation observes identical numerics;
//! * `omp for` loops use OpenMP's static schedule (contiguous chunks);
//! * reductions initialize a thread-private `comp` to the operator identity
//!   and combine partials in tid order after the team joins;
//! * `private` copies start at 0.0, `firstprivate` copies from the value at
//!   region entry, and privatized slots are restored after the region.
//!
//! The [`BoolSemantics`] option is the hook for the simulated GCC `-O3`
//! behaviour behind the paper's fast outliers (§V-B): under
//! [`BoolSemantics::NanAbsorbing`], any comparison with a NaN operand
//! evaluates to `false` — including `!=` — so control flow diverges from
//! IEEE exactly when numerical exceptions reach a branch.

use crate::kernel::*;
use crate::race::{Loc, RaceDetector, RaceReport};
use crate::scratch::ExecScratch;
use crate::stats::{ExecStats, RegionTrace, ThreadWork};
use ompfuzz_ast::{AssignOp, BinOp, BoolOp, MathFunc};
use ompfuzz_inputs::{InputValue, TestInput};
use std::fmt;

/// Which execution engine interprets a kernel.
///
/// Both engines are bit-identical in every observable — `comp`, statistics,
/// race reports, budget exhaustion — which the `bytecode_equiv` suite and a
/// debug-build parity assert enforce. The tree walker is the *reference
/// semantics*; the flat bytecode VM is the production engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The original recursive tree-walk interpreter (reference).
    Tree,
    /// The flat bytecode VM (`lower` → `bytecode::compile` → [`crate::vm`]).
    #[default]
    Bytecode,
}

impl ExecEngine {
    pub fn label(self) -> &'static str {
        match self {
            ExecEngine::Tree => "tree",
            ExecEngine::Bytecode => "bytecode",
        }
    }
}

impl std::str::FromStr for ExecEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecEngine, String> {
        match s {
            "tree" => Ok(ExecEngine::Tree),
            "bytecode" => Ok(ExecEngine::Bytecode),
            other => Err(format!("unknown engine `{other}` (tree|bytecode)")),
        }
    }
}

impl fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Branch-condition semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoolSemantics {
    /// IEEE 754: ordered comparisons with NaN are false, `!=` is true.
    #[default]
    Ieee,
    /// The modelled GCC `-O3` folding: any comparison with a NaN operand is
    /// false. Diverges from IEEE only on `!=` (and via that, on executed
    /// work and the final `comp`); both engines count those tests in
    /// [`ExecStats::nan_ne_tests`], and a budget abort says whether the
    /// run made one ([`ExecError::BudgetExceeded`]).
    NanAbsorbing,
}

/// Safety limits for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum interpreted operations before the run aborts.
    pub max_ops: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_ops: 200_000_000,
        }
    }
}

/// Options for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    pub bool_semantics: BoolSemantics,
    pub limits: ExecLimits,
    /// Record shared accesses during the first entry of each region and
    /// report data races.
    pub detect_races: bool,
    /// Engine selection; [`crate::bytecode::CompiledKernel::run`]
    /// dispatches on this.
    pub engine: ExecEngine,
}

impl ExecOptions {
    /// Options with race detection enabled.
    pub fn with_race_detection() -> ExecOptions {
        ExecOptions {
            detect_races: true,
            ..ExecOptions::default()
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The op budget was exhausted (runaway trip counts). `tested_nan_ne`
    /// says whether the run made a `!=` test on a NaN
    /// ([`ExecStats::nan_ne_tests`] above 0) before the abort: whether the
    /// other [`BoolSemantics`] could have taken another path. A bool, not
    /// the count, so the VM may stop a doomed run early: once true it stays
    /// true up to the run's true abort (see "Priced loop nests" in
    /// [`crate::bytecode`]).
    BudgetExceeded { max_ops: u64, tested_nan_ne: bool },
    /// The input vector does not match the kernel's parameters.
    InputMismatch(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BudgetExceeded { max_ops, .. } => {
                write!(f, "execution exceeded the {max_ops}-op budget")
            }
            ExecError::InputMismatch(m) => write!(f, "input mismatch: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a successful run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Final value of the `comp` accumulator (the program's output).
    pub comp: f64,
    pub stats: ExecStats,
    /// Races detected (empty unless `detect_races`).
    pub races: Vec<RaceReport>,
}

/// Execute `kernel` on `input` with the tree-walk interpreter, reusing
/// `scratch`'s buffers (the reset restores exactly the state a fresh
/// allocation would have).
///
/// This is the reference engine and ignores `opts.engine`;
/// [`crate::bytecode::CompiledKernel::run`] dispatches between engines.
pub(crate) fn run(
    kernel: &Kernel,
    input: &TestInput,
    opts: &ExecOptions,
    scratch: &mut ExecScratch,
) -> Result<ExecOutcome, ExecError> {
    scratch.reset_for(kernel);
    scratch.reset_tree(kernel);
    let mut interp = Interp::new(kernel, opts, scratch);
    interp.bind_input(input)?;
    interp.exec_stmts(&kernel.body)?;
    let Interp {
        comp, stats, race, ..
    } = interp;
    Ok(ExecOutcome {
        comp,
        stats,
        races: race.into_reports(),
    })
}

/// Per-thread execution context while inside a parallel region.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadCtx {
    tid: u32,
    team: u32,
    cycles: u64,
    ops: u64,
    critical_acquisitions: u64,
    critical_cycles: u64,
    in_critical: bool,
}

struct Interp<'k, 's> {
    k: &'k Kernel,
    /// Reused slot files and region buffers; reset for this kernel before
    /// the run started.
    s: &'s mut ExecScratch,
    bool_semantics: BoolSemantics,
    detect_races: bool,
    comp: f64,
    /// comp currently redirected to a thread-private reduction copy.
    comp_private: bool,
    stats: ExecStats,
    ops_left: u64,
    max_ops: u64,
    cur: Option<ThreadCtx>,
    race: RaceDetector,
}

impl<'k, 's> Interp<'k, 's> {
    fn new(k: &'k Kernel, opts: &ExecOptions, scratch: &'s mut ExecScratch) -> Self {
        Interp {
            k,
            s: scratch,
            bool_semantics: opts.bool_semantics,
            detect_races: opts.detect_races,
            comp: 0.0,
            comp_private: false,
            stats: ExecStats::default(),
            ops_left: opts.limits.max_ops,
            max_ops: opts.limits.max_ops,
            cur: None,
            race: RaceDetector::new(),
        }
    }

    fn bind_input(&mut self, input: &TestInput) -> Result<(), ExecError> {
        let k = self.k;
        if input.values.len() != k.param_order.len() {
            return Err(ExecError::InputMismatch(format!(
                "kernel has {} parameters, input provides {}",
                k.param_order.len(),
                input.values.len()
            )));
        }
        self.comp = input.comp_init;
        for (binding, value) in k.param_order.iter().zip(&input.values) {
            match (binding, value) {
                (ParamBinding::Scalar(s), InputValue::Fp(v)) => {
                    self.s.scalars[*s as usize] = self.s.slot_ty[*s as usize].round(*v);
                }
                (ParamBinding::Int(i), InputValue::Int(v)) => {
                    self.s.ints[*i as usize] = *v;
                }
                (ParamBinding::Array(a), InputValue::ArrayFill(v) | InputValue::Fp(v)) => {
                    let fill = self.s.array_ty[*a as usize].round(*v);
                    self.s.arrays[*a as usize].fill(fill);
                }
                (b, v) => {
                    return Err(ExecError::InputMismatch(format!(
                        "binding {b:?} incompatible with input value {v:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    // ----- accounting -------------------------------------------------------

    #[inline]
    fn charge(&mut self, cycles: u64) -> Result<(), ExecError> {
        if self.ops_left == 0 {
            return Err(ExecError::BudgetExceeded {
                max_ops: self.max_ops,
                tested_nan_ne: self.stats.nan_ne_tests > 0,
            });
        }
        self.ops_left -= 1;
        match &mut self.cur {
            Some(ctx) => {
                ctx.cycles += cycles;
                ctx.ops += 1;
                if ctx.in_critical {
                    ctx.critical_cycles += cycles;
                }
            }
            None => self.stats.serial_cycles += cycles,
        }
        Ok(())
    }

    #[inline]
    fn tid(&self) -> u32 {
        self.cur.as_ref().map_or(0, |c| c.tid)
    }

    #[inline]
    fn note_fp_result(&mut self, result: f64, inputs_ok: bool) {
        if inputs_ok {
            if result.is_nan() {
                self.stats.nan_produced += 1;
            } else if result.is_infinite() {
                self.stats.inf_produced += 1;
            }
        }
    }

    /// Account the arithmetic a compound assignment performs.
    fn charge_compound(&mut self, op: AssignOp) -> Result<(), ExecError> {
        if let Some(arith) = op.arith_op() {
            match arith {
                BinOp::Add | BinOp::Sub => self.stats.ops.add_sub += 1,
                BinOp::Mul => self.stats.ops.mul += 1,
                BinOp::Div => self.stats.ops.div += 1,
            }
            self.charge(arith.cost_cycles())?;
        }
        Ok(())
    }

    fn record_race(&mut self, loc: Loc, write: bool) {
        if !self.race.recording() {
            return;
        }
        // Privatized and region-local scalars are thread-private.
        if let Loc::Scalar(s) = loc {
            if self.s.privatized[s as usize] || self.k.scalars[s as usize].region_local {
                return;
            }
        }
        if matches!(loc, Loc::Comp) && self.comp_private {
            return;
        }
        let protected = self.cur.as_ref().is_some_and(|c| c.in_critical);
        self.race.record(loc, self.tid(), write, protected);
    }

    // ----- expressions ------------------------------------------------------

    fn eval(&mut self, e: &LExpr) -> Result<f64, ExecError> {
        Ok(match e {
            LExpr::Const(v) => *v,
            LExpr::Scalar(s) => {
                self.stats.ops.loads += 1;
                self.charge(1)?;
                if self.cur.is_some() && self.detect_races {
                    self.record_race(Loc::Scalar(*s), false);
                }
                self.s.scalars[*s as usize]
            }
            LExpr::Elem(a, idx) => {
                self.stats.ops.loads += 1;
                self.charge(3)?;
                let i = self.resolve_index(*idx, *a);
                if self.cur.is_some() && self.detect_races {
                    self.record_race(Loc::Elem(*a, i as u32), false);
                }
                self.s.arrays[*a as usize][i]
            }
            LExpr::Binary(op, l, r) => {
                let lv = self.eval(l)?;
                let rv = self.eval(r)?;
                match op {
                    BinOp::Add | BinOp::Sub => self.stats.ops.add_sub += 1,
                    BinOp::Mul => self.stats.ops.mul += 1,
                    BinOp::Div => self.stats.ops.div += 1,
                }
                self.charge(op.cost_cycles())?;
                let result = op.apply(lv, rv);
                self.note_fp_result(result, lv.is_finite() && rv.is_finite());
                result
            }
            LExpr::Call(func, arg) => {
                let av = self.eval(arg)?;
                self.stats.ops.math += 1;
                self.stats.ops.math_cycles += func.cost_cycles();
                self.charge(func.cost_cycles())?;
                let result = func.apply(av);
                self.note_fp_result(result, av.is_finite());
                result
            }
        })
    }

    #[inline]
    fn resolve_index(&self, idx: LIndex, array: ArrayId) -> usize {
        let len = self.s.arrays[array as usize].len();
        match idx {
            LIndex::Const(k) => (k as usize).min(len - 1),
            LIndex::LoopMod(slot, m) => {
                let v = self.s.ints[slot as usize].rem_euclid(m.max(1) as i64) as usize;
                v.min(len - 1)
            }
            LIndex::ThreadId => (self.tid() as usize).min(len - 1),
        }
    }

    fn eval_bool(&mut self, b: &LBool) -> Result<bool, ExecError> {
        self.stats.ops.loads += 1;
        self.charge(1)?;
        if self.cur.is_some() && self.detect_races {
            self.record_race(Loc::Scalar(b.lhs), false);
        }
        let lhs = self.s.scalars[b.lhs as usize];
        let rhs = self.eval(&b.rhs)?;
        self.stats.ops.compares += 1;
        self.charge(1)?;
        Ok(branch_test(
            self.bool_semantics,
            b.op,
            lhs,
            rhs,
            &mut self.stats,
        ))
    }

    // ----- statements -------------------------------------------------------

    fn exec_stmts(&mut self, stmts: &[LStmt]) -> Result<(), ExecError> {
        for s in stmts {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &LStmt) -> Result<(), ExecError> {
        match stmt {
            LStmt::AssignComp(op, e) => {
                let v = self.eval(e)?;
                if op.reads_target() {
                    self.stats.ops.loads += 1;
                    self.charge(1)?;
                    if self.cur.is_some() && self.detect_races {
                        self.record_race(Loc::Comp, false);
                    }
                }
                self.charge_compound(*op)?;
                let new = op.apply(self.comp, v);
                self.stats.ops.stores += 1;
                self.charge(1)?;
                if self.cur.is_some() && self.detect_races {
                    self.record_race(Loc::Comp, true);
                }
                self.note_fp_result(new, self.comp.is_finite() && v.is_finite());
                self.comp = new;
            }
            LStmt::AssignScalar(s, op, e) => {
                let v = self.eval(e)?;
                let idx = *s as usize;
                if op.reads_target() {
                    self.stats.ops.loads += 1;
                    self.charge(1)?;
                    if self.cur.is_some() && self.detect_races {
                        self.record_race(Loc::Scalar(*s), false);
                    }
                }
                self.charge_compound(*op)?;
                let new = self.s.slot_ty[idx].round(op.apply(self.s.scalars[idx], v));
                self.stats.ops.stores += 1;
                self.charge(1)?;
                if self.cur.is_some() && self.detect_races {
                    self.record_race(Loc::Scalar(*s), true);
                }
                self.s.scalars[idx] = new;
            }
            LStmt::AssignElem(a, lidx, op, e) => {
                let v = self.eval(e)?;
                let i = self.resolve_index(*lidx, *a);
                if op.reads_target() {
                    self.stats.ops.loads += 1;
                    self.charge(3)?;
                    if self.cur.is_some() && self.detect_races {
                        self.record_race(Loc::Elem(*a, i as u32), false);
                    }
                }
                self.charge_compound(*op)?;
                let old = self.s.arrays[*a as usize][i];
                let new = self.s.array_ty[*a as usize].round(op.apply(old, v));
                self.stats.ops.stores += 1;
                self.charge(3)?;
                if self.cur.is_some() && self.detect_races {
                    self.record_race(Loc::Elem(*a, i as u32), true);
                }
                self.s.arrays[*a as usize][i] = new;
            }
            LStmt::If(cond, body) => {
                self.stats.branches += 1;
                if self.eval_bool(cond)? {
                    self.stats.branches_taken += 1;
                    self.exec_stmts(body)?;
                }
            }
            LStmt::For(l) => self.exec_loop(l)?,
            LStmt::Critical(body) => self.exec_critical(body)?,
            LStmt::Parallel(p) => self.exec_parallel(p)?,
        }
        Ok(())
    }

    fn exec_loop(&mut self, l: &LLoop) -> Result<(), ExecError> {
        let n = match l.bound {
            LBound::Const(n) => n as i64,
            LBound::IntSlot(s) => self.s.ints[s as usize],
        }
        .max(0) as u64;
        let (start, end) = match (&self.cur, l.omp_for) {
            (Some(ctx), true) => {
                // OpenMP static schedule: contiguous chunks of ceil(n/T).
                let team = ctx.team.max(1) as u64;
                let chunk = n.div_ceil(team);
                let start = (ctx.tid as u64) * chunk;
                (start.min(n), (start + chunk).min(n))
            }
            _ => (0, n),
        };
        for i in start..end {
            self.s.ints[l.counter as usize] = i as i64;
            self.stats.loop_iterations += 1;
            self.charge(1)?; // loop increment + test
            self.exec_stmts(&l.body)?;
        }
        Ok(())
    }

    fn exec_critical(&mut self, body: &[LStmt]) -> Result<(), ExecError> {
        // Nominal entry cost of an *uncontended* lock; contention cost is a
        // property of the runtime model, applied by the backends from the
        // acquisition counts.
        self.charge(5)?;
        let prev = match &mut self.cur {
            Some(ctx) => {
                ctx.critical_acquisitions += 1;
                std::mem::replace(&mut ctx.in_critical, true)
            }
            None => false,
        };
        let result = self.exec_stmts(body);
        if let Some(ctx) = &mut self.cur {
            ctx.in_critical = prev;
        }
        result
    }

    fn exec_parallel(&mut self, p: &LParallel) -> Result<(), ExecError> {
        if self.cur.is_some() {
            // Nested regions are not generated; execute inline with the
            // current thread (team of 1), which matches a serialized nested
            // region.
            self.exec_stmts(&p.prelude)?;
            return self.exec_loop(&p.body_loop);
        }
        let team = p.num_threads.max(1);

        // Ensure a trace slot exists for this region.
        let rid = p.region_id as usize;
        while self.stats.regions.len() <= rid {
            let id = self.stats.regions.len() as u32;
            self.stats.regions.push(RegionTrace::new(id, team));
        }
        self.stats.regions[rid].num_threads = team;
        if self.stats.regions[rid].per_thread.len() != team as usize {
            self.stats.regions[rid].per_thread = vec![ThreadWork::default(); team as usize];
        }
        self.stats.regions[rid].omp_for = p.body_loop.omp_for;
        self.stats.regions[rid].has_reduction = p.reduction.is_some();
        self.stats.regions[rid].entries += 1;

        let record_races = self.detect_races && !self.s.region_analyzed[rid];
        if record_races {
            self.race.begin_region(p.region_id);
        }

        // Save privatized slots and mark them private for the detector.
        // The save/partial buffers move scratch → locals → scratch around
        // the region, so re-entered regions reuse one allocation.
        let mut saved = std::mem::take(&mut self.s.region_saved);
        saved.clear();
        for &s in p.private.iter().chain(&p.firstprivate) {
            saved.push((s, self.s.scalars[s as usize]));
            self.s.privatized[s as usize] = true;
        }

        let comp_before = self.comp;
        let mut partials = std::mem::take(&mut self.s.region_partials);
        partials.clear();

        for tid in 0..team {
            // Fresh private copies per thread.
            for &s in &p.private {
                self.s.scalars[s as usize] = 0.0;
            }
            for &(s, v) in saved.iter().skip(p.private.len()) {
                self.s.scalars[s as usize] = v;
            }
            if let Some(reduction) = p.reduction {
                self.comp = reduction.identity();
                self.comp_private = true;
            }
            self.cur = Some(ThreadCtx {
                tid,
                team,
                ..ThreadCtx::default()
            });
            // Fork/join bookkeeping cost per thread.
            self.charge(2)?;
            let run = self
                .exec_stmts(&p.prelude)
                .and_then(|()| self.exec_loop(&p.body_loop));
            let ctx = self.cur.take().expect("thread context");
            let tw = &mut self.stats.regions[rid].per_thread[tid as usize];
            tw.cycles += ctx.cycles;
            tw.ops += ctx.ops;
            tw.critical_acquisitions += ctx.critical_acquisitions;
            tw.critical_cycles += ctx.critical_cycles;
            run?;
            if p.reduction.is_some() {
                partials.push(self.comp);
            }
        }

        // Restore privatized slots (their pre-region values survive).
        for &(s, v) in &saved {
            self.s.scalars[s as usize] = v;
            self.s.privatized[s as usize] = false;
        }

        if let Some(op) = p.reduction {
            let mut acc = comp_before;
            for &part in &partials {
                acc = op.combine(acc, part);
            }
            self.comp = acc;
            self.comp_private = false;
        }

        // Hand the buffers back for the next region entry.
        self.s.region_saved = saved;
        self.s.region_partials = partials;

        if record_races {
            self.s.region_analyzed[rid] = true;
            let k = self.k;
            self.race.end_region(&|loc| k.loc_name(loc));
        }
        Ok(())
    }
}

/// Decide one branch test under `sem`, as both engines do. A `!=` test
/// with a NaN operand, the one test the two semantics decide differently,
/// is counted in [`ExecStats::nan_ne_tests`] whichever semantics runs.
#[inline]
pub(crate) fn branch_test(
    sem: BoolSemantics,
    op: BoolOp,
    lhs: f64,
    rhs: f64,
    stats: &mut ExecStats,
) -> bool {
    let nan = lhs.is_nan() || rhs.is_nan();
    if nan && op == BoolOp::Ne {
        stats.nan_ne_tests += 1;
    }
    match sem {
        BoolSemantics::NanAbsorbing if nan => false,
        _ => op.apply(lhs, rhs),
    }
}

/// Convenience: `MathFunc` re-export used by doctests.
#[doc(hidden)]
pub use ompfuzz_ast::ops::MathFunc as _MathFuncReexport;

#[allow(unused)]
fn _silence(m: MathFunc) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use ompfuzz_ast::{
        Assignment, Block, BlockItem, BoolExpr, Expr, ForLoop, FpType, IfBlock, IndexExpr, LValue,
        LoopBound, OmpClauses, OmpCritical, OmpParallel, Param, Program, ReductionOp, Stmt, VarRef,
    };

    fn input(comp: f64, values: Vec<InputValue>) -> TestInput {
        TestInput {
            comp_init: comp,
            values,
        }
    }

    /// The tree engine on a fresh scratch.
    fn run(k: &Kernel, inp: &TestInput, opts: &ExecOptions) -> Result<ExecOutcome, ExecError> {
        super::run(k, inp, opts, &mut ExecScratch::new())
    }

    fn run_program(p: &Program, inp: &TestInput) -> ExecOutcome {
        let k = lower(p).expect("lowers");
        run(&k, inp, &ExecOptions::default()).expect("runs")
    }

    #[test]
    fn straight_line_arithmetic() {
        // comp += var_1 * 2.0 - 1.0
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::AddAssign,
                value: Expr::binary(
                    Expr::binary(Expr::var("var_1"), BinOp::Mul, Expr::fp_const(2.0)),
                    BinOp::Sub,
                    Expr::fp_const(1.0),
                ),
            })]),
        );
        let out = run_program(&p, &input(10.0, vec![InputValue::Fp(3.0)]));
        assert_eq!(out.comp, 10.0 + 3.0 * 2.0 - 1.0);
        assert_eq!(out.stats.ops.mul, 1);
        assert_eq!(out.stats.ops.add_sub, 2); // sub + the += load/apply
        assert!(out.stats.serial_cycles > 0);
        assert!(out.stats.regions.is_empty());
    }

    #[test]
    fn f32_stores_round() {
        // float var_2 = var_1 (stored rounded); comp = var_2
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![
                Stmt::DeclAssign {
                    ty: FpType::F32,
                    name: "var_2".into(),
                    value: Expr::var("var_1"),
                },
                Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::Assign,
                    value: Expr::var("var_2"),
                }),
            ]),
        );
        let v = 1.000000119; // not f32-representable
        let out = run_program(&p, &input(0.0, vec![InputValue::Fp(v)]));
        assert_eq!(out.comp, v as f32 as f64);
        assert_ne!(out.comp, v);
    }

    #[test]
    fn loop_with_param_bound() {
        // for (i < var_1) comp += 2.0
        let p = Program::new(
            vec![Param::int("var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Param("var_1".into()),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::fp_const(2.0),
                })]),
            })]),
        );
        let out = run_program(&p, &input(1.0, vec![InputValue::Int(7)]));
        assert_eq!(out.comp, 1.0 + 14.0);
        assert_eq!(out.stats.loop_iterations, 7);
    }

    #[test]
    fn negative_trip_count_runs_zero_iterations() {
        let p = Program::new(
            vec![Param::int("var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Param("var_1".into()),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::fp_const(1.0),
                })]),
            })]),
        );
        let out = run_program(&p, &input(5.0, vec![InputValue::Int(-3)]));
        assert_eq!(out.comp, 5.0);
        assert_eq!(out.stats.loop_iterations, 0);
    }

    #[test]
    fn if_branch_and_nan_semantics() {
        // if (var_1 != var_1) comp += 100
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::If(IfBlock {
                cond: BoolExpr {
                    lhs: VarRef::Scalar("var_1".into()),
                    op: BoolOp::Ne,
                    rhs: Expr::var("var_1"),
                },
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::fp_const(100.0),
                })]),
            })]),
        );
        let k = lower(&p).unwrap();
        let nan_input = input(0.0, vec![InputValue::Fp(f64::NAN)]);
        // IEEE: NaN != NaN is true -> branch taken.
        let ieee = run(&k, &nan_input, &ExecOptions::default()).unwrap();
        assert_eq!(ieee.comp, 100.0);
        assert_eq!(ieee.stats.branches_taken, 1);
        // NaN-absorbing (modelled GCC -O3): branch skipped, less work.
        let gcc = run(
            &k,
            &nan_input,
            &ExecOptions {
                bool_semantics: BoolSemantics::NanAbsorbing,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(gcc.comp, 0.0);
        assert_eq!(gcc.stats.branches_taken, 0);
        assert!(gcc.stats.total_work_cycles() < ieee.stats.total_work_cycles());
        // Non-NaN input: both semantics agree.
        let normal = input(0.0, vec![InputValue::Fp(2.0)]);
        assert_eq!(
            run(&k, &normal, &ExecOptions::default()).unwrap().comp,
            run(
                &k,
                &normal,
                &ExecOptions {
                    bool_semantics: BoolSemantics::NanAbsorbing,
                    ..ExecOptions::default()
                }
            )
            .unwrap()
            .comp
        );
    }

    fn parallel_sum_program(reduction: bool, omp_for: bool, threads: u32, trip: u32) -> Program {
        // #pragma omp parallel [reduction(+: comp)] num_threads(threads)
        // { var_1 = 0; [#pragma omp for] for i < trip { comp += 1.0 | critical{...} } }
        let comp_add = Stmt::Assign(Assignment {
            target: LValue::Comp,
            op: AssignOp::AddAssign,
            value: Expr::fp_const(1.0),
        });
        let body_item = if reduction {
            BlockItem::Stmt(comp_add)
        } else {
            BlockItem::Critical(OmpCritical {
                body: Block::of_stmts(vec![comp_add]),
            })
        };
        Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    private: vec!["var_1".into()],
                    reduction: reduction.then_some(ReductionOp::Add),
                    num_threads: Some(threads),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::Assign(Assignment {
                    target: LValue::Var(VarRef::Scalar("var_1".into())),
                    op: AssignOp::Assign,
                    value: Expr::fp_const(0.0),
                })],
                body_loop: ForLoop {
                    omp_for,
                    var: "i".into(),
                    bound: LoopBound::Const(trip),
                    body: Block(vec![body_item]),
                },
            })]),
        )
    }

    #[test]
    fn omp_for_reduction_sums_once() {
        // Worksharing: 100 iterations split across 4 threads -> comp += 100.
        let p = parallel_sum_program(true, true, 4, 100);
        let out = run_program(&p, &input(5.0, vec![InputValue::Fp(0.0)]));
        assert_eq!(out.comp, 105.0);
        assert_eq!(out.stats.loop_iterations, 100);
        let r = &out.stats.regions[0];
        assert_eq!(r.entries, 1);
        assert_eq!(r.num_threads, 4);
        assert!(r.has_reduction);
        assert!(r.omp_for);
    }

    #[test]
    fn serial_loop_in_region_runs_redundantly() {
        // No worksharing: every one of 4 threads runs all 10 iterations.
        let p = parallel_sum_program(true, false, 4, 10);
        let out = run_program(&p, &input(0.0, vec![InputValue::Fp(0.0)]));
        assert_eq!(out.comp, 40.0);
        assert_eq!(out.stats.loop_iterations, 40);
    }

    #[test]
    fn critical_sum_matches_reduction_sum() {
        let red = run_program(
            &parallel_sum_program(true, true, 8, 64),
            &input(0.0, vec![InputValue::Fp(0.0)]),
        );
        let crit = run_program(
            &parallel_sum_program(false, true, 8, 64),
            &input(0.0, vec![InputValue::Fp(0.0)]),
        );
        assert_eq!(red.comp, crit.comp);
        // The critical variant records acquisitions.
        assert_eq!(crit.stats.regions[0].total_critical_acquisitions(), 64);
        assert_eq!(red.stats.regions[0].total_critical_acquisitions(), 0);
    }

    #[test]
    fn uneven_chunking_covers_all_iterations() {
        // 10 iterations over 4 threads: chunks 3,3,3,1.
        let p = parallel_sum_program(true, true, 4, 10);
        let out = run_program(&p, &input(0.0, vec![InputValue::Fp(0.0)]));
        assert_eq!(out.comp, 10.0);
        let r = &out.stats.regions[0];
        // Thread 3 did less work than thread 0.
        assert!(r.per_thread[3].cycles < r.per_thread[0].cycles);
    }

    #[test]
    fn firstprivate_initializes_and_restores() {
        // var_1 = 3.0 outer; region firstprivate(var_1): threads see 3.0,
        // multiply their copy by 2; after region, outer var_1 is restored.
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![
                Stmt::OmpParallel(OmpParallel {
                    clauses: OmpClauses {
                        firstprivate: vec!["var_1".into()],
                        reduction: Some(ReductionOp::Add),
                        num_threads: Some(4),
                        ..OmpClauses::default()
                    },
                    prelude: vec![Stmt::Assign(Assignment {
                        target: LValue::Var(VarRef::Scalar("var_1".into())),
                        op: AssignOp::MulAssign,
                        value: Expr::fp_const(2.0),
                    })],
                    body_loop: ForLoop {
                        omp_for: true,
                        var: "i".into(),
                        bound: LoopBound::Const(4),
                        body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                            target: LValue::Comp,
                            op: AssignOp::AddAssign,
                            value: Expr::var("var_1"),
                        })]),
                    },
                }),
                // After the region: comp += var_1 (outer value, restored).
                Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::var("var_1"),
                }),
            ]),
        );
        let out = run_program(&p, &input(0.0, vec![InputValue::Fp(3.0)]));
        // 4 threads each add their doubled copy (6.0) once (1 iter each),
        // then the restored outer 3.0.
        assert_eq!(out.comp, 4.0 * 6.0 + 3.0);
    }

    #[test]
    fn reduction_mul_combines_with_identity() {
        let comp_mul = Stmt::Assign(Assignment {
            target: LValue::Comp,
            op: AssignOp::MulAssign,
            value: Expr::fp_const(2.0),
        });
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    reduction: Some(ReductionOp::Mul),
                    num_threads: Some(3),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::Assign(Assignment {
                    target: LValue::Var(VarRef::Scalar("var_1".into())),
                    op: AssignOp::Assign,
                    value: Expr::fp_const(0.0),
                })],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(3),
                    body: Block::of_stmts(vec![comp_mul]),
                },
            })]),
        );
        // Each thread's private copy starts at 1.0, multiplies by 2 once
        // (one iteration each) -> partials [2,2,2]; comp = 5 * 2*2*2 = 40.
        let out = run_program(&p, &input(5.0, vec![InputValue::Fp(0.0)]));
        assert_eq!(out.comp, 40.0);
    }

    #[test]
    fn budget_exceeded_reports_error() {
        let p = parallel_sum_program(true, false, 4, 1000);
        let k = lower(&p).unwrap();
        let err = run(
            &k,
            &input(0.0, vec![InputValue::Fp(0.0)]),
            &ExecOptions {
                limits: ExecLimits { max_ops: 100 },
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }));
    }

    #[test]
    fn input_mismatch_reports_error() {
        let p = parallel_sum_program(true, true, 2, 4);
        let k = lower(&p).unwrap();
        let err = run(&k, &input(0.0, vec![]), &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, ExecError::InputMismatch(_)));
    }

    #[test]
    fn determinism_across_runs() {
        let p = parallel_sum_program(false, true, 8, 200);
        let k = lower(&p).unwrap();
        let inp = input(1.5, vec![InputValue::Fp(2.5)]);
        let a = run(&k, &inp, &ExecOptions::default()).unwrap();
        let b = run(&k, &inp, &ExecOptions::default()).unwrap();
        assert_eq!(a.comp, b.comp);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn region_in_serial_loop_counts_entries() {
        // for k < 5 { parallel region } -> entries == 5
        let inner = parallel_sum_program(true, true, 4, 8);
        let region_stmt = inner.body.0[0].clone();
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block(vec![BlockItem::Stmt(Stmt::For(ForLoop {
                omp_for: false,
                var: "k".into(),
                bound: LoopBound::Const(5),
                body: Block(vec![region_stmt]),
            }))]),
        );
        let out = run_program(&p, &input(0.0, vec![InputValue::Fp(0.0)]));
        assert_eq!(out.stats.regions[0].entries, 5);
        assert_eq!(out.comp, 5.0 * 8.0);
    }

    #[test]
    fn race_detected_on_unprotected_comp() {
        // comp += 1.0 bare in a non-reduction region: the legacy race.
        let comp_add = Stmt::Assign(Assignment {
            target: LValue::Comp,
            op: AssignOp::AddAssign,
            value: Expr::fp_const(1.0),
        });
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    num_threads: Some(4),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F64,
                    name: "var_9".into(),
                    value: Expr::fp_const(0.0),
                }],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(16),
                    body: Block::of_stmts(vec![comp_add]),
                },
            })]),
        );
        let k = lower(&p).unwrap();
        let out = run(
            &k,
            &input(0.0, vec![InputValue::Fp(0.0)]),
            &ExecOptions::with_race_detection(),
        )
        .unwrap();
        assert!(!out.races.is_empty());
        assert!(out.races[0].location.contains("comp"));
    }

    #[test]
    fn no_race_in_safe_generated_programs() {
        use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
        use ompfuzz_inputs::InputGenerator;
        let cfg = GeneratorConfig::small();
        let mut g = ProgramGenerator::new(cfg, 99);
        let mut ig = InputGenerator::new(123);
        for p in g.generate_batch(40) {
            let k = lower(&p).unwrap();
            let inp = ig.generate_for(&p);
            match run(&k, &inp, &ExecOptions::with_race_detection()) {
                Ok(out) => assert!(
                    out.races.is_empty(),
                    "race in {}: {:?}\n{}",
                    p.name,
                    out.races,
                    ompfuzz_ast::printer::emit_kernel_source(&p, &Default::default())
                ),
                Err(ExecError::BudgetExceeded { .. }) => {} // fine, rare
                Err(e) => panic!("{}: {e}", p.name),
            }
        }
    }

    #[test]
    fn thread_id_array_writes_do_not_race() {
        let write = Stmt::Assign(Assignment {
            target: LValue::Var(VarRef::Element("arr".into(), IndexExpr::ThreadId)),
            op: AssignOp::Assign,
            value: Expr::fp_const(1.0),
        });
        let p = Program::new(
            vec![Param::fp_array(FpType::F64, "arr")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    reduction: Some(ReductionOp::Add),
                    num_threads: Some(8),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F64,
                    name: "t".into(),
                    value: Expr::fp_const(0.0),
                }],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(64),
                    body: Block::of_stmts(vec![
                        write,
                        Stmt::Assign(Assignment {
                            target: LValue::Comp,
                            op: AssignOp::AddAssign,
                            value: Expr::elem("arr", IndexExpr::ThreadId),
                        }),
                    ]),
                },
            })]),
        );
        let k = lower(&p).unwrap();
        let inp = TestInput {
            comp_init: 0.0,
            values: vec![InputValue::ArrayFill(0.0)],
        };
        let out = run(&k, &inp, &ExecOptions::with_race_detection()).unwrap();
        assert!(out.races.is_empty(), "{:?}", out.races);
        assert_eq!(out.comp, 64.0);
    }

    #[test]
    fn shared_array_aliasing_race_detected() {
        // All threads run a *serial* loop writing arr[i % N]: same elements
        // from every thread -> race.
        let write = Stmt::Assign(Assignment {
            target: LValue::Var(VarRef::Element(
                "arr".into(),
                IndexExpr::LoopVarMod("i".into(), 1000),
            )),
            op: AssignOp::Assign,
            value: Expr::fp_const(1.0),
        });
        let p = Program::new(
            vec![Param::fp_array(FpType::F64, "arr")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    reduction: Some(ReductionOp::Add),
                    num_threads: Some(4),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F64,
                    name: "t".into(),
                    value: Expr::fp_const(0.0),
                }],
                body_loop: ForLoop {
                    omp_for: false, // serial loop: redundant execution
                    var: "i".into(),
                    bound: LoopBound::Const(8),
                    body: Block::of_stmts(vec![write]),
                },
            })]),
        );
        let k = lower(&p).unwrap();
        let inp = TestInput {
            comp_init: 0.0,
            values: vec![InputValue::ArrayFill(0.0)],
        };
        let out = run(&k, &inp, &ExecOptions::with_race_detection()).unwrap();
        assert!(!out.races.is_empty());
    }
}
