//! The flat bytecode form: a [`Kernel`] compiled to one linear instruction
//! stream.
//!
//! The tree interpreter ([`crate::interp`]) charges the op budget and bumps
//! half a dozen statistics counters *per node*, and every `Box<LExpr>` hop
//! is a data-dependent pointer chase. This module flattens a lowered kernel
//! once — expressions become postorder stack-machine instructions,
//! statements, loops and regions become a contiguous `Vec<Instr>` with jump
//! offsets — and precomputes everything the tree interpreter recomputes on
//! every visit:
//!
//! * **Batched op charging**: every maximal straight-line run of
//!   instructions is one [`BlockCost`] holding its total budget ops, cycles
//!   and per-class [`OpCounts`], charged by a single [`Instr::Charge`] at
//!   block entry instead of per node. Block totals equal the tree
//!   interpreter's per-node charges for the same code exactly, so budget
//!   exhaustion is equivalent: both engines fail iff the run's total charge
//!   count exceeds `max_ops` (prefix sums agree at block granularity).
//! * **Priced loop nests**: a run that exhausts its budget inside a loop
//!   nest is stopped at the nest's entry, or right after its first `!=`
//!   test on a NaN, instead of after the ops it has left. The compiler
//!   marks how each [`Instr::LoopStart`] prices its nest ([`Pricing`]): a
//!   non-bulk loop is priced unless a `!=`-free priced ancestor's floor
//!   already counts it. A floor counts nothing of an `if` body, so a loop
//!   inside one is judged on its own; a bulk loop already charges its
//!   whole trip at entry. At a priced entry the VM sums the nest's
//!   *floor*, a lower bound on the ops it will charge (every block charge
//!   at each level, `trips × (body block + floor of the body)` per nested
//!   loop with trips from a constant or an int param, a region's fork
//!   charge and body per team thread). A floor above the ops left dooms
//!   the run to abort inside the nest. The VM returns `BudgetExceeded` at
//!   once when the nest's range — `if` bodies, nested loops and regions
//!   included — holds no `!=` test, or when the run has already tested a
//!   NaN with `!=`. Any other doomed run returns it right after its first
//!   `!=` test on a NaN, or aborts at its failing charge as it would
//!   unpriced. The early abort is exact:
//!   1. a started loop always runs to its exit (the grammar has no break
//!      or return), so every charge the floor counts will be made, and
//!      both engines fail exactly when the total charge exceeds `max_ops`:
//!      the true abort lies inside the nest, after any point the doomed
//!      run reaches;
//!   2. `tested_nan_ne` only ever flips from false to true, on a `!=` test
//!      with a NaN operand. A run that has made such a test carries `true`
//!      at its true abort, and a `!=`-free nest makes none, so the bool at
//!      the true abort equals the bool where the VM stops;
//!   3. an aborted run returns only `BudgetExceeded { max_ops,
//!      tested_nan_ne }` — its `comp`, statistics and race reports are
//!      dropped — so nothing else about the run is observable.
//!
//!   The tree interpreter keeps no floor; it is the reference the VM's
//!   early aborts are checked against.
//! * **Pre-resolved race-check flags**: whether an access can be a shared
//!   access worth reporting — inside a parallel region, not privatized by
//!   the (lexically outermost) region's clauses, not region-local, not a
//!   reduction-private `comp` — is decided here, once, and stored as one
//!   bool per instruction. The tree interpreter re-derives all of that per
//!   access.
//!
//! The dispatch loop over this form lives in [`crate::vm`]; outcomes are
//! bit-identical to the tree interpreter's (pinned by the
//! `bytecode_equiv` differential suite and a debug-build parity assert).

use crate::fold::fold_constants;
use crate::kernel::*;
use crate::scratch::ExecScratch;
use crate::stats::OpCounts;
use ompfuzz_ast::{AssignOp, BinOp, BoolOp, FpType, MathFunc, ReductionOp};
use std::sync::{Arc, OnceLock};

/// Costs and statistics of one straight-line block, charged in a single
/// step at block entry. Totals are exactly the sum of the per-node charges
/// the tree interpreter performs for the same instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCost {
    /// Budget units (the number of `charge()` calls the tree would make).
    pub ops: u64,
    /// Weighted work cycles.
    pub cycles: u64,
    /// Per-class operation counts merged into `ExecStats::ops`.
    pub counts: OpCounts,
    /// Loop iterations started in this block (the per-iteration block of a
    /// loop body carries 1).
    pub loop_iters: u64,
    /// `if` conditions evaluated in this block.
    pub branches: u64,
    /// `omp critical` acquisitions initiated from this block.
    pub crit_acqs: u64,
}

/// A value source decoded inline by the consuming instruction. Expression
/// *leaves* never cost a dispatch of their own: only interior nodes
/// (`Binary`/`Call`) materialize results on the evaluation stack, which
/// deeper operands then consume via [`Operand::Stack`].
///
/// Operands are loaded rhs-first (so two `Stack` operands pop in the right
/// order); loads are pure, so relative load order is unobservable — values,
/// statistic totals and the race-access *set* are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Pop the result a previous instruction pushed.
    Stack,
    /// A literal (already rounded to its declared precision).
    Const(f64),
    /// A scalar slot; `race` marks a possibly-shared access.
    Scalar { slot: SlotId, race: bool },
    /// An array element.
    Elem {
        array: ArrayId,
        index: LIndex,
        race: bool,
    },
}

/// One bytecode instruction. Value-producing instructions push onto the
/// VM's f64 evaluation stack; control instructions use absolute targets
/// into the instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Charge the straight-line block starting here (budget + stats).
    Charge(u32),
    /// Push `lhs op rhs`.
    Binary {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Push the result of the math call.
    Call { func: MathFunc, arg: Operand },
    /// `comp <op>= value`.
    StoreComp {
        op: AssignOp,
        race: bool,
        value: Operand,
    },
    /// `scalar <op>= value` (rounded to the slot's type).
    StoreScalar {
        slot: SlotId,
        op: AssignOp,
        race: bool,
        value: Operand,
    },
    /// Fused `comp <op>= (lhs bin rhs)` — the peephole for statements
    /// whose right-hand side roots in a binary operator, sparing the
    /// intermediate's dispatch and stack round-trip.
    StoreCompBin {
        op: AssignOp,
        race: bool,
        bin: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Fused `scalar <op>= (lhs bin rhs)`.
    StoreScalarBin {
        slot: SlotId,
        op: AssignOp,
        race: bool,
        bin: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `array[index] <op>= value`.
    StoreElem {
        array: ArrayId,
        index: LIndex,
        op: AssignOp,
        race: bool,
        value: Operand,
    },
    /// Compare the scalar slot against `rhs`, jump when false.
    BoolTest {
        lhs: SlotId,
        op: BoolOp,
        race: bool,
        rhs: Operand,
        if_false: u32,
    },
    /// Resolve the bound, apply the (static) schedule, enter the loop or
    /// jump to `exit` when the range is empty. Entering charges
    /// `body_block` — the loop body's leading block, which carries the
    /// per-iteration increment+test cost — so iterations don't pay a
    /// separate `Charge` dispatch. When `bulk` is set the body is a single
    /// straight-line block: entry charges *all* iterations at once
    /// (`trip × body_block`) and the back-edge charges nothing — exact,
    /// because the attribution context cannot change inside a
    /// straight-line body, every statistic is a sum, and a bulk budget
    /// failure at entry and a per-iteration failure mid-loop produce the
    /// same discarded `BudgetExceeded` (the body holds no branch test, so
    /// the `tested_nan_ne` it carries agrees too).
    ///
    /// `pricing` says what the VM checks at entry: unless it is
    /// [`Pricing::Unpriced`], the VM computes the nest's floor, a lower
    /// bound on the ops it will charge, and when the floor exceeds the ops
    /// left it ends the run at once or dooms it (see [`Pricing`], and the
    /// module doc's "Priced loop nests" for the floor and why the early
    /// abort is exact).
    LoopStart {
        counter: IntSlotId,
        bound: LBound,
        omp_for: bool,
        exit: u32,
        body_block: u32,
        bulk: bool,
        pricing: Pricing,
    },
    /// Advance the innermost loop; jump back to `body` (charging
    /// `body_block` for the new iteration unless the loop was
    /// bulk-charged) or fall through.
    LoopNext {
        body: u32,
        body_block: u32,
        bulk: bool,
    },
    /// Enter an `omp critical` section (the entry cost is charged by the
    /// preceding block).
    CriticalEnter,
    /// Leave an `omp critical` section.
    CriticalExit,
    /// Enter the parallel region `region` (index into the region table):
    /// start thread 0, or execute inline when already inside a region.
    RegionEnter { region: u32 },
    /// End of the region body: advance to the next thread (jumping back to
    /// `prelude`) or join the team and fall through.
    RegionExit { region: u32, prelude: u32 },
    /// End of the program.
    Halt,
}

/// What a [`Instr::LoopStart`] checks at entry: whether it prices its
/// nest, and what a floor above the ops left does to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// No check: a bulk loop, or a loop a `!=`-free priced ancestor's floor
    /// already counts.
    Unpriced,
    /// The range holds no `!=` test: the run aborts at entry. The floor
    /// counts the nested loops, so they check nothing.
    NeFree,
    /// The range holds a `!=` test: the run aborts at entry if it has
    /// already tested a NaN with `!=`, and is doomed otherwise: it aborts
    /// right after its first `!=` test on a NaN, or at its failing charge
    /// if it makes none. The nested loops keep their own checks.
    HoldsNe,
}

/// Static description of one parallel region, shared by every entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMeta {
    pub region_id: u32,
    pub num_threads: u32,
    pub private: Vec<SlotId>,
    pub firstprivate: Vec<SlotId>,
    pub reduction: Option<ReductionOp>,
    /// The region's loop is a worksharing loop (recorded in the trace).
    pub omp_for: bool,
    /// Index of the region's `RegionExit` (where a nest floor's walk of
    /// the region body ends).
    pub(crate) exit: u32,
}

/// A kernel compiled to the flat bytecode form.
///
/// Keeps the (possibly constant-folded) source [`Kernel`] alongside the
/// instruction stream: [`CompiledKernel::run`] dispatches to either engine
/// from the same artifact, which is what lets the tree interpreter stay
/// available as the reference semantics behind `ExecOptions::engine`.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The kernel this bytecode was compiled from (after folding, if any).
    pub kernel: Kernel,
    pub(crate) instrs: Vec<Instr>,
    /// `instrs[i]`'s opcode index ([`crate::profile::opcode_index`]),
    /// precomputed so the direct-threaded dispatch loops index their
    /// handler tables without re-discriminating the enum.
    pub(crate) opcodes: Vec<u8>,
    pub(crate) blocks: Vec<BlockCost>,
    pub(crate) regions: Vec<RegionMeta>,
    /// Per-slot store precision, cached flat so the VM's store tail never
    /// walks `kernel.scalars` (and runs need no per-execution copy).
    pub(crate) slot_ty: Vec<FpType>,
    /// Per-array store precision (see `slot_ty`).
    pub(crate) array_ty: Vec<FpType>,
    /// Deepest evaluation-stack use of any expression.
    pub(crate) max_stack: usize,
    /// Constant folds applied before flattening (compile diagnostics).
    pub folds: usize,
}

impl CompiledKernel {
    /// Compile `kernel` as-is (no optimization passes).
    pub fn compile(kernel: Kernel) -> CompiledKernel {
        CompiledKernel::build(kernel, 0)
    }

    /// Constant-fold, then compile — the `-O1`-and-above form every
    /// simulated backend executes.
    pub fn compile_folded(mut kernel: Kernel) -> CompiledKernel {
        let folds = fold_constants(&mut kernel);
        CompiledKernel::build(kernel, folds)
    }

    /// Execute on `input`, dispatching on `opts.engine` (the flat bytecode
    /// VM by default, or the tree interpreter as reference semantics),
    /// through `scratch`. The crate's only run entry point: a reused
    /// scratch gives the same outcome as a fresh one, since each run
    /// resets exactly the state it reads.
    pub fn run(
        &self,
        input: &ompfuzz_inputs::TestInput,
        opts: &crate::interp::ExecOptions,
        scratch: &mut ExecScratch,
    ) -> Result<crate::interp::ExecOutcome, crate::interp::ExecError> {
        match opts.engine {
            crate::interp::ExecEngine::Tree => {
                crate::interp::run(&self.kernel, input, opts, scratch)
            }
            crate::interp::ExecEngine::Bytecode => crate::vm::run(self, input, opts, scratch),
        }
    }

    /// Number of instructions in the stream (diagnostics/tests).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    fn build(kernel: Kernel, folds: usize) -> CompiledKernel {
        let (instrs, blocks, regions, max_stack) = {
            let mut c = Compiler::new(&kernel);
            c.emit_stmts(&kernel.body);
            c.boundary();
            c.instrs.push(Instr::Halt);
            let end = c.instrs.len();
            mark_priced(&mut c.instrs, 0, end, false);
            (c.instrs, c.blocks, c.regions, c.max_stack)
        };
        let slot_ty = kernel.scalars.iter().map(|s| s.ty).collect();
        let array_ty = kernel.arrays.iter().map(|a| a.ty).collect();
        let opcodes = instrs
            .iter()
            .map(|i| crate::profile::opcode_index(i) as u8)
            .collect();
        CompiledKernel {
            kernel,
            instrs,
            opcodes,
            blocks,
            regions,
            slot_ty,
            array_ty,
            max_stack,
            folds,
        }
    }
}

/// A lowered kernel plus its lazily shared bytecode compilations: the
/// artifact a caller prepares once per program so every simulated backend
/// compiled against it shares one compilation. Each form is compiled on
/// first use, so an `-O1`+ program never builds the plain bytecode.
#[derive(Debug)]
pub struct PreparedKernel {
    kernel: Kernel,
    plain: OnceLock<Arc<CompiledKernel>>,
    folded: OnceLock<Arc<CompiledKernel>>,
}

impl PreparedKernel {
    /// Hold `kernel`; nothing is compiled until [`PreparedKernel::for_opt`]
    /// asks (`OnceLock` makes each fill race-free across workers).
    pub fn new(kernel: Kernel) -> PreparedKernel {
        PreparedKernel {
            kernel,
            plain: OnceLock::new(),
            folded: OnceLock::new(),
        }
    }

    /// The compilation matching an optimization choice: constant-folded
    /// (what `-O1`+ backends run) or as lowered.
    pub fn for_opt(&self, fold: bool) -> &Arc<CompiledKernel> {
        if fold {
            self.folded
                .get_or_init(|| Arc::new(CompiledKernel::compile_folded(self.kernel.clone())))
        } else {
            self.plain
                .get_or_init(|| Arc::new(CompiledKernel::compile(self.kernel.clone())))
        }
    }
}

/// Set `LoopStart::pricing` over `instrs[from..to]`. `covered` says a
/// `!=`-free priced ancestor's floor already counts this range; an `if`
/// body is counted by no floor, so its loops are judged afresh.
fn mark_priced(instrs: &mut [Instr], from: usize, to: usize, covered: bool) {
    let mut ip = from;
    while ip < to {
        match instrs[ip] {
            Instr::BoolTest { if_false, .. } => {
                mark_priced(instrs, ip + 1, if_false as usize, false);
                ip = if_false as usize;
            }
            Instr::LoopStart { exit, bulk, .. } => {
                // The body runs from here to the loop's `LoopNext`.
                let (body, next) = (ip + 1, exit as usize - 1);
                let holds_ne = instrs[body..next]
                    .iter()
                    .any(|i| matches!(i, Instr::BoolTest { op: BoolOp::Ne, .. }));
                let price = match (covered || bulk, holds_ne) {
                    (true, _) => Pricing::Unpriced,
                    (false, false) => Pricing::NeFree,
                    (false, true) => Pricing::HoldsNe,
                };
                if let Instr::LoopStart { pricing, .. } = &mut instrs[ip] {
                    *pricing = price;
                }
                mark_priced(instrs, body, next, covered || price == Pricing::NeFree);
                ip = exit as usize;
            }
            _ => ip += 1,
        }
    }
}

/// Race-flag context of the lexically outermost enclosing parallel region.
/// Nested regions execute inline on the outer team, so the outer region's
/// clauses are the ones that decide sharing — exactly what the tree
/// interpreter's dynamic `privatized`/`comp_private` state resolves to.
struct RegionScope {
    privatized: Vec<bool>,
    comp_private: bool,
}

struct Compiler<'k> {
    k: &'k Kernel,
    instrs: Vec<Instr>,
    blocks: Vec<BlockCost>,
    regions: Vec<RegionMeta>,
    /// Block currently accumulating costs (index into `blocks`).
    cur_block: Option<usize>,
    /// Outermost region scope, if inside any parallel region.
    scope: Option<RegionScope>,
    depth: usize,
    max_stack: usize,
}

impl<'k> Compiler<'k> {
    fn new(k: &'k Kernel) -> Compiler<'k> {
        Compiler {
            k,
            instrs: Vec::new(),
            blocks: Vec::new(),
            regions: Vec::new(),
            cur_block: None,
            scope: None,
            depth: 0,
            max_stack: 0,
        }
    }

    // ----- block accounting -------------------------------------------------

    /// The block accumulating the current straight line, creating it (and
    /// its `Charge` instruction) on first cost.
    fn block(&mut self) -> &mut BlockCost {
        let idx = match self.cur_block {
            Some(idx) => idx,
            None => {
                let idx = self.blocks.len();
                self.blocks.push(BlockCost::default());
                self.instrs.push(Instr::Charge(idx as u32));
                self.cur_block = Some(idx);
                idx
            }
        };
        &mut self.blocks[idx]
    }

    /// Open a block charged by a control instruction (no `Charge` emitted);
    /// the caller wires its index into that instruction.
    fn open_charged_block(&mut self) -> usize {
        debug_assert!(self.cur_block.is_none(), "block already open");
        let idx = self.blocks.len();
        self.blocks.push(BlockCost::default());
        self.cur_block = Some(idx);
        idx
    }

    /// End the current straight-line block (control flow follows).
    fn boundary(&mut self) {
        self.cur_block = None;
    }

    /// One tree-interpreter `charge(cycles)` worth of cost.
    fn cost(&mut self, cycles: u64) {
        let b = self.block();
        b.ops += 1;
        b.cycles += cycles;
    }

    fn count_binop(&mut self, op: BinOp) {
        let b = self.block();
        match op {
            BinOp::Add | BinOp::Sub => b.counts.add_sub += 1,
            BinOp::Mul => b.counts.mul += 1,
            BinOp::Div => b.counts.div += 1,
        }
    }

    /// The arithmetic a compound assignment performs (tree's
    /// `charge_compound`).
    fn cost_compound(&mut self, op: AssignOp) {
        if let Some(arith) = op.arith_op() {
            self.count_binop(arith);
            self.cost(arith.cost_cycles());
        }
    }

    // ----- stack depth ------------------------------------------------------

    fn push_depth(&mut self) {
        self.depth += 1;
        self.max_stack = self.max_stack.max(self.depth);
    }

    fn pop_operand(&mut self, o: &Operand) {
        if matches!(o, Operand::Stack) {
            debug_assert!(self.depth >= 1, "stack-depth underflow in compiler");
            self.depth -= 1;
        }
    }

    // ----- race flags -------------------------------------------------------

    fn race_scalar(&self, s: SlotId) -> bool {
        self.scope
            .as_ref()
            .is_some_and(|r| !r.privatized[s as usize] && !self.k.scalars[s as usize].region_local)
    }

    fn race_comp(&self) -> bool {
        self.scope.as_ref().is_some_and(|r| !r.comp_private)
    }

    fn race_elem(&self) -> bool {
        self.scope.is_some()
    }

    // ----- emission ---------------------------------------------------------

    fn emit_stmts(&mut self, stmts: &[LStmt]) {
        for s in stmts {
            self.emit_stmt(s);
        }
    }

    /// If the value just flattened is the result of the binary instruction
    /// emitted last, un-emit it for fusion into the consuming store.
    fn take_fusable_binary(&mut self, value: &Operand) -> Option<(BinOp, Operand, Operand)> {
        if !matches!(value, Operand::Stack) {
            return None;
        }
        if let Some(Instr::Binary { op, lhs, rhs }) = self.instrs.last() {
            let taken = (*op, *lhs, *rhs);
            self.instrs.pop();
            self.depth -= 1; // undo the un-emitted push
            return Some(taken);
        }
        None
    }

    fn emit_stmt(&mut self, stmt: &LStmt) {
        match stmt {
            LStmt::AssignComp(op, e) => {
                let value = self.emit_value(e);
                if op.reads_target() {
                    self.block().counts.loads += 1;
                    self.cost(1);
                }
                self.cost_compound(*op);
                self.block().counts.stores += 1;
                self.cost(1);
                let race = self.race_comp();
                if let Some((bin, lhs, rhs)) = self.take_fusable_binary(&value) {
                    self.instrs.push(Instr::StoreCompBin {
                        op: *op,
                        race,
                        bin,
                        lhs,
                        rhs,
                    });
                } else {
                    self.instrs.push(Instr::StoreComp {
                        op: *op,
                        race,
                        value,
                    });
                    self.pop_operand(&value);
                }
            }
            LStmt::AssignScalar(s, op, e) => {
                let value = self.emit_value(e);
                if op.reads_target() {
                    self.block().counts.loads += 1;
                    self.cost(1);
                }
                self.cost_compound(*op);
                self.block().counts.stores += 1;
                self.cost(1);
                let race = self.race_scalar(*s);
                if let Some((bin, lhs, rhs)) = self.take_fusable_binary(&value) {
                    self.instrs.push(Instr::StoreScalarBin {
                        slot: *s,
                        op: *op,
                        race,
                        bin,
                        lhs,
                        rhs,
                    });
                } else {
                    self.instrs.push(Instr::StoreScalar {
                        slot: *s,
                        op: *op,
                        race,
                        value,
                    });
                    self.pop_operand(&value);
                }
            }
            LStmt::AssignElem(a, idx, op, e) => {
                let value = self.emit_value(e);
                if op.reads_target() {
                    self.block().counts.loads += 1;
                    self.cost(3);
                }
                self.cost_compound(*op);
                self.block().counts.stores += 1;
                self.cost(3);
                let race = self.race_elem();
                self.instrs.push(Instr::StoreElem {
                    array: *a,
                    index: *idx,
                    op: *op,
                    race,
                    value,
                });
                self.pop_operand(&value);
            }
            LStmt::If(cond, body) => {
                // branches + the bool evaluation: lhs load, rhs expr,
                // compare — all in the block ending at the test. Ending the
                // block there keeps a budget abort's `tested_nan_ne` equal
                // to the tree's: a charge that fails stops both engines
                // before the test.
                self.block().branches += 1;
                self.block().counts.loads += 1;
                self.cost(1);
                let rhs = self.emit_value(&cond.rhs);
                self.block().counts.compares += 1;
                self.cost(1);
                let race = self.race_scalar(cond.lhs);
                let test_ip = self.instrs.len();
                self.instrs.push(Instr::BoolTest {
                    lhs: cond.lhs,
                    op: cond.op,
                    race,
                    rhs,
                    if_false: u32::MAX,
                });
                self.pop_operand(&rhs);
                self.boundary();
                self.emit_stmts(body);
                self.boundary();
                let after = self.instrs.len() as u32;
                let Instr::BoolTest { if_false, .. } = &mut self.instrs[test_ip] else {
                    unreachable!("patch target is the BoolTest just emitted");
                };
                *if_false = after;
            }
            LStmt::For(l) => self.emit_loop(l),
            LStmt::Critical(body) => {
                // Uncontended lock entry: 5 cycles, charged (and the
                // acquisition counted) before the attribution switch.
                self.block().crit_acqs += 1;
                self.cost(5);
                self.instrs.push(Instr::CriticalEnter);
                self.boundary();
                self.emit_stmts(body);
                self.boundary();
                self.instrs.push(Instr::CriticalExit);
            }
            LStmt::Parallel(p) => self.emit_parallel(p),
        }
    }

    fn emit_loop(&mut self, l: &LLoop) {
        self.boundary();
        let start_ip = self.instrs.len();
        self.instrs.push(Instr::LoopStart {
            counter: l.counter,
            bound: l.bound,
            omp_for: l.omp_for,
            exit: u32::MAX,
            body_block: u32::MAX,
            bulk: false,
            pricing: Pricing::Unpriced,
        });
        let body_ip = self.instrs.len() as u32;
        // Per-iteration loop increment + test, charged by the body's
        // leading block — which LoopStart/LoopNext charge on iteration
        // entry, so the hot back-edge skips a Charge dispatch.
        let body_block = self.open_charged_block() as u32;
        {
            let b = self.block();
            b.loop_iters += 1;
        }
        self.cost(1);
        self.emit_stmts(&l.body);
        self.boundary();
        // A body with no internal control flow is one straight-line block:
        // its whole trip count can be charged at loop entry.
        let simple = self.instrs[body_ip as usize..].iter().all(|i| {
            matches!(
                i,
                Instr::Binary { .. }
                    | Instr::Call { .. }
                    | Instr::StoreComp { .. }
                    | Instr::StoreScalar { .. }
                    | Instr::StoreElem { .. }
                    | Instr::StoreCompBin { .. }
                    | Instr::StoreScalarBin { .. }
            )
        });
        self.instrs.push(Instr::LoopNext {
            body: body_ip,
            body_block,
            bulk: simple,
        });
        let after = self.instrs.len() as u32;
        let Instr::LoopStart {
            exit,
            body_block: bb,
            bulk,
            ..
        } = &mut self.instrs[start_ip]
        else {
            unreachable!("patch target is the LoopStart just emitted");
        };
        *exit = after;
        *bb = body_block;
        *bulk = simple;
    }

    fn emit_parallel(&mut self, p: &LParallel) {
        let region = self.regions.len() as u32;
        self.regions.push(RegionMeta {
            region_id: p.region_id,
            num_threads: p.num_threads.max(1),
            private: p.private.clone(),
            firstprivate: p.firstprivate.clone(),
            reduction: p.reduction,
            omp_for: p.body_loop.omp_for,
            exit: u32::MAX,
        });
        // Race flags inside the region resolve against the *outermost*
        // region's clauses: nested regions run inline on the outer team and
        // privatize nothing (mirroring the tree interpreter's early return).
        let installed = if self.scope.is_none() {
            let mut privatized = vec![false; self.k.scalars.len()];
            for &s in p.private.iter().chain(&p.firstprivate) {
                privatized[s as usize] = true;
            }
            self.scope = Some(RegionScope {
                privatized,
                comp_private: p.reduction.is_some(),
            });
            true
        } else {
            false
        };
        self.boundary();
        self.instrs.push(Instr::RegionEnter { region });
        let prelude_ip = self.instrs.len() as u32;
        self.emit_stmts(&p.prelude);
        self.emit_loop(&p.body_loop);
        self.boundary();
        self.regions[region as usize].exit = self.instrs.len() as u32;
        self.instrs.push(Instr::RegionExit {
            region,
            prelude: prelude_ip,
        });
        if installed {
            self.scope = None;
        }
    }

    /// Flatten an expression, returning the operand its value arrives by:
    /// leaves become inline operands of the consuming instruction (their
    /// cost still charged here), interior nodes emit an instruction that
    /// pushes onto the evaluation stack.
    fn emit_value(&mut self, e: &LExpr) -> Operand {
        match e {
            LExpr::Const(v) => Operand::Const(*v),
            LExpr::Scalar(s) => {
                self.block().counts.loads += 1;
                self.cost(1);
                Operand::Scalar {
                    slot: *s,
                    race: self.race_scalar(*s),
                }
            }
            LExpr::Elem(a, idx) => {
                self.block().counts.loads += 1;
                self.cost(3);
                Operand::Elem {
                    array: *a,
                    index: *idx,
                    race: self.race_elem(),
                }
            }
            LExpr::Binary(op, l, r) => {
                let lhs = self.emit_value(l);
                let rhs = self.emit_value(r);
                self.count_binop(*op);
                self.cost(op.cost_cycles());
                self.instrs.push(Instr::Binary { op: *op, lhs, rhs });
                self.pop_operand(&lhs);
                self.pop_operand(&rhs);
                self.push_depth();
                Operand::Stack
            }
            LExpr::Call(func, arg) => {
                let argop = self.emit_value(arg);
                {
                    let b = self.block();
                    b.counts.math += 1;
                    b.counts.math_cycles += func.cost_cycles();
                }
                self.cost(func.cost_cycles());
                self.instrs.push(Instr::Call {
                    func: *func,
                    arg: argop,
                });
                self.pop_operand(&argop);
                self.push_depth();
                Operand::Stack
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use ompfuzz_ast::{
        AssignOp, Assignment, Block, Expr, ForLoop, FpType, LValue, LoopBound, OmpClauses,
        OmpParallel, Param, Program, ReductionOp as AstReduction, Stmt, VarRef,
    };

    fn compile_program(p: &Program) -> CompiledKernel {
        CompiledKernel::compile(lower(p).unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        // comp += var_1 * 2.0 - 1.0 — one Charge, then pushes/ops/store.
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::AddAssign,
                value: Expr::binary(
                    Expr::binary(
                        Expr::var("var_1"),
                        ompfuzz_ast::BinOp::Mul,
                        Expr::fp_const(2.0),
                    ),
                    ompfuzz_ast::BinOp::Sub,
                    Expr::fp_const(1.0),
                ),
            })]),
        );
        let ck = compile_program(&p);
        let charges = ck
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Charge(_)))
            .count();
        assert_eq!(charges, 1);
        assert_eq!(ck.blocks.len(), 1);
        let b = &ck.blocks[0];
        // load var_1, mul, sub, += load, += add, store = 6 charges.
        assert_eq!(b.ops, 6);
        assert_eq!(b.counts.loads, 2); // var_1 + comp read-modify
        assert_eq!(b.counts.mul, 1);
        assert_eq!(b.counts.add_sub, 2); // sub + compound add
        assert_eq!(b.counts.stores, 1);
        assert!(matches!(ck.instrs.last(), Some(Instr::Halt)));
    }

    #[test]
    fn loop_body_block_carries_the_iteration_charge() {
        let p = Program::new(
            vec![Param::int("n")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Param("n".into()),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::fp_const(2.0),
                })]),
            })]),
        );
        let ck = compile_program(&p);
        // The loop-body block: iter charge + comp read + compound add +
        // store.
        let body_block = ck
            .blocks
            .iter()
            .find(|b| b.loop_iters == 1)
            .expect("loop body block");
        assert_eq!(body_block.ops, 4);
        assert_eq!(body_block.counts.loads, 1);
        assert_eq!(body_block.counts.stores, 1);
        // LoopStart's exit lands after LoopNext.
        let (start_idx, exit) = ck
            .instrs
            .iter()
            .enumerate()
            .find_map(|(i, ins)| match ins {
                Instr::LoopStart { exit, .. } => Some((i, *exit)),
                _ => None,
            })
            .unwrap();
        assert!(matches!(
            ck.instrs[exit as usize - 1],
            Instr::LoopNext { .. }
        ));
        assert!(exit as usize > start_idx);
    }

    #[test]
    fn race_flags_resolve_privatization_statically() {
        // parallel private(var_1) reduction(+): var_1 and comp accesses in
        // the region are pre-resolved as non-racing.
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    private: vec!["var_1".into()],
                    reduction: Some(AstReduction::Add),
                    num_threads: Some(4),
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
                    bound: LoopBound::Const(8),
                    body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                        target: LValue::Comp,
                        op: AssignOp::AddAssign,
                        value: Expr::var("var_1"),
                    })]),
                },
            })]),
        );
        let ck = compile_program(&p);
        let flag_of = |o: &Operand| match o {
            Operand::Scalar { race, .. } | Operand::Elem { race, .. } => Some(*race),
            _ => None,
        };
        for ins in &ck.instrs {
            let flags: Vec<Option<bool>> = match ins {
                Instr::Binary { lhs, rhs, .. } => vec![flag_of(lhs), flag_of(rhs)],
                Instr::Call { arg, .. } => vec![flag_of(arg)],
                Instr::StoreComp { race, value, .. }
                | Instr::StoreScalar { race, value, .. }
                | Instr::StoreElem { race, value, .. } => vec![Some(*race), flag_of(value)],
                Instr::BoolTest { race, rhs, .. } => vec![Some(*race), flag_of(rhs)],
                _ => vec![],
            };
            for f in flags.into_iter().flatten() {
                assert!(!f, "privatized access flagged racy: {ins:?}");
            }
        }
        assert_eq!(ck.regions.len(), 1);
        assert_eq!(ck.regions[0].num_threads, 4);
        assert!(ck.regions[0].omp_for);
    }

    #[test]
    fn unprotected_comp_in_region_is_flagged() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    num_threads: Some(4),
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
                    bound: LoopBound::Const(8),
                    body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                        target: LValue::Comp,
                        op: AssignOp::AddAssign,
                        value: Expr::fp_const(1.0),
                    })]),
                },
            })]),
        );
        let ck = compile_program(&p);
        let comp_store_races: Vec<bool> = ck
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::StoreComp { race, .. } => Some(*race),
                _ => None,
            })
            .collect();
        assert_eq!(comp_store_races, vec![true]);
        // The region-local `t` never races.
        for ins in &ck.instrs {
            if let Instr::StoreScalar { race, .. } = ins {
                assert!(!race, "region-local store flagged racy");
            }
        }
    }

    #[test]
    fn folding_matches_the_tree_pass() {
        let p = Program::new(
            vec![],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value: Expr::binary(
                    Expr::paren(Expr::binary(
                        Expr::fp_const(2.0),
                        ompfuzz_ast::BinOp::Mul,
                        Expr::fp_const(3.0),
                    )),
                    ompfuzz_ast::BinOp::Add,
                    Expr::fp_const(1.0),
                ),
            })]),
        );
        let kernel = lower(&p).unwrap();
        let mut folded_tree = kernel.clone();
        let folds = fold_constants(&mut folded_tree);
        let ck = CompiledKernel::compile_folded(kernel);
        assert_eq!(ck.folds, folds);
        assert_eq!(ck.kernel, folded_tree);
        // The folded expression collapses to one inline constant operand.
        assert!(ck.instrs.iter().any(|i| matches!(
            i,
            Instr::StoreComp {
                value: Operand::Const(v),
                ..
            } if *v == 7.0
        )));
    }

    #[test]
    fn prepared_kernel_shares_compilations() {
        let p = Program::new(
            vec![],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value: Expr::binary(
                    Expr::fp_const(2.0),
                    ompfuzz_ast::BinOp::Mul,
                    Expr::fp_const(3.0),
                ),
            })]),
        );
        let kernel = lower(&p).unwrap();
        let prepared = PreparedKernel::new(kernel.clone());
        let folded = prepared.for_opt(true);
        assert!(Arc::ptr_eq(folded, prepared.for_opt(true)));
        assert_eq!(folded.folds, 1);
        // Folding never mutates the kernel the plain form compiles.
        let plain = prepared.for_opt(false);
        assert!(Arc::ptr_eq(plain, prepared.for_opt(false)));
        assert_eq!(plain.folds, 0);
        assert_eq!(plain.kernel, kernel);
        assert_ne!(plain.kernel, folded.kernel);
    }
}
