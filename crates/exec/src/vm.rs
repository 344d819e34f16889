//! Linear dispatch over the flat bytecode form.
//!
//! `run`, reached through [`CompiledKernel::run`], executes a
//! [`CompiledKernel`] on one input and produces an [`ExecOutcome`]
//! bit-identical to the tree interpreter's for the same
//! `(kernel, input, options)` — same `comp` bits, same
//! [`crate::stats::ExecStats`], same race reports, and budget exhaustion on
//! exactly the same runs. The hot loop is a fetch plus an indexed call
//! through one handler table over a contiguous instruction slice: no
//! recursion, no per-node budget checks (straight-line blocks charge once,
//! via their precomputed [`crate::bytecode::BlockCost`]), and no dynamic
//! sharing analysis (race-check flags were resolved at compile time).
//!
//! A `LoopStart` the compiler priced walks its nest's range once at entry
//! and sums the floor, a lower bound on the ops the nest will charge. A
//! floor above the ops left means the run's true abort lies inside the
//! nest. If the nest tests no `!=`, or the run has already tested a NaN
//! with `!=`, the VM returns `BudgetExceeded` before the nest dispatches
//! anything. Otherwise it marks the run doomed, and the `bool_test`
//! handler returns the abort right after the run's first `!=` test on a
//! NaN; a doomed run that makes none aborts at its failing charge. Either
//! way the VM returns the error the run's last failing charge would (see
//! "Priced loop nests" in [`crate::bytecode`] for the rule and why it is
//! exact). The walk touches only the compiled stream and the int slots,
//! allocates nothing, and costs a run that completes about one static pass
//! over each priced nest it enters.
//!
//! This is the only bytecode engine. Callers with several inputs run them
//! one at a time on a reused [`ExecScratch`]; the tree interpreter stays
//! beside it as the reference semantics.
//!
//! In debug builds every run is re-executed on the tree interpreter: the
//! block-charged statistics of a completed run are asserted equal to the
//! per-node counts, and an aborted run must abort there with the same
//! error — the accounting-drift tripwire backing the `bytecode_equiv`
//! differential suite.

use crate::bytecode::{BlockCost, CompiledKernel, Instr, Operand, Pricing};
use crate::interp::{branch_test, BoolSemantics, ExecError, ExecOptions, ExecOutcome};
use crate::kernel::{ArrayId, LBound, LIndex, ParamBinding, SlotId};
use crate::race::{Loc, RaceDetector};
use crate::scratch::{ExecScratch, LoopFrame};
use crate::stats::{ExecStats, RegionTrace, ThreadWork};
use ompfuzz_ast::AssignOp;
use ompfuzz_inputs::{InputValue, TestInput};

/// Execute `ck` on `input` with the bytecode engine, reusing `scratch`'s
/// buffers (the reset restores exactly the state a fresh allocation would
/// have). Reached through [`CompiledKernel::run`].
pub(crate) fn run(
    ck: &CompiledKernel,
    input: &TestInput,
    opts: &ExecOptions,
    scratch: &mut ExecScratch,
) -> Result<ExecOutcome, ExecError> {
    scratch.reset_for(&ck.kernel);
    scratch.reset_blocks(ck.blocks.len());
    let mut vm = Vm::new(ck, opts, scratch);
    let run = vm
        .bind_input(input)
        .and_then(|()| vm.dispatch())
        .map(|()| ExecOutcome {
            comp: vm.comp,
            stats: vm.stats,
            races: vm.race.into_reports(),
        });
    #[cfg(debug_assertions)]
    parity_check(ck, input, opts, &run);
    run
}

/// Debug-build tripwire for accounting drift: the per-block charges must
/// reproduce the tree interpreter's per-node statistics exactly, and a run
/// that aborts must abort on the tree interpreter with the same error
/// (its `tested_nan_ne` included).
#[cfg(debug_assertions)]
fn parity_check(
    ck: &CompiledKernel,
    input: &TestInput,
    opts: &ExecOptions,
    run: &Result<ExecOutcome, ExecError>,
) {
    // Race detection never changes charges, so the reference run skips it.
    let reference_opts = ExecOptions {
        detect_races: false,
        ..*opts
    };
    let tree = crate::interp::run(&ck.kernel, input, &reference_opts, &mut ExecScratch::new());
    match (tree, run) {
        (Ok(tree), Ok(outcome)) => {
            debug_assert_eq!(
                tree.stats, outcome.stats,
                "bytecode block-charged statistics drifted from the tree interpreter's per-node counts"
            );
            debug_assert_eq!(
                tree.comp.to_bits(),
                outcome.comp.to_bits(),
                "bytecode result diverged from the tree interpreter"
            );
        }
        (Err(tree), Err(e)) => debug_assert_eq!(
            &tree, e,
            "bytecode aborted with a different error than the tree interpreter"
        ),
        (tree, run) => debug_assert!(
            false,
            "engines disagree on whether the run completes: tree {:?}, bytecode {:?}",
            tree.err(),
            run.as_ref().err()
        ),
    }
}

/// Per-thread context while inside a parallel region.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadCtx {
    tid: u32,
    team: u32,
    cycles: u64,
    ops: u64,
    critical_acquisitions: u64,
    critical_cycles: u64,
    /// `omp critical` nesting depth (tree's `in_critical` with prev-restore
    /// semantics, as a counter).
    crit_depth: u32,
}

/// The outermost parallel region currently executing its team.
#[derive(Debug)]
struct RegionFrame {
    tid: u32,
    team: u32,
    /// Pre-region values of privatized slots (private first, then
    /// firstprivate — the firstprivate tail doubles as the per-thread
    /// initializer). The buffer is borrowed from the scratch at region
    /// entry and handed back at the join.
    saved: Vec<(SlotId, f64)>,
    comp_before: f64,
    partials: Vec<f64>,
    recording: bool,
}

struct Vm<'c, 's> {
    ck: &'c CompiledKernel,
    /// Reused slot files, stack, loop frames and block counters; reset for
    /// this kernel before the run started.
    s: &'s mut ExecScratch,
    bool_semantics: BoolSemantics,
    detect_races: bool,
    comp: f64,
    /// The innermost active loop, kept out of the spill stack so the
    /// once-per-iteration `LoopNext` touches a plain field.
    cur_loop: LoopFrame,
    ctx: Option<ThreadCtx>,
    region: Option<RegionFrame>,
    /// Depth of nested regions executing inline on the outer team.
    nested: u32,
    stats: ExecStats,
    ops_left: u64,
    max_ops: u64,
    /// A priced nest's floor exceeded the ops left before the run tested a
    /// NaN with `!=`: the run aborts inside that nest, so its first such
    /// test returns the abort.
    doomed: bool,
    race: RaceDetector,
    /// First entry of a region is being recorded for race analysis.
    recording: bool,
}

impl<'c, 's> Vm<'c, 's> {
    fn new(ck: &'c CompiledKernel, opts: &ExecOptions, scratch: &'s mut ExecScratch) -> Vm<'c, 's> {
        scratch.stack.reserve(ck.max_stack);
        Vm {
            ck,
            s: scratch,
            bool_semantics: opts.bool_semantics,
            detect_races: opts.detect_races,
            comp: 0.0,
            cur_loop: LoopFrame {
                counter: 0,
                i: 0,
                end: 0,
            },
            ctx: None,
            region: None,
            nested: 0,
            stats: ExecStats::default(),
            ops_left: opts.limits.max_ops,
            max_ops: opts.limits.max_ops,
            doomed: false,
            race: RaceDetector::new(),
            recording: false,
        }
    }

    /// Identical input-binding semantics to the tree interpreter.
    fn bind_input(&mut self, input: &TestInput) -> Result<(), ExecError> {
        let ck = self.ck;
        let k = &ck.kernel;
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
                    self.s.scalars[*s as usize] = ck.slot_ty[*s as usize].round(*v);
                }
                (ParamBinding::Int(i), InputValue::Int(v)) => {
                    self.s.ints[*i as usize] = *v;
                }
                (ParamBinding::Array(a), InputValue::ArrayFill(v) | InputValue::Fp(v)) => {
                    let fill = ck.array_ty[*a as usize].round(*v);
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

    /// The abort of a run whose op budget ran out here.
    fn budget_exceeded(&self) -> ExecError {
        ExecError::BudgetExceeded {
            max_ops: self.max_ops,
            tested_nan_ne: self.stats.nan_ne_tests > 0,
        }
    }

    /// Charge a straight-line block in one step. Only the context-dependent
    /// attribution (thread cycles/ops) happens here; the global counters
    /// are deferred to [`Vm::flush_block_stats`] via the hit count.
    #[inline]
    fn charge_block(&mut self, idx: usize, b: &BlockCost) -> Result<(), ExecError> {
        if self.ops_left < b.ops {
            return Err(self.budget_exceeded());
        }
        self.ops_left -= b.ops;
        self.s.block_hits[idx] += 1;
        match &mut self.ctx {
            Some(c) => {
                c.cycles += b.cycles;
                c.ops += b.ops;
                if c.crit_depth > 0 {
                    c.critical_cycles += b.cycles;
                }
                c.critical_acquisitions += b.crit_acqs;
            }
            None => self.stats.serial_cycles += b.cycles,
        }
        Ok(())
    }

    /// Reconstruct the global statistics from the per-block hit counts:
    /// every counter is an order-independent sum, so `count × hits` at the
    /// end equals merging on every entry.
    fn flush_block_stats(&mut self) {
        for (hits, b) in self.s.block_hits.iter().zip(&self.ck.blocks) {
            let n = *hits;
            if n == 0 {
                continue;
            }
            let o = &mut self.stats.ops;
            o.add_sub += b.counts.add_sub * n;
            o.mul += b.counts.mul * n;
            o.div += b.counts.div * n;
            o.math += b.counts.math * n;
            o.math_cycles += b.counts.math_cycles * n;
            o.loads += b.counts.loads * n;
            o.stores += b.counts.stores * n;
            o.compares += b.counts.compares * n;
            self.stats.loop_iterations += b.loop_iters * n;
            self.stats.branches += b.branches * n;
        }
    }

    /// Charge `n` executions of a straight-line block in one step (the
    /// whole trip of a bulk loop). Every field is a sum, so `cost × n` at
    /// entry equals charging each iteration; saturation can only overstate
    /// the bill, which the budget check then correctly rejects.
    fn charge_block_times(&mut self, idx: usize, b: &BlockCost, n: u64) -> Result<(), ExecError> {
        let total_ops = b.ops.saturating_mul(n);
        if self.ops_left < total_ops {
            return Err(self.budget_exceeded());
        }
        self.ops_left -= total_ops;
        self.s.block_hits[idx] += n;
        let cycles = b.cycles.saturating_mul(n);
        match &mut self.ctx {
            Some(c) => {
                c.cycles += cycles;
                c.ops += total_ops;
                if c.crit_depth > 0 {
                    c.critical_cycles += cycles;
                }
                c.critical_acquisitions += b.crit_acqs.saturating_mul(n);
            }
            None => self.stats.serial_cycles += cycles,
        }
        Ok(())
    }

    /// One dynamic charge (the per-thread fork/join cost).
    fn charge_one(&mut self, cycles: u64) -> Result<(), ExecError> {
        if self.ops_left == 0 {
            return Err(self.budget_exceeded());
        }
        self.ops_left -= 1;
        match &mut self.ctx {
            Some(c) => {
                c.cycles += cycles;
                c.ops += 1;
                if c.crit_depth > 0 {
                    c.critical_cycles += cycles;
                }
            }
            None => self.stats.serial_cycles += cycles,
        }
        Ok(())
    }

    /// The floor of `instrs[from..to]` run once on `thread`: a lower bound
    /// on the ops it charges, summed with saturation. Each `Charge` counts
    /// its block; an `if` body counts nothing (the test's own charge is
    /// in the block before it); a nested loop counts its trips times its
    /// body block plus the floor of its body, with trips from a constant
    /// bound, an int param's value (params are never assigned) or 0 for
    /// any other int slot; a region entered from serial code counts, per
    /// team thread, its fork charge plus the floor of its prelude and loop
    /// on that thread, and a region entered inside a thread runs inline.
    fn floor(&self, from: usize, to: usize, thread: Option<(u32, u32)>) -> u64 {
        let ck = self.ck;
        let mut sum = 0u64;
        let mut ip = from;
        while ip < to {
            match &ck.instrs[ip] {
                Instr::Charge(b) => {
                    sum = sum.saturating_add(ck.blocks[*b as usize].ops);
                    ip += 1;
                }
                Instr::BoolTest { if_false, .. } => ip = *if_false as usize,
                Instr::LoopStart {
                    bound,
                    omp_for,
                    exit,
                    body_block,
                    ..
                } => {
                    let n = match *bound {
                        LBound::Const(n) => n as u64,
                        LBound::IntSlot(s) if ck.kernel.ints[s as usize].is_param => {
                            self.s.ints[s as usize].max(0) as u64
                        }
                        LBound::IntSlot(_) => 0,
                    };
                    let (start, end) = schedule(n, *omp_for, thread);
                    if start < end {
                        let body = ck.blocks[*body_block as usize]
                            .ops
                            .saturating_add(self.floor(ip + 1, *exit as usize - 1, thread));
                        sum = sum.saturating_add((end - start).saturating_mul(body));
                    }
                    ip = *exit as usize;
                }
                Instr::RegionEnter { region } if thread.is_none() => {
                    let meta = &ck.regions[*region as usize];
                    let team = meta.num_threads.max(1);
                    for tid in 0..team {
                        let body = self.floor(ip + 1, meta.exit as usize, Some((tid, team)));
                        sum = sum.saturating_add(body.saturating_add(1));
                    }
                    ip = meta.exit as usize + 1;
                }
                _ => ip += 1,
            }
        }
        sum
    }

    #[inline]
    fn note_fp(&mut self, result: f64, inputs_ok: bool) {
        if inputs_ok {
            if result.is_nan() {
                self.stats.nan_produced += 1;
            } else if result.is_infinite() {
                self.stats.inf_produced += 1;
            }
        }
    }

    #[inline]
    fn record(&mut self, loc: Loc, write: bool) {
        let (tid, protected) = match &self.ctx {
            Some(c) => (c.tid, c.crit_depth > 0),
            None => (0, false),
        };
        self.race.record(loc, tid, write, protected);
    }

    /// The common store tail: `comp <op>= v` with race recording and
    /// NaN/Inf accounting, shared by the plain and fused instructions.
    #[inline(always)]
    fn store_comp(&mut self, op: AssignOp, race: bool, v: f64) {
        if race && self.recording {
            if op.reads_target() {
                self.record(Loc::Comp, false);
            }
            self.record(Loc::Comp, true);
        }
        let new = op.apply(self.comp, v);
        self.note_fp(new, self.comp.is_finite() && v.is_finite());
        self.comp = new;
    }

    /// The common store tail: `scalar <op>= v`, rounded to the slot type.
    #[inline(always)]
    fn store_scalar(&mut self, slot: SlotId, op: AssignOp, race: bool, v: f64) {
        let i = slot as usize;
        if race && self.recording {
            if op.reads_target() {
                self.record(Loc::Scalar(slot), false);
            }
            self.record(Loc::Scalar(slot), true);
        }
        self.s.scalars[i] = self.ck.slot_ty[i].round(op.apply(self.s.scalars[i], v));
    }

    /// Load one inline operand (or pop a pushed intermediate). Callers
    /// load rhs before lhs so two `Stack` operands pop in evaluation order.
    #[inline(always)]
    fn value_of(&mut self, o: &Operand) -> f64 {
        match o {
            Operand::Stack => self.s.stack.pop().expect("operand on stack"),
            Operand::Const(v) => *v,
            Operand::Scalar { slot, race } => {
                if *race && self.recording {
                    self.record(Loc::Scalar(*slot), false);
                }
                self.s.scalars[*slot as usize]
            }
            Operand::Elem { array, index, race } => {
                let i = self.resolve_index(*index, *array);
                if *race && self.recording {
                    self.record(Loc::Elem(*array, i as u32), false);
                }
                self.s.arrays[*array as usize][i]
            }
        }
    }

    #[inline]
    fn resolve_index(&self, idx: LIndex, array: ArrayId) -> usize {
        let len = self.s.arrays[array as usize].len();
        match idx {
            LIndex::Const(k) => (k as usize).min(len - 1),
            LIndex::LoopMod(slot, m) => {
                let i = self.s.ints[slot as usize];
                let m = m.max(1) as i64;
                // Counters usually sit below the modulus: `i in [0, m)` is
                // the identity, sparing the 64-bit division (a negative `i`
                // wraps past `m` as u64 and takes the exact path).
                let v = if (i as u64) < m as u64 {
                    i as usize
                } else {
                    i.rem_euclid(m) as usize
                };
                v.min(len - 1)
            }
            LIndex::ThreadId => {
                let tid = self.ctx.as_ref().map_or(0, |c| c.tid);
                (tid as usize).min(len - 1)
            }
        }
    }

    // ----- regions ----------------------------------------------------------

    fn enter_region(&mut self, region: u32) -> Result<(), ExecError> {
        let ck = self.ck;
        let meta = &ck.regions[region as usize];
        let team = meta.num_threads.max(1);
        let rid = meta.region_id as usize;
        while self.stats.regions.len() <= rid {
            let id = self.stats.regions.len() as u32;
            self.stats.regions.push(RegionTrace::new(id, team));
        }
        let tr = &mut self.stats.regions[rid];
        tr.num_threads = team;
        if tr.per_thread.len() != team as usize {
            tr.per_thread = vec![ThreadWork::default(); team as usize];
        }
        tr.omp_for = meta.omp_for;
        tr.has_reduction = meta.reduction.is_some();
        tr.entries += 1;

        let recording = self.detect_races && !self.s.region_analyzed[rid];
        if recording {
            self.race.begin_region(meta.region_id);
            self.recording = true;
        }

        // The save/partial buffers move scratch → frame → scratch around
        // each region, so re-entered regions reuse one allocation.
        let mut saved = std::mem::take(&mut self.s.region_saved);
        saved.clear();
        for &s in meta.private.iter().chain(&meta.firstprivate) {
            saved.push((s, self.s.scalars[s as usize]));
        }
        let mut partials = std::mem::take(&mut self.s.region_partials);
        partials.clear();
        self.region = Some(RegionFrame {
            tid: 0,
            team,
            saved,
            comp_before: self.comp,
            partials,
            recording,
        });
        self.begin_thread(region, 0, team)
    }

    /// Fresh private copies, reduction identity, thread context, fork cost.
    fn begin_thread(&mut self, region: u32, tid: u32, team: u32) -> Result<(), ExecError> {
        let ck = self.ck;
        let meta = &ck.regions[region as usize];
        for &s in &meta.private {
            self.s.scalars[s as usize] = 0.0;
        }
        let frame = self.region.take().expect("active region");
        for &(s, v) in &frame.saved[meta.private.len()..] {
            self.s.scalars[s as usize] = v;
        }
        self.region = Some(frame);
        if let Some(red) = meta.reduction {
            self.comp = red.identity();
        }
        self.ctx = Some(ThreadCtx {
            tid,
            team,
            ..ThreadCtx::default()
        });
        self.charge_one(2)
    }

    /// Merge the finished thread; returns `true` when another thread should
    /// run (the caller jumps back to the region prelude).
    fn finish_thread(&mut self, region: u32) -> Result<bool, ExecError> {
        let ck = self.ck;
        let meta = &ck.regions[region as usize];
        let mut frame = self.region.take().expect("active region");
        let ctx = self.ctx.take().expect("thread context");
        let rid = meta.region_id as usize;
        let tw = &mut self.stats.regions[rid].per_thread[frame.tid as usize];
        tw.cycles += ctx.cycles;
        tw.ops += ctx.ops;
        tw.critical_acquisitions += ctx.critical_acquisitions;
        tw.critical_cycles += ctx.critical_cycles;
        if meta.reduction.is_some() {
            frame.partials.push(self.comp);
        }

        frame.tid += 1;
        if frame.tid < frame.team {
            let (tid, team) = (frame.tid, frame.team);
            self.region = Some(frame);
            self.begin_thread(region, tid, team)?;
            return Ok(true);
        }

        // Join: restore privatized slots, combine the reduction, close the
        // race-recording window.
        for &(s, v) in &frame.saved {
            self.s.scalars[s as usize] = v;
        }
        if let Some(op) = meta.reduction {
            let mut acc = frame.comp_before;
            for p in &frame.partials {
                acc = op.combine(acc, *p);
            }
            self.comp = acc;
        }
        if frame.recording {
            self.s.region_analyzed[rid] = true;
            self.recording = false;
            let k = &ck.kernel;
            self.race.end_region(&|loc| k.loc_name(loc));
        }
        // Hand the buffers back for the next region entry.
        self.s.region_saved = frame.saved;
        self.s.region_partials = frame.partials;
        Ok(false)
    }

    // ----- the dispatch loop ------------------------------------------------

    /// Monomorphize on the profiling flag: with no profile installed the
    /// loop compiles to exactly the unprofiled code — the opt-in profiler
    /// costs the off path nothing.
    fn dispatch(&mut self) -> Result<(), ExecError> {
        if self.s.profile.is_some() {
            self.dispatch_loop::<true>()
        } else {
            self.dispatch_loop::<false>()
        }
    }

    /// Direct-threaded dispatch: the compiled stream carries every
    /// instruction's opcode index ([`CompiledKernel`]'s `opcodes` table),
    /// so the loop body is a fetch plus an indexed call through
    /// [`HANDLERS`] — no enum re-discrimination, and each handler is a
    /// leaf function the optimizer specializes in isolation.
    fn dispatch_loop<const PROFILE: bool>(&mut self) -> Result<(), ExecError> {
        let ck = self.ck;
        let instrs = ck.instrs.as_slice();
        let opcodes = ck.opcodes.as_slice();
        let mut ip = 0usize;
        loop {
            let ins = &instrs[ip];
            let op = opcodes[ip] as usize;
            ip += 1;
            if PROFILE {
                if let Some(profile) = self.s.profile.as_deref_mut() {
                    profile.note_opcode(op);
                }
            }
            match HANDLERS[op](self, ins, &mut ip)? {
                Flow::Next => {}
                Flow::Halt => break,
            }
        }
        self.flush_block_stats();
        if PROFILE {
            let s = &mut *self.s;
            if let Some(profile) = s.profile.as_deref_mut() {
                profile.note_blocks(&s.block_hits, &ck.blocks);
            }
        }
        Ok(())
    }
}

/// Handler verdict: keep dispatching (with `ip` possibly redirected) or
/// stop the run.
enum Flow {
    Next,
    Halt,
}

/// One opcode handler. `ip` already points past the instruction;
/// jumping handlers overwrite it with an absolute target.
type Handler = for<'v, 'c, 's, 'i, 'x> fn(
    &'v mut Vm<'c, 's>,
    &'i Instr,
    &'x mut usize,
) -> Result<Flow, ExecError>;

/// The handler table, indexed by [`crate::profile::opcode_index`]
/// (same order as [`crate::profile::OPCODE_NAMES`]).
static HANDLERS: [Handler; crate::profile::OPCODE_COUNT] = [
    h_charge,
    h_binary,
    h_call,
    h_store_comp,
    h_store_scalar,
    h_store_comp_bin,
    h_store_scalar_bin,
    h_store_elem,
    h_bool_test,
    h_loop_start,
    h_loop_next,
    h_critical_enter,
    h_critical_exit,
    h_region_enter,
    h_region_exit,
    h_halt,
];

fn h_charge(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::Charge(b) = ins else {
        unreachable!()
    };
    let ck = vm.ck;
    let idx = *b as usize;
    vm.charge_block(idx, &ck.blocks[idx])?;
    Ok(Flow::Next)
}

fn h_binary(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::Binary { op, lhs, rhs } = ins else {
        unreachable!()
    };
    let r = vm.value_of(rhs);
    let l = vm.value_of(lhs);
    let v = op.apply(l, r);
    vm.note_fp(v, l.is_finite() && r.is_finite());
    vm.s.stack.push(v);
    Ok(Flow::Next)
}

fn h_call(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::Call { func, arg } = ins else {
        unreachable!()
    };
    let a = vm.value_of(arg);
    let v = func.apply(a);
    vm.note_fp(v, a.is_finite());
    vm.s.stack.push(v);
    Ok(Flow::Next)
}

fn h_store_comp(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::StoreComp { op, race, value } = ins else {
        unreachable!()
    };
    let v = vm.value_of(value);
    vm.store_comp(*op, *race, v);
    Ok(Flow::Next)
}

fn h_store_scalar(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::StoreScalar {
        slot,
        op,
        race,
        value,
    } = ins
    else {
        unreachable!()
    };
    let v = vm.value_of(value);
    vm.store_scalar(*slot, *op, *race, v);
    Ok(Flow::Next)
}

fn h_store_comp_bin(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::StoreCompBin {
        op,
        race,
        bin,
        lhs,
        rhs,
    } = ins
    else {
        unreachable!()
    };
    let r = vm.value_of(rhs);
    let l = vm.value_of(lhs);
    let v = bin.apply(l, r);
    vm.note_fp(v, l.is_finite() && r.is_finite());
    vm.store_comp(*op, *race, v);
    Ok(Flow::Next)
}

fn h_store_scalar_bin(
    vm: &mut Vm<'_, '_>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::StoreScalarBin {
        slot,
        op,
        race,
        bin,
        lhs,
        rhs,
    } = ins
    else {
        unreachable!()
    };
    let r = vm.value_of(rhs);
    let l = vm.value_of(lhs);
    let v = bin.apply(l, r);
    vm.note_fp(v, l.is_finite() && r.is_finite());
    vm.store_scalar(*slot, *op, *race, v);
    Ok(Flow::Next)
}

fn h_store_elem(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::StoreElem {
        array,
        index,
        op,
        race,
        value,
    } = ins
    else {
        unreachable!()
    };
    let v = vm.value_of(value);
    let a = *array as usize;
    let i = vm.resolve_index(*index, *array);
    if *race && vm.recording {
        if op.reads_target() {
            vm.record(Loc::Elem(*array, i as u32), false);
        }
        vm.record(Loc::Elem(*array, i as u32), true);
    }
    let old = vm.s.arrays[a][i];
    vm.s.arrays[a][i] = vm.ck.array_ty[a].round(op.apply(old, v));
    Ok(Flow::Next)
}

fn h_bool_test(vm: &mut Vm<'_, '_>, ins: &Instr, ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::BoolTest {
        lhs,
        op,
        race,
        rhs,
        if_false,
    } = ins
    else {
        unreachable!()
    };
    let r = vm.value_of(rhs);
    if *race && vm.recording {
        vm.record(Loc::Scalar(*lhs), false);
    }
    let l = vm.s.scalars[*lhs as usize];
    if branch_test(vm.bool_semantics, *op, l, r, &mut vm.stats) {
        vm.stats.branches_taken += 1;
    } else {
        *ip = *if_false as usize;
    }
    if vm.doomed && vm.stats.nan_ne_tests > 0 {
        // The doomed run's first NaN `!=` test: its true abort lies ahead
        // and carries `tested_nan_ne: true`, as does this one.
        return Err(vm.budget_exceeded());
    }
    Ok(Flow::Next)
}

/// The iterations `start..end` a loop of `n` trips runs on `thread`
/// (`(tid, team)`, or `None` in serial code): an `omp for` inside a team
/// takes the OpenMP static schedule's contiguous `ceil(n/T)` chunk, any
/// other loop all of them.
#[inline]
fn schedule(n: u64, omp_for: bool, thread: Option<(u32, u32)>) -> (u64, u64) {
    match thread {
        Some((tid, team)) if omp_for => {
            let chunk = n.div_ceil(team.max(1) as u64);
            let start = tid as u64 * chunk;
            (start.min(n), (start + chunk).min(n))
        }
        _ => (0, n),
    }
}

fn h_loop_start(vm: &mut Vm<'_, '_>, ins: &Instr, ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::LoopStart {
        counter,
        bound,
        omp_for,
        exit,
        body_block,
        bulk,
        pricing,
    } = ins
    else {
        unreachable!()
    };
    let ck = vm.ck;
    let n = match bound {
        LBound::Const(n) => *n as i64,
        LBound::IntSlot(s) => vm.s.ints[*s as usize],
    }
    .max(0) as u64;
    let thread = vm.ctx.as_ref().map(|c| (c.tid, c.team));
    let (start, end) = schedule(n, *omp_for, thread);
    if start >= end {
        *ip = *exit as usize;
    } else {
        // A doomed run is already bound to abort, so a `!=` nest's floor
        // has nothing left to tell it.
        let check = match pricing {
            Pricing::Unpriced => false,
            Pricing::NeFree => true,
            Pricing::HoldsNe => !vm.doomed,
        };
        if check {
            // The started loop runs to its exit, so a floor above the ops
            // left puts the true abort inside the nest. Its error is known
            // now unless a later NaN `!=` test can still flip the bool.
            let idx = *body_block as usize;
            let body = ck.blocks[idx]
                .ops
                .saturating_add(vm.floor(*ip, *exit as usize - 1, thread));
            if (end - start).saturating_mul(body) > vm.ops_left {
                if *pricing == Pricing::NeFree || vm.stats.nan_ne_tests > 0 {
                    return Err(vm.budget_exceeded());
                }
                vm.doomed = true;
            }
        }
        vm.s.ints[*counter as usize] = start as i64;
        vm.s.loops.push(vm.cur_loop);
        vm.cur_loop = LoopFrame {
            counter: *counter,
            i: start,
            end,
        };
        let idx = *body_block as usize;
        if *bulk {
            vm.charge_block_times(idx, &ck.blocks[idx], end - start)?;
        } else {
            vm.charge_block(idx, &ck.blocks[idx])?;
        }
    }
    Ok(Flow::Next)
}

fn h_loop_next(vm: &mut Vm<'_, '_>, ins: &Instr, ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::LoopNext {
        body,
        body_block,
        bulk,
    } = ins
    else {
        unreachable!()
    };
    vm.cur_loop.i += 1;
    if vm.cur_loop.i < vm.cur_loop.end {
        vm.s.ints[vm.cur_loop.counter as usize] = vm.cur_loop.i as i64;
        if !*bulk {
            let ck = vm.ck;
            let idx = *body_block as usize;
            vm.charge_block(idx, &ck.blocks[idx])?;
        }
        *ip = *body as usize;
    } else {
        vm.cur_loop = vm.s.loops.pop().expect("active loop");
    }
    Ok(Flow::Next)
}

fn h_critical_enter(vm: &mut Vm<'_, '_>, _ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    if let Some(c) = &mut vm.ctx {
        c.crit_depth += 1;
    }
    Ok(Flow::Next)
}

fn h_critical_exit(vm: &mut Vm<'_, '_>, _ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    if let Some(c) = &mut vm.ctx {
        c.crit_depth -= 1;
    }
    Ok(Flow::Next)
}

fn h_region_enter(vm: &mut Vm<'_, '_>, ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::RegionEnter { region } = ins else {
        unreachable!()
    };
    if vm.ctx.is_some() {
        // Nested region: execute inline on the current thread (a
        // serialized nested region).
        vm.nested += 1;
    } else {
        vm.enter_region(*region)?;
    }
    Ok(Flow::Next)
}

fn h_region_exit(vm: &mut Vm<'_, '_>, ins: &Instr, ip: &mut usize) -> Result<Flow, ExecError> {
    let Instr::RegionExit { region, prelude } = ins else {
        unreachable!()
    };
    if vm.nested > 0 {
        vm.nested -= 1;
    } else if vm.finish_thread(*region)? {
        *ip = *prelude as usize;
    }
    Ok(Flow::Next)
}

fn h_halt(_vm: &mut Vm<'_, '_>, _ins: &Instr, _ip: &mut usize) -> Result<Flow, ExecError> {
    Ok(Flow::Halt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ExecEngine, ExecLimits, ExecOptions};
    use crate::lower::lower;
    use ompfuzz_ast::{
        AssignOp, Assignment, Block, BlockItem, BoolExpr, BoolOp, Expr, ForLoop, FpType, IfBlock,
        LValue, LoopBound, OmpClauses, OmpCritical, OmpParallel, Param, Program, ReductionOp, Stmt,
        VarRef,
    };

    /// `ck` on `input` on one engine, through a fresh scratch.
    fn run_on(
        engine: ExecEngine,
        ck: &CompiledKernel,
        input: &TestInput,
        opts: &ExecOptions,
    ) -> Result<ExecOutcome, ExecError> {
        ck.run(
            input,
            &ExecOptions { engine, ..*opts },
            &mut ExecScratch::new(),
        )
    }

    fn both_engines(p: &Program, input: &TestInput, opts: &ExecOptions) {
        let ck = CompiledKernel::compile(lower(p).expect("lowers"));
        let tree = run_on(ExecEngine::Tree, &ck, input, opts);
        let byte = run_on(ExecEngine::Bytecode, &ck, input, opts);
        match (tree, byte) {
            (Ok(t), Ok(b)) => {
                assert_eq!(t.comp.to_bits(), b.comp.to_bits());
                assert_eq!(t.stats, b.stats);
                assert_eq!(t.races, b.races);
            }
            (Err(te), Err(be)) => assert_eq!(te, be),
            (t, b) => panic!("engines disagree: tree {t:?} vs bytecode {b:?}"),
        }
    }

    fn fp_input(values: Vec<f64>) -> TestInput {
        TestInput {
            comp_init: 1.5,
            values: values.into_iter().map(InputValue::Fp).collect(),
        }
    }

    /// The ops a completed VM run of `ck` on `input` charges: the smallest
    /// budget it completes within.
    fn total_ops(ck: &CompiledKernel, input: &TestInput) -> u64 {
        let big = ExecOptions::default();
        let mut scratch = ExecScratch::new();
        scratch.reset_for(&ck.kernel);
        scratch.reset_blocks(ck.blocks.len());
        let mut vm = Vm::new(ck, &big, &mut scratch);
        vm.bind_input(input).unwrap();
        vm.dispatch().unwrap();
        big.limits.max_ops - vm.ops_left
    }

    fn budget(max_ops: u64) -> ExecOptions {
        ExecOptions {
            limits: ExecLimits { max_ops },
            ..ExecOptions::default()
        }
    }

    /// The pricing of `ck`'s loops, in stream order.
    fn pricings(ck: &CompiledKernel) -> Vec<Pricing> {
        ck.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::LoopStart { pricing, .. } => Some(*pricing),
                _ => None,
            })
            .collect()
    }

    /// One run of `ck` at `opts`, and the opcodes the VM dispatched in it
    /// (those dispatched at least once, by name).
    fn profiled(
        ck: &CompiledKernel,
        input: &TestInput,
        opts: &ExecOptions,
    ) -> (
        Result<ExecOutcome, ExecError>,
        std::collections::BTreeMap<&'static str, u64>,
    ) {
        let mut scratch = ExecScratch::new();
        scratch.profile = Some(Box::default());
        let run = ck.run(input, opts, &mut scratch);
        let profile = scratch.profile.expect("installed");
        let counts = profile.opcode_counts().filter(|&(_, n)| n > 0).collect();
        (run, counts)
    }

    fn comp_add(value: Expr) -> Stmt {
        Stmt::Assign(Assignment {
            target: LValue::Comp,
            op: AssignOp::AddAssign,
            value,
        })
    }

    fn for_loop(var: &str, bound: LoopBound, omp_for: bool, body: Block) -> ForLoop {
        ForLoop {
            omp_for,
            var: var.into(),
            bound,
            body,
        }
    }

    fn if_stmt(lhs: &str, op: BoolOp, rhs: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::If(IfBlock {
            cond: BoolExpr {
                lhs: VarRef::Scalar(lhs.into()),
                op,
                rhs,
            },
            body: Block::of_stmts(body),
        })
    }

    #[test]
    fn priced_nest_aborts_before_dispatching_inside_it() {
        // comp += var_1;
        // for k < 4 {                        // serial, priced
        //   parallel num_threads(3) firstprivate(var_1) {
        //     double t = var_1 * 2.0;
        //     omp for i < n {                // n = 7: 3 threads, chunks 3/3/1
        //       for j < 5 { critical { comp += t; } }
        //     }
        //   }
        // }
        let inner = for_loop(
            "j",
            LoopBound::Const(5),
            false,
            Block(vec![BlockItem::Critical(OmpCritical {
                body: Block::of_stmts(vec![comp_add(Expr::var("t"))]),
            })]),
        );
        let region = Stmt::OmpParallel(OmpParallel {
            clauses: OmpClauses {
                firstprivate: vec!["var_1".into()],
                num_threads: Some(3),
                ..OmpClauses::default()
            },
            prelude: vec![Stmt::DeclAssign {
                ty: FpType::F64,
                name: "t".into(),
                value: Expr::binary(
                    Expr::var("var_1"),
                    ompfuzz_ast::BinOp::Mul,
                    Expr::fp_const(2.0),
                ),
            }],
            body_loop: for_loop(
                "i",
                LoopBound::Param("n".into()),
                true,
                Block::of_stmts(vec![Stmt::For(inner)]),
            ),
        });
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1"), Param::int("n")],
            Block::of_stmts(vec![
                comp_add(Expr::var("var_1")),
                Stmt::For(for_loop(
                    "k",
                    LoopBound::Const(4),
                    false,
                    Block::of_stmts(vec![region]),
                )),
            ]),
        );
        let input = TestInput {
            comp_init: 0.5,
            values: vec![InputValue::Fp(1.25), InputValue::Int(7)],
        };
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        // Only the outermost loop checks: its floor counts the other two.
        assert_eq!(
            pricings(&ck),
            vec![Pricing::NeFree, Pricing::Unpriced, Pricing::Unpriced]
        );

        let total = total_ops(&ck, &input);
        both_engines(&p, &input, &budget(total));
        assert!(run_on(ExecEngine::Bytecode, &ck, &input, &budget(total)).is_ok());

        // Nothing in the nest is conditional, so its floor is exact: one
        // op short, the VM aborts at the nest's entry with the tree's error.
        let short = budget(total - 1);
        let tree = run_on(ExecEngine::Tree, &ck, &input, &short);
        let (byte, counts) = profiled(&ck, &input, &short);
        let expected = ExecError::BudgetExceeded {
            max_ops: total - 1,
            tested_nan_ne: false,
        };
        assert_eq!(tree.unwrap_err(), expected);
        assert_eq!(byte.unwrap_err(), expected);
        // Dispatched: the leading block's charge and store, then the
        // priced `LoopStart` — nothing inside the nest.
        let dispatched: Vec<(&str, u64)> = counts.into_iter().collect();
        assert_eq!(
            dispatched,
            vec![("charge", 1), ("loop_start", 1), ("store_comp", 1)]
        );
    }

    /// `lead`, then `for k < 1000 { if (var_1 != 1.0) { comp += 1.0; }
    /// comp += var_1; }`: a nest testing `!=` on every iteration, which
    /// needs far more than 500 ops.
    fn ne_nest(lead: Vec<Stmt>) -> Program {
        let nest = Stmt::For(for_loop(
            "k",
            LoopBound::Const(1000),
            false,
            Block::of_stmts(vec![
                if_stmt(
                    "var_1",
                    BoolOp::Ne,
                    Expr::fp_const(1.0),
                    vec![comp_add(Expr::fp_const(1.0))],
                ),
                comp_add(Expr::var("var_1")),
            ]),
        ));
        Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(lead.into_iter().chain([nest]).collect()),
        )
    }

    #[test]
    fn doomed_nest_aborts_at_its_first_nan_ne_test() {
        // With var_1 = NaN every iteration tests a NaN with `!=`. The run
        // has tested none when it enters the nest, so the floor dooms it
        // there, and it stops right after its first test with the error
        // the tree reaches at its last failing charge.
        let p = ne_nest(vec![]);
        let input = fp_input(vec![f64::NAN]);
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        assert_eq!(pricings(&ck), vec![Pricing::HoldsNe]);
        let opts = budget(500);
        let tree = run_on(ExecEngine::Tree, &ck, &input, &opts).unwrap_err();
        let (byte, counts) = profiled(&ck, &input, &opts);
        let expected = ExecError::BudgetExceeded {
            max_ops: 500,
            tested_nan_ne: true,
        };
        assert_eq!(tree, expected);
        assert_eq!(byte.unwrap_err(), expected);
        assert_eq!(counts["bool_test"], 1);
        assert!(!counts.contains_key("loop_next"));
    }

    #[test]
    fn doomed_nest_without_a_nan_ne_test_runs_to_its_natural_abort() {
        // With var_1 = 2.0 no `!=` test sees a NaN: the doomed run keeps
        // iterating, testing `!=` each time, until a charge fails.
        let p = ne_nest(vec![]);
        let input = fp_input(vec![2.0]);
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let opts = budget(500);
        let tree = run_on(ExecEngine::Tree, &ck, &input, &opts).unwrap_err();
        let (byte, counts) = profiled(&ck, &input, &opts);
        let expected = ExecError::BudgetExceeded {
            max_ops: 500,
            tested_nan_ne: false,
        };
        assert_eq!(tree, expected);
        assert_eq!(byte.unwrap_err(), expected);
        assert!(
            counts["bool_test"] > 1,
            "stopped at a `!=` test: {counts:?}"
        );
    }

    #[test]
    fn ne_nest_entered_after_a_nan_ne_test_aborts_at_its_entry() {
        // `if (var_1 != 1.0) { comp += 1.0; }` before the nest: with
        // var_1 = NaN the run enters the nest having tested a NaN with
        // `!=`, which no later test can undo, so the floor stops it there.
        let lead = if_stmt(
            "var_1",
            BoolOp::Ne,
            Expr::fp_const(1.0),
            vec![comp_add(Expr::fp_const(1.0))],
        );
        let p = ne_nest(vec![lead]);
        let input = fp_input(vec![f64::NAN]);
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        assert_eq!(pricings(&ck), vec![Pricing::HoldsNe]);
        let opts = budget(500);
        let tree = run_on(ExecEngine::Tree, &ck, &input, &opts).unwrap_err();
        let (byte, counts) = profiled(&ck, &input, &opts);
        let expected = ExecError::BudgetExceeded {
            max_ops: 500,
            tested_nan_ne: true,
        };
        assert_eq!(tree, expected);
        assert_eq!(byte.unwrap_err(), expected);
        // Dispatched: the leading test and its taken body, then the
        // `LoopStart` — nothing inside the nest.
        let dispatched: Vec<(&str, u64)> = counts.into_iter().collect();
        assert_eq!(
            dispatched,
            vec![
                ("bool_test", 1),
                ("charge", 2),
                ("loop_start", 1),
                ("store_comp", 1)
            ]
        );
    }

    #[test]
    fn loop_in_an_if_body_prices_itself() {
        // for k < 3 {                              // priced
        //   if (var_1 < 2.0) {                     // taken for var_1 = 1
        //     for j < 1000000 {                    // priced on its own
        //       for m < 2 { comp += 1.0; }         // bulk
        //     }
        //   }
        // }
        let j = for_loop(
            "j",
            LoopBound::Const(1_000_000),
            false,
            Block::of_stmts(vec![Stmt::For(for_loop(
                "m",
                LoopBound::Const(2),
                false,
                Block::of_stmts(vec![comp_add(Expr::fp_const(1.0))]),
            ))]),
        );
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(for_loop(
                "k",
                LoopBound::Const(3),
                false,
                Block::of_stmts(vec![if_stmt(
                    "var_1",
                    BoolOp::Lt,
                    Expr::fp_const(2.0),
                    vec![Stmt::For(j)],
                )]),
            ))]),
        );
        let input = fp_input(vec![1.0]);
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        assert_eq!(
            pricings(&ck),
            vec![Pricing::NeFree, Pricing::NeFree, Pricing::Unpriced]
        );
        // The outer floor counts nothing of the `if` body and passes; the
        // inner loop's own floor stops the run at its entry, before any
        // iteration of either loop completes.
        let opts = budget(10_000);
        let tree = run_on(ExecEngine::Tree, &ck, &input, &opts);
        let (byte, counts) = profiled(&ck, &input, &opts);
        assert_eq!(byte.unwrap_err(), tree.unwrap_err());
        assert_eq!(counts["loop_start"], 2);
        assert!(!counts.contains_key("loop_next"));
    }

    #[test]
    fn parallel_reduction_with_critical_matches_tree() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    firstprivate: vec!["var_1".into()],
                    reduction: Some(ReductionOp::Add),
                    num_threads: Some(4),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F32,
                    name: "t".into(),
                    value: Expr::binary(
                        Expr::var("var_1"),
                        ompfuzz_ast::BinOp::Mul,
                        Expr::fp_const(3.0),
                    ),
                }],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(10),
                    body: Block(vec![BlockItem::Critical(OmpCritical {
                        body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                            target: LValue::Comp,
                            op: AssignOp::AddAssign,
                            value: Expr::var("t"),
                        })]),
                    })]),
                },
            })]),
        );
        both_engines(&p, &fp_input(vec![2.5]), &ExecOptions::default());
        both_engines(
            &p,
            &fp_input(vec![2.5]),
            &ExecOptions::with_race_detection(),
        );
    }

    #[test]
    fn budget_exhaustion_is_engine_independent() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Const(100_000),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::var("var_1"),
                })]),
            })]),
        );
        let input = fp_input(vec![1.0]);
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        // Pin the boundary: budget == total succeeds on both, total - 1
        // fails on both.
        let total = total_ops(&ck, &input);
        for (budget, ok) in [(total, true), (total - 1, false), (total / 2, false)] {
            let opts = ExecOptions {
                limits: ExecLimits { max_ops: budget },
                ..ExecOptions::default()
            };
            let t = run_on(ExecEngine::Tree, &ck, &input, &opts);
            let b = run_on(ExecEngine::Bytecode, &ck, &input, &opts);
            assert_eq!(t.is_ok(), ok, "tree at budget {budget}");
            assert_eq!(b.is_ok(), ok, "bytecode at budget {budget}");
            if !ok {
                assert!(matches!(
                    b.unwrap_err(),
                    ExecError::BudgetExceeded { max_ops, .. } if max_ops == budget
                ));
            }
        }
    }

    #[test]
    fn legacy_racy_comp_reports_match_tree() {
        // Unprotected comp updates across a team: both engines report the
        // same races.
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
                    bound: LoopBound::Const(16),
                    body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                        target: LValue::Comp,
                        op: AssignOp::AddAssign,
                        value: Expr::fp_const(1.0),
                    })]),
                },
            })]),
        );
        let input = fp_input(vec![0.0]);
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let opts = ExecOptions::with_race_detection();
        let b = run_on(ExecEngine::Bytecode, &ck, &input, &opts).unwrap();
        assert!(!b.races.is_empty());
        both_engines(&p, &input, &opts);
    }

    #[test]
    fn profiled_runs_are_bit_identical_and_fill_the_profile() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Const(50),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::var("var_1"),
                })]),
            })]),
        );
        let input = fp_input(vec![1.25]);
        let opts = ExecOptions::default();
        let ck = CompiledKernel::compile(lower(&p).unwrap());

        let plain = run_on(ExecEngine::Bytecode, &ck, &input, &opts).unwrap();
        let mut scratch = ExecScratch::new();
        scratch.profile = Some(Box::default());
        let profiled = ck.run(&input, &opts, &mut scratch).unwrap();
        assert_eq!(plain.comp.to_bits(), profiled.comp.to_bits());
        assert_eq!(plain.stats, profiled.stats);

        let profile = scratch.profile.as_ref().unwrap();
        assert_eq!(profile.runs(), 1);
        assert!(profile.total_dispatches() > 50);
        let counts: std::collections::HashMap<_, _> = profile.opcode_counts().collect();
        assert_eq!(counts["halt"], 1);
        assert_eq!(counts["loop_next"], 50);
        assert!(profile.blocks().iter().any(|b| b.hits > 0 && b.ops > 0));

        // A second run accumulates into the same profile.
        ck.run(&input, &opts, &mut scratch).unwrap();
        assert_eq!(scratch.profile.as_ref().unwrap().runs(), 2);
    }

    #[test]
    fn input_mismatch_matches_tree() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value: Expr::var("var_1"),
            })]),
        );
        let empty = TestInput {
            comp_init: 0.0,
            values: vec![],
        };
        both_engines(&p, &empty, &ExecOptions::default());
    }

    #[test]
    fn region_in_serial_loop_matches_tree() {
        // Case-study-2 shape: the region (and its trace bookkeeping,
        // including entries and per-thread accumulation) re-runs per outer
        // iteration.
        let region = Stmt::OmpParallel(OmpParallel {
            clauses: OmpClauses {
                private: vec!["var_1".into()],
                reduction: Some(ReductionOp::Add),
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
                bound: LoopBound::Const(7),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::fp_const(1.0),
                })]),
            },
        });
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "k".into(),
                bound: LoopBound::Const(5),
                body: Block::of_stmts(vec![region]),
            })]),
        );
        both_engines(&p, &fp_input(vec![0.0]), &ExecOptions::default());
        both_engines(
            &p,
            &fp_input(vec![0.0]),
            &ExecOptions::with_race_detection(),
        );
    }
}
