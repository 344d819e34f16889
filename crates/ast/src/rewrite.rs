//! Clone-and-rebuild mutation API for programs.
//!
//! [`visit`](crate::visit) reads trees; this module *transforms* them, which
//! is what the test-case reducer (`ompfuzz-reduce`) is built on. Programs
//! stay immutable values — every operation clones the input and rebuilds it
//! with one localized change, so rejected reduction candidates never leave
//! partial edits behind.
//!
//! Addressing is counter-based: each operation enumerates its *sites* in a
//! fixed pre-order (documented per operation) and takes a site index, which
//! keeps the API independent of a path representation. Enumeration and
//! application share one traversal, so indices are consistent by
//! construction — but they are only stable on the program they were counted
//! on; re-enumerate after every accepted edit.

use crate::expr::Expr;
use crate::omp::{OmpCritical, OmpParallel};
use crate::program::Program;
use crate::stmt::{Block, BlockItem, ForLoop, IfBlock, LoopBound, Stmt};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Statement sites: deletion (the ddmin substrate)
// ---------------------------------------------------------------------------

/// Number of deletable statement sites.
///
/// A site is every block item (statement or critical section) in every
/// block, plus every prelude statement of every parallel region, in
/// pre-order. A parallel region's mandatory `body_loop` is *not* a site —
/// the grammar requires it, so the whole region is deleted instead.
pub fn stmt_sites(program: &Program) -> usize {
    let mut next = 0;
    delete_block(&program.body, &BTreeSet::new(), &mut next);
    next
}

/// Rebuild the program with the statement sites in `remove` deleted.
///
/// Site indices refer to the enumeration on `program` (see [`stmt_sites`]);
/// sites nested inside a removed statement disappear with it, whether or
/// not they are listed. Out-of-range indices are ignored.
pub fn delete_stmts(program: &Program, remove: &BTreeSet<usize>) -> Program {
    let mut next = 0;
    Program {
        body: delete_block(&program.body, remove, &mut next),
        ..program.clone()
    }
}

fn delete_block(block: &Block, remove: &BTreeSet<usize>, next: &mut usize) -> Block {
    let mut items = Vec::with_capacity(block.len());
    for item in block.iter() {
        let site = *next;
        *next += 1;
        let keep = !remove.contains(&site);
        // Always recurse so nested sites consume their indices even when
        // the enclosing statement is dropped.
        let rebuilt = match item {
            BlockItem::Stmt(s) => BlockItem::Stmt(delete_in_stmt(s, remove, next)),
            BlockItem::Critical(c) => BlockItem::Critical(OmpCritical {
                body: delete_block(&c.body, remove, next),
            }),
        };
        if keep {
            items.push(rebuilt);
        }
    }
    Block(items)
}

fn delete_in_stmt(stmt: &Stmt, remove: &BTreeSet<usize>, next: &mut usize) -> Stmt {
    match stmt {
        Stmt::If(ifb) => Stmt::If(IfBlock {
            cond: ifb.cond.clone(),
            body: delete_block(&ifb.body, remove, next),
        }),
        Stmt::For(fl) => Stmt::For(ForLoop {
            body: delete_block(&fl.body, remove, next),
            ..fl.clone()
        }),
        Stmt::OmpParallel(par) => {
            let mut prelude = Vec::with_capacity(par.prelude.len());
            for s in &par.prelude {
                let site = *next;
                *next += 1;
                let rebuilt = delete_in_stmt(s, remove, next);
                if !remove.contains(&site) {
                    prelude.push(rebuilt);
                }
            }
            Stmt::OmpParallel(OmpParallel {
                clauses: par.clauses.clone(),
                prelude,
                body_loop: ForLoop {
                    body: delete_block(&par.body_loop.body, remove, next),
                    ..par.body_loop.clone()
                },
            })
        }
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------------
// Loop sites: trip-count shrinking
// ---------------------------------------------------------------------------

/// Constant trip counts of every `for` loop with a literal bound, in
/// pre-order (region loops included). Param-bound loops are not sites —
/// their trip count belongs to the input, not the program.
pub fn loop_sites(program: &Program) -> Vec<u32> {
    let mut trips = Vec::new();
    map_loops(&program.body, &mut |bound| {
        if let LoopBound::Const(n) = bound {
            trips.push(*n);
        }
        bound.clone()
    });
    trips
}

/// Rebuild the program with loop site `site`'s trip count set to `trip`.
/// Returns `None` when `site` is out of range.
pub fn with_loop_trip(program: &Program, site: usize, trip: u32) -> Option<Program> {
    let mut index = 0;
    let mut hit = false;
    let body = map_loops(&program.body, &mut |bound| {
        if let LoopBound::Const(_) = bound {
            let here = index == site;
            index += 1;
            if here {
                hit = true;
                return LoopBound::Const(trip);
            }
        }
        bound.clone()
    });
    hit.then(|| Program {
        body,
        ..program.clone()
    })
}

/// Rebuild every block, passing each loop bound through `f` in pre-order.
fn map_loops(block: &Block, f: &mut impl FnMut(&LoopBound) -> LoopBound) -> Block {
    Block(
        block
            .iter()
            .map(|item| match item {
                BlockItem::Stmt(s) => BlockItem::Stmt(map_loops_stmt(s, f)),
                BlockItem::Critical(c) => BlockItem::Critical(OmpCritical {
                    body: map_loops(&c.body, f),
                }),
            })
            .collect(),
    )
}

fn map_loops_stmt(stmt: &Stmt, f: &mut impl FnMut(&LoopBound) -> LoopBound) -> Stmt {
    match stmt {
        Stmt::If(ifb) => Stmt::If(IfBlock {
            cond: ifb.cond.clone(),
            body: map_loops(&ifb.body, f),
        }),
        Stmt::For(fl) => {
            let bound = f(&fl.bound);
            Stmt::For(ForLoop {
                bound,
                body: map_loops(&fl.body, f),
                ..fl.clone()
            })
        }
        Stmt::OmpParallel(par) => {
            let prelude = par.prelude.iter().map(|s| map_loops_stmt(s, f)).collect();
            let bound = f(&par.body_loop.bound);
            Stmt::OmpParallel(OmpParallel {
                clauses: par.clauses.clone(),
                prelude,
                body_loop: ForLoop {
                    bound,
                    body: map_loops(&par.body_loop.body, f),
                    ..par.body_loop.clone()
                },
            })
        }
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------------
// Clause edits: stripping OpenMP data-sharing/execution clauses
// ---------------------------------------------------------------------------

/// One applicable single-clause edit on a parallel region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClauseEdit {
    /// Remove the `i`-th variable from region `region`'s `private(...)`.
    DropPrivate { region: usize, index: usize },
    /// Remove the `i`-th variable from region `region`'s `firstprivate(...)`.
    DropFirstprivate { region: usize, index: usize },
    /// Remove region `region`'s `reduction(...: comp)` clause.
    DropReduction { region: usize },
    /// Remove region `region`'s `num_threads(...)` clause.
    DropNumThreads { region: usize },
}

/// Every single-clause edit currently applicable, ordered by (region,
/// clause kind, variable index) — regions numbered in pre-order.
pub fn clause_edits(program: &Program) -> Vec<ClauseEdit> {
    let mut edits = Vec::new();
    let mut region = 0;
    for_each_region(&program.body, &mut |par| {
        for index in 0..par.clauses.private.len() {
            edits.push(ClauseEdit::DropPrivate { region, index });
        }
        for index in 0..par.clauses.firstprivate.len() {
            edits.push(ClauseEdit::DropFirstprivate { region, index });
        }
        if par.clauses.reduction.is_some() {
            edits.push(ClauseEdit::DropReduction { region });
        }
        if par.clauses.num_threads.is_some() {
            edits.push(ClauseEdit::DropNumThreads { region });
        }
        region += 1;
    });
    edits
}

/// Apply one clause edit; `None` when the edit does not match the program
/// (stale region/index).
pub fn apply_clause_edit(program: &Program, edit: &ClauseEdit) -> Option<Program> {
    let region = match *edit {
        ClauseEdit::DropPrivate { region, .. }
        | ClauseEdit::DropFirstprivate { region, .. }
        | ClauseEdit::DropReduction { region }
        | ClauseEdit::DropNumThreads { region } => region,
    };
    edit_region_clauses(program, region, |clauses| match *edit {
        ClauseEdit::DropPrivate { index, .. } => (index < clauses.private.len())
            .then(|| clauses.private.remove(index))
            .is_some(),
        ClauseEdit::DropFirstprivate { index, .. } => (index < clauses.firstprivate.len())
            .then(|| clauses.firstprivate.remove(index))
            .is_some(),
        ClauseEdit::DropReduction { .. } => clauses.reduction.take().is_some(),
        ClauseEdit::DropNumThreads { .. } => clauses.num_threads.take().is_some(),
    })
}

/// Rebuild with one region's clauses passed through `f`; `f` returns
/// whether it changed anything. `None` when the region is missing or `f`
/// declines.
fn edit_region_clauses(
    program: &Program,
    target_region: usize,
    mut f: impl FnMut(&mut crate::omp::OmpClauses) -> bool,
) -> Option<Program> {
    let mut region = 0;
    let mut applied = false;
    let body = map_regions(&program.body, &mut |par| {
        let here = region == target_region;
        region += 1;
        if !here {
            return par.clone();
        }
        let mut clauses = par.clauses.clone();
        if !f(&mut clauses) {
            return par.clone();
        }
        applied = true;
        OmpParallel {
            clauses,
            prelude: par.prelude.clone(),
            body_loop: par.body_loop.clone(),
        }
    });
    applied.then(|| Program {
        body,
        ..program.clone()
    })
}

fn for_each_region(block: &Block, f: &mut impl FnMut(&OmpParallel)) {
    for item in block.iter() {
        match item {
            BlockItem::Stmt(Stmt::If(ifb)) => for_each_region(&ifb.body, f),
            BlockItem::Stmt(Stmt::For(fl)) => for_each_region(&fl.body, f),
            BlockItem::Stmt(Stmt::OmpParallel(par)) => {
                f(par);
                for_each_region(&par.body_loop.body, f);
            }
            BlockItem::Stmt(_) => {}
            BlockItem::Critical(c) => for_each_region(&c.body, f),
        }
    }
}

fn map_regions(block: &Block, f: &mut impl FnMut(&OmpParallel) -> OmpParallel) -> Block {
    Block(
        block
            .iter()
            .map(|item| match item {
                BlockItem::Stmt(Stmt::If(ifb)) => BlockItem::Stmt(Stmt::If(IfBlock {
                    cond: ifb.cond.clone(),
                    body: map_regions(&ifb.body, f),
                })),
                BlockItem::Stmt(Stmt::For(fl)) => BlockItem::Stmt(Stmt::For(ForLoop {
                    body: map_regions(&fl.body, f),
                    ..fl.clone()
                })),
                BlockItem::Stmt(Stmt::OmpParallel(par)) => {
                    let mapped = f(par);
                    BlockItem::Stmt(Stmt::OmpParallel(OmpParallel {
                        body_loop: ForLoop {
                            body: map_regions(&mapped.body_loop.body, f),
                            ..mapped.body_loop.clone()
                        },
                        ..mapped
                    }))
                }
                BlockItem::Stmt(s) => BlockItem::Stmt(s.clone()),
                BlockItem::Critical(c) => BlockItem::Critical(OmpCritical {
                    body: map_regions(&c.body, f),
                }),
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Expression sites: hoisting / simplification
// ---------------------------------------------------------------------------

/// Which operand replaces a simplified expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprSide {
    /// `a <op> b → a`; for `f(x)` and `(x)`, the inner expression.
    Lhs,
    /// `a <op> b → b`; `None` for non-binary nodes.
    Rhs,
}

/// Number of simplifiable expression nodes (binary operations, math calls
/// and parenthesized groups), pre-order over every expression in the
/// program (assignment values, declaration initializers, `if` condition
/// right-hand sides).
pub fn expr_sites(program: &Program) -> usize {
    let mut count = 0;
    map_exprs(&program.body, &mut |e| {
        count += count_reducible(e);
        e.clone()
    });
    count
}

fn count_reducible(e: &Expr) -> usize {
    match e {
        Expr::Term(_) => 0,
        Expr::Paren(inner) => 1 + count_reducible(inner),
        Expr::Binary { lhs, rhs, .. } => 1 + count_reducible(lhs) + count_reducible(rhs),
        Expr::MathCall { arg, .. } => 1 + count_reducible(arg),
    }
}

/// Replace expression site `site` with one of its operands. Returns `None`
/// when the site is out of range, or `side` is [`ExprSide::Rhs`] on a
/// non-binary node (math call / parentheses have a single operand).
pub fn simplify_expr(program: &Program, site: usize, side: ExprSide) -> Option<Program> {
    let mut next = 0;
    let mut applied = false;
    let body = map_exprs(&program.body, &mut |e| {
        simplify_in(e, site, side, &mut next, &mut applied)
    });
    applied.then(|| Program {
        body,
        ..program.clone()
    })
}

fn simplify_in(
    e: &Expr,
    site: usize,
    side: ExprSide,
    next: &mut usize,
    applied: &mut bool,
) -> Expr {
    let here = match e {
        Expr::Term(_) => return e.clone(),
        _ => {
            let idx = *next;
            *next += 1;
            idx == site
        }
    };
    match e {
        Expr::Term(_) => unreachable!("terms return early"),
        Expr::Paren(inner) => {
            // Single-operand node like MathCall: only Lhs applies, so Rhs
            // callers get `None` instead of a duplicate of the Lhs result.
            if here && side == ExprSide::Lhs {
                *applied = true;
                // The replacement subtree is spliced as-is; its own sites
                // are no longer part of this enumeration pass.
                return (**inner).clone();
            }
            Expr::Paren(Box::new(simplify_in(inner, site, side, next, applied)))
        }
        Expr::MathCall { func, arg } => {
            if here {
                if side == ExprSide::Rhs {
                    // Single-operand node: only Lhs applies. Keep counting
                    // consistent by falling through without applying.
                } else {
                    *applied = true;
                    return (**arg).clone();
                }
            }
            Expr::MathCall {
                func: *func,
                arg: Box::new(simplify_in(arg, site, side, next, applied)),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            if here {
                *applied = true;
                return match side {
                    ExprSide::Lhs => (**lhs).clone(),
                    ExprSide::Rhs => (**rhs).clone(),
                };
            }
            let lhs = simplify_in(lhs, site, side, next, applied);
            let rhs = simplify_in(rhs, site, side, next, applied);
            Expr::Binary {
                op: *op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        }
    }
}

/// Rebuild every block, passing each embedded expression through `f` in
/// pre-order (assignments, declarations, `if` condition right-hand sides).
fn map_exprs(block: &Block, f: &mut impl FnMut(&Expr) -> Expr) -> Block {
    Block(
        block
            .iter()
            .map(|item| match item {
                BlockItem::Stmt(s) => BlockItem::Stmt(map_exprs_stmt(s, f)),
                BlockItem::Critical(c) => BlockItem::Critical(OmpCritical {
                    body: map_exprs(&c.body, f),
                }),
            })
            .collect(),
    )
}

fn map_exprs_stmt(stmt: &Stmt, f: &mut impl FnMut(&Expr) -> Expr) -> Stmt {
    match stmt {
        Stmt::Assign(a) => Stmt::Assign(crate::stmt::Assignment {
            target: a.target.clone(),
            op: a.op,
            value: f(&a.value),
        }),
        Stmt::DeclAssign { ty, name, value } => Stmt::DeclAssign {
            ty: *ty,
            name: name.clone(),
            value: f(value),
        },
        Stmt::If(ifb) => Stmt::If(IfBlock {
            cond: crate::expr::BoolExpr {
                lhs: ifb.cond.lhs.clone(),
                op: ifb.cond.op,
                rhs: f(&ifb.cond.rhs),
            },
            body: map_exprs(&ifb.body, f),
        }),
        Stmt::For(fl) => Stmt::For(ForLoop {
            body: map_exprs(&fl.body, f),
            ..fl.clone()
        }),
        Stmt::OmpParallel(par) => Stmt::OmpParallel(OmpParallel {
            clauses: par.clauses.clone(),
            prelude: par.prelude.iter().map(|s| map_exprs_stmt(s, f)).collect(),
            body_loop: ForLoop {
                body: map_exprs(&par.body_loop.body, f),
                ..par.body_loop.clone()
            },
        }),
    }
}

// ---------------------------------------------------------------------------
// Parameter pruning
// ---------------------------------------------------------------------------

/// Names referenced anywhere in the kernel body: expressions, assignment
/// targets, loop bounds, and OpenMP clauses.
pub fn used_names(program: &Program) -> BTreeSet<String> {
    use crate::expr::{Term, VarRef};
    use crate::visit::{walk_program, Ctx, Visitor};

    #[derive(Default)]
    struct Names(BTreeSet<String>);

    impl Names {
        fn var_ref(&mut self, vr: &VarRef) {
            self.0.insert(vr.name().to_string());
            if let VarRef::Element(_, crate::expr::IndexExpr::LoopVarMod(v, _)) = vr {
                self.0.insert(v.clone());
            }
        }
    }

    impl Visitor for Names {
        fn visit_assignment(&mut self, assign: &crate::stmt::Assignment, ctx: Ctx) {
            if let crate::stmt::LValue::Var(vr) = &assign.target {
                self.var_ref(vr);
            }
            crate::visit::walk_assignment(self, assign, ctx);
        }

        fn visit_for(&mut self, fl: &ForLoop, ctx: Ctx) {
            if let LoopBound::Param(p) = &fl.bound {
                self.0.insert(p.clone());
            }
            crate::visit::walk_for(self, fl, ctx);
        }

        fn visit_parallel(&mut self, par: &OmpParallel, ctx: Ctx) {
            for name in par.clauses.private.iter().chain(&par.clauses.firstprivate) {
                self.0.insert(name.clone());
            }
            crate::visit::walk_parallel(self, par, ctx);
        }

        fn visit_bool_expr(&mut self, bexpr: &crate::expr::BoolExpr, ctx: Ctx) {
            self.var_ref(&bexpr.lhs);
            self.visit_expr(&bexpr.rhs, ctx);
        }

        fn visit_expr(&mut self, expr: &Expr, _ctx: Ctx) {
            let mut stack = vec![expr];
            while let Some(e) = stack.pop() {
                match e {
                    Expr::Term(Term::Var(vr)) => self.var_ref(vr),
                    Expr::Term(_) => {}
                    Expr::Paren(inner) => stack.push(inner),
                    Expr::Binary { lhs, rhs, .. } => {
                        stack.push(lhs);
                        stack.push(rhs);
                    }
                    Expr::MathCall { arg, .. } => stack.push(arg),
                }
            }
        }
    }

    let mut names = Names::default();
    walk_program(&mut names, program);
    names.0
}

/// Indices of parameters never referenced in the body, ascending.
pub fn unused_params(program: &Program) -> Vec<usize> {
    let used = used_names(program);
    program
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| !used.contains(&p.name))
        .map(|(i, _)| i)
        .collect()
}

/// Rebuild the program without parameter `index`. The caller owns keeping
/// any associated input vector in sync (inputs are one value per
/// parameter). `None` when `index` is out of range.
pub fn remove_param(program: &Program, index: usize) -> Option<Program> {
    if index >= program.params.len() {
        return None;
    }
    let mut params = program.params.clone();
    params.remove(index);
    Some(Program {
        params,
        ..program.clone()
    })
}

// ---------------------------------------------------------------------------
// Grow mutations: the inverses of the shrink edits
//
// Where the reducer deletes statements, strips clauses and shrinks trip
// counts, the corpus-guided fuzzing loop *grows* reduced trigger kernels
// back toward the surrounding program space: duplicate statements, insert
// clauses, widen trip counts. Every edit is validity-preserving on a
// program that already satisfies the generator's static rules — applied to
// valid input, the result passes `gen::validate` unchanged (the gen crate's
// property tests pin this).
// ---------------------------------------------------------------------------

/// The structural limits a grow edit must respect so mutated programs stay
/// inside the generator's configuration envelope. Mirrors the two
/// `GeneratorConfig` knobs the edits can push against; the rest
/// (`MAX_EXPRESSION_SIZE`, nesting, array bounds) are untouched by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowLimits {
    /// `MAX_LINES_IN_BLOCK`: statement splices never fill a block past this.
    pub max_lines_in_block: usize,
    /// `MAX_LOOP_TRIP`: trip widening never exceeds this.
    pub max_loop_trip: u32,
}

/// One applicable grow edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrowEdit {
    /// Duplicate the plain assignment at statement-splice site `site`
    /// (enumeration order documented on [`splice_sites`]), inserting the
    /// copy immediately after the original.
    SpliceStmt { site: usize },
    /// Add `name` to region `region`'s `firstprivate(...)` clause. Only
    /// offered for names not already privatized, so each thread gains an
    /// initialized private copy and reads keep their value — race-freedom
    /// is preserved whatever the region does with the name.
    InsertFirstprivate { region: usize, name: String },
    /// Add `reduction(<op>: comp)` to region `region` (only offered where
    /// no reduction is present). Protected `comp` updates stay protected;
    /// the clause merely relaxes which updates *would* be legal, so static
    /// validity is unchanged.
    InsertReduction {
        region: usize,
        op: crate::ops::ReductionOp,
    },
    /// Set constant-bound loop site `site` (see [`loop_sites`]) to `trip`,
    /// strictly larger than the current bound.
    WidenLoopTrip { site: usize, trip: u32 },
}

/// Number of statement-splice sites: plain (non-declaration) assignments in
/// blocks that still have room under `max_lines_in_block`, in the same
/// pre-order as [`stmt_sites`] restricted to those items. Declarations are
/// not sites — duplicating one would redeclare its name. Region preludes
/// are not blocks and are likewise excluded.
pub fn splice_sites(program: &Program, limits: &GrowLimits) -> usize {
    let mut count = 0;
    splice_block(&program.body, limits, &mut count, usize::MAX);
    count
}

/// Enumerate/apply in one traversal: when `apply` is a real site index, the
/// assignment at that index is duplicated; with `usize::MAX` the function
/// only counts. Returns the rebuilt block.
fn splice_block(block: &Block, limits: &GrowLimits, next: &mut usize, apply: usize) -> Block {
    let has_room = block.len() < limits.max_lines_in_block;
    let mut items = Vec::with_capacity(block.len() + 1);
    for item in block.iter() {
        let rebuilt = match item {
            BlockItem::Stmt(s) => BlockItem::Stmt(splice_stmt(s, limits, next, apply)),
            BlockItem::Critical(c) => BlockItem::Critical(OmpCritical {
                body: splice_block(&c.body, limits, next, apply),
            }),
        };
        let dup = match &rebuilt {
            BlockItem::Stmt(Stmt::Assign(_)) if has_room => {
                let site = *next;
                *next += 1;
                site == apply
            }
            _ => false,
        };
        if dup {
            items.push(rebuilt.clone());
        }
        items.push(rebuilt);
    }
    Block(items)
}

fn splice_stmt(stmt: &Stmt, limits: &GrowLimits, next: &mut usize, apply: usize) -> Stmt {
    match stmt {
        Stmt::If(ifb) => Stmt::If(IfBlock {
            cond: ifb.cond.clone(),
            body: splice_block(&ifb.body, limits, next, apply),
        }),
        Stmt::For(fl) => Stmt::For(ForLoop {
            body: splice_block(&fl.body, limits, next, apply),
            ..fl.clone()
        }),
        Stmt::OmpParallel(par) => Stmt::OmpParallel(OmpParallel {
            clauses: par.clauses.clone(),
            prelude: par.prelude.clone(),
            body_loop: ForLoop {
                body: splice_block(&par.body_loop.body, limits, next, apply),
                ..par.body_loop.clone()
            },
        }),
        other => other.clone(),
    }
}

/// Every grow edit currently applicable under `limits`, in a fixed order
/// (splices, then per-region clause insertions, then trip widenings) so a
/// seeded random pick over the list is deterministic.
pub fn grow_edits(program: &Program, limits: &GrowLimits) -> Vec<GrowEdit> {
    let mut edits = Vec::new();
    for site in 0..splice_sites(program, limits) {
        edits.push(GrowEdit::SpliceStmt { site });
    }
    // Clause insertions: firstprivate over fp scalar params the region has
    // not privatized yet, and a reduction where none is present. Params are
    // in scope at every region, and restricting to scalars keeps the edit
    // inside the clause shapes the generator itself emits.
    let scalar_params: Vec<&str> = program
        .params
        .iter()
        .filter(|p| matches!(p.ty, crate::program::ParamType::Fp(_)))
        .map(|p| p.name.as_str())
        .collect();
    let mut region = 0;
    for_each_region(&program.body, &mut |par| {
        for name in &scalar_params {
            if !par.clauses.is_privatized(name) {
                edits.push(GrowEdit::InsertFirstprivate {
                    region,
                    name: (*name).to_string(),
                });
            }
        }
        if par.clauses.reduction.is_none() {
            for op in crate::ops::ReductionOp::all() {
                edits.push(GrowEdit::InsertReduction { region, op });
            }
        }
        region += 1;
    });
    for (site, &trip) in loop_sites(program).iter().enumerate() {
        for trial in widen_ladder(trip, limits.max_loop_trip) {
            edits.push(GrowEdit::WidenLoopTrip { site, trip: trial });
        }
    }
    edits
}

/// Trial trip counts strictly larger than `trip`, capped at `max`,
/// ascending: gentle doubling first, the full configured budget last.
fn widen_ladder(trip: u32, max: u32) -> Vec<u32> {
    let mut trials: Vec<u32> = [trip.saturating_mul(2), trip.saturating_mul(8), max]
        .into_iter()
        .map(|t| t.min(max))
        .filter(|&t| t > trip)
        .collect();
    trials.sort_unstable();
    trials.dedup();
    trials
}

/// Apply one grow edit; `None` when the edit does not match the program
/// (stale site/region index, or the edit would break a limit).
pub fn apply_grow_edit(program: &Program, edit: &GrowEdit, limits: &GrowLimits) -> Option<Program> {
    match edit {
        GrowEdit::SpliceStmt { site } => {
            if *site >= splice_sites(program, limits) {
                return None;
            }
            let mut next = 0;
            Some(Program {
                body: splice_block(&program.body, limits, &mut next, *site),
                ..program.clone()
            })
        }
        GrowEdit::InsertFirstprivate { region, name } => {
            if !program
                .params
                .iter()
                .any(|p| p.name == *name && matches!(p.ty, crate::program::ParamType::Fp(_)))
            {
                return None;
            }
            edit_region_clauses(program, *region, |clauses| {
                if clauses.is_privatized(name) {
                    return false;
                }
                clauses.firstprivate.push(name.clone());
                true
            })
        }
        GrowEdit::InsertReduction { region, op } => {
            edit_region_clauses(program, *region, |clauses| {
                if clauses.reduction.is_some() {
                    return false;
                }
                clauses.reduction = Some(*op);
                true
            })
        }
        GrowEdit::WidenLoopTrip { site, trip } => {
            let current = *loop_sites(program).get(*site)?;
            if *trip <= current || *trip > limits.max_loop_trip {
                return None;
            }
            with_loop_trip(program, *site, *trip)
        }
    }
}

// ---------------------------------------------------------------------------
// Structural skeleton
// ---------------------------------------------------------------------------

/// A compact structural signature: statement kinds and nesting only, with
/// expressions, bounds, identifiers and clause operands erased. Two
/// programs with equal skeletons exercise the same OpenMP control
/// structure — the reducer's notion of "structurally equivalent", used to
/// check convergence against the hand-crafted `caselib` kernels.
pub fn skeleton(program: &Program) -> String {
    let mut out = String::new();
    skeleton_block(&program.body, &mut out);
    out
}

fn skeleton_block(block: &Block, out: &mut String) {
    for (i, item) in block.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match item {
            BlockItem::Stmt(s) => skeleton_stmt(s, out),
            BlockItem::Critical(c) => {
                out.push_str("crit{");
                skeleton_block(&c.body, out);
                out.push('}');
            }
        }
    }
}

fn skeleton_stmt(stmt: &Stmt, out: &mut String) {
    match stmt {
        Stmt::Assign(a) => out.push_str(if a.target.is_comp() { "comp" } else { "asgn" }),
        Stmt::DeclAssign { .. } => out.push_str("decl"),
        Stmt::If(ifb) => {
            out.push_str("if{");
            skeleton_block(&ifb.body, out);
            out.push('}');
        }
        Stmt::For(fl) => {
            out.push_str(if fl.omp_for { "ompfor{" } else { "for{" });
            skeleton_block(&fl.body, out);
            out.push('}');
        }
        Stmt::OmpParallel(par) => {
            out.push_str("par{");
            for s in &par.prelude {
                skeleton_stmt(s, out);
                out.push(' ');
            }
            skeleton_stmt(&Stmt::For(par.body_loop.clone()), out);
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BoolExpr, VarRef};
    use crate::omp::OmpClauses;
    use crate::ops::{AssignOp, BinOp, BoolOp, MathFunc, ReductionOp};
    use crate::program::Param;
    use crate::stmt::{Assignment, LValue};
    use crate::types::FpType;

    fn comp_add(value: Expr) -> Stmt {
        Stmt::Assign(Assignment {
            target: LValue::Comp,
            op: AssignOp::AddAssign,
            value,
        })
    }

    /// A program with one of everything:
    ///   comp += a * b;                       (site 0)
    ///   if (a < 1.0) { comp += a; }          (sites 1, 2)
    ///   par private(a) fp(b) red num(8) {    (site 3)
    ///     double t = cos(a);                 (site 4, prelude)
    ///     omp for 100 { crit { comp += t; } }  (sites 5, 6)
    ///   }
    fn rich_program() -> Program {
        Program::new(
            vec![Param::fp(FpType::F64, "a"), Param::fp(FpType::F64, "b")],
            Block::of_stmts(vec![
                comp_add(Expr::binary(Expr::var("a"), BinOp::Mul, Expr::var("b"))),
                Stmt::If(IfBlock {
                    cond: BoolExpr {
                        lhs: VarRef::Scalar("a".into()),
                        op: BoolOp::Lt,
                        rhs: Expr::fp_const(1.0),
                    },
                    body: Block::of_stmts(vec![comp_add(Expr::var("a"))]),
                }),
                Stmt::OmpParallel(OmpParallel {
                    clauses: OmpClauses {
                        private: vec!["a".into()],
                        firstprivate: vec!["b".into()],
                        reduction: Some(ReductionOp::Add),
                        num_threads: Some(8),
                    },
                    prelude: vec![Stmt::DeclAssign {
                        ty: FpType::F64,
                        name: "t".into(),
                        value: Expr::call(MathFunc::Cos, Expr::var("a")),
                    }],
                    body_loop: ForLoop {
                        omp_for: true,
                        var: "i".into(),
                        bound: LoopBound::Const(100),
                        body: Block(vec![BlockItem::Critical(OmpCritical {
                            body: Block::of_stmts(vec![comp_add(Expr::var("t"))]),
                        })]),
                    },
                }),
            ]),
        )
    }

    #[test]
    fn stmt_sites_counts_every_deletable_unit() {
        assert_eq!(stmt_sites(&rich_program()), 7);
    }

    #[test]
    fn deleting_a_leaf_preserves_the_rest() {
        let p = rich_program();
        let q = delete_stmts(&p, &BTreeSet::from([0]));
        assert_eq!(q.body.len(), p.body.len() - 1);
        assert_eq!(q.body.stmt_count(), p.body.stmt_count() - 1);
        // Re-enumeration shifts indices: old site 1 (the if) is now 0.
        assert_eq!(stmt_sites(&q), 6);
    }

    #[test]
    fn deleting_a_subtree_removes_nested_sites() {
        let p = rich_program();
        // Site 3 is the parallel region; its 3 nested sites go with it.
        let q = delete_stmts(&p, &BTreeSet::from([3]));
        assert_eq!(stmt_sites(&q), 3);
        assert!(!skeleton(&q).contains("par"));
    }

    #[test]
    fn deleting_a_prelude_stmt_keeps_the_region() {
        let p = rich_program();
        let q = delete_stmts(&p, &BTreeSet::from([4]));
        let sk = skeleton(&q);
        assert!(sk.contains("par{ompfor"), "{sk}");
        assert!(!sk.contains("decl"), "{sk}");
    }

    #[test]
    fn delete_is_order_insensitive_across_one_batch() {
        let p = rich_program();
        let q = delete_stmts(&p, &BTreeSet::from([0, 5]));
        // Site 5 is the region loop's critical; the loop body empties but
        // the loop itself stays (it was not listed).
        assert_eq!(skeleton(&q), "if{comp} par{decl ompfor{}}");
    }

    #[test]
    fn loop_trip_editing() {
        let p = rich_program();
        assert_eq!(loop_sites(&p), vec![100]);
        let q = with_loop_trip(&p, 0, 3).unwrap();
        assert_eq!(loop_sites(&q), vec![3]);
        assert!(with_loop_trip(&p, 1, 3).is_none());
        // Param-bound loops are not sites.
        let mut r = p;
        if let BlockItem::Stmt(Stmt::OmpParallel(par)) = &mut r.body.0[2] {
            par.body_loop.bound = LoopBound::Param("n".into());
        }
        assert!(loop_sites(&r).is_empty());
    }

    #[test]
    fn clause_edits_enumerate_and_apply() {
        let p = rich_program();
        let edits = clause_edits(&p);
        assert_eq!(
            edits,
            vec![
                ClauseEdit::DropPrivate {
                    region: 0,
                    index: 0
                },
                ClauseEdit::DropFirstprivate {
                    region: 0,
                    index: 0
                },
                ClauseEdit::DropReduction { region: 0 },
                ClauseEdit::DropNumThreads { region: 0 },
            ]
        );
        let mut q = p.clone();
        for e in &edits {
            q = apply_clause_edit(&q, e).unwrap();
        }
        assert!(clause_edits(&q).is_empty());
        // Stale edit against the already-stripped program.
        assert!(apply_clause_edit(&q, &edits[2]).is_none());
        // Everything else untouched.
        assert_eq!(skeleton(&q), skeleton(&p));
    }

    #[test]
    fn expr_simplification_shrinks_one_node() {
        let p = rich_program();
        // a*b, cos(a): 2 reducible nodes (if-cond rhs is a bare constant).
        assert_eq!(expr_sites(&p), 2);
        let lhs = simplify_expr(&p, 0, ExprSide::Lhs).unwrap();
        match &lhs.body.0[0] {
            BlockItem::Stmt(Stmt::Assign(a)) => assert_eq!(a.value, Expr::var("a")),
            other => panic!("unexpected {other:?}"),
        }
        let rhs = simplify_expr(&p, 0, ExprSide::Rhs).unwrap();
        match &rhs.body.0[0] {
            BlockItem::Stmt(Stmt::Assign(a)) => assert_eq!(a.value, Expr::var("b")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(expr_sites(&lhs), 1);
        // Math call: Lhs unwraps, Rhs does not apply.
        let unwrapped = simplify_expr(&p, 1, ExprSide::Lhs).unwrap();
        assert_eq!(expr_sites(&unwrapped), 1);
        assert!(simplify_expr(&p, 1, ExprSide::Rhs).is_none());
        assert!(simplify_expr(&p, 9, ExprSide::Lhs).is_none());
    }

    #[test]
    fn paren_unwrap_counts_as_simplification() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "a")],
            Block::of_stmts(vec![comp_add(Expr::Paren(Box::new(Expr::var("a"))))]),
        );
        assert_eq!(expr_sites(&p), 1);
        let q = simplify_expr(&p, 0, ExprSide::Lhs).unwrap();
        assert_eq!(expr_sites(&q), 0);
        // Single-operand node: Rhs does not apply (no duplicate candidate).
        assert!(simplify_expr(&p, 0, ExprSide::Rhs).is_none());
    }

    #[test]
    fn used_names_sees_every_reference_position() {
        let p = Program::new(
            vec![
                Param::fp(FpType::F64, "a"),
                Param::fp(FpType::F64, "b"),
                Param::int("n"),
                Param::fp_array(FpType::F64, "arr"),
                Param::fp(FpType::F64, "ghost"),
            ],
            Block::of_stmts(vec![
                Stmt::For(ForLoop {
                    omp_for: false,
                    var: "i".into(),
                    bound: LoopBound::Param("n".into()),
                    body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                        target: LValue::Var(VarRef::Element(
                            "arr".into(),
                            crate::expr::IndexExpr::LoopVarMod("i".into(), 10),
                        )),
                        op: AssignOp::Assign,
                        value: Expr::var("a"),
                    })]),
                }),
                Stmt::OmpParallel(OmpParallel {
                    clauses: OmpClauses {
                        firstprivate: vec!["b".into()],
                        ..OmpClauses::default()
                    },
                    prelude: vec![],
                    body_loop: ForLoop {
                        omp_for: true,
                        var: "j".into(),
                        bound: LoopBound::Const(4),
                        body: Block::of_stmts(vec![comp_add(Expr::fp_const(1.0))]),
                    },
                }),
            ]),
        );
        let used = used_names(&p);
        for name in ["a", "b", "n", "arr", "i"] {
            assert!(used.contains(name), "{name} missing: {used:?}");
        }
        assert!(!used.contains("ghost"));
        assert_eq!(unused_params(&p), vec![4]);
        let q = remove_param(&p, 4).unwrap();
        assert_eq!(q.params.len(), 4);
        assert!(remove_param(&q, 9).is_none());
    }

    #[test]
    fn skeleton_of_contention_kernel() {
        let sk = skeleton(&rich_program());
        assert_eq!(sk, "comp if{comp} par{decl ompfor{crit{comp}}}");
    }

    // -- grow mutations ------------------------------------------------------

    fn limits() -> GrowLimits {
        GrowLimits {
            max_lines_in_block: 10,
            max_loop_trip: 800,
        }
    }

    #[test]
    fn splice_duplicates_one_assignment_in_place() {
        let p = rich_program();
        // Assign sites: body[0] comp, if-body comp, critical comp = 3
        // (the decl prelude is not a block item; decls are never sites).
        assert_eq!(splice_sites(&p, &limits()), 3);
        let q = apply_grow_edit(&p, &GrowEdit::SpliceStmt { site: 1 }, &limits()).unwrap();
        assert_eq!(
            skeleton(&q),
            "comp if{comp comp} par{decl ompfor{crit{comp}}}"
        );
        assert_eq!(q.body.stmt_count(), p.body.stmt_count() + 1);
        // Out-of-range site is rejected.
        assert!(apply_grow_edit(&p, &GrowEdit::SpliceStmt { site: 9 }, &limits()).is_none());
    }

    #[test]
    fn splice_respects_block_capacity() {
        let tight = GrowLimits {
            max_lines_in_block: 1,
            max_loop_trip: 800,
        };
        // Every block is at capacity 1 except the 3-item top level.
        let p = rich_program();
        assert_eq!(splice_sites(&p, &tight), 0);
        let roomy = GrowLimits {
            max_lines_in_block: 4,
            max_loop_trip: 800,
        };
        // Top-level block has 3 items < 4: only its comp assign is a site.
        assert_eq!(splice_sites(&p, &roomy), 3);
        let q = apply_grow_edit(&p, &GrowEdit::SpliceStmt { site: 0 }, &roomy).unwrap();
        assert!(skeleton(&q).starts_with("comp comp "));
    }

    #[test]
    fn clause_insertions_grow_then_strip_back() {
        let p = rich_program();
        let edits = grow_edits(&p, &limits());
        // Region 0 already privatizes a (private) and b (firstprivate) and
        // carries a reduction: no clause insertions apply.
        assert!(edits.iter().all(|e| !matches!(
            e,
            GrowEdit::InsertFirstprivate { .. } | GrowEdit::InsertReduction { .. }
        )));
        // Strip the clauses, then the insertions reappear.
        let mut bare = p.clone();
        for e in clause_edits(&bare) {
            if let Some(q) = apply_clause_edit(&bare, &e) {
                bare = q;
            }
        }
        let edits = grow_edits(&bare, &limits());
        let fp: Vec<&GrowEdit> = edits
            .iter()
            .filter(|e| matches!(e, GrowEdit::InsertFirstprivate { .. }))
            .collect();
        assert_eq!(fp.len(), 2, "{edits:?}"); // params a and b
        let q = apply_grow_edit(&bare, fp[0], &limits()).unwrap();
        // Re-inserting the same name is stale.
        assert!(apply_grow_edit(&q, fp[0], &limits()).is_none());
        let red = edits
            .iter()
            .find(|e| matches!(e, GrowEdit::InsertReduction { .. }))
            .unwrap();
        let r = apply_grow_edit(&bare, red, &limits()).unwrap();
        assert_eq!(clause_edits(&r).len(), 1); // the reduction is back
        assert!(apply_grow_edit(&r, red, &limits()).is_none());
    }

    #[test]
    fn widen_ladder_is_ascending_strict_and_capped() {
        assert_eq!(widen_ladder(100, 800), vec![200, 800]);
        assert_eq!(widen_ladder(1, 800), vec![2, 8, 800]);
        assert!(widen_ladder(800, 800).is_empty());
        assert_eq!(widen_ladder(500, 800), vec![800]);
        for t in [1u32, 7, 100, 799] {
            let l = widen_ladder(t, 800);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
            assert!(l.iter().all(|&x| x > t && x <= 800));
        }
    }

    #[test]
    fn widen_loop_trip_grows_the_bound() {
        let p = rich_program();
        let q = apply_grow_edit(
            &p,
            &GrowEdit::WidenLoopTrip { site: 0, trip: 400 },
            &limits(),
        )
        .unwrap();
        assert_eq!(loop_sites(&q), vec![400]);
        // Not strictly larger, over the cap, or missing site: rejected.
        assert!(apply_grow_edit(
            &p,
            &GrowEdit::WidenLoopTrip { site: 0, trip: 100 },
            &limits()
        )
        .is_none());
        assert!(apply_grow_edit(
            &p,
            &GrowEdit::WidenLoopTrip { site: 0, trip: 900 },
            &limits()
        )
        .is_none());
        assert!(apply_grow_edit(
            &p,
            &GrowEdit::WidenLoopTrip { site: 3, trip: 400 },
            &limits()
        )
        .is_none());
    }

    #[test]
    fn grow_edits_enumeration_is_deterministic() {
        let p = rich_program();
        assert_eq!(grow_edits(&p, &limits()), grow_edits(&p, &limits()));
        // And every enumerated edit applies.
        for e in grow_edits(&p, &limits()) {
            assert!(apply_grow_edit(&p, &e, &limits()).is_some(), "{e:?}");
        }
    }
}
