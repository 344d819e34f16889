//! Crafted case-study programs.
//!
//! The paper's case studies analyze concrete generated tests (referenced by
//! their dataset paths, e.g. `quartz1247_532344/_tests/_group_7/_test_2.cpp`).
//! This module provides equivalent programs with the same structural
//! triggers, used by the `table2`/`table3`/`fig6`–`fig9` reproductions, the
//! examples, and the benches.

use ompfuzz_ast::{
    AssignOp, Assignment, BinOp, Block, BlockItem, BoolExpr, BoolOp, Expr, ForLoop, FpType,
    IfBlock, IndexExpr, LValue, LoopBound, OmpClauses, OmpCritical, OmpParallel, Param, Program,
    ReductionOp, Stmt, VarRef,
};
use ompfuzz_inputs::{InputValue, TestInput};

fn comp_add(e: Expr) -> Stmt {
    Stmt::Assign(Assignment {
        target: LValue::Comp,
        op: AssignOp::AddAssign,
        value: e,
    })
}

/// Case study 1 (§V-C, Table II, Fig. 6): an OpenMP critical section inside
/// a parallel `for` loop updating `comp`. Intel's queuing lock pays heavy
/// contention; the GCC binary is the fast outlier.
///
/// `trip` iterations are shared across `threads` threads; each iteration
/// acquires the critical section once.
pub fn case_study_1(trip: u32, threads: u32) -> Program {
    let mut p = Program::new(
        vec![
            Param::fp(FpType::F64, "var_1"),
            Param::fp_array(FpType::F64, "var_2"),
        ],
        Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
            clauses: OmpClauses {
                private: vec![],
                firstprivate: vec!["var_1".into()],
                reduction: None,
                num_threads: Some(threads),
            },
            prelude: vec![Stmt::DeclAssign {
                ty: FpType::F64,
                name: "var_3".into(),
                value: Expr::binary(Expr::var("var_1"), BinOp::Mul, Expr::fp_const(2.0)),
            }],
            body_loop: ForLoop {
                omp_for: true,
                var: "i".into(),
                bound: LoopBound::Const(trip),
                body: Block(vec![
                    BlockItem::Stmt(Stmt::Assign(Assignment {
                        target: LValue::Var(VarRef::Element("var_2".into(), IndexExpr::ThreadId)),
                        op: AssignOp::AddAssign,
                        value: Expr::binary(Expr::var("var_3"), BinOp::Div, Expr::fp_const(3.0)),
                    })),
                    BlockItem::Critical(OmpCritical {
                        body: Block::of_stmts(vec![comp_add(Expr::binary(
                            Expr::var("var_3"),
                            BinOp::Add,
                            Expr::elem("var_2", IndexExpr::ThreadId),
                        ))]),
                    }),
                ]),
            },
        })]),
    );
    p.name = "case_study_1".into();
    p
}

/// Case study 2 (§V-D, Table III, Fig. 7, Listing 1): a parallel region
/// inside a *serial* loop, so the region (and its team) is re-entered once
/// per outer iteration. The Clang binary is the slow outlier (946% in the
/// paper).
pub fn case_study_2(outer_trip: u32, inner_trip: u32, threads: u32) -> Program {
    let region = Stmt::OmpParallel(OmpParallel {
        clauses: OmpClauses {
            private: vec!["var_1".into()],
            firstprivate: vec!["var_2".into()],
            reduction: Some(ReductionOp::Add),
            num_threads: Some(threads),
        },
        prelude: vec![Stmt::Assign(Assignment {
            target: LValue::Var(VarRef::Scalar("var_1".into())),
            op: AssignOp::Assign,
            value: Expr::fp_const(0.0),
        })],
        body_loop: ForLoop {
            omp_for: true,
            var: "i".into(),
            bound: LoopBound::Const(inner_trip),
            body: Block::of_stmts(vec![
                Stmt::Assign(Assignment {
                    target: LValue::Var(VarRef::Scalar("var_1".into())),
                    op: AssignOp::AddAssign,
                    value: Expr::binary(
                        Expr::var("var_2"),
                        BinOp::Sub,
                        Expr::binary(
                            Expr::fp_const(-1.0),
                            BinOp::Mul,
                            Expr::elem("var_3", IndexExpr::LoopVarMod("i".into(), 1000)),
                        ),
                    ),
                }),
                comp_add(Expr::var("var_1")),
            ]),
        },
    });
    let mut p = Program::new(
        vec![
            Param::fp(FpType::F64, "var_1"),
            Param::fp(FpType::F64, "var_2"),
            Param::fp_array(FpType::F64, "var_3"),
        ],
        Block::of_stmts(vec![
            Stmt::Assign(Assignment {
                target: LValue::Var(VarRef::Element("var_3".into(), IndexExpr::Const(0))),
                op: AssignOp::AddAssign,
                value: Expr::var("var_2"),
            }),
            Stmt::For(ForLoop {
                omp_for: false,
                var: "k".into(),
                bound: LoopBound::Const(outer_trip),
                body: Block::of_stmts(vec![region]),
            }),
        ]),
    );
    p.name = "case_study_2".into();
    p
}

/// Case study 3 (§V-E, Figs. 8/9): like case study 1 but with a *serial*
/// loop inside the region, so every thread hammers the critical section for
/// every iteration — enough queuing-lock pressure to livelock the
/// Intel-like runtime deterministically.
pub fn case_study_3(trip: u32, threads: u32) -> Program {
    let mut p = case_study_1(trip, threads);
    if let BlockItem::Stmt(Stmt::OmpParallel(par)) = &mut p.body.0[0] {
        par.body_loop.omp_for = false;
    }
    p.name = "case_study_3".into();
    p
}

/// A NaN-control-flow divergence program (§V-B): with a NaN input, IEEE
/// semantics take the `!=` branch and its heavy loop, while the modelled
/// GCC `-O3` folding skips it — different result, much less work.
pub fn nan_divergence(branch_trip: u32) -> Program {
    let mut p = Program::new(
        vec![Param::fp(FpType::F64, "var_1")],
        Block::of_stmts(vec![
            Stmt::If(IfBlock {
                cond: BoolExpr {
                    lhs: VarRef::Scalar("var_1".into()),
                    op: BoolOp::Ne,
                    rhs: Expr::var("var_1"),
                },
                body: Block::of_stmts(vec![Stmt::For(ForLoop {
                    omp_for: false,
                    var: "i".into(),
                    bound: LoopBound::Const(branch_trip),
                    body: Block::of_stmts(vec![comp_add(Expr::fp_const(1.0))]),
                })]),
            }),
            comp_add(Expr::binary(
                Expr::var("var_1"),
                BinOp::Mul,
                Expr::fp_const(0.5),
            )),
        ]),
    );
    p.name = "nan_divergence".into();
    p
}

/// Inputs for the case-study programs.
pub fn case_study_input(program: &Program) -> TestInput {
    let values = program
        .params
        .iter()
        .map(|p| match p.ty {
            ompfuzz_ast::ParamType::Int => InputValue::Int(100),
            ompfuzz_ast::ParamType::Fp(_) => InputValue::Fp(1.5),
            ompfuzz_ast::ParamType::FpArray(_) => InputValue::ArrayFill(0.25),
        })
        .collect();
    TestInput {
        comp_init: 0.0,
        values,
    }
}

/// A NaN input for [`nan_divergence`].
pub fn nan_input() -> TestInput {
    TestInput {
        comp_init: 0.0,
        values: vec![InputValue::Fp(f64::NAN)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_ast::ProgramFeatures;

    #[test]
    fn cs1_has_the_contention_trigger() {
        let f = ProgramFeatures::of(&case_study_1(1000, 32));
        assert!(f.stresses_lock_contention());
        assert!(!f.stresses_team_recreation());
        assert_eq!(f.critical_in_omp_for, 1);
    }

    #[test]
    fn cs2_has_the_team_recreation_trigger() {
        let f = ProgramFeatures::of(&case_study_2(200, 100, 32));
        assert!(f.stresses_team_recreation());
        assert_eq!(f.parallel_in_serial_loop, 1);
        assert_eq!(f.reductions, 1);
    }

    #[test]
    fn cs3_uses_a_serial_region_loop() {
        let f = ProgramFeatures::of(&case_study_3(5000, 32));
        assert_eq!(f.critical_in_omp_for, 0); // loop is serial now
        assert_eq!(f.critical_sections, 1);
    }

    #[test]
    fn case_programs_validate_and_lower() {
        for p in [
            case_study_1(100, 8),
            case_study_2(10, 20, 8),
            case_study_3(100, 8),
            nan_divergence(100),
        ] {
            assert!(
                ompfuzz_ast::grammar::derivation_errors(&p).is_empty(),
                "{}",
                p.name
            );
            ompfuzz_exec::lower(&p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let input = case_study_input(&p);
            assert_eq!(input.values.len(), p.params.len());
        }
    }

    #[test]
    fn cs_programs_are_race_free() {
        for p in [
            case_study_1(64, 4),
            case_study_2(3, 16, 4),
            case_study_3(16, 4),
        ] {
            let ck = ompfuzz_exec::CompiledKernel::compile(ompfuzz_exec::lower(&p).unwrap());
            let out = ck
                .run(
                    &case_study_input(&p),
                    &ompfuzz_exec::ExecOptions::with_race_detection(),
                    &mut ompfuzz_exec::ExecScratch::new(),
                )
                .unwrap();
            assert!(out.races.is_empty(), "{}: {:?}", p.name, out.races);
        }
    }
}
