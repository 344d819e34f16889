//! Constant folding over the lowered IR.
//!
//! Every simulated compiler runs the same constant-folding pass at `-O1`
//! and above (folding is where part of the instruction-count differences
//! between `-O` levels come from); the *semantic* difference between
//! vendors — GCC's NaN-sensitive branch folding — is applied at
//! interpretation time via `BoolSemantics`, chosen by the backend.
//!
//! The pass lives in `ompfuzz-exec` (it used to sit in `ompfuzz-backends`)
//! so [`crate::bytecode::CompiledKernel::compile_folded`] can produce the
//! `-O1`+ bytecode that all three simulated backends share.

use crate::kernel::{Kernel, LExpr, LStmt};

/// Fold `Const op Const` subexpressions in place; returns how many folds
/// were applied (reported in compile diagnostics and used by tests).
pub fn fold_constants(kernel: &mut Kernel) -> usize {
    let mut folded = 0;
    for stmt in &mut kernel.body {
        fold_stmt(stmt, &mut folded);
    }
    folded
}

fn fold_stmt(stmt: &mut LStmt, folded: &mut usize) {
    match stmt {
        LStmt::AssignComp(_, e) | LStmt::AssignScalar(_, _, e) | LStmt::AssignElem(_, _, _, e) => {
            fold_expr(e, folded)
        }
        LStmt::If(cond, body) => {
            fold_expr(&mut cond.rhs, folded);
            for s in body {
                fold_stmt(s, folded);
            }
        }
        LStmt::For(l) => {
            for s in &mut l.body {
                fold_stmt(s, folded);
            }
        }
        LStmt::Critical(body) => {
            for s in body {
                fold_stmt(s, folded);
            }
        }
        LStmt::Parallel(p) => {
            for s in &mut p.prelude {
                fold_stmt(s, folded);
            }
            for s in &mut p.body_loop.body {
                fold_stmt(s, folded);
            }
        }
    }
}

fn fold_expr(e: &mut LExpr, folded: &mut usize) {
    match e {
        LExpr::Binary(op, l, r) => {
            fold_expr(l, folded);
            fold_expr(r, folded);
            if let (LExpr::Const(a), LExpr::Const(b)) = (&**l, &**r) {
                // IEEE-safe: folding a constant expression computes the same
                // value the hardware would, including NaN/Inf results.
                *e = LExpr::Const(op.apply(*a, *b));
                *folded += 1;
            }
        }
        LExpr::Call(func, arg) => {
            fold_expr(arg, folded);
            if let LExpr::Const(a) = &**arg {
                *e = LExpr::Const(func.apply(*a));
                *folded += 1;
            }
        }
        LExpr::Const(_) | LExpr::Scalar(_) | LExpr::Elem(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use ompfuzz_ast::{AssignOp, Assignment, BinOp, Block, Expr, LValue, MathFunc, Program, Stmt};

    fn kernel_of(value: Expr) -> Kernel {
        let p = Program::new(
            vec![],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value,
            })]),
        );
        lower(&p).unwrap()
    }

    #[test]
    fn folds_constant_binary_chains() {
        // (2.0 * 3.0) + 1.0 -> 7.0 (two folds)
        let mut k = kernel_of(Expr::binary(
            Expr::paren(Expr::binary(
                Expr::fp_const(2.0),
                BinOp::Mul,
                Expr::fp_const(3.0),
            )),
            BinOp::Add,
            Expr::fp_const(1.0),
        ));
        let n = fold_constants(&mut k);
        assert_eq!(n, 2);
        match &k.body[0] {
            LStmt::AssignComp(_, LExpr::Const(v)) => assert_eq!(*v, 7.0),
            other => panic!("not folded: {other:?}"),
        }
    }

    #[test]
    fn folds_math_calls_on_constants() {
        let mut k = kernel_of(Expr::call(MathFunc::Sqrt, Expr::fp_const(9.0)));
        assert_eq!(fold_constants(&mut k), 1);
        match &k.body[0] {
            LStmt::AssignComp(_, LExpr::Const(v)) => assert_eq!(*v, 3.0),
            other => panic!("not folded: {other:?}"),
        }
    }

    #[test]
    fn folding_preserves_ieee_specials() {
        // 0.0 / 0.0 folds to NaN, exactly as the hardware would compute it.
        let mut k = kernel_of(Expr::binary(
            Expr::fp_const(0.0),
            BinOp::Div,
            Expr::fp_const(0.0),
        ));
        fold_constants(&mut k);
        match &k.body[0] {
            LStmt::AssignComp(_, LExpr::Const(v)) => assert!(v.is_nan()),
            other => panic!("not folded: {other:?}"),
        }
    }

    #[test]
    fn variables_block_folding() {
        let p = Program::new(
            vec![ompfuzz_ast::Param::fp(ompfuzz_ast::FpType::F64, "x")],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value: Expr::binary(Expr::var("x"), BinOp::Add, Expr::fp_const(1.0)),
            })]),
        );
        let mut k = lower(&p).unwrap();
        assert_eq!(fold_constants(&mut k), 0);
    }
}
