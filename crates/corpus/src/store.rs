//! Exact on-disk form for programs and inputs.
//!
//! The catalog must round-trip *programs*, not just their C++ rendering —
//! there is no C++ parser in the workspace, and the evolutionary loop needs
//! the AST back to mutate it. This module is a compact s-expression
//! serializer/parser covering exactly the AST the generator can produce.
//! Floating-point payloads are stored as `f64::to_bits` so a save/load
//! cycle is bit-exact, and the writer is fully deterministic (no maps, no
//! addresses), which is what makes a saved catalog byte-comparable across
//! runs and worker counts.

use ompfuzz_ast::{
    AssignOp, Assignment, BinOp, Block, BlockItem, BoolExpr, BoolOp, Expr, ForLoop, FpType,
    IfBlock, IndexExpr, LValue, LoopBound, MathFunc, OmpClauses, OmpCritical, OmpParallel, Param,
    Program, ReductionOp, Stmt, Term, VarRef,
};
use ompfuzz_inputs::{InputValue, TestInput};
use std::fmt;

/// Parse failure with a short human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(pub String);

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "catalog store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

fn err<T>(msg: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError(msg.into()))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serialize a program to one s-expression line.
pub fn write_program(p: &Program) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("(program ");
    write_str(&p.name, &mut out);
    out.push_str(&format!(" {} {} (params", p.seed, p.array_size));
    for param in &p.params {
        out.push(' ');
        match param.ty {
            ompfuzz_ast::program::ParamType::Int => {
                out.push_str("(int ");
                write_str(&param.name, &mut out);
                out.push(')');
            }
            ompfuzz_ast::program::ParamType::Fp(t) => {
                out.push_str(&format!("(fp {} ", fpty(t)));
                write_str(&param.name, &mut out);
                out.push(')');
            }
            ompfuzz_ast::program::ParamType::FpArray(t) => {
                out.push_str(&format!("(arr {} ", fpty(t)));
                write_str(&param.name, &mut out);
                out.push(')');
            }
        }
    }
    out.push_str(") ");
    write_block(&p.body, &mut out);
    out.push(')');
    out
}

/// Serialize an input vector to one s-expression line.
pub fn write_input(input: &TestInput) -> String {
    let mut out = format!("(input {}", input.comp_init.to_bits());
    for v in &input.values {
        match v {
            InputValue::Int(i) => out.push_str(&format!(" (i {i})")),
            InputValue::Fp(f) => out.push_str(&format!(" (f {})", f.to_bits())),
            InputValue::ArrayFill(f) => out.push_str(&format!(" (a {})", f.to_bits())),
        }
    }
    out.push(')');
    out
}

fn fpty(t: FpType) -> &'static str {
    match t {
        FpType::F32 => "f32",
        FpType::F64 => "f64",
    }
}

fn write_str(s: &str, out: &mut String) {
    // The format has no escapes: a quote or a line break would end the
    // string early, and the tokenizer never produces either.
    debug_assert!(!s.contains(['"', '\n']), "identifiers never contain quotes");
    out.push('"');
    out.push_str(s);
    out.push('"');
}

fn write_block(b: &Block, out: &mut String) {
    out.push_str("(block");
    for item in b.iter() {
        out.push(' ');
        match item {
            BlockItem::Stmt(s) => write_stmt(s, out),
            BlockItem::Critical(c) => {
                out.push_str("(crit ");
                write_block(&c.body, out);
                out.push(')');
            }
        }
    }
    out.push(')');
}

fn write_stmt(s: &Stmt, out: &mut String) {
    match s {
        Stmt::Assign(a) => {
            out.push_str(&format!("(asgn {} ", aop(a.op)));
            match &a.target {
                LValue::Comp => out.push_str("comp"),
                LValue::Var(v) => write_varref(v, out),
            }
            out.push(' ');
            write_expr(&a.value, out);
            out.push(')');
        }
        Stmt::DeclAssign { ty, name, value } => {
            out.push_str(&format!("(decl {} ", fpty(*ty)));
            write_str(name, out);
            out.push(' ');
            write_expr(value, out);
            out.push(')');
        }
        Stmt::If(ifb) => {
            out.push_str("(if (cond ");
            write_varref(&ifb.cond.lhs, out);
            out.push_str(&format!(" {} ", bop(ifb.cond.op)));
            write_expr(&ifb.cond.rhs, out);
            out.push_str(") ");
            write_block(&ifb.body, out);
            out.push(')');
        }
        Stmt::For(fl) => write_for(fl, out),
        Stmt::OmpParallel(par) => {
            out.push_str("(par (clauses (priv");
            for v in &par.clauses.private {
                out.push(' ');
                write_str(v, out);
            }
            out.push_str(") (fpriv");
            for v in &par.clauses.firstprivate {
                out.push(' ');
                write_str(v, out);
            }
            out.push_str(") (red ");
            match par.clauses.reduction {
                None => out.push_str("none"),
                Some(ReductionOp::Add) => out.push_str("add"),
                Some(ReductionOp::Mul) => out.push_str("mul"),
            }
            out.push_str(") (nt ");
            match par.clauses.num_threads {
                None => out.push_str("none"),
                Some(n) => out.push_str(&n.to_string()),
            }
            out.push_str(")) (prelude");
            for s in &par.prelude {
                out.push(' ');
                write_stmt(s, out);
            }
            out.push_str(") ");
            write_for(&par.body_loop, out);
            out.push(')');
        }
    }
}

fn write_for(fl: &ForLoop, out: &mut String) {
    out.push_str(if fl.omp_for { "(ompfor " } else { "(for " });
    write_str(&fl.var, out);
    out.push(' ');
    match &fl.bound {
        LoopBound::Const(n) => out.push_str(&format!("(c {n})")),
        LoopBound::Param(p) => {
            out.push_str("(p ");
            write_str(p, out);
            out.push(')');
        }
    }
    out.push(' ');
    write_block(&fl.body, out);
    out.push(')');
}

fn write_varref(v: &VarRef, out: &mut String) {
    match v {
        VarRef::Scalar(n) => {
            out.push_str("(s ");
            write_str(n, out);
            out.push(')');
        }
        VarRef::Element(n, idx) => {
            out.push_str("(e ");
            write_str(n, out);
            out.push(' ');
            match idx {
                IndexExpr::Const(k) => out.push_str(&format!("(ic {k})")),
                IndexExpr::LoopVarMod(var, m) => {
                    out.push_str("(lm ");
                    write_str(var, out);
                    out.push_str(&format!(" {m})"));
                }
                IndexExpr::ThreadId => out.push_str("tid"),
            }
            out.push(')');
        }
    }
}

fn write_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Term(Term::Var(v)) => write_varref(v, out),
        Expr::Term(Term::FpConst(x, ty)) => {
            out.push_str(&format!("(fc {} {})", x.to_bits(), fpty(*ty)))
        }
        Expr::Term(Term::IntConst(i)) => out.push_str(&format!("(i {i})")),
        Expr::Paren(inner) => {
            out.push_str("(grp ");
            write_expr(inner, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            out.push_str(&format!("(b {} ", binop(*op)));
            write_expr(lhs, out);
            out.push(' ');
            write_expr(rhs, out);
            out.push(')');
        }
        Expr::MathCall { func, arg } => {
            out.push_str(&format!("(m {} ", func.c_name()));
            write_expr(arg, out);
            out.push(')');
        }
    }
}

fn aop(op: AssignOp) -> &'static str {
    match op {
        AssignOp::Assign => "set",
        AssignOp::AddAssign => "add",
        AssignOp::SubAssign => "sub",
        AssignOp::MulAssign => "mul",
        AssignOp::DivAssign => "div",
    }
}

fn binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
    }
}

fn bop(op: BoolOp) -> &'static str {
    match op {
        BoolOp::Lt => "lt",
        BoolOp::Gt => "gt",
        BoolOp::Eq => "eq",
        BoolOp::Ne => "ne",
        BoolOp::Ge => "ge",
        BoolOp::Le => "le",
    }
}

// ---------------------------------------------------------------------------
// Tokenizer + node tree
// ---------------------------------------------------------------------------

/// A parsed s-expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Bare atom (`comp`, `tid`, numbers, keywords).
    Atom(String),
    /// Quoted identifier.
    Str(String),
    /// Parenthesized list.
    List(Vec<Node>),
}

impl Node {
    fn describe(&self) -> String {
        match self {
            Node::Atom(a) => format!("atom `{a}`"),
            Node::Str(s) => format!("string \"{s}\""),
            Node::List(items) => format!("list of {}", items.len()),
        }
    }

    pub fn as_atom(&self) -> Result<&str, StoreError> {
        match self {
            Node::Atom(a) => Ok(a),
            other => err(format!("expected atom, got {}", other.describe())),
        }
    }

    pub fn as_str(&self) -> Result<&str, StoreError> {
        match self {
            Node::Str(s) => Ok(s),
            other => err(format!("expected string, got {}", other.describe())),
        }
    }

    pub fn as_list(&self) -> Result<&[Node], StoreError> {
        match self {
            Node::List(items) => Ok(items),
            other => err(format!("expected list, got {}", other.describe())),
        }
    }

    pub fn parse_atom<T: std::str::FromStr>(&self, what: &str) -> Result<T, StoreError> {
        self.as_atom()?
            .parse()
            .map_err(|_| StoreError(format!("invalid {what}: {}", self.describe())))
    }

    /// Checks the list head is `tag` and returns the tail.
    pub fn tagged(&self, tag: &str) -> Result<&[Node], StoreError> {
        let items = self.as_list()?;
        match items.first() {
            Some(Node::Atom(a)) if a == tag => Ok(&items[1..]),
            _ => err(format!("expected ({tag} ...), got {}", self.describe())),
        }
    }
}

/// Deepest list nesting [`parse_nodes`] accepts; one level deeper is an
/// error, not a stack overflow. Catalogs of the paper configuration nest
/// 11 levels, and every reader recurses at most once per level.
const MAX_DEPTH: usize = 256;

/// Parse every top-level s-expression in `text`. Lines starting with `;`
/// are comments.
pub fn parse_nodes(text: &str) -> Result<Vec<Node>, StoreError> {
    let mut tokens = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with(';') {
            continue;
        }
        tokenize_line(line, &mut tokens)?;
    }
    let mut nodes = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        nodes.push(parse_node(&tokens, &mut pos, 0)?);
    }
    Ok(nodes)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open,
    Close,
    Atom(String),
    Str(String),
}

fn tokenize_line(line: &str, out: &mut Vec<Token>) -> Result<(), StoreError> {
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '(' => out.push(Token::Open),
            ')' => out.push(Token::Close),
            '"' => {
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(c) => s.push(c),
                        None => return err("unterminated string"),
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_whitespace() => {}
            c => {
                let mut a = String::new();
                a.push(c);
                while let Some(&n) = chars.peek() {
                    if n == '(' || n == ')' || n == '"' || n.is_whitespace() {
                        break;
                    }
                    a.push(n);
                    chars.next();
                }
                out.push(Token::Atom(a));
            }
        }
    }
    Ok(())
}

/// Parse one node nested inside `depth` lists.
fn parse_node(tokens: &[Token], pos: &mut usize, depth: usize) -> Result<Node, StoreError> {
    match tokens.get(*pos) {
        None => err("unexpected end of input"),
        Some(Token::Close) => err("unbalanced `)`"),
        Some(Token::Open) if depth == MAX_DEPTH => {
            err(format!("lists nested deeper than {MAX_DEPTH} levels"))
        }
        Some(Token::Atom(a)) => {
            *pos += 1;
            Ok(Node::Atom(a.clone()))
        }
        Some(Token::Str(s)) => {
            *pos += 1;
            Ok(Node::Str(s.clone()))
        }
        Some(Token::Open) => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                match tokens.get(*pos) {
                    None => return err("unclosed `(`"),
                    Some(Token::Close) => {
                        *pos += 1;
                        return Ok(Node::List(items));
                    }
                    _ => items.push(parse_node(tokens, pos, depth + 1)?),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Rebuild a program from a node produced by [`parse_nodes`].
pub fn read_program(node: &Node) -> Result<Program, StoreError> {
    let rest = node.tagged("program")?;
    let [name, seed, array_size, params, body] = rest else {
        return err("program needs (program name seed array-size (params ...) (block ...))");
    };
    let mut program = Program::new(read_params(params)?, read_block(body)?);
    program.name = name.as_str()?.to_string();
    program.seed = seed.parse_atom("seed")?;
    program.array_size = array_size.parse_atom("array size")?;
    Ok(program)
}

/// Rebuild an input vector.
pub fn read_input(node: &Node) -> Result<TestInput, StoreError> {
    let rest = node.tagged("input")?;
    let [comp, vals @ ..] = rest else {
        return err("input needs (input comp-bits values...)");
    };
    let comp_init = f64::from_bits(comp.parse_atom("comp bits")?);
    let mut values = Vec::with_capacity(vals.len());
    for v in vals {
        let items = v.as_list()?;
        let [tag, payload] = items else {
            return err("input value needs (kind payload)");
        };
        values.push(match tag.as_atom()? {
            "i" => InputValue::Int(payload.parse_atom("int value")?),
            "f" => InputValue::Fp(f64::from_bits(payload.parse_atom("fp bits")?)),
            "a" => InputValue::ArrayFill(f64::from_bits(payload.parse_atom("fill bits")?)),
            other => return err(format!("unknown input value kind `{other}`")),
        });
    }
    Ok(TestInput { comp_init, values })
}

fn read_params(node: &Node) -> Result<Vec<Param>, StoreError> {
    let mut params = Vec::new();
    for p in node.tagged("params")? {
        let items = p.as_list()?;
        params.push(match items {
            [Node::Atom(k), name] if k == "int" => Param::int(name.as_str()?),
            [Node::Atom(k), ty, name] if k == "fp" => Param::fp(read_fpty(ty)?, name.as_str()?),
            [Node::Atom(k), ty, name] if k == "arr" => {
                Param::fp_array(read_fpty(ty)?, name.as_str()?)
            }
            _ => return err(format!("bad param {}", p.describe())),
        });
    }
    Ok(params)
}

fn read_block(node: &Node) -> Result<Block, StoreError> {
    let mut items = Vec::new();
    for item in node.tagged("block")? {
        if let Ok(rest) = item.tagged("crit") {
            let [body] = rest else {
                return err("crit needs one block");
            };
            items.push(BlockItem::Critical(OmpCritical {
                body: read_block(body)?,
            }));
        } else {
            items.push(BlockItem::Stmt(read_stmt(item)?));
        }
    }
    Ok(Block(items))
}

fn read_stmt(node: &Node) -> Result<Stmt, StoreError> {
    let items = node.as_list()?;
    let tag = items
        .first()
        .ok_or_else(|| StoreError("empty statement".into()))?
        .as_atom()?;
    match tag {
        "asgn" => {
            let [_, op, target, value] = items else {
                return err("asgn needs (asgn op target value)");
            };
            let target = match target {
                Node::Atom(a) if a == "comp" => LValue::Comp,
                other => LValue::Var(read_varref(other)?),
            };
            Ok(Stmt::Assign(Assignment {
                target,
                op: read_tag(op, AssignOp::all(), aop, "assign op")?,
                value: read_expr(value)?,
            }))
        }
        "decl" => {
            let [_, ty, name, value] = items else {
                return err("decl needs (decl ty name value)");
            };
            Ok(Stmt::DeclAssign {
                ty: read_fpty(ty)?,
                name: name.as_str()?.to_string(),
                value: read_expr(value)?,
            })
        }
        "if" => {
            let [_, cond, body] = items else {
                return err("if needs (if (cond ...) block)");
            };
            let [lhs, op, rhs] = cond.tagged("cond")? else {
                return err("cond needs (cond lhs op rhs)");
            };
            Ok(Stmt::If(IfBlock {
                cond: BoolExpr {
                    lhs: read_varref(lhs)?,
                    op: read_tag(op, BoolOp::all(), bop, "bool op")?,
                    rhs: read_expr(rhs)?,
                },
                body: read_block(body)?,
            }))
        }
        "for" | "ompfor" => Ok(Stmt::For(read_for(node)?)),
        "par" => {
            let [_, clauses, prelude, body_loop] = items else {
                return err("par needs (par (clauses ...) (prelude ...) (for ...))");
            };
            Ok(Stmt::OmpParallel(OmpParallel {
                clauses: read_clauses(clauses)?,
                prelude: prelude
                    .tagged("prelude")?
                    .iter()
                    .map(read_stmt)
                    .collect::<Result<_, _>>()?,
                body_loop: read_for(body_loop)?,
            }))
        }
        other => err(format!("unknown statement tag `{other}`")),
    }
}

fn read_for(node: &Node) -> Result<ForLoop, StoreError> {
    let items = node.as_list()?;
    let [tag, var, bound, body] = items else {
        return err("for needs (for var bound block)");
    };
    let omp_for = match tag.as_atom()? {
        "for" => false,
        "ompfor" => true,
        other => return err(format!("unknown loop tag `{other}`")),
    };
    let bound_items = bound.as_list()?;
    let bound = match bound_items {
        [Node::Atom(k), n] if k == "c" => LoopBound::Const(n.parse_atom("trip count")?),
        [Node::Atom(k), p] if k == "p" => LoopBound::Param(p.as_str()?.to_string()),
        _ => return err(format!("bad loop bound {}", bound.describe())),
    };
    Ok(ForLoop {
        omp_for,
        var: var.as_str()?.to_string(),
        bound,
        body: read_block(body)?,
    })
}

fn read_clauses(node: &Node) -> Result<OmpClauses, StoreError> {
    let [private, firstprivate, reduction, num_threads] = node.tagged("clauses")? else {
        return err("clauses needs (clauses (priv ...) (fpriv ...) (red ...) (nt ...))");
    };
    let names = |node: &Node, tag: &str| -> Result<Vec<String>, StoreError> {
        node.tagged(tag)?
            .iter()
            .map(|n| n.as_str().map(str::to_string))
            .collect()
    };
    let [red] = reduction.tagged("red")? else {
        return err("red needs one atom");
    };
    let reduction = match red.as_atom()? {
        "none" => None,
        "add" => Some(ReductionOp::Add),
        "mul" => Some(ReductionOp::Mul),
        other => return err(format!("unknown reduction `{other}`")),
    };
    let [nt] = num_threads.tagged("nt")? else {
        return err("nt needs one atom");
    };
    let num_threads = match nt.as_atom()? {
        "none" => None,
        n => Some(
            n.parse()
                .map_err(|_| StoreError(format!("invalid num_threads `{n}`")))?,
        ),
    };
    Ok(OmpClauses {
        private: names(private, "priv")?,
        firstprivate: names(firstprivate, "fpriv")?,
        reduction,
        num_threads,
    })
}

fn read_varref(node: &Node) -> Result<VarRef, StoreError> {
    let items = node.as_list()?;
    match items {
        [Node::Atom(k), name] if k == "s" => Ok(VarRef::Scalar(name.as_str()?.to_string())),
        [Node::Atom(k), name, idx] if k == "e" => Ok(VarRef::Element(
            name.as_str()?.to_string(),
            read_index(idx)?,
        )),
        _ => err(format!("bad varref {}", node.describe())),
    }
}

fn read_index(node: &Node) -> Result<IndexExpr, StoreError> {
    if let Node::Atom(a) = node {
        return match a.as_str() {
            "tid" => Ok(IndexExpr::ThreadId),
            other => err(format!("unknown index atom `{other}`")),
        };
    }
    let items = node.as_list()?;
    match items {
        [Node::Atom(k), n] if k == "ic" => Ok(IndexExpr::Const(n.parse_atom("index")?)),
        [Node::Atom(k), var, m] if k == "lm" => Ok(IndexExpr::LoopVarMod(
            var.as_str()?.to_string(),
            m.parse_atom("modulus")?,
        )),
        _ => err(format!("bad index {}", node.describe())),
    }
}

fn read_expr(node: &Node) -> Result<Expr, StoreError> {
    let items = node.as_list()?;
    let tag = items
        .first()
        .ok_or_else(|| StoreError("empty expression".into()))?
        .as_atom()?;
    match tag {
        "s" | "e" => Ok(Expr::Term(Term::Var(read_varref(node)?))),
        "fc" => {
            let [_, bits, ty] = items else {
                return err("fc needs (fc bits ty)");
            };
            Ok(Expr::Term(Term::FpConst(
                f64::from_bits(bits.parse_atom("fp bits")?),
                read_fpty(ty)?,
            )))
        }
        "i" => {
            let [_, v] = items else {
                return err("i needs (i value)");
            };
            Ok(Expr::Term(Term::IntConst(v.parse_atom("int const")?)))
        }
        "grp" => {
            let [_, inner] = items else {
                return err("grp needs one expr");
            };
            Ok(Expr::Paren(Box::new(read_expr(inner)?)))
        }
        "b" => {
            let [_, op, lhs, rhs] = items else {
                return err("b needs (b op lhs rhs)");
            };
            Ok(Expr::Binary {
                op: read_tag(op, BinOp::all(), binop, "binary op")?,
                lhs: Box::new(read_expr(lhs)?),
                rhs: Box::new(read_expr(rhs)?),
            })
        }
        "m" => {
            let [_, func, arg] = items else {
                return err("m needs (m func arg)");
            };
            Ok(Expr::MathCall {
                func: read_tag(func, MathFunc::all(), MathFunc::c_name, "math function")?,
                arg: Box::new(read_expr(arg)?),
            })
        }
        other => err(format!("unknown expression tag `{other}`")),
    }
}

fn read_fpty(node: &Node) -> Result<FpType, StoreError> {
    read_tag(node, FpType::all(), fpty, "fp type")
}

/// Read a tag that `write` gives one of `all`'s values, so each enum has
/// one tag table: its writer.
fn read_tag<E: Copy, const N: usize>(
    node: &Node,
    all: [E; N],
    write: fn(E) -> &'static str,
    what: &str,
) -> Result<E, StoreError> {
    let tag = node.as_atom()?;
    match all.into_iter().find(|&value| write(value) == tag) {
        Some(value) => Ok(value),
        None => err(format!("unknown {what} `{tag}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
    use ompfuzz_inputs::InputGenerator;

    #[test]
    fn generated_programs_round_trip_exactly() {
        let mut g = ProgramGenerator::new(GeneratorConfig::paper(), 1234);
        let mut ig = InputGenerator::new(77);
        for p in g.generate_batch(60) {
            let text = write_program(&p);
            let nodes = parse_nodes(&text).expect("parses");
            assert_eq!(nodes.len(), 1, "{text}");
            let back = read_program(&nodes[0]).expect("reads");
            assert_eq!(back, p, "{text}");
            let input = ig.generate_for(&p);
            let itext = write_input(&input);
            let inodes = parse_nodes(&itext).unwrap();
            assert_eq!(read_input(&inodes[0]).unwrap(), input, "{itext}");
        }
    }

    #[test]
    fn special_floats_round_trip_bit_exactly() {
        let input = TestInput {
            comp_init: f64::NAN,
            values: vec![
                InputValue::Fp(f64::INFINITY),
                InputValue::Fp(-0.0),
                InputValue::ArrayFill(f64::MIN_POSITIVE / 2.0), // subnormal
                InputValue::Int(-42),
            ],
        };
        let text = write_input(&input);
        let back = read_input(&parse_nodes(&text).unwrap()[0]).unwrap();
        assert_eq!(back.comp_init.to_bits(), input.comp_init.to_bits());
        for (a, b) in input.values.iter().zip(&back.values) {
            match (a, b) {
                (InputValue::Int(x), InputValue::Int(y)) => assert_eq!(x, y),
                (InputValue::Fp(x), InputValue::Fp(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits())
                }
                (InputValue::ArrayFill(x), InputValue::ArrayFill(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits())
                }
                other => panic!("kind changed: {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let text = "; a comment\n  (input 0 (i 3))  \n; trailing\n";
        let nodes = parse_nodes(text).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(read_input(&nodes[0]).unwrap().values.len(), 1);
    }

    /// Pinned: 100,000 open parentheses used to overflow the main
    /// thread's stack (and so abort `evolve --resume`). Nesting up to the
    /// limit parses; one level more is an error.
    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_nodes(&nested(MAX_DEPTH)).is_ok());
        let e = parse_nodes(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.0.contains("nested deeper than"), "{e}");
        assert!(parse_nodes(&"(".repeat(100_000)).is_err());
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "(",
            ")",
            "(program)",
            "(input notanumber)",
            "(input 0 (x 1))",
            "\"unterminated",
            "(block (asgn set comp))",
        ] {
            let result = parse_nodes(bad).and_then(|nodes| {
                nodes
                    .iter()
                    .map(|n| read_program(n).map(|_| ()).or(read_input(n).map(|_| ())))
                    .collect::<Result<Vec<_>, _>>()
            });
            assert!(result.is_err(), "`{bad}` should fail");
        }
    }
}
