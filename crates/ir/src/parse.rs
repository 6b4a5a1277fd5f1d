//! A parser for the OpenCL-C-like surface syntax the pretty-printer emits.
//!
//! Together with [`crate::print`] this closes the loop: kernels can be
//! authored as source text, parsed to the IR, transformed by the passes,
//! and printed back — `parse(print(k))` is behaviourally identical to `k`,
//! and printing is idempotent (`print(parse(print(k))) == print(k)`,
//! pinned by tests).
//!
//! Three deliberate simplifications relative to the DSL:
//!
//! * parsed local/scalar types are always *concrete* (the printer resolves
//!   `ElemOf` references before emitting source);
//! * a `const __global` buffer parameter parses as read-only, a plain
//!   `__global` one as read-write;
//! * a minus sign directly before a literal folds into the literal, so an
//!   explicit `Neg(Const)` node does not survive a round trip (a negative
//!   constant does).

use crate::ast::{Access, Expr, Kernel, Param, Program, Stmt, TypeRef};
use crate::types::{Precision, ScalarType};
use crate::value::{CmpOp, FloatBinOp, UnaryFn};
use core::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole program: zero or more kernels, optionally preceded by a
/// `// program: <name>` header comment (as emitted by the printer).
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut name = String::from("program");
    for line in src.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("// program:") {
            name = rest.trim().to_owned();
            break;
        }
        if !t.is_empty() && !t.starts_with("//") {
            break;
        }
    }
    let mut p = Parser::new(src)?;
    let mut program = Program::new(name);
    while !p.at_end() {
        program.kernels.push(p.kernel()?);
    }
    Ok(program)
}

/// Parses a single kernel.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
pub fn parse_kernel(src: &str) -> Result<Kernel, ParseError> {
    let mut p = Parser::new(src)?;
    let k = p.kernel()?;
    if !p.at_end() {
        return Err(p.err("trailing input after kernel"));
    }
    Ok(k)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Punct(&'static str),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;

    let puncts: [&'static str; 24] = [
        "<=", ">=", "==", "!=", "++", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", "<", ">",
        "=", "+", "-", "*", "/", ".", "!",
    ];

    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == '/' {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        let (tline, tcol) = (line, col);
        // Numbers.
        if c.is_ascii_digit() || (c == '.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit())
        {
            let start = i;
            let mut is_float = false;
            while i < bytes.len() {
                let d = bytes[i];
                if d.is_ascii_digit() {
                    i += 1;
                } else if d == '.' {
                    is_float = true;
                    i += 1;
                } else if d == 'e' || d == 'E' {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == '+' || bytes[i] == '-') {
                        i += 1;
                    }
                } else {
                    break;
                }
            }
            let text: String = bytes[start..i].iter().collect();
            col += i - start;
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| ParseError {
                    line: tline,
                    col: tcol,
                    message: format!("bad float literal `{text}`"),
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| ParseError {
                    line: tline,
                    col: tcol,
                    message: format!("bad integer literal `{text}`"),
                })?)
            };
            out.push(Token {
                tok,
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            col += i - start;
            // `inf`/`nan` float literals (printer can emit them).
            let tok = match text.as_str() {
                "inf" => Tok::Float(f64::INFINITY),
                "nan" => Tok::Float(f64::NAN),
                _ => Tok::Ident(text),
            };
            out.push(Token {
                tok,
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Punctuation (longest match first).
        let mut matched = false;
        for p in puncts {
            let pc: Vec<char> = p.chars().collect();
            if bytes[i..].starts_with(&pc) {
                out.push(Token {
                    tok: Tok::Punct(p),
                    line: tline,
                    col: tcol,
                });
                i += pc.len();
                col += pc.len();
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(ParseError {
                line,
                col,
                message: format!("unexpected character `{c}`"),
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or((0, 0), |t| (t.line, t.col));
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?
            .tok
            .clone();
        self.pos += 1;
        Ok(t)
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        match self.bump()? {
            Tok::Punct(q) if q == p => Ok(()),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected `{p}`, found {other:?}")))
            }
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if self.peek() == Some(&Tok::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an identifier, found {other:?}")))
            }
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn peek_type(&self) -> Option<ScalarType> {
        match self.peek() {
            Some(Tok::Ident(s)) => scalar_type(s),
            _ => None,
        }
    }

    // -- grammar ---------------------------------------------------------

    fn kernel(&mut self) -> Result<Kernel, ParseError> {
        self.expect_kw("__kernel")?;
        self.expect_kw("void")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.param()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(Kernel { name, params, body })
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let is_const = self.eat_kw("const");
        if self.eat_kw("__global") {
            let ty = self.ident()?;
            let elem = precision(&ty)
                .ok_or_else(|| self.err(format!("`{ty}` is not a float element type")))?;
            self.expect_punct("*")?;
            let name = self.ident()?;
            return Ok(Param::Buffer {
                name,
                elem,
                access: if is_const {
                    Access::Read
                } else {
                    Access::ReadWrite
                },
            });
        }
        if is_const {
            return Err(self.err("`const` scalar parameters are not supported"));
        }
        let ty = self.ident()?;
        let st = scalar_type(&ty).ok_or_else(|| self.err(format!("unknown type `{ty}`")))?;
        let name = self.ident()?;
        Ok(Param::Scalar {
            name,
            ty: TypeRef::Concrete(st),
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        // for (...) { ... }
        if self.eat_kw("for") {
            self.expect_punct("(")?;
            self.expect_kw("long")?;
            let var = self.ident()?;
            self.expect_punct("=")?;
            let start = self.expr()?;
            self.expect_punct(";")?;
            let v2 = self.ident()?;
            if v2 != var {
                return Err(self.err("loop condition variable differs from declaration"));
            }
            self.expect_punct("<")?;
            let end = self.expr()?;
            self.expect_punct(";")?;
            self.expect_punct("++")?;
            let v3 = self.ident()?;
            if v3 != var {
                return Err(self.err("loop increment variable differs from declaration"));
            }
            self.expect_punct(")")?;
            let body = self.block()?;
            return Ok(Stmt::For {
                var,
                start,
                end,
                body,
            });
        }
        // if (...) { ... } [else { ... }]
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_body = self.block()?;
            let else_body = if self.eat_kw("else") {
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
            });
        }
        // Declaration: `<type>|auto ident = expr ;`
        let declared_ty = if self.eat_kw("auto") {
            Some(None)
        } else if let Some(st) = self.peek_type() {
            // Only a declaration when followed by `ident =`; `long` etc.
            // cannot start an expression statement, so this is safe.
            self.pos += 1;
            Some(Some(st))
        } else {
            None
        };
        if let Some(ty) = declared_ty {
            let name = self.ident()?;
            self.expect_punct("=")?;
            let value = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Let {
                name,
                ty: ty.map(TypeRef::Concrete),
                value,
            });
        }
        // Assignment or store: `ident = expr ;` or `ident [ e ] = expr ;`
        let name = self.ident()?;
        if self.eat_punct("[") {
            let index = self.expr()?;
            self.expect_punct("]")?;
            self.expect_punct("=")?;
            let value = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Store {
                buf: name,
                index,
                value,
            });
        }
        self.expect_punct("=")?;
        let value = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign { name, value })
    }

    /// expr := cmp ("?" expr ":" expr)?
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let c = self.cmp_expr()?;
        if self.eat_punct("?") {
            let then = self.expr()?;
            self.expect_punct(":")?;
            let els = self.expr()?;
            return Ok(Expr::Select {
                cond: Box::new(c),
                then: Box::new(then),
                els: Box::new(els),
            });
        }
        Ok(c)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Punct("<")) => Some(CmpOp::Lt),
            Some(Tok::Punct("<=")) => Some(CmpOp::Le),
            Some(Tok::Punct(">")) => Some(CmpOp::Gt),
            Some(Tok::Punct(">=")) => Some(CmpOp::Ge),
            Some(Tok::Punct("==")) => Some(CmpOp::Eq),
            Some(Tok::Punct("!=")) => Some(CmpOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(Expr::Cmp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => FloatBinOp::Add,
                Some(Tok::Punct("-")) => FloatBinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("*")) => FloatBinOp::Mul,
                Some(Tok::Punct("/")) => FloatBinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("-") {
            // A minus directly before a literal is part of the literal
            // (keeps `-2.5` ↔ `FloatConst(-2.5)` a round trip); anything
            // else is a negation operation.
            match self.peek() {
                Some(Tok::Float(v)) => {
                    let v = -*v;
                    self.pos += 1;
                    return Ok(Expr::FloatConst(v));
                }
                Some(Tok::Int(v)) => {
                    let v = v.wrapping_neg();
                    self.pos += 1;
                    return Ok(Expr::IntConst(v));
                }
                _ => {}
            }
            let arg = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnaryFn::Neg,
                arg: Box::new(arg),
            });
        }
        // Cast: `( type ) ( expr )` — distinguished from a parenthesized
        // expression by the type keyword.
        if self.peek() == Some(&Tok::Punct("(")) {
            if let Some(Tok::Ident(s)) = self.peek2() {
                if let Some(st) = scalar_type(s) {
                    // ( type )
                    self.pos += 2;
                    self.expect_punct(")")?;
                    self.expect_punct("(")?;
                    let arg = self.expr()?;
                    self.expect_punct(")")?;
                    return Ok(Expr::Cast {
                        to: TypeRef::Concrete(st),
                        arg: Box::new(arg),
                    });
                }
            }
            self.pos += 1; // consume "("
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump()? {
            Tok::Int(v) => Ok(Expr::IntConst(v)),
            Tok::Float(v) => Ok(Expr::FloatConst(v)),
            Tok::Ident(name) => {
                // Builtins.
                let unary = match name.as_str() {
                    "sqrt" => Some(UnaryFn::Sqrt),
                    "exp" => Some(UnaryFn::Exp),
                    "log" => Some(UnaryFn::Log),
                    "fabs" => Some(UnaryFn::Fabs),
                    _ => None,
                };
                if let Some(op) = unary {
                    self.expect_punct("(")?;
                    let arg = self.expr()?;
                    self.expect_punct(")")?;
                    return Ok(Expr::Unary {
                        op,
                        arg: Box::new(arg),
                    });
                }
                if name == "min" || name == "max" {
                    self.expect_punct("(")?;
                    let a = self.expr()?;
                    self.expect_punct(",")?;
                    let b = self.expr()?;
                    self.expect_punct(")")?;
                    return Ok(Expr::Bin {
                        op: if name == "min" {
                            FloatBinOp::Min
                        } else {
                            FloatBinOp::Max
                        },
                        lhs: Box::new(a),
                        rhs: Box::new(b),
                    });
                }
                if name == "get_global_id" {
                    self.expect_punct("(")?;
                    let dim = match self.bump()? {
                        Tok::Int(v) if (0..=2).contains(&v) => v as usize,
                        _ => return Err(self.err("get_global_id takes 0, 1 or 2")),
                    };
                    self.expect_punct(")")?;
                    return Ok(Expr::GlobalId(dim));
                }
                // Load: ident [ expr ]
                if self.eat_punct("[") {
                    let index = self.expr()?;
                    self.expect_punct("]")?;
                    return Ok(Expr::Load {
                        buf: name,
                        index: Box::new(index),
                    });
                }
                Ok(Expr::Var(name))
            }
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an expression, found {other:?}")))
            }
        }
    }
}

fn precision(s: &str) -> Option<Precision> {
    match s {
        "half" => Some(Precision::Half),
        "float" => Some(Precision::Single),
        "double" => Some(Precision::Double),
        _ => None,
    }
}

fn scalar_type(s: &str) -> Option<ScalarType> {
    match s {
        "long" => Some(ScalarType::Int),
        _ => precision(s).map(ScalarType::Float),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::print::kernel_to_string;
    use crate::typeck::check_kernel;

    #[test]
    fn parses_a_hand_written_kernel() {
        let src = r"
            __kernel void saxpy(const __global float* x, __global float* y,
                                float a, long n) {
                long i = get_global_id(0);
                if (i < n) {
                    y[i] = (a * x[i]) + y[i];
                }
            }
        ";
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.name, "saxpy");
        assert_eq!(k.params.len(), 4);
        assert_eq!(k.buffer_elem("x"), Some(Precision::Single));
        check_kernel(&k).unwrap();
    }

    #[test]
    fn print_parse_print_is_idempotent_on_gemm_like_kernels() {
        let k = kernel("gemm")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .float_param("alpha", Precision::Double)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    lt(var("i"), var("n")),
                    vec![
                        let_ty("acc", Precision::Double, flit(0.0)),
                        for_(
                            "k",
                            int(0),
                            var("n"),
                            vec![add_assign(
                                "acc",
                                load("a", var("i") * var("n") + var("k"))
                                    * load("b", var("k") * var("n") + var("j")),
                            )],
                        ),
                        store(
                            "c",
                            var("i") * var("n") + var("j"),
                            var("alpha") * var("acc")
                                + select(
                                    gt(var("acc"), flit(0.5)),
                                    cast(Precision::Half, var("acc")),
                                    flit(0.25),
                                ),
                        ),
                    ],
                ),
            ]);
        let printed = kernel_to_string(&k);
        let parsed = parse_kernel(&printed).unwrap();
        check_kernel(&parsed).unwrap();
        let reprinted = kernel_to_string(&parsed);
        assert_eq!(printed, reprinted, "printing must be a fixed point");
    }

    #[test]
    fn parsed_kernel_executes_like_the_original() {
        use crate::interp::{run_kernel, BufferMap, Launch};
        use crate::FloatVec;
        let original = kernel("scale")
            .buffer("x", Precision::Single, Access::ReadWrite)
            .float_param("a", Precision::Single)
            .body(vec![
                let_("i", global_id(0)),
                store(
                    "x",
                    var("i"),
                    min2(load("x", var("i")) * var("a") + flit(1.0), flit(100.0)),
                ),
            ]);
        let parsed = parse_kernel(&kernel_to_string(&original)).unwrap();
        let run = |k: &Kernel| {
            let mut bufs = BufferMap::new();
            bufs.insert(
                "x".into(),
                FloatVec::from_f64_slice(&[1.5, -2.0, 80.0], Precision::Single),
            );
            run_kernel(k, &mut bufs, &Launch::one_d(3).arg_float("a", 2.0)).unwrap();
            bufs.remove("x").unwrap()
        };
        assert_eq!(run(&original), run(&parsed));
    }

    #[test]
    fn program_header_names_the_program() {
        let p = Program::new("myprog").with_kernel(
            kernel("k")
                .buffer("x", Precision::Double, Access::ReadWrite)
                .body(vec![store("x", int(0), flit(1.0))]),
        );
        let printed = crate::print::program_to_string(&p);
        let parsed = parse_program(&printed).unwrap();
        assert_eq!(parsed.name, "myprog");
        assert_eq!(parsed.kernels.len(), 1);
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let src = "__kernel void k() {\n    long i = @;\n}";
        let e = parse_kernel(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unexpected character"), "{e}");
    }

    #[test]
    fn rejects_malformed_loops() {
        let src = "__kernel void k(__global float* x) {\n for (long i = 0; j < 4; ++i) { x[i] = 1.0; }\n}";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("condition variable"), "{e}");
    }

    #[test]
    fn casts_and_parens_disambiguate() {
        let src = r"
            __kernel void k(__global double* x) {
                long i = get_global_id(0);
                x[i] = (half)((x[i] + 1.0)) * (x[i] - 1.0);
            }
        ";
        let k = parse_kernel(src).unwrap();
        check_kernel(&k).unwrap();
        let printed = kernel_to_string(&k);
        assert!(printed.contains("(half)("), "{printed}");
    }

    #[test]
    fn float_literal_forms() {
        let src = r"
            __kernel void k(__global double* x) {
                x[0] = 1.5e3;
                x[1] = 0.25;
                x[2] = 2.0;
            }
        ";
        let k = parse_kernel(src).unwrap();
        match &k.body[0] {
            Stmt::Store { value, .. } => assert_eq!(value, &Expr::FloatConst(1500.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_polybench_style_shape_round_trips() {
        // A kernel exercising every statement and expression form.
        let k = kernel("omni")
            .buffer("a", Precision::Half, Access::Read)
            .buffer("c", Precision::Single, Access::ReadWrite)
            .int_param("n")
            .float_param("beta", Precision::Single)
            .body(vec![
                let_("i", global_id(0)),
                let_("jj", global_id(1)),
                let_ty("t", Precision::Single, flit(0.0)),
                for_(
                    "k",
                    int(0),
                    var("n"),
                    vec![
                        assign("t", var("t") + cast(Precision::Single, load("a", var("k")))),
                        if_else(
                            le(var("k"), int(2)),
                            vec![store("c", var("k"), sqrt(fabs(var("t"))))],
                            vec![store("c", var("k"), exp(var("t") / var("beta")))],
                        ),
                    ],
                ),
                store(
                    "c",
                    var("i") + var("jj"),
                    max2(var("t"), -load("c", var("i"))),
                ),
            ]);
        let printed = kernel_to_string(&k);
        let parsed = parse_kernel(&printed).unwrap();
        check_kernel(&parsed).unwrap();
        assert_eq!(printed, kernel_to_string(&parsed));
    }
}
