//! Recursive-descent parser.
//!
//! Grammar (highest line wins):
//!
//! ```text
//! program    := (stmt NEWLINE?)* EOF
//! block      := NEWLINE INDENT stmt+ DEDENT
//! stmt       := simple | if | while | for | def
//! simple     := assign | augassign | return | break | continue | pass | expr
//! expr       := or_expr
//! or_expr    := and_expr ("or" and_expr)*
//! and_expr   := not_expr ("and" not_expr)*
//! not_expr   := "not" not_expr | comparison
//! comparison := arith (("=="|"!="|"<"|"<="|">"|">="|"in"|"not in") arith)?
//! arith      := term (("+"|"-") term)*
//! term       := unary (("*"|"/"|"//"|"%") unary)*
//! unary      := "-" unary | postfix
//! postfix    := atom (call | index | slice | attr-call)*
//! atom       := literal | name | "(" expr ")" | list | dict
//! ```
//!
//! Nesting is bounded: every expression (so every parenthesis, literal,
//! argument and subscript), every `-`/`not` in a chain, every block and
//! every link of a left-associative chain (`a + b`, `x[0][1]`) counts a
//! level, and a program deeper than `MAX_NESTING` levels is a parse
//! error. The recursive passes after the parser inherit the bound, so
//! no source can exhaust a thread's stack.

use crate::ast::*;
use crate::error::ScriptError;
use crate::lexer::{lex, Tok, Token};

/// The deepest nesting [`parse`] accepts. A program at this depth
/// parses, typechecks, compiles and is analyzed on a 2 MiB thread in an
/// unoptimized build, where each level costs about 24 KiB of stack.
const MAX_NESTING: usize = 64;

/// Parses Pyrite source into a [`Program`].
pub fn parse(source: &str) -> Result<Program, ScriptError> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        peak: 0,
    };
    parser.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Open nesting levels (see `MAX_NESTING`).
    depth: usize,
    /// The deepest level the innermost chain's tree reaches.
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn col(&self) -> usize {
        self.tokens[self.pos].col
    }

    fn advance(&mut self) -> Tok {
        let tok = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn eat(&mut self, expected: &Tok) -> bool {
        if self.peek() == expected {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, expected: Tok, what: &str) -> Result<(), ScriptError> {
        if self.peek() == &expected {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ScriptError {
        ScriptError::Parse {
            line: self.line(),
            col: self.col(),
            message,
        }
    }

    /// Runs `rule` one nesting level deeper, or fails past the budget.
    fn nested<T>(
        &mut self,
        rule: impl FnOnce(&mut Self) -> Result<T, ScriptError>,
    ) -> Result<T, ScriptError> {
        self.depth = self.reach(self.depth + 1)?;
        let out = rule(self);
        self.depth -= 1;
        out
    }

    /// Records that the tree reaches `level`, or fails past the budget.
    fn reach(&mut self, level: usize) -> Result<usize, ScriptError> {
        if level > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.peak = self.peak.max(level);
        Ok(level)
    }

    /// `rule (op rule)*`, left-associative. While it runs, `peak` is the
    /// level the tree built so far reaches, and each link sits one above.
    fn chain(
        &mut self,
        rule: fn(&mut Self) -> Result<Expr, ScriptError>,
        op_of: fn(&Tok) -> Option<BinOp>,
    ) -> Result<Expr, ScriptError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut left = rule(self)?;
        while let Some(op) = op_of(self.peek()) {
            let line = self.line();
            self.advance();
            let right = rule(self)?;
            self.reach(self.peak + 1)?;
            left = Expr {
                kind: ExprKind::Binary(op, Box::new(left), Box::new(right)),
                line,
            };
        }
        self.peak = self.peak.max(outer);
        Ok(left)
    }

    fn program(&mut self) -> Result<Program, ScriptError> {
        let mut body = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            if self.eat(&Tok::Newline) {
                continue;
            }
            body.push(self.stmt()?);
        }
        Ok(Program { body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.nested(Self::block_body)
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.expect(Tok::Colon, "':'")?;
        // Inline single-statement block: `if x: y = 1`
        if !matches!(self.peek(), Tok::Newline) {
            return Ok(vec![self.simple_stmt()?]);
        }
        self.expect(Tok::Newline, "newline")?;
        self.expect(Tok::Indent, "an indented block")?;
        let mut body = Vec::new();
        while !matches!(self.peek(), Tok::Dedent | Tok::Eof) {
            if self.eat(&Tok::Newline) {
                continue;
            }
            body.push(self.stmt()?);
        }
        self.expect(Tok::Dedent, "dedent")?;
        if body.is_empty() {
            return Err(self.err("empty block".into()));
        }
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        match self.peek() {
            Tok::If => self.if_stmt(),
            Tok::While => {
                self.advance();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::While(cond, body),
                    line,
                })
            }
            Tok::For => {
                self.advance();
                let mut vars = vec![self.name("loop variable")?];
                while self.eat(&Tok::Comma) {
                    vars.push(self.name("loop variable")?);
                }
                self.expect(Tok::In, "'in'")?;
                let iter = self.expr()?;
                let body = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::For(vars, iter, body),
                    line,
                })
            }
            Tok::Def => {
                self.advance();
                let name = self.name("function name")?;
                self.expect(Tok::LParen, "'('")?;
                let mut params = Vec::new();
                while !matches!(self.peek(), Tok::RParen) {
                    // Python rejects a repeated parameter name; the
                    // compiler would bind both to one slot.
                    let (param_line, param_col) = (self.line(), self.col());
                    let param = self.name("parameter")?;
                    if params.contains(&param) {
                        return Err(ScriptError::Parse {
                            line: param_line,
                            col: param_col,
                            message: format!("duplicate parameter '{param}' in '{name}'"),
                        });
                    }
                    params.push(param);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RParen, "')'")?;
                let body = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::Def(name, params, body),
                    line,
                })
            }
            _ => {
                let stmt = self.simple_stmt()?;
                // A simple statement at top level is terminated by a newline
                // (already consumed by the caller loop when present).
                Ok(stmt)
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.expect(Tok::If, "'if'")?;
        let mut arms = Vec::new();
        let cond = self.expr()?;
        let body = self.block()?;
        arms.push((cond, body));
        let mut else_body = None;
        loop {
            // Skip newlines between arms.
            while self.eat(&Tok::Newline) {}
            match self.peek() {
                Tok::Elif => {
                    self.advance();
                    let cond = self.expr()?;
                    let body = self.block()?;
                    arms.push((cond, body));
                }
                Tok::Else => {
                    self.advance();
                    else_body = Some(self.block()?);
                    break;
                }
                _ => break,
            }
        }
        Ok(Stmt {
            kind: StmtKind::If(arms, else_body),
            line,
        })
    }

    fn simple_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        match self.peek() {
            Tok::Return => {
                self.advance();
                let value = if matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Dedent) {
                    None
                } else {
                    Some(self.expr()?)
                };
                Ok(Stmt {
                    kind: StmtKind::Return(value),
                    line,
                })
            }
            Tok::Break => {
                self.advance();
                Ok(Stmt {
                    kind: StmtKind::Break,
                    line,
                })
            }
            Tok::Continue => {
                self.advance();
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    line,
                })
            }
            Tok::Pass => {
                self.advance();
                Ok(Stmt {
                    kind: StmtKind::Pass,
                    line,
                })
            }
            _ => {
                let expr = self.expr()?;
                match self.peek() {
                    Tok::Eq => {
                        self.advance();
                        let target = self.to_target(expr)?;
                        let value = self.expr()?;
                        Ok(Stmt {
                            kind: StmtKind::Assign(target, value),
                            line,
                        })
                    }
                    Tok::PlusEq | Tok::MinusEq => {
                        let op = if matches!(self.peek(), Tok::PlusEq) {
                            BinOp::Add
                        } else {
                            BinOp::Sub
                        };
                        self.advance();
                        let target = self.to_target(expr)?;
                        let value = self.expr()?;
                        Ok(Stmt {
                            kind: StmtKind::AugAssign(target, op, value),
                            line,
                        })
                    }
                    _ => Ok(Stmt {
                        kind: StmtKind::Expr(expr),
                        line,
                    }),
                }
            }
        }
    }

    fn to_target(&self, expr: Expr) -> Result<Target, ScriptError> {
        match expr.kind {
            ExprKind::Name(name) => Ok(Target::Name(name)),
            ExprKind::Index(obj, key) => Ok(Target::Index(*obj, *key)),
            _ => Err(ScriptError::Parse {
                line: expr.line,
                col: 0,
                message: "invalid assignment target".into(),
            }),
        }
    }

    fn name(&mut self, what: &str) -> Result<String, ScriptError> {
        match self.peek().clone() {
            Tok::Name(name) => {
                self.advance();
                Ok(name)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr, ScriptError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, ScriptError> {
        self.chain(Self::and_expr, |tok| {
            matches!(tok, Tok::Or).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, ScriptError> {
        self.chain(Self::not_expr, |tok| {
            matches!(tok, Tok::And).then_some(BinOp::And)
        })
    }

    fn not_expr(&mut self) -> Result<Expr, ScriptError> {
        if matches!(self.peek(), Tok::Not) {
            let line = self.line();
            self.advance();
            let operand = self.nested(Self::not_expr)?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnaryOp::Not, Box::new(operand)),
                line,
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, ScriptError> {
        let left = self.arith()?;
        let line = self.line();
        let op = match self.peek() {
            Tok::EqEq => Some(BinOp::Eq),
            Tok::NotEq => Some(BinOp::NotEq),
            Tok::Lt => Some(BinOp::Lt),
            Tok::LtEq => Some(BinOp::LtEq),
            Tok::Gt => Some(BinOp::Gt),
            Tok::GtEq => Some(BinOp::GtEq),
            Tok::In => Some(BinOp::In),
            Tok::Not => {
                // `not in`
                self.advance();
                if !self.eat(&Tok::In) {
                    return Err(self.err("expected 'in' after 'not'".into()));
                }
                let right = self.arith()?;
                return Ok(Expr {
                    kind: ExprKind::Binary(BinOp::NotIn, Box::new(left), Box::new(right)),
                    line,
                });
            }
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.arith()?;
            return Ok(Expr {
                kind: ExprKind::Binary(op, Box::new(left), Box::new(right)),
                line,
            });
        }
        Ok(left)
    }

    fn arith(&mut self) -> Result<Expr, ScriptError> {
        self.chain(Self::term, |tok| match tok {
            Tok::Plus => Some(BinOp::Add),
            Tok::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn term(&mut self) -> Result<Expr, ScriptError> {
        self.chain(Self::unary, |tok| match tok {
            Tok::Star => Some(BinOp::Mul),
            Tok::Slash => Some(BinOp::Div),
            Tok::DoubleSlash => Some(BinOp::FloorDiv),
            Tok::Percent => Some(BinOp::Mod),
            _ => None,
        })
    }

    fn unary(&mut self) -> Result<Expr, ScriptError> {
        if matches!(self.peek(), Tok::Minus) {
            let line = self.line();
            self.advance();
            let operand = self.nested(Self::unary)?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnaryOp::Neg, Box::new(operand)),
                line,
            });
        }
        self.postfix()
    }

    /// `atom (call | index | slice | attr-call)*`: a chain whose links
    /// read their arguments or subscripts.
    fn postfix(&mut self) -> Result<Expr, ScriptError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut expr = self.atom()?;
        loop {
            let line = self.line();
            match self.peek() {
                Tok::LParen => {
                    self.advance();
                    let args = self.call_args()?;
                    expr = Expr {
                        kind: ExprKind::Call(Box::new(expr), args),
                        line,
                    };
                }
                Tok::LBracket => {
                    self.advance();
                    // Either index or slice.
                    let lo = if matches!(self.peek(), Tok::Colon) {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    if self.eat(&Tok::Colon) {
                        let hi = if matches!(self.peek(), Tok::RBracket) {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect(Tok::RBracket, "']'")?;
                        expr = Expr {
                            kind: ExprKind::Slice(Box::new(expr), lo, hi),
                            line,
                        };
                    } else {
                        let key = lo.ok_or_else(|| self.err("empty subscript".into()))?;
                        self.expect(Tok::RBracket, "']'")?;
                        expr = Expr {
                            kind: ExprKind::Index(Box::new(expr), key),
                            line,
                        };
                    }
                }
                Tok::Dot => {
                    self.advance();
                    let method = self.name("method name")?;
                    self.expect(Tok::LParen, "'(' after method name")?;
                    let args = self.call_args()?;
                    expr = Expr {
                        kind: ExprKind::MethodCall(Box::new(expr), method, args),
                        line,
                    };
                }
                _ => break,
            }
            self.reach(self.peak + 1)?;
        }
        self.peak = self.peak.max(outer);
        Ok(expr)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ScriptError> {
        let mut args = Vec::new();
        while !matches!(self.peek(), Tok::RParen) {
            args.push(self.expr()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen, "')'")?;
        Ok(args)
    }

    fn atom(&mut self) -> Result<Expr, ScriptError> {
        let line = self.line();
        let col = self.col();
        let kind = match self.advance() {
            Tok::Int(v) => ExprKind::Int(v),
            Tok::Float(v) => ExprKind::Float(v),
            Tok::Str(s) => ExprKind::Str(s),
            Tok::True => ExprKind::Bool(true),
            Tok::False => ExprKind::Bool(false),
            Tok::None => ExprKind::None,
            Tok::Name(name) => ExprKind::Name(name),
            Tok::LParen => {
                let inner = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                return Ok(inner);
            }
            Tok::LBracket => {
                if matches!(self.peek(), Tok::RBracket) {
                    self.advance();
                    return Ok(Expr {
                        kind: ExprKind::List(Vec::new()),
                        line,
                    });
                }
                let first = self.expr()?;
                if matches!(self.peek(), Tok::For) {
                    // List comprehension.
                    self.advance();
                    let mut vars = vec![self.name("loop variable")?];
                    while self.eat(&Tok::Comma) {
                        vars.push(self.name("loop variable")?);
                    }
                    self.expect(Tok::In, "'in'")?;
                    let iterable = self.expr()?;
                    let condition = if matches!(self.peek(), Tok::If) {
                        self.advance();
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    self.expect(Tok::RBracket, "']'")?;
                    return Ok(Expr {
                        kind: ExprKind::ListComp {
                            element: Box::new(first),
                            vars,
                            iterable: Box::new(iterable),
                            condition,
                        },
                        line,
                    });
                }
                let mut items = vec![first];
                while self.eat(&Tok::Comma) {
                    if matches!(self.peek(), Tok::RBracket) {
                        break;
                    }
                    items.push(self.expr()?);
                }
                self.expect(Tok::RBracket, "']'")?;
                ExprKind::List(items)
            }
            Tok::LBrace => {
                let mut pairs = Vec::new();
                while !matches!(self.peek(), Tok::RBrace) {
                    let key = self.expr()?;
                    self.expect(Tok::Colon, "':'")?;
                    let value = self.expr()?;
                    pairs.push((key, value));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBrace, "'}'")?;
                ExprKind::Dict(pairs)
            }
            other => {
                return Err(ScriptError::Parse {
                    line,
                    col,
                    message: format!("unexpected token {other:?}"),
                })
            }
        };
        Ok(Expr { kind, line })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_assignment_and_expression() {
        let p = parse("x = 1 + 2 * 3").unwrap();
        assert_eq!(p.body.len(), 1);
        match &p.body[0].kind {
            StmtKind::Assign(Target::Name(n), value) => {
                assert_eq!(n, "x");
                // Precedence: 1 + (2 * 3)
                match &value.kind {
                    ExprKind::Binary(BinOp::Add, _, rhs) => {
                        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_elif_else() {
        let src = "if x > 1:\n    a = 1\nelif x > 0:\n    a = 2\nelse:\n    a = 3";
        let p = parse(src).unwrap();
        match &p.body[0].kind {
            StmtKind::If(arms, else_body) => {
                assert_eq!(arms.len(), 2);
                assert!(else_body.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_nested_blocks() {
        let src = "for f in files:\n    if f == target:\n        found = f\n        break";
        let p = parse(src).unwrap();
        match &p.body[0].kind {
            StmtKind::For(vars, _, body) => {
                assert_eq!(vars, &vec!["f".to_string()]);
                assert!(matches!(body[0].kind, StmtKind::If(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_def_and_return() {
        let src = "def ratio(a, b):\n    return a / b";
        let p = parse(src).unwrap();
        match &p.body[0].kind {
            StmtKind::Def(name, params, body) => {
                assert_eq!(name, "ratio");
                assert_eq!(params, &vec!["a".to_string(), "b".to_string()]);
                assert!(matches!(body[0].kind, StmtKind::Return(Some(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_parameters_are_a_parse_error() {
        match parse("def f(a, b, a):\n    return a") {
            Err(ScriptError::Parse { line, col, message }) => {
                assert_eq!((line, col), (1, 13), "{message}");
                assert!(message.contains("duplicate parameter 'a'"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert!(parse("def f(a, a):\n    return a").is_err());
        assert!(parse("def f(a, b):\n    return a").is_ok());
    }

    #[test]
    fn parses_method_calls_and_chains() {
        let p = parse("s.lower().split(\",\")").unwrap();
        match &p.body[0].kind {
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::MethodCall(obj, m, args) => {
                    assert_eq!(m, "split");
                    assert_eq!(args.len(), 1);
                    assert!(matches!(obj.kind, ExprKind::MethodCall(_, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_index_and_slice() {
        let p = parse("a[0]\nb[1:3]\nc[:2]\nd[2:]").unwrap();
        assert!(matches!(
            p.body[0].kind,
            StmtKind::Expr(Expr {
                kind: ExprKind::Index(_, _),
                ..
            })
        ));
        for stmt in &p.body[1..] {
            assert!(matches!(
                stmt.kind,
                StmtKind::Expr(Expr {
                    kind: ExprKind::Slice(_, _, _),
                    ..
                })
            ));
        }
    }

    #[test]
    fn parses_in_and_not_in() {
        let p = parse("x = \"a\" in s and \"b\" not in s").unwrap();
        match &p.body[0].kind {
            StmtKind::Assign(_, e) => match &e.kind {
                ExprKind::Binary(BinOp::And, l, r) => {
                    assert!(matches!(l.kind, ExprKind::Binary(BinOp::In, _, _)));
                    assert!(matches!(r.kind, ExprKind::Binary(BinOp::NotIn, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_index_assignment() {
        let p = parse("d[\"k\"] = 5\nd[\"k\"] += 1").unwrap();
        assert!(matches!(
            p.body[0].kind,
            StmtKind::Assign(Target::Index(_, _), _)
        ));
        assert!(matches!(
            p.body[1].kind,
            StmtKind::AugAssign(Target::Index(_, _), BinOp::Add, _)
        ));
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(parse("1 = 2").is_err());
        assert!(parse("f() = 2").is_err());
    }

    #[test]
    fn parses_dict_and_list_literals() {
        let p = parse("x = {\"a\": 1, \"b\": [1, 2]}").unwrap();
        match &p.body[0].kind {
            StmtKind::Assign(_, e) => assert!(matches!(e.kind, ExprKind::Dict(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_inline_block() {
        let p = parse("if x: y = 1").unwrap();
        match &p.body[0].kind {
            StmtKind::If(arms, _) => assert_eq!(arms[0].1.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_block_is_error() {
        assert!(parse("if x:\n").is_err());
    }

    #[test]
    fn unary_minus_and_not() {
        let p = parse("y = -x + 1\nz = not flag").unwrap();
        assert_eq!(p.body.len(), 2);
    }

    /// Runs `f` on a thread with the default 2 MiB test stack.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .expect("no pass overflows a 2 MiB stack");
    }

    fn is_nesting_error(result: Result<Program, ScriptError>) -> bool {
        matches!(result, Err(ScriptError::Parse { message, .. }) if message.contains("nesting deeper"))
    }

    /// The deepest program `build` makes that still parses: one more
    /// step is a typed nesting error.
    fn deepest(build: fn(usize) -> String) -> String {
        let n = (1..)
            .find(|&n| parse(&build(n)).is_err())
            .expect("some depth fails");
        assert!(is_nesting_error(parse(&build(n))), "{}", build(n));
        build(n - 1)
    }

    #[test]
    fn programs_at_the_nesting_budget_pass_every_pass() {
        let builders: [fn(usize) -> String; 11] = [
            |n| format!("x = {}1{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("x = {}1{}", "[".repeat(n), "]".repeat(n)),
            |n| format!("x = {}1{}", "{'k': ".repeat(n), "}".repeat(n)),
            |n| format!("x = {}[1]{}", "[y for y in ".repeat(n), "]".repeat(n)),
            |n| format!("x = {}1{}", "str(".repeat(n), ")".repeat(n)),
            |n| format!("x = [1]{}", "[0]".repeat(n)),
            |n| format!("x = {}1", "-".repeat(n)),
            |n| format!("x = {}True", "not ".repeat(n)),
            |n| format!("x = {}1", "1 + ".repeat(n)),
            |n| format!("x = {}1{}", "len([-(1 + ".repeat(n), ")])".repeat(n)),
            |n| {
                let mut src = String::new();
                for i in 0..n {
                    src += &format!("{}if True:\n", " ".repeat(i));
                }
                src + &format!("{}x = 1\n", " ".repeat(n))
            },
        ];
        for build in builders {
            let source = deepest(build);
            on_small_stack(move || {
                let program = parse(&source).unwrap();
                crate::typecheck(&program, &crate::TypeEnv::new()).unwrap();
                let compiled = crate::compile(&program).unwrap();
                crate::analyze(&compiled);
            });
        }
    }

    #[test]
    fn deep_inputs_are_typed_parse_errors() {
        let deep = [
            format!("x = {}1{}", "(".repeat(4_000), ")".repeat(4_000)),
            format!("x = {}1{}", "[".repeat(10_000), "]".repeat(10_000)),
            format!("x = {}1", "-".repeat(100_000)),
            format!("x = {}True", "not ".repeat(100_000)),
            format!("x = {}1", "1+".repeat(250_000)),
            format!("x = [1]{}", "[0]".repeat(100_000)),
        ];
        for source in deep {
            on_small_stack(move || assert!(is_nesting_error(parse(&source))));
        }
    }
}
