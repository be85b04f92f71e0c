//! Abstract syntax tree for Pyrite.

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    /// Membership test (`x in xs`).
    In,
    /// Negated membership (`x not in xs`).
    NotIn,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Expression kind.
    pub kind: ExprKind,
    /// 1-based source line.
    pub line: usize,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `None`.
    None,
    /// Variable reference.
    Name(String),
    /// List display `[a, b, c]`.
    List(Vec<Expr>),
    /// Dict display `{k: v, ...}`.
    Dict(Vec<(Expr, Expr)>),
    /// Binary operation (including `and`/`or`, which short-circuit).
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Function call `f(a, b)`.
    Call(Box<Expr>, Vec<Expr>),
    /// Method call `obj.m(a, b)`.
    MethodCall(Box<Expr>, String, Vec<Expr>),
    /// Subscript `obj[key]`.
    Index(Box<Expr>, Box<Expr>),
    /// List comprehension `[expr for var in iterable if cond]`.
    ListComp {
        /// Element expression.
        element: Box<Expr>,
        /// Loop variable(s) (multiple names unpack).
        vars: Vec<String>,
        /// Source iterable.
        iterable: Box<Expr>,
        /// Optional filter condition.
        condition: Option<Box<Expr>>,
    },
    /// Slice `obj[lo:hi]` (either bound optional).
    Slice(Box<Expr>, Option<Box<Expr>>, Option<Box<Expr>>),
}

impl Expr {
    /// Calls `f` on this expression and every sub-expression, parents
    /// before children, left to right.
    pub(crate) fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match &self.kind {
            ExprKind::List(items) => items.iter().for_each(|e| e.walk(f)),
            ExprKind::Dict(pairs) => pairs.iter().for_each(|(k, v)| {
                k.walk(f);
                v.walk(f);
            }),
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Unary(_, a) => a.walk(f),
            ExprKind::Call(callee, args) | ExprKind::MethodCall(callee, _, args) => {
                callee.walk(f);
                args.iter().for_each(|e| e.walk(f));
            }
            ExprKind::ListComp {
                element,
                iterable,
                condition,
                ..
            } => {
                element.walk(f);
                iterable.walk(f);
                condition.iter().for_each(|c| c.walk(f));
            }
            ExprKind::Slice(obj, lo, hi) => {
                obj.walk(f);
                lo.iter().chain(hi).for_each(|b| b.walk(f));
            }
            _ => {}
        }
    }
}

/// A statement with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Statement kind.
    pub kind: StmtKind,
    /// 1-based source line.
    pub line: usize,
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// `name = …`
    Name(String),
    /// `obj[key] = …`
    Index(Expr, Expr),
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// An expression evaluated for effect (its value becomes the program
    /// result if it is the final statement).
    Expr(Expr),
    /// `target = value`
    Assign(Target, Expr),
    /// `target += value` / `target -= value`
    AugAssign(Target, BinOp, Expr),
    /// `if cond: … elif …: … else: …` — a list of (condition, body) arms
    /// plus an optional else body.
    If(Vec<(Expr, Vec<Stmt>)>, Option<Vec<Stmt>>),
    /// `while cond: …`
    While(Expr, Vec<Stmt>),
    /// `for var[, var2…] in iterable: …` (multiple targets unpack each
    /// element, Python-style).
    For(Vec<String>, Expr, Vec<Stmt>),
    /// `def name(params): …`
    Def(String, Vec<String>, Vec<Stmt>),
    /// `return value?`
    Return(Option<Expr>),
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `pass`
    Pass,
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_construction() {
        let e = Expr {
            kind: ExprKind::Int(1),
            line: 1,
        };
        let b = Expr {
            kind: ExprKind::Binary(
                BinOp::Add,
                Box::new(e.clone()),
                Box::new(Expr {
                    kind: ExprKind::Int(2),
                    line: 1,
                }),
            ),
            line: 1,
        };
        assert!(matches!(b.kind, ExprKind::Binary(BinOp::Add, _, _)));
        assert_eq!(e.line, 1);
    }
}
