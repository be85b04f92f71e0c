//! SQL parser (recursive descent over [`crate::lexer`] tokens).
//!
//! Nesting is bounded as in the Pyrite parser: every expression, every
//! `NOT`/`-` in a chain and every link of an `a + b + c` chain count, and
//! a statement deeper than `MAX_NESTING` levels is a parse error.

use crate::ast::*;
use crate::lexer::{lex, SqlTok};
use crate::SqlError;
use aida_data::Value;

/// The deepest expression nesting [`parse`] accepts (the Pyrite
/// parser's budget).
const MAX_NESTING: usize = 64;

/// Parses one SELECT statement.
pub fn parse(sql: &str) -> Result<Query, SqlError> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        peak: 0,
    };
    let query = p.query()?;
    p.expect_eof()?;
    Ok(query)
}

struct Parser {
    tokens: Vec<SqlTok>,
    pos: usize,
    /// Open nesting levels (see `MAX_NESTING`).
    depth: usize,
    /// The deepest level the innermost chain's tree reaches.
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &SqlTok {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> SqlTok {
        let tok = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse(message.into())
    }

    /// Runs `rule` one nesting level deeper, or fails past the budget.
    fn nested<T>(
        &mut self,
        rule: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        self.depth = self.reach(self.depth + 1)?;
        let out = rule(self);
        self.depth -= 1;
        out
    }

    /// Records that the tree reaches `level`, or fails past the budget.
    fn reach(&mut self, level: usize) -> Result<usize, SqlError> {
        if level > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.peak = self.peak.max(level);
        Ok(level)
    }

    /// `rule (op rule)*`, left-associative; `op_of` consumes an operator
    /// when it sees one. While it runs, `peak` is the level the tree built
    /// so far reaches, and each link sits one above.
    fn chain(
        &mut self,
        rule: fn(&mut Self) -> Result<Expr, SqlError>,
        op_of: fn(&mut Self) -> Option<SqlBinOp>,
    ) -> Result<Expr, SqlError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut left = rule(self)?;
        while let Some(op) = op_of(self) {
            let right = rule(self)?;
            self.reach(self.peak + 1)?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        self.peak = self.peak.max(outer);
        Ok(left)
    }

    /// Case-insensitive keyword check (does not consume).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), SqlTok::Ident(w) if w.eq_ignore_ascii_case(kw))
    }

    /// Consumes a keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_tok(&mut self, tok: SqlTok, what: &str) -> Result<(), SqlError> {
        if self.peek() == &tok {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        if matches!(self.peek(), SqlTok::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, SqlError> {
        match self.advance() {
            SqlTok::Ident(name) => Ok(name),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query, SqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut items = Vec::new();
        loop {
            if matches!(self.peek(), SqlTok::Star) {
                self.advance();
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.ident("alias")?)
                } else if let SqlTok::Ident(w) = self.peek() {
                    // Bare alias, unless it's a clause keyword.
                    let upper = w.to_ascii_uppercase();
                    if matches!(
                        upper.as_str(),
                        "FROM" | "WHERE" | "GROUP" | "HAVING" | "ORDER" | "LIMIT"
                    ) {
                        None
                    } else {
                        Some(self.ident("alias")?)
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr(expr, alias));
            }
            if !matches!(self.peek(), SqlTok::Comma) {
                break;
            }
            self.advance();
        }
        self.expect_keyword("FROM")?;
        let table = self.ident("table name")?;
        let alias = self.bare_alias();
        // Outer/cross joins are unsupported: reject them explicitly rather
        // than letting the join word parse as a table alias.
        for unsupported in ["LEFT", "RIGHT", "FULL", "OUTER", "CROSS"] {
            if self.at_keyword(unsupported) {
                return Err(self.err(format!(
                    "{unsupported} JOIN is not supported (only [INNER] JOIN)"
                )));
            }
        }
        let join = if self.eat_keyword("JOIN")
            || (self.eat_keyword("INNER") && self.expect_keyword("JOIN").map(|_| true)?)
        {
            let join_table = self.ident("join table name")?;
            let join_alias = self.bare_alias();
            self.expect_keyword("ON")?;
            let left_key = self.column_ref()?;
            self.expect_tok(SqlTok::Eq, "'=' in join condition")?;
            let right_key = self.column_ref()?;
            Some(JoinClause {
                table: join_table,
                alias: join_alias,
                left_key,
                right_key,
            })
        } else {
            None
        };
        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !matches!(self.peek(), SqlTok::Comma) {
                    break;
                }
                self.advance();
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !matches!(self.peek(), SqlTok::Comma) {
                    break;
                }
                self.advance();
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                SqlTok::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(self.err(format!("bad LIMIT value {other:?}"))),
            }
        } else {
            None
        };
        Ok(Query {
            distinct,
            items,
            table,
            alias,
            join,
            filter,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// A bare (non-keyword) alias after a table name.
    fn bare_alias(&mut self) -> Option<String> {
        if let SqlTok::Ident(w) = self.peek() {
            let upper = w.to_ascii_uppercase();
            if !matches!(
                upper.as_str(),
                "WHERE"
                    | "GROUP"
                    | "HAVING"
                    | "ORDER"
                    | "LIMIT"
                    | "JOIN"
                    | "INNER"
                    | "ON"
                    | "LEFT"
                    | "RIGHT"
                    | "FULL"
                    | "OUTER"
                    | "CROSS"
            ) {
                let name = w.clone();
                self.advance();
                return Some(name);
            }
        }
        None
    }

    /// A possibly-qualified column reference (`col` or `alias.col`).
    fn column_ref(&mut self) -> Result<String, SqlError> {
        let mut name = self.ident("column name")?;
        if matches!(self.peek(), SqlTok::Dot) {
            self.advance();
            let col = self.ident("column name")?;
            name = format!("{name}.{col}");
        }
        Ok(name)
    }

    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        self.chain(Self::and_expr, |p| {
            p.eat_keyword("OR").then_some(SqlBinOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        self.chain(Self::not_expr, |p| {
            p.eat_keyword("AND").then_some(SqlBinOp::And)
        })
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_keyword("NOT") {
            let inner = self.nested(Self::not_expr)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull(Box::new(left), negated));
        }
        // [NOT] IN / [NOT] LIKE
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            self.expect_tok(SqlTok::LParen, "'('")?;
            let mut items = Vec::new();
            loop {
                items.push(self.expr()?);
                if !matches!(self.peek(), SqlTok::Comma) {
                    break;
                }
                self.advance();
            }
            self.expect_tok(SqlTok::RParen, "')'")?;
            return Ok(Expr::InList(Box::new(left), items, negated));
        }
        if self.eat_keyword("LIKE") {
            let pattern = self.additive()?;
            let like = Expr::Binary(SqlBinOp::Like, Box::new(left), Box::new(pattern));
            return Ok(if negated {
                Expr::Not(Box::new(like))
            } else {
                like
            });
        }
        if negated {
            return Err(self.err("expected IN or LIKE after NOT"));
        }
        let op = self.op_in(&[
            (SqlTok::Eq, SqlBinOp::Eq),
            (SqlTok::NotEq, SqlBinOp::NotEq),
            (SqlTok::Lt, SqlBinOp::Lt),
            (SqlTok::LtEq, SqlBinOp::LtEq),
            (SqlTok::Gt, SqlBinOp::Gt),
            (SqlTok::GtEq, SqlBinOp::GtEq),
        ]);
        if let Some(op) = op {
            let right = self.additive()?;
            return Ok(Expr::Binary(op, Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        self.chain(Self::multiplicative, |p| {
            p.op_in(&[
                (SqlTok::Plus, SqlBinOp::Add),
                (SqlTok::Minus, SqlBinOp::Sub),
            ])
        })
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        self.chain(Self::unary, |p| {
            p.op_in(&[
                (SqlTok::Star, SqlBinOp::Mul),
                (SqlTok::Slash, SqlBinOp::Div),
                (SqlTok::Percent, SqlBinOp::Mod),
            ])
        })
    }

    /// Consumes the next token when `ops` maps it to an operator.
    fn op_in(&mut self, ops: &[(SqlTok, SqlBinOp)]) -> Option<SqlBinOp> {
        let &(_, op) = ops.iter().find(|(tok, _)| tok == self.peek())?;
        self.advance();
        Some(op)
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if matches!(self.peek(), SqlTok::Minus) {
            self.advance();
            let inner = self.nested(Self::unary)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, SqlError> {
        match self.advance() {
            SqlTok::Int(v) => Ok(Expr::Literal(Value::Int(v))),
            SqlTok::Float(v) => Ok(Expr::Literal(Value::Float(v))),
            SqlTok::Str(s) => Ok(Expr::Literal(Value::Str(s.into()))),
            SqlTok::LParen => {
                let inner = self.expr()?;
                self.expect_tok(SqlTok::RParen, "')'")?;
                Ok(inner)
            }
            SqlTok::Ident(word) => {
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => return Ok(Expr::Literal(Value::Null)),
                    "TRUE" => return Ok(Expr::Literal(Value::Bool(true))),
                    "FALSE" => return Ok(Expr::Literal(Value::Bool(false))),
                    _ => {}
                }
                if matches!(self.peek(), SqlTok::Dot) {
                    // Qualified column: alias.col
                    self.advance();
                    let col = self.ident("column name")?;
                    return Ok(Expr::Column(format!("{word}.{col}")));
                }
                if matches!(self.peek(), SqlTok::LParen) {
                    self.advance();
                    if let Some(agg) = AggFunc::parse(&word) {
                        // COUNT(*) or AGG(expr)
                        if matches!(self.peek(), SqlTok::Star) {
                            self.advance();
                            self.expect_tok(SqlTok::RParen, "')'")?;
                            if agg != AggFunc::Count {
                                return Err(self.err(format!("{}(*) is not valid", agg.name())));
                            }
                            return Ok(Expr::Agg(AggFunc::Count, None));
                        }
                        let arg = self.expr()?;
                        self.expect_tok(SqlTok::RParen, "')'")?;
                        return Ok(Expr::Agg(agg, Some(Box::new(arg))));
                    }
                    // Scalar function.
                    let mut args = Vec::new();
                    if !matches!(self.peek(), SqlTok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !matches!(self.peek(), SqlTok::Comma) {
                                break;
                            }
                            self.advance();
                        }
                    }
                    self.expect_tok(SqlTok::RParen, "')'")?;
                    return Ok(Expr::Func(upper, args));
                }
                Ok(Expr::Column(word))
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_query() {
        let q = parse(
            "SELECT state, SUM(thefts) AS total FROM reports \
             WHERE year = 2024 AND state != 'PR' \
             GROUP BY state HAVING SUM(thefts) > 100 \
             ORDER BY total DESC LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.table, "reports");
        assert_eq!(q.items.len(), 2);
        assert!(q.filter.is_some());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn parses_wildcard_and_count_star() {
        let q = parse("SELECT *, COUNT(*) FROM t").unwrap();
        assert_eq!(q.items[0], SelectItem::Wildcard);
        assert!(matches!(
            q.items[1],
            SelectItem::Expr(Expr::Agg(AggFunc::Count, None), None)
        ));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select a from t where a > 1 order by a limit 1").is_ok());
    }

    #[test]
    fn parses_like_in_isnull() {
        let q =
            parse("SELECT a FROM t WHERE name LIKE '%theft%' AND a IN (1, 2) AND b IS NOT NULL")
                .unwrap();
        let mut cols = Vec::new();
        q.filter.unwrap().columns(&mut cols);
        assert!(cols.contains(&"name".to_string()));
        assert!(cols.contains(&"b".to_string()));
    }

    #[test]
    fn parses_not_variants() {
        assert!(parse("SELECT a FROM t WHERE a NOT IN (1)").is_ok());
        assert!(parse("SELECT a FROM t WHERE a NOT LIKE 'x%'").is_ok());
        assert!(parse("SELECT a FROM t WHERE NOT a = 1").is_ok());
        assert!(parse("SELECT a FROM t WHERE a NOT b").is_err());
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("SELECT a + b * 2 FROM t").unwrap();
        match &q.items[0] {
            SelectItem::Expr(Expr::Binary(SqlBinOp::Add, _, rhs), _) => {
                assert!(matches!(**rhs, Expr::Binary(SqlBinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_alias_without_as() {
        let q = parse("SELECT a total FROM t").unwrap();
        match &q.items[0] {
            SelectItem::Expr(_, Some(alias)) => assert_eq!(alias, "total"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a").is_err());
        assert!(parse("SELECT a FROM t extra garbage ,").is_err());
        assert!(parse("SUM(*) wrong").is_err());
        assert!(parse("SELECT AVG(*) FROM t").is_err());
    }

    #[test]
    fn scalar_functions_parse() {
        let q = parse("SELECT ROUND(a / b, 2), LOWER(name) FROM t").unwrap();
        assert!(
            matches!(&q.items[0], SelectItem::Expr(Expr::Func(f, args), _)
            if f == "ROUND" && args.len() == 2)
        );
    }

    #[test]
    fn null_true_false_literals() {
        let q = parse("SELECT NULL, TRUE, FALSE FROM t").unwrap();
        assert_eq!(q.items.len(), 3);
        assert!(matches!(
            &q.items[0],
            SelectItem::Expr(Expr::Literal(Value::Null), _)
        ));
    }

    fn is_nesting_error(result: Result<Query, SqlError>) -> bool {
        matches!(result, Err(SqlError::Parse(message)) if message.contains("nesting deeper"))
    }

    #[test]
    fn deep_statements_are_typed_parse_errors() {
        let deep = [
            format!("SELECT {}1{} FROM t", "(".repeat(6_000), ")".repeat(6_000)),
            format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(100_000)),
            format!("SELECT {}1 FROM t", "- ".repeat(100_000)),
            format!("SELECT {}1 FROM t", "1 + ".repeat(250_000)),
            format!(
                "SELECT a FROM t WHERE {}a = 1",
                "a = 1 AND ".repeat(100_000)
            ),
        ];
        for sql in deep {
            assert!(is_nesting_error(parse(&sql)), "{}", &sql[..40]);
        }
    }

    #[test]
    fn statement_at_the_nesting_budget_executes_on_a_small_stack() {
        let build = |n: usize| format!("SELECT {}a{} AS v FROM t", "(-".repeat(n), ")".repeat(n));
        let n = (1..).find(|&n| parse(&build(n)).is_err()).unwrap();
        assert!(is_nesting_error(parse(&build(n))));
        let sql = build(n - 1);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut table = aida_data::Table::new(aida_data::Schema::of(["a"]));
                table.push_row(vec![Value::Int(3)]).unwrap();
                let mut catalog = crate::Catalog::new();
                catalog.register("t", table);
                let out = crate::execute(&sql, &catalog).unwrap();
                assert_eq!(out.len(), 1);
            })
            .unwrap()
            .join()
            .expect("no pass overflows a 2 MiB stack");
    }
}
