//! SELECT execution.
//!
//! Pipeline: scan → WHERE → (GROUP BY + aggregate | plain project) →
//! HAVING → ORDER BY → LIMIT. Aggregation materializes groups in first-seen
//! order (deterministic output without ORDER BY).

use crate::ast::*;
use crate::catalog::Catalog;
use crate::SqlError;
use aida_data::{Schema, Table, Value};
use std::collections::HashMap;

/// Executes a parsed query against a catalog.
pub fn execute_query(query: &Query, catalog: &Catalog) -> Result<Table, SqlError> {
    let (schema, input_rows) = build_input(query, catalog)?;

    // WHERE
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for row in input_rows {
        let keep = match &query.filter {
            Some(pred) => eval(pred, &schema, &row)?.truthy(),
            None => true,
        };
        if keep {
            rows.push(row);
        }
    }
    let row_refs: Vec<&Vec<Value>> = rows.iter().collect();

    let is_aggregate = !query.group_by.is_empty()
        || query.items.iter().any(|item| match item {
            SelectItem::Expr(e, _) => e.has_aggregate(),
            SelectItem::Wildcard => false,
        });

    let mut out = if is_aggregate {
        execute_aggregate(query, &schema, &row_refs)?
    } else {
        execute_plain(query, &schema, &row_refs)?
    };

    if query.distinct {
        out = dedupe(out);
    }
    // ORDER BY runs over the *output* table; keys may reference output
    // columns (aliases) or, for plain queries, input columns already
    // projected through.
    if !query.order_by.is_empty() {
        out = apply_order(&out, &query.order_by)?;
    }
    if let Some(limit) = query.limit {
        out = truncate(out, limit);
    }
    Ok(out)
}

/// Renders a human-readable description of a query's pipeline, one stage
/// per line (the `EXPLAIN` output).
pub fn explain(query: &Query) -> Vec<String> {
    let mut out = Vec::new();
    match &query.join {
        Some(join) => out.push(format!(
            "HashJoin: {} ⋈ {} ON {} = {}",
            query.table, join.table, join.left_key, join.right_key
        )),
        None => out.push(format!("Scan: {}", query.table)),
    }
    if let Some(filter) = &query.filter {
        let mut cols = Vec::new();
        filter.columns(&mut cols);
        out.push(format!("Filter: over columns {cols:?}"));
    }
    if !query.group_by.is_empty() {
        out.push(format!("Aggregate: {} group key(s)", query.group_by.len()));
    } else if query
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr(e, _) if e.has_aggregate()))
    {
        out.push("Aggregate: global".into());
    }
    if query.having.is_some() {
        out.push("Having".into());
    }
    out.push(format!("Project: {} item(s)", query.items.len()));
    if query.distinct {
        out.push("Distinct".into());
    }
    if !query.order_by.is_empty() {
        out.push(format!("Sort: {} key(s)", query.order_by.len()));
    }
    if let Some(n) = query.limit {
        out.push(format!("Limit: {n}"));
    }
    out
}

/// Builds the working input relation: the FROM table, optionally
/// hash-joined with the JOIN table. Join output columns are qualified as
/// `<alias>.<column>`; bare references stay resolvable via
/// [`resolve_col`]'s suffix rule when unambiguous.
fn build_input(query: &Query, catalog: &Catalog) -> Result<(Schema, Vec<Vec<Value>>), SqlError> {
    let left = catalog.get(&query.table)?;
    let Some(join) = &query.join else {
        return Ok((left.schema().clone(), left.rows().to_vec()));
    };
    let right = catalog.get(&join.table)?;
    let left_alias = query.alias.clone().unwrap_or_else(|| query.table.clone());
    let right_alias = join.alias.clone().unwrap_or_else(|| join.table.clone());
    if left_alias == right_alias {
        return Err(SqlError::Eval(format!(
            "both join sides are named '{left_alias}'; alias one of them"
        )));
    }
    let qualify = |alias: &str, schema: &Schema| -> Vec<String> {
        schema
            .names()
            .iter()
            .map(|n| format!("{alias}.{n}"))
            .collect()
    };
    let mut names = qualify(&left_alias, left.schema());
    names.extend(qualify(&right_alias, right.schema()));
    let schema = Schema::of(names);

    // Resolve the key columns against each side.
    let key_idx = |key: &str, alias: &str, side: &Table| -> Result<usize, SqlError> {
        let bare = key.strip_prefix(&format!("{alias}.")).unwrap_or(key);
        side.schema()
            .index_of(bare)
            .ok_or_else(|| SqlError::UnknownColumn(key.to_string()))
    };
    // Accept the keys in either order (ON a.x = b.y or ON b.y = a.x).
    let (lk, rk) = match (
        key_idx(&join.left_key, &left_alias, left),
        key_idx(&join.right_key, &right_alias, right),
    ) {
        (Ok(l), Ok(r)) => (l, r),
        _ => (
            key_idx(&join.right_key, &left_alias, left)?,
            key_idx(&join.left_key, &right_alias, right)?,
        ),
    };

    // Hash join (inner): null keys never match.
    let mut index: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
    for row in right.rows() {
        if let Some(key) = join_key(&row[rk]) {
            index.entry(key).or_default().push(row);
        }
    }
    let mut rows = Vec::new();
    for lrow in left.rows() {
        let Some(key) = join_key(&lrow[lk]) else {
            continue;
        };
        if let Some(matches) = index.get(&key) {
            for rrow in matches {
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                rows.push(combined);
            }
        }
    }
    Ok((schema, rows))
}

/// Canonical hash key for a join value (`Int(2)` and `Float(2.0)` match).
fn join_key(value: &Value) -> Option<String> {
    match value {
        Value::Null => None,
        Value::Int(i) => Some(format!("n:{}", *i as f64)),
        Value::Float(f) => Some(format!("n:{f}")),
        other => Some(format!("s:{other}")),
    }
}

/// Drops duplicate rows, keeping first occurrences.
fn dedupe(table: Table) -> Table {
    let schema = table.schema().clone();
    let mut seen = std::collections::HashSet::new();
    let mut out = Table::new(schema);
    for row in table.rows() {
        let key: String = row
            .iter()
            .map(|v| format!("{}|{v}", v.type_name()))
            .collect::<Vec<_>>()
            .join("\u{1f}");
        if seen.insert(key) {
            out.push_row(row.clone()).expect("same schema");
        }
    }
    out
}

fn output_name(item: &SelectItem, idx: usize) -> String {
    match item {
        SelectItem::Wildcard => unreachable!("wildcard expanded before naming"),
        SelectItem::Expr(expr, alias) => match alias {
            Some(a) => a.clone(),
            None => match expr {
                Expr::Column(c) => c.clone(),
                Expr::Agg(f, _) => format!("{}_{idx}", f.name()),
                _ => format!("expr_{idx}"),
            },
        },
    }
}

fn expand_items(query: &Query, schema: &Schema) -> Vec<(String, Expr)> {
    let mut out = Vec::new();
    for (idx, item) in query.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for field in schema.fields() {
                    out.push((field.name.clone(), Expr::Column(field.name.clone())));
                }
            }
            SelectItem::Expr(expr, _) => {
                out.push((output_name(item, idx), expr.clone()));
            }
        }
    }
    out
}

fn execute_plain(query: &Query, schema: &Schema, rows: &[&Vec<Value>]) -> Result<Table, SqlError> {
    let items = expand_items(query, schema);
    let out_schema = Schema::of(items.iter().map(|(n, _)| n.clone()));
    let mut out = Table::new(out_schema);
    for row in rows {
        let mut cells = Vec::with_capacity(items.len());
        for (_, expr) in &items {
            cells.push(eval(expr, schema, row)?);
        }
        out.push_row(cells)
            .map_err(|e| SqlError::Eval(e.to_string()))?;
    }
    Ok(out)
}

fn execute_aggregate(
    query: &Query,
    schema: &Schema,
    rows: &[&Vec<Value>],
) -> Result<Table, SqlError> {
    // Group rows by the rendered group-key.
    let mut group_order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
    for row in rows {
        let mut key = String::new();
        for g in &query.group_by {
            key.push_str(&eval(g, schema, row)?.to_string());
            key.push('\u{1f}');
        }
        if !groups.contains_key(&key) {
            group_order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }
    // A global aggregate with no GROUP BY has exactly one group — even when
    // the input is empty (COUNT(*) over nothing is 0).
    if query.group_by.is_empty() && group_order.is_empty() {
        group_order.push(String::new());
        groups.insert(String::new(), Vec::new());
    }

    let items = expand_items(query, schema);
    let out_schema = Schema::of(items.iter().map(|(n, _)| n.clone()));
    let mut out = Table::new(out_schema);
    for key in &group_order {
        let members = &groups[key];
        if let Some(having) = &query.having {
            if !eval_agg(having, schema, members)?.truthy() {
                continue;
            }
        }
        let mut cells = Vec::with_capacity(items.len());
        for (_, expr) in &items {
            cells.push(eval_agg(expr, schema, members)?);
        }
        out.push_row(cells)
            .map_err(|e| SqlError::Eval(e.to_string()))?;
    }
    Ok(out)
}

fn apply_order(table: &Table, keys: &[OrderKey]) -> Result<Table, SqlError> {
    let schema = table.schema().clone();
    let mut indexed: Vec<(usize, &Vec<Value>)> = table.rows().iter().enumerate().collect();
    // Pre-compute sort keys (fallible eval outside the comparator).
    let mut sort_keys: Vec<Vec<Value>> = Vec::with_capacity(indexed.len());
    for (_, row) in &indexed {
        let mut ks = Vec::with_capacity(keys.len());
        for key in keys {
            ks.push(eval(&key.expr, &schema, row)?);
        }
        sort_keys.push(ks);
    }
    indexed.sort_by(|(ia, _), (ib, _)| {
        for (k, key) in keys.iter().enumerate() {
            let (a, b) = (&sort_keys[*ia][k], &sort_keys[*ib][k]);
            let ord = a.partial_cmp_value(b).unwrap_or(std::cmp::Ordering::Equal);
            let ord = if key.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        ia.cmp(ib) // stable tiebreak on original position
    });
    let mut out = Table::new(schema);
    for (_, row) in indexed {
        out.push_row(row.clone())
            .map_err(|e| SqlError::Eval(e.to_string()))?;
    }
    Ok(out)
}

fn truncate(table: Table, limit: usize) -> Table {
    let schema = table.schema().clone();
    let mut out = Table::new(schema);
    for row in table.rows().iter().take(limit) {
        out.push_row(row.clone()).expect("same schema");
    }
    out
}

/// Evaluates a scalar expression against one row.
fn eval(expr: &Expr, schema: &Schema, row: &[Value]) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            let idx = resolve_col(schema, name)?;
            Ok(row[idx].clone())
        }
        Expr::Binary(op, l, r) => {
            let lv = eval(l, schema, row)?;
            // Short-circuit AND/OR with SQL-ish null handling (null is falsy).
            match op {
                SqlBinOp::And => {
                    if !lv.truthy() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(eval(r, schema, row)?.truthy()));
                }
                SqlBinOp::Or => {
                    if lv.truthy() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(eval(r, schema, row)?.truthy()));
                }
                _ => {}
            }
            let rv = eval(r, schema, row)?;
            binary(*op, &lv, &rv)
        }
        Expr::Not(e) => Ok(Value::Bool(!eval(e, schema, row)?.truthy())),
        Expr::Neg(e) => match eval(e, schema, row)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Eval(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
        Expr::IsNull(e, negated) => {
            let is_null = eval(e, schema, row)?.is_null();
            Ok(Value::Bool(is_null != *negated))
        }
        Expr::InList(e, items, negated) => {
            let needle = eval(e, schema, row)?;
            let mut found = false;
            for item in items {
                if eval(item, schema, row)?.loose_eq(&needle) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Agg(_, _) => Err(SqlError::Eval(
            "aggregate used outside GROUP BY context".into(),
        )),
        Expr::Func(name, args) => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| eval(a, schema, row))
                .collect::<Result<_, _>>()?;
            scalar_func(name, &values)
        }
    }
}

/// Evaluates an expression that may contain aggregates over a group.
fn eval_agg(expr: &Expr, schema: &Schema, group: &[&Vec<Value>]) -> Result<Value, SqlError> {
    match expr {
        Expr::Agg(func, arg) => {
            let values: Vec<Value> = match arg {
                None => return Ok(Value::Int(group.len() as i64)),
                Some(a) => group
                    .iter()
                    .map(|row| eval(a, schema, row))
                    .collect::<Result<_, _>>()?,
            };
            let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
            match func {
                AggFunc::Count => Ok(Value::Int(non_null.len() as i64)),
                AggFunc::Sum | AggFunc::Avg => {
                    if non_null.is_empty() {
                        return Ok(Value::Null);
                    }
                    let mut sum = 0f64;
                    let mut all_int = true;
                    for v in &non_null {
                        match v {
                            Value::Int(i) => sum += *i as f64,
                            Value::Float(f) => {
                                all_int = false;
                                sum += f;
                            }
                            other => {
                                return Err(SqlError::Eval(format!(
                                    "cannot {} over {}",
                                    func.name(),
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    if *func == AggFunc::Avg {
                        Ok(Value::Float(sum / non_null.len() as f64))
                    } else if all_int {
                        Ok(Value::Int(sum as i64))
                    } else {
                        Ok(Value::Float(sum))
                    }
                }
                AggFunc::Min | AggFunc::Max => {
                    let mut best: Option<&Value> = None;
                    for v in &non_null {
                        best = Some(match best {
                            None => v,
                            Some(b) => {
                                let ord = v
                                    .partial_cmp_value(b)
                                    .ok_or_else(|| SqlError::Eval("incomparable values".into()))?;
                                let take = if *func == AggFunc::Min {
                                    ord.is_lt()
                                } else {
                                    ord.is_gt()
                                };
                                if take {
                                    v
                                } else {
                                    b
                                }
                            }
                        });
                    }
                    Ok(best.cloned().unwrap_or(Value::Null))
                }
            }
        }
        Expr::Binary(op, l, r) => {
            let lv = eval_agg(l, schema, group)?;
            match op {
                SqlBinOp::And => {
                    if !lv.truthy() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(eval_agg(r, schema, group)?.truthy()));
                }
                SqlBinOp::Or => {
                    if lv.truthy() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(eval_agg(r, schema, group)?.truthy()));
                }
                _ => {}
            }
            let rv = eval_agg(r, schema, group)?;
            binary(*op, &lv, &rv)
        }
        Expr::Not(e) => Ok(Value::Bool(!eval_agg(e, schema, group)?.truthy())),
        Expr::Neg(e) => match eval_agg(e, schema, group)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Eval(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
        Expr::Func(name, args) => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| eval_agg(a, schema, group))
                .collect::<Result<_, _>>()?;
            scalar_func(name, &values)
        }
        // Non-aggregate leaves evaluate against the group's first row
        // (grouping columns are constant within a group).
        other => match group.first() {
            Some(row) => eval(other, schema, row),
            None => Ok(Value::Null),
        },
    }
}

fn binary(op: SqlBinOp, l: &Value, r: &Value) -> Result<Value, SqlError> {
    use SqlBinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) if op != Div => {
                    let result = match op {
                        Add => a.checked_add(*b),
                        Sub => a.checked_sub(*b),
                        Mul => a.checked_mul(*b),
                        Mod => {
                            if *b == 0 {
                                return Err(SqlError::Eval("modulo by zero".into()));
                            }
                            Some(a.rem_euclid(*b))
                        }
                        _ => unreachable!(),
                    };
                    result
                        .map(Value::Int)
                        .ok_or_else(|| SqlError::Eval("integer overflow".into()))
                }
                (Value::Str(a), Value::Str(b)) if op == Add => {
                    Ok(Value::Str(format!("{a}{b}").into()))
                }
                _ => {
                    let a = l.as_float().map_err(|_| type_mismatch(op, l, r))?;
                    let b = r.as_float().map_err(|_| type_mismatch(op, l, r))?;
                    match op {
                        Add => Ok(Value::Float(a + b)),
                        Sub => Ok(Value::Float(a - b)),
                        Mul => Ok(Value::Float(a * b)),
                        Div => {
                            if b == 0.0 {
                                Err(SqlError::Eval("division by zero".into()))
                            } else {
                                Ok(Value::Float(a / b))
                            }
                        }
                        Mod => Err(SqlError::Eval("'%' needs integers".into())),
                        _ => unreachable!(),
                    }
                }
            }
        }
        Eq => Ok(Value::Bool(l.loose_eq(r))),
        NotEq => Ok(Value::Bool(!l.loose_eq(r))),
        Lt | LtEq | Gt | GtEq => {
            let ord = l
                .partial_cmp_value(r)
                .ok_or_else(|| type_mismatch(op, l, r))?;
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                LtEq => ord.is_le(),
                Gt => ord.is_gt(),
                _ => ord.is_ge(),
            }))
        }
        Like => {
            let text = l.as_str().map_err(|_| type_mismatch(op, l, r))?;
            let pattern = r.as_str().map_err(|_| type_mismatch(op, l, r))?;
            Ok(Value::Bool(like_match(pattern, text)))
        }
        And | Or => unreachable!("short-circuited by callers"),
    }
}

/// Resolves a (possibly qualified) column name against a schema:
/// 1. exact match;
/// 2. a unique field whose `alias.name` suffix matches a bare name;
/// 3. the bare part of a qualified name, when the qualifier has been
///    stripped by projection.
fn resolve_col(schema: &Schema, name: &str) -> Result<usize, SqlError> {
    if let Some(idx) = schema.index_of(name) {
        return Ok(idx);
    }
    if !name.contains('.') {
        let suffix = format!(".{name}");
        let matches: Vec<usize> = schema
            .names()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.ends_with(&suffix))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => return Ok(matches[0]),
            0 => {}
            _ => {
                return Err(SqlError::Eval(format!(
                    "column '{name}' is ambiguous across the join"
                )))
            }
        }
    } else if let Some((_, bare)) = name.split_once('.') {
        if let Some(idx) = schema.index_of(bare) {
            return Ok(idx);
        }
    }
    Err(SqlError::UnknownColumn(name.to_string()))
}

fn type_mismatch(op: SqlBinOp, l: &Value, r: &Value) -> SqlError {
    SqlError::Eval(format!(
        "cannot apply {op:?} to {} and {}",
        l.type_name(),
        r.type_name()
    ))
}

fn scalar_func(name: &str, args: &[Value]) -> Result<Value, SqlError> {
    let arity = |n: usize| -> Result<(), SqlError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Eval(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "ABS" => {
            arity(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                Value::Null => Ok(Value::Null),
                other => Err(SqlError::Eval(format!("ABS of {}", other.type_name()))),
            }
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(SqlError::Eval("ROUND expects 1 or 2 arguments".into()));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let v = args[0]
                .as_float()
                .map_err(|_| SqlError::Eval("ROUND of non-number".into()))?;
            let digits = if args.len() == 2 {
                args[1]
                    .as_int()
                    .map_err(|_| SqlError::Eval("ROUND digits must be int".into()))?
            } else {
                0
            };
            let scale = 10f64.powi(digits as i32);
            Ok(Value::Float((v * scale).round() / scale))
        }
        "LOWER" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Str(s) => Value::Str(s.to_lowercase().into()),
                Value::Null => Value::Null,
                other => return Err(SqlError::Eval(format!("LOWER of {}", other.type_name()))),
            })
        }
        "UPPER" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Str(s) => Value::Str(s.to_uppercase().into()),
                Value::Null => Value::Null,
                other => return Err(SqlError::Eval(format!("UPPER of {}", other.type_name()))),
            })
        }
        "LENGTH" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Str(s) => Value::Int(s.chars().count() as i64),
                Value::Null => Value::Null,
                other => return Err(SqlError::Eval(format!("LENGTH of {}", other.type_name()))),
            })
        }
        other => Err(SqlError::Eval(format!("unknown function {other}"))),
    }
}

/// SQL LIKE matching: `%` matches any run, `_` matches one character.
fn like_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Try matching zero or more characters.
                (0..=t.len()).any(|skip| rec(&p[1..], &t[skip..]))
            }
            Some('_') => !t.is_empty() && rec(&p[1..], &t[1..]),
            Some(c) => !t.is_empty() && t[0].eq_ignore_ascii_case(c) && rec(&p[1..], &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    rec(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;

    fn reports() -> Catalog {
        let mut t = Table::new(Schema::of(["year", "state", "thefts"]));
        let rows = [
            (2001, "AL", 1_000),
            (2001, "AK", 200),
            (2024, "AL", 9_000),
            (2024, "AK", 1_500),
            (2024, "AZ", 12_000),
        ];
        for (y, s, n) in rows {
            t.push_row(vec![Value::Int(y), Value::Str(s.into()), Value::Int(n)])
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.register("reports", t);
        cat
    }

    #[test]
    fn where_and_projection() {
        let out = execute(
            "SELECT state, thefts FROM reports WHERE year = 2024",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().names(), vec!["state", "thefts"]);
    }

    #[test]
    fn wildcard_selects_all_columns() {
        let out = execute("SELECT * FROM reports LIMIT 2", &reports()).unwrap();
        assert_eq!(out.schema().names(), vec!["year", "state", "thefts"]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn group_by_with_aggregates() {
        let out = execute(
            "SELECT year, SUM(thefts) AS total, COUNT(*) AS n FROM reports GROUP BY year",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let year = |y: i64| {
            out.rows()
                .iter()
                .find(|r| r[0] == Value::Int(y))
                .unwrap()
                .clone()
        };
        assert_eq!(year(2001)[1], Value::Int(1_200));
        assert_eq!(year(2024)[1], Value::Int(22_500));
        assert_eq!(year(2024)[2], Value::Int(3));
    }

    #[test]
    fn having_filters_groups() {
        let out = execute(
            "SELECT year, SUM(thefts) AS total FROM reports GROUP BY year HAVING SUM(thefts) > 2000",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "year"), Some(&Value::Int(2024)));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let out = execute("SELECT COUNT(*), AVG(thefts) FROM reports", &reports()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(5));
        assert_eq!(out.rows()[0][1], Value::Float(4_740.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let out = execute("SELECT COUNT(*) FROM reports WHERE year = 1999", &reports()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
    }

    #[test]
    fn order_by_desc_with_limit() {
        let out = execute(
            "SELECT state, thefts FROM reports WHERE year = 2024 ORDER BY thefts DESC LIMIT 2",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.cell(0, "state"), Some(&Value::Str("AZ".into())));
        assert_eq!(out.cell(1, "state"), Some(&Value::Str("AL".into())));
    }

    #[test]
    fn order_by_multiple_keys_is_stable() {
        let out = execute(
            "SELECT year, state FROM reports ORDER BY year ASC, state ASC",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.cell(0, "state"), Some(&Value::Str("AK".into())));
        assert_eq!(out.cell(0, "year"), Some(&Value::Int(2001)));
    }

    #[test]
    fn arithmetic_in_projection() {
        // The paper's headline query: the 2024/2001 theft ratio.
        let out = execute(
            "SELECT MAX(thefts) / MIN(thefts) AS ratio FROM reports WHERE state = 'AL'",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.cell(0, "ratio"), Some(&Value::Float(9.0)));
    }

    #[test]
    fn like_and_in_and_null_predicates() {
        let out = execute(
            "SELECT state FROM reports WHERE state LIKE 'A%' AND state IN ('AL', 'AZ') AND state IS NOT NULL",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        let out = execute(
            "SELECT state FROM reports WHERE state NOT LIKE 'A%'",
            &reports(),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn like_matching_semantics() {
        assert!(like_match("%theft%", "identity theft reports"));
        assert!(like_match("theft", "THEFT"));
        assert!(like_match("the_t", "theft"));
        assert!(!like_match("theft", "thefts"));
        assert!(like_match("theft%", "thefts"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
    }

    #[test]
    fn scalar_functions() {
        let out = execute(
            "SELECT LOWER(state) s, LENGTH(state) n, ABS(0 - thefts) a, ROUND(thefts / 7, 1) r \
             FROM reports LIMIT 1",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.cell(0, "s"), Some(&Value::Str("al".into())));
        assert_eq!(out.cell(0, "n"), Some(&Value::Int(2)));
        assert_eq!(out.cell(0, "a"), Some(&Value::Int(1000)));
        assert_eq!(out.cell(0, "r"), Some(&Value::Float(142.9)));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        assert!(matches!(
            execute("SELECT a FROM missing", &reports()),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            execute("SELECT missing_col FROM reports", &reports()),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(matches!(
            execute("SELECT thefts / 0 FROM reports", &reports()),
            Err(SqlError::Eval(_))
        ));
    }

    #[test]
    fn nulls_propagate_through_arithmetic_and_skip_aggregates() {
        let mut t = Table::new(Schema::of(["x"]));
        t.push_row(vec![Value::Int(10)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let mut cat = Catalog::new();
        cat.register("t", t);
        let out = execute("SELECT x + 1 FROM t", &cat).unwrap();
        assert_eq!(out.rows()[1][0], Value::Null);
        let out = execute("SELECT COUNT(x), SUM(x), AVG(x) FROM t", &cat).unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(1));
        assert_eq!(out.rows()[0][1], Value::Int(10));
        assert_eq!(out.rows()[0][2], Value::Float(10.0));
    }

    #[test]
    fn aggregate_in_scalar_context_errors() {
        // ORDER BY over a plain (non-aggregate) query cannot use aggregates.
        assert!(execute("SELECT state FROM reports ORDER BY SUM(thefts)", &reports()).is_err());
    }

    fn join_catalog() -> Catalog {
        let mut cat = reports();
        let mut pop = Table::new(Schema::of(["state", "population"]));
        for (s, p) in [("AL", 5_100_000i64), ("AK", 730_000), ("AZ", 7_400_000)] {
            pop.push_row(vec![Value::Str(s.into()), Value::Int(p)])
                .unwrap();
        }
        cat.register("population", pop);
        cat
    }

    #[test]
    fn inner_join_matches_rows() {
        let out = execute(
            "SELECT r.state, r.thefts, p.population FROM reports r \
             JOIN population p ON r.state = p.state WHERE r.year = 2024 \
             ORDER BY r.thefts DESC",
            &join_catalog(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.schema().names(),
            vec!["r.state", "r.thefts", "p.population"]
        );
        assert_eq!(out.cell(0, "r.state"), Some(&Value::Str("AZ".into())));
        assert_eq!(out.cell(0, "p.population"), Some(&Value::Int(7_400_000)));
    }

    #[test]
    fn join_with_computed_projection() {
        // Reports per 100k population: cross-table arithmetic.
        let out = execute(
            "SELECT r.state, ROUND(r.thefts * 100000 / p.population, 1) AS per100k \
             FROM reports r JOIN population p ON r.state = p.state \
             WHERE r.year = 2024 ORDER BY per100k DESC LIMIT 1",
            &join_catalog(),
        )
        .unwrap();
        assert_eq!(out.cell(0, "r.state"), Some(&Value::Str("AK".into())));
        let v = out.cell(0, "per100k").unwrap().as_float().unwrap();
        assert!((v - 205.5).abs() < 0.1, "{v}");
    }

    #[test]
    fn join_without_aliases_uses_table_names() {
        let out = execute(
            "SELECT reports.state, population.population FROM reports \
             JOIN population ON reports.state = population.state LIMIT 1",
            &join_catalog(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn ambiguous_bare_column_in_join_errors() {
        // `state` exists on both sides.
        assert!(matches!(
            execute(
                "SELECT state FROM reports r JOIN population p ON r.state = p.state",
                &join_catalog()
            ),
            Err(SqlError::Eval(msg)) if msg.contains("ambiguous")
        ));
        // Unambiguous bare columns resolve through the join.
        let out = execute(
            "SELECT thefts FROM reports r JOIN population p ON r.state = p.state \
             WHERE year = 2001",
            &join_catalog(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_aggregate_across_tables() {
        let out = execute(
            "SELECT p.state, SUM(r.thefts) AS total FROM reports r \
             JOIN population p ON r.state = p.state \
             GROUP BY p.state ORDER BY total DESC LIMIT 1",
            &join_catalog(),
        )
        .unwrap();
        assert_eq!(out.cell(0, "p.state"), Some(&Value::Str("AZ".into())));
        assert_eq!(out.cell(0, "total"), Some(&Value::Int(12_000)));
    }

    #[test]
    fn join_key_order_is_flexible() {
        let a = execute(
            "SELECT COUNT(*) FROM reports r JOIN population p ON r.state = p.state",
            &join_catalog(),
        )
        .unwrap();
        let b = execute(
            "SELECT COUNT(*) FROM reports r JOIN population p ON p.state = r.state",
            &join_catalog(),
        )
        .unwrap();
        assert_eq!(a.rows()[0][0], b.rows()[0][0]);
    }

    #[test]
    fn join_drops_null_and_unmatched_keys() {
        let mut cat = Catalog::new();
        let mut l = Table::new(Schema::of(["k", "v"]));
        l.push_row(vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        l.push_row(vec![Value::Null, Value::Str("b".into())])
            .unwrap();
        l.push_row(vec![Value::Int(9), Value::Str("c".into())])
            .unwrap();
        let mut r = Table::new(Schema::of(["k", "w"]));
        r.push_row(vec![Value::Float(1.0), Value::Str("x".into())])
            .unwrap();
        cat.register("l", l);
        cat.register("r", r);
        let out = execute("SELECT l.v, r.w FROM l JOIN r ON l.k = r.k", &cat).unwrap();
        // Int(1) matches Float(1.0); Null and 9 drop.
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "l.v"), Some(&Value::Str("a".into())));
    }

    #[test]
    fn same_alias_on_both_sides_errors() {
        assert!(matches!(
            execute("SELECT 1 FROM reports x JOIN population x ON x.state = x.state",
                &join_catalog()),
            Err(SqlError::Eval(msg)) if msg.contains("alias")
        ));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let out = execute(
            "SELECT DISTINCT year FROM reports ORDER BY year",
            &reports(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.cell(0, "year"), Some(&Value::Int(2001)));
        let all = execute("SELECT year FROM reports", &reports()).unwrap();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn distinct_is_type_sensitive() {
        let mut cat = Catalog::new();
        let mut t = Table::new(Schema::of(["x"]));
        t.push_row(vec![Value::Int(1)]).unwrap();
        t.push_row(vec![Value::Str("1".into())]).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        cat.register("t", t);
        let out = execute("SELECT DISTINCT x FROM t", &cat).unwrap();
        assert_eq!(out.len(), 2, "Int(1) and Str(\"1\") are distinct");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn catalog_from(rows: &[(i64, i64)]) -> Catalog {
            let mut t = Table::new(Schema::of(["a", "b"]));
            for (a, b) in rows {
                t.push_row(vec![Value::Int(*a), Value::Int(*b)]).unwrap();
            }
            let mut cat = Catalog::new();
            cat.register("t", t);
            cat
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn where_output_is_subset(rows in prop::collection::vec((0i64..100, 0i64..100), 0..40), threshold in 0i64..100) {
                let cat = catalog_from(&rows);
                let out = execute(&format!("SELECT a, b FROM t WHERE a < {threshold}"), &cat).unwrap();
                prop_assert!(out.len() <= rows.len());
                for row in out.rows() {
                    let a = row[0].as_int().unwrap();
                    prop_assert!(a < threshold);
                    prop_assert!(rows.contains(&(a, row[1].as_int().unwrap())));
                }
            }

            #[test]
            fn order_by_limit_matches_naive_sort(rows in prop::collection::vec((0i64..100, 0i64..100), 0..40), k in 0usize..10) {
                let cat = catalog_from(&rows);
                let out = execute(&format!("SELECT a FROM t ORDER BY a DESC LIMIT {k}"), &cat).unwrap();
                let mut expect: Vec<i64> = rows.iter().map(|(a, _)| *a).collect();
                expect.sort_unstable_by(|x, y| y.cmp(x));
                expect.truncate(k);
                let got: Vec<i64> = out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
                prop_assert_eq!(got, expect);
            }

            #[test]
            fn sum_and_count_match_naive(rows in prop::collection::vec((0i64..100, 0i64..1000), 0..40)) {
                let cat = catalog_from(&rows);
                let out = execute("SELECT COUNT(*) AS n, SUM(b) AS s FROM t", &cat).unwrap();
                prop_assert_eq!(out.cell(0, "n"), Some(&Value::Int(rows.len() as i64)));
                let expect_sum: i64 = rows.iter().map(|(_, b)| *b).sum();
                if rows.is_empty() {
                    prop_assert_eq!(out.cell(0, "s"), Some(&Value::Null));
                } else {
                    prop_assert_eq!(out.cell(0, "s"), Some(&Value::Int(expect_sum)));
                }
            }

            #[test]
            fn distinct_count_matches_naive(rows in prop::collection::vec((0i64..8, 0i64..8), 0..40)) {
                let cat = catalog_from(&rows);
                let out = execute("SELECT DISTINCT a, b FROM t", &cat).unwrap();
                let unique: std::collections::HashSet<(i64, i64)> = rows.iter().copied().collect();
                prop_assert_eq!(out.len(), unique.len());
            }

            #[test]
            fn group_by_partitions_rows(rows in prop::collection::vec((0i64..5, 0i64..100), 1..40)) {
                let cat = catalog_from(&rows);
                let out = execute("SELECT a, COUNT(*) AS n FROM t GROUP BY a", &cat).unwrap();
                let total: i64 = out.rows().iter().map(|r| r[1].as_int().unwrap()).sum();
                prop_assert_eq!(total, rows.len() as i64);
                let groups: std::collections::HashSet<i64> = rows.iter().map(|(a, _)| *a).collect();
                prop_assert_eq!(out.len(), groups.len());
            }

            #[test]
            fn parser_never_panics(text in ".{0,120}") {
                let _ = crate::parser::parse(&text);
            }
        }
    }
}
