//! Name resolution: SQL statements against the catalog.
//!
//! The resolver turns a parsed [`SelectStmt`] into a [`ResolvedSelect`]:
//! every column reference is resolved against the catalog across the
//! whole join chain, only the columns a query actually touches are
//! scanned (projection pruning), and the WHERE clause is split into
//! conjuncts classified by which table they reference — the raw material
//! for predicate pushdown and [`ZoneFilter`] chunk skipping in the
//! physical planner (`sql::physical`).

use super::ast::*;
use crate::error::{DbError, DbResult};
use infera_frame::expr::{BinOp, UnaryFn};
use infera_frame::{AggKind, Expr, Value};
use serde::Serialize;
use std::collections::HashMap;

/// Scan requirements for one table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScanSpec {
    pub table: String,
    /// Columns to read (pruned).
    pub columns: Vec<String>,
}

/// Resolved join description. `scan_idx` indexes [`ResolvedSelect::scans`];
/// join `i` always scans `scans[i + 1]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JoinSpec {
    pub scan_idx: usize,
    pub kind: JoinType,
    /// Left key: *output* column name in the accumulated joined frame.
    pub left_col: String,
    /// Right key: column name in the joined table.
    pub right_col: String,
    /// Which scan the left key column originally came from.
    pub left_scope: usize,
}

/// One aggregate output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggItem {
    pub alias: String,
    pub kind: AggKind,
    /// `None` = COUNT(*).
    pub arg: Option<Expr>,
}

/// Comparison operator of a zone filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

/// Literal side of a zone filter: numeric against min/max zone maps,
/// string against lexicographic zone maps.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ZoneValue {
    Num(f64),
    Str(String),
}

/// A pushed-down `column <cmp> literal` conjunct usable for chunk
/// skipping.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ZoneFilter {
    pub column: String,
    pub op: CmpOp,
    pub value: ZoneValue,
}

impl ZoneFilter {
    /// Can a chunk with the given zone maps possibly contain a satisfying
    /// row? A missing zone map (all-NaN chunks, v1 string chunks) always
    /// "may match".
    pub fn may_match(
        &self,
        zone: Option<crate::storage::ZoneMap>,
        str_zone: Option<&crate::storage::StrZoneMap>,
    ) -> bool {
        match &self.value {
            ZoneValue::Num(v) => {
                let Some(z) = zone else { return true };
                Self::range_may_match(self.op, &z.min, &z.max, v)
            }
            ZoneValue::Str(v) => {
                let Some(z) = str_zone else { return true };
                Self::range_may_match(self.op, z.min.as_str(), z.max.as_str(), v.as_str())
            }
        }
    }

    fn range_may_match<T: PartialOrd + ?Sized>(op: CmpOp, min: &T, max: &T, value: &T) -> bool {
        match op {
            CmpOp::Lt => min < value,
            CmpOp::Le => min <= value,
            CmpOp::Gt => max > value,
            CmpOp::Ge => max >= value,
            CmpOp::Eq => min <= value && value <= max,
        }
    }
}

/// Output shape of the query.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum QueryShape {
    /// Row-wise projection: `(output name, expression)` pairs.
    Projection { items: Vec<(String, Expr)> },
    /// Grouped (or whole-table) aggregation.
    Aggregate {
        /// Group-key outputs `(output name, expression)`; empty for
        /// whole-table aggregates.
        keys: Vec<(String, Expr)>,
        aggs: Vec<AggItem>,
    },
}

/// One top-level AND conjunct of the WHERE clause, classified for
/// pushdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Conjunct {
    /// The conjunct over the fully joined frame (post-join names).
    pub post_join: Expr,
    /// `Some(i)` when every column reference lives in `scans[i]`; `None`
    /// for multi-table or column-free conjuncts (stay residual).
    pub scope: Option<usize>,
    /// The conjunct over scan-local column names (when single-scope).
    pub local: Option<Expr>,
    /// `col <cmp> literal` zone filters extracted from this conjunct
    /// (scan-local names; only when single-scope).
    pub zone: Vec<ZoneFilter>,
}

/// A fully resolved SELECT ready for planning.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResolvedSelect {
    /// Scanned tables; `scans[0]` is the FROM table, `scans[i + 1]` the
    /// table of `joins[i]`.
    pub scans: Vec<ScanSpec>,
    /// Joins in syntactic order.
    pub joins: Vec<JoinSpec>,
    /// Full WHERE predicate over (joined) rows, if any.
    pub predicate: Option<Expr>,
    /// WHERE split at top-level ANDs, classified per table.
    pub conjuncts: Vec<Conjunct>,
    pub shape: QueryShape,
    /// Deduplicate output rows (`SELECT DISTINCT`).
    pub distinct: bool,
    /// Post-aggregation predicate over output columns (`HAVING`).
    pub having: Option<Expr>,
    pub order_by: Vec<(String, bool)>,
    pub limit: Option<usize>,
}

impl ResolvedSelect {
    /// The FROM-table scan.
    pub fn base(&self) -> &ScanSpec {
        &self.scans[0]
    }

    /// Zone filters usable against the base table when nothing was
    /// joined (the naive executor's chunk-skip set).
    pub fn base_zone_filters(&self) -> Vec<ZoneFilter> {
        if !self.joins.is_empty() {
            return Vec::new();
        }
        self.conjuncts
            .iter()
            .filter(|c| c.scope == Some(0))
            .flat_map(|c| c.zone.iter().cloned())
            .collect()
    }
}

/// Catalog access the planner needs.
pub trait Catalog {
    /// Column names of a table, or an unknown-table error.
    fn columns_of(&self, table: &str) -> DbResult<Vec<String>>;
}

/// One table in scope during resolution.
struct Scope {
    table: String,
    cols: Vec<String>,
    /// Columns actually referenced, in first-use order (= scan order).
    used: Vec<String>,
}

struct Resolver {
    scopes: Vec<Scope>,
    /// Per scope: physical column name -> output name after the full
    /// join chain. Filled by [`Resolver::finalize_names`].
    out_names: Vec<HashMap<String, String>>,
}

impl Resolver {
    fn new(scopes: Vec<Scope>) -> Self {
        let n = scopes.len();
        Resolver {
            scopes,
            out_names: vec![HashMap::new(); n],
        }
    }

    /// Which scope a (qualifier, name) reference lives in. Unqualified
    /// names resolve to the first scope (FROM first, then joins in
    /// order) whose schema contains them.
    fn scope_of(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        match qualifier {
            Some(q) => {
                let idx = self
                    .scopes
                    .iter()
                    .position(|s| s.table == q)
                    .ok_or_else(|| {
                        DbError::Plan(format!(
                            "unknown table qualifier '{q}' (tables in scope: {})",
                            self.scopes
                                .iter()
                                .map(|s| s.table.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ))
                    })?;
                if !self.scopes[idx].cols.iter().any(|c| c == name) {
                    return Err(self.unknown(name));
                }
                Ok(idx)
            }
            None => self
                .scopes
                .iter()
                .position(|s| s.cols.iter().any(|c| c == name))
                .ok_or_else(|| self.unknown(name)),
        }
    }

    fn mark(&mut self, scope: usize, name: &str) {
        let used = &mut self.scopes[scope].used;
        if !used.iter().any(|c| c == name) {
            used.push(name.to_string());
        }
    }

    /// Usage pass: mark every column an expression references.
    fn collect_usage(&mut self, e: &SqlExpr) -> DbResult<()> {
        for (qualifier, name) in e.columns() {
            let s = self.scope_of(qualifier.as_deref(), &name)?;
            self.mark(s, &name);
        }
        Ok(())
    }

    /// Usage pass for HAVING: plain columns refer to *output* names (not
    /// table columns), but aggregate arguments do reference the tables.
    fn collect_having_usage(&mut self, e: &SqlExpr) -> DbResult<()> {
        match e {
            SqlExpr::Agg(_, Some(arg)) => self.collect_usage(arg),
            SqlExpr::Binary(a, _, b) => {
                self.collect_having_usage(a)?;
                self.collect_having_usage(b)
            }
            SqlExpr::Neg(a) | SqlExpr::Not(a) => self.collect_having_usage(a),
            _ => Ok(()),
        }
    }

    /// Compute the post-join output name of every used column by
    /// simulating `gather_joined` over the scanned columns: right-side
    /// columns that collide with an accumulated name get the `_right`
    /// suffix; each right join key is dropped, so references to it map
    /// to the surviving left key.
    fn finalize_names(&mut self, joins: &mut [JoinSpec]) -> DbResult<()> {
        let mut cumulative: Vec<String> = self.scopes[0].used.clone();
        for c in &self.scopes[0].used {
            self.out_names[0].insert(c.clone(), c.clone());
        }
        for join in joins.iter_mut() {
            // The left key's cumulative name is known by now: the left
            // scope was finalized in an earlier iteration (or is base).
            let left_out = self.out_names[join.left_scope]
                .get(&join.left_col)
                .cloned()
                .ok_or_else(|| {
                    DbError::Plan(format!(
                        "internal: join left key '{}' was not resolved",
                        join.left_col
                    ))
                })?;
            join.left_col = left_out.clone();
            let s = join.scan_idx;
            let used = self.scopes[s].used.clone();
            for col in used {
                if col == join.right_col {
                    // Dropped by the join; references map to the left key.
                    self.out_names[s].insert(col, left_out.clone());
                    continue;
                }
                let out = if cumulative.iter().any(|n| n == &col) {
                    format!("{col}_right")
                } else {
                    col.clone()
                };
                if cumulative.iter().any(|n| n == &out) {
                    return Err(DbError::Plan(format!(
                        "ambiguous column '{out}' after joining '{}'; alias it away",
                        self.scopes[s].table
                    )));
                }
                cumulative.push(out.clone());
                self.out_names[s].insert(col, out);
            }
        }
        Ok(())
    }

    /// Resolve a (qualifier, name) pair to the output column name after
    /// the whole join chain.
    fn resolve_column(&mut self, qualifier: Option<&str>, name: &str) -> DbResult<String> {
        let s = self.scope_of(qualifier, name)?;
        self.out_names[s].get(name).cloned().ok_or_else(|| {
            DbError::Plan(format!("internal: column '{name}' missed the usage pass"))
        })
    }

    fn unknown(&self, name: &str) -> DbError {
        let all = self.scopes.iter().flat_map(|s| s.cols.iter());
        DbError::UnknownColumn {
            name: name.to_string(),
            suggestion: infera_frame::error::suggest(name, all.map(String::as_str)),
        }
    }

    /// Convert a (non-aggregate) SQL expression to a frame expression
    /// over post-join output names.
    fn to_expr(&mut self, e: &SqlExpr) -> DbResult<Expr> {
        self.convert(e, None)
    }

    /// Convert against the *local* column names of one scan (used for
    /// pushed-down predicates evaluated before the join).
    fn to_local_expr(&mut self, scope: usize, e: &SqlExpr) -> DbResult<Expr> {
        self.convert(e, Some(scope))
    }

    fn convert(&mut self, e: &SqlExpr, local: Option<usize>) -> DbResult<Expr> {
        Ok(match e {
            SqlExpr::Column { qualifier, name } => match local {
                None => Expr::Col(self.resolve_column(qualifier.as_deref(), name)?),
                Some(scope) => {
                    let s = self.scope_of(qualifier.as_deref(), name)?;
                    if s != scope {
                        return Err(DbError::Plan(format!(
                            "internal: column '{name}' does not belong to scan {scope}"
                        )));
                    }
                    Expr::Col(name.clone())
                }
            },
            SqlExpr::Int(v) => Expr::Lit(Value::I64(*v)),
            SqlExpr::Float(v) => Expr::Lit(Value::F64(*v)),
            SqlExpr::Str(s) => Expr::Lit(Value::Str(s.clone())),
            SqlExpr::Bool(b) => Expr::Lit(Value::Bool(*b)),
            SqlExpr::Binary(a, op, b) => {
                let fa = self.convert(a, local)?;
                let fb = self.convert(b, local)?;
                Expr::bin(fa, bin_op(*op), fb)
            }
            SqlExpr::Neg(a) => Expr::Unary(UnaryFn::Neg, Box::new(self.convert(a, local)?)),
            SqlExpr::Not(a) => Expr::Unary(UnaryFn::Not, Box::new(self.convert(a, local)?)),
            SqlExpr::Func(name, args) => {
                let unary = |f: UnaryFn, r: &mut Self, args: &[SqlExpr]| -> DbResult<Expr> {
                    if args.len() != 1 {
                        return Err(DbError::Plan(format!("{name} takes 1 argument")));
                    }
                    Ok(Expr::Unary(f, Box::new(r.convert(&args[0], local)?)))
                };
                match name.as_str() {
                    "abs" => unary(UnaryFn::Abs, self, args)?,
                    "sqrt" => unary(UnaryFn::Sqrt, self, args)?,
                    "ln" | "log" => unary(UnaryFn::Log, self, args)?,
                    "log10" => unary(UnaryFn::Log10, self, args)?,
                    "exp" => unary(UnaryFn::Exp, self, args)?,
                    "floor" => unary(UnaryFn::Floor, self, args)?,
                    "ceil" => unary(UnaryFn::Ceil, self, args)?,
                    "pow" | "power" => {
                        if args.len() != 2 {
                            return Err(DbError::Plan("pow takes 2 arguments".into()));
                        }
                        Expr::bin(
                            self.convert(&args[0], local)?,
                            BinOp::Pow,
                            self.convert(&args[1], local)?,
                        )
                    }
                    "least" => {
                        if args.len() != 2 {
                            return Err(DbError::Plan("least takes 2 arguments".into()));
                        }
                        Expr::Min2(
                            Box::new(self.convert(&args[0], local)?),
                            Box::new(self.convert(&args[1], local)?),
                        )
                    }
                    "greatest" => {
                        if args.len() != 2 {
                            return Err(DbError::Plan("greatest takes 2 arguments".into()));
                        }
                        Expr::Max2(
                            Box::new(self.convert(&args[0], local)?),
                            Box::new(self.convert(&args[1], local)?),
                        )
                    }
                    other => return Err(DbError::Plan(format!("unknown function '{other}'"))),
                }
            }
            SqlExpr::Agg(..) => {
                return Err(DbError::Plan(
                    "aggregate in a row-wise context (nested aggregates are not supported)"
                        .into(),
                ))
            }
        })
    }
}

fn bin_op(op: SqlBinOp) -> BinOp {
    match op {
        SqlBinOp::Add => BinOp::Add,
        SqlBinOp::Sub => BinOp::Sub,
        SqlBinOp::Mul => BinOp::Mul,
        SqlBinOp::Div => BinOp::Div,
        SqlBinOp::Mod => BinOp::Mod,
        SqlBinOp::Eq => BinOp::Eq,
        SqlBinOp::Ne => BinOp::Ne,
        SqlBinOp::Lt => BinOp::Lt,
        SqlBinOp::Le => BinOp::Le,
        SqlBinOp::Gt => BinOp::Gt,
        SqlBinOp::Ge => BinOp::Ge,
        SqlBinOp::And => BinOp::And,
        SqlBinOp::Or => BinOp::Or,
    }
}

/// Default output name for an expression without an alias.
fn default_name(e: &SqlExpr, idx: usize) -> String {
    match e {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Agg(kind, None) => format!("{}_star", kind.name()),
        SqlExpr::Agg(kind, Some(arg)) => match arg.as_ref() {
            SqlExpr::Column { name, .. } => format!("{}_{name}", kind.name()),
            _ => format!("{}_{idx}", kind.name()),
        },
        _ => format!("expr_{idx}"),
    }
}

/// Split an expression at top-level ANDs.
fn split_conjuncts(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match e {
        SqlExpr::Binary(a, SqlBinOp::And, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Extract zone filters from one conjunct: `col <cmp> literal` leaves
/// (and AND chains of them) whose column belongs to scope `scope`.
/// Numeric literals compare against min/max zone maps; string literals
/// against lexicographic zone maps.
fn extract_zone_filters(e: &SqlExpr, r: &Resolver, scope: usize, out: &mut Vec<ZoneFilter>) {
    match e {
        SqlExpr::Binary(a, SqlBinOp::And, b) => {
            extract_zone_filters(a, r, scope, out);
            extract_zone_filters(b, r, scope, out);
        }
        SqlExpr::Binary(a, op, b) => {
            let cmp = match op {
                SqlBinOp::Lt => Some(CmpOp::Lt),
                SqlBinOp::Le => Some(CmpOp::Le),
                SqlBinOp::Gt => Some(CmpOp::Gt),
                SqlBinOp::Ge => Some(CmpOp::Ge),
                SqlBinOp::Eq => Some(CmpOp::Eq),
                _ => None,
            };
            let Some(cmp) = cmp else { return };
            let lit = |e: &SqlExpr| -> Option<ZoneValue> {
                match e {
                    SqlExpr::Int(v) => Some(ZoneValue::Num(*v as f64)),
                    SqlExpr::Float(v) => Some(ZoneValue::Num(*v)),
                    SqlExpr::Str(s) => Some(ZoneValue::Str(s.clone())),
                    SqlExpr::Neg(inner) => match inner.as_ref() {
                        SqlExpr::Int(v) => Some(ZoneValue::Num(-(*v as f64))),
                        SqlExpr::Float(v) => Some(ZoneValue::Num(-v)),
                        _ => None,
                    },
                    _ => None,
                }
            };
            let col = |e: &SqlExpr| -> Option<String> {
                match e {
                    SqlExpr::Column { qualifier, name }
                        if r.scope_of(qualifier.as_deref(), name)
                            .map(|s| s == scope)
                            .unwrap_or(false) =>
                    {
                        Some(name.clone())
                    }
                    _ => None,
                }
            };
            if let (Some(c), Some(v)) = (col(a), lit(b)) {
                out.push(ZoneFilter {
                    column: c,
                    op: cmp,
                    value: v,
                });
            } else if let (Some(v), Some(c)) = (lit(a), col(b)) {
                // Flip: literal <cmp> column.
                let flipped = match cmp {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    CmpOp::Eq => CmpOp::Eq,
                };
                out.push(ZoneFilter {
                    column: c,
                    op: flipped,
                    value: v,
                });
            }
        }
        _ => {}
    }
}

/// Resolve a SELECT statement against the catalog.
pub fn resolve(stmt: &SelectStmt, catalog: &dyn Catalog) -> DbResult<ResolvedSelect> {
    // Bring every table into scope: FROM first, then joins in order.
    let mut scopes = vec![Scope {
        table: stmt.from.clone(),
        cols: catalog.columns_of(&stmt.from)?,
        used: Vec::new(),
    }];
    for j in &stmt.joins {
        scopes.push(Scope {
            table: j.table.clone(),
            cols: catalog.columns_of(&j.table)?,
            used: Vec::new(),
        });
    }
    let mut r = Resolver::new(scopes);

    // Join keys must exist and are always scanned. The left key may live
    // on the FROM table or any earlier joined table.
    let mut joins: Vec<JoinSpec> = Vec::new();
    for (i, j) in stmt.joins.iter().enumerate() {
        let scan_idx = i + 1;
        let left_scope = r.scope_of(j.left_qualifier.as_deref(), &j.left_col)?;
        if left_scope >= scan_idx {
            return Err(DbError::Plan(format!(
                "join ON {}.{} = {}.{}: the left side must come from an earlier table",
                r.scopes[left_scope].table, j.left_col, j.table, j.right_col
            )));
        }
        if !r.scopes[scan_idx].cols.iter().any(|c| c == &j.right_col) {
            return Err(r.unknown(&j.right_col));
        }
        r.mark(left_scope, &j.left_col);
        r.mark(scan_idx, &j.right_col);
        joins.push(JoinSpec {
            scan_idx,
            kind: j.kind,
            left_col: j.left_col.clone(),
            right_col: j.right_col.clone(),
            left_scope,
        });
    }

    // Expand star and classify items.
    let mut expanded: Vec<(SqlExpr, Option<String>)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Star => {
                for c in &r.scopes[0].cols.clone() {
                    expanded.push((
                        SqlExpr::Column {
                            qualifier: None,
                            name: c.clone(),
                        },
                        None,
                    ));
                }
                for join in &joins {
                    let table = r.scopes[join.scan_idx].table.clone();
                    for c in r.scopes[join.scan_idx].cols.clone() {
                        if c == join.right_col {
                            continue; // dropped by the join
                        }
                        expanded.push((
                            SqlExpr::Column {
                                qualifier: Some(table.clone()),
                                name: c,
                            },
                            None,
                        ));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => expanded.push((expr.clone(), alias.clone())),
        }
    }
    if expanded.is_empty() {
        return Err(DbError::Plan("empty select list".into()));
    }

    let any_agg = expanded.iter().any(|(e, _)| e.has_aggregate());
    let grouped = !stmt.group_by.is_empty();

    // Usage pass, mirroring the resolution order below so the scan
    // column order is stable.
    if any_agg || grouped {
        for g in &stmt.group_by {
            r.collect_usage(g)?;
        }
    }
    for (e, _) in &expanded {
        r.collect_usage(e)?;
    }
    if let Some(w) = &stmt.where_clause {
        r.collect_usage(w)?;
    }
    if let Some(h) = &stmt.having {
        r.collect_having_usage(h)?;
    }

    // A query that references no base columns (e.g. `SELECT COUNT(*)`)
    // still needs one column scanned to know row counts.
    if r.scopes[0].used.is_empty() {
        let first = r.scopes[0].cols[0].clone();
        r.scopes[0].used.push(first);
    }

    // With the full usage set known, compute post-join output names and
    // rewrite each join's left key to its cumulative name.
    r.finalize_names(&mut joins)?;

    let shape = if any_agg || grouped {
        // Group keys.
        let mut keys: Vec<(String, Expr)> = Vec::new();
        for (i, g) in stmt.group_by.iter().enumerate() {
            if g.has_aggregate() {
                return Err(DbError::Plan("aggregate in GROUP BY".into()));
            }
            let name = default_name(g, i);
            let fe = r.to_expr(g)?;
            keys.push((name, fe));
        }
        let mut aggs = Vec::new();
        let mut out_keys: Vec<(String, Expr)> = Vec::new();
        for (i, (e, alias)) in expanded.iter().enumerate() {
            match e {
                SqlExpr::Agg(kind, arg) => {
                    let fa = match arg {
                        Some(a) => {
                            if a.has_aggregate() {
                                return Err(DbError::Plan("nested aggregate".into()));
                            }
                            Some(r.to_expr(a)?)
                        }
                        None => None,
                    };
                    aggs.push(AggItem {
                        alias: alias.clone().unwrap_or_else(|| default_name(e, i)),
                        kind: *kind,
                        arg: fa,
                    });
                }
                non_agg if !non_agg.has_aggregate() => {
                    // Must match a group-by expression.
                    let fe = r.to_expr(non_agg)?;
                    let matched = keys.iter().find(|(_, k)| *k == fe);
                    match matched {
                        Some(_) => out_keys
                            .push((alias.clone().unwrap_or_else(|| default_name(e, i)), fe)),
                        None => {
                            return Err(DbError::Plan(format!(
                                "column expression '{}' is neither aggregated nor in GROUP BY",
                                default_name(e, i)
                            )))
                        }
                    }
                }
                _ => {
                    return Err(DbError::Plan(
                        "expressions mixing aggregates with row values are not supported"
                            .into(),
                    ))
                }
            }
        }
        // If the select list omits group keys, still group by them but
        // only output the selected ones. If it has no explicit key items
        // and there ARE group keys, emit all keys first (SQL-ish
        // convenience used by generated queries).
        let keys_for_output = if out_keys.is_empty() { keys.clone() } else { out_keys };
        QueryShape::Aggregate {
            keys: if grouped { keys_for_output } else { Vec::new() },
            aggs,
        }
    } else {
        let mut items = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, (e, alias)) in expanded.iter().enumerate() {
            let mut name = alias.clone().unwrap_or_else(|| default_name(e, i));
            // Star expansion over a self-named collision (join): frame
            // output names are already unique; deduplicate defensively.
            while !seen.insert(name.clone()) {
                name.push('_');
            }
            items.push((name, r.to_expr(e)?));
        }
        QueryShape::Projection { items }
    };

    let (predicate, conjuncts) = match &stmt.where_clause {
        Some(w) => {
            if w.has_aggregate() {
                return Err(DbError::Plan("aggregate in WHERE".into()));
            }
            let predicate = r.to_expr(w)?;
            let mut raw = Vec::new();
            split_conjuncts(w, &mut raw);
            let mut conjuncts = Vec::with_capacity(raw.len());
            for c in &raw {
                let post_join = r.to_expr(c)?;
                let cols = c.columns();
                let mut scope = None;
                let mut single = !cols.is_empty();
                for (q, n) in &cols {
                    let s = r.scope_of(q.as_deref(), n)?;
                    match scope {
                        None => scope = Some(s),
                        Some(prev) if prev != s => {
                            single = false;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                let scope = if single { scope } else { None };
                let (local, zone) = match scope {
                    Some(s) => {
                        let mut zf = Vec::new();
                        extract_zone_filters(c, &r, s, &mut zf);
                        (Some(r.to_local_expr(s, c)?), zf)
                    }
                    None => (None, Vec::new()),
                };
                conjuncts.push(Conjunct {
                    post_join,
                    scope,
                    local,
                    zone,
                });
            }
            (Some(predicate), conjuncts)
        }
        None => (None, Vec::new()),
    };

    // HAVING resolves against the *output* columns: group keys, agg
    // aliases, or an aggregate call matching a selected aggregate.
    let having = match (&stmt.having, &shape) {
        (None, _) => None,
        (Some(_), QueryShape::Projection { .. }) => {
            return Err(DbError::Plan("HAVING requires GROUP BY / aggregates".into()))
        }
        (Some(h), QueryShape::Aggregate { keys, aggs }) => {
            Some(resolve_having(h, keys, aggs, &mut r)?)
        }
    };

    // ORDER BY names must exist in the output.
    let out_names: Vec<String> = match &shape {
        QueryShape::Projection { items } => items.iter().map(|(n, _)| n.clone()).collect(),
        QueryShape::Aggregate { keys, aggs } => keys
            .iter()
            .map(|(n, _)| n.clone())
            .chain(aggs.iter().map(|a| a.alias.clone()))
            .collect(),
    };
    for (name, _) in &stmt.order_by {
        if !out_names.iter().any(|n| n == name) {
            return Err(DbError::Plan(format!(
                "ORDER BY column '{name}' is not in the select output ({})",
                out_names.join(", ")
            )));
        }
    }

    let scans = r
        .scopes
        .iter()
        .map(|s| ScanSpec {
            table: s.table.clone(),
            columns: s.used.clone(),
        })
        .collect();

    Ok(ResolvedSelect {
        scans,
        joins,
        predicate,
        conjuncts,
        shape,
        distinct: stmt.distinct,
        having,
        order_by: stmt.order_by.clone(),
        limit: stmt.limit,
    })
}

/// Resolve a HAVING expression to a frame expression over the aggregate
/// output schema.
fn resolve_having(
    e: &SqlExpr,
    keys: &[(String, Expr)],
    aggs: &[AggItem],
    r: &mut Resolver,
) -> DbResult<Expr> {
    Ok(match e {
        SqlExpr::Agg(kind, arg) => {
            // Match against a selected aggregate by (kind, resolved arg).
            let resolved_arg = match arg {
                Some(a) => Some(r.to_expr(a)?),
                None => None,
            };
            let hit = aggs
                .iter()
                .find(|item| item.kind == *kind && item.arg == resolved_arg)
                .ok_or_else(|| {
                    DbError::Plan(format!(
                        "HAVING references {}(...) which is not in the select list",
                        kind.name()
                    ))
                })?;
            Expr::Col(hit.alias.clone())
        }
        SqlExpr::Column { qualifier: _, name } => {
            let known = keys.iter().any(|(n, _)| n == name)
                || aggs.iter().any(|a| &a.alias == name);
            if !known {
                return Err(DbError::UnknownColumn {
                    name: name.clone(),
                    suggestion: infera_frame::error::suggest(
                        name,
                        keys.iter()
                            .map(|(n, _)| n.as_str())
                            .chain(aggs.iter().map(|a| a.alias.as_str())),
                    ),
                });
            }
            Expr::Col(name.clone())
        }
        SqlExpr::Int(v) => Expr::Lit(Value::I64(*v)),
        SqlExpr::Float(v) => Expr::Lit(Value::F64(*v)),
        SqlExpr::Str(sv) => Expr::Lit(Value::Str(sv.clone())),
        SqlExpr::Bool(b) => Expr::Lit(Value::Bool(*b)),
        SqlExpr::Neg(a) => Expr::Unary(
            UnaryFn::Neg,
            Box::new(resolve_having(a, keys, aggs, r)?),
        ),
        SqlExpr::Not(a) => Expr::Unary(
            UnaryFn::Not,
            Box::new(resolve_having(a, keys, aggs, r)?),
        ),
        SqlExpr::Binary(a, op, b) => {
            let fa = resolve_having(a, keys, aggs, r)?;
            let fb = resolve_having(b, keys, aggs, r)?;
            Expr::bin(fa, bin_op(*op), fb)
        }
        SqlExpr::Func(..) => {
            return Err(DbError::Plan(
                "scalar functions are not supported in HAVING".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_select;

    struct FakeCatalog;
    impl Catalog for FakeCatalog {
        fn columns_of(&self, table: &str) -> DbResult<Vec<String>> {
            match table {
                "halos" => Ok(vec![
                    "fof_halo_tag".into(),
                    "fof_halo_mass".into(),
                    "fof_halo_count".into(),
                    "sim".into(),
                ]),
                "galaxies" => Ok(vec![
                    "gal_tag".into(),
                    "fof_halo_tag".into(),
                    "gal_mass".into(),
                ]),
                "sims" => Ok(vec!["sim".into(), "boxsize".into()]),
                other => Err(DbError::UnknownTable {
                    name: other.into(),
                    suggestion: None,
                }),
            }
        }
    }

    fn plan(sql: &str) -> ResolvedSelect {
        resolve(&parse_select(sql).unwrap(), &FakeCatalog).unwrap()
    }

    #[test]
    fn projection_pruning() {
        let p = plan("SELECT fof_halo_mass FROM halos WHERE fof_halo_count > 10");
        assert_eq!(p.base().columns, vec!["fof_halo_mass", "fof_halo_count"]);
    }

    #[test]
    fn zone_filter_extraction() {
        let p = plan(
            "SELECT fof_halo_tag FROM halos WHERE fof_halo_count > 10 AND fof_halo_mass <= 1e14 AND sim = 2",
        );
        let zf = p.base_zone_filters();
        assert_eq!(zf.len(), 3);
        assert_eq!(zf[0].op, CmpOp::Gt);
        assert_eq!(zf[1].op, CmpOp::Le);
        assert_eq!(zf[2].op, CmpOp::Eq);
        // OR disables extraction of its branches.
        let p = plan("SELECT fof_halo_tag FROM halos WHERE fof_halo_count > 10 OR sim = 2");
        assert!(p.base_zone_filters().is_empty());
        // ... but the OR conjunct is still single-table, so it remains
        // pushable as a row filter.
        assert_eq!(p.conjuncts.len(), 1);
        assert_eq!(p.conjuncts[0].scope, Some(0));
    }

    #[test]
    fn flipped_literal_comparison() {
        let p = plan("SELECT fof_halo_tag FROM halos WHERE 10 < fof_halo_count");
        let zf = p.base_zone_filters();
        assert_eq!(zf[0].op, CmpOp::Gt);
        assert_eq!(zf[0].value, ZoneValue::Num(10.0));
    }

    #[test]
    fn string_literal_zone_filter() {
        let p = plan("SELECT fof_halo_tag FROM halos WHERE sim = 'sim1'");
        let zf = p.base_zone_filters();
        assert_eq!(zf.len(), 1);
        assert_eq!(zf[0].op, CmpOp::Eq);
        assert_eq!(zf[0].value, ZoneValue::Str("sim1".into()));
        // Lexicographic pruning: chunk spanning sim0..sim0 cannot match.
        use crate::storage::StrZoneMap;
        let f = &zf[0];
        let low = StrZoneMap {
            min: "sim0".into(),
            max: "sim0".into(),
        };
        let hit = StrZoneMap {
            min: "sim0".into(),
            max: "sim2".into(),
        };
        assert!(!f.may_match(None, Some(&low)));
        assert!(f.may_match(None, Some(&hit)));
        // v1 string chunks carry no zone map: always scan.
        assert!(f.may_match(None, None));
    }

    #[test]
    fn aggregate_shape() {
        let p = plan("SELECT sim, AVG(fof_halo_count) AS m FROM halos GROUP BY sim");
        match &p.shape {
            QueryShape::Aggregate { keys, aggs } => {
                assert_eq!(keys.len(), 1);
                assert_eq!(aggs[0].alias, "m");
                assert_eq!(aggs[0].kind, AggKind::Mean);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn whole_table_aggregate() {
        let p = plan("SELECT COUNT(*), MAX(fof_halo_mass) FROM halos");
        match &p.shape {
            QueryShape::Aggregate { keys, aggs } => {
                assert!(keys.is_empty());
                assert_eq!(aggs.len(), 2);
                assert!(aggs[0].arg.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = resolve(
            &parse_select("SELECT sim, AVG(fof_halo_mass) FROM halos").unwrap(),
            &FakeCatalog,
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Plan(_)), "{err:?}");
    }

    #[test]
    fn join_resolution_and_suffix() {
        let p = plan(
            "SELECT gal_mass, galaxies.fof_halo_tag FROM halos JOIN galaxies ON halos.fof_halo_tag = galaxies.fof_halo_tag",
        );
        let j = &p.joins[0];
        assert_eq!(p.scans[j.scan_idx].table, "galaxies");
        assert!(p.scans[j.scan_idx]
            .columns
            .contains(&"fof_halo_tag".to_string()));
        // The right key column is dropped by the join, so a qualified
        // reference to it maps to the surviving left key.
        match &p.shape {
            QueryShape::Projection { items } => {
                assert_eq!(items[0].0, "gal_mass");
                assert!(matches!(&items[1].1, Expr::Col(c) if c == "fof_halo_tag"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_expansion_with_join_drops_right_key() {
        let p = plan("SELECT * FROM halos JOIN galaxies ON halos.fof_halo_tag = galaxies.fof_halo_tag");
        match &p.shape {
            QueryShape::Projection { items } => {
                // 4 base + 2 join (gal_tag, gal_mass; right key dropped).
                assert_eq!(items.len(), 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_join_resolution() {
        let p = plan(
            "SELECT gal_mass, boxsize FROM halos \
             JOIN galaxies ON halos.fof_halo_tag = galaxies.fof_halo_tag \
             JOIN sims ON halos.sim = sims.sim",
        );
        assert_eq!(p.scans.len(), 3);
        assert_eq!(p.joins.len(), 2);
        assert_eq!(p.joins[1].left_col, "sim");
        assert_eq!(p.joins[1].left_scope, 0);
        assert_eq!(p.scans[2].columns, vec!["sim", "boxsize"]);
    }

    #[test]
    fn join_left_key_from_earlier_join() {
        // The second join's left key lives on the first joined table.
        let p = plan(
            "SELECT boxsize FROM galaxies \
             JOIN halos ON galaxies.fof_halo_tag = halos.fof_halo_tag \
             JOIN sims ON halos.sim = sims.sim",
        );
        assert_eq!(p.joins[1].left_scope, 1);
        assert_eq!(p.joins[1].left_col, "sim");
    }

    #[test]
    fn conjunct_classification_for_pushdown() {
        let p = plan(
            "SELECT gal_mass FROM halos JOIN galaxies ON halos.fof_halo_tag = galaxies.fof_halo_tag \
             WHERE fof_halo_mass > 1e13 AND gal_mass > 1e9 AND fof_halo_count > gal_tag",
        );
        assert_eq!(p.conjuncts.len(), 3);
        assert_eq!(p.conjuncts[0].scope, Some(0));
        assert!(p.conjuncts[0].local.is_some());
        assert_eq!(p.conjuncts[0].zone.len(), 1);
        assert_eq!(p.conjuncts[1].scope, Some(1));
        // Mixed-table conjunct stays residual.
        assert_eq!(p.conjuncts[2].scope, None);
        assert!(p.conjuncts[2].local.is_none());
    }

    #[test]
    fn unknown_column_suggestion() {
        let err = resolve(
            &parse_select("SELECT fof_halo_mas FROM halos").unwrap(),
            &FakeCatalog,
        )
        .unwrap_err();
        match err {
            DbError::UnknownColumn { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("fof_halo_mass"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_must_reference_output() {
        let err = resolve(
            &parse_select("SELECT fof_halo_tag FROM halos ORDER BY fof_halo_mass").unwrap(),
            &FakeCatalog,
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Plan(_)));
        // Aliased output is fine.
        let p = plan("SELECT fof_halo_mass AS m FROM halos ORDER BY m DESC");
        assert_eq!(p.order_by, vec![("m".to_string(), true)]);
    }

    #[test]
    fn functions_resolve() {
        let p = plan("SELECT log10(fof_halo_mass) AS lm FROM halos");
        match &p.shape {
            QueryShape::Projection { items } => {
                assert!(matches!(items[0].1, Expr::Unary(UnaryFn::Log10, _)));
            }
            other => panic!("{other:?}"),
        }
        let err = resolve(
            &parse_select("SELECT nosuchfn(fof_halo_mass) FROM halos").unwrap(),
            &FakeCatalog,
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Plan(_)));
    }
}
