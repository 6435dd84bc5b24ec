//! SQL abstract syntax tree.

use infera_frame::AggKind;

/// A scalar or aggregate SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Possibly qualified column reference (`mass`, `halos.mass`).
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    /// Binary operation (arithmetic, comparison, logical).
    Binary(Box<SqlExpr>, SqlBinOp, Box<SqlExpr>),
    /// Unary negation / NOT.
    Neg(Box<SqlExpr>),
    Not(Box<SqlExpr>),
    /// Scalar function call (ABS, LOG10, POW, ...).
    Func(String, Vec<SqlExpr>),
    /// Aggregate call; `None` argument means `COUNT(*)`.
    Agg(AggKind, Option<Box<SqlExpr>>),
}

impl SqlExpr {
    /// Whether the expression contains an aggregate anywhere.
    pub fn has_aggregate(&self) -> bool {
        match self {
            SqlExpr::Agg(..) => true,
            SqlExpr::Binary(a, _, b) => a.has_aggregate() || b.has_aggregate(),
            SqlExpr::Neg(a) | SqlExpr::Not(a) => a.has_aggregate(),
            SqlExpr::Func(_, args) => args.iter().any(SqlExpr::has_aggregate),
            _ => false,
        }
    }

    /// All column references in the expression (qualified form flattened).
    pub fn columns(&self) -> Vec<(Option<String>, String)> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<(Option<String>, String)>) {
        match self {
            SqlExpr::Column { qualifier, name } => out.push((qualifier.clone(), name.clone())),
            SqlExpr::Binary(a, _, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            SqlExpr::Neg(a) | SqlExpr::Not(a) => a.collect_columns(out),
            SqlExpr::Func(_, args) => args.iter().for_each(|a| a.collect_columns(out)),
            SqlExpr::Agg(_, Some(a)) => a.collect_columns(out),
            _ => {}
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// One item of a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `expr [AS alias]`
    Expr {
        expr: SqlExpr,
        alias: Option<String>,
    },
}

/// Join clause: `JOIN <table> ON <left> = <right>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub table: String,
    pub kind: JoinType,
    /// Qualifier written on the left-side column (`h.tag` → `h`), if any.
    /// With chained joins the left column may live on the FROM table or on
    /// any earlier joined table; the qualifier disambiguates.
    pub left_qualifier: Option<String>,
    /// Column on the accumulated left side (FROM table or an earlier join).
    pub left_col: String,
    /// Column on the joined table.
    pub right_col: String,
}

/// Supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum JoinType {
    Inner,
    Left,
}

/// `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    /// `SELECT DISTINCT`: deduplicate output rows.
    pub distinct: bool,
    pub from: String,
    /// Chained join clauses, in syntactic order.
    pub joins: Vec<JoinClause>,
    pub where_clause: Option<SqlExpr>,
    pub group_by: Vec<SqlExpr>,
    /// `HAVING` predicate over the aggregate output columns.
    pub having: Option<SqlExpr>,
    /// `(column-or-alias, descending)`.
    pub order_by: Vec<(String, bool)>,
    pub limit: Option<usize>,
}

/// Top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `CREATE TABLE <name> AS <select>`
    CreateTableAs { name: String, select: SelectStmt },
    /// `DROP TABLE [IF EXISTS] <name>`
    DropTable { name: String, if_exists: bool },
}
