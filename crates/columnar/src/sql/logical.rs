//! Logical plan: the optimizer's input, derived from the resolver
//! output.
//!
//! The resolver ([`super::plan::resolve`]) performs name binding and
//! shape analysis but makes no execution decisions. This module
//! restructures its output into the form the cost-based optimizer
//! consumes: WHERE conjuncts grouped by the single table scope they
//! reference (pushdown candidates) versus multi-scope residual
//! predicates that must run after the joins they span.

use super::plan::{Conjunct, JoinSpec, QueryShape, ResolvedSelect, ScanSpec};
use infera_frame::Expr;

/// The logical query plan: what to compute, before any decision on
/// join order, predicate placement, or aggregation strategy.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LogicalPlan {
    /// Tables in scope; `scans[0]` is the FROM (probe-side) table.
    pub scans: Vec<ScanSpec>,
    /// Joins in syntactic order; `joins[i]` builds over `scans[i + 1]`.
    pub joins: Vec<JoinSpec>,
    /// `scoped[i]`: WHERE conjuncts referencing only `scans[i]` —
    /// pushdown candidates for that scan.
    pub scoped: Vec<Vec<Conjunct>>,
    /// Conjuncts spanning several scopes; always evaluated post-join.
    pub residual: Vec<Conjunct>,
    pub shape: QueryShape,
    pub distinct: bool,
    pub having: Option<Expr>,
    pub order_by: Vec<(String, bool)>,
    pub limit: Option<usize>,
}

/// Build the logical plan from a resolved SELECT.
pub fn build(resolved: ResolvedSelect) -> LogicalPlan {
    let mut scoped: Vec<Vec<Conjunct>> = resolved.scans.iter().map(|_| Vec::new()).collect();
    let mut residual = Vec::new();
    for c in resolved.conjuncts {
        match c.scope {
            Some(i) => scoped[i].push(c),
            None => residual.push(c),
        }
    }
    LogicalPlan {
        scans: resolved.scans,
        joins: resolved.joins,
        scoped,
        residual,
        shape: resolved.shape,
        distinct: resolved.distinct,
        having: resolved.having,
        order_by: resolved.order_by,
        limit: resolved.limit,
    }
}

/// AND together a list of predicate expressions (`None` when empty).
pub fn and_exprs(mut exprs: Vec<Expr>) -> Option<Expr> {
    let first = if exprs.is_empty() {
        return None;
    } else {
        exprs.remove(0)
    };
    Some(exprs.into_iter().fold(first, |acc, e| {
        Expr::bin(acc, infera_frame::expr::BinOp::And, e)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse;
    use crate::sql::plan::{resolve, Catalog};
    use crate::DbResult;

    struct FakeCatalog;
    impl Catalog for FakeCatalog {
        fn columns_of(&self, table: &str) -> DbResult<Vec<String>> {
            Ok(match table {
                "halos" => vec!["tag".into(), "sim".into(), "mass".into()],
                "galaxies" => vec!["gal".into(), "tag".into(), "lum".into()],
                _ => panic!("unknown table {table}"),
            })
        }
    }

    fn logical(sql: &str) -> LogicalPlan {
        let crate::sql::ast::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        build(resolve(&s, &FakeCatalog).unwrap())
    }

    #[test]
    fn conjuncts_grouped_by_scope() {
        let lp = logical(
            "SELECT halos.tag FROM halos JOIN galaxies ON halos.tag = galaxies.tag \
             WHERE mass > 1.0 AND lum > 2.0 AND mass + lum > 3.0",
        );
        assert_eq!(lp.scoped.len(), 2);
        assert_eq!(lp.scoped[0].len(), 1, "mass conjunct on base");
        assert_eq!(lp.scoped[1].len(), 1, "lum conjunct on build side");
        assert_eq!(lp.residual.len(), 1, "mixed conjunct stays residual");
    }

    #[test]
    fn and_exprs_combines() {
        assert!(and_exprs(Vec::new()).is_none());
        let e = and_exprs(vec![Expr::col("a"), Expr::col("b"), Expr::col("c")]).unwrap();
        // ((a AND b) AND c)
        let rendered = format!("{e:?}");
        assert!(rendered.contains("And"), "{rendered}");
    }
}
