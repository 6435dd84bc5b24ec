//! # infera-frame
//!
//! A typed, column-oriented dataframe library used throughout the InferA
//! pipeline as the in-memory tabular substrate (the role pandas plays in the
//! original system).
//!
//! Design points:
//!
//! * Columns are homogeneous, strongly typed vectors ([`Column`]); a
//!   [`DataFrame`] is an ordered map of equally-long columns.
//! * Missing float data is represented as `NaN`; aggregations skip `NaN`
//!   values, mirroring pandas' `skipna=True` default. Integer, string and
//!   boolean columns have no missing-value representation.
//! * All errors carry enough context for the InferA quality-assurance loop
//!   to produce actionable feedback — notably unknown-column errors include
//!   *did-you-mean* suggestions computed by edit distance, the exact
//!   mechanism the paper describes for recovering from LLM column-name
//!   corruption (`center_x` vs `fof_halo_center_x`).
//! * Bulk kernels (filter, sort keys, group hashing) use `rayon` when the
//!   row count makes it worthwhile.

pub mod column;
pub mod csv;
pub mod decimal;
pub mod error;
pub mod expr;
pub mod frame;
pub mod groupby;
pub mod join;
pub mod key;
pub mod select;
pub mod sort;
pub mod stats;
pub mod value;

pub use column::Column;
pub use error::{FrameError, FrameResult};
pub use expr::{BinOp, Expr, UnaryFn};
pub use frame::DataFrame;
pub use groupby::{AggKind, AggSpec};
pub use join::{JoinKind, JoinTable};
pub use key::{KeyCol, KeyMode, RowGrouper};
pub use select::SelectionVector;
pub use sort::SortOrder;
pub use value::{DType, Value};

/// Row-count threshold above which bulk kernels switch to rayon.
pub(crate) const PARALLEL_THRESHOLD: usize = 16_384;
