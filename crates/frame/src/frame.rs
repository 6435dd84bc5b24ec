//! The [`DataFrame`] type: an ordered collection of equally long columns.

use crate::column::Column;
use crate::error::{unknown_column, FrameError, FrameResult};
use crate::value::{DType, Value};
use std::sync::Arc;

/// An ordered, named collection of equally long [`Column`]s.
///
/// Column order is preserved (pandas-like); lookups by name are `O(n_cols)`
/// which is fine for the tens of columns typical of HACC property files.
///
/// Columns are shared: cloning a frame (or selecting from it) copies names
/// and reference counts, never cells. The methods that change a column in
/// place — [`vstack`](Self::vstack), [`drop_column`](Self::drop_column) —
/// copy it first if another frame still holds it, so no frame ever sees
/// another's edits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Arc<Column>>,
}

impl DataFrame {
    /// An empty frame with no columns and no rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a frame from `(name, column)` pairs, validating equal lengths
    /// and unique names.
    pub fn from_columns<I, S>(cols: I) -> FrameResult<Self>
    where
        I: IntoIterator<Item = (S, Column)>,
        S: Into<String>,
    {
        let mut df = DataFrame::new();
        for (name, col) in cols {
            df.add_column(name.into(), col)?;
        }
        Ok(df)
    }

    /// Number of rows (0 for a column-less frame).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Position of a column by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Whether a column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// Borrow a column by name; errors with a did-you-mean suggestion.
    pub fn column(&self, name: &str) -> FrameResult<&Column> {
        self.shared_column(name).map(|col| &**col)
    }

    fn shared_column(&self, name: &str) -> FrameResult<&Arc<Column>> {
        match self.position(name) {
            Some(i) => Ok(&self.columns[i]),
            None => Err(unknown_column(name, self.names.iter().map(String::as_str))),
        }
    }

    /// All `(name, column)` pairs in order.
    pub fn iter_columns(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.columns.iter().map(|c| &**c))
    }

    /// `(name, dtype)` schema in column order.
    pub fn schema(&self) -> Vec<(String, DType)> {
        self.iter_columns()
            .map(|(n, c)| (n.to_string(), c.dtype()))
            .collect()
    }

    /// Append a column. Errors on duplicate name or length mismatch.
    pub fn add_column(&mut self, name: String, col: Column) -> FrameResult<()> {
        self.add_shared(name, Arc::new(col))
    }

    fn add_shared(&mut self, name: String, col: Arc<Column>) -> FrameResult<()> {
        if self.has_column(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                got: col.len(),
            });
        }
        self.names.push(name);
        self.columns.push(col);
        Ok(())
    }

    /// Replace an existing column (or add it if absent). Length checked.
    pub fn set_column(&mut self, name: &str, col: Column) -> FrameResult<()> {
        match self.position(name) {
            Some(i) => {
                if self.n_cols() > 1 && col.len() != self.n_rows() {
                    return Err(FrameError::LengthMismatch {
                        expected: self.n_rows(),
                        got: col.len(),
                    });
                }
                self.columns[i] = Arc::new(col);
                Ok(())
            }
            None => self.add_column(name.to_string(), col),
        }
    }

    /// Rename a column in place.
    pub fn rename(&mut self, from: &str, to: &str) -> FrameResult<()> {
        if self.has_column(to) {
            return Err(FrameError::DuplicateColumn(to.to_string()));
        }
        match self.position(from) {
            Some(i) => {
                self.names[i] = to.to_string();
                Ok(())
            }
            None => Err(unknown_column(from, self.names.iter().map(String::as_str))),
        }
    }

    /// Remove a column and return it.
    pub fn drop_column(&mut self, name: &str) -> FrameResult<Column> {
        match self.position(name) {
            Some(i) => {
                self.names.remove(i);
                Ok(Arc::unwrap_or_clone(self.columns.remove(i)))
            }
            None => Err(unknown_column(name, self.names.iter().map(String::as_str))),
        }
    }

    /// A new frame containing only the named columns, in the given order.
    pub fn select<S: AsRef<str>>(&self, names: &[S]) -> FrameResult<DataFrame> {
        let mut df = DataFrame::new();
        for n in names {
            let col = self.shared_column(n.as_ref())?.clone();
            df.add_shared(n.as_ref().to_string(), col)?;
        }
        Ok(df)
    }

    /// Keep rows where `mask[i]` is true.
    pub fn filter_mask(&self, mask: &[bool]) -> FrameResult<DataFrame> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                got: mask.len(),
            });
        }
        let mut df = DataFrame::new();
        for (name, col) in self.iter_columns() {
            df.add_column(name.to_string(), col.filter(mask)?)?;
        }
        Ok(df)
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let mut df = DataFrame::new();
        for (name, col) in self.iter_columns() {
            df.names.push(name.to_string());
            df.columns.push(Arc::new(col.take(indices)));
        }
        df
    }

    /// Rows `[start, end)` as a new frame.
    pub fn slice(&self, start: usize, end: usize) -> DataFrame {
        let mut df = DataFrame::new();
        for (name, col) in self.iter_columns() {
            df.names.push(name.to_string());
            df.columns.push(Arc::new(col.slice(start, end)));
        }
        df
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        self.slice(0, n)
    }

    /// Last `n` rows.
    pub fn tail(&self, n: usize) -> DataFrame {
        let rows = self.n_rows();
        self.slice(rows.saturating_sub(n), rows)
    }

    /// Vertically concatenate another frame with an identical schema.
    pub fn vstack(&mut self, other: &DataFrame) -> FrameResult<()> {
        if self.n_cols() == 0 {
            *self = other.clone();
            return Ok(());
        }
        if self.names != other.names {
            return Err(FrameError::Invalid(format!(
                "vstack schema mismatch: {:?} vs {:?}",
                self.names, other.names
            )));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(a).extend(b)?;
        }
        Ok(())
    }

    /// One row as a vector of values, in column order.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// A single cell.
    pub fn cell(&self, name: &str, idx: usize) -> FrameResult<Value> {
        Ok(self.column(name)?.get(idx))
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Render the first `max_rows` rows as an aligned text table
    /// (debugging / provenance summaries).
    pub fn to_display(&self, max_rows: usize) -> String {
        let rows = self.n_rows().min(max_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(rows + 1);
        cells.push(self.names.clone());
        for r in 0..rows {
            cells.push(self.row(r).iter().map(|v| v.to_string()).collect());
        }
        let mut widths = vec![0usize; self.n_cols()];
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (ri, row) in cells.iter().enumerate() {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            out.push('\n');
            if ri == 0 {
                for (i, w) in widths.iter().enumerate() {
                    if i > 0 {
                        out.push_str("  ");
                    }
                    out.push_str(&"-".repeat(*w));
                }
                out.push('\n');
            }
        }
        if self.n_rows() > rows {
            out.push_str(&format!("... {} more rows\n", self.n_rows() - rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::from_columns([
            ("id", Column::from(vec![1i64, 2, 3, 4])),
            ("mass", Column::from(vec![10.0, 20.0, 30.0, 40.0])),
            ("name", Column::from(vec!["a", "b", "c", "d"])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths_and_duplicates() {
        let err = DataFrame::from_columns([
            ("a", Column::from(vec![1i64, 2])),
            ("b", Column::from(vec![1i64])),
        ])
        .unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));

        let err = DataFrame::from_columns([
            ("a", Column::from(vec![1i64])),
            ("a", Column::from(vec![2i64])),
        ])
        .unwrap_err();
        assert!(matches!(err, FrameError::DuplicateColumn(_)));
    }

    #[test]
    fn select_preserves_order() {
        let df = sample();
        let s = df.select(&["name", "id"]).unwrap();
        assert_eq!(s.names(), &["name".to_string(), "id".to_string()]);
        assert_eq!(s.n_rows(), 4);
    }

    #[test]
    fn unknown_column_suggests() {
        let df = sample();
        let err = df.column("mas").unwrap_err();
        assert_eq!(
            err,
            FrameError::UnknownColumn {
                name: "mas".into(),
                suggestion: Some("mass".into())
            }
        );
    }

    #[test]
    fn filter_and_take() {
        let df = sample();
        let f = df.filter_mask(&[true, false, false, true]).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.cell("id", 1).unwrap(), Value::I64(4));
        let t = df.take(&[2, 2, 0]);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.cell("name", 0).unwrap(), Value::Str("c".into()));
    }

    #[test]
    fn head_tail_slice() {
        let df = sample();
        assert_eq!(df.head(2).n_rows(), 2);
        assert_eq!(df.tail(1).cell("id", 0).unwrap(), Value::I64(4));
        assert_eq!(df.slice(1, 3).n_rows(), 2);
        assert_eq!(df.head(100).n_rows(), 4);
    }

    #[test]
    fn vstack_appends_rows() {
        let mut a = sample();
        let b = sample();
        a.vstack(&b).unwrap();
        assert_eq!(a.n_rows(), 8);
        let mut empty = DataFrame::new();
        empty.vstack(&b).unwrap();
        assert_eq!(empty.n_rows(), 4);
    }

    #[test]
    fn vstack_schema_mismatch_errors() {
        let mut a = sample();
        let b = DataFrame::from_columns([("x", Column::from(vec![1i64]))]).unwrap();
        assert!(a.vstack(&b).is_err());
    }

    #[test]
    fn rename_and_drop() {
        let mut df = sample();
        df.rename("mass", "fof_halo_mass").unwrap();
        assert!(df.has_column("fof_halo_mass"));
        assert!(df.rename("nope", "x").is_err());
        let c = df.drop_column("name").unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(df.n_cols(), 2);
    }

    /// Clones share their columns; every in-place edit of one must leave
    /// the other as it was.
    #[test]
    fn edits_to_a_clone_leave_the_source_alone() {
        let source = sample();
        let untouched = sample();

        let mut clone = source.clone();
        clone
            .set_column("mass", Column::from(vec![0.0, 0.0, 0.0, 0.0]))
            .unwrap();
        assert_eq!(source, untouched);
        assert_eq!(clone.cell("mass", 0).unwrap(), Value::F64(0.0));

        let mut clone = source.clone();
        clone.vstack(&source).unwrap();
        assert_eq!(clone.n_rows(), 8);
        assert_eq!(source, untouched);

        let mut clone = source.clone();
        let dropped = clone.drop_column("id").unwrap();
        assert_eq!(&dropped, source.column("id").unwrap());
        assert_eq!(source, untouched);

        // A selection shares too, and is as isolated.
        let mut picked = source.select(&["name", "mass"]).unwrap();
        picked
            .vstack(&source.select(&["name", "mass"]).unwrap())
            .unwrap();
        picked.rename("mass", "m").unwrap();
        assert_eq!(source, untouched);
        // Nor does an edit of the source reach a clone taken before it.
        let mut source = source;
        let before = source.clone();
        source.vstack(&untouched).unwrap();
        assert_eq!(before, untouched);
    }

    #[test]
    fn display_renders_header() {
        let df = sample();
        let s = df.to_display(2);
        assert!(s.contains("mass"));
        assert!(s.contains("... 2 more rows"));
    }
}
