//! CSV serialization — the provenance interchange format.
//!
//! The paper's provenance trail stores every intermediate dataframe as a
//! CSV file; this module provides the (small, RFC-4180-ish) reader/writer
//! used for that. Quoting covers commas, quotes and newlines; type
//! inference on read promotes columns in the order bool → i64 → f64 → str.

use crate::column::Column;
use crate::decimal;
use crate::error::{FrameError, FrameResult};
use crate::frame::DataFrame;
use crate::value::DType;
use std::io::{BufRead, Write};
use std::path::Path;

fn needs_quoting(s: &str) -> bool {
    s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r')
}

fn write_field(out: &mut Vec<u8>, s: &str) {
    if needs_quoting(s) {
        out.push(b'"');
        for &b in s.as_bytes() {
            if b == b'"' {
                out.push(b'"');
            }
            out.push(b);
        }
        out.push(b'"');
    } else {
        out.extend_from_slice(s.as_bytes());
    }
}

/// Append cell `row` of `col` as a CSV field.
fn write_cell(out: &mut Vec<u8>, col: &Column, row: usize) {
    match col {
        Column::F64(v) => write_f64(out, v[row]),
        Column::I64(v) => decimal::push_i64(out, v[row]),
        Column::Bool(v) => out.extend_from_slice(if v[row] { b"true" } else { b"false" }),
        Column::Str(v) => write_field(out, &v[row]),
    }
}

/// Append a float: nothing for NaN, shortest round-trip digits otherwise,
/// and whole numbers keep a ".0" so the reader's type inference
/// round-trips the column as f64, not i64.
fn write_f64(out: &mut Vec<u8>, v: f64) {
    /// 2^63: every whole-number float below it in magnitude is an i64.
    const I64_RANGE: f64 = 9_223_372_036_854_775_808.0;
    if v.is_nan() {
        return;
    }
    let truncated = v as i64;
    if v.abs() >= I64_RANGE {
        // Whole (every double from 2^52 up is) or infinite: all of its
        // digits, which are not the shortest ones, or "inf". Writing into
        // a `Vec` cannot fail.
        let _ = write!(out, "{v:.1}");
    } else if truncated as f64 != v {
        decimal::push_f64(out, v);
    } else if truncated == 0 {
        out.extend_from_slice(if v.is_sign_negative() {
            b"-0.0"
        } else {
            b"0.0"
        });
    } else {
        decimal::push_i64(out, truncated);
        out.extend_from_slice(b".0");
    }
}

/// Split one CSV record into fields, handling quotes. `None` if the record
/// ends inside quotes (caller should join with the next line).
fn split_record(line: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return None;
    }
    fields.push(cur);
    Some(fields)
}

impl DataFrame {
    /// Serialize to a CSV string with a header row. Floats use shortest
    /// round-trip formatting; `NaN` serializes as an empty field.
    ///
    /// One typed pass: each cell is formatted straight into the output
    /// buffer from its column's vector. Only strings can hold a character
    /// that needs quoting, so only they are scanned for one.
    pub fn to_csv_string(&self) -> String {
        /// Rows rendered before the buffer is sized from their mean width.
        const SIZING_ROWS: usize = 64;
        let n_rows = self.n_rows();
        let columns: Vec<&Column> = self.iter_columns().map(|(_, col)| col).collect();
        let mut out = Vec::new();
        for (i, name) in self.names().iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_field(&mut out, name);
        }
        out.push(b'\n');
        let header_len = out.len();
        for row in 0..n_rows {
            if row == SIZING_ROWS {
                let per_row = (out.len() - header_len) / SIZING_ROWS + 1;
                // An eighth of slack: later rows tend to be no narrower
                // (ids grow), and one reallocation would copy everything.
                out.reserve(per_row * (n_rows - row) / 8 * 9);
            }
            for (i, col) in columns.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_cell(&mut out, col, row);
            }
            out.push(b'\n');
        }
        // One validation pass over the buffer instead of one per cell.
        String::from_utf8(out).expect("ASCII digits and punctuation around the frame's own strings")
    }

    /// Write CSV to a file path.
    pub fn write_csv(&self, path: &Path) -> FrameResult<()> {
        let mut f = std::fs::File::create(path)
            .map_err(|e| FrameError::Csv(format!("create {}: {e}", path.display())))?;
        f.write_all(self.to_csv_string().as_bytes())
            .map_err(|e| FrameError::Csv(format!("write {}: {e}", path.display())))?;
        Ok(())
    }

    /// Parse a CSV string (header required). Column types are inferred.
    pub fn from_csv_string(text: &str) -> FrameResult<DataFrame> {
        let mut records: Vec<Vec<String>> = Vec::new();
        let mut pending = String::new();
        for line in text.lines() {
            let candidate = if pending.is_empty() {
                line.to_string()
            } else {
                format!("{pending}\n{line}")
            };
            match split_record(&candidate) {
                Some(fields) => {
                    records.push(fields);
                    pending.clear();
                }
                None => pending = candidate,
            }
        }
        if !pending.is_empty() {
            return Err(FrameError::Csv("unterminated quoted field".into()));
        }
        Self::from_records(records)
    }

    /// Read CSV from a file path (streaming line reader).
    pub fn read_csv(path: &Path) -> FrameResult<DataFrame> {
        let f = std::fs::File::open(path)
            .map_err(|e| FrameError::Csv(format!("open {}: {e}", path.display())))?;
        let reader = std::io::BufReader::new(f);
        let mut text = String::new();
        for line in reader.lines() {
            let line = line.map_err(|e| FrameError::Csv(e.to_string()))?;
            text.push_str(&line);
            text.push('\n');
        }
        Self::from_csv_string(&text)
    }

    fn from_records(records: Vec<Vec<String>>) -> FrameResult<DataFrame> {
        let mut it = records.into_iter();
        let header = it
            .next()
            .ok_or_else(|| FrameError::Csv("empty csv: missing header".into()))?;
        let ncols = header.len();
        let mut cells: Vec<Vec<String>> = vec![Vec::new(); ncols];
        for (ri, rec) in it.enumerate() {
            if rec.len() != ncols {
                return Err(FrameError::Csv(format!(
                    "row {} has {} fields, expected {ncols}",
                    ri + 1,
                    rec.len()
                )));
            }
            for (c, field) in rec.into_iter().enumerate() {
                cells[c].push(field);
            }
        }
        let mut df = DataFrame::new();
        for (name, raw) in header.into_iter().zip(cells) {
            df.add_column(name, infer_column(&raw))?;
        }
        Ok(df)
    }
}

/// Infer the narrowest column type that fits all fields.
/// Empty fields are permitted only for f64 (as NaN); their presence forces
/// the f64 (or str) interpretation.
fn infer_column(raw: &[String]) -> Column {
    let mut all_bool = true;
    let mut all_i64 = true;
    let mut all_f64 = true;
    for s in raw {
        if s.is_empty() {
            all_bool = false;
            all_i64 = false;
            continue;
        }
        if all_bool && s != "true" && s != "false" {
            all_bool = false;
        }
        if all_i64 && s.parse::<i64>().is_err() {
            all_i64 = false;
        }
        if all_f64 && s.parse::<f64>().is_err() {
            all_f64 = false;
        }
    }
    if all_bool && !raw.is_empty() {
        Column::Bool(raw.iter().map(|s| s == "true").collect())
    } else if all_i64 && !raw.is_empty() {
        Column::I64(raw.iter().map(|s| s.parse().unwrap()).collect())
    } else if all_f64 && !raw.is_empty() {
        Column::F64(
            raw.iter()
                .map(|s| {
                    if s.is_empty() {
                        f64::NAN
                    } else {
                        s.parse().unwrap()
                    }
                })
                .collect(),
        )
    } else if raw.is_empty() {
        Column::empty(DType::Str)
    } else {
        Column::Str(raw.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample() -> DataFrame {
        DataFrame::from_columns([
            ("id", Column::from(vec![1i64, 2])),
            ("mass", Column::from(vec![1.5, f64::NAN])),
            ("label", Column::from(vec!["plain", "has,comma"])),
            ("ok", Column::from(vec![true, false])),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_schema_and_values() {
        let df = sample();
        let csv = df.to_csv_string();
        let back = DataFrame::from_csv_string(&csv).unwrap();
        assert_eq!(back.schema(), df.schema());
        assert_eq!(back.cell("id", 1).unwrap(), Value::I64(2));
        assert!(back.cell("mass", 1).unwrap().is_missing());
        assert_eq!(
            back.cell("label", 1).unwrap(),
            Value::Str("has,comma".into())
        );
        assert_eq!(back.cell("ok", 0).unwrap(), Value::Bool(true));
    }

    #[test]
    fn quoting_of_quotes_and_newlines() {
        let df = DataFrame::from_columns([(
            "s",
            Column::from(vec!["say \"hi\"", "line1\nline2"]),
        )])
        .unwrap();
        let csv = df.to_csv_string();
        let back = DataFrame::from_csv_string(&csv).unwrap();
        assert_eq!(back.cell("s", 0).unwrap(), Value::Str("say \"hi\"".into()));
        assert_eq!(
            back.cell("s", 1).unwrap(),
            Value::Str("line1\nline2".into())
        );
    }

    #[test]
    fn type_inference_promotion() {
        let csv = "a,b,c\n1,1.5,x\n2,2,y\n";
        let df = DataFrame::from_csv_string(csv).unwrap();
        assert_eq!(df.column("a").unwrap().dtype(), DType::I64);
        assert_eq!(df.column("b").unwrap().dtype(), DType::F64);
        assert_eq!(df.column("c").unwrap().dtype(), DType::Str);
    }

    #[test]
    fn ragged_rows_error() {
        let csv = "a,b\n1,2\n3\n";
        assert!(matches!(
            DataFrame::from_csv_string(csv).unwrap_err(),
            FrameError::Csv(_)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("infera_frame_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let df = sample();
        df.write_csv(&path).unwrap();
        let back = DataFrame::read_csv(&path).unwrap();
        assert_eq!(back.n_rows(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_csv_errors() {
        assert!(DataFrame::from_csv_string("").is_err());
    }

    #[test]
    fn header_only_gives_empty_frame() {
        let df = DataFrame::from_csv_string("a,b\n").unwrap();
        assert_eq!(df.n_cols(), 2);
        assert_eq!(df.n_rows(), 0);
    }
}
