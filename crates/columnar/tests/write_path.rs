//! The batched append is one write, not a different layout: appending
//! `[a, b, c]` in one call must leave the files that `append(a)`,
//! `append(b)`, `append(c)` leave — `meta.json` and every column file,
//! byte for byte — for compressed (v2) and raw chunks alike.

use infera_columnar::Database;
use infera_frame::{Column, DataFrame};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("infera_write_path_tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn batch(n: usize, base: i64) -> DataFrame {
    DataFrame::from_columns([
        ("id", Column::I64((0..n as i64).map(|i| base + i).collect())),
        (
            "mass",
            Column::F64((0..n).map(|i| (base as f64) * 1.5 + i as f64 / 7.0).collect()),
        ),
        (
            "name",
            Column::Str((0..n).map(|i| format!("h{}", (base + i as i64) % 13)).collect()),
        ),
        ("flag", Column::Bool((0..n).map(|i| i % 3 == 0).collect())),
    ])
    .unwrap()
}

/// Every file of a table directory, by name.
fn table_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn batched_append_leaves_the_bytes_of_one_append_per_batch() {
    // 40-row chunks: the batches split 40/40/20, 7, none, 40/40/5.
    let batches = [batch(100, 0), batch(7, 1_000), batch(0, 0), batch(85, 50_000)];
    for compress in [true, false] {
        let tag = if compress { "v2" } else { "raw" };
        let open = |name: &str| {
            let mut db = Database::create(&tmp(&format!("{tag}_{name}"))).unwrap();
            db.chunk_rows = 40;
            db.compress = compress;
            db.create_table("t", &batches[0].schema()).unwrap();
            db
        };
        let one_by_one = open("one_by_one");
        for b in &batches {
            one_by_one.append("t", b).unwrap();
        }
        let batched = open("batched");
        let refs: Vec<&DataFrame> = batches.iter().collect();
        batched.append_batches("t", &refs).unwrap();

        assert_eq!(batched.n_chunks("t").unwrap(), 7, "{tag}");
        let expected = table_files(&one_by_one.root().join("t"));
        let got = table_files(&batched.root().join("t"));
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            expected.keys().collect::<Vec<_>>(),
            "{tag}: directory listing"
        );
        for (file, bytes) in &expected {
            assert!(got[file] == *bytes, "{tag}: {file} differs");
        }
        // And the reopened table answers like the other.
        let reopened = Database::open(batched.root()).unwrap();
        let cols = ["id", "mass", "name", "flag"];
        assert_eq!(
            reopened.scan_all("t", &cols).unwrap(),
            one_by_one.scan_all("t", &cols).unwrap(),
            "{tag}"
        );
    }
}

#[test]
fn batched_append_checks_every_schema_before_writing() {
    let db = Database::create(&tmp("schema_first")).unwrap();
    db.create_table("t", &batch(1, 0).schema()).unwrap();
    let before = table_files(&db.root().join("t"));
    let stray = DataFrame::from_columns([("id", Column::from(vec![1i64]))]).unwrap();
    let good = batch(10, 0);
    assert!(db.append_batches("t", &[&good, &stray]).is_err());
    assert_eq!(db.n_rows("t").unwrap(), 0);
    assert!(table_files(&db.root().join("t")) == before, "nothing written");
}
