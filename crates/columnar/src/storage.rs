//! On-disk table storage (format v2).
//!
//! Layout per table (under `<db root>/<table name>/`):
//!
//! ```text
//! meta.json          # schema + chunk index + zone maps + encodings
//! col_<idx>.bin      # one file per column; encoded chunks appended
//! ```
//!
//! Data is chunked by row ranges (default 65 536 rows). Each column chunk
//! is compressed independently with a lightweight codec chosen per chunk
//! by a byte-cost heuristic (see [`crate::encoding`]): dictionary for
//! strings, frame-of-reference bit-packing for integers, run-length for
//! booleans, raw for floats and incompressible data. The chosen codec is
//! recorded in the chunk's [`ChunkLocation`] so every chunk decodes
//! independently.
//!
//! Numeric chunks carry a min/max **zone map** used by the scan operator
//! to skip chunks that cannot satisfy a pushed-down predicate; string
//! chunks carry a lexicographic min/max for the same purpose — the trick
//! DuckDB and Parquet use.
//!
//! **Versioning**: `meta.json` gains a `version` field (2). Files written
//! by the v1 code have no such field and no per-chunk `encoding`; both
//! default to the v1 meaning (version 1, `Raw` layout), so v1 tables open
//! and scan unchanged.
//!
//! The database never holds more than the requested columns of one chunk
//! in memory per scan thread: that is the property that lets InferA sift
//! multi-terabyte ensembles on a laptop-sized memory budget.

use crate::encoding::{self, Encoding};
use crate::error::{DbError, DbResult};
use infera_frame::{Column, DType, DataFrame};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Integrity checksum over one encoded chunk: an xxhash-style mix
/// (8-byte blocks through wrapping multiply/rotate, final avalanche).
/// Not cryptographic — it exists to catch torn writes and bit rot, and
/// to verify every chunk on decode at a few GB/s.
pub fn chunk_checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B9_7F4A_7C15;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut h = P1 ^ (bytes.len() as u64).wrapping_mul(P2);
    let mut chunks = bytes.chunks_exact(8);
    for block in &mut chunks {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(block);
        let v = u64::from_le_bytes(buf);
        h = (h ^ v.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P1)).rotate_left(11).wrapping_mul(P2);
    }
    // Final avalanche so short inputs still spread across all 64 bits.
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P1);
    h ^ (h >> 32)
}

/// Default rows per chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Storage format version written by this code.
pub const FORMAT_VERSION: u32 = 2;

/// Min/max statistics for one column chunk (numeric columns only).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneMap {
    pub min: f64,
    pub max: f64,
}

impl ZoneMap {
    fn of(values: &[f64]) -> Option<ZoneMap> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut any = false;
        for &v in values {
            if v.is_nan() {
                continue;
            }
            any = true;
            min = min.min(v);
            max = max.max(v);
        }
        any.then_some(ZoneMap { min, max })
    }
}

/// Lexicographic min/max statistics for one string column chunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrZoneMap {
    pub min: String,
    pub max: String,
}

impl StrZoneMap {
    fn of(values: &[String]) -> Option<StrZoneMap> {
        let min = values.iter().min()?;
        let max = values.iter().max()?;
        Some(StrZoneMap {
            min: min.clone(),
            max: max.clone(),
        })
    }
}

/// Location of one column chunk within its column file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChunkLocation {
    pub offset: u64,
    /// Encoded (on-disk) bytes.
    pub byte_len: u64,
    /// Bytes of the raw (v1) layout — what the chunk would occupy without
    /// compression. Absent (0) in v1 metas, where it equals `byte_len`.
    #[serde(default)]
    pub logical_bytes: u64,
    /// Codec of this chunk; v1 metas have no field and default to `Raw`.
    #[serde(default)]
    pub encoding: Encoding,
    /// Zone map (numeric columns with at least one non-NaN value).
    pub zone: Option<ZoneMap>,
    /// Lexicographic zone map (string columns; absent in v1 metas).
    #[serde(default)]
    pub str_zone: Option<StrZoneMap>,
    /// Integrity checksum of the encoded bytes ([`chunk_checksum`]).
    /// Absent (0) in metas written before checksumming existed; 0 means
    /// "no checksum recorded", and verification is skipped.
    #[serde(default)]
    pub checksum: u64,
}

impl ChunkLocation {
    /// Raw-layout bytes of this chunk (v1 metas carry no `logical_bytes`;
    /// their chunks ARE the raw layout, so `byte_len` is the answer).
    pub fn logical_len(&self) -> u64 {
        if self.logical_bytes == 0 {
            self.byte_len
        } else {
            self.logical_bytes
        }
    }
}

/// Serializable dtype tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColType {
    F64,
    I64,
    Str,
    Bool,
}

impl From<DType> for ColType {
    fn from(d: DType) -> Self {
        match d {
            DType::F64 => ColType::F64,
            DType::I64 => ColType::I64,
            DType::Str => ColType::Str,
            DType::Bool => ColType::Bool,
        }
    }
}

impl From<ColType> for DType {
    fn from(c: ColType) -> Self {
        match c {
            ColType::F64 => DType::F64,
            ColType::I64 => DType::I64,
            ColType::Str => DType::Str,
            ColType::Bool => DType::Bool,
        }
    }
}

/// Table metadata persisted as `meta.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableMeta {
    /// Storage format version; v1 metas have no field (deserialized 0).
    #[serde(default)]
    pub version: u32,
    pub name: String,
    pub columns: Vec<(String, ColType)>,
    /// Row count per chunk, in order.
    pub chunk_rows: Vec<u64>,
    /// `chunks[column][chunk]` locations.
    pub chunks: Vec<Vec<ChunkLocation>>,
}

impl TableMeta {
    pub fn n_rows(&self) -> u64 {
        self.chunk_rows.iter().sum()
    }

    pub fn n_chunks(&self) -> usize {
        self.chunk_rows.len()
    }

    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    pub fn column_index(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| DbError::UnknownColumn {
                name: name.to_string(),
                suggestion: infera_frame::error::suggest(
                    name,
                    self.columns.iter().map(|(n, _)| n.as_str()),
                ),
            })
    }
}

/// Byte accounting for one append: what hit the disk vs what the same
/// rows would occupy in the raw layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendStats {
    pub encoded_bytes: u64,
    pub logical_bytes: u64,
}

/// One fully encoded chunk, produced off the writer's critical path.
struct EncodedChunk {
    n_rows: u64,
    /// Per column: encoded bytes + the location fields that don't depend
    /// on the file offset (which only the ordered writer knows).
    columns: Vec<(Vec<u8>, Encoding, u64, Option<ZoneMap>, Option<StrZoneMap>)>,
}

fn encode_chunk_frame(chunk: &DataFrame, compress: bool) -> EncodedChunk {
    let columns = chunk
        .iter_columns()
        .map(|(_, col)| {
            let logical = encoding::raw_size(col);
            let (enc, bytes) = if compress {
                encoding::encode(col)
            } else {
                (Encoding::Raw, encoding::encode_raw(col))
            };
            let zone = col.to_f64_vec().ok().and_then(|v| ZoneMap::of(&v));
            let str_zone = match col {
                Column::Str(v) => StrZoneMap::of(v),
                _ => None,
            };
            (bytes, enc, logical, zone, str_zone)
        })
        .collect();
    EncodedChunk {
        n_rows: chunk.n_rows() as u64,
        columns,
    }
}

/// The ordered writer of one append call: one append handle per column
/// file, the running end offset of each, and the locations of the chunks
/// written so far — staged here, and moved into the table's meta only
/// once every chunk of the call is on disk.
struct ChunkWriter {
    /// Per column: the file, opened for append, and its current length.
    files: Vec<(File, u64)>,
    chunk_rows: Vec<u64>,
    /// `chunks[column]`: locations staged by this call, in chunk order.
    chunks: Vec<Vec<ChunkLocation>>,
    stats: AppendStats,
}

impl ChunkWriter {
    fn open(dir: &Path, n_cols: usize) -> DbResult<ChunkWriter> {
        let files = (0..n_cols)
            .map(|idx| {
                let path = TableStore::col_path(dir, idx);
                let mut f = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| DbError::Io(format!("open {}: {e}", path.display())))?;
                let end = f
                    .seek(SeekFrom::End(0))
                    .map_err(|e| DbError::Io(e.to_string()))?;
                Ok((f, end))
            })
            .collect::<DbResult<Vec<_>>>()?;
        Ok(ChunkWriter {
            files,
            chunk_rows: Vec::new(),
            chunks: vec![Vec::new(); n_cols],
            stats: AppendStats::default(),
        })
    }

    fn write_chunk(&mut self, chunk: EncodedChunk) -> DbResult<()> {
        for (idx, (bytes, enc, logical, zone, str_zone)) in chunk.columns.into_iter().enumerate() {
            let fault = infera_faults::check(infera_faults::sites::STORAGE_APPEND);
            if fault == Some(infera_faults::FaultMode::Error) {
                return Err(DbError::Io(infera_faults::injected_error("storage.append")));
            }
            if fault == Some(infera_faults::FaultMode::Panic) {
                panic!("{}", infera_faults::injected_error("storage.append"));
            }
            let (f, end) = &mut self.files[idx];
            if fault == Some(infera_faults::FaultMode::Torn) {
                // Simulated crash mid-write: a prefix of the chunk lands,
                // the call dies before the meta flush.
                f.write_all(&bytes[..bytes.len() / 2])
                    .map_err(|e| DbError::Io(e.to_string()))?;
                return Err(DbError::Io(infera_faults::injected_error("storage.append")));
            }
            f.write_all(&bytes).map_err(|e| DbError::Io(e.to_string()))?;
            self.stats.encoded_bytes += bytes.len() as u64;
            self.stats.logical_bytes += logical;
            self.chunks[idx].push(ChunkLocation {
                offset: *end,
                byte_len: bytes.len() as u64,
                logical_bytes: logical,
                encoding: enc,
                zone,
                str_zone,
                checksum: chunk_checksum(&bytes),
            });
            *end += bytes.len() as u64;
        }
        self.chunk_rows.push(chunk.n_rows);
        Ok(())
    }
}

/// Exact distinct count over a bounded, evenly-strided sample of a
/// column; saturated samples (nearly all-distinct) extrapolate to the
/// full length. Deterministic: the result is a set cardinality, not a
/// hash sketch.
fn sampled_distinct(col: &Column) -> u64 {
    const SAMPLE: usize = 512;
    let n = col.len();
    if n == 0 {
        return 0;
    }
    let stride = n.div_ceil(SAMPLE).max(1);
    let idx = (0..n).step_by(stride);
    let sampled = idx.clone().count() as u64;
    let distinct = match col {
        Column::F64(v) => idx.map(|i| v[i].to_bits()).collect::<std::collections::HashSet<_>>().len(),
        Column::I64(v) => idx.map(|i| v[i]).collect::<std::collections::HashSet<_>>().len(),
        Column::Bool(v) => idx.map(|i| v[i]).collect::<std::collections::HashSet<_>>().len(),
        Column::Str(v) => idx
            .map(|i| v[i].as_str())
            .collect::<std::collections::HashSet<_>>()
            .len(),
    } as u64;
    if distinct * 10 >= sampled * 9 {
        // Sample is (nearly) all-distinct: treat the column as key-like.
        n as u64
    } else {
        distinct
    }
}

/// A stored table: schema + chunked column files under `dir`.
#[derive(Debug)]
pub struct TableStore {
    pub dir: PathBuf,
    pub meta: TableMeta,
    /// Apply per-chunk compression on append (disable to write the raw
    /// v1 chunk layout — used by the benchmark baseline).
    pub compress: bool,
    /// Per-column distinct-count estimates, computed lazily for the cost
    /// model and invalidated on append.
    distinct_cache: std::sync::Mutex<std::collections::HashMap<String, u64>>,
    /// `(column, chunk)` pairs that failed integrity verification
    /// (checksum mismatch on read, or torn-write detection at open).
    /// Reads of a quarantined chunk fail fast with
    /// [`DbError::CorruptChunk`] instead of re-reading garbage.
    quarantined: std::sync::Mutex<HashSet<(usize, usize)>>,
    /// Observability context; `Database::set_obs` propagates it so
    /// quarantine events land in the run's metrics.
    obs: infera_obs::Obs,
}

impl TableStore {
    fn meta_path(dir: &Path) -> PathBuf {
        dir.join("meta.json")
    }

    fn col_path(dir: &Path, idx: usize) -> PathBuf {
        dir.join(format!("col_{idx}.bin"))
    }

    /// Create a fresh table directory with the given schema.
    pub fn create(dir: &Path, name: &str, schema: &[(String, DType)]) -> DbResult<TableStore> {
        if schema.is_empty() {
            return Err(DbError::Plan("table must have at least one column".into()));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| DbError::Io(format!("mkdir {}: {e}", dir.display())))?;
        let meta = TableMeta {
            version: FORMAT_VERSION,
            name: name.to_string(),
            columns: schema
                .iter()
                .map(|(n, d)| (n.clone(), ColType::from(*d)))
                .collect(),
            chunk_rows: Vec::new(),
            chunks: vec![Vec::new(); schema.len()],
        };
        let store = TableStore {
            dir: dir.to_path_buf(),
            meta,
            compress: true,
            distinct_cache: Default::default(),
            quarantined: Default::default(),
            obs: infera_obs::Obs::default(),
        };
        for i in 0..schema.len() {
            File::create(Self::col_path(dir, i)).map_err(|e| DbError::Io(e.to_string()))?;
        }
        store.flush_meta()?;
        Ok(store)
    }

    /// Open an existing table directory (v1 or v2 format).
    ///
    /// Torn-write detection: a chunk whose recorded extent runs past the
    /// end of its column file (a crash mid-append left a short tail) is
    /// quarantined here, so queries over it report [`DbError::CorruptChunk`]
    /// instead of failing with a raw short-read I/O error — and chunks
    /// that did land fully remain readable.
    pub fn open(dir: &Path) -> DbResult<TableStore> {
        let text = std::fs::read_to_string(Self::meta_path(dir))
            .map_err(|e| DbError::Io(format!("read {}: {e}", dir.display())))?;
        let meta: TableMeta =
            serde_json::from_str(&text).map_err(|e| DbError::Corrupt(e.to_string()))?;
        if meta.version > FORMAT_VERSION {
            return Err(DbError::Corrupt(format!(
                "table '{}' has format version {} (this build reads up to {})",
                meta.name, meta.version, FORMAT_VERSION
            )));
        }
        let mut torn: HashSet<(usize, usize)> = HashSet::new();
        for (ci, chunks) in meta.chunks.iter().enumerate() {
            let file_len = std::fs::metadata(Self::col_path(dir, ci))
                .map(|m| m.len())
                .unwrap_or(0);
            for (ki, loc) in chunks.iter().enumerate() {
                if loc.offset + loc.byte_len > file_len {
                    torn.insert((ci, ki));
                }
            }
        }
        Ok(TableStore {
            dir: dir.to_path_buf(),
            meta,
            compress: true,
            distinct_cache: Default::default(),
            quarantined: std::sync::Mutex::new(torn),
            obs: infera_obs::Obs::default(),
        })
    }

    /// Attach an observability context (propagated by `Database::set_obs`)
    /// so quarantine events are counted in the owning run's metrics.
    pub fn set_obs(&mut self, obs: infera_obs::Obs) {
        self.obs = obs;
    }

    /// Number of chunks currently quarantined in this table.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.lock().unwrap().len()
    }

    fn quarantine(&self, col_idx: usize, chunk_idx: usize, reason: &str) -> DbError {
        let fresh = self.quarantined.lock().unwrap().insert((col_idx, chunk_idx));
        if fresh {
            self.obs
                .metrics
                .inc(infera_obs::metric_names::STORAGE_CHUNKS_QUARANTINED, 1);
            if reason.contains(infera_faults::INJECTED_MARKER) {
                // Injected corruption that verification caught counts as
                // a recovered fault: the query failed typed, not garbage.
                self.obs
                    .metrics
                    .inc(infera_obs::metric_names::FAULT_RECOVERED, 1);
            }
        }
        DbError::CorruptChunk {
            table: self.meta.name.clone(),
            column: self
                .meta
                .columns
                .get(col_idx)
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| format!("col_{col_idx}")),
            chunk: chunk_idx,
            reason: reason.to_string(),
        }
    }

    /// Persist `meta.json` atomically: write to a temp file in the same
    /// directory, then rename over the old meta. A crash between the two
    /// steps leaves the previous (complete) meta in place — never a
    /// truncated JSON document.
    fn flush_meta(&self) -> DbResult<()> {
        if let Some(mode) = infera_faults::check(infera_faults::sites::STORAGE_META) {
            if mode == infera_faults::FaultMode::Panic {
                panic!("{}", infera_faults::injected_error("storage.meta"));
            }
            return Err(DbError::Io(infera_faults::injected_error("storage.meta")));
        }
        let text = serde_json::to_string(&self.meta)
            .map_err(|e| DbError::Io(format!("meta serialize: {e}")))?;
        let tmp = self.dir.join("meta.json.tmp");
        std::fs::write(&tmp, &text).map_err(|e| DbError::Io(e.to_string()))?;
        std::fs::rename(&tmp, Self::meta_path(&self.dir))
            .map_err(|e| DbError::Io(e.to_string()))?;
        self.obs
            .metrics
            .inc(infera_obs::metric_names::STORAGE_META_FLUSHES, 1);
        Ok(())
    }

    /// Append one batch: the one-element case of [`Self::append_batches`].
    pub fn append(&mut self, batch: &DataFrame, chunk_rows: usize) -> DbResult<AppendStats> {
        self.append_batches(&[batch], chunk_rows)
    }

    /// Append `batches` in order. Every batch's schema (names and dtypes,
    /// in order) must match the table's and is checked before a byte is
    /// written. Each batch is split into chunks of `chunk_rows` — a chunk
    /// never spans two batches, so chunk layout, zone maps and checksums
    /// are those of appending the batches one call at a time — and chunk
    /// encoding fans out to worker threads while the file writes happen
    /// in deterministic chunk order.
    ///
    /// Each column file is opened once for the call and `meta.json` is
    /// flushed once, after the last chunk. Until that flush renames the
    /// new meta into place the table on disk is the table before the
    /// call: a failure or crash anywhere earlier leaves only trailing
    /// bytes in the column files that no chunk location covers, and the
    /// in-memory meta is not touched either.
    pub fn append_batches(
        &mut self,
        batches: &[&DataFrame],
        chunk_rows: usize,
    ) -> DbResult<AppendStats> {
        let expected: Vec<(String, DType)> = self
            .meta
            .columns
            .iter()
            .map(|(n, t)| (n.clone(), DType::from(*t)))
            .collect();
        for batch in batches {
            let got = batch.schema();
            if got != expected {
                return Err(DbError::Plan(format!(
                    "append schema mismatch: table {expected:?} vs batch {got:?}"
                )));
            }
        }
        let chunk_rows = chunk_rows.max(1);
        let compress = self.compress;
        let mut writer = ChunkWriter::open(&self.dir, expected.len())?;
        for batch in batches {
            let bounds: Vec<(usize, usize)> = (0..batch.n_rows())
                .step_by(chunk_rows)
                .map(|s| (s, (s + chunk_rows).min(batch.n_rows())))
                .collect();
            // Encode off-thread; the ordered writer owns the files.
            let encoded: Vec<EncodedChunk> = bounds
                .par_iter()
                .map(|&(s, e)| encode_chunk_frame(&batch.slice(s, e), compress))
                .collect();
            for chunk in encoded {
                writer.write_chunk(chunk)?;
            }
        }
        let ChunkWriter {
            chunk_rows: new_rows,
            chunks: new_chunks,
            stats,
            ..
        } = writer;
        let chunks_before = self.meta.n_chunks();
        let version_before = self.meta.version;
        self.meta.chunk_rows.extend(new_rows);
        for (column, new) in self.meta.chunks.iter_mut().zip(new_chunks) {
            column.extend(new);
        }
        // New chunks may carry v2 encodings, so a v1 table upgrades in
        // place on its first append (existing raw chunks stay valid).
        self.meta.version = FORMAT_VERSION;
        if let Err(e) = self.flush_meta() {
            self.meta.chunk_rows.truncate(chunks_before);
            for column in &mut self.meta.chunks {
                column.truncate(chunks_before);
            }
            self.meta.version = version_before;
            return Err(e);
        }
        self.distinct_cache.lock().unwrap().clear();
        Ok(stats)
    }

    fn read_chunk_bytes(&self, col_idx: usize, chunk_idx: usize) -> DbResult<Vec<u8>> {
        if self.quarantined.lock().unwrap().contains(&(col_idx, chunk_idx)) {
            return Err(DbError::CorruptChunk {
                table: self.meta.name.clone(),
                column: self
                    .meta
                    .columns
                    .get(col_idx)
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| format!("col_{col_idx}")),
                chunk: chunk_idx,
                reason: "previously quarantined".to_string(),
            });
        }
        let fault = infera_faults::check(infera_faults::sites::STORAGE_READ);
        if fault == Some(infera_faults::FaultMode::Error) {
            return Err(DbError::Io(infera_faults::injected_error("storage.read")));
        }
        if fault == Some(infera_faults::FaultMode::Panic) {
            panic!("{}", infera_faults::injected_error("storage.read"));
        }
        let loc = &self.meta.chunks[col_idx][chunk_idx];
        let path = Self::col_path(&self.dir, col_idx);
        let mut f = File::open(&path)
            .map_err(|e| DbError::Io(format!("open {}: {e}", path.display())))?;
        f.seek(SeekFrom::Start(loc.offset))
            .map_err(|e| DbError::Io(e.to_string()))?;
        let mut bytes = vec![0u8; loc.byte_len as usize];
        f.read_exact(&mut bytes)
            .map_err(|e| DbError::Io(e.to_string()))?;
        let injected_corruption = fault == Some(infera_faults::FaultMode::Corrupt);
        if injected_corruption && !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
        }
        // checksum 0 = written before checksumming existed; skip verify.
        if loc.checksum != 0 {
            let got = chunk_checksum(&bytes);
            if got != loc.checksum {
                let reason = if injected_corruption {
                    format!("checksum mismatch ({})", infera_faults::INJECTED_MARKER)
                } else {
                    format!(
                        "checksum mismatch (expected {:016x}, got {got:016x})",
                        loc.checksum
                    )
                };
                return Err(self.quarantine(col_idx, chunk_idx, &reason));
            }
        }
        Ok(bytes)
    }

    /// Read the named columns of chunk `chunk_idx` into a frame.
    pub fn read_chunk(&self, chunk_idx: usize, columns: &[&str]) -> DbResult<DataFrame> {
        if chunk_idx >= self.meta.n_chunks() {
            return Err(DbError::Exec(format!("chunk {chunk_idx} out of range")));
        }
        let n_rows = self.meta.chunk_rows[chunk_idx] as usize;
        let mut df = DataFrame::new();
        for name in columns {
            let ci = self.meta.column_index(name)?;
            let bytes = self.read_chunk_bytes(ci, chunk_idx)?;
            let loc = &self.meta.chunks[ci][chunk_idx];
            let col = encoding::decode(loc.encoding, self.meta.columns[ci].1, n_rows, &bytes)?;
            df.add_column((*name).to_string(), col)
                .map_err(DbError::from)?;
        }
        Ok(df)
    }

    /// Read only the given (sorted) rows of the named columns of one
    /// chunk — the late-materialization path: rows that failed the
    /// predicate are never decoded.
    pub fn read_chunk_rows(
        &self,
        chunk_idx: usize,
        columns: &[&str],
        rows: &[usize],
    ) -> DbResult<DataFrame> {
        if chunk_idx >= self.meta.n_chunks() {
            return Err(DbError::Exec(format!("chunk {chunk_idx} out of range")));
        }
        let n_rows = self.meta.chunk_rows[chunk_idx] as usize;
        let mut df = DataFrame::new();
        for name in columns {
            let ci = self.meta.column_index(name)?;
            let bytes = self.read_chunk_bytes(ci, chunk_idx)?;
            let loc = &self.meta.chunks[ci][chunk_idx];
            let col = encoding::decode_rows(
                loc.encoding,
                self.meta.columns[ci].1,
                n_rows,
                &bytes,
                rows,
            )?;
            df.add_column((*name).to_string(), col)
                .map_err(DbError::from)?;
        }
        Ok(df)
    }

    /// Read one string column chunk as `(dictionary, per-row codes)` if —
    /// and only if — it is Dict-encoded on disk. Returns `Ok(None)` for
    /// any other codec so callers can fall back to [`Self::read_chunk`].
    /// This is the entry point of the operator dict-code fast path: the
    /// executor groups/joins on the `u32` codes and decodes only the
    /// surviving dictionary entries.
    pub fn read_chunk_dict_codes(
        &self,
        chunk_idx: usize,
        column: &str,
    ) -> DbResult<Option<(Vec<String>, Vec<u32>)>> {
        if chunk_idx >= self.meta.n_chunks() {
            return Err(DbError::Exec(format!("chunk {chunk_idx} out of range")));
        }
        let ci = self.meta.column_index(column)?;
        let loc = &self.meta.chunks[ci][chunk_idx];
        if loc.encoding != Encoding::Dict || self.meta.columns[ci].1 != ColType::Str {
            return Ok(None);
        }
        let n_rows = self.meta.chunk_rows[chunk_idx] as usize;
        let bytes = self.read_chunk_bytes(ci, chunk_idx)?;
        encoding::decode_dict_codes(n_rows, &bytes).map(Some)
    }

    /// Zone map of `(column, chunk)`, if any.
    pub fn zone(&self, column: &str, chunk_idx: usize) -> DbResult<Option<ZoneMap>> {
        let ci = self.meta.column_index(column)?;
        Ok(self.meta.chunks[ci].get(chunk_idx).and_then(|l| l.zone))
    }

    /// Lexicographic zone map of `(column, chunk)`, if any (string
    /// columns written by format v2).
    pub fn str_zone(&self, column: &str, chunk_idx: usize) -> DbResult<Option<StrZoneMap>> {
        let ci = self.meta.column_index(column)?;
        Ok(self.meta.chunks[ci]
            .get(chunk_idx)
            .and_then(|l| l.str_zone.clone()))
    }

    /// Estimated distinct-value count of one column across the table.
    ///
    /// Dict-encoded chunks report their dictionary length exactly; every
    /// other codec (v1/raw, FOR, RLE) falls back to an exact distinct
    /// count over a bounded sample of decoded values, so v1 tables get a
    /// real estimate instead of a silent worst-case assumption. At most
    /// four chunks are inspected; results are cached until the next
    /// append. The combination heuristic distinguishes key-like columns
    /// (distinct grows with rows → estimate = table rows) from
    /// categorical ones (distinct plateaus → estimate = max per-chunk
    /// estimate), which is all the cost model needs.
    pub fn distinct_estimate(&self, column: &str) -> DbResult<u64> {
        if let Some(&hit) = self.distinct_cache.lock().unwrap().get(column) {
            return Ok(hit);
        }
        let ci = self.meta.column_index(column)?;
        let n_chunks = self.meta.n_chunks();
        let n_rows = self.meta.n_rows();
        if n_chunks == 0 || n_rows == 0 {
            return Ok(0);
        }
        // Deterministic spread of at most 4 sample chunks.
        let mut picks = vec![0, n_chunks / 3, 2 * n_chunks / 3, n_chunks - 1];
        picks.dedup();
        let mut per_chunk: Vec<(u64, u64)> = Vec::new(); // (estimate, rows)
        for &chunk_idx in &picks {
            let rows = self.meta.chunk_rows[chunk_idx];
            let loc = &self.meta.chunks[ci][chunk_idx];
            let est = if loc.encoding == Encoding::Dict && self.meta.columns[ci].1 == ColType::Str
            {
                let bytes = self.read_chunk_bytes(ci, chunk_idx)?;
                let (dict, _) = encoding::decode_dict_codes(rows as usize, &bytes)?;
                dict.len() as u64
            } else {
                let df = self.read_chunk(chunk_idx, &[column])?;
                sampled_distinct(df.column(column).map_err(DbError::from)?)
            };
            per_chunk.push((est, rows));
        }
        let est_sum: u64 = per_chunk.iter().map(|(e, _)| e).sum();
        let rows_sampled: u64 = per_chunk.iter().map(|(_, r)| r).sum();
        let combined = if est_sum * 2 >= rows_sampled {
            // Key-like: distinct count scales with the row count.
            n_rows
        } else {
            // Categorical: the per-chunk plateau is the best estimate.
            per_chunk.iter().map(|(e, _)| *e).max().unwrap_or(0)
        };
        let combined = combined.max(1).min(n_rows);
        self.distinct_cache
            .lock()
            .unwrap()
            .insert(column.to_string(), combined);
        Ok(combined)
    }

    /// Total on-disk bytes of this table (encoded column chunks).
    pub fn byte_size(&self) -> u64 {
        self.meta
            .chunks
            .iter()
            .flat_map(|c| c.iter().map(|l| l.byte_len))
            .sum()
    }

    /// Total logical bytes: what the table would occupy in the raw (v1)
    /// layout. `byte_size() / logical_size()` is the compression ratio.
    pub fn logical_size(&self) -> u64 {
        self.meta
            .chunks
            .iter()
            .flat_map(|c| c.iter().map(ChunkLocation::logical_len))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infera_frame::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("infera_storage_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn batch(n: usize, base: i64) -> DataFrame {
        DataFrame::from_columns([
            ("id", Column::I64((0..n as i64).map(|i| base + i).collect())),
            (
                "mass",
                Column::F64((0..n).map(|i| (base as f64) + i as f64).collect()),
            ),
            (
                "name",
                Column::Str((0..n).map(|i| format!("h{}", base + i as i64)).collect()),
            ),
            ("flag", Column::Bool((0..n).map(|i| i % 2 == 0).collect())),
        ])
        .unwrap()
    }

    #[test]
    fn create_append_read_roundtrip() {
        let dir = tmp("roundtrip");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "halos", &schema).unwrap();
        t.append(&batch(100, 0), 40).unwrap();
        assert_eq!(t.meta.n_chunks(), 3); // 40 + 40 + 20
        assert_eq!(t.meta.n_rows(), 100);

        let df = t.read_chunk(1, &["mass", "name"]).unwrap();
        assert_eq!(df.n_rows(), 40);
        assert_eq!(df.cell("mass", 0).unwrap(), Value::F64(40.0));
        assert_eq!(df.cell("name", 0).unwrap(), Value::Str("h40".into()));
    }

    #[test]
    fn reopen_preserves_data() {
        let dir = tmp("reopen");
        let schema = batch(1, 0).schema();
        {
            let mut t = TableStore::create(&dir, "t", &schema).unwrap();
            t.append(&batch(10, 5), 100).unwrap();
        }
        let t = TableStore::open(&dir).unwrap();
        assert_eq!(t.meta.version, FORMAT_VERSION);
        assert_eq!(t.meta.n_rows(), 10);
        let df = t.read_chunk(0, &["id", "flag"]).unwrap();
        assert_eq!(df.cell("id", 0).unwrap(), Value::I64(5));
        assert_eq!(df.cell("flag", 1).unwrap(), Value::Bool(false));
    }

    #[test]
    fn zone_maps_track_min_max() {
        let dir = tmp("zones");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.append(&batch(50, 0), 25).unwrap();
        let z0 = t.zone("mass", 0).unwrap().unwrap();
        assert_eq!(z0.min, 0.0);
        assert_eq!(z0.max, 24.0);
        let z1 = t.zone("mass", 1).unwrap().unwrap();
        assert_eq!(z1.min, 25.0);
        // Strings have no numeric zone map but do have a lexicographic one.
        assert!(t.zone("name", 0).unwrap().is_none());
        let sz = t.str_zone("name", 0).unwrap().unwrap();
        assert_eq!(sz.min, "h0");
        assert_eq!(sz.max, "h9"); // lexicographic: "h9" > "h24"
        // Bools do (0/1 widening).
        assert!(t.zone("flag", 0).unwrap().is_some());
    }

    #[test]
    fn append_schema_mismatch_rejected() {
        let dir = tmp("mismatch");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        let bad = DataFrame::from_columns([("id", Column::from(vec![1i64]))]).unwrap();
        assert!(matches!(t.append(&bad, 10).unwrap_err(), DbError::Plan(_)));
    }

    #[test]
    fn unknown_column_suggestion() {
        let dir = tmp("unknown");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.append(&batch(5, 0), 10).unwrap();
        match t.read_chunk(0, &["mas"]).unwrap_err() {
            DbError::UnknownColumn { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("mass"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nan_only_chunk_has_no_zone() {
        let dir = tmp("nanzone");
        let df =
            DataFrame::from_columns([("v", Column::from(vec![f64::NAN, f64::NAN]))]).unwrap();
        let mut t = TableStore::create(&dir, "t", &df.schema()).unwrap();
        t.append(&df, 10).unwrap();
        assert!(t.zone("v", 0).unwrap().is_none());
    }

    #[test]
    fn byte_size_and_logical_size() {
        let dir = tmp("bytes");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        assert_eq!(t.byte_size(), 0);
        t.append(&batch(100, 0), 64).unwrap();
        assert!(t.byte_size() > 0);
        // Compression never inflates: encoded <= logical, and the `id`
        // column (dense i64 range) must actually shrink.
        assert!(t.byte_size() <= t.logical_size());
        assert!(t.byte_size() < t.logical_size(), "id column should pack");
    }

    #[test]
    fn uncompressed_append_writes_raw_layout() {
        let dir = tmp("rawmode");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.compress = false;
        t.append(&batch(100, 0), 64).unwrap();
        assert_eq!(t.byte_size(), t.logical_size());
        assert!(t
            .meta
            .chunks
            .iter()
            .flatten()
            .all(|l| l.encoding == Encoding::Raw));
        let df = t.read_chunk(0, &["id", "mass"]).unwrap();
        assert_eq!(df.cell("id", 0).unwrap(), Value::I64(0));
    }

    #[test]
    fn distinct_estimate_dict_and_raw_fallback() {
        // Compressed (v2): the `name` column is dict-encoded per chunk,
        // `id` is key-like, `flag` is categorical.
        let dir = tmp("distinct_v2");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.append(&batch(400, 0), 100).unwrap();
        assert_eq!(t.distinct_estimate("id").unwrap(), 400);
        assert!(t.distinct_estimate("flag").unwrap() <= 2);
        assert_eq!(t.distinct_estimate("name").unwrap(), 400);

        // Raw layout (v1-style chunks): the sampled fallback must still
        // produce sane estimates instead of assuming worst case.
        let dir = tmp("distinct_raw");
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.compress = false;
        // Same schema as `batch`, but `name` is a 4-value categorical.
        let b = DataFrame::from_columns([
            ("id", Column::I64((0..400i64).collect())),
            ("mass", Column::F64((0..400).map(|i| i as f64).collect())),
            (
                "name",
                Column::Str((0..400).map(|i| format!("sim{}", i % 4)).collect()),
            ),
            ("flag", Column::Bool((0..400).map(|i| i % 2 == 0).collect())),
        ])
        .unwrap();
        t.append(&b, 100).unwrap();
        assert!(t
            .meta
            .chunks
            .iter()
            .flatten()
            .all(|l| l.encoding == Encoding::Raw));
        assert_eq!(t.distinct_estimate("id").unwrap(), 400);
        let names = t.distinct_estimate("name").unwrap();
        assert!((1..=8).contains(&names), "{names}");
        // Appending invalidates the cache.
        t.append(&b, 100).unwrap();
        assert_eq!(t.distinct_estimate("id").unwrap(), 800);
    }

    #[test]
    fn checksum_distinguishes_corruption() {
        let a = chunk_checksum(b"hello columnar world, here are some bytes");
        let mut flipped = b"hello columnar world, here are some bytes".to_vec();
        flipped[10] ^= 0x01;
        assert_ne!(a, chunk_checksum(&flipped));
        assert_ne!(chunk_checksum(b""), chunk_checksum(b"\0"));
        assert_ne!(chunk_checksum(b"\0"), chunk_checksum(b"\0\0"));
        // Stable across calls (it's a pure function, no seeds).
        assert_eq!(a, chunk_checksum(b"hello columnar world, here are some bytes"));
    }

    #[test]
    fn chunks_carry_checksums_and_verify_on_read() {
        let dir = tmp("checksummed");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.append(&batch(50, 0), 25).unwrap();
        assert!(t.meta.chunks.iter().flatten().all(|l| l.checksum != 0));
        // Reads verify clean.
        t.read_chunk(0, &["id", "mass", "name", "flag"]).unwrap();
        assert_eq!(t.quarantined_count(), 0);
    }

    #[test]
    fn on_disk_corruption_quarantines_chunk() {
        let dir = tmp("bitrot");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.append(&batch(50, 0), 50).unwrap();
        // Flip one byte in the middle of column 0's file.
        let path = dir.join("col_0.bin");
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let err = t.read_chunk(0, &["id"]).unwrap_err();
        assert!(
            matches!(err, DbError::CorruptChunk { chunk: 0, .. }),
            "unexpected {err:?}"
        );
        assert_eq!(t.quarantined_count(), 1);
        // Repeat reads fail fast from the quarantine set.
        let err2 = t.read_chunk(0, &["id"]).unwrap_err();
        assert!(matches!(err2, DbError::CorruptChunk { .. }));
        // Other columns are unaffected.
        t.read_chunk(0, &["mass"]).unwrap();
    }

    #[test]
    fn truncated_tail_reopen_reports_corrupt_chunk() {
        // Simulate a kill mid-append: meta records two chunks but the
        // second chunk's bytes never fully landed in the column file.
        let dir = tmp("truncated");
        let schema = batch(1, 0).schema();
        {
            let mut t = TableStore::create(&dir, "t", &schema).unwrap();
            t.append(&batch(80, 0), 40).unwrap();
        }
        let path = dir.join("col_1.bin");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 7]).unwrap();

        let t = TableStore::open(&dir).unwrap();
        assert_eq!(t.quarantined_count(), 1, "short tail chunk quarantined at open");
        // The torn chunk reports typed corruption, never a short frame.
        let err = t.read_chunk(1, &["mass"]).unwrap_err();
        assert!(matches!(err, DbError::CorruptChunk { chunk: 1, .. }), "{err:?}");
        // The first chunk of the same column is intact and readable.
        let df = t.read_chunk(0, &["mass"]).unwrap();
        assert_eq!(df.n_rows(), 40);
        // Untouched columns read fully.
        t.read_chunk(1, &["id"]).unwrap();
    }

    #[test]
    fn legacy_meta_without_checksums_still_reads() {
        let dir = tmp("legacy_checksum");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.append(&batch(20, 0), 20).unwrap();
        // Strip the checksums the way a pre-checksum meta would look.
        for chunks in &mut t.meta.chunks {
            for loc in chunks {
                loc.checksum = 0;
            }
        }
        t.flush_meta().unwrap();
        let t = TableStore::open(&dir).unwrap();
        let df = t.read_chunk(0, &["id", "name"]).unwrap();
        assert_eq!(df.n_rows(), 20);
        assert_eq!(t.quarantined_count(), 0);
    }

    #[test]
    fn selective_rows_match_full_chunk() {
        let dir = tmp("selective");
        let schema = batch(1, 0).schema();
        let mut t = TableStore::create(&dir, "t", &schema).unwrap();
        t.append(&batch(60, 0), 60).unwrap();
        let rows: Vec<usize> = vec![0, 7, 13, 59];
        let full = t.read_chunk(0, &["id", "mass", "name", "flag"]).unwrap();
        let partial = t
            .read_chunk_rows(0, &["id", "mass", "name", "flag"], &rows)
            .unwrap();
        assert_eq!(partial.n_rows(), 4);
        for (ri, &r) in rows.iter().enumerate() {
            assert_eq!(partial.row(ri), full.row(r));
        }
    }
}
