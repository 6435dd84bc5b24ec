//! Content-addressed artifact store + sequential event log.
//!
//! §4.2.1: "By systematically recording all intermediate CSV files,
//! executed code, and generated outputs in sequential order, the system
//! creates a complete audit trail of the analytical process." Artifacts
//! are stored content-addressed (identical intermediates dedupe); events
//! form an append-only JSONL log referencing artifact ids.

use infera_frame::{Column, DataFrame};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Errors from the provenance layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceError {
    Io(String),
    MissingArtifact(String),
    Corrupt(String),
}

impl fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvenanceError::Io(m) => write!(f, "provenance io error: {m}"),
            ProvenanceError::MissingArtifact(id) => write!(f, "missing artifact {id}"),
            ProvenanceError::Corrupt(m) => write!(f, "corrupt provenance record: {m}"),
        }
    }
}

impl std::error::Error for ProvenanceError {}

pub type ProvResult<T> = Result<T, ProvenanceError>;

/// Artifact kinds recorded in the trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtifactKind {
    /// Intermediate dataframe, stored as CSV.
    Csv,
    /// Generated SQL text.
    Sql,
    /// Generated analysis program (the DSL standing in for Python).
    Program,
    /// SVG visualization.
    Svg,
    /// VTK scene.
    Scene,
    /// Arbitrary JSON (plans, reports, parameters).
    Json,
    /// Free text (documentation, summaries).
    Text,
}

impl ArtifactKind {
    fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Csv => "csv",
            ArtifactKind::Sql => "sql",
            ArtifactKind::Program => "ial", // "InferA analysis language"
            ArtifactKind::Svg => "svg",
            ArtifactKind::Scene => "vtk",
            ArtifactKind::Json => "json",
            ArtifactKind::Text => "txt",
        }
    }
}

/// Stable artifact identifier: kind + content hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArtifactId(pub String);

impl fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The hash that names an artifact. Eight bytes a step: the little-endian
/// word is xored into the state and the state folded through one
/// 64×64→128-bit multiply (low half xor high half, so a change in any bit
/// of the word reaches every bit of the state); the last ≤ 7 bytes go in
/// FNV-1a style, one by one. Names written by earlier builds hashed every
/// byte that way; they differ from these, and stay readable — an id is
/// looked up as the file name it is, never recomputed.
fn content_hash(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    /// 2^64 / φ, odd.
    const WORD_MULTIPLIER: u64 = 0x9e3779b97f4a7c15;
    let mut h = FNV_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let product = u128::from(h ^ word) * u128::from(WORD_MULTIPLIER);
        h = product as u64 ^ (product >> 64) as u64;
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One step of the audit trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Monotone sequence number (1-based).
    pub seq: u64,
    /// Acting agent ("planner", "sql", "qa", ...).
    pub agent: String,
    /// What happened ("generate_sql", "execute_program", ...).
    pub action: String,
    /// Artifacts consumed.
    pub inputs: Vec<ArtifactId>,
    /// Artifacts produced.
    pub outputs: Vec<ArtifactId>,
    /// Human-readable note.
    pub message: String,
    /// Tokens spent on this step.
    pub tokens: u64,
    /// Wall-clock milliseconds of this step.
    pub wall_ms: u64,
}

/// Content fingerprint of a frame: names, dtypes and every cell (floats
/// by bit pattern). Equal frames have equal fingerprints and therefore
/// equal CSV; it lives only in memory, so the hasher need not be stable
/// across builds.
fn frame_fingerprint(frame: &DataFrame) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    frame.n_cols().hash(&mut h);
    for (name, col) in frame.iter_columns() {
        name.hash(&mut h);
        std::mem::discriminant(col).hash(&mut h);
        match col {
            Column::F64(v) => {
                v.len().hash(&mut h);
                for x in v {
                    h.write_u64(x.to_bits());
                }
            }
            Column::I64(v) => v.hash(&mut h),
            Column::Str(v) => v.hash(&mut h),
            Column::Bool(v) => v.hash(&mut h),
        }
    }
    h.finish()
}

/// `put_frame` calls against CSV renders: the difference is the renders
/// the store's frame memo saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounts {
    pub put: u64,
    pub rendered: u64,
}

struct Inner {
    next_seq: u64,
    events: Vec<Event>,
    /// Append handle of `events.jsonl`, opened by the first event logged.
    log: Option<File>,
    /// Frames this handle has stored, by [`frame_fingerprint`]: a frame
    /// put again (a checkpoint of a step's output) is not rendered again.
    /// Holds ids only, never a frame.
    frame_ids: HashMap<u64, ArtifactId>,
    frame_counts: FrameCounts,
}

/// Write `bytes` to `path` through a temporary file beside it and a
/// rename: a crash leaves the previous file (or none) or the complete new
/// one, never a truncated one.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> ProvResult<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| ProvenanceError::Io(format!("write {}: {e}", path.display())))
}

/// The provenance store for one analysis session.
pub struct ProvenanceStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl ProvenanceStore {
    /// Create (or reopen) a store under `dir`.
    pub fn create(dir: &Path) -> ProvResult<ProvenanceStore> {
        std::fs::create_dir_all(dir.join("artifacts"))
            .map_err(|e| ProvenanceError::Io(format!("mkdir {}: {e}", dir.display())))?;
        let mut events = Vec::new();
        let log = dir.join("events.jsonl");
        if log.is_file() {
            let text = std::fs::read_to_string(&log)
                .map_err(|e| ProvenanceError::Io(e.to_string()))?;
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                let ev: Event = serde_json::from_str(line)
                    .map_err(|e| ProvenanceError::Corrupt(e.to_string()))?;
                events.push(ev);
            }
        }
        let next_seq = events.last().map_or(1, |e| e.seq + 1);
        Ok(ProvenanceStore {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                next_seq,
                events,
                log: None,
                frame_ids: HashMap::new(),
                frame_counts: FrameCounts::default(),
            }),
        })
    }

    /// Session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn artifact_path(&self, id: &ArtifactId) -> PathBuf {
        self.dir.join("artifacts").join(&id.0)
    }

    fn put_bytes(&self, kind: ArtifactKind, bytes: &[u8]) -> ProvResult<ArtifactId> {
        let id = ArtifactId(format!("{:016x}.{}", content_hash(bytes), kind.extension()));
        let path = self.artifact_path(&id);
        // Identical content dedupes against the stored file — unless that
        // file is shorter than the content its name claims (an in-place
        // write cut short by a crash), which is replaced. The lock keeps
        // two writers of one id off the same temporary file.
        let _writing = self.inner.lock();
        let stored = std::fs::metadata(&path).is_ok_and(|m| m.len() == bytes.len() as u64);
        if !stored {
            write_atomic(&path, bytes)?;
        }
        Ok(id)
    }

    /// Store an intermediate dataframe as CSV. A frame this handle has
    /// already stored is recognised by content and not rendered again.
    pub fn put_frame(&self, frame: &DataFrame) -> ProvResult<ArtifactId> {
        let fingerprint = frame_fingerprint(frame);
        {
            let mut inner = self.inner.lock();
            inner.frame_counts.put += 1;
            if let Some(id) = inner.frame_ids.get(&fingerprint) {
                return Ok(id.clone());
            }
        }
        let id = self.put_bytes(ArtifactKind::Csv, frame.to_csv_string().as_bytes())?;
        let mut inner = self.inner.lock();
        inner.frame_counts.rendered += 1;
        inner.frame_ids.insert(fingerprint, id.clone());
        Ok(id)
    }

    /// How many frames were put, and how many of them had to be rendered.
    pub fn frame_counts(&self) -> FrameCounts {
        self.inner.lock().frame_counts
    }

    /// Store a text artifact (code, SQL, SVG, JSON, ...).
    pub fn put_text(&self, kind: ArtifactKind, text: &str) -> ProvResult<ArtifactId> {
        self.put_bytes(kind, text.as_bytes())
    }

    /// Read back a stored frame.
    pub fn get_frame(&self, id: &ArtifactId) -> ProvResult<DataFrame> {
        let path = self.artifact_path(id);
        if !path.is_file() {
            return Err(ProvenanceError::MissingArtifact(id.0.clone()));
        }
        DataFrame::read_csv(&path).map_err(|e| ProvenanceError::Corrupt(e.to_string()))
    }

    /// Read back a text artifact.
    pub fn get_text(&self, id: &ArtifactId) -> ProvResult<String> {
        std::fs::read_to_string(self.artifact_path(id))
            .map_err(|_| ProvenanceError::MissingArtifact(id.0.clone()))
    }

    /// Append an event; returns its sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn log_event(
        &self,
        agent: &str,
        action: &str,
        inputs: Vec<ArtifactId>,
        outputs: Vec<ArtifactId>,
        message: &str,
        tokens: u64,
        wall_ms: u64,
    ) -> ProvResult<u64> {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let ev = Event {
            seq,
            agent: agent.to_string(),
            action: action.to_string(),
            inputs,
            outputs,
            message: message.to_string(),
            tokens,
            wall_ms,
        };
        let mut line = serde_json::to_string(&ev).expect("event serializes");
        line.push('\n');
        if inner.log.is_none() {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join("events.jsonl"))
                .map_err(|e| ProvenanceError::Io(e.to_string()))?;
            inner.log = Some(f);
        }
        let log = inner.log.as_mut().expect("opened above");
        log.write_all(line.as_bytes())
            .map_err(|e| ProvenanceError::Io(e.to_string()))?;
        inner.events.push(ev);
        Ok(seq)
    }

    /// All events in order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.clone()
    }

    /// Total bytes of stored artifacts — the paper's "storage overhead"
    /// metric numerator.
    pub fn storage_bytes(&self) -> u64 {
        let dir = self.dir.join("artifacts");
        std::fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    // A `*.tmp` is a write a crash cut short, not an artifact.
                    .filter(|e| Path::new(&e.file_name()).extension() != Some("tmp".as_ref()))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Render the audit trail as human-readable text.
    pub fn audit_report(&self) -> String {
        let mut out = String::from("# Provenance audit trail\n\n");
        for ev in self.events() {
            out.push_str(&format!(
                "[{:04}] {:<14} {:<22} tokens={:<7} {}ms\n",
                ev.seq, ev.agent, ev.action, ev.tokens, ev.wall_ms
            ));
            if !ev.message.is_empty() {
                out.push_str(&format!("       {}\n", ev.message));
            }
            for a in &ev.inputs {
                out.push_str(&format!("       in:  {a}\n"));
            }
            for a in &ev.outputs {
                out.push_str(&format!("       out: {a}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infera_frame::Column;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("infera_prov_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn frame() -> DataFrame {
        DataFrame::from_columns([
            ("a", Column::from(vec![1i64, 2])),
            ("b", Column::from(vec![0.5, 1.5])),
        ])
        .unwrap()
    }

    #[test]
    fn artifact_roundtrip_and_dedup() {
        let store = ProvenanceStore::create(&tmp("roundtrip")).unwrap();
        let id1 = store.put_frame(&frame()).unwrap();
        let id2 = store.put_frame(&frame()).unwrap();
        assert_eq!(id1, id2, "identical content must dedupe");
        let back = store.get_frame(&id1).unwrap();
        assert_eq!(back, frame());
        let code = store
            .put_text(ArtifactKind::Program, "x = head(df, 5)")
            .unwrap();
        assert_eq!(store.get_text(&code).unwrap(), "x = head(df, 5)");
    }

    /// An id is a function of the bytes alone: the same from any handle,
    /// any directory, any process (the pinned one was computed once and
    /// must never move — stored trails name their artifacts by it).
    #[test]
    fn ids_depend_on_content_only() {
        let a = ProvenanceStore::create(&tmp("ids_a")).unwrap();
        let b = ProvenanceStore::create(&tmp("ids_b")).unwrap();
        let text = "SELECT fof_halo_tag, fof_halo_mass FROM halos WHERE step = 624";
        let id = a.put_text(ArtifactKind::Sql, text).unwrap();
        assert_eq!(b.put_text(ArtifactKind::Sql, text).unwrap(), id);
        assert_eq!(a.put_text(ArtifactKind::Sql, text).unwrap(), id);
        assert_eq!(id.0, "6b851f1b1ad0ebe4.sql");
        assert_eq!(
            a.put_frame(&frame()).unwrap(),
            b.put_frame(&frame()).unwrap()
        );
        // The kind is part of the name, not of the hash.
        let as_text = a.put_text(ArtifactKind::Text, text).unwrap();
        assert_eq!(as_text.0.split('.').next(), id.0.split('.').next());
    }

    /// Whole words and the byte tail both count, and so does length:
    /// inputs that differ in one tail byte, in one byte of one word, or
    /// only by trailing NULs get different names.
    #[test]
    fn ids_tell_tails_words_and_lengths_apart() {
        let base: Vec<u8> = (0..64u8).map(|i| b'a' + i % 26).collect();
        let mut seen = std::collections::HashSet::new();
        // Every prefix (tails of 0 to 7 bytes after 0 to 8 words) …
        for len in 0..=base.len() {
            assert!(seen.insert(content_hash(&base[..len])), "prefix of {len}");
        }
        // … every single-byte edit of the longest tail and of a whole word …
        for at in (0..8).chain(56..63) {
            let mut edited = base[..63].to_vec();
            edited[at] ^= 0x01;
            assert!(seen.insert(content_hash(&edited)), "edit at {at}");
            edited[at] ^= 0x81;
            assert!(seen.insert(content_hash(&edited)), "high-bit edit at {at}");
        }
        // … and zero padding of every length up to two words.
        let mut padded = base.clone();
        for extra in 1..=16 {
            padded.push(0);
            assert!(seen.insert(content_hash(&padded)), "{extra} trailing NULs");
        }
        for zeros in 1..=16 {
            assert!(seen.insert(content_hash(&vec![0u8; zeros])), "{zeros} NULs");
        }
    }

    #[test]
    fn events_are_sequential_and_persistent() {
        let dir = tmp("events");
        {
            let store = ProvenanceStore::create(&dir).unwrap();
            let a = store.put_text(ArtifactKind::Sql, "SELECT 1").unwrap();
            assert!(!dir.join("events.jsonl").exists(), "opened by the first event");
            store
                .log_event("sql", "generate_sql", vec![], vec![a.clone()], "first", 120, 5)
                .unwrap();
            store
                .log_event("sandbox", "execute", vec![a], vec![], "second", 0, 42)
                .unwrap();
        }
        // Reopen: events survive, sequence continues.
        let store = ProvenanceStore::create(&dir).unwrap();
        let events = store.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        let seq = store
            .log_event("qa", "score", vec![], vec![], "third", 10, 1)
            .unwrap();
        assert_eq!(seq, 3);
    }

    #[test]
    fn a_frame_put_again_is_not_rendered_again() {
        let dir = tmp("memo");
        let store = ProvenanceStore::create(&dir).unwrap();
        let id = store.put_frame(&frame()).unwrap();
        assert_eq!(store.put_frame(&frame().clone()).unwrap(), id);
        assert_eq!(store.frame_counts(), FrameCounts { put: 2, rendered: 1 });
        // Same cells under another name, or as another dtype: other frames.
        let renamed = DataFrame::from_columns([
            ("a", Column::from(vec![1i64, 2])),
            ("c", Column::from(vec![0.5, 1.5])),
        ])
        .unwrap();
        let retyped = DataFrame::from_columns([
            ("a", Column::from(vec![1.0, 2.0])),
            ("b", Column::from(vec![0.5, 1.5])),
        ])
        .unwrap();
        assert_ne!(store.put_frame(&renamed).unwrap(), id);
        assert_ne!(store.put_frame(&retyped).unwrap(), id);
        assert_eq!(store.frame_counts(), FrameCounts { put: 4, rendered: 3 });
        // The memo belongs to the handle: a reopened store renders, and
        // lands on the stored artifact.
        let reopened = ProvenanceStore::create(&dir).unwrap();
        assert_eq!(reopened.put_frame(&frame()).unwrap(), id);
        assert_eq!(reopened.frame_counts(), FrameCounts { put: 1, rendered: 1 });
    }

    /// What a crash mid-write leaves — a `*.tmp` beside the artifacts, or
    /// (from an in-place write) an artifact shorter than its content —
    /// is not stored content: it is not counted, not served, and the next
    /// put of that content writes it whole.
    #[test]
    fn interrupted_writes_are_not_taken_for_artifacts() {
        let dir = tmp("interrupted");
        let other = DataFrame::from_columns([("x", Column::from(vec![7i64, 8, 9]))]).unwrap();
        let (id, other_id, whole) = {
            let store = ProvenanceStore::create(&dir).unwrap();
            let id = store.put_frame(&frame()).unwrap();
            let other_id = ProvenanceStore::create(&tmp("interrupted_scratch"))
                .unwrap()
                .put_frame(&other)
                .unwrap();
            (id, other_id, store.storage_bytes())
        };
        let artifacts = dir.join("artifacts");
        let csv = frame().to_csv_string();
        std::fs::write(artifacts.join(&id.0), &csv.as_bytes()[..csv.len() / 2]).unwrap();
        std::fs::write(artifacts.join(format!("{}.tmp", other_id.0)), b"x\n7\n").unwrap();

        let store = ProvenanceStore::create(&dir).unwrap();
        assert_eq!(store.storage_bytes(), (csv.len() / 2) as u64, "the tmp is not counted");
        assert!(matches!(
            store.get_frame(&other_id),
            Err(ProvenanceError::MissingArtifact(_))
        ));
        assert_eq!(store.put_frame(&other).unwrap(), other_id);
        assert_eq!(store.get_frame(&other_id).unwrap(), other);
        assert!(!artifacts.join(format!("{}.tmp", other_id.0)).exists());
        // The truncated artifact is replaced, not deduped against.
        assert_eq!(store.put_frame(&frame()).unwrap(), id);
        assert_eq!(std::fs::read(artifacts.join(&id.0)).unwrap(), csv.as_bytes());
        assert_eq!(store.get_frame(&id).unwrap(), frame());
        assert_eq!(store.storage_bytes(), whole + store.get_text(&other_id).unwrap().len() as u64);
    }

    #[test]
    fn storage_bytes_counts_artifacts() {
        let store = ProvenanceStore::create(&tmp("bytes")).unwrap();
        assert_eq!(store.storage_bytes(), 0);
        store.put_frame(&frame()).unwrap();
        assert!(store.storage_bytes() > 0);
    }

    #[test]
    fn missing_artifact_error() {
        let store = ProvenanceStore::create(&tmp("missing")).unwrap();
        let err = store
            .get_frame(&ArtifactId("deadbeef.csv".into()))
            .unwrap_err();
        assert!(matches!(err, ProvenanceError::MissingArtifact(_)));
    }

    #[test]
    fn audit_report_lists_steps() {
        let store = ProvenanceStore::create(&tmp("audit")).unwrap();
        let a = store.put_text(ArtifactKind::Program, "return df").unwrap();
        store
            .log_event("python", "execute_program", vec![a], vec![], "ran ok", 321, 7)
            .unwrap();
        let report = store.audit_report();
        assert!(report.contains("python"));
        assert!(report.contains("execute_program"));
        assert!(report.contains("tokens=321"));
    }

    #[test]
    fn concurrent_logging_keeps_unique_seqs() {
        let store = std::sync::Arc::new(ProvenanceStore::create(&tmp("concurrent")).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = store.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        store
                            .log_event("agent", "act", vec![], vec![], "", 1, 1)
                            .unwrap();
                    }
                });
            }
        });
        let mut seqs: Vec<u64> = store.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=100).collect::<Vec<u64>>());
    }
}
