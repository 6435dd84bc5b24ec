//! Stateful checkpoints and workflow branching (§4.2.1).
//!
//! "By capturing and preserving the exact computational state from each
//! analysis agent, the system enables efficient workflow branching and
//! exploration ... researchers can branch from established processing
//! stages to explore different analytical paths."
//!
//! A checkpoint snapshots the sandbox environment (every named frame) plus
//! an arbitrary JSON state blob, and records its parent, forming a
//! branchable lineage tree.

use crate::store::{write_atomic, ArtifactId, ProvResult, ProvenanceError, ProvenanceStore};
use infera_frame::DataFrame;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Checkpoint identifier (sequence within the store).
pub type CheckpointId = u64;

/// Persistent checkpoint record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    pub id: CheckpointId,
    /// Parent checkpoint (None for roots) — the branching lineage.
    pub parent: Option<CheckpointId>,
    /// Human label ("after data loading", "post-SQL filter", ...).
    pub label: String,
    /// Named frames: name → artifact.
    pub frames: Vec<(String, ArtifactId)>,
    /// Arbitrary serialized agent state.
    pub state_json: String,
}

fn index_path(store: &ProvenanceStore) -> std::path::PathBuf {
    store.dir().join("checkpoints.json")
}

fn load_index(store: &ProvenanceStore) -> ProvResult<Vec<CheckpointRecord>> {
    let path = index_path(store);
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| ProvenanceError::Io(e.to_string()))?;
    serde_json::from_str(&text).map_err(|e| ProvenanceError::Corrupt(e.to_string()))
}

fn save_index(store: &ProvenanceStore, index: &[CheckpointRecord]) -> ProvResult<()> {
    let text = serde_json::to_string_pretty(index).expect("index serializes");
    write_atomic(&index_path(store), text.as_bytes())
}

/// Save a checkpoint of `env` (+ agent `state_json`) with optional parent.
pub fn save_checkpoint(
    store: &ProvenanceStore,
    label: &str,
    parent: Option<CheckpointId>,
    env: &HashMap<String, DataFrame>,
    state_json: &str,
) -> ProvResult<CheckpointId> {
    let mut frames: Vec<(String, ArtifactId)> = Vec::with_capacity(env.len());
    let mut names: Vec<&String> = env.keys().collect();
    names.sort();
    for name in names {
        let id = store.put_frame(&env[name])?;
        frames.push((name.clone(), id));
    }
    let mut index = load_index(store)?;
    if let Some(p) = parent {
        if !index.iter().any(|c| c.id == p) {
            return Err(ProvenanceError::MissingArtifact(format!(
                "parent checkpoint {p}"
            )));
        }
    }
    let id = index.last().map_or(1, |c| c.id + 1);
    let record = CheckpointRecord {
        id,
        parent,
        label: label.to_string(),
        frames: frames.clone(),
        state_json: state_json.to_string(),
    };
    index.push(record);
    save_index(store, &index)?;
    store.log_event(
        "system",
        "checkpoint",
        vec![],
        frames.into_iter().map(|(_, a)| a).collect(),
        &format!("checkpoint {id} '{label}'"),
        0,
        0,
    )?;
    Ok(id)
}

/// Load a checkpoint's environment and state.
pub fn load_checkpoint(
    store: &ProvenanceStore,
    id: CheckpointId,
) -> ProvResult<(HashMap<String, DataFrame>, String)> {
    let index = load_index(store)?;
    let record = index
        .iter()
        .find(|c| c.id == id)
        .ok_or_else(|| ProvenanceError::MissingArtifact(format!("checkpoint {id}")))?;
    let mut env = HashMap::with_capacity(record.frames.len());
    for (name, artifact) in &record.frames {
        env.insert(name.clone(), store.get_frame(artifact)?);
    }
    Ok((env, record.state_json.clone()))
}

/// All checkpoints, in creation order.
pub fn list_checkpoints(store: &ProvenanceStore) -> ProvResult<Vec<CheckpointRecord>> {
    load_index(store)
}

/// The ancestor chain of a checkpoint, root first.
pub fn lineage(store: &ProvenanceStore, id: CheckpointId) -> ProvResult<Vec<CheckpointId>> {
    let index = load_index(store)?;
    let mut chain = Vec::new();
    let mut cursor = Some(id);
    while let Some(c) = cursor {
        let rec = index
            .iter()
            .find(|r| r.id == c)
            .ok_or_else(|| ProvenanceError::MissingArtifact(format!("checkpoint {c}")))?;
        chain.push(c);
        cursor = rec.parent;
        if chain.len() > index.len() {
            return Err(ProvenanceError::Corrupt("checkpoint cycle".into()));
        }
    }
    chain.reverse();
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infera_frame::Column;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("infera_ckpt_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn env(v: f64) -> HashMap<String, DataFrame> {
        let mut m = HashMap::new();
        m.insert(
            "halos".to_string(),
            DataFrame::from_columns([("m", Column::from(vec![v, v * 2.0]))]).unwrap(),
        );
        m
    }

    #[test]
    fn save_load_roundtrip() {
        let store = ProvenanceStore::create(&tmp("roundtrip")).unwrap();
        let id = save_checkpoint(&store, "after load", None, &env(1.0), "{\"step\":2}").unwrap();
        let (loaded, state) = load_checkpoint(&store, id).unwrap();
        assert_eq!(loaded["halos"], env(1.0)["halos"]);
        assert_eq!(state, "{\"step\":2}");
    }

    #[test]
    fn branching_lineage() {
        let store = ProvenanceStore::create(&tmp("branch")).unwrap();
        let root = save_checkpoint(&store, "root", None, &env(1.0), "{}").unwrap();
        let a = save_checkpoint(&store, "path a", Some(root), &env(2.0), "{}").unwrap();
        let b = save_checkpoint(&store, "path b", Some(root), &env(3.0), "{}").unwrap();
        let a2 = save_checkpoint(&store, "path a deeper", Some(a), &env(4.0), "{}").unwrap();
        assert_eq!(lineage(&store, a2).unwrap(), vec![root, a, a2]);
        assert_eq!(lineage(&store, b).unwrap(), vec![root, b]);
        // Both branches resolvable with distinct data.
        let (ea, _) = load_checkpoint(&store, a).unwrap();
        let (eb, _) = load_checkpoint(&store, b).unwrap();
        assert_ne!(ea["halos"], eb["halos"]);
    }

    #[test]
    fn missing_parent_rejected() {
        let store = ProvenanceStore::create(&tmp("noparent")).unwrap();
        let err = save_checkpoint(&store, "x", Some(99), &env(1.0), "{}").unwrap_err();
        assert!(matches!(err, ProvenanceError::MissingArtifact(_)));
    }

    #[test]
    fn checkpoints_persist_across_reopen() {
        let dir = tmp("persist");
        let id;
        {
            let store = ProvenanceStore::create(&dir).unwrap();
            id = save_checkpoint(&store, "persisted", None, &env(5.0), "{}").unwrap();
        }
        let store = ProvenanceStore::create(&dir).unwrap();
        let list = list_checkpoints(&store).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].label, "persisted");
        let (loaded, _) = load_checkpoint(&store, id).unwrap();
        assert_eq!(loaded["halos"].n_rows(), 2);
    }

    #[test]
    fn interrupted_index_write_keeps_the_old_index() {
        let dir = tmp("tornindex");
        let store = ProvenanceStore::create(&dir).unwrap();
        let first = save_checkpoint(&store, "first", None, &env(1.0), "{}").unwrap();
        // A crash while the next index was being written leaves its
        // temporary file; the index itself is the last complete one.
        std::fs::write(dir.join("checkpoints.json.tmp"), b"[{\"id\": 2, \"par").unwrap();
        let store = ProvenanceStore::create(&dir).unwrap();
        let list = list_checkpoints(&store).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].id, first);
        let second = save_checkpoint(&store, "second", Some(first), &env(2.0), "{}").unwrap();
        assert_eq!(lineage(&store, second).unwrap(), vec![first, second]);
        assert!(!dir.join("checkpoints.json.tmp").exists());
    }

    /// Artifact ids are opaque on read: a store whose artifacts carry the
    /// names an older build gave them (FNV-1a over every byte) is served
    /// as it stands.
    #[test]
    fn a_store_with_older_artifact_names_still_loads() {
        let dir = tmp("oldnames");
        let id = {
            let store = ProvenanceStore::create(&dir).unwrap();
            save_checkpoint(&store, "old", None, &env(1.0), "{\"step\":1}").unwrap()
        };
        let index_path = dir.join("checkpoints.json");
        let mut index = std::fs::read_to_string(&index_path).unwrap();
        let mut renamed = 0;
        for entry in std::fs::read_dir(dir.join("artifacts")).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            let fnv1a = std::fs::read(&path)
                .unwrap()
                .iter()
                .fold(0xcbf29ce484222325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
                });
            let old = format!("{fnv1a:016x}.csv");
            assert_ne!(old, name, "the names did change");
            std::fs::rename(&path, path.with_file_name(&old)).unwrap();
            index = index.replace(&name, &old);
            renamed += 1;
        }
        assert_eq!(renamed, 1);
        std::fs::write(&index_path, index).unwrap();

        let store = ProvenanceStore::create(&dir).unwrap();
        let (loaded, state) = load_checkpoint(&store, id).unwrap();
        assert_eq!(loaded["halos"], env(1.0)["halos"]);
        assert_eq!(state, "{\"step\":1}");
        let record = &list_checkpoints(&store).unwrap()[0];
        assert_eq!(
            store.get_frame(&record.frames[0].1).unwrap(),
            env(1.0)["halos"]
        );
        // A new checkpoint on top of it names its frames the new way.
        let next = save_checkpoint(&store, "new", Some(id), &env(1.0), "{}").unwrap();
        assert_eq!(lineage(&store, next).unwrap(), vec![id, next]);
        let list = list_checkpoints(&store).unwrap();
        assert_ne!(list[1].frames[0].1, list[0].frames[0].1);
        assert_eq!(
            load_checkpoint(&store, next).unwrap().0["halos"],
            env(1.0)["halos"]
        );
    }

    #[test]
    fn checkpoint_logs_event() {
        let store = ProvenanceStore::create(&tmp("logsevent")).unwrap();
        save_checkpoint(&store, "tagged", None, &env(1.0), "{}").unwrap();
        let events = store.events();
        assert!(events.iter().any(|e| e.action == "checkpoint"));
    }
}
