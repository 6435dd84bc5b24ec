//! # infera-provenance
//!
//! Fine-grained provenance tracking — the reproducibility backbone of
//! InferA (§4.2.1). Every intermediate dataframe, every piece of generated
//! code, and every agent action lands in a content-addressed artifact
//! store with a sequential event log, forming a complete audit trail.
//! Checkpoints snapshot the exact computational state so analysts can
//! branch from any stage instead of re-running whole workflows.

pub mod checkpoint;
pub mod store;

pub use checkpoint::{
    lineage, list_checkpoints, load_checkpoint, save_checkpoint, CheckpointId, CheckpointRecord,
};
pub use store::{
    ArtifactId, ArtifactKind, Event, FrameCounts, ProvResult, ProvenanceError, ProvenanceStore,
};
