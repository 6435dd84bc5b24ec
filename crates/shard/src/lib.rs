//! # infera-shard
//!
//! Sharded scatter-gather execution across ensemble partitions.
//!
//! The paper's ensembles are embarrassingly partitionable: every
//! simulation member is independent, and the assistant's aggregate
//! queries decompose into per-partition partials plus a cheap merge.
//! This crate exploits that: a [`ShardedDb`] splits the session
//! database into contiguous sim-range partitions ([`ShardLayout`]),
//! runs a query's plan fragment over every partition, and combines the
//! partial results in deterministic shard order — producing results
//! bit-identical to a single-database execution while each shard scans
//! only `1/N` of the ensemble. The shards are sources inside this
//! process: a fragment and its partial result are plain values handed to
//! `infera-columnar`'s own partial → combine executor, the one a single
//! database runs with one source. Nothing is serialised on the query
//! path (out-of-process shard workers are parked in ROADMAP.md).
//!
//! Layering:
//!
//! * [`layout`] — partitioning, per-shard manifests, fingerprints;
//! * [`exec`] — [`ShardedDb`]: per-shard execution with fault
//!   injection + retry, deterministic combine, EXPLAIN shard split;
//! * [`engine`] — [`SessionDb`], the single-vs-sharded facade the
//!   agents and the serving layer use.

pub mod engine;
pub mod exec;
pub mod layout;

pub use engine::SessionDb;
pub use exec::{ShardExecInfo, ShardRunInfo, ShardedDb, Strategy};
pub use layout::{ShardLayout, ShardSpec, LAYOUT_FILE};
