//! Primary-backup replication drivers.
//!
//! This crate wires the engine versions of `dsnrep-core` to the Memory
//! Channel model of `dsnrep-mcsim` into the three cluster configurations
//! the paper evaluates:
//!
//! * [`PassiveCluster`] — the backup CPU is idle; data travels purely by
//!   write doubling on the primary (paper §3 for Version 0, §5 for the
//!   restructured versions).
//! * [`ActiveCluster`] — the backup CPU applies a redo ring that carries
//!   only the modified data (paper §6), with producer/consumer flow
//!   control.
//! * [`SmpExperiment`] — N independent primary streams on one SMP sharing
//!   one SAN link (paper §8, Figures 2 and 3).
//! * [`ReplicaSet`] — the N-node generalization: an RF ≥ 2 cluster over a
//!   multi-link fabric running primary-backup fan-out, chain, or R/W
//!   quorum replication (see `dsnrep-cluster`'s `Topology`).
//!
//! All three expose crash/failover entry points used by the failure
//! injection tests and by `dsnrep-cluster`'s takeover orchestration, and
//! all three implement the [`Cluster`] trait, so consumers that only run,
//! quiesce and crash a cluster write one generic body for every driver.
//!
//! # Examples
//!
//! Failing over a passive cluster mid-stream:
//!
//! ```
//! use dsnrep_core::{EngineConfig, VersionTag};
//! use dsnrep_repl::PassiveCluster;
//! use dsnrep_simcore::CostModel;
//! use dsnrep_workloads::DebitCredit;
//!
//! let config = EngineConfig::for_db(1 << 20);
//! let mut cluster = PassiveCluster::new(
//!     CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config);
//! let mut workload = DebitCredit::new(cluster.engine().db_region(), 1);
//! cluster.run(&mut workload, 50);
//!
//! let failover = cluster.crash_primary();
//! // 1-safe: the backup has every commit except the in-flight tail (the
//! // link latency plus the posted-write backlog, ~10 us of transactions).
//! let recovered = failover.report.committed_seq;
//! assert!(recovered >= 40 && recovered <= 50, "recovered {recovered}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod active;
mod cluster;
mod passive;
mod replica_set;
mod smp;

pub use active::{ActiveCluster, ActivePrimaryEngine, ActiveTakeover, BackupNode};
pub use cluster::{Cluster, Recovery};
pub use passive::{Failover, PassiveCluster, Takeover};
pub use replica_set::{modeled_pairs, ReadSample, ReplicaSet, ReplicaTakeover};
pub use smp::{Scheme, SmpExperiment, SmpReport};
