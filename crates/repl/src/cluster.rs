//! The interface every cluster driver shares.
//!
//! The paper's strategies differ on two axes: who applies updates (the
//! primary's write doubling, or the backup CPU's redo ring) and how they
//! flow (a pair, or an N-node fan-out, chain or quorum). Consumers that
//! only run transactions, quiesce, read traffic and crash the primary do
//! not care which cell of that grid they drive: [`Cluster`] is what they
//! see instead, and [`Recovery`] is the promoted-but-unrecovered node a
//! crash hands back.
//!
//! Both traits are implemented for [`PassiveCluster`](crate::PassiveCluster),
//! [`ActiveCluster`](crate::ActiveCluster) and
//! [`ReplicaSet`](crate::ReplicaSet) (whose takeovers are
//! [`Takeover`](crate::Takeover) and [`ActiveTakeover`](crate::ActiveTakeover)),
//! each impl delegating to the driver's inherent methods. Callers are
//! generic over them, so the per-transaction path dispatches statically.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_core::{Machine, MachineStats, VersionTag};
use dsnrep_mcsim::Traffic;
use dsnrep_obs::{NullTracer, Tracer};
use dsnrep_rio::{Arena, LayoutError};
use dsnrep_simcore::{CostModel, Region, VirtualInstant};
use dsnrep_workloads::{ThroughputReport, Workload};

use crate::passive::Failover;

/// A replicated cluster: one primary machine running transactions, and
/// replicas a crash can promote.
pub trait Cluster<T: Tracer + 'static = NullTracer> {
    /// The promoted-but-unrecovered node a crash hands back.
    type Takeover: Recovery<T>;

    /// The primary machine.
    fn machine(&self) -> &Machine<T>;

    /// Mutable access to the primary machine (initial load pokes, fault
    /// budgets).
    fn machine_mut(&mut self) -> &mut Machine<T>;

    /// The database region transactions operate on.
    fn db_region(&self) -> Region;

    /// Runs one transaction of `workload` on the primary, including
    /// whatever replication work the strategy settles per transaction.
    ///
    /// # Panics
    ///
    /// Panics on engine errors, or when an armed fault budget fires.
    fn run_txn(&mut self, workload: &mut dyn Workload<T>);

    /// Runs `txns` transactions and reports primary throughput.
    fn run(&mut self, workload: &mut dyn Workload<T>, txns: u64) -> ThroughputReport {
        let start = self.machine().now();
        for _ in 0..txns {
            self.run_txn(workload);
        }
        ThroughputReport {
            txns,
            elapsed: self.machine().now().duration_since(start),
        }
    }

    /// Gracefully ends a failure-free run: delivers everything in flight
    /// and lets every replica apply it.
    fn quiesce(&mut self);

    /// SAN traffic shipped so far.
    fn traffic(&self) -> Traffic;

    /// Commits whose acknowledgement set never assembled (the head
    /// proceeded after a coordinator timeout). Zero for the pair drivers.
    fn degraded_commits(&self) -> u64 {
        0
    }

    /// Transactions every replica has applied, for strategies whose
    /// replicas count them (the active backup's redo cursor). `None` when
    /// replicas hold write-doubled bytes with no sequence of their own.
    fn applied_seq(&mut self) -> Option<u64> {
        None
    }

    /// Execution counters of a backup CPU, for strategies that run one.
    fn backup_stats(&self) -> Option<MachineStats> {
        None
    }

    /// The replica arenas, most senior first. After [`Cluster::quiesce`]
    /// each holds the primary's committed database image; under fabric
    /// partitions only the first (the 2-safe target) is guaranteed to.
    fn replica_arenas(&self) -> Vec<Rc<RefCell<Arena>>>;

    /// Crashes the primary *now* and promotes a successor. Returns the
    /// instant the failover timeline starts at, and the promoted node
    /// ready to run recovery.
    fn begin_takeover(self) -> (VirtualInstant, Self::Takeover);
}

/// A promoted node that has not run its recovery procedure yet: the state
/// between "the primary is gone" and "the successor is serving".
///
/// Recovery procedures are idempotent, so a recovery crashed by an
/// injected fault is just another crash: hold [`Recovery::arena`] across
/// [`Recovery::recover`], catch the halt, and [`Recovery::resume`] over
/// the surviving arena.
pub trait Recovery<T: Tracer + 'static = NullTracer>: Sized {
    /// The promoted node's arena handle.
    fn arena(&self) -> Rc<RefCell<Arena>>;

    /// The promoted node's current virtual time.
    fn now(&self) -> VirtualInstant;

    /// Runs recovery and completes the failover.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the promoted arena is unreadable.
    ///
    /// # Panics
    ///
    /// Panics mid-recovery when an injected fault fires.
    fn recover(self) -> Result<Failover<T>, LayoutError>;

    /// Rebuilds a takeover of a `version` engine over a surviving arena: a
    /// fresh (cold-cache) machine at virtual time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the arena does not carry a formatted
    /// layout.
    fn resume(
        version: VersionTag,
        costs: CostModel,
        arena: Rc<RefCell<Arena>>,
        tracer: T,
        at: VirtualInstant,
    ) -> Result<Self, LayoutError>;
}
