//! The N-node read path under a steady Order-Entry load: an RF=3 chain
//! (tail reads) and an R2/W2 quorum (rotating read sets), each
//! transaction followed by one read at the head's clock.
//!
//! Every read observes a committed prefix no larger than the
//! coordinator's, reports exactly the gap as staleness, and a read issued
//! after propagation has settled sees everything. Chain tail reads never
//! go backwards, and the whole sequence of samples is deterministic.

use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::{ReadSample, ReplicaSet};
use dsnrep_simcore::{CostModel, VirtualDuration, MIB};
use dsnrep_workloads::OrderEntry;

const DB: u64 = 4 * MIB;
const TXNS: u64 = 2_000;

/// Runs `TXNS` transactions, reading after each, and checks every sample
/// against the coordinator's committed count. Returns the samples plus a
/// final far-future read.
fn run_reads(topology: Topology) -> (Vec<ReadSample>, ReadSample) {
    let config = EngineConfig::for_db(DB);
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut w = OrderEntry::new(set.engine().db_region(), 42);
    let mut samples = Vec::with_capacity(TXNS as usize);
    for n in 1..=TXNS {
        set.run_txn(&mut w);
        let at = set.machine().now();
        let sample = set.serve_read(at);
        let committed = set.committed_at(at);
        assert_eq!(committed, n);
        assert!(sample.seq <= committed, "read {n}: {sample:?}");
        assert_eq!(sample.staleness, committed - sample.seq, "read {n}");
        samples.push(sample);
    }
    let far = set.serve_read(set.machine().now() + VirtualDuration::from_secs(1));
    (samples, far)
}

fn chain() -> Topology {
    Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain")
}

fn quorum() -> Topology {
    Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 })
        .expect("rf 3 majority quorum")
}

#[test]
fn chain_tail_reads_are_monotone_and_converge() {
    let (samples, far) = run_reads(chain());
    for pair in samples.windows(2) {
        assert!(pair[0].at <= pair[1].at);
        assert!(pair[0].seq <= pair[1].seq, "{pair:?}");
    }
    assert_eq!((far.seq, far.staleness), (TXNS, 0));
}

#[test]
fn quorum_reads_converge() {
    let (_, far) = run_reads(quorum());
    assert_eq!((far.seq, far.staleness), (TXNS, 0));
}

#[test]
fn replica_reads_repeat_exactly() {
    for topology in [chain(), quorum()] {
        assert_eq!(run_reads(topology), run_reads(topology));
    }
}
