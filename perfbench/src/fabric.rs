//! `fabric_rw`: RF = 3 chain and R2/W2 quorum replica sets running
//! Order-Entry writes on a small database, each write followed by one
//! seeded read served through the strategy's read path.

use std::time::Instant;

use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::ReplicaSet;
use dsnrep_simcore::MIB;
use dsnrep_workloads::{WorkloadKind, ZipfKeys};

use crate::pair::{costs, fold_replica, fold_stats, fold_traffic};
use crate::probe::{Digest, Kind, Probe, Round, Segment};

/// Database size: a few MiB, so the run is fabric- and read-path bound.
pub const FABRIC_DB: u64 = 4 * MIB;
/// Write transactions per strategy and round; each is followed by one
/// read. Fixed, because a read's host cost grows with committed history.
pub const FABRIC_TXNS: u64 = 20_000;
/// Records the Zipf read keys are drawn from, and the skew.
pub const ZIPF_POPULATION: u32 = 1 << 16;
pub const ZIPF_S: f64 = 0.99;

pub fn strategies() -> [(&'static str, Topology); 2] {
    [
        (
            "chain",
            Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain"),
        ),
        (
            "quorum",
            Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 })
                .expect("rf 3 majority quorum"),
        ),
    ]
}

fn segment(
    p: &mut Probe,
    name: &'static str,
    topology: Topology,
    seed: u64,
    setup: &mut f64,
) -> Segment {
    let config = EngineConfig::for_db(FABRIC_DB);
    let t = Instant::now();
    let mut set = p.call("ReplicaSet::new", Kind::Other, || {
        ReplicaSet::new(costs(), VersionTag::ImprovedLog, &config, topology)
    });
    let db = set.engine().db_region();
    let mut wl = p.call("WorkloadKind::build", Kind::Other, || {
        WorkloadKind::OrderEntry.build(db, seed)
    });
    let mut keys = p.call("ZipfKeys::new", Kind::Other, || {
        ZipfKeys::new(ZIPF_POPULATION, ZIPF_S, seed)
    });
    *setup += t.elapsed().as_secs_f64();

    let mut reads = Digest::new();
    let t = Instant::now();
    for _ in 0..FABRIC_TXNS {
        p.call("ReplicaSet::run_txn", Kind::Txn, || {
            set.run_txn(wl.as_mut())
        });
        let key = p.call("ZipfKeys::next_key", Kind::Other, || keys.next_key());
        let at = set.machine().now();
        let s = p.call("ReplicaSet::serve_read", Kind::Read, || set.serve_read(at));
        reads
            .u(u64::from(key))
            .u(s.seq)
            .u(s.staleness)
            .u(s.completed.as_picos())
            .u(u64::from(s.node.as_u8()));
    }
    let work_s = t.elapsed().as_secs_f64();
    p.call("ReplicaSet::quiesce", Kind::Other, || set.quiesce());

    let mut d = Digest::new();
    let mut ok = fold_stats(&mut d, &set.machine().stats());
    fold_traffic(&mut d, &set.head_traffic());
    for ((from, to), traffic) in set.fabric_traffic() {
        d.u(u64::from(from)).u(u64::from(to));
        fold_traffic(&mut d, &traffic);
    }
    d.u(set.degraded_commits()).u(reads.value());
    let regions = set.engine().replicated_regions();
    let primary = set.machine().arena().borrow();
    for node in 1..topology.rf() {
        ok &= fold_replica(
            &mut d,
            &primary,
            &set.replica_arena(node).borrow(),
            &regions,
        );
    }
    Segment {
        name: name.to_string(),
        ops: 2 * FABRIC_TXNS,
        digest: d.value(),
        work_s,
        ok,
    }
}

pub fn round(p: &mut Probe, seed: u64) -> Round {
    let mut setup = 0.0;
    let mut segments = Vec::new();
    for (name, topology) in strategies() {
        segments.push(p.group("segment", |p| segment(p, name, topology, seed, &mut setup)));
    }
    Round {
        setup_s: setup,
        segments,
    }
}
