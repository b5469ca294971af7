//! N-node replica-set behaviour: RF=2 bit-identity with the two-node
//! pair, multicast fan-out, chain propagation, quorum acknowledgement,
//! partition degradation, and takeover promotion.

use dsnrep_cluster::{NodeId, ReplicationStrategy, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::{modeled_pairs, PassiveCluster, ReplicaSet};
use dsnrep_rio::Arena;
use dsnrep_simcore::{CostModel, VirtualDuration};
use dsnrep_workloads::DebitCredit;

const DB: u64 = 1 << 20;

fn config() -> EngineConfig {
    EngineConfig::for_db(DB)
}

fn db_bytes(arena: &std::cell::RefCell<Arena>, set: &ReplicaSet) -> Vec<u8> {
    let db = set.engine().db_region();
    arena.borrow().read_vec(db.start(), db.len() as usize)
}

#[test]
fn primary_backup_rf2_is_bit_identical_to_the_pair() {
    let config = config();
    let mut pair = PassiveCluster::new(CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config);
    let mut pw = DebitCredit::new(pair.engine().db_region(), 7);
    let pair_report = pair.run(&mut pw, 200);

    let topology = Topology::pair();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut sw = DebitCredit::new(set.engine().db_region(), 7);
    let set_report = set.run(&mut sw, 200);

    // Same virtual elapsed time, same packet count, same traffic bytes:
    // the RF=2 primary-backup configuration takes the identical code path.
    assert_eq!(pair_report.elapsed, set_report.elapsed);
    assert_eq!(
        pair.machine().packets_emitted(),
        set.machine().packets_emitted()
    );
    assert_eq!(pair.traffic(), set.traffic());

    pair.quiesce();
    set.quiesce();
    let db = pair.engine().db_region();
    let pair_db = pair
        .backup_arena()
        .borrow()
        .read_vec(db.start(), db.len() as usize);
    let set_db = set
        .replica_arena(1)
        .borrow()
        .read_vec(db.start(), db.len() as usize);
    assert_eq!(pair_db, set_db);
}

#[test]
fn primary_backup_rf3_multicasts_at_pair_cost() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::PrimaryBackup).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut w = DebitCredit::new(set.engine().db_region(), 3);
    set.run(&mut w, 150);
    set.quiesce();
    // Hub multicast: both backups got every packet, and the link carried
    // it once (no fabric legs at all for primary-backup).
    assert_eq!(set.received_by(1), set.received_by(2));
    assert!(set.fabric_traffic().is_empty());
    let a = db_bytes(set.replica_arena(1), &set);
    let b = db_bytes(set.replica_arena(2), &set);
    assert_eq!(a, b);
    assert_eq!(set.degraded_commits(), 0);
}

#[test]
fn chain_rf3_converges_and_acks_through_the_tail() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Chain).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut w = DebitCredit::new(set.engine().db_region(), 11);
    set.run(&mut w, 100);
    set.quiesce();
    assert_eq!(set.received_by(1), set.received_by(2));
    let a = db_bytes(set.replica_arena(1), &set);
    let b = db_bytes(set.replica_arena(2), &set);
    assert_eq!(a, b, "tail must converge on node 1's image");
    // The forward hop re-ships the data; the ack link carries one small
    // packet per transaction.
    let per_pair = set.fabric_traffic();
    assert_eq!(per_pair.len(), 2);
    let hop = &per_pair.iter().find(|(p, _)| *p == (1, 2)).unwrap().1;
    let ack = &per_pair.iter().find(|(p, _)| *p == (2, 0)).unwrap().1;
    assert_eq!(hop.total_bytes(), set.head_traffic().total_bytes());
    assert_eq!(ack.total_packets(), 100);
    assert_eq!(set.degraded_commits(), 0);
}

#[test]
fn chain_ack_wait_slows_the_head() {
    let config = config();
    let run = |strategy| {
        let mut set = ReplicaSet::new(
            CostModel::alpha_21164a(),
            VersionTag::ImprovedLog,
            &config,
            Topology::new(3, strategy).unwrap(),
        );
        let mut w = DebitCredit::new(set.engine().db_region(), 5);
        set.run(&mut w, 50).elapsed
    };
    // The chain commits wait for two extra link traversals (hop + ack):
    // strictly slower than multicast primary-backup at the same RF.
    assert!(run(ReplicationStrategy::Chain) > run(ReplicationStrategy::PrimaryBackup));
}

#[test]
fn chain_crash_promotes_node1_with_every_commit() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Chain).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut w = DebitCredit::new(set.engine().db_region(), 13);
    set.run(&mut w, 80);
    let (successor, failover) = set.crash_head();
    assert_eq!(successor, NodeId::new(1));
    // Chain commits are 2-safe to node 1: nothing committed is lost.
    assert!(
        failover.report.committed_seq >= 80,
        "recovered {}",
        failover.report.committed_seq
    );
}

#[test]
fn quorum_rf3_commits_wait_for_w_and_recover_everything() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut w = DebitCredit::new(set.engine().db_region(), 17);
    set.run(&mut w, 80);
    assert_eq!(set.degraded_commits(), 0);
    let (successor, failover) = set.crash_head();
    assert_eq!(successor, NodeId::new(1));
    assert!(
        failover.report.committed_seq >= 80,
        "recovered {}",
        failover.report.committed_seq
    );
}

#[test]
fn quorum_partition_drop_degrades_commits_but_loses_nothing() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 3 }).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    // W=3 needs both replica acks; cutting the 0→2 fan-out starves the
    // quorum from the first transaction on.
    set.partition_drop_after(0, 2, 0);
    let mut w = DebitCredit::new(set.engine().db_region(), 19);
    set.run(&mut w, 40);
    assert_eq!(set.degraded_commits(), 40);
    assert_eq!(set.received_by(2), 0);
    let (successor, failover) = set.crash_head();
    // Node 2 is a hole-ridden copy; node 1 holds everything and wins.
    assert_eq!(successor, NodeId::new(1));
    assert!(failover.report.committed_seq >= 40);
}

#[test]
fn quorum_ack_delay_slows_commits() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 3 }).unwrap();
    let elapsed = |delay: Option<VirtualDuration>| {
        let mut set = ReplicaSet::new(
            CostModel::alpha_21164a(),
            VersionTag::ImprovedLog,
            &config,
            topology,
        );
        if let Some(d) = delay {
            set.partition_delay(2, 0, d);
        }
        let mut w = DebitCredit::new(set.engine().db_region(), 23);
        let r = set.run(&mut w, 30);
        assert_eq!(set.degraded_commits(), 0);
        r.elapsed
    };
    let base = elapsed(None);
    let delayed = elapsed(Some(VirtualDuration::from_micros(50)));
    // W=3 waits on the slowest ack, which the partition delays by 50 µs
    // per commit.
    assert!(
        delayed >= base + VirtualDuration::from_micros(50 * 30),
        "base {base:?} delayed {delayed:?}"
    );
}

#[test]
fn chain_hop_drop_leaves_tail_behind_but_node1_whole() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Chain).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    set.partition_drop_after(1, 2, 100);
    let mut w = DebitCredit::new(set.engine().db_region(), 29);
    set.run(&mut w, 60);
    assert!(set.degraded_commits() > 0);
    assert!(set.received_by(2) < set.received_by(1));
    let (successor, failover) = set.crash_head();
    assert_eq!(successor, NodeId::new(1));
    assert!(failover.report.committed_seq >= 60);
}

#[test]
fn primary_backup_reads_are_never_stale() {
    let config = config();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        Topology::pair(),
    );
    let mut w = DebitCredit::new(set.engine().db_region(), 7);
    set.run(&mut w, 20);
    let now = set.machine().now();
    let sample = set.serve_read(now);
    assert_eq!(sample.node, NodeId::new(0));
    assert_eq!(sample.seq, 20);
    assert_eq!(sample.staleness, 0);
    assert!(sample.completed > sample.at);
}

#[test]
fn chain_tail_reads_trail_by_the_propagation_delay() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Chain).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut w = DebitCredit::new(set.engine().db_region(), 11);
    set.run(&mut w, 30);
    let now = set.machine().now();
    // The tail serves; immediately after the last commit the forward hop
    // may still be in flight, but the prefix is never ahead of the head.
    let sample = set.serve_read(now);
    assert_eq!(sample.node, NodeId::new(2));
    assert!(sample.seq <= 30);
    assert_eq!(sample.staleness, 30 - sample.seq);
    // Far enough in the future everything has propagated.
    let later = set.serve_read(now + VirtualDuration::from_millis(10));
    assert_eq!(later.seq, 30);
    assert_eq!(later.staleness, 0);
    assert!(later.seq >= sample.seq, "tail reads are monotone");
}

#[test]
fn chain_tail_reads_freeze_at_the_last_whole_transaction_before_a_hole() {
    let config = config();
    let topology = Topology::new(4, ReplicationStrategy::Chain).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    // The last hop swallows everything after 150 packets: the tail's copy
    // is holed mid-run.
    set.partition_drop_after(2, 3, 150);
    let mut w = DebitCredit::new(set.engine().db_region(), 31);
    // The tail holds transaction k whole iff it had lost nothing by the
    // end of k's settlement, i.e. it had every packet node 1 relayed.
    let mut whole = 0u64;
    for n in 1..=60 {
        set.run_txn(&mut w);
        if set.received_by(3) == set.received_by(1) {
            whole = n;
        }
    }
    assert!(whole > 0 && whole < 60, "the hole lands mid-run: {whole}");
    assert_eq!(set.degraded_commits(), 60 - whole);
    let far = set.machine().now() + VirtualDuration::from_secs(1);
    let frozen = set.serve_read(far);
    assert_eq!(frozen.node, NodeId::new(3));
    assert_eq!(frozen.seq, whole);
    assert_eq!(frozen.staleness, 60 - whole);
    // More commits move the coordinator's clock, never the tail's prefix.
    set.run(&mut w, 20);
    let far = set.machine().now() + VirtualDuration::from_secs(1);
    assert_eq!(set.committed_at(far), 80);
    let later = set.serve_read(far);
    assert_eq!(later.seq, whole);
    assert_eq!(later.staleness, 80 - whole);
}

#[test]
fn quorum_reads_serve_the_full_prefix_past_a_fan_out_hole() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    // Node 2's copy is holed early; node 1 keeps acknowledging, so W=2
    // still commits without degrading.
    set.partition_drop_after(0, 2, 40);
    let mut w = DebitCredit::new(set.engine().db_region(), 37);
    let mut served_past_hole = std::collections::BTreeSet::new();
    for n in 1..=60 {
        set.run_txn(&mut w);
        let sample = set.serve_read(set.machine().now());
        // R=2 over 3 nodes: every read set holds node 1 or the head.
        assert_eq!(sample.seq, n, "read {n}");
        assert_eq!(sample.staleness, 0, "read {n}");
        if set.received_by(2) < set.received_by(1) {
            served_past_hole.insert(sample.node.as_u8());
        }
    }
    assert_eq!(set.degraded_commits(), 0);
    assert_eq!(
        served_past_hole,
        [0, 1].into(),
        "the head and node 1 serve every read past the hole"
    );
}

#[test]
fn quorum_reads_rotate_and_observe_staleness_under_delay() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    // Slow the 0→2 fan-out: node 2's copy trails by 5 ms.
    set.partition_delay(0, 2, VirtualDuration::from_millis(5));
    let mut w = DebitCredit::new(set.engine().db_region(), 17);
    set.run(&mut w, 30);
    assert_eq!(set.degraded_commits(), 0);
    let now = set.machine().now();
    // R=2 over 3 nodes: every rotation includes node 1 or the head, and
    // R+W > RF means any full quorum observes the committed prefix.
    let mut nodes = std::collections::BTreeSet::new();
    let mut last_completed = now;
    for i in 0..6 {
        let sample = set.serve_read(now + VirtualDuration::from_micros(i));
        nodes.insert(sample.node.as_u8());
        assert_eq!(sample.seq, 30, "rotation {i}");
        assert_eq!(sample.staleness, 0, "rotation {i}");
        assert!(sample.completed >= sample.at);
        last_completed = last_completed.max(sample.completed);
    }
    assert!(nodes.len() > 1, "read quorums must rotate: {nodes:?}");
    // Fabric read legs materialized: request out, response back.
    let pairs: Vec<(u8, u8)> = set.fabric_traffic().iter().map(|(p, _)| *p).collect();
    assert!(
        pairs.contains(&(1, 0)) && pairs.contains(&(0, 1)),
        "{pairs:?}"
    );
}

#[test]
fn quorum_reads_fall_back_to_the_head_when_replicas_are_cut() {
    let config = config();
    let topology = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).unwrap();
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut w = DebitCredit::new(set.engine().db_region(), 19);
    set.run(&mut w, 10);
    // Cut both read request paths: every remote member times out.
    set.partition_drop_after(0, 1, 0);
    set.partition_drop_after(0, 2, 0);
    let now = set.machine().now();
    for i in 0..3 {
        let sample = set.serve_read(now + VirtualDuration::from_micros(i));
        assert_eq!(sample.seq, 10, "read {i}");
        assert_eq!(sample.staleness, 0, "read {i}");
    }
}

#[test]
fn replica_reads_are_deterministic() {
    let run = || {
        let config = config();
        let topology = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).unwrap();
        let mut set = ReplicaSet::new(
            CostModel::alpha_21164a(),
            VersionTag::ImprovedLog,
            &config,
            topology,
        );
        let mut w = DebitCredit::new(set.engine().db_region(), 23);
        set.run(&mut w, 15);
        let now = set.machine().now();
        (0..8)
            .map(|i| set.serve_read(now + VirtualDuration::from_micros(10 * i)))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn modeled_pairs_match_the_strategy() {
    let chain = Topology::new(4, ReplicationStrategy::Chain).unwrap();
    assert_eq!(modeled_pairs(chain), vec![(1, 2), (2, 3), (3, 0)]);
    let quorum = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).unwrap();
    assert_eq!(modeled_pairs(quorum), vec![(0, 2), (1, 0), (2, 0)]);
    assert!(modeled_pairs(Topology::pair()).is_empty());
}
