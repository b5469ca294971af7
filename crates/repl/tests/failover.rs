//! Failover correctness: crash the primary mid-stream, take over on the
//! backup, and compare against a deterministic reference re-execution.
//!
//! The reference executor re-runs the same seeded workload against a fresh
//! standalone engine for exactly the number of transactions the backup
//! recovered, and the two database images must agree — exactly for the
//! logging versions (whose publishes are barrier-ordered), and up to the
//! documented torn-tail window (bytes inside the lost transaction's ranges)
//! for the mirroring versions.

use dsnrep_core::{build_engine, EngineConfig, Machine, ShadowDb, VersionTag};
use dsnrep_repl::{ActiveCluster, PassiveCluster};
use dsnrep_rio::PAGE_SIZE;
use dsnrep_simcore::{CostModel, Region, MIB};
use dsnrep_workloads::{TxCtx, WorkloadKind};

const DB: u64 = 4 * MIB;

/// Re-runs `kind` with `seed` for `txns` transactions on a fresh standalone
/// Version 3 engine; returns the database image and the spans written by
/// the next few transactions (for torn-tail containment checks).
fn reference_state(
    kind: WorkloadKind,
    seed: u64,
    txns: u64,
    db_len: u64,
) -> (Vec<u8>, Vec<(u64, u64)>, Region) {
    let config = EngineConfig::for_db(db_len);
    let arena = dsnrep_core::shared_arena(dsnrep_core::arena_len(VersionTag::ImprovedLog, &config));
    let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
    let mut engine = build_engine(VersionTag::ImprovedLog, &mut m, &config);
    let db = engine.db_region();
    let mut workload = kind.build(db, seed);
    let mut shadow = ShadowDb::new(db);
    for _ in 0..txns {
        let mut ctx = TxCtx::new(&mut m, engine.as_mut()).with_shadow(&mut shadow);
        workload.run_txn(&mut ctx).expect("reference transaction");
    }
    let image = m.arena().borrow().read_vec(db.start(), db.len() as usize);
    // A few more transactions to learn the spans the lost tail could touch
    // (the in-flight window spans at most a handful of commits).
    let mut tail_spans = Vec::new();
    for _ in 0..8 {
        let mut ctx = TxCtx::new(&mut m, engine.as_mut()).with_shadow(&mut shadow);
        workload.run_txn(&mut ctx).expect("tail transaction");
        tail_spans.extend_from_slice(shadow.last_txn_spans());
    }
    (image, tail_spans, db)
}

fn db_len_for(kind: WorkloadKind) -> u64 {
    match kind {
        WorkloadKind::DebitCredit => DB,
        WorkloadKind::OrderEntry => 4 * MIB, // one warehouse needs ~3.3 MB
    }
}

#[test]
fn passive_failover_recovers_a_transaction_boundary() {
    for kind in WorkloadKind::ALL {
        for version in VersionTag::ALL {
            let db_len = db_len_for(kind);
            let config = EngineConfig::for_db(db_len);
            let mut cluster = PassiveCluster::new(CostModel::alpha_21164a(), version, &config);
            let mut workload = kind.build(cluster.engine().db_region(), 7);
            let ran = 400u64;
            cluster.run(workload.as_mut(), ran);
            let failover = cluster.crash_primary();
            let recovered = failover.report.committed_seq;
            assert!(
                recovered <= ran,
                "{version}/{kind}: recovered {recovered} > ran {ran}"
            );
            assert!(
                ran - recovered < 64,
                "{version}/{kind}: lost {} transactions — window too wide",
                ran - recovered
            );

            // Compare against the reference at the recovered boundary.
            let (reference, _, _) = reference_state(kind, 7, recovered, db_len);
            let db = failover.engine.db_region();
            let actual = failover
                .machine
                .arena()
                .borrow()
                .read_vec(db.start(), db.len() as usize);
            let mismatches: Vec<u64> = reference
                .iter()
                .zip(actual.iter())
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i as u64)
                .collect();
            // Torn-tail window: mismatches must be contained in the ranges
            // written by the handful of in-flight transactions at the cut.
            let (_, tail_spans, _) = reference_state(kind, 7, recovered, db_len);
            for &off in &mismatches {
                let contained = tail_spans.iter().any(|&(s, l)| off >= s && off < s + l);
                assert!(
                    contained,
                    "{version}/{kind}: torn byte at db offset {off} \
                     outside the in-flight transactions' ranges"
                );
            }
        }
    }
}

#[test]
fn passive_failover_after_quiesce_is_exact_for_all_versions() {
    for kind in WorkloadKind::ALL {
        for version in VersionTag::ALL {
            let db_len = db_len_for(kind);
            let config = EngineConfig::for_db(db_len);
            let mut cluster = PassiveCluster::new(CostModel::alpha_21164a(), version, &config);
            let mut workload = kind.build(cluster.engine().db_region(), 11);
            let ran = 300u64;
            cluster.run(workload.as_mut(), ran);
            cluster.quiesce();
            let failover = cluster.crash_primary();
            assert_eq!(failover.report.committed_seq, ran, "{version}/{kind}");
            let (reference, _, _) = reference_state(kind, 11, ran, db_len);
            let db = failover.engine.db_region();
            let actual = failover
                .machine
                .arena()
                .borrow()
                .read_vec(db.start(), db.len() as usize);
            assert_eq!(
                reference, actual,
                "{version}/{kind}: quiesced failover must be byte-exact"
            );
        }
    }
}

/// The mirroring versions' takeover copies the whole mirror over the
/// database, but only the pages the run touched may be materialized: the
/// copy's host cost follows what was written, not the database size,
/// and the copied database is still byte-exact.
#[test]
fn mirror_takeover_materializes_only_touched_pages() {
    let kind = WorkloadKind::OrderEntry;
    let db_len = MIB;
    let config = EngineConfig::for_db(db_len);
    let mut cluster =
        PassiveCluster::new(CostModel::alpha_21164a(), VersionTag::MirrorCopy, &config);
    let mut workload = kind.build(cluster.engine().db_region(), 11);
    let ran = 2u64;
    cluster.run(workload.as_mut(), ran);
    cluster.quiesce();
    let failover = cluster.crash_primary();
    assert_eq!(failover.report.committed_seq, ran);
    let db = failover.engine.db_region();
    let arena = failover.machine.arena().borrow();
    let db_pages = db.len().div_ceil(PAGE_SIZE as u64) as usize;
    assert!(
        arena.pages_touched() < db_pages,
        "the takeover materialized {} pages; the database alone spans {db_pages}",
        arena.pages_touched()
    );
    let (reference, _, _) = reference_state(kind, 11, ran, db_len);
    assert_eq!(reference, arena.read_vec(db.start(), db.len() as usize));
}

#[test]
fn active_failover_recovers_whole_transactions_exactly() {
    for kind in WorkloadKind::ALL {
        let db_len = db_len_for(kind);
        let config = EngineConfig::for_db(db_len);
        let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
        let mut workload = kind.build(cluster.db_region(), 23);
        let ran = 400u64;
        cluster.run(workload.as_mut(), ran);
        let failover = cluster.crash_primary().expect("backup arena is formatted");
        let recovered = failover.report.committed_seq;
        assert!(recovered <= ran, "{kind}: recovered {recovered}");
        assert!(
            ran - recovered < 64,
            "{kind}: lost {} transactions",
            ran - recovered
        );
        // The redo ring publishes whole transactions: the recovered image
        // must be byte-exact at the recovered boundary.
        let (reference, _, _) = reference_state(kind, 23, recovered, db_len);
        let db = failover.engine.db_region();
        let actual = failover
            .machine
            .arena()
            .borrow()
            .read_vec(db.start(), db.len() as usize);
        let first_mismatch = reference
            .iter()
            .zip(actual.iter())
            .position(|(a, b)| a != b);
        assert_eq!(
            first_mismatch, None,
            "{kind}: active failover diverges at db offset {first_mismatch:?} \
             (recovered seq {recovered})"
        );
    }
}

#[test]
fn active_failover_after_settle_loses_nothing() {
    for kind in WorkloadKind::ALL {
        let db_len = db_len_for(kind);
        let config = EngineConfig::for_db(db_len);
        let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
        let mut workload = kind.build(cluster.db_region(), 31);
        let ran = 250u64;
        cluster.run(workload.as_mut(), ran);
        cluster.settle();
        assert_eq!(cluster.backup_applied_seq(), ran, "{kind}");
        let failover = cluster.crash_primary().expect("backup arena is formatted");
        assert_eq!(failover.report.committed_seq, ran, "{kind}");
    }
}

#[test]
fn failed_over_backup_serves_transactions() {
    // After takeover, the backup must be able to run the workload as a
    // standalone primary (availability — the paper's motivation).
    let config = EngineConfig::for_db(DB);
    let mut cluster =
        PassiveCluster::new(CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config);
    let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 3);
    cluster.run(workload.as_mut(), 100);
    let mut failover = cluster.crash_primary();
    let before = failover.report.committed_seq;
    for _ in 0..50 {
        let mut ctx = TxCtx::new(&mut failover.machine, failover.engine.as_mut());
        workload
            .run_txn(&mut ctx)
            .expect("post-failover transaction");
    }
    assert_eq!(
        failover.engine.committed_seq(&mut failover.machine),
        before + 50
    );
}

#[test]
fn ring_flow_control_blocks_until_backup_catches_up() {
    // A tiny ring forces the producer to wait on the consumer cursor.
    let mut config = EngineConfig::for_db(MIB);
    config.ring_capacity = 1024;
    let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
    let mut workload = WorkloadKind::DebitCredit.build(cluster.db_region(), 5);
    let report = cluster.run(workload.as_mut(), 500);
    assert_eq!(report.txns, 500);
    cluster.settle();
    assert_eq!(cluster.backup_applied_seq(), 500);
}
