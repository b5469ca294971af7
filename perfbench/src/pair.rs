//! `pair_sweep`: the paper's two-node evaluation. Passive V0–V3 and the
//! active redo ring on Debit-Credit over a 50 MiB database, then the
//! 32-stream SMP cell driven by `simcore::Scheduler`.

use std::time::Instant;

use dsnrep_core::{EngineConfig, MachineStats, VersionTag};
use dsnrep_mcsim::Traffic;
use dsnrep_repl::{ActiveCluster, PassiveCluster, Scheme, SmpExperiment};
use dsnrep_rio::Arena;
use dsnrep_simcore::{Addr, CostModel, Region, TrafficClass, MIB};
use dsnrep_workloads::WorkloadKind;

use crate::probe::{Digest, Kind, Probe, Round, Segment};

/// Database size of the pair segments: two arenas larger than the host's
/// last-level cache, as in the paper.
pub const PAIR_DB: u64 = 50 * MIB;
/// Transactions per pair segment and round.
pub const PAIR_TXNS: u64 = 12_000;
/// Streams of the SMP cell.
pub const SMP_STREAMS: usize = 32;
/// Per-stream database of the SMP cell (fits in cache).
pub const SMP_DB: u64 = 2 * MIB;
/// Transactions per SMP stream and round.
pub const SMP_TXNS_PER_STREAM: u64 = 400;

pub fn costs() -> CostModel {
    CostModel::alpha_21164a()
}

pub fn version_label(v: VersionTag) -> &'static str {
    match v {
        VersionTag::Vista => "v0",
        VersionTag::MirrorCopy => "v1",
        VersionTag::MirrorDiff => "v2",
        VersionTag::ImprovedLog => "v3",
    }
}

/// Folds a machine's virtual statistics into `d`; returns whether elapsed
/// time equals the sum of its busy and stall breakdowns.
pub fn fold_stats(d: &mut Digest, s: &MachineStats) -> bool {
    d.u(s.elapsed.as_picos())
        .u(s.stalled.as_picos())
        .u(s.cache_hits)
        .u(s.cache_misses);
    let mut sum = 0u64;
    for x in s.busy_breakdown.iter().chain(s.stall_breakdown.iter()) {
        d.u(x.as_picos());
        sum += x.as_picos();
    }
    sum == s.elapsed.as_picos()
}

pub fn fold_traffic(d: &mut Digest, t: &Traffic) {
    d.u(t.total_packets());
    for class in [
        TrafficClass::Modified,
        TrafficClass::Undo,
        TrafficClass::Meta,
    ] {
        d.u(t.bytes(class)).u(t.packets(class));
    }
}

/// Hashes `replica` over `regions` into `d`; returns whether it equals
/// `primary` there. Compares in chunks so the check adds little memory.
pub fn fold_replica(d: &mut Digest, primary: &Arena, replica: &Arena, regions: &[Region]) -> bool {
    const CHUNK: u64 = 1 << 20;
    let mut equal = true;
    let (mut a, mut b) = (vec![0u8; CHUNK as usize], vec![0u8; CHUNK as usize]);
    for &r in regions {
        let mut off = 0;
        while off < r.len() {
            let n = (r.len() - off).min(CHUNK) as usize;
            let at = Addr::new(r.start().as_u64() + off);
            primary.read_into(at, &mut a[..n]);
            replica.read_into(at, &mut b[..n]);
            equal &= a[..n] == b[..n];
            d.bytes(&b[..n]);
            off += n as u64;
        }
    }
    equal
}

fn passive_segment(p: &mut Probe, version: VersionTag, seed: u64, setup: &mut f64) -> Segment {
    let config = EngineConfig::for_db(PAIR_DB);
    let t = Instant::now();
    let mut cluster = p.call("PassiveCluster::new", Kind::Other, || {
        PassiveCluster::new(costs(), version, &config)
    });
    let db = cluster.engine().db_region();
    let mut wl = p.call("WorkloadKind::build", Kind::Other, || {
        WorkloadKind::DebitCredit.build(db, seed)
    });
    *setup += t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..PAIR_TXNS {
        p.call("PassiveCluster::run_txn", Kind::Txn, || {
            cluster.run_txn(wl.as_mut())
        });
    }
    let work_s = t.elapsed().as_secs_f64();
    p.call("PassiveCluster::quiesce", Kind::Other, || cluster.quiesce());

    let mut d = Digest::new();
    let mut ok = fold_stats(&mut d, &cluster.machine().stats());
    fold_traffic(&mut d, &cluster.traffic());
    d.u(cluster.machine().stores_executed());
    let regions = cluster.engine().replicated_regions();
    ok &= fold_replica(
        &mut d,
        &cluster.machine().arena().borrow(),
        &cluster.backup_arena().borrow(),
        &regions,
    );
    Segment {
        name: format!("passive_{}", version_label(version)),
        ops: PAIR_TXNS,
        digest: d.value(),
        work_s,
        ok,
    }
}

fn active_segment(p: &mut Probe, seed: u64, setup: &mut f64) -> Segment {
    let config = EngineConfig::for_db(PAIR_DB);
    let t = Instant::now();
    let mut cluster = p.call("ActiveCluster::new", Kind::Other, || {
        ActiveCluster::new(costs(), &config)
    });
    let db = cluster.db_region();
    let mut wl = p.call("WorkloadKind::build", Kind::Other, || {
        WorkloadKind::DebitCredit.build(db, seed)
    });
    *setup += t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..PAIR_TXNS {
        p.call("ActiveCluster::run_txn", Kind::Txn, || {
            cluster.run_txn(wl.as_mut())
        });
    }
    let work_s = t.elapsed().as_secs_f64();
    p.call("ActiveCluster::settle", Kind::Other, || cluster.settle());

    let mut d = Digest::new();
    let mut ok = fold_stats(&mut d, &cluster.machine().stats());
    ok &= fold_stats(&mut d, &cluster.backup_stats());
    fold_traffic(&mut d, &cluster.traffic());
    ok &= cluster.backup_applied_seq() == PAIR_TXNS;
    d.u(cluster.backup_applied_seq());
    ok &= fold_replica(
        &mut d,
        &cluster.machine().arena().borrow(),
        &cluster.backup_arena().borrow(),
        &[db],
    );
    Segment {
        name: "active_redo".to_string(),
        ops: PAIR_TXNS,
        digest: d.value(),
        work_s,
        ok,
    }
}

fn smp_segment(p: &mut Probe, setup: &mut f64) -> Segment {
    let config = EngineConfig::for_db(SMP_DB);
    let t = Instant::now();
    let mut exp = p.call("SmpExperiment::new", Kind::Other, || {
        SmpExperiment::new(
            costs(),
            Scheme::Passive(VersionTag::ImprovedLog),
            WorkloadKind::DebitCredit,
            &config,
            SMP_STREAMS,
        )
    });
    *setup += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = p.call("SmpExperiment::run", Kind::Other, || {
        exp.run(SMP_TXNS_PER_STREAM)
    });
    let work_s = t.elapsed().as_secs_f64();
    let mut d = Digest::new();
    d.u(report.makespan.as_picos()).f(report.aggregate_tps());
    fold_traffic(&mut d, &report.traffic);
    Segment {
        name: "smp_cell".to_string(),
        ops: SMP_STREAMS as u64 * SMP_TXNS_PER_STREAM,
        digest: d.value(),
        work_s,
        ok: report.streams == SMP_STREAMS,
    }
}

/// One round: every segment built, run and checked in turn, so only one
/// segment's arenas are resident at a time.
pub fn round(p: &mut Probe, seed: u64) -> Round {
    let mut setup = 0.0;
    let mut segments = Vec::new();
    for version in VersionTag::ALL {
        let s = p.group("segment", |p| passive_segment(p, version, seed, &mut setup));
        segments.push(s);
    }
    segments.push(p.group("segment", |p| active_segment(p, seed, &mut setup)));
    segments.push(p.group("segment", |p| smp_segment(p, &mut setup)));
    Round {
        setup_s: setup,
        segments,
    }
}
