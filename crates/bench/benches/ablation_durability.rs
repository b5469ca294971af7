//! Ablation: 1-safe vs 2-safe commits (Gray & Reuter's taxonomy).
//!
//! The paper chooses a 1-safe design and accepts "a very short window of
//! vulnerability". This ablation quantifies the alternative: a 2-safe
//! commit waits one SAN latency (3.3 us) for the commit record to reach
//! the backup, which guarantees zero lost transactions at a steep
//! throughput price on a microsecond-scale engine.
use dsnrep_core::{Durability, EngineConfig, VersionTag};
use dsnrep_repl::{ActiveCluster, Cluster, PassiveCluster};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let txns: u64 = std::env::var("DSNREP_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    println!("### Ablation: 1-safe vs 2-safe commit (Debit-Credit, TPS)\n");
    println!("| scheme | 1-safe | 2-safe | cost |");
    println!("|--------|--------|--------|------|");
    for (label, version) in [
        ("passive Version 3", Some(VersionTag::ImprovedLog)),
        ("passive Version 1", Some(VersionTag::MirrorCopy)),
        ("active", None),
    ] {
        let mut tps = [0.0f64; 2];
        for (i, durability) in [Durability::OneSafe, Durability::TwoSafe]
            .iter()
            .enumerate()
        {
            let config = EngineConfig::for_db(50 * MIB);
            let costs = CostModel::alpha_21164a();
            tps[i] = match version {
                Some(v) => tps_at(PassiveCluster::new(costs, v, &config), *durability, txns),
                None => tps_at(ActiveCluster::new(costs, &config), *durability, txns),
            };
        }
        println!(
            "| {label} | {:>7.0} | {:>7.0} | -{:.0}% |",
            tps[0],
            tps[1],
            (1.0 - tps[1] / tps[0]) * 100.0
        );
    }
}

/// Debit-Credit throughput of `cluster` committing at `durability`.
fn tps_at<C: Cluster>(mut cluster: C, durability: Durability, txns: u64) -> f64 {
    cluster.machine_mut().set_durability(durability);
    let mut workload = WorkloadKind::DebitCredit.build(cluster.db_region(), 42);
    cluster.run(workload.as_mut(), txns).tps()
}
