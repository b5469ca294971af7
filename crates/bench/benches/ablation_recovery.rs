//! Takeover recovery time by version (the paper's §5.1 tradeoff).
//!
//! The mirroring versions save failure-free communication by keeping the
//! set-range array local — and pay for it at takeover, when the backup
//! must copy the *entire database* from the mirror. The logging versions
//! only roll back the in-flight transaction; the active backup applies
//! whole transactions and recovers almost instantly.
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::{ActiveCluster, Cluster, PassiveCluster, Recovery};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let txns: u64 = std::env::var("DSNREP_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000);
    println!("### Takeover recovery time by version (50 MB Debit-Credit database)\n");
    println!("| scheme | recovery work | lost txns |");
    println!("|--------|---------------|-----------|");
    let config = EngineConfig::for_db(50 * MIB);
    for version in VersionTag::ALL {
        let cluster = PassiveCluster::new(CostModel::alpha_21164a(), version, &config);
        recovery_row(&format!("passive {version}"), cluster, txns);
    }
    recovery_row(
        "active",
        ActiveCluster::new(CostModel::alpha_21164a(), &config),
        txns,
    );
}

/// Runs `txns` transactions on `cluster`, crashes the primary and prints
/// what the takeover cost and lost.
fn recovery_row<C: Cluster>(label: &str, mut cluster: C, txns: u64) {
    let mut workload = WorkloadKind::DebitCredit.build(cluster.db_region(), 42);
    cluster.run(workload.as_mut(), txns);
    let (_, takeover) = cluster.begin_takeover();
    let failover = takeover.recover().expect("backup formats");
    println!(
        "| {label} | {} | {} |",
        failover.recovery_time,
        txns - failover.report.committed_seq
    );
}
