//! The experiment implementations, one per table and figure.
//!
//! Every function runs the relevant configuration in virtual time and
//! returns structured results; the `reproduce` binary prints them next to
//! the paper's numbers. Transaction counts are
//! scaled down from the paper's multi-million-transaction runs (throughput
//! is a steady-state rate and traffic per transaction is constant, so
//! volumes are rescaled to the paper's run lengths for comparison).

use dsnrep_core::{build_engine, EngineConfig, Machine, VersionTag};
use dsnrep_mcsim::{figure1_sweep, BandwidthPoint, Traffic};
use dsnrep_repl::{ActiveCluster, Cluster, PassiveCluster, Scheme, SmpExperiment};
use dsnrep_simcore::{CostModel, TrafficClass, MIB};
use dsnrep_workloads::{run_standalone, WorkloadKind};

use crate::paper;

/// How many transactions each experiment runs per configuration.
///
/// The defaults keep the full table regeneration under a couple of minutes;
/// set the `DSNREP_TXNS` environment variable to override (e.g. `100000`
/// for tighter statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunScale {
    /// Transactions per Debit-Credit configuration.
    pub debit_credit: u64,
    /// Transactions per Order-Entry configuration.
    pub order_entry: u64,
    /// Transactions per stream in the SMP experiments.
    pub smp_per_stream: u64,
}

impl RunScale {
    /// The default scale, honoring `DSNREP_TXNS` when set.
    pub fn from_env() -> Self {
        let base: u64 = std::env::var("DSNREP_TXNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30_000);
        RunScale {
            debit_credit: base,
            order_entry: (base / 2).max(1),
            smp_per_stream: (base / 6).max(1),
        }
    }

    /// A tiny scale for smoke tests.
    pub fn smoke() -> Self {
        RunScale {
            debit_credit: 300,
            order_entry: 200,
            smp_per_stream: 60,
        }
    }

    fn txns(&self, kind: WorkloadKind) -> u64 {
        match kind {
            WorkloadKind::DebitCredit => self.debit_credit,
            WorkloadKind::OrderEntry => self.order_entry,
        }
    }
}

/// The paper's database size for the single-stream experiments.
pub const PAPER_DB: u64 = 50 * MIB;
/// The paper's per-stream database size for the SMP experiments.
pub const SMP_DB: u64 = 10 * MIB;
/// The fixed workload seed every experiment runs with.
pub const SEED: u64 = 42;

/// The calibrated cost model every experiment runs with.
pub fn costs() -> CostModel {
    CostModel::alpha_21164a()
}

/// Process-wide throttle for experiment cells: at most
/// `available_parallelism()` cells simulate at once, no matter how many
/// `par_cells` calls are in flight (the `reproduce` binary runs every
/// report section concurrently). Without the throttle, tens of cells — each
/// with a database-sized working set — would time-share each core and
/// thrash its cache; with it, a core always runs one cell to completion's
/// worth of locality. Waiting threads hold no simulation state, so peak
/// memory also stays at one live cell per core.
mod permits {
    use std::sync::{Condvar, Mutex, OnceLock};

    struct Sem {
        free: Mutex<usize>,
        cv: Condvar,
    }

    static SEM: OnceLock<Sem> = OnceLock::new();

    fn sem() -> &'static Sem {
        SEM.get_or_init(|| Sem {
            free: Mutex::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
            cv: Condvar::new(),
        })
    }

    /// An execution slot; released on drop.
    pub struct Permit(());

    /// Blocks until an execution slot is free.
    pub fn acquire() -> Permit {
        let s = sem();
        let mut free = s.free.lock().expect("permit lock poisoned");
        while *free == 0 {
            free = s.cv.wait(free).expect("permit lock poisoned");
        }
        *free -= 1;
        Permit(())
    }

    impl Drop for Permit {
        fn drop(&mut self) {
            let s = sem();
            *s.free.lock().expect("permit lock poisoned") += 1;
            s.cv.notify_one();
        }
    }
}

/// Runs `f(0..count)` with one scoped thread per cell — gated by the
/// internal permit semaphore to one running cell per core — and returns
/// the results in input order.
///
/// Every experiment cell builds its own single-threaded simulation (the
/// simulators are `Rc`/`RefCell`-based and never shared across cells), so
/// cells are independent and the OS schedule cannot affect any simulated
/// result: parallel and sequential runs produce bit-identical reports.
pub fn par_cells<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    std::thread::scope(|scope| {
        for (i, slot) in out.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || {
                let _slot = permits::acquire();
                *slot = Some(f(i));
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("cell thread completed"))
        .collect()
}

/// Scales a traffic volume measured over `ran` transactions to the paper's
/// run length for `kind`.
pub fn scale_to_paper_run(kind: WorkloadKind, ran: u64, mib: f64) -> f64 {
    let paper_txns = paper::RUN_TXNS[kind_index(kind)];
    mib * paper_txns / ran as f64
}

/// Index of a workload in the paper tables (0 = Debit-Credit).
pub fn kind_index(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::DebitCredit => 0,
        WorkloadKind::OrderEntry => 1,
    }
}

/// A traffic breakdown in the paper's MB units, scaled to the paper's run
/// length.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficMib {
    /// Modified (in-place database) data.
    pub modified: f64,
    /// Undo or mirror data.
    pub undo: f64,
    /// Metadata.
    pub meta: f64,
}

impl TrafficMib {
    fn from_traffic(kind: WorkloadKind, ran: u64, t: &Traffic) -> Self {
        TrafficMib {
            modified: scale_to_paper_run(kind, ran, t.mib(TrafficClass::Modified)),
            undo: scale_to_paper_run(kind, ran, t.mib(TrafficClass::Undo)),
            meta: scale_to_paper_run(kind, ran, t.mib(TrafficClass::Meta)),
        }
    }

    /// Total MB.
    pub fn total(&self) -> f64 {
        self.modified + self.undo + self.meta
    }
}

/// Standalone throughput of one version (used by Tables 1 and 3).
pub fn standalone_tps(kind: WorkloadKind, version: VersionTag, txns: u64) -> f64 {
    standalone_tps_and_stats(kind, version, txns).0
}

/// Standalone throughput plus the machine's execution counters — the cache
/// hit rate is the direct evidence for the paper's Table 3 locality story.
pub fn standalone_tps_and_stats(
    kind: WorkloadKind,
    version: VersionTag,
    txns: u64,
) -> (f64, dsnrep_core::MachineStats) {
    let config = EngineConfig::for_db(PAPER_DB);
    let arena = dsnrep_core::shared_arena(dsnrep_core::arena_len(version, &config));
    let mut m = Machine::standalone(costs(), arena);
    let mut engine = build_engine(version, &mut m, &config);
    let mut workload = kind.build(engine.db_region(), SEED);
    let tps = run_standalone(workload.as_mut(), &mut m, engine.as_mut(), txns).tps();
    (tps, m.stats())
}

/// Throughput and traffic of `cluster` running `txns` transactions of
/// `kind`: a passive pair for Tables 1, 2, 4 and 5, an active one for
/// Tables 6, 7 and 8.
pub fn cluster_tps_and_traffic<C: Cluster>(
    kind: WorkloadKind,
    txns: u64,
    mut cluster: C,
) -> (f64, TrafficMib) {
    let mut workload = kind.build(cluster.db_region(), SEED);
    let report = cluster.run(workload.as_mut(), txns);
    let traffic = cluster.traffic();
    (report.tps(), TrafficMib::from_traffic(kind, txns, &traffic))
}

fn passive(version: VersionTag, db_len: u64) -> PassiveCluster {
    PassiveCluster::new(costs(), version, &EngineConfig::for_db(db_len))
}

fn active(db_len: u64) -> ActiveCluster {
    ActiveCluster::new(costs(), &EngineConfig::for_db(db_len))
}

/// Figure 1: the strided-store bandwidth sweep.
pub fn figure1() -> Vec<BandwidthPoint> {
    figure1_sweep(&costs(), MIB)
}

/// Table 1 result: `[workload][single, primary_backup]` TPS.
pub fn table1(scale: RunScale) -> [[f64; 2]; 2] {
    let res = par_cells(4, |i| {
        let kind = WorkloadKind::ALL[i / 2];
        let txns = scale.txns(kind);
        if i % 2 == 0 {
            standalone_tps(kind, VersionTag::Vista, txns)
        } else {
            cluster_tps_and_traffic(kind, txns, passive(VersionTag::Vista, PAPER_DB)).0
        }
    });
    let mut out = [[0.0; 2]; 2];
    for (i, &tps) in res.iter().enumerate() {
        out[kind_index(WorkloadKind::ALL[i / 2])][i % 2] = tps;
    }
    out
}

/// Table 2 result: straightforward-implementation traffic.
pub fn table2(scale: RunScale) -> [TrafficMib; 2] {
    let res = par_cells(WorkloadKind::ALL.len(), |i| {
        let kind = WorkloadKind::ALL[i];
        let txns = scale.txns(kind);
        cluster_tps_and_traffic(kind, txns, passive(VersionTag::Vista, PAPER_DB)).1
    });
    let mut out = [TrafficMib::default(); 2];
    for (i, &traffic) in res.iter().enumerate() {
        out[kind_index(WorkloadKind::ALL[i])] = traffic;
    }
    out
}

/// Table 3 result: standalone TPS. `[workload][version]`.
pub fn table3(scale: RunScale) -> [[f64; 4]; 2] {
    let nv = VersionTag::ALL.len();
    let res = par_cells(2 * nv, |i| {
        let kind = WorkloadKind::ALL[i / nv];
        standalone_tps(kind, VersionTag::ALL[i % nv], scale.txns(kind))
    });
    let mut out = [[0.0; 4]; 2];
    for (i, &tps) in res.iter().enumerate() {
        out[kind_index(WorkloadKind::ALL[i / nv])][i % nv] = tps;
    }
    out
}

/// Standalone TPS plus machine counters for every version of `kind` — the
/// instrumentation block of the report. One cell per version.
pub fn standalone_instrumentation(
    kind: WorkloadKind,
    txns: u64,
) -> Vec<(VersionTag, f64, dsnrep_core::MachineStats)> {
    let res = par_cells(VersionTag::ALL.len(), |i| {
        standalone_tps_and_stats(kind, VersionTag::ALL[i], txns)
    });
    VersionTag::ALL
        .iter()
        .zip(res)
        .map(|(&v, (tps, stats))| (v, tps, stats))
        .collect()
}

/// Tables 4 and 5 result: passive TPS and traffic per version.
pub fn table4_and_5(scale: RunScale) -> [[(f64, TrafficMib); 4]; 2] {
    let nv = VersionTag::ALL.len();
    let res = par_cells(2 * nv, |i| {
        let kind = WorkloadKind::ALL[i / nv];
        let version = VersionTag::ALL[i % nv];
        cluster_tps_and_traffic(kind, scale.txns(kind), passive(version, PAPER_DB))
    });
    let mut out = [[(0.0, TrafficMib::default()); 4]; 2];
    for (i, &cell) in res.iter().enumerate() {
        out[kind_index(WorkloadKind::ALL[i / nv])][i % nv] = cell;
    }
    out
}

/// Tables 6 and 7 result: `[workload][passive_v3, active]` TPS + traffic.
pub fn table6_and_7(scale: RunScale) -> [[(f64, TrafficMib); 2]; 2] {
    let res = par_cells(4, |i| {
        let kind = WorkloadKind::ALL[i / 2];
        let txns = scale.txns(kind);
        if i % 2 == 0 {
            cluster_tps_and_traffic(kind, txns, passive(VersionTag::ImprovedLog, PAPER_DB))
        } else {
            cluster_tps_and_traffic(kind, txns, active(PAPER_DB))
        }
    });
    let mut out = [[(0.0, TrafficMib::default()); 2]; 2];
    for (i, &cell) in res.iter().enumerate() {
        out[kind_index(WorkloadKind::ALL[i / 2])][i % 2] = cell;
    }
    out
}

/// Table 8 result: active TPS at 10 MB / 100 MB / 1 GB databases.
pub fn table8(scale: RunScale) -> [[f64; 3]; 2] {
    let sizes = [10 * MIB, 100 * MIB, 1024 * MIB];
    let res = par_cells(2 * sizes.len(), |i| {
        let kind = WorkloadKind::ALL[i / sizes.len()];
        cluster_tps_and_traffic(kind, scale.txns(kind), active(sizes[i % sizes.len()])).0
    });
    let mut out = [[0.0; 3]; 2];
    for (i, &tps) in res.iter().enumerate() {
        out[kind_index(WorkloadKind::ALL[i / sizes.len()])][i % sizes.len()] = tps;
    }
    out
}

/// The scheme order of Figures 2 and 3.
pub const FIGURE_SCHEMES: [Scheme; 4] = [
    Scheme::Active,
    Scheme::Passive(VersionTag::ImprovedLog),
    Scheme::Passive(VersionTag::MirrorDiff),
    Scheme::Passive(VersionTag::MirrorCopy),
];

/// Figures 2 and 3 result: aggregate TPS, `[scheme][processors-1]`.
pub fn smp_figure(kind: WorkloadKind, scale: RunScale) -> [[f64; 4]; 4] {
    let res = par_cells(FIGURE_SCHEMES.len() * 4, |i| {
        let scheme = FIGURE_SCHEMES[i / 4];
        let procs = i % 4 + 1;
        let config = EngineConfig::for_db(SMP_DB);
        let mut exp = SmpExperiment::new(costs(), scheme, kind, &config, procs);
        exp.run(scale.smp_per_stream).aggregate_tps()
    });
    let mut out = [[0.0; 4]; 4];
    for (i, &tps) in res.iter().enumerate() {
        out[i / 4][i % 4] = tps;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table1_shape() {
        let t = table1(RunScale::smoke());
        for row in t {
            assert!(
                row[0] > row[1],
                "single machine must beat the straightforward port: {row:?}"
            );
        }
    }

    #[test]
    fn smoke_figure1_monotone() {
        let f = figure1();
        assert!(f.windows(2).all(|w| w[0].mib_per_sec < w[1].mib_per_sec));
    }

    #[test]
    fn traffic_scaling_is_linear() {
        assert_eq!(
            scale_to_paper_run(WorkloadKind::DebitCredit, 1000, 2.0),
            2.0 * paper::RUN_TXNS[0] / 1000.0
        );
    }
}
