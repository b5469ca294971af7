//! Determinism golden test: every experiment, run twice at a small scale
//! with the fixed seeds, must produce identical results — same TPS, same
//! packet counts, same per-class traffic bytes.
//!
//! This is the contract the performance work (write-buffer fast paths,
//! bulk cache touches, the heap-scheduled SMP interleaving, and the
//! parallel experiment harness) must preserve: none of it may change a
//! simulated outcome, only how fast the host computes it. The harness runs
//! cells on OS threads, so two passes also double as a schedule-independence
//! check.

use dsnrep_bench::experiments::{self, RunScale};
use dsnrep_bench::trace::{traced_run_on, TracedScheme};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_mcsim::Traffic;
use dsnrep_obs::FlightRecorder;
use dsnrep_repl::{ActiveCluster, PassiveCluster, Scheme, SmpExperiment};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn tiny() -> RunScale {
    RunScale {
        debit_credit: 120,
        order_entry: 80,
        smp_per_stream: 30,
    }
}

/// Everything the report derives, captured in one pass.
#[derive(Debug, PartialEq)]
struct Evaluation {
    figure1: Vec<(u64, f64)>,
    table1: [[f64; 2]; 2],
    table2: [experiments::TrafficMib; 2],
    table3: [[f64; 4]; 2],
    table4_and_5: [[(f64, experiments::TrafficMib); 4]; 2],
    table6_and_7: [[(f64, experiments::TrafficMib); 2]; 2],
    table8: [[f64; 3]; 2],
    figure2: [[f64; 4]; 4],
    figure3: [[f64; 4]; 4],
}

fn evaluate(scale: RunScale) -> Evaluation {
    Evaluation {
        figure1: experiments::figure1()
            .iter()
            .map(|p| (p.packet_bytes, p.mib_per_sec))
            .collect(),
        table1: experiments::table1(scale),
        table2: experiments::table2(scale),
        table3: experiments::table3(scale),
        table4_and_5: experiments::table4_and_5(scale),
        table6_and_7: experiments::table6_and_7(scale),
        table8: experiments::table8(scale),
        figure2: experiments::smp_figure(WorkloadKind::DebitCredit, scale),
        figure3: experiments::smp_figure(WorkloadKind::OrderEntry, scale),
    }
}

#[test]
fn every_experiment_is_deterministic_across_runs() {
    let first = evaluate(tiny());
    let second = evaluate(tiny());
    assert_eq!(
        first, second,
        "a re-run with identical seeds diverged somewhere in tables 1-8 / figures 1-3"
    );
}

/// Exact packet counts and per-class byte counts (not just the MB figures
/// the tables print) for each replication scheme.
fn passive_traffic(version: VersionTag, kind: WorkloadKind, txns: u64) -> (f64, Traffic) {
    let config = EngineConfig::for_db(10 * MIB);
    let mut cluster = PassiveCluster::new(CostModel::alpha_21164a(), version, &config);
    let mut workload = kind.build(cluster.engine().db_region(), 42);
    let report = cluster.run(workload.as_mut(), txns);
    (report.tps(), cluster.traffic())
}

fn active_traffic(kind: WorkloadKind, txns: u64) -> (f64, Traffic) {
    let config = EngineConfig::for_db(10 * MIB);
    let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
    let mut workload = kind.build(cluster.db_region(), 42);
    let report = cluster.run(workload.as_mut(), txns);
    (report.tps(), cluster.traffic())
}

#[test]
fn packet_and_byte_counts_are_deterministic() {
    for kind in WorkloadKind::ALL {
        for version in VersionTag::ALL {
            let a = passive_traffic(version, kind, 100);
            let b = passive_traffic(version, kind, 100);
            // Traffic is Eq: identical per-class bytes, packet counts, and
            // payload-size histogram. TPS equality must be exact too.
            assert_eq!(a, b, "passive {version} / {kind} diverged");
        }
        let a = active_traffic(kind, 100);
        let b = active_traffic(kind, 100);
        assert_eq!(a, b, "active / {kind} diverged");
    }
}

/// The flight recorder must be a pure observer: attaching one may not
/// perturb a single virtual-time outcome. Same seeds, same txns — the
/// traced run's TPS, packet counts, per-class bytes, and stall totals must
/// be bit-identical to the untraced run's.
#[test]
fn tracing_does_not_change_simulated_outcomes() {
    let config = EngineConfig::for_db(10 * MIB);
    for version in VersionTag::ALL {
        let untraced = passive_traffic(version, WorkloadKind::DebitCredit, 100);
        let recorder = FlightRecorder::new();
        let mut cluster =
            PassiveCluster::new_traced(CostModel::alpha_21164a(), version, &config, recorder);
        let mut workload = WorkloadKind::DebitCredit.build_traced(cluster.engine().db_region(), 42);
        let report = cluster.run(workload.as_mut(), 100);
        let traced = (report.tps(), cluster.traffic());
        assert_eq!(untraced, traced, "tracing perturbed passive {version}");
        assert_eq!(
            untraced.0.to_bits(),
            traced.0.to_bits(),
            "passive {version} TPS not bit-identical under tracing"
        );
    }

    let untraced = active_traffic(WorkloadKind::DebitCredit, 100);
    let recorder = FlightRecorder::new();
    let mut cluster = ActiveCluster::new_traced(CostModel::alpha_21164a(), &config, recorder);
    let mut workload = WorkloadKind::DebitCredit.build_traced(cluster.db_region(), 42);
    let report = cluster.run(workload.as_mut(), 100);
    let traced = (report.tps(), cluster.traffic());
    assert_eq!(untraced, traced, "tracing perturbed the active scheme");
    assert_eq!(
        untraced.0.to_bits(),
        traced.0.to_bits(),
        "active TPS not bit-identical under tracing"
    );
}

/// The causal stores (packet lives, apply records, txn paths) feed only
/// the flow events and the critical-path profile; disabling them (the
/// `DSNREP_TRACE_FLOWS=0` escape hatch) may not move a single bit of any
/// other exported artifact. Both runs attach a recorder, so this holds the
/// flow layer itself to the pure-observer contract — not just the
/// recorder as a whole.
#[test]
fn causal_stores_do_not_change_exported_metrics() {
    for (scheme, crash) in [
        (TracedScheme::Passive(VersionTag::ImprovedLog), false),
        (TracedScheme::Active, true),
    ] {
        let run = |causal: bool| {
            let recorder = FlightRecorder::new();
            recorder.set_causal_enabled(causal);
            traced_run_on(
                recorder,
                scheme,
                WorkloadKind::DebitCredit,
                120,
                10 * MIB,
                crash,
                if crash { 20 } else { 0 },
            )
        };
        let flows_on = run(true);
        let flows_off = run(false);
        assert!(
            !flows_on.recorder.packet_lives().is_empty()
                && flows_off.recorder.packet_lives().is_empty(),
            "the toggle did not actually gate the causal stores"
        );
        assert_eq!(
            flows_on.tps.to_bits(),
            flows_off.tps.to_bits(),
            "TPS not bit-identical across the flows toggle ({scheme:?})"
        );
        assert_eq!(
            flows_on.summary.to_json(),
            flows_off.summary.to_json(),
            "summary.json changed under the flows toggle ({scheme:?})"
        );
        assert_eq!(
            flows_on.timeseries.to_json(),
            flows_off.timeseries.to_json(),
            "timeseries.json changed under the flows toggle ({scheme:?})"
        );
        assert_eq!(
            flows_on.attribution.to_json(),
            flows_off.attribution.to_json(),
            "attribution.json changed under the flows toggle ({scheme:?})"
        );
        assert_eq!(
            flows_on.availability.to_json(),
            flows_off.availability.to_json(),
            "availability.json changed under the flows toggle ({scheme:?})"
        );
    }
}

/// The stall-attribution split must account for every stalled picosecond:
/// the per-cause breakdown sums exactly to the machine's total stall time.
#[test]
fn stall_breakdown_sums_to_total_stall() {
    let config = EngineConfig::for_db(10 * MIB);
    for version in VersionTag::ALL {
        let mut cluster = PassiveCluster::new(CostModel::alpha_21164a(), version, &config);
        let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 42);
        cluster.run(workload.as_mut(), 100);
        let stats = cluster.machine().stats();
        let sum: u64 = stats.stall_breakdown.iter().map(|d| d.as_picos()).sum();
        assert_eq!(
            sum,
            stats.stalled.as_picos(),
            "passive {version}: stall causes do not cover the stall total"
        );
    }
}

#[test]
fn smp_report_is_deterministic() {
    let run = || {
        let config = EngineConfig::for_db(10 * MIB);
        let mut exp = SmpExperiment::new(
            CostModel::alpha_21164a(),
            Scheme::Passive(VersionTag::ImprovedLog),
            WorkloadKind::DebitCredit,
            &config,
            3,
        );
        let report = exp.run(40);
        (report.aggregate_tps(), report.makespan, report.traffic)
    };
    assert_eq!(run(), run(), "SMP heap-scheduled interleaving diverged");
}
