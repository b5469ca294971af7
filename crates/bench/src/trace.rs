//! Traced end-to-end runs: the glue between the replication drivers and
//! the flight recorder.
//!
//! Used by the `simtrace` binary and by `reproduce` when `DSNREP_TRACE=1`.
//! Each run wires a [`FlightRecorder`] through a whole cluster, drives a
//! workload, optionally crashes the primary, audits the surviving arena,
//! and returns the recorder plus a finished [`TraceSummary`] whose stall
//! breakdown covers every machine in the run.

use dsnrep_core::{audit, AuditViolation, EngineConfig, MachineStats, VersionTag};
use dsnrep_obs::{
    AttributionTree, ClockAttribution, CriticalPathReport, FlightRecorder, Metric, Phase,
    TimeSeries, TraceEventKind, TraceSummary, Tracer, TRACK_BACKUP, TRACK_PRIMARY,
};
use dsnrep_repl::{ActiveCluster, Cluster, PassiveCluster, Recovery};
use dsnrep_simcore::{NodeId, Periodic, Scheduler, StallCause, VirtualDuration, VirtualInstant};
use dsnrep_workloads::{ThroughputReport, WorkloadKind};

use crate::experiments::{costs, SEED};
use crate::openlat::OpenSystemStats;

/// Which replication scheme a traced run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracedScheme {
    /// Passive backup (write doubling) with the given engine version.
    Passive(VersionTag),
    /// Active backup (redo ring; Version 3 locally).
    Active,
}

impl TracedScheme {
    /// The engine version whose layout ends up in the audited arena.
    pub fn version(self) -> VersionTag {
        match self {
            TracedScheme::Passive(v) => v,
            TracedScheme::Active => VersionTag::ImprovedLog,
        }
    }

    /// Stable label for the replication driver ("passive" / "active").
    pub fn driver_name(self) -> &'static str {
        match self {
            TracedScheme::Passive(_) => "passive",
            TracedScheme::Active => "active",
        }
    }

    /// Stable label for the engine version ("v0".."v3").
    pub fn version_name(self) -> &'static str {
        match self.version() {
            VersionTag::Vista => "v0",
            VersionTag::MirrorCopy => "v1",
            VersionTag::MirrorDiff => "v2",
            VersionTag::ImprovedLog => "v3",
        }
    }
}

/// Everything a traced run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// The recorder the whole cluster reported into.
    pub recorder: FlightRecorder,
    /// Summary statistics with the stall breakdown already attached.
    pub summary: TraceSummary,
    /// Per-node virtual-time attribution tree, conservation-checked.
    pub attribution: AttributionTree,
    /// Windowed metrics time-series, conservation-checked against both the
    /// summary aggregates and the attribution tree's stall leaves.
    pub timeseries: TimeSeries,
    /// Per-transaction critical-path profile, conservation-checked against
    /// the attribution tree's leaves (per-txn segments sum to the commit
    /// latency; whole-run in-txn + outside totals equal elapsed).
    pub critpath: CriticalPathReport,
    /// Goodput-over-time availability view derived from the time-series.
    pub availability: AvailabilityReport,
    /// Primary throughput over the failure-free portion, TPS.
    pub tps: f64,
    /// `Some(violation)` if the post-run arena audit failed.
    pub violation: Option<AuditViolation>,
    /// Virtual-time cost of the takeover, if the run crashed the primary.
    pub recovery_picos: Option<u64>,
}

impl TracedRun {
    /// `true` when the run ended with a consistent arena.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

fn attach_stalls(
    summary: &mut TraceSummary,
    primary: &MachineStats,
    backup: Option<&MachineStats>,
) {
    summary.set_stalls("primary", primary.stall_breakdown);
    if let Some(b) = backup {
        summary.set_stalls("backup", b.stall_breakdown);
    }
}

fn clock_attribution(stats: &MachineStats) -> ClockAttribution {
    ClockAttribution::from_durations(stats.elapsed, stats.busy_breakdown, stats.stall_breakdown)
}

/// Builds the per-node attribution tree for a finished run and checks the
/// conservation invariant: every node's leaves must sum to its elapsed
/// virtual time. A failure here means a charge path bypassed the clock's
/// cause accounting — a bug worth panicking over in a diagnostic tool.
pub fn build_attribution(
    experiment: &str,
    scheme: TracedScheme,
    recorder: &FlightRecorder,
    primary: &MachineStats,
    backup: Option<&MachineStats>,
) -> AttributionTree {
    let mut tree = AttributionTree::new(experiment, scheme.version_name());
    tree.add_node("primary", TRACK_PRIMARY, clock_attribution(primary));
    if let Some(b) = backup {
        tree.add_node("backup", TRACK_BACKUP, clock_attribution(b));
    }
    tree.fold_recorder(recorder);
    if let Err(e) = tree.verify_conservation() {
        panic!("virtual-time attribution leak: {e}");
    }
    tree
}

/// Drives `txns` transactions through an explicit two-node event
/// [`Scheduler`]: node 0 runs one transaction per event and re-arms itself
/// at the machine's new clock; node 1 is a [`Periodic`] metrics sampler on
/// the recorder's window cadence, whose events call
/// [`Tracer::sample_to`] so time-series windows materialize as virtual
/// time passes instead of all at once at snapshot.
///
/// The sampler is **materialization-only** by the hub's contract, so a run
/// driven this way is bit-identical — simulated outcomes and exported
/// artifacts both — to one that never samples (the recorder-side fallback
/// for drivers without a scheduler). A determinism test in
/// `crates/bench/tests` holds the two together.
fn drive_sampled(
    recorder: &FlightRecorder,
    txns: u64,
    start: VirtualInstant,
    mut run_one: impl FnMut() -> VirtualInstant,
) {
    const TXN: u64 = 0;
    const SAMPLE: u64 = 1;
    if txns == 0 {
        return;
    }
    let driver = NodeId::new(0);
    let sampler = NodeId::new(1);
    let mut sched = Scheduler::new(2);
    let mut cadence = Periodic::new(VirtualDuration::from_picos(recorder.window_picos()));
    cadence.catch_up_to(start);
    let mut remaining = txns;
    sched.schedule(driver, start, TXN);
    sched.schedule(sampler, cadence.next_at(), SAMPLE);
    while let Some(ev) = sched.dispatch() {
        match ev.token {
            TXN => {
                remaining -= 1;
                let now = run_one();
                if remaining > 0 {
                    sched.schedule(driver, now, TXN);
                }
            }
            SAMPLE => {
                let due = cadence.fire();
                recorder.sample_to(due);
                if remaining > 0 {
                    sched.schedule(sampler, cadence.next_at(), SAMPLE);
                }
            }
            _ => unreachable!("drive_sampled only schedules TXN and SAMPLE tokens"),
        }
    }
}

/// Checks the time-series against the attribution tree: for every node,
/// the per-cause windowed stall counters must re-aggregate to exactly the
/// stall leaves of that node's attributed clock. Together with
/// [`TimeSeries::verify_against_summary`] this pins every exported series
/// to an independently-computed whole-run total.
fn verify_against_attribution(ts: &TimeSeries, tree: &AttributionTree) -> Result<(), String> {
    for node in &tree.nodes {
        let track = ts.tracks.iter().find(|t| t.track == node.track);
        for cause in StallCause::ALL {
            let counted = track.map_or(0, |t| t.counter_total(Metric::stall(cause)));
            let attributed = node.clock.stall_picos[cause.index()];
            if counted != attributed {
                return Err(format!(
                    "stream '{}' stall cause '{}': windowed counters sum to {counted} ps \
                     but the attribution leaf holds {attributed} ps",
                    node.stream,
                    cause.name(),
                ));
            }
        }
    }
    Ok(())
}

/// Goodput-over-time availability view of one traced run: the per-window
/// committed-transaction curve (all tracks merged — after a failover the
/// survivor's commits count), the SLO-violation windows under a threshold
/// derived from the failure-free portion, and — for crash runs — the
/// virtual time from the recovery-start event to the first transaction
/// committed by the promoted backup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvailabilityReport {
    /// Window width shared with the time-series, virtual picoseconds.
    pub window_picos: u64,
    /// `(window index, committed transactions)`, all tracks merged, over
    /// the contiguous span the run touched.
    pub goodput: Vec<(u64, u64)>,
    /// Half the median nonzero pre-crash window goodput, floored at one
    /// txn: a window below this under-delivered.
    pub slo_threshold_txns: u64,
    /// Window indices whose goodput fell below the threshold.
    pub violation_windows: Vec<u64>,
    /// Instant of the primary-crash event, if the run crashed.
    pub crash_picos: Option<u64>,
    /// Instant recovery began on the promoted backup.
    pub recovery_start_picos: Option<u64>,
    /// End of the first transaction committed at or after recovery start.
    pub first_commit_after_recovery_picos: Option<u64>,
    /// `first_commit_after_recovery_picos - recovery_start_picos`.
    pub time_to_first_commit_picos: Option<u64>,
    /// What an open-system arrival stream experienced (latency
    /// percentiles, drops, SLO windows): filled by the `openlat` driver,
    /// `None` for closed-loop traced runs — and omitted from the JSON, so
    /// closed-run artifacts are byte-identical to before the section
    /// existed.
    pub open_system: Option<OpenSystemStats>,
}

impl AvailabilityReport {
    /// Builds the report from a finished run's recorder and time-series.
    pub fn build(recorder: &FlightRecorder, ts: &TimeSeries) -> Self {
        let goodput = ts.goodput_curve();
        let crash_picos = recorder
            .instants_of(TraceEventKind::PrimaryCrash)
            .first()
            .map(|i| i.at.as_picos());
        let recovery_start_picos = recorder
            .instants_of(TraceEventKind::RecoveryStart)
            .first()
            .map(|i| i.at.as_picos());
        // The failure-free portion: windows strictly before the crash
        // window (all windows when nothing crashed).
        let pre_crash_end = crash_picos.map(|c| c / ts.window_picos).unwrap_or(u64::MAX);
        let mut baseline: Vec<u64> = goodput
            .iter()
            .filter(|(w, txns)| *w < pre_crash_end && *txns > 0)
            .map(|&(_, txns)| txns)
            .collect();
        baseline.sort_unstable();
        let median = baseline.get(baseline.len() / 2).copied().unwrap_or(0);
        let slo_threshold_txns = (median / 2).max(1);
        let violation_windows: Vec<u64> = goodput
            .iter()
            .filter(|&&(_, txns)| txns < slo_threshold_txns)
            .map(|&(w, _)| w)
            .collect();
        // Strictly after: the crashed primary's final commit can land on
        // the crash instant itself, which is where recovery starts.
        let first_commit_after_recovery_picos = recovery_start_picos.and_then(|rs| {
            recorder
                .spans()
                .iter()
                .filter(|s| s.phase == Phase::Txn && s.end.as_picos() > rs)
                .map(|s| s.end.as_picos())
                .min()
        });
        let time_to_first_commit_picos =
            match (recovery_start_picos, first_commit_after_recovery_picos) {
                (Some(rs), Some(fc)) => Some(fc - rs),
                _ => None,
            };
        AvailabilityReport {
            window_picos: ts.window_picos,
            goodput,
            slo_threshold_txns,
            violation_windows,
            crash_picos,
            recovery_start_picos,
            first_commit_after_recovery_picos,
            time_to_first_commit_picos,
            open_system: None,
        }
    }

    /// Renders the report as a schema-versioned JSON object. All values
    /// are virtual-time quantities, so the output is bit-stable.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "null".to_string(), |v| v.to_string())
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema_version\": {},\n  \"window_picos\": {},\n  \
             \"slo_threshold_txns\": {},\n  \"goodput\": [",
            dsnrep_obs::TRACE_SCHEMA_VERSION,
            self.window_picos,
            self.slo_threshold_txns
        );
        for (i, (w, txns)) in self.goodput.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"window\": {w}, \"committed_txns\": {txns}}}");
        }
        out.push_str("\n  ],\n  \"violation_windows\": [");
        for (i, w) in self.violation_windows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{w}");
        }
        let _ = write!(
            out,
            "],\n  \"recovery\": {{\n    \"crash_picos\": {},\n    \
             \"recovery_start_picos\": {},\n    \
             \"first_commit_after_recovery_picos\": {},\n    \
             \"time_to_first_commit_picos\": {}\n  }}",
            opt(self.crash_picos),
            opt(self.recovery_start_picos),
            opt(self.first_commit_after_recovery_picos),
            opt(self.time_to_first_commit_picos)
        );
        if let Some(os) = &self.open_system {
            let _ = write!(
                out,
                ",\n  \"open_system\": {{\n    \"slo_picos\": {},\n    \
                 \"arrivals\": {},\n    \"dropped\": {},\n    \
                 \"stale_reads\": {},\n    \"max_staleness_txns\": {},\n    \
                 \"commit_latency\": {},\n    \"read_latency\": {},\n    \
                 \"slo_violation_windows\": [",
                os.slo_picos,
                os.arrivals,
                os.dropped,
                os.stale_reads,
                os.max_staleness_txns,
                os.commit_latency.to_json(),
                os.read_latency.to_json()
            );
            for (i, w) in os.slo_violation_windows.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{w}");
            }
            let _ = write!(
                out,
                "],\n    \"baseline_p99_picos\": {},\n    \
                 \"reattained_p99_picos\": {},\n    \
                 \"time_to_reattain_p99_picos\": {}\n  }}",
                opt(os.baseline_p99_picos),
                opt(os.reattained_p99_picos),
                opt(os.time_to_reattain_p99_picos)
            );
        }
        out.push_str("\n}\n");
        out
    }
}

/// [`traced_run_with`] without post-recovery transactions.
pub fn traced_run(
    scheme: TracedScheme,
    kind: WorkloadKind,
    txns: u64,
    db_len: u64,
    crash: bool,
) -> TracedRun {
    traced_run_with(scheme, kind, txns, db_len, crash, 0)
}

/// Runs `txns` transactions of `kind` under `scheme` with a flight
/// recorder attached to every machine and port, the transaction driver
/// and a periodic metrics sampler interleaved through an explicit event
/// scheduler. With `crash`, the primary is crashed afterwards, the
/// backup's takeover is traced, and `post_txns` further transactions run
/// on the promoted backup (the availability report's recovery leg); the
/// audit then runs against the failed-over arena (otherwise against the
/// quiesced primary's, and `post_txns` is ignored).
pub fn traced_run_with(
    scheme: TracedScheme,
    kind: WorkloadKind,
    txns: u64,
    db_len: u64,
    crash: bool,
    post_txns: u64,
) -> TracedRun {
    traced_run_on(
        FlightRecorder::from_env(),
        scheme,
        kind,
        txns,
        db_len,
        crash,
        post_txns,
    )
}

/// As [`traced_run_with`], on a caller-supplied recorder. Tests use this to
/// toggle recorder knobs (e.g. the causal stores) directly, without racing
/// on process-global environment variables.
pub fn traced_run_on(
    recorder: FlightRecorder,
    scheme: TracedScheme,
    kind: WorkloadKind,
    txns: u64,
    db_len: u64,
    crash: bool,
    post_txns: u64,
) -> TracedRun {
    recorder.set_track_name(TRACK_PRIMARY, "primary");
    recorder.set_track_name(TRACK_BACKUP, "backup");
    let config = EngineConfig::for_db(db_len);
    match scheme {
        TracedScheme::Passive(version) => {
            let cluster = PassiveCluster::new_traced(costs(), version, &config, recorder.clone());
            traced_cluster_run(cluster, recorder, scheme, kind, txns, crash, post_txns)
        }
        TracedScheme::Active => {
            let cluster = ActiveCluster::new_traced(costs(), &config, recorder.clone());
            traced_cluster_run(cluster, recorder, scheme, kind, txns, crash, post_txns)
        }
    }
}

/// The body of [`traced_run_on`] for any cluster driver: runs `txns`
/// sampled transactions on `cluster`, then either crashes the primary,
/// recovers the successor and runs `post_txns` on it, or quiesces; audits
/// the arena that ends up serving and builds every conservation-checked
/// artifact.
fn traced_cluster_run<C: Cluster<FlightRecorder>>(
    mut cluster: C,
    recorder: FlightRecorder,
    scheme: TracedScheme,
    kind: WorkloadKind,
    txns: u64,
    crash: bool,
    post_txns: u64,
) -> TracedRun {
    let version = scheme.version();
    let mut workload = kind.build_traced(cluster.db_region(), SEED);
    let run_start = cluster.machine().now();
    drive_sampled(&recorder, txns, run_start, || {
        cluster.run_txn(workload.as_mut());
        cluster.machine().now()
    });
    let tps = ThroughputReport {
        txns,
        elapsed: cluster.machine().now().duration_since(run_start),
    }
    .tps();
    let (primary_stats, backup_stats, recovery_picos, audit_result) = if crash {
        let primary_stats = cluster.machine().stats();
        let (_, takeover) = cluster.begin_takeover();
        let mut failover = takeover
            .recover()
            .expect("backup arena carries the replicated layout");
        let mut post_workload = kind.build_traced(failover.engine.db_region(), SEED);
        let post_start = failover.machine.now();
        drive_sampled(&recorder, post_txns, post_start, || {
            failover.run_txn(post_workload.as_mut());
            failover.machine.now()
        });
        let backup_stats = failover.machine.stats();
        let result = audit(version, &failover.machine.arena().borrow());
        let recovery = Some(failover.recovery_time.as_picos());
        (primary_stats, Some(backup_stats), recovery, result)
    } else {
        cluster.quiesce();
        let primary_stats = cluster.machine().stats();
        let result = audit(version, &cluster.machine().arena().borrow());
        (primary_stats, cluster.backup_stats(), None, result)
    };

    let violation = match audit_result {
        Ok(_) => None,
        Err(v) => {
            // Stamp the failure into the ring so the dump carries it.
            recorder.instant(
                TRACK_PRIMARY,
                TraceEventKind::AuditViolation,
                primary_stats.now,
                0,
            );
            Some(v)
        }
    };
    let mut summary = recorder.summary();
    attach_stalls(&mut summary, &primary_stats, backup_stats.as_ref());
    let experiment = format!(
        "{}-{}{}",
        scheme.driver_name(),
        scheme.version_name(),
        if crash { "-crash" } else { "" }
    );
    let attribution = build_attribution(
        &experiment,
        scheme,
        &recorder,
        &primary_stats,
        backup_stats.as_ref(),
    );
    // Conservation: every exported windowed series must re-aggregate to
    // the whole-run aggregates two independent paths computed — the
    // summary's counters/histogram and the attribution tree's stall
    // leaves. A mismatch means a probe fed one sink and not the other.
    let timeseries = recorder.timeseries();
    if let Err(e) = timeseries.verify_against_summary(&summary) {
        panic!("time-series conservation violated: {e}");
    }
    if let Err(e) = verify_against_attribution(&timeseries, &attribution) {
        panic!("time-series vs attribution conservation violated: {e}");
    }
    let availability = AvailabilityReport::build(&recorder, &timeseries);
    // The critical-path profile carries its own conservation proof: per-txn
    // segments summed at fold time, whole-run totals re-checked here
    // against the attribution tree's independently-computed leaves.
    let critpath = CriticalPathReport::build(&recorder, &attribution)
        .unwrap_or_else(|e| panic!("critical-path conservation violated: {e}"));
    TracedRun {
        recorder,
        summary,
        attribution,
        timeseries,
        critpath,
        availability,
        tps,
        violation,
        recovery_picos,
    }
}
