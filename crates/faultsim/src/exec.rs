//! Deterministic execution of a [`FaultPlan`] against a [`Scenario`].
//!
//! The executor builds the scenario's driver from scratch, arms the
//! injection hooks the plan names (store budgets on the primary machine,
//! packet budgets on the SAN adapter, arena write budgets on the
//! recovering backup), runs the workload, catches every simulated halt,
//! and drives recovery to completion — re-entering it over the surviving
//! arena as many times as the plan crashes it. The outcome is checked
//! against the shadow [`Reference`](crate::Reference) and the recovery
//! invariants. Everything is a pure function of (scenario, plan):
//! replaying the same pair is bit-deterministic.

use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use dsnrep_cluster::{
    takeover_timeline_with_faults, HeartbeatConfig, HeartbeatFaults, NodeId, TakeoverTimeline,
    ViewManager,
};
use dsnrep_core::{
    arena_len, attach_engine, build_engine, Durability, Engine, EngineConfig, Machine, VersionTag,
};
use dsnrep_mcsim::Traffic;
use dsnrep_obs::NullTracer;
use dsnrep_repl::{
    modeled_pairs, ActiveCluster, Cluster, Failover, PassiveCluster, Recovery, ReplicaSet,
};
use dsnrep_rio::{Arena, Layout, LayoutError, RegionId};
use dsnrep_simcore::{CostModel, Region, VirtualDuration, VirtualInstant};
use dsnrep_workloads::{TxCtx, Workload};

use crate::oracle::Reference;
use crate::plan::{FaultPlan, FaultSite, PlanError};
use crate::scenario::{Driver, Scenario};

/// A deliberately planted recovery bug, for validating that campaigns
/// catch and shrink real defects (they must never pass the oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Zero the undo-log chain head before every recovery attempt: the
    /// recovery procedure "forgets" to roll the interrupted transaction
    /// back, leaving its partial writes in the committed image. Visible
    /// to the standalone exact-image check; a 1-safe failover's torn
    /// window legitimately hides it.
    SkipUndoChain,
    /// Flip a committed database byte once, before the first recovery
    /// attempt: recovery "scribbles" over data no in-flight transaction
    /// touched. Visible on every driver — no torn window explains it —
    /// however many times the plan crashes recovery.
    ScribbleCommitted,
}

/// How a faulted run broke its contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The recovered image differs from the oracle outside any allowed
    /// torn tail. Offsets are region-relative.
    Divergence {
        /// The recovered sequence number the image was compared at.
        seq: u64,
        /// Region-relative offset of the first unexplained byte.
        offset: u64,
    },
    /// The recovered sequence number is impossible: ahead of what the
    /// primary ever committed, or (for local recovery) behind it.
    SequenceDrift {
        /// What recovery reported.
        recovered: u64,
        /// Transactions the primary completed before the crash.
        committed: u64,
    },
    /// 1-safe replication lost more than the in-flight window.
    ExcessiveLoss {
        /// What recovery reported.
        recovered: u64,
        /// Transactions the primary completed before the crash.
        committed: u64,
    },
    /// The detection/takeover timeline is internally inconsistent.
    TimelineInverted(String),
    /// A panic that was not an injected fault (a real bug in the
    /// recovery path).
    UnexpectedPanic(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Divergence { seq, offset } => write!(
                f,
                "database diverges from the oracle at seq {seq}, region offset {offset}"
            ),
            Violation::SequenceDrift {
                recovered,
                committed,
            } => write!(
                f,
                "recovered seq {recovered} is impossible against {committed} committed"
            ),
            Violation::ExcessiveLoss {
                recovered,
                committed,
            } => write!(
                f,
                "lost {} transactions (recovered {recovered} of {committed})",
                committed - recovered
            ),
            Violation::TimelineInverted(msg) => write!(f, "takeover timeline inconsistent: {msg}"),
            Violation::UnexpectedPanic(msg) => write!(f, "unexpected panic: {msg}"),
        }
    }
}

/// What one plan execution produced. `PartialEq` exists so determinism
/// tests can compare whole outcomes across replays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The plan that ran.
    pub plan: FaultPlan,
    /// Transactions the primary completed before any crash.
    pub committed: u64,
    /// The committed sequence after recovery (equals `committed` on a
    /// graceful run).
    pub recovered: u64,
    /// Injected faults that actually fired.
    pub faults_fired: u64,
    /// Accounted stores the primary executed during the run.
    pub stores: u64,
    /// SAN packets the primary emitted during the run.
    pub packets: u64,
    /// Arena writes the final (successful) recovery attempt performed.
    pub recovery_writes: u64,
    /// Crash-to-serving outage in picoseconds, when a takeover happened.
    pub outage_ps: Option<u64>,
    /// Commits whose chain/quorum acknowledgement set never assembled
    /// (the head proceeded after a coordinator timeout). Nonzero only
    /// for N-node drivers under partition faults.
    pub degraded: u64,
    /// The broken invariant, if any.
    pub violation: Option<Violation>,
}

impl Outcome {
    fn new(scenario: &Scenario, plan: &FaultPlan) -> Self {
        Outcome {
            scenario: *scenario,
            plan: plan.clone(),
            committed: 0,
            recovered: 0,
            faults_fired: 0,
            stores: 0,
            packets: 0,
            recovery_writes: 0,
            outage_ps: None,
            degraded: 0,
            violation: None,
        }
    }
}

const FAULT_MARKER: &str = "fault injection";

static SILENCE: Once = Once::new();

/// Installs a process-wide panic hook that swallows the backtrace noise
/// of *injected* faults (they are caught by design); every other panic
/// still reports normally. Idempotent.
pub fn silence_fault_panics() {
    SILENCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains(FAULT_MARKER) {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, turning a panic into its message.
fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())),
    }
}

fn is_fault(msg: &str) -> bool {
    msg.contains(FAULT_MARKER)
}

fn check_plan(scenario: &Scenario, plan: &FaultPlan) -> Result<(), PlanError> {
    plan.validate()?;
    if scenario.driver == Driver::Standalone {
        if matches!(plan.primary_crash(), Some(FaultSite::Packet(_))) {
            return Err(PlanError::new(
                "a packet-boundary crash needs a SAN link; the standalone driver has none",
            ));
        }
        if plan.heartbeat_delay_ps() > 0 || plan.heartbeat_drop_after().is_some() {
            return Err(PlanError::new(
                "heartbeat faults need a cluster; the standalone driver has none",
            ));
        }
    }
    match scenario.topology() {
        Some(Ok(topology)) => {
            let allowed = modeled_pairs(topology);
            for (from, to) in plan.partition_pairs() {
                if !allowed.contains(&(from, to)) {
                    return Err(PlanError::new(format!(
                        "partition {from}->{to} targets a pair the {topology} strategy \
                         never moves packets over (modeled pairs: {allowed:?})"
                    )));
                }
            }
        }
        Some(Err(e)) => {
            return Err(PlanError::new(format!("scenario topology is invalid: {e}")));
        }
        None => {
            if !plan.partition_pairs().is_empty() {
                return Err(PlanError::new(
                    "partition faults need a multi-link fabric; only the chain and quorum \
                     drivers have one",
                ));
            }
        }
    }
    Ok(())
}

/// Zeroes the undo-log chain head ([`Mutation::SkipUndoChain`]).
fn skip_undo_chain(arena: &Rc<RefCell<Arena>>) {
    let mut arena = arena.borrow_mut();
    if let Ok(layout) = Layout::read(&arena) {
        if let Some(log) = layout.region(RegionId::UndoLog) {
            arena.write_u64(log.start(), 0);
        }
    }
}

/// Flips a committed database byte ([`Mutation::ScribbleCommitted`]).
fn scribble_committed(arena: &Rc<RefCell<Arena>>) {
    let mut arena = arena.borrow_mut();
    if let Ok(layout) = Layout::read(&arena) {
        if let Some(db) = layout.region(RegionId::Database) {
            // The byte is XOR-flipped (not overwritten), so the
            // corruption never accidentally matches the oracle.
            let addr = db.start() + db.len() / 2;
            let byte = arena.read_vec(addr, 1)[0];
            arena.write(addr, &[byte ^ 0xA5]);
        }
    }
}

/// Executes `plan` against `scenario`, building a fresh oracle reference.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is inconsistent or names a site
/// the scenario's driver does not have. A plan that merely *breaks* the
/// run is not an error: the breakage lands in [`Outcome::violation`].
pub fn execute(scenario: &Scenario, plan: &FaultPlan) -> Result<Outcome, PlanError> {
    let reference = Reference::build(scenario);
    execute_against(scenario, plan, &reference, None)
}

/// As [`execute`], reusing a prebuilt [`Reference`] (campaigns run many
/// plans against one scenario) and optionally planting a [`Mutation`].
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is invalid for the scenario.
pub fn execute_against(
    scenario: &Scenario,
    plan: &FaultPlan,
    reference: &Reference,
    mutation: Option<Mutation>,
) -> Result<Outcome, PlanError> {
    check_plan(scenario, plan)?;
    silence_fault_panics();
    let run = Run {
        scenario,
        plan,
        reference,
        mutation,
        contract: Contract::of(scenario),
    };
    let costs = CostModel::alpha_21164a();
    let config = EngineConfig::for_db(scenario.db_len);
    Ok(match scenario.driver {
        Driver::Standalone => run.execute(Standalone::new(costs, scenario.version, &config)),
        Driver::Passive => run.execute(PassiveCluster::new(costs, scenario.version, &config)),
        Driver::Active => {
            let mut cluster = ActiveCluster::new(costs, &config);
            if scenario.two_safe {
                cluster.set_durability(Durability::TwoSafe);
            }
            run.execute(cluster)
        }
        Driver::Chain | Driver::Quorum => {
            let topology = scenario
                .topology()
                .expect("chain/quorum drivers have a topology")
                .expect("check_plan validated the topology");
            let mut set = ReplicaSet::new(costs, scenario.version, &config, topology);
            for (from, to, ps) in plan.partition_delays() {
                set.partition_delay(from, to, VirtualDuration::from_picos(ps));
            }
            for (from, to, n) in plan.partition_drops() {
                set.partition_drop_after(from, to, n);
            }
            run.execute(set)
        }
    })
}

/// 1-safe replication may lose the in-flight tail; more than this many
/// transactions behind the primary is a bug (matches the bound the
/// failover property tests have always enforced).
const LOSS_BOUND: u64 = 64;

/// What a driver promises about the state its recovery produces.
#[derive(Clone, Copy, Debug)]
struct Contract {
    /// The recovered image may differ from the oracle inside the torn
    /// tail of the in-flight window (write doubling ships stores, not
    /// transactions: a 1-safe backup can hold part of one).
    torn_tail: bool,
    /// How many committed transactions recovery may lose. `None`: none,
    /// and falling behind is a [`Violation::SequenceDrift`] (local
    /// recovery, and chain/quorum heads that commit 2-safe toward their
    /// successor); `Some(n)`: more than `n` is a
    /// [`Violation::ExcessiveLoss`].
    max_loss: Option<u64>,
    /// A takeover crosses the cluster's heartbeat detection, so the
    /// failover timeline is checked too.
    timeline: bool,
}

impl Contract {
    fn of(scenario: &Scenario) -> Self {
        let driver = scenario.driver;
        Contract {
            // The active backup applies whole publications and a
            // standalone node recovers its own image: neither is torn.
            torn_tail: matches!(driver, Driver::Passive | Driver::Chain | Driver::Quorum),
            max_loss: match driver {
                Driver::Active if scenario.two_safe => Some(0),
                Driver::Passive | Driver::Active => Some(LOSS_BOUND - 1),
                Driver::Standalone | Driver::Chain | Driver::Quorum => None,
            },
            timeline: driver != Driver::Standalone,
        }
    }

    /// Checks a recovered sequence against the `committed` count: at most
    /// the in-flight transaction may have committed past it, and at most
    /// `max_loss` may be missing.
    fn check_loss(&self, recovered: u64, committed: u64) -> Option<Violation> {
        let lost = committed.saturating_sub(recovered);
        if recovered > committed + 1 || (lost > 0 && self.max_loss.is_none()) {
            Some(Violation::SequenceDrift {
                recovered,
                committed,
            })
        } else if self.max_loss.is_some_and(|max| lost > max) {
            Some(Violation::ExcessiveLoss {
                recovered,
                committed,
            })
        } else {
            None
        }
    }
}

/// One plan execution: everything the runner needs besides the cluster.
struct Run<'a> {
    scenario: &'a Scenario,
    plan: &'a FaultPlan,
    reference: &'a Reference,
    mutation: Option<Mutation>,
    contract: Contract,
}

impl Run<'_> {
    /// Runs the workload on `cluster`, crashing it where the plan says,
    /// then checks the graceful image or drives recovery and checks the
    /// failover against the driver's contract.
    fn execute<C: Cluster>(&self, mut cluster: C) -> Outcome {
        let (scenario, plan) = (self.scenario, self.plan);
        let mut out = Outcome::new(scenario, plan);
        let db = cluster.db_region();
        let mut workload = scenario.workload.build(db, scenario.seed);

        let site = plan.primary_crash();
        match site {
            Some(FaultSite::Store(n)) => cluster.machine_mut().inject_crash_after_stores(n),
            Some(FaultSite::Packet(n)) => cluster.machine_mut().inject_crash_after_packets(n),
            _ => {}
        }
        let crash_txn = match site {
            Some(FaultSite::Txn(n)) => Some(n),
            _ => None,
        };
        let stores_before = cluster.machine().stores_executed();
        let packets_before = cluster.machine().packets_emitted();
        let ok = run_txn_loop(&mut out, scenario.txns, crash_txn, || {
            cluster.run_txn(workload.as_mut());
        });
        out.stores = cluster.machine().stores_executed() - stores_before;
        out.packets = cluster.machine().packets_emitted() - packets_before;
        if !ok {
            return out;
        }

        if site.is_none() {
            self.check_graceful(&mut out, cluster, db);
            return out;
        }

        cluster.machine_mut().clear_fault();
        cluster.machine_mut().clear_packet_fault();
        out.degraded = cluster.degraded_commits();
        let (crashed_at, takeover) = cluster.begin_takeover();
        let Some(failover) = self.recover(&mut out, takeover) else {
            return out;
        };
        out.recovered = failover.report.committed_seq;
        out.violation = self.contract.check_loss(out.recovered, out.committed);
        if out.violation.is_none() {
            let arena = Rc::clone(failover.machine.arena());
            let (seq, torn) = (out.recovered, self.contract.torn_tail);
            check_image(&mut out, self.reference, &arena, db, seq, torn);
        }
        if out.violation.is_none() && self.contract.timeline {
            let recovery = failover.recovery_time;
            check_timeline(&mut out, plan, crashed_at, recovery, scenario.rf);
        }
        out
    }

    /// A failure-free run: after quiesce, the replicas hold exactly the
    /// oracle's image at the committed sequence.
    fn check_graceful<C: Cluster>(&self, out: &mut Outcome, mut cluster: C, db: Region) {
        cluster.quiesce();
        out.degraded = cluster.degraded_commits();
        out.recovered = cluster.applied_seq().unwrap_or(out.committed);
        if out.recovered != self.scenario.txns {
            out.violation = Some(Violation::SequenceDrift {
                recovered: out.recovered,
                committed: out.committed,
            });
            return;
        }
        // A partition only guarantees the 2-safe target (the first
        // replica); without one, every replica converges.
        let arenas = cluster.replica_arenas();
        let checked = if self.plan.partition_pairs().is_empty() {
            arenas.len()
        } else {
            1
        };
        for arena in &arenas[..checked] {
            check_image(out, self.reference, arena, db, out.recovered, false);
            if out.violation.is_some() {
                break;
            }
        }
    }

    /// Drives `takeover`'s recovery to completion, crashing it at each of
    /// the plan's recovery-write budgets and resuming over the surviving
    /// arena, then running it once more unarmed. Returns `None` (with the
    /// violation recorded) if recovery broke for a reason other than an
    /// injected halt.
    fn recover<R: Recovery>(&self, out: &mut Outcome, mut takeover: R) -> Option<Failover> {
        // A second flip would undo the first, so the scribble lands once,
        // before the first attempt; the undo-chain skip is idempotent.
        if self.mutation == Some(Mutation::ScribbleCommitted) {
            scribble_committed(&takeover.arena());
        }
        let mut budgets = self.plan.recovery_crashes().into_iter();
        loop {
            let budget = budgets.next();
            let arena = takeover.arena();
            let at = takeover.now();
            if self.mutation == Some(Mutation::SkipUndoChain) {
                skip_undo_chain(&arena);
            }
            let writes_before = arena.borrow().writes();
            if let Some(budget) = budget {
                arena.borrow_mut().inject_halt_after_writes(budget);
            }
            let result = run_caught(move || takeover.recover());
            if budget.is_some() {
                arena.borrow_mut().clear_halt();
            }
            let msg = match result {
                Ok(Ok(failover)) => {
                    out.recovery_writes = arena.borrow().writes() - writes_before;
                    return Some(failover);
                }
                Ok(Err(e)) => format!("backup layout unreadable: {e}"),
                Err(msg) if budget.is_some() && is_fault(&msg) => {
                    out.faults_fired += 1;
                    let costs = CostModel::alpha_21164a();
                    match R::resume(self.scenario.version, costs, arena, NullTracer, at) {
                        Ok(resumed) => {
                            takeover = resumed;
                            continue;
                        }
                        Err(e) => format!("mid-recovery halt corrupted the layout: {e}"),
                    }
                }
                Err(msg) => msg,
            };
            out.violation = Some(Violation::UnexpectedPanic(msg));
            return None;
        }
    }
}

/// A single node with no replication, as a [`Cluster`] whose only
/// "replica" is its own arena and whose takeover recovers in place.
struct Standalone {
    version: VersionTag,
    costs: CostModel,
    machine: Machine,
    engine: Box<dyn Engine>,
}

impl Standalone {
    fn new(costs: CostModel, version: VersionTag, config: &EngineConfig) -> Self {
        let arena = dsnrep_core::shared_arena(arena_len(version, config));
        let mut machine = Machine::standalone(costs.clone(), arena);
        let engine = build_engine(version, &mut machine, config);
        Standalone {
            version,
            costs,
            machine,
            engine,
        }
    }
}

impl Cluster for Standalone {
    type Takeover = InPlace;

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn db_region(&self) -> Region {
        self.engine.db_region()
    }

    fn run_txn(&mut self, workload: &mut dyn Workload) {
        let mut ctx = TxCtx::new(&mut self.machine, self.engine.as_mut());
        if let Err(e) = workload.run_txn(&mut ctx) {
            panic!("engine error: {e:?}");
        }
    }

    fn quiesce(&mut self) {}

    fn traffic(&self) -> Traffic {
        Traffic::default()
    }

    /// What the node's own roots say it committed.
    fn applied_seq(&mut self) -> Option<u64> {
        Some(self.engine.committed_seq(&mut self.machine))
    }

    fn replica_arenas(&self) -> Vec<Rc<RefCell<Arena>>> {
        vec![Rc::clone(self.machine.arena())]
    }

    fn begin_takeover(mut self) -> (VirtualInstant, InPlace) {
        let at = self.machine.crash();
        let takeover = InPlace {
            version: self.version,
            costs: self.costs,
            arena: Rc::clone(self.machine.arena()),
            at,
        };
        (at, takeover)
    }
}

/// A crashed standalone node about to recover over its own arena: each
/// attempt is a fresh (cold-cache) machine at the crash instant.
struct InPlace {
    version: VersionTag,
    costs: CostModel,
    arena: Rc<RefCell<Arena>>,
    at: VirtualInstant,
}

impl Recovery for InPlace {
    fn arena(&self) -> Rc<RefCell<Arena>> {
        Rc::clone(&self.arena)
    }

    fn now(&self) -> VirtualInstant {
        self.at
    }

    fn recover(self) -> Result<Failover, LayoutError> {
        let mut machine = Machine::standalone(self.costs, self.arena);
        machine.clock_mut().advance_to(self.at);
        let mut engine = attach_engine(self.version, &mut machine);
        let report = engine.recover(&mut machine);
        let recovery_time = machine.now().duration_since(self.at);
        Ok(Failover {
            machine,
            engine,
            report,
            recovery_time,
        })
    }

    fn resume(
        version: VersionTag,
        costs: CostModel,
        arena: Rc<RefCell<Arena>>,
        _tracer: NullTracer,
        at: VirtualInstant,
    ) -> Result<Self, LayoutError> {
        Ok(InPlace {
            version,
            costs,
            arena,
            at,
        })
    }
}

/// Runs the workload loop, halting at the plan's transaction boundary or
/// on an injected mid-transaction fault. Returns `false` on a violation.
fn run_txn_loop(
    out: &mut Outcome,
    txns: u64,
    crash_txn: Option<u64>,
    mut one_txn: impl FnMut(),
) -> bool {
    while out.committed < txns {
        if crash_txn == Some(out.committed) {
            return true;
        }
        match run_caught(&mut one_txn) {
            Ok(()) => out.committed += 1,
            Err(msg) if is_fault(&msg) => {
                out.faults_fired += 1;
                return true;
            }
            Err(msg) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                return false;
            }
        }
    }
    true
}

fn check_image(
    out: &mut Outcome,
    reference: &Reference,
    arena: &Rc<RefCell<Arena>>,
    db: Region,
    seq: u64,
    allow_torn_tail: bool,
) {
    if seq > reference.txns() {
        out.violation = Some(Violation::SequenceDrift {
            recovered: seq,
            committed: out.committed,
        });
        return;
    }
    let arena = arena.borrow();
    if let Some(offset) = reference.first_unexplained_mismatch(seq, &arena, db, allow_torn_tail) {
        out.violation = Some(Violation::Divergence { seq, offset });
    }
}

fn check_timeline(
    out: &mut Outcome,
    plan: &FaultPlan,
    crashed_at: VirtualInstant,
    recovery: VirtualDuration,
    rf: u8,
) {
    let faults = HeartbeatFaults {
        delay: VirtualDuration::from_picos(plan.heartbeat_delay_ps()),
        drop_after: plan.heartbeat_drop_after(),
    };
    let backups: Vec<NodeId> = (1..rf.max(2)).map(NodeId::new).collect();
    let mut views = ViewManager::new(NodeId::new(0), backups, VirtualInstant::EPOCH);
    let timeline: TakeoverTimeline = match takeover_timeline_with_faults(
        HeartbeatConfig::default(),
        VirtualDuration::from_micros(3),
        crashed_at,
        recovery,
        &mut views,
        faults,
    ) {
        Ok(t) => t,
        Err(e) => {
            out.violation = Some(Violation::TimelineInverted(format!("no successor: {e:?}")));
            return;
        }
    };
    out.outage_ps = Some(timeline.outage().as_picos());
    if timeline.serving_at != timeline.view_installed_at + recovery {
        out.violation = Some(Violation::TimelineInverted(format!(
            "serving_at {} != view_installed_at {} + recovery {}",
            timeline.serving_at, timeline.view_installed_at, recovery
        )));
    } else if timeline.detected_at < timeline.last_heartbeat_at {
        out.violation = Some(Violation::TimelineInverted(format!(
            "detected_at {} precedes last_heartbeat_at {}",
            timeline.detected_at, timeline.last_heartbeat_at
        )));
    } else if faults.drop_after.is_none() && timeline.detected_at <= crashed_at {
        out.violation = Some(Violation::TimelineInverted(format!(
            "without dropped beats, detection at {} cannot precede the crash at {}",
            timeline.detected_at, crashed_at
        )));
    }
}
