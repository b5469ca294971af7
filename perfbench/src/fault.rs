//! `fault_sweep`: the `simfault` matrix (16 scenarios) under exhaustive
//! single-fault, seeded random and partition campaigns. The benchmark
//! builds the same plans the campaign explorers build and times each
//! `execute_against` call; the campaign counters are then checked against
//! the explorers' own.

use std::time::Instant;

use dsnrep_core::VersionTag;
use dsnrep_faultsim::{
    execute_against, exhaustive_single_fault, partition_campaign, probe, random_campaign, Campaign,
    Driver, FaultEvent, FaultPlan, FaultSite, Probe as Boundaries, Reference, Scenario,
};
use dsnrep_repl::modeled_pairs;
use dsnrep_simcore::SplitMix64;
use dsnrep_workloads::WorkloadKind;

use crate::probe::{Digest, Kind, Probe, Round, Segment};

/// Debit-Credit run length of each scenario (Order-Entry runs half).
pub const FAULT_TXNS: u64 = 4;
/// Plans per random and per partition campaign.
pub const FAULT_PLANS: u64 = 12;

/// The `simfault` campaign matrix.
pub fn matrix(txns: u64) -> Vec<Scenario> {
    let oe_txns = (txns / 2).max(1);
    let mut scenarios = Vec::new();
    for version in VersionTag::ALL {
        scenarios.push(Scenario::passive(version, WorkloadKind::DebitCredit).with_txns(txns));
        scenarios.push(Scenario::passive(version, WorkloadKind::OrderEntry).with_txns(oe_txns));
    }
    for (workload, t) in [
        (WorkloadKind::DebitCredit, txns),
        (WorkloadKind::OrderEntry, oe_txns),
    ] {
        scenarios.push(Scenario::active(workload).with_txns(t));
        scenarios.push(Scenario::active(workload).with_txns(t).two_safe());
    }
    let v3 = VersionTag::ImprovedLog;
    scenarios.push(Scenario::chain(v3, WorkloadKind::DebitCredit, 3).with_txns(txns));
    scenarios.push(Scenario::chain(v3, WorkloadKind::OrderEntry, 3).with_txns(oe_txns));
    scenarios.push(Scenario::quorum(v3, WorkloadKind::DebitCredit, 3, 2, 2).with_txns(txns));
    scenarios.push(Scenario::quorum(v3, WorkloadKind::DebitCredit, 3, 1, 3).with_txns(txns));
    scenarios
}

fn random_site(rng: &mut SplitMix64, scenario: &Scenario, b: &Boundaries) -> FaultSite {
    let kinds = if scenario.driver == Driver::Standalone {
        2
    } else {
        3
    };
    match rng.next_below(kinds) {
        0 => FaultSite::Store(rng.next_below(b.stores.max(1))),
        1 => FaultSite::Txn(rng.next_below(scenario.txns + 1)),
        _ => FaultSite::Packet(rng.next_below(b.packets.max(1))),
    }
}

fn fabric_pairs(scenario: &Scenario) -> Vec<(u8, u8)> {
    match scenario.topology() {
        Some(Ok(topology)) => modeled_pairs(topology),
        _ => Vec::new(),
    }
}

fn random_partition(rng: &mut SplitMix64, pairs: &[(u8, u8)], b: &Boundaries) -> FaultEvent {
    let (from, to) = pairs[rng.next_below(pairs.len() as u64) as usize];
    if rng.next_below(2) == 0 {
        FaultEvent::PartitionDelay {
            from,
            to,
            ps: (rng.next_below(500) + 1) * 1_000_000,
        }
    } else {
        FaultEvent::PartitionDropAfter {
            from,
            to,
            n: rng.next_below(b.packets + 1),
        }
    }
}

fn random_plan(rng: &mut SplitMix64, scenario: &Scenario, b: &Boundaries) -> FaultPlan {
    let mut events = vec![FaultEvent::CrashPrimary(random_site(rng, scenario, b))];
    let budget_range = b.recovery_writes.max(1) * 2;
    let doubles = rng.next_below(4);
    if doubles >= 2 {
        events.push(FaultEvent::CrashBackupRecoveryWrite(
            rng.next_below(budget_range),
        ));
    }
    if doubles == 3 {
        events.push(FaultEvent::CrashBackupRecoveryWrite(
            rng.next_below(budget_range),
        ));
    }
    if scenario.driver != Driver::Standalone {
        if rng.next_below(4) == 0 {
            events.push(FaultEvent::DelayHeartbeats(
                (rng.next_below(500) + 1) * 1_000_000,
            ));
        }
        if rng.next_below(8) == 0 {
            events.push(FaultEvent::DropHeartbeatsAfter(rng.next_below(32)));
        }
    }
    let pairs = fabric_pairs(scenario);
    if !pairs.is_empty() && rng.next_below(4) == 0 {
        events.push(random_partition(rng, &pairs, b));
    }
    FaultPlan::new(events)
}

/// The exhaustive, random and partition plans of one scenario, in the
/// order the campaign explorers run them.
pub fn campaign_plans(
    scenario: &Scenario,
    b: &Boundaries,
    seed: u64,
    plans: u64,
) -> [Vec<FaultPlan>; 3] {
    let crash = |site| FaultPlan::new(vec![FaultEvent::CrashPrimary(site)]);
    let mut exhaustive: Vec<FaultPlan> =
        (0..b.stores).map(|s| crash(FaultSite::Store(s))).collect();
    if scenario.driver != Driver::Standalone {
        exhaustive.extend((0..b.packets).map(|p| crash(FaultSite::Packet(p))));
    }
    exhaustive.extend((0..=scenario.txns).map(|t| crash(FaultSite::Txn(t))));
    let deepest = if b.stores > 0 {
        FaultSite::Store(b.stores - 1)
    } else {
        FaultSite::Txn(scenario.txns)
    };
    exhaustive.extend((0..b.recovery_writes).map(|w| {
        FaultPlan::new(vec![
            FaultEvent::CrashPrimary(deepest),
            FaultEvent::CrashBackupRecoveryWrite(w),
        ])
    }));
    let mut rng = SplitMix64::new(seed);
    let random = (0..plans)
        .map(|_| random_plan(&mut rng, scenario, b))
        .collect();
    let pairs = fabric_pairs(scenario);
    let mut partition = Vec::new();
    if !pairs.is_empty() {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..plans {
            let mut events = vec![random_partition(&mut rng, &pairs, b)];
            if rng.next_below(2) == 0 {
                events.push(FaultEvent::CrashPrimary(random_site(&mut rng, scenario, b)));
            }
            partition.push(FaultPlan::new(events));
        }
    }
    [exhaustive, random, partition]
}

/// A campaign's counters, as `Campaign` reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub plans_run: u64,
    pub faults_fired: u64,
    pub store_sites: u64,
    pub packet_sites: u64,
    pub txn_sites: u64,
    pub recovery_sites: u64,
    pub heartbeat_faults: u64,
    pub partition_faults: u64,
    pub degraded_commits: u64,
    pub max_outage_ps: u64,
    pub counterexamples: u64,
}

impl Counters {
    pub fn of(c: &Campaign) -> Self {
        Counters {
            plans_run: c.plans_run,
            faults_fired: c.faults_fired,
            store_sites: c.store_sites,
            packet_sites: c.packet_sites,
            txn_sites: c.txn_sites,
            recovery_sites: c.recovery_sites,
            heartbeat_faults: c.heartbeat_faults,
            partition_faults: c.partition_faults,
            degraded_commits: c.degraded_commits,
            max_outage_ps: c.max_outage_ps,
            counterexamples: c.counterexamples.len() as u64,
        }
    }

    fn fold(&self, d: &mut Digest) {
        for v in [
            self.plans_run,
            self.faults_fired,
            self.store_sites,
            self.packet_sites,
            self.txn_sites,
            self.recovery_sites,
            self.heartbeat_faults,
            self.partition_faults,
            self.degraded_commits,
            self.max_outage_ps,
            self.counterexamples,
        ] {
            d.u(v);
        }
    }
}

/// Runs `plan` through the executor, timed, and counts it the way
/// `Campaign::run_plan` does. Returns `false` if the plan was refused.
pub fn run_plan(
    p: &mut Probe,
    scenario: &Scenario,
    reference: &Reference,
    plan: &FaultPlan,
    c: &mut Counters,
    d: &mut Digest,
) -> bool {
    let outcome = match p.call("faultsim::execute_against", Kind::Plan, || {
        execute_against(scenario, plan, reference, None)
    }) {
        Ok(o) => o,
        Err(_) => return false,
    };
    c.plans_run += 1;
    c.faults_fired += outcome.faults_fired;
    match plan.primary_crash() {
        Some(FaultSite::Store(_)) => c.store_sites += 1,
        Some(FaultSite::Packet(_)) => c.packet_sites += 1,
        Some(FaultSite::Txn(_)) => c.txn_sites += 1,
        None => {}
    }
    c.recovery_sites += plan.recovery_crashes().len() as u64;
    if plan.heartbeat_delay_ps() > 0 || plan.heartbeat_drop_after().is_some() {
        c.heartbeat_faults += 1;
    }
    if !plan.partition_pairs().is_empty() {
        c.partition_faults += 1;
    }
    c.degraded_commits += outcome.degraded;
    if let Some(outage) = outcome.outage_ps {
        c.max_outage_ps = c.max_outage_ps.max(outage);
    }
    d.u(outcome.committed)
        .u(outcome.recovered)
        .u(outcome.stores)
        .u(outcome.packets)
        .u(outcome.recovery_writes)
        .u(outcome.outage_ps.unwrap_or(u64::MAX));
    if outcome.violation.is_some() {
        c.counterexamples += 1;
    }
    outcome.violation.is_none()
}

/// One round; `all` receives each scenario's campaign counters
/// (exhaustive, random, partition).
pub fn round(p: &mut Probe, seed: u64, all: &mut Vec<[Counters; 3]>) -> Round {
    let mut setup = 0.0;
    let mut segments = Vec::new();
    all.clear();
    for scenario in matrix(FAULT_TXNS) {
        let seg = p.group("segment", |p| {
            let t = Instant::now();
            let reference = p.call("Reference::build", Kind::Other, || {
                Reference::build(&scenario)
            });
            let bounds = p
                .call("faultsim::probe", Kind::Other, || {
                    probe(&scenario, &reference)
                })
                .expect("fault-free probe of a matrix scenario");
            let plans = campaign_plans(&scenario, &bounds, seed, FAULT_PLANS);
            setup += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut d = Digest::new();
            let mut counters = [Counters::default(); 3];
            let mut failed = 0;
            for (c, list) in counters.iter_mut().zip(&plans) {
                for plan in list {
                    if !run_plan(p, &scenario, &reference, plan, c, &mut d) {
                        failed += 1;
                    }
                }
            }
            let work_s = t.elapsed().as_secs_f64();
            for c in &counters {
                c.fold(&mut d);
            }
            let ops = plans.iter().map(|l| l.len() as u64).sum();
            all.push(counters);
            Segment {
                name: scenario.label(),
                ops,
                digest: d.value(),
                work_s,
                ok: failed == 0,
            }
        });
        segments.push(seg);
    }
    Round {
        setup_s: setup,
        segments,
    }
}

/// The explorers' own counters for every matrix scenario, as `simfault
/// --mode both --seed <seed> --plans 12` computes them.
pub fn library_counters(seed: u64) -> Vec<[Counters; 3]> {
    matrix(FAULT_TXNS)
        .iter()
        .map(|s| {
            let exhaustive = exhaustive_single_fault(s, None).map(|c| Counters::of(&c));
            let random = random_campaign(s, seed, FAULT_PLANS, None).map(|c| Counters::of(&c));
            let partition = if s.topology().is_some() {
                partition_campaign(s, seed, FAULT_PLANS, None).map(|c| Counters::of(&c))
            } else {
                Ok(Counters::default())
            };
            let sentinel = Counters {
                plans_run: u64::MAX,
                ..Counters::default()
            };
            [
                exhaustive.unwrap_or(sentinel),
                random.unwrap_or(sentinel),
                partition.unwrap_or(sentinel),
            ]
        })
        .collect()
}
