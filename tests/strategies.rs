//! Fault coverage for every cluster driver, at tier-1 cost.
//!
//! One fixed plan set per strategy runs through the fault-injection
//! executor: a clean run, a primary crash mid-transaction at a store and
//! at a SAN packet boundary, a crash whose recovery is itself crashed,
//! and (for chain and quorum) a fabric partition. Every plan must leave
//! the shadow oracle and the recovery invariants intact. Every crash plan
//! then replays against a planted recovery bug, which every driver must
//! catch however many times the plan crashes recovery.

use dsnrep::core::VersionTag;
use dsnrep::workloads::WorkloadKind;
use dsnrep_faultsim::{
    execute_against, silence_fault_panics, FaultPlan, Mutation, Outcome, Reference, Scenario,
};

const V3: VersionTag = VersionTag::ImprovedLog;
const DC: WorkloadKind = WorkloadKind::DebitCredit;

/// A plan and how many of its injected faults fire.
type Plan = (&'static str, u64);

/// Runs the clean plan, every crash plan and the partition plan against
/// `scenario`, then replays the crash plans with a scribbling recovery.
fn check(scenario: Scenario, crashes: &[Plan], partition: Option<Plan>) {
    silence_fault_panics();
    let reference = Reference::build(&scenario);
    let run = |plan: &str, mutation| -> Outcome {
        let plan: FaultPlan = plan.parse().expect("plan parses");
        execute_against(&scenario, &plan, &reference, mutation).expect("plan fits the driver")
    };

    let clean = run("", None);
    assert_eq!(clean.violation, None, "{scenario}: clean run");
    assert_eq!(clean.recovered, scenario.txns, "{scenario}: clean run");
    for &(plan, fired) in crashes.iter().chain(&partition) {
        let out = run(plan, None);
        assert_eq!(out.violation, None, "{scenario}: `{plan}`");
        assert_eq!(out.faults_fired, fired, "{scenario}: `{plan}`");
    }
    for &(plan, _) in crashes {
        let out = run(plan, Some(Mutation::ScribbleCommitted));
        assert!(
            out.violation.is_some(),
            "{scenario}: `{plan}` hid a scribbled committed byte"
        );
    }
}

#[test]
fn standalone_v3_recovers_in_place() {
    // No SAN link: no packet-boundary crash.
    check(
        Scenario::standalone(V3, DC),
        &[
            ("crash primary @ store=20", 1),
            (
                "crash primary @ store=20; crash backup @ recovery-write=1",
                2,
            ),
        ],
        None,
    );
}

#[test]
fn passive_v3_fails_over_within_the_loss_bound() {
    check(
        Scenario::passive(V3, DC),
        &[
            ("crash primary @ store=20", 1),
            ("crash primary @ packet=10", 1),
            (
                "crash primary @ store=20; crash backup @ recovery-write=1",
                2,
            ),
        ],
        None,
    );
}

#[test]
fn active_two_safe_fails_over_losing_nothing() {
    check(
        Scenario::active(DC).two_safe(),
        &[
            ("crash primary @ store=35", 1),
            ("crash primary @ packet=6", 1),
            (
                "crash primary @ store=35; crash backup @ recovery-write=1",
                2,
            ),
        ],
        None,
    );
}

#[test]
fn chain_rf3_fails_over_to_node_one() {
    check(
        Scenario::chain(V3, DC, 3),
        &[
            ("crash primary @ store=20", 1),
            ("crash primary @ packet=10", 1),
            // Node 1 holds no undo to roll back here: its recovery writes
            // nothing, so the recovery-write crash never fires.
            (
                "crash primary @ store=20; crash backup @ recovery-write=1",
                1,
            ),
        ],
        Some(("partition 1->2 drop after=3", 0)),
    );
}

#[test]
fn quorum_rf3_r2w2_fails_over_to_the_freshest_replica() {
    check(
        Scenario::quorum(V3, DC, 3, 2, 2),
        &[
            ("crash primary @ store=20", 1),
            ("crash primary @ packet=10", 1),
            (
                "crash primary @ store=20; crash backup @ recovery-write=1",
                2,
            ),
        ],
        Some(("partition 0->2 drop after=3", 0)),
    );
}
