//! The paper's qualitative results as assertions.
//!
//! These are the headline *shapes* of the evaluation — who wins, in which
//! configuration, and why — checked at a reduced run scale. The full
//! quantitative comparison lives in `dsnrep-bench` (the `reproduce`
//! binary) and in `EXPERIMENTS.md`.

use dsnrep::core::VersionTag;
use dsnrep::workloads::WorkloadKind;
use dsnrep_bench::experiments::{self, kind_index, RunScale};

fn scale() -> RunScale {
    RunScale {
        debit_credit: 4_000,
        order_entry: 2_000,
        smp_per_stream: 800,
    }
}

const V0: usize = 0;
const V1: usize = 1;
const V2: usize = 2;
const V3: usize = 3;

#[test]
fn figure1_bandwidth_grows_with_packet_size() {
    let sweep = experiments::figure1();
    assert!(sweep
        .windows(2)
        .all(|w| w[0].mib_per_sec < w[1].mib_per_sec));
    let bw32 = sweep.last().expect("four points").mib_per_sec;
    assert!(
        (70.0..90.0).contains(&bw32),
        "32-byte bandwidth {bw32} MB/s"
    );
}

#[test]
fn table1_straightforward_port_collapses_throughput() {
    // "Throughput drops by a factor of 5.6 for Debit-Credit and by a
    // factor of 2.7 for Order-Entry" — we require a large drop with
    // Debit-Credit hit harder.
    let t = experiments::table1(scale());
    let drop_dc = t[0][0] / t[0][1];
    let drop_oe = t[1][0] / t[1][1];
    assert!(drop_dc > 2.5, "Debit-Credit drop {drop_dc:.1}x");
    assert!(drop_oe > 1.8, "Order-Entry drop {drop_oe:.1}x");
    assert!(drop_dc > drop_oe, "Debit-Credit must be hit harder");
}

#[test]
fn table2_metadata_dominates_the_straightforward_traffic() {
    // "A very large percentage of the data communicated is meta-data."
    let t = experiments::table2(scale());
    for (k, kind) in WorkloadKind::ALL.iter().enumerate() {
        assert!(
            t[k].meta > t[k].modified + t[k].undo,
            "{kind}: metadata {:.0} MB should dominate {:.0}+{:.0} MB",
            t[k].meta,
            t[k].modified,
            t[k].undo
        );
    }
}

#[test]
fn table3_standalone_ordering() {
    // V3 > V1 > V2 > V0 for both benchmarks (Table 3), with every
    // restructured version beating Vista.
    let t = experiments::table3(scale());
    for (k, kind) in WorkloadKind::ALL.iter().enumerate() {
        assert!(
            t[k][V3] > t[k][V1],
            "{kind}: V3 {} <= V1 {}",
            t[k][V3],
            t[k][V1]
        );
        assert!(
            t[k][V1] > t[k][V2],
            "{kind}: V1 {} <= V2 {}",
            t[k][V1],
            t[k][V2]
        );
        assert!(
            t[k][V2] > t[k][V0],
            "{kind}: V2 {} <= V0 {}",
            t[k][V2],
            t[k][V0]
        );
    }
}

#[test]
fn table4_passive_ordering_flips_the_mirrors_and_crowns_logging() {
    // Primary-backup: V3 wins by a substantial margin, V2 beats V1
    // (reversed from standalone), and everything beats V0.
    let t = experiments::table4_and_5(scale());
    for (k, kind) in WorkloadKind::ALL.iter().enumerate() {
        let tps = |v: usize| t[k][v].0;
        assert!(tps(V3) > 1.2 * tps(V2), "{kind}: V3 must win clearly");
        assert!(
            tps(V2) > tps(V1),
            "{kind}: diffing must beat copying under replication"
        );
        assert!(
            tps(V1) > 1.5 * tps(V0),
            "{kind}: restructuring must pay off"
        );
    }
}

#[test]
fn table5_logging_ships_more_bytes_but_wins_anyway() {
    // The paper's central point: Version 3 outperforms Version 2 despite
    // communicating more data.
    let t = experiments::table4_and_5(scale());
    for (k, kind) in WorkloadKind::ALL.iter().enumerate() {
        let (v3_tps, v3_traffic) = t[k][V3];
        let (v2_tps, v2_traffic) = t[k][V2];
        assert!(
            v3_traffic.total() > v2_traffic.total(),
            "{kind}: V3 ships more"
        );
        assert!(v3_tps > v2_tps, "{kind}: ...and still wins");
    }
}

#[test]
fn table6_active_beats_the_best_passive() {
    let t = experiments::table6_and_7(scale());
    for (k, kind) in WorkloadKind::ALL.iter().enumerate() {
        let (passive, _) = t[k][0];
        let (active, _) = t[k][1];
        assert!(
            active > passive,
            "{kind}: active {active:.0} must beat passive {passive:.0}"
        );
    }
}

#[test]
fn table7_active_ships_no_undo_and_less_total() {
    let t = experiments::table6_and_7(scale());
    for (k, kind) in WorkloadKind::ALL.iter().enumerate() {
        let passive = t[k][0].1;
        let active = t[k][1].1;
        assert_eq!(active.undo, 0.0, "{kind}: active ships no undo/mirror data");
        assert!(
            active.total() < passive.total() / 1.5,
            "{kind}: active total {:.0} MB must be well below passive {:.0} MB",
            active.total(),
            passive.total()
        );
    }
}

#[test]
fn table8_graceful_degradation_with_database_size() {
    let t = experiments::table8(scale());
    for (k, kind) in WorkloadKind::ALL.iter().enumerate() {
        assert!(
            t[k][0] > t[k][1] && t[k][1] > t[k][2],
            "{kind}: must degrade: {:?}",
            t[k]
        );
        let drop = (t[k][0] - t[k][2]) / t[k][0];
        assert!(
            drop < 0.35,
            "{kind}: degradation must stay graceful, got {:.0}%",
            drop * 100.0
        );
    }
}

#[test]
fn figures_2_and_3_only_frugal_schemes_scale() {
    for kind in WorkloadKind::ALL {
        let fig = experiments::smp_figure(kind, scale());
        let (active, v3, v2, v1) = (fig[0], fig[1], fig[2], fig[3]);
        // Active dominates at every processor count...
        for p in 0..4 {
            assert!(
                active[p] >= v3[p],
                "{kind}: active under V3 at {} procs",
                p + 1
            );
            assert!(
                v3[p] >= v2[p] * 0.95,
                "{kind}: V3 under V2 at {} procs",
                p + 1
            );
        }
        // ...and scales the furthest, while mirroring-by-copy flatlines.
        let scaling = |s: [f64; 4]| s[3] / s[0];
        assert!(
            scaling(active) > scaling(v1) + 0.3,
            "{kind}: active must out-scale V1"
        );
        assert!(
            v1[3] < v1[1] * 1.25,
            "{kind}: mirror-by-copy must be bandwidth-limited by 2 processors"
        );
    }
}

#[test]
fn version_labels_line_up_with_paper_tables() {
    for (i, v) in VersionTag::ALL.iter().enumerate() {
        assert_eq!(v.paper_label(), dsnrep_bench::paper::VERSION_LABELS[i]);
    }
    assert_eq!(kind_index(WorkloadKind::DebitCredit), 0);
    assert_eq!(kind_index(WorkloadKind::OrderEntry), 1);
}
