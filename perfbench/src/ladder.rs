//! The per-layer ladder of a traced run. The same seeded transaction
//! stream is replayed through successively larger rungs — a standalone
//! engine behind the benchmark's own timing `Engine` wrapper, the bare
//! standalone engine, a `PassiveCluster` pair, an RF = 2 `ReplicaSet`,
//! RF = 3 chain and quorum sets — and each layer's host share is the
//! difference between neighbouring rungs. Virtual counts come from the
//! same runs and are exact.

use std::hint::black_box;
use std::time::Instant;

use dsnrep_cluster::Topology;
use dsnrep_core::{
    arena_len, build_engine, shared_arena, Engine, EngineConfig, Machine, RecoveryReport, TxError,
    VersionTag,
};
use dsnrep_faultsim::{probe, Driver, Reference, Scenario};
use dsnrep_obs::FlightRecorder;
use dsnrep_repl::{modeled_pairs, PassiveCluster, ReplicaSet, Scheme, SmpExperiment};
use dsnrep_simcore::{Addr, BusyCause, Region, StallCause, TrafficClass, VirtualDuration};
use dsnrep_workloads::{
    run_standalone, ArrivalGen, ArrivalProcess, Workload, WorkloadKind, ZipfKeys,
};

use crate::fabric::{strategies, FABRIC_DB, ZIPF_POPULATION, ZIPF_S};
use crate::fault::{campaign_plans, Counters};
use crate::pair::{costs, version_label, PAIR_DB, SMP_DB, SMP_STREAMS, SMP_TXNS_PER_STREAM};
use crate::probe::{median, push, Digest, Metric, Probe};

/// Transactions per pair-ladder rung.
const PAIR_RUNG_TXNS: u64 = 4_000;
/// Transactions per fabric-ladder rung, and reads per read probe.
const FABRIC_RUNG_TXNS: u64 = 4_000;
const READS: u64 = 2_000;
/// Random plans per fault-ladder scenario.
const FAULT_RUNG_PLANS: u64 = 48;
/// Draws per generator in the draw-cost probe.
const DRAWS: u64 = 200_000;

const OPS: [&str; 5] = ["begin", "set_range", "write", "read", "commit"];

/// The benchmark's own `Engine`: forwards every call and accumulates its
/// host time per operation.
#[derive(Debug)]
struct OpTimer<'a> {
    inner: &'a mut dyn Engine,
    ns: [u64; 5],
    calls: [u64; 5],
}

impl OpTimer<'_> {
    #[inline]
    fn timed<R>(&mut self, op: usize, f: impl FnOnce(&mut dyn Engine) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        self.ns[op] += t.elapsed().as_nanos() as u64;
        self.calls[op] += 1;
        r
    }
}

impl Engine for OpTimer<'_> {
    fn version(&self) -> VersionTag {
        self.inner.version()
    }
    fn db_region(&self) -> Region {
        self.inner.db_region()
    }
    fn replicated_regions(&self) -> Vec<Region> {
        self.inner.replicated_regions()
    }
    fn begin(&mut self, m: &mut Machine) -> Result<(), TxError> {
        self.timed(0, |e| e.begin(m))
    }
    fn set_range(&mut self, m: &mut Machine, base: Addr, len: u64) -> Result<(), TxError> {
        self.timed(1, |e| e.set_range(m, base, len))
    }
    fn write(&mut self, m: &mut Machine, base: Addr, bytes: &[u8]) -> Result<(), TxError> {
        self.timed(2, |e| e.write(m, base, bytes))
    }
    fn read(&mut self, m: &mut Machine, base: Addr, buf: &mut [u8]) {
        self.timed(3, |e| e.read(m, base, buf))
    }
    fn commit(&mut self, m: &mut Machine) -> Result<(), TxError> {
        self.timed(4, |e| e.commit(m))
    }
    fn abort(&mut self, m: &mut Machine) -> Result<(), TxError> {
        self.inner.abort(m)
    }
    fn recover(&mut self, m: &mut Machine) -> RecoveryReport {
        self.inner.recover(m)
    }
    fn committed_seq(&self, m: &mut Machine) -> u64 {
        self.inner.committed_seq(m)
    }
}

/// Host nanoseconds an empty timed interval reads: what each timed
/// engine call adds to its own reading, and to the rung's total beyond it.
fn timer_overhead_ns() -> f64 {
    const N: u64 = 100_000;
    let mut sum = 0u128;
    for _ in 0..N {
        let s = Instant::now();
        sum += black_box(s).elapsed().as_nanos();
    }
    sum as f64 / N as f64
}

fn standalone(version: VersionTag) -> (Machine, Box<dyn Engine>, f64) {
    let config = EngineConfig::for_db(PAIR_DB);
    let t = Instant::now();
    let arena = shared_arena(arena_len(version, &config));
    let mut m = Machine::standalone(costs(), arena);
    let engine = build_engine(version, &mut m, &config);
    (m, engine, t.elapsed().as_secs_f64() * 1e3)
}

fn per_txn_us(t: Instant, txns: u64) -> f64 {
    t.elapsed().as_secs_f64() * 1e6 / txns as f64
}

/// Standalone (wrapped and bare) and pair rungs per engine version.
fn pair_ladder(seed: u64, out: &mut Vec<Metric>) {
    let overhead = timer_overhead_ns();
    let mut build_ms = Vec::new();
    for version in VersionTag::ALL {
        let v = version_label(version);
        // Standalone behind the timing wrapper.
        let (mut m, mut engine, ms) = standalone(version);
        build_ms.push(ms);
        let mut wl = WorkloadKind::DebitCredit.build(engine.db_region(), seed);
        let mut timer = OpTimer {
            inner: engine.as_mut(),
            ns: [0; 5],
            calls: [0; 5],
        };
        let t = Instant::now();
        run_standalone(wl.as_mut(), &mut m, &mut timer, PAIR_RUNG_TXNS);
        let total_ns = t.elapsed().as_nanos() as f64;
        let calls: u64 = timer.calls.iter().sum();
        let engine_ns: f64 = timer.ns.iter().sum::<u64>() as f64;
        let self_ns = total_ns - engine_ns - overhead * calls as f64;
        push(
            out,
            format!("workloads.txn_self_us.{v}"),
            self_ns / 1e3 / PAIR_RUNG_TXNS as f64,
            "us",
        );
        for (i, op) in OPS.iter().enumerate() {
            let per = timer.ns[i] as f64 / timer.calls[i].max(1) as f64 - overhead;
            push(out, format!("core.op_ns.{op}.{v}"), per, "ns");
        }
        drop((m, engine, wl));

        // Bare standalone.
        let (mut m, mut engine, ms) = standalone(version);
        build_ms.push(ms);
        let mut wl = WorkloadKind::DebitCredit.build(engine.db_region(), seed);
        let t = Instant::now();
        run_standalone(wl.as_mut(), &mut m, engine.as_mut(), PAIR_RUNG_TXNS);
        let bare_us = per_txn_us(t, PAIR_RUNG_TXNS);
        drop((m, engine, wl));

        // The pair.
        let mut cluster = PassiveCluster::new(costs(), version, &EngineConfig::for_db(PAIR_DB));
        let mut wl = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), seed);
        let t = Instant::now();
        for _ in 0..PAIR_RUNG_TXNS {
            cluster.run_txn(wl.as_mut());
        }
        let pair_us = per_txn_us(t, PAIR_RUNG_TXNS);
        cluster.quiesce();
        push(
            out,
            format!("mcsim.port_us_per_txn.{v}"),
            pair_us - bare_us,
            "us",
        );
        let n = PAIR_RUNG_TXNS as f64;
        push(
            out,
            format!("core.stores_per_txn.{v}"),
            cluster.machine().stores_executed() as f64 / n,
            "count",
        );
        if version == VersionTag::ImprovedLog {
            let s = cluster.machine().stats();
            for cause in BusyCause::ALL {
                let ps = s.busy_breakdown[cause.index()].as_picos() as f64 / n;
                push(
                    out,
                    format!("core.busy_ps.{}", cause.name()),
                    ps,
                    "virtual_ps",
                );
            }
            push(out, "simcore.cache_hit_rate", s.hit_rate(), "ratio");
            push(
                out,
                "simcore.cache_accesses_per_txn",
                (s.cache_hits + s.cache_misses) as f64 / n,
                "count",
            );
            for cause in StallCause::ALL {
                let ps = s.stall_breakdown[cause.index()].as_picos() as f64 / n;
                push(
                    out,
                    format!("simcore.stall_ps.{}", cause.name()),
                    ps,
                    "virtual_ps",
                );
            }
            let traffic = cluster.traffic();
            push(
                out,
                "mcsim.packets_per_txn",
                traffic.total_packets() as f64 / n,
                "count",
            );
            for (class, label) in [
                (TrafficClass::Modified, "modified"),
                (TrafficClass::Undo, "undo"),
                (TrafficClass::Meta, "meta"),
            ] {
                push(
                    out,
                    format!("mcsim.bytes.{label}"),
                    traffic.bytes(class) as f64 / n,
                    "B/txn",
                );
            }
        }
    }
    push(out, "rio.build_ms", median(&build_ms), "ms");
}

/// Mean host nanoseconds per read over `READS` reads at the head's clock.
fn read_probe(set: &mut ReplicaSet, stale: &mut u64, reads: &mut u64) -> f64 {
    let t = Instant::now();
    for _ in 0..READS {
        let at = set.machine().now();
        let s = set.serve_read(at);
        *stale += u64::from(s.staleness > 0);
        *reads += 1;
    }
    t.elapsed().as_nanos() as f64 / READS as f64
}

/// RF = 2 replica set, then chain and quorum sets, on the fabric
/// workload's configuration.
fn fabric_ladder(seed: u64, out: &mut Vec<Metric>) {
    let config = EngineConfig::for_db(FABRIC_DB);
    let rung = |topology: Topology| {
        let mut set = ReplicaSet::new(costs(), VersionTag::ImprovedLog, &config, topology);
        let mut wl = WorkloadKind::OrderEntry.build(set.engine().db_region(), seed);
        let t = Instant::now();
        for _ in 0..FABRIC_RUNG_TXNS {
            set.run_txn(wl.as_mut());
        }
        (per_txn_us(t, FABRIC_RUNG_TXNS), set, wl)
    };
    let (pair_us, _, _) = rung(Topology::pair());
    let (mut stale, mut reads, mut degraded) = (0, 0, 0);
    let mut quiesce_ms = 0.0;
    for (name, topology) in strategies() {
        let (us, mut set, mut wl) = rung(topology);
        push(
            out,
            format!("repl.fabric_us_per_txn.{name}"),
            us - pair_us,
            "us",
        );
        let first = read_probe(&mut set, &mut stale, &mut reads);
        push(out, format!("repl.read_ns.{name}"), first, "ns");
        if name == "quorum" {
            // Double the committed history and read again: the slope is
            // the read path's cost per committed transaction.
            for _ in 0..FABRIC_RUNG_TXNS {
                set.run_txn(wl.as_mut());
            }
            let second = read_probe(&mut set, &mut stale, &mut reads);
            let slope = (second - first) / FABRIC_RUNG_TXNS as f64;
            push(out, "repl.read_ns_per_committed_txn", slope, "ns/txn");
        }
        let t = Instant::now();
        set.quiesce();
        quiesce_ms += t.elapsed().as_secs_f64() * 1e3;
        degraded += set.degraded_commits();
        let links = set.fabric_traffic();
        for (from, to) in modeled_pairs(topology) {
            let packets = links
                .iter()
                .find(|(pair, _)| *pair == (from, to))
                .map_or(0, |(_, t)| t.total_packets());
            push(
                out,
                format!("mcsim.link_packets.{name}.{from}-{to}"),
                packets as f64,
                "count",
            );
        }
    }
    push(
        out,
        "repl.stale_read_share",
        stale as f64 / reads as f64,
        "ratio",
    );
    push(out, "repl.degraded_commits", degraded as f64, "count");
    push(out, "repl.quiesce_ms", quiesce_ms, "ms");
}

/// The SMP cell against a one-stream pair at the same database size.
fn smp_ladder(out: &mut Vec<Metric>) {
    let config = EngineConfig::for_db(SMP_DB);
    let v3 = VersionTag::ImprovedLog;
    let mut exp = SmpExperiment::new(
        costs(),
        Scheme::Passive(v3),
        WorkloadKind::DebitCredit,
        &config,
        SMP_STREAMS,
    );
    let txns = SMP_STREAMS as u64 * SMP_TXNS_PER_STREAM;
    let t = Instant::now();
    black_box(exp.run(SMP_TXNS_PER_STREAM));
    let cell_us = per_txn_us(t, txns);
    drop(exp);
    let mut cluster = PassiveCluster::new(costs(), v3, &config);
    let mut wl = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 0xD5E1_0000);
    let t = Instant::now();
    for _ in 0..txns {
        cluster.run_txn(wl.as_mut());
    }
    push(
        out,
        "simcore.sched_us_per_txn",
        cell_us - per_txn_us(t, txns),
        "us",
    );
}

/// One scenario per fault-injection driver, each with its own seeded
/// random campaign.
fn fault_ladder(seed: u64, out: &mut Vec<Metric>) {
    let v3 = VersionTag::ImprovedLog;
    let dc = WorkloadKind::DebitCredit;
    let scenarios = [
        Scenario::passive(v3, dc),
        Scenario::active(dc).two_safe(),
        Scenario::chain(v3, dc, 3),
        Scenario::quorum(v3, dc, 3, 2, 2),
    ];
    let (mut reference_ms, mut probe_ms) = (0.0, 0.0);
    let mut c = Counters::default();
    let mut scratch = Probe::new();
    let mut d = Digest::new();
    for scenario in scenarios.iter().map(|s| s.with_txns(4)) {
        let t = Instant::now();
        let reference = Reference::build(&scenario);
        reference_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let bounds = probe(&scenario, &reference).expect("fault-free probe of a ladder scenario");
        probe_ms += t.elapsed().as_secs_f64() * 1e3;
        let [_, random, _] = campaign_plans(&scenario, &bounds, seed, FAULT_RUNG_PLANS);
        scratch.clear_samples();
        for plan in &random {
            crate::fault::run_plan(&mut scratch, &scenario, &reference, plan, &mut c, &mut d);
        }
        let label = match scenario.driver {
            Driver::Standalone => "standalone",
            Driver::Passive => "passive",
            Driver::Active => "active",
            Driver::Chain => "chain",
            Driver::Quorum => "quorum",
        };
        push(
            out,
            format!("faultsim.plan_us.{label}"),
            scratch.plan.percentile_us(50.0),
            "us",
        );
    }
    push(out, "faultsim.reference_ms", reference_ms, "ms");
    push(out, "faultsim.probe_ms", probe_ms, "ms");
    push(
        out,
        "faultsim.fired_share",
        c.faults_fired as f64 / c.plans_run as f64,
        "ratio",
    );
    push(
        out,
        "faultsim.counterexamples",
        c.counterexamples as f64,
        "count",
    );
    push(
        out,
        "cluster.max_outage_ps",
        c.max_outage_ps as f64,
        "virtual_ps",
    );
}

/// The same pair with and without a `FlightRecorder` attached.
fn obs_ladder(seed: u64, out: &mut Vec<Metric>) {
    let config = EngineConfig::for_db(PAIR_DB);
    let v3 = VersionTag::ImprovedLog;
    let mut plain = PassiveCluster::new(costs(), v3, &config);
    let mut wl = WorkloadKind::DebitCredit.build(plain.engine().db_region(), seed);
    let t = Instant::now();
    for _ in 0..PAIR_RUNG_TXNS {
        plain.run_txn(wl.as_mut());
    }
    let plain_us = per_txn_us(t, PAIR_RUNG_TXNS);
    drop((plain, wl));
    let mut traced = PassiveCluster::new_traced(costs(), v3, &config, FlightRecorder::new());
    let mut wl: Box<dyn Workload<FlightRecorder>> =
        WorkloadKind::DebitCredit.build_traced(traced.engine().db_region(), seed);
    let t = Instant::now();
    for _ in 0..PAIR_RUNG_TXNS {
        traced.run_txn(wl.as_mut());
    }
    push(
        out,
        "obs.recorder_overhead_share",
        per_txn_us(t, PAIR_RUNG_TXNS) / plain_us - 1.0,
        "ratio",
    );
}

/// Host cost of the open-system generators' draws.
fn draw_ladder(seed: u64, out: &mut Vec<Metric>) {
    let mut arrivals = ArrivalGen::new(
        ArrivalProcess::poisson(VirtualDuration::from_micros(10)),
        seed,
    );
    let t = Instant::now();
    for _ in 0..DRAWS {
        black_box(arrivals.next());
    }
    push(
        out,
        "workloads.draw_ns.arrival",
        t.elapsed().as_nanos() as f64 / DRAWS as f64,
        "ns",
    );
    let mut keys = ZipfKeys::new(ZIPF_POPULATION, ZIPF_S, seed);
    let t = Instant::now();
    for _ in 0..DRAWS {
        black_box(keys.next_key());
    }
    push(
        out,
        "workloads.draw_ns.zipf",
        t.elapsed().as_nanos() as f64 / DRAWS as f64,
        "ns",
    );
}

/// Every per-layer metric except `trace.overhead_share`, which the
/// traced rounds give.
pub fn run(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    draw_ladder(seed, &mut out);
    pair_ladder(seed, &mut out);
    fabric_ladder(seed, &mut out);
    smp_ladder(&mut out);
    fault_ladder(seed, &mut out);
    obs_ladder(seed, &mut out);
    out
}
