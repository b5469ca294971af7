//! Host-time benchmark of the replication simulator.
//!
//! ```text
//! perfbench --workload pair_sweep|fabric_rw|fault_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats its workload's fixed work in rounds until `--seconds`
//! have passed (at least three rounds; the first warms caches and
//! allocators and is left out of the timings). Every round's virtual
//! outputs are folded into per-segment digests and checked: against the
//! first round (determinism), against the recorded digests at the default
//! seed, and against structural invariants. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced run with `--trace 1`.

mod fabric;
mod fault;
mod ladder;
mod pair;
mod probe;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::{layer_table, median, peak_rss_mib, push, Metric, Probe, Round};

/// The seed the recorded digests belong to.
const DEFAULT_SEED: u64 = 42;
/// `workload segment digest` lines recorded at [`DEFAULT_SEED`].
const EXPECTED: &str = include_str!("../expected_digests.txt");
const MIN_ROUNDS: usize = 3;
/// Where a traced run writes its spans and per-layer table.
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PairSweep,
    FabricRw,
    FaultSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "pair_sweep" => Some(Workload::PairSweep),
            "fabric_rw" => Some(Workload::FabricRw),
            "fault_sweep" => Some(Workload::FaultSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PairSweep => "pair_sweep",
            Workload::FabricRw => "fabric_rw",
            Workload::FaultSweep => "fault_sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut print_digests) = (DEFAULT_SEED, 10, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        print_digests,
    })
}

/// The run's state carried across rounds.
struct Run {
    args: Args,
    probe: Probe,
    rounds: Vec<Round>,
    traced_round: Vec<bool>,
    fault_counters: Vec<[fault::Counters; 3]>,
}

impl Run {
    fn round(&mut self, traced: bool) {
        self.probe.traced = traced;
        let seed = self.args.seed;
        let p = &mut self.probe;
        let r = match self.args.workload {
            Workload::PairSweep => p.group("round", |p| pair::round(p, seed)),
            Workload::FabricRw => p.group("round", |p| fabric::round(p, seed)),
            Workload::FaultSweep => {
                let all = &mut self.fault_counters;
                p.group("round", |p| fault::round(p, seed, all))
            }
        };
        self.probe.traced = false;
        let per_segment: Vec<String> = r
            .segments
            .iter()
            .map(|s| format!("{} {:.4}", s.name, s.work_s))
            .collect();
        eprintln!(
            "perfbench: round {} ({}): setup {:.4} s, work {:.4} s ({})",
            self.rounds.len(),
            if traced { "traced" } else { "untraced" },
            r.setup_s,
            r.work_s(),
            per_segment.join(", ")
        );
        self.rounds.push(r);
        self.traced_round.push(traced);
    }
}

/// Operations failed across all rounds: a segment whose digest differs
/// from its first-round value or from the recorded one, or whose
/// invariants broke, fails every operation it ran.
fn failed_ops(run: &Run) -> (u64, Vec<String>) {
    let expected: BTreeMap<(&str, &str), &str> = EXPECTED
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some(((f.next()?, f.next()?), f.next()?))
        })
        .collect();
    let first = &run.rounds[0];
    let mut failed = 0;
    let mut why = Vec::new();
    for (i, r) in run.rounds.iter().enumerate() {
        for (s, s0) in r.segments.iter().zip(&first.segments) {
            let hex = format!("{:016x}", s.digest);
            let recorded = expected.get(&(run.args.workload.name(), s.name.as_str()));
            let mismatch = s.digest != s0.digest
                || (run.args.seed == DEFAULT_SEED && recorded != Some(&hex.as_str()));
            if mismatch || !s.ok {
                failed += s.ops;
                why.push(format!(
                    "round {i} segment {}: digest {hex} (recorded {}), invariants {}",
                    s.name,
                    recorded.unwrap_or(&"none"),
                    if s.ok { "held" } else { "broken" }
                ));
            }
        }
    }
    (failed, why)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == Workload::FaultSweep {
        dsnrep_faultsim::silence_fault_panics();
    }
    let trace = args.trace;
    let budget = Duration::from_secs(args.seconds);
    let mut run = Run {
        args,
        probe: Probe::new(),
        rounds: Vec::new(),
        traced_round: Vec::new(),
        fault_counters: Vec::new(),
    };

    // Round 0 warms up; a traced run then alternates untraced and traced
    // rounds so both sides see the same host conditions.
    let start = Instant::now();
    while run.rounds.len() < MIN_ROUNDS + usize::from(trace) || start.elapsed() < budget {
        let traced = trace && run.rounds.len() % 2 == 1;
        run.round(traced);
        if run.rounds.len() == 1 {
            run.probe.clear_samples();
        }
    }

    let (mut failed, mut why) = failed_ops(&run);
    let mut attempted: u64 = run.rounds.iter().map(Round::ops).sum();
    if run.args.workload == Workload::FaultSweep {
        // The campaign explorers must count exactly what the benchmark
        // counted from the same plans.
        let library = fault::library_counters(run.args.seed);
        let first = &run.rounds[0];
        for ((seg, ours), theirs) in first.segments.iter().zip(&run.fault_counters).zip(&library) {
            attempted += seg.ops;
            if ours != theirs {
                failed += seg.ops;
                why.push(format!(
                    "{}: campaign counters differ from the explorers'",
                    seg.name
                ));
            }
        }
    }
    for w in &why {
        eprintln!("perfbench: check failed: {w}");
    }
    if run.args.print_digests {
        for s in &run.rounds[0].segments {
            println!("{} {} {:016x}", run.args.workload.name(), s.name, s.digest);
        }
    }

    let timed: Vec<&Round> = run
        .rounds
        .iter()
        .zip(&run.traced_round)
        .skip(1)
        .filter(|(_, &t)| !t)
        .map(|(r, _)| r)
        .collect();
    let mut metrics = Vec::new();
    let name = run.args.workload.name();
    if !trace {
        let setup: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
        // Each segment's median over the timed rounds, summed: a host stall
        // that hits one segment of one round drops out.
        let work: f64 = (0..run.rounds[0].segments.len())
            .map(|i| {
                median(
                    &timed
                        .iter()
                        .map(|r| r.segments[i].work_s)
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        let p = &run.probe;
        let primary = match run.args.workload {
            Workload::PairSweep => &p.txn,
            Workload::FabricRw => &p.read,
            Workload::FaultSweep => &p.plan,
        };
        push(&mut metrics, "setup_s", median(&setup), "s");
        push(&mut metrics, "op_p50_us", primary.percentile_us(50.0), "us");
        push(&mut metrics, "op_p95_us", primary.percentile_us(95.0), "us");
        push(&mut metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
        println!(
            "workload {name}: {} timed rounds of {} ops, seed {}",
            timed.len(),
            run.rounds[0].ops(),
            run.args.seed
        );
        // Printed, not in the JSON: host throughput swings move these two
        // by more than any allowed bound between runs (see METRICS.md).
        println!("wall_s {work} s");
        println!("ops_per_s {} 1/s", run.rounds[0].ops() as f64 / work);
        // The percentiles under their per-kind names, with counts.
        for (kind, h) in [("txn", &p.txn), ("read", &p.read), ("plan", &p.plan)] {
            let n = h.len();
            if n > 0 {
                for q in [50, 90, 95, 99] {
                    let v = h.percentile_us(f64::from(q));
                    println!("{kind}_p{q}_us {v} us (n={n})");
                }
            }
        }
        println!(
            "failed_op_share {} (failed {failed} of {attempted})",
            failed as f64 / attempted as f64
        );
    } else {
        let traced_work: Vec<f64> = run
            .rounds
            .iter()
            .zip(&run.traced_round)
            .filter(|(_, &t)| t)
            .map(|(r, _)| r.work_s())
            .collect();
        let plain_work: Vec<f64> = timed.iter().map(|r| r.work_s()).collect();
        let overhead = median(&traced_work) / median(&plain_work) - 1.0;
        metrics.extend(ladder::run(run.args.seed));
        push(&mut metrics, "trace.overhead_share", overhead, "ratio");
        write_trace(&run.probe, name);
    }
    for (n, v, u) in &metrics {
        println!("{n} {v} {u}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

/// Writes the traced rounds' spans and per-layer table under
/// [`OUT_DIR`], and prints the table.
fn write_trace(probe: &Probe, workload: &str) {
    let mut table = String::from("layer count total_ms self_ms\n");
    for (layer, t) in layer_table(probe) {
        table.push_str(&format!(
            "{layer} {} {:.3} {:.3}\n",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    table.push_str("\nspan count total_ms self_ms\n");
    for (name, t) in probe.name_totals() {
        table.push_str(&format!(
            "{name} {} {:.3} {:.3}\n",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let (kept, total) = probe.spans_recorded();
    table.push_str(&format!("\nspans kept {kept} of {total}\n"));
    print!("{table}");
    let dir = std::path::Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{workload}-layers.txt")), &table))
        .and_then(|()| {
            std::fs::write(dir.join(format!("{workload}-spans.csv")), probe.spans_csv())
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the trace under {OUT_DIR}: {e}");
    }
}
