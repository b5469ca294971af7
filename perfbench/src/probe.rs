//! Host-side measurement: per-operation samples, the optional span
//! recorder, virtual-output digests and the statistics the report uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The kind of a timed benchmark→program call. `Other` calls are spanned
/// in a traced run but never sampled as operations.
#[derive(Clone, Copy)]
pub enum Kind {
    Txn,
    Read,
    Plan,
    Other,
}

/// Spans kept in memory per traced run; later spans still enter the
/// per-name totals, they are only left out of the written span file.
const SPAN_CAP: usize = 250_000;

#[derive(Clone, Copy)]
struct SpanRec {
    id: u32,
    name: u16,
    parent: u32,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: u16,
    id: u32,
    op: u64,
    start_ns: u64,
    child_ns: u64,
}

/// A reported metric: name, value, unit.
pub type Metric = (String, f64, String);

pub fn push(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &str) {
    out.push((name.into(), value, unit.to_string()));
}

/// Per-name span totals.
#[derive(Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Times every call the benchmark makes into the program. Operation
/// calls always leave a host-time sample; with `traced` set each call
/// also records a span (name, start, end, parent, operation id).
pub struct Probe {
    pub traced: bool,
    origin: Instant,
    pub txn: Hist,
    pub read: Hist,
    pub plan: Hist,
    names: Vec<&'static str>,
    spans: Vec<SpanRec>,
    spans_total: u64,
    open: Vec<Open>,
    next_op: u64,
    totals: Vec<NameTotals>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            traced: false,
            origin: Instant::now(),
            txn: Hist::new(),
            read: Hist::new(),
            plan: Hist::new(),
            names: Vec::new(),
            spans: Vec::new(),
            spans_total: 0,
            open: Vec::new(),
            next_op: 1,
            totals: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        self.totals.push(NameTotals::default());
        (self.names.len() - 1) as u16
    }

    fn open_span(&mut self, name: &'static str, operation: bool) {
        let name = self.intern(name);
        let op = match self.open.last() {
            Some(parent) if parent.op != 0 => parent.op,
            _ if operation => {
                self.next_op += 1;
                self.next_op - 1
            }
            _ => 0,
        };
        let id = self.spans_total as u32;
        self.spans_total += 1;
        let start_ns = self.now_ns();
        self.open.push(Open {
            name,
            id,
            op,
            start_ns,
            child_ns: 0,
        });
    }

    fn close_span(&mut self) {
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("span closed without opening");
        let dur = end_ns - o.start_ns;
        let t = &mut self.totals[usize::from(o.name)];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => u32::MAX,
        };
        if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRec {
                id: o.id,
                name: o.name,
                parent,
                op: o.op,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f`, the benchmark's call into the program named `name`.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
        let operation = matches!(kind, Kind::Txn | Kind::Read | Kind::Plan);
        if self.traced {
            self.open_span(name, operation);
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        if self.traced {
            self.close_span();
        }
        match kind {
            Kind::Txn => self.txn.record(ns),
            Kind::Read => self.read.record(ns),
            Kind::Plan => self.plan.record(ns),
            Kind::Other => {}
        }
        r
    }

    /// Drops the operation samples taken so far (the warm-up round's).
    pub fn clear_samples(&mut self) {
        self.txn.clear();
        self.read.clear();
        self.plan.clear();
    }

    /// Brackets the benchmark's own code (a round or a segment) so that
    /// program spans under it have a parent.
    pub fn group<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> R) -> R {
        if self.traced {
            self.open_span(name, false);
        }
        let r = f(self);
        if self.traced {
            self.close_span();
        }
        r
    }

    pub fn name_totals(&self) -> Vec<(&'static str, NameTotals)> {
        self.names
            .iter()
            .copied()
            .zip(self.totals.iter().copied())
            .collect()
    }

    pub fn spans_recorded(&self) -> (usize, u64) {
        (self.spans.len(), self.spans_total)
    }

    /// The kept spans as CSV: `id,parent,op,name,start_ns,end_ns`
    /// (`parent` is empty for a root span).
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("id,parent,op,name,start_ns,end_ns\n");
        // Spans are stored in closing order; ids were assigned at opening.
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id,
                parent,
                s.op,
                self.names[usize::from(s.name)],
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// The crate a spanned call enters, from the call's name.
pub fn layer_of(name: &str) -> &'static str {
    let head = name.split("::").next().unwrap_or(name);
    match head {
        "PassiveCluster" | "ActiveCluster" | "ReplicaSet" | "SmpExperiment" => "repl",
        "WorkloadKind" | "ZipfKeys" => "workloads",
        "Reference" | "faultsim" => "faultsim",
        _ => "bench",
    }
}

/// FNV-1a over 64-bit words: the fold every virtual output goes through.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u(&mut self, v: u64) -> &mut Self {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    pub fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.u(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.u(u64::from_le_bytes(tail)).u(b.len() as u64)
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One checked unit of virtual output: a segment of a round.
pub struct Segment {
    pub name: String,
    pub ops: u64,
    pub digest: u64,
    /// Host seconds of the segment's timed work.
    pub work_s: f64,
    /// Structural invariants held (replicas equal the primary, elapsed =
    /// Σbusy + Σstall, no counterexample).
    pub ok: bool,
}

/// One round of a workload's fixed work.
pub struct Round {
    pub setup_s: f64,
    pub segments: Vec<Segment>,
}

impl Round {
    pub fn ops(&self) -> u64 {
        self.segments.iter().map(|s| s.ops).sum()
    }

    pub fn work_s(&self) -> f64 {
        self.segments.iter().map(|s| s.work_s).sum()
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Per-layer totals of the span table: count, total and self time.
pub fn layer_table(probe: &Probe) -> BTreeMap<&'static str, NameTotals> {
    let mut layers: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (name, t) in probe.name_totals() {
        let l = layers.entry(layer_of(name)).or_default();
        l.count += t.count;
        l.total_ns += t.total_ns;
        l.self_ns += t.self_ns;
    }
    layers
}

/// Host-time samples in a log-linear histogram of fixed size: exact below
/// 1024 ns, then 512 buckets per octave (0.2% resolution). Its memory does
/// not grow with the run, so it stays out of `peak_rss_mib`.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const EXACT: u64 = 1024;
const PER_OCTAVE: u64 = 512;

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; (EXACT + 54 * PER_OCTAVE) as usize],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let e = u64::from(63 - ns.leading_zeros());
        let m = ns >> (e - 9);
        (EXACT + (e - 10) * PER_OCTAVE + (m - PER_OCTAVE)) as usize
    }

    /// The midpoint of bucket `b`, in nanoseconds.
    fn value(b: usize) -> f64 {
        let b = b as u64;
        if b < EXACT {
            return b as f64;
        }
        let e = (b - EXACT) / PER_OCTAVE + 10;
        let m = (b - EXACT) % PER_OCTAVE + PER_OCTAVE;
        let width = 1u64 << (e - 9);
        (m * width) as f64 + width as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    /// Nearest-rank percentile, in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(b) / 1000.0;
            }
        }
        f64::NAN
    }
}
