//! N-node replica sets: primary-backup fan-out, chain, and quorum.
//!
//! The paper's cluster is a two-node pair; a [`ReplicaSet`] generalizes
//! it to RF nodes under a [`Topology`] with one of three strategies:
//!
//! * **Primary-backup fan-out** ([`ReplicationStrategy::PrimaryBackup`])
//!   — the Memory Channel hub multicasts natively, so one write-doubled
//!   packet reaches every backup at no extra link cost. RF=2 takes
//!   *exactly* the two-node [`PassiveCluster`] code path and is
//!   bit-identical to it.
//! * **Chain** ([`ReplicationStrategy::Chain`]) — the head write-doubles
//!   to node 1 over the paper's accounted SAN path; each node then
//!   store-and-forwards the same packets down per-pair [`Fabric`] links
//!   (`1→2`, …, `rf−2→rf−1`). The tail acknowledges over a direct return
//!   link, and the head stalls each commit on that acknowledgement.
//! * **Quorum** ([`ReplicationStrategy::Quorum`]) — the head fans each
//!   packet out to nodes `2..rf` over `0→j` fabric links the moment its
//!   own adapter finishes serializing it; each replica acknowledges a
//!   transaction once it holds all of its packets, and the head stalls
//!   the commit until W replicas (itself included) hold it.
//!
//! Chain and quorum both run the head at [`Durability::TwoSafe`] toward
//! node 1 — the tail/quorum acknowledgement is *on top of* the paper's
//! 2-safe wait, so a committed transaction is always on node 1 and
//! `recovered ≥ committed` holds for every takeover regardless of
//! partitions. Fabric-level partition faults (asymmetric delay, or
//! dropping after `n` packets on one directed pair) starve the
//! acknowledgement instead: the head counts a *degraded commit* and
//! proceeds after the acknowledgements that did arrive, exactly like a
//! coordinator timing out a dead peer.
//!
//! The forwarding model is store-and-forward: once the sending adapter
//! finished serializing a packet (`done`), the switch owns it and will
//! deliver it even if the sender dies before `delivered` — so a crash can
//! leave a fan-out replica marginally *ahead* of node 1 for the in-flight
//! tail, and quorum takeover promotes whichever replica holds the most
//! packets (ties to the most senior node).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use dsnrep_cluster::{NodeId, ReplicationStrategy, Topology};
use dsnrep_core::{Durability, Engine, EngineConfig, Machine, VersionTag};
use dsnrep_mcsim::{Fabric, PacketTap, TappedPacket, Traffic};
use dsnrep_obs::{Metric, NullTracer, Phase, Tracer};
use dsnrep_rio::Arena;
use dsnrep_simcore::{
    Addr, CostModel, Region, StallCause, TrafficClass, VirtualDuration, VirtualInstant,
};
use dsnrep_workloads::{ThroughputReport, Workload};

use crate::cluster::Cluster;
use crate::passive::{PassiveCluster, Takeover};

/// An acknowledgement packet: 8 bytes of meta-data (a sequence number).
const ACK_BYTES: u64 = 8;

/// A read request: a key plus a sequence floor, 8 bytes of metadata.
const READ_REQUEST_BYTES: u64 = 8;

/// A read response: one 32-byte record image.
const READ_RESPONSE_BYTES: u64 = 32;

fn ack_payload() -> [u64; 3] {
    let mut class_bytes = [0u64; 3];
    class_bytes[TrafficClass::Meta.index()] = ACK_BYTES;
    class_bytes
}

/// A delivered-but-unapplied packet parked at one downstream node.
#[derive(Clone, Copy, Debug)]
struct PendingApply {
    at: VirtualInstant,
    base: Addr,
    mask: u32,
    data: [u8; 32],
}

/// Applies one masked 32-byte block to `arena` — the same contiguous
/// dirty-run decomposition `TxPort` uses, so downstream arenas see the
/// identical write pattern node 1 does.
fn apply_masked(arena: &mut Arena, base: Addr, mask: u32, data: &[u8; 32]) {
    if mask == u32::MAX {
        arena.write(base, data);
        return;
    }
    let mut pos = 0u32;
    while pos < 32 {
        let shifted = mask >> pos;
        if shifted == 0 {
            break;
        }
        let start = pos + shifted.trailing_zeros();
        let len = (mask >> start).trailing_ones().min(32 - start);
        arena.write(
            base + u64::from(start),
            &data[start as usize..(start + len) as usize],
        );
        pos = start + len;
    }
}

/// One downstream node's receive state (nodes `2..rf`; node 1 is fed by
/// the head's accounted `TxPort`).
#[derive(Debug)]
struct DownstreamNode {
    arena: Rc<RefCell<Arena>>,
    pending: VecDeque<PendingApply>,
    /// Packets delivered to this node so far (applied or pending).
    received: u64,
    /// Delivery instant of the newest received packet.
    last_delivery: VirtualInstant,
    /// A partition drop swallowed a data packet on the way here: the copy
    /// has a hole and the node stops acknowledging.
    data_lost: bool,
}

impl DownstreamNode {
    fn new(arena: Rc<RefCell<Arena>>) -> Self {
        DownstreamNode {
            arena,
            pending: VecDeque::new(),
            received: 0,
            last_delivery: VirtualInstant::EPOCH,
            data_lost: false,
        }
    }

    fn receive(&mut self, at: VirtualInstant, p: &TappedPacket) {
        self.pending.push_back(PendingApply {
            at,
            base: p.base,
            mask: p.mask,
            data: p.data,
        });
        self.received += 1;
        self.last_delivery = self.last_delivery.max(at);
    }

    /// Applies every pending packet delivered at or before `t`.
    fn apply_up_to(&mut self, t: VirtualInstant) {
        if self.pending.front().is_none_or(|p| p.at > t) {
            return;
        }
        let mut arena = self.arena.borrow_mut();
        while let Some(front) = self.pending.front() {
            if front.at > t {
                break;
            }
            let p = self.pending.pop_front().expect("front() checked");
            apply_masked(&mut arena, p.base, p.mask, &p.data);
        }
    }

    fn apply_all(&mut self) {
        self.apply_up_to(VirtualInstant::from_picos(u64::MAX));
    }
}

/// Per-replica committed-prefix index: answers "how many transactions
/// `1..=p` had node `i` wholly received by `at`" in O(log n).
///
/// `columns[i]` belongs to node `i + 1`; its `k`-th entry (1-based) is the
/// running max of the instants at which that node held transactions
/// `1..=k`.
/// Transaction `k` belongs to the prefix at `at` iff every instant up to
/// it is `≤ at`, which is exactly `max(v_1..=v_k) ≤ at`; the column is
/// non-decreasing, so the prefix is one binary search. A column stops
/// growing at its node's first partition hole (`None`): no later
/// transaction can extend a prefix past a transaction the copy lacks.
#[derive(Clone, Debug)]
struct PrefixIndex {
    columns: Vec<Vec<VirtualInstant>>,
    /// `holed[i]`: node `i + 1` missed a transaction; its column is final.
    holed: Vec<bool>,
}

impl PrefixIndex {
    fn new(replicas: usize) -> Self {
        PrefixIndex {
            columns: vec![Vec::new(); replicas],
            holed: vec![false; replicas],
        }
    }

    /// Records one committed transaction: `row` yields, for nodes `1..rf`
    /// in order, when that node held the whole transaction (`None` for a
    /// partition hole).
    fn push(&mut self, row: impl IntoIterator<Item = Option<VirtualInstant>>) {
        let cells = self.columns.iter_mut().zip(&mut self.holed);
        for ((column, holed), visible) in cells.zip(row) {
            match visible {
                _ if *holed => {}
                Some(v) => column.push(column.last().map_or(v, |&m| m.max(v))),
                None => *holed = true,
            }
        }
    }

    /// The committed prefix node `node` (1-based) held at `at`.
    fn prefix(&self, node: u8, at: VirtualInstant) -> u64 {
        self.columns[usize::from(node) - 1].partition_point(|&v| v <= at) as u64
    }
}

/// One served replica read: who answered, what committed prefix it
/// observed, and how stale that prefix was against the coordinator.
///
/// `seq` is a *prefix*: the largest `p` such that the serving copy held
/// every transaction `1..=p` when the read was issued — a read never
/// observes transaction `k + 1` without `k`, so the value it returns is
/// always some committed image, never a torn one. Equivalently, `p` counts
/// the transactions whose running-max visibility instant on that copy is
/// `≤ at`, stopping at the copy's first partition hole; the set keeps one
/// such column per replica, so a replica read costs O(log n) in committed
/// history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadSample {
    /// When the read was issued.
    pub at: VirtualInstant,
    /// When the response was available to the client (issue + service
    /// cost, plus the fabric round trips for quorum reads).
    pub completed: VirtualInstant,
    /// The node whose copy answered (the freshest responder for quorum).
    pub node: NodeId,
    /// The committed prefix the read observed.
    pub seq: u64,
    /// Transactions committed at issue time but absent from the observed
    /// prefix: `committed(at) - seq`.
    pub staleness: u64,
}

/// The completed takeover of a [`ReplicaSet`]: which node was promoted,
/// and the [`Takeover`] ready to run the version's recovery procedure.
#[derive(Debug)]
pub struct ReplicaTakeover<T: Tracer + 'static = NullTracer> {
    /// The node promoted to primary (the most senior live backup for
    /// primary-backup and chain; the most up-to-date replica for quorum).
    pub successor: NodeId,
    /// When the head crashed.
    pub crashed_at: VirtualInstant,
    /// The promoted node, positioned at the crash instant, ready to
    /// recover.
    pub takeover: Takeover<T>,
}

/// An N-node cluster running one of the three replication strategies.
///
/// # Examples
///
/// ```
/// use dsnrep_cluster::{ReplicationStrategy, Topology};
/// use dsnrep_core::{EngineConfig, VersionTag};
/// use dsnrep_repl::ReplicaSet;
/// use dsnrep_simcore::CostModel;
/// use dsnrep_workloads::DebitCredit;
///
/// let topology = Topology::new(3, ReplicationStrategy::Chain)?;
/// let config = EngineConfig::for_db(1 << 20);
/// let mut set = ReplicaSet::new(
///     CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config, topology);
/// let mut workload = DebitCredit::new(set.engine().db_region(), 1);
/// set.run(&mut workload, 50);
/// set.quiesce();
/// // Every node holds every committed byte after a graceful quiesce.
/// assert_eq!(set.received_by(2), set.received_by(1));
/// # Ok::<(), dsnrep_cluster::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct ReplicaSet<T: Tracer + 'static = NullTracer> {
    topology: Topology,
    costs: CostModel,
    tracer: T,
    head: PassiveCluster<T>,
    fabric: Fabric,
    /// Tap on the head's `TxPort` (chain/quorum only): every emitted
    /// packet, with its first-hop timing.
    tap: Option<PacketTap>,
    /// Tapped packets whose node-1 delivery has not been confirmed yet
    /// (mirrors the port's in-flight queue; relevant to chain, where the
    /// head runs ahead of delivery inside a transaction).
    head_inflight: VecDeque<TappedPacket>,
    /// Nodes `2..rf`, indexed by `node_id - 2`.
    downstream: Vec<DownstreamNode>,
    /// Packets confirmed delivered to node 1.
    node1_received: u64,
    /// Commits that could not assemble their acknowledgement set (tail
    /// unreachable, or fewer than W−1 replica acks) and proceeded after a
    /// coordinator timeout.
    degraded_commits: u64,
    /// Commit instant of every transaction run so far, in order (the
    /// coordinator's committed-prefix clock for staleness accounting).
    commit_instants: Vec<VirtualInstant>,
    /// Per-replica committed-prefix index over the transactions in
    /// `commit_instants` (left empty by primary-backup, whose reads the
    /// primary serves).
    visibility: PrefixIndex,
    /// Quorum read-set rotation cursor.
    read_rotation: u64,
}

impl ReplicaSet {
    /// Builds an RF-node cluster per `topology`. All replicas start as
    /// identical copies of the freshly formatted primary arena.
    pub fn new(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        topology: Topology,
    ) -> Self {
        Self::new_traced(costs, version, config, topology, NullTracer)
    }
}

impl<T: Tracer + 'static> ReplicaSet<T> {
    /// As [`ReplicaSet::new`], reporting per-node spans and per-link
    /// packets to `tracer` (node *i* reports as track *i*).
    pub fn new_traced(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        topology: Topology,
        tracer: T,
    ) -> Self {
        let rf = topology.rf();
        let fanout = matches!(topology.strategy(), ReplicationStrategy::PrimaryBackup);
        // Primary-backup rides the hub's native multicast: ONE TxPort with
        // rf−1 peer arenas, the exact two-node code path when rf == 2.
        let link = Rc::new(RefCell::new(dsnrep_mcsim::Link::new(&costs)));
        let mut head = PassiveCluster::with_link_and_backups_traced(
            costs.clone(),
            version,
            config,
            link,
            if fanout { usize::from(rf) - 1 } else { 1 },
            tracer.clone(),
        );
        let mut tap = None;
        let mut downstream = Vec::new();
        match topology.strategy() {
            ReplicationStrategy::PrimaryBackup => {}
            ReplicationStrategy::Chain | ReplicationStrategy::Quorum { .. } => {
                // Nodes 2..rf start as identical copies, like node 1.
                let initial = head.backup_arena().borrow().clone();
                for _ in 2..rf {
                    downstream.push(DownstreamNode::new(Rc::new(RefCell::new(initial.clone()))));
                }
                let recorder: PacketTap = Rc::new(RefCell::new(Vec::new()));
                let machine = head.machine_mut();
                machine
                    .port_mut()
                    .expect("a passive cluster always has a port")
                    .set_tap(Rc::clone(&recorder));
                // The acknowledgement waits ride the 2-safe path: every
                // commit is on node 1 before the chain/quorum ack wait
                // even starts.
                machine.set_durability(Durability::TwoSafe);
                tap = Some(recorder);
            }
        }
        ReplicaSet {
            topology,
            costs: costs.clone(),
            tracer,
            head,
            fabric: Fabric::new(&costs),
            tap,
            head_inflight: VecDeque::new(),
            downstream,
            node1_received: 0,
            degraded_commits: 0,
            commit_instants: Vec::new(),
            visibility: PrefixIndex::new(usize::from(rf) - 1),
            read_rotation: 0,
        }
    }

    /// The cluster shape.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The engine version this set runs.
    pub fn version(&self) -> VersionTag {
        self.head.version()
    }

    /// The head (primary) engine.
    pub fn engine(&self) -> &dyn Engine<T> {
        self.head.engine()
    }

    /// The head machine.
    pub fn machine(&self) -> &Machine<T> {
        self.head.machine()
    }

    /// Mutable access to the head machine (initial load pokes, fault
    /// budgets).
    pub fn machine_mut(&mut self) -> &mut Machine<T> {
        self.head.machine_mut()
    }

    /// The arena of replica `node` (1-based; node 0 is the head).
    ///
    /// # Panics
    ///
    /// Panics if `node` is 0 or ≥ RF.
    pub fn replica_arena(&self, node: u8) -> &Rc<RefCell<Arena>> {
        assert!(node >= 1 && node < self.topology.rf(), "replica {node}");
        match self.topology.strategy() {
            // Primary-backup keeps every multicast target in the head.
            ReplicationStrategy::PrimaryBackup => &self.head.backup_arenas()[usize::from(node) - 1],
            _ if node == 1 => self.head.backup_arena(),
            _ => &self.downstream[usize::from(node) - 2].arena,
        }
    }

    /// Packets delivered to replica `node` so far. For primary-backup
    /// every backup receives the identical multicast, so this is the
    /// head's emission count for any node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is 0 or ≥ RF.
    pub fn received_by(&self, node: u8) -> u64 {
        assert!(node >= 1 && node < self.topology.rf(), "replica {node}");
        match self.topology.strategy() {
            ReplicationStrategy::PrimaryBackup => self.head.machine().packets_emitted(),
            _ if node == 1 => self.node1_received,
            _ => self.downstream[usize::from(node) - 2].received,
        }
    }

    /// Commits whose acknowledgement quorum (or tail ack) never arrived;
    /// the head proceeded after a timeout. Nonzero only under partition
    /// faults.
    pub fn degraded_commits(&self) -> u64 {
        self.degraded_commits
    }

    /// Injects an asymmetric partition delay on the directed fabric pair
    /// `from → to`: deliveries arrive `extra` later from now on.
    pub fn partition_delay(&mut self, from: u8, to: u8, extra: VirtualDuration) {
        self.fabric.partition_delay(from, to, extra);
    }

    /// Injects an asymmetric drop fault on the directed fabric pair
    /// `from → to`: after `n` more packets, everything is swallowed.
    pub fn partition_drop_after(&mut self, from: u8, to: u8, n: u64) {
        self.fabric.partition_drop_after(from, to, n);
    }

    /// Aggregate SAN traffic: the head's write-doubling link plus every
    /// materialized fabric link (forward hops, fan-out, acks).
    pub fn traffic(&self) -> Traffic {
        let mut total = self.head.traffic();
        for (_, link) in self.fabric.pairs() {
            total.merge(link.borrow().traffic());
        }
        total
    }

    /// Per-pair traffic on the fabric links, in deterministic pair order.
    /// The head's `0→1` write-doubling leg is reported by
    /// [`ReplicaSet::head_traffic`], not here.
    pub fn fabric_traffic(&self) -> Vec<((u8, u8), Traffic)> {
        self.fabric
            .pairs()
            .map(|(pair, link)| (pair, link.borrow().traffic().clone()))
            .collect()
    }

    /// Traffic on the head's accounted write-doubling link alone.
    pub fn head_traffic(&self) -> Traffic {
        self.head.traffic()
    }

    /// Runs one transaction on the head, then settles the strategy's
    /// replication: forwards freshly emitted packets down the chain or
    /// out to the fan-out replicas, and stalls the head on the tail /
    /// quorum acknowledgement.
    ///
    /// # Panics
    ///
    /// Panics on engine errors, or when an armed fault budget fires (the
    /// caller catches the unwind, as with [`PassiveCluster`]).
    pub fn run_txn(&mut self, workload: &mut dyn Workload<T>) {
        self.head.run_txn(workload);
        self.settle_txn();
        self.commit_instants.push(self.head.machine().now());
    }

    /// Runs `txns` transactions and reports head throughput (inclusive of
    /// acknowledgement stalls).
    pub fn run(&mut self, workload: &mut dyn Workload<T>, txns: u64) -> ThroughputReport {
        Cluster::run(self, workload, txns)
    }

    /// Post-transaction replication settlement (no-op for primary-backup:
    /// the multicast already delivered inside the accounted path). Records
    /// when each replica held the whole transaction, for the read path's
    /// staleness accounting (nothing for primary-backup, whose reads are
    /// always served by the primary).
    fn settle_txn(&mut self) {
        match self.topology.strategy() {
            ReplicationStrategy::PrimaryBackup => {}
            ReplicationStrategy::Chain => self.settle_chain_txn(),
            ReplicationStrategy::Quorum { write, .. } => self.settle_quorum_txn(write),
        }
    }

    /// Moves freshly tapped packets into the in-flight queue and forwards
    /// everything node 1 has received by `cut` (2-safe commits mean the
    /// whole transaction, mid-transaction crashes mean the delivered
    /// prefix). Returns the per-call forwarding summary.
    fn forward_up_to(&mut self, cut: VirtualInstant) -> ForwardSummary {
        let mut summary = ForwardSummary::default();
        if let Some(tap) = &self.tap {
            self.head_inflight.extend(tap.borrow_mut().drain(..));
        }
        let rf = self.topology.rf();
        let chain = matches!(self.topology.strategy(), ReplicationStrategy::Chain);
        while let Some(front) = self.head_inflight.front() {
            let p = *front;
            if chain {
                // Node 1 relays: a packet is forwardable once node 1
                // holds it (its first-hop delivery instant).
                if p.timing.delivered > cut {
                    break;
                }
                self.head_inflight.pop_front();
                self.node1_received += 1;
                summary.packets += 1;
                let mut ready = p.timing.delivered;
                let mut alive = true;
                for j in 2..rf {
                    if !alive {
                        break;
                    }
                    match self.fabric.send(j - 1, j, ready, p.class_bytes) {
                        Some(t) => {
                            self.tracer.packet(u32::from(j - 1), t.start, p.class_bytes);
                            self.downstream[usize::from(j) - 2].receive(t.delivered, &p);
                            ready = t.delivered;
                        }
                        None => {
                            self.downstream[usize::from(j) - 2].data_lost = true;
                            alive = false;
                        }
                    }
                }
                summary.tail_reached += u64::from(alive);
            } else {
                // Quorum fan-out leaves the head hub as soon as the
                // adapter finished serializing (store-and-forward): the
                // fan-out copy of an in-flight packet can outlive the
                // sender even when node 1's DMA does not.
                if p.timing.done > cut {
                    break;
                }
                self.head_inflight.pop_front();
                summary.packets += 1;
                if p.timing.delivered <= cut {
                    self.node1_received += 1;
                    summary.node1_last = summary.node1_last.max(p.timing.delivered);
                } else {
                    summary.node1_missed += 1;
                }
                for j in 2..rf {
                    let node = &mut self.downstream[usize::from(j) - 2];
                    match self.fabric.send(0, j, p.timing.done, p.class_bytes) {
                        Some(t) => {
                            self.tracer.packet(0, t.start, p.class_bytes);
                            node.receive(t.delivered, &p);
                        }
                        None => node.data_lost = true,
                    }
                }
            }
        }
        summary
    }

    /// Records the replica visibility of the transaction settled at `now`:
    /// node 1 holds every 2-safe commit by its commit instant; a
    /// downstream node holds it at its newest delivery, unless a drop left
    /// its copy permanently holed.
    fn record_visibility(&mut self, node1: Option<VirtualInstant>) {
        let downstream = self
            .downstream
            .iter()
            .map(|node| (!node.data_lost).then_some(node.last_delivery));
        self.visibility
            .push(std::iter::once(node1).chain(downstream));
    }

    fn settle_chain_txn(&mut self) {
        let now = self.head.machine().now();
        // 2-safe commits mean every packet of the transaction has been
        // delivered to node 1 by now; forward the lot down the chain.
        let summary = self.forward_up_to(now);
        for node in &mut self.downstream {
            node.apply_up_to(now);
        }
        self.record_visibility(Some(now));
        if summary.packets == 0 {
            return;
        }
        let rf = self.topology.rf();
        if rf == 2 {
            // A two-node chain is the pair: node 1 *is* the tail and the
            // 2-safe wait already covered its acknowledgement.
            return;
        }
        if summary.tail_reached < summary.packets {
            // A hop dropped part of the transaction: the tail will never
            // hold all of it, so its acknowledgement never comes. The
            // head times out and proceeds on node 1's 2-safe copy.
            self.degraded_commits += 1;
            return;
        }
        let tail = rf - 1;
        let tail_has_all = self.downstream[usize::from(tail) - 2].last_delivery;
        match self.fabric.send(tail, 0, tail_has_all, ack_payload()) {
            Some(t) => {
                self.tracer.packet(u32::from(tail), t.start, ack_payload());
                self.head
                    .machine_mut()
                    .stall_until(StallCause::TwoSafe, t.delivered);
            }
            None => self.degraded_commits += 1,
        }
    }

    fn settle_quorum_txn(&mut self, write: u8) {
        let now = self.head.machine().now();
        let summary = self.forward_up_to(now);
        for node in &mut self.downstream {
            node.apply_up_to(now);
        }
        // In settlement (as opposed to a crash cut) the 2-safe wait means
        // every packet's node-1 DMA has landed; a transaction with no
        // packets is trivially everywhere.
        let node1 = if summary.node1_missed == 0 {
            Some(if summary.packets == 0 {
                now
            } else {
                summary.node1_last
            })
        } else {
            None
        };
        self.record_visibility(node1);
        if summary.packets == 0 {
            return;
        }
        let rf = self.topology.rf();
        // Collect the acknowledgement arrivals: each replica holding the
        // whole transaction acks from its last delivery instant.
        let mut acks: Vec<VirtualInstant> = Vec::with_capacity(usize::from(rf) - 1);
        if summary.node1_missed == 0 {
            if let Some(t) = self.fabric.send(1, 0, summary.node1_last, ack_payload()) {
                self.tracer.packet(1, t.start, ack_payload());
                acks.push(t.delivered);
            }
        }
        for j in 2..rf {
            let node = &self.downstream[usize::from(j) - 2];
            if node.data_lost {
                continue;
            }
            let ready = node.last_delivery;
            if let Some(t) = self.fabric.send(j, 0, ready, ack_payload()) {
                self.tracer.packet(u32::from(j), t.start, ack_payload());
                acks.push(t.delivered);
            }
        }
        acks.sort_unstable();
        // The head's own copy is the W-th member of the write quorum.
        let needed = usize::from(write) - 1;
        let wait_to = if acks.len() >= needed {
            if needed == 0 {
                return;
            }
            acks[needed - 1]
        } else {
            // Quorum unreachable: a coordinator timeout, modeled as
            // exhausting every acknowledgement that did arrive.
            self.degraded_commits += 1;
            match acks.last() {
                Some(&last) => last,
                None => return,
            }
        };
        self.head
            .machine_mut()
            .stall_until(StallCause::TwoSafe, wait_to);
    }

    /// Transactions committed at or before `at` — the coordinator's view,
    /// the yardstick read staleness is measured against.
    pub fn committed_at(&self, at: VirtualInstant) -> u64 {
        self.commit_instants.partition_point(|&t| t <= at) as u64
    }

    /// The committed prefix replica `node` (1-based) held at `at`: the
    /// largest `p` such that every transaction `1..=p` was fully delivered
    /// to that copy by `at`. One binary search over the node's running-max
    /// visibility column, O(log n) in committed history.
    fn visible_prefix(&self, node: u8, at: VirtualInstant) -> u64 {
        self.visibility.prefix(node, at)
    }

    /// Serves one read issued at `at` through the strategy's read path:
    ///
    /// * **Primary-backup** — the primary answers from its own copy; zero
    ///   staleness by construction.
    /// * **Chain** — the tail answers from its local copy. The tail's
    ///   prefix trails the head by the propagation delay down the chain,
    ///   which is exactly the staleness this sample reports.
    /// * **Quorum** — the coordinator consults a rotating read quorum of
    ///   R of the RF nodes over the fabric (request out, record image
    ///   back) and returns the freshest responding prefix; `R + W > RF`
    ///   makes that prefix current whenever all R respond. Partitioned
    ///   members time out silently; if every remote member times out the
    ///   coordinator falls back to its own copy.
    ///
    /// The sample's `staleness` compares the observed prefix against the
    /// coordinator's committed count at `at`. The serving node's
    /// [`Phase::Read`] span and staleness counters go to the tracer.
    pub fn serve_read(&mut self, at: VirtualInstant) -> ReadSample {
        let rf = self.topology.rf();
        let service = self.costs.cache_miss;
        let sample = match self.topology.strategy() {
            ReplicationStrategy::PrimaryBackup => {
                let seq = self.committed_at(at);
                ReadSample {
                    at,
                    completed: at + service,
                    node: NodeId::new(0),
                    seq,
                    staleness: 0,
                }
            }
            ReplicationStrategy::Chain => {
                let tail = rf - 1;
                let seq = self.visible_prefix(tail, at);
                ReadSample {
                    at,
                    completed: at + service,
                    node: NodeId::new(tail),
                    seq,
                    staleness: self.committed_at(at).saturating_sub(seq),
                }
            }
            ReplicationStrategy::Quorum { read, .. } => {
                // Rotate the read set over all RF nodes so replica copies
                // actually serve (a head-always set would never observe
                // staleness and never offload the coordinator).
                let committed = self.committed_at(at);
                let first = self.read_rotation;
                self.read_rotation = (self.read_rotation + 1) % u64::from(rf);
                let mut best: Option<(u64, u8)> = None;
                let mut completed = at;
                for k in 0..u64::from(read) {
                    let m = ((first + k) % u64::from(rf)) as u8;
                    let (response_at, prefix) = if m == 0 {
                        (at + service, committed)
                    } else {
                        match self.fabric.read_round_trip(
                            0,
                            m,
                            at,
                            READ_REQUEST_BYTES,
                            READ_RESPONSE_BYTES,
                        ) {
                            // The remote record fetch happens between the
                            // legs; folding it in after keeps the total.
                            Some(t) => (t + service, self.visible_prefix(m, at)),
                            // Partitioned member: no response.
                            None => continue,
                        }
                    };
                    completed = completed.max(response_at);
                    if best.is_none_or(|(p, _)| prefix > p) {
                        best = Some((prefix, m));
                    }
                }
                // Every remote member timed out: the coordinator serves
                // from its own copy after the timeout.
                let (seq, node) = best.unwrap_or((committed, 0));
                if best.is_none() {
                    completed = completed.max(at + service);
                }
                ReadSample {
                    at,
                    completed,
                    node: NodeId::new(node),
                    seq,
                    staleness: committed.saturating_sub(seq),
                }
            }
        };
        if self.tracer.is_enabled() {
            let track = u32::from(sample.node.as_u8());
            self.tracer
                .span(track, Phase::Read, sample.at, sample.completed);
            if sample.staleness > 0 {
                self.tracer
                    .counter_add(track, Metric::StaleReads, sample.completed, 1);
                self.tracer.counter_add(
                    track,
                    Metric::ReadStalenessTxns,
                    sample.completed,
                    sample.staleness,
                );
            }
        }
        sample
    }

    /// Gracefully quiesces the whole set: flushes and delivers the head's
    /// SAN traffic, then drains every chain hop and fan-out link so all
    /// RF−1 replicas converge on the committed image.
    pub fn quiesce(&mut self) {
        self.head.quiesce();
        self.forward_up_to(VirtualInstant::from_picos(u64::MAX));
        for node in &mut self.downstream {
            node.apply_all();
        }
    }

    /// Crashes the head *now* and promotes a successor per the strategy:
    /// the most senior backup (node 1) for primary-backup and chain, the
    /// most up-to-date replica (ties to the most senior) for quorum.
    ///
    /// Packets the head's adapter had fully serialized before the crash
    /// are still delivered (the switch owns them); node 1 additionally
    /// loses in-flight DMAs, exactly like the two-node pair.
    pub fn begin_takeover(mut self) -> ReplicaTakeover<T> {
        let crashed_at = self.head.machine().now();
        // Settle the fabric at the crash instant.
        self.forward_up_to(crashed_at);
        self.head_inflight.clear();
        let successor = match self.topology.strategy() {
            ReplicationStrategy::PrimaryBackup | ReplicationStrategy::Chain => {
                // Survivor hops keep draining after the head is gone:
                // whatever node 1 held propagates on.
                for node in &mut self.downstream {
                    node.apply_all();
                }
                NodeId::new(1)
            }
            ReplicationStrategy::Quorum { .. } => {
                for node in &mut self.downstream {
                    node.apply_all();
                }
                // Promote the replica holding the most packets; node 1
                // wins ties (seniority order).
                let mut best = NodeId::new(1);
                let mut best_count = self.node1_received;
                for j in 2..self.topology.rf() {
                    let count = self.downstream[usize::from(j) - 2].received;
                    if count > best_count {
                        best = NodeId::new(j);
                        best_count = count;
                    }
                }
                best
            }
        };
        if successor == NodeId::new(1) {
            ReplicaTakeover {
                successor,
                crashed_at,
                takeover: self.head.begin_takeover(0),
            }
        } else {
            let node = &self.downstream[usize::from(successor.as_u8()) - 2];
            let at = crashed_at.max(node.last_delivery);
            let version = self.head.version();
            // The head still crashes (its packets past the cut are lost);
            // consuming it here drops the machine after the cut.
            let arena = Rc::clone(&node.arena);
            drop(self.head.begin_takeover(0));
            ReplicaTakeover {
                successor,
                crashed_at,
                takeover: Takeover::resume(
                    version,
                    self.costs.clone(),
                    arena,
                    self.tracer.clone(),
                    at,
                ),
            }
        }
    }

    /// Crashes the head and runs the successor's recovery to completion —
    /// the one-shot composition of [`ReplicaSet::begin_takeover`] and
    /// [`Takeover::recover`].
    pub fn crash_head(self) -> (NodeId, crate::passive::Failover<T>) {
        let t = self.begin_takeover();
        (t.successor, t.takeover.recover())
    }
}

impl<T: Tracer + 'static> Cluster<T> for ReplicaSet<T> {
    type Takeover = Takeover<T>;

    fn machine(&self) -> &Machine<T> {
        self.head.machine()
    }

    fn machine_mut(&mut self) -> &mut Machine<T> {
        self.head.machine_mut()
    }

    fn db_region(&self) -> Region {
        self.head.engine().db_region()
    }

    fn run_txn(&mut self, workload: &mut dyn Workload<T>) {
        ReplicaSet::run_txn(self, workload);
    }

    fn quiesce(&mut self) {
        ReplicaSet::quiesce(self);
    }

    fn traffic(&self) -> Traffic {
        ReplicaSet::traffic(self)
    }

    fn degraded_commits(&self) -> u64 {
        self.degraded_commits
    }

    /// Nodes `1..rf` in order.
    fn replica_arenas(&self) -> Vec<Rc<RefCell<Arena>>> {
        (1..self.topology.rf())
            .map(|node| Rc::clone(self.replica_arena(node)))
            .collect()
    }

    fn begin_takeover(self) -> (VirtualInstant, Takeover<T>) {
        let t = ReplicaSet::begin_takeover(self);
        (t.crashed_at, t.takeover)
    }
}

/// The directed node pairs `topology` moves packets over (and so the
/// pairs a partition fault can meaningfully target): none for
/// primary-backup (the hub multicast has no per-pair legs), the forward
/// hops plus the tail→head ack link for chain, and the head→replica
/// fan-out plus every replica→head ack link for quorum.
pub fn modeled_pairs(topology: Topology) -> Vec<(u8, u8)> {
    let rf = topology.rf();
    match topology.strategy() {
        ReplicationStrategy::PrimaryBackup => Vec::new(),
        ReplicationStrategy::Chain => {
            let mut pairs: Vec<(u8, u8)> = (2..rf).map(|j| (j - 1, j)).collect();
            pairs.push((rf - 1, 0));
            pairs
        }
        ReplicationStrategy::Quorum { .. } => {
            let mut pairs: Vec<(u8, u8)> = (2..rf).map(|j| (0, j)).collect();
            pairs.extend((1..rf).map(|j| (j, 0)));
            pairs
        }
    }
}

/// What one [`ReplicaSet::forward_up_to`] call moved.
#[derive(Clone, Copy, Debug, Default)]
struct ForwardSummary {
    /// Packets forwarded (chain) or fanned out (quorum) by this call.
    packets: u64,
    /// Chain: packets that made it all the way to the tail.
    tail_reached: u64,
    /// Quorum: newest node-1 delivery instant among this call's packets.
    node1_last: VirtualInstant,
    /// Quorum: packets whose node-1 DMA was past the cut (crash case).
    node1_missed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: the linear history scan `PrefixIndex` replaced.
    fn scan_prefix(rows: &[Vec<Option<VirtualInstant>>], node: u8, at: VirtualInstant) -> u64 {
        let idx = usize::from(node) - 1;
        let mut prefix = 0u64;
        for row in rows {
            match row.get(idx) {
                Some(Some(v)) if *v <= at => prefix += 1,
                _ => break,
            }
        }
        prefix
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After every pushed row, the index answers exactly what the scan
        /// does for every node and every query instant: before, at,
        /// between and after the recorded (non-monotone) instants, with
        /// partition holes anywhere.
        #[test]
        fn prefix_index_matches_the_history_scan(
            rf in 2u8..=5,
            cells in prop::collection::vec((0u8..12, 0u64..32), 0..96),
        ) {
            let replicas = usize::from(rf) - 1;
            // Recorded instants are even and in 2..=64; a zero draw is a hole.
            let rows: Vec<Vec<Option<VirtualInstant>>> = cells
                .chunks_exact(replicas)
                .map(|row| {
                    row.iter()
                        .map(|&(hole, v)| (hole != 0).then(|| VirtualInstant::from_picos(2 * v + 2)))
                        .collect()
                })
                .collect();
            let mut index = PrefixIndex::new(replicas);
            for (n, row) in rows.iter().enumerate() {
                index.push(row.iter().copied());
                for node in 1..rf {
                    for at in (0..=66).map(VirtualInstant::from_picos) {
                        prop_assert_eq!(
                            index.prefix(node, at),
                            scan_prefix(&rows[..=n], node, at)
                        );
                    }
                }
            }
        }
    }
}
