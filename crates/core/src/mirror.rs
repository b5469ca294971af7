//! Versions 1 and 2: mirroring by copying and mirroring by diffing.
//!
//! Both maintain a *mirror* copy of the database: during a transaction the
//! database is written in place while the mirror still holds the committed
//! state (so the mirror doubles as the undo). On commit, each declared range
//! is propagated into the mirror — wholesale (`Copy`, Version 1) or only the
//! bytes that actually changed (`Diff`, Version 2). The set-range array
//! replaces Vista's heap-allocated list, eliminating almost all metadata.
//!
//! In primary-backup mode, the paper's optimization is applied: the
//! set-range array stays **local** (it is not written through); the backup
//! recovers by copying the entire mirror over the database
//! ([`MirrorEngine::backup_restore`]). This trades a longer, coarser
//! recovery — including a torn-tail window for the final in-flight commit,
//! see `DESIGN.md` §5 — for less failure-free communication, exactly as in
//! the paper's §5.1.
//!
//! ## Commit atomicity (primary)
//!
//! A local phase word `{seq_at_begin, phase}` in the ranges region drives
//! recovery: `Active` rolls the declared ranges back from the mirror;
//! `Propagate` (commit point passed) rolls them forward into the mirror.

use dsnrep_obs::{Phase, Tracer};
use dsnrep_rio::{Arena, Layout, LayoutBuilder, LayoutError, RegionId, RootSlot};
use dsnrep_simcore::{Addr, Region, TrafficClass, VirtualDuration};

use crate::config::EngineConfig;
use crate::engine::{Engine, RecoveryReport, VersionTag};
use crate::error::TxError;
use crate::machine::Machine;
use crate::ranges::TxRanges;

/// How commit propagates ranges into the mirror.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MirrorStrategy {
    /// Version 1: copy each whole set-range area.
    Copy,
    /// Version 2: compare and write only the differing bytes.
    Diff,
}

const PHASE_IDLE: u64 = 0;
const PHASE_ACTIVE: u64 = 1;
const PHASE_PROPAGATE: u64 = 2;

/// Ranges-region layout: [count][phase_word][{base,len} * max_ranges].
const COUNT_OFF: u64 = 0;
const PHASE_OFF: u64 = 8;
const RECS_OFF: u64 = 16;
const REC_SIZE: u64 = 16;

/// The Version 1 / Version 2 engine (see the module docs).
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use dsnrep_core::{Engine, EngineConfig, Machine, MirrorEngine, MirrorStrategy};
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::CostModel;
///
/// let config = EngineConfig::for_db(1 << 16);
/// let arena = Rc::new(RefCell::new(Arena::new(MirrorEngine::arena_len(&config))));
/// let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
/// let mut engine = MirrorEngine::format(&mut m, &config, MirrorStrategy::Diff);
///
/// let db = engine.db_region().start();
/// engine.begin(&mut m)?;
/// engine.set_range(&mut m, db, 16)?;
/// engine.write(&mut m, db, b"mirrored payload")?;
/// engine.commit(&mut m)?;
/// # Ok::<(), dsnrep_core::TxError>(())
/// ```
#[derive(Debug)]
pub struct MirrorEngine {
    strategy: MirrorStrategy,
    db: Region,
    mirror: Region,
    header: Region,
    ranges_region: Region,
    max_ranges: usize,
    ranges: TxRanges,
    scratch_db: Vec<u8>,
    scratch_mirror: Vec<u8>,
}

/// Copies `len` bytes from `src` to `dst` in 64 KiB chunks. Page-sized
/// chunks keep each copy bounded for gigabyte databases, and each chunk
/// is one [`Arena::copy`], i.e. one counted write: the recovery-write
/// crash sites are the chunk boundaries.
fn copy_in_chunks(arena: &mut Arena, src: Addr, dst: Addr, len: u64) {
    const CHUNK: u64 = 64 * 1024;
    let mut off = 0u64;
    while off < len {
        let n = (len - off).min(CHUNK);
        arena.copy(src + off, dst + off, n as usize);
        off += n;
    }
}

impl MirrorEngine {
    /// The arena layout this engine formats.
    pub fn layout(config: &EngineConfig) -> Layout {
        LayoutBuilder::new()
            .region(
                RegionId::Ranges,
                RECS_OFF + config.max_ranges as u64 * REC_SIZE,
            )
            .region(RegionId::Database, config.db_len)
            .region(RegionId::Mirror, config.db_len)
            .build()
    }

    /// Arena bytes needed for `config` (roughly twice the database size:
    /// this is the cost of keeping a mirror).
    pub fn arena_len(config: &EngineConfig) -> u64 {
        Self::layout(config).arena_len()
    }

    /// Formats the machine's arena for this engine (setup path,
    /// unaccounted). The mirror is initialized equal to the (zeroed)
    /// database.
    pub fn format<T: Tracer>(
        m: &mut Machine<T>,
        config: &EngineConfig,
        strategy: MirrorStrategy,
    ) -> Self {
        let layout = Self::layout(config);
        {
            let mut arena = m.arena().borrow_mut();
            layout.format(&mut arena);
        }
        Self::from_layout(&layout, strategy, config.max_ranges)
    }

    /// Re-attaches to a formatted arena (after a crash or on the backup).
    ///
    /// The strategy is a volatile choice; recovery behaves identically for
    /// both, so re-attaching with the other strategy is harmless.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the arena was not formatted by
    /// [`MirrorEngine::format`].
    pub fn attach<T: Tracer>(
        m: &mut Machine<T>,
        strategy: MirrorStrategy,
    ) -> Result<Self, LayoutError> {
        let layout = Layout::read(&m.arena().borrow())?;
        let ranges_region = layout.expect_region(RegionId::Ranges);
        let max_ranges = ((ranges_region.len() - RECS_OFF) / REC_SIZE) as usize;
        Ok(Self::from_layout(&layout, strategy, max_ranges))
    }

    fn from_layout(layout: &Layout, strategy: MirrorStrategy, max_ranges: usize) -> Self {
        MirrorEngine {
            strategy,
            db: layout.expect_region(RegionId::Database),
            mirror: layout.expect_region(RegionId::Mirror),
            header: layout.expect_region(RegionId::Header),
            ranges_region: layout.expect_region(RegionId::Ranges),
            max_ranges,
            ranges: TxRanges::default(),
            scratch_db: Vec::new(),
            scratch_mirror: Vec::new(),
        }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> MirrorStrategy {
        self.strategy
    }

    /// The database region transactions operate on.
    pub fn db_region(&self) -> Region {
        self.db
    }

    /// The regions a passive backup maps write-through: header, database
    /// and mirror — but *not* the set-range array (the paper's §5.1
    /// optimization).
    pub fn replicated_regions(&self) -> Vec<Region> {
        vec![self.header, self.db, self.mirror]
    }

    /// The backup's takeover procedure: copy the entire mirror over the
    /// database (paper §5.1), leaving the arena ready for
    /// [`MirrorEngine::attach`]. Returns the bytes copied.
    pub fn backup_restore(arena: &mut Arena) -> Result<u64, LayoutError> {
        let layout = Layout::read(arena)?;
        let db = layout.expect_region(RegionId::Database);
        let mirror = layout.expect_region(RegionId::Mirror);
        copy_in_chunks(arena, mirror.start(), db.start(), db.len());
        // The ranges region was never replicated: clear any stale content.
        arena.write_u64(
            layout.expect_region(RegionId::Ranges).start() + COUNT_OFF,
            0,
        );
        arena.write_u64(
            layout.expect_region(RegionId::Ranges).start() + PHASE_OFF,
            0,
        );
        Ok(db.len())
    }

    fn seq_addr(&self) -> Addr {
        Layout::root_addr(RootSlot::TxnSeq)
    }

    fn count_addr(&self) -> Addr {
        self.ranges_region.start() + COUNT_OFF
    }

    fn phase_addr(&self) -> Addr {
        self.ranges_region.start() + PHASE_OFF
    }

    fn rec_addr(&self, i: u64) -> Addr {
        self.ranges_region.start() + RECS_OFF + i * REC_SIZE
    }

    fn mirror_addr(&self, db_addr: Addr) -> Addr {
        self.mirror.start() + (db_addr - self.db.start())
    }

    /// Propagates one range db -> mirror per the strategy, charging costs.
    fn propagate_range<T: Tracer>(&mut self, m: &mut Machine<T>, range: Region) {
        let len = range.len() as usize;
        self.scratch_db.resize(len, 0);
        m.read(range.start(), &mut self.scratch_db[..]);
        let mirror_base = self.mirror_addr(range.start());
        match self.strategy {
            MirrorStrategy::Copy => {
                m.charge(VirtualDuration::from_picos(
                    m.costs().copy_per_byte.as_picos() * len as u64,
                ));
                let data = std::mem::take(&mut self.scratch_db);
                // Word-at-a-time copy loop: loads interleave with stores,
                // so the doubled stores do not merge (paper §8).
                m.write_scattered(mirror_base, &data, TrafficClass::Undo);
                self.scratch_db = data;
            }
            MirrorStrategy::Diff => {
                self.scratch_mirror.resize(len, 0);
                m.read(mirror_base, &mut self.scratch_mirror[..]);
                m.charge(VirtualDuration::from_picos(
                    m.costs().diff_per_byte.as_picos() * len as u64,
                ));
                // Write back each maximal differing byte run.
                let mut i = 0usize;
                while i < len {
                    if self.scratch_db[i] == self.scratch_mirror[i] {
                        i += 1;
                        continue;
                    }
                    let start = i;
                    while i < len && self.scratch_db[i] != self.scratch_mirror[i] {
                        i += 1;
                    }
                    m.charge(VirtualDuration::from_picos(
                        m.costs().copy_per_byte.as_picos() * (i - start) as u64,
                    ));
                    let data = std::mem::take(&mut self.scratch_db);
                    m.write_scattered(
                        mirror_base + start as u64,
                        &data[start..i],
                        TrafficClass::Undo,
                    );
                    self.scratch_db = data;
                }
            }
        }
    }

    /// Restores one range mirror -> db (abort path), charging costs.
    fn restore_range<T: Tracer>(&mut self, m: &mut Machine<T>, range: Region) {
        let len = range.len() as usize;
        self.scratch_mirror.resize(len, 0);
        m.read(
            self.mirror_addr(range.start()),
            &mut self.scratch_mirror[..],
        );
        m.charge(VirtualDuration::from_picos(
            m.costs().copy_per_byte.as_picos() * len as u64,
        ));
        let data = std::mem::take(&mut self.scratch_mirror);
        m.write(range.start(), &data, TrafficClass::Modified);
        self.scratch_mirror = data;
    }

    fn read_persisted_ranges(&self, arena: &Arena) -> Vec<Region> {
        let count = arena.read_u64(self.count_addr());
        let mut out = Vec::new();
        for i in 0..count.min(self.max_ranges as u64) {
            let base = Addr::new(arena.read_u64(self.rec_addr(i)));
            let len = arena.read_u64(self.rec_addr(i) + 8);
            if self.db.contains_range(base, len) && len > 0 {
                out.push(Region::new(base, len));
            }
        }
        out
    }
}

impl<T: Tracer> Engine<T> for MirrorEngine {
    fn version(&self) -> VersionTag {
        match self.strategy {
            MirrorStrategy::Copy => VersionTag::MirrorCopy,
            MirrorStrategy::Diff => VersionTag::MirrorDiff,
        }
    }

    fn db_region(&self) -> Region {
        self.db
    }

    fn replicated_regions(&self) -> Vec<Region> {
        Self::replicated_regions(self)
    }

    fn begin(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.ranges.begin()?;
        m.trace_tx_begin();
        let t0 = m.now();
        m.charge(m.costs().txn_begin);
        let seq = m.read_u64(self.seq_addr());
        m.write_u64(
            self.phase_addr(),
            seq << 2 | PHASE_ACTIVE,
            TrafficClass::Meta,
        );
        m.trace_phase(Phase::Begin, t0);
        Ok(())
    }

    fn set_range(&mut self, m: &mut Machine<T>, base: Addr, len: u64) -> Result<(), TxError> {
        if self.ranges.is_active() && self.ranges.len() >= self.max_ranges {
            return Err(TxError::TooManyRanges {
                capacity: self.max_ranges,
            });
        }
        self.ranges.add(self.db, base, len)?;
        let t0 = m.now();
        m.charge(m.costs().set_range);
        // Append the record to the persistent array and bump the count.
        let i = self.ranges.len() as u64 - 1;
        m.write_u64(self.rec_addr(i), base.as_u64(), TrafficClass::Meta);
        m.write_u64(self.rec_addr(i) + 8, len, TrafficClass::Meta);
        m.write_u64(self.count_addr(), i + 1, TrafficClass::Meta);
        m.trace_phase(Phase::UndoWrite, t0);
        Ok(())
    }

    fn write(&mut self, m: &mut Machine<T>, base: Addr, bytes: &[u8]) -> Result<(), TxError> {
        self.ranges.check_covered(base, bytes.len() as u64)?;
        let t0 = m.now();
        m.charge(m.costs().write_call);
        m.write(base, bytes, TrafficClass::Modified);
        m.trace_phase(Phase::DbWrite, t0);
        Ok(())
    }

    fn read(&mut self, m: &mut Machine<T>, base: Addr, buf: &mut [u8]) {
        m.read(base, buf);
    }

    fn commit(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.ranges.require_active()?;
        let t0 = m.now();
        m.charge(m.costs().txn_commit);
        let seq = m.read_u64(self.seq_addr());
        // Commit point (local): once Propagate is durable, recovery rolls
        // this transaction forward.
        m.write_u64(
            self.phase_addr(),
            seq << 2 | PHASE_PROPAGATE,
            TrafficClass::Meta,
        );
        let ranges: Vec<Region> = self.ranges.iter().collect();
        for r in ranges {
            self.propagate_range(m, r);
        }
        // All mirror writes precede the sequence flag on the wire, and the
        // flag precedes the next transaction's data.
        m.barrier();
        m.write_u64(self.seq_addr(), seq + 1, TrafficClass::Meta);
        m.barrier();
        if m.durability() == crate::Durability::TwoSafe {
            m.wait_delivered();
        }
        m.write_u64(
            self.phase_addr(),
            (seq + 1) << 2 | PHASE_IDLE,
            TrafficClass::Meta,
        );
        m.write_u64(self.count_addr(), 0, TrafficClass::Meta);
        self.ranges.end();
        m.trace_phase(Phase::Commit, t0);
        m.trace_tx_end();
        Ok(())
    }

    fn abort(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.ranges.require_active()?;
        let t0 = m.now();
        m.charge(m.costs().txn_abort);
        let seq = m.read_u64(self.seq_addr());
        let ranges: Vec<Region> = self.ranges.iter().collect();
        // Newest-first so the oldest (pre-transaction) data wins on overlap.
        for r in ranges.into_iter().rev() {
            self.restore_range(m, r);
        }
        m.write_u64(self.phase_addr(), seq << 2 | PHASE_IDLE, TrafficClass::Meta);
        m.write_u64(self.count_addr(), 0, TrafficClass::Meta);
        self.ranges.end();
        m.trace_phase(Phase::Abort, t0);
        m.trace_tx_end();
        Ok(())
    }

    fn recover(&mut self, m: &mut Machine<T>) -> RecoveryReport {
        let t0 = m.now();
        let mut arena = m.arena().borrow_mut();
        let phase_word = arena.read_u64(self.phase_addr());
        let (phase, seq_at_begin) = (phase_word & 3, phase_word >> 2);
        let ranges = self.read_persisted_ranges(&arena);
        let mut report = RecoveryReport::default();
        match phase {
            PHASE_ACTIVE => {
                // Roll back: mirror -> database, newest-first.
                for r in ranges.iter().rev() {
                    let data = arena.read_vec(self.mirror_addr(r.start()), r.len() as usize);
                    arena.write(r.start(), &data);
                    report.bytes_restored += r.len();
                }
                report.rolled_back = !ranges.is_empty();
                arena.write_u64(self.seq_addr(), seq_at_begin);
            }
            PHASE_PROPAGATE => {
                // Roll forward: database -> mirror (idempotent), and finish
                // the commit.
                for r in &ranges {
                    let data = arena.read_vec(r.start(), r.len() as usize);
                    arena.write(self.mirror_addr(r.start()), &data);
                    report.bytes_restored += r.len();
                }
                report.rolled_forward = true;
                arena.write_u64(self.seq_addr(), seq_at_begin + 1);
            }
            _ => {}
        }
        arena.write_u64(self.count_addr(), 0);
        let committed = arena.read_u64(self.seq_addr());
        arena.write_u64(self.phase_addr(), committed << 2 | PHASE_IDLE);
        report.committed_seq = committed;
        drop(arena);
        self.ranges = TxRanges::default();
        m.trace_phase(Phase::Recovery, t0);
        report
    }

    fn committed_seq(&self, m: &mut Machine<T>) -> u64 {
        m.arena()
            .borrow()
            .read_u64(Layout::root_addr(RootSlot::TxnSeq))
    }
}
