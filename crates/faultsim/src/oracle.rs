//! The shadow oracle a faulted run is checked against.
//!
//! One fault-free Version 3 run with a [`ShadowDb`] mirror produces, for
//! a given (workload, seed, db size, length), the committed database
//! image after every transaction boundary plus the write spans of each
//! transaction. Because [`ShadowDb`] records everything **region
//! relative**, the same reference serves every engine version and every
//! driver: each faulted run is compared against the reference at its own
//! recovered sequence number, reading its own database region.

use dsnrep_core::{build_engine, shared_arena, Machine, ShadowDb, VersionTag};
use dsnrep_rio::{Arena, PAGE_SIZE};
use dsnrep_simcore::{Addr, CostModel, Region};
use dsnrep_workloads::TxCtx;

use crate::scenario::Scenario;

/// How many transactions past a crash boundary can be torn (1-safe
/// passive replication loses at most the in-flight SAN tail; 8 covers it
/// with margin at these run lengths).
pub const TAIL_WINDOW: u64 = 8;

/// The precomputed fault-free truth for one scenario shape.
#[derive(Clone, Debug)]
pub struct Reference {
    /// `images[s]` is the committed database image after `s`
    /// transactions, region relative (arena byte 0 is database byte 0).
    /// Pages that hold only zeros in every image so far stay untouched,
    /// so an image costs what the run wrote, not the database size.
    images: Vec<Arena>,
    /// `txn_spans[i]` holds the region-relative torn window (declared
    /// undo ranges plus written spans) of the (1-based) transaction
    /// `i + 1`; extends `TAIL_WINDOW` past `txns`.
    txn_spans: Vec<Vec<(u64, u64)>>,
}

impl Reference {
    /// Runs the fault-free reference for `scenario` (always Version 3
    /// standalone — the shadow equivalence tests pin all versions to the
    /// same logical history).
    pub fn build(scenario: &Scenario) -> Self {
        let config = dsnrep_core::EngineConfig::for_db(scenario.db_len);
        let arena = shared_arena(dsnrep_core::arena_len(VersionTag::ImprovedLog, &config));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let mut engine = build_engine(VersionTag::ImprovedLog, &mut m, &config);
        let db = engine.db_region();
        let mut shadow = ShadowDb::new(db);
        let mut workload = scenario.workload.build(db, scenario.seed);

        let mut image = Arena::new(db.len());
        for (i, page) in shadow.committed().chunks(PAGE_SIZE).enumerate() {
            // An OR-reduction, not `any`: it vectorizes, and the scan runs
            // over the whole database once per scenario.
            if page.iter().fold(0, |acc, &b| acc | b) != 0 {
                image.write(Addr::new((i * PAGE_SIZE) as u64), page);
            }
        }
        let mut images = Vec::with_capacity(scenario.txns as usize + 1);
        images.push(image);
        let mut txn_spans = Vec::with_capacity((scenario.txns + TAIL_WINDOW) as usize);
        for i in 0..scenario.txns + TAIL_WINDOW {
            let seq = shadow.seq();
            let mut ctx = TxCtx::new(&mut m, engine.as_mut()).with_shadow(&mut shadow);
            workload
                .run_txn(&mut ctx)
                .expect("the fault-free reference run cannot fail");
            // The torn window of a transaction is its declared undo
            // ranges, not just its written spans: a 1-safe backup's
            // rollback restores whole declared ranges, possibly from a
            // torn undo image (the record header publishes atomically
            // over the SAN, its data blocks may still be in write
            // buffers). Keep the written spans too — ranges cover them
            // by construction, but the union is cheap insurance.
            let mut window = shadow.last_txn_ranges().to_vec();
            window.extend_from_slice(shadow.last_txn_spans());
            txn_spans.push(window);
            if i < scenario.txns {
                // A commit changes the committed image exactly on its
                // written spans; an abort changes nothing.
                let mut image = images.last().expect("image 0 is pushed").clone();
                if shadow.seq() > seq {
                    for &(off, len) in shadow.last_txn_spans() {
                        let span = off as usize..(off + len) as usize;
                        image.write(Addr::new(off), &shadow.committed()[span]);
                    }
                }
                images.push(image);
            }
        }
        // The shadow is the truth the images came from; the engine that
        // produced them must agree with it at the final boundary.
        debug_assert!(
            shadow.matches(&m.arena().borrow()),
            "the reference engine diverged from its own shadow"
        );
        Reference { images, txn_spans }
    }

    /// Transactions the reference covers (a recovered sequence must not
    /// exceed this).
    pub fn txns(&self) -> u64 {
        self.images.len() as u64 - 1
    }

    /// The committed image after `seq` transactions, copied out: the
    /// dense form the sparse images are checked against in tests.
    #[cfg(test)]
    pub(crate) fn image(&self, seq: u64) -> Vec<u8> {
        let image = &self.images[seq as usize];
        image.read_vec(Addr::new(0), image.len() as usize)
    }

    /// Region-relative spans a 1-safe backup at boundary `seq` may
    /// expose torn bytes in: the declared undo ranges and written spans
    /// of transactions `seq + 1` through `seq + TAIL_WINDOW` (partially
    /// applied in-flight writes, or rollback over a torn undo image).
    pub fn tail_spans(&self, seq: u64) -> Vec<(u64, u64)> {
        let from = seq as usize;
        let to = ((seq + TAIL_WINDOW) as usize).min(self.txn_spans.len());
        self.txn_spans[from..to].iter().flatten().copied().collect()
    }

    /// Compares the database region `db` of `arena` in place against the
    /// committed image at `seq`. With `allow_torn_tail`, bytes inside
    /// [`Reference::tail_spans`] may differ (partially applied in-flight
    /// writes); everything else must match exactly. Returns the
    /// region-relative offset of the first unexplained mismatch.
    pub fn first_unexplained_mismatch(
        &self,
        seq: u64,
        arena: &Arena,
        db: Region,
        allow_torn_tail: bool,
    ) -> Option<u64> {
        let expect = &self.images[seq as usize];
        assert_eq!(
            expect.len(),
            db.len(),
            "oracle and run disagree on the database size"
        );
        let torn = if allow_torn_tail {
            self.tail_spans(seq)
        } else {
            Vec::new()
        };
        first_unexplained(expect, arena, db, &torn)
    }
}

/// The first region-relative offset where the bytes of `db` in `arena`
/// differ from the region-relative image `expect`, outside every
/// `(offset, len)` span of `torn`.
///
/// Each step is one in-place [`Arena::first_difference_with`], so pages
/// untouched on both sides cost nothing and a matching image costs a few
/// bulk compares; a difference inside a torn span skips to the end of
/// that span, since every byte up to there is explained.
fn first_unexplained(
    expect: &Arena,
    arena: &Arena,
    db: Region,
    torn: &[(u64, u64)],
) -> Option<u64> {
    let len = db.len();
    let mut from = 0;
    while let Some(i) = arena
        .first_difference_with(
            db.start() + from,
            expect,
            Addr::new(from),
            (len - from) as usize,
        )
        .map(|d| from + d as u64)
    {
        match torn
            .iter()
            .filter(|&&(off, len)| (off..off + len).contains(&i))
            .map(|&(off, len)| off + len)
            .max()
        {
            Some(end) => from = end,
            None => return Some(i),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnrep_workloads::WorkloadKind;

    /// The reference: a byte loop over a torn-byte mask.
    fn scan_unexplained(expect: &[u8], actual: &[u8], torn: &[(u64, u64)]) -> Option<u64> {
        let mut mask = vec![false; expect.len()];
        for &(off, len) in torn {
            for b in off..off + len {
                mask[b as usize] = true;
            }
        }
        (0..expect.len())
            .find(|&i| expect[i] != actual[i] && !mask[i])
            .map(|i| i as u64)
    }

    /// The compare before it moved into the arena: copy the region out,
    /// then skip equal 1 KiB blocks of the two slices.
    fn slice_unexplained(expect: &[u8], actual: &[u8], torn: &[(u64, u64)]) -> Option<u64> {
        let first_difference = |a: &[u8], b: &[u8]| {
            let block = a
                .chunks(1024)
                .zip(b.chunks(1024))
                .position(|(x, y)| x != y)?;
            let start = block * 1024;
            a[start..]
                .iter()
                .zip(&b[start..])
                .position(|(x, y)| x != y)
                .map(|d| start + d)
        };
        let mut from = 0;
        while let Some(i) = first_difference(&expect[from..], &actual[from..]).map(|d| from + d) {
            let at = i as u64;
            match torn
                .iter()
                .filter(|&&(off, len)| (off..off + len).contains(&at))
                .map(|&(off, len)| off + len)
                .max()
            {
                Some(end) => from = end as usize,
                None => return Some(at),
            }
        }
        None
    }

    /// An arena holding `bytes` at `at`, written in 1 KiB pieces with
    /// all-zero pieces skipped, so pages `bytes` leaves zero stay
    /// untouched.
    fn arena_with(len: u64, at: Addr, bytes: &[u8]) -> Arena {
        let mut arena = Arena::new(len);
        for (i, piece) in bytes.chunks(1024).enumerate() {
            if piece.iter().any(|&b| b != 0) {
                arena.write(at + (i * 1024) as u64, piece);
            }
        }
        arena
    }

    #[test]
    fn block_skipping_matches_the_byte_loop() {
        // A fixed LCG: sizes around the block length, sparse and dense
        // differences, overlapping and nested torn spans, at a page start
        // and straddling a page boundary.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for case in 0..2_000 {
            let len = [0, 1, 63, 1023, 1024, 1025, 3000][case % 7];
            let base = Addr::new([0, PAGE_SIZE as u64 - 700][case % 2]);
            let mut expect: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
            if case % 3 == 0 {
                // Untouched pages on the expected side, and on both sides
                // wherever no difference lands.
                expect.fill(0);
            }
            let mut actual = expect.clone();
            for _ in 0..next(6) {
                if len > 0 {
                    let at = next(len as u64) as usize;
                    actual[at] ^= 1 + next(255) as u8;
                }
            }
            let torn: Vec<(u64, u64)> = (0..next(5))
                .filter(|_| len > 0)
                .map(|_| {
                    let off = next(len as u64);
                    (off, next(len as u64 - off + 1))
                })
                .collect();
            let image = arena_with(2 * PAGE_SIZE as u64, Addr::new(0), &expect);
            let arena = arena_with(2 * PAGE_SIZE as u64, base, &actual);
            assert_eq!(
                first_unexplained(&image, &arena, Region::new(base, len as u64), &torn),
                scan_unexplained(&expect, &actual, &torn),
                "case {case}: len {len}, torn {torn:?}"
            );
        }
    }

    /// The in-place compare reports the offsets the copy-and-compare
    /// path reported, on real reference images: a multi-page Order-Entry
    /// database placed off a page boundary, corrupted at region edges,
    /// page edges and inside and outside the torn tail.
    #[test]
    fn in_place_compare_matches_the_slice_path() {
        let scenario =
            Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::OrderEntry).with_txns(2);
        let r = Reference::build(&scenario);
        let db_len = scenario.db_len;
        let db = Region::new(Addr::new(PAGE_SIZE as u64 / 2 + 8), db_len);
        let page_edge = PAGE_SIZE as u64 / 2 - 8;
        for seq in 0..=r.txns() {
            let tail = r.tail_spans(seq);
            let mut sites = vec![
                None,
                Some(0),
                Some(page_edge - 1),
                Some(page_edge),
                Some(db_len - 1),
            ];
            sites.extend(tail.iter().take(3).map(|&(off, _)| Some(off)));
            for site in sites {
                let mut actual = r.image(seq);
                if let Some(off) = site {
                    actual[off as usize] ^= 0x5A;
                }
                let arena = arena_with(db.end().as_u64() + 8, db.start(), &actual);
                for torn in [false, true] {
                    let spans = if torn { tail.clone() } else { Vec::new() };
                    assert_eq!(
                        r.first_unexplained_mismatch(seq, &arena, db, torn),
                        slice_unexplained(&r.image(seq), &arena.region_vec(db), &spans),
                        "seq {seq}, corrupted at {site:?}, torn tail {torn}"
                    );
                }
            }
        }
    }

    /// Every sparse image equals the dense committed image of a shadow
    /// replaying the same run, at every sequence number, and only pages
    /// the run wrote are materialized.
    #[test]
    fn sparse_images_equal_the_shadow_at_every_sequence() {
        for workload in [WorkloadKind::DebitCredit, WorkloadKind::OrderEntry] {
            let scenario = Scenario::standalone(VersionTag::ImprovedLog, workload);
            let r = Reference::build(&scenario);
            let config = dsnrep_core::EngineConfig::for_db(scenario.db_len);
            let arena = shared_arena(dsnrep_core::arena_len(VersionTag::ImprovedLog, &config));
            let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
            let mut engine = build_engine(VersionTag::ImprovedLog, &mut m, &config);
            let db = engine.db_region();
            let mut shadow = ShadowDb::new(db);
            let mut w = scenario.workload.build(db, scenario.seed);
            for seq in 0..=r.txns() {
                if seq > 0 {
                    let mut ctx = TxCtx::new(&mut m, engine.as_mut()).with_shadow(&mut shadow);
                    w.run_txn(&mut ctx).expect("the fault-free run cannot fail");
                }
                assert_eq!(r.image(seq), shadow.committed(), "{workload:?} image {seq}");
                // Image 0 is all zeros; later images materialize only
                // pages their transactions' torn windows reach.
                let reached: std::collections::BTreeSet<u64> = r.txn_spans[..seq as usize]
                    .iter()
                    .flatten()
                    .filter(|&&(_, len)| len > 0)
                    .flat_map(|&(off, len)| {
                        off / PAGE_SIZE as u64..=(off + len - 1) / PAGE_SIZE as u64
                    })
                    .collect();
                assert!(
                    r.images[seq as usize].pages_touched() <= reached.len(),
                    "{workload:?} image {seq} materializes pages nothing wrote"
                );
            }
            assert_eq!(r.images[0].pages_touched(), 0, "{workload:?}");
        }
    }

    #[test]
    fn the_reference_is_deterministic_and_sized() {
        let scenario = Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::DebitCredit);
        let a = Reference::build(&scenario);
        let b = Reference::build(&scenario);
        assert_eq!(a.txns(), scenario.txns);
        for s in 0..=scenario.txns {
            assert_eq!(a.image(s), b.image(s), "image {s} differs");
        }
        // Transactions write something, so consecutive images differ.
        assert_ne!(a.image(0), a.image(1));
    }

    #[test]
    fn mismatches_inside_the_tail_are_explained_outside_are_not() {
        let scenario = Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::DebitCredit);
        let r = Reference::build(&scenario);
        let db = Region::new(Addr::new(0), scenario.db_len);
        // A backup that stopped at boundary 2 but partially applied txn 3:
        // corrupt one byte inside txn 3's first span.
        let mut actual = r.image(2);
        let spans = r.tail_spans(2);
        let (off, _) = spans[0];
        actual[off as usize] ^= 0xFF;
        let arena = arena_with(db.len(), db.start(), &actual);
        assert_eq!(r.first_unexplained_mismatch(2, &arena, db, true), None);
        assert_eq!(
            r.first_unexplained_mismatch(2, &arena, db, false),
            Some(off)
        );
        // A byte outside every tail span is never explained.
        let torn: std::collections::HashSet<u64> = r
            .tail_spans(2)
            .iter()
            .flat_map(|(o, l)| *o..*o + *l)
            .collect();
        let outside = (0..actual.len() as u64)
            .find(|b| !torn.contains(b))
            .expect("the tail does not cover the whole database");
        let mut actual = r.image(2);
        actual[outside as usize] ^= 0xFF;
        let arena = arena_with(db.len(), db.start(), &actual);
        assert_eq!(
            r.first_unexplained_mismatch(2, &arena, db, true),
            Some(outside)
        );
    }
}
