//! The recoverable-memory arena.
//!
//! An [`Arena`] stands in for Rio reliable memory: a flat byte space whose
//! contents survive a simulated crash. Pages are allocated lazily, so a
//! "1 GB database" experiment only materializes the pages it actually
//! touches (the paper's Table 8 sweeps database sizes up to 1 GB).
//!
//! The arena is deliberately *dumb*: it stores bytes. All cost accounting
//! (cache model, write doubling) happens in the layers above, which is what
//! lets recovery code and test oracles read arenas for free.

use core::fmt;

use dsnrep_simcore::{copy_small, Addr, Region};

/// Size of a lazily allocated arena page.
pub const PAGE_SIZE: usize = 64 * 1024;

/// A flat, lazily paged, crash-surviving byte space.
///
/// Untouched bytes read as zero, mirroring freshly mapped recoverable
/// memory.
///
/// # Examples
///
/// ```
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::Addr;
///
/// let mut arena = Arena::new(1 << 20);
/// arena.write(Addr::new(4096), b"hello");
/// let mut buf = [0u8; 5];
/// arena.read_into(Addr::new(4096), &mut buf);
/// assert_eq!(&buf, b"hello");
/// assert_eq!(arena.read_u64(Addr::new(0)), 0); // untouched bytes are zero
/// ```
#[derive(Clone)]
pub struct Arena {
    pages: Vec<Option<Box<[u8]>>>,
    len: u64,
    /// Count of `Some` pages, so [`pages_touched`](Arena::pages_touched)
    /// (called from `Debug` formatting inside hot loops when tracing) is
    /// O(1) instead of a scan of the page vector.
    touched: usize,
    /// Monotone count of [`Arena::write`] calls. Every mutation funnels
    /// through `write`, so this counter enumerates the halt points the
    /// fault-injection layer can crash at — including recovery-procedure
    /// writes that bypass the machine's store accounting.
    writes: u64,
    /// Armed fault: remaining writes before a simulated halt.
    write_budget: Option<u64>,
    /// Whether an armed budget actually tripped (a write was attempted
    /// with the budget at zero). Distinct from the budget *reaching*
    /// zero: spending the last unit on a successful write has not halted
    /// anything yet.
    halted: bool,
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("len", &self.len)
            .field("pages_touched", &self.pages_touched())
            .finish()
    }
}

impl Arena {
    /// Creates an arena of `len` addressable bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "arena must not be empty");
        let pages = len.div_ceil(PAGE_SIZE as u64);
        Arena {
            pages: vec![None; usize::try_from(pages).expect("arena too large")],
            len,
            touched: 0,
            writes: 0,
            write_budget: None,
            halted: false,
        }
    }

    /// Monotone count of [`Arena::write`] calls since construction (clones
    /// inherit the count). Recovery procedures mutate the arena directly,
    /// so deltas of this counter enumerate mid-recovery crash points.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Arms a fault: the arena halts (panics) when `budget` more writes
    /// have been attempted; `0` halts on the very next write. The halting
    /// write does **not** mutate the arena.
    pub fn inject_halt_after_writes(&mut self, budget: u64) {
        self.write_budget = Some(budget);
    }

    /// Whether an armed write budget tripped: a write was attempted with
    /// no budget left (and panicked without mutating the arena).
    #[inline]
    pub fn has_halted(&self) -> bool {
        self.halted
    }

    /// Disarms any pending (or tripped) write-budget fault, e.g. before
    /// resuming recovery over a surviving arena.
    pub fn clear_halt(&mut self) {
        self.write_budget = None;
        self.halted = false;
    }

    /// Consumes one unit of the armed write budget, halting at zero.
    #[inline]
    fn consume_write_budget(&mut self) {
        match &mut self.write_budget {
            None => {}
            Some(0) => {
                self.halted = true;
                panic!("dsnrep fault injection: simulated halt mid-write");
            }
            Some(budget) => *budget -= 1,
        }
    }

    /// Total addressable bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the arena has zero length (never: construction
    /// forbids it), present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages that have been materialized by writes.
    #[inline]
    pub fn pages_touched(&self) -> usize {
        self.touched
    }

    #[inline]
    fn check(&self, addr: Addr, len: usize) {
        let end = addr
            .as_u64()
            .checked_add(len as u64)
            .expect("address overflow");
        assert!(
            end <= self.len,
            "arena access out of bounds: {} + {} bytes > arena length {}",
            addr,
            len,
            self.len
        );
    }

    /// Writes `bytes` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the arena.
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) {
        self.consume_write_budget();
        self.writes += 1;
        self.check(addr, bytes.len());
        let off = addr.as_usize();
        let page_off = off % PAGE_SIZE;
        // Fast path: the write stays inside one page (virtually all
        // simulated stores are word-sized); `copy_small` keeps these
        // copies inline instead of calling libc.
        if bytes.len() <= PAGE_SIZE - page_off {
            let slot = &mut self.pages[off / PAGE_SIZE];
            let page = match slot {
                Some(page) => page,
                None => {
                    self.touched += 1;
                    slot.insert(vec![0u8; PAGE_SIZE].into_boxed_slice())
                }
            };
            copy_small(&mut page[page_off..page_off + bytes.len()], bytes);
            return;
        }
        let mut off = off;
        let mut src = bytes;
        while !src.is_empty() {
            let page_idx = off / PAGE_SIZE;
            let page_off = off % PAGE_SIZE;
            let n = (PAGE_SIZE - page_off).min(src.len());
            let slot = &mut self.pages[page_idx];
            if slot.is_none() {
                *slot = Some(vec![0u8; PAGE_SIZE].into_boxed_slice());
                self.touched += 1;
            }
            let page = slot.as_mut().expect("just materialized");
            page[page_off..page_off + n].copy_from_slice(&src[..n]);
            src = &src[n..];
            off += n;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the arena.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let off = addr.as_usize();
        let page_off = off % PAGE_SIZE;
        // Fast path mirroring `write`: single-page reads stay inline.
        if buf.len() <= PAGE_SIZE - page_off {
            match &self.pages[off / PAGE_SIZE] {
                Some(page) => copy_small(buf, &page[page_off..page_off + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        let mut off = off;
        let mut dst: &mut [u8] = buf;
        while !dst.is_empty() {
            let page_idx = off / PAGE_SIZE;
            let page_off = off % PAGE_SIZE;
            let n = (PAGE_SIZE - page_off).min(dst.len());
            match &self.pages[page_idx] {
                Some(page) => dst[..n].copy_from_slice(&page[page_off..page_off + n]),
                None => dst[..n].fill(0),
            }
            let rest = core::mem::take(&mut dst);
            dst = &mut rest[n..];
            off += n;
        }
    }

    /// Compares the `len` bytes at `at` with the `len` bytes at
    /// `other_at` of `other`, in place, and returns the offset (relative
    /// to `at`) of the first byte that differs. An untouched page reads
    /// as zeros, exactly as [`read_into`](Arena::read_into) would read
    /// it, so a piece untouched on both sides costs nothing and a piece
    /// untouched on one side is a scan for a nonzero byte.
    ///
    /// # Panics
    ///
    /// Panics if either range falls outside its arena.
    pub fn first_difference_with(
        &self,
        at: Addr,
        other: &Arena,
        other_at: Addr,
        len: usize,
    ) -> Option<usize> {
        self.check(at, len);
        other.check(other_at, len);
        let (a, b) = (at.as_usize(), other_at.as_usize());
        pieces(a, b, len).find_map(|(x, y, n)| {
            let (px, py) = (x % PAGE_SIZE, y % PAGE_SIZE);
            let diff = match (&self.pages[x / PAGE_SIZE], &other.pages[y / PAGE_SIZE]) {
                (None, None) => None,
                (Some(p), None) => first_nonzero(&p[px..px + n]),
                (None, Some(q)) => first_nonzero(&q[py..py + n]),
                (Some(p), Some(q)) => first_mismatch(&p[px..px + n], &q[py..py + n]),
            };
            diff.map(|d| x - a + d)
        })
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_into(addr, &mut v);
        v
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_into(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `i64` at `addr`.
    pub fn read_i64(&self, addr: Addr) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a little-endian `i64` at `addr`.
    pub fn write_i64(&mut self, addr: Addr, value: i64) {
        self.write_u64(addr, value as u64)
    }

    /// Copies `len` bytes from `src` to `dst` within the arena. Ranges may
    /// not overlap.
    ///
    /// Counts as one [`Arena::write`], and an armed write budget halts it
    /// before anything is mutated. The copy costs what the source touched:
    /// a piece whose source page is untouched leaves an untouched
    /// destination page untouched (both read as zeros) and zero-fills a
    /// touched one, so copying a sparse region materializes no more pages
    /// than it must.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds or if they overlap.
    pub fn copy(&mut self, src: Addr, dst: Addr, len: usize) {
        assert!(
            !Region::new(src, len as u64).overlaps(Region::new(dst, len as u64)),
            "arena copy ranges overlap"
        );
        self.check(src, len);
        self.consume_write_budget();
        self.writes += 1;
        self.check(dst, len);
        for (s, d, n) in pieces(src.as_usize(), dst.as_usize(), len) {
            let (sp, dp) = (s / PAGE_SIZE, d / PAGE_SIZE);
            let (so, off) = (s % PAGE_SIZE, d % PAGE_SIZE);
            if self.pages[sp].is_none() {
                if let Some(page) = &mut self.pages[dp] {
                    page[off..off + n].fill(0);
                }
            } else if sp == dp {
                let page = self.pages[sp].as_mut().expect("source page is touched");
                page.copy_within(so..so + n, off);
            } else {
                let (from, to) = if sp < dp {
                    let (lo, hi) = self.pages.split_at_mut(dp);
                    (&lo[sp], &mut hi[0])
                } else {
                    let (lo, hi) = self.pages.split_at_mut(sp);
                    (&hi[0], &mut lo[dp])
                };
                let from = from.as_deref().expect("source page is touched");
                let to = to.get_or_insert_with(|| {
                    self.touched += 1;
                    vec![0u8; PAGE_SIZE].into_boxed_slice()
                });
                to[off..off + n].copy_from_slice(&from[so..so + n]);
            }
        }
    }

    /// Returns the whole region's bytes; intended for test oracles on small
    /// regions.
    pub fn region_vec(&self, region: Region) -> Vec<u8> {
        self.read_vec(
            region.start(),
            usize::try_from(region.len()).expect("region too large"),
        )
    }
}

/// Splits `len` bytes starting at offsets `a` and `b` into pieces that
/// cross no page edge on either side, as `(a + i, b + i, n)`.
fn pieces(a: usize, b: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut done = 0;
    core::iter::from_fn(move || {
        (done < len).then(|| {
            let (x, y) = (a + done, b + done);
            let n = (PAGE_SIZE - x % PAGE_SIZE)
                .min(PAGE_SIZE - y % PAGE_SIZE)
                .min(len - done);
            done += n;
            (x, y, n)
        })
    })
}

/// Block length of the compare helpers: equal stretches are skipped one
/// block-sized slice comparison (`memcmp`) at a time, and only the block
/// holding a difference is scanned byte by byte.
const CMP_BLOCK: usize = 1024;

/// The index of the first byte where `a` and `b` (of equal length) differ.
fn first_mismatch(a: &[u8], b: &[u8]) -> Option<usize> {
    let block = a
        .chunks(CMP_BLOCK)
        .zip(b.chunks(CMP_BLOCK))
        .position(|(x, y)| x != y)?;
    let start = block * CMP_BLOCK;
    a[start..]
        .iter()
        .zip(&b[start..])
        .position(|(x, y)| x != y)
        .map(|d| start + d)
}

/// The index of the first nonzero byte of `a`: the compare against an
/// untouched page.
fn first_nonzero(a: &[u8]) -> Option<usize> {
    const ZEROS: [u8; CMP_BLOCK] = [0; CMP_BLOCK];
    let block = a.chunks(CMP_BLOCK).position(|x| x != &ZEROS[..x.len()])?;
    let start = block * CMP_BLOCK;
    a[start..].iter().position(|&x| x != 0).map(|d| start + d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_by_default() {
        let a = Arena::new(PAGE_SIZE as u64 * 3);
        assert_eq!(a.read_vec(Addr::new(12345), 16), vec![0u8; 16]);
        assert_eq!(a.pages_touched(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut a = Arena::new(1 << 16);
        a.write(Addr::new(100), &[1, 2, 3, 4]);
        assert_eq!(a.read_vec(Addr::new(99), 6), vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut a = Arena::new(PAGE_SIZE as u64 * 2);
        let addr = Addr::new(PAGE_SIZE as u64 - 3);
        a.write(addr, b"abcdef");
        assert_eq!(a.read_vec(addr, 6), b"abcdef");
        assert_eq!(a.pages_touched(), 2);
    }

    #[test]
    fn typed_accessors() {
        let mut a = Arena::new(1 << 12);
        a.write_u64(Addr::new(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_u64(Addr::new(8)), 0xDEAD_BEEF_CAFE_F00D);
        a.write_u32(Addr::new(0), 77);
        assert_eq!(a.read_u32(Addr::new(0)), 77);
        a.write_i64(Addr::new(16), -42);
        assert_eq!(a.read_i64(Addr::new(16)), -42);
    }

    #[test]
    fn copy_non_overlapping() {
        let mut a = Arena::new(1 << 12);
        a.write(Addr::new(0), b"xyz");
        a.copy(Addr::new(0), Addr::new(100), 3);
        assert_eq!(a.read_vec(Addr::new(100), 3), b"xyz");
    }

    #[test]
    #[should_panic]
    fn copy_overlapping_panics() {
        let mut a = Arena::new(1 << 12);
        a.copy(Addr::new(0), Addr::new(4), 8);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let mut a = Arena::new(64);
        a.write(Addr::new(60), &[0u8; 8]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let a = Arena::new(64);
        let mut buf = [0u8; 8];
        a.read_into(Addr::new(60), &mut buf);
    }

    #[test]
    fn lazily_pages() {
        let mut a = Arena::new(1 << 30); // 1 GB address space
        a.write(Addr::new(1 << 29), &[9]);
        assert_eq!(a.pages_touched(), 1);
        assert_eq!(a.read_vec(Addr::new(1 << 29), 1), vec![9]);
    }

    #[test]
    fn pages_touched_counter_is_stable() {
        let mut a = Arena::new(PAGE_SIZE as u64 * 4);
        a.write(Addr::new(0), &[1]);
        a.write(Addr::new(1), &[2]); // same page: not a new materialization
        assert_eq!(a.pages_touched(), 1);
        a.write(Addr::new(PAGE_SIZE as u64 * 3), &[3]);
        assert_eq!(a.pages_touched(), 2);
        assert_eq!(a.clone().pages_touched(), 2);
    }

    #[test]
    fn write_counter_is_monotone_and_cloned() {
        let mut a = Arena::new(1 << 12);
        assert_eq!(a.writes(), 0);
        a.write(Addr::new(0), &[1]);
        a.write_u64(Addr::new(8), 7);
        a.copy(Addr::new(0), Addr::new(64), 1); // one write
        assert_eq!(a.writes(), 3);
        assert_eq!(a.clone().writes(), 3);
    }

    #[test]
    fn write_budget_halts_at_the_exact_write() {
        let mut a = Arena::new(1 << 12);
        a.inject_halt_after_writes(2);
        a.write(Addr::new(0), &[1]);
        a.write(Addr::new(1), &[2]);
        assert!(!a.has_halted());
        let err = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            a.write(Addr::new(2), &[3]);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("fault injection"), "unexpected panic: {msg}");
        assert!(a.has_halted());
        // The halting write mutated nothing and did not count.
        assert_eq!(a.read_vec(Addr::new(2), 1), vec![0]);
        assert_eq!(a.writes(), 2);
        a.clear_halt();
        a.write(Addr::new(2), &[3]);
        assert_eq!(a.read_vec(Addr::new(0), 3), vec![1, 2, 3]);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Arena::new(1 << 12);
        a.write(Addr::new(0), &[5]);
        let b = a.clone();
        a.write(Addr::new(0), &[6]);
        assert_eq!(b.read_vec(Addr::new(0), 1), vec![5]);
    }

    #[test]
    fn first_difference_with_of_an_empty_range_is_none() {
        let mut a = Arena::new(PAGE_SIZE as u64);
        let b = Arena::new(PAGE_SIZE as u64 * 2);
        a.write(Addr::new(7), &[1]);
        let end = Addr::new(PAGE_SIZE as u64);
        assert_eq!(a.first_difference_with(end, &b, Addr::new(3), 0), None);
        assert_eq!(a.first_difference_with(Addr::new(7), &b, end, 0), None);
    }

    #[test]
    fn copying_untouched_pages_materializes_nothing() {
        let mut a = Arena::new(PAGE_SIZE as u64 * 8);
        a.write(Addr::new(PAGE_SIZE as u64 * 5), &[1]);
        a.copy(
            Addr::new(10),
            Addr::new(PAGE_SIZE as u64 * 3 + 10),
            2 * PAGE_SIZE,
        );
        assert_eq!(a.pages_touched(), 1);
        // A touched destination piece is zero-filled, not skipped.
        a.copy(Addr::new(0), Addr::new(PAGE_SIZE as u64 * 5), 1);
        assert_eq!(a.read_u32(Addr::new(PAGE_SIZE as u64 * 5)), 0);
        assert_eq!(a.pages_touched(), 1);
        assert_eq!(a.writes(), 3);
    }

    mod pages {
        use super::*;
        use proptest::prelude::*;

        const PAGES: u64 = 6;

        /// An arena offset drawn as (page, edge, raw): edges 0..4 pin it
        /// on or next to a page boundary, the rest take the raw offset.
        fn offset((page, edge, raw): (u64, u8, usize)) -> u64 {
            let within = match edge {
                0 => 0,
                1 => 1,
                2 => PAGE_SIZE - 1,
                3 => PAGE_SIZE - 2,
                _ => raw,
            };
            page * PAGE_SIZE as u64 + within as u64
        }

        fn site() -> impl Strategy<Value = (u64, u8, usize)> {
            (0..PAGES, 0u8..8, 0..PAGE_SIZE)
        }

        /// Writes one byte at each site; a zero byte materializes a page
        /// without changing what it reads as.
        fn arena_with(writes: &[((u64, u8, usize), u8)]) -> Arena {
            let mut arena = Arena::new(PAGES * PAGE_SIZE as u64);
            for &(at, byte) in writes {
                arena.write(Addr::new(offset(at)), &[byte]);
            }
            arena
        }

        fn everything(arena: &Arena) -> Vec<u8> {
            arena.read_vec(Addr::new(0), arena.len() as usize)
        }

        fn touched(arena: &Arena) -> Vec<bool> {
            arena.pages.iter().map(Option::is_some).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The page-aware copy leaves every byte where a dense copy
            /// (read out, write back) leaves it, counts as exactly one
            /// write, halts before mutating anything, and materializes a
            /// destination page only when a touched source page lands on
            /// it.
            #[test]
            fn copy_matches_a_dense_read_and_write(
                writes in prop::collection::vec((site(), 0u8..4), 0..12),
                src in site(),
                dst in site(),
                len in 0usize..2 * PAGE_SIZE,
            ) {
                let arena = arena_with(&writes);
                let (src, dst) = (offset(src), offset(dst));
                // Clamp into bounds, then shorten to keep the ranges apart.
                let len = (len as u64)
                    .min(arena.len() - src)
                    .min(arena.len() - dst)
                    .min(src.abs_diff(dst)) as usize;
                let (src, dst) = (Addr::new(src), Addr::new(dst));

                let mut model = arena.clone();
                let bytes = model.read_vec(src, len);
                model.write(dst, &bytes);

                let mut copied = arena.clone();
                copied.copy(src, dst, len);
                prop_assert_eq!(everything(&copied), everything(&model));
                prop_assert_eq!(copied.writes(), arena.writes() + 1);

                // In byte order, a destination page is materialized once a
                // touched source page lands on it (a source page the copy
                // itself materialized counts from then on).
                let mut want = touched(&arena);
                for k in 0..len {
                    let (s, d) = (src.as_usize() + k, dst.as_usize() + k);
                    want[d / PAGE_SIZE] |= want[s / PAGE_SIZE];
                }
                prop_assert_eq!(touched(&copied), want);
                prop_assert_eq!(copied.pages_touched(), touched(&copied).iter().filter(|&&t| t).count());
                if (0..len).all(|k| arena.pages[(src.as_usize() + k) / PAGE_SIZE].is_none()) {
                    prop_assert_eq!(copied.pages_touched(), arena.pages_touched());
                }

                let mut halted = arena.clone();
                halted.inject_halt_after_writes(0);
                let run = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
                    halted.copy(src, dst, len);
                }));
                prop_assert!(run.is_err());
                prop_assert!(halted.has_halted());
                prop_assert_eq!(everything(&halted), everything(&arena));
                prop_assert_eq!(touched(&halted), touched(&arena));
                prop_assert_eq!(halted.writes(), arena.writes());
            }

            /// The arena-vs-arena compare returns exactly what a byte loop
            /// over both sides' copied-out bytes returns: over pages
            /// untouched on either side or both, pages materialized with
            /// only zeros, bases misaligned against each other, and
            /// differences on page edges.
            #[test]
            fn first_difference_with_matches_a_byte_loop(
                a_writes in prop::collection::vec((site(), 0u8..4), 0..12),
                b_writes in prop::collection::vec((site(), 0u8..2), 0..6),
                at in site(),
                other_at in site(),
                len in 0usize..3 * PAGE_SIZE,
                flips in prop::collection::vec((0u8..2, site(), 1u8..=255), 0..4),
            ) {
                let mut a = arena_with(&a_writes);
                let mut b = arena_with(&b_writes);
                let (at, other_at) = (offset(at), offset(other_at));
                let len = (len as u64).min(a.len() - at).min(b.len() - other_at) as usize;
                let (at, other_at) = (Addr::new(at), Addr::new(other_at));
                // Give `b` the bytes of `a`, skipping all-zero 1 KiB
                // pieces so pages `a` leaves zero can stay untouched.
                let bytes = a.read_vec(at, len);
                for (i, piece) in bytes.chunks(1024).enumerate() {
                    if piece.iter().any(|&x| x != 0) {
                        b.write(other_at + (i * 1024) as u64, piece);
                    }
                }
                for &(side, site, mask) in &flips {
                    let arena = if side == 0 { &mut a } else { &mut b };
                    let addr = Addr::new(offset(site));
                    let byte = arena.read_vec(addr, 1)[0] ^ mask;
                    arena.write(addr, &[byte]);
                }
                let (x, y) = (a.read_vec(at, len), b.read_vec(other_at, len));
                let want = (0..len).find(|&i| x[i] != y[i]);
                prop_assert_eq!(a.first_difference_with(at, &b, other_at, len), want);
                prop_assert_eq!(b.first_difference_with(other_at, &a, at, len), want);
            }
        }
    }
}
