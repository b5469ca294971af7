//! A direct-mapped processor cache model.
//!
//! The paper's AlphaServer 4100 processors front memory with an 8 MB
//! direct-mapped, 64-byte-line board cache, and the standalone ranking of the
//! engine versions (Table 3) is a locality story told by that cache: the
//! mirroring versions sweep a database-sized mirror through it, while the
//! improved log touches only a compact, reused log region.
//!
//! This model tracks one tag per line and reports hit/miss counts per access;
//! the caller converts those to virtual time using a
//! [`CostModel`](crate::CostModel).

use crate::addr::Addr;

/// Hit/miss counts returned by a cache access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Number of lines that hit.
    pub hits: u64,
    /// Number of lines that missed.
    pub misses: u64,
}

impl CacheOutcome {
    /// Combines two outcomes.
    #[inline]
    pub fn merge(self, other: CacheOutcome) -> CacheOutcome {
        CacheOutcome {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A direct-mapped cache with configurable capacity and line size.
///
/// # Examples
///
/// ```
/// use dsnrep_simcore::{Addr, DirectMappedCache};
///
/// // A tiny 4-line cache with 64-byte lines.
/// let mut cache = DirectMappedCache::new(256, 64);
/// let cold = cache.touch(Addr::new(0), 64);
/// assert_eq!((cold.hits, cold.misses), (0, 1));
/// let warm = cache.touch(Addr::new(0), 64);
/// assert_eq!((warm.hits, warm.misses), (1, 0));
/// // 256 bytes further on maps to the same line and evicts it.
/// cache.touch(Addr::new(256), 64);
/// let evicted = cache.touch(Addr::new(0), 64);
/// assert_eq!(evicted.misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct DirectMappedCache {
    /// Tag per line, in fixed-size chunks of [`CHUNK_LINES`] lines: the
    /// full line number, or `u32::MAX` for an invalid line. A chunk is
    /// allocated on its first touch and a missing chunk reads as all
    /// invalid, so a machine that touches a few lines of its 8 MB board
    /// cache pays for a few 4 KiB chunks, not a 512 KiB array. 32-bit
    /// tags halve the host footprint — which a many-node cell multiplies
    /// by machine count — and suffice for any line number below
    /// `u32::MAX`, i.e. 256 GB of simulated address space
    /// ([`touch_range`](DirectMappedCache::touch_range) asserts the
    /// bound).
    chunks: Vec<Option<TagChunk>>,
    /// Indices of the `Some` entries of `chunks`, so
    /// [`flush`](DirectMappedCache::flush) costs O(materialized chunks).
    materialized: Vec<usize>,
    line_shift: u32,
    index_mask: u64,
    total: CacheOutcome,
    /// Number of lines holding a valid tag. A direct-mapped fill either
    /// replaces a valid line (occupancy unchanged) or claims an invalid
    /// one (occupancy +1), so a counter maintained on the miss path is
    /// exact without ever rescanning the tag array.
    occupied: u64,
}

const INVALID: u32 = u32::MAX;

/// Lines per tag chunk: 4 KiB of tags.
const CHUNK_LINES: usize = 1024;

type TagChunk = Box<[u32; CHUNK_LINES]>;

/// A chunk no line has touched yet: every tag invalid. Out of line and
/// cold, so the touch paths inline only the presence check.
#[cold]
#[inline(never)]
fn invalid_chunk() -> TagChunk {
    Box::new([INVALID; CHUNK_LINES])
}

impl DirectMappedCache {
    /// Creates a cache of `capacity` bytes with `line_size`-byte lines.
    /// Costs O(capacity / (`line_size` × 1024)): tag storage is allocated
    /// as lines are first touched.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not a power of two, or if `capacity`
    /// is smaller than `line_size`.
    pub fn new(capacity: u64, line_size: u64) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "cache capacity must be a power of two"
        );
        assert!(
            line_size.is_power_of_two(),
            "cache line size must be a power of two"
        );
        assert!(capacity >= line_size, "cache must hold at least one line");
        let lines = capacity / line_size;
        let slots = usize::try_from(lines.div_ceil(CHUNK_LINES as u64)).expect("cache too large");
        DirectMappedCache {
            chunks: vec![None; slots],
            materialized: Vec::new(),
            line_shift: line_size.trailing_zeros(),
            index_mask: lines - 1,
            total: CacheOutcome::default(),
            occupied: 0,
        }
    }

    /// Creates the paper's board cache: 8 MB, direct-mapped, 64-byte lines.
    pub fn alpha_board_cache() -> Self {
        DirectMappedCache::new(8 * 1024 * 1024, 64)
    }

    /// The line size in bytes.
    #[inline]
    pub fn line_size(&self) -> u64 {
        1 << self.line_shift
    }

    /// The capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        (self.index_mask + 1) << self.line_shift
    }

    /// The tag chunk holding line index `idx`'s tag, materialized
    /// all-invalid on first touch.
    #[inline]
    fn chunk_mut(&mut self, idx: usize) -> &mut [u32; CHUNK_LINES] {
        let slot = idx / CHUNK_LINES;
        let materialized = &mut self.materialized;
        self.chunks[slot].get_or_insert_with(|| {
            materialized.push(slot);
            invalid_chunk()
        })
    }

    /// Accesses the `len` bytes at `addr` (read or write: the model is
    /// write-allocate and does not distinguish), returning per-line hit and
    /// miss counts.
    ///
    /// A zero-length access touches nothing.
    #[inline]
    pub fn touch(&mut self, addr: Addr, len: u64) -> CacheOutcome {
        self.touch_range(addr, len)
    }

    /// Bulk form of [`touch`](DirectMappedCache::touch): walks the line
    /// range as index-contiguous runs inside one tag chunk, so a large
    /// sequential access (a mirror copy, a log append) costs one chunk
    /// lookup and bounds check per 1024 lines instead of per line. The
    /// hit/miss outcome is identical to touching each line in order.
    pub fn touch_range(&mut self, addr: Addr, len: u64) -> CacheOutcome {
        if len == 0 {
            return CacheOutcome::default();
        }
        let first = addr.as_u64() >> self.line_shift;
        let last = (addr.as_u64() + len - 1) >> self.line_shift;
        assert!(
            last < u64::from(u32::MAX),
            "simulated address space exceeds the 32-bit line-tag range"
        );
        // Word-sized accesses — the bulk of all simulated stores — touch a
        // single line; skip the run-walk machinery for them.
        if first == last {
            let idx = (first & self.index_mask) as usize;
            let tag = &mut self.chunk_mut(idx)[idx % CHUNK_LINES];
            let out = if *tag == first as u32 {
                CacheOutcome { hits: 1, misses: 0 }
            } else {
                let fill = *tag == INVALID;
                *tag = first as u32;
                self.occupied += u64::from(fill);
                CacheOutcome { hits: 0, misses: 1 }
            };
            self.total = self.total.merge(out);
            return out;
        }
        let mut out = CacheOutcome::default();
        let lines = self.index_mask + 1;
        let mut line = first;
        while line <= last {
            let idx = (line & self.index_mask) as usize;
            let off = idx % CHUNK_LINES;
            // Lines map to consecutive indices until the index wraps or
            // the chunk ends.
            let run = (CHUNK_LINES - off)
                .min((lines - idx as u64) as usize)
                .min((last - line + 1) as usize);
            let mut fills = 0;
            let chunk = self.chunk_mut(idx);
            for (expect, tag) in (line as u32..).zip(&mut chunk[off..off + run]) {
                if *tag == expect {
                    out.hits += 1;
                } else {
                    out.misses += 1;
                    fills += u64::from(*tag == INVALID);
                    *tag = expect;
                }
            }
            self.occupied += fills;
            line += run as u64;
        }
        self.total = self.total.merge(out);
        out
    }

    /// Cumulative hit/miss counts since construction or the last
    /// [`flush`](DirectMappedCache::flush).
    #[inline]
    pub fn stats(&self) -> CacheOutcome {
        self.total
    }

    /// Number of lines currently holding valid data, for occupancy gauges.
    #[inline]
    pub fn occupied_lines(&self) -> u64 {
        self.occupied
    }

    /// Invalidates every line (e.g. the cold cache after a reboot) and
    /// clears the cumulative statistics.
    ///
    /// Frees the materialized tag chunks: the cost is O(chunks touched).
    pub fn flush(&mut self) {
        for slot in self.materialized.drain(..) {
            self.chunks[slot] = None;
        }
        self.total = CacheOutcome::default();
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fill_misses_once_per_line() {
        let mut c = DirectMappedCache::new(1024, 64);
        let out = c.touch(Addr::new(0), 1024);
        assert_eq!(out.misses, 16);
        assert_eq!(out.hits, 0);
        let out = c.touch(Addr::new(0), 1024);
        assert_eq!(out.hits, 16);
        assert_eq!(out.misses, 0);
    }

    #[test]
    fn access_spanning_two_lines() {
        let mut c = DirectMappedCache::new(1024, 64);
        let out = c.touch(Addr::new(60), 8);
        assert_eq!(out.misses, 2);
    }

    #[test]
    fn conflict_eviction() {
        let mut c = DirectMappedCache::new(128, 64); // two lines
        c.touch(Addr::new(0), 1);
        c.touch(Addr::new(128), 1); // same index as 0
        let out = c.touch(Addr::new(0), 1);
        assert_eq!(out.misses, 1);
    }

    #[test]
    fn distinct_indices_coexist() {
        let mut c = DirectMappedCache::new(128, 64);
        c.touch(Addr::new(0), 1);
        c.touch(Addr::new(64), 1);
        let a = c.touch(Addr::new(0), 1);
        let b = c.touch(Addr::new(64), 1);
        assert_eq!(a.hits + b.hits, 2);
    }

    #[test]
    fn zero_length_touch_is_free() {
        let mut c = DirectMappedCache::new(128, 64);
        let out = c.touch(Addr::new(0), 0);
        assert_eq!(out, CacheOutcome::default());
        assert_eq!(c.stats(), CacheOutcome::default());
    }

    #[test]
    fn flush_invalidates_and_resets_stats() {
        let mut c = DirectMappedCache::new(128, 64);
        c.touch(Addr::new(0), 64);
        assert_eq!(c.occupied_lines(), 1);
        c.flush();
        assert_eq!(c.stats(), CacheOutcome::default());
        assert_eq!(c.occupied_lines(), 0);
        let out = c.touch(Addr::new(0), 64);
        assert_eq!(out.misses, 1);
    }

    /// Occupancy counts valid lines: fills raise it, conflict evictions
    /// and re-hits leave it unchanged, and it saturates at the line count.
    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = DirectMappedCache::new(256, 64); // four lines
        assert_eq!(c.occupied_lines(), 0);
        c.touch(Addr::new(0), 128); // fills two lines
        assert_eq!(c.occupied_lines(), 2);
        c.touch(Addr::new(0), 64); // hit: no change
        assert_eq!(c.occupied_lines(), 2);
        c.touch(Addr::new(256), 64); // conflict-evicts line 0: no change
        assert_eq!(c.occupied_lines(), 2);
        c.touch(Addr::new(0), 4096); // sweep far larger than the cache
        assert_eq!(c.occupied_lines(), 4);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = DirectMappedCache::new(256, 64);
        c.touch(Addr::new(0), 256);
        c.touch(Addr::new(0), 256);
        let s = c.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn alpha_preset_dimensions() {
        let c = DirectMappedCache::alpha_board_cache();
        assert_eq!(c.capacity(), 8 * 1024 * 1024);
        assert_eq!(c.line_size(), 64);
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = DirectMappedCache::new(100, 64);
    }

    /// The obvious model: one flat tag per line, touched line by line.
    /// It shares no storage or walk with the chunked cache.
    struct FlatCache {
        tags: Vec<u32>,
        line_shift: u32,
        total: CacheOutcome,
    }

    impl FlatCache {
        fn new(capacity: u64, line_size: u64) -> Self {
            FlatCache {
                tags: vec![INVALID; (capacity / line_size) as usize],
                line_shift: line_size.trailing_zeros(),
                total: CacheOutcome::default(),
            }
        }

        fn touch(&mut self, addr: u64, len: u64) -> CacheOutcome {
            let mut out = CacheOutcome::default();
            if len == 0 {
                return out;
            }
            let first = addr >> self.line_shift;
            let last = (addr + len - 1) >> self.line_shift;
            for line in first..=last {
                let idx = (line % self.tags.len() as u64) as usize;
                if self.tags[idx] == line as u32 {
                    out.hits += 1;
                } else {
                    out.misses += 1;
                    self.tags[idx] = line as u32;
                }
            }
            self.total = self.total.merge(out);
            out
        }

        fn flush(&mut self) {
            self.tags.fill(INVALID);
            self.total = CacheOutcome::default();
        }

        fn occupied(&self) -> u64 {
            self.tags.iter().filter(|&&t| t != INVALID).count() as u64
        }
    }

    /// The chunked cache's tags as one flat array, a missing chunk read
    /// as all-invalid.
    fn flat_tags(cache: &DirectMappedCache) -> Vec<u32> {
        (0..=cache.index_mask as usize)
            .map(|idx| {
                cache.chunks[idx / CHUNK_LINES]
                    .as_ref()
                    .map_or(INVALID, |c| c[idx % CHUNK_LINES])
            })
            .collect()
    }

    #[test]
    fn chunks_materialize_on_first_touch_and_flush_frees_them() {
        let mut c = DirectMappedCache::alpha_board_cache();
        assert_eq!(c.chunks.len(), 128);
        assert!(c.materialized.is_empty());
        c.touch(Addr::new(0), 8);
        // Line 1024 is the first line of the second chunk; the access
        // straddles the boundary.
        c.touch(Addr::new(1023 * 64), 128);
        assert_eq!(c.materialized, vec![0, 1]);
        assert_eq!(c.occupied_lines(), 3);
        c.flush();
        assert!(c.materialized.is_empty());
        assert!(c.chunks.iter().all(Option::is_none));
        assert_eq!(c.touch(Addr::new(0), 8).misses, 1);
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `touch_range` matches a flat per-line model outcome for
            /// outcome, in stats, occupancy and final tag state, for
            /// capacities below, at and several times the tag-chunk size,
            /// with flushes interleaved — including ranges much larger
            /// than the cache (multiple index wraps).
            #[test]
            fn touch_range_matches_per_line_reference(
                capacity_lines_log2 in 1u32..13,
                accesses in prop::collection::vec((0u64..1 << 20, 0u64..1 << 18, 0u8..16), 1..60),
            ) {
                let line = 64u64;
                let capacity = line << capacity_lines_log2;
                let mut fast = DirectMappedCache::new(capacity, line);
                let mut oracle = FlatCache::new(capacity, line);
                prop_assert_eq!(fast.capacity(), capacity);
                for &(addr, len, op) in &accesses {
                    // One access in 16 flushes first; half are short
                    // (mostly single-line), the rest span up to 4096
                    // lines.
                    if op == 0 {
                        fast.flush();
                        oracle.flush();
                    }
                    let len = if op < 8 { len % 100 } else { len };
                    let got = fast.touch_range(Addr::new(addr), len);
                    let want = oracle.touch(addr, len);
                    prop_assert_eq!(got, want, "outcome diverged at addr {} len {}", addr, len);
                    prop_assert_eq!(fast.occupied_lines(), oracle.occupied());
                    prop_assert_eq!(fast.stats(), oracle.total);
                }
                prop_assert_eq!(flat_tags(&fast), oracle.tags, "tag state diverged");
            }
        }
    }
}
