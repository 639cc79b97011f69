//! Set-associative cache model with LRU replacement.
//!
//! Both the instruction and data side of the XR32 timing model use this
//! cache. Only timing is modeled (hit/miss); data always comes from the
//! backing [`crate::mem::Memory`].

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, non-power-of-
    /// two line size, or capacity not divisible by `line_bytes * ways`).
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two() && self.line_bytes >= 4);
        assert!(self.ways >= 1);
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines >= self.ways && lines.is_multiple_of(self.ways),
            "cache capacity must be a whole number of ways"
        );
        lines / self.ways
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// One cache way. `tag` is the full line address (`addr >>
/// line_shift`), or [`INVALID`] for an empty way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    lru: u64,
}

/// The tag of an empty way. Never a line address: those are at least
/// two bits shorter than `u64`, since lines are at least 4 bytes.
const INVALID: u64 = u64::MAX;

/// A set-associative LRU cache (timing model only).
///
/// Lookups are divide-free: the line address is a shift, the set index
/// a mask when the set count is a power of two (every shipped
/// geometry; `%` otherwise), and the tag the whole line address. A
/// repeat access to the line the previous access touched — most
/// instruction fetches — hits without a tag scan or an LRU tick: that
/// line is resident and already the most recently used, so skipping
/// the tick leaves every later victim choice unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets - 1` when `sets` is a power of two.
    set_mask: Option<u64>,
    lines: Vec<Line>, // sets * ways
    stats: CacheStats,
    tick: u64,
    /// Line address of the previous access, or [`INVALID`] after
    /// construction, [`Cache::reset`] and [`Cache::invalidate`].
    last: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            config,
            sets: sets as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            lines: vec![
                Line {
                    tag: INVALID,
                    lru: 0,
                };
                sets * config.ways
            ],
            stats: CacheStats::default(),
            tick: 0,
            last: INVALID,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        for line in &mut self.lines {
            line.tag = INVALID;
        }
        self.stats = CacheStats::default();
        self.tick = 0;
        self.last = INVALID;
    }

    /// The ways of the set holding line address `line`.
    fn set_of(&mut self, line: u64) -> &mut [Line] {
        let range = self.set_range(line);
        &mut self.lines[range]
    }

    /// The index range in `lines` of the set holding line address
    /// `line`.
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        } as usize;
        let ways = self.config.ways;
        set * ways..(set + 1) * ways
    }

    /// Performs one access; returns `true` on hit. A miss fills the line
    /// (allocate-on-miss for both reads and writes).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        if line == self.last {
            self.stats.hits += 1;
            return true;
        }
        self.last = line;
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        if let Some(way) = set.iter_mut().find(|w| w.tag == line) {
            way.lru = tick;
            self.stats.hits += 1;
            return true;
        }
        // Miss: replace the first empty way, else the LRU one.
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.tag == INVALID { 0 } else { w.lru })
            .expect("ways >= 1");
        *victim = Line {
            tag: line,
            lru: tick,
        };
        self.stats.misses += 1;
        false
    }

    /// Whether line address `line` is resident.
    pub(crate) fn holds(&self, line: u64) -> bool {
        self.lines[self.set_range(line)]
            .iter()
            .any(|w| w.tag == line)
    }

    /// Makes resident line address `line` the most recently used of its
    /// set, as a hit on it would, without counting an access.
    pub(crate) fn touch(&mut self, line: u64) {
        if line == self.last {
            return;
        }
        self.last = line;
        self.tick += 1;
        let tick = self.tick;
        let way = self.set_of(line).iter_mut().find(|w| w.tag == line);
        way.expect("touched lines are resident").lru = tick;
    }

    /// The LRU clock: ticked by every access that does not repeat the
    /// previous access's line.
    pub(crate) fn clock(&self) -> u64 {
        self.tick
    }

    /// Forgets the previous access's line, so that the next access
    /// ticks the clock even if it repeats that line. No hit, miss or
    /// victim choice changes: that line is already the most recently
    /// used of its set.
    pub(crate) fn forget_last(&mut self) {
        self.last = INVALID;
    }

    /// The resident lines accessed since the clock read `since`, least
    /// recently used first. Exact when the previous line was forgotten
    /// at `since` ([`Cache::forget_last`]), so that every access since
    /// ticked.
    pub(crate) fn used_since(&self, since: u64) -> Box<[u64]> {
        let mut used: Vec<Line> = self
            .lines
            .iter()
            // The stamp first: it rarely passes, and a memo scans both
            // caches on every call it records.
            .filter(|w| w.lru > since && w.tag != INVALID)
            .copied()
            .collect();
        used.sort_unstable_by_key(|w| w.lru);
        used.iter().map(|w| w.tag).collect()
    }

    /// Counts `hits` accesses that hit, without modeling them.
    pub(crate) fn add_hits(&mut self, hits: u64) {
        self.stats.hits += hits;
    }

    /// Invalidates the line holding `addr`, if resident, and returns
    /// whether a line was dropped. Models a corrupted tag: the next
    /// access to the address misses and refills. Statistics are not
    /// touched — this is a state change, not an access.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.last = INVALID;
        match self.set_of(line).iter_mut().find(|w| w.tag == line) {
            Some(way) => {
                way.tag = INVALID;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    /// The division-based cache the divide-free one must match access
    /// for access: set and tag by `/` and `%`, a valid bit per way, and
    /// an LRU tick on every access.
    struct RefCache {
        config: CacheConfig,
        sets: usize,
        lines: Vec<(u64, bool, u64)>, // (tag, valid, lru)
        stats: CacheStats,
        tick: u64,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            RefCache {
                config,
                sets,
                lines: vec![(0, false, 0); sets * config.ways],
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        fn reset(&mut self) {
            for line in &mut self.lines {
                line.1 = false;
            }
            self.stats = CacheStats::default();
            self.tick = 0;
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let line_addr = addr / self.config.line_bytes as u64;
            let set = (line_addr % self.sets as u64) as usize;
            (set * self.config.ways, line_addr / self.sets as u64)
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let (base, tag) = self.locate(addr);
            let ways = self.config.ways;
            for line in &mut self.lines[base..base + ways] {
                if line.1 && line.0 == tag {
                    line.2 = self.tick;
                    self.stats.hits += 1;
                    return true;
                }
            }
            let victim = (0..ways)
                .min_by_key(|&i| {
                    let l = &self.lines[base + i];
                    if l.1 {
                        l.2
                    } else {
                        0
                    }
                })
                .expect("ways >= 1");
            self.lines[base + victim] = (tag, true, self.tick);
            self.stats.misses += 1;
            false
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            let (base, tag) = self.locate(addr);
            for line in &mut self.lines[base..base + self.config.ways] {
                if line.1 && line.0 == tag {
                    line.1 = false;
                    return true;
                }
            }
            false
        }
    }

    /// SplitMix64: a seeded, dependency-free stream for the tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Drives `Cache` and `RefCache` through one seeded stream mixing
    /// repeats of the previous line, same-set conflicts, scattered
    /// addresses, invalidations and resets, and checks every answer.
    fn check_against_reference(config: CacheConfig, seed: u64) {
        let mut cache = Cache::new(config);
        let mut reference = RefCache::new(config);
        let mut rng = Rng(seed);
        let line = config.line_bytes as u64;
        let stride = line * config.sets() as u64; // same set, next tag
        let span = 4 * config.size_bytes as u64;
        let mut addr = 0u64;
        for step in 0..20_000 {
            addr = match rng.below(100) {
                0..=39 => (addr & !(line - 1)) + rng.below(line),
                40..=59 => addr + stride * (1 + rng.below(config.ways as u64 + 1)),
                60..=89 => rng.below(span),
                90..=98 => {
                    let at = if rng.below(2) == 0 {
                        addr
                    } else {
                        rng.below(span)
                    };
                    assert_eq!(
                        cache.invalidate(at),
                        reference.invalidate(at),
                        "{config:?} seed {seed} step {step}: invalidate {at:#x}"
                    );
                    continue;
                }
                _ => {
                    cache.reset();
                    reference.reset();
                    continue;
                }
            };
            assert_eq!(
                cache.access(addr),
                reference.access(addr),
                "{config:?} seed {seed} step {step}: access {addr:#x}"
            );
        }
        assert_eq!(cache.stats(), reference.stats, "{config:?} seed {seed}");
    }

    #[test]
    fn matches_division_based_reference() {
        let (default, small) = (CpuConfig::default(), CpuConfig::minimal());
        let geometries = [
            default.icache,
            default.dcache,
            small.icache,
            small.dcache,
            CacheConfig {
                size_bytes: 256,
                line_bytes: 16,
                ways: 1,
            },
            // 3 sets and 5 sets: indexed by `%`, not by mask.
            CacheConfig {
                size_bytes: 96,
                line_bytes: 16,
                ways: 2,
            },
            CacheConfig {
                size_bytes: 640,
                line_bytes: 32,
                ways: 4,
            },
        ];
        for config in geometries {
            for seed in 1..=4 {
                check_against_reference(config, seed);
            }
        }
    }

    #[test]
    fn invalidating_the_most_recent_line_forces_a_miss() {
        let mut c = tiny();
        assert!(!c.access(0x104));
        assert!(c.access(0x100), "repeat of the previous line hits");
        assert!(c.invalidate(0x108));
        assert!(!c.access(0x10c), "dropped line refills");
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 2 });
    }

    fn tiny() -> Cache {
        // 4 lines of 16 bytes, direct mapped.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 1,
        })
    }

    #[test]
    fn geometry_computed() {
        let c = CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            ways: 2,
        };
        assert_eq!(c.sets(), 256);
    }

    #[test]
    #[should_panic(expected = "whole number of ways")]
    fn inconsistent_geometry_panics() {
        let _ = CacheConfig {
            size_bytes: 48,
            line_bytes: 16,
            ways: 2,
        }
        .sets();
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10c)); // same 16-byte line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = tiny();
        // 4 sets of 16B: addresses 0x000 and 0x040 map to set 0.
        assert!(!c.access(0x000));
        assert!(!c.access(0x040));
        assert!(!c.access(0x000), "conflict should have evicted");
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        });
        assert!(!c.access(0x000));
        assert!(!c.access(0x040)); // same set, other way
        assert!(c.access(0x000));
        assert!(c.access(0x040));
    }

    #[test]
    fn lru_replacement_order() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32,
            line_bytes: 16,
            ways: 2,
        });
        // One set, two ways.
        c.access(0x00); // A
        c.access(0x10); // B
        c.access(0x00); // A again (B becomes LRU)
        c.access(0x20); // C evicts B
        assert!(c.access(0x00), "A should still be resident");
        assert!(!c.access(0x10), "B was evicted");
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.access(0x0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0x0));
    }

    #[test]
    fn hit_rate_of_fresh_cache_is_one() {
        assert_eq!(tiny().stats().hit_rate(), 1.0);
    }

    #[test]
    fn invalidate_forces_next_access_to_miss() {
        let mut c = tiny();
        c.access(0x100);
        assert!(c.access(0x100), "resident line hits");
        assert!(c.invalidate(0x100), "line was resident");
        assert!(!c.invalidate(0x100), "already gone");
        assert!(!c.access(0x100), "corrupted tag forces a refill");
        // Invalidation itself never counts as an access.
        assert_eq!(c.stats().accesses(), 3);
    }
}
