//! Set-associative cache model with LRU replacement.
//!
//! Used for both the per-SM L1 (write-evict: stores bypass and invalidate,
//! matching Fermi's write-through-to-L2 policy for globals) and the shared
//! L2 slice. The model is a plain tag store — no data is held, because the
//! simulator only needs hit/miss streams for the counter and latency models.

use serde::{Deserialize, Serialize};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    /// Tag present.
    Hit,
    /// Tag absent; line (re)filled.
    Miss,
}

/// A set-associative LRU tag store: one flat array of `sets × ways` tags,
/// where set `s` owns `tags[s * ways..][..ways]` and keeps its first
/// `fill[s]` slots valid, most-recently-used first.
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    fill: Vec<u32>,
    ways: usize,
    line: u64,
    set_shift: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `size` bytes with `line`-byte lines and `assoc`
    /// ways. Size is rounded down to a power-of-two set count (at least 1).
    pub fn new(size: usize, line: usize, assoc: usize) -> Cache {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(assoc >= 1, "need at least one way");
        let num_lines = (size / line).max(1);
        // Round the set count *down* to a power of two so indexing is a mask.
        let raw_sets = (num_lines / assoc).max(1);
        let num_sets = 1usize << (usize::BITS - 1 - raw_sets.leading_zeros());
        Cache {
            tags: vec![0; num_sets * assoc],
            fill: vec![0; num_sets],
            ways: assoc,
            line: line as u64,
            set_shift: line.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// The set an address maps to, its tag, and the tag's position among
    /// the set's valid tags.
    fn lookup(&self, addr: u64) -> (usize, u64, Option<usize>) {
        let tag = addr / self.line;
        let set = ((addr >> self.set_shift) & self.set_mask) as usize;
        let base = set * self.ways;
        let valid = &self.tags[base..base + self.fill[set] as usize];
        (set, tag, valid.iter().position(|&t| t == tag))
    }

    /// Performs a read access at a byte address; allocates on miss.
    pub fn read(&mut self, addr: u64) -> Access {
        let (set, tag, found) = self.lookup(addr);
        let base = set * self.ways;
        match found {
            Some(pos) => {
                // Move to MRU.
                self.tags[base..=base + pos].rotate_right(1);
                self.hits += 1;
                Access::Hit
            }
            None => {
                // Insert at MRU; a full set drops its LRU tag off the end.
                let fill = &mut self.fill[set];
                if (*fill as usize) < self.ways {
                    *fill += 1;
                }
                let valid = &mut self.tags[base..base + *fill as usize];
                valid.rotate_right(1);
                valid[0] = tag;
                self.misses += 1;
                Access::Miss
            }
        }
    }

    /// Performs a write access. Policy: write-through without allocate, and
    /// the written line is *evicted* if present (Fermi L1 global-store
    /// semantics), keeping subsequent reads honest.
    pub fn write_evict(&mut self, addr: u64) {
        if let (set, _, Some(pos)) = self.lookup(addr) {
            let base = set * self.ways;
            let fill = self.fill[set] as usize;
            self.tags
                .copy_within(base + pos + 1..base + fill, base + pos);
            self.fill[set] -= 1;
        }
    }

    /// Write access that allocates (used for the L2, which caches stores).
    pub fn write_allocate(&mut self, addr: u64) -> Access {
        self.read(addr)
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of sets (exposed for tests).
    pub fn num_sets(&self) -> usize {
        self.fill.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(16 * 1024, 128, 4);
        assert_eq!(c.read(0x1000), Access::Miss);
        assert_eq!(c.read(0x1000), Access::Hit);
        assert_eq!(c.read(0x1004), Access::Hit); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_lines_miss_independently() {
        let mut c = Cache::new(16 * 1024, 128, 4);
        assert_eq!(c.read(0), Access::Miss);
        assert_eq!(c.read(128), Access::Miss);
        assert_eq!(c.read(0), Access::Hit);
    }

    #[test]
    fn lru_evicts_oldest_in_set() {
        // Direct construction of a tiny cache: 4 lines, 2 ways, 2 sets.
        let mut c = Cache::new(512, 128, 2);
        assert_eq!(c.num_sets(), 2);
        // Three lines mapping to the same set (stride = line * num_sets).
        let stride = 128 * 2;
        assert_eq!(c.read(0), Access::Miss);
        assert_eq!(c.read(stride), Access::Miss);
        assert_eq!(c.read(2 * stride), Access::Miss); // evicts addr 0
        assert_eq!(c.read(0), Access::Miss); // was evicted
        assert_eq!(c.read(2 * stride), Access::Hit);
    }

    #[test]
    fn mru_promotion_protects_hot_line() {
        let mut c = Cache::new(512, 128, 2);
        let stride = 128 * 2;
        c.read(0);
        c.read(stride);
        c.read(0); // promote
        c.read(2 * stride); // evicts `stride`, not 0
        assert_eq!(c.read(0), Access::Hit);
        assert_eq!(c.read(stride), Access::Miss);
    }

    #[test]
    fn write_evict_removes_line() {
        let mut c = Cache::new(16 * 1024, 128, 4);
        c.read(0x2000);
        c.write_evict(0x2000);
        assert_eq!(c.read(0x2000), Access::Miss);
    }

    #[test]
    fn write_allocate_installs_line() {
        let mut c = Cache::new(16 * 1024, 128, 4);
        assert_eq!(c.write_allocate(0x3000), Access::Miss);
        assert_eq!(c.read(0x3000), Access::Hit);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(1024, 128, 2); // 8 lines
                                              // Stream 64 distinct lines twice: second pass still misses (capacity).
        for pass in 0..2 {
            for i in 0..64u64 {
                let r = c.read(i * 128);
                if pass == 1 {
                    assert_eq!(r, Access::Miss);
                }
            }
        }
    }

    #[test]
    fn working_set_smaller_than_cache_hits_on_second_pass() {
        let mut c = Cache::new(16 * 1024, 128, 8); // 128 lines
        for i in 0..32u64 {
            c.read(i * 128);
        }
        for i in 0..32u64 {
            assert_eq!(c.read(i * 128), Access::Hit);
        }
    }

    /// The per-set `Vec` tag store the flat layout replaced: each set's
    /// tags most-recently-used first.
    struct VecLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
        line: u64,
    }

    impl VecLru {
        fn set_and_tag(&self, addr: u64) -> (usize, u64) {
            let tag = addr / self.line;
            (tag as usize % self.sets.len(), tag)
        }

        fn read(&mut self, addr: u64) -> Access {
            let (set, tag) = self.set_and_tag(addr);
            let s = &mut self.sets[set];
            if let Some(pos) = s.iter().position(|&t| t == tag) {
                let t = s.remove(pos);
                s.insert(0, t);
                Access::Hit
            } else {
                s.insert(0, tag);
                s.truncate(self.ways);
                Access::Miss
            }
        }

        fn write_evict(&mut self, addr: u64) {
            let (set, tag) = self.set_and_tag(addr);
            self.sets[set].retain(|&t| t != tag);
        }
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = Cache::new(1024, 128, 2);
        c.read(0);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.read(0), Access::Miss);
    }

    #[test]
    fn flat_tag_store_keeps_the_per_set_lru_order() {
        // 4 sets x 3 ways of 32-byte lines; addresses drawn from 64 lines so
        // every set sees hits, evictions and write-evicts.
        let mut flat = Cache::new(4 * 3 * 32, 32, 3);
        assert_eq!(flat.num_sets(), 4);
        let mut reference = VecLru {
            sets: vec![Vec::new(); 4],
            ways: 3,
            line: 32,
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 64) * 32 + (x >> 40) % 32;
            if x.is_multiple_of(5) {
                flat.write_evict(addr);
                reference.write_evict(addr);
            } else {
                assert_eq!(flat.read(addr), reference.read(addr), "step {step}");
            }
        }
        for (set, tags) in reference.sets.iter().enumerate() {
            let valid = &flat.tags[set * 3..set * 3 + flat.fill[set] as usize];
            assert_eq!(valid, tags.as_slice(), "set {set}");
        }
    }
}
