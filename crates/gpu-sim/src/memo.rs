//! Launch memoization: a content-addressed cache over pure launch
//! simulations.
//!
//! [`crate::engine::simulate_launch`] is a pure function — every launch
//! builds fresh L1/L2 state and shares nothing with its neighbours — so two
//! launches with identical sampled block traces, launch geometry, and GPU
//! configuration produce identical [`LaunchResult`]s *by construction*.
//! Multi-pass reductions, multi-sweep stencils, and repeated-grid sweep jobs
//! re-simulate exactly such structurally identical launches; [`SimCache`]
//! recognises them by hashing the trace content and replays the stored
//! result instead.
//!
//! The cache key is a 128-bit digest of (content version, extrapolation
//! mode, GPU fingerprint, launch config, sampled block traces) computed in a
//! **single pass** by [`Bf128Hasher`] — two independently mixed 64-bit lanes
//! over the same byte stream, so accidental collisions are vanishingly
//! unlikely at sweep scale (tens of thousands of launches) without paying
//! for two full SipHash walks over the traces. The hasher is deliberately
//! *not* `DefaultHasher`: its output is stable across processes and
//! executions, which is what lets the key double as the on-disk identity.
//! An untagged kernel builds its sampled traces on every call (the key
//! hashes them); a kernel with a [`KernelTrace::content_tag`] is keyed from
//! the tag and builds traces only on a miss. A hit skips the expensive
//! cycle-detailed SM simulation either way.
//!
//! ## Disk tier
//!
//! A `SimCache` optionally layers over a persistent, cross-process
//! [`crate::diskcache::DiskCache`] ([`SimCache::with_disk`] /
//! [`SimCache::from_env`]). Memory misses then fall through to the disk
//! index; disk hits are promoted into memory and new results are appended
//! to the log, so repeated `train`/`bench`/serve runs against the same
//! `BF_SIM_CACHE_DIR` skip simulation entirely for launches any previous
//! run has seen. [`SIM_CONTENT_VERSION`] is folded into every key: bump it
//! whenever simulator semantics change and all stale disk entries
//! self-invalidate.
//!
//! A `SimCache` is `Sync` and intended to be shared across the launches of
//! one application or a whole collection sweep. Process-wide hit/miss
//! totals are additionally tracked so drivers like `bench_sim` can report a
//! hit rate without threading cache handles through every collection API.
//! Set `BF_SIM_CACHE=0` (or `off`) to disable memoization in the stock
//! profiling paths ([`SimCache::from_env`] then yields no cache); results
//! are bit-identical either way.

use crate::arch::GpuConfig;
use crate::diskcache::{self, DiskCache};
use crate::engine::{sample_blocks, simulate_sampled_launch_with, EngineOptions, LaunchResult};
use crate::trace::{BlockTrace, KernelTrace, LaunchConfig};
use crate::Result;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version of the simulator's *observable semantics*. Folded into every
/// cache key (memory and disk), so bumping it orphans all previously stored
/// results. Bump whenever any change alters the counters or timing a launch
/// produces.
pub const SIM_CONTENT_VERSION: u64 = 1;

/// Cache hit/miss totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Launches answered from the cache.
    pub hits: u64,
    /// Launches that had to be simulated.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Process-wide totals, aggregated over every [`SimCache`] instance.
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
/// Disk-tier totals: a disk hit also counts as a cache hit above; a disk
/// miss means the launch was absent from both tiers of a disk-backed cache.
static GLOBAL_DISK_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DISK_MISSES: AtomicU64 = AtomicU64::new(0);

/// Returns the process-wide cache totals accumulated since the last
/// [`reset_global_cache_stats`].
pub fn global_cache_stats() -> CacheStats {
    CacheStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
    }
}

/// Process-wide disk-tier totals (zero unless a disk-backed cache is in
/// use). A disk hit is a launch that a *previous process* already paid for.
pub fn global_disk_cache_stats() -> CacheStats {
    CacheStats {
        hits: GLOBAL_DISK_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_DISK_MISSES.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide cache totals (bench harnesses call this between
/// scenarios).
pub fn reset_global_cache_stats() {
    GLOBAL_HITS.store(0, Ordering::Relaxed);
    GLOBAL_MISSES.store(0, Ordering::Relaxed);
    GLOBAL_DISK_HITS.store(0, Ordering::Relaxed);
    GLOBAL_DISK_MISSES.store(0, Ordering::Relaxed);
}

/// A streaming 128-bit hasher: two 64-bit lanes fed the same byte stream
/// with different seeds and a Murmur3-style finalizer mix per word. Unlike
/// `DefaultHasher` (randomly seeded SipHash in practice), its output is a
/// pure function of the input bytes — stable across processes, runs, and
/// toolchains on the same endianness — which makes digests usable as
/// on-disk identities. One pass over the traces replaces the previous
/// two-pass double-SipHash scheme.
pub struct Bf128Hasher {
    lane_a: u64,
    lane_b: u64,
    /// Bytes absorbed so far; folded into `finish128` so prefixes of a
    /// stream never alias the full stream.
    len: u64,
}

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^= k >> 33;
    k
}

impl Default for Bf128Hasher {
    fn default() -> Self {
        Bf128Hasher::new()
    }
}

impl Bf128Hasher {
    /// Creates a hasher with the fixed lane seeds.
    pub fn new() -> Bf128Hasher {
        Bf128Hasher {
            lane_a: 0x9E37_79B9_7F4A_7C15,
            lane_b: 0xD1B5_4A32_D192_ED03,
            len: 0,
        }
    }

    /// Per-word mixing is deliberately light — xor, multiply, rotate per
    /// lane (~5 cycles, lanes independent) — because trace hashing streams
    /// megabytes of addresses; all the heavy avalanche work happens once,
    /// in `finish128`. Content addressing needs collision resistance
    /// against *accidents*, not adversaries, and two independently seeded
    /// multiplicative lanes plus a final fmix64 give that.
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.lane_a = (self.lane_a ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
        self.lane_b = (self.lane_b ^ word.rotate_left(32))
            .wrapping_mul(0xC4CE_B9FE_1A85_EC53)
            .rotate_left(26);
    }

    /// Finalizes both lanes into the 128-bit digest.
    pub fn finish128(&self) -> u128 {
        let a = fmix64(self.lane_a ^ self.len);
        let b = fmix64(self.lane_b ^ self.len.rotate_left(32) ^ a);
        ((a as u128) << 64) | b as u128
    }
}

impl Hasher for Bf128Hasher {
    fn finish(&self) -> u64 {
        fmix64(self.lane_a ^ self.len)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.absorb(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.absorb(u64::from_le_bytes(tail));
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    // Integer fast paths: one absorb each instead of the chunked byte walk.
    // Trace hashing is dominated by u64 addresses and u32 offsets/masks, so
    // these are the hot calls.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.absorb(i as u64);
        self.len = self.len.wrapping_add(1);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.absorb(i as u64);
        self.len = self.len.wrapping_add(4);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.absorb(i);
        self.len = self.len.wrapping_add(8);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.absorb(i as u64);
        self.len = self.len.wrapping_add(8);
    }
}

/// A shared, thread-safe launch-result cache: an in-memory map, optionally
/// layered over a persistent cross-process [`DiskCache`].
pub struct SimCache {
    map: Mutex<HashMap<u128, LaunchResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk: Option<Arc<DiskCache>>,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::new()
    }
}

impl SimCache {
    /// Creates an empty, memory-only cache.
    pub fn new() -> SimCache {
        SimCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk: None,
        }
    }

    /// Creates a cache layered over a shared disk tier.
    pub fn with_disk(disk: Arc<DiskCache>) -> SimCache {
        SimCache {
            disk: Some(disk),
            ..SimCache::new()
        }
    }

    /// Creates the cache the environment asks for: none when
    /// `BF_SIM_CACHE` is `0` or `off`, otherwise disk-backed when
    /// `BF_SIM_CACHE_DIR` resolves to a usable directory and memory-only
    /// when it does not.
    pub fn from_env() -> Option<SimCache> {
        if matches!(
            std::env::var("BF_SIM_CACHE").as_deref(),
            Ok("0") | Ok("off")
        ) {
            return None;
        }
        Some(match diskcache::from_env() {
            Some(disk) => SimCache::with_disk(disk),
            None => SimCache::new(),
        })
    }

    /// The disk tier, if this cache has one.
    pub fn disk(&self) -> Option<&Arc<DiskCache>> {
        self.disk.as_ref()
    }

    /// Hit/miss counts for this cache instance (disk hits included in
    /// `hits`).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct launches stored in memory.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the in-memory tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, key: u128) -> Option<LaunchResult> {
        if let Some(found) = self.map.lock().unwrap().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
            bf_trace::counter!("sim_cache.hits");
            return Some(found);
        }
        let disk = self.disk.as_ref()?;
        match disk.get(key) {
            Some(found) => {
                // Promote, and count as both a cache hit and a disk hit.
                self.map.lock().unwrap().insert(key, found.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
                GLOBAL_DISK_HITS.fetch_add(1, Ordering::Relaxed);
                bf_trace::counter!("sim_cache.hits");
                bf_trace::counter!("sim_cache.disk_hits");
                Some(found)
            }
            None => {
                GLOBAL_DISK_MISSES.fetch_add(1, Ordering::Relaxed);
                bf_trace::counter!("sim_cache.disk_misses");
                None
            }
        }
    }

    fn put(&self, key: u128, value: LaunchResult) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        bf_trace::counter!("sim_cache.misses");
        if let Some(disk) = &self.disk {
            // I/O failure degrades to memory-only; the result is still good.
            if let Err(e) = disk.put(key, &value) {
                bf_trace::counter!("sim_cache.disk_put_errors");
                let _ = e;
            }
        }
        self.map.lock().unwrap().insert(key, value);
    }
}

/// The 128-bit content key of one launch: a single [`Bf128Hasher`] pass
/// over (content version, extrapolation mode, GPU fingerprint, launch
/// config, sampled traces). Stable across processes — the same key indexes
/// the in-memory map and the on-disk log. The leading domain byte keeps
/// full-trace keys and [`launch_key_tagged`] keys from ever aliasing.
fn launch_key(gpu_fp: u64, lc: &LaunchConfig, traces: &[BlockTrace], extrapolate: bool) -> u128 {
    let mut h = Bf128Hasher::new();
    SIM_CONTENT_VERSION.hash(&mut h);
    0u8.hash(&mut h);
    extrapolate.hash(&mut h);
    gpu_fp.hash(&mut h);
    lc.hash(&mut h);
    traces.hash(&mut h);
    h.finish128()
}

/// [`launch_key`] for kernels with a compact content tag
/// ([`KernelTrace::content_tag`]): the tag stands in for the full trace
/// walk, making the key O(1) instead of O(trace bytes) — cheap enough that
/// a 0%-hit-rate sweep pays no measurable memoization overhead.
fn launch_key_tagged(gpu_fp: u64, lc: &LaunchConfig, tag: u128, extrapolate: bool) -> u128 {
    let mut h = Bf128Hasher::new();
    SIM_CONTENT_VERSION.hash(&mut h);
    1u8.hash(&mut h);
    extrapolate.hash(&mut h);
    gpu_fp.hash(&mut h);
    lc.hash(&mut h);
    tag.hash(&mut h);
    h.finish128()
}

/// Simulates one launch through the cache: identical (traces, config, GPU)
/// triples replay the stored result, everything else simulates and stores.
/// `gpu_fp` is `gpu.fingerprint()`, passed in so a batch driver hashes the
/// `GpuConfig` once per sweep instead of once per launch.
pub fn simulate_launch_cached(
    gpu: &GpuConfig,
    gpu_fp: u64,
    kernel: &dyn KernelTrace,
    cache: &SimCache,
) -> Result<LaunchResult> {
    let opts = EngineOptions::default();
    // Tagged kernels are keyed without sampling their blocks, so a hit
    // skips both trace construction and the content walk.
    let (key, sampled) = match kernel.content_tag() {
        Some(tag) => {
            let lc = kernel.launch_config();
            let key = launch_key_tagged(gpu_fp, &lc, tag, opts.loop_extrapolation);
            (key, None)
        }
        None => {
            let s = sample_blocks(gpu, kernel)?;
            let key = launch_key(gpu_fp, &s.launch, &s.traces, opts.loop_extrapolation);
            (key, Some(s))
        }
    };
    if let Some(result) = cache.get(key) {
        return Ok(result);
    }
    let sampled = match sampled {
        Some(s) => s,
        None => sample_blocks(gpu, kernel)?,
    };
    let result = simulate_sampled_launch_with(gpu, &sampled, &opts)?;
    cache.put(key, result.clone());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_launch;
    use crate::trace::{WarpInstruction, FULL_MASK};

    /// A trivially homogeneous kernel parameterised by a base address, so
    /// tests can mint identical and distinct launches at will.
    struct Streamer {
        base: u64,
        blocks: usize,
    }

    impl KernelTrace for Streamer {
        fn name(&self) -> String {
            "streamer".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: self.blocks,
                threads_per_block: 128,
                regs_per_thread: 16,
                shared_mem_per_block: 0,
            }
        }

        fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
            let warps = 128 / gpu.warp_size;
            let mut t = BlockTrace::with_warps(warps);
            for (w, stream) in t.warps.iter_mut().enumerate() {
                let base = self.base + (block_id * warps + w) as u64 * 128;
                stream.push(WarpInstruction::LoadGlobal {
                    addrs: (0..32).map(|i| base + i * 4).collect(),
                    width: 4,
                    mask: FULL_MASK,
                });
                stream.push(WarpInstruction::Alu {
                    count: 8,
                    mask: FULL_MASK,
                });
            }
            t
        }
    }

    #[test]
    fn identical_launches_hit_and_replay_bit_identical_results() {
        let gpu = GpuConfig::gtx580();
        let cache = SimCache::new();
        let k = Streamer {
            base: 0x1000_0000,
            blocks: 64,
        };
        let fresh = simulate_launch(&gpu, &k).unwrap();
        let miss = simulate_launch_cached(&gpu, gpu.fingerprint(), &k, &cache).unwrap();
        let hit = simulate_launch_cached(&gpu, gpu.fingerprint(), &k, &cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        for r in [&miss, &hit] {
            assert_eq!(r.time_seconds.to_bits(), fresh.time_seconds.to_bits());
            assert_eq!(
                r.events.inst_executed.to_bits(),
                fresh.events.inst_executed.to_bits()
            );
            assert_eq!(
                r.events.dram_read_transactions.to_bits(),
                fresh.events.dram_read_transactions.to_bits()
            );
            assert_eq!(r.waves, fresh.waves);
            assert_eq!(r.sampled_blocks, fresh.sampled_blocks);
        }
    }

    #[test]
    fn different_traces_do_not_alias() {
        let gpu = GpuConfig::gtx580();
        let cache = SimCache::new();
        let a = simulate_launch_cached(
            &gpu,
            gpu.fingerprint(),
            &Streamer {
                base: 0x1000_0000,
                blocks: 64,
            },
            &cache,
        )
        .unwrap();
        let b = simulate_launch_cached(
            &gpu,
            gpu.fingerprint(),
            &Streamer {
                base: 0x2000_0000,
                blocks: 64,
            },
            &cache,
        )
        .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        // Same structure, different addresses: both simulated, same timing.
        assert_eq!(a.time_seconds.to_bits(), b.time_seconds.to_bits());
    }

    #[test]
    fn different_gpus_do_not_alias() {
        let cache = SimCache::new();
        let k = Streamer {
            base: 0x1000_0000,
            blocks: 64,
        };
        let f = simulate_launch_cached(
            &GpuConfig::gtx580(),
            GpuConfig::gtx580().fingerprint(),
            &k,
            &cache,
        )
        .unwrap();
        let kep = simulate_launch_cached(
            &GpuConfig::k20m(),
            GpuConfig::k20m().fingerprint(),
            &k,
            &cache,
        )
        .unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_ne!(f.time_seconds.to_bits(), kep.time_seconds.to_bits());
    }

    #[test]
    fn preset_fingerprints_are_distinct() {
        let fps: Vec<u64> = GpuConfig::presets()
            .iter()
            .map(|g| g.fingerprint())
            .collect();
        for i in 0..fps.len() {
            for j in 0..i {
                assert_ne!(fps[i], fps[j], "presets {i} and {j} collide");
            }
        }
        // Any field change must change the fingerprint.
        let mut g = GpuConfig::gtx580();
        let before = g.fingerprint();
        g.mem_bandwidth_gbps += 1.0;
        assert_ne!(before, g.fingerprint());
    }

    #[test]
    fn cache_env_gate_matches_environment() {
        let disabled = matches!(
            std::env::var("BF_SIM_CACHE").as_deref(),
            Ok("0") | Ok("off")
        );
        assert_eq!(SimCache::from_env().is_none(), disabled);
    }

    #[test]
    fn bf128_hasher_is_deterministic_and_collision_averse() {
        let digest = |bytes: &[u8]| {
            let mut h = Bf128Hasher::new();
            h.write(bytes);
            h.finish128()
        };
        // Stable: fixed input, fixed output (the value itself is free to
        // change only with SIM_CONTENT_VERSION, which orphans old keys).
        assert_eq!(digest(b"blackforest"), digest(b"blackforest"));
        assert_ne!(digest(b"blackforest"), digest(b"blackforesu"));
        // Length is part of the digest: a prefix never aliases the whole.
        assert_ne!(digest(b"ab"), digest(b"ab\0\0"));
        // Streaming in pieces matches one-shot for word-aligned splits.
        let mut h = Bf128Hasher::new();
        h.write(b"01234567");
        h.write(b"89abcdef");
        assert_eq!(h.finish128(), digest(b"0123456789abcdef"));
        // Integer fast paths match their byte encodings' width behaviour.
        let mut a = Bf128Hasher::new();
        7u64.hash(&mut a);
        let mut b = Bf128Hasher::new();
        8u64.hash(&mut b);
        assert_ne!(a.finish128(), b.finish128());
    }

    #[test]
    fn launch_keys_are_stable_across_cache_instances() {
        // The same kernel must produce the same key in any process; we can
        // at least assert it is identical across independent hasher runs
        // and differs when any component changes.
        let gpu = GpuConfig::gtx580();
        let k = Streamer {
            base: 0x1000_0000,
            blocks: 64,
        };
        let lc = k.launch_config();
        let traces: Vec<BlockTrace> = vec![k.block_trace(0, &gpu)];
        let key1 = launch_key(gpu.fingerprint(), &lc, &traces, true);
        let key2 = launch_key(gpu.fingerprint(), &lc, &traces, true);
        assert_eq!(key1, key2);
        assert_ne!(key1, launch_key(gpu.fingerprint(), &lc, &traces, false));
        assert_ne!(key1, launch_key(gpu.fingerprint() ^ 1, &lc, &traces, true));
    }

    /// `Streamer` with a content tag, plus a call counter proving the hit
    /// path never builds traces.
    struct TaggedStreamer {
        inner: Streamer,
        trace_calls: std::sync::atomic::AtomicU64,
    }

    impl TaggedStreamer {
        fn new(base: u64, blocks: usize) -> TaggedStreamer {
            TaggedStreamer {
                inner: Streamer { base, blocks },
                trace_calls: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl KernelTrace for TaggedStreamer {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn launch_config(&self) -> LaunchConfig {
            self.inner.launch_config()
        }

        fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
            self.trace_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.block_trace(block_id, gpu)
        }

        fn content_tag(&self) -> Option<u128> {
            let mut h = Bf128Hasher::new();
            0x5453u64.hash(&mut h); // "TS"
            self.inner.base.hash(&mut h);
            self.inner.blocks.hash(&mut h);
            Some(h.finish128())
        }
    }

    #[test]
    fn tagged_kernels_match_untagged_bit_exactly_and_skip_traces_on_hit() {
        let gpu = GpuConfig::gtx580();
        // Same launch through the untagged (full-trace) and tagged paths:
        // the counters must be bit-identical — the tag only changes how the
        // cache key is derived, never what is simulated.
        let plain = simulate_launch_cached(
            &gpu,
            gpu.fingerprint(),
            &Streamer {
                base: 0x1000_0000,
                blocks: 64,
            },
            &SimCache::new(),
        )
        .unwrap();
        let cache = SimCache::new();
        let tagged = TaggedStreamer::new(0x1000_0000, 64);
        let miss = simulate_launch_cached(&gpu, gpu.fingerprint(), &tagged, &cache).unwrap();
        let built = tagged
            .trace_calls
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(built > 0, "the miss must build traces to simulate");
        let hit = simulate_launch_cached(&gpu, gpu.fingerprint(), &tagged, &cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(
            tagged
                .trace_calls
                .load(std::sync::atomic::Ordering::Relaxed),
            built,
            "a tagged hit must not construct any traces"
        );
        for r in [&miss, &hit] {
            assert_eq!(r.time_seconds.to_bits(), plain.time_seconds.to_bits());
            assert_eq!(
                r.events.inst_executed.to_bits(),
                plain.events.inst_executed.to_bits()
            );
            assert_eq!(
                r.events.shared_load_replay.to_bits(),
                plain.events.shared_load_replay.to_bits()
            );
            assert_eq!(r.waves, plain.waves);
            assert_eq!(r.sampled_blocks, plain.sampled_blocks);
        }
        // Distinct tag inputs must not alias each other.
        let other = TaggedStreamer::new(0x2000_0000, 64);
        simulate_launch_cached(&gpu, gpu.fingerprint(), &other, &cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn disk_tier_hits_across_cache_instances() {
        let dir = std::env::temp_dir().join(format!("bf-memo-disk-{}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let gpu = GpuConfig::gtx580();
        let k = Streamer {
            base: 0x1000_0000,
            blocks: 64,
        };
        let first = SimCache::with_disk(Arc::clone(&disk));
        let cold = simulate_launch_cached(&gpu, gpu.fingerprint(), &k, &first).unwrap();
        assert_eq!(first.stats(), CacheStats { hits: 0, misses: 1 });
        // A brand-new SimCache (fresh process stand-in) over the same disk
        // tier answers from disk without simulating.
        let second = SimCache::with_disk(Arc::clone(&disk));
        let warm = simulate_launch_cached(&gpu, gpu.fingerprint(), &k, &second).unwrap();
        assert_eq!(second.stats(), CacheStats { hits: 1, misses: 0 });
        assert_eq!(warm.time_seconds.to_bits(), cold.time_seconds.to_bits());
        assert_eq!(
            warm.events.inst_executed.to_bits(),
            cold.events.inst_executed.to_bits()
        );
        drop(std::fs::remove_dir_all(&dir));
    }
}
