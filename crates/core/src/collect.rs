//! Data collection: sweep problem characteristics, profile each run on the
//! simulator, and assemble a [`Dataset`].
//!
//! This is stage 1 of the methodology (§4.2 "Data collection"): "running the
//! application multiple times (typically, tens to hundreds) on the
//! architecture of interest, with different problem characteristics",
//! recording counters and execution time. Problem characteristics become
//! ordinary predictor columns (e.g. `size`, as in the paper's NW analysis
//! where `size` ranks among the most important variables).

use crate::dataset::Dataset;
use crate::Result;
use bf_analyze::StaticCounts;
use bf_kernels::matmul::matmul_application;
use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use gpu_sim::{GpuConfig, KernelTrace, ProfiledRun, SampledLaunch, SimCache};
use rand::prelude::*;

/// Options shared by the collection drivers.
#[derive(Debug, Clone)]
pub struct CollectOptions {
    /// Include the problem characteristics as predictor columns.
    pub include_characteristics: bool,
    /// Inject the GPU's Table-2 machine metrics as constant columns
    /// (hardware-scaling experiments set this).
    pub include_machine_metrics: bool,
    /// Drop counters that are constant across the sweep.
    pub drop_constant: bool,
    /// Append statically derived feature columns (`static_*`: theoretical
    /// occupancy, bank-conflict degree, transaction counts, coalescing
    /// efficiency, arithmetic intensity) from `bf-analyze` alongside the
    /// problem characteristics. They cost a trace walk instead of a
    /// simulation and give models access to the same structural signal the
    /// static analyzer sees. Rides the characteristics columns, so it
    /// requires `include_characteristics`.
    pub include_static_features: bool,
    /// Profiler repetitions per configuration. Real `nvprof` collection
    /// repeats every run; the paper's datasets have up to ~100 samples from
    /// tens of distinct sizes.
    pub repetitions: usize,
    /// Relative run-to-run measurement noise (e.g. 0.02 for ±2% on time,
    /// half that on counters). The simulator is deterministic, so this
    /// models the measurement variation real hardware would show.
    pub noise_frac: f64,
    /// Seed for the measurement-noise stream.
    pub noise_seed: u64,
    /// Which measured quantity becomes the model's response variable.
    pub response: ResponseMetric,
}

/// The response variable of the collected dataset. The paper's §7 points out
/// the method works for any measurable response, suggesting power draw as
/// the natural second target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseMetric {
    /// Kernel execution time in milliseconds (the paper's main response).
    TimeMs,
    /// Average power draw in watts (the §7 extension).
    AvgPowerW,
}

impl ResponseMetric {
    /// Column name used for the response in datasets and CSV files.
    pub fn column_name(&self) -> &'static str {
        match self {
            ResponseMetric::TimeMs => "time_ms",
            ResponseMetric::AvgPowerW => "power_w",
        }
    }

    /// Extracts the response value from a profiled run.
    pub fn of(&self, run: &ProfiledRun) -> f64 {
        match self {
            ResponseMetric::TimeMs => run.time_ms,
            ResponseMetric::AvgPowerW => run.avg_power_w,
        }
    }
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions {
            include_characteristics: true,
            include_machine_metrics: false,
            drop_constant: true,
            include_static_features: false,
            repetitions: 1,
            noise_frac: 0.0,
            noise_seed: 0xC0_11EC7,
            response: ResponseMetric::TimeMs,
        }
    }
}

impl CollectOptions {
    /// Paper-style collection: 3 repetitions per configuration with ±2%
    /// measurement noise on times (±1% on counters).
    pub fn with_repetitions(mut self, repetitions: usize, noise_frac: f64) -> CollectOptions {
        self.repetitions = repetitions.max(1);
        self.noise_frac = noise_frac;
        self
    }
}

/// One profiled observation paired with its problem characteristics.
pub struct Observation {
    /// The profiled run (counters + time).
    pub run: ProfiledRun,
    /// `(name, value)` problem characteristics.
    pub characteristics: Vec<(String, f64)>,
}

/// Assembles observations into a dataset with a uniform schema.
///
/// The counter schema is taken from the first observation (all runs on one
/// GPU share it). Characteristics precede counters so they survive
/// `drop_constant_features` reporting in a predictable order.
pub fn dataset_from_observations(
    gpu: &GpuConfig,
    observations: Vec<Observation>,
    opts: &CollectOptions,
) -> Result<Dataset> {
    let first = observations
        .first()
        .ok_or_else(|| crate::BfError::Data("no observations".into()))?;
    let mut names: Vec<String> = Vec::new();
    if opts.include_characteristics {
        names.extend(first.characteristics.iter().map(|(n, _)| n.clone()));
    }
    let counter_names: Vec<String> = first
        .run
        .counters
        .names()
        .into_iter()
        .map(|s| s.to_string())
        .collect();
    names.extend(counter_names.iter().cloned());
    let mut ds = Dataset::new(names, opts.response.column_name());
    for obs in &observations {
        let mut row = Vec::with_capacity(ds.n_features());
        if opts.include_characteristics {
            for (_, v) in &obs.characteristics {
                row.push(*v);
            }
        }
        for c in &counter_names {
            row.push(obs.run.counters.get(c).unwrap_or(0.0));
        }
        ds.push(row, opts.response.of(&obs.run))?;
    }
    if opts.include_machine_metrics {
        for m in gpu.machine_metrics() {
            ds.add_constant_column(m.name, m.value);
        }
    }
    if opts.drop_constant {
        ds.drop_constant_features();
    }
    Ok(ds)
}

/// What the static columns read of one launch: theoretical occupancy, worst
/// bank-conflict degree, full-grid counts, and the scaled basic-block costs.
type LaunchStatics = (f64, u32, StaticCounts, Vec<(u64, f64)>);

/// Statically derived per-application feature columns (see
/// [`CollectOptions::include_static_features`]) from its launches' statics,
/// in launch order: sums for counts, totals-ratio for efficiencies,
/// warp-weighted mean for occupancy, max for conflict degree.
fn static_features(launches: Vec<LaunchStatics>) -> Vec<(String, f64)> {
    let mut occ_weighted = 0.0f64;
    let mut warps = 0.0f64;
    let mut max_degree = 0u32;
    let mut gld_trans = 0.0f64;
    let mut gst_trans = 0.0f64;
    let mut requested = 0.0f64;
    let mut traffic = 0.0f64;
    let mut alu_ops = 0.0f64;
    let mut dram_bytes = 0.0f64;
    let mut inst = 0.0f64;
    let mut block_costs = Vec::new();
    for (occupancy, degree, c, costs) in launches {
        block_costs.extend(costs);
        occ_weighted += occupancy * c.warps_launched;
        warps += c.warps_launched;
        max_degree = max_degree.max(degree);
        gld_trans += c.global_load_transactions;
        gst_trans += c.global_store_transactions;
        requested += c.gld_requested_bytes + c.gst_requested_bytes;
        traffic += c.load_traffic_bytes + c.store_traffic_bytes;
        alu_ops += c.alu_thread_ops;
        dram_bytes += c.dram_read_bytes_bound + c.store_traffic_bytes;
        inst += c.inst_executed;
    }
    // Basic-block shape of the application: how concentrated the attributed
    // cost is (share of the hottest block) and how many blocks dominate.
    let blocks = bf_analyze::block_profile(block_costs);
    let ratio = |num: f64, den: f64, empty: f64| if den > 0.0 { num / den } else { empty };
    [
        ("static_occupancy", ratio(occ_weighted, warps, 0.0)),
        ("static_bank_conflict_degree", max_degree as f64),
        ("static_gld_transactions", gld_trans),
        ("static_gst_transactions", gst_trans),
        (
            "static_coalescing_efficiency",
            ratio(requested, traffic, 1.0),
        ),
        ("static_arith_intensity", ratio(alu_ops, dram_bytes, 0.0)),
        ("static_inst_executed", inst),
        ("static_top_block_cost_share", blocks.top_block_cost_share),
        ("static_hot_block_count", blocks.hot_block_count as f64),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// Profiles a batch of applications and expands each profiled run into
/// `repetitions` noisy measurements.
///
/// All launches of all applications go through
/// [`gpu_sim::profile_applications`] as one flat, launch-level parallel job
/// with a sweep-wide memoization cache: the parallel work unit is a single
/// *launch*, so one 1000-launch NW job no longer serialises on a thread
/// while the small jobs finish instantly, and structurally identical
/// launches across the sweep (reduction tail passes, repeated stencil
/// grids) simulate once. Observation order — and, by order-preserving
/// accumulation, every profiled value — is identical to the sequential
/// path.
fn profile_batch(
    gpu: &GpuConfig,
    mut jobs: Vec<(Application, Vec<(String, f64)>)>,
    opts: &CollectOptions,
) -> Result<Vec<Observation>> {
    let _batch_span = bf_trace::span!("profile_batch", apps = jobs.len());
    // Per-batch memoization (none under BF_SIM_CACHE=0), layered over the
    // persistent disk tier when BF_SIM_CACHE_DIR is set — repeated collection runs (NW sweeps most of
    // all, whose launches are structurally unique within one run) then hit
    // the results a previous process already simulated.
    let cache = SimCache::from_env();
    let apps: Vec<(&str, &[Box<dyn KernelTrace>])> = jobs
        .iter()
        .map(|(app, _)| (app.name.as_str(), app.launches.as_slice()))
        .collect();
    let runs = if opts.include_static_features {
        // One sample and one compile per launch feed both the simulated
        // counters and the static columns.
        let gpu_fp = gpu.fingerprint();
        let (runs, statics) = gpu_sim::profile_applications_with(gpu, &apps, |kernel| {
            let s = SampledLaunch::new(gpu, kernel)?;
            let result =
                gpu_sim::simulate_launch_cached(gpu, gpu_fp, kernel, Some(&s), cache.as_ref())?;
            // Every launch's statics live until the batch ends: keep few.
            let a = bf_analyze::analyze_sampled(gpu, &s);
            let blocks = bf_analyze::attribute_sampled(gpu, &s);
            let costs = blocks.scaled_costs().collect();
            let statics = (
                a.occupancy.theoretical,
                a.shared.max_degree,
                a.counts,
                costs,
            );
            Ok((result, statics))
        })?;
        let mut statics = statics.into_iter();
        for (app, characteristics) in &mut jobs {
            let launches = statics.by_ref().take(app.launches.len()).collect();
            characteristics.extend(static_features(launches));
        }
        runs
    } else {
        gpu_sim::profile_applications(gpu, &apps, cache.as_ref())?
    };
    let profiled: Vec<Observation> = runs
        .into_iter()
        .zip(jobs)
        .map(|(run, (_, characteristics))| Observation {
            run,
            characteristics,
        })
        .collect();
    if opts.repetitions <= 1 && opts.noise_frac == 0.0 {
        return Ok(profiled);
    }
    let _expand_span = bf_trace::span!("expand_repetitions", repetitions = opts.repetitions);
    let repetitions = opts.repetitions.max(1);
    // One GPU => one counter schema; collect the names once for the whole
    // expansion instead of re-collecting them per repetition.
    let counter_names: Vec<String> = profiled
        .first()
        .map(|obs| {
            obs.run
                .counters
                .names()
                .into_iter()
                .map(|s| s.to_string())
                .collect()
        })
        .unwrap_or_default();
    let mut out = Vec::with_capacity(profiled.len() * repetitions);
    for (j, mut obs) in profiled.into_iter().enumerate() {
        // The RNG lives per observation; each repetition re-seeds it in
        // place from the same (seed, observation, repetition) triple as
        // always, keeping the noise stream — and every `results/` snapshot
        // derived from it — bit-identical.
        let seed_base = opts.noise_seed ^ ((j as u64) << 20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed_base);
        for rep in 0..repetitions {
            if rep > 0 {
                rng = rand::rngs::StdRng::seed_from_u64(seed_base ^ rep as u64);
            }
            let mut run = obs.run.clone();
            // Multiplicative uniform noise: full amplitude on time, half on
            // counters (counters are more stable than wall-clock on real HW).
            let jitter = |rng: &mut rand::rngs::StdRng, amp: f64| {
                1.0 + amp * (rng.random::<f64>() * 2.0 - 1.0)
            };
            run.time_ms *= jitter(&mut rng, opts.noise_frac);
            run.avg_power_w *= jitter(&mut rng, opts.noise_frac);
            for name in &counter_names {
                let v = run.counters.get(name).unwrap_or(0.0);
                run.counters
                    .set(name, v * jitter(&mut rng, opts.noise_frac * 0.5));
            }
            // The final repetition takes ownership; earlier ones clone.
            let characteristics = if rep + 1 == repetitions {
                std::mem::take(&mut obs.characteristics)
            } else {
                obs.characteristics.clone()
            };
            out.push(Observation {
                run,
                characteristics,
            });
        }
    }
    Ok(out)
}

/// Collects a reduction sweep: the cartesian product of array lengths and
/// block sizes (both are problem characteristics the SDK benchmark exposes).
pub fn collect_reduce(
    gpu: &GpuConfig,
    variant: ReduceVariant,
    sizes: &[usize],
    threads: &[usize],
    opts: &CollectOptions,
) -> Result<Dataset> {
    let mut jobs = Vec::new();
    for &n in sizes {
        for &t in threads {
            jobs.push((
                reduce_application(variant, n, t),
                vec![
                    ("size".to_string(), n as f64),
                    ("threads".to_string(), t as f64),
                ],
            ));
        }
    }
    let obs = profile_batch(gpu, jobs, opts)?;
    dataset_from_observations(gpu, obs, opts)
}

/// Collects a matrix-multiply sweep over matrix sizes (multiples of 16).
pub fn collect_matmul(gpu: &GpuConfig, sizes: &[usize], opts: &CollectOptions) -> Result<Dataset> {
    let jobs = sizes
        .iter()
        .map(|&n| (matmul_application(n), vec![("size".to_string(), n as f64)]))
        .collect();
    let obs = profile_batch(gpu, jobs, opts)?;
    dataset_from_observations(gpu, obs, opts)
}

/// Collects a matrix-multiply sweep over sizes *and tile sizes* — the tile
/// edge becomes a second problem characteristic, enabling block-size tuning
/// analyses (which tile the forest says is fastest, and why).
pub fn collect_matmul_tiles(
    gpu: &GpuConfig,
    sizes: &[usize],
    tiles: &[usize],
    opts: &CollectOptions,
) -> Result<Dataset> {
    let mut jobs = Vec::new();
    for &n in sizes {
        for &t in tiles {
            if n % t != 0 {
                continue;
            }
            jobs.push((
                bf_kernels::matmul::matmul_application_tiled(n, t),
                vec![
                    ("size".to_string(), n as f64),
                    ("tile".to_string(), t as f64),
                ],
            ));
        }
    }
    let obs = profile_batch(gpu, jobs, opts)?;
    dataset_from_observations(gpu, obs, opts)
}

/// Collects a Needleman-Wunsch sweep over sequence lengths.
pub fn collect_nw(gpu: &GpuConfig, lengths: &[usize], opts: &CollectOptions) -> Result<Dataset> {
    let jobs = lengths
        .iter()
        .map(|&n| (nw_application(n, 10), vec![("size".to_string(), n as f64)]))
        .collect();
    let obs = profile_batch(gpu, jobs, opts)?;
    dataset_from_observations(gpu, obs, opts)
}

/// Collects a Jacobi-stencil sweep over grid sizes (the extension workload;
/// the number of sweeps is a second problem characteristic).
pub fn collect_stencil(
    gpu: &GpuConfig,
    sizes: &[usize],
    sweeps: &[usize],
    opts: &CollectOptions,
) -> Result<Dataset> {
    let mut jobs = Vec::new();
    for &n in sizes {
        for &s in sweeps {
            jobs.push((
                stencil_application(n, s),
                vec![
                    ("size".to_string(), n as f64),
                    ("sweeps".to_string(), s as f64),
                ],
            ));
        }
    }
    let obs = profile_batch(gpu, jobs, opts)?;
    dataset_from_observations(gpu, obs, opts)
}

/// The paper's matrix-multiply sweep: 24 sizes from 2^5 to 2^11, multiples
/// of 16, evenly spaced in log2.
pub fn paper_matmul_sizes() -> Vec<usize> {
    let lo = 5.0f64;
    let hi = 11.0f64;
    let mut sizes: Vec<usize> = (0..24)
        .map(|k| {
            let e = lo + (hi - lo) * k as f64 / 23.0;
            let raw = 2f64.powf(e).round() as usize;
            (raw / 16).max(2) * 16
        })
        .collect();
    sizes.dedup();
    sizes
}

/// The paper's NW sweep: sequence lengths 64..=8192 with a pitch of 64 —
/// 128 lengths. (The paper's §6.1.2 quotes "129 trials" because it counts
/// the degenerate length-0 end-point of the 0..=8192 grid; a zero-length
/// alignment launches no kernels and profiles nothing, so the sweep starts
/// at 64. The shape test below pins the 128/64/8192 contract.)
pub fn paper_nw_lengths() -> Vec<usize> {
    (1..=128).map(|k| k * 64).collect()
}

/// A reduction sweep in the spirit of §5: array lengths 2^14..2^22 crossed
/// with block sizes {64, 128, 256, 512}.
pub fn paper_reduce_sweep() -> (Vec<usize>, Vec<usize>) {
    let sizes = (14..=22).map(|e| 1usize << e).collect();
    let threads = vec![64, 128, 256, 512];
    (sizes, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sweep_produces_one_row_per_combination() {
        let gpu = GpuConfig::gtx580();
        let ds = collect_reduce(
            &gpu,
            ReduceVariant::Reduce1,
            &[1 << 12, 1 << 13],
            &[64, 128],
            &CollectOptions::default(),
        )
        .unwrap();
        assert_eq!(ds.len(), 4);
        assert!(ds.feature_index("size").is_some());
        assert!(ds.feature_index("threads").is_some());
        assert!(ds.feature_index("shared_replay_overhead").is_some());
        assert!(ds.response.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn static_feature_columns_join_the_dataset_when_enabled() {
        let gpu = GpuConfig::gtx580();
        let opts = CollectOptions {
            include_static_features: true,
            drop_constant: false,
            ..CollectOptions::default()
        };
        let ds = collect_reduce(
            &gpu,
            ReduceVariant::Reduce1,
            &[1 << 12, 1 << 13],
            &[128],
            &opts,
        )
        .unwrap();
        for col in [
            "static_occupancy",
            "static_bank_conflict_degree",
            "static_gld_transactions",
            "static_gst_transactions",
            "static_coalescing_efficiency",
            "static_arith_intensity",
            "static_inst_executed",
            "static_top_block_cost_share",
            "static_hot_block_count",
        ] {
            assert!(ds.feature_index(col).is_some(), "missing column {col}");
        }
        for occ in ds.column("static_occupancy").unwrap() {
            assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        }
        // reduce1's strided shared addressing is the textbook conflict.
        for degree in ds.column("static_bank_conflict_degree").unwrap() {
            assert!(degree >= 2.0, "degree {degree}");
        }
        // Block-profile columns are well-formed shares/counts.
        for share in ds.column("static_top_block_cost_share").unwrap() {
            assert!(share > 0.0 && share <= 1.0, "share {share}");
        }
        for count in ds.column("static_hot_block_count").unwrap() {
            assert!(count >= 1.0, "hot block count {count}");
        }
        // Off by default: the plain path is unchanged.
        let plain = collect_reduce(
            &gpu,
            ReduceVariant::Reduce1,
            &[1 << 12, 1 << 13],
            &[128],
            &CollectOptions::default(),
        )
        .unwrap();
        assert!(plain.feature_index("static_occupancy").is_none());
    }

    #[test]
    fn matmul_sweep_has_counters_and_monotone_times() {
        let gpu = GpuConfig::gtx580();
        let ds = collect_matmul(&gpu, &[32, 64, 128, 256], &CollectOptions::default()).unwrap();
        assert_eq!(ds.len(), 4);
        // Times grow with size.
        for w in ds.response.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(ds.feature_index("gst_request").is_some());
    }

    #[test]
    fn nw_sweep_collects() {
        let gpu = GpuConfig::gtx580();
        let ds = collect_nw(&gpu, &[64, 128], &CollectOptions::default()).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(ds.feature_index("achieved_occupancy").is_some());
    }

    #[test]
    fn machine_metrics_injection_adds_table2_columns() {
        let gpu = GpuConfig::gtx580();
        let opts = CollectOptions {
            include_machine_metrics: true,
            drop_constant: false,
            ..CollectOptions::default()
        };
        let ds = collect_matmul(&gpu, &[32, 64], &opts).unwrap();
        for name in ["wsched", "freq", "smp", "rco", "mbw", "l1c", "l2c"] {
            assert!(ds.feature_index(name).is_some(), "missing {name}");
        }
        assert_eq!(ds.column("mbw").unwrap()[0], 192.4);
    }

    #[test]
    fn drop_constant_removes_flat_counters() {
        let gpu = GpuConfig::gtx580();
        let keep = CollectOptions {
            drop_constant: false,
            ..CollectOptions::default()
        };
        let full = collect_matmul(&gpu, &[32, 64], &keep).unwrap();
        let trimmed = collect_matmul(&gpu, &[32, 64], &CollectOptions::default()).unwrap();
        assert!(trimmed.n_features() < full.n_features());
    }

    #[test]
    fn paper_sweeps_have_documented_shapes() {
        let mm = paper_matmul_sizes();
        assert!(mm.len() >= 20 && mm.len() <= 24, "{}", mm.len());
        assert!(mm.iter().all(|n| n % 16 == 0));
        assert_eq!(*mm.first().unwrap(), 32);
        assert_eq!(*mm.last().unwrap(), 2048);

        let nw = paper_nw_lengths();
        assert_eq!(nw.len(), 128);
        assert_eq!(nw[0], 64);
        assert_eq!(*nw.last().unwrap(), 8192);

        let (sizes, threads) = paper_reduce_sweep();
        assert_eq!(sizes.len() * threads.len(), 36);
    }

    #[test]
    fn tile_sweep_skips_indivisible_combinations_and_varies_occupancy() {
        let gpu = GpuConfig::gtx580();
        let ds =
            collect_matmul_tiles(&gpu, &[80, 128], &[16, 32], &CollectOptions::default()).unwrap();
        // 80 is not a multiple of 32 -> 3 rows, not 4.
        assert_eq!(ds.len(), 3);
        assert!(ds.feature_index("tile").is_some());
        // Different tiles give different occupancy profiles at n=128.
        let tile_col = ds.column("tile").unwrap();
        let occ = ds.column("achieved_occupancy").unwrap();
        let o16 = occ
            .iter()
            .zip(tile_col.iter())
            .find(|(_, &t)| t == 16.0)
            .unwrap()
            .0;
        let o32 = occ
            .iter()
            .zip(tile_col.iter())
            .find(|(_, &t)| t == 32.0)
            .unwrap()
            .0;
        assert_ne!(o16, o32);
    }

    #[test]
    fn stencil_sweep_collects_with_two_characteristics() {
        let gpu = GpuConfig::gtx580();
        let ds = collect_stencil(&gpu, &[64, 128], &[1, 2], &CollectOptions::default()).unwrap();
        assert_eq!(ds.len(), 4);
        assert!(ds.feature_index("size").is_some());
        assert!(ds.feature_index("sweeps").is_some());
        // Two sweeps over the same grid take about twice the time.
        let t1 = ds.response[0];
        let t2 = ds.response[1];
        assert!(t2 > 1.5 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn power_response_selects_power_column() {
        let gpu = GpuConfig::k20m();
        let opts = CollectOptions {
            response: ResponseMetric::AvgPowerW,
            ..CollectOptions::default()
        };
        let ds = collect_matmul(&gpu, &[64, 128], &opts).unwrap();
        assert_eq!(ds.response_name, "power_w");
        // Power responses are tens of watts, not milliseconds.
        assert!(ds.response.iter().all(|&w| w > 10.0 && w < 500.0));
    }

    #[test]
    fn kepler_dataset_has_kepler_counters() {
        let gpu = GpuConfig::k20m();
        let ds = collect_nw(&gpu, &[64, 128], &CollectOptions::default()).unwrap();
        assert!(ds.feature_index("shared_load_replay").is_some());
        assert!(ds.feature_index("l1_global_load_hit").is_none());
    }

    /// End-to-end availability-mask check across the zoo: for every
    /// preset, the collected dataset's counter columns are *exactly* the
    /// counters the architecture's mask admits — no foreign counter leaks
    /// into training data, and nothing the architecture produces is lost.
    #[test]
    fn collected_columns_match_each_architectures_counter_mask() {
        for gpu in GpuConfig::presets() {
            let opts = CollectOptions {
                drop_constant: false,
                ..CollectOptions::default()
            };
            let ds = collect_reduce(&gpu, ReduceVariant::Reduce1, &[1 << 12], &[128], &opts)
                .unwrap_or_else(|e| panic!("collect on {} ({}): {e}", gpu.name, gpu.arch.name()));
            let available = gpu_sim::counters::counters_for(gpu.arch);
            for name in &ds.feature_names {
                if matches!(name.as_str(), "size" | "threads") {
                    continue;
                }
                assert!(
                    available.contains(&name.as_str()),
                    "counter {} leaked into {} ({}) training data",
                    name,
                    gpu.name,
                    gpu.arch.name()
                );
            }
            for c in available {
                assert!(
                    ds.feature_index(c).is_some(),
                    "counter {c} missing from {} ({}) dataset",
                    gpu.name,
                    gpu.arch.name()
                );
            }
        }
    }
}
