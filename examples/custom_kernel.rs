//! Modelling *your own* kernel: the downstream-user workflow.
//!
//! Suppose you have a CUDA kernel BlackForest has never seen — here, a toy
//! "gather" kernel whose threads read through an index table (data-dependent
//! addresses, poor coalescing) and accumulate into shared memory. This
//! example shows the three steps a user takes:
//!
//! 1. describe the kernel's address patterns with [`gpu_sim::TraceBuilder`]
//!    (a pattern used more than once is built once as a [`gpu_sim::Lanes`]
//!    handle and cloned: the trace shares it instead of copying it),
//! 2. implement [`gpu_sim::KernelTrace`] for it, and
//! 3. hand it to the BlackForest pipeline for profiling, modeling, and
//!    bottleneck analysis.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use blackforest_suite::blackforest::collect::{
    dataset_from_observations, CollectOptions, Observation,
};
use blackforest_suite::blackforest::model::{BlackForestModel, ModelConfig};
use blackforest_suite::blackforest::{bottleneck, report};
use blackforest_suite::gpu_sim::trace::{BlockTrace, KernelTrace, LaunchConfig};
use blackforest_suite::gpu_sim::{profile_kernel, GpuConfig, Lanes, TraceBuilder};

/// A gather kernel: `out[i] = sum_k table[idx[i*K + k]]` with a
/// pseudo-random index table — the classic memory-access-pattern bottleneck.
struct GatherKernel {
    /// Elements gathered.
    n: usize,
    /// Gathers per thread.
    k: usize,
    /// Spread of the random indices in elements (locality knob).
    spread: usize,
}

impl GatherKernel {
    fn index(&self, i: usize, k: usize) -> u64 {
        // Deterministic pseudo-random index within `spread`.
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((k as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        (h >> 17) % self.spread as u64
    }
}

impl KernelTrace for GatherKernel {
    fn name(&self) -> String {
        "gather".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.n.div_ceil(256),
            threads_per_block: 256,
            regs_per_thread: 16,
            shared_mem_per_block: 1024,
        }
    }

    fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
        let warps = 256 / gpu.warp_size;
        let mut b = TraceBuilder::new(warps);
        const TABLE: u64 = 0x2000_0000;
        // Each warp's shared accumulator slots, written before the barrier
        // and read back after it: one immutable pattern, shared by handle.
        let slots: Vec<Lanes<u32>> = (0..warps)
            .map(|w| (0..32).map(|lane| ((w * 32 + lane) * 4) as u32).collect())
            .collect();
        for (w, slot) in slots.iter().enumerate() {
            let mut s = b.warp(w).alu(2);
            for k in 0..self.k {
                // Data-dependent per-lane addresses: poor coalescing.
                let addrs: Vec<u64> = (0..32)
                    .map(|lane| {
                        let i = block_id * 256 + w * 32 + lane;
                        TABLE + self.index(i, k) * 4
                    })
                    .collect();
                s = s.load_global(addrs, 4).alu(1);
            }
            // Accumulate into shared memory, conflict-free.
            s.store_shared(slot.clone(), 4);
        }
        b.barrier();
        for (w, slot) in slots.into_iter().enumerate() {
            b.warp(w)
                .load_shared(slot, 4)
                .store_global_seq(0x6000_0000 + (block_id * 1024 + w * 128) as u64, 4);
        }
        b.build().expect("builder keeps barriers matched")
    }
}

fn main() {
    let gpu = GpuConfig::gtx580();

    // One-off profile, like nvprof.
    let run = profile_kernel(
        &gpu,
        &GatherKernel {
            n: 1 << 20,
            k: 4,
            spread: 1 << 22,
        },
    )
    .expect("profile");
    println!("one run of {}: {:.3} ms", run.kernel, run.time_ms);
    for c in [
        "gld_request",
        "global_load_transaction",
        "l1_global_load_miss",
    ] {
        println!("  {c:<26} {:.0}", run.counters.get(c).unwrap());
    }
    let req = run.counters.get("gld_request").unwrap();
    let trans = run.counters.get("global_load_transaction").unwrap();
    println!(
        "  transactions per request: {:.1} (1.0 would be perfectly coalesced)",
        trans / req
    );

    // A sweep over problem size and locality, then the full pipeline.
    let mut observations = Vec::new();
    for e in 16..=20 {
        for spread_shift in [14usize, 18, 22] {
            let n = 1usize << e;
            let k = GatherKernel {
                n,
                k: 4,
                spread: 1 << spread_shift,
            };
            let run = profile_kernel(&gpu, &k).expect("profile");
            observations.push(Observation {
                run,
                characteristics: vec![
                    ("size".to_string(), n as f64),
                    ("spread".to_string(), (1u64 << spread_shift) as f64),
                ],
            });
        }
    }
    let opts = CollectOptions::default();
    let data = dataset_from_observations(&gpu, observations, &opts).expect("dataset");
    let model = BlackForestModel::fit(&data, &ModelConfig::quick(99)).expect("fit");
    println!(
        "\nBlackForest on the gather kernel ({} runs, OOB explained variance {:.1}%):",
        data.len(),
        model.validation.oob_r_squared * 100.0
    );
    println!("{}", report::importance_chart(&model, 8));
    let bn = bottleneck::BottleneckReport::analyze(&model, 8);
    println!("{}", report::bottleneck_text(&bn));
}
