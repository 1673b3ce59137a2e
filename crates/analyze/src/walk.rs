//! The static instruction walk: event counts and bottleneck metrics derived
//! from a kernel's traces without running the cycle engine.
//!
//! The walk compiles exactly the blocks the dynamic engine samples (its own
//! sampler, [`gpu_sim::sample_blocks`]) through the engine's compile stage
//! ([`gpu_sim::soa::compile`]), folds the compiled ops ([`fold_op`]), then
//! scales to the full grid by the same `grid_blocks / sampled_blocks`
//! factor. The per-instruction counting rules
//! (lanes, replays, transactions, requested bytes) thus have one producer;
//! the fold adds only the static-only counters and the profiles. Every
//! counter with a dynamic counterpart is expected to match the simulator
//! bit-for-bit — the differential oracle ([`crate::oracle`]) pins that
//! equivalence as an executable check.
//!
//! Counters that depend on cache state or timing (L1/L2 read hits, DRAM
//! reads, cycles, seconds) are *not* derivable statically and are excluded;
//! the roofline classification instead uses a documented no-cache upper bound
//! on DRAM read traffic.

use gpu_sim::coalesce::coalesce_into;
use gpu_sim::counters::raw_event_field_names;
use gpu_sim::occupancy::Occupancy;
use gpu_sim::soa::{self, CompiledLaunch, Op, OpKind};
use gpu_sim::trace::{KernelTrace, LaunchConfig, WarpInstruction};
use gpu_sim::{sample_blocks, GpuConfig, Result, SampledBlocks};
use serde::Serialize;

/// Where in a kernel an interesting access lives: sampled block id, warp
/// index within the block, and instruction index within the warp stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Location {
    /// Block id (a real grid block id, one of the sampled representatives).
    pub block: usize,
    /// Warp index within the block.
    pub warp: usize,
    /// Instruction index within the warp's stream.
    pub instruction: usize,
}

/// Declares [`StaticCounts`] from its one field list and derives every
/// per-field routine from that list, as `for_each_raw_event_field!` does
/// for [`gpu_sim::RawEvents`]. `raw_events` holds the counts the simulator
/// also produces, under their `RawEvents` field names; `static_only` holds
/// the counts only the walk derives.
macro_rules! static_counts {
    (
        raw_events { $($(#[$rdoc:meta])* $r:ident,)* }
        static_only { $($(#[$sdoc:meta])* $s:ident,)* }
    ) => {
        /// Statically derived event counts, scaled to the full grid. Field
        /// names match [`gpu_sim::RawEvents`] where a dynamic counterpart
        /// exists.
        #[derive(Debug, Clone, Copy, Default, Serialize)]
        pub struct StaticCounts {
            $($(#[$rdoc])* pub $r: f64,)*
            $($(#[$sdoc])* pub $s: f64,)*
        }

        impl StaticCounts {
            const FIELDS: usize = [$(stringify!($r),)* $(stringify!($s),)*].len();
            const RAW_EVENT_FIELDS: usize = [$(stringify!($r),)*].len();

            /// Counter (name, value) pairs in declaration order: every
            /// field, so the per-block attribution's conservation check
            /// covers a newly added counter without further code.
            pub fn fields(&self) -> [(&'static str, f64); StaticCounts::FIELDS] {
                [$((stringify!($r), self.$r),)* $((stringify!($s), self.$s),)*]
            }

            /// The counts the simulator also produces, in declaration
            /// order: (name, index into [`gpu_sim::RawEvents::as_array`],
            /// value). The oracle diffs these against a launch's events,
            /// and the what-if rows derive profiler counters from them.
            pub fn raw_event_fields(
                &self,
            ) -> [(&'static str, usize, f64); StaticCounts::RAW_EVENT_FIELDS] {
                [$((stringify!($r), raw_event_index(stringify!($r)), self.$r),)*]
            }

            /// Adds another count set field by field (used when summing
            /// per-block attributions back into launch totals).
            pub fn add(&mut self, other: &StaticCounts) {
                $(self.$r += other.$r;)*
                $(self.$s += other.$s;)*
            }

            pub(crate) fn scaled(&self, factor: f64) -> StaticCounts {
                StaticCounts {
                    $($r: self.$r * factor,)*
                    $($s: self.$s * factor,)*
                }
            }
        }
    };
}

/// Position of the `RawEvents` field `name` in
/// [`gpu_sim::RawEvents::as_array`].
fn raw_event_index(name: &str) -> usize {
    raw_event_field_names()
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("`{name}` is not a RawEvents field"))
}

static_counts! {
    raw_events {
        /// Warp instructions executed.
        inst_executed,
        /// Issue slots consumed (replays and per-transaction issues included).
        inst_issued,
        /// Thread-level instructions (warp instructions x active lanes).
        thread_inst_executed,
        /// Branch instructions.
        branch,
        /// Divergent branch instructions.
        divergent_branch,
        /// Shared-memory load instructions.
        shared_load,
        /// Shared-memory store instructions.
        shared_store,
        /// Shared load replays from bank conflicts.
        shared_load_replay,
        /// Shared store replays from bank conflicts.
        shared_store_replay,
        /// Global load requests (one per load instruction).
        gld_request,
        /// Global store requests.
        gst_request,
        /// Bytes requested by global loads (active lanes x width).
        gld_requested_bytes,
        /// Bytes requested by global stores.
        gst_requested_bytes,
        /// Global load transactions (128B L1 lines on Fermi, 32B sectors on
        /// Kepler — the architecture's natural granularity).
        global_load_transactions,
        /// Global store transactions (reported at up-to-128B granularity).
        global_store_transactions,
        /// L2 write-transaction sectors (32B; write-through on both archs).
        l2_write_transactions,
        /// DRAM write-transaction sectors (32B; mirrors L2 writes).
        dram_write_transactions,
        /// Warps launched across the grid.
        warps_launched,
        /// Blocks launched (= grid size).
        blocks_launched,
    }
    static_only {
        /// Barriers executed (static-only; folded into `inst_executed`).
        barriers,
        /// Warp-level ALU+SFU instructions (static-only; drives the roofline
        /// compute estimate).
        alu_warp_instructions,
        /// Thread-level ALU+SFU operations (static-only; the "flops" numerator
        /// of arithmetic intensity).
        alu_thread_ops,
        /// Global-load traffic at the architecture's transaction granularity
        /// (static-only; denominator of load efficiency).
        load_traffic_bytes,
        /// Global-store traffic in 32B sectors (static-only).
        store_traffic_bytes,
        /// No-cache upper bound on DRAM read traffic: 32B sectors per load
        /// (static-only; feeds the roofline memory-time estimate).
        dram_read_bytes_bound,
    }
}

/// Shared-memory bank-conflict profile of the sampled blocks (unscaled —
/// spans point at concrete instructions, counts are per sampled set).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SharedConflictSummary {
    /// Shared-memory access instructions walked.
    pub accesses: u64,
    /// Accesses with at least one bank conflict (degree >= 2).
    pub conflicted: u64,
    /// Worst conflict degree seen (1 = conflict-free).
    pub max_degree: u32,
    /// Location of the worst-degree access.
    pub worst: Option<Location>,
}

/// Global-memory coalescing profile of the sampled blocks (unscaled counts;
/// the ratios are scale-invariant).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CoalescingSummary {
    /// Memory-request instructions walked.
    pub requests: u64,
    /// Transactions generated at the architecture's granularity.
    pub transactions: u64,
    /// Bytes the active lanes asked for.
    pub requested_bytes: u64,
    /// Bytes the transactions move.
    pub traffic_bytes: u64,
    /// Location of the least-efficient access.
    pub worst: Option<Location>,
    /// Efficiency of the least-efficient access (requested/traffic).
    pub worst_efficiency: f64,
}

impl CoalescingSummary {
    /// Requested bytes over moved bytes (1.0 when there is no traffic).
    pub fn efficiency(&self) -> f64 {
        if self.traffic_bytes == 0 {
            1.0
        } else {
            self.requested_bytes as f64 / self.traffic_bytes as f64
        }
    }
}

/// Branch-divergence profile of the sampled blocks.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct DivergenceSummary {
    /// Branch instructions walked.
    pub branches: u64,
    /// Divergent branches.
    pub divergent: u64,
    /// Location of the first divergent branch.
    pub first: Option<Location>,
}

/// Which side of the roofline a launch sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BoundKind {
    /// Estimated compute time dominates memory time.
    ComputeBound,
    /// Estimated memory time dominates compute time.
    MemoryBound,
    /// Within a factor of 1.5 of each other.
    Balanced,
}

impl BoundKind {
    /// Lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            BoundKind::ComputeBound => "compute-bound",
            BoundKind::MemoryBound => "memory-bound",
            BoundKind::Balanced => "balanced",
        }
    }
}

/// Roofline-style classification of one launch.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Roofline {
    /// Estimated time to issue the ALU/SFU work, seconds.
    pub compute_seconds: f64,
    /// Estimated time to move the no-cache-bound DRAM traffic, seconds.
    pub memory_seconds: f64,
    /// Thread-level ALU+SFU ops per byte of DRAM traffic bound.
    pub arithmetic_intensity: f64,
    /// The classification.
    pub bound: BoundKind,
}

/// Full static analysis of one kernel launch.
#[derive(Debug, Clone, Serialize)]
pub struct StaticLaunchAnalysis {
    /// Kernel name.
    pub kernel: String,
    /// The launch configuration analyzed.
    pub launch: LaunchConfig,
    /// Theoretical occupancy and its limiter.
    pub occupancy: Occupancy,
    /// The representative block ids that were walked.
    pub sampled_blocks: Vec<usize>,
    /// Grid scaling factor applied to `counts`.
    pub scale: f64,
    /// Event counts scaled to the full grid.
    pub counts: StaticCounts,
    /// Bank-conflict profile (sampled blocks).
    pub shared: SharedConflictSummary,
    /// Load-coalescing profile (sampled blocks).
    pub loads: CoalescingSummary,
    /// Store-coalescing profile (sampled blocks).
    pub stores: CoalescingSummary,
    /// Branch-divergence profile (sampled blocks).
    pub divergence: DivergenceSummary,
}

impl StaticLaunchAnalysis {
    /// Global-load efficiency: requested bytes / transaction bytes.
    pub fn load_efficiency(&self) -> f64 {
        self.loads.efficiency()
    }

    /// Global-store efficiency (measured against 32B sectors).
    pub fn store_efficiency(&self) -> f64 {
        self.stores.efficiency()
    }

    /// Roofline classification against a GPU's throughput and bandwidth.
    ///
    /// Compute time assumes perfect occupancy of the ALU pipelines across all
    /// SMs; memory time charges the no-cache DRAM traffic bound against peak
    /// bandwidth. Both are optimistic lower bounds, which is what a roofline
    /// compares.
    pub fn roofline(&self, gpu: &GpuConfig) -> Roofline {
        let clock_hz = gpu.clock_ghz * 1e9;
        let compute_seconds = self.counts.alu_warp_instructions
            / (gpu.num_sms as f64 * gpu.alu_throughput * clock_hz);
        let dram_bytes = self.counts.dram_read_bytes_bound + self.counts.store_traffic_bytes;
        let memory_seconds = dram_bytes / (gpu.mem_bandwidth_gbps * 1e9);
        let arithmetic_intensity = if dram_bytes > 0.0 {
            self.counts.alu_thread_ops / dram_bytes
        } else {
            f64::INFINITY
        };
        let bound = if memory_seconds > compute_seconds * 1.5 {
            BoundKind::MemoryBound
        } else if compute_seconds > memory_seconds * 1.5 {
            BoundKind::ComputeBound
        } else {
            BoundKind::Balanced
        };
        Roofline {
            compute_seconds,
            memory_seconds,
            arithmetic_intensity,
            bound,
        }
    }
}

/// Statically analyzes one kernel launch: occupancy, a counting walk over the
/// sampled block traces, and coalescing/bank-conflict/divergence profiles.
///
/// Traces are validated before walking, so malformed kernels fail with the
/// same `BadTrace` errors the simulator raises.
pub fn analyze_launch(gpu: &GpuConfig, kernel: &dyn KernelTrace) -> Result<StaticLaunchAnalysis> {
    Ok(SampledLaunch::new(gpu, kernel)?.walk(gpu))
}

/// One launch's sampled blocks and their compiled ops: the prologue every
/// pass over a launch shares. The launch walk ([`SampledLaunch::walk`]),
/// the per-block attribution ([`SampledLaunch::attribute`]) and the
/// simulation the oracle diffs against
/// ([`gpu_sim::simulate_sampled_launch_with`] over `blocks`) all read it, so
/// a caller that wants several of them generates and compiles the traces
/// once.
pub struct SampledLaunch {
    /// Kernel name.
    pub(crate) kernel: String,
    /// The blocks the dynamic engine would simulate, and their traces.
    pub(crate) blocks: SampledBlocks,
    /// `blocks.traces` compiled by the engine's compile stage (which
    /// validates).
    compiled: CompiledLaunch,
}

impl SampledLaunch {
    /// Samples the blocks the dynamic engine would, through its own sampler
    /// ([`gpu_sim::sample_blocks`]), and compiles their traces.
    pub fn new(gpu: &GpuConfig, kernel: &dyn KernelTrace) -> Result<SampledLaunch> {
        let blocks = sample_blocks(gpu, kernel)?;
        let compiled = soa::compile(gpu, &blocks.traces)?;
        Ok(SampledLaunch {
            kernel: kernel.name(),
            blocks,
            compiled,
        })
    }

    /// Grid scaling factor: grid blocks per sampled block.
    pub(crate) fn scale(&self) -> f64 {
        self.blocks.launch.grid_blocks as f64 / self.blocks.traces.len() as f64
    }

    /// Every sampled warp in walk order: where its stream starts, the
    /// stream, and its compiled ops (one per instruction).
    pub(crate) fn warps(&self) -> impl Iterator<Item = (Location, &[WarpInstruction], &[Op])> {
        let streams = self
            .blocks
            .traces
            .iter()
            .flat_map(|t| t.warps.iter().enumerate());
        streams
            .zip(self.compiled.warps())
            .map(|((warp, stream), (block, ops))| {
                let loc = Location {
                    block: self.blocks.ids[block],
                    warp,
                    instruction: 0,
                };
                (loc, stream.as_slice(), ops)
            })
    }

    /// The launch-level counting fold over the compiled ops.
    pub fn walk(&self, gpu: &GpuConfig) -> StaticLaunchAnalysis {
        let mut acc = Accumulator::default();
        let mut sectors = Vec::new();
        acc.counts.blocks_launched = self.blocks.traces.len() as f64;
        for (loc, stream, ops) in self.warps() {
            acc.counts.warps_launched += 1.0;
            for (i, (op, instr)) in ops.iter().zip(stream).enumerate() {
                let loc = Location {
                    instruction: i,
                    ..loc
                };
                fold_op(gpu, op, instr, loc, &mut acc, &mut sectors);
            }
        }

        let scale = self.scale();
        StaticLaunchAnalysis {
            kernel: self.kernel.clone(),
            launch: self.blocks.launch,
            occupancy: self.blocks.occupancy,
            sampled_blocks: self.blocks.ids.clone(),
            scale,
            counts: acc.counts.scaled(scale),
            shared: acc.shared,
            loads: acc.loads,
            stores: acc.stores,
            divergence: acc.divergence,
        }
    }
}

/// What the walk accumulates over a set of instructions: unscaled event
/// counts plus the bank-conflict, coalescing and divergence profiles.
#[derive(Debug)]
pub(crate) struct Accumulator {
    pub counts: StaticCounts,
    pub shared: SharedConflictSummary,
    pub loads: CoalescingSummary,
    pub stores: CoalescingSummary,
    pub divergence: DivergenceSummary,
}

impl Default for Accumulator {
    fn default() -> Self {
        let mut acc = Accumulator {
            counts: StaticCounts::default(),
            shared: SharedConflictSummary::default(),
            loads: CoalescingSummary::default(),
            stores: CoalescingSummary::default(),
            divergence: DivergenceSummary::default(),
        };
        acc.loads.worst_efficiency = 1.0;
        acc.stores.worst_efficiency = 1.0;
        acc
    }
}

/// Adds one compiled op's events to `acc`. The per-instruction counts come
/// from the engine's compile stage; the fold sums them the way the execute
/// loop does and adds the static-only counters and the profiles.
///
/// `instr` is the op's source instruction. It is read for one count the
/// engine does not need: the 32-byte sectors of a load on line-tagged
/// Fermi (`load_segment_bytes() != 32`), for the DRAM read bound, coalesced
/// into the caller's `sectors` buffer.
pub(crate) fn fold_op(
    gpu: &GpuConfig,
    op: &Op,
    instr: &WarpInstruction,
    loc: Location,
    acc: &mut Accumulator,
    sectors: &mut Vec<u64>,
) {
    let counts = &mut acc.counts;
    let lanes = op.lanes as f64;
    match op.kind {
        OpKind::Alu => {
            let c = op.count as f64;
            counts.inst_executed += c;
            counts.inst_issued += c;
            counts.thread_inst_executed += c * lanes;
            counts.alu_warp_instructions += c;
            counts.alu_thread_ops += c * lanes;
        }
        OpKind::Sfu => {
            counts.inst_executed += 1.0;
            counts.inst_issued += 1.0;
            counts.thread_inst_executed += lanes;
            counts.alu_warp_instructions += 1.0;
            counts.alu_thread_ops += lanes;
        }
        OpKind::Branch => {
            let divergence = &mut acc.divergence;
            counts.inst_executed += 1.0;
            counts.branch += 1.0;
            counts.thread_inst_executed += lanes;
            divergence.branches += 1;
            if op.divergent {
                counts.divergent_branch += 1.0;
                counts.inst_issued += 2.0;
                divergence.divergent += 1;
                if divergence.first.is_none() {
                    divergence.first = Some(loc);
                }
            } else {
                counts.inst_issued += 1.0;
            }
        }
        OpKind::LoadShared | OpKind::StoreShared => {
            let r = op.replays as f64;
            counts.inst_executed += 1.0;
            counts.inst_issued += 1.0 + r;
            counts.thread_inst_executed += lanes;
            if op.kind == OpKind::LoadShared {
                counts.shared_load += 1.0;
                counts.shared_load_replay += r;
            } else {
                counts.shared_store += 1.0;
                counts.shared_store_replay += r;
            }
            let degree = u32::from(op.replays) + 1;
            let shared = &mut acc.shared;
            shared.accesses += 1;
            if degree >= 2 {
                shared.conflicted += 1;
            }
            if degree > shared.max_degree {
                shared.max_degree = degree;
                shared.worst = Some(loc);
            }
        }
        OpKind::LoadGlobal => {
            counts.gld_request += 1.0;
            counts.gld_requested_bytes += op.req_bytes as f64;
            counts.inst_executed += 1.0;
            counts.thread_inst_executed += lanes;
            // Line-tagged Fermi coalesces into whole L1 lines; every other
            // path — L1-bypassing Kepler/Maxwell and the sector-tagged
            // Pascal/Volta L1s — uses 32B sectors (matching the dynamic
            // transaction counter).
            let segment = gpu.load_segment_bytes();
            let ntrans = op.transactions();
            counts.global_load_transactions += ntrans as f64;
            counts.inst_issued += (ntrans as f64).max(1.0);
            counts.load_traffic_bytes += (ntrans as u64 * segment as u64) as f64;
            // On the sector paths the load's transactions already are the
            // 32B sectors of the DRAM bound.
            let nsectors = match instr {
                WarpInstruction::LoadGlobal { addrs, width, mask } if segment != 32 => {
                    coalesce_into(addrs, *width, *mask, 32, sectors);
                    sectors.len()
                }
                _ => ntrans,
            };
            counts.dram_read_bytes_bound += (nsectors * 32) as f64;
            let requested = u64::from(op.req_bytes);
            record_access(
                &mut acc.loads,
                loc,
                requested,
                ntrans as u64,
                segment as u64,
            );
        }
        OpKind::StoreGlobal => {
            counts.gst_request += 1.0;
            counts.gst_requested_bytes += op.req_bytes as f64;
            counts.inst_executed += 1.0;
            counts.thread_inst_executed += lanes;
            let nsectors = op.transactions();
            counts.l2_write_transactions += nsectors as f64;
            counts.dram_write_transactions += nsectors as f64;
            counts.store_traffic_bytes += (nsectors * 32) as f64;
            let store_trans = op.store_trans as f64;
            counts.global_store_transactions += store_trans;
            counts.inst_issued += store_trans.max(1.0);
            let requested = u64::from(op.req_bytes);
            record_access(&mut acc.stores, loc, requested, nsectors as u64, 32);
        }
        OpKind::Barrier => {
            counts.inst_executed += 1.0;
            counts.inst_issued += 1.0;
            counts.barriers += 1.0;
        }
    }
}

fn record_access(
    summary: &mut CoalescingSummary,
    loc: Location,
    requested: u64,
    transactions: u64,
    segment: u64,
) {
    summary.requests += 1;
    summary.transactions += transactions;
    summary.requested_bytes += requested;
    let traffic = transactions * segment;
    summary.traffic_bytes += traffic;
    if traffic > 0 {
        let eff = requested as f64 / traffic as f64;
        if eff < summary.worst_efficiency || summary.worst.is_none() {
            summary.worst_efficiency = eff;
            summary.worst = Some(loc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::trace::{BlockTrace, FULL_MASK};

    /// A tiny homogeneous kernel with one of everything.
    struct OneOfEach;

    impl KernelTrace for OneOfEach {
        fn name(&self) -> String {
            "one_of_each".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: 64,
                threads_per_block: 32,
                regs_per_thread: 16,
                shared_mem_per_block: 256,
            }
        }

        fn block_trace(&self, block_id: usize, _gpu: &GpuConfig) -> BlockTrace {
            let mut t = BlockTrace::with_warps(1);
            let base = 0x1000_0000u64 + block_id as u64 * 128;
            t.warps[0] = vec![
                WarpInstruction::LoadGlobal {
                    addrs: (0..32).map(|i| base + i * 4).collect(),
                    width: 4,
                    mask: FULL_MASK,
                },
                WarpInstruction::Alu {
                    count: 3,
                    mask: FULL_MASK,
                },
                // All lanes hit word 0: broadcast, conflict-free.
                WarpInstruction::StoreShared {
                    offsets: vec![0; 32].into(),
                    width: 4,
                    mask: FULL_MASK,
                },
                WarpInstruction::Barrier,
                // Stride-2 word access: two distinct words per bank -> the
                // classic 2-way conflict.
                WarpInstruction::LoadShared {
                    offsets: (0..32).map(|i| i * 2 * 4).collect(),
                    width: 4,
                    mask: FULL_MASK,
                },
                WarpInstruction::Branch {
                    divergent: true,
                    mask: FULL_MASK,
                },
                WarpInstruction::StoreGlobal {
                    addrs: (0..32).map(|_| 0x9000_0000 + block_id as u64 * 4).collect(),
                    width: 4,
                    mask: 1,
                },
            ];
            t
        }
    }

    #[test]
    fn walk_counts_one_of_each() {
        let gpu = GpuConfig::gtx580();
        let a = analyze_launch(&gpu, &OneOfEach).unwrap();
        assert!(!a.sampled_blocks.is_empty());
        // Every count below is (per-block count) x 64 grid blocks.
        let grid = 64.0;
        assert_eq!(a.counts.blocks_launched, 64.0);
        assert_eq!(a.counts.warps_launched, 64.0);
        // 1 load + 3 alu + 1 store.sh + 1 barrier + 1 load.sh + 1 br + 1 st
        assert_eq!(a.counts.inst_executed, 9.0 * grid);
        assert_eq!(a.counts.gld_request, grid);
        // Fully coalesced load: one 128B line.
        assert_eq!(a.counts.global_load_transactions, grid);
        assert_eq!(a.counts.gld_requested_bytes, 128.0 * grid);
        // Conflicted shared load: degree 2 -> one replay.
        assert_eq!(a.counts.shared_load_replay, grid);
        assert_eq!(a.counts.shared_store_replay, 0.0);
        assert_eq!(a.shared.max_degree, 2);
        assert_eq!(a.counts.divergent_branch, grid);
        // Single-lane store: 4 bytes requested, one 32B sector.
        assert_eq!(a.counts.gst_requested_bytes, 4.0 * grid);
        assert_eq!(a.counts.l2_write_transactions, grid);
        assert!((a.store_efficiency() - 4.0 / 32.0).abs() < 1e-12);
        assert!((a.load_efficiency() - 1.0).abs() < 1e-12);
    }

    fn json(v: &impl Serialize) -> String {
        serde_json::to_string(v).expect("analysis serializes")
    }

    /// Lint samples and compiles each launch once and folds the same ops
    /// twice; that must serialize byte-equal to the public entry points,
    /// which sample and compile afresh for each pass.
    #[test]
    fn one_compile_for_both_folds_matches_the_public_entry_points() {
        let mut launches = 0;
        for gpu in [GpuConfig::gtx580(), GpuConfig::v100()] {
            for workload in ["reduce1", "nw"] {
                let (apps, _) = crate::lint::workload_sweep_with_chars(workload, true).unwrap();
                for app in apps {
                    for kernel in &app.launches {
                        let kernel = kernel.as_ref();
                        let sampled = SampledLaunch::new(&gpu, kernel).unwrap();
                        let walked = sampled.walk(&gpu);
                        let attributed = sampled.attribute(&gpu);
                        assert_eq!(
                            json(&walked),
                            json(&analyze_launch(&gpu, kernel).unwrap()),
                            "{} walk on {}",
                            walked.kernel,
                            gpu.name
                        );
                        assert_eq!(
                            json(&attributed),
                            json(&crate::attr::attribute_launch(&gpu, kernel).unwrap()),
                            "{} attribution on {}",
                            walked.kernel,
                            gpu.name
                        );
                        launches += 1;
                    }
                }
            }
        }
        assert!(launches > 0);
    }

    #[test]
    fn roofline_classifies_streaming_kernel_as_memory_bound() {
        let gpu = GpuConfig::gtx580();
        let a = analyze_launch(&gpu, &OneOfEach).unwrap();
        let r = a.roofline(&gpu);
        // 3 ALU warp-instructions vs 160B of DRAM traffic per block: memory
        // wins by a wide margin on any real ratio of clock to bandwidth.
        assert_eq!(r.bound, BoundKind::MemoryBound);
        assert!(r.arithmetic_intensity < 1.0);
    }
}
