//! Kernel traces: the interface between workloads and the simulator.
//!
//! A kernel is described by its launch geometry plus, for any thread block,
//! the per-warp instruction streams with concrete per-lane addresses. The
//! simulator never sees source code — only these traces — which mirrors how
//! hardware performance counters observe real kernels.
//!
//! A memory instruction's per-lane addresses are a [`Lanes`] handle: an
//! immutable, reference-counted slice. Generators build each distinct
//! address pattern once and clone the handle wherever it repeats (a tiled
//! kernel's shared offsets recur every tile step, a block's tile-relative
//! offsets recur in every block), so a trace refers to each pattern once
//! instead of owning a copy per instruction. Handles compare and hash by
//! content, so sharing never changes a trace's identity: a trace built
//! with shared handles equals, and hashes exactly like, one built with a
//! fresh slice per instruction.

use crate::arch::GpuConfig;
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::Arc;

/// The per-lane addresses (or shared-memory offsets) of one warp memory
/// instruction: an immutable slice behind a cheap-to-clone shared handle.
///
/// `Eq` and `Hash` are by content — `Hash` feeds exactly the bytes a
/// `Vec<T>` of the same elements would — so memo keys and trace digests do
/// not depend on which instructions share a handle. [`Lanes::ptr_eq`] tells
/// the shared case apart where identity is a useful shortcut.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Lanes<T>(Arc<[T]>);

impl<T> Lanes<T> {
    /// Whether `a` and `b` are the same shared slice (not merely equal).
    pub fn ptr_eq(a: &Lanes<T>, b: &Lanes<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> Deref for Lanes<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> From<Vec<T>> for Lanes<T> {
    fn from(v: Vec<T>) -> Lanes<T> {
        Lanes(v.into())
    }
}

impl<T, const N: usize> From<[T; N]> for Lanes<T> {
    fn from(a: [T; N]) -> Lanes<T> {
        Lanes(Arc::from(a))
    }
}

impl<T> FromIterator<T> for Lanes<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Lanes<T> {
        Lanes(iter.into_iter().collect())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Lanes<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Launch geometry and per-block resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Total thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Registers per thread (drives occupancy).
    pub regs_per_thread: usize,
    /// Static + dynamic shared memory per block, bytes.
    pub shared_mem_per_block: usize,
}

impl LaunchConfig {
    /// Warps per block on the given GPU (rounded up for partial warps).
    pub fn warps_per_block(&self, warp_size: usize) -> usize {
        self.threads_per_block.div_ceil(warp_size)
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.grid_blocks * self.threads_per_block
    }
}

/// The active-lane mask of a warp instruction (bit `i` = lane `i` active).
pub type LaneMask = u32;

/// A full 32-lane mask.
pub const FULL_MASK: LaneMask = u32::MAX;

/// Builds a mask with the first `n` lanes active.
pub fn first_lanes(n: usize) -> LaneMask {
    if n >= 32 {
        FULL_MASK
    } else {
        (1u32 << n) - 1
    }
}

/// One warp-level instruction of a kernel trace.
///
/// Memory instructions carry concrete addresses so the coalescing, cache,
/// and bank-conflict models operate on real access patterns rather than
/// statistical summaries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WarpInstruction {
    /// Integer/float arithmetic executed on the CUDA cores. `count` folds
    /// runs of dependent ALU instructions into one entry (issue cost and
    /// latency scale with it).
    Alu {
        /// Number of back-to-back ALU instructions this entry represents.
        count: u32,
        /// Active lanes.
        mask: LaneMask,
    },
    /// Special-function-unit op (transcendentals, fast math).
    Sfu {
        /// Active lanes.
        mask: LaneMask,
    },
    /// Global memory load. One address per active lane (`addrs[i]` is valid
    /// iff bit `i` of `mask` is set; inactive lanes hold 0).
    LoadGlobal {
        /// Byte addresses, one slot per lane.
        addrs: Lanes<u64>,
        /// Bytes accessed per lane (4 for `float`, 8 for `double`, ...).
        width: u8,
        /// Active lanes.
        mask: LaneMask,
    },
    /// Global memory store.
    StoreGlobal {
        /// Byte addresses, one slot per lane.
        addrs: Lanes<u64>,
        /// Bytes accessed per lane.
        width: u8,
        /// Active lanes.
        mask: LaneMask,
    },
    /// Shared memory load; addresses are byte offsets into the block's
    /// shared-memory allocation.
    LoadShared {
        /// Byte offsets, one slot per lane.
        offsets: Lanes<u32>,
        /// Bytes per lane.
        width: u8,
        /// Active lanes.
        mask: LaneMask,
    },
    /// Shared memory store.
    StoreShared {
        /// Byte offsets, one slot per lane.
        offsets: Lanes<u32>,
        /// Bytes per lane.
        width: u8,
        /// Active lanes.
        mask: LaneMask,
    },
    /// A branch instruction; `divergent` marks intra-warp divergence, which
    /// serialises the two paths (the simulator charges one extra issue).
    Branch {
        /// Whether lanes of this warp take different directions.
        divergent: bool,
        /// Active lanes.
        mask: LaneMask,
    },
    /// Block-wide barrier (`__syncthreads()`).
    Barrier,
}

impl WarpInstruction {
    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        match self {
            WarpInstruction::Alu { mask, .. }
            | WarpInstruction::Sfu { mask }
            | WarpInstruction::LoadGlobal { mask, .. }
            | WarpInstruction::StoreGlobal { mask, .. }
            | WarpInstruction::LoadShared { mask, .. }
            | WarpInstruction::StoreShared { mask, .. }
            | WarpInstruction::Branch { mask, .. } => mask.count_ones(),
            WarpInstruction::Barrier => 32,
        }
    }

    /// Number of warp instructions this entry represents (ALU entries fold
    /// `count` instructions; everything else is 1).
    pub fn instruction_count(&self) -> u32 {
        match self {
            WarpInstruction::Alu { count, .. } => *count,
            _ => 1,
        }
    }
}

/// The instruction streams of one thread block: one stream per warp.
///
/// `Hash`/`Eq` are content hashes over the full instruction streams — the
/// launch-memoization cache ([`crate::memo`]) is keyed on them, which is
/// sound because the simulator is a pure function of the traces.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BlockTrace {
    /// `warps[w]` is warp `w`'s instruction stream.
    pub warps: Vec<Vec<WarpInstruction>>,
}

impl BlockTrace {
    /// Creates a trace with `n` empty warp streams.
    pub fn with_warps(n: usize) -> BlockTrace {
        BlockTrace {
            warps: vec![Vec::new(); n],
        }
    }

    /// Total warp instructions in the block (counting folded ALU runs).
    pub fn total_instructions(&self) -> u64 {
        self.warps
            .iter()
            .flat_map(|w| w.iter())
            .map(|i| i.instruction_count() as u64)
            .sum()
    }

    /// Checks structural validity:
    ///
    /// * every warp must contain the same number of barriers (otherwise the
    ///   block would deadlock on real hardware), and
    /// * every memory instruction's address/offset vector must cover its
    ///   active lanes — the convention is one slot per lane, so an active
    ///   bit at lane `i` requires `addrs.len() > i`. A generator that emits
    ///   fewer slots than it activates would otherwise have those lanes
    ///   silently dropped by the coalescing and bank-conflict models,
    ///   under-reporting accesses.
    pub fn validate(&self) -> crate::Result<()> {
        let barrier_count = |stream: &[WarpInstruction]| {
            stream
                .iter()
                .filter(|i| matches!(i, WarpInstruction::Barrier))
                .count()
        };
        if let Some(first) = self.warps.first() {
            let expect = barrier_count(first);
            for (w, stream) in self.warps.iter().enumerate() {
                let got = barrier_count(stream);
                if got != expect {
                    return Err(crate::SimError::BadTrace(format!(
                        "warp {w} has {got} barriers, warp 0 has {expect}"
                    )));
                }
            }
        }
        for (w, stream) in self.warps.iter().enumerate() {
            for (i, instr) in stream.iter().enumerate() {
                let (what, slots, mask) = match instr {
                    WarpInstruction::LoadGlobal { addrs, mask, .. } => {
                        ("global load addrs", addrs.len(), *mask)
                    }
                    WarpInstruction::StoreGlobal { addrs, mask, .. } => {
                        ("global store addrs", addrs.len(), *mask)
                    }
                    WarpInstruction::LoadShared { offsets, mask, .. } => {
                        ("shared load offsets", offsets.len(), *mask)
                    }
                    WarpInstruction::StoreShared { offsets, mask, .. } => {
                        ("shared store offsets", offsets.len(), *mask)
                    }
                    _ => continue,
                };
                if mask == 0 {
                    continue;
                }
                let highest = 31 - mask.leading_zeros() as usize;
                if highest >= slots {
                    return Err(crate::SimError::BadTrace(format!(
                        "warp {w} instruction {i}: {what} has {slots} slots but \
                         the lane mask ({} active lanes) activates lane {highest}; \
                         active lanes without an address slot would be silently \
                         dropped",
                        mask.count_ones()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A traceable kernel: launch geometry plus per-block traces.
///
/// Implementations generate the *address patterns* of real CUDA kernels
/// (the CUDA SDK reductions, tiled matrix multiply, Rodinia NW), so the
/// microarchitectural counters the simulator derives match the mechanisms
/// the real kernels trigger.
pub trait KernelTrace: Send + Sync {
    /// Kernel name (used in reports, mirrors the CUDA kernel symbol).
    fn name(&self) -> String;

    /// Launch geometry for this kernel instance.
    fn launch_config(&self) -> LaunchConfig;

    /// Produces the instruction streams of block `block_id` on `gpu`.
    fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace;

    /// Whether all blocks are statistically identical; homogeneous grids are
    /// sampled with a handful of representative blocks. All kernels studied
    /// in the paper are homogeneous (NW launches one homogeneous grid per
    /// diagonal).
    fn homogeneous(&self) -> bool {
        true
    }

    /// A compact, cross-process-stable identity for the *content* of every
    /// trace this kernel generates, or `None` (the default) when only full
    /// trace hashing can identify it.
    ///
    /// `block_trace` is required to be a pure function of
    /// `(self, block_id, gpu)`, so when a kernel's whole state is a handful
    /// of scalars, a digest of those scalars — plus a unique type tag and a
    /// generator version — identifies its traces exactly as precisely as
    /// hashing every generated address, at a fraction of the cost. The
    /// memoization layer ([`crate::memo`]) keys tagged kernels on this
    /// digest and skips trace construction entirely on cache hits.
    ///
    /// Contract for implementations: fold in a tag unique to the kernel
    /// *type*, a version that is bumped whenever the generator's emitted
    /// instructions change, and every field that influences `name`,
    /// `launch_config`, or `block_trace`. Do NOT fold in GPU state — the
    /// memo key already covers it via the GPU fingerprint. Returning an
    /// incomplete digest silently aliases distinct launches; when in doubt,
    /// return `None`.
    fn content_tag(&self) -> Option<u128> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_lanes_masks() {
        assert_eq!(first_lanes(0), 0);
        assert_eq!(first_lanes(1), 1);
        assert_eq!(first_lanes(16), 0xFFFF);
        assert_eq!(first_lanes(32), u32::MAX);
        assert_eq!(first_lanes(100), u32::MAX);
    }

    #[test]
    fn active_lanes_counts_mask_bits() {
        let i = WarpInstruction::Alu {
            count: 3,
            mask: 0b1011,
        };
        assert_eq!(i.active_lanes(), 3);
        assert_eq!(i.instruction_count(), 3);
        assert_eq!(WarpInstruction::Barrier.active_lanes(), 32);
        assert_eq!(WarpInstruction::Barrier.instruction_count(), 1);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let lc = LaunchConfig {
            grid_blocks: 4,
            threads_per_block: 48,
            regs_per_thread: 16,
            shared_mem_per_block: 0,
        };
        assert_eq!(lc.warps_per_block(32), 2);
        assert_eq!(lc.total_threads(), 192);
    }

    #[test]
    fn validate_accepts_matching_barriers() {
        let mut t = BlockTrace::with_warps(2);
        for w in &mut t.warps {
            w.push(WarpInstruction::Alu {
                count: 1,
                mask: FULL_MASK,
            });
            w.push(WarpInstruction::Barrier);
        }
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_mismatched_barriers() {
        let mut t = BlockTrace::with_warps(2);
        t.warps[0].push(WarpInstruction::Barrier);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_active_lanes_without_address_slots() {
        // Active lane 4 (bit 4 set) but only 3 address slots: the coalescer
        // would silently skip lanes 3..=4.
        let mut t = BlockTrace::with_warps(1);
        t.warps[0].push(WarpInstruction::LoadGlobal {
            addrs: vec![0, 4, 8].into(),
            width: 4,
            mask: 0b1_0111,
        });
        let err = t.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("global load addrs"), "unexpected error: {msg}");
        assert!(msg.contains("lane 4"), "unexpected error: {msg}");
    }

    #[test]
    fn validate_rejects_short_shared_offset_vectors() {
        let mut t = BlockTrace::with_warps(2);
        for w in &mut t.warps {
            w.push(WarpInstruction::StoreShared {
                offsets: vec![0; 16].into(),
                width: 4,
                mask: FULL_MASK,
            });
        }
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("shared store offsets"));
    }

    #[test]
    fn validate_accepts_full_slot_vectors_with_sparse_masks() {
        // The documented convention: one slot per lane, inactive lanes hold
        // 0. A single active lane with 32 slots is valid.
        let mut t = BlockTrace::with_warps(1);
        t.warps[0].push(WarpInstruction::StoreGlobal {
            addrs: vec![0; 32].into(),
            width: 4,
            mask: 1,
        });
        t.warps[0].push(WarpInstruction::LoadShared {
            offsets: vec![0; 32].into(),
            width: 4,
            mask: 0,
        });
        assert!(t.validate().is_ok());
    }

    #[test]
    fn total_instructions_counts_folded_alu() {
        let mut t = BlockTrace::with_warps(1);
        t.warps[0].push(WarpInstruction::Alu {
            count: 5,
            mask: FULL_MASK,
        });
        t.warps[0].push(WarpInstruction::Barrier);
        assert_eq!(t.total_instructions(), 6);
    }
}
