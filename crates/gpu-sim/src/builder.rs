//! A fluent builder for [`BlockTrace`]s.
//!
//! The kernels shipped in `bf-kernels` construct their traces by hand for
//! maximum control; downstream users modelling *their own* kernels usually
//! want something terser. [`TraceBuilder`] provides that: per-warp streams
//! with common access-pattern helpers (sequential, strided, broadcast) and
//! block-wide barriers that keep the trace structurally valid by
//! construction.
//!
//! The explicit-address methods take anything that converts into a
//! [`Lanes`] handle: a `Vec`, an array, or a handle already in use. A
//! pattern that repeats — the same shared offsets every loop iteration —
//! is best built once and passed as `lanes.clone()`, which shares the
//! immutable slice instead of copying it; the trace compares and hashes
//! the same either way.
//!
//! ```
//! use gpu_sim::builder::TraceBuilder;
//! use gpu_sim::GpuConfig;
//!
//! let mut b = TraceBuilder::new(4);
//! for w in 0..4 {
//!     b.warp(w)
//!         .alu(2)
//!         .load_global_seq(0x1000 + w as u64 * 128, 4)
//!         .store_shared_seq((w * 128) as u32, 4);
//! }
//! b.barrier();
//! for w in 0..4 {
//!     b.warp(w).load_shared_strided(0, 8, 4).alu(1);
//! }
//! let trace = b.build().unwrap();
//! assert_eq!(trace.warps.len(), 4);
//! ```

use crate::trace::{BlockTrace, LaneMask, Lanes, WarpInstruction, FULL_MASK};
use crate::Result;

/// Builds one block's warp streams.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    warps: Vec<Vec<WarpInstruction>>,
}

impl TraceBuilder {
    /// Creates a builder for a block with `n_warps` warps.
    pub fn new(n_warps: usize) -> TraceBuilder {
        TraceBuilder {
            warps: vec![Vec::new(); n_warps],
        }
    }

    /// Returns a stream handle for warp `w` (full 32-lane mask by default).
    pub fn warp(&mut self, w: usize) -> WarpStream<'_> {
        WarpStream {
            stream: &mut self.warps[w],
            mask: FULL_MASK,
        }
    }

    /// Appends a block-wide `__syncthreads()` to every warp, keeping barrier
    /// counts matched by construction.
    pub fn barrier(&mut self) -> &mut Self {
        for w in &mut self.warps {
            w.push(WarpInstruction::Barrier);
        }
        self
    }

    /// Finalises and validates the trace.
    pub fn build(self) -> Result<BlockTrace> {
        let trace = BlockTrace { warps: self.warps };
        trace.validate()?;
        Ok(trace)
    }
}

/// A handle appending instructions to one warp's stream.
pub struct WarpStream<'a> {
    stream: &'a mut Vec<WarpInstruction>,
    mask: LaneMask,
}

impl WarpStream<'_> {
    /// Sets the active-lane mask for subsequent instructions.
    pub fn mask(mut self, mask: LaneMask) -> Self {
        self.mask = mask;
        self
    }

    /// Appends `count` back-to-back ALU instructions.
    pub fn alu(self, count: u32) -> Self {
        self.stream.push(WarpInstruction::Alu {
            count,
            mask: self.mask,
        });
        self
    }

    /// Appends one special-function-unit instruction.
    pub fn sfu(self) -> Self {
        self.stream.push(WarpInstruction::Sfu { mask: self.mask });
        self
    }

    /// Appends a branch; `divergent` marks intra-warp divergence.
    pub fn branch(self, divergent: bool) -> Self {
        self.stream.push(WarpInstruction::Branch {
            divergent,
            mask: self.mask,
        });
        self
    }

    /// Global load with explicit per-lane addresses.
    pub fn load_global(self, addrs: impl Into<Lanes<u64>>, width: u8) -> Self {
        self.stream.push(WarpInstruction::LoadGlobal {
            addrs: addrs.into(),
            width,
            mask: self.mask,
        });
        self
    }

    /// Perfectly coalesced global load: lane `i` reads `base + i*width`.
    pub fn load_global_seq(self, base: u64, width: u8) -> Self {
        let addrs: Lanes<u64> = (0..32).map(|i| base + i * width as u64).collect();
        self.load_global(addrs, width)
    }

    /// Strided global load: lane `i` reads `base + i*stride` (uncoalesced
    /// when `stride` exceeds the access width).
    pub fn load_global_strided(self, base: u64, stride: u64, width: u8) -> Self {
        let addrs: Lanes<u64> = (0..32).map(|i| base + i * stride).collect();
        self.load_global(addrs, width)
    }

    /// Broadcast global load: every lane reads the same address.
    pub fn load_global_broadcast(self, addr: u64, width: u8) -> Self {
        self.load_global([addr; 32], width)
    }

    /// Global store with explicit per-lane addresses.
    pub fn store_global(self, addrs: impl Into<Lanes<u64>>, width: u8) -> Self {
        self.stream.push(WarpInstruction::StoreGlobal {
            addrs: addrs.into(),
            width,
            mask: self.mask,
        });
        self
    }

    /// Perfectly coalesced global store.
    pub fn store_global_seq(self, base: u64, width: u8) -> Self {
        let addrs: Lanes<u64> = (0..32).map(|i| base + i * width as u64).collect();
        self.store_global(addrs, width)
    }

    /// Shared load with explicit per-lane byte offsets.
    pub fn load_shared(self, offsets: impl Into<Lanes<u32>>, width: u8) -> Self {
        self.stream.push(WarpInstruction::LoadShared {
            offsets: offsets.into(),
            width,
            mask: self.mask,
        });
        self
    }

    /// Conflict-free unit-stride shared load from `base`.
    pub fn load_shared_seq(self, base: u32, width: u8) -> Self {
        let offsets: Lanes<u32> = (0..32).map(|i| base + i * width as u32).collect();
        self.load_shared(offsets, width)
    }

    /// Strided shared load: lane `i` reads byte offset `base + i*stride` —
    /// the bank-conflict generator (`stride` in *words* times 4).
    pub fn load_shared_strided(self, base: u32, stride: u32, width: u8) -> Self {
        let offsets: Lanes<u32> = (0..32).map(|i| base + i * stride).collect();
        self.load_shared(offsets, width)
    }

    /// Shared store with explicit per-lane byte offsets.
    pub fn store_shared(self, offsets: impl Into<Lanes<u32>>, width: u8) -> Self {
        self.stream.push(WarpInstruction::StoreShared {
            offsets: offsets.into(),
            width,
            mask: self.mask,
        });
        self
    }

    /// Conflict-free unit-stride shared store.
    pub fn store_shared_seq(self, base: u32, width: u8) -> Self {
        let offsets: Lanes<u32> = (0..32).map(|i| base + i * width as u32).collect();
        self.store_shared(offsets, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banks::{replays_scratch, BankScratch};
    use crate::cache::Cache;
    use crate::coalesce::coalesce_into;
    use crate::soa::simulate_resident_set;
    use crate::trace::{first_lanes, LaneMask};
    use crate::GpuConfig;

    fn lines(addrs: &[u64], width: u8, mask: LaneMask) -> usize {
        let mut out = Vec::new();
        coalesce_into(addrs, width, mask, 128, &mut out);
        out.len()
    }

    #[test]
    fn builder_produces_valid_traces() {
        let mut b = TraceBuilder::new(2);
        for w in 0..2 {
            b.warp(w).alu(3).load_global_seq(w as u64 * 4096, 4);
        }
        b.barrier();
        for w in 0..2 {
            b.warp(w).load_shared_seq(0, 4).alu(1);
        }
        let t = b.build().unwrap();
        assert_eq!(t.warps.len(), 2);
        assert_eq!(t.total_instructions(), 2 * (3 + 1 + 1 + 1 + 1));
    }

    #[test]
    fn mismatched_manual_barrier_fails_validation() {
        let mut b = TraceBuilder::new(2);
        // Bypass the block-wide helper to create an invalid trace.
        b.warp(0).alu(1);
        b.warps[0].push(WarpInstruction::Barrier);
        assert!(b.build().is_err());
    }

    #[test]
    fn mask_applies_to_subsequent_instructions() {
        let mut b = TraceBuilder::new(1);
        b.warp(0).mask(first_lanes(8)).alu(1);
        let t = b.build().unwrap();
        match &t.warps[0][0] {
            WarpInstruction::Alu { mask, .. } => assert_eq!(*mask, 0xFF),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strided_helpers_generate_expected_patterns() {
        let mut b = TraceBuilder::new(1);
        b.warp(0)
            .load_global_strided(0, 256, 4)
            .load_shared_strided(0, 8, 4)
            .load_global_broadcast(0x42000, 4);
        let t = b.build().unwrap();
        // Strided global: 32 distinct 128B lines.
        if let WarpInstruction::LoadGlobal { addrs, width, mask } = &t.warps[0][0] {
            assert_eq!(lines(addrs, *width, *mask), 32);
        } else {
            panic!();
        }
        // Strided shared: 2-way conflicts.
        if let WarpInstruction::LoadShared {
            offsets,
            width,
            mask,
        } = &t.warps[0][1]
        {
            let r = replays_scratch(offsets, *width, *mask, 32, 4, &mut BankScratch::new());
            assert_eq!(r, 1);
        } else {
            panic!();
        }
        // Broadcast: one transaction.
        if let WarpInstruction::LoadGlobal { addrs, width, mask } = &t.warps[0][2] {
            assert_eq!(lines(addrs, *width, *mask), 1);
        } else {
            panic!();
        }
    }

    #[test]
    fn built_traces_simulate() {
        let gpu = GpuConfig::gtx580();
        let mut b = TraceBuilder::new(4);
        for w in 0..4 {
            b.warp(w)
                .alu(2)
                .load_global_seq(w as u64 * 128, 4)
                .store_shared_seq(w as u32 * 128, 4);
        }
        b.barrier();
        for w in 0..4 {
            b.warp(w)
                .load_shared_seq(0, 4)
                .alu(1)
                .store_global_seq(0x10000 + w as u64 * 128, 4);
        }
        let t = b.build().unwrap();
        let mut l1 = Cache::new(gpu.l1_size, gpu.l1_line, gpu.l1_assoc);
        let mut l2 = Cache::new(gpu.l2_size / gpu.num_sms, 32, gpu.l2_assoc);
        let r = simulate_resident_set(&gpu, &[t], &mut l1, &mut l2).unwrap();
        assert!(r.cycles > 0.0);
        assert_eq!(r.events.gld_request, 4.0);
        assert_eq!(r.events.gst_request, 4.0);
        assert_eq!(r.events.shared_load, 4.0);
        assert_eq!(r.events.shared_store, 4.0);
    }
}
