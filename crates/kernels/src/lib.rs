//! Workloads for the GPU simulator: the kernels the paper studies.
//!
//! Three applications, re-implemented from their reference CUDA sources so
//! that both the *algorithms* (validated against CPU references) and the
//! *address patterns* (fed to the simulator as traces) are faithful:
//!
//! * [`reduce`] — the seven CUDA SDK parallel-reduction kernels
//!   (`reduce0`..`reduce6`), each embodying one optimisation step of Mark
//!   Harris's classic tutorial. The paper analyses kernels 1, 2 and 6 (§5).
//! * [`matmul`] — naive and shared-memory-tiled matrix multiplication
//!   (CUDA SDK `matrixMul`), the paper's first prediction case study (§6.1.1).
//! * [`nw`] — Needleman-Wunsch sequence alignment (Rodinia `needle`),
//!   processed in diagonal strips with 16-thread blocks, the paper's second
//!   case study (§6.1.2).
//! * [`stencil`] — a 2D Jacobi 5-point stencil: an extension workload beyond
//!   the paper's evaluation (§7 lists "more applications" as current work).
//!
//! Every module exposes:
//! 1. a **functional implementation** that computes the same result as the
//!    CUDA kernel in the same evaluation order (tested against a sequential
//!    reference), and
//! 2. one or more [`gpu_sim::KernelTrace`] implementations generating the
//!    kernel's exact per-warp address streams, plus
//! 3. a **host driver** assembling the multi-launch application the paper
//!    profiles (multi-pass reduction; per-diagonal NW launches).

// Index-based loops are the clearer idiom throughout this numeric code
// (parallel arrays, in-place matrix updates), so the pedantic lint is off.
#![allow(clippy::needless_range_loop)]

pub mod matmul;
pub mod nw;
pub mod reduce;
pub mod stencil;

use gpu_sim::{profile_applications, GpuConfig, KernelTrace, ProfiledRun, SimCache};

/// Version of this crate's trace generators, folded into every
/// [`KernelTrace::content_tag`] digest. Bump it whenever ANY generator's
/// emitted instruction streams change (addresses, masks, folding, ordering)
/// — stale memoized results keyed on the old tag then stop matching, both
/// in memory and in the persistent disk cache.
pub const TRACE_GEN_VERSION: u64 = 1;

/// Builds the [`KernelTrace::content_tag`] digest used by every kernel in
/// this crate: one [`gpu_sim::Bf128Hasher`] pass over
/// (generator version, per-type tag, the kernel's complete field set).
pub(crate) fn content_tag128<F: std::hash::Hash>(type_tag: u64, fields: &F) -> u128 {
    use std::hash::Hash;
    let mut h = gpu_sim::Bf128Hasher::new();
    TRACE_GEN_VERSION.hash(&mut h);
    type_tag.hash(&mut h);
    fields.hash(&mut h);
    h.finish128()
}

/// Base address of the primary input array in the simulated address space.
pub const INPUT_BASE: u64 = 0x1000_0000;
/// Base address of the secondary input array.
pub const INPUT2_BASE: u64 = 0x5000_0000;
/// Base address of the output array.
pub const OUTPUT_BASE: u64 = 0x9000_0000;
/// Base address of scratch/auxiliary arrays.
pub const SCRATCH_BASE: u64 = 0xD000_0000;

/// A complete application run: a named sequence of kernel launches, ready to
/// be profiled as one unit (the way the paper's data collection treats one
/// benchmark execution).
pub struct Application {
    /// Application name (e.g. "reduce1", "matrixMul", "needle").
    pub name: String,
    /// The launches, in issue order.
    pub launches: Vec<Box<dyn KernelTrace>>,
}

impl Application {
    /// Profiles the whole application on a GPU: every launch is simulated,
    /// events are accumulated, and one counter set is derived. A one-element
    /// batch of [`profile_applications`] through the environment's memo
    /// cache ([`SimCache::from_env`]).
    pub fn profile(&self, gpu: &GpuConfig) -> gpu_sim::Result<ProfiledRun> {
        let cache = SimCache::from_env();
        let apps = [(self.name.as_str(), self.launches.as_slice())];
        Ok(profile_applications(gpu, &apps, cache.as_ref())?.remove(0))
    }

    /// The distinct kernel names launched by this application, in first-seen
    /// order — e.g. NW yields its two diagonal kernels, a multi-pass
    /// reduction yields one name. Static-analysis reports aggregate by these.
    pub fn kernel_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for launch in &self.launches {
            let n = launch.name();
            if !names.contains(&n) {
                names.push(n);
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_dedup_in_first_seen_order() {
        let app = crate::nw::nw_application(256, 10);
        let names = app.kernel_names();
        assert!(
            names.len() >= 2,
            "NW launches two diagonal kernels: {names:?}"
        );
        assert!(names.len() < app.launches.len(), "names must be deduped");
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "duplicate kernel name {n}");
        }
        // First-seen order: the first name is the first launch's kernel.
        assert_eq!(names[0], app.launches[0].name());
    }

    #[test]
    fn address_regions_do_not_overlap_for_gigabyte_arrays() {
        let gig = 1u64 << 30;
        assert!(INPUT_BASE + gig <= INPUT2_BASE);
        assert!(INPUT2_BASE + gig <= OUTPUT_BASE);
        assert!(OUTPUT_BASE + gig <= SCRATCH_BASE);
    }
}
