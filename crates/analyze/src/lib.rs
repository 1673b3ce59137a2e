//! Static kernel-launch analysis for the BlackForest toolchain.
//!
//! The paper's bottleneck analysis is *dynamic*: it infers bank conflicts,
//! uncoalesced access, and occupancy limits from hardware-performance-counter
//! values after running the kernel. Much of that signal, however, is already
//! present in the program structure — the launch configuration fixes
//! occupancy, and the per-lane address streams fix coalescing and
//! bank-conflict behaviour. This crate extracts it without running the cycle
//! engine.
//!
//! Every pass over a launch reads one [`gpu_sim::SampledLaunch`]: the
//! blocks the simulator samples, compiled once by the engine's own compile
//! stage. The pipeline is sample → compile → {walk, attribute, execute},
//! and the passes are:
//!
//! * **Static walk** ([`walk`]) — [`analyze_sampled`] folds the compiled ops
//!   into full-grid event counts ([`StaticCounts`], whose one field list
//!   also names the counts shared with the simulator),
//!   coalescing/bank-conflict/divergence profiles, theoretical occupancy
//!   with its limiter, arithmetic intensity, and a roofline
//!   compute-vs-memory classification — in microseconds instead of a full
//!   simulation. [`analyze_launch`] samples, compiles and walks in one
//!   call.
//! * **Diagnostics** ([`diag`]) — clippy-style findings with stable codes
//!   (`BF-W001` bank conflicts, `BF-W002` uncoalesced access, `BF-W003` low
//!   occupancy, `BF-W004` divergence, `BF-I101` roofline note, `BF-E00x`
//!   errors), severities, spans, and fix suggestions; one routine builds
//!   the mechanism warnings at launch and at basic-block scope. Driven
//!   over whole workload sweeps by [`lint`] (the engine behind the
//!   `bf lint` subcommand, configured by one [`LintConfig`], with a stable
//!   JSON schema).
//! * **Differential oracle** ([`oracle`]) — every statically derivable
//!   counter is diffed against the dynamic simulator, which executes the
//!   same compiled ops ([`gpu_sim::simulate_sampled_launch_with`]), across
//!   the paper's sweeps; divergence beyond float noise means one side has
//!   a bug. This is the sanitizer that keeps the simulator's causal
//!   structure honest as it grows.
//! * **Basic-block attribution** ([`attr`]) — the same fold split by basic
//!   block ([`attribute_sampled`]; segmented at branch/barrier boundaries
//!   with stable content-derived ids), under a hard conservation
//!   invariant: per-block counters sum back to the launch totals
//!   bit-for-bit. Block-level diagnostics rank findings by attributed cost
//!   ([`diag::diagnose_blocks`], `BF-W005` hot-block, `BF-E003`
//!   conservation violation).
//! * **What-if estimation** ([`whatif`]) — each warning's hypothetical fix
//!   (conflict-free shared offsets, coalesced global addresses, converged
//!   branches) is applied to the traces, counters are re-derived statically,
//!   and both vectors go through a trained model ([`WhatIfModel`]) to price
//!   the fix in predicted milliseconds.

pub mod attr;
pub mod diag;
pub mod lint;
pub mod oracle;
pub mod walk;
pub mod whatif;

pub use attr::{
    attribute_launch, attribute_sampled, block_profile, check_conservation, AppBlockProfile,
    BlockAttribution, BlockLevelAnalysis, ConservationCheck, APP_HOT_BLOCK_SHARE,
};
pub use diag::{diagnose, diagnose_blocks, Diagnostic, Severity, Span};
pub use lint::{
    lint_applications_with, lint_workload_with, render_text, workload_sweep_with_chars, LintConfig,
    LintReport, WORKLOADS,
};
pub use oracle::{check_application, check_launch, compare, OracleReport, REL_TOLERANCE};
pub use walk::{
    analyze_launch, analyze_sampled, BoundKind, Roofline, StaticCounts, StaticLaunchAnalysis,
};
pub use whatif::{static_counter_values, whatif_scenarios, Fix, FixedKernel, WhatIfModel};
