//! Clippy-style diagnostics derived from a static launch analysis.
//!
//! Each diagnostic carries a stable code (the BF-Wxxx catalogue in
//! `DESIGN.md`), a severity, a span pointing into the kernel, a message, and
//! a suggestion. Codes:
//!
//! | code    | severity | fires when |
//! |---------|----------|------------|
//! | BF-W001 | warning  | shared-memory access with bank-conflict degree >= 2 |
//! | BF-W002 | warning  | global load or store coalescing efficiency < 50%   |
//! | BF-W003 | warning  | theoretical occupancy < 50%                        |
//! | BF-W004 | warning  | >= 20% of branches diverge                         |
//! | BF-W005 | warning  | one basic block carries >= 50% of attributed cost  |
//! | BF-I101 | info     | roofline classification (always, one per launch)   |
//! | BF-E001 | error    | malformed trace or impossible launch               |
//! | BF-E002 | error    | differential-oracle divergence                     |
//! | BF-E003 | error    | per-block attribution violates conservation        |
//!
//! With `--blocks`, the mechanism warnings (W001/W002/W004) are emitted per
//! basic block instead of per launch ([`diagnose_blocks`]), each carrying
//! the block's attributed cost so reports rank findings by how much of the
//! launch they actually touch.

use crate::attr::{BlockAttribution, BlockLevelAnalysis};
use crate::walk::{
    CoalescingSummary, DivergenceSummary, Location, SharedConflictSummary, StaticLaunchAnalysis,
};
use gpu_sim::occupancy::OccupancyLimiter;
use gpu_sim::{GpuConfig, SimError};
use serde::{Deserialize, Serialize, Value};

/// Bank-conflict warning.
pub const BANK_CONFLICT: &str = "BF-W001";
/// Uncoalesced-access warning.
pub const UNCOALESCED: &str = "BF-W002";
/// Low-occupancy warning.
pub const LOW_OCCUPANCY: &str = "BF-W003";
/// Branch-divergence warning.
pub const DIVERGENCE: &str = "BF-W004";
/// Hot-block warning: a single basic block dominates the attributed cost.
pub const HOT_BLOCK: &str = "BF-W005";
/// Roofline classification note.
pub const ROOFLINE: &str = "BF-I101";
/// Malformed trace / impossible launch.
pub const MALFORMED: &str = "BF-E001";
/// Static-vs-dynamic oracle divergence.
pub const ORACLE_DIVERGENCE: &str = "BF-E002";
/// Per-block attribution fails to conserve a launch-level counter.
pub const CONSERVATION: &str = "BF-E003";

/// Coalescing efficiency below this fraction raises [`UNCOALESCED`].
pub const COALESCING_THRESHOLD: f64 = 0.5;
/// Theoretical occupancy below this fraction raises [`LOW_OCCUPANCY`].
pub const OCCUPANCY_THRESHOLD: f64 = 0.5;
/// Divergent-branch fraction at or above this raises [`DIVERGENCE`].
pub const DIVERGENCE_THRESHOLD: f64 = 0.2;
/// A block's attributed cost share at or above this raises [`HOT_BLOCK`]
/// (only meaningful when the launch has more than one block).
pub const HOT_BLOCK_THRESHOLD: f64 = 0.5;

/// Whether a profile raises [`BANK_CONFLICT`] (some access of degree >= 2).
pub(crate) fn bank_conflicted(shared: &SharedConflictSummary) -> bool {
    shared.max_degree >= 2
}

/// Whether a load or store profile raises [`UNCOALESCED`].
pub(crate) fn uncoalesced(summary: &CoalescingSummary) -> bool {
    summary.requests > 0 && summary.efficiency() < COALESCING_THRESHOLD
}

/// The divergent share of a profile's branches, when it raises [`DIVERGENCE`].
pub(crate) fn divergent_share(divergence: &DivergenceSummary) -> Option<f64> {
    let share = divergence.divergent as f64 / divergence.branches as f64;
    (divergence.branches > 0 && share >= DIVERGENCE_THRESHOLD).then_some(share)
}

/// How bad a diagnostic is; orders `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Info,
    /// A likely performance problem.
    Warning,
    /// A correctness problem (malformed input, oracle divergence).
    Error,
}

impl Severity {
    /// Lower-case label used in reports and the JSON schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses the lower-case label.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl Serialize for Severity {
    fn serialize_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Severity {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => {
                Severity::parse(s).ok_or_else(|| serde::Error(format!("unknown severity `{s}`")))
            }
            other => Err(serde::Error(format!(
                "expected severity string, found {other:?}"
            ))),
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: kernel, launch position, and (when the finding
/// is tied to a concrete instruction) block/warp/instruction indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Kernel name.
    pub kernel: String,
    /// Launch index within the application.
    pub launch: usize,
    /// Block id of the offending access, if instruction-level.
    pub block: Option<usize>,
    /// Warp index, if instruction-level.
    pub warp: Option<usize>,
    /// Instruction index within the warp stream, if instruction-level.
    pub instruction: Option<usize>,
}

impl Span {
    /// A launch-level span (no instruction attached).
    pub fn launch(kernel: &str, launch: usize) -> Span {
        Span {
            kernel: kernel.to_string(),
            launch,
            block: None,
            warp: None,
            instruction: None,
        }
    }

    /// Attaches an instruction location.
    pub fn at(mut self, loc: Location) -> Span {
        self.block = Some(loc.block);
        self.warp = Some(loc.warp);
        self.instruction = Some(loc.instruction);
        self
    }

    /// Renders `kernel[launch]` or `kernel[launch] b/w/i` for display.
    pub fn render(&self) -> String {
        match (self.block, self.warp, self.instruction) {
            (Some(b), Some(w), Some(i)) => {
                format!(
                    "{}[{}] block {} warp {} instr {}",
                    self.kernel, self.launch, b, w, i
                )
            }
            _ => format!("{}[{}]", self.kernel, self.launch),
        }
    }
}

/// One finding: a stable code, a severity, where it is, what it means, and
/// what to do about it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code (BF-Wxxx catalogue).
    pub code: String,
    /// Severity.
    pub severity: Severity,
    /// Where the finding points.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// Suggested fix.
    pub suggestion: String,
    /// Attributed cost of the finding (full-grid-scaled issue slots of the
    /// owning basic block); `None` for launch-level findings. Block-level
    /// lints sort on this, so the most expensive problems surface first.
    pub cost: Option<f64>,
}

impl Diagnostic {
    /// Renders the diagnostic in the clippy-like single-finding format.
    pub fn render(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}\n  = help: {}",
            self.severity,
            self.code,
            self.message,
            self.span.render(),
            self.suggestion
        )
    }
}

/// Builds a [`MALFORMED`] error diagnostic from a simulator error.
pub fn malformed(kernel: &str, launch: usize, err: &SimError) -> Diagnostic {
    Diagnostic {
        code: MALFORMED.to_string(),
        severity: Severity::Error,
        span: Span::launch(kernel, launch),
        message: format!("launch cannot be analyzed: {err}"),
        suggestion: "fix the kernel trace or launch configuration; see the error detail".into(),
        cost: None,
    }
}

const BANK_CONFLICT_HINT: &str = "use sequential addressing or pad the shared array so \
                                  consecutive lanes hit distinct banks";
const LOAD_HINT: &str =
    "make consecutive lanes read consecutive addresses (structure-of-arrays layout)";
const STORE_HINT: &str =
    "write full warps to contiguous addresses, or stage results through shared memory";
const DIVERGENCE_HINT: &str = "restructure thread->work mapping so whole warps take the same \
                               path (e.g. strided reduction indexing)";

/// Where the mechanism warnings are raised: a whole launch, or one of its
/// basic blocks. The scopes differ only in the words that place a finding,
/// the block tag, the span and the cost.
enum Scope<'a> {
    /// The launch: each warning points at its mechanism's worst access and
    /// carries no cost.
    Launch(&'a StaticLaunchAnalysis),
    /// One basic block: every warning points at the block's first
    /// instruction, is tagged with its share of the launch's attributed
    /// cost, and carries its full-grid-scaled cost.
    Block {
        block: &'a BlockAttribution,
        share: f64,
        cost: f64,
    },
}

/// Emits the mechanism warnings — W001 bank conflicts, W002 uncoalesced
/// loads and stores, W004 divergence — of one scope's profiles.
fn mechanism_warnings(out: &mut Vec<Diagnostic>, span: &Span, scope: &Scope) {
    let (shared, loads, stores, divergence, words, cost) = match scope {
        Scope::Launch(a) => (&a.shared, &a.loads, &a.stores, &a.divergence, "", None),
        Scope::Block { block: b, cost, .. } => (
            &b.shared,
            &b.loads,
            &b.stores,
            &b.divergence,
            " in basic block",
            Some(*cost),
        ),
    };
    let tag = || match scope {
        Scope::Launch(_) => String::new(),
        Scope::Block { block, share, .. } => format!(
            " [block {} ~{:.0}% of attributed cost]",
            block.id_hex(),
            share * 100.0
        ),
    };
    let mut warn = |code: &str, worst: Option<Location>, message: String, hint: &str| {
        let at = match scope {
            Scope::Launch(_) => worst.expect("a flagged mechanism has a location"),
            Scope::Block { block, .. } => block.first_seen,
        };
        out.push(Diagnostic {
            code: code.to_string(),
            severity: Severity::Warning,
            span: span.clone().at(at),
            message,
            suggestion: hint.into(),
            cost,
        });
    };

    if bank_conflicted(shared) {
        let message = format!(
            "{}-way shared-memory bank conflict{words} ({} of {} shared accesses conflicted){}",
            shared.max_degree,
            shared.conflicted,
            shared.accesses,
            tag()
        );
        warn(BANK_CONFLICT, shared.worst, message, BANK_CONFLICT_HINT);
    }
    for (what, summary, hint) in [("load", loads, LOAD_HINT), ("store", stores, STORE_HINT)] {
        if uncoalesced(summary) {
            let message = format!(
                "uncoalesced global {what}s{words}: {:.1}% efficiency ({} transactions for {} \
                 requests){}",
                summary.efficiency() * 100.0,
                summary.transactions,
                summary.requests,
                tag()
            );
            warn(UNCOALESCED, summary.worst, message, hint);
        }
    }
    if let Some(share) = divergent_share(divergence) {
        let message = format!(
            "{:.0}% of branches{words} diverge ({} of {}); diverged paths serialise{}",
            share * 100.0,
            divergence.divergent,
            divergence.branches,
            tag()
        );
        warn(DIVERGENCE, divergence.first, message, DIVERGENCE_HINT);
    }
}

/// The launch-level checks no block scopes: the occupancy warning (W003;
/// occupancy is a property of the launch configuration) and the
/// always-emitted roofline note.
fn launch_checks(
    out: &mut Vec<Diagnostic>,
    gpu: &GpuConfig,
    a: &StaticLaunchAnalysis,
    launch: usize,
) {
    if a.occupancy.theoretical < OCCUPANCY_THRESHOLD {
        let limiter = a.occupancy.limiter;
        let hint = match limiter {
            OccupancyLimiter::BlockSlots => {
                "increase the block size so fewer, larger blocks fill the warp slots"
            }
            OccupancyLimiter::WarpSlots => "reduce the block size or rebalance warps per block",
            OccupancyLimiter::Registers => {
                "reduce per-thread register use (or cap it with launch bounds)"
            }
            OccupancyLimiter::SharedMemory => "reduce per-block shared-memory allocation",
            OccupancyLimiter::GridSize => "launch more blocks to fill the machine",
        };
        out.push(Diagnostic {
            code: LOW_OCCUPANCY.to_string(),
            severity: Severity::Warning,
            span: Span::launch(&a.kernel, launch),
            message: format!(
                "theoretical occupancy limited to {:.1}% by {} ({} blocks/SM, {} warps of {})",
                a.occupancy.theoretical * 100.0,
                limiter.name(),
                a.occupancy.blocks_per_sm,
                a.occupancy.warps_per_sm,
                gpu.max_warps_per_sm
            ),
            suggestion: hint.into(),
            cost: None,
        });
    }
    let roofline = a.roofline(gpu);
    out.push(Diagnostic {
        code: ROOFLINE.to_string(),
        severity: Severity::Info,
        span: Span::launch(&a.kernel, launch),
        message: format!(
            "{} (arithmetic intensity {:.2} ops/byte; est. compute {:.2}us vs memory {:.2}us)",
            roofline.bound.label(),
            roofline.arithmetic_intensity,
            roofline.compute_seconds * 1e6,
            roofline.memory_seconds * 1e6
        ),
        suggestion: "informational; optimise the dominating side first".into(),
        cost: None,
    });
}

/// Runs every launch-level check over one static analysis.
pub fn diagnose(gpu: &GpuConfig, a: &StaticLaunchAnalysis, launch: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    mechanism_warnings(
        &mut out,
        &Span::launch(&a.kernel, launch),
        &Scope::Launch(a),
    );
    launch_checks(&mut out, gpu, a, launch);
    out
}

/// Block-level diagnosis: the mechanism warnings (W001/W002/W004) are
/// emitted once per offending *basic block* with the block's attributed
/// cost share in the message and its full-grid-scaled issue-slot cost in
/// [`Diagnostic::cost`], plus the hot-block check (W005) and the
/// launch-level occupancy and roofline checks that have no block scope.
pub fn diagnose_blocks(
    gpu: &GpuConfig,
    a: &StaticLaunchAnalysis,
    blocks: &BlockLevelAnalysis,
    launch: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let span = Span::launch(&blocks.kernel, launch);
    for b in &blocks.blocks {
        let scope = Scope::Block {
            block: b,
            share: blocks.cost_share(b),
            cost: b.cost() * blocks.scale,
        };
        mechanism_warnings(&mut out, &span, &scope);
    }

    if blocks.blocks.len() >= 2 {
        let top = &blocks.blocks[0];
        let share = blocks.top_share();
        if share >= HOT_BLOCK_THRESHOLD {
            out.push(Diagnostic {
                code: HOT_BLOCK.to_string(),
                severity: Severity::Warning,
                span: span.clone().at(top.first_seen),
                message: format!(
                    "basic block {} dominates the launch: {:.0}% of attributed issue-slot \
                     cost across {} blocks ({} instructions, {} occurrences)",
                    top.id_hex(),
                    share * 100.0,
                    blocks.blocks.len(),
                    top.instructions,
                    top.occurrences
                ),
                suggestion: "optimisation effort concentrates here; fix this block's \
                             warnings first, or restructure to spread its work"
                    .into(),
                cost: Some(top.cost() * blocks.scale),
            });
        }
    }

    launch_checks(&mut out, gpu, a, launch);
    out
}

/// Builds a [`CONSERVATION`] error from failing conservation checks.
pub fn conservation_violation(
    kernel: &str,
    launch: usize,
    failures: &[crate::attr::ConservationCheck],
) -> Diagnostic {
    let detail: Vec<String> = failures
        .iter()
        .map(|c| {
            format!(
                "{}: attributed {} vs launch total {} (rel {:.2e})",
                c.counter, c.attributed, c.launch_total, c.rel_error
            )
        })
        .collect();
    Diagnostic {
        code: CONSERVATION.to_string(),
        severity: Severity::Error,
        span: Span::launch(kernel, launch),
        message: format!(
            "per-block attribution does not conserve launch totals: {}",
            detail.join("; ")
        ),
        suggestion: "the attribution walk and the launch walk disagree — one of them has a \
                     bug; bisect against the shared counting rules in bf-analyze::walk"
            .into(),
        cost: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_roundtrips() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        for s in [Severity::Info, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::parse(s.as_str()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn severity_serializes_lowercase() {
        let v = serde_json::to_string(&Severity::Warning).unwrap();
        assert_eq!(v, "\"warning\"");
        let back: Severity = serde_json::from_str(&v).unwrap();
        assert_eq!(back, Severity::Warning);
    }

    #[test]
    fn span_renders_with_and_without_instruction() {
        let s = Span::launch("reduce1", 2);
        assert_eq!(s.render(), "reduce1[2]");
        let s = s.at(crate::walk::Location {
            block: 5,
            warp: 1,
            instruction: 7,
        });
        assert_eq!(s.render(), "reduce1[2] block 5 warp 1 instr 7");
    }
}
