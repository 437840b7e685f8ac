//! Tunables of the extension engine.

use meander_index::IndexKind;

/// Relative length tolerance (the paper's 0.1 %): a trace is done when
/// `|l_trace − l_target| ≤ TOLERANCE · l_target`.
pub(crate) const TOLERANCE: f64 = 1e-3;

/// Hard cap on discretization points per segment: [`resolve_ldisc`]
/// enlarges the step on long segments to stay under it, bounding DP cost.
pub(crate) const MAX_POINTS_PER_SEGMENT: usize = 160;

/// Hard cap on pattern width in discretization steps.
pub(crate) const MAX_WIDTH_STEPS: usize = 48;

/// Minimum length of a freshly spliced segment worth re-queueing, as a
/// multiple of `dprotect`.
pub(crate) const REQUEUE_MIN_PROTECT: f64 = 2.0;

/// Resolves the discretization step for a segment of `seg_len` under rules
/// `gap`/`protect`: `min(gap, protect) / 2` ("We may slightly increase
/// `dgap` and `dprotect` or adjust `ldisc` to make the former divisible by
/// the latter"), enlarged if needed to respect [`MAX_POINTS_PER_SEGMENT`].
pub(crate) fn resolve_ldisc(seg_len: f64, gap: f64, protect: f64) -> f64 {
    let base = (gap.min(protect) / 2.0).max(1e-6);
    base.max(seg_len / MAX_POINTS_PER_SEGMENT as f64)
}

/// Configuration for [`crate::extend::extend_trace`].
///
/// The paper fixes the discretization, tolerance and width cap once (the
/// constants above); what stays settable here is what a caller varies:
/// the iteration bound, the ablation switches of Figs. 4–5 and
/// meander-on-meander, and the engine shapes proven bit-identical. There
/// is one production engine; its rebuild-per-pop oracle is test-only code
/// that the equivalence suites compare against, and no setting selects it.
#[derive(Debug, Clone)]
pub struct ExtendConfig {
    /// Maximum queue pops before giving up (Alg. 1's loop bound).
    pub max_iterations: usize,
    /// Prefer states whose last transition inserted a pattern — and among
    /// them, connected patterns — on value ties (paper Figs. 4–5). Exposed
    /// so the ablation bench can switch it off.
    pub connect_priority: bool,
    /// Re-queue newly created segments (hats, legs, leftovers) for further
    /// meandering (meander-on-meander). Off restricts patterns to original
    /// segments.
    pub requeue: bool,
    /// Build the engine's per-pop stage-1 table (the side
    /// caps every DP probe reads and the DP's upper-bound profile) with
    /// the lane sweep (`build_stage1_table_batched` on
    /// `meander_geom::batch::intersect_x_range_batch`): one pass over the
    /// context's edges instead of one column scan per foot. Output is
    /// bit-identical either way — the kernel replays the scalar float
    /// stream per lane (property-tested). On by default; off selects the
    /// scalar sweep.
    pub batch_kernels: bool,
    /// Spatial index structure for the world edge indexes — the shared
    /// per-board [`crate::WorldBase`] and the engine's per-trace world
    /// index: the uniform grid or the STR-packed R-tree.
    /// Per-pop shrink contexts hold no index. Both structures return
    /// identical candidate sets, so placements are **bit-identical**
    /// whatever is selected (property-tested); this knob only moves the
    /// cost model. Defaults to `Grid`.
    pub index: IndexKind,
    /// Fan a board's independent units (traces and diff pairs, across all
    /// of its groups) out on `crate::par::par_map`. Results are written
    /// back in deterministic order, so outputs are identical with the flag
    /// on or off — given that a trace belongs to at most one group. Boards
    /// breaking that invariant are rejected by
    /// [`meander_layout::validate_board`] as
    /// [`meander_layout::ValidationError::OverlappingGroups`];
    /// [`meander_layout::io::load_board`] and the fleet's `route_fleet` run
    /// that check before routing.
    pub parallel: bool,
}

impl Default for ExtendConfig {
    fn default() -> Self {
        ExtendConfig {
            max_iterations: 400,
            connect_priority: true,
            requeue: true,
            batch_kernels: true,
            index: IndexKind::Grid,
            parallel: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_step_is_half_min_rule() {
        assert!((resolve_ldisc(10.0, 8.0, 6.0) - 3.0).abs() < 1e-12);
        assert!((resolve_ldisc(10.0, 4.0, 8.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn long_segments_coarsen_step() {
        // A 1600-long segment with base step 1 would need 1600 points.
        let step = resolve_ldisc(1600.0, 2.0, 2.0);
        assert!((step - 1600.0 / MAX_POINTS_PER_SEGMENT as f64).abs() < 1e-12);
    }
}
