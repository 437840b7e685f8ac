//! Tunables of the extension engine.

use meander_index::IndexKind;

/// Configuration for [`crate::extend::extend_trace`].
///
/// Defaults follow the paper's setup: discretization tied to the design
/// rules ("We may slightly increase `dgap` and `dprotect` or adjust `ldisc`
/// to make the former divisible by the latter"), relative tolerance of
/// 0.1 %, and connected-pattern priority on (Figs. 4–5).
#[derive(Debug, Clone)]
pub struct ExtendConfig {
    /// Discretization step; `None` derives `min(dgap, dprotect) / 2`.
    pub ldisc: Option<f64>,
    /// Hard cap on discretization points per segment (the step is enlarged
    /// on long segments to stay under this), bounding DP cost.
    pub max_points_per_segment: usize,
    /// Hard cap on pattern width in discretization steps.
    pub max_width_steps: usize,
    /// Relative length tolerance: done when
    /// `|l_trace − l_target| ≤ tol · l_target`.
    pub tolerance: f64,
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
    /// Minimum segment length worth re-queueing, as a multiple of
    /// `dprotect`.
    pub requeue_min_protect: f64,
    /// Use the incremental engine: per-trace world index, windowed context
    /// construction, stable segment ids, and an incrementally maintained
    /// trace length. Off falls back to the naive rebuild-per-iteration
    /// pipeline (kept as the reference for equivalence tests and for the
    /// `perf_regression` engine comparison).
    pub incremental: bool,
    /// Evaluate the shrink stage-1 side intersections and the DP
    /// upper-bound profile sweep on the SoA batch kernels
    /// (`meander_geom::batch`): candidates gather once into lane-parallel
    /// buffers instead of per-candidate scalar calls. Output is
    /// bit-identical either way — the kernels replay the scalar float
    /// stream per lane (property-tested). On by default; the scalar path
    /// stays reachable as the fleet retry ladder's `Scalar` rung and as the
    /// reference the equivalence suites compare against.
    pub batch_kernels: bool,
    /// Spatial index structure for the incremental engine's world edge
    /// index and the per-pop shrink contexts: the uniform grid, the
    /// STR-packed R-tree, or `Auto` (pick per build from the edge-extent
    /// distribution — see [`IndexKind::resolve`]). Both structures return
    /// identical candidate sets, so placements are **bit-identical**
    /// whatever is selected (property-tested); this knob only moves the
    /// cost model, with the R-tree winning on boards that mix plane
    /// polygons with via fields. Defaults to `Grid`.
    pub index: IndexKind,
    /// Fan a board's independent units (traces and diff pairs, across all
    /// of its groups) out on [`crate::par::par_map`]. Results are written
    /// back in deterministic order, so outputs are identical with the flag
    /// on or off — given that a trace belongs to at most one group. Boards
    /// breaking that invariant are rejected by
    /// [`meander_layout::validate_board`] as
    /// [`meander_layout::ValidationError::OverlappingGroups`];
    /// [`meander_layout::io::load_board`] and the fleet's `route_fleet`
    /// (unless its `validate` is off) run that check before routing.
    pub parallel: bool,
}

impl Default for ExtendConfig {
    fn default() -> Self {
        ExtendConfig {
            ldisc: None,
            max_points_per_segment: 160,
            max_width_steps: 48,
            tolerance: 1e-3,
            max_iterations: 400,
            connect_priority: true,
            requeue: true,
            requeue_min_protect: 2.0,
            incremental: true,
            batch_kernels: true,
            index: IndexKind::Grid,
            parallel: true,
        }
    }
}

impl ExtendConfig {
    /// Resolves the discretization step for a segment of `seg_len` under
    /// rules `gap`/`protect`: the configured (or derived) step, enlarged if
    /// needed to respect [`ExtendConfig::max_points_per_segment`].
    pub fn resolve_ldisc(&self, seg_len: f64, gap: f64, protect: f64) -> f64 {
        let base = self
            .ldisc
            .unwrap_or_else(|| (gap.min(protect) / 2.0).max(1e-6));
        let min_for_cap = seg_len / self.max_points_per_segment as f64;
        base.max(min_for_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_step_is_half_min_rule() {
        let c = ExtendConfig::default();
        assert!((c.resolve_ldisc(10.0, 8.0, 6.0) - 3.0).abs() < 1e-12);
        assert!((c.resolve_ldisc(10.0, 4.0, 8.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn long_segments_coarsen_step() {
        let c = ExtendConfig {
            max_points_per_segment: 100,
            ..Default::default()
        };
        // 1000-long segment with base step 1 would need 1000 points.
        let step = c.resolve_ldisc(1000.0, 2.0, 2.0);
        assert!((step - 10.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_step_respected() {
        let c = ExtendConfig {
            ldisc: Some(0.5),
            ..Default::default()
        };
        assert_eq!(c.resolve_ldisc(10.0, 8.0, 8.0), 0.5);
    }
}
