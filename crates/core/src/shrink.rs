//! URA shrinking: the maximum legal height of a candidate pattern
//! (paper Sec. IV-B, Alg. 2, Figs. 6–8).
//!
//! Validity of a pattern height is **not monotone** — a shrunk pattern can
//! newly intersect an obstacle it used to enclose — so binary search is
//! impossible. Instead the pattern "C is created with the height equal to
//! the remaining extension requirement and then shrunk until all violations
//! of DRC are eliminated", in three stages:
//!
//! 1. **Sides** (Eq. 11): intersections of the outer border's two vertical
//!    sides with polygon edges cap `h_ob`.
//! 2. **Hat** (Alg. 2, Fig. 7): polygons with nodes both inside and outside
//!    the border push `h_ob` below their lowest inside node; iterated
//!    because the shrunk border can cut new polygons.
//! 3. **Inner border** (Fig. 8): polygons wholly inside the outer border
//!    must not touch the URA band between inner and outer border —
//!    otherwise `h_ob` drops below the whole polygon. Polygons fully inside
//!    the *inner* border are legally enclosed: the pattern routes around
//!    them.
//!
//! ## The stage-1 table
//!
//! The segment DP probes `O(m·w)` candidate patterns against this
//! procedure, all from one start height on one pair of contexts. Each
//! stage-1 side cap then depends only on its foot position, so
//! [`build_stage1_table`] computes it once per foot and side: the lowest
//! crossing of the vertical outer-border side at that position with any
//! context edge of the probe's own column, evaluated with the *same*
//! primitives and the *same* start height a probe would use. A DP probe
//! reads its two caps from the table ([`max_pattern_height_fed`]) and
//! skips stage 1; `min` is order-free, so it sees the float it would
//! compute itself. Because stages 2–3 only ever lower `h_ob`, the table
//! floored to heights ([`Stage1Table::profile`]) is also a sound upper
//! bound on every probe result with a foot there — the DP skips a probe
//! whose capped value cannot matter, and the output stays bit-identical
//! to the unpruned pass. Caps below `h_min` are floored to 0 (the probe
//! would return "no pattern" anyway).

use crate::context::{ShrinkContext, Y_EPS};
use crate::dp::UbProfile;
use meander_geom::batch::{
    intersect_x_range_batch, side_edge_cap_scalar, PREFILTER_SLACK, SHORT_SEG_LEN,
};
use meander_geom::{Point, Rect, Segment, EPS};
use meander_index::cell_coord;

/// Result of shrinking one candidate pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShrinkResult {
    /// Maximum legal pattern height `h = max(0, h_ob − d_gap/2)` (Eq. 10),
    /// zero when no pattern fits.
    pub height: f64,
    /// `true` when at least one polygon is fully enclosed by the inner
    /// border — the pattern routes around an obstacle (the DP-only
    /// capability of Table II).
    pub routes_around: bool,
}

/// Reusable state for the shrinking hot loop.
///
/// The DP probes thousands of candidate patterns per segment, each probe a
/// [`max_pattern_height_fed`] or [`max_pattern_height`] call; with a
/// scratch the per-call cost is pure query work — no `BTreeMap`/`Vec`
/// churn. One scratch serves any number of contexts, calls and table
/// sweeps.
#[derive(Debug, Default)]
pub struct ShrinkScratch {
    edge_ids: Vec<u32>,
    /// Per-polygon: nodes seen inside the outer border this pass.
    cnt: Vec<u32>,
    /// Per-polygon: min distance of those nodes to the segment.
    min_d: Vec<f64>,
    /// Per-polygon: any node outside the inner border.
    out_inner: Vec<bool>,
    /// Per-polygon: pushed below the border in an earlier pass.
    removed: Vec<bool>,
    /// Polygons with `cnt > 0` this pass.
    touched: Vec<u32>,
    /// Foot-position x values of the current table sweep.
    xs: Vec<f64>,
    /// Lattice columns of each sweep position's probe column, low and high
    /// end (precomputed once per sweep so the per-edge span search is pure
    /// integer compares).
    col_lo: Vec<i64>,
    col_hi: Vec<i64>,
}

impl ShrinkScratch {
    /// Fresh scratch (buffers grow on demand).
    pub fn new() -> Self {
        ShrinkScratch::default()
    }
}

/// Computes the maximum valid height of a pattern with feet at local
/// `x0 < x1`, searching downward from `h_init`.
///
/// `gap` is the `d_gap` in force; `h_min` is the minimum useful height
/// (pattern legs shorter than `d_protect` would themselves violate DRC).
/// Heights are measured from the extended segment (`y = 0` in pattern-side
/// coordinates). Stage 1 runs the scalar predicate on each side's column
/// candidates.
pub fn max_pattern_height(
    ctx: &ShrinkContext,
    x0: f64,
    x1: f64,
    gap: f64,
    h_init: f64,
    h_min: f64,
    scratch: &mut ShrinkScratch,
) -> ShrinkResult {
    shrink(ctx, x0, x1, gap, h_init, h_min, true, None, scratch)
}

/// [`max_pattern_height`] with stage 1 supplied: `hob` must be
/// [`Stage1Table::hob`] for these feet, from a table built on `ctx` with
/// the same `gap` and `h_init`. The result is then bit-identical to the
/// self-computing probe, without a single stage-1 candidate scan.
#[allow(clippy::too_many_arguments)]
pub fn max_pattern_height_fed(
    ctx: &ShrinkContext,
    x0: f64,
    x1: f64,
    gap: f64,
    h_init: f64,
    h_min: f64,
    hob: f64,
    scratch: &mut ShrinkScratch,
) -> ShrinkResult {
    shrink(ctx, x0, x1, gap, h_init, h_min, true, Some(hob), scratch)
}

/// The body of both probes: `hob` is the stage-1 `h_ob` when supplied,
/// `None` to compute it here.
///
/// `allow_enclose = false` treats every polygon inside the outer border as
/// an escape (shrink below it) — the "fixed tracks" baselines of Table II
/// cannot route around obstacles, and this is the knob that models it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shrink(
    ctx: &ShrinkContext,
    x0: f64,
    x1: f64,
    gap: f64,
    h_init: f64,
    h_min: f64,
    allow_enclose: bool,
    hob: Option<f64>,
    scratch: &mut ShrinkScratch,
) -> ShrinkResult {
    debug_assert!(x0 < x1, "feet must be ordered");
    let none = ShrinkResult {
        height: 0.0,
        routes_around: false,
    };
    if h_init < h_min {
        return none;
    }

    let g2 = gap / 2.0;
    let left = x0 - g2;
    let right = x1 + g2;

    // ---- Stage 1: sides (Eq. 11). -------------------------------------
    let mut hob = hob.unwrap_or_else(|| {
        let hob0 = h_init + g2;
        hob0.min(side_cap(ctx, left, true, hob0, scratch))
            .min(side_cap(ctx, right, false, hob0, scratch))
    });
    if hob <= g2 + 1e-12 {
        return none;
    }

    // ---- Stages 2 & 3 interleaved until stable. ------------------------
    // Removed polygons are those the border has been pushed below; they can
    // no longer constrain. Per-polygon stats accumulate in the scratch
    // during one strip scan per pass.
    let n = ctx.polygons.len();
    scratch.cnt.clear();
    scratch.cnt.resize(n, 0);
    scratch.min_d.resize(n, f64::INFINITY);
    scratch.out_inner.resize(n, false);
    scratch.removed.clear();
    scratch.removed.resize(n, false);
    scratch.touched.clear();

    loop {
        let outer = Rect::new(Point::new(left, Y_EPS / 2.0), Point::new(right, hob));
        // The inner border for this pass: stage 3 only runs when stage 2
        // left `hob` untouched, so computing it up front is equivalent to
        // the paper's post-stage-2 evaluation.
        let inner = Rect::new(
            Point::new(x0 + g2, g2),
            Point::new(x1 - g2, (hob - gap).max(g2)),
        );
        let degenerate_inner = inner.min.x >= inner.max.x || inner.min.y >= inner.max.y;

        let ShrinkScratch {
            cnt,
            min_d,
            out_inner,
            removed,
            touched,
            ..
        } = &mut *scratch;
        for &k in touched.iter() {
            cnt[k as usize] = 0;
        }
        touched.clear();
        ctx.nodes.for_each_in(&outer, |p, &k| {
            let ku = k as usize;
            if removed[ku] {
                return;
            }
            if cnt[ku] == 0 {
                touched.push(k);
                min_d[ku] = f64::INFINITY;
                out_inner[ku] = false;
            }
            cnt[ku] += 1;
            let d = ctx.dist_seg(*p);
            if d < min_d[ku] {
                min_d[ku] = d;
            }
            if !inner.contains_strict(*p) {
                out_inner[ku] = true;
            }
        });
        let mut changed = false;

        // Stage 2: partially-inside polygons (Eq. 12).
        for &k in touched.iter() {
            let ku = k as usize;
            if (cnt[ku] as usize) < ctx.node_count[ku] {
                if min_d[ku] < hob {
                    hob = min_d[ku];
                    changed = true;
                }
                removed[ku] = true;
            }
        }
        if hob <= g2 + 1e-12 {
            return none;
        }
        if changed {
            continue;
        }

        // Stage 3: fully-inside polygons vs the inner border (Eq. 13).
        let mut any_enclosed = false;
        for &k in touched.iter() {
            let ku = k as usize;
            if removed[ku] {
                continue; // shrunk below during stage 2 of this pass
            }
            debug_assert_eq!(cnt[ku] as usize, ctx.node_count[ku]);
            // Area borders are containers: a pattern can never "enclose"
            // one, so a fully-swallowed area polygon always forces a
            // shrink.
            let escapes = !allow_enclose || ctx.is_area[ku] || degenerate_inner || out_inner[ku];
            if escapes {
                if min_d[ku] < hob {
                    hob = min_d[ku];
                    changed = true;
                }
                removed[ku] = true;
            } else {
                any_enclosed = true;
            }
        }
        if hob <= g2 + 1e-12 {
            return none;
        }
        if !changed {
            let height = (hob - g2).max(0.0);
            // Tolerant comparison: frame transforms and intersection
            // arithmetic cost a few ULPs, and heights exactly at h_min are
            // common (corridor half-width minus margins).
            if height < h_min - 1e-9 {
                return none;
            }
            // Final check: the pattern must stay within one routable-area
            // polygon (covers the all-outside corner cases).
            if !ctx.pattern_in_area(x0, x1, height) {
                return none;
            }
            return ShrinkResult {
                height,
                routes_around: any_enclosed,
            };
        }
    }
}

/// The probe column of the outer-border side at `x`: `EPS` wide toward
/// the pattern interior, from `Y_EPS` to `hob0`.
///
/// A side's contributions can only come from edges registered in that
/// column. The `EPS` inward extension makes cell-based candidacy agree
/// *exactly* with a pattern-wide query, even for tolerance-positive
/// near-misses straddling a cell boundary (any non-`None` intersection
/// implies a point within `EPS` of the side, so the edge's cells overlap
/// `[x, x ± EPS]`'s cells iff they overlap the wide rect's).
#[inline]
fn side_column(x: f64, left_side: bool, hob0: f64) -> Rect {
    let inward = if left_side { x + EPS } else { x - EPS };
    Rect::new(Point::new(x, Y_EPS), Point::new(inward, hob0))
}

/// The stage-1 cap of the vertical outer-border side `(x, Y_EPS) → (x,
/// hob0)`: the nearest crossing with any context edge of its column
/// ([`side_column`]), `INFINITY` when none crosses. Every self-computing
/// probe and the scalar table sweep run through here; the lane table
/// sweep reproduces it lane for lane.
fn side_cap(
    ctx: &ShrinkContext,
    x: f64,
    left_side: bool,
    hob0: f64,
    scratch: &mut ShrinkScratch,
) -> f64 {
    let seg_len = ctx.local_segment.b.x;
    ctx.edge_candidates(&side_column(x, left_side, hob0), &mut scratch.edge_ids);
    let side = Segment::new(Point::new(x, Y_EPS), Point::new(x, hob0));
    scratch
        .edge_ids
        .iter()
        .map(|&id| side_edge_cap_scalar(&side, &ctx.edges[id as usize], seg_len))
        .fold(f64::INFINITY, f64::min)
}

/// One pop's raw stage-1 `h_ob` side caps, per direction and foot
/// position (the paper's discretization: feet at `0..=m`, step `ldisc`).
///
/// Direction indexing follows `crate::dp::DirIx`: entry 0 is the `dn`
/// context (geometric −1), entry 1 is `up`. Every entry starts from
/// `h_ob⁰ = h_init + gap/2` and is lowered by the crossings of its side's
/// probe column, so for feet `(lo, hi)` on side `d`
/// [`Stage1Table::hob`] is exactly the `h_ob` a self-computing probe holds
/// after stage 1.
#[derive(Debug, Clone)]
pub struct Stage1Table {
    g2: f64,
    h_init: f64,
    /// `left[d][p]`: cap of the left side at `p·ldisc − gap/2`.
    pub left: [Vec<f64>; 2],
    /// `right[d][p]`: cap of the right side at `p·ldisc + gap/2`.
    pub right: [Vec<f64>; 2],
}

impl Stage1Table {
    /// The stage-1 `h_ob` of the pattern with feet `(lo, hi)` on side `d`.
    #[inline]
    pub fn hob(&self, lo: usize, hi: usize, d: usize) -> f64 {
        self.left[d][lo].min(self.right[d][hi])
    }

    /// The DP's per-position upper-bound profile: every cap in *height*
    /// terms (`cap − gap/2`), clamped to `h_init` and floored to 0 when
    /// below `h_min` (such a probe returns "no pattern").
    ///
    /// Soundness: stage 1 of a probe with feet `(j, i)` on side `d` leaves
    /// `h_ob = min(left[d][j], right[d][i])`, and stages 2–3 only lower it,
    /// so `height(j, i, d) ≤ min(left, right) − gap/2` holds exactly (same
    /// floats); a probe under `h_min` returns 0.
    pub fn profile(&self, h_min: f64) -> UbProfile {
        let floor = |caps: &[f64]| -> Vec<f64> {
            caps.iter()
                .map(|&cap_hob| {
                    let h = cap_hob - self.g2;
                    if h < h_min - 1e-9 {
                        0.0
                    } else {
                        h.min(self.h_init)
                    }
                })
                .collect()
        };
        UbProfile {
            cap: self.h_init,
            left: [floor(&self.left[0]), floor(&self.left[1])],
            right: [floor(&self.right[0]), floor(&self.right[1])],
        }
    }
}

/// Builds the [`Stage1Table`] for one segment's DP: one `side_cap`
/// column scan per foot position, side and direction — the scalar
/// reference the batched sweep is held to.
#[allow(clippy::too_many_arguments)]
pub fn build_stage1_table(
    ctx_up: &ShrinkContext,
    ctx_dn: &ShrinkContext,
    m: usize,
    ldisc: f64,
    gap: f64,
    h_init: f64,
    scratch: &mut ShrinkScratch,
) -> Stage1Table {
    let g2 = gap / 2.0;
    let hob0 = h_init + g2;
    let mut side = |ctx: &ShrinkContext, left_side: bool| -> Vec<f64> {
        (0..=m)
            .map(|p| {
                let x0 = p as f64 * ldisc;
                let x = if left_side { x0 - g2 } else { x0 + g2 };
                hob0.min(side_cap(ctx, x, left_side, hob0, scratch))
            })
            .collect()
    };
    Stage1Table {
        g2,
        h_init,
        left: [side(ctx_dn, true), side(ctx_up, true)],
        right: [side(ctx_dn, false), side(ctx_up, false)],
    }
}

/// [`build_stage1_table`] restructured around the SoA batch kernels:
/// **one** pass over the context's edges per sweep instead of `m + 1`
/// column scans, handing each edge the contiguous span of foot positions
/// whose probe column can see it, evaluated lane-parallel by
/// [`intersect_x_range_batch`].
///
/// Bit-identical to the scalar sweep:
///
/// * **Same candidate sets.** Every probe column spans the same y range
///   (`Y_EPS..h_ob⁰`), so an edge is a candidate at foot `p` iff its y
///   cells meet that range's and its x cell span meets
///   `[q(col_lo(p)), q(col_hi(p))]`, the quantized x ends of `p`'s column
///   (`side_column`). Both ends ascend with `p`, so the positions
///   passing the x test form one contiguous run.
/// * **Same floats.** Each lane of the kernel replays the
///   `segment_intersection(side, edge)` + `dist_seg` float stream, and the
///   running `min` from `h_ob⁰` is order-independent.
#[allow(clippy::too_many_arguments)]
pub fn build_stage1_table_batched(
    ctx_up: &ShrinkContext,
    ctx_dn: &ShrinkContext,
    m: usize,
    ldisc: f64,
    gap: f64,
    h_init: f64,
    scratch: &mut ShrinkScratch,
) -> Stage1Table {
    let g2 = gap / 2.0;
    let hob0 = h_init + g2;
    // Edges whose x-extent (inflated by the prefilter slack) misses a
    // side provably contribute nothing there — any non-`None`
    // intersection outcome implies a point within ~EPS of the vertical
    // side — so each edge's lane span is its *geometric* x-extent clipped
    // to its cell-candidate span (the cell span alone preserves the scalar
    // candidate sets; the clip only drops no-op lanes). The collinearity
    // tolerance scales as `EPS / side height`, so the clip is only applied
    // when the side is at least `SHORT_SEG_LEN` tall.
    let tight = hob0 - Y_EPS >= SHORT_SEG_LEN;
    let mut side = |ctx: &ShrinkContext, left_side: bool| -> Vec<f64> {
        let seg_len = ctx.local_segment.b.x;
        let cell = ctx.cell_size();
        let ShrinkScratch {
            xs, col_lo, col_hi, ..
        } = &mut *scratch;
        xs.clear();
        xs.extend((0..=m).map(|p| {
            let x0 = p as f64 * ldisc;
            if left_side {
                x0 - g2
            } else {
                x0 + g2
            }
        }));
        col_lo.clear();
        col_hi.clear();
        for &x in xs.iter() {
            let col = side_column(x, left_side, hob0);
            col_lo.push(cell_coord(cell, col.min.x));
            col_hi.push(cell_coord(cell, col.max.x));
        }
        let (qy0, qy1) = (cell_coord(cell, Y_EPS), cell_coord(cell, hob0));
        let mut caps = vec![hob0; m + 1];
        for (id, e) in ctx.edges.iter().enumerate() {
            let &[ecx0, ecx1, ecy0, ecy1] = ctx.edge_span(id);
            if ecy0 > qy1 || ecy1 < qy0 {
                continue;
            }
            let mut lo = col_hi.partition_point(|&c| c < ecx0);
            let mut hi = col_lo.partition_point(|&c| c <= ecx1);
            if tight {
                let (exlo, exhi) = (e.a.x.min(e.b.x), e.a.x.max(e.b.x));
                lo = lo.max(xs.partition_point(|&x| x < exlo - PREFILTER_SLACK));
                hi = hi.min(xs.partition_point(|&x| x <= exhi + PREFILTER_SLACK));
            }
            if lo < hi {
                intersect_x_range_batch(&xs[lo..hi], Y_EPS, hob0, e, seg_len, &mut caps[lo..hi]);
            }
        }
        caps
    };
    Stage1Table {
        g2,
        h_init,
        left: [side(ctx_dn, true), side(ctx_up, true)],
        right: [side(ctx_dn, false), side(ctx_up, false)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::WorldContext;
    use meander_geom::{Frame, Polygon};

    /// Context for a horizontal 100-long segment with the given obstacles
    /// and a roomy area.
    fn ctx_with(obstacles: Vec<Polygon>) -> ShrinkContext {
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let world = WorldContext {
            area: vec![Polygon::rectangle(
                Point::new(-20.0, -60.0),
                Point::new(120.0, 60.0),
            )],
            obstacles,
            other_uras: vec![],
        };
        ShrinkContext::build(&world, &frame, 100.0, 1)
    }

    const GAP: f64 = 4.0;
    const HMIN: f64 = 4.0;

    /// One self-computing probe on a fresh scratch.
    fn probe(
        ctx: &ShrinkContext,
        x0: f64,
        x1: f64,
        gap: f64,
        h_init: f64,
        h_min: f64,
    ) -> ShrinkResult {
        max_pattern_height(ctx, x0, x1, gap, h_init, h_min, &mut ShrinkScratch::new())
    }

    #[test]
    fn open_space_gives_full_height() {
        let ctx = ctx_with(vec![]);
        let r = probe(&ctx, 20.0, 40.0, GAP, 30.0, HMIN);
        assert!((r.height - 30.0).abs() < 1e-9);
        assert!(!r.routes_around);
    }

    #[test]
    fn area_border_caps_height() {
        let ctx = ctx_with(vec![]);
        // Area top at y=60; URA top h+2 must stay ≤ 60 → h ≤ 58.
        let r = probe(&ctx, 20.0, 40.0, GAP, 500.0, HMIN);
        assert!(r.height <= 58.0 + 1e-9);
        assert!(r.height > 50.0);
    }

    #[test]
    fn side_blocking_obstacle_caps_height() {
        // Obstacle wall crossing the left side at height 10.
        let ctx = ctx_with(vec![Polygon::rectangle(
            Point::new(0.0, 10.0),
            Point::new(25.0, 14.0),
        )]);
        let r = probe(&ctx, 20.0, 40.0, GAP, 30.0, HMIN);
        // hob ≤ 10 → h ≤ 8.
        assert!((r.height - 8.0).abs() < 1e-9, "h={}", r.height);
    }

    #[test]
    fn hat_node_obstacle_caps_height() {
        // Small via fully inside the URA x-range, bottom at 12.
        let ctx = ctx_with(vec![Polygon::rectangle(
            Point::new(28.0, 12.0),
            Point::new(32.0, 16.0),
        )]);
        // Wide pattern that cannot enclose it (inner border too thin).
        let r = probe(&ctx, 26.0, 34.0, GAP, 30.0, HMIN);
        // Must stop below the via: hob ≤ 12 → h ≤ 10.
        assert!((r.height - 10.0).abs() < 1e-9, "h={}", r.height);
    }

    #[test]
    fn routes_around_enclosed_obstacle() {
        // Via at x∈[28,32], y∈[12,16]; pattern feet far outside with a big
        // height: via sits inside the inner border → legally enclosed.
        let ctx = ctx_with(vec![Polygon::rectangle(
            Point::new(28.0, 12.0),
            Point::new(32.0, 16.0),
        )]);
        let r = probe(&ctx, 10.0, 50.0, GAP, 40.0, HMIN);
        assert!((r.height - 40.0).abs() < 1e-9, "h={}", r.height);
        assert!(r.routes_around, "pattern should enclose the via");
    }

    #[test]
    fn non_monotone_validity() {
        // The same via: full height 40 is valid (enclosed), but a height
        // that would put the hat *through* the via is not — the
        // non-monotonicity that rules out binary search.
        let ctx = ctx_with(vec![Polygon::rectangle(
            Point::new(28.0, 12.0),
            Point::new(32.0, 16.0),
        )]);
        let tall = probe(&ctx, 10.0, 50.0, GAP, 40.0, HMIN);
        assert!((tall.height - 40.0).abs() < 1e-9);
        // Starting from 14 (hat inside the via band): must shrink below.
        let mid = probe(&ctx, 10.0, 50.0, GAP, 14.0, HMIN);
        assert!(
            mid.height <= 10.0 + 1e-9,
            "hat through via must shrink below it, got {}",
            mid.height
        );
        assert!(tall.height > mid.height, "validity is not monotone in h");
    }

    #[test]
    fn enclosure_needs_inner_clearance() {
        // Via too close to a foot: inside outer border, escapes the inner
        // border → cannot be enclosed; height drops below it.
        let ctx = ctx_with(vec![Polygon::rectangle(
            Point::new(11.0, 12.0),
            Point::new(15.0, 16.0),
        )]);
        let r = probe(&ctx, 10.0, 50.0, GAP, 40.0, HMIN);
        assert!(r.height <= 12.0 + 1e-9, "h={}", r.height);
        assert!(!r.routes_around);
    }

    #[test]
    fn blocked_space_gives_zero() {
        // Wall right on top of the feet region.
        let ctx = ctx_with(vec![Polygon::rectangle(
            Point::new(0.0, 2.0),
            Point::new(100.0, 6.0),
        )]);
        let r = probe(&ctx, 20.0, 40.0, GAP, 30.0, HMIN);
        assert_eq!(r.height, 0.0);
    }

    #[test]
    fn h_min_enforced() {
        // Space allows h=3 but h_min=4 → no pattern.
        let ctx = ctx_with(vec![Polygon::rectangle(
            Point::new(10.0, 5.0),
            Point::new(50.0, 8.0),
        )]);
        let r = probe(&ctx, 20.0, 40.0, GAP, 30.0, 4.0);
        assert_eq!(r.height, 0.0);
        // With h_min=2 the same space hosts a pattern of 3.
        let r = probe(&ctx, 20.0, 40.0, GAP, 30.0, 2.0);
        assert!((r.height - 3.0).abs() < 1e-9);
    }

    #[test]
    fn iterative_hat_shrinking() {
        // Paper Figs. 7–8: shrinking under one polygon makes the next one
        // protrude. P1 straddles the initial outer border (stage 2, hob →
        // 30); P2 was comfortably inside but now pokes through the inner
        // border (stage 3, hob → 20); P3 remains legally enclosed.
        let ctx = ctx_with(vec![
            Polygon::rectangle(Point::new(25.0, 30.0), Point::new(35.0, 50.0)), // P1
            Polygon::rectangle(Point::new(20.0, 20.0), Point::new(24.0, 28.0)), // P2
            Polygon::rectangle(Point::new(36.0, 10.0), Point::new(40.0, 14.0)), // P3
        ]);
        let r = probe(&ctx, 15.0, 45.0, GAP, 40.0, 2.0);
        assert!((r.height - 18.0).abs() < 1e-9, "h={}", r.height);
        assert!(r.routes_around, "P3 should remain enclosed");
    }

    #[test]
    fn other_trace_ura_constrains() {
        // A neighbouring parallel run of the same trace 20 above.
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let trace = meander_geom::Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 20.0),
            Point::new(0.0, 20.0),
        ]);
        let world = WorldContext {
            area: vec![Polygon::rectangle(
                Point::new(-20.0, -60.0),
                Point::new(120.0, 60.0),
            )],
            obstacles: vec![],
            other_uras: WorldContext::trace_uras(&trace, 0, GAP),
        };
        let ctx = ShrinkContext::build(&world, &frame, 100.0, 1);
        let r = probe(&ctx, 20.0, 40.0, GAP, 30.0, HMIN);
        // Parallel run URA bottom at y = 18 → hob ≤ 18 → h ≤ 16.
        assert!((r.height - 16.0).abs() < 1e-9, "h={}", r.height);
    }

    #[test]
    fn init_below_min_rejected() {
        let ctx = ctx_with(vec![]);
        let r = probe(&ctx, 20.0, 40.0, GAP, 2.0, 4.0);
        assert_eq!(r.height, 0.0);
    }

    #[test]
    fn batched_paths_bitwise_equal() {
        // Mixed geometry, both side contexts: the lane table sweep must
        // reproduce the scalar sweep's floats exactly.
        let obstacles = vec![
            Polygon::rectangle(Point::new(0.0, 10.0), Point::new(18.0, 14.0)),
            Polygon::rectangle(Point::new(55.0, 6.0), Point::new(70.0, 9.0)),
            Polygon::regular(Point::new(36.0, 14.0), 2.5, 7, 0.3),
            Polygon::rectangle(Point::new(80.0, 1.0), Point::new(90.0, 3.0)),
        ];
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let world = WorldContext {
            area: vec![Polygon::rectangle(
                Point::new(-20.0, -60.0),
                Point::new(120.0, 60.0),
            )],
            obstacles,
            other_uras: vec![],
        };
        let ctx_up = ShrinkContext::build(&world, &frame, 100.0, 1);
        let ctx_dn = ShrinkContext::build(&world, &frame, 100.0, -1);
        let mut scratch = ShrinkScratch::new();

        let (m, ldisc, h_init) = (50usize, 2.0, 30.0);
        let ps = build_stage1_table(&ctx_up, &ctx_dn, m, ldisc, GAP, h_init, &mut scratch);
        let pb = build_stage1_table_batched(&ctx_up, &ctx_dn, m, ldisc, GAP, h_init, &mut scratch);
        for d in 0..2 {
            for p in 0..=m {
                assert_eq!(
                    ps.left[d][p].to_bits(),
                    pb.left[d][p].to_bits(),
                    "left[{d}][{p}]: {} vs {}",
                    ps.left[d][p],
                    pb.left[d][p]
                );
                assert_eq!(
                    ps.right[d][p].to_bits(),
                    pb.right[d][p].to_bits(),
                    "right[{d}][{p}]"
                );
            }
        }
    }

    #[test]
    fn ub_profile_bounds_every_probe() {
        // Mixed geometry: a side-blocking wall, a low ceiling patch, and an
        // enclosable via — the profile must upper-bound every probe result
        // exactly (no epsilon: same floats, same primitives).
        let obstacles = vec![
            Polygon::rectangle(Point::new(0.0, 10.0), Point::new(18.0, 14.0)),
            Polygon::rectangle(Point::new(55.0, 6.0), Point::new(70.0, 9.0)),
            Polygon::rectangle(Point::new(34.0, 12.0), Point::new(38.0, 16.0)),
            // Hugging the segment: floors nearby caps to zero.
            Polygon::rectangle(Point::new(80.0, 1.0), Point::new(90.0, 3.0)),
        ];
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let world = WorldContext {
            area: vec![Polygon::rectangle(
                Point::new(-20.0, -60.0),
                Point::new(120.0, 60.0),
            )],
            obstacles,
            other_uras: vec![],
        };
        let ctx_up = ShrinkContext::build(&world, &frame, 100.0, 1);
        let ctx_dn = ShrinkContext::build(&world, &frame, 100.0, -1);

        let (m, ldisc, h_init, h_min) = (50usize, 2.0, 30.0, 2.0);
        let mut scratch = ShrinkScratch::new();
        let profile = build_stage1_table(&ctx_up, &ctx_dn, m, ldisc, GAP, h_init, &mut scratch)
            .profile(h_min);

        for d in 0..2usize {
            let ctx = if d == 1 { &ctx_up } else { &ctx_dn };
            for j in 0..m {
                for i in (j + 2)..=(j + 16).min(m) {
                    let r = max_pattern_height(
                        ctx,
                        j as f64 * ldisc,
                        i as f64 * ldisc,
                        GAP,
                        h_init,
                        h_min,
                        &mut scratch,
                    );
                    let cap = profile.cap.min(profile.left[d][j]).min(profile.right[d][i]);
                    assert!(
                        r.height <= cap,
                        "probe ({j},{i},{d}): height {} exceeds profile cap {cap}",
                        r.height
                    );
                }
            }
        }
        // The obstacle hugging the segment must floor some caps to zero.
        assert!(profile.left[1].contains(&0.0));
        // Open positions far from everything stay at the global cap.
        assert!(profile.left[1].contains(&h_init));
    }
}
