//! SoA candidate batches and lane-parallel geometry kernels.
//!
//! The DRC scan and the URA shrinker's stage-1 table sweep evaluate the
//! same tiny predicates — point↔segment distance, segment↔segment
//! distance, vertical-side × edge intersection — against *sets* of
//! candidates: segments gathered from a spatial index, or the run of foot
//! positions one edge can reach. Calling the scalar predicates per
//! candidate is the wrong shape for that: every call re-loads a `Segment`,
//! branches through an intersection early-out, and pays a `sqrt` per
//! partial distance even though only the *minimum* ever matters.
//!
//! This module restructures those hot paths around structure-of-arrays
//! segment batches ([`SegBatch`]) whose kernels run a fixed-width lane
//! loop that rustc auto-vectorizes (plain `f64` arithmetic, no nightly
//! `std::simd`, no intrinsics — the scalar fallback *is* the portable
//! default and the batched code is portable too).
//!
//! ## The lane-exactness contract
//!
//! Every kernel here returns **bit-identical** results to the scalar
//! predicates in [`crate::segment`] / [`crate::intersect`]. That is a hard
//! contract (the DRC violation lists and router placements must not change
//! by a ULP when batching is toggled), maintained by three rules:
//!
//! 1. **Same operation sequence per lane.** Each lane executes the exact
//!    primitive sequence of the scalar code path — same operand order, same
//!    tolerance checks, same clamps (`f64` arithmetic is deterministic and
//!    Rust never contracts `a*b + c` into an FMA on its own). Where the
//!    scalar code multiplies by a coordinate difference that is identically
//!    zero (a vertical side's `x − x`), the kernel keeps the term so the
//!    float stream matches.
//! 2. **Squared-distance reduction, one terminal `sqrt`.** Distances are
//!    compared as squared values and only the reduced winner takes the
//!    `sqrt`. IEEE-754 `sqrt` is correctly rounded and monotone, so
//!    `sqrt(min(d²ᵢ)) == min(sqrt(d²ᵢ))` bit-for-bit, and strict-minimum
//!    argmins agree with the scalar scan as long as ties resolve to the
//!    first occurrence (they do: reductions here use strict `<`).
//! 3. **Conservative prefilters, exact confirmation.** Branchy sub-cases
//!    that resist vectorization (segment intersection, collinear overlaps,
//!    degenerate segments) are *prefiltered* with a provably conservative
//!    test (bounding boxes inflated by [`PREFILTER_SLACK`], plus a
//!    short-segment escape hatch) and the surviving lanes run the scalar
//!    predicate verbatim. A lane the prefilter rejects is one the scalar
//!    predicate provably answers `None` for, so skipping it cannot change
//!    the result.
//!
//! Property tests (`tests/props.rs` and the in-module suite) compare every
//! kernel against the scalar path on randomized candidate sets — including
//! degenerate zero-length segments and collinear overlaps — with
//! `f64::to_bits` equality.

use crate::eps::EPS;
use crate::intersect::{segment_intersection, segments_intersect, SegmentIntersection};
use crate::point::Point;
use crate::segment::Segment;

/// Bounding-box inflation used by the intersection prefilters, in board
/// units.
///
/// Soundness: every `SegmentIntersection` outcome other than `None` implies
/// a point within ~[`EPS`] (1e-9) of both segments — endpoint touches and
/// collinear overlaps are accepted within `EPS` absolute distance, and the
/// crossing point of the generic branch lies exactly on `s1` and within
/// rounding of `s2`. `1e-6` dominates those tolerances by three orders of
/// magnitude, so two segments whose inflated boxes do not meet cannot
/// intersect. The one exception is a *very short* segment (length below
/// [`SHORT_SEG_LEN`]), whose collinearity test `|d₁ × Δ| ≤ EPS` tolerates a
/// lateral offset of up to `EPS / len` — such lanes bypass the prefilter
/// and always run the scalar predicate.
pub const PREFILTER_SLACK: f64 = 1e-6;

/// Segments shorter than this always take the scalar intersection path
/// (see [`PREFILTER_SLACK`]): `EPS / SHORT_SEG_LEN ≤ PREFILTER_SLACK`.
pub const SHORT_SEG_LEN: f64 = 1e-3;

/// Structure-of-arrays segment buffer.
///
/// Endpoint coordinates live in four parallel `f64` arrays so kernels
/// stream them with unit stride. Buffers are reused across queries
/// ([`SegBatch::clear`] keeps the allocations).
#[derive(Debug, Clone, Default)]
pub struct SegBatch {
    ax: Vec<f64>,
    ay: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
}

impl SegBatch {
    /// Empty batch.
    pub fn new() -> Self {
        SegBatch::default()
    }

    /// Number of segments in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.ax.len()
    }

    /// `true` when the batch holds no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ax.is_empty()
    }

    /// Clears the batch, keeping allocations.
    pub fn clear(&mut self) {
        self.ax.clear();
        self.ay.clear();
        self.bx.clear();
        self.by.clear();
    }

    /// Appends one segment.
    #[inline]
    pub fn push(&mut self, s: &Segment) {
        self.push_coords(s.a.x, s.a.y, s.b.x, s.b.y);
    }

    /// Appends one segment from raw coordinates.
    #[inline]
    pub fn push_coords(&mut self, ax: f64, ay: f64, bx: f64, by: f64) {
        self.ax.push(ax);
        self.ay.push(ay);
        self.bx.push(bx);
        self.by.push(by);
    }

    /// Reconstructs segment `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Segment {
        Segment::new(
            Point::new(self.ax[i], self.ay[i]),
            Point::new(self.bx[i], self.by[i]),
        )
    }

    /// `a.x` lane array.
    #[inline]
    pub fn ax(&self) -> &[f64] {
        &self.ax
    }

    /// `a.y` lane array.
    #[inline]
    pub fn ay(&self) -> &[f64] {
        &self.ay
    }

    /// `b.x` lane array.
    #[inline]
    pub fn bx(&self) -> &[f64] {
        &self.bx
    }

    /// `b.y` lane array.
    #[inline]
    pub fn by(&self) -> &[f64] {
        &self.by
    }
}

/// Squared distance from point `(px, py)` to segment `(ax, ay) → (bx, by)`
/// — the exact operation sequence of [`Segment::distance_to_point`] (via
/// `project` → `clamp` → `point_at` → `Point::distance`) minus the terminal
/// `sqrt`, so `pt_seg_dsq(..).sqrt()` is bit-identical to the scalar call.
///
/// Public so sparse callers (the DRC's edge-indexed obstacle pass, which
/// visits only the few edges near each candidate) can accumulate the same
/// float stream the lane kernels produce without materializing a batch.
#[inline(always)]
#[allow(clippy::manual_clamp)] // mirrors `eps::clamp` (max-then-min), not `f64::clamp`
pub fn pt_seg_dsq(px: f64, py: f64, ax: f64, ay: f64, bx: f64, by: f64) -> f64 {
    let dx = bx - ax;
    let dy = by - ay;
    let len_sq = dx * dx + dy * dy;
    let t = if len_sq <= EPS * EPS {
        0.0
    } else {
        ((px - ax) * dx + (py - ay) * dy) / len_sq
    };
    let t = t.max(0.0).min(1.0);
    let cx = ax + dx * t;
    let cy = ay + dy * t;
    let ex = cx - px;
    let ey = cy - py;
    ex * ex + ey * ey
}

/// Min-accumulates, per lane, the squared distance from the fixed segment
/// `seg` to the point `(px[i], py[i])`: `acc[i] = acc[i].min(d²)`.
///
/// Used by the batched DRC obstacle pass for the "obstacle edge ↔ candidate
/// endpoint" partials of the polygon distance.
#[allow(clippy::needless_range_loop)] // parallel-slice lane loops
pub fn accum_seg_to_points_dsq(seg: &Segment, px: &[f64], py: &[f64], acc: &mut [f64]) {
    let n = acc.len();
    let (px, py) = (&px[..n], &py[..n]);
    let (ax, ay, bx, by) = (seg.a.x, seg.a.y, seg.b.x, seg.b.y);
    for i in 0..n {
        let d = pt_seg_dsq(px[i], py[i], ax, ay, bx, by);
        if d < acc[i] {
            acc[i] = d;
        }
    }
}

/// Min-accumulates, per lane, the squared distance from the fixed point `p`
/// to batch segment `i`.
#[allow(clippy::needless_range_loop)] // parallel-slice lane loops
pub fn accum_point_to_segs_dsq(p: Point, batch: &SegBatch, acc: &mut [f64]) {
    let n = batch.len();
    let acc = &mut acc[..n];
    let (ax, ay, bx, by) = (
        &batch.ax[..n],
        &batch.ay[..n],
        &batch.bx[..n],
        &batch.by[..n],
    );
    for i in 0..n {
        let d = pt_seg_dsq(p.x, p.y, ax[i], ay[i], bx[i], by[i]);
        if d < acc[i] {
            acc[i] = d;
        }
    }
}

/// `true` when the two segments could possibly intersect under the scalar
/// predicate's tolerances — bbox overlap after [`PREFILTER_SLACK`]
/// inflation, with very short segments always passing (see the module docs
/// for the soundness argument).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn may_intersect(
    plox: f64,
    phix: f64,
    ploy: f64,
    phiy: f64,
    probe_short: bool,
    ax: f64,
    ay: f64,
    bx: f64,
    by: f64,
) -> bool {
    let clox = ax.min(bx) - PREFILTER_SLACK;
    let chix = ax.max(bx) + PREFILTER_SLACK;
    let cloy = ay.min(by) - PREFILTER_SLACK;
    let chiy = ay.max(by) + PREFILTER_SLACK;
    let bbox_hit = plox <= chix && clox <= phix && ploy <= chiy && cloy <= phiy;
    let dx = bx - ax;
    let dy = by - ay;
    let cand_short = dx * dx + dy * dy < SHORT_SEG_LEN * SHORT_SEG_LEN;
    bbox_hit || cand_short || probe_short
}

/// Marks `hit[i] = true` for batch segments that intersect `probe` (scalar
/// predicate [`segments_intersect`] with `probe` as the first argument, the
/// order the DRC scalar path uses). Lanes already marked are skipped;
/// lanes the conservative prefilter rejects are provably `None`.
#[allow(clippy::needless_range_loop)] // parallel-slice lane loops
pub fn mark_intersections(probe: &Segment, batch: &SegBatch, hit: &mut [bool]) {
    let n = batch.len();
    let hit = &mut hit[..n];
    let (ax, ay, bx, by) = (
        &batch.ax[..n],
        &batch.ay[..n],
        &batch.bx[..n],
        &batch.by[..n],
    );
    let (plox, phix) = (probe.a.x.min(probe.b.x), probe.a.x.max(probe.b.x));
    let (ploy, phiy) = (probe.a.y.min(probe.b.y), probe.a.y.max(probe.b.y));
    let pdx = probe.b.x - probe.a.x;
    let pdy = probe.b.y - probe.a.y;
    let probe_short = pdx * pdx + pdy * pdy < SHORT_SEG_LEN * SHORT_SEG_LEN;
    for i in 0..n {
        if hit[i] {
            continue;
        }
        if may_intersect(
            plox,
            phix,
            ploy,
            phiy,
            probe_short,
            ax[i],
            ay[i],
            bx[i],
            by[i],
        ) && segments_intersect(probe, &batch.get(i))
        {
            hit[i] = true;
        }
    }
}

/// Squared distance from `probe` to every batch segment:
/// `out[i].sqrt()` is bit-identical to
/// `probe.distance_to_segment(&batch.get(i))`.
///
/// The four endpoint↔segment partials run lane-parallel in the squared
/// domain; the intersection early-out of the scalar path becomes a
/// conservative prefilter plus an exact scalar confirmation on the few
/// surviving lanes (`d² = 0` exactly when the scalar predicate intersects).
#[allow(clippy::needless_range_loop)] // parallel-slice lane loops
pub fn distance_sq_to_segment_batch(probe: &Segment, batch: &SegBatch, out: &mut Vec<f64>) {
    let n = batch.len();
    out.clear();
    out.resize(n, f64::INFINITY);
    let o = &mut out[..n];
    let (ax, ay, bx, by) = (
        &batch.ax[..n],
        &batch.ay[..n],
        &batch.bx[..n],
        &batch.by[..n],
    );
    let (pax, pay, pbx, pby) = (probe.a.x, probe.a.y, probe.b.x, probe.b.y);
    let (plox, phix) = (pax.min(pbx), pax.max(pbx));
    let (ploy, phiy) = (pay.min(pby), pay.max(pby));
    let pdx = pbx - pax;
    let pdy = pby - pay;
    let probe_short = pdx * pdx + pdy * pdy < SHORT_SEG_LEN * SHORT_SEG_LEN;

    // Lane pass: straight-line arithmetic only (the intersection branch
    // moves to a second, sparse pass so this loop stays vectorizable).
    for i in 0..n {
        let (cax, cay, cbx, cby) = (ax[i], ay[i], bx[i], by[i]);
        // probe.distance_to_point(cand.a) / (cand.b): point vs probe.
        let d1 = pt_seg_dsq(cax, cay, pax, pay, pbx, pby);
        let d2 = pt_seg_dsq(cbx, cby, pax, pay, pbx, pby);
        // cand.distance_to_point(probe.a) / (probe.b): point vs candidate.
        let d3 = pt_seg_dsq(pax, pay, cax, cay, cbx, cby);
        let d4 = pt_seg_dsq(pbx, pby, cax, cay, cbx, cby);
        o[i] = d1.min(d2).min(d3).min(d4);
    }
    for i in 0..n {
        if o[i] > 0.0
            && may_intersect(
                plox,
                phix,
                ploy,
                phiy,
                probe_short,
                ax[i],
                ay[i],
                bx[i],
                by[i],
            )
            && segments_intersect(probe, &batch.get(i))
        {
            o[i] = 0.0;
        }
    }
}

/// Distance from `(px, py)` to the baseline segment `(0,0) → (seg_len, 0)`
/// — the operation sequence of `ShrinkContext::dist_seg` (which is
/// [`Segment::distance_to_point`] on that exact segment), terminal `sqrt`
/// included: stage-1 caps reduce in the distance domain because the
/// starting cap (`h_ob`) is not itself a squared distance.
#[inline(always)]
fn dist_to_baseline(px: f64, py: f64, seg_len: f64) -> f64 {
    pt_seg_dsq(px, py, 0.0, 0.0, seg_len, 0.0).sqrt()
}

/// Scalar contribution of one side × edge intersection: the
/// distance-to-baseline of the crossing (the nearer end of a collinear
/// overlap), `f64::INFINITY` when they miss. The one scalar stage-1
/// evaluation — the shrinker's self-computing probes and scalar table
/// sweep call it per candidate, and [`intersect_x_range_batch`]'s fallback
/// lanes reuse it.
#[inline]
pub fn side_edge_cap_scalar(side: &Segment, edge: &Segment, seg_len: f64) -> f64 {
    match segment_intersection(side, edge) {
        SegmentIntersection::None => f64::INFINITY,
        SegmentIntersection::Point(p) => dist_to_baseline(p.x, p.y, seg_len),
        SegmentIntersection::Overlap(o) => {
            dist_to_baseline(o.a.x, o.a.y, seg_len).min(dist_to_baseline(o.b.x, o.b.y, seg_len))
        }
    }
}

/// Intersects the vertical sides `(xs[i], ylo) → (xs[i], yhi)` with one
/// `edge`, lane-parallel over the `xs` positions, and min-accumulates each
/// crossing's distance-to-baseline into `caps[i]`.
///
/// This is the inner kernel of the batched stage-1 table sweep
/// (`build_stage1_table_batched`): the caller iterates candidate edges
/// (outer) and hands each one the contiguous span of foot positions whose
/// probe column can see it. Every
/// lane reproduces the float stream of
/// `segment_intersection(&side, edge)` + `dist_seg` exactly (the `x − x`
/// and `0.0 ·` terms are kept on purpose — see the module docs); edges
/// parallel to the sides fall back to the scalar predicate per lane, which
/// also covers collinear overlaps.
#[allow(clippy::eq_op)]
pub fn intersect_x_range_batch(
    xs: &[f64],
    ylo: f64,
    yhi: f64,
    edge: &Segment,
    seg_len: f64,
    caps: &mut [f64],
) {
    debug_assert_eq!(xs.len(), caps.len());
    // d1 = side.delta() = (x − x, yhi − ylo): identical for every lane.
    let dy1 = yhi - ylo;
    let (ex, ey) = (edge.b.x - edge.a.x, edge.b.y - edge.a.y);
    // denom = d1 × d2, with d1.x ≡ 0.0 (kept in the expression so the
    // float stream matches the scalar cross product).
    let denom = 0.0 * ey - dy1 * ex;
    if denom.abs() <= EPS {
        // Parallel / degenerate branch of `segment_intersection`: run the
        // scalar predicate per lane (collinear overlaps live here).
        for (i, &x) in xs.iter().enumerate() {
            let side = Segment::new(Point::new(x, ylo), Point::new(x, yhi));
            let c = side_edge_cap_scalar(&side, edge, seg_len);
            if c < caps[i] {
                caps[i] = c;
            }
        }
        return;
    }
    // Generic branch: per-lane t/u with the scalar tolerances. The side's
    // norm is √(0² + dy1²) — computed that way, not `abs`, to mirror
    // `Vector::norm` exactly.
    let t_tol = EPS / (0.0 * 0.0 + dy1 * dy1).sqrt().max(EPS);
    let u_tol = EPS / (ex * ex + ey * ey).sqrt().max(EPS);
    for (i, &x) in xs.iter().enumerate() {
        // start_diff = edge.a − side.a
        let sdx = edge.a.x - x;
        let sdy = edge.a.y - ylo;
        let t = (sdx * ey - sdy * ex) / denom;
        let u = (sdx * dy1 - sdy * 0.0) / denom;
        if t >= -t_tol && t <= 1.0 + t_tol && u >= -u_tol && u <= 1.0 + u_tol {
            let tc = t.clamp(0.0, 1.0);
            // p = side.point_at(tc): px keeps the zero-width lerp term.
            let px = x + (x - x) * tc;
            let py = ylo + (yhi - ylo) * tc;
            let c = dist_to_baseline(px, py, seg_len);
            if c < caps[i] {
                caps[i] = c;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // lane-indexed comparison loops
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// Deterministic pseudo-random stream (no external deps in this crate).
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (self.0 >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        }
    }

    fn random_batch(rng: &mut Lcg, n: usize) -> SegBatch {
        let mut b = SegBatch::new();
        for k in 0..n {
            if k % 17 == 5 {
                // Degenerate zero-length candidate.
                let x = rng.next_f64(-50.0, 50.0);
                let y = rng.next_f64(-50.0, 50.0);
                b.push(&seg(x, y, x, y));
            } else if k % 11 == 3 {
                // Exactly horizontal (collinear-overlap bait at y = 0).
                let x = rng.next_f64(-50.0, 50.0);
                b.push(&seg(x, 0.0, x + rng.next_f64(0.1, 20.0), 0.0));
            } else {
                b.push(&seg(
                    rng.next_f64(-50.0, 50.0),
                    rng.next_f64(-50.0, 50.0),
                    rng.next_f64(-50.0, 50.0),
                    rng.next_f64(-50.0, 50.0),
                ));
            }
        }
        b
    }

    #[test]
    fn segment_batch_matches_scalar_bitwise() {
        let mut rng = Lcg(7);
        let mut out = Vec::new();
        for round in 0..8 {
            let batch = random_batch(&mut rng, 64);
            let probe = if round % 3 == 0 {
                seg(-10.0, 0.0, 30.0, 0.0) // horizontal: hits the collinear bait
            } else {
                seg(
                    rng.next_f64(-50.0, 50.0),
                    rng.next_f64(-50.0, 50.0),
                    rng.next_f64(-50.0, 50.0),
                    rng.next_f64(-50.0, 50.0),
                )
            };
            distance_sq_to_segment_batch(&probe, &batch, &mut out);
            for i in 0..batch.len() {
                let scalar = probe.distance_to_segment(&batch.get(i));
                assert_eq!(
                    out[i].sqrt().to_bits(),
                    scalar.to_bits(),
                    "round {round} lane {i}: batched {} vs scalar {scalar}",
                    out[i].sqrt()
                );
            }
        }
    }

    #[test]
    fn accumulators_match_scalar_min() {
        let mut rng = Lcg(3);
        let batch = random_batch(&mut rng, 48);
        let e = seg(1.0, 2.0, 9.0, -3.0);
        let mut acc = vec![f64::INFINITY; batch.len()];
        accum_seg_to_points_dsq(&e, batch.ax(), batch.ay(), &mut acc);
        accum_point_to_segs_dsq(e.a, &batch, &mut acc);
        for i in 0..batch.len() {
            let expect = e
                .distance_to_point(batch.get(i).a)
                .min(batch.get(i).distance_to_point(e.a));
            assert_eq!(acc[i].sqrt().to_bits(), expect.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn mark_intersections_matches_predicate() {
        let mut rng = Lcg(42);
        for _ in 0..6 {
            let batch = random_batch(&mut rng, 80);
            let probe = seg(-20.0, -20.0, 20.0, 20.0);
            let mut hit = vec![false; batch.len()];
            mark_intersections(&probe, &batch, &mut hit);
            for i in 0..batch.len() {
                assert_eq!(
                    hit[i],
                    segments_intersect(&probe, &batch.get(i)),
                    "lane {i}"
                );
            }
        }
    }

    /// Reference: the scalar stage-1 contribution of one side × edge.
    fn scalar_cap(x: f64, ylo: f64, yhi: f64, e: &Segment, seg_len: f64) -> f64 {
        let side = seg(x, ylo, x, yhi);
        side_edge_cap_scalar(&side, e, seg_len)
    }

    #[test]
    fn x_range_kernel_matches_scalar_bitwise() {
        let mut rng = Lcg(1234);
        let (ylo, yhi, seg_len) = (1e-7, 40.0, 100.0);
        let xs: Vec<f64> = (0..=50).map(|p| p as f64 * 2.0 - 3.0).collect();
        for k in 0..60 {
            let e = match k % 5 {
                // Vertical edge (parallel branch) crossing some columns.
                0 => {
                    let x = rng.next_f64(-5.0, 100.0);
                    seg(x, rng.next_f64(-5.0, 50.0), x, rng.next_f64(-5.0, 50.0))
                }
                // Degenerate point edge.
                1 => {
                    let x = rng.next_f64(-5.0, 100.0);
                    let y = rng.next_f64(0.0, 45.0);
                    seg(x, y, x, y)
                }
                // Vertical collinear with a side: exactly at a lattice x.
                2 => seg(11.0, 5.0, 11.0, 25.0),
                _ => seg(
                    rng.next_f64(-10.0, 110.0),
                    rng.next_f64(-10.0, 50.0),
                    rng.next_f64(-10.0, 110.0),
                    rng.next_f64(-10.0, 50.0),
                ),
            };
            let mut caps = vec![f64::INFINITY; xs.len()];
            intersect_x_range_batch(&xs, ylo, yhi, &e, seg_len, &mut caps);
            for (i, &x) in xs.iter().enumerate() {
                let expect = scalar_cap(x, ylo, yhi, &e, seg_len);
                assert_eq!(
                    caps[i].to_bits(),
                    expect.to_bits(),
                    "edge {k} lane {i}: batched {} vs scalar {expect}",
                    caps[i]
                );
            }
        }
    }

    #[test]
    fn batch_buffers_roundtrip() {
        let mut b = SegBatch::new();
        assert!(b.is_empty());
        b.push(&seg(1.0, 2.0, 3.0, 4.0));
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0), seg(1.0, 2.0, 3.0, 4.0));
        b.clear();
        assert!(b.is_empty());
    }
}
