//! Property-based tests for the meandering engine.
//!
//! These check the invariants the paper's correctness rests on, against
//! randomized inputs:
//!
//! * the DP never emits an illegal pattern set (spacing, stubs, widths),
//! * URA shrinking is sound: the returned height yields a pattern whose
//!   clearance to every obstacle is respected *geometrically* (checked
//!   against raw distances, not through the shrink logic itself),
//! * trace extension never overshoots, never moves endpoints, never
//!   self-intersects, and never leaves the routable area.

use meander_core::context::{ShrinkContext, WorldContext, Y_EPS};
use meander_core::dp::{extend_segment_dp, DpInput, HeightBounds, UbProfile};
use meander_core::extend::{extend_trace, ExtendInput};
use meander_core::shrink::{
    build_stage1_table, build_stage1_table_batched, max_pattern_height, max_pattern_height_fed,
    ShrinkScratch,
};
use meander_core::ExtendConfig;
use meander_drc::DesignRules;
use meander_geom::batch::side_edge_cap_scalar;
use meander_geom::{Frame, Point, Polygon, Polyline, Rect, Segment, EPS};
use meander_index::{IndexKind, SegIndex, SegmentGrid};
use proptest::prelude::*;

fn rules() -> DesignRules {
    DesignRules {
        gap: 8.0,
        obstacle: 8.0,
        protect: 4.0,
        miter: 2.0,
        width: 4.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dp_output_is_always_legal(
        m in 10usize..80,
        gap_steps in 2usize..8,
        protect_steps in 1usize..4,
        heights in proptest::collection::vec(0.0..20.0f64, 16),
    ) {
        let config = ExtendConfig::default();
        let height = |lo: usize, hi: usize, dir: i8| -> f64 {
            // Pseudo-random but deterministic height field.
            let ix = (lo * 7 + hi * 13 + (dir as usize & 1) * 3) % heights.len();
            let h = heights[ix];
            if h < 1.0 { 0.0 } else { h }
        };
        let out = extend_segment_dp(&DpInput {
            m,
            ldisc: 1.0,
            gap_steps,
            protect_steps,
            min_width_steps: gap_steps,
            max_width_steps: 32,
            height: &height,
            bounds: HeightBounds::Uniform(f64::INFINITY),
            config: &config,
        });
        // Value == restored sum.
        let sum: f64 = out.placements.iter().map(|p| p.height).sum();
        prop_assert!((sum - out.total_height).abs() < 1e-9);
        // Feet ordered, non-overlapping, legal widths and stubs.
        let mut prev_hi = 0usize;
        let mut first = true;
        for p in &out.placements {
            prop_assert!(p.hi <= m);
            prop_assert!(p.hi - p.lo >= gap_steps, "width too small: {p:?}");
            prop_assert!(p.lo == 0 || p.lo >= protect_steps, "left stub: {p:?}");
            prop_assert!(p.hi == m || m - p.hi >= protect_steps, "right stub: {p:?}");
            if !first {
                prop_assert!(p.lo >= prev_hi, "overlap at {p:?}");
            }
            prev_hi = p.hi;
            first = false;
            prop_assert!(p.height > 0.0);
        }
        // Same-side spacing (possibly via connected chains): consecutive
        // same-side patterns must be gap_steps apart unless every pattern
        // between them shares feet (connected chain).
        let v = &out.placements;
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                if v[i].dir == v[j].dir {
                    // Distance between same-side feet.
                    let chain = (i..j).all(|k| v[k + 1].lo == v[k].hi);
                    if !chain {
                        prop_assert!(
                            v[j].lo >= v[i].hi + gap_steps.min(protect_steps),
                            "same-side too close: {:?} then {:?}",
                            v[i],
                            v[j]
                        );
                    }
                }
                if v[j].lo >= v[i].hi + gap_steps {
                    break; // far enough; later ones farther still
                }
            }
        }
    }

    #[test]
    fn shrink_is_geometrically_sound(
        obs_x in 10.0..140.0f64,
        obs_y in 2.0..50.0f64,
        obs_r in 1.0..6.0f64,
        x0 in 5.0..60.0f64,
        w in 12.5..60.0f64,
        h_init in 4.0..45.0f64,
    ) {
        let r = rules();
        let g_eff = r.gap + r.width; // 12
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(150.0, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let area = Polygon::rectangle(Point::new(-30.0, -80.0), Point::new(180.0, 80.0));
        let obstacle = Polygon::regular(Point::new(obs_x, obs_y), obs_r, 8, 0.2);
        let world = WorldContext {
            area: vec![area.clone()],
            obstacles: vec![obstacle.clone()],
            other_uras: vec![],
        };
        let ctx = ShrinkContext::build(&world, &frame, 150.0, 1);
        let x1 = (x0 + w).min(145.0);
        let res = max_pattern_height(&ctx, x0, x1, g_eff, h_init, r.protect, &mut ShrinkScratch::new());
        prop_assert!(res.height <= h_init + 1e-9);
        if res.height == 0.0 {
            return Ok(());
        }
        // Build the pattern centerline and verify raw clearance: every
        // obstacle is either g_eff/2 away from the pattern, or strictly
        // enclosed by it.
        let pattern = Polyline::new(vec![
            Point::new(x0, 0.0),
            Point::new(x0, res.height),
            Point::new(x1, res.height),
            Point::new(x1, 0.0),
        ]);
        let d = pattern
            .segments()
            .map(|s| obstacle.distance_to_segment(&s))
            .fold(f64::INFINITY, f64::min);
        let enclosed = obstacle.vertices().iter().all(|&v| {
            v.x > x0 && v.x < x1 && v.y < res.height && v.y > 0.0
        });
        if enclosed {
            // Enclosed obstacles still need the clearance to all walls.
            prop_assert!(
                d >= g_eff / 2.0 - 1e-6,
                "enclosed via too close: d={d} h={} obs=({obs_x},{obs_y},{obs_r})",
                res.height
            );
            prop_assert!(res.routes_around);
        } else {
            prop_assert!(
                d >= g_eff / 2.0 - 1e-6,
                "clearance violated: d={d} h={} obs=({obs_x},{obs_y},{obs_r})",
                res.height
            );
        }
        // Pattern inside the area.
        prop_assert!(res.height <= 80.0 - g_eff / 2.0 + 1e-9);
    }

    #[test]
    fn extension_invariants_hold(
        len in 60.0..250.0f64,
        extra_frac in 0.05..0.8f64,
        angle_deg in 0.0..180.0f64,
        half_h in 15.0..60.0f64,
    ) {
        let r = rules();
        let dir = meander_geom::Vector::new(
            angle_deg.to_radians().cos(),
            angle_deg.to_radians().sin(),
        );
        let a = Point::new(7.0, -3.0);
        let b = a + dir * len;
        let trace = Polyline::new(vec![a, b]);
        let seg = Segment::new(a, b);
        let frame = Frame::from_segment(&seg).unwrap();
        let local_area =
            Polygon::rectangle(Point::new(-20.0, -half_h), Point::new(len + 20.0, half_h));
        let area = vec![frame.polygon_to_world(&local_area)];
        let target = len * (1.0 + extra_frac);
        let out = extend_trace(
            &ExtendInput {
                trace: &trace,
                target,
                rules: &r,
                area: &area,
                obstacles: &[],
            },
            &ExtendConfig::default(),
        );
        // Never overshoots; never shrinks.
        prop_assert!(out.achieved <= target + 1e-6, "overshoot {}", out.achieved);
        prop_assert!(out.achieved >= len - 1e-9);
        // Endpoints pinned.
        prop_assert!(out.trace.start().approx_eq(a));
        prop_assert!(out.trace.end().approx_eq(b));
        // Geometry stays legal.
        prop_assert!(!out.trace.is_self_intersecting());
        for &p in out.trace.points() {
            prop_assert!(area[0].contains(p), "escaped area at {p}");
        }
    }

    #[test]
    fn extension_matches_when_roomy(
        len in 120.0..250.0f64,
        extra_frac in 0.05..0.35f64,
    ) {
        // With generous space the engine must land inside tolerance.
        let r = rules();
        let trace = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)]);
        let area = vec![Polygon::rectangle(
            Point::new(-20.0, -70.0),
            Point::new(len + 20.0, 70.0),
        )];
        let target = len * (1.0 + extra_frac);
        let out = extend_trace(
            &ExtendInput {
                trace: &trace,
                target,
                rules: &r,
                area: &area,
                obstacles: &[],
            },
            &ExtendConfig::default(),
        );
        // Residual below the 2·protect quantization floor.
        prop_assert!(
            target - out.achieved <= 2.0 * r.protect + 1e-6,
            "residual {}",
            target - out.achieved
        );
    }
}

/// A position-dependent height field: `height(lo, hi, dir)` is the min of a
/// per-point side field over the window, floored to 0 below a threshold —
/// mirroring how real URA clearances vary along a segment.
fn window_min_height<'a>(up: &'a [f64], dn: &'a [f64]) -> impl Fn(usize, usize, i8) -> f64 + 'a {
    move |lo, hi, dir| {
        let f = if dir > 0 { up } else { dn };
        let h = f[lo..=hi].iter().fold(f64::INFINITY, |a, &b| a.min(b));
        if h < 1.5 {
            0.0
        } else {
            h
        }
    }
}

fn tile(vals: &[f64], m: usize, offset: usize) -> Vec<f64> {
    (0..=m).map(|i| vals[(i + offset) % vals.len()]).collect()
}

proptest! {
    // The DP-equality contract of the output-sensitive machinery: across
    // ≥128 randomized segments with position-dependent height closures, the
    // profile-bounded pass and the invalidate+resolve session return
    // `Placement` lists bit-identical to the from-scratch DP.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn profile_bounded_dp_is_bit_identical(
        m in 24usize..120,
        gap_steps in 2usize..8,
        protect_steps in 1usize..4,
        vals in proptest::collection::vec(0.0..14.0f64, 16),
        offset in 0usize..16,
    ) {
        let config = ExtendConfig::default();
        let up = tile(&vals, m, offset);
        let dn = tile(&vals, m, offset + 7);
        let height = window_min_height(&up, &dn);
        let mk_input = |bounds| DpInput {
            m,
            ldisc: 1.0,
            gap_steps,
            protect_steps,
            min_width_steps: gap_steps,
            max_width_steps: 32,
            height: &height,
            bounds,
            config: &config,
        };
        let reference = extend_segment_dp(&mk_input(HeightBounds::Uniform(f64::INFINITY)));

        // The per-point field itself is a sound per-foot cap (window min ≤
        // field value at each foot), so this profile respects the contract.
        let profile = UbProfile {
            cap: 14.0,
            left: [dn.clone(), up.clone()],
            right: [dn.clone(), up.clone()],
        };
        let pruned = extend_segment_dp(&mk_input(HeightBounds::Profile(&profile)));
        prop_assert_eq!(
            &reference.placements,
            &pruned.placements,
            "profile pruning changed the optimum"
        );
        prop_assert_eq!(reference.total_height, pruned.total_height);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The SoA batch kernels must reproduce the scalar shrink floats
    // bit-for-bit on randomized obstacle fields: the per-position stage-1
    // table and the whole incremental engine run (the rebuild engine
    // always runs the scalar probes).
    #[test]
    fn batched_kernels_bit_identical_end_to_end(
        obs in proptest::collection::vec(
            (5.0..145.0f64, -40.0..40.0f64, 0.8..5.0f64, 3usize..9),
            0..12,
        ),
        m in 20usize..60,
        h_init in 6.0..50.0f64,
        target_factor in 1.2..2.5f64,
    ) {
        let r = rules();
        let g_eff = r.gap + r.width;
        let seg_len = 150.0;
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(seg_len, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let area = vec![Polygon::rectangle(
            Point::new(-30.0, -80.0),
            Point::new(180.0, 80.0),
        )];
        let obstacles: Vec<Polygon> = obs
            .iter()
            .map(|&(x, y, rad, n)| Polygon::regular(Point::new(x, y), rad, n, 0.25))
            .collect();
        let world = WorldContext {
            area: area.clone(),
            obstacles: obstacles.clone(),
            other_uras: vec![],
        };
        let ctx_up = ShrinkContext::build(&world, &frame, seg_len, 1);
        let ctx_dn = ShrinkContext::build(&world, &frame, seg_len, -1);
        let mut scratch = ShrinkScratch::new();
        let ldisc = seg_len / m as f64;

        // Stage-1 table sweep.
        let ps = build_stage1_table(&ctx_up, &ctx_dn, m, ldisc, g_eff, h_init, &mut scratch);
        let pb = build_stage1_table_batched(&ctx_up, &ctx_dn, m, ldisc, g_eff, h_init, &mut scratch);
        for d in 0..2 {
            for p in 0..=m {
                prop_assert_eq!(
                    ps.left[d][p].to_bits(),
                    pb.left[d][p].to_bits(),
                    "table left[{}][{}]", d, p
                );
                prop_assert_eq!(
                    ps.right[d][p].to_bits(),
                    pb.right[d][p].to_bits(),
                    "table right[{}][{}]", d, p
                );
            }
        }

        // Whole engine: identical meander, bit for bit, batch on or off.
        let trace = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(seg_len, 0.0)]);
        let input = ExtendInput {
            trace: &trace,
            target: seg_len * target_factor,
            rules: &r,
            area: &area,
            obstacles: &obstacles,
        };
        let mk = |batch_kernels: bool| ExtendConfig {
            parallel: false,
            batch_kernels,
            ..ExtendConfig::default()
        };
        let scalar = extend_trace(&input, &mk(false));
        let batched = extend_trace(&input, &mk(true));
        prop_assert_eq!(scalar.achieved.to_bits(), batched.achieved.to_bits(), "achieved diverged");
        prop_assert_eq!(scalar.patterns, batched.patterns);
        prop_assert_eq!(scalar.trace.points(), batched.trace.points());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The spatial-index contract end to end: grid- and R-tree-indexed
    // engines must produce bit-identical results on randomized
    // obstacle fields that include a plane-sized slab — the regime where
    // the structures' query *costs* differ most. Shrink contexts hold no
    // index: their lattice scan must return exactly a `SegmentGrid`'s
    // candidates on the same lattice, in the same order.
    #[test]
    fn index_kinds_bit_identical_end_to_end(
        obs in proptest::collection::vec(
            (5.0..145.0f64, -40.0..40.0f64, 0.8..5.0f64, 3usize..9),
            0..10,
        ),
        slab_y in 18.0..45.0f64,
        h_init in 6.0..50.0f64,
        target_factor in 1.2..2.2f64,
        windows in proptest::collection::vec(
            (-40.0..190.0f64, -10.0..70.0f64, 0.0..60.0f64, 0.0..40.0f64),
            8..24,
        ),
    ) {
        let r = rules();
        let seg_len = 150.0;
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(seg_len, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let area = vec![Polygon::rectangle(
            Point::new(-30.0, -80.0),
            Point::new(180.0, 80.0),
        )];
        let mut obstacles: Vec<Polygon> = obs
            .iter()
            .map(|&(x, y, rad, n)| Polygon::regular(Point::new(x, y), rad, n, 0.25))
            .collect();
        // A full-width plane slab: smears across the whole grid row, the
        // regime the R-tree exists for.
        obstacles.push(Polygon::rectangle(
            Point::new(-25.0, slab_y),
            Point::new(175.0, slab_y + 4.0),
        ));

        // Context-level: the lattice scan equals a grid over the context's
        // edges for thin columns, wide windows and disjoint ones.
        let world = WorldContext {
            area: area.clone(),
            obstacles: obstacles.clone(),
            other_uras: vec![],
        };
        for dir in [1, -1] {
            let ctx = ShrinkContext::build(&world, &frame, seg_len, dir);
            let grid = SegmentGrid::from_segments((seg_len / 8.0).max(1.0), &ctx.edges);
            let mut got = Vec::new();
            for &(x, y, w, h) in &windows {
                for rect in [
                    Rect::new(Point::new(x, Y_EPS), Point::new(x + EPS, h_init)),
                    Rect::new(Point::new(x - EPS, Y_EPS), Point::new(x, h_init)),
                    Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
                    Rect::new(Point::new(x + 1e4, y), Point::new(x + 1e4 + w, y + h)),
                ] {
                    ctx.edge_candidates(&rect, &mut got);
                    prop_assert_eq!(&got, &grid.query(&rect), "dir {} window {:?}", dir, rect);
                }
            }
        }

        // Engine-level: identical meander bit for bit, all kinds, scalar
        // and batched kernels.
        let trace = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(seg_len, 0.0)]);
        let input = ExtendInput {
            trace: &trace,
            target: seg_len * target_factor,
            rules: &r,
            area: &area,
            obstacles: &obstacles,
        };
        let run = |index: IndexKind, batch_kernels: bool| {
            extend_trace(&input, &ExtendConfig {
                index,
                batch_kernels,
                parallel: false,
                ..ExtendConfig::default()
            })
        };
        let reference = run(IndexKind::Grid, false);
        for (kind, bk) in [(IndexKind::RTree, false), (IndexKind::RTree, true)] {
            let other = run(kind, bk);
            prop_assert_eq!(
                reference.achieved.to_bits(),
                other.achieved.to_bits(),
                "achieved diverged ({:?}, batch={})", kind, bk
            );
            prop_assert_eq!(reference.patterns, other.patterns);
            prop_assert_eq!(reference.trace.points(), other.trace.points());
        }
    }
}

/// The probe's own stage 1 for the side at `x`, over a `SegIndex` on the
/// context's lattice: `side_edge_cap_scalar` per candidate of the side's
/// column, lowered from `hob0`.
fn indexed_side_cap(
    ctx: &ShrinkContext,
    index: &SegIndex,
    x: f64,
    left_side: bool,
    hob0: f64,
) -> f64 {
    let inward = if left_side { x + EPS } else { x - EPS };
    let column = Rect::new(Point::new(x, Y_EPS), Point::new(inward, hob0));
    let seg_len = ctx.local_segment.b.x;
    let side = Segment::new(Point::new(x, Y_EPS), Point::new(x, hob0));
    index.query(&column).iter().fold(hob0, |cap, &id| {
        cap.min(side_edge_cap_scalar(
            &side,
            &ctx.edges[id as usize],
            seg_len,
        ))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The stage-1 table is exactly what every DP probe would compute for
    // itself: at every foot and side, both table sweeps equal — bit for
    // bit — the probe's scalar stage 1 evaluated over a grid index on the
    // context's lattice. The fields mix random
    // polygons with rectangles snapped to cell boundaries, sides within EPS
    // of a cell boundary, vertical edges within a few EPS of a side, and a
    // plane slab; table-fed probes must then equal self-computing ones.
    #[test]
    fn stage1_table_equals_probe_columns(
        obs in proptest::collection::vec(
            (0.0..1.0f64, -40.0..40.0f64, 0.8..6.0f64, 3usize..9),
            0..8,
        ),
        snapped in proptest::collection::vec(
            (0usize..10, 0usize..3, 1usize..3, 1usize..3, 0usize..2),
            0..4,
        ),
        hugging in proptest::collection::vec(
            (0.0..1.0f64, 0usize..2, 0usize..7, 1.0..30.0f64, 0usize..2),
            0..6,
        ),
        slab in (0usize..2, 5.0..45.0f64),
        aligned in (0usize..3, 0.0..1.0f64, 1.0e-11..1.5e-10f64, 2.0..30.0f64, 0usize..2),
        seg_len in 40.0..220.0f64,
        m in 8usize..64,
        h_init in 4.0..50.0f64,
    ) {
        let r = rules();
        let g_eff = r.gap + r.width;
        let g2 = g_eff / 2.0;
        let sign = |s: usize| if s == 0 { 1.0 } else { -1.0 };

        // Modes 1 and 2 stretch the segment so one foot's left (right) side
        // lands less than EPS below (above) a cell boundary, and put an
        // edge on the far side of that boundary within EPS of the side:
        // only the probe's EPS-inward column sees it.
        let (mode, pfrac, eta, y, s) = aligned;
        let mut boundary_rect = None;
        let mut seg_len = seg_len;
        if mode != 0 {
            let p = 1 + (pfrac * (m - 1) as f64) as usize;
            let t = p as f64 / m as f64 * 8.0;
            let k = if mode == 1 { t.floor() } else { t.ceil() };
            let gap = if mode == 1 { t - k } else { k - t } / 8.0;
            if gap > g2 / 600.0 {
                seg_len = g2 * (1.0 - eta) / gap;
                let xb = k * seg_len / 8.0;
                let (x0, x1) = if mode == 1 { (xb, xb + 3.0) } else { (xb.next_down() - 3.0, xb.next_down()) };
                boundary_rect = Some(Polygon::rectangle(
                    Point::new(x0, sign(s) * y),
                    Point::new(x1, sign(s) * (y + 3.0)),
                ));
            }
        }
        let cell = (seg_len / 8.0).max(1.0);
        let ldisc = seg_len / m as f64;

        let mut obstacles: Vec<Polygon> = obs
            .iter()
            .map(|&(fx, y, rad, n)| Polygon::regular(Point::new(fx * seg_len, y), rad, n, 0.25))
            .collect();
        obstacles.extend(boundary_rect);
        // Corners on cell boundaries, both sides of the segment.
        for &(kx, ky, w, h, s) in &snapped {
            let (x0, y0) = (kx as f64 * cell - cell, ky as f64 * cell);
            let (x1, y1) = (x0 + w as f64 * cell, y0 + h as f64 * cell);
            obstacles.push(Polygon::rectangle(
                Point::new(x0, sign(s) * y0),
                Point::new(x1, sign(s) * y1),
            ));
        }
        // A vertical edge within a few EPS of some foot's side.
        const OFFSETS: [f64; 7] = [-2.0 * EPS, -EPS, -0.5 * EPS, 0.0, 0.5 * EPS, EPS, 2.0 * EPS];
        for &(fp, which, k, h, s) in &hugging {
            let p = (fp * m as f64) as usize;
            let x = p as f64 * ldisc + if which == 0 { -g2 } else { g2 };
            let xe = x + OFFSETS[k];
            let y0 = 1.0 + h / 3.0;
            obstacles.push(Polygon::rectangle(
                Point::new(xe, sign(s) * y0),
                Point::new(xe + 2.0, sign(s) * (y0 + h)),
            ));
        }
        if slab.0 == 1 {
            obstacles.push(Polygon::rectangle(
                Point::new(-25.0, slab.1),
                Point::new(seg_len + 25.0, slab.1 + 4.0),
            ));
        }

        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(seg_len, 0.0));
        let frame = Frame::from_segment(&seg).unwrap();
        let world = WorldContext {
            area: vec![Polygon::rectangle(
                Point::new(-30.0, -80.0),
                Point::new(seg_len + 30.0, 80.0),
            )],
            obstacles,
            other_uras: vec![],
        };
        let ctx_up = ShrinkContext::build(&world, &frame, seg_len, 1);
        let ctx_dn = ShrinkContext::build(&world, &frame, seg_len, -1);
        let mut scratch = ShrinkScratch::new();
        let ts = build_stage1_table(&ctx_up, &ctx_dn, m, ldisc, g_eff, h_init, &mut scratch);
        let tb = build_stage1_table_batched(&ctx_up, &ctx_dn, m, ldisc, g_eff, h_init, &mut scratch);

        let hob0 = h_init + g2;
        for (d, ctx) in [(0usize, &ctx_dn), (1, &ctx_up)] {
            let index = SegIndex::from_segments(IndexKind::Grid, cell, &ctx.edges);
            for p in 0..=m {
                let x0 = p as f64 * ldisc;
                for (left_side, table_s, table_b) in [
                    (true, &ts.left[d], &tb.left[d]),
                    (false, &ts.right[d], &tb.right[d]),
                ] {
                    let x = if left_side { x0 - g2 } else { x0 + g2 };
                    let scalar = indexed_side_cap(ctx, &index, x, left_side, hob0);
                    prop_assert_eq!(table_s[p].to_bits(), scalar.to_bits(), "scalar table at {} {} {}", d, p, left_side);
                    prop_assert_eq!(table_b[p].to_bits(), scalar.to_bits(), "batched table at {} {} {}", d, p, left_side);
                }
            }
            // Table-fed probes equal self-computing ones.
            for lo in (0..m.saturating_sub(2)).step_by(3) {
                let hi = (lo + 2 + lo % 7).min(m);
                let (x0, x1) = (lo as f64 * ldisc, hi as f64 * ldisc);
                let own = max_pattern_height(ctx, x0, x1, g_eff, h_init, r.protect, &mut scratch);
                let fed = max_pattern_height_fed(
                    ctx, x0, x1, g_eff, h_init, r.protect, tb.hob(lo, hi, d), &mut scratch,
                );
                prop_assert_eq!(own.height.to_bits(), fed.height.to_bits(), "probe ({}, {}) side {}", lo, hi, d);
                prop_assert_eq!(own.routes_around, fed.routes_around);
            }
        }
    }
}
