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

use meander_core::context::{ShrinkContext, WorldContext};
use meander_core::dp::{extend_segment_dp, DpInput, HeightBounds, UbProfile};
use meander_core::extend::{extend_trace, ExtendInput};
use meander_core::shrink::{
    build_ub_profile, build_ub_profile_batched, max_pattern_height, max_pattern_height_batched,
    max_pattern_height_scratch, ShrinkScratch,
};
use meander_core::ExtendConfig;
use meander_drc::DesignRules;
use meander_geom::{Frame, Point, Polygon, Polyline, Segment};
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
        let res = max_pattern_height(&ctx, x0, x1, g_eff, h_init, r.protect);
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
    // bit-for-bit on randomized obstacle fields: the stage-1 probes, the
    // per-position upper-bound profile, and the whole engine run.
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

        // Profile sweep.
        let ps = build_ub_profile(&ctx_up, &ctx_dn, m, ldisc, g_eff, h_init, r.protect, &mut scratch);
        let pb = build_ub_profile_batched(
            &ctx_up, &ctx_dn, m, ldisc, g_eff, h_init, r.protect, &mut scratch,
        );
        for d in 0..2 {
            for p in 0..=m {
                prop_assert_eq!(
                    ps.left[d][p].to_bits(),
                    pb.left[d][p].to_bits(),
                    "profile left[{}][{}]", d, p
                );
                prop_assert_eq!(
                    ps.right[d][p].to_bits(),
                    pb.right[d][p].to_bits(),
                    "profile right[{}][{}]", d, p
                );
            }
        }

        // Stage-1 probes at assorted feet.
        for ctx in [&ctx_up, &ctx_dn] {
            for j in (0..m.saturating_sub(4)).step_by(3) {
                let (x0, x1) = (j as f64 * ldisc, (j + 4) as f64 * ldisc);
                let s = max_pattern_height_scratch(ctx, x0, x1, g_eff, h_init, r.protect, &mut scratch);
                let b = max_pattern_height_batched(ctx, x0, x1, g_eff, h_init, r.protect, &mut scratch);
                prop_assert_eq!(s.height.to_bits(), b.height.to_bits(), "probe at {}", j);
                prop_assert_eq!(s.routes_around, b.routes_around);
            }
        }

        // Whole engine: identical meander, bit for bit, batch on or off —
        // for both the incremental and the rebuild pipeline.
        let trace = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(seg_len, 0.0)]);
        let input = ExtendInput {
            trace: &trace,
            target: seg_len * target_factor,
            rules: &r,
            area: &area,
            obstacles: &obstacles,
        };
        for incremental in [true, false] {
            let mk = |batch_kernels: bool| ExtendConfig {
                incremental,
                parallel: false,
                batch_kernels,
                ..ExtendConfig::default()
            };
            let scalar = extend_trace(&input, &mk(false));
            let batched = extend_trace(&input, &mk(true));
            prop_assert_eq!(
                scalar.achieved.to_bits(),
                batched.achieved.to_bits(),
                "achieved diverged (incremental={})", incremental
            );
            prop_assert_eq!(scalar.patterns, batched.patterns);
            prop_assert_eq!(scalar.trace.points(), batched.trace.points());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The spatial-index contract end to end: grid-, R-tree-, and
    // Auto-indexed engines (and shrink contexts) must produce bit-identical
    // results on randomized obstacle fields that include a plane-sized
    // slab — the regime where the structures' query *costs* differ most.
    #[test]
    fn index_kinds_bit_identical_end_to_end(
        obs in proptest::collection::vec(
            (5.0..145.0f64, -40.0..40.0f64, 0.8..5.0f64, 3usize..9),
            0..10,
        ),
        slab_y in 18.0..45.0f64,
        h_init in 6.0..50.0f64,
        target_factor in 1.2..2.2f64,
    ) {
        use meander_core::context::ShrinkContext;
        use meander_index::IndexKind;

        let r = rules();
        let g_eff = r.gap + r.width;
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
        // A full-width plane slab: smears across the whole grid row and is
        // exactly what `Auto` exists to detect.
        obstacles.push(Polygon::rectangle(
            Point::new(-25.0, slab_y),
            Point::new(175.0, slab_y + 4.0),
        ));

        // Context-level: every stage-1 probe bit-identical across kinds.
        let world = WorldContext {
            area: area.clone(),
            obstacles: obstacles.clone(),
            other_uras: vec![],
        };
        let ctx_grid = ShrinkContext::build_indexed(&world, &frame, seg_len, 1, IndexKind::Grid);
        let ctx_rtree = ShrinkContext::build_indexed(&world, &frame, seg_len, 1, IndexKind::RTree);
        let mut scratch = ShrinkScratch::new();
        for j in (0..28).step_by(5) {
            let (x0, x1) = (j as f64 * 5.0, j as f64 * 5.0 + 22.0);
            let a = max_pattern_height_scratch(&ctx_grid, x0, x1, g_eff, h_init, r.protect, &mut scratch);
            let b = max_pattern_height_scratch(&ctx_rtree, x0, x1, g_eff, h_init, r.protect, &mut scratch);
            prop_assert_eq!(a.height.to_bits(), b.height.to_bits(), "probe {}", j);
            prop_assert_eq!(a.routes_around, b.routes_around);
            let c = max_pattern_height_batched(&ctx_rtree, x0, x1, g_eff, h_init, r.protect, &mut scratch);
            prop_assert_eq!(a.height.to_bits(), c.height.to_bits(), "batched probe {}", j);
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
        for (kind, bk) in [
            (IndexKind::RTree, false),
            (IndexKind::RTree, true),
            (IndexKind::Auto, false),
        ] {
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
