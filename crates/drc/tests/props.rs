//! Property tests for the DRC layer.

use meander_drc::{check_layout, check_layout_brute, CheckInput, DesignRules, TraceGeometry};
use meander_drc::{restore_rules, virtualize_rules};
use meander_geom::{Point, Polygon, Polyline, Vector};
use proptest::prelude::*;

fn straight(y: f64) -> Polyline {
    Polyline::new(vec![Point::new(0.0, y), Point::new(120.0, y)])
}

fn two_trace_input(lines: &[Polyline; 2], widths: (f64, f64)) -> CheckInput<'_> {
    let trace = |id: u32, w: f64| TraceGeometry {
        id,
        centerline: &lines[id as usize],
        width: w,
        rules: DesignRules {
            width: w,
            ..DesignRules::default()
        },
        area: &[],
        coupled_with: vec![],
    };
    CheckInput {
        traces: vec![trace(0, widths.0), trace(1, widths.1)],
        obstacles: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gap_check_matches_arithmetic(
        y_sep in 1.0..40.0f64,
        w0 in 1.0..8.0f64,
        w1 in 1.0..8.0f64,
    ) {
        let lines = [straight(0.0), straight(y_sep)];
        let input = two_trace_input(&lines, (w0, w1));
        let required = 8.0 + w0 / 2.0 + w1 / 2.0;
        let violations = check_layout(&input);
        let has_gap = violations
            .iter()
            .any(|v| matches!(v, meander_drc::Violation::TraceTraceClearance { .. }));
        prop_assert_eq!(has_gap, y_sep < required - 1e-9, "sep {} req {}", y_sep, required);
    }

    #[test]
    fn violations_are_translation_invariant(
        y_sep in 1.0..40.0f64,
        dx in -500.0..500.0f64,
        dy in -500.0..500.0f64,
    ) {
        let lines = [straight(0.0), straight(y_sep)];
        let base = check_layout(&two_trace_input(&lines, (4.0, 4.0))).len();
        let shift = Vector::new(dx, dy);
        let shifted = lines.clone().map(|l| l.translated(shift));
        let moved = two_trace_input(&shifted, (4.0, 4.0));
        prop_assert_eq!(check_layout(&moved).len(), base);
    }

    #[test]
    fn obstacle_check_matches_arithmetic(
        oy in 3.0..40.0f64,
        w in 1.0..8.0f64,
    ) {
        let rules = DesignRules {
            width: w,
            ..DesignRules::default()
        };
        let line = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        let obstacle = Polygon::rectangle(Point::new(40.0, oy), Point::new(60.0, oy + 10.0));
        let input = CheckInput {
            traces: vec![TraceGeometry {
                id: 0,
                centerline: &line,
                width: w,
                rules,
                area: &[],
                coupled_with: vec![],
            }],
            obstacles: vec![&obstacle],
        };
        let required = 8.0 + w / 2.0;
        let violations = check_layout(&input);
        let has = violations
            .iter()
            .any(|v| matches!(v, meander_drc::Violation::TraceObstacleClearance { .. }));
        prop_assert_eq!(has, oy < required - 1e-9);
    }

    #[test]
    fn indexed_checker_matches_brute_force(
        walks in proptest::collection::vec(
            (
                (0.0..300.0f64, 0.0..300.0f64),
                proptest::collection::vec((-25.0..25.0f64, -25.0..25.0f64), 1..10),
                // Per-trace gap, obstacle clearance, dprotect and width, so
                // traces demand different clearances and the window culls'
                // `required <= R` step is exercised.
                (1.0..14.0f64, 1.0..14.0f64, 0.5..12.0f64, 1.0..6.0f64),
                0usize..3,
            ),
            1..7,
        ),
        obstacles in proptest::collection::vec(
            // Up to 24 vertices: many-edged obstacles next to rectangles.
            ((0.0..300.0f64, 0.0..300.0f64), 1.0..18.0f64, 3usize..25),
            0..9,
        ),
        couple_first_two in 0usize..2,
        area_on_first in 0usize..2,
    ) {
        // Random multi-trace boards: wiggly walks with their own rules,
        // a third of them doubling back across their first segment,
        // random convex obstacles, optional coupling and area assignment.
        // The indexed checker must reproduce the brute-force violation
        // list exactly — order, values, and witnesses.
        let lines: Vec<Polyline> = walks
            .iter()
            .map(|((x0, y0), steps, _, cross)| {
                let mut pts = vec![Point::new(*x0, *y0)];
                for (dx, dy) in steps {
                    let last = *pts.last().unwrap();
                    pts.push(Point::new(last.x + dx, last.y + dy));
                }
                if *cross == 0 {
                    // Head back through the first segment's midpoint and
                    // overshoot it, so the walk crosses itself.
                    let m = pts[0].midpoint(pts[1]);
                    let last = *pts.last().unwrap();
                    pts.push(Point::new(m.x + (m.x - last.x) * 0.5, m.y + (m.y - last.y) * 0.5));
                }
                Polyline::new(pts)
            })
            .collect();
        let area = [Polygon::rectangle(Point::new(-50.0, -50.0), Point::new(200.0, 200.0))];
        let traces: Vec<TraceGeometry> = walks
            .iter()
            .enumerate()
            .map(|(i, (_, _, (gap, obstacle, protect, w), _))| {
                let mut t = TraceGeometry {
                    id: i as u32,
                    centerline: &lines[i],
                    width: *w,
                    rules: DesignRules {
                        gap: *gap,
                        obstacle: *obstacle,
                        protect: *protect,
                        width: *w,
                        ..DesignRules::default()
                    },
                    area: &[],
                    coupled_with: vec![],
                };
                if i == 0 && area_on_first == 1 {
                    t.area = &area;
                }
                if i == 0 && couple_first_two == 1 && walks.len() >= 2 {
                    t.coupled_with = vec![1];
                }
                t
            })
            .collect();
        let obstacles: Vec<Polygon> = obstacles
            .iter()
            .map(|((cx, cy), r, n)| Polygon::regular(Point::new(*cx, *cy), *r, *n, 0.15))
            .collect();
        let input = CheckInput { traces, obstacles: obstacles.iter().collect() };
        let brute = check_layout_brute(&input);
        // The SoA-batched kernels must reproduce the exact same list —
        // order, values, and witnesses (the lane-exactness contract).
        prop_assert_eq!(check_layout(&input), brute);
    }

    #[test]
    fn virtual_rules_round_trip(
        gap in 0.0..20.0f64,
        obs in 0.0..20.0f64,
        protect in 0.0..20.0f64,
        width in 0.5..10.0f64,
        sep in 0.5..20.0f64,
    ) {
        let r = DesignRules {
            gap,
            obstacle: obs,
            protect,
            miter: 1.0,
            width,
        };
        let v = virtualize_rules(&r, sep);
        // Virtual width covers the pair extent.
        prop_assert!((v.width - (sep + width)).abs() < 1e-12);
        let rt = restore_rules(&v, sep);
        prop_assert!((rt.gap - r.gap).abs() < 1e-9);
        prop_assert!((rt.protect - r.protect).abs() < 1e-9);
        prop_assert!((rt.width - r.width).abs() < 1e-9);
    }
}
