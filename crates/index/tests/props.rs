//! Property tests: the node strip and the segment grid must agree with
//! brute force, and the grid and the R-tree must agree with each other
//! (identical candidate sets — the contract that keeps DRC lists and
//! placements bit-identical when the index kind is swapped).

use meander_geom::{Point, Rect, Segment};
use meander_index::{
    cell_coord, GridScratch, IndexKind, NodeStrip, OverlayIndex, RTree, SegIndex, SegmentGrid,
};
use proptest::prelude::*;
use std::sync::Arc;

fn pt() -> impl Strategy<Value = Point> {
    (-50.0..50.0f64, -50.0..50.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// A node-strip case: a query rectangle (zero width or height a quarter
/// of the time each) and points drawn free, exactly on its four borders
/// and corners, or on the previous point's x. A strip is empty or holds
/// one point a quarter of the time each.
fn strip_case() -> impl Strategy<Value = (Vec<Point>, Rect)> {
    (
        pt(),
        (0usize..4, 0.0..40.0f64),
        (0usize..4, 0.0..40.0f64),
        0usize..4,
        proptest::collection::vec((0usize..8, pt(), 0.0..1.0f64), 2..120),
    )
        .prop_map(|(q0, (wk, w), (hk, h), size, draws)| {
            let w = if wk == 0 { 0.0 } else { w };
            let h = if hk == 0 { 0.0 } else { h };
            let r = Rect::new(q0, Point::new(q0.x + w, q0.y + h));
            // Border coordinates reach past the rectangle on both sides.
            let along = |lo: f64, hi: f64, t: f64| lo - 5.0 + t * (hi - lo + 10.0);
            let mut pts: Vec<Point> = Vec::new();
            for (kind, p, t) in draws {
                pts.push(match kind {
                    0 => Point::new(r.min.x, along(r.min.y, r.max.y, t)),
                    1 => Point::new(r.max.x, along(r.min.y, r.max.y, t)),
                    2 => Point::new(along(r.min.x, r.max.x, t), r.min.y),
                    3 => Point::new(along(r.min.x, r.max.x, t), r.max.y),
                    4 => Point::new(
                        if t < 0.5 { r.min.x } else { r.max.x },
                        if p.y < 0.0 { r.min.y } else { r.max.y },
                    ),
                    5 => Point::new(pts.last().map_or(p.x, |q| q.x), p.y),
                    _ => p,
                });
            }
            pts.truncate(match size {
                0 => 0,
                1 => 1,
                _ => pts.len(),
            });
            (pts, r)
        })
}

proptest! {
    // The strip reports exactly the points brute-force filtering keeps
    // (borders inclusive on both axes), each once, with its own tag.
    #[test]
    fn strip_matches_brute_force(case in strip_case()) {
        let (pts, r) = &case;
        let strip = NodeStrip::build(pts.iter().copied().zip(0usize..).collect());
        let expect: Vec<usize> = (0..pts.len())
            .filter(|&i| {
                let p = pts[i];
                p.x >= r.min.x && p.x <= r.max.x && p.y >= r.min.y && p.y <= r.max.y
            })
            .collect();
        let mut got: Vec<usize> = Vec::new();
        strip.for_each_in(r, |p, &i| {
            assert_eq!(*p, pts[i], "tag {} came back with another point", i);
            got.push(i);
        });
        got.sort_unstable();
        prop_assert_eq!(&expect, &got);
    }

    #[test]
    fn grid_candidates_cover_bbox_hits(
        segs in proptest::collection::vec((pt(), pt()), 1..60),
        q0 in pt(),
        w in 0.5..30.0f64,
        h in 0.5..30.0f64,
        cell in 0.5..10.0f64,
    ) {
        let segs: Vec<Segment> = segs.iter().map(|(a, b)| Segment::new(*a, *b)).collect();
        let grid = SegmentGrid::from_segments(cell, &segs);
        let r = Rect::new(q0, Point::new(q0.x + w, q0.y + h));
        let candidates = grid.query(&r);
        for (i, s) in segs.iter().enumerate() {
            if r.intersects(&s.bbox()) {
                prop_assert!(
                    candidates.contains(&(i as u32)),
                    "segment {} missed by grid query", i
                );
            }
        }
        // No phantom ids.
        for &c in &candidates {
            prop_assert!((c as usize) < segs.len());
        }
    }
}

/// Snaps `v` to the nearest cell boundary `k · cell` when `snap` is set.
/// Cells are multiples of 1/4 here, so `k · cell` and `(k · cell) / cell`
/// are exact and the coordinate lands on the boundary itself.
fn snapped(v: f64, cell: f64, snap: bool) -> f64 {
    if snap {
        (v / cell).round() * cell
    } else {
        v
    }
}

/// The candidate set the grid contract promises, computed by brute force:
/// the ids (in ascending order) whose bbox cell range meets the query's
/// cell range clamped to the occupied bounds.
fn candidate_oracle(cell: f64, segs: &[Segment], r: &Rect) -> Vec<u32> {
    let q = |v: f64| cell_coord(cell, v);
    let ranges: Vec<(i64, i64, i64, i64)> = segs
        .iter()
        .map(|s| {
            let b = s.bbox();
            (q(b.min.x), q(b.min.y), q(b.max.x), q(b.max.y))
        })
        .collect();
    let Some(occ) = ranges
        .iter()
        .copied()
        .reduce(|a, b| (a.0.min(b.0), a.1.min(b.1), a.2.max(b.2), a.3.max(b.3)))
    else {
        return Vec::new();
    };
    let (x0, y0) = (q(r.min.x).max(occ.0), q(r.min.y).max(occ.1));
    let (x1, y1) = (q(r.max.x).min(occ.2), q(r.max.y).min(occ.3));
    if x0 > x1 || y0 > y1 {
        return Vec::new();
    }
    (0u32..)
        .zip(&ranges)
        .filter(|(_, c)| c.0 <= x1 && x0 <= c.2 && c.1 <= y1 && y0 <= c.3)
        .map(|(id, _)| id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every grid query entry point must return exactly the oracle's
    // candidate set, and `fill_batch` must gather each candidate's
    // geometry. Items go in one at a time with queries in between (the
    // `TraceBuf` pattern), one shared scratch serves every query, and the
    // reused output buffer starts dirty. Coordinates may be negative or
    // sit exactly on cell boundaries, and plane-sized segments smear
    // across many cells.
    #[test]
    fn grid_queries_equal_cell_range_oracle(
        small in proptest::collection::vec((pt(), (-6.0..6.0f64, -6.0..6.0f64), 0..4usize), 0..60),
        planes in proptest::collection::vec((-90.0..-10.0f64, -50.0..50.0f64, 20.0..200.0f64, 0..2usize), 0..3),
        queries in proptest::collection::vec((pt(), (0.0..80.0f64, 0.0..80.0f64), 0..2usize), 1..12),
        cell in 0.5..10.0f64,
        stride in 1..8usize,
    ) {
        let cell = (cell * 4.0).round() / 4.0;
        let mut segs: Vec<Segment> = small
            .iter()
            .map(|&(a, (dx, dy), snap)| {
                let a = Point::new(snapped(a.x, cell, snap & 1 == 1), snapped(a.y, cell, snap & 1 == 1));
                let b = Point::new(a.x + dx, a.y + dy);
                let b = Point::new(snapped(b.x, cell, snap & 2 == 2), snapped(b.y, cell, snap & 2 == 2));
                Segment::new(a, b)
            })
            .collect();
        // Plane edges, horizontal or vertical, spliced in among the small
        // items so smeared entries interleave with the rest.
        for (k, &(x0, y, len, vertical)) in planes.iter().enumerate() {
            let (a, b) = if vertical == 1 {
                (Point::new(y, x0), Point::new(y + 0.5, x0 + len))
            } else {
                (Point::new(x0, y), Point::new(x0 + len, y + 0.5))
            };
            segs.insert((k * 17) % (segs.len() + 1), Segment::new(a, b));
        }
        let rects: Vec<Rect> = queries
            .iter()
            .map(|&(q0, (w, h), snap)| {
                let q0 = Point::new(snapped(q0.x, cell, snap == 1), snapped(q0.y, cell, snap == 1));
                let q1 = Point::new(snapped(q0.x + w, cell, snap == 1), snapped(q0.y + h, cell, snap == 1));
                Rect::new(q0, q1)
            })
            .collect();

        let mut grid = SegmentGrid::new(cell);
        let mut scratch = GridScratch::new();
        let mut ids = vec![u32::MAX; 3];
        for r in &rects {
            prop_assert!(grid.query(r).is_empty());
            grid.query_scratch(r, &mut scratch, &mut ids);
            prop_assert!(ids.is_empty());
        }
        let mut batch = meander_geom::SegBatch::new();
        let mut next_query = 0;
        for (n, seg) in segs.iter().enumerate() {
            grid.insert(n as u32, seg);
            if (n + 1) % stride != 0 && n + 1 != segs.len() {
                continue;
            }
            // Probe after this insertion burst; the last burst probes
            // every window.
            let probes = if n + 1 == segs.len() { rects.len() } else { 1 };
            for _ in 0..probes {
                let r = &rects[next_query % rects.len()];
                next_query += 1;
                let expect = candidate_oracle(cell, &segs[..=n], r);
                prop_assert_eq!(&grid.query(r), &expect);
                grid.query_scratch(r, &mut scratch, &mut ids);
                prop_assert_eq!(&ids, &expect);
                grid.fill_batch(&ids, &mut batch);
                prop_assert_eq!(batch.len(), expect.len());
                for (k, &id) in ids.iter().enumerate() {
                    prop_assert_eq!(batch.get(k), segs[id as usize]);
                }
            }
        }
        prop_assert_eq!(grid.len(), segs.len());
    }

    // Randomized boards mixing via-sized and plane-sized segments: the
    // STR R-tree must return the *exact* candidate set of the grid for
    // every query window, through every query entry point.
    #[test]
    fn rtree_query_sets_equal_grid(
        small in proptest::collection::vec((pt(), (-4.0..4.0f64, -4.0..4.0f64)), 0..50),
        planes in proptest::collection::vec((-80.0..-10.0f64, -50.0..50.0f64, 20.0..280.0f64), 0..4),
        q0 in pt(),
        w in 0.0..60.0f64,
        h in 0.0..60.0f64,
        cell in 0.5..10.0f64,
    ) {
        let mut segs: Vec<Segment> = small
            .iter()
            .map(|(a, (dx, dy))| Segment::new(*a, Point::new(a.x + dx, a.y + dy)))
            .collect();
        // Plane-like long horizontal edges smearing across many cells.
        for &(x0, y, len) in &planes {
            segs.push(Segment::new(Point::new(x0, y), Point::new(x0 + len, y + 0.5)));
        }
        let grid = SegmentGrid::from_segments(cell, &segs);
        let tree = RTree::from_segments(cell, &segs);
        let r = Rect::new(q0, Point::new(q0.x + w, q0.y + h));
        let expect = grid.query(&r);
        prop_assert_eq!(&tree.query(&r), &expect);
        let mut scratch = GridScratch::new();
        let mut got = Vec::new();
        tree.query_scratch(&r, &mut scratch, &mut got);
        prop_assert_eq!(&got, &expect);
    }

    // An Arc-shared base index with a per-consumer overlay must answer
    // every query exactly like one monolithic index over the concatenated
    // items — the library-sharing invariant `crates/fleet` builds on (same
    // lattice ⇒ same candidate sets, split or not, whatever each side's
    // structure). The split point is randomized so the equality cannot
    // depend on where the library ends and the board-local items begin.
    #[test]
    fn overlay_union_equals_monolithic(
        small in proptest::collection::vec((pt(), (-4.0..4.0f64, -4.0..4.0f64)), 1..50),
        planes in proptest::collection::vec((-80.0..-10.0f64, -50.0..50.0f64, 20.0..280.0f64), 0..3),
        split_frac in 0.0..1.0f64,
        q0 in pt(),
        w in 0.0..60.0f64,
        h in 0.0..60.0f64,
        cell in 0.5..10.0f64,
        base_rtree in (0..2usize).prop_map(|v| v == 1),
        over_rtree in (0..2usize).prop_map(|v| v == 1),
    ) {
        let mut segs: Vec<Segment> = small
            .iter()
            .map(|(a, (dx, dy))| Segment::new(*a, Point::new(a.x + dx, a.y + dy)))
            .collect();
        for &(x0, y, len) in &planes {
            segs.push(Segment::new(Point::new(x0, y), Point::new(x0 + len, y + 0.5)));
        }
        let split = ((segs.len() as f64) * split_frac) as usize;
        let kind = |rt: bool| if rt { IndexKind::RTree } else { IndexKind::Grid };
        let base = Arc::new(SegIndex::from_segments(kind(base_rtree), cell, &segs[..split]));
        let overlay = OverlayIndex::over(
            base,
            split as u32,
            SegIndex::from_segments(kind(over_rtree), cell, &segs[split..]),
        );
        let mono = SegmentGrid::from_segments(cell, &segs);
        let r = Rect::new(q0, Point::new(q0.x + w, q0.y + h));
        let expect = mono.query(&r);
        prop_assert_eq!(&overlay.query(&r), &expect);
        let mut scratch = GridScratch::new();
        let mut ids = Vec::new();
        overlay.query_scratch(&r, &mut scratch, &mut ids);
        prop_assert_eq!(&ids, &expect);
    }
}
