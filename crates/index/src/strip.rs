//! The node strip: 2D orthogonal range reporting over a static point set
//! by one x-sorted array.

use meander_geom::{Point, Rect};

/// A static point set sorted by x, each point carrying a tag of type `T`
/// (in the router: the polygon id the node point belongs to).
///
/// A query `[x₁,x₂] × [y₁,y₂]` binary-searches the x-range and scans it,
/// reporting the points whose y falls in `[y₁, y₂]`: `O(log N + s)` for
/// `s` points in the x-range. Building is one sort of the caller's vector
/// in place; the strip allocates nothing else.
///
/// Coordinates must be finite (board validation guarantees it). The sort
/// uses [`f64::total_cmp`], so a NaN cannot panic the build, but a strip
/// holding a NaN x may answer queries wrongly.
///
/// ```
/// use meander_geom::{Point, Rect};
/// use meander_index::NodeStrip;
///
/// let strip = NodeStrip::build(vec![
///     (Point::new(1.0, 1.0), "a"),
///     (Point::new(2.0, 5.0), "b"),
///     (Point::new(3.0, 2.0), "c"),
/// ]);
/// let mut hits = Vec::new();
/// strip.for_each_in(&Rect::new(Point::new(0.0, 0.0), Point::new(2.5, 3.0)), |_, &t| {
///     hits.push(t)
/// });
/// assert_eq!(hits, ["a"]);
/// ```
#[derive(Debug)]
pub struct NodeStrip<T> {
    /// Points sorted by x.
    items: Vec<(Point, T)>,
}

impl<T> NodeStrip<T> {
    /// Builds the strip from a point/tag list. Accepts duplicates.
    pub fn build(mut items: Vec<(Point, T)>) -> Self {
        items.sort_unstable_by(|a, b| a.0.x.total_cmp(&b.0.x));
        NodeStrip { items }
    }

    /// Visits every `(point, tag)` with `x ∈ [r.min.x, r.max.x]` and
    /// `y ∈ [r.min.y, r.max.y]` (borders inclusive), in x order, without
    /// allocating.
    pub fn for_each_in<F: FnMut(&Point, &T)>(&self, r: &Rect, mut f: F) {
        let lo = self.items.partition_point(|(p, _)| p.x < r.min.x);
        let run = &self.items[lo..];
        let hi = run.partition_point(|(p, _)| p.x <= r.max.x);
        for (p, t) in &run[..hi] {
            if p.y >= r.min.y && p.y <= r.max.y {
                f(p, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn tags<T: Copy + Ord>(s: &NodeStrip<T>, r: &Rect) -> Vec<T> {
        let mut out = Vec::new();
        s.for_each_in(r, |_, &t| out.push(t));
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_strip() {
        let s: NodeStrip<u32> = NodeStrip::build(vec![]);
        assert!(tags(&s, &rect(-1.0, -1.0, 1.0, 1.0)).is_empty());
    }

    #[test]
    fn single_point() {
        let s = NodeStrip::build(vec![(Point::new(2.0, 3.0), 7u32)]);
        assert_eq!(tags(&s, &rect(0.0, 0.0, 5.0, 5.0)), [7]);
        assert!(tags(&s, &rect(0.0, 0.0, 1.0, 5.0)).is_empty());
        // Border-inclusive.
        assert_eq!(tags(&s, &rect(2.0, 3.0, 2.0, 3.0)), [7]);
    }

    #[test]
    fn grid_of_points_range_counts() {
        // 10×10 integer grid, tag = (row, column).
        let mut items = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                items.push((Point::new(x as f64, y as f64), (y, x)));
            }
        }
        let s = NodeStrip::build(items);
        assert_eq!(tags(&s, &rect(0.0, 0.0, 9.0, 9.0)).len(), 100);
        assert_eq!(tags(&s, &rect(2.0, 3.0, 4.0, 5.0)).len(), 9);
        // A rectangle strictly between grid coordinates is empty.
        assert!(tags(&s, &rect(2.1, 3.1, 2.9, 3.9)).is_empty());
        // Tags come back with their points.
        s.for_each_in(&rect(0.0, 7.0, 9.0, 7.0), |p, &(row, col)| {
            assert_eq!((p.x, p.y), (col as f64, 7.0));
            assert_eq!(row, 7);
        });
    }

    #[test]
    fn duplicate_points_all_reported() {
        let s = NodeStrip::build(vec![
            (Point::new(1.0, 1.0), 'a'),
            (Point::new(1.0, 1.0), 'b'),
            (Point::new(1.0, 1.0), 'c'),
        ]);
        assert_eq!(tags(&s, &rect(1.0, 1.0, 1.0, 1.0)), ['a', 'b', 'c']);
    }

    #[test]
    fn matches_brute_force() {
        // Deterministic pseudo-random points; compare against brute force.
        let mut seed = 0x12345678u64;
        let mut rand01 = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        let pts: Vec<(Point, usize)> = (0..500)
            .map(|i| (Point::new(rand01() * 50.0, rand01() * 50.0), i))
            .collect();
        let s = NodeStrip::build(pts.clone());
        for _ in 0..50 {
            let x0 = rand01() * 50.0;
            let y0 = rand01() * 50.0;
            let r = rect(x0, y0, x0 + rand01() * 10.0, y0 + rand01() * 10.0);
            let expect: Vec<usize> = pts
                .iter()
                .filter(|(p, _)| r.contains(*p))
                .map(|(_, i)| *i)
                .collect();
            assert_eq!(expect, tags(&s, &r));
        }
    }
}
