//! Merge-sort tree for 2D orthogonal range reporting over a static point
//! set.

use meander_geom::{Point, Rect};

/// A static merge-sort tree (segment tree over x-rank, each node holding its
/// span's points sorted by y).
///
/// This is the exact structure of the paper's Sec. IV-D: build cost
/// `O(N log N)`, space `O(N log N)` ("each point appears at most log₂N
/// times"), and an `[x₁,x₂] × [y₁,y₂]` query visits `O(log N)` nodes doing a
/// binary search in each.
///
/// Each point carries a tag of type `T` (in the router: the polygon id the
/// node point belongs to), returned on query.
///
/// ```
/// use meander_geom::{Point, Rect};
/// use meander_index::MergeSortTree;
///
/// let tree = MergeSortTree::build(vec![
///     (Point::new(1.0, 1.0), "a"),
///     (Point::new(2.0, 5.0), "b"),
///     (Point::new(3.0, 2.0), "c"),
/// ]);
/// let hits = tree.query(&Rect::new(Point::new(0.0, 0.0), Point::new(2.5, 3.0)));
/// assert_eq!(hits.len(), 1);
/// assert_eq!(*hits[0].1, "a");
/// ```
#[derive(Debug, Clone)]
pub struct MergeSortTree<T> {
    /// Points sorted by x (then y); leaves of the tree.
    items: Vec<(Point, T)>,
    /// `nodes[k]` = indices into `items` for the k-th tree node's span, sorted
    /// by y.
    nodes: Vec<Vec<u32>>,
    n: usize,
}

impl<T> MergeSortTree<T> {
    /// Builds the tree from a point/tag list. Accepts duplicates.
    pub fn build(mut items: Vec<(Point, T)>) -> Self {
        items.sort_by(|a, b| {
            a.0.x
                .partial_cmp(&b.0.x)
                .expect("finite coordinates")
                .then(a.0.y.partial_cmp(&b.0.y).expect("finite coordinates"))
        });
        let n = items.len();
        let mut nodes = vec![Vec::new(); if n == 0 { 1 } else { 4 * n }];
        if n > 0 {
            Self::build_node(&items, &mut nodes, 1, 0, n - 1);
        }
        MergeSortTree { items, nodes, n }
    }

    fn build_node(items: &[(Point, T)], nodes: &mut [Vec<u32>], k: usize, lo: usize, hi: usize) {
        if lo == hi {
            nodes[k] = vec![lo as u32];
            return;
        }
        let mid = (lo + hi) / 2;
        Self::build_node(items, nodes, 2 * k, lo, mid);
        Self::build_node(items, nodes, 2 * k + 1, mid + 1, hi);
        // Merge children by y.
        let (left, right) = (
            std::mem::take(&mut nodes[2 * k]),
            std::mem::take(&mut nodes[2 * k + 1]),
        );
        let mut merged = Vec::with_capacity(left.len() + right.len());
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            let yi = items[left[i] as usize].0.y;
            let yj = items[right[j] as usize].0.y;
            if yi <= yj {
                merged.push(left[i]);
                i += 1;
            } else {
                merged.push(right[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&left[i..]);
        merged.extend_from_slice(&right[j..]);
        nodes[2 * k] = left;
        nodes[2 * k + 1] = right;
        nodes[k] = merged;
    }

    /// Reports every `(point, tag)` with `x ∈ [r.min.x, r.max.x]` and
    /// `y ∈ [r.min.y, r.max.y]` (borders inclusive).
    pub fn query(&self, r: &Rect) -> Vec<(&Point, &T)> {
        let mut out = Vec::new();
        if self.n == 0 {
            return out;
        }
        // Locate the x-rank range by binary search on the sorted leaves.
        let lo = self.items.partition_point(|(p, _)| p.x < r.min.x);
        let hi = self.items.partition_point(|(p, _)| p.x <= r.max.x);
        if lo >= hi {
            return out;
        }
        self.query_node(1, 0, self.n - 1, lo, hi - 1, r.min.y, r.max.y, &mut out);
        out
    }

    /// Visits every `(point, tag)` in the rectangle without allocating —
    /// the hot-loop variant of [`MergeSortTree::query`] (the URA shrinking
    /// runs thousands of these per DP segment).
    pub fn for_each_in<F: FnMut(&Point, &T)>(&self, r: &Rect, mut f: F) {
        if self.n == 0 {
            return;
        }
        let lo = self.items.partition_point(|(p, _)| p.x < r.min.x);
        let hi = self.items.partition_point(|(p, _)| p.x <= r.max.x);
        if lo >= hi {
            return;
        }
        self.visit_node(1, 0, self.n - 1, lo, hi - 1, r.min.y, r.max.y, &mut f);
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_node<F: FnMut(&Point, &T)>(
        &self,
        k: usize,
        lo: usize,
        hi: usize,
        qlo: usize,
        qhi: usize,
        ylo: f64,
        yhi: f64,
        f: &mut F,
    ) {
        if qhi < lo || hi < qlo {
            return;
        }
        if qlo <= lo && hi <= qhi {
            let ys = &self.nodes[k];
            let start = ys.partition_point(|&i| self.items[i as usize].0.y < ylo);
            for &i in &ys[start..] {
                let (p, t) = &self.items[i as usize];
                if p.y > yhi {
                    break;
                }
                f(p, t);
            }
            return;
        }
        let mid = (lo + hi) / 2;
        self.visit_node(2 * k, lo, mid, qlo, qhi, ylo, yhi, f);
        self.visit_node(2 * k + 1, mid + 1, hi, qlo, qhi, ylo, yhi, f);
    }

    /// Counts points in the rectangle without materializing them.
    pub fn count(&self, r: &Rect) -> usize {
        if self.n == 0 {
            return 0;
        }
        let lo = self.items.partition_point(|(p, _)| p.x < r.min.x);
        let hi = self.items.partition_point(|(p, _)| p.x <= r.max.x);
        if lo >= hi {
            return 0;
        }
        self.count_node(1, 0, self.n - 1, lo, hi - 1, r.min.y, r.max.y)
    }

    #[allow(clippy::too_many_arguments)]
    fn query_node<'a>(
        &'a self,
        k: usize,
        lo: usize,
        hi: usize,
        qlo: usize,
        qhi: usize,
        ylo: f64,
        yhi: f64,
        out: &mut Vec<(&'a Point, &'a T)>,
    ) {
        if qhi < lo || hi < qlo {
            return;
        }
        if qlo <= lo && hi <= qhi {
            let ys = &self.nodes[k];
            let start = ys.partition_point(|&i| self.items[i as usize].0.y < ylo);
            for &i in &ys[start..] {
                let (p, t) = &self.items[i as usize];
                if p.y > yhi {
                    break;
                }
                out.push((p, t));
            }
            return;
        }
        let mid = (lo + hi) / 2;
        self.query_node(2 * k, lo, mid, qlo, qhi, ylo, yhi, out);
        self.query_node(2 * k + 1, mid + 1, hi, qlo, qhi, ylo, yhi, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn count_node(
        &self,
        k: usize,
        lo: usize,
        hi: usize,
        qlo: usize,
        qhi: usize,
        ylo: f64,
        yhi: f64,
    ) -> usize {
        if qhi < lo || hi < qlo {
            return 0;
        }
        if qlo <= lo && hi <= qhi {
            let ys = &self.nodes[k];
            let start = ys.partition_point(|&i| self.items[i as usize].0.y < ylo);
            let end = ys.partition_point(|&i| self.items[i as usize].0.y <= yhi);
            return end.saturating_sub(start);
        }
        let mid = (lo + hi) / 2;
        self.count_node(2 * k, lo, mid, qlo, qhi, ylo, yhi)
            + self.count_node(2 * k + 1, mid + 1, hi, qlo, qhi, ylo, yhi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn empty_tree() {
        let t: MergeSortTree<u32> = MergeSortTree::build(vec![]);
        assert_eq!(t.n, 0);
        assert!(t.query(&rect(-1.0, -1.0, 1.0, 1.0)).is_empty());
        assert_eq!(t.count(&rect(-1.0, -1.0, 1.0, 1.0)), 0);
    }

    #[test]
    fn single_point() {
        let t = MergeSortTree::build(vec![(Point::new(2.0, 3.0), 7u32)]);
        assert_eq!(t.n, 1);
        assert_eq!(t.query(&rect(0.0, 0.0, 5.0, 5.0)).len(), 1);
        assert_eq!(t.query(&rect(0.0, 0.0, 1.0, 5.0)).len(), 0);
        // Border-inclusive.
        assert_eq!(t.query(&rect(2.0, 3.0, 2.0, 3.0)).len(), 1);
    }

    #[test]
    fn grid_of_points_range_counts() {
        // 10×10 integer grid, tag = row.
        let mut items = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                items.push((Point::new(x as f64, y as f64), y));
            }
        }
        let t = MergeSortTree::build(items);
        assert_eq!(t.count(&rect(0.0, 0.0, 9.0, 9.0)), 100);
        assert_eq!(t.count(&rect(2.0, 3.0, 4.0, 5.0)), 9);
        assert_eq!(t.query(&rect(2.0, 3.0, 4.0, 5.0)).len(), 9);
        // A rectangle strictly between grid coordinates is empty.
        assert_eq!(t.count(&rect(2.1, 3.1, 2.9, 3.9)), 0);
        // Tags come back correctly.
        for (p, &tag) in t.query(&rect(0.0, 7.0, 9.0, 7.0)) {
            assert_eq!(p.y, 7.0);
            assert_eq!(tag, 7);
        }
    }

    #[test]
    fn duplicate_points_all_reported() {
        let t = MergeSortTree::build(vec![
            (Point::new(1.0, 1.0), 'a'),
            (Point::new(1.0, 1.0), 'b'),
            (Point::new(1.0, 1.0), 'c'),
        ]);
        assert_eq!(t.query(&rect(1.0, 1.0, 1.0, 1.0)).len(), 3);
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
        let t = MergeSortTree::build(pts.clone());
        for _ in 0..50 {
            let x0 = rand01() * 50.0;
            let y0 = rand01() * 50.0;
            let r = rect(x0, y0, x0 + rand01() * 10.0, y0 + rand01() * 10.0);
            let mut expect: Vec<usize> = pts
                .iter()
                .filter(|(p, _)| r.contains(*p))
                .map(|(_, i)| *i)
                .collect();
            let mut got: Vec<usize> = t.query(&r).iter().map(|(_, &i)| i).collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(expect, got);
            assert_eq!(t.count(&r), expect.len());
            let mut visited: Vec<usize> = Vec::new();
            t.for_each_in(&r, |_, &i| visited.push(i));
            visited.sort_unstable();
            assert_eq!(expect, visited, "for_each_in must match query");
        }
    }
}
