//! Classic Dynamic Time Warping over node sequences (paper Eq. 17).

use meander_geom::Point;

/// One matched node pair: indices into the P and N node lists plus the
/// matching cost `d(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedPair {
    /// Index into `traceP`'s nodes.
    pub i: usize,
    /// Index into `traceN`'s nodes.
    pub j: usize,
    /// Euclidean distance between the matched nodes.
    pub cost: f64,
}

/// Computes the optimal DTW node matching between two node sequences.
///
/// State `C[i][j]` is the minimum total cost of matching the first `i` nodes
/// of P with the first `j` nodes of N (Eq. 17); transitions step `(i−1,j)`,
/// `(i,j−1)`, `(i−1,j−1)`. Every node is matched at least once, multiple
/// nodes may match one node (which handles inconsistent node counts,
/// Fig. 10a), and matches are monotone along both traces.
///
/// Returns the matched pairs in path order from `(0, 0)` to `(I−1, J−1)`.
/// Returns an empty vector when either sequence is empty.
///
/// ```
/// use meander_geom::Point;
/// use meander_msdtw::dtw_match;
/// let p = [Point::new(0.0, 1.0), Point::new(10.0, 1.0)];
/// let n = [Point::new(0.0, -1.0), Point::new(10.0, -1.0)];
/// let m = dtw_match(&p, &n);
/// assert_eq!(m.len(), 2);
/// assert_eq!((m[0].i, m[0].j), (0, 0));
/// assert_eq!((m[1].i, m[1].j), (1, 1));
/// ```
pub fn dtw_match(p: &[Point], n: &[Point]) -> Vec<MatchedPair> {
    let rows = p.len();
    let cols = n.len();
    if rows == 0 || cols == 0 {
        return Vec::new();
    }

    // C[i][j]: min cost matching p[..=i] with n[..=j] (0-based, inclusive).
    let mut c = vec![f64::INFINITY; rows * cols];
    let idx = |i: usize, j: usize| i * cols + j;
    for i in 0..rows {
        for j in 0..cols {
            let d = p[i].distance(n[j]);
            let best_prev = if i == 0 && j == 0 {
                0.0
            } else {
                let mut b = f64::INFINITY;
                if i > 0 {
                    b = b.min(c[idx(i - 1, j)]);
                }
                if j > 0 {
                    b = b.min(c[idx(i, j - 1)]);
                }
                if i > 0 && j > 0 {
                    b = b.min(c[idx(i - 1, j - 1)]);
                }
                b
            };
            c[idx(i, j)] = best_prev + d;
        }
    }

    // Backtrack from (rows-1, cols-1): prefer the diagonal on ties so the
    // path stays short.
    let mut path = Vec::with_capacity(rows.max(cols));
    let (mut i, mut j) = (rows - 1, cols - 1);
    loop {
        path.push(MatchedPair {
            i,
            j,
            cost: p[i].distance(n[j]),
        });
        if i == 0 && j == 0 {
            break;
        }
        let here = c[idx(i, j)] - p[i].distance(n[j]);
        let diag = if i > 0 && j > 0 {
            c[idx(i - 1, j - 1)]
        } else {
            f64::INFINITY
        };
        let up = if i > 0 {
            c[idx(i - 1, j)]
        } else {
            f64::INFINITY
        };
        let left = if j > 0 {
            c[idx(i, j - 1)]
        } else {
            f64::INFINITY
        };
        if (diag - here).abs() <= 1e-9 && diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left && (up - here).abs() <= 1e-9 {
            i -= 1;
        } else if (left - here).abs() <= 1e-9 {
            j -= 1;
        } else if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn equal_length_parallel_matches_one_to_one() {
        let p = pts(&[(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let n = pts(&[(0.0, -1.0), (5.0, -1.0), (10.0, -1.0)]);
        let m = dtw_match(&p, &n);
        assert_eq!(m.len(), 3);
        for (k, pair) in m.iter().enumerate() {
            assert_eq!(pair.i, k);
            assert_eq!(pair.j, k);
            assert!((pair.cost - 2.0).abs() < 1e-12);
        }
        assert!((m.iter().map(|pair| pair.cost).sum::<f64>() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn redundant_corner_nodes_multi_match() {
        // P has three nodes clustered at the corner, N has one (Fig. 10a).
        let p = pts(&[
            (0.0, 1.0),
            (9.6, 1.0),
            (10.0, 1.0),
            (10.0, 1.4),
            (10.0, 10.0),
        ]);
        let n = pts(&[(0.0, -1.0), (10.0, -1.0), (10.0, 10.0)]);
        let m = dtw_match(&p, &n);
        // Every P node matched.
        let matched_i: std::collections::BTreeSet<usize> = m.iter().map(|p| p.i).collect();
        assert_eq!(matched_i.len(), 5);
        // Every N node matched.
        let matched_j: std::collections::BTreeSet<usize> = m.iter().map(|p| p.j).collect();
        assert_eq!(matched_j.len(), 3);
        // The corner cluster (P nodes 1..=3) all match N node 1.
        for pair in &m {
            if (1..=3).contains(&pair.i) {
                assert_eq!(pair.j, 1, "pair {pair:?}");
            }
        }
    }

    #[test]
    fn path_is_monotone() {
        let p = pts(&[(0.0, 0.0), (3.0, 0.2), (7.0, -0.1), (10.0, 0.0)]);
        let n = pts(&[(0.0, 2.0), (5.0, 2.0), (10.0, 2.0)]);
        let m = dtw_match(&p, &n);
        for w in m.windows(2) {
            assert!(w[1].i >= w[0].i);
            assert!(w[1].j >= w[0].j);
            assert!(w[1].i + w[1].j > w[0].i + w[0].j);
        }
        assert_eq!((m[0].i, m[0].j), (0, 0));
        let last = m.last().unwrap();
        assert_eq!((last.i, last.j), (3, 2));
    }

    #[test]
    fn empty_inputs() {
        assert!(dtw_match(&[], &pts(&[(0.0, 0.0)])).is_empty());
        assert!(dtw_match(&pts(&[(0.0, 0.0)]), &[]).is_empty());
        assert!(dtw_match(&[], &[]).is_empty());
    }

    #[test]
    fn single_nodes_match() {
        let m = dtw_match(&pts(&[(0.0, 0.0)]), &pts(&[(3.0, 4.0)]));
        assert_eq!(m.len(), 1);
        assert!((m[0].cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matching_minimizes_cost() {
        // Shifted sequences: DTW should warp rather than match 1:1.
        let p = pts(&[(0.0, 1.0), (1.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let n = pts(&[(0.0, -1.0), (5.0, -1.0), (9.0, -1.0), (10.0, -1.0)]);
        let m = dtw_match(&p, &n);
        // Optimal total: every node pairs with its nearest counterpart.
        let naive: f64 = p.iter().zip(&n).map(|(a, b)| a.distance(*b)).sum();
        assert!(m.iter().map(|pair| pair.cost).sum::<f64>() <= naive + 1e-9);
    }
}
