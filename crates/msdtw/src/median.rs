//! Median-point generation from matched pairs (paper Eq. 18).

use crate::dtw::MatchedPair;
use meander_geom::Point;

/// One connected component of the match graph: the P-node indices and
/// N-node indices joined (transitively) by matched pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Component {
    /// P-node indices in the component (sorted).
    pub p_nodes: Vec<usize>,
    /// N-node indices in the component (sorted).
    pub n_nodes: Vec<usize>,
}

/// Groups matched pairs into connected components.
///
/// "we connect every pair of matched nodes, thereby making all nodes compose
/// several connected components" (Sec. V-A). DTW matches are monotone, so
/// components are consecutive runs sharing a node; a linear sweep suffices.
pub(crate) fn components(pairs: &[MatchedPair]) -> Vec<Component> {
    let mut out: Vec<Component> = Vec::new();
    for pair in pairs {
        let joined = out
            .last_mut()
            .filter(|c| c.p_nodes.contains(&pair.i) || c.n_nodes.contains(&pair.j));
        match joined {
            Some(c) => {
                if !c.p_nodes.contains(&pair.i) {
                    c.p_nodes.push(pair.i);
                }
                if !c.n_nodes.contains(&pair.j) {
                    c.n_nodes.push(pair.j);
                }
            }
            None => out.push(Component {
                p_nodes: vec![pair.i],
                n_nodes: vec![pair.j],
            }),
        }
    }
    for c in &mut out {
        c.p_nodes.sort_unstable();
        c.n_nodes.sort_unstable();
    }
    out
}

/// Median point of one component per Eq. 18: the midpoint of the two
/// per-side centroids — "we first respectively calculate the median point of
/// nodes on each sub-trace and then use them to calculate the final median
/// point", so multi-matched nodes cannot pull the median toward one side.
pub(crate) fn component_median(c: &Component, p: &[Point], n: &[Point]) -> Point {
    let pc = Point::centroid(&c.p_nodes.iter().map(|&i| p[i]).collect::<Vec<_>>());
    let nc = Point::centroid(&c.n_nodes.iter().map(|&j| n[j]).collect::<Vec<_>>());
    pc.midpoint(nc)
}

/// Median points for all components, in path order.
pub(crate) fn median_points(pairs: &[MatchedPair], p: &[Point], n: &[Point]) -> Vec<Point> {
    components(pairs)
        .iter()
        .map(|c| component_median(c, p, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(i: usize, j: usize) -> MatchedPair {
        MatchedPair { i, j, cost: 0.0 }
    }

    #[test]
    fn one_to_one_components() {
        let pairs = [pair(0, 0), pair(1, 1), pair(2, 2)];
        let cs = components(&pairs);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[1].p_nodes, vec![1]);
        assert_eq!(cs[1].n_nodes, vec![1]);
    }

    #[test]
    fn multi_match_merges_into_one_component() {
        // P nodes 1,2,3 all match N node 1.
        let pairs = [pair(0, 0), pair(1, 1), pair(2, 1), pair(3, 1), pair(4, 2)];
        let cs = components(&pairs);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[1].p_nodes, vec![1, 2, 3]);
        assert_eq!(cs[1].n_nodes, vec![1]);
    }

    #[test]
    fn median_is_midpoint_of_side_centroids() {
        // Corner cluster: three P nodes around (10, 1), one N node (10, -1).
        let p = vec![
            Point::new(0.0, 1.0),
            Point::new(9.8, 1.0),
            Point::new(10.0, 1.0),
            Point::new(10.2, 1.0),
        ];
        let n = vec![Point::new(0.0, -1.0), Point::new(10.0, -1.0)];
        let pairs = [pair(0, 0), pair(1, 1), pair(2, 1), pair(3, 1)];
        let meds = median_points(&pairs, &p, &n);
        assert_eq!(meds.len(), 2);
        // Cluster centroid (10, 1) midpointed with (10, -1) → (10, 0); a
        // naive average over all four nodes would drift toward P.
        assert!(meds[1].approx_eq(Point::new(10.0, 0.0)));
    }

    #[test]
    fn median_of_parallel_pair_is_centerline() {
        let p = vec![Point::new(0.0, 3.0), Point::new(50.0, 3.0)];
        let n = vec![Point::new(0.0, -3.0), Point::new(50.0, -3.0)];
        let pairs = [pair(0, 0), pair(1, 1)];
        let meds = median_points(&pairs, &p, &n);
        assert!(meds[0].approx_eq(Point::new(0.0, 0.0)));
        assert!(meds[1].approx_eq(Point::new(50.0, 0.0)));
    }

    #[test]
    fn empty_pairs_empty_medians() {
        assert!(median_points(&[], &[], &[]).is_empty());
    }
}
