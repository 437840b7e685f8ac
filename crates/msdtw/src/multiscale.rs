//! The multi-scale recursion (paper Alg. 3) and the top-level merge.

use crate::dtw::{dtw_match, MatchedPair};
use crate::filter::filter_pairs;
use crate::median::median_points;
use meander_geom::{Point, Polyline};

/// Input geometry of a differential pair to merge.
#[derive(Debug, Clone)]
pub struct PairGeometry<'a> {
    /// Positive sub-trace.
    pub p: &'a Polyline,
    /// Negative sub-trace.
    pub n: &'a Polyline,
    /// Distance-rule ladder `R = {r0 < r1 < …}`. For a single-DRA pair this
    /// is one value: the pair pitch.
    pub scales: Vec<f64>,
}

impl<'a> PairGeometry<'a> {
    /// Single-scale pair (one DRA) with pitch `sep`.
    pub fn new(p: &'a Polyline, n: &'a Polyline, sep: f64) -> Self {
        PairGeometry {
            p,
            n,
            scales: vec![sep],
        }
    }

    /// Multi-scale pair: `scales` must be non-empty; they are sorted
    /// ascending internally as Alg. 3 requires.
    pub fn with_scales(p: &'a Polyline, n: &'a Polyline, mut scales: Vec<f64>) -> Self {
        assert!(!scales.is_empty(), "need at least one distance rule");
        scales.sort_by(|a, b| a.partial_cmp(b).expect("finite scales"));
        PairGeometry { p, n, scales }
    }
}

/// Result of merging a pair into a median trace.
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// The merged median trace (meander this, then
    /// [`crate::restore_pair`]).
    pub median: Polyline,
    /// All accepted matched pairs, in path order.
    pub matches: Vec<MatchedPair>,
    /// P-node indices filtered as tiny-pattern noise.
    pub unpaired_p: Vec<usize>,
    /// N-node indices filtered as tiny-pattern noise.
    pub unpaired_n: Vec<usize>,
    /// Extra length carried by tiny patterns on P minus on N (signed):
    /// `length(P) − length(N)`; restoration re-compensates this.
    pub length_skew: f64,
}

/// Merge failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsdtwError {
    /// Fewer than 2 median points survive — the pair is too decoupled to
    /// merge.
    DegenerateMedian,
}

impl std::fmt::Display for MsdtwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsdtwError::DegenerateMedian => {
                write!(f, "median trace degenerate: pair too decoupled to merge")
            }
        }
    }
}

impl std::error::Error for MsdtwError {}

/// A sub-pair under recursion: index ranges (inclusive) into P and N nodes.
#[derive(Debug, Clone, Copy)]
struct SubPair {
    p_lo: usize,
    p_hi: usize,
    n_lo: usize,
    n_hi: usize,
}

/// Runs the multi-scale matching of Alg. 3 and returns all accepted matched
/// pairs in path order.
///
/// Round `k` matches nodes inside every surviving sub-pair with DTW under
/// distance rule `r_k`, drops pairs costing more than `√2·r_k`, splits each
/// sub-pair at its accepted matches, and discards sub-pairs with an empty
/// side ("no more meaningful matching can occur"). The first and last node
/// pairs of the *original* pair are protected so pad endpoints always merge.
pub(crate) fn msdtw_match(p: &[Point], n: &[Point], scales: &[f64]) -> Vec<MatchedPair> {
    if p.is_empty() || n.is_empty() {
        return Vec::new();
    }
    let last = (p.len() - 1, n.len() - 1);
    let protect = |m: &MatchedPair| (m.i == 0 && m.j == 0) || (m.i == last.0 && m.j == last.1);

    let mut accepted: Vec<MatchedPair> = Vec::new();
    let mut subs = vec![SubPair {
        p_lo: 0,
        p_hi: p.len() - 1,
        n_lo: 0,
        n_hi: n.len() - 1,
    }];

    for &r in scales {
        let mut next_subs: Vec<SubPair> = Vec::new();
        for sp in subs.drain(..) {
            let pv = &p[sp.p_lo..=sp.p_hi];
            let nv = &n[sp.n_lo..=sp.n_hi];
            let raw = dtw_match(pv, nv);
            // Shift indices back to global space.
            let raw: Vec<MatchedPair> = raw
                .into_iter()
                .map(|m| MatchedPair {
                    i: m.i + sp.p_lo,
                    j: m.j + sp.n_lo,
                    cost: m.cost,
                })
                .collect();
            let (kept, _dropped) = filter_pairs(&raw, r, protect);
            // Split at kept matches: gaps between consecutive kept pairs
            // containing skipped nodes become sub-pairs for the next scale.
            if kept.is_empty() {
                next_subs.push(sp);
                continue;
            }
            // Leading gap.
            let first = kept.first().expect("non-empty");
            push_gap(
                &mut next_subs,
                sp.p_lo,
                first.i.wrapping_sub(1),
                sp.n_lo,
                first.j.wrapping_sub(1),
                first.i > sp.p_lo,
                first.j > sp.n_lo,
            );
            for w in kept.windows(2) {
                push_gap(
                    &mut next_subs,
                    w[0].i + 1,
                    w[1].i.wrapping_sub(1),
                    w[0].j + 1,
                    w[1].j.wrapping_sub(1),
                    w[1].i > w[0].i + 1,
                    w[1].j > w[0].j + 1,
                );
            }
            let lastk = kept.last().expect("non-empty");
            push_gap(
                &mut next_subs,
                lastk.i + 1,
                sp.p_hi,
                lastk.j + 1,
                sp.n_hi,
                sp.p_hi > lastk.i,
                sp.n_hi > lastk.j,
            );
            accepted.extend(kept);
        }
        subs = next_subs;
        if subs.is_empty() {
            break;
        }
    }

    accepted.sort_by(|a, b| a.i.cmp(&b.i).then(a.j.cmp(&b.j)));
    accepted.dedup_by(|a, b| a.i == b.i && a.j == b.j);
    accepted
}

/// Records the gap `[p_lo..=p_hi] × [n_lo..=n_hi]` as a sub-pair when *both*
/// sides are non-empty (Alg. 3 drops one-sided gaps: their nodes are tiny
/// patterns, which "shall only appear on either traceP or traceN").
#[allow(clippy::too_many_arguments)]
fn push_gap(
    subs: &mut Vec<SubPair>,
    p_lo: usize,
    p_hi: usize,
    n_lo: usize,
    n_hi: usize,
    p_nonempty: bool,
    n_nonempty: bool,
) {
    if p_nonempty && n_nonempty && p_lo <= p_hi && n_lo <= n_hi {
        subs.push(SubPair {
            p_lo,
            p_hi,
            n_lo,
            n_hi,
        });
    }
}

/// Merges a differential pair into its median trace (the whole Sec. V
/// pipeline: MSDTW match → filter → components → median points).
///
/// # Errors
///
/// [`MsdtwError::DegenerateMedian`] when fewer than two median points
/// survive filtering.
pub fn merge_pair(input: &PairGeometry<'_>) -> Result<MergeResult, MsdtwError> {
    let p = input.p.points();
    let n = input.n.points();
    let matches = msdtw_match(p, n, &input.scales);
    let meds = median_points(&matches, p, n);
    if meds.len() < 2 {
        return Err(MsdtwError::DegenerateMedian);
    }
    // Unpaired = nodes not present in any accepted match.
    let kept_i: std::collections::BTreeSet<usize> = matches.iter().map(|m| m.i).collect();
    let kept_j: std::collections::BTreeSet<usize> = matches.iter().map(|m| m.j).collect();
    let unpaired_p: Vec<usize> = (0..p.len()).filter(|i| !kept_i.contains(i)).collect();
    let unpaired_n: Vec<usize> = (0..n.len()).filter(|j| !kept_j.contains(j)).collect();

    let mut median = Polyline::new(meds);
    median.simplify();
    Ok(MergeResult {
        median,
        matches,
        unpaired_p,
        unpaired_n,
        length_skew: input.p.length() - input.n.length(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(coords: &[(f64, f64)]) -> Polyline {
        Polyline::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn clean_pair_merges_to_centerline() {
        let p = pl(&[(0.0, 3.0), (80.0, 3.0), (80.0, 50.0)]);
        let n = pl(&[(0.0, -3.0), (86.0, -3.0), (86.0, 50.0)]);
        let r = merge_pair(&PairGeometry::new(&p, &n, 6.0)).unwrap();
        assert!(r.unpaired_p.is_empty());
        assert!(r.unpaired_n.is_empty());
        // Median starts on the centerline.
        assert!(r.median.points()[0].approx_eq(Point::new(0.0, 0.0)));
        // Corner median ≈ (83, 0).
        assert!(r.median.points()[1].distance(Point::new(83.0, 0.0)) < 1e-9);
    }

    #[test]
    fn tiny_pattern_nodes_filtered() {
        // N carries a tiny bump; its top nodes must be filtered out.
        let sep = 6.0;
        let bump_h = 4.0; // sep + bump > √2·sep
        let p = pl(&[(0.0, 3.0), (100.0, 3.0)]);
        let n = pl(&[
            (0.0, -3.0),
            (40.0, -3.0),
            (40.0, -3.0 - bump_h),
            (44.0, -3.0 - bump_h),
            (44.0, -3.0),
            (100.0, -3.0),
        ]);
        let r = merge_pair(&PairGeometry::new(&p, &n, sep)).unwrap();
        // The two bump-top nodes (indices 2, 3) are unpaired.
        assert!(r.unpaired_n.contains(&2));
        assert!(r.unpaired_n.contains(&3));
        assert!(r.unpaired_p.is_empty());
        // Median stays on the centerline: no vertex below y = -1.
        for pt in r.median.points() {
            assert!(pt.y.abs() < 1.0, "median shifted: {pt}");
        }
        // Length skew recorded (N longer than P by 2·bump_h).
        assert!((r.length_skew + 2.0 * bump_h).abs() < 1e-9);
    }

    #[test]
    fn naive_single_scale_fails_where_multiscale_succeeds() {
        // Paper Fig. 12: the pair runs at pitch 4 in the first DRA (nodes
        // E/F regime) and pitch 12 in the second (G/H regime); a tiny
        // pattern sits in the narrow DRA with node costs of ~12 — above
        // √2·r0 ≈ 5.66 but below √2·r1 ≈ 16.97.
        let r0 = 4.0;
        let r1 = 12.0;
        let p: Vec<Point> = [(0.0, 2.0), (30.0, 2.0), (60.0, 6.0), (100.0, 6.0)]
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        let n: Vec<Point> = [
            (0.0, -2.0),
            (30.0, -2.0),
            (30.0, -10.0), // tiny-pattern node, cost 12 to (30, 2)
            (32.0, -10.0), // tiny-pattern node
            (32.0, -2.0),
            (60.0, -6.0),
            (100.0, -6.0),
        ]
        .iter()
        .map(|&(x, y)| Point::new(x, y))
        .collect();
        // Multi-scale: bump nodes filtered at scale r0, wide-DRA nodes
        // matched at scale r1.
        let multi = msdtw_match(&p, &n, &[r0, r1]);
        let matched_n: std::collections::BTreeSet<usize> = multi.iter().map(|m| m.j).collect();
        assert!(!matched_n.contains(&2), "bump node survived multiscale");
        assert!(!matched_n.contains(&3), "bump node survived multiscale");
        assert!(matched_n.contains(&5), "wide-DRA node must match");
        // Single wide scale keeps the bump nodes (the failure mode the
        // paper's Fig. 12a illustrates).
        let single = msdtw_match(&p, &n, &[r1]);
        let matched_single: std::collections::BTreeSet<usize> =
            single.iter().map(|m| m.j).collect();
        assert!(
            matched_single.contains(&2) || matched_single.contains(&3),
            "wide-rule matching should NOT filter the bump"
        );
    }

    #[test]
    fn endpoints_always_merge() {
        // Badly decoupled at the far end: protection keeps the boundary
        // match.
        let p = pl(&[(0.0, 3.0), (100.0, 3.0), (100.0, 40.0)]);
        let n = pl(&[(0.0, -3.0), (100.0, -3.0), (130.0, 30.0)]);
        let r = merge_pair(&PairGeometry::new(&p, &n, 6.0)).unwrap();
        let last = r.matches.last().unwrap();
        assert_eq!(last.i, 2);
        assert_eq!(last.j, 2);
    }

    #[test]
    fn coincident_node_clusters_still_merge() {
        // Nearly-coincident clusters collapse components but the boundary
        // protection keeps both endpoints, so the merge still succeeds.
        let p = pl(&[(0.0, 0.0), (0.0, 0.1)]);
        let n = pl(&[(0.0, -0.2), (0.0, -0.1)]);
        let r = merge_pair(&PairGeometry::new(&p, &n, 6.0)).unwrap();
        assert!(r.median.point_count() >= 2);
    }

    #[test]
    fn error_display_mentions_decoupling() {
        assert!(format!("{}", MsdtwError::DegenerateMedian).contains("decoupled"));
    }

    #[test]
    fn scales_sorted_by_constructor() {
        let p = pl(&[(0.0, 3.0), (10.0, 3.0)]);
        let n = pl(&[(0.0, -3.0), (10.0, -3.0)]);
        let g = PairGeometry::with_scales(&p, &n, vec![12.0, 4.0]);
        assert_eq!(g.scales, vec![4.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_scales_panic() {
        let p = pl(&[(0.0, 3.0), (10.0, 3.0)]);
        let n = pl(&[(0.0, -3.0), (10.0, -3.0)]);
        let _ = PairGeometry::with_scales(&p, &n, vec![]);
    }
}
