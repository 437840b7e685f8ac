//! Unpaired-node filtering (paper Sec. V-B).

use crate::dtw::MatchedPair;

/// Cost threshold factor: a legal matched pair, even across an obtuse
/// corner, costs at most `√2 · r` (paper: "Considering the rotation angle of
/// a trace must be obtuse, any matched pair, even if at a corner, shall meet
/// cost ≤ √2·r, otherwise … it is a matched pair involving nodes of tiny
/// patterns").
pub(crate) const FILTER_FACTOR: f64 = std::f64::consts::SQRT_2;

/// Splits `pairs` into kept matches and dropped (noise) matches under
/// distance rule `r`.
///
/// `protected` marks pair indices that are never dropped regardless of cost
/// (used for the boundary matches that anchor pad endpoints).
pub(crate) fn filter_pairs(
    pairs: &[MatchedPair],
    r: f64,
    protected: impl Fn(&MatchedPair) -> bool,
) -> (Vec<MatchedPair>, Vec<MatchedPair>) {
    let threshold = FILTER_FACTOR * r;
    let mut kept = Vec::with_capacity(pairs.len());
    let mut dropped = Vec::new();
    for p in pairs {
        if p.cost <= threshold + 1e-9 || protected(p) {
            kept.push(*p);
        } else {
            dropped.push(*p);
        }
    }
    (kept, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(i: usize, j: usize, cost: f64) -> MatchedPair {
        MatchedPair { i, j, cost }
    }

    #[test]
    fn threshold_is_sqrt2_r() {
        let pairs = [pair(0, 0, 5.0), pair(1, 1, 7.0), pair(2, 2, 7.2)];
        let r = 5.0; // threshold ≈ 7.071
        let (kept, dropped) = filter_pairs(&pairs, r, |_| false);
        assert_eq!(kept.len(), 2);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].i, 2);
    }

    #[test]
    fn protection_overrides_cost() {
        let pairs = [pair(0, 0, 100.0), pair(1, 1, 1.0)];
        let (kept, dropped) = filter_pairs(&pairs, 1.0, |p| p.i == 0);
        assert_eq!(kept.len(), 2);
        assert!(dropped.is_empty());
    }

    #[test]
    fn all_kept_gives_no_unpaired() {
        let pairs = [pair(0, 0, 1.0), pair(1, 1, 1.0)];
        let (kept, dropped) = filter_pairs(&pairs, 2.0, |_| false);
        assert_eq!(kept.len(), 2);
        assert!(dropped.is_empty());
    }
}
