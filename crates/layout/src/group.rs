//! Matching groups.

use crate::trace::TraceId;
use std::fmt;

/// How a group's target length is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetLength {
    /// Match everyone to the longest member's current length.
    ///
    /// The paper requires `l_target` to be "no less than the original length
    /// of the trace" for every member; the longest member is the smallest
    /// such target.
    LongestMember,
    /// Match everyone to an explicit length.
    Explicit(f64),
}

/// A set of traces whose lengths must match (paper Sec. II: "matching
/// groups").
///
/// Each trace is meandered independently toward the group target, which also
/// supports per-trace targets when delays other than propagation must be
/// compensated — model those by putting traces in singleton groups with
/// [`TargetLength::Explicit`].
#[derive(Debug, Clone)]
pub struct MatchGroup {
    name: String,
    members: Vec<TraceId>,
    target: TargetLength,
    /// Relative error tolerance (fraction of target) at which a member
    /// counts as matched.
    tolerance: f64,
}

impl MatchGroup {
    /// Default relative tolerance: 0.1 % of the target length.
    pub(crate) const DEFAULT_TOLERANCE: f64 = 1e-3;

    /// Creates a group matching to the longest member.
    pub fn new(name: impl Into<String>, members: Vec<TraceId>) -> Self {
        MatchGroup {
            name: name.into(),
            members,
            target: TargetLength::LongestMember,
            tolerance: Self::DEFAULT_TOLERANCE,
        }
    }

    /// Creates a group with an explicit target length.
    pub fn with_target(name: impl Into<String>, members: Vec<TraceId>, target: f64) -> Self {
        MatchGroup {
            name: name.into(),
            members,
            target: TargetLength::Explicit(target),
            tolerance: Self::DEFAULT_TOLERANCE,
        }
    }

    /// Group name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Member trace ids.
    #[inline]
    pub fn members(&self) -> &[TraceId] {
        &self.members
    }

    /// Target policy.
    #[inline]
    pub fn target(&self) -> TargetLength {
        self.target
    }

    /// Relative tolerance.
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Sets the relative tolerance.
    pub fn set_tolerance(&mut self, tol: f64) {
        self.tolerance = tol.max(0.0);
    }

    /// Resolves the concrete target given the members' current lengths
    /// (`lengths[i]` corresponds to `members()[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty for [`TargetLength::LongestMember`].
    pub fn resolve_target(&self, lengths: &[f64]) -> f64 {
        match self.target {
            TargetLength::Explicit(t) => t,
            TargetLength::LongestMember => {
                assert!(!lengths.is_empty(), "group has no members");
                lengths.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }

    /// Maximum matching error over the group per the paper's metric
    /// (Eq. 19): `max_i (l_target − l_i) / l_target`.
    pub fn max_error(target: f64, lengths: &[f64]) -> f64 {
        lengths
            .iter()
            .map(|&l| (target - l) / target)
            .fold(0.0, f64::max)
    }

    /// Average matching error per the paper's metric (Eq. 19):
    /// `Σ_i (l_target − l_i) / (n · l_target)`.
    pub fn avg_error(target: f64, lengths: &[f64]) -> f64 {
        if lengths.is_empty() {
            return 0.0;
        }
        lengths.iter().map(|&l| (target - l) / target).sum::<f64>() / lengths.len() as f64
    }
}

impl fmt::Display for MatchGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group {} ({} traces)", self.name, self.members.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_resolution() {
        let g = MatchGroup::new("ddr", vec![TraceId(0), TraceId(1)]);
        assert_eq!(g.resolve_target(&[100.0, 140.0]), 140.0);
        let g = MatchGroup::with_target("ddr", vec![TraceId(0)], 200.0);
        assert_eq!(g.resolve_target(&[100.0]), 200.0);
    }

    #[test]
    fn error_metrics_match_paper_eq19() {
        let target = 200.0;
        let lengths = [150.0, 180.0, 200.0];
        // Max: (200-150)/200 = 0.25
        assert!((MatchGroup::max_error(target, &lengths) - 0.25).abs() < 1e-12);
        // Avg: (50+20+0)/(3*200) = 70/600
        assert!((MatchGroup::avg_error(target, &lengths) - 70.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn tolerance_clamped_non_negative() {
        let mut g = MatchGroup::new("g", vec![TraceId(0)]);
        g.set_tolerance(-1.0);
        assert_eq!(g.tolerance(), 0.0);
        g.set_tolerance(0.01);
        assert_eq!(g.tolerance(), 0.01);
    }

    #[test]
    #[should_panic(expected = "no members")]
    fn empty_group_target_panics() {
        let g = MatchGroup::new("g", vec![]);
        let _ = g.resolve_target(&[]);
    }
}
