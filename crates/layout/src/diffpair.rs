//! Differential pairs.

use crate::trace::TraceId;
use std::fmt;

/// A differential pair: two coupled sub-traces and their distance rule.
///
/// The paper's Sec. V is devoted to these: "A differential pair is commonly
/// regarded as a wide single-ended trace during length matching, but this
/// scheme meets many difficulties in practice, especially when the
/// differential pair is not strictly coupled." MSDTW merges the `p`/`n`
/// sub-traces into a median trace via node matching.
#[derive(Debug, Clone)]
pub struct DiffPair {
    name: String,
    /// Positive sub-trace (`traceP` in the paper).
    p: TraceId,
    /// Negative sub-trace (`traceN`).
    n: TraceId,
    /// Distance rule `r`: nominal centerline pitch between the sub-traces.
    sep: f64,
    /// Number of leading nodes on each sub-trace forming the breakout
    /// (pad escape), excluded from DTW matching ("the preserved breakout
    /// part", Sec. V-A).
    breakout_nodes: usize,
}

impl DiffPair {
    /// Creates a differential pair.
    ///
    /// # Panics
    ///
    /// Panics when `p == n` or `sep` is not strictly positive.
    pub fn new(name: impl Into<String>, p: TraceId, n: TraceId, sep: f64) -> Self {
        assert!(p != n, "differential pair needs two distinct traces");
        assert!(
            sep.is_finite() && sep > 0.0,
            "pair separation must be positive"
        );
        DiffPair {
            name: name.into(),
            p,
            n,
            sep,
            breakout_nodes: 1,
        }
    }

    /// Pair name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Positive sub-trace id.
    #[inline]
    pub fn p(&self) -> TraceId {
        self.p
    }

    /// Negative sub-trace id.
    #[inline]
    pub fn n(&self) -> TraceId {
        self.n
    }

    /// Distance rule (centerline pitch).
    #[inline]
    pub fn sep(&self) -> f64 {
        self.sep
    }

    /// Breakout node count excluded from matching at each trace end.
    #[inline]
    pub fn breakout_nodes(&self) -> usize {
        self.breakout_nodes
    }

    /// Sets the breakout node count.
    pub fn set_breakout_nodes(&mut self, n: usize) {
        self.breakout_nodes = n;
    }

    /// `true` when `id` is one of the sub-traces.
    pub(crate) fn involves(&self, id: TraceId) -> bool {
        self.p == id || self.n == id
    }

    /// The partner of `id` within the pair, if `id` belongs to it.
    pub fn partner(&self, id: TraceId) -> Option<TraceId> {
        if id == self.p {
            Some(self.n)
        } else if id == self.n {
            Some(self.p)
        } else {
            None
        }
    }
}

impl fmt::Display for DiffPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pair {} ({} / {}, sep {:.3})",
            self.name, self.p, self.n, self.sep
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_partner() {
        let dp = DiffPair::new("USB", TraceId(0), TraceId(1), 6.0);
        assert_eq!(dp.partner(TraceId(0)), Some(TraceId(1)));
        assert_eq!(dp.partner(TraceId(1)), Some(TraceId(0)));
        assert_eq!(dp.partner(TraceId(2)), None);
        assert!(dp.involves(TraceId(0)));
        assert!(!dp.involves(TraceId(9)));
        assert_eq!(dp.sep(), 6.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_trace_panics() {
        let _ = DiffPair::new("X", TraceId(0), TraceId(0), 6.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sep_panics() {
        let _ = DiffPair::new("X", TraceId(0), TraceId(1), 0.0);
    }

    #[test]
    fn breakout_nodes_settable() {
        let mut dp = DiffPair::new("Y", TraceId(0), TraceId(1), 6.0);
        assert_eq!(dp.breakout_nodes(), 1);
        dp.set_breakout_nodes(3);
        assert_eq!(dp.breakout_nodes(), 3);
    }
}
