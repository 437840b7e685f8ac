//! Violation reports produced by the checker.

use meander_geom::Point;
use std::collections::HashSet;
use std::fmt;
use std::mem::Discriminant;

/// A single design-rule violation found by [`crate::check_layout`].
///
/// Every variant carries enough context to locate and explain the problem;
/// the `Display` impl renders a one-line report.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two traces run closer than `dgap` (edge-to-edge).
    TraceTraceClearance {
        /// First trace id.
        a: u32,
        /// Second trace id.
        b: u32,
        /// Measured edge-to-edge distance.
        actual: f64,
        /// Required clearance.
        required: f64,
        /// A witness location near the violation.
        near: Point,
    },
    /// A trace runs closer than `dobs` to an obstacle.
    TraceObstacleClearance {
        /// Trace id.
        trace: u32,
        /// Obstacle index.
        obstacle: u32,
        /// Measured edge-to-border distance.
        actual: f64,
        /// Required clearance.
        required: f64,
        /// A witness location near the violation.
        near: Point,
    },
    /// A segment is shorter than `dprotect`.
    ShortSegment {
        /// Trace id.
        trace: u32,
        /// Segment index within the trace.
        segment: usize,
        /// Measured length.
        actual: f64,
        /// Required minimum length.
        required: f64,
    },
    /// A trace crosses itself.
    SelfIntersection {
        /// Trace id.
        trace: u32,
    },
    /// A trace leaves its assigned routable area.
    OutsideRoutableArea {
        /// Trace id.
        trace: u32,
        /// A witness point outside the area.
        near: Point,
    },
}

impl Violation {
    /// The (kind, trace) pair [`new_violations`] compares by: the variant
    /// and the trace ids it names.
    fn kind_and_traces(&self) -> (Discriminant<Violation>, u32, u32) {
        let kind = std::mem::discriminant(self);
        match *self {
            Violation::TraceTraceClearance { a, b, .. } => (kind, a, b),
            Violation::TraceObstacleClearance { trace, .. }
            | Violation::ShortSegment { trace, .. }
            | Violation::SelfIntersection { trace }
            | Violation::OutsideRoutableArea { trace, .. } => (kind, trace, trace),
        }
    }
}

/// The violations of `after` whose (kind, trace) pair no violation of
/// `before` has: what an operation on a board added, not what the board
/// already had. Values, witnesses and obstacle or segment indices are not
/// compared, because re-routing a trace moves them.
pub fn new_violations<'a>(before: &[Violation], after: &'a [Violation]) -> Vec<&'a Violation> {
    let old: HashSet<_> = before.iter().map(Violation::kind_and_traces).collect();
    after
        .iter()
        .filter(|v| !old.contains(&v.kind_and_traces()))
        .collect()
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TraceTraceClearance {
                a,
                b,
                actual,
                required,
                near,
            } => write!(
                f,
                "trace {a} / trace {b} clearance {actual:.4} < {required:.4} near {near}"
            ),
            Violation::TraceObstacleClearance {
                trace,
                obstacle,
                actual,
                required,
                near,
            } => write!(
                f,
                "trace {trace} / obstacle {obstacle} clearance {actual:.4} < {required:.4} near {near}"
            ),
            Violation::ShortSegment {
                trace,
                segment,
                actual,
                required,
            } => write!(
                f,
                "trace {trace} segment {segment} length {actual:.4} < dprotect {required:.4}"
            ),
            Violation::SelfIntersection { trace } => {
                write!(f, "trace {trace} intersects itself")
            }
            Violation::OutsideRoutableArea { trace, near } => {
                write!(f, "trace {trace} leaves its routable area near {near}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let v = Violation::ShortSegment {
            trace: 3,
            segment: 7,
            actual: 1.0,
            required: 8.0,
        };
        let s = format!("{v}");
        assert!(s.contains("trace 3"));
        assert!(s.contains("segment 7"));
        assert!(s.contains("dprotect"));
    }

    #[test]
    fn new_violations_compare_by_kind_and_trace() {
        let short = |trace, segment| Violation::ShortSegment {
            trace,
            segment,
            actual: 1.0,
            required: 2.0,
        };
        let before = [short(0, 3), Violation::SelfIntersection { trace: 1 }];
        // Same kind and trace, other segment and value: inherited.
        let moved = Violation::ShortSegment {
            trace: 0,
            segment: 9,
            actual: 0.5,
            required: 2.0,
        };
        // Same trace, new kind; same kind, new trace: both added.
        let kind = Violation::SelfIntersection { trace: 0 };
        let trace = short(2, 0);
        let after = [moved, kind.clone(), trace.clone()];
        assert_eq!(new_violations(&before, &after), [&kind, &trace]);
        assert!(new_violations(&after, &before[..1]).is_empty());
        assert!(new_violations(&[], &[]).is_empty());
    }
}
