//! Per-board outcomes and failure types for a fleet run.
//!
//! A hardened fleet never turns one bad board into a lost batch: every
//! board comes back with a [`BoardOutcome`] saying exactly what happened
//! to it, and the healthy boards' results are untouched by their
//! neighbours' failures. The write-back contract is **atomic per board**:
//! a board is either fully [`BoardOutcome::Routed`] (all of its jobs
//! completed; geometry bit-identical to the sequential reference) or its
//! input geometry is left exactly as submitted.

use meander_layout::ValidationError;
use std::fmt;
use std::time::Duration;

/// Why a `(board, group)` job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job panicked inside the router; the worker caught it at the
    /// job boundary and survived.
    Panicked {
        /// Group index (board-local) of the panicking job.
        group: usize,
        /// Group-local index of the unit that was running when the panic
        /// unwound (`None` when the job died before reaching its first
        /// unit, e.g. in an injected pop delay).
        unit: Option<u64>,
        /// Panic payload, downcast from the usual `&str` / `String`
        /// shapes (never discarded — poison-board triage starts here).
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked {
                group,
                unit,
                message,
            } => match unit {
                Some(u) => write!(f, "group {group} panicked at unit {u}: {message}"),
                None => write!(f, "group {group} panicked: {message}"),
            },
        }
    }
}

impl std::error::Error for JobError {}

/// Why a board was shed instead of routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission gate's global in-flight unit budget was already
    /// spoken for; the board never ran.
    Admission,
    /// The fleet-wide retry token bucket ran dry before this board's
    /// retry could be scheduled (its failed attempts are in the journal).
    RetryTokens,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::Admission => write!(f, "admission budget"),
            ShedReason::RetryTokens => write!(f, "retry tokens exhausted"),
        }
    }
}

/// What happened to one board of a fleet.
#[must_use = "every board outcome must be inspected or counted — dropping one silently loses a served board's fate"]
#[derive(Debug, Clone, PartialEq)]
pub enum BoardOutcome {
    /// All jobs completed; results written back, bit-identical to the
    /// sequential reference.
    Routed,
    /// Input validation rejected the board before any routing; geometry
    /// untouched.
    Rejected(ValidationError),
    /// At least one job failed (panicked); geometry untouched.
    Failed(JobError),
    /// The run's [`crate::CancelToken`] fired before every job of this
    /// board completed; geometry untouched.
    Cancelled,
    /// The fleet deadline or this board's budget expired before every job
    /// of this board completed; geometry untouched.
    DeadlineExceeded,
    /// The board failed its first attempt but recovered on its retry
    /// (`fleet::resilience`); results are written back, bit-identical to
    /// sequential routing. `attempts` counts every run including the
    /// first, so `2` means one retry.
    Degraded {
        /// Total attempts run, including the first.
        attempts: u32,
    },
    /// Overload control refused the board ([`ShedReason`] says which
    /// budget); geometry untouched, never silently dropped.
    Shed(ShedReason),
}

impl BoardOutcome {
    /// `true` for [`BoardOutcome::Routed`].
    #[inline]
    pub fn is_routed(&self) -> bool {
        matches!(self, BoardOutcome::Routed)
    }
}

impl fmt::Display for BoardOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardOutcome::Routed => write!(f, "routed"),
            BoardOutcome::Rejected(e) => write!(f, "rejected: {e}"),
            BoardOutcome::Failed(e) => write!(f, "failed: {e}"),
            BoardOutcome::Cancelled => write!(f, "cancelled"),
            BoardOutcome::DeadlineExceeded => write!(f, "deadline exceeded"),
            BoardOutcome::Degraded { attempts } => {
                write!(f, "degraded: recovered on attempt {attempts}")
            }
            BoardOutcome::Shed(r) => write!(f, "shed: {r}"),
        }
    }
}

/// A log₂-bucketed latency histogram of per-job wall times.
///
/// Bucket `i` counts jobs whose latency `t` satisfies
/// `2^(i-1) µs ≤ t < 2^i µs` (bucket 0 is `< 1 µs`; the last bucket
/// absorbs everything above its floor). 32 buckets cover sub-microsecond
/// to ~35 minutes — far beyond any fleet deadline worth setting.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// Job counts per log₂(µs) bucket.
    pub buckets: [u64; 32],
    /// Jobs recorded.
    pub count: u64,
    /// Largest single latency seen.
    pub max: Duration,
    /// Sum of all recorded latencies.
    pub total: Duration,
}

impl LatencyHistogram {
    /// Records one job latency.
    pub(crate) fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += latency;
        if latency > self.max {
            self.max = latency;
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0.0–1.0), as a
    /// conservative estimate: "p99 under 4 ms" style answers from 32
    /// counters. Zero when empty.
    pub fn quantile_upper(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_micros(1u64 << i);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(300)); // < 1 µs → bucket 0
        h.record(Duration::from_micros(1)); // [1, 2) → bucket 1
        h.record(Duration::from_micros(3)); // [2, 4) → bucket 2
        h.record(Duration::from_micros(900)); // [512, 1024) → bucket 10
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.count, 4);
        assert_eq!(h.max, Duration::from_micros(900));
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket 4: [8, 16)
        }
        h.record(Duration::from_millis(8)); // bucket 13: [4096, 8192)
        assert_eq!(h.quantile_upper(0.5), Duration::from_micros(16));
        assert_eq!(h.quantile_upper(0.99), Duration::from_micros(16));
        assert_eq!(h.quantile_upper(1.0), Duration::from_micros(1 << 13));
        assert!(h.total / h.count as u32 >= Duration::from_micros(10));
        // Empty histogram answers zero everywhere.
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_upper(0.99), Duration::ZERO);
    }

    #[test]
    fn histogram_absorbs_extremes_without_panicking() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(86_400)); // a day → clamped to last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[31], 1);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(BoardOutcome::Routed.to_string(), "routed");
        assert_eq!(BoardOutcome::Cancelled.to_string(), "cancelled");
        assert_eq!(
            BoardOutcome::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
        let failed = BoardOutcome::Failed(JobError::Panicked {
            group: 2,
            unit: None,
            message: "boom".into(),
        });
        assert_eq!(failed.to_string(), "failed: group 2 panicked: boom");
        let failed_at = BoardOutcome::Failed(JobError::Panicked {
            group: 2,
            unit: Some(3),
            message: "boom".into(),
        });
        assert_eq!(
            failed_at.to_string(),
            "failed: group 2 panicked at unit 3: boom"
        );
        assert!(BoardOutcome::Routed.is_routed());
        assert!(!failed.is_routed());
        let degraded = BoardOutcome::Degraded { attempts: 2 };
        assert_eq!(degraded.to_string(), "degraded: recovered on attempt 2");
        assert!(!degraded.is_routed());
        assert_eq!(
            BoardOutcome::Shed(ShedReason::Admission).to_string(),
            "shed: admission budget"
        );
        assert_eq!(
            BoardOutcome::Shed(ShedReason::RetryTokens).to_string(),
            "shed: retry tokens exhausted"
        );
    }
}
