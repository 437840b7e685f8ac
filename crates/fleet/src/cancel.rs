//! Cooperative cancellation for fleet runs.
//!
//! A [`CancelToken`] is a cloneable flag shared between the caller and the
//! engine. The caller keeps one clone (typically on another thread, wired
//! to a signal handler or an RPC's disconnect), hands another to
//! [`crate::FleetConfig::cancel`], and fires it at any time. The engine
//! polls it at two granularities:
//!
//! * **pop boundaries** — when a worker claims its next unit packet (the
//!   stop predicate of `crate::sched::run_packets`);
//! * **unit boundaries** — just before a claimed packet starts routing
//!   its unit.
//!
//! So a fired token stops the fleet within one *unit's* worth of work per
//! worker — not one job's, and certainly not the whole fleet's. Boards
//! whose jobs all completed before the trip are written back normally
//! ([`crate::BoardOutcome::Routed`]); boards that lost at least one job
//! report [`crate::BoardOutcome::Cancelled`] and keep their input
//! geometry untouched.
//!
//! Cancellation is level-triggered and sticky: once fired, every
//! observer sees it fired forever. Firing twice is a no-op.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable, thread-safe cancellation flag.
///
/// All clones observe the same flag. `Default` starts unfired.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token. Every clone observes the cancellation from now
    /// on; firing again is a no-op.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// `true` once any clone has fired.
    #[inline]
    pub(crate) fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
        // Sticky and idempotent.
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn fires_across_threads() {
        let token = CancelToken::new();
        let remote = token.clone();
        let handle = std::thread::spawn(move || remote.cancel());
        handle.join().expect("cancel thread");
        assert!(token.is_cancelled());
    }
}
