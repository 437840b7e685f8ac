//! # meander-drc
//!
//! Design-rule model and checking engine.
//!
//! The paper's problem formulation (Sec. II, Fig. 1) restricts length
//! matching by four primary distances:
//!
//! * `dgap` — trace-to-trace clearance (self-inductance / crosstalk),
//! * `dobs` — trace-to-obstacle clearance,
//! * `dprotect` — minimum segment length (no extremely short segments),
//! * `dmiter` — corner chamfer for convex patterns.
//!
//! A trace may pass several **Design Rule Areas** (DRAs), each with its own
//! rule values; the router must respect whichever area a pattern lands in,
//! and MSDTW's multi-scale recursion exists precisely because differential
//! pairs cross DRAs.
//!
//! This crate provides:
//!
//! * [`DesignRules`] — a validated rule record,
//! * [`DesignRuleArea`] / [`RuleResolver`] — per-region rules and their
//!   resolution at points/segments,
//! * [`virtual_drc`] — the rule conversion that lets a merged median trace
//!   stand in for a differential pair (paper Sec. V-A),
//! * [`checker`] — a full violation scan used by tests and examples to prove
//!   router outputs legal.
//!
//! The indexed scans answer their window queries on a
//! [`meander_index::SegIndex`]: [`IndexKind`] selects the
//! uniform grid or the STR-packed R-tree
//! ([`checker::check_layout_with`]), and because both structures
//! return identical candidate sets, the violation list — order, values,
//! witnesses — is the same for every selection (property-tested against
//! the brute-force reference).

pub mod checker;
pub mod dra;
pub mod resolve;
pub mod rules;
pub mod violation;
pub mod virtual_drc;

pub use checker::{check_layout, check_layout_brute, check_layout_with, CheckInput, TraceGeometry};
pub use dra::DesignRuleArea;
pub use meander_index::IndexKind;
pub use resolve::RuleResolver;
pub use rules::{DesignRules, RulesError};
pub use violation::Violation;
pub use virtual_drc::{restore_rules, virtualize_rules};
