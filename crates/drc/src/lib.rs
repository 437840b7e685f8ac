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
//! [`check_layout`] answers its window queries on one uniform
//! [`meander_index::SegmentGrid`] and reports exactly the violation list
//! — order, values, witnesses — of the brute-force reference
//! [`check_layout_brute`] (property-tested).

pub mod checker;
pub mod dra;
pub mod resolve;
pub mod rules;
pub mod violation;
pub mod virtual_drc;

pub use checker::{check_layout, check_layout_brute, CheckInput, TraceGeometry};
pub use dra::DesignRuleArea;
pub use resolve::RuleResolver;
pub use rules::{DesignRules, RulesError};
pub use violation::Violation;
pub use virtual_drc::{restore_rules, virtualize_rules};
