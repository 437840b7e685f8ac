//! Table II driver: extension upper bound with and without DP.

use meander_core::baseline::{extend_trace_fixed, FixedTrackOptions};
use meander_core::extend::ExtendInput;
use meander_core::{extend_trace, ExtendConfig};
use meander_layout::gen::table2_case;

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Case number (1–6).
    pub case_no: usize,
    /// `d_gap / w_trace`.
    pub dgap_ratio: f64,
    /// `l_original / d_gap`.
    pub loriginal_ratio: f64,
    /// Extension upper bound with DP, percent (paper Eq. 20).
    pub with_dp: f64,
    /// Extension upper bound without DP, percent.
    pub without_dp: f64,
}

/// Runs one Table II case: both algorithms extend the via-field trace as
/// far as they can (`l_target = 50·l_original`), reporting
/// `(l_ext − l_orig)/l_orig · 100` (Eq. 20).
pub fn run_table2_case(case_no: usize) -> Table2Row {
    let case = table2_case(case_no);
    let trace = case.board.trace(case.trace).expect("trace").clone();
    let area = case
        .board
        .area(case.trace)
        .expect("area")
        .polygons()
        .to_vec();
    let obstacles: Vec<meander_geom::Polygon> = case
        .board
        .obstacles()
        .iter()
        .map(|o| o.polygon().clone())
        .collect();
    let rules = *trace.rules();
    let loriginal = trace.length();
    let target = loriginal * 50.0;
    let config = ExtendConfig {
        // Upper-bound hunt: let the queue run long.
        max_iterations: 2000,
        ..ExtendConfig::default()
    };

    let input = ExtendInput {
        trace: trace.centerline(),
        target,
        rules: &rules,
        area: &area,
        obstacles: &obstacles,
    };
    let dp = extend_trace(&input, &config);
    let fixed = extend_trace_fixed(&input, &FixedTrackOptions::default());

    Table2Row {
        case_no,
        dgap_ratio: case.dgap_ratio,
        loriginal_ratio: case.loriginal_ratio,
        with_dp: (dp.achieved - loriginal) / loriginal * 100.0,
        without_dp: (fixed.achieved - loriginal) / loriginal * 100.0,
    }
}

/// Formats the header of the printed table.
pub fn header() -> String {
    format!(
        "{:<4} {:>11} {:>15} {:>12} {:>12}",
        "case", "dgap/wtrace", "loriginal/dgap", "withDP(%)", "withoutDP(%)"
    )
}

impl std::fmt::Display for Table2Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<4} {:>11.1} {:>15.2} {:>12.2} {:>12.2}",
            self.case_no, self.dgap_ratio, self.loriginal_ratio, self.with_dp, self.without_dp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_dominates_at_tight_drc() {
        // Paper shape: comparable at small dgap, DP wins big at dgap = 5w.
        let tight = run_table2_case(6);
        assert!(
            tight.with_dp > tight.without_dp,
            "DP {:.1}% vs fixed {:.1}%",
            tight.with_dp,
            tight.without_dp
        );
    }

    #[test]
    fn loose_drc_is_competitive() {
        let loose = run_table2_case(1);
        // Both meander a lot; the gap between them is comparatively small.
        assert!(loose.with_dp > 100.0, "{loose:?}");
        assert!(loose.without_dp > 100.0, "{loose:?}");
    }
}
