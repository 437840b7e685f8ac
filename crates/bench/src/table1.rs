//! Table I driver: overall length-matching performance vs the AiDT-like
//! baseline.

use meander_core::baseline::match_group_aidt;
use meander_core::{match_board_group, ExtendConfig};
use meander_layout::gen::table1_case;
use meander_layout::MatchGroup;

/// One row of Table I (all error values in percent, runtime in seconds).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Case number (1–5).
    pub case_no: usize,
    /// Group target length.
    pub ltarget: f64,
    /// `d_gap`.
    pub dgap: f64,
    /// Group size (pairs count once).
    pub group_size: usize,
    /// "single-ended" / "differential".
    pub trace_type: String,
    /// "dense" / "sparse".
    pub spacing: String,
    /// Initial max error %.
    pub init_max: f64,
    /// Baseline (AiDT-like) max error %.
    pub base_max: f64,
    /// Our max error %.
    pub ours_max: f64,
    /// Initial avg error %.
    pub init_avg: f64,
    /// Baseline avg error %.
    pub base_avg: f64,
    /// Our avg error %.
    pub ours_avg: f64,
    /// Baseline runtime (s).
    pub base_runtime: f64,
    /// Our runtime (s).
    pub ours_runtime: f64,
}

/// Runs one Table I case through both tuners and collects the row.
pub fn run_table1_case(case_no: usize) -> Table1Row {
    let config = ExtendConfig::default();

    // Initial errors from the untouched board.
    let case = table1_case(case_no);
    let group = &case.board.groups()[0];
    let lengths = case.board.group_lengths(group);
    let init_max = MatchGroup::max_error(case.ltarget, &lengths) * 100.0;
    let init_avg = MatchGroup::avg_error(case.ltarget, &lengths) * 100.0;

    // Baseline on a fresh board.
    let mut base_case = table1_case(case_no);
    let base = match_group_aidt(&mut base_case.board, 0);

    // Ours on a fresh board.
    let mut ours_case = table1_case(case_no);
    let ours = match_board_group(&mut ours_case.board, 0, &config);

    Table1Row {
        case_no,
        ltarget: case.ltarget,
        dgap: case.dgap,
        group_size: case.group_size,
        trace_type: case.trace_type.to_string(),
        spacing: case.spacing.to_string(),
        init_max,
        base_max: base.max_error() * 100.0,
        ours_max: ours.max_error() * 100.0,
        init_avg,
        base_avg: base.avg_error() * 100.0,
        ours_avg: ours.avg_error() * 100.0,
        base_runtime: base.runtime.as_secs_f64(),
        ours_runtime: ours.runtime.as_secs_f64(),
    }
}

/// Formats the header of the printed table.
pub fn header() -> String {
    format!(
        "{:<4} {:>8} {:>5} {:>4} {:<13} {:<7} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>9} {:>9}",
        "case", "ltarget", "dgap", "n", "type", "spacing",
        "ini.max%", "base.max", "ours.max",
        "ini.avg%", "base.avg", "ours.avg",
        "base.t(s)", "ours.t(s)"
    )
}

impl std::fmt::Display for Table1Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<4} {:>8.2} {:>5.1} {:>4} {:<13} {:<7} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2} | {:>9.3} {:>9.3}",
            self.case_no,
            self.ltarget,
            self.dgap,
            self.group_size,
            self.trace_type,
            self.spacing,
            self.init_max,
            self.base_max,
            self.ours_max,
            self.init_avg,
            self.base_avg,
            self.ours_avg,
            self.base_runtime,
            self.ours_runtime
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_shape_matches_paper() {
        let row = run_table1_case(1);
        // Paper shape: ours ≪ baseline ≪ initial on max error.
        assert!(row.ours_max < row.base_max, "{row}");
        assert!(row.base_max < row.init_max, "{row}");
        assert!(row.ours_avg < row.base_avg, "{row}");
        // Ours lands in the paper's few-percent regime.
        assert!(row.ours_max < 10.0, "{row}");
    }

    #[test]
    fn differential_case_runs() {
        let row = run_table1_case(5);
        assert_eq!(row.trace_type, "differential");
        assert!(row.ours_max < row.init_max);
    }
}
