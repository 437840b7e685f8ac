//! AiDT-like greedy tuner — the Table I comparator.
//!
//! Allegro's Auto-interactive Delay Tune is closed source; the paper only
//! exposes its behaviour through Table I: decent matching in sparse space,
//! substantially worse than the DP router in dense space, faster on
//! single-ended dense groups, slower on the sparse differential group.
//! This stand-in reproduces that profile with published techniques:
//!
//! * serpentine insertion on fixed tracks with **uniform amplitude** per
//!   segment (commercial accordion style — one obstacle drags the whole
//!   segment's amplitude down),
//! * no obstacle enclosure and no foot/width adaptation,
//! * differential pairs handled the *conventional* way (paper Sec. V-A):
//!   parallel-segment checking merges the pair into a fat median trace;
//!   the check samples both sub-traces densely, which is where the extra
//!   runtime on pair groups comes from.

use crate::baseline::fixed_track::{extend_trace_fixed, FixedTrackOptions};
use crate::driver::{GroupReport, TraceReport};
use crate::extend::ExtendInput;
use meander_drc::virtualize_rules;
use meander_geom::{Point, Polyline};
use meander_layout::{Board, MatchGroup, TraceId};
use meander_msdtw::restore_pair;
use std::collections::HashSet;
use std::time::Instant;

/// Conventional parallel-checking merge (the method MSDTW replaces).
///
/// Walks both sub-traces segment by segment; a pair of segments is
/// "coupled" when they are parallel within tolerance and laterally `sep`
/// apart, verified by dense sampling (`samples` per segment). Returns the
/// midline when *every* segment pair couples — and `None` the moment the
/// pair is imperfectly coupled, which is exactly the fragility the paper
/// describes (Sec. V-A).
pub(crate) fn parallel_check_merge(
    p: &Polyline,
    n: &Polyline,
    sep: f64,
    samples: usize,
) -> Option<Polyline> {
    if p.segment_count() != n.segment_count() {
        return None;
    }
    let mut mids: Vec<Point> = Vec::with_capacity(p.point_count());
    for (sp, sn) in p.segments().zip(n.segments()) {
        let dp = sp.direction()?;
        let dn = sn.direction()?;
        if !dp.is_parallel(dn) || dp.dot(dn) < 0.0 {
            return None;
        }
        // Dense sampling: every sample of sp must sit `sep` from sn.
        for k in 0..=samples {
            let t = k as f64 / samples as f64;
            let q = sp.point_at(t);
            let d = sn.distance_to_point(q);
            if (d - sep).abs() > sep * 0.25 {
                return None;
            }
        }
        mids.push(sp.a.midpoint(sn.a));
    }
    mids.push(p.end().midpoint(n.end()));
    let mut pl = Polyline::new(mids);
    pl.simplify();
    Some(pl)
}

/// Length-matches a group the AiDT-like way. Same reporting contract as
/// [`crate::match_board_group`].
///
/// # Panics
///
/// Panics if `group_idx` is out of range.
pub fn match_group_aidt(board: &mut Board, group_idx: usize) -> GroupReport {
    let group: MatchGroup = board.groups()[group_idx].clone();
    let lengths = board.group_lengths(&group);
    let target = group.resolve_target(&lengths);
    let start = Instant::now();

    let obstacles: Vec<meander_geom::Polygon> = board
        .obstacles()
        .iter()
        .map(|o| o.polygon().clone())
        .collect();
    let opts = FixedTrackOptions {
        width_gaps: 1.0,
        alternate: true,
        uniform_amplitude: true,
    };

    let mut reports = Vec::new();
    let mut done: HashSet<TraceId> = HashSet::new();

    for &id in group.members() {
        if done.contains(&id) {
            continue;
        }
        let pair = board.pair_of(id).cloned();
        match pair {
            Some(pair)
                if group
                    .members()
                    .contains(&pair.partner(id).expect("involved")) =>
            {
                let (p_id, n_id) = (pair.p(), pair.n());
                done.insert(p_id);
                done.insert(n_id);
                let p0 = board.trace(p_id).expect("pair").centerline().clone();
                let n0 = board.trace(n_id).expect("pair").centerline().clone();
                let rules = *board.trace(p_id).expect("pair").rules();
                let area = board
                    .area(p_id)
                    .map(|a| a.polygons().to_vec())
                    .unwrap_or_default();

                // Conventional merge with dense sampling (the expensive
                // part on pair groups).
                let merged = parallel_check_merge(&p0, &n0, pair.sep(), 512);
                let median = match merged {
                    Some(m) => m,
                    None => {
                        // Decoupled pair: retry at coarser tolerance by
                        // dropping tiny segments first — more sampling
                        // work, often still failing (the paper's point).
                        let mut p_simpl = p0.clone();
                        p_simpl.simplify();
                        let mut n_simpl = n0.clone();
                        n_simpl.simplify();
                        match parallel_check_merge(&p_simpl, &n_simpl, pair.sep(), 1024) {
                            Some(m) => m,
                            None => {
                                // Give up on coupling: meander P as a fat
                                // trace and rebuild N from it.
                                p0.clone()
                            }
                        }
                    }
                };
                let vrules = virtualize_rules(&rules, pair.sep());
                let out = extend_trace_fixed(
                    &ExtendInput {
                        trace: &median,
                        target,
                        rules: &vrules,
                        area: &area,
                        obstacles: &obstacles,
                    },
                    &opts,
                );
                if let Some((new_p, new_n)) = restore_pair(&out.trace, pair.sep()) {
                    let (lp, ln) = (new_p.length(), new_n.length());
                    board.trace_mut(p_id).expect("pair").set_centerline(new_p);
                    board.trace_mut(n_id).expect("pair").set_centerline(new_n);
                    reports.push(TraceReport {
                        id: p_id,
                        initial: p0.length(),
                        achieved: lp,
                        patterns: out.patterns,
                        via_msdtw: false,
                    });
                    reports.push(TraceReport {
                        id: n_id,
                        initial: n0.length(),
                        achieved: ln,
                        patterns: out.patterns,
                        via_msdtw: false,
                    });
                }
            }
            _ => {
                done.insert(id);
                let trace = board.trace(id).expect("member").centerline().clone();
                let rules = *board.trace(id).expect("member").rules();
                let area = board
                    .area(id)
                    .map(|a| a.polygons().to_vec())
                    .unwrap_or_default();
                let out = extend_trace_fixed(
                    &ExtendInput {
                        trace: &trace,
                        target,
                        rules: &rules,
                        area: &area,
                        obstacles: &obstacles,
                    },
                    &opts,
                );
                reports.push(TraceReport {
                    id,
                    initial: trace.length(),
                    achieved: out.achieved,
                    patterns: out.patterns,
                    via_msdtw: false,
                });
                board
                    .trace_mut(id)
                    .expect("member")
                    .set_centerline(out.trace);
            }
        }
    }

    GroupReport {
        target,
        traces: reports,
        runtime: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_layout::gen::table1_case;

    #[test]
    fn parallel_merge_works_on_clean_pairs() {
        let p = Polyline::new(vec![Point::new(0.0, 3.0), Point::new(50.0, 3.0)]);
        let n = Polyline::new(vec![Point::new(0.0, -3.0), Point::new(50.0, -3.0)]);
        let m = parallel_check_merge(&p, &n, 6.0, 16).unwrap();
        assert!(m.points()[0].approx_eq(Point::new(0.0, 0.0)));
    }

    #[test]
    fn parallel_merge_fails_on_decoupled_pairs() {
        // Tiny pattern on N (the paper's Fig. 10b) breaks parallel
        // checking.
        let p = Polyline::new(vec![Point::new(0.0, 3.0), Point::new(50.0, 3.0)]);
        let n = Polyline::new(vec![
            Point::new(0.0, -3.0),
            Point::new(20.0, -3.0),
            Point::new(20.0, -7.0),
            Point::new(24.0, -7.0),
            Point::new(24.0, -3.0),
            Point::new(50.0, -3.0),
        ]);
        assert!(parallel_check_merge(&p, &n, 6.0, 16).is_none());
    }

    #[test]
    fn aidt_matches_worse_than_dp_on_dense_case() {
        let mut aidt_case = table1_case(1);
        let aidt = match_group_aidt(&mut aidt_case.board, 0);

        let mut dp_case = table1_case(1);
        let dp = crate::driver::match_board_group(
            &mut dp_case.board,
            0,
            &crate::ExtendConfig::default(),
        );

        assert!(
            dp.max_error() <= aidt.max_error() + 1e-9,
            "DP {:.4} should beat AiDT-like {:.4}",
            dp.max_error(),
            aidt.max_error()
        );
        // AiDT still improves on the initial state.
        let init_max = 0.3738;
        assert!(aidt.max_error() < init_max);
    }

    #[test]
    fn aidt_output_is_drc_clean() {
        let mut case = table1_case(2);
        let _ = match_group_aidt(&mut case.board, 0);
        let violations = case.board.check();
        assert!(violations.is_empty(), "{violations:?}");
    }
}
