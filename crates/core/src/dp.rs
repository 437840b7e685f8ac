//! The segment-extension dynamic program (paper Sec. IV-A/C, Alg. 1
//! lines 4–17), made **output-sensitive**.
//!
//! The segment is discretized into points `0..=m` at step `l_disc`;
//! `dp[i][dir]` holds the best height-sum achievable with patterns whose
//! feet lie among the first `i` points, the last pattern opening toward
//! side `dir`. Valid predecessors follow Eq. 8:
//!
//! * `p_gap` — same side, previous pattern at least `d_gap` back,
//! * `p_protect` — opposite side, at least `d_protect` back,
//! * `p_local` — opposite side, *connected* (shared foot; Fig. 3c), only
//!   when the predecessor state really ends in a pattern foot there (the
//!   "extra condition" of Fig. 4), or foot at a segment node (Fig. 3d).
//!
//! Ties keep pattern-ending states, preferring connected ones, because a
//! connected pair frees foot capacity for future patterns (Fig. 5).
//! `transit[i][dir]` records `⟨i′, dir′, w′⟩` (Eq. 14) plus the chosen
//! height for O(n) restoration.
//!
//! ## Why the naive pass is the cost center
//!
//! Each candidate transition `(j, i, dir)` asks the URA shrinking for the
//! tallest legal pattern — an `O(log)`-indexed but still expensive geometric
//! query — so a full pass performs `O(m·w)` of them. Two mechanisms make
//! the pass cost proportional to the *useful* part of that work:
//!
//! 1. **Per-position upper bounds** ([`HeightBounds::Profile`], floored
//!    from the pop's [`crate::shrink::Stage1Table`]): a sound
//!    per-foot-position cap on any pattern height, the exact stage-1 side
//!    clearances of the shrinker. A candidate whose capped value cannot beat
//!    (or tie) the incumbent `dp[i][d]` skips the query outright, and a cap
//!    below the minimum useful height proves the query would return 0.
//! 2. **Monotone width break**: `dp[·][d]` is non-decreasing, so once even
//!    `max(dp[j][0], dp[j][1])` plus the row cap cannot reach the incumbent,
//!    no wider candidate at this `(i, d)` can either — the width loop stops.
//!
//! Both are *pruning-only*: [`extend_segment_dp`] returns placements
//! bit-identical to an unpruned pass (property-tested in `tests/props.rs`).

use crate::config::ExtendConfig;

/// Direction index: 0 ⇒ −1 (clockwise / below), 1 ⇒ +1 (ccw / above).
pub(crate) type DirIx = usize;

/// Converts a direction index to the geometric sign.
#[inline]
pub(crate) fn dir_sign(d: DirIx) -> i8 {
    if d == 0 {
        -1
    } else {
        1
    }
}

/// One restored pattern placement on the discretized segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Left-foot point index.
    pub lo: usize,
    /// Right-foot point index.
    pub hi: usize,
    /// Side: +1 above the segment, −1 below.
    pub dir: i8,
    /// Pattern height.
    pub height: f64,
}

/// The `transit[i][dir]` record (paper Eq. 14 plus the height).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transit {
    from_i: usize,
    from_d: DirIx,
    /// Pattern width in steps; 0 marks a propagation step (no new
    /// pattern) — also the flag for the `p_local` extra condition.
    w: usize,
    h: f64,
}

const PROP: Transit = Transit {
    from_i: 0,
    from_d: 0,
    w: 0,
    h: 0.0,
};

/// Per-position upper bounds on pattern heights, indexed by `DirIx`.
///
/// `left[d][j]` caps the height of any pattern whose **left** foot sits at
/// point `j` opening toward side `d`; `right[d][i]` caps by the **right**
/// foot. Entries are `f64::INFINITY` when unconstrained and may be floored
/// to `0.0` when the builder can prove no useful pattern exists there (the
/// DP then skips the candidate without a query — a zero height is never
/// placed anyway).
///
/// ## Contract
///
/// Every entry must be a true upper bound on the height closure's return
/// value for every matching candidate: `height(j, i, dir_sign(d)) ≤
/// min(cap, left[d][j], right[d][i])`. Under that contract the DP output is
/// bit-identical to an unbounded run; the bounds only skip queries whose
/// result provably cannot matter.
#[derive(Debug, Clone)]
pub struct UbProfile {
    /// Global cap (the shrink start height `h_init`).
    pub cap: f64,
    /// Per-left-foot caps, `m + 1` entries per side.
    pub left: [Vec<f64>; 2],
    /// Per-right-foot caps, `m + 1` entries per side.
    pub right: [Vec<f64>; 2],
}

/// Upper-bound information the DP may exploit to skip height queries.
///
/// [`HeightBounds::Uniform`] is the single global cap (the shrink start
/// height `h_init` — historically a separate `DpInput` field, folded into
/// this enum when the per-position profile landed);
/// [`HeightBounds::Profile`] adds per-position resolution. Use
/// `Uniform(f64::INFINITY)` when no bound is known.
#[derive(Debug, Clone, Copy)]
pub enum HeightBounds<'a> {
    /// One cap for every candidate.
    Uniform(f64),
    /// Per-foot-position caps.
    Profile(&'a UbProfile),
}

impl HeightBounds<'_> {
    /// Cap independent of the left foot: sound for every candidate ending
    /// at `i` on side `d` (drives the monotone width break).
    #[inline]
    fn row_cap(&self, i: usize, d: DirIx) -> f64 {
        match self {
            HeightBounds::Uniform(c) => *c,
            HeightBounds::Profile(p) => p.cap.min(p.right[d][i]),
        }
    }

    /// Full per-candidate cap for the pattern `(j, i)` on side `d`.
    #[inline]
    fn pair_cap(&self, j: usize, i: usize, d: DirIx) -> f64 {
        match self {
            HeightBounds::Uniform(c) => *c,
            HeightBounds::Profile(p) => p.cap.min(p.left[d][j]).min(p.right[d][i]),
        }
    }
}

/// DP inputs describing one discretized segment.
pub struct DpInput<'a> {
    /// Number of discretization intervals (`m + 1` points, `0..=m`).
    pub m: usize,
    /// Discretization step.
    pub ldisc: f64,
    /// `d_gap` in steps (same-side spacing).
    pub gap_steps: usize,
    /// `d_protect` in steps (opposite-side spacing and end stubs).
    pub protect_steps: usize,
    /// Minimum pattern width in steps (hat must be ≥ `d_protect`).
    pub min_width_steps: usize,
    /// Maximum pattern width in steps.
    pub max_width_steps: usize,
    /// Maximum height closure: `height(lo, hi, dir)` returns the tallest
    /// legal pattern with feet at points `lo`/`hi` on side `dir`, or 0.
    pub height: &'a dyn Fn(usize, usize, i8) -> f64,
    /// Upper bounds the height closure is guaranteed to respect. Purely an
    /// optimization: candidates that cannot beat the incumbent state even
    /// at their cap skip the (expensive) height query without changing the
    /// optimum or the tie-breaking.
    pub bounds: HeightBounds<'a>,
    /// Engine configuration (tie-breaking priority).
    pub config: &'a ExtendConfig,
}

/// Output: chosen placements (left to right) and the total height gained.
#[derive(Debug, Clone, Default)]
pub struct DpOutcome {
    /// Patterns of the optimal solution, ordered by foot position.
    pub placements: Vec<Placement>,
    /// Sum of pattern heights (`dp[n][dir_max]`); the trace gains twice
    /// this in length.
    pub total_height: f64,
}

/// Runs the DP over one segment and restores the best pattern set.
pub fn extend_segment_dp(input: &DpInput<'_>) -> DpOutcome {
    let m = input.m;
    if m == 0 {
        return DpOutcome::default();
    }
    let mut dp = vec![[0.0f64; 2]; m + 1];
    let mut rank = vec![[0u8; 2]; m + 1];
    let mut transit = vec![[PROP; 2]; m + 1];
    for i in 1..=m {
        for d in 0..2usize {
            // Propagation (Eq. 6).
            dp[i][d] = dp[i - 1][d];
            transit[i][d] = Transit {
                from_i: i - 1,
                from_d: d,
                w: 0,
                h: 0.0,
            };

            // Right-foot legality: at the far node or ≥ d_protect from it.
            let tail_ok = i == m || (m - i) >= input.protect_steps;
            if !tail_ok {
                continue;
            }

            // Left-foot-independent cap for this row: no candidate ending
            // at i on side d can yield more.
            let row_cap = input.bounds.row_cap(i, d);
            if row_cap <= 0.0 {
                // No positive-height pattern can end here at all.
                continue;
            }

            let w_hi = input.max_width_steps.min(i);
            for w in input.min_width_steps..=w_hi {
                let j = i - w; // left foot

                // Head-stub legality: whatever the transition, the piece of
                // original segment left of the foot is at least the stub to
                // the segment start; it must be ≥ d_protect or empty.
                if j != 0 && j < input.protect_steps {
                    continue;
                }

                // Monotone width break: every candidate base at this or any
                // wider width is ≤ max(dp[j][0], dp[j][1]) (dp is
                // non-decreasing in i), so once even that plus the row cap
                // cannot beat the incumbent, no wider candidate can.
                let best_base = dp[j][0].max(dp[j][1]);
                if best_base + row_cap < dp[i][d] - 1e-12 {
                    break;
                }

                // Candidate predecessors per Eq. 8.
                let mut candidates: [(Option<(usize, DirIx)>, bool); 3] =
                    [(None, false), (None, false), (None, false)];
                // p_gap: same side.
                if j >= input.gap_steps {
                    candidates[0] = (Some((j - input.gap_steps, d)), false);
                }
                // p_protect: opposite side.
                let od = 1 - d;
                if j >= input.protect_steps {
                    candidates[1] = (Some((j - input.protect_steps, od)), false);
                }
                // p_local: connected to a pattern foot (extra condition) or
                // a segment node (j == 0).
                if j == 0 {
                    candidates[2] = (Some((0, od)), true);
                } else if transit[j][od].w != 0 {
                    // The opposite-side state really ends with a foot at j.
                    candidates[2] = (Some((j, od)), true);
                }

                let mut best: Option<(f64, usize, DirIx, bool)> = None;
                for (cand, connected) in candidates {
                    if let Some((pi, pd)) = cand {
                        let v = dp[pi][pd];
                        let better = match best {
                            None => true,
                            Some((bv, _, _, bconn)) => {
                                v > bv + 1e-12
                                    || ((v - bv).abs() <= 1e-12
                                        && input.config.connect_priority
                                        && connected
                                        && !bconn)
                            }
                        };
                        if better {
                            best = Some((v, pi, pd, connected));
                        }
                    }
                }
                let Some((base, pi, pd, connected)) = best else {
                    continue;
                };

                // Even a cap-height pattern cannot beat (or tie) the
                // incumbent — or the cap proves the query returns no useful
                // height at all: skip the height query.
                let cand_cap = input.bounds.pair_cap(j, i, d);
                if cand_cap <= 0.0 || base + cand_cap < dp[i][d] - 1e-12 {
                    continue;
                }

                let h = (input.height)(j, i, dir_sign(d));
                if h <= 0.0 {
                    continue;
                }
                let value = base + h;
                let new_rank = if connected { 2 } else { 1 };
                let take = value > dp[i][d] + 1e-12
                    || ((value - dp[i][d]).abs() <= 1e-12
                        && input.config.connect_priority
                        && new_rank > rank[i][d]);
                if take {
                    dp[i][d] = value;
                    rank[i][d] = new_rank;
                    transit[i][d] = Transit {
                        from_i: pi,
                        from_d: pd,
                        w,
                        h,
                    };
                }
            }
        }
    }
    restore(&dp, &transit)
}

/// Picks the best terminal state and backtracks (Sec. IV-C).
fn restore(dp: &[[f64; 2]], transit: &[[Transit; 2]]) -> DpOutcome {
    let m = dp.len() - 1;
    let (mut i, mut d) = if dp[m][0] >= dp[m][1] { (m, 0) } else { (m, 1) };
    let total = dp[i][d];
    let mut placements = Vec::new();
    while i > 0 {
        let t = transit[i][d];
        if t.w != 0 {
            placements.push(Placement {
                lo: i - t.w,
                hi: i,
                dir: dir_sign(d),
                height: t.h,
            });
        }
        // Guard against malformed transit chains.
        debug_assert!(t.from_i < i || (t.from_i == i && t.from_d != d));
        if t.from_i == i && t.from_d == d {
            break;
        }
        i = t.from_i;
        d = t.from_d;
    }
    placements.reverse();
    DpOutcome {
        placements,
        total_height: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input<'a>(
        m: usize,
        gap_steps: usize,
        protect_steps: usize,
        height: &'a dyn Fn(usize, usize, i8) -> f64,
        config: &'a ExtendConfig,
    ) -> DpInput<'a> {
        DpInput {
            m,
            ldisc: 1.0,
            gap_steps,
            protect_steps,
            min_width_steps: gap_steps.max(1),
            max_width_steps: 64,
            height,
            bounds: HeightBounds::Uniform(f64::INFINITY),
            config,
        }
    }

    fn run(
        m: usize,
        gap_steps: usize,
        protect_steps: usize,
        height: &dyn Fn(usize, usize, i8) -> f64,
    ) -> DpOutcome {
        let config = ExtendConfig::default();
        extend_segment_dp(&input(m, gap_steps, protect_steps, height, &config))
    }

    #[test]
    fn empty_segment_no_patterns() {
        let out = run(0, 2, 2, &|_, _, _| 10.0);
        assert!(out.placements.is_empty());
        assert_eq!(out.total_height, 0.0);
    }

    #[test]
    fn single_pattern_when_space_allows_one() {
        // m = 8, protect 2, gap 4: uniform height 5.
        let out = run(8, 4, 2, &|_, _, _| 5.0);
        assert!(out.total_height >= 5.0);
        for p in &out.placements {
            assert!(p.hi - p.lo >= 4, "width ≥ gap steps");
            assert!(p.height == 5.0);
        }
        // Feet respect end stubs: lo == 0 or lo ≥ protect, hi == m or
        // m − hi ≥ protect.
        for p in &out.placements {
            assert!(p.lo == 0 || p.lo >= 2);
            assert!(p.hi == 8 || 8 - p.hi >= 2);
        }
    }

    #[test]
    fn same_side_patterns_respect_gap() {
        let out = run(40, 6, 2, &|_, _, _| 3.0);
        let mut by_side: [Vec<&Placement>; 2] = [vec![], vec![]];
        for p in &out.placements {
            by_side[usize::from(p.dir > 0)].push(p);
        }
        for side in &by_side {
            for w in side.windows(2) {
                assert!(
                    w[1].lo >= w[0].hi + 6,
                    "same-side feet too close: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn opposite_sides_interleave_with_protect() {
        let out = run(40, 10, 2, &|_, _, _| 3.0);
        // With a huge same-side gap, alternation wins: patterns alternate
        // sides separated by protect.
        assert!(out.placements.len() >= 3, "{:?}", out.placements);
        for w in out.placements.windows(2) {
            if w[0].dir != w[1].dir {
                assert!(w[1].lo >= w[0].hi + 2 || w[1].lo == w[0].hi);
            }
        }
    }

    #[test]
    fn connected_patterns_share_feet() {
        // m = 12, gap 6, protect 3: widths capped at 6 by the height
        // closure, so two patterns only fit sharing a foot at 6 (p_local,
        // Fig. 3c) — neither same-side gap (needs foot 18) nor
        // opposite-side protect (needs foot 15) fits.
        let out = run(12, 6, 3, &|lo, hi, _| {
            if hi - lo <= 6 {
                4.0
            } else {
                0.0
            }
        });
        assert!(out.total_height >= 8.0, "{out:?}");
        let shared = out
            .placements
            .windows(2)
            .any(|w| w[1].lo == w[0].hi && w[1].dir != w[0].dir);
        assert!(shared, "expected a connected pair: {:?}", out.placements);
    }

    #[test]
    fn height_zero_blocks_patterns() {
        let out = run(20, 2, 2, &|_, _, _| 0.0);
        assert!(out.placements.is_empty());
        assert_eq!(out.total_height, 0.0);
    }

    #[test]
    fn side_dependent_heights_pick_better_side() {
        let out = run(10, 4, 2, &|_, _, d| if d > 0 { 8.0 } else { 1.0 });
        assert!(!out.placements.is_empty());
        // The bulk of the gain must come from the tall (+1) side; low-value
        // −1 fillers may legitimately appear in between.
        let up: f64 = out
            .placements
            .iter()
            .filter(|p| p.dir > 0)
            .map(|p| p.height)
            .sum();
        let down: f64 = out
            .placements
            .iter()
            .filter(|p| p.dir < 0)
            .map(|p| p.height)
            .sum();
        assert!(up >= 8.0, "up side underused: {:?}", out.placements);
        assert!(up > down, "wrong side favoured: {:?}", out.placements);
    }

    #[test]
    fn position_dependent_heights() {
        // Left half blocked.
        let out = run(30, 4, 2, &|lo, _, _| if lo < 15 { 0.0 } else { 6.0 });
        assert!(!out.placements.is_empty());
        assert!(out.placements.iter().all(|p| p.lo >= 15));
    }

    #[test]
    fn restoration_matches_value() {
        let out = run(40, 6, 2, &|_, _, _| 3.5);
        let sum: f64 = out.placements.iter().map(|p| p.height).sum();
        assert!((sum - out.total_height).abs() < 1e-9);
    }

    #[test]
    fn wider_patterns_taken_when_taller() {
        // Wide patterns get disproportionate height (routing around).
        let out = run(30, 4, 2, &|lo, hi, _| {
            if hi - lo >= 10 {
                20.0
            } else {
                2.0
            }
        });
        assert!(out.placements.iter().any(|p| p.hi - p.lo >= 10));
    }

    /// Deterministic pseudo-random height field with per-position structure
    /// (so profile bounds have something to bite on).
    fn rand_heights(seed: u64, m: usize) -> (Vec<f64>, Vec<f64>) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let up: Vec<f64> = (0..=m).map(|_| next() * 12.0).collect();
        let dn: Vec<f64> = (0..=m).map(|_| next() * 12.0).collect();
        (up, dn)
    }

    /// A position-dependent closure: the height of `(lo, hi, dir)` is the
    /// min of the per-position field over the window (zeroed when small).
    fn field_height<'a>(up: &'a [f64], dn: &'a [f64]) -> impl Fn(usize, usize, i8) -> f64 + 'a {
        move |lo, hi, dir| {
            let f = if dir > 0 { up } else { dn };
            let h = f[lo..=hi].iter().fold(f64::INFINITY, |a, &b| a.min(b));
            if h < 1.5 {
                0.0
            } else {
                h
            }
        }
    }

    #[test]
    fn profile_bounds_do_not_change_output() {
        let config = ExtendConfig::default();
        for seed in 0..40u64 {
            let m = 20 + (seed as usize * 7) % 60;
            let (up, dn) = rand_heights(seed, m);
            let height = field_height(&up, &dn);
            let reference = extend_segment_dp(&input(m, 4, 2, &height, &config));

            // Per-position caps: sound by construction (field min over the
            // window is ≤ the field value at each foot).
            let profile = UbProfile {
                cap: 12.0,
                left: [dn.clone(), up.clone()],
                right: [dn.clone(), up.clone()],
            };
            let mut bounded = input(m, 4, 2, &height, &config);
            bounded.bounds = HeightBounds::Profile(&profile);
            let pruned = extend_segment_dp(&bounded);

            assert_eq!(
                reference.placements, pruned.placements,
                "seed {seed}: profile pruning changed the optimum"
            );
            assert_eq!(reference.total_height, pruned.total_height);
        }
    }

    #[test]
    fn pruning_skips_queries_but_counts_requests() {
        let config = ExtendConfig::default();
        let m = 60;
        let (up, dn) = rand_heights(7, m);
        let field = field_height(&up, &dn);
        let calls = std::cell::Cell::new(0u64);
        let height = |lo: usize, hi: usize, dir: i8| -> f64 {
            calls.set(calls.get() + 1);
            field(lo, hi, dir)
        };
        let unbounded = extend_segment_dp(&input(m, 4, 2, &height, &config));
        let unbounded_calls = calls.replace(0);

        let profile = UbProfile {
            cap: 12.0,
            left: [dn.clone(), up.clone()],
            right: [dn.clone(), up.clone()],
        };
        let mut bounded = input(m, 4, 2, &height, &config);
        bounded.bounds = HeightBounds::Profile(&profile);
        let pruned = extend_segment_dp(&bounded);
        let pruned_calls = calls.get();

        assert!(
            pruned_calls < unbounded_calls,
            "profile should skip height queries: {pruned_calls} vs {unbounded_calls}"
        );
        assert_eq!(pruned.placements, unbounded.placements);
        assert_eq!(pruned.total_height, unbounded.total_height);
    }
}
