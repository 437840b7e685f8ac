//! # meander-region
//!
//! Region assignment — the first of the paper's two orthogonal stages
//! (Sec. III): give every trace in a matching group enough *non-overlapping*
//! space to meander in, before any meandering happens.
//!
//! The paper formulates this as a pure feasibility Linear Program over
//! variables `x_ij` (space of region `i` granted to trace `j`) under three
//! constraint families:
//!
//! 1. **Neighbor validity** — `x_ij = 0` unless region `i` borders trace `j`,
//! 2. **Feasibility** — `Σ_j x_ij ≤ Cap_i`, `x_ij ≥ 0`,
//! 3. **Sufficiency** — `Σ_i x_ij ≥ Req_j`,
//!
//! where `Req_j` comes from the length–space relation of BSG-route \[8\]:
//! meandering `Δl` of extra length consumes ≈ `Δl · (d_gap + w)` of area.
//!
//! Pipeline: `regions::decompose` grids the free space into
//! capacity-carrying regions → `capacity::requirements` sizes each trace's
//! demand → [`assign()`]
//! builds and solves the LP with the from-scratch two-phase [`simplex`]
//! solver → winners are folded into per-trace
//! [`meander_layout::RoutableArea`]s.

pub mod assign;
mod capacity;
mod regions;
pub mod simplex;

pub use assign::assign;
pub use simplex::{Constraint, LinearProgram, LpOutcome, Relation};

/// Builds and solves a deterministic assignment-shaped LP with
/// `size²` regions and `size` traces — the fixture behind the solver
/// micro-benchmark (`meander-bench`, `micro::simplex`).
pub fn solve_lp_for_bench(size: usize) -> LpOutcome {
    let n_regions = size * size;
    let n_traces = size;
    // Variable x_ij exists for every (region, trace) with j ≡ i mod 3 — a
    // sparse-ish neighbor structure.
    let mut vars = Vec::new();
    for i in 0..n_regions {
        for j in 0..n_traces {
            if (i + j) % 3 != 0 {
                vars.push((i, j));
            }
        }
    }
    let n = vars.len();
    let mut constraints = Vec::new();
    for i in 0..n_regions {
        let mut coeffs = vec![0.0; n];
        let mut any = false;
        for (v, &(ri, _)) in vars.iter().enumerate() {
            if ri == i {
                coeffs[v] = 1.0;
                any = true;
            }
        }
        if any {
            constraints.push(Constraint {
                coeffs,
                rel: Relation::Le,
                rhs: 10.0,
            });
        }
    }
    for j in 0..n_traces {
        let mut coeffs = vec![0.0; n];
        for (v, &(_, tj)) in vars.iter().enumerate() {
            if tj == j {
                coeffs[v] = 1.0;
            }
        }
        constraints.push(Constraint {
            coeffs,
            rel: Relation::Ge,
            rhs: 3.0 * size as f64,
        });
    }
    simplex::solve(&LinearProgram {
        n_vars: n,
        objective: vec![1.0; n],
        minimize: true,
        constraints,
    })
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn bench_fixture_is_feasible() {
        for size in [2, 4, 8] {
            assert!(matches!(
                solve_lp_for_bench(size),
                LpOutcome::Optimal { .. }
            ));
        }
    }
}
