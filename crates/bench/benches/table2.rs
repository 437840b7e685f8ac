//! Criterion bench for **Table II**: runtime of the maximum-extension hunt
//! with and without DP per case, with the regenerated rows printed once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meander_bench::table2::{header, run_table2_case};
use meander_core::baseline::{extend_trace_fixed, FixedTrackOptions};
use meander_core::extend::ExtendInput;
use meander_core::{extend_trace, ExtendConfig};
use meander_layout::gen::table2_case;

fn bench_table2(c: &mut Criterion) {
    println!("\nTable II — regenerated rows:");
    println!("{}", header());
    for case_no in 1..=6 {
        println!("{}", run_table2_case(case_no));
    }
    println!();

    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    let config = ExtendConfig {
        max_iterations: 2000,
        ..ExtendConfig::default()
    };
    for case_no in [1usize, 6] {
        let case = table2_case(case_no);
        let trace = case.board.trace(case.trace).expect("trace").clone();
        let area = case
            .board
            .area(case.trace)
            .expect("area")
            .polygons()
            .to_vec();
        let obstacles: Vec<_> = case
            .board
            .obstacles()
            .iter()
            .map(|o| o.polygon().clone())
            .collect();
        let rules = *trace.rules();
        let target = trace.length() * 50.0;

        group.bench_with_input(BenchmarkId::new("with_dp", case_no), &case_no, |b, _| {
            b.iter(|| {
                extend_trace(
                    &ExtendInput {
                        trace: trace.centerline(),
                        target,
                        rules: &rules,
                        area: &area,
                        obstacles: &obstacles,
                    },
                    &config,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("without_dp", case_no), &case_no, |b, _| {
            b.iter(|| {
                extend_trace_fixed(
                    &ExtendInput {
                        trace: trace.centerline(),
                        target,
                        rules: &rules,
                        area: &area,
                        obstacles: &obstacles,
                    },
                    &FixedTrackOptions::default(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
