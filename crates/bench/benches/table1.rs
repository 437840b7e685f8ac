//! Criterion bench for **Table I**: runtime of the full matching flow on
//! each case, for ours and the AiDT-like baseline (the table's two runtime
//! columns). The table rows themselves are printed once at startup so the
//! bench log doubles as the table regeneration record.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meander_bench::table1::{header, run_table1_case};
use meander_core::baseline::match_group_aidt;
use meander_core::{match_board_group, ExtendConfig};
use meander_layout::gen::table1_case;

fn bench_table1(c: &mut Criterion) {
    // Print the regenerated table once.
    println!("\nTable I — regenerated rows:");
    println!("{}", header());
    for case_no in 1..=5 {
        println!("{}", run_table1_case(case_no));
    }
    println!();

    let config = ExtendConfig::default();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for case_no in 1..=5usize {
        group.bench_with_input(BenchmarkId::new("ours", case_no), &case_no, |b, &n| {
            b.iter_batched(
                || table1_case(n),
                |mut case| match_board_group(&mut case.board, 0, &config),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("aidt_like", case_no), &case_no, |b, &n| {
            b.iter_batched(
                || table1_case(n),
                |mut case| match_group_aidt(&mut case.board, 0),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
