//! Experiment F2 — Figure 2 of the memo: marginal counts of the smoking
//! survey (Eqs. 1–6).

use criterion::{criterion_group, criterion_main, Criterion};
use pka_contingency::VarSet;
use std::hint::black_box;

fn fig2(c: &mut Criterion) {
    let table = pka_datagen::smoking::table();

    let mut group = c.benchmark_group("fig2_marginals");
    group.bench_function("all_marginals", |b| {
        b.iter(|| black_box(pka_bench::fig2_marginals(&table)))
    });
    group.bench_function("single_two_way_marginal", |b| {
        b.iter(|| black_box(table.marginal(VarSet::from_indices([0, 1]))))
    });
    group.finish();

    // Correctness gate: the Figure 2c numbers.
    let ab = table.marginal(VarSet::from_indices([0, 1]));
    assert_eq!(ab.get(&[0, 0]), 240);
    assert_eq!(ab.get(&[0, 1]), 1050);
    assert_eq!(ab.get(&[1, 0]), 93);
    assert_eq!(ab.get(&[2, 1]), 905);
    assert_eq!(table.marginal(VarSet::singleton(0)).get(&[0]), 1290);
}

criterion_group!(benches, fig2);
criterion_main!(benches);
