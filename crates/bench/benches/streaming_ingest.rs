//! Streaming-engine benchmarks: engine batch ingestion throughput vs
//! one-shot dataset construction, warm- vs cold-started refit cost, and the
//! steady-state warm refit split into its phases.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pka_contingency::{Dataset, Sample};
use pka_core::{Acquisition, AcquisitionConfig};
use pka_datagen::sampler::{sample_dataset, seeded_rng};
use pka_stream::{RefitPhases, RefreshPolicy, StreamConfig, StreamingEngine};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const STREAM_LEN: u64 = 200_000;

fn survey_samples(n: u64) -> Dataset {
    let joint = pka_datagen::survey::ground_truth();
    sample_dataset(&joint, n, &mut seeded_rng(42))
}

/// Tuples/sec: one-shot sequential construction vs the engine's batch
/// ingest of the same rows.
fn ingest_throughput(c: &mut Criterion) {
    let dataset = survey_samples(STREAM_LEN);
    let schema = dataset.shared_schema();
    let samples = dataset.samples();

    let mut group = c.benchmark_group("streaming_ingest");
    group.throughput(Throughput::Elements(STREAM_LEN));

    group.bench_function("one_shot_dataset_to_table", |b| b.iter(|| black_box(dataset.to_table())));

    group.bench_function("engine_ingest_batch", |b| {
        b.iter(|| {
            let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
            let mut engine = StreamingEngine::new(Arc::clone(&schema), config).unwrap();
            engine.ingest_batch(samples).unwrap();
            assert_eq!(engine.total_ingested(), STREAM_LEN);
            black_box(engine)
        })
    });
    group.finish();
}

/// Warm- vs cold-started refit latency on a growing stream: the engine has
/// fitted a prefix, a new batch arrives, and the knowledge base must be
/// refreshed over the union.
fn refit_latency(c: &mut Criterion) {
    let dataset = survey_samples(30_000);
    let (prefix, growth) = dataset.split_every(4, 0); // 75 % fitted, 25 % new

    let acquisition = Acquisition::new(AcquisitionConfig::new());
    let prefix_outcome = acquisition.run(&prefix.to_table()).unwrap();

    let mut full = prefix.clone();
    full.merge_from(&growth).unwrap();
    let full_table = full.to_table();

    let mut group = c.benchmark_group("streaming_refit");
    group.sample_size(10);
    group.bench_function("cold_refit_full_data", |b| {
        b.iter(|| black_box(acquisition.run(&full_table).unwrap()))
    });
    group.bench_function("warm_refit_full_data", |b| {
        b.iter(|| {
            black_box(
                acquisition.run_warm_started(&full_table, &prefix_outcome.knowledge_base).unwrap(),
            )
        })
    });
    group.finish();

    // Solver-iteration comparison (printed once; the wall-clock numbers
    // above are what criterion measures).
    let warm = acquisition.run_warm_started(&full_table, &prefix_outcome.knowledge_base).unwrap();
    let cold = acquisition.run(&full_table).unwrap();
    eprintln!(
        "  refit solver iterations: warm {} vs cold {}",
        warm.trace.total_solver_iterations(),
        cold.trace.total_solver_iterations()
    );
}

/// End-to-end engine throughput: batched stream with policy-driven refits.
fn engine_stream(c: &mut Criterion) {
    let dataset = survey_samples(50_000);
    let schema = dataset.shared_schema();
    let batches: Vec<Dataset> = dataset.split_chunks(50);

    let mut group = c.benchmark_group("streaming_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(50_000));
    group.bench_function("stream_50_batches_dirty10pct", |b| {
        b.iter(|| {
            let config = StreamConfig::new().with_policy(RefreshPolicy::DirtyFraction(0.1));
            let mut engine = StreamingEngine::new(Arc::clone(&schema), config).unwrap();
            for batch in &batches {
                engine.ingest_dataset(batch).unwrap();
            }
            black_box(engine.refit_count())
        })
    });
    group.finish();
}

/// The steady-state refit of a live coordinator: 20k survey rows
/// preloaded, then 50 warm refits, each over a fresh 64-row delta.  Prints
/// the p50 refit and the p50 of each phase; its gate is that every refit's
/// published model honours every constraint to 1e-6.
fn warm_refit_probe(_c: &mut Criterion) {
    const PRELOAD: usize = 20_000;
    const REFITS: usize = 50;
    const DELTA: usize = 64;
    let dataset = survey_samples((PRELOAD + REFITS * DELTA) as u64);
    let rows: Vec<&[usize]> = dataset.samples().iter().map(Sample::values).collect();
    let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
    let mut engine = StreamingEngine::new(dataset.shared_schema(), config).unwrap();
    engine.ingest_batch(&rows[..PRELOAD]).unwrap();
    engine.refresh().unwrap();

    let mut walls = Vec::with_capacity(REFITS);
    let mut phases: Vec<RefitPhases> = Vec::with_capacity(REFITS);
    for delta in rows[PRELOAD..].chunks(DELTA) {
        engine.ingest_batch(delta).unwrap();
        let report = engine.refresh().unwrap();
        assert!(report.warm_started);
        let snapshot = engine.snapshot().unwrap();
        let kb = snapshot.knowledge_base();
        for c in kb.constraints().constraints() {
            let gap = (kb.probability(&c.assignment) - c.probability).abs();
            assert!(gap <= 1e-6, "refit {} misses {:?} by {gap:e}", report.version, c.assignment);
        }
        walls.push(report.wall_time);
        phases.push(report.phases);
    }
    let p50 = |mut xs: Vec<Duration>| {
        xs.sort_unstable();
        xs[xs.len() / 2].as_secs_f64() * 1e3
    };
    let phase = |f: fn(&RefitPhases) -> Duration| p50(phases.iter().map(f).collect());
    eprintln!(
        "  warm refit p50 {:.3} ms over {REFITS} refits; phase p50s (ms): merge {:.3}, \
         scoring {:.3}, fit {:.3}, lattice {:.3}, publish {:.3}",
        p50(walls),
        phase(|p| p.merge),
        phase(|p| p.scoring),
        phase(|p| p.fit),
        phase(|p| p.lattice),
        phase(|p| p.publish),
    );
}

criterion_group!(benches, ingest_throughput, refit_latency, engine_stream, warm_refit_probe);
criterion_main!(benches);
