//! A continuous survey feed served live: batches of simulated health-survey
//! responses stream into a [`pka::stream::StreamingEngine`] while a reader
//! thread keeps answering conditional-probability queries from the latest
//! published snapshot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_survey
//! ```

use pka::contingency::Assignment;
use pka::datagen::sampler::{sample_dataset, seeded_rng};
use pka::stream::{RefitOutcome, RefreshPolicy, StreamConfig, StreamingEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // The simulated survey: a ground-truth joint with planted interactions
    // (see pka-datagen), from which respondent batches are drawn.
    let truth = pka::datagen::survey::ground_truth();
    let schema = pka::datagen::survey::schema();
    let mut rng = seeded_rng(7);

    // Engine: automatic refresh on 20 % data growth.
    let config = StreamConfig::new().with_policy(RefreshPolicy::DirtyFraction(0.2));
    let mut engine =
        StreamingEngine::new(Arc::clone(&schema), config).expect("streaming engine configuration");

    // A reader thread pretending to be live query traffic.  It holds only a
    // SnapshotHandle; refits never block it, it just sees fresher versions.
    let handle = engine.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let reader_stop = Arc::clone(&stop);
    let query_target = Assignment::single(1, 0);
    let query_evidence = Assignment::single(0, 0);
    let reader = std::thread::spawn(move || {
        let mut answered: u64 = 0;
        let mut last_seen = 0;
        while !reader_stop.load(Ordering::Relaxed) {
            if let Some(snapshot) = handle.load() {
                let p = snapshot
                    .knowledge_base()
                    .conditional(&query_target, &query_evidence)
                    .expect("snapshot query");
                answered += 1;
                if snapshot.version() != last_seen {
                    last_seen = snapshot.version();
                    println!(
                        "  [reader] now on snapshot v{} ({} tuples): P(q|e) = {:.4}",
                        snapshot.version(),
                        snapshot.observations(),
                        p
                    );
                }
            }
            std::thread::yield_now();
        }
        answered
    });

    // The feed: 20 batches of 2 000 respondents each.
    println!("streaming 20 batches of 2,000 survey responses…");
    for batch_number in 1..=20 {
        let batch = sample_dataset(&truth, 2_000, &mut rng);
        let report = engine.ingest_dataset(&batch).expect("ingest");
        if let RefitOutcome::Completed(refit) = report.refit {
            println!(
                "batch {batch_number:2}: refit v{} ({}) over {} tuples — {} constraints, \
                 {} solver sweeps, {:?}",
                refit.version,
                if refit.warm_started { "warm" } else { "cold" },
                refit.observations,
                refit.constraints,
                refit.solver_iterations,
                refit.wall_time,
            );
        } else {
            println!(
                "batch {batch_number:2}: ingested, {} tuples pending refresh",
                engine.pending()
            );
        }
    }

    // Drain anything the policy hasn't picked up yet, then stop the reader.
    if engine.pending() > 0 {
        let refit = engine.refresh().expect("final refresh");
        println!(
            "final refresh: v{} over {} tuples ({} solver sweeps)",
            refit.version, refit.observations, refit.solver_iterations
        );
    }
    stop.store(true, Ordering::Relaxed);
    let answered = reader.join().expect("reader thread");

    let snapshot = engine.snapshot().expect("at least one snapshot");
    let kb = snapshot.knowledge_base();
    println!(
        "\ndone: {} tuples ingested, {} refits, reader answered {} queries live",
        engine.total_ingested(),
        engine.refit_count(),
        answered
    );
    println!(
        "final knowledge base: v{}, constraint orders {:?}, entropy {:.4} nats",
        snapshot.version(),
        kb.order_histogram(),
        kb.entropy()
    );

    // Show that the discovered structure tracks the planted interactions.
    println!("\nplanted interactions vs discovered constraints:");
    for planted in pka::datagen::survey::true_interactions() {
        let found = kb.constraints().contains(&planted);
        println!(
            "  {} — {}",
            planted.describe(kb.schema()),
            if found { "discovered" } else { "not promoted (may be implied)" }
        );
    }
}
