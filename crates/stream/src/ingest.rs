//! Batch ingestion: validation, sharded parallel tabulation, and merging.
//!
//! The hot path of the streaming engine is turning a batch of raw tuples
//! into contingency counts.  [`tabulate_sharded`] splits a batch into `k`
//! contiguous chunks and tabulates each chunk on its own OS thread via
//! `std::thread::scope` (the vendored-dependency build has no rayon; scoped
//! threads give the same fork-join shape with zero dependencies), producing
//! one [`CountShard`] per worker.  Because shard merge is associative and
//! commutative, the result is bit-identical to a sequential pass.
//!
//! Each tuple is validated exactly once, by the checked increment inside
//! the worker that counts it — there is no separate validation pass and no
//! per-row allocation.  Callers that need all-or-nothing batch semantics
//! (the engine does) get them by treating the returned shards as scratch:
//! an `Err` means some row was rejected, and the partial shards are simply
//! dropped.

use crate::shard::CountShard;
use crate::Result;
use pka_contingency::{Sample, Schema};
use std::sync::Arc;

/// Minimum rows per worker before parallel tabulation pays for its thread
/// spawns: counting a tuple is tens of nanoseconds of memory-bound work,
/// so a thread needs thousands of them to amortise its ~10 µs spawn/join.
const MIN_ROWS_PER_WORKER: usize = 8192;

/// Validates every row of a batch against the schema, returning owned
/// samples.  All-or-nothing: a single bad row rejects the whole batch.
///
/// This is a convenience for callers that want to keep validated [`Sample`]s
/// around; the tabulation path does **not** need it — [`tabulate_sharded`]
/// validates as it counts.
pub fn validate_batch<R: AsRef<[usize]>>(schema: &Schema, rows: &[R]) -> Result<Vec<Sample>> {
    rows.iter()
        .map(|r| Sample::validated(schema, r.as_ref().to_vec()).map_err(crate::StreamError::from))
        .collect()
}

/// Tabulates a batch of raw rows into up to `shard_count` count shards.
///
/// The batch is split into contiguous chunks; each chunk is counted
/// independently (in parallel once every worker has
/// `MIN_ROWS_PER_WORKER`-ish rows to chew on — below that threshold a
/// single inline pass is faster than spawning threads) and returned as its
/// own shard so the caller can keep per-worker counts or merge them with
/// [`merge_shards`].  Fewer shards than requested are returned for small
/// batches.
///
/// Rows are validated by the counting itself (checked cell lookup), exactly
/// once per row.  On the first invalid row an `Err` is returned and the
/// partially built shards are dropped, so the result is all-or-nothing.
pub fn tabulate_sharded<R: AsRef<[usize]> + Sync>(
    schema: &Arc<Schema>,
    rows: &[R],
    shard_count: usize,
) -> Result<Vec<CountShard>> {
    let shard_count = shard_count.max(1);
    if rows.is_empty() {
        return Ok(Vec::new());
    }

    // Below the parallel threshold a single inline pass wins.
    if shard_count == 1 || rows.len() < 2 * MIN_ROWS_PER_WORKER {
        let mut shard = CountShard::new(Arc::clone(schema));
        for row in rows {
            shard.record(row.as_ref())?;
        }
        return Ok(vec![shard]);
    }

    // Cap the fan-out so every worker gets a meaningful slice.
    let workers = shard_count.min(rows.len() / MIN_ROWS_PER_WORKER).max(2);
    let chunk_size = rows.len().div_ceil(workers);
    let shards: Vec<Result<CountShard>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk_size)
            .map(|chunk| {
                let schema = Arc::clone(schema);
                scope.spawn(move || {
                    let mut shard = CountShard::new(schema);
                    for row in chunk {
                        shard.record(row.as_ref())?;
                    }
                    Ok(shard)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tabulation worker panicked")).collect()
    });
    shards.into_iter().collect()
}

/// Folds any number of shards into one.  Returns the empty shard over
/// `schema` for an empty input.
pub fn merge_shards(schema: &Arc<Schema>, shards: Vec<CountShard>) -> Result<CountShard> {
    shards.into_iter().try_fold(CountShard::new(Arc::clone(schema)), CountShard::merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::ContingencyTable;

    fn schema() -> Arc<Schema> {
        Schema::uniform(&[3, 2]).unwrap().into_shared()
    }

    fn rows(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![i % 3, (i / 3) % 2]).collect()
    }

    #[test]
    fn validate_batch_is_all_or_nothing() {
        let s = schema();
        assert_eq!(validate_batch(&s, &rows(10)).unwrap().len(), 10);
        let mut bad = rows(10);
        bad[7] = vec![0, 5];
        assert!(validate_batch(&s, &bad).is_err());
    }

    #[test]
    fn sharded_tabulation_matches_sequential_for_any_shard_count() {
        let s = schema();
        // Enough rows to cross the parallel threshold so both the inline
        // and the threaded path are exercised.
        let data = rows(2 * MIN_ROWS_PER_WORKER + 101);
        let mut sequential = ContingencyTable::zeros(Arc::clone(&s));
        for row in &data {
            sequential.increment(row).unwrap();
        }
        for k in [1, 2, 3, 7, 16, 500] {
            let shards = tabulate_sharded(&s, &data, k).unwrap();
            let merged = merge_shards(&s, shards).unwrap();
            assert_eq!(merged.into_table(), sequential, "shard_count = {k}");
        }
        // Small batches take the inline path and still match.
        let small = rows(101);
        let mut small_sequential = ContingencyTable::zeros(Arc::clone(&s));
        for row in &small {
            small_sequential.increment(row).unwrap();
        }
        let merged = merge_shards(&s, tabulate_sharded(&s, &small, 4).unwrap()).unwrap();
        assert_eq!(merged.into_table(), small_sequential);
    }

    #[test]
    fn invalid_rows_reject_the_whole_batch() {
        let s = schema();
        // Inline path.
        let mut bad = rows(100);
        bad[50] = vec![9, 9];
        assert!(tabulate_sharded(&s, &bad, 4).is_err());
        // Threaded path.
        let mut big_bad = rows(3 * MIN_ROWS_PER_WORKER);
        big_bad[MIN_ROWS_PER_WORKER + 1] = vec![9, 9];
        assert!(tabulate_sharded(&s, &big_bad, 4).is_err());
    }

    #[test]
    fn empty_batch_yields_no_shards() {
        let s = schema();
        assert!(tabulate_sharded(&s, &rows(0), 4).unwrap().is_empty());
        let merged = merge_shards(&s, Vec::new()).unwrap();
        assert!(merged.is_empty());
    }
}
