//! Deterministic batched query execution.
//!
//! Discovery workloads arrive in bursts (LakeBench-style benchmark sweeps,
//! a client batch a shard server answers for the coordinator), and
//! per-request overhead — thread-local scratch warm-up, index-root cache
//! misses, per-call bookkeeping — dominates when queries are issued one
//! at a time. [`run_batch`] amortizes it: a batch of independent
//! read-only queries is chunked across the machine's cores with
//! `std::thread::scope`, each worker answering its contiguous slice
//! sequentially.
//!
//! A batch is a map of singles: there are no per-family batch methods.
//! Callers map a family's single-query entry point over the batch — as
//! td-serve does for a `Request::Batch` frame.
//!
//! Determinism contract: every query is answered by the *same* per-query
//! code path the sequential API uses, against the same immutable index
//! state, and results are returned in input order — so a batched answer is
//! byte-identical to the sequential one regardless of core count or
//! scheduling. The equivalence tests in `crates/core/tests/batch.rs` pin
//! this for all eight search families and the six shard-plane entry
//! points.

/// Answer every query in `queries` with `f`, in parallel, returning
/// results in input order.
///
/// `f` must be a pure function of the query and shared immutable state
/// (all pipeline `search_*` methods qualify: they take `&self`). Batches
/// of one — and machines reporting a single core — run inline without
/// spawning; otherwise the first chunk runs on the calling thread and
/// each further chunk on a scoped thread.
pub fn run_batch<Q, R, F>(queries: &[Q], f: F) -> Vec<R>
where
    Q: Sync,
    R: Send,
    F: Fn(&Q) -> R + Sync,
{
    let n = queries.len();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return queries.iter().map(&f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let fill = |slot: &mut [Option<R>], qchunk: &[Q]| {
        for (s, q) in slot.iter_mut().zip(qchunk) {
            *s = Some(f(q));
        }
    };
    std::thread::scope(|scope| {
        let (first_slot, mut rest) = out.split_at_mut(chunk);
        let mut chunks = queries.chunks(chunk);
        let first = chunks.next().unwrap_or_default();
        for qchunk in chunks {
            let (slot, tail) = rest.split_at_mut(qchunk.len());
            rest = tail;
            let fill = &fill;
            // One worker per further contiguous chunk; workers only touch
            // their own output slots, and the scope joins them all before
            // `out` is read.
            scope.spawn(move || fill(slot, qchunk));
        }
        // The first chunk runs on the calling thread, so thread-local
        // state the caller set up (an attached request trace) sees the
        // first query's work.
        fill(first_slot, first);
    });
    let results: Vec<R> = out.into_iter().flatten().collect();
    debug_assert_eq!(results.len(), n, "every slot is filled before join");
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let queries: Vec<u64> = (0..100).collect();
        let got = run_batch(&queries, |&q| q * q);
        let want: Vec<u64> = queries.iter().map(|&q| q * q).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn first_query_runs_on_the_calling_thread() {
        // Thread-local state the caller attached (a request trace) must
        // see the first query's work, whatever the core count.
        let caller = std::thread::current().id();
        let queries: Vec<u32> = (0..16).collect();
        let got = run_batch(&queries, |_| std::thread::current().id());
        assert_eq!(got[0], caller);
    }

    #[test]
    fn empty_and_single_batches_work() {
        let none: Vec<u32> = Vec::new();
        assert!(run_batch(&none, |&q| q).is_empty());
        assert_eq!(run_batch(&[41u32], |&q| q + 1), vec![42]);
    }

    #[test]
    fn uneven_chunks_cover_every_query() {
        // Sizes around core-count boundaries exercise the chunk math.
        for n in [2usize, 3, 5, 7, 8, 13, 16, 17, 31] {
            let queries: Vec<usize> = (0..n).collect();
            assert_eq!(run_batch(&queries, |&q| q), queries, "n={n}");
        }
    }

    #[test]
    fn borrows_shared_state() {
        let corpus: Vec<String> = (0..10).map(|i| format!("doc{i}")).collect();
        let queries = [3usize, 7, 0];
        let got = run_batch(&queries, |&q| corpus[q].clone());
        assert_eq!(got, vec!["doc3", "doc7", "doc0"]);
    }
}
