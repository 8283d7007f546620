//! Thread budgeting and the one ordered fan-out of the workspace.
//!
//! Every measure in the paper reduces to group counts on attribute subsets
//! (eq. 4/7, Theorem 3.2), so grouping throughput is the hardware ceiling
//! for the whole analysis stack.  The grouping kernel
//! ([`crate::Relation::group_ids_with`]) can therefore partition its row
//! scan across threads — but *who decides how many threads* must be one
//! coherent story, or layers fight each other (a batch fan-out spawning
//! kernels that each spawn their own full complement of workers).
//!
//! [`ThreadBudget`] is that story: a single knob, owned at the top of a
//! computation (an `ajd_core::Analyzer` handle) and passed down per call —
//! a [`crate::AnalysisContext`] stores none of its own.  It defaults to
//! [`std::thread::available_parallelism`] and is clamped so the kernel
//! never shards below [`MIN_CHUNK_ROWS`] rows per worker — for small
//! relations the parallel path degenerates to the serial kernel and costs
//! nothing.
//!
//! [`fan_out`] is the one way work spreads over threads: it maps the
//! indices `0..n` to results **in index order**, with workers pulling the
//! next unclaimed index from a shared counter (work stealing, so a few
//! expensive items do not stall the rest behind a static partition).  It
//! runs at most [`ThreadBudget::workers_for_items`] workers — never more
//! than [`MAX_CHUNK_WORKERS`] — runs inline at one, and hands every item
//! the per-worker share of the budget, so nested layers divide one budget
//! instead of multiplying it.  The chunks of the grouping kernel, the
//! shards of a [`crate::ShardedRelation`], the trees of an
//! `ajd_core::Analyzer` batch and the trials of an experiment all go
//! through it.  Its threads come from `ajd_sync::thread::scope`, so a
//! model-checked build explores its claim protocol like any other.
//!
//! **Determinism guarantee:** the budget only chooses *how many chunks* the
//! row scan is partitioned into; chunk results are merged in chunk order so
//! first-appearance group numbering — and therefore `GroupIds`,
//! `GroupCounts` and every measure derived from them — is **bit-identical**
//! to the serial kernel at any budget (property-tested in
//! `tests/prop_parallel.rs`).

use ajd_sync::atomic::{AtomicUsize, Ordering};
use ajd_sync::thread;
use std::num::NonZeroUsize;

/// Minimum number of rows a parallel grouping worker must have to be worth
/// spawning.  Below `2 × MIN_CHUNK_ROWS` total rows the kernel always runs
/// serially: thread spawn plus merge overhead would dominate.
pub const MIN_CHUNK_ROWS: usize = 4096;

/// Hard ceiling on the workers of one [`fan_out`] (and so on the chunks of
/// one parallel grouping), regardless of the requested budget.  Far above
/// any real hardware budget, but low enough that a pathological budget or
/// `group_ids_chunked(attrs, huge)` call cannot exhaust the process's
/// thread limit (`std::thread::scope` would abort on a failed spawn).
pub const MAX_CHUNK_WORKERS: usize = 256;

/// How many threads a computation may use — the single parallelism knob of
/// the workspace.
///
/// A budget is a *cap*, not a demand: the grouping kernel spawns fewer
/// workers when the relation is too small to shard profitably (see
/// [`ThreadBudget::workers_for_rows`]), and exactly one (i.e. runs inline)
/// for [`ThreadBudget::serial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget(NonZeroUsize);

impl ThreadBudget {
    /// A budget of exactly one thread: everything runs inline on the caller.
    pub fn serial() -> Self {
        ThreadBudget(NonZeroUsize::MIN)
    }

    /// The machine's available parallelism
    /// ([`std::thread::available_parallelism`]), falling back to one thread
    /// when the platform cannot report it.
    pub fn available() -> Self {
        ThreadBudget(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// An explicit budget of `threads` threads (zero is clamped to one).
    pub fn new(threads: usize) -> Self {
        ThreadBudget(NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"))
    }

    /// The number of threads this budget allows.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// `true` if this budget forces inline execution.
    pub fn is_serial(self) -> bool {
        self.get() == 1
    }

    /// Number of grouping workers to actually spawn for a relation of
    /// `rows` rows: the budget, clamped so every worker scans at least
    /// [`MIN_CHUNK_ROWS`] rows.  Returns 1 (serial) for small relations.
    pub fn workers_for_rows(self, rows: usize) -> usize {
        self.get().min(rows / MIN_CHUNK_ROWS).max(1)
    }

    /// Number of workers a [`fan_out`] over `items` items runs: the
    /// budget, clamped to the item count and to [`MAX_CHUNK_WORKERS`].
    /// Returns 1 (inline) for a serial budget or at most one item.
    pub fn workers_for_items(self, items: usize) -> usize {
        self.get().min(items).clamp(1, MAX_CHUNK_WORKERS)
    }
}

/// The default budget is the machine's available parallelism — the
/// "as fast as the hardware allows" setting every top-level entry point
/// (`Analyzer`, `SchemaMiner::mine`) starts from.
impl Default for ThreadBudget {
    fn default() -> Self {
        Self::available()
    }
}

impl From<usize> for ThreadBudget {
    fn from(threads: usize) -> Self {
        Self::new(threads)
    }
}

/// Maps the indices `0..n` through `f` and returns the results **in index
/// order**, computing them on up to [`ThreadBudget::workers_for_items`]
/// scoped workers.
///
/// Workers claim indices from one shared counter, so every index is
/// computed exactly once, by whichever worker is free first.  `f` receives
/// the index and the per-worker share of `budget` (`budget / workers`,
/// at least 1) for any parallelism of its own; with one worker the loop
/// runs inline on the caller and `f` gets the whole budget.  The result
/// does not depend on which worker computed which index, so a
/// deterministic `f` gives the same vector at every budget.
pub fn fan_out<T, F>(n: usize, budget: ThreadBudget, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, ThreadBudget) -> T + Sync,
{
    let workers = budget.workers_for_items(n);
    if workers <= 1 {
        return (0..n).map(|i| f(i, budget)).collect();
    }
    let share = ThreadBudget::new(budget.get() / workers);
    let next = AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, T)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i, share)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in claimed.into_iter().flatten() {
        if out[i].replace(value).is_some() {
            unreachable!("fan-out index {i} claimed twice");
        }
    }
    out.into_iter()
        .map(|value| value.expect("every index is claimed"))
        .collect()
}

/// Splits `rows` into `workers` contiguous, near-equal chunks in row order
/// (the first `rows % workers` chunks are one row longer).  Empty chunks are
/// produced when `workers > rows` so chunk indices stay aligned.
pub(crate) fn chunk_bounds(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1);
    let base = rows / workers;
    let extra = rows % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        bounds.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, rows);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_clamps_and_reports() {
        assert_eq!(ThreadBudget::serial().get(), 1);
        assert!(ThreadBudget::serial().is_serial());
        assert_eq!(ThreadBudget::new(0).get(), 1);
        assert_eq!(ThreadBudget::new(6).get(), 6);
        assert!(!ThreadBudget::new(6).is_serial());
        assert_eq!(ThreadBudget::from(3).get(), 3);
        assert!(ThreadBudget::available().get() >= 1);
        assert_eq!(ThreadBudget::default(), ThreadBudget::available());
    }

    #[test]
    fn workers_respect_min_chunk() {
        let b = ThreadBudget::new(8);
        // Tiny relations run serially regardless of the budget.
        assert_eq!(b.workers_for_rows(0), 1);
        assert_eq!(b.workers_for_rows(MIN_CHUNK_ROWS - 1), 1);
        assert_eq!(b.workers_for_rows(2 * MIN_CHUNK_ROWS), 2);
        // Large relations get the full budget, never more.
        assert_eq!(b.workers_for_rows(100 * MIN_CHUNK_ROWS), 8);
        assert_eq!(ThreadBudget::serial().workers_for_rows(1 << 20), 1);
    }

    /// The fan-out's ceiling is pure arithmetic, so even an absurd budget
    /// over an absurd item count is checked without spawning anything.
    #[test]
    fn fan_out_workers_are_clamped() {
        let huge = ThreadBudget::new(1 << 20);
        assert_eq!(huge.workers_for_items(1 << 20), MAX_CHUNK_WORKERS);
        assert_eq!(MAX_CHUNK_WORKERS, 256);
        assert_eq!(huge.workers_for_items(3), 3);
        assert_eq!(ThreadBudget::new(4).workers_for_items(100), 4);
        assert_eq!(ThreadBudget::serial().workers_for_items(100), 1);
        assert_eq!(huge.workers_for_items(0), 1);
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = fan_out(10, ThreadBudget::new(threads), |i, _| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(fan_out(0, ThreadBudget::new(4), |i, _| i).is_empty());
        // Items get the per-worker share; inline, the whole budget.
        let shares = fan_out(2, ThreadBudget::new(6), |_, share| share.get());
        assert_eq!(shares, vec![3, 3]);
        let inline = fan_out(1, ThreadBudget::new(6), |_, share| share.get());
        assert_eq!(inline, vec![6]);
    }

    #[test]
    fn chunks_partition_contiguously() {
        for (rows, workers) in [(10, 3), (4096, 4), (7, 9), (0, 2), (1, 1)] {
            let bounds = chunk_bounds(rows, workers);
            assert_eq!(bounds.len(), workers);
            let mut expect = 0;
            for &(s, e) in &bounds {
                assert_eq!(s, expect);
                assert!(e >= s);
                expect = e;
            }
            assert_eq!(expect, rows);
        }
        // Balanced: chunk lengths differ by at most one.
        let bounds = chunk_bounds(10, 3);
        let lens: Vec<usize> = bounds.iter().map(|&(s, e)| e - s).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }
}
