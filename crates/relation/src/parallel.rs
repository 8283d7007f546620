//! Thread budgeting for the deterministic parallel grouping engine.
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
//! **Determinism guarantee:** the budget only chooses *how many chunks* the
//! row scan is partitioned into; chunk results are merged in chunk order so
//! first-appearance group numbering — and therefore `GroupIds`,
//! `GroupCounts` and every measure derived from them — is **bit-identical**
//! to the serial kernel at any budget (property-tested in
//! `tests/prop_parallel.rs`).

use std::num::NonZeroUsize;

/// Minimum number of rows a parallel grouping worker must have to be worth
/// spawning.  Below `2 × MIN_CHUNK_ROWS` total rows the kernel always runs
/// serially: thread spawn plus merge overhead would dominate.
pub const MIN_CHUNK_ROWS: usize = 4096;

/// Hard ceiling on the number of chunks (and therefore spawned OS threads)
/// of one parallel grouping, regardless of the requested worker count.
/// Far above any real hardware budget, but low enough that a pathological
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
