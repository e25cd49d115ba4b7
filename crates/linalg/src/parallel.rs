//! Row-chunked parallelism on the persistent worker pool.
//!
//! Matrix kernels in this workspace are embarrassingly row-parallel: each
//! output row depends on one input row. Rather than pulling in a thread-pool
//! dependency we split the output buffer into disjoint row chunks and run
//! them as tasks on the process-wide worker pool — long-lived workers
//! parked on a condvar, replacing the per-call `std::thread::scope` spawns
//! these primitives used before. Small problems stay single-threaded to
//! avoid dispatch overhead entirely.
//!
//! Determinism: chunk boundaries and the blocked-reduction summation tree
//! are computed here, exactly as in the scoped-thread era, so every kernel
//! built on these primitives is **bit-identical** at every thread count
//! and on every machine (see [`REDUCE_BLOCK_ROWS`]).
//!
//! Two tunables govern dispatch:
//!
//! * the *work threshold* (estimated multiply-adds below which everything
//!   stays sequential) — process-wide and overridable at runtime via
//!   [`set_parallel_work_threshold`], which benches use to force both
//!   paths and the allocation-counting test uses to pin the sequential
//!   path;
//! * the *thread budget* — `TGS_THREADS` / detected parallelism clamped to
//!   `HARD_THREAD_CAP`, see [`crate::pool::pool_threads`].

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool;

/// Default work (in f64 multiply-adds) below which we stay
/// single-threaded. Pooled dispatch costs far less than the ~10µs thread
/// spawn it replaced, but waking parked workers is still not free; the
/// threshold keeps genuinely small kernels inline.
pub(crate) const DEFAULT_PARALLEL_WORK_THRESHOLD: usize = 2_000_000;

/// Hard upper bound on worker threads regardless of core count: the thin
/// (`rows × k`, small `k`) kernels here are memory-bandwidth-bound well
/// before this.
pub(crate) const HARD_THREAD_CAP: usize = 32;

static WORK_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PARALLEL_WORK_THRESHOLD);

/// Current work threshold for parallel dispatch.
pub(crate) fn parallel_work_threshold() -> usize {
    WORK_THRESHOLD.load(Ordering::Relaxed)
}

/// Overrides the work threshold process-wide. `usize::MAX` disables
/// parallelism entirely; `0` forces it for any non-trivial problem (used
/// by benches to exercise the pooled path on small inputs). Returns the
/// previous value.
pub fn set_parallel_work_threshold(threshold: usize) -> usize {
    WORK_THRESHOLD.swap(threshold, Ordering::Relaxed)
}

/// Worker-thread budget: `TGS_THREADS` (or detected parallelism) clamped
/// to `HARD_THREAD_CAP`, including any
/// [`pool::set_pool_threads_override`] in effect.
pub(crate) fn max_threads() -> usize {
    pool::pool_threads()
}

/// Splits `buf` (holding `rows` logical rows of `row_width` values) into
/// near-equal chunks and invokes `body(first_row, chunk)` for each — as
/// pool tasks when `work` (an estimate of total multiply-adds) is large
/// enough, sequentially otherwise. Results are chunking-independent
/// (each output row is written by exactly one call), so dispatch never
/// changes the answer.
pub fn for_each_row_chunk<F>(rows: usize, work: usize, buf: &mut [f64], row_width: usize, body: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    debug_assert_eq!(buf.len(), rows * row_width);
    let threads = desired_threads(rows, work);
    if threads <= 1 || row_width == 0 {
        body(0, buf);
        return;
    }
    // Same boundaries as the scoped-thread era: ceil-divided row chunks,
    // the last one ragged.
    let rows_per_chunk = rows.div_ceil(threads);
    let n_chunks = rows.div_ceil(rows_per_chunk);
    let chunk_len = rows_per_chunk * row_width;
    let total = buf.len();
    let base = buf.as_mut_ptr() as usize;
    pool::run_tasks(n_chunks, |c| {
        let start = c * chunk_len;
        let take = chunk_len.min(total - start);
        // SAFETY: tasks cover disjoint `[start, start + take)` ranges of
        // `buf`, which outlives the (synchronous) dispatch.
        let chunk = unsafe { std::slice::from_raw_parts_mut((base as *mut f64).add(start), take) };
        body(c * rows_per_chunk, chunk);
    });
}

/// Maximum accumulator length (f64s) supported by [`reduce_rows`]'s
/// per-block stack buffers: `k × k` up to `k = 32`.
pub const MAX_REDUCE_LEN: usize = 1024;

/// Row-block size for [`reduce_rows`]. Fixed (not derived from thread
/// count) so the summation tree — and therefore the floating-point
/// result — is identical on every machine and at every thread count:
/// block partials are always merged in block order.
pub const REDUCE_BLOCK_ROWS: usize = 4096;

/// Parallel reduction over row ranges into a small shared accumulator
/// (Gram matrices, `AᵀB` products): `body(r0, r1, partial)` accumulates
/// rows `[r0, r1)` into `partial` (pre-zeroed, `acc.len()` long).
///
/// Rows are processed in fixed [`REDUCE_BLOCK_ROWS`] blocks whose
/// partials are folded into `acc` in block order — the pooled and
/// sequential paths produce **bit-identical** results, so kernels built
/// on this (e.g. `gram_into`) stay deterministic across machines.
/// Sequential (and allocation-free) when the work estimate is below
/// threshold, when everything fits one block, or when
/// `acc.len() > MAX_REDUCE_LEN`; the pooled path draws its per-block
/// slots from the pool's reusable scratch stack, so it allocates nothing
/// in steady state either.
pub fn reduce_rows<F>(rows: usize, work: usize, acc: &mut [f64], body: F)
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let len = acc.len();
    if rows <= REDUCE_BLOCK_ROWS || len > MAX_REDUCE_LEN {
        body(0, rows, acc);
        return;
    }
    let blocks = rows.div_ceil(REDUCE_BLOCK_ROWS);
    let threads = desired_threads(rows, work).min(blocks);
    if threads <= 1 {
        // Sequential, but over the same fixed blocks the pooled path
        // uses, so both orders of summation are identical.
        let mut partial = [0.0f64; MAX_REDUCE_LEN];
        for b in 0..blocks {
            let r0 = b * REDUCE_BLOCK_ROWS;
            let r1 = (r0 + REDUCE_BLOCK_ROWS).min(rows);
            partial[..len].fill(0.0);
            body(r0, r1, &mut partial[..len]);
            for (a, p) in acc.iter_mut().zip(partial[..len].iter()) {
                *a += p;
            }
        }
        return;
    }
    // One task per fixed block; each writes its partial into a disjoint
    // pre-zeroed slot, folded below in block order.
    pool::with_scratch(blocks * len, |slots| {
        let slot_base = slots.as_mut_ptr() as usize;
        pool::run_tasks(blocks, |b| {
            let r0 = b * REDUCE_BLOCK_ROWS;
            let r1 = (r0 + REDUCE_BLOCK_ROWS).min(rows);
            // SAFETY: slot `b` is the disjoint range `[b·len, (b+1)·len)`
            // of `slots`, which outlives the dispatch.
            let partial = unsafe {
                std::slice::from_raw_parts_mut((slot_base as *mut f64).add(b * len), len)
            };
            body(r0, r1, partial);
        });
        for slot in slots.chunks_exact(len) {
            for (a, p) in acc.iter_mut().zip(slot.iter()) {
                *a += p;
            }
        }
    });
}

/// Combined row-chunked map + blocked reduction: like
/// [`for_each_row_chunk`] for the disjoint output rows in `buf`, but each
/// call also accumulates into a partial that is folded into `acc` with
/// **exactly the reduction structure of [`reduce_rows`]** — fixed
/// [`REDUCE_BLOCK_ROWS`] blocks, partials merged in block order — so a
/// kernel that fuses a per-row update with a Gram-style reduction
/// produces an accumulator bit-identical to running [`reduce_rows`] over
/// the updated rows afterwards, at every thread count.
///
/// `body(first_row, rows_chunk, partial)` must write the owned rows of
/// `buf` (disjoint across calls) and accumulate into `partial`
/// (pre-zeroed). `acc` must be pre-zeroed by the caller. Mirroring
/// [`reduce_rows`], the whole range is handed to one `body` call
/// (`partial` = `acc` directly) when everything fits a single block or
/// when `acc.len() > MAX_REDUCE_LEN`; those regimes are sequential and
/// allocation-free.
pub fn for_each_row_block_reduce<F>(
    rows: usize,
    work: usize,
    buf: &mut [f64],
    row_width: usize,
    acc: &mut [f64],
    body: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    debug_assert_eq!(buf.len(), rows * row_width);
    let len = acc.len();
    if rows <= REDUCE_BLOCK_ROWS || len > MAX_REDUCE_LEN {
        body(0, buf, acc);
        return;
    }
    let blocks = rows.div_ceil(REDUCE_BLOCK_ROWS);
    let block_len = REDUCE_BLOCK_ROWS * row_width;
    let threads = desired_threads(rows, work).min(blocks);
    if threads <= 1 || row_width == 0 {
        // Sequential, but over the same fixed blocks the pooled path
        // uses, so both summation orders are identical.
        let mut partial = [0.0f64; MAX_REDUCE_LEN];
        for (b, chunk) in buf.chunks_mut(block_len.max(1)).enumerate() {
            partial[..len].fill(0.0);
            body(b * REDUCE_BLOCK_ROWS, chunk, &mut partial[..len]);
            for (a, p) in acc.iter_mut().zip(partial[..len].iter()) {
                *a += p;
            }
        }
        return;
    }
    // One task per fixed block: task `b` owns rows-chunk `b` of `buf`
    // and partial slot `b`; partials fold below in block order.
    let total = buf.len();
    let buf_base = buf.as_mut_ptr() as usize;
    pool::with_scratch(blocks * len, |slots| {
        let slot_base = slots.as_mut_ptr() as usize;
        pool::run_tasks(blocks, |b| {
            let start = b * block_len;
            let take = block_len.min(total - start);
            // SAFETY: tasks cover disjoint ranges of `buf` and disjoint
            // `len`-long slots of `slots`; both outlive the dispatch.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut((buf_base as *mut f64).add(start), take) };
            let partial = unsafe {
                std::slice::from_raw_parts_mut((slot_base as *mut f64).add(b * len), len)
            };
            body(b * REDUCE_BLOCK_ROWS, chunk, partial);
        });
        for slot in slots.chunks_exact(len) {
            for (a, p) in acc.iter_mut().zip(slot.iter()) {
                *a += p;
            }
        }
    });
}

fn desired_threads(rows: usize, work: usize) -> usize {
    let threshold = parallel_work_threshold();
    if work < threshold || rows < 2 {
        return 1;
    }
    let by_work = (work / threshold.max(1)).max(1);
    max_threads().min(by_work).min(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_small_work() {
        let mut buf = vec![0.0; 4 * 3];
        for_each_row_chunk(4, 10, &mut buf, 3, |r0, chunk| {
            for (i, row) in chunk.chunks_exact_mut(3).enumerate() {
                row[0] = (r0 + i) as f64;
            }
        });
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[3], 1.0);
        assert_eq!(buf[9], 3.0);
    }

    #[test]
    fn parallel_large_work_covers_all_rows() {
        let rows = 1000;
        let width = 4;
        let mut buf = vec![0.0; rows * width];
        for_each_row_chunk(rows, 100_000_000, &mut buf, width, |r0, chunk| {
            for (i, row) in chunk.chunks_exact_mut(width).enumerate() {
                for v in row.iter_mut() {
                    *v = (r0 + i) as f64;
                }
            }
        });
        for r in 0..rows {
            for c in 0..width {
                assert_eq!(buf[r * width + c], r as f64, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn pooled_chunking_covers_all_rows_at_many_budgets() {
        // Ragged tails: rows deliberately not a multiple of any chunk
        // count; every budget must write every row exactly once.
        let rows = 997;
        let width = 3;
        for budget in [2usize, 3, 5, 8] {
            let prev = crate::pool::set_pool_threads_override(Some(budget));
            let mut buf = vec![-1.0; rows * width];
            for_each_row_chunk(rows, usize::MAX / 2, &mut buf, width, |r0, chunk| {
                for (i, row) in chunk.chunks_exact_mut(width).enumerate() {
                    for v in row.iter_mut() {
                        *v = (r0 + i) as f64;
                    }
                }
            });
            crate::pool::set_pool_threads_override(prev);
            for r in 0..rows {
                assert_eq!(buf[r * width], r as f64, "budget {budget} row {r}");
            }
        }
    }

    #[test]
    fn thread_count_bounds() {
        assert_eq!(desired_threads(100, 10), 1);
        assert!(desired_threads(100, usize::MAX / 2) <= HARD_THREAD_CAP);
        assert_eq!(desired_threads(1, usize::MAX / 2), 1);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn reduce_rows_matches_sequential_sum() {
        // acc[j] = Σ_r (r + j); integer-valued sums are exact, so the
        // blocked orders must agree with the straight sum exactly. Rows
        // exceed one block so the blocked paths are exercised.
        let rows = 3 * REDUCE_BLOCK_ROWS + 17;
        let len = 6;
        let expected: Vec<f64> = (0..len)
            .map(|j| (0..rows).map(|r| (r + j) as f64).sum())
            .collect();
        for work in [10usize, 100_000_000] {
            let mut acc = vec![0.0; len];
            reduce_rows(rows, work, &mut acc, |r0, r1, partial| {
                for r in r0..r1 {
                    for (j, p) in partial.iter_mut().enumerate() {
                        *p += (r + j) as f64;
                    }
                }
            });
            assert_eq!(acc, expected, "work={work}");
        }
    }

    #[test]
    fn reduce_rows_blocked_paths_bit_identical() {
        // Non-associative float data: sequential-blocked and
        // pool-blocked must still agree bit-for-bit because the block
        // boundaries and merge order are fixed.
        let rows = 2 * REDUCE_BLOCK_ROWS + 123;
        let len = 4;
        let value = |r: usize, j: usize| ((r * 31 + j * 7) % 97) as f64 * 0.123 + 0.011;
        let run = |work: usize| {
            let mut acc = vec![0.0; len];
            reduce_rows(rows, work, &mut acc, |r0, r1, partial| {
                for r in r0..r1 {
                    for (j, p) in partial.iter_mut().enumerate() {
                        *p += value(r, j);
                    }
                }
            });
            acc
        };
        let sequential = run(0); // below threshold → sequential blocked path
        let parallel = run(usize::MAX / 2); // pooled path (when budget allows)
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn threshold_override_roundtrips() {
        let prev = set_parallel_work_threshold(123);
        assert_eq!(parallel_work_threshold(), 123);
        set_parallel_work_threshold(prev);
        assert_eq!(parallel_work_threshold(), prev);
    }
}
