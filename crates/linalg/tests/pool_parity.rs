//! Bit-equality proofs for the persistent worker pool: every parallel
//! primitive must produce **identical bits** (`==`, not approximately)
//! whether it runs inline, on the pool at any thread budget, or on the
//! scoped-thread algorithm it replaced — chunk boundaries and the
//! block-ordered partial fold are part of the numeric contract, so the
//! pool migration must be invisible to every published number.
//!
//! The pool budget (`TGS_THREADS` / [`set_pool_threads_override`]) and
//! the work threshold are process-global, so every test here
//! serializes on one mutex instead of trusting libtest's parallel
//! harness.

use std::sync::Mutex;

use proptest::prelude::*;
use tgs_linalg::parallel::{for_each_row_block_reduce, for_each_row_chunk, reduce_rows};
use tgs_linalg::{
    set_parallel_work_threshold, set_pool_threads_override, DenseMatrix, REDUCE_BLOCK_ROWS,
};

/// Serializes tests that touch the process-global pool budget or work
/// threshold.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

/// Runs `f` with the pool budget forced to `threads` and the work
/// threshold forced to 1 (so every primitive takes its parallel path),
/// restoring both afterwards.
fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev_t = set_pool_threads_override(Some(threads));
    let prev_w = set_parallel_work_threshold(1);
    let result = f();
    set_parallel_work_threshold(prev_w);
    set_pool_threads_override(prev_t);
    result
}

/// Deterministic pseudo-random fill with wildly varying magnitudes, so
/// any change in floating-point summation order changes the bits.
fn lcg_fill(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mantissa = ((state >> 11) as f64) / (1u64 << 53) as f64;
            let exp = ((state >> 3) % 17) as i32 - 8;
            (mantissa + 0.5) * 2f64.powi(exp)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Scoped-thread references: faithful replicas of the pre-pool
// algorithms (same ceil-divided chunk boundaries, same fixed
// REDUCE_BLOCK_ROWS blocks folded in block order), run on ad-hoc
// `std::thread::scope` threads exactly like the old implementation.
// ---------------------------------------------------------------------

fn scoped_for_each_row_chunk(
    threads: usize,
    rows: usize,
    buf: &mut [f64],
    row_width: usize,
    body: impl Fn(usize, &mut [f64]) + Sync,
) {
    let rows_per_chunk = rows.div_ceil(threads.max(1));
    let body = &body;
    std::thread::scope(|s| {
        for (c, chunk) in buf
            .chunks_mut((rows_per_chunk * row_width).max(1))
            .enumerate()
        {
            s.spawn(move || body(c * rows_per_chunk, chunk));
        }
    });
}

fn scoped_reduce_rows(
    rows: usize,
    acc: &mut [f64],
    body: impl Fn(usize, usize, &mut [f64]) + Sync,
) {
    let len = acc.len();
    let blocks = rows.div_ceil(REDUCE_BLOCK_ROWS);
    let mut slots = vec![0.0f64; blocks * len];
    let body = &body;
    std::thread::scope(|s| {
        for (b, slot) in slots.chunks_mut(len).enumerate() {
            s.spawn(move || {
                let r0 = b * REDUCE_BLOCK_ROWS;
                let r1 = (r0 + REDUCE_BLOCK_ROWS).min(rows);
                body(r0, r1, slot);
            });
        }
    });
    for slot in slots.chunks_exact(len) {
        for (a, p) in acc.iter_mut().zip(slot.iter()) {
            *a += p;
        }
    }
}

fn scoped_block_reduce(
    rows: usize,
    buf: &mut [f64],
    row_width: usize,
    acc: &mut [f64],
    body: impl Fn(usize, &mut [f64], &mut [f64]) + Sync,
) {
    let len = acc.len();
    let blocks = rows.div_ceil(REDUCE_BLOCK_ROWS);
    let block_len = REDUCE_BLOCK_ROWS * row_width;
    let mut slots = vec![0.0f64; blocks * len];
    let body = &body;
    std::thread::scope(|s| {
        for ((b, chunk), slot) in buf
            .chunks_mut(block_len.max(1))
            .enumerate()
            .zip(slots.chunks_mut(len))
        {
            s.spawn(move || body(b * REDUCE_BLOCK_ROWS, chunk, slot));
        }
    });
    for slot in slots.chunks_exact(len) {
        for (a, p) in acc.iter_mut().zip(slot.iter()) {
            *a += p;
        }
    }
}

// ---------------------------------------------------------------------
// The primitive bodies under test. Each writes/accumulates values that
// depend only on the *global* row index, so any mis-assignment of rows
// to chunks shows up as a bit difference.
// ---------------------------------------------------------------------

fn chunk_body(data: &[f64], width: usize) -> impl Fn(usize, &mut [f64]) + Sync + '_ {
    move |first_row, chunk| {
        for (local, out_row) in chunk.chunks_exact_mut(width).enumerate() {
            let r = first_row + local;
            for (j, v) in out_row.iter_mut().enumerate() {
                *v = data[r * width + j] * 1.5 + r as f64;
            }
        }
    }
}

fn reduce_body(data: &[f64], len: usize) -> impl Fn(usize, usize, &mut [f64]) + Sync + '_ {
    move |r0, r1, partial| {
        for r in r0..r1 {
            for (j, p) in partial.iter_mut().enumerate() {
                *p += data[r * len + j];
            }
        }
    }
}

#[test]
fn chunk_pooled_matches_scoped_and_inline_at_every_budget() {
    let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // 997 rows: not a multiple of any tested budget, so every run has a
    // ragged tail chunk.
    let (rows, width) = (997usize, 3usize);
    let data = lcg_fill(41, rows * width);

    let mut inline = vec![0.0; rows * width];
    chunk_body(&data, width)(0, &mut inline);

    for budget in [1usize, 2, 3, 5, 8] {
        let mut scoped = vec![0.0; rows * width];
        scoped_for_each_row_chunk(budget, rows, &mut scoped, width, chunk_body(&data, width));
        assert_eq!(scoped, inline, "scoped reference differs at {budget}");

        let mut pooled = vec![0.0; rows * width];
        with_budget(budget, || {
            for_each_row_chunk(
                rows,
                usize::MAX,
                &mut pooled,
                width,
                chunk_body(&data, width),
            );
        });
        assert_eq!(
            pooled, inline,
            "pooled chunk run differs at budget {budget}"
        );
    }
}

#[test]
fn reduce_pooled_matches_scoped_reference_bit_for_bit() {
    let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // Three blocks: two full REDUCE_BLOCK_ROWS blocks plus a 517-row
    // ragged tail — the summation-tree shape the contract fixes.
    let (rows, len) = (2 * REDUCE_BLOCK_ROWS + 517, 7usize);
    let data = lcg_fill(42, rows * len);

    let mut scoped = vec![0.0; len];
    scoped_reduce_rows(rows, &mut scoped, reduce_body(&data, len));

    for budget in [1usize, 2, 3, 8] {
        let mut pooled = vec![0.0; len];
        with_budget(budget, || {
            reduce_rows(rows, usize::MAX, &mut pooled, reduce_body(&data, len));
        });
        assert_eq!(
            pooled, scoped,
            "reduce summation tree changed at budget {budget}"
        );
    }
}

#[test]
fn block_reduce_pooled_matches_scoped_reference_bit_for_bit() {
    let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let (rows, width, len) = (2 * REDUCE_BLOCK_ROWS + 901, 3usize, 9usize);
    let data = lcg_fill(43, rows * width.max(len));
    let body = |first_row: usize, chunk: &mut [f64], partial: &mut [f64]| {
        for (local, out_row) in chunk.chunks_exact_mut(width).enumerate() {
            let r = first_row + local;
            for (j, v) in out_row.iter_mut().enumerate() {
                *v = data[r * width + j] + r as f64;
            }
            for (j, p) in partial.iter_mut().enumerate() {
                *p += data[r * width + j % width] * (j + 1) as f64;
            }
        }
    };

    let mut scoped_buf = vec![0.0; rows * width];
    let mut scoped_acc = vec![0.0; len];
    scoped_block_reduce(rows, &mut scoped_buf, width, &mut scoped_acc, body);

    for budget in [1usize, 2, 4, 8] {
        let mut buf = vec![0.0; rows * width];
        let mut acc = vec![0.0; len];
        with_budget(budget, || {
            for_each_row_block_reduce(rows, usize::MAX, &mut buf, width, &mut acc, body);
        });
        assert_eq!(
            buf, scoped_buf,
            "block-reduce rows differ at budget {budget}"
        );
        assert_eq!(
            acc, scoped_acc,
            "block-reduce fold differs at budget {budget}"
        );
    }
}

#[test]
fn gram_identical_across_budgets_and_to_scoped_fold() {
    let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let (rows, k) = (2 * REDUCE_BLOCK_ROWS + 300, 3usize);
    let a = DenseMatrix::from_vec(rows, k, lcg_fill(44, rows * k)).unwrap();

    let mut reference = DenseMatrix::default();
    with_budget(1, || a.gram_into(&mut reference));

    for budget in [2usize, 4, 8] {
        let mut g = DenseMatrix::default();
        with_budget(budget, || a.gram_into(&mut g));
        assert_eq!(g, reference, "gram_into drifted at budget {budget}");
    }
}

#[test]
fn fused_scatter_gram_matches_posthoc_gram_bit_for_bit() {
    let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // Rows span multiple reduction blocks; the scattered subset
    // straddles block boundaries, so the fused kernel must scatter each
    // block's rows before Gram-reading them.
    let (rows, k) = (2 * REDUCE_BLOCK_ROWS + 300, 3usize);
    let scatter_rows: Vec<usize> = (0..rows).step_by(7).collect();
    let block =
        DenseMatrix::from_vec(scatter_rows.len(), k, lcg_fill(45, scatter_rows.len() * k)).unwrap();
    let base = DenseMatrix::from_vec(rows, k, lcg_fill(46, rows * k)).unwrap();

    let mut reference = base.clone();
    let mut ref_gram = DenseMatrix::default();
    with_budget(1, || {
        reference.scatter_rows_from(&scatter_rows, &block);
        reference.gram_into(&mut ref_gram);
    });

    for budget in [1usize, 2, 4] {
        let mut fused = base.clone();
        let mut gram = DenseMatrix::default();
        with_budget(budget, || {
            fused.scatter_rows_with_gram(&scatter_rows, &block, &mut gram);
        });
        assert_eq!(
            fused, reference,
            "fused scatter rows differ at budget {budget}"
        );
        assert_eq!(gram, ref_gram, "fused gram differs at budget {budget}");
    }
}

#[test]
fn pool_survives_contention_from_concurrent_callers() {
    let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // Two caller threads hammer the same pool with independent pooled
    // reductions; neither may deadlock, and each must get exactly the
    // answer it gets when running alone.
    let (rows, k) = (2 * REDUCE_BLOCK_ROWS + 111, 3usize);
    let a = DenseMatrix::from_vec(rows, k, lcg_fill(47, rows * k)).unwrap();
    let b = DenseMatrix::from_vec(rows, k, lcg_fill(48, rows * k)).unwrap();

    let (solo_a, solo_b) = with_budget(4, || {
        let mut ga = DenseMatrix::default();
        let mut gb = DenseMatrix::default();
        a.gram_into(&mut ga);
        b.gram_into(&mut gb);
        (ga, gb)
    });

    with_budget(4, || {
        std::thread::scope(|s| {
            let ha = s.spawn(|| {
                let mut g = DenseMatrix::default();
                for _ in 0..20 {
                    a.gram_into(&mut g);
                }
                g
            });
            let hb = s.spawn(|| {
                let mut g = DenseMatrix::default();
                for _ in 0..20 {
                    b.gram_into(&mut g);
                }
                g
            });
            assert_eq!(ha.join().unwrap(), solo_a, "caller A saw cross-talk");
            assert_eq!(hb.join().unwrap(), solo_b, "caller B saw cross-talk");
        });
    });
}

// Arbitrary row counts (spanning the single-block/multi-block
// boundary), widths, and budgets: pooled chunking must equal the
// inline result bit-for-bit.
proptest! {
    #[test]
    fn pooled_chunk_parity(
        rows in 1usize..6000,
        width in 1usize..5,
        budget in 1usize..9,
        seed in 0u64..1000
    ) {
        let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        let data = lcg_fill(seed, rows * width);
        let mut inline = vec![0.0; rows * width];
        chunk_body(&data, width)(0, &mut inline);
        let mut pooled = vec![0.0; rows * width];
        with_budget(budget, || {
            for_each_row_chunk(rows, usize::MAX, &mut pooled, width, chunk_body(&data, width));
        });
        prop_assert_eq!(pooled, inline);
    }
}

// Reduction parity across the block boundary: pooled fold must
// match the scoped-thread reference at every budget.
proptest! {
    #[test]
    fn pooled_reduce_parity(
        extra in 0usize..2000,
        len in 1usize..6,
        budget in 1usize..9,
        seed in 0u64..1000
    ) {
        let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        let rows = REDUCE_BLOCK_ROWS + extra;
        let data = lcg_fill(seed, rows * len);
        let mut scoped = vec![0.0; len];
        scoped_reduce_rows(rows, &mut scoped, reduce_body(&data, len));
        let mut pooled = vec![0.0; len];
        with_budget(budget, || {
            reduce_rows(rows, usize::MAX, &mut pooled, reduce_body(&data, len));
        });
        prop_assert_eq!(pooled, scoped);
    }
}

// Fused scatter+Gram equals scatter-then-`gram_into` on arbitrary
// small instances (sequential single-block regime).
proptest! {
    #[test]
    fn fused_scatter_gram_small_parity(
        rows in 1usize..40,
        k in 1usize..5,
        seed in 0u64..1000,
        stride in 1usize..6
    ) {
        let _g = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        let scatter: Vec<usize> = (0..rows).step_by(stride).collect();
        let base = DenseMatrix::from_vec(rows, k, lcg_fill(seed, rows * k)).unwrap();
        let block =
            DenseMatrix::from_vec(scatter.len(), k, lcg_fill(seed ^ 0xabcd, scatter.len() * k))
                .unwrap();

        let mut reference = base.clone();
        reference.scatter_rows_from(&scatter, &block);
        let mut ref_gram = DenseMatrix::default();
        reference.gram_into(&mut ref_gram);

        let mut fused = base.clone();
        let mut gram = DenseMatrix::default();
        fused.scatter_rows_with_gram(&scatter, &block, &mut gram);
        prop_assert_eq!(fused, reference);
        prop_assert_eq!(gram, ref_gram);
    }
}
