//! Criterion micro-benchmarks of the linear-algebra kernels that
//! dominate a tri-clustering iteration: sparse×dense products, Gram
//! matrices, the multiplicative update, and factored objective
//! evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tgs_linalg::{
    approx_error_tri, mult_update, mult_update_from_parts, random_factor, set_simd_tier_override,
    split_pos_neg, CscView, CsrMatrix, DenseMatrix, SimdTier,
};

/// A random sparse matrix with ~`nnz_per_row` entries per row (shared
/// builder; this bench's historical value range is `0.1..2.0`).
fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    tgs_bench::common::random_csr(rows, cols, nnz_per_row, 0.1..2.0, seed)
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    for &n in &[1_000usize, 10_000, 40_000] {
        let x = random_csr(n, 3_000, 10, 7);
        let d = random_factor(3_000, 3, 8);
        group.bench_with_input(BenchmarkId::new("mul_dense", n), &n, |b, _| {
            b.iter(|| black_box(x.mul_dense(&d)))
        });
        let mut out = DenseMatrix::default();
        group.bench_with_input(BenchmarkId::new("mul_dense_into", n), &n, |b, _| {
            b.iter(|| {
                x.mul_dense_into(&d, &mut out);
                black_box(out.get(0, 0))
            })
        });
        let dt = random_factor(n, 3, 9);
        group.bench_with_input(BenchmarkId::new("transpose_mul_dense", n), &n, |b, _| {
            b.iter(|| black_box(x.transpose_mul_dense(&dt)))
        });
        // Fresh transpose each product vs the cached CscView forward pass.
        group.bench_with_input(BenchmarkId::new("transpose_fresh_spmm", n), &n, |b, _| {
            b.iter(|| black_box(x.transpose().mul_dense(&dt)))
        });
        let csc = CscView::of(&x);
        let mut out_t = DenseMatrix::default();
        group.bench_with_input(BenchmarkId::new("transpose_cached_spmm", n), &n, |b, _| {
            b.iter(|| {
                csc.transpose_mul_dense_into(&dt, &mut out_t);
                black_box(out_t.get(0, 0))
            })
        });
    }
    group.finish();
}

fn bench_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram");
    for &n in &[10_000usize, 100_000] {
        let m = random_factor(n, 3, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(m.gram()))
        });
    }
    group.finish();
}

fn bench_mult_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("mult_update");
    for &n in &[10_000usize, 100_000] {
        let num = random_factor(n, 3, 1);
        let den = random_factor(n, 3, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || random_factor(n, 3, 3),
                |mut s| {
                    mult_update(&mut s, &num, &den);
                    black_box(s)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("factored_objective");
    for &n in &[10_000usize, 40_000] {
        let x = random_csr(n, 3_000, 10, 11);
        let s = random_factor(n, 3, 1);
        let h = random_factor(3, 3, 2);
        let f = random_factor(3_000, 3, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(approx_error_tri(&x, &s, &h, &f)))
        });
    }
    group.finish();
}

/// The fused multiplicative update vs the seed's allocating
/// `add`/`matmul`/`axpy` chain — the per-rule hot path of every sweep.
fn bench_fused_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_update");
    for &(n, k) in &[(10_000usize, 3usize), (10_000, 10), (100_000, 3)] {
        let id = format!("{n}x{k}");
        let num_base = random_factor(n, k, 1);
        let extra = random_factor(n, k, 2);
        let delta = {
            let a = random_factor(k, k, 3);
            let b = random_factor(k, k, 4);
            a.sub(&b) // signed k×k multiplier
        };
        let (dp, dm) = split_pos_neg(&delta);
        let base_k = random_factor(k, k, 5);
        let den_k = base_k.add(&dp);
        let deg: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.3).collect();
        let beta = 0.4;
        let s0 = random_factor(n, k, 6);

        let mut s = s0.clone();
        group.bench_with_input(BenchmarkId::new("term_by_term", &id), &n, |b, _| {
            b.iter(|| {
                // the seed chain: 4 full-size temporaries per update
                let mut num = num_base.add(&s.matmul(&dm));
                num.axpy(beta, &extra);
                let mut den = s.matmul(&den_k);
                let mut du_s = s.clone();
                for (i, &dv) in deg.iter().enumerate() {
                    for v in du_s.row_mut(i) {
                        *v *= dv;
                    }
                }
                den.axpy(beta, &du_s);
                mult_update(&mut s, &num, &den);
                black_box(s.get(0, 0))
            })
        });
        let mut s = s0.clone();
        group.bench_with_input(BenchmarkId::new("fused", &id), &n, |b, _| {
            b.iter(|| {
                mult_update_from_parts(
                    &mut s,
                    &num_base,
                    None,
                    &dm,
                    &den_k,
                    &[(beta, &extra)],
                    Some((beta, &deg)),
                    0.0,
                    None,
                );
                black_box(s.get(0, 0))
            })
        });
    }
    group.finish();
}

/// The SIMD-dispatch A/B series: every hot kernel measured with the
/// tier forced to `scalar` and with the detected tier (`dispatched` —
/// check the `simd` field in `tgs stream --stats`, or
/// `tgs_linalg::simd_tier_name()`, for what that resolves to on the
/// bench host). Results are bit-identical across tiers by construction
/// (asserted by `tests/simd_parity.rs`); this series records the speed
/// delta per kernel so perf reports can attribute wins to dispatch vs
/// fusion.
fn bench_simd_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_kernels");
    let (n, k) = (40_000usize, 10usize);
    let s0 = random_factor(n, k, 3);
    let num_base = random_factor(n, k, 1);
    let extra = random_factor(n, k, 2);
    let delta = random_factor(k, k, 4).sub(&random_factor(k, k, 5));
    let (dp, dm) = split_pos_neg(&delta);
    let den_k = random_factor(k, k, 6).add(&dp);
    let deg: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.3).collect();
    let x = random_csr(n, 3_000, 10, 7);
    let d3k = random_factor(3_000, k, 8);
    let pair_x = random_factor(n, k, 9);
    let pair_y = random_factor(n, k, 10);

    for (mode, tier) in [
        ("scalar", Some(SimdTier::Scalar)),
        ("dispatched", None::<SimdTier>),
    ] {
        set_simd_tier_override(tier);
        let mut s = s0.clone();
        let mut gram = DenseMatrix::default();
        group.bench_with_input(
            BenchmarkId::new(mode, "fused_update_gram_40000x10"),
            &n,
            |b, _| {
                b.iter(|| {
                    mult_update_from_parts(
                        &mut s,
                        &num_base,
                        None,
                        &dm,
                        &den_k,
                        &[(0.4, &extra)],
                        Some((0.4, &deg)),
                        0.0,
                        Some(&mut gram),
                    );
                    black_box(s.get(0, 0))
                })
            },
        );
        let mut g = DenseMatrix::default();
        group.bench_with_input(BenchmarkId::new(mode, "gram_40000x10"), &n, |b, _| {
            b.iter(|| {
                s0.gram_into(&mut g);
                black_box(g.get(0, 0))
            })
        });
        let mut out = DenseMatrix::default();
        group.bench_with_input(BenchmarkId::new(mode, "spmm_40000x10"), &n, |b, _| {
            b.iter(|| {
                x.mul_dense_into(&d3k, &mut out);
                black_box(out.get(0, 0))
            })
        });
        let (mut ox, mut oy) = (DenseMatrix::default(), DenseMatrix::default());
        group.bench_with_input(
            BenchmarkId::new(mode, "transpose_matmul_pair_40000x10"),
            &n,
            |b, _| {
                b.iter(|| {
                    s0.transpose_matmul_pair_into(&pair_x, &pair_y, &mut ox, &mut oy);
                    black_box(ox.get(0, 0))
                })
            },
        );
        let mut mt = DenseMatrix::default();
        group.bench_with_input(
            BenchmarkId::new(mode, "matmul_transpose_40000x10"),
            &n,
            |b, _| {
                b.iter(|| {
                    s0.matmul_transpose_into(&dm, &mut mt);
                    black_box(mt.get(0, 0))
                })
            },
        );
    }
    set_simd_tier_override(None);
    group.finish();
}

/// The kernels the solver runs at the paper's rank, `k = 3`, at the
/// vocabulary sizes `l` the benchmark workloads reach: 350 (firehose,
/// dashboard, fleet_tcp) and 2,600 (backfill). At this width per-row
/// overhead, not arithmetic, sets the time, which the `k = 10` series
/// above hide. Each row drives one kernel the way the `Sf` update rule
/// does (`l × 3` factors, `3 × 3` right factors). Also stamps the box
/// into the JSON artifact.
fn bench_thin_k(c: &mut Criterion) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    c.stamp("nproc", nproc);
    c.stamp("simd", tgs_linalg::simd_tier_name());
    c.stamp("threads", tgs_linalg::pool_threads());
    let k = 3usize;
    let mut group = c.benchmark_group("thin_k");
    for &l in &[350usize, 2_600] {
        let sf = random_factor(l, k, 1);
        let e1 = random_factor(l, k, 2);
        let e2 = random_factor(l, k, 3);
        let target = random_factor(l, k, 4);
        let hu = random_factor(k, k, 5);
        let (dp, dm) = split_pos_neg(&random_factor(k, k, 6).sub(&random_factor(k, k, 7)));
        let den_k = random_factor(k, k, 8).add(&dp);
        // Xuᵀ: one row per word, ~12 users each, against Su (users × k).
        let xut = random_csr(l, 2_000, 12, 9);
        let su = random_factor(2_000, k, 10);
        let rows: Vec<usize> = (0..l).step_by(3).collect();
        let block = random_factor(rows.len(), k, 11);

        let mut out = DenseMatrix::default();
        group.bench_with_input(BenchmarkId::new("matmul_into", l), &l, |b, _| {
            b.iter(|| {
                e1.matmul_into(&hu, &mut out);
                black_box(out.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("matmul_transpose_into", l), &l, |b, _| {
            b.iter(|| {
                e1.matmul_transpose_into(&hu, &mut out);
                black_box(out.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("transpose_matmul_into", l), &l, |b, _| {
            b.iter(|| {
                sf.transpose_matmul_into(&e1, &mut out);
                black_box(out.get(0, 0))
            })
        });
        let (mut ox, mut oy) = (DenseMatrix::default(), DenseMatrix::default());
        group.bench_with_input(
            BenchmarkId::new("transpose_matmul_pair_into", l),
            &l,
            |b, _| {
                b.iter(|| {
                    sf.transpose_matmul_pair_into(&e1, &e2, &mut ox, &mut oy);
                    black_box(ox.get(0, 0))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("gram_into", l), &l, |b, _| {
            b.iter(|| {
                sf.gram_into(&mut out);
                black_box(out.get(0, 0))
            })
        });
        let mut scattered = sf.clone();
        group.bench_with_input(BenchmarkId::new("scatter_rows_with_gram", l), &l, |b, _| {
            b.iter(|| {
                scattered.scatter_rows_with_gram(&rows, &block, &mut out);
                black_box(out.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("mul_dense_into", l), &l, |b, _| {
            b.iter(|| {
                xut.mul_dense_into(&su, &mut out);
                black_box(out.get(0, 0))
            })
        });
        let mut s = sf.clone();
        let mut gram = DenseMatrix::default();
        group.bench_with_input(BenchmarkId::new("fused_update_gram", l), &l, |b, _| {
            b.iter(|| {
                // the Sf rule's call: two data terms, a target axpy and
                // a proximal denominator term
                mult_update_from_parts(
                    &mut s,
                    &e1,
                    Some(&e2),
                    &dm,
                    &den_k,
                    &[(0.4, &target)],
                    None,
                    0.4,
                    Some(&mut gram),
                );
                black_box(s.get(0, 0))
            })
        });
    }
    group.finish();
}

fn bench_dense_small(c: &mut Criterion) {
    let k = 3usize;
    let a: DenseMatrix = random_factor(k, k, 4);
    let b2: DenseMatrix = random_factor(k, k, 5);
    c.bench_function("kxk_matmul", |b| b.iter(|| black_box(a.matmul(&b2))));
}

/// The spawn-overhead A/B behind the PR 6 worker pool: the same
/// row-chunked dispatch (2 chunks, near-trivial per-row body) issued
/// through the persistent pool vs through a fresh `std::thread::scope`
/// spawn per call — the pre-pool implementation. The per-row work is
/// kept tiny so the series prices *dispatch* (queue hand-off + futex
/// wake vs pthread create/join), which is what every below-threshold
/// kernel call used to pay.
fn bench_pool_overhead(c: &mut Criterion) {
    use tgs_linalg::parallel::for_each_row_chunk;
    use tgs_linalg::{set_parallel_work_threshold, set_pool_threads_override};

    let mut group = c.benchmark_group("pool_overhead");
    let prev_t = set_pool_threads_override(Some(2));
    let prev_w = set_parallel_work_threshold(1);
    for &rows in &[1_000usize, 10_000, 100_000] {
        let width = 3usize;
        let mut buf = vec![0.0f64; rows * width];
        let body = |first_row: usize, chunk: &mut [f64]| {
            for (local, out_row) in chunk.chunks_exact_mut(width).enumerate() {
                let r = (first_row + local) as f64;
                for v in out_row.iter_mut() {
                    *v = r * 0.5 + 1.0;
                }
            }
        };
        group.bench_with_input(BenchmarkId::new("pooled", rows), &rows, |b, _| {
            b.iter(|| {
                for_each_row_chunk(rows, usize::MAX, &mut buf, width, body);
                black_box(buf[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("scoped_spawn", rows), &rows, |b, _| {
            b.iter(|| {
                // the pre-pool dispatch: fresh OS threads per call, same
                // 2-chunk boundaries
                let rows_per_chunk = rows.div_ceil(2);
                std::thread::scope(|s| {
                    for (ci, chunk) in buf.chunks_mut(rows_per_chunk * width).enumerate() {
                        s.spawn(move || body(ci * rows_per_chunk, chunk));
                    }
                });
                black_box(buf[0])
            })
        });
    }
    set_parallel_work_threshold(prev_w);
    set_pool_threads_override(prev_t);
    group.finish();
}

/// Multi-core scaling of the two row-parallel kernel shapes — the
/// chunked map (`mult_update`, disjoint row writes) and the blocked
/// reduction (`gram`, block-ordered partial fold) — at pool budgets
/// 1/2/4. On a multi-core host these are the kernel scaling curves; on
/// a single-vCPU host every budget shares one core, so the spread
/// prices pure pool-dispatch overhead instead (see PERF.md).
fn bench_thread_scaling(c: &mut Criterion) {
    use tgs_linalg::{set_parallel_work_threshold, set_pool_threads_override};

    let n = 100_000usize;
    let mut group = c.benchmark_group("thread_scaling");
    let prev_w = set_parallel_work_threshold(1);
    for &threads in &[1usize, 2, 4] {
        let prev_t = set_pool_threads_override(Some(threads));
        let m = random_factor(n, 3, 3);
        group.bench_with_input(BenchmarkId::new("gram_100k", threads), &threads, |b, _| {
            b.iter(|| black_box(m.gram()))
        });
        let num = random_factor(n, 3, 1);
        let den = random_factor(n, 3, 2);
        let mut s = random_factor(n, 3, 4);
        group.bench_with_input(
            BenchmarkId::new("mult_update_100k", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    mult_update(&mut s, &num, &den);
                    black_box(s.get(0, 0))
                })
            },
        );
        set_pool_threads_override(prev_t);
    }
    set_parallel_work_threshold(prev_w);
    group.finish();
}

/// The `TGS_PREFETCH` sweep: CSR-gather SpMM with the software-prefetch
/// lookahead forced to 0 (hints off) / 2 / 4 / 8 (default). Distance
/// never changes the computed bits (asserted in `pool_parity.rs`), so
/// the series records latency-hiding quality only.
fn bench_prefetch_sweep(c: &mut Criterion) {
    use tgs_linalg::set_prefetch_lookahead;

    let n = 40_000usize;
    let x = random_csr(n, 3_000, 10, 7);
    let d = random_factor(3_000, 3, 8);
    let mut out = DenseMatrix::default();
    let mut group = c.benchmark_group("spmm_prefetch");
    let prev = set_prefetch_lookahead(Some(8));
    for &distance in &[0usize, 2, 4, 8] {
        set_prefetch_lookahead(Some(distance));
        group.bench_with_input(
            BenchmarkId::new("mul_dense_into_40k", distance),
            &distance,
            |b, _| {
                b.iter(|| {
                    x.mul_dense_into(&d, &mut out);
                    black_box(out.get(0, 0))
                })
            },
        );
    }
    set_prefetch_lookahead(Some(prev));
    group.finish();
}

criterion_group!(
    benches,
    bench_thin_k,
    bench_spmm,
    bench_gram,
    bench_mult_update,
    bench_fused_update,
    bench_simd_kernels,
    bench_objective,
    bench_dense_small,
    bench_pool_overhead,
    bench_thread_scaling,
    bench_prefetch_sweep
);
criterion_main!(benches);
