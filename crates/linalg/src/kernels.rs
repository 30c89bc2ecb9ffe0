//! Chunked, auto-vectorizable data-plane kernels, generic over
//! [`Element`].
//!
//! These are the per-round hot loops of gradient coding: encoding is
//! `g̃_w = Σ_j b_wj·g_j` and decoding is `g = Σ_w a_w·g̃_w` — both sums
//! of scaled rows, which all go through one accumulation kernel,
//! [`axpy_rows`] (driven four rows at a time by [`accumulate_rows`];
//! [`axpy`] is its one-row case, [`block_decode`] its column-blocked
//! `1 × n` by `n × d` product). Everything here is written over
//! `chunks_exact` lanes with explicit scalar tails so LLVM reliably emits
//! SIMD for the chunk bodies, without `unsafe` or per-target intrinsics.
//!
//! # Kernel contract
//!
//! * **Elementwise kernels are bitwise-identical to their scalar
//!   definitions.** [`axpy`] and [`scale`] perform exactly one
//!   multiply and (for `axpy`) one add per element, in index order, with
//!   **no zero-coefficient shortcut**: `0 · NaN` is NaN and `0 · ∞` is
//!   NaN, and those propagate exactly as a scalar loop would propagate
//!   them. (An earlier `vec_ops::axpy` returned early on `alpha == 0.0`,
//!   silently dropping non-finite values from `x`; that shortcut is
//!   gone, and `tests/properties.rs` pins the equivalence on non-finite
//!   inputs.)
//! * **The multi-row kernel preserves row order.** [`axpy_rows`] adds
//!   `alpha[r]·xs[r][i]` into `y[i]` for `r = 0, 1, …` in turn — one load
//!   and store of `y[i]` for all the rows, but exactly the rounded
//!   operations of one [`axpy`] per row in sequence, so it (and
//!   [`accumulate_rows`] over any number of rows) is bitwise-identical
//!   to that sequence, non-finite inputs included.
//! * **Reductions reassociate.** [`dot`], [`norm2`] and [`norm_inf`]
//!   accumulate in [`LANES`] independent partial accumulators (that is
//!   what lets them vectorize) and are therefore *deterministic* but not
//!   bitwise-equal to a left-to-right scalar fold. `max` is associative,
//!   so [`norm_inf`] *is* scalar-identical.
//! * **[`block_decode`] accumulates rows in argument order per element**,
//!   so it is bitwise-identical to a sequence of `axpy` calls over the
//!   full vectors — including across column blocks and across threads
//!   (parallelism splits the `d` dimension; the per-element operation
//!   order never changes).

use crate::element::Element;

/// Chunk width of the vectorized kernel bodies, in elements.
///
/// Eight covers an AVX-512 register of `f64` and keeps two AVX2 (or four
/// SSE2) operations in flight per chunk for superscalar cores; the
/// compiler re-tiles the chunk body to whatever the target offers.
pub const LANES: usize = 8;

/// Column-block width (elements) of [`block_decode`]: each block of the
/// output stays L1-resident while every input row streams through it
/// once, instead of the output streaming through cache once per row.
pub const COL_BLOCK: usize = 1024;

/// Output length (elements) below which [`block_decode`] never spawns
/// threads: spawning costs more than the decode itself.
pub const PAR_MIN_DIM: usize = 1 << 16;

/// Minimum elements of output per spawned thread.
const PAR_MIN_CHUNK: usize = 1 << 15;

/// In-place scaled accumulation `y[i] += alpha · x[i]` (BLAS `axpy`),
/// bitwise-identical to the scalar loop (see the module contract). The
/// one-row case of [`axpy_rows`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy<E: Element>(alpha: E, x: &[E], y: &mut [E]) {
    axpy_rows([alpha], [x], y);
}

/// Rows combined per pass of [`accumulate_rows`]: four input streams and
/// one output stream per element keep the output in a register across
/// four adds without exhausting the load ports.
const ROW_GROUP: usize = 4;

/// The multi-row accumulation kernel: per element,
/// `y[i] += alpha[0]·xs[0][i]; y[i] += alpha[1]·xs[1][i]; …` in row
/// order — one load and one store of `y[i]` for `N` rows instead of `N`.
/// Every add is the same rounded operation, in the same order, as in
/// `N` sequential [`axpy`] calls, so the result is **bitwise-identical**
/// to them, non-finite inputs and `0 · NaN` included (no zero shortcut).
///
/// # Panics
///
/// Panics if any row's length differs from `y.len()`.
#[inline]
pub fn axpy_rows<E: Element, const N: usize>(alpha: [E; N], xs: [&[E]; N], y: &mut [E]) {
    for x in xs {
        assert_eq!(
            x.len(),
            y.len(),
            "axpy: length mismatch {} vs {}",
            x.len(),
            y.len()
        );
    }
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = xs.map(|x| x.chunks_exact(LANES));
    for yl in yc.by_ref() {
        let xl = xc.each_mut().map(|c| c.next().expect("rows as long as y"));
        for r in 0..N {
            for i in 0..LANES {
                yl[i] += alpha[r] * xl[r][i];
            }
        }
    }
    let xt = xc.map(|c| c.remainder());
    for (i, yi) in yc.into_remainder().iter_mut().enumerate() {
        for r in 0..N {
            *yi += alpha[r] * xt[r][i];
        }
    }
}

/// `out[t] += Σ_i coeffs[i] · row_of(i)[offset + t]` with the rows added
/// in index order per element, four rows per [`axpy_rows`] pass —
/// bitwise-identical to one full-length [`axpy`] per row over the same
/// span. Coefficients are `f64` and convert via
/// [`Element::from_f64`]. This is the accumulation under
/// [`block_decode`] and under the codec's fused encode → decode pass.
///
/// # Panics
///
/// Panics if a row is shorter than `offset + out.len()`.
#[inline]
pub fn accumulate_rows<'a, E, F>(coeffs: &[f64], row_of: &F, out: &mut [E], offset: usize)
where
    E: Element,
    F: Fn(usize) -> &'a [E],
{
    let span = offset..offset + out.len();
    let mut groups = coeffs.chunks_exact(ROW_GROUP);
    let mut first = 0;
    for group in groups.by_ref() {
        axpy_rows(
            std::array::from_fn::<_, ROW_GROUP, _>(|r| E::from_f64(group[r])),
            std::array::from_fn(|r| &row_of(first + r)[span.clone()]),
            out,
        );
        first += ROW_GROUP;
    }
    let rest = groups.remainder();
    let row = |r: usize| &row_of(first + r)[span.clone()];
    let c = |r: usize| E::from_f64(rest[r]);
    match rest.len() {
        0 => {}
        1 => axpy_rows([c(0)], [row(0)], out),
        2 => axpy_rows([c(0), c(1)], [row(0), row(1)], out),
        _ => axpy_rows([c(0), c(1), c(2)], [row(0), row(1), row(2)], out),
    }
}

/// In-place scaling `x[i] *= alpha`, bitwise-identical to the scalar
/// loop.
#[inline]
pub fn scale<E: Element>(alpha: E, x: &mut [E]) {
    let mut xc = x.chunks_exact_mut(LANES);
    for xl in xc.by_ref() {
        for xi in xl {
            *xi *= alpha;
        }
    }
    for xi in xc.into_remainder() {
        *xi *= alpha;
    }
}

/// Dot product `Σ a_i·b_i` over [`LANES`] partial accumulators.
///
/// Deterministic, but reassociated relative to a scalar left-to-right
/// fold (see the module contract).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot<E: Element>(a: &[E], b: &[E]) -> E {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    let mut acc = [E::ZERO; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (al, bl) in ac.by_ref().zip(bc.by_ref()) {
        for i in 0..LANES {
            acc[i] += al[i] * bl[i];
        }
    }
    for (i, (&ai, &bi)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        acc[i] += ai * bi;
    }
    let mut total = E::ZERO;
    for lane in acc {
        total += lane;
    }
    total
}

/// Euclidean norm `|x|₂` over [`LANES`] partial accumulators
/// (reassociated, like [`dot`]).
#[inline]
pub fn norm2<E: Element>(x: &[E]) -> E {
    let mut acc = [E::ZERO; LANES];
    let mut xc = x.chunks_exact(LANES);
    for xl in xc.by_ref() {
        for i in 0..LANES {
            acc[i] += xl[i] * xl[i];
        }
    }
    for (i, &xi) in xc.remainder().iter().enumerate() {
        acc[i] += xi * xi;
    }
    let mut total = E::ZERO;
    for lane in acc {
        total += lane;
    }
    total.sqrt()
}

/// Maximum absolute component `|x|_∞`. `max` is associative, so this is
/// scalar-identical despite the lane accumulators.
#[inline]
pub fn norm_inf<E: Element>(x: &[E]) -> E {
    let mut acc = [E::ZERO; LANES];
    let mut xc = x.chunks_exact(LANES);
    for xl in xc.by_ref() {
        for i in 0..LANES {
            acc[i] = acc[i].max(xl[i].abs());
        }
    }
    for (i, &xi) in xc.remainder().iter().enumerate() {
        acc[i] = acc[i].max(xi.abs());
    }
    let mut total = E::ZERO;
    for lane in acc {
        total = total.max(lane);
    }
    total
}

/// The GEMM-style whole-round decode kernel:
/// `out[t] = Σ_i coeffs[i] · row_of(i)[t]` — one `1 × n` by `n × d`
/// product, column-blocked so each [`COL_BLOCK`] span of `out` stays
/// L1-resident while every row streams through it once. Coefficients are
/// `f64` (decode vectors are always solved in double precision) and are
/// converted once per row via [`Element::from_f64`].
///
/// Rows are fetched by index through `row_of`, so callers can feed a
/// flat arrival block, scattered `Arc` payloads, or a CSR-gathered
/// subset without materializing a slice-of-slices. Spawns up to
/// `max_threads` scoped threads across the `d` dimension when
/// `out.len() ≥` [`PAR_MIN_DIM`]; pass `1` to force the sequential path
/// (e.g. on a zero-allocation hot path — spawning allocates).
///
/// Bitwise-identical to the equivalent sequence of full-length [`axpy`]
/// calls, for any block size and thread count (see the module contract).
///
/// # Panics
///
/// Panics if any row's length differs from `out.len()`.
pub fn block_decode_threads<'a, E, F>(coeffs: &[f64], row_of: &F, out: &mut [E], max_threads: usize)
where
    E: Element,
    F: Fn(usize) -> &'a [E] + Sync,
{
    for i in 0..coeffs.len() {
        assert_eq!(
            row_of(i).len(),
            out.len(),
            "block_decode: row {i} length mismatch"
        );
    }
    let d = out.len();
    let threads = if d >= PAR_MIN_DIM {
        max_threads.clamp(1, d.div_ceil(PAR_MIN_CHUNK))
    } else {
        1
    };
    if threads <= 1 {
        block_decode_span(coeffs, row_of, out, 0);
        return;
    }
    // Contiguous per-thread spans, rounded to whole column blocks so the
    // blocking pattern (and thus nothing at all, per-element) is
    // unaffected by the split.
    let span = d.div_ceil(threads).div_ceil(COL_BLOCK) * COL_BLOCK;
    std::thread::scope(|scope| {
        for (t, chunk) in out.chunks_mut(span).enumerate() {
            scope.spawn(move || block_decode_span(coeffs, row_of, chunk, t * span));
        }
    });
}

/// [`block_decode_threads`] with the automatic thread count: one thread
/// per [`PAR_MIN_CHUNK`] of output, capped at the machine's available
/// parallelism (sequential below [`PAR_MIN_DIM`]).
pub fn block_decode<'a, E, F>(coeffs: &[f64], row_of: &F, out: &mut [E])
where
    E: Element,
    F: Fn(usize) -> &'a [E] + Sync,
{
    block_decode_threads(coeffs, row_of, out, available_threads());
}

/// The sequential core of [`block_decode`]: one contiguous span of the
/// output, column-blocked, rows accumulated in index order through
/// [`accumulate_rows`].
fn block_decode_span<'a, E, F>(coeffs: &[f64], row_of: &F, out: &mut [E], offset: usize)
where
    E: Element,
    F: Fn(usize) -> &'a [E],
{
    let mut at = offset;
    for chunk in out.chunks_mut(COL_BLOCK) {
        chunk.fill(E::ZERO);
        accumulate_rows(coeffs, row_of, chunk, at);
        at += chunk.len();
    }
}

/// The machine's available parallelism, probed once.
fn available_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference each elementwise kernel must match bitwise.
    fn axpy_scalar<E: Element>(alpha: E, x: &[E], y: &mut [E]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64).sin() * 3.0).collect()
    }

    #[test]
    fn axpy_bitwise_matches_scalar_all_lengths() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100] {
            let x = ramp(n);
            let mut y = ramp(n);
            let mut y_ref = y.clone();
            axpy(-1.75, &x, &mut y);
            axpy_scalar(-1.75, &x, &mut y_ref);
            assert_eq!(y, y_ref, "n = {n}");
        }
    }

    #[test]
    fn axpy_zero_alpha_propagates_non_finite() {
        // The pinned contract: no zero shortcut, 0 · NaN and 0 · ∞ are
        // NaN, exactly as in the scalar loop.
        let x = [1.0, f64::NAN, f64::INFINITY, -3.0];
        let mut y = [1.0, 2.0, 3.0, 4.0];
        axpy(0.0, &x, &mut y);
        assert_eq!(y[0], 1.0);
        assert!(y[1].is_nan());
        assert!(y[2].is_nan());
        assert_eq!(y[3], 4.0);
    }

    #[test]
    fn scale_and_norms() {
        let mut x = vec![1.0_f64, -2.0, 3.0];
        scale(-2.0, &mut x);
        assert_eq!(x, vec![-2.0, 4.0, -6.0]);
        assert_eq!(norm_inf(&x), 6.0);
        assert!((norm2(&[3.0_f64, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2::<f64>(&[]), 0.0);
        assert_eq!(norm_inf::<f64>(&[]), 0.0);
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    fn dot_matches_scalar_within_reassociation() {
        for n in [1, 8, 13, 100, 1000] {
            let a = ramp(n);
            let b: Vec<f64> = ramp(n).iter().map(|v| v + 0.5).collect();
            let scalar: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let chunked = dot(&a, &b);
            assert!(
                (scalar - chunked).abs() <= 1e-12 * (1.0 + scalar.abs()),
                "n = {n}: {scalar} vs {chunked}"
            );
        }
    }

    #[test]
    fn f32_kernels_compile_and_agree() {
        let x: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let mut y = vec![1.0_f32; 37];
        let mut y_ref = y.clone();
        axpy(2.0_f32, &x, &mut y);
        for (yi, &xi) in y_ref.iter_mut().zip(&x) {
            *yi += 2.0 * xi;
        }
        assert_eq!(y, y_ref);
        assert_eq!(norm_inf(&y), *y.last().unwrap());
    }

    #[test]
    fn block_decode_bitwise_matches_axpy_sequence() {
        let rows: Vec<Vec<f64>> = (0..5).map(|i| ramp(3 * COL_BLOCK + 17 + i - i)).collect();
        let coeffs = [0.5, -1.25, 2.0, 0.0, 3.5];
        let d = rows[0].len();
        let mut reference = vec![0.0; d];
        for (i, &c) in coeffs.iter().enumerate() {
            axpy(c, &rows[i], &mut reference);
        }
        let mut out = vec![f64::NAN; d];
        block_decode(&coeffs, &|i| rows[i].as_slice(), &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn block_decode_threads_bitwise_matches_sequential() {
        // Force the parallel path regardless of core count: the split
        // across the d dimension must not change a single bit.
        let d = PAR_MIN_DIM + 3 * COL_BLOCK + 11;
        let rows: Vec<Vec<f64>> = (0..4).map(|_| ramp(d)).collect();
        let coeffs = [1.5, -0.25, 0.75, 2.0];
        let mut sequential = vec![0.0; d];
        block_decode_threads(&coeffs, &|i| rows[i].as_slice(), &mut sequential, 1);
        for threads in [2, 3, 7] {
            let mut parallel = vec![f64::NAN; d];
            block_decode_threads(&coeffs, &|i| rows[i].as_slice(), &mut parallel, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn block_decode_empty_coeffs_zeroes_out() {
        let mut out = vec![f64::NAN; 10];
        let rows: Vec<Vec<f64>> = Vec::new();
        block_decode(&[], &|i| rows[i].as_slice(), &mut out);
        assert_eq!(out, vec![0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn block_decode_rejects_short_rows() {
        let row = [1.0_f64; 4];
        let mut out = [0.0_f64; 8];
        block_decode(&[1.0], &|_| &row[..], &mut out);
    }
}
