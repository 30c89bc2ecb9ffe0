//! Multinomial logistic (softmax) regression.

use rand::RngCore;

use crate::dataset::Dataset;
use crate::loss::{cross_entropy_from_logits, softmax_in_place};
use crate::model::{uniform_init, Model};

/// Softmax regression: logits `z_c = w_cᵀx + b_c`, cross-entropy loss
/// summed over samples.
///
/// Parameters are laid out class-major: `[W (classes×dim, row-major), b
/// (classes)]`.
///
/// # Example
///
/// ```
/// use hetgc_ml::{synthetic, Model, SoftmaxRegression};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let data = synthetic::gaussian_blobs(90, 2, 3, 4.0, &mut rng);
/// let model = SoftmaxRegression::new(2, 3);
/// let params = model.init_params(&mut rng);
/// assert_eq!(params.len(), 3 * 2 + 3);
/// let g = model.gradient(&params, &data, (0, data.len()));
/// assert_eq!(g.len(), params.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftmaxRegression {
    dim: usize,
    classes: usize,
}

impl SoftmaxRegression {
    /// A softmax model over `dim` features and `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `classes < 2`.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(classes >= 2, "need at least two classes");
        SoftmaxRegression { dim, classes }
    }

    /// The feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The logits `z_c = w_cᵀx + b_c` of one sample into `out`
    /// (`classes` long). Classes go in groups of independent accumulators
    /// (8, then 2, then 1), so the per-class add chains overlap instead of
    /// each waiting on the previous one. Every accumulator still starts
    /// at `-0.0` (where `Iterator::sum::<f64>` starts) and adds `w_cj·x_j`
    /// in index order, so each logit is bitwise the plain per-class fold.
    pub(crate) fn logits(&self, params: &[f64], x: &[f64], out: &mut [f64]) {
        let mut c = 0;
        while c < self.classes {
            c += match self.classes - c {
                8.. => self.logit_group::<8>(params, x, c, out),
                2..=7 => self.logit_group::<2>(params, x, c, out),
                _ => self.logit_group::<1>(params, x, c, out),
            };
        }
    }

    /// Logits of classes `first..first + G` (see [`Self::logits`]);
    /// returns `G`.
    #[inline]
    fn logit_group<const G: usize>(
        &self,
        params: &[f64],
        x: &[f64],
        first: usize,
        out: &mut [f64],
    ) -> usize {
        let dim = self.dim;
        let x = &x[..dim];
        let w: [&[f64]; G] =
            std::array::from_fn(|g| &params[(first + g) * dim..(first + g + 1) * dim]);
        let mut acc = [-0.0_f64; G];
        for (j, &xj) in x.iter().enumerate() {
            for g in 0..G {
                acc[g] += w[g][j] * xj;
            }
        }
        let bias = &params[self.classes * dim + first..];
        for g in 0..G {
            out[first + g] = acc[g] + bias[g];
        }
        G
    }

    fn check(&self, params: &[f64], data: &Dataset, (lo, hi): (usize, usize)) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        assert_eq!(
            data.num_classes(),
            Some(self.classes),
            "class count mismatch"
        );
        assert!(lo <= hi && hi <= data.len(), "bad range [{lo}, {hi})");
    }
}

impl Model for SoftmaxRegression {
    fn num_params(&self) -> usize {
        self.classes * self.dim + self.classes
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        self.check(params, data, range);
        let mut logits = vec![0.0; self.classes];
        (range.0..range.1)
            .map(|i| {
                self.logits(params, data.features_of(i), &mut logits);
                cross_entropy_from_logits(&logits, data.class_of(i))
            })
            .sum()
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        let mut grad = vec![0.0; self.num_params()];
        self.gradient_into(params, data, range, &mut grad);
        grad
    }

    /// Samples go in chunks of up to four: the forward pass
    /// of the chunk first, then one pass per class row adding the chunk's
    /// samples in sample order — the gradient streams through memory once
    /// per chunk instead of once per sample. The first chunk starts each
    /// element from `0.0` in a register (no separate zeroing pass), so
    /// every element sees exactly the adds of zeroing `out` and then
    /// accumulating sample after sample: the result is bitwise that of
    /// the plain per-sample loop.
    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        self.check(params, data, range);
        assert_eq!(out.len(), self.num_params(), "gradient buffer length");
        let (lo, hi) = range;
        if lo == hi {
            out.fill(0.0);
            return;
        }
        let (dim, classes) = (self.dim, self.classes);
        let (weights, biases) = out.split_at_mut(classes * dim);
        // ∂CE/∂z_c = p_c − 1{c = label}, per sample of the chunk.
        let mut deltas = vec![0.0; SAMPLE_CHUNK * classes];
        for start in (lo..hi).step_by(SAMPLE_CHUNK) {
            let chunk = (hi - start).min(SAMPLE_CHUNK);
            for s in 0..chunk {
                let i = start + s;
                let delta = &mut deltas[s * classes..(s + 1) * classes];
                self.logits(params, data.features_of(i), delta);
                softmax_in_place(delta);
                let label = data.class_of(i);
                for (c, d) in delta.iter_mut().enumerate() {
                    *d -= f64::from(u8::from(c == label));
                }
            }
            let first = start == lo;
            let x = |s: usize| data.features_of(start + s);
            for (c, (row, bias)) in weights
                .chunks_exact_mut(dim)
                .zip(biases.iter_mut())
                .enumerate()
            {
                let d = |s: usize| deltas[s * classes + c];
                match chunk {
                    1 => accumulate([d(0)], [x(0)], row, bias, first),
                    2 => accumulate([d(0), d(1)], [x(0), x(1)], row, bias, first),
                    3 => accumulate([d(0), d(1), d(2)], [x(0), x(1), x(2)], row, bias, first),
                    _ => accumulate(
                        [d(0), d(1), d(2), d(3)],
                        [x(0), x(1), x(2), x(3)],
                        row,
                        bias,
                        first,
                    ),
                }
            }
        }
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        uniform_init(self.num_params(), 0.01, rng)
    }
}

/// Samples per chunk of [`SoftmaxRegression`]'s gradient pass.
const SAMPLE_CHUNK: usize = 4;

/// One class row of a gradient chunk: per element, start from `0.0` on
/// the first chunk (else from the stored value) and add `δ_s·x_s` for
/// the chunk's samples in order; the bias adds `δ_s` the same way.
#[inline]
fn accumulate<const N: usize>(
    deltas: [f64; N],
    xs: [&[f64]; N],
    row: &mut [f64],
    bias: &mut f64,
    first: bool,
) {
    let xs = xs.map(|x| &x[..row.len()]);
    for (j, o) in row.iter_mut().enumerate() {
        let mut t = if first { 0.0 } else { *o };
        for s in 0..N {
            t += deltas[s] * xs[s][j];
        }
        *o = t;
    }
    let mut t = if first { 0.0 } else { *bias };
    for d in deltas {
        t += d;
    }
    *bias = t;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Targets;
    use crate::model::numeric_gradient;
    use crate::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Dataset {
        Dataset::new(
            vec![1.0, 0.0, 0.0, 1.0, -1.0, -1.0],
            Targets::Classes {
                labels: vec![0, 1, 2],
                num_classes: 3,
            },
            2,
        )
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = tiny();
        let m = SoftmaxRegression::new(2, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let params = m.init_params(&mut rng);
        let g = m.gradient(&params, &d, (0, 3));
        let ng = numeric_gradient(&m, &params, &d, (0, 3), 1e-6);
        for (a, b) in g.iter().zip(&ng) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_gradients_sum_to_full() {
        let d = tiny();
        let m = SoftmaxRegression::new(2, 3);
        let params = vec![0.1; m.num_params()];
        let full = m.gradient(&params, &d, (0, 3));
        let a = m.gradient(&params, &d, (0, 2));
        let b = m.gradient(&params, &d, (2, 3));
        for j in 0..full.len() {
            assert!((full[j] - a[j] - b[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_params_give_log_c_loss() {
        let d = tiny();
        let m = SoftmaxRegression::new(2, 3);
        let loss = m.loss(&vec![0.0; m.num_params()], &d, (0, 3)) / 3.0;
        assert!((loss - 3f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn training_separates_blobs() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = synthetic::gaussian_blobs(300, 2, 3, 5.0, &mut rng);
        let m = SoftmaxRegression::new(2, 3);
        let mut params = m.init_params(&mut rng);
        let n = d.len() as f64;
        let initial = m.loss(&params, &d, (0, d.len())) / n;
        for _ in 0..200 {
            let mut g = m.gradient(&params, &d, (0, d.len()));
            for gi in &mut g {
                *gi /= n;
            }
            for (p, gi) in params.iter_mut().zip(&g) {
                *p -= 0.5 * gi;
            }
        }
        let final_loss = m.loss(&params, &d, (0, d.len())) / n;
        assert!(final_loss < initial / 4.0, "{initial} → {final_loss}");
        assert!(
            final_loss < 0.3,
            "blobs should be nearly separable: {final_loss}"
        );
    }

    #[test]
    fn accessors() {
        let m = SoftmaxRegression::new(4, 10);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.classes(), 10);
        assert_eq!(m.num_params(), 50);
    }

    #[test]
    #[should_panic(expected = "class count")]
    fn wrong_class_count_panics() {
        let d = tiny(); // 3 classes
        SoftmaxRegression::new(2, 4).loss(&[0.0; 12], &d, (0, 1));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_class_rejected() {
        SoftmaxRegression::new(2, 1);
    }
}
