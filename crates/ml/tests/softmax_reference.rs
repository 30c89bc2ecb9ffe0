//! `SoftmaxRegression` against the plain per-class, per-sample folds it
//! is optimized from: the grouped-accumulator `logits` and the chunked
//! `gradient_into` must reproduce them **bit for bit** (all NaNs counted
//! as one value: IEEE-754 leaves NaN payload propagation open, and the
//! compiler may commute an add), for every range length up to two full
//! sample chunks and class counts on both sides of each accumulator
//! group — and make no more heap allocations than the folds did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hetgc_ml::{
    cross_entropy_from_logits, softmax_in_place, Classifier, Dataset, Model, SoftmaxRegression,
    Targets,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts the allocations of the current thread only, so the tests of
/// this file can run in parallel.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The value of `f` and the heap allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

const DIM: usize = 13;
const SAMPLES: usize = 14;
/// A feature of this sample is NaN.
const NAN_SAMPLE: usize = 11;

// ------------------------------------------------ the reference folds

/// The per-class fold `SoftmaxRegression::logits` replaced.
fn reference_logits(classes: usize, params: &[f64], x: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let bias_base = classes * DIM;
    for c in 0..classes {
        let w = &params[c * DIM..(c + 1) * DIM];
        let z: f64 = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + params[bias_base + c];
        out.push(z);
    }
}

fn reference_loss(classes: usize, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
    let mut logits = Vec::with_capacity(classes);
    (range.0..range.1)
        .map(|i| {
            reference_logits(classes, params, data.features_of(i), &mut logits);
            cross_entropy_from_logits(&logits, data.class_of(i))
        })
        .sum()
}

/// The per-sample accumulation `SoftmaxRegression::gradient_into`
/// replaced.
fn reference_gradient(
    classes: usize,
    params: &[f64],
    data: &Dataset,
    range: (usize, usize),
) -> Vec<f64> {
    let mut out = vec![0.0; classes * DIM + classes];
    let bias_base = classes * DIM;
    let mut probs = Vec::with_capacity(classes);
    for i in range.0..range.1 {
        let x = data.features_of(i);
        reference_logits(classes, params, x, &mut probs);
        softmax_in_place(&mut probs);
        let label = data.class_of(i);
        for c in 0..classes {
            let delta = probs[c] - f64::from(u8::from(c == label));
            let gw = &mut out[c * DIM..(c + 1) * DIM];
            for (gj, xj) in gw.iter_mut().zip(x) {
                *gj += delta * xj;
            }
            out[bias_base + c] += delta;
        }
    }
    out
}

fn reference_predict(classes: usize, params: &[f64], x: &[f64]) -> usize {
    let mut logits = Vec::new();
    reference_logits(classes, params, x, &mut logits);
    let mut best = 0;
    for (i, &z) in logits.iter().enumerate().skip(1) {
        if z > logits[best] {
            best = i;
        }
    }
    best
}

// ---------------------------------------------------------- fixtures

fn same(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

fn same_all(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same(x, y))
}

/// `SAMPLES` samples of `DIM` features — wide enough that logits
/// saturate the softmax for some samples — with one NaN feature.
fn dataset(classes: usize, rng: &mut StdRng) -> Dataset {
    let mut x: Vec<f64> = (0..SAMPLES * DIM)
        .map(|_| rng.gen_range(-40.0..40.0))
        .collect();
    x[NAN_SAMPLE * DIM + 3] = f64::NAN;
    let labels = (0..SAMPLES).map(|_| rng.gen_range(0..classes)).collect();
    Dataset::new(
        x,
        Targets::Classes {
            labels,
            num_classes: classes,
        },
        DIM,
    )
}

const CLASSES: [usize; 6] = [2, 3, 8, 9, 10, 11];

#[test]
fn gradient_and_loss_bitwise_equal_the_reference_folds() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut zero_signed = 0;
    for classes in CLASSES {
        let model = SoftmaxRegression::new(DIM, classes);
        let data = dataset(classes, &mut rng);
        let mut params = model.init_params(&mut rng);
        // Exact zeros in the weights make signed-zero products.
        for p in params.iter_mut().step_by(5) {
            *p = 0.0;
        }
        let d = model.num_params();
        for len in 0..=9 {
            for lo in [0, 1, SAMPLES - len] {
                let range = (lo, lo + len);
                let expected = reference_gradient(classes, &params, &data, range);
                let (gradient, allocs) = counted(|| model.gradient(&params, &data, range));
                assert!(
                    same_all(&gradient, &expected),
                    "gradient, {classes} classes, range {range:?}"
                );
                assert!(allocs <= 2, "gradient made {allocs} allocations");

                let mut into = vec![f64::NAN; d];
                let ((), allocs) =
                    counted(|| model.gradient_into(&params, &data, range, &mut into));
                assert!(
                    same_all(&into, &expected),
                    "gradient_into, {classes} classes, range {range:?}"
                );
                assert!(allocs <= 1, "gradient_into made {allocs} allocations");

                let expected = reference_loss(classes, &params, &data, range);
                let (loss, allocs) = counted(|| model.loss(&params, &data, range));
                assert!(
                    same(loss, expected),
                    "loss, {classes} classes, range {range:?}: {loss} vs {expected}"
                );
                assert!(allocs <= 1, "loss made {allocs} allocations");
                zero_signed += usize::from(expected.to_bits() == (-0.0_f64).to_bits());
            }
        }
    }
    // An empty range's loss is the sample sum's −0.0 start.
    assert!(zero_signed > 0);
}

#[test]
fn predictions_match_the_reference_argmax() {
    let mut rng = StdRng::seed_from_u64(23);
    for classes in CLASSES {
        let model = SoftmaxRegression::new(DIM, classes);
        let data = dataset(classes, &mut rng);
        let params = model.init_params(&mut rng);
        for i in 0..SAMPLES {
            let x = data.features_of(i);
            assert_eq!(
                model.predict(&params, x),
                reference_predict(classes, &params, x),
                "{classes} classes, sample {i}"
            );
        }
    }
}

/// A hand-checkable fixture: weights pick out one feature per class, so
/// the prediction is the class whose feature (plus bias) is largest,
/// ties going to the lower class.
#[test]
fn predictions_pin_a_fixed_fixture() {
    let classes = 3;
    let model = SoftmaxRegression::new(DIM, classes);
    let mut params = vec![0.0; model.num_params()];
    for c in 0..classes {
        params[c * DIM + c] = 1.0;
    }
    params[classes * DIM + 2] = 0.5; // class 2's bias
    let sample = |f: [f64; 3]| {
        let mut x = vec![0.0; DIM];
        x[..3].copy_from_slice(&f);
        x
    };
    let cases: [([f64; 3], usize); 6] = [
        ([3.0, 1.0, 1.0], 0),
        ([1.0, 3.0, 1.0], 1),
        ([1.0, 1.0, 1.0], 2),      // the bias breaks the tie
        ([2.0, 2.0, 1.0], 0),      // a tie goes to the lower class
        ([f64::NAN, 3.0, 0.0], 0), // 0·NaN: every logit is NaN
        ([-1.2, -2.0, -1.5], 2),
    ];
    for (features, expected) in cases {
        assert_eq!(
            model.predict(&params, &sample(features)),
            expected,
            "{features:?}"
        );
    }
}
