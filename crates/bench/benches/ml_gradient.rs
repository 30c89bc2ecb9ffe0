//! Gradient-cost linearity: the load-balancing premise of Eq. 5 is that
//! "the computing complexity of each task is proportional to its number of
//! samples" (§II). This bench verifies the premise holds for our models:
//! doubling the sample range should roughly double the gradient time.
//!
//! `ml/softmax_sim_b16` times the master-side model work of one round of
//! the `sim-b16` benchmark workload: a 10-class softmax over 6 400
//! features (d = 64 010), partial gradients over 2-sample ranges into a
//! reused block, and the 128-sample loss evaluation. The CI `bench-smoke`
//! job runs this bench with `--test`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc::{
    partial_gradients_into, synthetic, GradientBlock, LinearRegression, Mlp, Model,
    SoftmaxRegression,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_mlp_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let data = synthetic::image_like(1600, 64, 10, &mut rng);
    let model = Mlp::new(64, 32, 10);
    let params = model.init_params(&mut rng);
    let mut group = c.benchmark_group("ml/mlp_gradient");
    for samples in [200usize, 400, 800, 1600] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            b.iter(|| model.gradient(&params, &data, (0, n)));
        });
    }
    group.finish();
}

fn bench_softmax_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(22);
    let data = synthetic::gaussian_blobs(2000, 16, 4, 3.0, &mut rng);
    let model = SoftmaxRegression::new(16, 4);
    let params = model.init_params(&mut rng);
    let mut group = c.benchmark_group("ml/softmax_gradient");
    for samples in [500usize, 1000, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            b.iter(|| model.gradient(&params, &data, (0, n)));
        });
    }
    group.finish();
}

fn bench_softmax_sim_b16(c: &mut Criterion) {
    const SAMPLES: usize = 128;
    let mut rng = StdRng::seed_from_u64(24);
    let data = synthetic::image_like(SAMPLES, 6400, 10, &mut rng);
    let model = SoftmaxRegression::new(6400, 10);
    let params = model.init_params(&mut rng);
    let ranges: Vec<(usize, usize)> = (0..SAMPLES).step_by(2).map(|lo| (lo, lo + 2)).collect();
    let mut partials = GradientBlock::new(ranges.len(), model.num_params());
    let mut group = c.benchmark_group("ml/softmax_sim_b16");
    group.sample_size(10);
    group.bench_function("partials_2_sample_ranges", |b| {
        b.iter(|| {
            partial_gradients_into(&model, &params, &data, &ranges, &mut partials);
            black_box(partials.row(0)[0])
        });
    });
    group.bench_function("loss_128_samples", |b| {
        b.iter(|| model.loss(&params, &data, (0, SAMPLES)));
    });
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    // Worker-side encoding g̃ = Σ b_j·g_j over a realistic gradient size.
    let mut rng = StdRng::seed_from_u64(23);
    let data = synthetic::linear_regression(1000, 128, 0.1, &mut rng);
    let model = LinearRegression::new(128);
    let params = model.init_params(&mut rng);
    let throughputs = [1.0, 2.0, 3.0, 4.0, 4.0, 2.0];
    let code = hetgc::heter_aware(&throughputs, 8, 1, &mut rng).expect("construct");
    let ranges: Vec<(usize, usize)> = hetgc::PartitionAssignment::even(1000, 8)
        .expect("partition")
        .iter()
        .collect();
    let partials = hetgc_ml::partial_gradients(&model, &params, &data, &ranges);
    c.bench_function("ml/encode_worker_gradient", |b| {
        b.iter(|| {
            for w in 0..code.workers() {
                code.encode(w, &partials).expect("encode");
            }
        });
    });
}

criterion_group!(
    benches,
    bench_mlp_gradient,
    bench_softmax_gradient,
    bench_softmax_sim_b16,
    bench_encode
);
criterion_main!(benches);
