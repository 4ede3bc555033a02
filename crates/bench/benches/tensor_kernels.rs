//! Criterion micro-benchmarks of the tensor kernels that dominate DNN
//! training — the substrate-level counterpart of the paper's kernel
//! analysis (and of DeepBench, discussed in its related work).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tbd_tensor::ops::{self, Conv2dConfig, Pool2dConfig};
use tbd_tensor::Tensor;

fn bench_matmul(c: &mut Criterion) {
    let a = Tensor::from_fn([64, 128], |i| (i as f32 * 0.37).sin());
    let b = Tensor::from_fn([128, 64], |i| (i as f32 * 0.73).cos());
    c.bench_function("matmul_64x128x64", |bench| {
        bench.iter(|| ops::matmul(black_box(&a), black_box(&b)).unwrap())
    });
}

fn bench_conv2d(c: &mut Criterion) {
    let x = Tensor::from_fn([1, 8, 32, 32], |i| (i as f32 * 0.11).sin());
    let w = Tensor::from_fn([16, 8, 3, 3], |i| (i as f32 * 0.19).cos());
    let cfg = Conv2dConfig::new(1, 1);
    c.bench_function("conv2d_8x32x32_to_16", |bench| {
        bench.iter(|| ops::conv2d_forward(black_box(&x), black_box(&w), cfg).unwrap())
    });
    c.bench_function("conv2d_backward_8x32x32_to_16", |bench| {
        let y = ops::conv2d_forward(&x, &w, cfg).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        bench.iter(|| {
            ops::conv2d_backward(black_box(&x), black_box(&w), black_box(&dy), cfg).unwrap()
        })
    });
}

/// Tiny Inception-v3's data-movement-bound shapes: the stride-2 stem conv
/// (im2col/col2im dominate its tiny GEMMs), a factorised 1×7 conv with
/// asymmetric padding, and the 3×3 stride-2 max pool.
fn bench_inception_stem(c: &mut Criterion) {
    let x = Tensor::from_fn([2, 3, 79, 79], |i| (i as f32 * 0.13).sin());
    let w = Tensor::from_fn([2, 3, 3, 3], |i| (i as f32 * 0.29).cos());
    let cfg = Conv2dConfig::new(2, 0);
    let y = ops::conv2d_forward(&x, &w, cfg).unwrap();
    let dy = Tensor::from_fn(y.shape().clone(), |i| (i as f32 * 0.07).cos());
    c.bench_function("conv2d_stem_2x3x79x79_s2", |bench| {
        bench.iter(|| ops::conv2d_forward(black_box(&x), black_box(&w), cfg).unwrap())
    });
    c.bench_function("conv2d_backward_stem_2x3x79x79_s2", |bench| {
        bench.iter(|| {
            ops::conv2d_backward(black_box(&x), black_box(&w), black_box(&dy), cfg).unwrap()
        })
    });
    let x7 = Tensor::from_fn([2, 12, 9, 9], |i| (i as f32 * 0.17).sin());
    let w7 = Tensor::from_fn([12, 12, 1, 7], |i| (i as f32 * 0.23).cos());
    let cfg7 = Conv2dConfig::with_pads(1, 0, 3);
    c.bench_function("conv2d_1x7_pad0x3_12to12", |bench| {
        bench.iter(|| ops::conv2d_forward(black_box(&x7), black_box(&w7), cfg7).unwrap())
    });
    let xp = Tensor::from_fn([2, 4, 37, 37], |i| (i as f32 * 0.05).cos());
    c.bench_function("max_pool_3x3_s2_2x4x37x37", |bench| {
        bench.iter(|| ops::max_pool2d_forward(black_box(&xp), Pool2dConfig::new(3, 2, 0)).unwrap())
    });
}

fn bench_batch_norm(c: &mut Criterion) {
    // The paper's `bn_fw_tr`/`bn_bw` pair: a wide layer, and the 4-channel
    // 37×37 shape of the tiny Inception-v3 trained by the `train` workload.
    for (label, dims) in [("8x16x16x16", [8, 16, 16, 16]), ("2x4x37x37", [2, 4, 37, 37])] {
        let x = Tensor::from_fn(dims, |i| (i as f32 * 0.07).sin());
        let gamma = Tensor::ones([dims[1]]);
        let beta = Tensor::zeros([dims[1]]);
        c.bench_function(&format!("batch_norm_{label}"), |bench| {
            bench.iter(|| ops::batch_norm_forward(black_box(&x), &gamma, &beta, 1e-5).unwrap())
        });
        let (_, state) = ops::batch_norm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        let dy = Tensor::from_fn(dims, |i| (i as f32 * 0.13).cos());
        c.bench_function(&format!("batch_norm_backward_{label}"), |bench| {
            bench.iter(|| ops::batch_norm_backward(black_box(&state), &gamma, &dy).unwrap())
        });
    }
}

fn bench_softmax_ce(c: &mut Criterion) {
    let logits = Tensor::from_fn([64, 1000], |i| (i as f32 * 0.003).sin());
    let targets = Tensor::from_fn([64], |i| (i % 1000) as f32);
    c.bench_function("cross_entropy_64x1000", |bench| {
        bench.iter(|| ops::cross_entropy_forward(black_box(&logits), &targets).unwrap())
    });
}

fn bench_pooling(c: &mut Criterion) {
    let x = Tensor::from_fn([4, 16, 32, 32], |i| (i as f32 * 0.05).cos());
    c.bench_function("max_pool_4x16x32x32", |bench| {
        bench.iter(|| ops::max_pool2d_forward(black_box(&x), Pool2dConfig::new(2, 2, 0)).unwrap())
    });
}

fn bench_session_step(c: &mut Criterion) {
    use tbd_graph::Session;
    use tbd_models::resnet::ResNetConfig;
    c.bench_function("session_forward_backward_tiny_resnet", |bench| {
        let model = ResNetConfig::tiny().build(2).unwrap();
        let images = model.input("images").unwrap();
        let labels = model.input("labels").unwrap();
        let loss = model.loss();
        let mut session = Session::new(model.graph, 1);
        let x = Tensor::from_fn([2, 3, 16, 16], |i| (i % 17) as f32 * 0.05);
        let y = Tensor::from_slice(&[0.0, 1.0]);
        bench.iter(|| {
            let run = session.forward(&[(images, x.clone()), (labels, y.clone())]).unwrap();
            let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
            black_box(grads.global_norm(session.graph()))
        })
    });
}

fn bench_lowering(c: &mut Criterion) {
    use tbd_models::resnet::ResNetConfig;
    c.bench_function("lower_resnet50_iteration", |bench| {
        let model = ResNetConfig::resnet50().build(16).unwrap();
        bench.iter(|| tbd_graph::lower::lower_training_iteration(black_box(&model.graph), None))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_conv2d, bench_inception_stem, bench_batch_norm,
        bench_softmax_ce, bench_pooling, bench_session_step, bench_lowering
}
criterion_main!(kernels);
