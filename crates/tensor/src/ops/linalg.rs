//! Dense linear algebra: GEMM, bias, transpose, embedding lookup.
//!
//! `matmul` is the workhorse behind fully-connected layers, LSTM/GRU gates,
//! attention, and (via im2col) convolutions — the `sgemm` kernels that
//! dominate the paper's traces.

use crate::{arena, par, Result, Shape, Tensor, TensorError};

/// Rows per micro-tile of the packed GEMM kernel.
const MR: usize = 4;
/// Columns per micro-tile of the packed GEMM kernel: wide enough that the
/// `MR`×`NR` accumulator tile fills most of the architectural vector
/// register file without spilling — four 512-bit registers per row on
/// AVX-512 builds (16 zmm accumulators of the 32 available), two 256-bit
/// registers per row on AVX2, one SSE register pair on the portable x86-64
/// baseline. `-C target-cpu=native` (workspace `.cargo/config.toml`)
/// selects the widest supported tier at build time.
#[cfg(target_feature = "avx512f")]
const NR: usize = 64;
#[cfg(all(target_feature = "avx2", not(target_feature = "avx512f")))]
const NR: usize = 32;
#[cfg(not(target_feature = "avx2"))]
const NR: usize = 8;
/// Depth of one packed k-block: `KC · (MR + NR)` floats of panel data stay
/// hot in L1/L2 while a micro-tile accumulates.
const KC: usize = 192;
/// Products this small skip packing entirely: a plain vectorised loop beats
/// the pack/unpack traffic.
const SMALL_GEMM_WORK: usize = 1 << 13;
/// Minimum multiply-adds handed to each additional thread. Threads are
/// spawned per call (no pool), so a fan-out must amortise ~tens of
/// microseconds of spawn cost; this also keeps small seed-sized GEMMs
/// (≤64³ = 2¹⁸) on the calling thread.
pub(crate) const GEMM_WORK_PER_THREAD: usize = 1 << 21;

/// Matrix product `C[m,n] = A[m,k] · B[k,n]`.
///
/// Packed, cache-blocked GEMM: `B` is repacked once into zero-padded
/// `NR`-wide column panels per `KC`-deep k-block, `A` micro-panels are
/// packed on the fly, and an `MR`×`NR` register-tiled micro-kernel does the
/// arithmetic. Large products fan the `M` dimension out across scoped
/// threads in contiguous row bands (cap: [`par::max_threads`]); each output
/// element is accumulated in ascending-`k` order by exactly one band, so
/// results are **bitwise identical across thread counts**. Small products
/// fall back to a serial vectorised loop.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless both operands are rank 2 and
/// [`TensorError::ShapeMismatch`] unless the inner dimensions agree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_matmul_dims("matmul", a, b)?;
    let mut c = vec![0.0f32; m * n];
    gemm_into(&mut c, a.data(), b.data(), m, k, n);
    Tensor::from_vec(c, [m, n])
}

/// Reference matrix product: the seed's cache-blocked scalar i-k-j loop,
/// kept verbatim (minus its value-dependent zero-skip branch, which made
/// timings input-dependent and FP results irreproducible) as the ground
/// truth that property tests and benchmarks compare the packed kernel
/// against.
///
/// # Errors
///
/// Same shape/rank errors as [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_matmul_dims("matmul_reference", a, b)?;
    let mut c = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    const BLOCK: usize = 64;
    for kb in (0..k).step_by(BLOCK) {
        let kend = (kb + BLOCK).min(k);
        for i in 0..m {
            let crow = &mut c[i * n..(i + 1) * n];
            for kk in kb..kend {
                let aik = ad[i * k + kk];
                let brow = &bd[kk * n..(kk + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
    }
    Tensor::from_vec(c, [m, n])
}

fn check_matmul_dims(op: &'static str, a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    check_rank(op, a, 2)?;
    check_rank(op, b, 2)?;
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    Ok((m, k, n))
}

/// GEMM `C += A·B` into a pre-zeroed buffer, choosing between the naive,
/// packed-serial, and packed-parallel paths by problem size.
pub(crate) fn gemm_into(c: &mut [f32], ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) {
    let work = m * n * k;
    if work == 0 {
        return;
    }
    if work <= SMALL_GEMM_WORK {
        return gemm_naive(c, ad, bd, m, k, n);
    }
    let threads = par::plan_threads(work, GEMM_WORK_PER_THREAD, m.div_ceil(MR));
    let packed = pack_b(bd, k, n, false);
    par::parallel_bands(c, MR * n, threads, |first_tile, band| {
        gemm_band(band, first_tile * MR, ad, &packed, k, n);
    });
    arena::recycle(packed);
}

/// GEMM `C += A·B` guaranteed to stay on the calling thread — used by
/// kernels that already fan out at a coarser granularity (images, batch
/// entries) and must not nest thread scopes.
pub(crate) fn gemm_serial_into(
    c: &mut [f32],
    ad: &[f32],
    bd: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_serial(c, ad, bd, m, k, n, false);
}

/// [`gemm_serial_into`] with `B` supplied transposed: `C += A·Bᵀ` where
/// `bt` is `[n, k]` row-major. The packed path builds the very panels
/// [`gemm_serial_into`] would build from the materialised transpose and the
/// small path keeps the per-element ascending-`k` order of
/// [`gemm_naive`], so the result is bitwise that of transpose-then-GEMM.
pub(crate) fn gemm_serial_nt_into(
    c: &mut [f32],
    ad: &[f32],
    bt: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_serial(c, ad, bt, m, k, n, true);
}

fn gemm_serial(c: &mut [f32], ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize, bt: bool) {
    let work = m * n * k;
    if work == 0 {
        return;
    }
    if work <= SMALL_GEMM_WORK {
        return if bt { gemm_naive_nt(c, ad, bd, m, k, n) } else { gemm_naive(c, ad, bd, m, k, n) };
    }
    let packed = pack_b(bd, k, n, bt);
    gemm_band(c, 0, ad, &packed, k, n);
    arena::recycle(packed);
}

/// Unpacked vectorised i-k-j loop for products too small to pack.
fn gemm_naive(c: &mut [f32], ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for kk in 0..k {
            let aik = ad[i * k + kk];
            let brow = &bd[kk * n..(kk + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
}

/// [`gemm_naive`] against `bt = Bᵀ` (`[n, k]`): each element is a
/// sequential ascending-`k` sum with separate multiply and add, exactly as
/// the i-k-j loop accumulates it.
fn gemm_naive_nt(c: &mut [f32], ad: &[f32], bt: &[f32], m: usize, k: usize, n: usize) {
    for (crow, arow) in c.chunks_exact_mut(n).zip(ad.chunks_exact(k)).take(m) {
        for (cv, bcol) in crow.iter_mut().zip(bt.chunks_exact(k)) {
            let mut acc = *cv;
            for (av, bv) in arow.iter().zip(bcol) {
                acc += av * bv;
            }
            *cv = acc;
        }
    }
}

/// Packs `B[k,n]` into k-blocks of [`NR`]-wide column panels; with
/// `transposed` the source is `Bᵀ` (`[n, k]`) and is read column-wise.
///
/// Layout: block `kb` (depth `kl = min(KC, k - k0)`) starts at float offset
/// `k0 · n_panels · NR`; within it, panel `p` is `kl · NR` floats with
/// element `(kk, j)` at `kk · NR + j`, zero-padded when `n` is not a
/// multiple of [`NR`]. The micro-kernel then streams both panels linearly.
fn pack_b(bd: &[f32], k: usize, n: usize, transposed: bool) -> Vec<f32> {
    let n_panels = n.div_ceil(NR);
    // Arena-pooled and pre-zeroed: the ragged last panel relies on the
    // zero padding, and the same panel shapes recur every iteration of the
    // capture() hot path.
    let mut packed = arena::take_zeroed(k * n_panels * NR);
    for k0 in (0..k).step_by(KC) {
        let kl = KC.min(k - k0);
        let block = &mut packed[k0 * n_panels * NR..][..kl * n_panels * NR];
        for p in 0..n_panels {
            let j0 = p * NR;
            let width = NR.min(n - j0);
            let panel = &mut block[p * kl * NR..][..kl * NR];
            if transposed {
                for j in 0..width {
                    let bcol = &bd[(j0 + j) * k + k0..][..kl];
                    for (dst, &v) in panel[j..].iter_mut().step_by(NR).zip(bcol) {
                        *dst = v;
                    }
                }
            } else {
                for kk in 0..kl {
                    panel[kk * NR..kk * NR + width]
                        .copy_from_slice(&bd[(k0 + kk) * n + j0..][..width]);
                }
            }
        }
    }
    packed
}

/// Computes one contiguous row band `C[row0 .. row0+rows]` of the product
/// against pre-packed `B` panels. Every element accumulates k-blocks in
/// ascending order, independent of banding.
///
/// Loop structure follows GotoBLAS: per k-block, all of the band's `A`
/// micro-panels are packed once, then the `B`-panel loop runs *outside* the
/// row-tile loop so each `NR`-wide `B` panel stays in L1 while it is
/// multiplied against every row tile.
fn gemm_band(cband: &mut [f32], row0: usize, ad: &[f32], packed: &[f32], k: usize, n: usize) {
    let rows = cband.len() / n;
    let n_panels = n.div_ceil(NR);
    let tiles = rows.div_ceil(MR);
    let mut ablock = arena::take_zeroed(tiles * KC * MR);
    for k0 in (0..k).step_by(KC) {
        let kl = KC.min(k - k0);
        let block = &packed[k0 * n_panels * NR..][..kl * n_panels * NR];
        for t in 0..tiles {
            let mr = MR.min(rows - t * MR);
            pack_a_panel(&mut ablock[t * kl * MR..][..kl * MR], ad, row0 + t * MR, mr, k, k0, kl);
        }
        for p in 0..n_panels {
            let j0 = p * NR;
            let width = NR.min(n - j0);
            let bpanel = &block[p * kl * NR..][..kl * NR];
            for t in 0..tiles {
                let i0 = t * MR;
                let mr = MR.min(rows - i0);
                let mut acc = [[0.0f32; NR]; MR];
                micro_kernel(&ablock[t * kl * MR..][..kl * MR], bpanel, &mut acc);
                for (i, acc_row) in acc.iter().enumerate().take(mr) {
                    let crow = &mut cband[(i0 + i) * n + j0..][..width];
                    for (cv, av) in crow.iter_mut().zip(&acc_row[..width]) {
                        *cv += av;
                    }
                }
            }
        }
    }
    arena::recycle(ablock);
}

/// Packs an `mr`-row × `kl`-deep micro-panel of `A` into k-major interleaved
/// form (`apanel[kk·MR + i] = A[row0+i, k0+kk]`), zero-padding missing rows.
fn pack_a_panel(
    apanel: &mut [f32],
    ad: &[f32],
    row0: usize,
    mr: usize,
    k: usize,
    k0: usize,
    kl: usize,
) {
    apanel.fill(0.0);
    for i in 0..mr {
        let arow = &ad[(row0 + i) * k + k0..][..kl];
        for (kk, &av) in arow.iter().enumerate() {
            apanel[kk * MR + i] = av;
        }
    }
}

/// Fused multiply-add `acc + a·b`, rounded once. Rust never contracts
/// `acc + a * b` into an FMA on its own, so the kernel asks for it
/// explicitly — on every build, so the GEMM computes the same bits
/// whatever `target-feature` set it was compiled with.
#[inline(always)]
fn fmadd(acc: f32, a: f32, b: f32) -> f32 {
    a.mul_add(b, acc)
}

/// `MR`×`NR` register-tiled inner kernel: `acc += apanel ⊗ bpanel` over one
/// k-block. Fixed-size accumulators and `chunks_exact` panels let LLVM keep
/// the whole tile in vector registers with no bounds checks in the loop.
///
/// Builds without `fma` compiled in would lower [`fmadd`] to a (correctly
/// rounded, but slow) libm call, so on x86-64 they detect FMA at run time
/// and run the same loop compiled with it enabled.
#[inline]
fn micro_kernel(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(all(target_arch = "x86_64", not(target_feature = "fma")))]
    if std::is_x86_feature_detected!("fma") {
        // SAFETY: the running CPU supports FMA, checked just above.
        return unsafe { micro_kernel_fma(apanel, bpanel, acc) };
    }
    micro_kernel_body(apanel, bpanel, acc);
}

/// [`micro_kernel_body`] compiled with hardware FMA.
///
/// # Safety
///
/// The running CPU must support the `fma` target feature.
#[cfg(all(target_arch = "x86_64", not(target_feature = "fma")))]
#[target_feature(enable = "fma")]
unsafe fn micro_kernel_fma(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    micro_kernel_body(apanel, bpanel, acc);
}

#[inline(always)]
fn micro_kernel_body(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ak, bk) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let bk: &[f32; NR] = bk.try_into().expect("bpanel is NR-aligned");
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let ai = ak[i];
            for (av, bv) in acc_row.iter_mut().zip(bk) {
                *av = fmadd(*av, ai, *bv);
            }
        }
    }
}

/// Gradients of [`matmul`]: given `dC`, returns `(dA, dB)` where
/// `dA = dC · Bᵀ` and `dB = Aᵀ · dC`.
///
/// # Errors
///
/// Propagates shape errors from the underlying products.
pub fn matmul_backward(a: &Tensor, b: &Tensor, dc: &Tensor) -> Result<(Tensor, Tensor)> {
    let da = matmul(dc, &transpose(b)?)?;
    let db = matmul(&transpose(a)?, dc)?;
    Ok((da, db))
}

/// Matrix transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    check_rank("transpose", a, 2)?;
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    let src = a.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = src[i * n + j];
        }
    }
    Tensor::from_vec(out, [n, m])
}

/// Broadcasts a bias vector `[n]` over the rows of `x[m,n]`.
///
/// # Errors
///
/// Returns a shape error when `bias.len()` differs from the row width.
pub fn add_bias(x: &Tensor, bias: &Tensor) -> Result<Tensor> {
    check_rank("add_bias", x, 2)?;
    let (m, n) = (x.shape().dim(0), x.shape().dim(1));
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias",
            lhs: x.shape().dims().to_vec(),
            rhs: bias.shape().dims().to_vec(),
        });
    }
    let mut out = x.data().to_vec();
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] += bias.data()[j];
        }
    }
    Tensor::from_vec(out, x.shape().clone())
}

/// Gradient of [`add_bias`] with respect to the bias: column sums of `dy`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `dy` is rank 2.
pub fn add_bias_backward(dy: &Tensor) -> Result<Tensor> {
    check_rank("add_bias_backward", dy, 2)?;
    let (m, n) = (dy.shape().dim(0), dy.shape().dim(1));
    let mut db = vec![0.0f32; n];
    for i in 0..m {
        let row = &dy.data()[i * n..(i + 1) * n];
        for (d, &v) in db.iter_mut().zip(row) {
            *d += v;
        }
    }
    Tensor::from_vec(db, [n])
}

/// Embedding lookup: gathers rows of `table[vocab, dim]` for each id.
///
/// Ids are carried in an `f32` tensor (rounded) because the whole pipeline is
/// single-precision, mirroring how the frameworks feed integer ids through
/// their dataflow graphs.
///
/// # Errors
///
/// Returns [`TensorError::IndexOutOfRange`] for ids outside the vocabulary.
pub fn embedding_forward(table: &Tensor, ids: &Tensor) -> Result<Tensor> {
    check_rank("embedding", table, 2)?;
    let (vocab, dim) = (table.shape().dim(0), table.shape().dim(1));
    let n = ids.len();
    let mut out = vec![0.0f32; n * dim];
    for (row, &id) in ids.data().iter().enumerate() {
        let id = id.round() as usize;
        if id >= vocab {
            return Err(TensorError::IndexOutOfRange { op: "embedding", index: id, bound: vocab });
        }
        out[row * dim..(row + 1) * dim].copy_from_slice(&table.data()[id * dim..(id + 1) * dim]);
    }
    Tensor::from_vec(out, [n, dim])
}

/// Gradient of [`embedding_forward`] w.r.t. the table: scatter-add of `dy`
/// rows into the looked-up ids.
///
/// # Errors
///
/// Returns [`TensorError::IndexOutOfRange`] for ids outside the vocabulary
/// and a shape error when `dy` disagrees with `ids`.
pub fn embedding_backward(table_shape: &Shape, ids: &Tensor, dy: &Tensor) -> Result<Tensor> {
    let (vocab, dim) = (table_shape.dim(0), table_shape.dim(1));
    if dy.len() != ids.len() * dim {
        return Err(TensorError::ShapeMismatch {
            op: "embedding_backward",
            lhs: ids.shape().dims().to_vec(),
            rhs: dy.shape().dims().to_vec(),
        });
    }
    let mut dtable = vec![0.0f32; vocab * dim];
    for (row, &id) in ids.data().iter().enumerate() {
        let id = id.round() as usize;
        if id >= vocab {
            return Err(TensorError::IndexOutOfRange {
                op: "embedding_backward",
                index: id,
                bound: vocab,
            });
        }
        for d in 0..dim {
            dtable[id * dim + d] += dy.data()[row * dim + d];
        }
    }
    Tensor::from_vec(dtable, [vocab, dim])
}

fn check_rank(op: &'static str, t: &Tensor, rank: usize) -> Result<()> {
    if t.shape().rank() != rank {
        return Err(TensorError::RankMismatch { op, expected: rank, actual: t.shape().rank() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), [3, 4]).unwrap();
        let c = matmul(&a, &Tensor::eye(4)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn matmul_backward_matches_finite_differences() {
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0, -1.5, 0.75], [3, 2]).unwrap();
        // Loss = sum(C); dC = ones.
        let dc = Tensor::ones([2, 2]);
        let (da, db) = matmul_backward(&a, &b, &dc).unwrap();
        let eps = 1e-3;
        for i in 0..a.len() {
            let mut ap = a.clone();
            ap.data_mut()[i] += eps;
            let lp = matmul(&ap, &b).unwrap().sum();
            let mut am = a.clone();
            am.data_mut()[i] -= eps;
            let lm = matmul(&am, &b).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - da.data()[i]).abs() < 1e-2, "dA[{i}]: fd {fd} vs {}", da.data()[i]);
        }
        for i in 0..b.len() {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let lp = matmul(&a, &bp).unwrap().sum();
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let lm = matmul(&a, &bm).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - db.data()[i]).abs() < 1e-2, "dB[{i}]: fd {fd} vs {}", db.data()[i]);
        }
    }

    #[test]
    fn packed_matches_reference_across_blocking_edges() {
        // Shapes straddling every blocking boundary: unit dims, sub-tile,
        // exact tile multiples, and off-by-one around MR/NR/KC.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 300, 1),
            (3, 7, 5),
            (4, 256, 8),
            (5, 257, 9),
            (17, 64, 23),
            (33, 129, 31),
        ] {
            let a = Tensor::from_fn([m, k], |i| ((i * 37 % 97) as f32 - 48.0) * 0.03);
            let b = Tensor::from_fn([k, n], |i| ((i * 53 % 89) as f32 - 44.0) * 0.05);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_reference(&a, &b).unwrap();
            for (i, (x, y)) in fast.data().iter().zip(slow.data()).enumerate() {
                assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0), "({m},{k},{n})[{i}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn packed_gemm_is_bitwise_identical_across_thread_counts() {
        // Big enough that plan_threads actually grants extra threads.
        let a = Tensor::from_fn([128, 300], |i| ((i * 31 % 101) as f32 - 50.0) * 0.02);
        let b = Tensor::from_fn([300, 128], |i| ((i * 17 % 103) as f32 - 51.0) * 0.02);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            crate::par::set_max_threads(threads);
            runs.push(matmul(&a, &b).unwrap());
        }
        crate::par::set_max_threads(0);
        for r in &runs[1..] {
            assert_eq!(r.data(), runs[0].data());
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), [2, 3]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(transpose(&t).unwrap(), a);
    }

    #[test]
    fn bias_add_and_backward() {
        let x = Tensor::zeros([3, 2]);
        let b = Tensor::from_slice(&[1.0, -1.0]);
        let y = add_bias(&x, &b).unwrap();
        assert_eq!(y.data(), &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        let db = add_bias_backward(&y).unwrap();
        assert_eq!(db.data(), &[3.0, -3.0]);
    }

    #[test]
    fn embedding_gathers_and_scatters() {
        let table = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], [3, 2]).unwrap();
        let ids = Tensor::from_slice(&[2.0, 0.0, 2.0]);
        let out = embedding_forward(&table, &ids).unwrap();
        assert_eq!(out.data(), &[2.0, 2.0, 0.0, 0.0, 2.0, 2.0]);
        let dy = Tensor::ones([3, 2]);
        let dt = embedding_backward(table.shape(), &ids, &dy).unwrap();
        // Row 2 was gathered twice, row 0 once, row 1 never.
        assert_eq!(dt.data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn embedding_rejects_out_of_vocab() {
        let table = Tensor::zeros([3, 2]);
        let ids = Tensor::from_slice(&[5.0]);
        assert!(matches!(
            embedding_forward(&table, &ids),
            Err(TensorError::IndexOutOfRange { bound: 3, .. })
        ));
    }
}
