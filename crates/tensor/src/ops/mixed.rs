//! Mixed-precision GEMM and convolution: half-precision storage, f32
//! accumulation.
//!
//! Tensor-core style kernels (and Tango's matrix-unit roofline) read f16 or
//! bf16 operands but accumulate partial products in f32. This module models
//! exactly that numeric contract on the CPU: operands are *quantised
//! through* the half format (round-to-nearest-even), then the existing
//! packed f32 GEMM/conv kernels run unchanged — every multiply sees
//! half-precision inputs, every add is full f32. That keeps the mixed
//! kernels bitwise deterministic across thread counts (they inherit the
//! banding guarantees of [`super::matmul`]) and makes the error analysable:
//! for `C = A·B` with inner dimension `k`,
//!
//! ```text
//! |ĉᵢⱼ − cᵢⱼ| ≤ 2 · (k + 2) · ε_p · max|A| · max|B|
//! ```
//!
//! where `ε_p` is [`Precision::unit_roundoff`] (2⁻¹¹ for f16, 2⁻⁸ for
//! bf16): each of the `k` products carries one `ε_p` from each quantised
//! operand, and the f32 accumulation roundings are negligible next to the
//! storage error.
//!
//! Conversions are implemented bit-exactly by hand (no external half-float
//! crate): f16 with subnormal and overflow handling, bf16 as truncated f32
//! with round-to-nearest-even.

use super::conv::{conv2d_backward, conv2d_forward, Conv2dConfig};
use super::linalg::{matmul, matmul_backward};
use crate::{Precision, Result, Tensor};

/// Converts an `f32` to IEEE-754 binary16 bits, rounding to nearest even.
/// Overflow saturates to ±∞; values below the smallest subnormal flush to
/// signed zero; NaN payloads are preserved (truncated, quietened).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x7F_FFFF;
    if exp == 0xFF {
        // Infinity or NaN; force a quiet bit so NaNs stay NaNs.
        return sign | 0x7C00 | if mant != 0 { (mant >> 13) as u16 | 0x0200 } else { 0 };
    }
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7C00; // overflow → ±inf
    }
    if e >= -14 {
        // Normal range: keep 10 mantissa bits, RNE on the 13 dropped bits.
        let mut m = mant >> 13;
        let rem = mant & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut he = (e + 15) as u32;
        if m == 0x400 {
            // Mantissa carry bumps the exponent (1.111.. rounds to 10.0).
            m = 0;
            he += 1;
            if he >= 31 {
                return sign | 0x7C00;
            }
        }
        return sign | ((he as u16) << 10) | m as u16;
    }
    if e < -25 {
        return sign; // underflows even the subnormal range
    }
    // Subnormal: shift the (implicit-1) mantissa into place with RNE.
    let m = mant | 0x80_0000;
    let shift = (13 + (-14 - e)) as u32;
    let mut v = m >> shift;
    let rem = m & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    if rem > half || (rem == half && (v & 1) == 1) {
        v += 1; // a carry here lands in the exponent field, correctly
    }
    sign | v as u16
}

/// Converts IEEE-754 binary16 bits to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x3FF) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: renormalise into f32's ample exponent range.
            let mut e = 127 - 15 + 1;
            let mut m = mant;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | ((e as u32) << 23) | ((m & 0x3FF) << 13)
        }
    } else if exp == 31 {
        sign | 0x7F80_0000 | (mant << 13)
    } else {
        sign | ((exp + 112) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Converts an `f32` to bfloat16 bits: truncate to the high 16 bits with
/// round-to-nearest-even. NaNs are quietened.
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let hi = (bits >> 16) as u16;
    let rem = bits & 0xFFFF;
    if rem > 0x8000 || (rem == 0x8000 && (hi & 1) == 1) {
        hi.wrapping_add(1) // carry through exponent is correct (→ ±inf)
    } else {
        hi
    }
}

/// Converts bfloat16 bits to `f32` (exact).
pub fn bf16_bits_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Rounds one value through the storage format of `precision` and back.
/// At [`Precision::F32`] this is the identity.
pub fn quantize(x: f32, precision: Precision) -> f32 {
    match precision {
        Precision::F32 => x,
        Precision::F16 => f16_bits_to_f32(f32_to_f16_bits(x)),
        Precision::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(x)),
    }
}

/// Quantises every element of a tensor through the storage format.
pub fn quantize_tensor(t: &Tensor, precision: Precision) -> Tensor {
    match precision {
        Precision::F32 => t.clone(),
        _ => t.map(|v| quantize(v, precision)),
    }
}

/// Matrix product with operands stored at `precision` and f32 accumulation.
/// At [`Precision::F32`] this is exactly [`super::matmul`] (same bits).
///
/// # Errors
///
/// Same shape/rank errors as [`super::matmul`].
pub fn matmul_mixed(a: &Tensor, b: &Tensor, precision: Precision) -> Result<Tensor> {
    match precision {
        Precision::F32 => matmul(a, b),
        _ => matmul(&quantize_tensor(a, precision), &quantize_tensor(b, precision)),
    }
}

/// Gradients of [`matmul_mixed`]: the backward products also read
/// half-stored operands and accumulate in f32 (`dC` is quantised too, as a
/// stored activation gradient would be).
///
/// # Errors
///
/// Propagates shape errors from the underlying products.
pub fn matmul_backward_mixed(
    a: &Tensor,
    b: &Tensor,
    dc: &Tensor,
    precision: Precision,
) -> Result<(Tensor, Tensor)> {
    match precision {
        Precision::F32 => matmul_backward(a, b, dc),
        _ => matmul_backward(
            &quantize_tensor(a, precision),
            &quantize_tensor(b, precision),
            &quantize_tensor(dc, precision),
        ),
    }
}

/// 2-D convolution with operands stored at `precision` and f32 accumulation.
/// At [`Precision::F32`] this is exactly [`conv2d_forward`] (same bits).
///
/// # Errors
///
/// Same errors as [`conv2d_forward`].
pub fn conv2d_forward_mixed(
    x: &Tensor,
    weight: &Tensor,
    cfg: Conv2dConfig,
    precision: Precision,
) -> Result<Tensor> {
    match precision {
        Precision::F32 => conv2d_forward(x, weight, cfg),
        _ => {
            conv2d_forward(&quantize_tensor(x, precision), &quantize_tensor(weight, precision), cfg)
        }
    }
}

/// Gradients of [`conv2d_forward_mixed`]; see [`matmul_backward_mixed`] for
/// the quantisation contract.
///
/// # Errors
///
/// Same errors as [`conv2d_backward`].
pub fn conv2d_backward_mixed(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    cfg: Conv2dConfig,
    precision: Precision,
) -> Result<(Tensor, Tensor)> {
    match precision {
        Precision::F32 => conv2d_backward(x, weight, dy, cfg),
        _ => conv2d_backward(
            &quantize_tensor(x, precision),
            &quantize_tensor(weight, precision),
            &quantize_tensor(dy, precision),
            cfg,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trip_on_exactly_representable_values() {
        let min_normal = 2.0f32.powi(-14);
        for &v in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, min_normal] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), v, "{v}");
        }
        // Largest and smallest f16 subnormals survive the trip.
        let max_sub = f16_bits_to_f32(0x03FF);
        assert_eq!(f32_to_f16_bits(max_sub), 0x03FF);
        let tiny = f16_bits_to_f32(1); // 2^-24
        assert_eq!(f32_to_f16_bits(tiny), 1);
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and 1 + 2^-10 → ties to even (1.0).
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0 + 2.0f32.powi(-11))), 1.0);
        // 1 + 3·2^-11 ties between odd (1+2^-10) and even (1+2^-9) → even.
        let up = f16_bits_to_f32(f32_to_f16_bits(1.0 + 3.0 * 2.0f32.powi(-11)));
        assert_eq!(up, 1.0 + 2.0f32.powi(-9));
        // Anything past the halfway point rounds away from zero.
        assert!(f16_bits_to_f32(f32_to_f16_bits(1.0 + 1.5 * 2.0f32.powi(-11))) > 1.0);
    }

    #[test]
    fn f16_overflow_and_specials() {
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0e6)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1.0e6)), f32::NEG_INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)), f32::INFINITY);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // 65520 is the first value that rounds past f16::MAX.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65520.0)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65519.0)), 65504.0);
        // Deep underflow flushes to signed zero.
        assert_eq!(f32_to_f16_bits(1.0e-10), 0);
        assert_eq!(f32_to_f16_bits(-1.0e-10), 0x8000);
    }

    #[test]
    fn bf16_truncates_with_rne_and_keeps_range() {
        assert_eq!(bf16_bits_to_f32(f32_to_bf16_bits(1.0)), 1.0);
        // bf16 shares f32's exponent, so 1e38 survives where f16 overflows.
        let big = bf16_bits_to_f32(f32_to_bf16_bits(1.0e38));
        assert!(big.is_finite() && (big - 1.0e38).abs() / 1.0e38 < 0.01);
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
        // Tie rounds to even mantissa.
        let tie = f32::from_bits(0x3F80_8000); // 1.0 + exactly half a bf16 ULP
        assert_eq!(bf16_bits_to_f32(f32_to_bf16_bits(tie)), 1.0);
    }

    #[test]
    fn quantization_error_is_bounded_by_unit_roundoff() {
        for p in [Precision::F16, Precision::Bf16] {
            let eps = p.unit_roundoff();
            for i in 0..2000 {
                let v = ((i * 2654435761u64 % 1_000_003) as f32 / 1_000_003.0 - 0.5) * 8.0;
                let q = quantize(v, p);
                assert!(
                    (q - v).abs() <= eps * v.abs().max(f16_bits_to_f32(0x0400)),
                    "{p}: {v} → {q}"
                );
            }
        }
    }

    #[test]
    fn mixed_gemm_stays_within_documented_ulp_bound() {
        // Seeded pseudo-random operands; bound from the module docs.
        let (m, k, n) = (17, 64, 23);
        let a = Tensor::from_fn([m, k], |i| ((i * 37 % 97) as f32 - 48.0) * 0.03);
        let b = Tensor::from_fn([k, n], |i| ((i * 53 % 89) as f32 - 44.0) * 0.05);
        let exact = matmul(&a, &b).unwrap();
        let amax = a.data().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
        let bmax = b.data().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
        for p in [Precision::F16, Precision::Bf16] {
            let approx = matmul_mixed(&a, &b, p).unwrap();
            let bound = 2.0 * (k as f32 + 2.0) * p.unit_roundoff() * amax * bmax;
            for (i, (x, y)) in approx.data().iter().zip(exact.data()).enumerate() {
                assert!((x - y).abs() <= bound, "{p}[{i}]: {x} vs {y} (bound {bound})");
            }
        }
    }

    #[test]
    fn mixed_at_f32_is_bitwise_the_f32_kernel() {
        let a = Tensor::from_fn([5, 9], |i| (i as f32 * 0.7).sin());
        let b = Tensor::from_fn([9, 4], |i| (i as f32 * 0.3).cos());
        assert_eq!(
            matmul_mixed(&a, &b, Precision::F32).unwrap().data(),
            matmul(&a, &b).unwrap().data()
        );
        let x = Tensor::from_fn([1, 2, 5, 5], |i| (i as f32 * 0.11).sin());
        let w = Tensor::from_fn([3, 2, 3, 3], |i| (i as f32 * 0.17).cos());
        let cfg = Conv2dConfig::new(1, 1);
        assert_eq!(
            conv2d_forward_mixed(&x, &w, cfg, Precision::F32).unwrap().data(),
            conv2d_forward(&x, &w, cfg).unwrap().data()
        );
    }

    #[test]
    fn mixed_conv_tracks_f32_within_bound() {
        let cfg = Conv2dConfig::new(1, 1);
        let x = Tensor::from_fn([2, 3, 6, 6], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let w = Tensor::from_fn([4, 3, 3, 3], |i| ((i * 5 % 11) as f32 - 5.0) * 0.1);
        let exact = conv2d_forward(&x, &w, cfg).unwrap();
        let patch = 3 * 3 * 3;
        for p in [Precision::F16, Precision::Bf16] {
            let approx = conv2d_forward_mixed(&x, &w, cfg, p).unwrap();
            let bound = 2.0 * (patch as f32 + 2.0) * p.unit_roundoff() * 0.6 * 0.5;
            for (i, (a, b)) in approx.data().iter().zip(exact.data()).enumerate() {
                assert!((a - b).abs() <= bound, "{p}[{i}]: {a} vs {b} (bound {bound})");
            }
        }
    }

    #[test]
    fn mixed_backward_shapes_and_finiteness() {
        let a = Tensor::from_fn([4, 6], |i| (i as f32 * 0.3).sin());
        let b = Tensor::from_fn([6, 5], |i| (i as f32 * 0.2).cos());
        let dc = Tensor::ones([4, 5]);
        let (da, db) = matmul_backward_mixed(&a, &b, &dc, Precision::Bf16).unwrap();
        assert_eq!(da.shape().dims(), &[4, 6]);
        assert_eq!(db.shape().dims(), &[6, 5]);
        assert!(da.data().iter().chain(db.data()).all(|v| v.is_finite()));
    }
}
