//! AVX2+FMA twin of the scalar matmul accumulation kernel
//! (`linalg::matmul_accumulate_scalar`), x86_64 only.
//!
//! ## Lane-ordered accumulation contract
//!
//! The vector kernel keeps the *structure* of the scalar oracle
//! exactly — the same i/j-only cache blocking, the same 32/16/8/4-wide
//! span decomposition, one ascending-`k` pass per output element, and
//! the same `lhs == 0.0` skip — and changes exactly one thing: every
//! multiply-add is **fused** (`vfmaddpd` / `f64::mul_add`, one rounding
//! instead of two). Vector lanes hold *independent output columns*, so
//! no element's sum is ever split or reordered across lanes; each
//! output element is the plain recurrence
//!
//! ```text
//! acc := fma(a[i, p], b[p, j], acc)   for p = 0, 1, …, k-1 (skipping 0s)
//! ```
//!
//! which makes the kernel's results
//!
//! * **self-deterministic** — byte-identical across runs, span widths,
//!   blocked/unblocked paths and thread counts (property-tested in
//!   `crates/tensor/tests/backend_equivalence.rs` against a scalar
//!   `mul_add` reference implementing the recurrence verbatim), and
//! * within strict relative tolerance of the scalar oracle — each FMA
//!   commits at most one half-ulp less rounding error than the
//!   separately rounded multiply+add, so element-wise
//!   `|simd − scalar| ≤ (k + 1)·ε·Σₚ|a[i,p]·b[p,j]|`.

use crate::linalg::{MM_BLOCK, MM_BLOCK_THRESHOLD};
use core::arch::x86_64::{
    __m256d, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_storeu_pd,
};

/// Accumulates `out[i, j..j+4·L] += Σ_p a[i, p] · b[p, j..j+4·L]` with
/// `L` 4-lane vector accumulators living in registers across the whole
/// `p` loop (L = 8/4/2/1 for the 32/16/8/4-wide spans).
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, `b.len() ≥ (k-1)·n + j +
/// 4·L` for `k = a_row.len()`, and `out_row.len() ≥ j + 4·L`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn accum_tile<const L: usize>(
    a_row: &[f64],
    b: &[f64],
    out_row: &mut [f64],
    n: usize,
    j: usize,
) {
    debug_assert!(out_row.len() >= j + 4 * L);
    debug_assert!(b.len() + n >= a_row.len() * n + j + 4 * L);
    let out_ptr = out_row.as_mut_ptr().add(j);
    // SAFETY (closure): `out_ptr + 4·l + 3` stays within `out_row` by
    // the length precondition above.
    let mut acc: [__m256d; L] =
        core::array::from_fn(|l| unsafe { _mm256_loadu_pd(out_ptr.add(4 * l)) });
    let b_ptr = b.as_ptr().add(j);
    for (p, &aip) in a_row.iter().enumerate() {
        if aip == 0.0 {
            continue;
        }
        let av = _mm256_set1_pd(aip);
        let brow = b_ptr.add(p * n);
        for (l, acc_l) in acc.iter_mut().enumerate() {
            *acc_l = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow.add(4 * l)), *acc_l);
        }
    }
    for (l, acc_l) in acc.iter().enumerate() {
        _mm256_storeu_pd(out_ptr.add(4 * l), *acc_l);
    }
}

/// Vector twin of `linalg::accum_row_span`: decomposes one output row
/// span into 32/16/8/4-wide register tiles plus a fused-multiply-add
/// scalar tail, so every element of the span follows the lane-ordered
/// contract above.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and the slice geometry of
/// [`matmul_accumulate_simd`] holds with `jb ≤ j_end ≤ n`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn accum_row_span(
    a_row: &[f64],
    b: &[f64],
    out_row: &mut [f64],
    n: usize,
    jb: usize,
    j_end: usize,
) {
    let mut j = jb;
    while j + 32 <= j_end {
        accum_tile::<8>(a_row, b, out_row, n, j);
        j += 32;
    }
    if j + 16 <= j_end {
        accum_tile::<4>(a_row, b, out_row, n, j);
        j += 16;
    }
    if j + 8 <= j_end {
        accum_tile::<2>(a_row, b, out_row, n, j);
        j += 8;
    }
    if j + 4 <= j_end {
        accum_tile::<1>(a_row, b, out_row, n, j);
        j += 4;
    }
    if j < j_end {
        // Scalar tail: `mul_add` compiles to the scalar FMA instruction
        // inside this `target_feature(fma)` context, so tail elements
        // round exactly like lane elements.
        for (p, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n + j..p * n + j_end];
            let orow = &mut out_row[j..j_end];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = aip.mul_add(bv, *o);
            }
        }
    }
}

/// The whole accumulation — blocking decision, i/j tiles, span
/// decomposition — inside one `target_feature` unit so the span and
/// tile helpers inline into fully vectorized loops.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and the slice lengths
/// match the dimensions (`a: m·k`, `b: k·n`, `out: m·n`).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_accumulate_avx2(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    if m * n * k >= MM_BLOCK_THRESHOLD && n > MM_BLOCK {
        // Same i/j-only tiling as the scalar kernel: each element's p
        // loop still runs 0..k in one ascending pass.
        for ib in (0..m).step_by(MM_BLOCK) {
            let i_end = (ib + MM_BLOCK).min(m);
            for jb in (0..n).step_by(MM_BLOCK) {
                let j_end = (jb + MM_BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n..(i + 1) * n];
                    accum_row_span(a_row, b, out_row, n, jb, j_end);
                }
            }
        }
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        accum_row_span(a_row, b, out_row, n, 0, n);
    }
}

/// AVX2+FMA twin of `linalg::matmul_accumulate_scalar`: accumulates
/// `out += a · b` for row-major `a [m, k]`, `b [k, n]` under the
/// lane-ordered contract documented in this module's header.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available on the running CPU
/// (`KernelBackend::active() == Simd` guarantees this); slice-length
/// mismatches panic like the scalar twin.
pub(crate) unsafe fn matmul_accumulate_simd(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    assert_eq!(out.len(), m * n, "matmul out length");
    matmul_accumulate_avx2(a, b, out, m, k, n)
}

#[cfg(test)]
mod tests {
    use crate::{KernelBackend, Rng64, Tensor};

    /// The SIMD contract's reference recurrence, verbatim: ascending-p
    /// fused multiply-add from `0.0`, skipping `lhs == 0.0`.
    fn naive_fma_matmul(a: &Tensor, b: &Tensor) -> Vec<f64> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    let aip = a.data()[i * k + p];
                    if aip == 0.0 {
                        continue;
                    }
                    acc = aip.mul_add(b.data()[p * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn simd_matmul_matches_fma_reference_bitwise() {
        if !KernelBackend::simd_available() {
            return;
        }
        let mut rng = Rng64::seed_from(11);
        // 37 columns = 32-tile + 4-tile + 1 tail; 9 rows, k = 13.
        let a = Tensor::rand_normal(&[9, 13], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[13, 37], 0.0, 1.0, &mut rng);
        let got = {
            let _scope = KernelBackend::Simd.scoped();
            a.matmul(&b)
        };
        assert_eq!(got.data(), naive_fma_matmul(&a, &b).as_slice());
    }

    #[test]
    fn simd_blocked_path_matches_fma_reference_bitwise() {
        if !KernelBackend::simd_available() {
            return;
        }
        let mut rng = Rng64::seed_from(12);
        // 64·65·64 ≥ MM_BLOCK_THRESHOLD with n = 65 > MM_BLOCK forces
        // the blocked path; its j spans are 64 (32+32) and 1 (tail).
        let a = Tensor::rand_normal(&[64, 64], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[64, 65], 0.0, 1.0, &mut rng);
        let got = {
            let _scope = KernelBackend::Simd.scoped();
            a.matmul(&b)
        };
        assert_eq!(got.data(), naive_fma_matmul(&a, &b).as_slice());
    }
}
