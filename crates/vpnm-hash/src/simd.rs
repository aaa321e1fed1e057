//! AVX2 batched byte-table fold for H3 bank hashing.
//!
//! H3 evaluates as a XOR-fold of per-byte lookup tables (`out = init ⊕
//! ⊕_c table_c[byte_c(x)]`), which vectorizes as one gather per table
//! per lane group. The kernel here processes 8 addresses per iteration,
//! with a scalar tail.
//!
//! Bit-identity with the scalar path is a hard contract: XOR is
//! commutative and the gathers read exactly the same table entries the
//! scalar loop does, so results match bit for bit on every input — the
//! H3 `batch_bit_identical_to_scalar` proptest pins this three ways
//! (per-element ≡ scalar batch ≡ dispatching batch).
//!
//! This is the crate's one vector kernel because it is the one measured
//! to pay: with the vector folds switched off, the benchmark's
//! `mem_dense_reads` workload ran 2.3 % slower end to end
//! (docs/PERFORMANCE.md, "The `unsafe` inventory"). The
//! entry point returns `false` when AVX2 is unavailable at runtime (or
//! the batch is too small to be worth dispatching); the caller then
//! falls through to its scalar loop. The platform picks the path —
//! there is no build-time switch; the module is compiled out only where
//! the target is not x86_64.

use std::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_blend_epi32, _mm256_i32gather_epi32, _mm256_loadu_si256,
    _mm256_permutevar8x32_epi32, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_setr_epi32,
    _mm256_srl_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm_cvtsi32_si128,
};

/// Below this batch length the dispatch overhead beats the vector win.
const MIN_LANES: usize = 8;

/// Cached result of the AVX2 runtime probe.
#[inline]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Low-32-bit XOR-fold over `u64`-entry byte tables:
/// `out[i] = init ⊕ ⊕_c (tables[c][byte_c(addrs[i])] as u32)`.
///
/// Identical to the H3 scalar fold because truncation to 32 bits
/// commutes with XOR. Returns `false` (leaving `out` untouched) when the
/// AVX2 path is unavailable.
///
/// # Panics
///
/// Panics if `addrs` and `out` differ in length — in every profile,
/// because the kernel stores a full 8-lane vector into `out` for every
/// full block of `addrs`.
#[inline]
pub(crate) fn fold_u32(tables: &[[u64; 256]], init: u32, addrs: &[u64], out: &mut [u32]) -> bool {
    assert_eq!(addrs.len(), out.len(), "batch slices must match in length");
    if addrs.len() < MIN_LANES || !avx2() {
        return false;
    }
    // SAFETY: AVX2 presence verified by the runtime probe above, and
    // `out.len() == addrs.len()` asserted, as the kernel requires.
    unsafe { fold_u32_avx2(tables, init, addrs, out) };
    true
}

/// Packs the low dwords of two 4×u64 byte vectors into one 8×u32 index
/// vector (lanes 0..3 from `lo`, 4..7 from `hi`). Each u64 lane holds a
/// value in `0..=255`, so its payload sits entirely in its even dword.
///
/// # Safety
///
/// The caller must ensure the host supports AVX2. The function touches
/// no memory.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn pack_indices(lo: __m256i, hi: __m256i, pat: __m256i) -> __m256i {
    let l = _mm256_permutevar8x32_epi32(lo, pat);
    let h = _mm256_permutevar8x32_epi32(hi, pat);
    _mm256_blend_epi32::<0xF0>(l, h)
}

/// The AVX2 body of [`fold_u32`].
///
/// # Safety
///
/// The caller must ensure the host supports AVX2 and that
/// `out.len() >= addrs.len()`: every full block of 8 addresses is
/// loaded from `addrs` and stored to `out` through raw pointers. The
/// gathers stay in bounds without further promises — each index is a
/// masked byte (`0..=255`) into a 256-entry table.
#[target_feature(enable = "avx2")]
unsafe fn fold_u32_avx2(tables: &[[u64; 256]], init: u32, addrs: &[u64], out: &mut [u32]) {
    let n = addrs.len();
    // Even dwords of a 4×u64 vector, duplicated so one blend assembles
    // the 8-lane index vector.
    let pat = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    let byte_mask = _mm256_set1_epi64x(0xFF);
    let mut i = 0;
    while i + 8 <= n {
        let a_lo = _mm256_loadu_si256(addrs.as_ptr().add(i).cast());
        let a_hi = _mm256_loadu_si256(addrs.as_ptr().add(i + 4).cast());
        let mut acc = _mm256_set1_epi32(init as i32);
        for (c, table) in tables.iter().enumerate() {
            let shift = _mm_cvtsi32_si128(8 * c as i32);
            let lo_b = _mm256_and_si256(_mm256_srl_epi64(a_lo, shift), byte_mask);
            let hi_b = _mm256_and_si256(_mm256_srl_epi64(a_hi, shift), byte_mask);
            let idx = pack_indices(lo_b, hi_b, pat);
            // Scale 8 strides over the u64 entries; the gathered dword is
            // the entry's low half (little-endian), which is all the
            // 32-bit fold keeps.
            let ent = _mm256_i32gather_epi32::<8>(table.as_ptr().cast(), idx);
            acc = _mm256_xor_si256(acc, ent);
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), acc);
        i += 8;
    }
    for (o, &a) in out[i..].iter_mut().zip(&addrs[i..]) {
        let mut v = init;
        for (c, table) in tables.iter().enumerate() {
            v ^= table[(a >> (8 * c)) as u8 as usize] as u32;
        }
        *o = v;
    }
}

#[cfg(test)]
mod tests {
    use super::fold_u32;

    /// A short `out` is rejected before the kernel can store past it —
    /// in release too, where a `debug_assert` would have vanished.
    #[test]
    #[should_panic(expected = "must match in length")]
    fn short_out_rejected() {
        let tables = vec![[0u64; 256]; 4];
        let addrs = [0u64; 16];
        let mut out = [0u32; 8];
        fold_u32(&tables, 0, &addrs, &mut out);
    }
}
