//! AVX2 batched byte-table folds for the hashing hot paths.
//!
//! Every hash family in this crate evaluates as a XOR-fold of per-byte
//! lookup tables (`out = init ⊕ ⊕_c table_c[byte_c(x)]` — the H3 trick),
//! which vectorizes as one gather per table per lane group. The kernels
//! here process 8 addresses per iteration for the 32-bit folds (H3 bank
//! hashing, tabulation) and 4 per iteration for the full-width 64-bit
//! fold (the affine channel-select/placement stage), with scalar tails.
//!
//! Bit-identity with the scalar paths is a hard contract: XOR is
//! commutative and the gathers read exactly the same table entries the
//! scalar loops do, so results match bit for bit on every input — the
//! `batch_bit_identical_to_scalar` proptests in each family pin this
//! three ways (per-element ≡ scalar batch ≡ dispatching batch).
//!
//! Entry points return `false` when AVX2 is unavailable at runtime (or
//! the batch is too small to be worth dispatching); callers then fall
//! through to their scalar loops. The platform picks the path — there is
//! no build-time switch; the module is compiled out only where the
//! target is not x86_64.

use std::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_blend_epi32,
    _mm256_castsi256_si128, _mm256_i32gather_epi32, _mm256_i32gather_epi64, _mm256_loadu_si256,
    _mm256_mul_epu32, _mm256_permutevar8x32_epi32, _mm256_set1_epi32, _mm256_set1_epi64x,
    _mm256_setr_epi32, _mm256_slli_epi64, _mm256_srl_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_xor_si256, _mm_cvtsi32_si128,
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
#[inline]
pub(crate) fn fold_u32(tables: &[[u64; 256]], init: u32, addrs: &[u64], out: &mut [u32]) -> bool {
    debug_assert_eq!(addrs.len(), out.len());
    if addrs.len() < MIN_LANES || !avx2() {
        return false;
    }
    // SAFETY: AVX2 presence verified by the runtime probe above.
    unsafe { fold_u32_avx2(tables, init, addrs, out) };
    true
}

/// 32-bit XOR-fold over the 8 `u32`-entry tables of simple tabulation:
/// `out[i] = ⊕_c tables[c][byte_c(addrs[i])]`.
#[inline]
pub(crate) fn fold_tab_u32(tables: &[[u32; 256]; 8], addrs: &[u64], out: &mut [u32]) -> bool {
    debug_assert_eq!(addrs.len(), out.len());
    if addrs.len() < MIN_LANES || !avx2() {
        return false;
    }
    // SAFETY: AVX2 presence verified by the runtime probe above.
    unsafe { fold_tab_u32_avx2(tables, addrs, out) };
    true
}

/// Full-width XOR-fold over `u64`-entry byte tables:
/// `out[i] = init ⊕ ⊕_c tables[c][byte_c(addrs[i])]` — the affine
/// permutation's `apply` over a batch.
#[inline]
pub(crate) fn fold_u64(tables: &[[u64; 256]], init: u64, addrs: &[u64], out: &mut [u64]) -> bool {
    debug_assert_eq!(addrs.len(), out.len());
    if addrs.len() < MIN_LANES || !avx2() {
        return false;
    }
    // SAFETY: AVX2 presence verified by the runtime probe above.
    unsafe { fold_u64_avx2(tables, init, addrs, out) };
    true
}

/// Packs the low dwords of two 4×u64 byte vectors into one 8×u32 index
/// vector (lanes 0..3 from `lo`, 4..7 from `hi`). Each u64 lane holds a
/// value in `0..=255`, so its payload sits entirely in its even dword.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn pack_indices(lo: __m256i, hi: __m256i, pat: __m256i) -> __m256i {
    let l = _mm256_permutevar8x32_epi32(lo, pat);
    let h = _mm256_permutevar8x32_epi32(hi, pat);
    _mm256_blend_epi32::<0xF0>(l, h)
}

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

#[target_feature(enable = "avx2")]
unsafe fn fold_tab_u32_avx2(tables: &[[u32; 256]; 8], addrs: &[u64], out: &mut [u32]) {
    let n = addrs.len();
    let pat = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    let byte_mask = _mm256_set1_epi64x(0xFF);
    let mut i = 0;
    while i + 8 <= n {
        let a_lo = _mm256_loadu_si256(addrs.as_ptr().add(i).cast());
        let a_hi = _mm256_loadu_si256(addrs.as_ptr().add(i + 4).cast());
        let mut acc = _mm256_set1_epi32(0);
        for (c, table) in tables.iter().enumerate() {
            let shift = _mm_cvtsi32_si128(8 * c as i32);
            let lo_b = _mm256_and_si256(_mm256_srl_epi64(a_lo, shift), byte_mask);
            let hi_b = _mm256_and_si256(_mm256_srl_epi64(a_hi, shift), byte_mask);
            let idx = pack_indices(lo_b, hi_b, pat);
            let ent = _mm256_i32gather_epi32::<4>(table.as_ptr().cast(), idx);
            acc = _mm256_xor_si256(acc, ent);
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), acc);
        i += 8;
    }
    for (o, &a) in out[i..].iter_mut().zip(&addrs[i..]) {
        let mut v = 0u32;
        for (c, table) in tables.iter().enumerate() {
            v ^= table[((a >> (8 * c)) & 0xFF) as usize];
        }
        *o = v;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn fold_u64_avx2(tables: &[[u64; 256]], init: u64, addrs: &[u64], out: &mut [u64]) {
    let n = addrs.len();
    let pat = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    let byte_mask = _mm256_set1_epi64x(0xFF);
    let mut i = 0;
    while i + 4 <= n {
        let a = _mm256_loadu_si256(addrs.as_ptr().add(i).cast());
        let mut acc = _mm256_set1_epi64x(init as i64);
        for (c, table) in tables.iter().enumerate() {
            let shift = _mm_cvtsi32_si128(8 * c as i32);
            let bytes = _mm256_and_si256(_mm256_srl_epi64(a, shift), byte_mask);
            // 4 dword indices in the low 128 bits, gathering full u64
            // entries at stride 8.
            let idx: __m128i = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(bytes, pat));
            let ent = _mm256_i32gather_epi64::<8>(table.as_ptr().cast(), idx);
            acc = _mm256_xor_si256(acc, ent);
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), acc);
        i += 4;
    }
    for (o, &a) in out[i..].iter_mut().zip(&addrs[i..]) {
        let mut v = init;
        for (c, table) in tables.iter().enumerate() {
            v ^= table[(a >> (8 * c)) as u8 as usize];
        }
        *o = v;
    }
}

/// Lane-wise 64-bit modular multiply by a constant — AVX2 has no
/// `epi64` multiply, so compose it from three 32×32→64 partial
/// products: `lo·lo + ((lo·hi + hi·lo) << 32)`, which is exactly the
/// low 64 bits of the full product (the scalar `wrapping_mul`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_epu64(a: __m256i, b: __m256i) -> __m256i {
    let lo = _mm256_mul_epu32(a, b);
    let cross1 = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
    let cross2 = _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b));
    let cross = _mm256_add_epi64(cross1, cross2);
    _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
}

/// Batched SplitMix64 finalizer: `out[i] = splitmix64(inputs[i])`,
/// bit-identical to `fast::splitmix64` (wrapping adds/multiplies map
/// one-to-one onto the modular vector ops). Returns `false` when the
/// AVX2 path is unavailable or the batch is too small.
#[inline]
pub(crate) fn splitmix64_fold(inputs: &[u64], out: &mut [u64]) -> bool {
    debug_assert_eq!(inputs.len(), out.len());
    if inputs.len() < MIN_LANES || !avx2() {
        return false;
    }
    // SAFETY: AVX2 presence verified by the runtime probe above.
    unsafe { splitmix64_avx2(inputs, out) };
    true
}

#[target_feature(enable = "avx2")]
unsafe fn splitmix64_avx2(inputs: &[u64], out: &mut [u64]) {
    let n = inputs.len();
    let gold = _mm256_set1_epi64x(0x9E37_79B9_7F4A_7C15u64 as i64);
    let c1 = _mm256_set1_epi64x(0xBF58_476D_1CE4_E5B9u64 as i64);
    let c2 = _mm256_set1_epi64x(0x94D0_49BB_1331_11EBu64 as i64);
    let mut i = 0;
    while i + 4 <= n {
        let mut z = _mm256_loadu_si256(inputs.as_ptr().add(i).cast());
        z = _mm256_add_epi64(z, gold);
        z = _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z));
        z = mul_epu64(z, c1);
        z = _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z));
        z = mul_epu64(z, c2);
        z = _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z));
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), z);
        i += 4;
    }
    for (o, &x) in out[i..].iter_mut().zip(&inputs[i..]) {
        *o = crate::fast::splitmix64(x);
    }
}
