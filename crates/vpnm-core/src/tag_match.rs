//! The delay storage buffer's parallel tag compare: one 64-lane equality
//! mask per call — the software stand-in for the comparator column of
//! the paper's CAM (Figure 3).

/// Rows per tag word: one `u64` mask bit per lane.
pub(crate) const LANES: usize = 64;

/// Bit `i` of the result is set iff `tags[i] == tag`.
#[inline]
pub(crate) fn match_mask(tags: &[u16; LANES], tag: u16) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        match_mask_sse2(tags, tag)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        match_mask_portable(tags, tag)
    }
}

/// Safe formulation, and the checked twin of the SSE2 kernel (which
/// debug builds assert against it on every call): a 0/1 byte per lane,
/// then eight bytes packed into eight bits by one multiply (byte `i`
/// lands on bit `56 + i`; no two partial products collide, so nothing
/// carries).
#[inline]
fn match_mask_portable(tags: &[u16; LANES], tag: u16) -> u64 {
    let mut eq = [0u8; LANES];
    for (e, &t) in eq.iter_mut().zip(tags) {
        *e = u8::from(t == tag);
    }
    let mut mask = 0u64;
    for (i, group) in eq.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(group.try_into().expect("chunks_exact(8)"));
        mask |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    mask
}

/// Eight 8-lane compares, packed pairwise to bytes and read out with
/// `movemask`. SSE2 is the x86_64 baseline, so there is nothing to detect.
#[cfg(target_arch = "x86_64")]
#[inline]
fn match_mask_sse2(tags: &[u16; LANES], tag: u16) -> u64 {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi16, _mm_loadu_si128, _mm_movemask_epi8, _mm_packs_epi16,
        _mm_set1_epi16,
    };
    // SAFETY: SSE2 is always present on x86_64. Each unaligned 16-byte
    // load reads lanes `8 * v .. 8 * v + 8` with `v < 8`, inside the
    // 64-lane array the type guarantees.
    let mask = unsafe {
        let needle = _mm_set1_epi16(tag as i16);
        let eq = |v: usize| {
            _mm_cmpeq_epi16(_mm_loadu_si128(tags.as_ptr().add(8 * v).cast::<__m128i>()), needle)
        };
        let mut mask = 0u64;
        for q in 0..4 {
            // An all-ones word saturates to an all-ones byte.
            let bytes = _mm_packs_epi16(eq(2 * q), eq(2 * q + 1));
            mask |= u64::from(_mm_movemask_epi8(bytes) as u16) << (16 * q);
        }
        mask
    };
    debug_assert_eq!(mask, match_mask_portable(tags, tag), "SSE2 kernel diverged from its twin");
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(tags: &[u16; LANES], tag: u16) -> u64 {
        tags.iter().enumerate().fold(0, |m, (i, &t)| m | u64::from(t == tag) << i)
    }

    proptest! {
        /// The dispatching kernel (SSE2 on x86_64) and its portable twin
        /// agree with the lane-by-lane definition, with matches planted
        /// at the vector and word edges — and with none planted.
        #[test]
        fn kernels_agree(
            raw in proptest::collection::vec(any::<u16>(), LANES),
            tag in any::<u16>(),
            planted in proptest::sample::subsequence(vec![0usize, 15, 16, 63], 0..5),
        ) {
            let mut tags: [u16; LANES] = raw.try_into().expect("LANES elements");
            for lane in &planted {
                tags[*lane] = tag;
            }
            let want = naive(&tags, tag);
            for lane in planted {
                prop_assert!(want >> lane & 1 == 1);
            }
            prop_assert_eq!(match_mask(&tags, tag), want);
            prop_assert_eq!(match_mask_portable(&tags, tag), want);
        }
    }

    #[test]
    fn all_and_none() {
        assert_eq!(match_mask(&[7; LANES], 7), u64::MAX);
        assert_eq!(match_mask_portable(&[7; LANES], 7), u64::MAX);
        assert_eq!(match_mask(&[7; LANES], 8), 0);
        assert_eq!(match_mask_portable(&[7; LANES], 8), 0);
    }
}
