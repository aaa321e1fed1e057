//! Software prefetch hint for the controller's playback wheel
//! ([`crate::delay_storage::DelayStorageBuffer::prefetch_row`]).

/// Issues a hardware prefetch for `p`'s cache line on targets that have
/// one; a no-op elsewhere. Fire-and-forget: unlike a dummy load, the
/// line fill occupies no register and never delays retirement.
#[inline]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint with no memory effects; it is valid
    // for any address, and SSE is baseline on x86_64.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast())
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_is_semantically_inert() {
        let xs = [1u64, 2, 3];
        prefetch_read(xs.as_ptr());
        prefetch_read(std::ptr::null::<u64>());
        assert_eq!(xs, [1, 2, 3]);
    }
}
