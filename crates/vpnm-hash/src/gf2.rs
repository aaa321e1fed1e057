//! Dense linear algebra over GF(2) on up-to-64-bit vectors.
//!
//! A hardware address randomizer is an XOR network: each output bit is the
//! parity of a subset of input bits, i.e. multiplication of the address
//! vector by a boolean matrix. [`BitMatrix`] provides exactly that, plus
//! rank/inversion so we can construct *invertible* (bijective) randomizers
//! for memory placement.

use rand::Rng;

/// A dense `rows × cols` matrix over GF(2), `rows, cols ≤ 64`.
///
/// Each row is stored as a `u64` bit mask; column `j` of row `i` is bit `j`
/// of `rows[i]`. Matrix–vector multiplication maps a `cols`-bit input to a
/// `rows`-bit output.
///
/// ```
/// use vpnm_hash::BitMatrix;
/// let id = BitMatrix::identity(8);
/// assert_eq!(id.mul_vec(0b1011_0001), 0b1011_0001);
/// assert_eq!(id.rank(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: Vec<u64>,
    cols: u32,
}

impl BitMatrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is 0 or exceeds 64.
    pub fn zero(rows: u32, cols: u32) -> Self {
        assert!((1..=64).contains(&rows), "rows must be in 1..=64");
        assert!((1..=64).contains(&cols), "cols must be in 1..=64");
        BitMatrix { rows: vec![0; rows as usize], cols }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: u32) -> Self {
        let mut m = BitMatrix::zero(n, n);
        for i in 0..n {
            m.rows[i as usize] = 1u64 << i;
        }
        m
    }

    /// Builds a matrix from row masks.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty/too long or any mask uses bits ≥ `cols`.
    pub fn from_rows(rows: Vec<u64>, cols: u32) -> Self {
        assert!(!rows.is_empty() && rows.len() <= 64, "1..=64 rows required");
        assert!((1..=64).contains(&cols));
        let mask = mask_of(cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r & !mask == 0, "row {i} uses bits beyond {cols} columns");
        }
        BitMatrix { rows, cols }
    }

    /// Samples a uniformly random matrix.
    pub fn random<R: Rng + ?Sized>(rows: u32, cols: u32, rng: &mut R) -> Self {
        let mut m = BitMatrix::zero(rows, cols);
        let mask = mask_of(cols);
        for r in &mut m.rows {
            *r = rng.gen::<u64>() & mask;
        }
        m
    }

    /// Samples a uniformly random **invertible** `n × n` matrix by
    /// rejection (the fraction of invertible matrices over GF(2) is
    /// ~28.9%, so this terminates quickly).
    pub fn random_invertible<R: Rng + ?Sized>(n: u32, rng: &mut R) -> Self {
        loop {
            let m = BitMatrix::random(n, n, rng);
            if m.rank() == n {
                return m;
            }
        }
    }

    /// Number of rows (output bits).
    pub fn num_rows(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Number of columns (input bits).
    pub fn num_cols(&self) -> u32 {
        self.cols
    }

    /// Returns row `i` as a bit mask.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: u32) -> u64 {
        self.rows[i as usize]
    }

    /// Gets entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, i: u32, j: u32) -> bool {
        assert!(j < self.cols);
        (self.rows[i as usize] >> j) & 1 == 1
    }

    /// Sets entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, i: u32, j: u32, v: bool) {
        assert!(j < self.cols);
        if v {
            self.rows[i as usize] |= 1u64 << j;
        } else {
            self.rows[i as usize] &= !(1u64 << j);
        }
    }

    /// Matrix–vector product over GF(2): output bit `i` is the parity of
    /// `rows[i] & v`.
    ///
    /// Input bits beyond `cols` are ignored.
    #[inline]
    pub fn mul_vec(&self, v: u64) -> u64 {
        let v = v & mask_of(self.cols);
        let mut out = 0u64;
        for (i, &r) in self.rows.iter().enumerate() {
            out |= (((r & v).count_ones() & 1) as u64) << i;
        }
        out
    }

    /// Matrix–matrix product `self * other` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `self.num_cols() != other.num_rows()`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.num_rows(), "dimension mismatch");
        // (A·B) row i = XOR of B-rows selected by bits of A-row i.
        let mut out = BitMatrix::zero(self.num_rows(), other.num_cols());
        for (i, &arow) in self.rows.iter().enumerate() {
            let mut acc = 0u64;
            let mut bits = arow;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                acc ^= other.rows[j];
                bits &= bits - 1;
            }
            out.rows[i] = acc;
        }
        out
    }

    /// Rank via Gaussian elimination.
    pub fn rank(&self) -> u32 {
        let mut rows = self.rows.clone();
        let mut rank = 0u32;
        for col in 0..self.cols {
            let bit = 1u64 << col;
            // find a pivot row at or below `rank`
            if let Some(p) = (rank as usize..rows.len()).find(|&i| rows[i] & bit != 0) {
                rows.swap(rank as usize, p);
                let pivot = rows[rank as usize];
                for (i, r) in rows.iter_mut().enumerate() {
                    if i != rank as usize && *r & bit != 0 {
                        *r ^= pivot;
                    }
                }
                rank += 1;
            }
        }
        rank
    }

    /// Inverse of a square matrix, or `None` if singular.
    pub fn inverse(&self) -> Option<BitMatrix> {
        let n = self.num_rows();
        if n != self.cols {
            return None;
        }
        let mut a = self.rows.clone();
        let mut inv = BitMatrix::identity(n).rows;
        for col in 0..n {
            let bit = 1u64 << col;
            let p = (col as usize..a.len()).find(|&i| a[i] & bit != 0)?;
            a.swap(col as usize, p);
            inv.swap(col as usize, p);
            let (pa, pi) = (a[col as usize], inv[col as usize]);
            for i in 0..a.len() {
                if i != col as usize && a[i] & bit != 0 {
                    a[i] ^= pa;
                    inv[i] ^= pi;
                }
            }
        }
        Some(BitMatrix { rows: inv, cols: n })
    }

    /// Transpose.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zero(self.cols, self.num_rows());
        for i in 0..self.num_rows() {
            for j in 0..self.cols {
                if self.get(i, j) {
                    t.set(j, i, true);
                }
            }
        }
        t
    }
}

/// Byte-folded evaluation tables of a GF(2) linear map:
/// `tabs[c][b] = M · (b << 8c)`. Because `M·x` is linear, XORing one
/// lookup per input byte, `M·x = ⊕_c tabs[c][byte_c(x)]`, reproduces
/// [`BitMatrix::mul_vec`] bit for bit — input bits beyond the matrix's
/// columns included, since no entry has them — while replacing the
/// per-row popcount loop with `ceil(cols/8)` L1 loads: the software
/// analogue of the hardware XOR tree evaluating all key columns at once.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct ByteTables {
    pub(crate) tabs: Vec<[u64; 256]>,
}

impl ByteTables {
    /// Tabulates `m`, little-endian by input byte.
    pub(crate) fn new(m: &BitMatrix) -> Self {
        let tabs = (0..m.cols.div_ceil(8))
            .map(|c| {
                // Column vectors of this byte: col[j] = M · (1 << (8c + j)).
                let mut col = [0u64; 8];
                for (j, col_bits) in col.iter_mut().enumerate() {
                    let bit = c * 8 + j as u32;
                    if bit < m.cols {
                        for r in 0..m.num_rows() {
                            *col_bits |= u64::from(m.get(r, bit)) << r;
                        }
                    }
                }
                // Each entry adds its lowest set bit's column to an
                // entry already built.
                let mut t = [0u64; 256];
                for b in 1usize..256 {
                    t[b] = t[b & (b - 1)] ^ col[b.trailing_zeros() as usize];
                }
                t
            })
            .collect();
        ByteTables { tabs }
    }

    /// `M·x`.
    #[inline]
    pub(crate) fn apply(&self, x: u64) -> u64 {
        let mut out = 0;
        for (c, tab) in self.tabs.iter().enumerate() {
            out ^= tab[(x >> (8 * c)) as u8 as usize];
        }
        out
    }

    /// Batched fold with a final XOR constant: `out[i] = init ⊕ M·xs[i]`,
    /// table-major so each 2 KiB byte table stays hot in L1 across the
    /// batch. XOR is commutative, so this is bit-identical to `apply`.
    pub(crate) fn apply_batch(&self, init: u64, xs: &[u64], out: &mut [u64]) {
        debug_assert_eq!(xs.len(), out.len());
        out.fill(init);
        for (c, tab) in self.tabs.iter().enumerate() {
            let shift = 8 * c;
            for (o, &x) in out.iter_mut().zip(xs) {
                *o ^= tab[(x >> shift) as u8 as usize];
            }
        }
    }

    /// [`ByteTables::apply_batch`] truncated to the low 32 bits, which
    /// commutes with XOR: `out[i] = init ⊕ (M·xs[i] as u32)`.
    pub(crate) fn apply_batch_u32(&self, init: u32, xs: &[u64], out: &mut [u32]) {
        debug_assert_eq!(xs.len(), out.len());
        out.fill(init);
        for (c, tab) in self.tabs.iter().enumerate() {
            let shift = 8 * c;
            for (o, &x) in out.iter_mut().zip(xs) {
                *o ^= tab[(x >> shift) as u8 as usize] as u32;
            }
        }
    }
}

impl std::fmt::Debug for ByteTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ByteTables({} tables)", self.tabs.len())
    }
}

#[inline]
fn mask_of(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_identity() {
        for n in [1u32, 5, 64] {
            let id = BitMatrix::identity(n);
            assert_eq!(id.rank(), n);
            let v = 0xDEAD_BEEF_CAFE_F00Du64 & if n == 64 { u64::MAX } else { (1 << n) - 1 };
            assert_eq!(id.mul_vec(v), v);
        }
    }

    #[test]
    fn mul_vec_matches_manual() {
        // rows: out0 = in0 ^ in2, out1 = in1
        let m = BitMatrix::from_rows(vec![0b101, 0b010], 3);
        assert_eq!(m.mul_vec(0b100), 0b01);
        assert_eq!(m.mul_vec(0b101), 0b00);
        assert_eq!(m.mul_vec(0b111), 0b10);
    }

    #[test]
    fn mul_vec_is_linear() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = BitMatrix::random(16, 32, &mut rng);
        for _ in 0..100 {
            let a: u64 = rng.gen::<u64>() & 0xFFFF_FFFF;
            let b: u64 = rng.gen::<u64>() & 0xFFFF_FFFF;
            assert_eq!(m.mul_vec(a ^ b), m.mul_vec(a) ^ m.mul_vec(b));
        }
    }

    #[test]
    fn matrix_product_agrees_with_composition() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BitMatrix::random(8, 16, &mut rng);
        let b = BitMatrix::random(16, 24, &mut rng);
        let ab = a.mul(&b);
        for _ in 0..50 {
            let v: u64 = rng.gen::<u64>() & 0xFF_FFFF;
            assert_eq!(ab.mul_vec(v), a.mul_vec(b.mul_vec(v)));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1u32, 2, 8, 32, 64] {
            let m = BitMatrix::random_invertible(n, &mut rng);
            let inv = m.inverse().expect("invertible");
            let prod = m.mul(&inv);
            assert_eq!(prod, BitMatrix::identity(n), "n={n}");
            // and vector roundtrip
            for _ in 0..20 {
                let v = rng.gen::<u64>() & if n == 64 { u64::MAX } else { (1 << n) - 1 };
                assert_eq!(inv.mul_vec(m.mul_vec(v)), v);
            }
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        // two equal rows
        let m = BitMatrix::from_rows(vec![0b11, 0b11], 2);
        assert_eq!(m.rank(), 1);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn non_square_has_no_inverse() {
        let m = BitMatrix::zero(2, 3);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn rank_of_zero_matrix() {
        assert_eq!(BitMatrix::zero(8, 8).rank(), 0);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = BitMatrix::random(7, 13, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().num_rows(), 13);
        assert_eq!(m.transpose().num_cols(), 7);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = BitMatrix::zero(4, 4);
        m.set(2, 3, true);
        assert!(m.get(2, 3));
        m.set(2, 3, false);
        assert!(!m.get(2, 3));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn from_rows_rejects_wide_masks() {
        let _ = BitMatrix::from_rows(vec![0b1000], 3);
    }

    #[test]
    fn random_invertible_is_full_rank() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let m = BitMatrix::random_invertible(20, &mut rng);
            assert_eq!(m.rank(), 20);
        }
    }

    #[test]
    fn mul_vec_ignores_high_input_bits() {
        let m = BitMatrix::from_rows(vec![0b1], 1);
        assert_eq!(m.mul_vec(u64::MAX), m.mul_vec(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Linearity over arbitrary matrices and vectors.
        #[test]
        fn mul_vec_linear(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>(), rows in 1u32..64, cols in 1u32..64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = BitMatrix::random(rows, cols, &mut rng);
            prop_assert_eq!(m.mul_vec(a ^ b), m.mul_vec(a) ^ m.mul_vec(b));
        }

        /// Inverse round-trips on random invertible matrices of any size.
        #[test]
        fn inverse_roundtrip_random(seed in any::<u64>(), n in 1u32..32, v in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = BitMatrix::random_invertible(n, &mut rng);
            let inv = m.inverse().expect("invertible by construction");
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let x = v & mask;
            prop_assert_eq!(inv.mul_vec(m.mul_vec(x)), x);
            prop_assert_eq!(m.mul_vec(inv.mul_vec(x)), x);
        }

        /// rank(A·B) <= min(rank A, rank B).
        #[test]
        fn rank_submultiplicative(seed in any::<u64>(), n in 2u32..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BitMatrix::random(n, n, &mut rng);
            let b = BitMatrix::random(n, n, &mut rng);
            let ab = a.mul(&b);
            prop_assert!(ab.rank() <= a.rank().min(b.rank()));
        }

        /// Transpose preserves rank.
        #[test]
        fn transpose_preserves_rank(seed in any::<u64>(), rows in 1u32..32, cols in 1u32..32) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = BitMatrix::random(rows, cols, &mut rng);
            prop_assert_eq!(m.rank(), m.transpose().rank());
        }
    }
}
