//! Bank access queue stall analysis (paper Section 5.2, Figure 5).
//!
//! Unlike the delay-storage analysis there is no fixed window to reason
//! over — the queue carries state. The paper models one bank's queue as a
//! probabilistic state machine over *work remaining*: each memory cycle a
//! new request arrives with probability `p = 1/(B·R)` and adds `L` cycles
//! of work; otherwise one cycle of work is served. If an arrival would
//! push the backlog beyond `Q·L` (a full queue), the chain falls into the
//! absorbing *stall* state. This module computes:
//!
//! * the exact absorption probability after `t` steps (distribution
//!   evolution — the paper's `I·Mᵗ`), used for validation;
//! * the Mean Time to Stall from the exact mean absorption time, found
//!   by a banded linear solve of `(I − T)·x = 1` (`O(Q·L²)`), which
//!   reaches the 10¹⁴-cycle regimes of Figure 6 that explicit matrix
//!   powering cannot;
//! * the same mean time by a dense linear solve, for small
//!   configurations, as the banded solve's oracle.

use crate::MTS_CAP;

/// The Markov model of one bank's access queue.
///
/// ```
/// use vpnm_analysis::BankQueueModel;
///
/// // Figure 5's illustration: L = 3, Q = 2.
/// let m = BankQueueModel::new(4, 3, 2, 1.0);
/// assert_eq!(m.num_states(), 7); // work 0..=6
/// let p1 = m.absorption_probability(100);
/// let p2 = m.absorption_probability(1000);
/// assert!(p1 < p2 && p2 < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankQueueModel {
    banks: u32,
    l: u64,
    q: u64,
    r: f64,
    /// Fraction of interface requests that feed this queue (1.0 for the
    /// bank access queue; the write fraction for the write-buffer variant
    /// of the same analysis).
    demand_fraction: f64,
}

impl BankQueueModel {
    /// Creates the model for `banks` banks, bank latency `l`, queue size
    /// `q`, bus scaling ratio `r`.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or `r < 1.0`.
    pub fn new(banks: u32, l: u64, q: u64, r: f64) -> Self {
        assert!(banks >= 1 && l >= 1 && q >= 1, "dimensions must be positive");
        assert!(r.is_finite() && r >= 1.0, "bus ratio must be >= 1.0");
        BankQueueModel { banks, l, q, r, demand_fraction: 1.0 }
    }

    /// The same chain with only a `fraction` of interface requests feeding
    /// it — the paper's *write buffer* stall analysis (Section 4.3: "the
    /// analysis of the write buffer stall is similar to the analysis of
    /// bank request queue"), where the write buffer holds `ceil(Q/2)`
    /// entries but sees only the write share of the traffic.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction ∈ (0, 1]`, plus the [`BankQueueModel::new`]
    /// conditions.
    pub fn with_demand_fraction(banks: u32, l: u64, q: u64, r: f64, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let mut m = Self::new(banks, l, q, r);
        m.demand_fraction = fraction;
        m
    }

    /// Arrival probability per memory cycle: `demand/(B·R)` (one interface
    /// request per interface cycle, spread uniformly over `B` banks, with
    /// the memory clock running `R`× faster).
    pub fn arrival_probability(&self) -> f64 {
        self.demand_fraction / (f64::from(self.banks) * self.r)
    }

    /// Offered load: expected work arriving per memory cycle, `p·L`.
    /// Above 1.0 the queue is unstable and stalls quickly regardless of
    /// `Q` — the regime of the paper's `B < 32` curves in Figure 6.
    pub fn utilization(&self) -> f64 {
        self.arrival_probability() * self.l as f64
    }

    /// Maximum backlog before the stall state: `Q·L` cycles of work.
    pub fn max_work(&self) -> u64 {
        self.q * self.l
    }

    /// Number of transient states (work levels `0..=Q·L`).
    pub fn num_states(&self) -> usize {
        (self.max_work() + 1) as usize
    }

    /// One step of the transient dynamics: redistributes the state mass
    /// in `v` and returns the mass absorbed into the stall state.
    fn step(&self, v: &[f64], next: &mut [f64]) -> f64 {
        let p = self.arrival_probability();
        let n = self.max_work() as usize;
        let l = self.l as usize;
        next.fill(0.0);
        let mut absorbed = 0.0;
        for (w, &mass) in v.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            // no arrival: serve one cycle of work
            next[w.saturating_sub(1)] += mass * (1.0 - p);
            // arrival: add L cycles of work, stall on overflow
            if w + l > n {
                absorbed += mass * p;
            } else {
                next[w + l] += mass * p;
            }
        }
        absorbed
    }

    /// Exact probability that at least one stall has occurred within `t`
    /// memory cycles, starting from an idle bank — the paper's `I·Mᵗ`
    /// computation.
    pub fn absorption_probability(&self, t: u64) -> f64 {
        let mut v = vec![0.0; self.num_states()];
        let mut next = vec![0.0; self.num_states()];
        v[0] = 1.0;
        let mut absorbed = 0.0;
        for _ in 0..t {
            absorbed += self.step(&v, &mut next);
            std::mem::swap(&mut v, &mut next);
            if absorbed > 1.0 - 1e-15 {
                break;
            }
        }
        absorbed.min(1.0)
    }

    /// The first step count `t` (memory cycles) at which the absorption
    /// probability from idle reaches `target`, by direct distribution
    /// evolution. Used for system-level MTS: the whole controller stalls
    /// when *any* of its `B` independent bank chains does, so the system
    /// median is `time_to_absorption_probability(1 − 0.5^(1/B))`.
    ///
    /// Returns `None` if `target` is not reached within `horizon` steps.
    ///
    /// # Panics
    ///
    /// Panics unless `target ∈ (0, 1)`.
    pub fn time_to_absorption_probability(&self, target: f64, horizon: u64) -> Option<u64> {
        assert!(target > 0.0 && target < 1.0, "target must be in (0,1)");
        let mut v = vec![0.0; self.num_states()];
        let mut next = vec![0.0; self.num_states()];
        v[0] = 1.0;
        let mut absorbed = 0.0;
        for t in 1..=horizon {
            absorbed += self.step(&v, &mut next);
            std::mem::swap(&mut v, &mut next);
            if absorbed >= target {
                return Some(t);
            }
        }
        None
    }

    /// Exact mean time to absorption from the idle state, in memory
    /// cycles, by a banded linear solve of `(I − T)·x = 1`.
    ///
    /// The system has lower bandwidth 1 (service moves work down by one)
    /// and upper bandwidth `L` (an arrival adds `L` work), so elimination
    /// costs `O(Q·L²)` — exact even in the 10¹⁴-cycle regimes where
    /// iterative methods cannot converge.
    pub fn mean_absorption_cycles(&self) -> f64 {
        let n = self.max_work() as usize; // states 0..=n
        let l = self.l as usize;
        let p = self.arrival_probability();
        // Row w encodes sum_j c[j]·x_{w+j} = rhs over offsets j in 0..=L.
        let width = l + 1;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        let mut rhs: Vec<f64> = Vec::with_capacity(n + 1);
        for w in 0..=n {
            let mut c = vec![0.0; width];
            // x_w − (1−p)·x_{max(w−1,0)} − p·x_{w+L} = 1
            c[0] = if w == 0 { p } else { 1.0 };
            if w + l <= n {
                c[l] -= p;
            }
            let mut b = 1.0;
            if w >= 1 {
                // eliminate the subdiagonal −(1−p)·x_{w−1} with the
                // already-reduced previous row
                let prev_c = &rows[w - 1];
                let f = (1.0 - p) / prev_c[0];
                for j in 1..width {
                    c[j - 1] += f * prev_c[j];
                }
                b += f * rhs[w - 1];
            }
            rows.push(c);
            rhs.push(b);
        }
        // Back substitution.
        let mut x = vec![0.0f64; n + 1];
        for w in (0..=n).rev() {
            let mut acc = rhs[w];
            for j in 1..width {
                if w + j <= n {
                    acc -= rows[w][j] * x[w + j];
                }
            }
            x[w] = acc / rows[w][0];
        }
        // The elimination is exact to ~1e-16 relative precision; when the
        // true mean exceeds ~1/ε the cancellation can flip signs or blow
        // up. Those chains are astronomically stable — past the paper's
        // own 10^16 plot cap — so report "effectively never".
        if !x[0].is_finite() || x[0] <= 0.0 || x[0] > 1e16 {
            f64::INFINITY
        } else {
            x[0]
        }
    }

    /// Mean Time to Stall in **interface cycles** (the unit the paper
    /// plots): the 50%-probability absorption time. Absorption from the
    /// quasi-stationary regime is geometrically distributed, so the median
    /// is `ln 2` times the mean. Capped at [`MTS_CAP`].
    pub fn mts_cycles(&self) -> f64 {
        let mean_mem = self.mean_absorption_cycles();
        ((mean_mem * (2f64).ln()) / self.r).min(MTS_CAP)
    }

    /// Exact expected time to absorption from idle, by dense linear solve
    /// of `(I − T)·x = 1`. Exposed for validating the banded solve
    /// ([`BankQueueModel::mean_absorption_cycles`]) on small models.
    ///
    /// # Panics
    ///
    /// Panics if the state space exceeds 600 states (use
    /// [`BankQueueModel::mts_cycles`] instead).
    pub fn mean_time_to_stall_exact(&self) -> f64 {
        let n = self.num_states();
        assert!(n <= 600, "exact solve limited to small models ({n} states)");
        let p = self.arrival_probability();
        let l = self.l as usize;
        // Build (I - T) where T is the transient transition matrix.
        let mut a = vec![vec![0.0f64; n]; n];
        let mut b = vec![1.0f64; n];
        for (w, row) in a.iter_mut().enumerate() {
            row[w] += 1.0;
            row[w.saturating_sub(1)] -= 1.0 - p;
            if w + l < n {
                row[w + l] -= p;
            }
        }
        // Gaussian elimination with partial pivoting.
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
                .expect("non-empty");
            a.swap(col, pivot);
            b.swap(col, pivot);
            let diag = a[col][col];
            assert!(diag.abs() > 1e-300, "singular system");
            for row in 0..n {
                if row != col && a[row][col] != 0.0 {
                    let f = a[row][col] / diag;
                    let pivot_row = a[col].clone();
                    for (k, entry) in a[row].iter_mut().enumerate().skip(col) {
                        *entry -= f * pivot_row[k];
                    }
                    b[row] -= f * b[col];
                }
            }
        }
        // expected memory cycles from the idle state, in interface cycles
        (b[0] / a[0][0]) / self.r
    }

    /// The dense one-step transition matrix including the absorbing stall
    /// state as the last row/column — the paper's Figure 5 `M`. Intended
    /// for display and small-model validation.
    pub fn transition_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.num_states();
        let p = self.arrival_probability();
        let l = self.l as usize;
        let mut m = vec![vec![0.0; n + 1]; n + 1];
        for w in 0..n {
            m[w][w.saturating_sub(1)] += 1.0 - p;
            if w + l < n {
                m[w][w + l] += p;
            } else {
                m[w][n] += p; // stall
            }
        }
        m[n][n] = 1.0; // absorbing
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_matrix_rows_sum_to_one() {
        let m = BankQueueModel::new(4, 3, 2, 1.0).transition_matrix();
        for (i, row) in m.iter().enumerate() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn figure5_shape() {
        // L = 3, Q = 2: seven transient work levels + stall.
        let model = BankQueueModel::new(16, 3, 2, 1.0);
        let m = model.transition_matrix();
        assert_eq!(m.len(), 8);
        let p = model.arrival_probability();
        // idle --p--> work 3
        assert!((m[0][3] - p).abs() < 1e-12);
        // idle --(1-p)--> idle
        assert!((m[0][0] - (1.0 - p)).abs() < 1e-12);
        // full (6) --p--> stall
        assert!((m[6][7] - p).abs() < 1e-12);
        // full (6) --(1-p)--> 5
        assert!((m[6][5] - (1.0 - p)).abs() < 1e-12);
    }

    #[test]
    fn absorption_probability_is_monotone_in_t() {
        let m = BankQueueModel::new(4, 3, 2, 1.0);
        let mut prev = 0.0;
        for t in [10u64, 100, 1000, 10_000] {
            let p = m.absorption_probability(t);
            assert!(p >= prev);
            prev = p;
        }
        assert!(prev > 0.5, "small overloaded queue must stall quickly");
    }

    #[test]
    fn banded_solve_matches_dense_solve() {
        for (b, l, q, r) in [(4u32, 3u64, 2u64, 1.0f64), (8, 3, 4, 1.3), (16, 5, 4, 1.0)] {
            let m = BankQueueModel::new(b, l, q, r);
            let banded = m.mean_absorption_cycles() / r;
            let dense = m.mean_time_to_stall_exact();
            assert!(
                (banded - dense).abs() / dense < 1e-9,
                "B={b} L={l} Q={q}: banded {banded} vs dense {dense}"
            );
        }
    }

    #[test]
    fn mts_matches_direct_absorption_half_time() {
        // Find t where absorption ≈ 0.5 by direct evolution and compare
        // against the analytic median.
        let m = BankQueueModel::new(6, 4, 3, 1.0);
        let mts = m.mts_cycles() * m.r; // memory cycles
        let p_at_mts = m.absorption_probability(mts.round() as u64);
        assert!(
            (0.30..0.70).contains(&p_at_mts),
            "absorption at MTS should be ≈ 0.5, got {p_at_mts}"
        );
    }

    #[test]
    fn trivial_chain_closed_form() {
        // Q = 1, L = 1: mean absorption from idle is (1+p)/p² memory
        // cycles (stall requires an arrival landing on a busy bank).
        let m = BankQueueModel::new(4, 1, 1, 1.0);
        let p = m.arrival_probability();
        let expect = (1.0 + p) / (p * p);
        let got = m.mean_absorption_cycles();
        assert!((got - expect).abs() / expect < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn figure6_large_banks_reach_huge_mts() {
        // Paper: B = 32, Q = 64 (L = 20, R = 1.3) reaches ~1e14.
        let m = BankQueueModel::new(32, 20, 64, 1.3);
        assert!(m.utilization() < 1.0);
        let mts = m.mts_cycles();
        assert!(mts > 1e12, "MTS {mts:.3e} should be ~1e14");
    }

    #[test]
    fn figure6_small_banks_capped_near_1e2() {
        // Paper: "a lower number of banks (B < 32) can only provide a
        // maximum MTS value of 10^2 for even larger values of Q."
        for b in [4u32, 8, 16] {
            let m = BankQueueModel::new(b, 20, 64, 1.3);
            assert!(m.utilization() > 0.9, "B={b} should be (near-)overloaded");
            let mts = m.mts_cycles();
            assert!(mts < 1e5, "B={b}: MTS {mts:.3e} must stay tiny");
        }
    }

    #[test]
    fn mts_monotone_in_q() {
        let mut prev = 0.0;
        for q in [8u64, 16, 24, 32] {
            let mts = BankQueueModel::new(32, 20, q, 1.3).mts_cycles();
            assert!(mts >= prev, "Q={q}");
            prev = mts;
        }
    }

    #[test]
    fn mts_improves_with_r() {
        let slow = BankQueueModel::new(32, 20, 16, 1.0).mts_cycles();
        let fast = BankQueueModel::new(32, 20, 16, 1.4).mts_cycles();
        assert!(fast > slow, "higher bus ratio must improve MTS: {fast} vs {slow}");
    }

    #[test]
    #[should_panic(expected = "exact solve limited")]
    fn exact_solver_guards_size() {
        let _ = BankQueueModel::new(32, 20, 64, 1.3).mean_time_to_stall_exact();
    }

    #[test]
    fn write_buffer_does_not_dominate() {
        // Paper Section 4.3: the write buffer is half the size of the bank
        // access queue but sees at most half the traffic, so its stall
        // rate "does not dominate the overall stall". Check across
        // realistic write fractions on the paper configuration.
        for q in [24u64, 32, 48, 64] {
            let baq = BankQueueModel::new(32, 20, q, 1.3).mts_cycles();
            for write_fraction in [0.2f64, 0.3, 0.5] {
                let wb = BankQueueModel::with_demand_fraction(
                    32,
                    20,
                    q.div_ceil(2),
                    1.3,
                    write_fraction,
                )
                .mts_cycles();
                if write_fraction <= 0.3 {
                    assert!(
                        wb >= baq,
                        "Q={q} wf={write_fraction}: write buffer MTS {wb:.2e} must not \
                         dominate the queue's {baq:.2e}"
                    );
                } else {
                    // at a full 50/50 write mix the halved buffer can bind
                    // slightly, but stays within an order of magnitude —
                    // still "does not dominate the overall stall"
                    assert!(
                        wb >= baq / 20.0,
                        "Q={q} wf={write_fraction}: write buffer MTS {wb:.2e} far below \
                         the queue's {baq:.2e}"
                    );
                }
            }
        }
    }

    #[test]
    fn demand_fraction_scales_arrivals() {
        let full = BankQueueModel::new(8, 4, 4, 1.0);
        let half = BankQueueModel::with_demand_fraction(8, 4, 4, 1.0, 0.5);
        assert!((half.arrival_probability() - full.arrival_probability() / 2.0).abs() < 1e-15);
        assert!(half.mts_cycles() > full.mts_cycles());
    }

    #[test]
    fn time_to_absorption_probability_consistent() {
        let m = BankQueueModel::new(4, 3, 2, 1.0);
        let t = m.time_to_absorption_probability(0.5, 1_000_000).expect("reachable");
        let p = m.absorption_probability(t);
        let p_before = m.absorption_probability(t - 1);
        assert!(p >= 0.5 && p_before < 0.5, "t={t}: p(t)={p}, p(t-1)={p_before}");
        // unreachable targets report None
        let tiny = BankQueueModel::new(64, 2, 8, 1.5);
        assert_eq!(tiny.time_to_absorption_probability(0.99, 10), None);
    }
}
