//! Fixed-size recursive least squares with exponential forgetting.
//!
//! The estimators in this crate fit tiny linear-in-parameters models
//! (a quadratic power curve, a linear scalability line) from a stream
//! of telemetry samples. [`Rls`] is the shared numerical core: the
//! classic RLS recursion over an `N`-dimensional regressor with a
//! forgetting factor `λ`, plus the residual bookkeeping the confidence
//! gate and the drift detector need — a slow EWMA of the squared
//! a-priori residual (the long-run fit quality) and a short ring
//! buffer of recent squared residuals (the windowed fit quality). A
//! workload phase change shows up as the window mean jumping far
//! above the long-run mean, which callers turn into a fit reset.

/// Initial covariance scale: a large `P₀·I` makes the first few
/// observations dominate, as is standard for RLS warm-up.
const P0: f64 = 1e4;

/// Covariance blow-up guard. Under a forgetting factor with poor
/// excitation (the regressor barely moves, as in a settled control
/// loop) the covariance grows without bound; past this diagonal the
/// covariance is re-seeded while the parameters are kept.
const P_MAX: f64 = 1e7;

/// Recursive least squares over an `N`-dimensional regressor.
#[derive(Debug, Clone, PartialEq)]
pub struct Rls<const N: usize> {
    theta: [f64; N],
    p: [[f64; N]; N],
    forgetting: f64,
    observations: u64,
    /// Slow EWMA of the squared a-priori residual.
    long_ms: f64,
    /// Ring buffer of recent squared a-priori residuals.
    window: Vec<f64>,
    window_len: usize,
    next: usize,
}

impl<const N: usize> Rls<N> {
    /// A fresh fit. `forgetting` is the RLS λ in `(0, 1]` (1 = ordinary
    /// least squares); `window_len` sizes the recent-residual window
    /// used for drift detection.
    pub fn new(forgetting: f64, window_len: usize) -> Rls<N> {
        assert!(forgetting > 0.0 && forgetting <= 1.0);
        assert!(window_len > 0);
        let mut p = [[0.0; N]; N];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = P0;
        }
        Rls {
            theta: [0.0; N],
            p,
            forgetting,
            observations: 0,
            long_ms: 0.0,
            window: Vec::with_capacity(window_len),
            window_len,
            next: 0,
        }
    }

    /// Clear the fit back to its initial state (parameters, covariance
    /// and residual history). Allocation-free: drift resets happen on
    /// the control hot path, so the residual window's buffer is kept
    /// and merely emptied.
    pub fn reset(&mut self) {
        self.theta = [0.0; N];
        self.p = [[0.0; N]; N];
        for (i, row) in self.p.iter_mut().enumerate() {
            row[i] = P0;
        }
        self.observations = 0;
        self.long_ms = 0.0;
        self.window.clear();
        self.next = 0;
    }

    /// Fold in one observation `y ≈ xᵀθ`. Returns the a-priori
    /// residual `y - xᵀθ` (prediction error before the update).
    pub fn observe(&mut self, x: [f64; N], y: f64) -> f64 {
        let resid = y - self.predict(x);

        // k = Px / (λ + xᵀPx);  θ += k·resid;  P = (P - k·(Px)ᵀ)/λ
        let mut px = [0.0; N];
        for (pxi, row) in px.iter_mut().zip(&self.p) {
            *pxi = row.iter().zip(&x).map(|(p, xj)| p * xj).sum();
        }
        let xpx: f64 = x.iter().zip(&px).map(|(a, b)| a * b).sum();
        let denom = self.forgetting + xpx;
        let mut k = [0.0; N];
        for (ki, pxi) in k.iter_mut().zip(&px) {
            *ki = pxi / denom;
        }
        for (ti, ki) in self.theta.iter_mut().zip(&k) {
            *ti += ki * resid;
        }
        for (row, ki) in self.p.iter_mut().zip(&k) {
            for (pij, pxj) in row.iter_mut().zip(&px) {
                *pij = (*pij - ki * pxj) / self.forgetting;
            }
        }
        if (0..N).any(|i| self.p[i][i] > P_MAX) {
            for (i, row) in self.p.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = if i == j { P0 } else { 0.0 };
                }
            }
        }

        self.observations += 1;
        let sq = resid * resid;
        if self.observations == 1 {
            self.long_ms = sq;
        } else {
            self.long_ms += 0.02 * (sq - self.long_ms);
        }
        if self.window.len() < self.window_len {
            self.window.push(sq);
        } else {
            self.window[self.next] = sq;
        }
        self.next += 1;
        if self.next == self.window_len {
            self.next = 0;
        }
        resid
    }

    /// Model prediction `xᵀθ`.
    pub fn predict(&self, x: [f64; N]) -> f64 {
        x.iter().zip(&self.theta).map(|(a, b)| a * b).sum()
    }

    /// The current parameter vector.
    pub fn theta(&self) -> [f64; N] {
        self.theta
    }

    /// Observations folded in since the last reset.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Whether the recent-residual window has filled since the last
    /// reset (the drift test is meaningless before then).
    pub fn window_full(&self) -> bool {
        self.window.len() >= self.window_len
    }

    /// Mean squared residual over the recent window.
    pub fn window_mean_sq(&self) -> f64 {
        if self.window.is_empty() {
            return f64::INFINITY;
        }
        self.window.iter().sum::<f64>() / self.window.len() as f64
    }

    /// Slow EWMA of the squared residual (long-run fit quality).
    pub fn long_mean_sq(&self) -> f64 {
        self.long_ms
    }

    /// RMS residual over the recent window (∞ before any observation).
    pub fn residual_rms(&self) -> f64 {
        self.window_mean_sq().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_fit() {
        let mut rls: Rls<2> = Rls::new(1.0, 8);
        for i in 0..50 {
            let x = i as f64 * 0.1;
            rls.observe([1.0, x], 2.0 + 3.0 * x);
        }
        let t = rls.theta();
        assert!((t[0] - 2.0).abs() < 1e-4, "intercept {t:?}");
        assert!((t[1] - 3.0).abs() < 1e-4, "slope {t:?}");
        assert!(rls.residual_rms() < 1e-4);
    }

    #[test]
    fn recovers_quadratic_fit() {
        let mut rls: Rls<3> = Rls::new(0.995, 8);
        for i in 0..200 {
            let f = 0.5 + (i % 40) as f64 * 0.05;
            rls.observe([1.0, f, f * f], 4.0 + 1.5 * f + 2.0 * f * f);
        }
        let t = rls.theta();
        assert!((t[0] - 4.0).abs() < 1e-3, "{t:?}");
        assert!((t[1] - 1.5).abs() < 1e-3, "{t:?}");
        assert!((t[2] - 2.0).abs() < 1e-3, "{t:?}");
    }

    #[test]
    fn window_tracks_recent_residuals() {
        let mut rls: Rls<1> = Rls::new(1.0, 4);
        for _ in 0..50 {
            rls.observe([1.0], 5.0);
        }
        assert!(rls.window_full());
        assert!(rls.window_mean_sq() < 1e-9);
        // A phase change: the target jumps, recent residuals explode
        // relative to the long-run mean.
        for _ in 0..4 {
            rls.observe([1.0], 25.0);
        }
        assert!(
            rls.window_mean_sq() > 100.0 * rls.long_mean_sq().max(1e-12)
                || rls.window_mean_sq() > 1.0
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut rls: Rls<2> = Rls::new(0.99, 4);
        for _ in 0..10 {
            rls.observe([1.0, 2.0], 7.0);
        }
        rls.reset();
        assert_eq!(rls.observations(), 0);
        assert_eq!(rls.theta(), [0.0, 0.0]);
        assert!(!rls.window_full());
    }

    #[test]
    fn covariance_guard_keeps_fit_finite() {
        // Constant regressor + forgetting: covariance would blow up
        // along the unexcited directions without the guard.
        let mut rls: Rls<3> = Rls::new(0.95, 8);
        for _ in 0..10_000 {
            rls.observe([1.0, 2.0, 4.0], 10.0);
        }
        let t = rls.theta();
        assert!(t.iter().all(|v| v.is_finite()), "{t:?}");
        assert!((rls.predict([1.0, 2.0, 4.0]) - 10.0).abs() < 1e-3);
    }
}
