//! Load-trace playback: time-varying intensity for services.
//!
//! Datacenter services see diurnal and bursty load, which is exactly why
//! operators under-provision power and need policies when the budget
//! binds (§1). A [`LoadTrace`] maps simulated time to a load multiplier;
//! [`TracedService`] replays it against the closed-loop service by
//! modulating the active user population.

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::Seconds;

use crate::latency::{ClosedLoopService, ServiceConfig};

/// A deterministic time→intensity curve (intensity in 0..=1, as a
/// fraction of peak load).
///
/// ```
/// use pap_workloads::traces::LoadTrace;
/// use pap_simcpu::units::Seconds;
///
/// let day = LoadTrace::Diurnal { mean: 0.6, swing: 0.4, period: Seconds(120.0) };
/// assert!(day.intensity(Seconds(30.0)) > 0.9);  // midday peak
/// assert!(day.intensity(Seconds(90.0)) < 0.3);  // overnight trough
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LoadTrace {
    /// Constant intensity.
    Flat(f64),
    /// Sinusoidal diurnal curve: `mean + swing·sin(2πt/period)`.
    Diurnal {
        /// Mean intensity.
        mean: f64,
        /// Peak-to-mean swing.
        swing: f64,
        /// Period of one "day" in simulated seconds (compressed for
        /// simulation).
        period: Seconds,
    },
    /// Square-wave bursts: `high` for `duty` of each period, else `low`.
    Bursty {
        /// Intensity inside a burst.
        high: f64,
        /// Intensity between bursts.
        low: f64,
        /// Burst period.
        period: Seconds,
        /// Fraction of the period spent at `high`.
        duty: f64,
    },
    /// Piecewise-linear between `(time, intensity)` points; clamps at the
    /// ends.
    Piecewise(Vec<(Seconds, f64)>),
}

impl LoadTrace {
    /// Intensity at time `t`, clamped into `[0, 1]`.
    ///
    /// Total on every input: a non-finite `t` reads as 0 intensity, a
    /// degenerate period (zero, negative or non-finite) collapses
    /// `Diurnal` to its mean and `Bursty` to its off-burst level, an
    /// empty `Piecewise` is 0, and `t` past either end of a `Piecewise`
    /// clamps to the nearest endpoint — the control loop samples traces
    /// long after their last knot (tenant churn, warm-up offsets), and a
    /// panic or NaN here would poison every budget downstream.
    pub fn intensity(&self, t: Seconds) -> f64 {
        if !t.value().is_finite() {
            return 0.0;
        }
        let v = match self {
            LoadTrace::Flat(v) => *v,
            LoadTrace::Diurnal {
                mean,
                swing,
                period,
            } => {
                if !(period.value().is_finite() && period.value() > 0.0) {
                    *mean
                } else {
                    mean + swing * (2.0 * std::f64::consts::PI * t.value() / period.value()).sin()
                }
            }
            LoadTrace::Bursty {
                high,
                low,
                period,
                duty,
            } => {
                if !(period.value().is_finite() && period.value() > 0.0) {
                    *low
                } else {
                    // `fract` of a negative phase is negative; shift into
                    // [0, 1) so pre-epoch times see the same square wave.
                    let mut phase = (t.value() / period.value()).fract();
                    if phase < 0.0 {
                        phase += 1.0;
                    }
                    if phase < duty.clamp(0.0, 1.0) {
                        *high
                    } else {
                        *low
                    }
                }
            }
            LoadTrace::Piecewise(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    points[0].1
                } else if t >= points[points.len() - 1].0 {
                    points[points.len() - 1].1
                } else {
                    match points.windows(2).find(|w| t <= w[1].0) {
                        // Unsorted knots can leave `t` between no pair even
                        // though it is inside the overall range; clamp to
                        // the last knot instead of panicking.
                        None => points[points.len() - 1].1,
                        Some(seg) => {
                            let (t0, v0) = seg[0];
                            let (t1, v1) = seg[1];
                            let a = (t.value() - t0.value()) / (t1.value() - t0.value());
                            // Coincident knots make `a` non-finite; hold the
                            // left value across the zero-length segment.
                            if a.is_finite() {
                                v0 + a * (v1 - v0)
                            } else {
                                v0
                            }
                        }
                    }
                }
            }
        };
        if v.is_finite() {
            v.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// A closed-loop service whose offered demand follows a [`LoadTrace`]:
/// users whose think timers expire submit with the trace's current
/// intensity as probability (and think again otherwise) — users are
/// "logged out" for the off-peak hours without disturbing queue state.
#[derive(Debug, Clone)]
pub struct TracedService {
    service: ClosedLoopService,
    trace: LoadTrace,
    now: f64,
}

impl TracedService {
    /// Create a traced service at peak population `config.users`.
    pub fn new(config: ServiceConfig, num_cores: usize, trace: LoadTrace) -> TracedService {
        TracedService {
            service: ClosedLoopService::new(config, num_cores),
            trace,
            now: 0.0,
        }
    }

    /// Advance by `dt` at the given per-core frequencies, with demand
    /// scaled to the trace's current intensity: clears `out` and writes
    /// one [`LoadDescriptor`] per core into it, reusing its capacity.
    pub fn advance_into(
        &mut self,
        dt: Seconds,
        freqs: &[KiloHertz],
        out: &mut Vec<LoadDescriptor>,
    ) {
        let intensity = self.trace.intensity(Seconds(self.now));
        self.now += dt.value();
        self.service.set_demand_scale(intensity);
        self.service.advance_into(dt, freqs, out);
    }

    /// The wrapped service (latency stats etc.).
    pub fn service(&self) -> &ClosedLoopService {
        &self.service
    }

    /// Mutable access (e.g. `reset_stats`).
    pub fn service_mut(&mut self) -> &mut ClosedLoopService {
        &mut self.service
    }

    /// Current trace intensity.
    pub fn intensity(&self) -> f64 {
        self.trace.intensity(Seconds(self.now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_and_clamping() {
        assert_eq!(LoadTrace::Flat(0.4).intensity(Seconds(123.0)), 0.4);
        assert_eq!(LoadTrace::Flat(1.7).intensity(Seconds(0.0)), 1.0);
        assert_eq!(LoadTrace::Flat(-0.2).intensity(Seconds(0.0)), 0.0);
    }

    #[test]
    fn diurnal_cycles() {
        let t = LoadTrace::Diurnal {
            mean: 0.5,
            swing: 0.4,
            period: Seconds(100.0),
        };
        assert!((t.intensity(Seconds(0.0)) - 0.5).abs() < 1e-9);
        assert!((t.intensity(Seconds(25.0)) - 0.9).abs() < 1e-9);
        assert!((t.intensity(Seconds(75.0)) - 0.1).abs() < 1e-9);
        // periodicity
        assert!((t.intensity(Seconds(125.0)) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn bursty_square_wave() {
        let t = LoadTrace::Bursty {
            high: 1.0,
            low: 0.2,
            period: Seconds(10.0),
            duty: 0.3,
        };
        assert_eq!(t.intensity(Seconds(1.0)), 1.0);
        assert_eq!(t.intensity(Seconds(2.9)), 1.0);
        assert_eq!(t.intensity(Seconds(3.1)), 0.2);
        assert_eq!(t.intensity(Seconds(11.0)), 1.0);
    }

    #[test]
    fn piecewise_interpolates_and_clamps() {
        let t = LoadTrace::Piecewise(vec![
            (Seconds(0.0), 0.2),
            (Seconds(10.0), 1.0),
            (Seconds(20.0), 0.4),
        ]);
        assert!((t.intensity(Seconds(5.0)) - 0.6).abs() < 1e-9);
        assert!((t.intensity(Seconds(15.0)) - 0.7).abs() < 1e-9);
        assert_eq!(t.intensity(Seconds(-5.0)), 0.2);
        assert_eq!(t.intensity(Seconds(99.0)), 0.4);
        assert_eq!(LoadTrace::Piecewise(vec![]).intensity(Seconds(0.0)), 0.0);
    }

    #[test]
    fn intensity_is_total_on_degenerate_inputs() {
        // Non-finite query times read as zero intensity everywhere.
        let traces = [
            LoadTrace::Flat(0.7),
            LoadTrace::Diurnal {
                mean: 0.5,
                swing: 0.3,
                period: Seconds(10.0),
            },
            LoadTrace::Bursty {
                high: 1.0,
                low: 0.2,
                period: Seconds(5.0),
                duty: 0.5,
            },
            LoadTrace::Piecewise(vec![(Seconds(0.0), 0.3), (Seconds(1.0), 0.9)]),
        ];
        for tr in &traces {
            for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(tr.intensity(Seconds(t)), 0.0, "{tr:?} at t={t}");
            }
        }

        // Degenerate periods collapse instead of going NaN.
        let d = LoadTrace::Diurnal {
            mean: 0.6,
            swing: 0.4,
            period: Seconds(0.0),
        };
        assert_eq!(d.intensity(Seconds(3.0)), 0.6);
        let b = LoadTrace::Bursty {
            high: 1.0,
            low: 0.25,
            period: Seconds(f64::NAN),
            duty: 0.5,
        };
        assert_eq!(b.intensity(Seconds(3.0)), 0.25);

        // Negative time on a square wave stays on the wave, in range.
        let b = LoadTrace::Bursty {
            high: 1.0,
            low: 0.2,
            period: Seconds(10.0),
            duty: 0.3,
        };
        assert_eq!(b.intensity(Seconds(-9.0)), 1.0);
        assert_eq!(b.intensity(Seconds(-5.0)), 0.2);

        // Coincident / unsorted piecewise knots never panic or NaN.
        let p = LoadTrace::Piecewise(vec![
            (Seconds(0.0), 0.2),
            (Seconds(5.0), 0.8),
            (Seconds(5.0), 0.4),
            (Seconds(10.0), 0.6),
        ]);
        for i in 0..200 {
            let v = p.intensity(Seconds(i as f64 * 0.1 - 5.0));
            assert!(v.is_finite() && (0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn traced_advance_into_reused_buffer_matches_a_fresh_one() {
        let cfg = ServiceConfig::websearch();
        let freqs = vec![KiloHertz::from_mhz(2600); 6];
        let trace = LoadTrace::Diurnal {
            mean: 0.6,
            swing: 0.4,
            period: Seconds(8.0),
        };
        let mut a = TracedService::new(cfg.clone(), 6, trace.clone());
        let mut b = TracedService::new(cfg, 6, trace);
        let mut buf = Vec::new();
        for _ in 0..10_000 {
            let mut fresh = Vec::new();
            a.advance_into(Seconds(0.001), &freqs, &mut fresh);
            b.advance_into(Seconds(0.001), &freqs, &mut buf);
            assert_eq!(fresh, buf);
        }
        assert_eq!(a.service().completed(), b.service().completed());
    }

    #[test]
    fn traced_service_throughput_follows_intensity() {
        let cfg = ServiceConfig::websearch();
        let freqs = vec![KiloHertz::from_mhz(3000); 9];
        let run = |trace: LoadTrace| -> f64 {
            let mut ts = TracedService::new(cfg.clone(), 9, trace);
            let mut loads = Vec::new();
            for _ in 0..30_000 {
                ts.advance_into(Seconds(0.001), &freqs, &mut loads);
            }
            ts.service().throughput()
        };
        let full = run(LoadTrace::Flat(1.0));
        let half = run(LoadTrace::Flat(0.5));
        assert!(
            half < full * 0.75,
            "half intensity must cut throughput: {full:.0} -> {half:.0} rps"
        );
        assert!(half > full * 0.25);
    }

    #[test]
    fn traced_service_conserves_users() {
        let cfg = ServiceConfig::websearch();
        let freqs = vec![KiloHertz::from_mhz(2000); 4];
        let mut ts = TracedService::new(
            cfg,
            4,
            LoadTrace::Bursty {
                high: 1.0,
                low: 0.1,
                period: Seconds(2.0),
                duty: 0.5,
            },
        );
        let mut loads = Vec::new();
        for _ in 0..20_000 {
            ts.advance_into(Seconds(0.001), &freqs, &mut loads);
            assert!(ts.service().user_conservation());
        }
    }
}
