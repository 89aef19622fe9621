//! A closed-loop latency-sensitive service: the *websearch* stand-in.
//!
//! The paper's latency experiments (§3.2 Figure 5, §6.4 Figures 12–13) run
//! CloudSuite *websearch* with 300 users against 9 cores and report 90th
//! percentile latencies. The effect they demonstrate is queueing-theoretic:
//! lowering core frequency stretches service times, drives utilization
//! toward 1, and blows up the latency tail. This module reproduces that
//! with a closed-loop queueing model:
//!
//! * `users` independent clients think for an exponentially distributed
//!   time, then submit a request;
//! * each request carries an exponentially distributed service demand in
//!   *cycles*, so its service time is `cycles / frequency` — the handle
//!   through which DVFS policies act on the service;
//! * requests queue FCFS at a single dispatch queue feeding the serving
//!   cores; per-request sojourn times are recorded.

use std::collections::VecDeque;

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::Seconds;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shape of the per-request service-demand distribution.
///
/// The paper's websearch model uses exponential demand; production
/// services are heavier-tailed — a small fraction of requests carry most
/// of the work — which is exactly what makes their latency tails
/// sensitive to frequency. Every shape is parameterized so the *mean*
/// stays the configured `mean_service_cycles`; only the tail changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandShape {
    /// Memoryless demand (the original websearch model).
    Exponential,
    /// Log-normal demand with the given log-space standard deviation
    /// (`sigma` ≈ 1.0–2.0 for realistic service tails).
    LogNormal {
        /// Standard deviation of `ln(demand)`.
        sigma: f64,
    },
    /// Truncated Pareto demand with tail index `alpha` (> 1 so the mean
    /// exists; 1.1–2.5 covers typical heavy-tailed services). Samples are
    /// capped at 200× the mean so a single request cannot wedge a core
    /// for a whole simulated day.
    Pareto {
        /// Tail index.
        alpha: f64,
    },
}

impl DemandShape {
    /// Draw one demand sample with the given mean. Deterministic for a
    /// fixed RNG state; always finite and positive.
    pub fn sample(&self, rng: &mut StdRng, mean: f64) -> f64 {
        match *self {
            DemandShape::Exponential => exp_sample(rng, mean),
            DemandShape::LogNormal { sigma } => {
                let sigma = if sigma.is_finite() { sigma.abs() } else { 1.0 };
                // Box–Muller on two uniforms; mu chosen so E[X] = mean.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let mu = mean.ln() - sigma * sigma / 2.0;
                (mu + sigma * z).exp().min(mean * 200.0).max(1.0)
            }
            DemandShape::Pareto { alpha } => {
                let alpha = if alpha.is_finite() && alpha > 1.0 {
                    alpha
                } else {
                    1.5
                };
                // Scale x_m so the untruncated mean is `mean`.
                let xm = mean * (alpha - 1.0) / alpha;
                let u: f64 = rng.gen_range(1e-12..1.0);
                (xm * u.powf(-1.0 / alpha)).min(mean * 200.0)
            }
        }
    }

    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DemandShape::Exponential => "exp",
            DemandShape::LogNormal { .. } => "lognormal",
            DemandShape::Pareto { .. } => "pareto",
        }
    }
}

/// Configuration of the closed-loop service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of closed-loop users (the paper loads 300).
    pub users: usize,
    /// Mean exponential think time between a response and the next request.
    pub mean_think: Seconds,
    /// Mean service demand per request, in cycles.
    pub mean_service_cycles: f64,
    /// Distribution shape of per-request demand around that mean.
    pub demand: DemandShape,
    /// Effective capacitance the service presents while executing
    /// (websearch is low-demand: calibrated so 9 busy cores at 3 GHz draw
    /// ≈ 44 W of package power).
    pub capacitance: f64,
    /// RNG seed; runs are fully deterministic given the seed.
    pub seed: u64,
}

impl ServiceConfig {
    /// The paper's websearch setup: 300 users against 9 Skylake cores.
    pub fn websearch() -> ServiceConfig {
        ServiceConfig {
            users: 300,
            mean_think: Seconds(0.5),
            mean_service_cycles: 20.0e6,
            demand: DemandShape::Exponential,
            capacitance: 0.55,
            seed: 0x0005_EAC4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    remaining_cycles: f64,
    arrival: f64,
}

/// The closed-loop service simulator.
///
/// ```
/// use pap_workloads::latency::{ClosedLoopService, ServiceConfig};
/// use pap_simcpu::freq::KiloHertz;
/// use pap_simcpu::units::Seconds;
///
/// let mut svc = ClosedLoopService::new(ServiceConfig::websearch(), 9);
/// let freqs = vec![KiloHertz::from_mhz(3000); 9];
/// let mut loads = Vec::new();
/// for _ in 0..5_000 {
///     svc.advance_into(Seconds(0.001), &freqs, &mut loads);
/// }
/// assert!(svc.completed() > 500);
/// assert!(svc.p90_ms() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopService {
    config: ServiceConfig,
    rng: StdRng,
    now: f64,
    /// Think-timer expiry times (seconds), unsorted; scanned each tick.
    thinkers: Vec<f64>,
    queue: VecDeque<Request>,
    in_service: Vec<Option<Request>>,
    /// Completed-request sojourn times in seconds.
    latencies: Vec<f64>,
    completed: u64,
    /// Start of the current measurement window (for throughput).
    window_start: f64,
    /// Probability that a user whose think timer expires actually submits
    /// (otherwise they think again) — the handle load traces use to
    /// modulate demand without disturbing queue state.
    demand_scale: f64,
}

impl ClosedLoopService {
    /// Create a service with `num_cores` serving cores. Users start with
    /// randomized initial think timers so load ramps in smoothly.
    pub fn new(config: ServiceConfig, num_cores: usize) -> ClosedLoopService {
        assert!(num_cores >= 1, "need at least one serving core");
        assert!(config.users >= 1, "need at least one user");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let thinkers = (0..config.users)
            .map(|_| exp_sample(&mut rng, config.mean_think.value()))
            .collect();
        ClosedLoopService {
            config,
            rng,
            now: 0.0,
            thinkers,
            queue: VecDeque::new(),
            in_service: vec![None; num_cores],
            latencies: Vec::new(),
            completed: 0,
            window_start: 0.0,
            demand_scale: 1.0,
        }
    }

    /// Scale offered demand: a user whose think timer expires submits
    /// with this probability and otherwise draws a fresh think time.
    /// 1.0 (default) is the full closed-loop population.
    pub fn set_demand_scale(&mut self, scale: f64) {
        assert!((0.0..=1.0).contains(&scale), "demand scale out of range");
        self.demand_scale = scale;
    }

    /// Number of serving cores.
    pub fn num_cores(&self) -> usize {
        self.in_service.len()
    }

    /// Advance the service by `dt`, with `freqs[i]` the effective
    /// frequency of serving core `i`. Clears `out` and writes the load
    /// each serving core presented over the tick (utilization = busy
    /// fraction) into it, reusing its capacity across ticks (the `*_into`
    /// kernel discipline of DESIGN.md §11).
    pub fn advance_into(
        &mut self,
        dt: Seconds,
        freqs: &[KiloHertz],
        out: &mut Vec<LoadDescriptor>,
    ) {
        assert_eq!(freqs.len(), self.in_service.len(), "one frequency per core");
        let dt = dt.value();
        let end = self.now + dt;

        // Users whose think timers expire within this tick submit requests
        // (with probability `demand_scale`; otherwise they think again).
        let mut i = 0;
        while i < self.thinkers.len() {
            if self.thinkers[i] <= end {
                let expiry = self.thinkers[i];
                if self.demand_scale >= 1.0 || self.rng.gen_range(0.0..1.0) < self.demand_scale {
                    let arrival = expiry.max(self.now);
                    let demand = self
                        .config
                        .demand
                        .sample(&mut self.rng, self.config.mean_service_cycles);
                    self.queue.push_back(Request {
                        remaining_cycles: demand,
                        arrival,
                    });
                    self.thinkers.swap_remove(i);
                } else {
                    let think = exp_sample(&mut self.rng, self.config.mean_think.value());
                    self.thinkers[i] = expiry + think;
                    i += 1;
                }
            } else {
                i += 1;
            }
        }

        // Serve.
        out.clear();
        for (core, &f) in self.in_service.iter_mut().zip(freqs) {
            let hz = f.hz();
            let mut budget = dt;
            let mut busy = 0.0;
            while budget > 1e-12 {
                let req = match core.take().or_else(|| self.queue.pop_front()) {
                    Some(r) => r,
                    None => break,
                };
                let need = req.remaining_cycles / hz;
                if need <= budget {
                    // Completes within the tick.
                    let completion = end - (budget - need);
                    self.latencies.push(completion - req.arrival);
                    self.completed += 1;
                    busy += need;
                    budget -= need;
                    let think = exp_sample(&mut self.rng, self.config.mean_think.value());
                    self.thinkers.push(completion + think);
                } else {
                    *core = Some(Request {
                        remaining_cycles: req.remaining_cycles - hz * budget,
                        arrival: req.arrival,
                    });
                    busy += budget;
                    budget = 0.0;
                }
            }
            let utilization = (busy / dt).clamp(0.0, 1.0);
            out.push(if utilization > 0.0 {
                LoadDescriptor {
                    capacitance: self.config.capacitance,
                    utilization,
                    avx: false,
                }
            } else {
                LoadDescriptor::IDLE
            });
        }

        self.now = end;
    }

    /// Number of completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Mean latency in milliseconds over the recorded window.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64 * 1e3
    }

    /// Latency percentile (`p` in 0..100) in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)] * 1e3
    }

    /// The paper's headline metric.
    pub fn p90_ms(&self) -> f64 {
        self.percentile_ms(90.0)
    }

    /// Throughput in requests per second over the current measurement
    /// window.
    pub fn throughput(&self) -> f64 {
        let elapsed = self.now - self.window_start;
        if elapsed <= 0.0 {
            0.0
        } else {
            self.completed as f64 / elapsed
        }
    }

    /// Discard recorded latencies and restart the measurement window
    /// (e.g. after a warm-up phase). Queue state — and crucially the
    /// service clock, which think timers reference — is untouched.
    pub fn reset_stats(&mut self) {
        self.latencies.clear();
        self.completed = 0;
        self.window_start = self.now;
    }

    /// Invariant check: every user is thinking, queued or in service.
    pub fn user_conservation(&self) -> bool {
        let in_service = self.in_service.iter().filter(|s| s.is_some()).count();
        self.thinkers.len() + self.queue.len() + in_service == self.config.users
    }
}

/// Exponential sample with the given mean, via inverse CDF.
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(freq_mhz: u64, seconds: f64) -> ClosedLoopService {
        let mut svc = ClosedLoopService::new(ServiceConfig::websearch(), 9);
        let freqs = vec![KiloHertz::from_mhz(freq_mhz); 9];
        let dt = Seconds(0.001);
        let ticks = (seconds / dt.value()) as usize;
        let mut loads = Vec::new();
        for _ in 0..ticks {
            svc.advance_into(dt, &freqs, &mut loads);
            debug_assert!(svc.user_conservation());
        }
        svc
    }

    #[test]
    fn serves_requests_at_full_speed() {
        let svc = run(3000, 30.0);
        assert!(
            svc.completed() > 5_000,
            "only {} completed",
            svc.completed()
        );
        // closed-loop throughput bound: users/(think+service) ≈ 560 rps
        let x = svc.throughput();
        assert!(x > 350.0 && x < 700.0, "throughput {x}");
        assert!(svc.p90_ms() < 40.0, "p90 {} ms", svc.p90_ms());
    }

    #[test]
    fn latency_explodes_at_low_frequency() {
        let fast = run(3000, 30.0);
        let slow = run(800, 30.0);
        assert!(
            slow.p90_ms() > 3.0 * fast.p90_ms(),
            "p90 {} -> {} ms: tail should blow up when saturated",
            fast.p90_ms(),
            slow.p90_ms()
        );
        assert!(slow.throughput() < fast.throughput());
    }

    #[test]
    fn utilization_rises_as_frequency_falls() {
        let mut fast_util = 0.0;
        let mut slow_util = 0.0;
        for (mhz, util) in [(3000u64, &mut fast_util), (1200u64, &mut slow_util)] {
            let mut svc = ClosedLoopService::new(ServiceConfig::websearch(), 9);
            let freqs = vec![KiloHertz::from_mhz(mhz); 9];
            let mut acc = 0.0;
            let mut n = 0.0;
            let mut loads = Vec::new();
            for _ in 0..20_000 {
                svc.advance_into(Seconds(0.001), &freqs, &mut loads);
                acc += loads.iter().map(|l| l.utilization).sum::<f64>() / 9.0;
                n += 1.0;
            }
            *util = acc / n;
        }
        assert!(slow_util > fast_util + 0.2, "{fast_util} vs {slow_util}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(2000, 10.0);
        let b = run(2000, 10.0);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.p90_ms(), b.p90_ms());
    }

    #[test]
    fn reset_stats_clears_window() {
        let mut svc = run(3000, 10.0);
        assert!(svc.completed() > 0);
        svc.reset_stats();
        assert_eq!(svc.completed(), 0);
        assert_eq!(svc.p90_ms(), 0.0);
        assert!(svc.user_conservation());
    }

    #[test]
    fn percentiles_ordered() {
        let svc = run(2200, 20.0);
        let p50 = svc.percentile_ms(50.0);
        let p90 = svc.percentile_ms(90.0);
        let p99 = svc.percentile_ms(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 > 0.0);
    }

    #[test]
    fn mixed_core_frequencies_accepted() {
        let mut svc = ClosedLoopService::new(ServiceConfig::websearch(), 3);
        let freqs = vec![
            KiloHertz::from_mhz(3000),
            KiloHertz::from_mhz(1000),
            KiloHertz::from_mhz(2000),
        ];
        let mut loads = Vec::new();
        for _ in 0..5000 {
            svc.advance_into(Seconds(0.001), &freqs, &mut loads);
            assert_eq!(loads.len(), 3);
        }
        assert!(svc.completed() > 0);
    }

    #[test]
    fn advance_into_reused_buffer_matches_a_fresh_one() {
        let mut a = ClosedLoopService::new(ServiceConfig::websearch(), 4);
        let mut b = a.clone();
        let freqs = vec![KiloHertz::from_mhz(2200); 4];
        let mut reused = Vec::new();
        for _ in 0..5000 {
            let mut fresh = Vec::new();
            a.advance_into(Seconds(0.001), &freqs, &mut fresh);
            b.advance_into(Seconds(0.001), &freqs, &mut reused);
            assert_eq!(fresh, reused);
        }
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.p90_ms(), b.p90_ms());
    }

    #[test]
    fn demand_shapes_deterministic_and_mean_preserving() {
        for shape in [
            DemandShape::Exponential,
            DemandShape::LogNormal { sigma: 1.2 },
            DemandShape::Pareto { alpha: 1.8 },
        ] {
            let draw = |seed: u64| -> Vec<f64> {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..40_000).map(|_| shape.sample(&mut rng, 1.0e6)).collect()
            };
            let a = draw(7);
            let b = draw(7);
            assert_eq!(a, b, "{} must be deterministic per seed", shape.name());
            assert!(a.iter().all(|&v| v.is_finite() && v > 0.0));
            let mean = a.iter().sum::<f64>() / a.len() as f64;
            // Heavy tails converge slowly; a loose band still catches a
            // mis-parameterized sampler (off by alpha/(alpha-1) or e^{σ²/2}).
            assert!(
                mean > 0.5e6 && mean < 2.0e6,
                "{}: sample mean {mean:.0} far from 1e6",
                shape.name()
            );
        }
    }

    #[test]
    fn heavy_tails_are_heavier_than_exponential() {
        let tail_ratio = |shape: DemandShape| -> f64 {
            let mut rng = StdRng::seed_from_u64(11);
            let mut v: Vec<f64> = (0..40_000).map(|_| shape.sample(&mut rng, 1.0e6)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // p99.9 over median: a scale-free tail-weight measure.
            v[(v.len() as f64 * 0.999) as usize] / v[v.len() / 2]
        };
        let exp = tail_ratio(DemandShape::Exponential);
        let logn = tail_ratio(DemandShape::LogNormal { sigma: 1.5 });
        let pareto = tail_ratio(DemandShape::Pareto { alpha: 1.3 });
        assert!(logn > 2.0 * exp, "lognormal tail {logn:.1} vs exp {exp:.1}");
        assert!(
            pareto > 2.0 * exp,
            "pareto tail {pareto:.1} vs exp {exp:.1}"
        );
    }

    #[test]
    fn degenerate_shape_parameters_are_defused() {
        let mut rng = StdRng::seed_from_u64(3);
        for shape in [
            DemandShape::LogNormal { sigma: f64::NAN },
            DemandShape::Pareto { alpha: 0.5 },
            DemandShape::Pareto {
                alpha: f64::INFINITY,
            },
        ] {
            for _ in 0..1000 {
                let v = shape.sample(&mut rng, 1.0e6);
                assert!(v.is_finite() && v > 0.0, "{shape:?} produced {v}");
            }
        }
    }
}
