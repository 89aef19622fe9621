//! An open-loop latency-sensitive service: Poisson arrivals against a
//! bounded FCFS queue.
//!
//! The closed-loop model in [`crate::latency`] couples offered load to
//! completions — a saturated service slows its own users down, which is
//! right for a fixed user population but wrong for internet-facing
//! tenants whose arrival rate does not care how the backend is doing.
//! Here requests arrive as a Poisson process at `rate_scale × peak_rps`
//! regardless of queue state; when the bounded queue is full, arrivals
//! are *dropped* and counted, so overload shows up as shed traffic and a
//! blown tail instead of a silently throttled client population. This is
//! the load shape the multi-tenant scenarios (`pap-tenants`) drive
//! through the daemon.

use std::collections::VecDeque;

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::Seconds;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::latency::DemandShape;

/// Configuration of an open-loop service tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Arrival rate at full intensity, in requests per second.
    pub peak_rps: f64,
    /// Mean service demand per request, in cycles.
    pub mean_service_cycles: f64,
    /// Distribution shape of per-request demand around that mean.
    pub demand: DemandShape,
    /// Effective capacitance presented while executing.
    pub capacitance: f64,
    /// Maximum queued (not yet in service) requests; beyond this,
    /// arrivals are dropped.
    pub queue_cap: usize,
    /// RNG seed; runs are fully deterministic given the seed.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// A small latency-sensitive tenant: 400 rps of lightly heavy-tailed
    /// requests against a couple of cores.
    pub fn frontend() -> OpenLoopConfig {
        OpenLoopConfig {
            peak_rps: 400.0,
            mean_service_cycles: 8.0e6,
            demand: DemandShape::LogNormal { sigma: 1.0 },
            capacitance: 0.6,
            queue_cap: 2_000,
            seed: 0x0F0E_D00D,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    remaining_cycles: f64,
    arrival: f64,
}

/// The open-loop service simulator.
///
/// ```
/// use pap_workloads::openloop::{OpenLoopConfig, OpenLoopService};
/// use pap_simcpu::freq::KiloHertz;
/// use pap_simcpu::units::Seconds;
///
/// let mut svc = OpenLoopService::new(OpenLoopConfig::frontend(), 2);
/// let freqs = vec![KiloHertz::from_mhz(3000); 2];
/// let mut loads = Vec::new();
/// for _ in 0..5_000 {
///     svc.advance_into(Seconds(0.001), &freqs, &mut loads);
/// }
/// assert!(svc.completed() > 1_000);
/// assert_eq!(svc.dropped(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct OpenLoopService {
    config: OpenLoopConfig,
    rng: StdRng,
    now: f64,
    queue: VecDeque<Request>,
    in_service: Vec<Option<Request>>,
    latencies: Vec<f64>,
    completed: u64,
    offered: u64,
    dropped: u64,
    window_start: f64,
    /// Multiplier on `peak_rps`; the handle arrival traces use.
    rate_scale: f64,
}

impl OpenLoopService {
    /// Create a service with `num_cores` serving cores.
    pub fn new(config: OpenLoopConfig, num_cores: usize) -> OpenLoopService {
        assert!(num_cores >= 1, "need at least one serving core");
        assert!(
            config.peak_rps.is_finite() && config.peak_rps >= 0.0,
            "peak_rps must be finite and non-negative"
        );
        let rng = StdRng::seed_from_u64(config.seed);
        OpenLoopService {
            config,
            rng,
            now: 0.0,
            queue: VecDeque::new(),
            in_service: vec![None; num_cores],
            latencies: Vec::new(),
            completed: 0,
            offered: 0,
            dropped: 0,
            window_start: 0.0,
            rate_scale: 1.0,
        }
    }

    /// Scale the arrival rate: effective rate is `scale × peak_rps`.
    /// Non-finite or negative scales read as zero.
    pub fn set_rate_scale(&mut self, scale: f64) {
        self.rate_scale = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            0.0
        };
    }

    /// Number of serving cores.
    pub fn num_cores(&self) -> usize {
        self.in_service.len()
    }

    /// Advance the service by `dt` at the given per-core frequencies:
    /// clears `out` and writes one [`LoadDescriptor`] per serving core
    /// into it, reusing its capacity across ticks.
    pub fn advance_into(
        &mut self,
        dt: Seconds,
        freqs: &[KiloHertz],
        out: &mut Vec<LoadDescriptor>,
    ) {
        assert_eq!(freqs.len(), self.in_service.len(), "one frequency per core");
        let dt = dt.value();
        let end = self.now + dt;

        // Poisson arrival count for this tick (Knuth's product-of-
        // uniforms; λ = rate·dt is small at millisecond ticks, so the
        // loop runs a handful of iterations).
        let lambda = self.config.peak_rps * self.rate_scale * dt;
        let n = if lambda > 0.0 {
            let limit = (-lambda).exp();
            let mut k = 0u32;
            let mut p = 1.0;
            loop {
                p *= self.rng.gen_range(0.0..1.0_f64);
                if p <= limit || k > 10_000 {
                    break k;
                }
                k += 1;
            }
        } else {
            0
        };
        // Spread arrivals evenly across the tick: at millisecond ticks
        // the intra-tick offset is far below any latency we report, and
        // it keeps the RNG draw count independent of queue state.
        for i in 0..n {
            self.offered += 1;
            if self.queue.len() >= self.config.queue_cap {
                self.dropped += 1;
                continue;
            }
            let arrival = self.now + dt * (i as f64 + 0.5) / n as f64;
            let demand = self
                .config
                .demand
                .sample(&mut self.rng, self.config.mean_service_cycles);
            self.queue.push_back(Request {
                remaining_cycles: demand,
                arrival,
            });
        }

        // Serve FCFS, identically to the closed-loop model.
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
                    let completion = end - (budget - need);
                    self.latencies.push(completion - req.arrival);
                    self.completed += 1;
                    busy += need;
                    budget -= need;
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

    /// Completed requests in the current measurement window.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests offered (arrived) in the current window, including drops.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Requests dropped at the full queue in the current window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current queue depth (excluding requests in service).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Latency percentile (`p` in 0..100) in milliseconds over the
    /// current window; 0 when nothing completed.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)] * 1e3
    }

    /// The headline tail metric.
    pub fn p90_ms(&self) -> f64 {
        self.percentile_ms(90.0)
    }

    /// Goodput in completed requests per second over the current window.
    pub fn throughput(&self) -> f64 {
        let elapsed = self.now - self.window_start;
        if elapsed <= 0.0 {
            0.0
        } else {
            self.completed as f64 / elapsed
        }
    }

    /// Discard recorded stats and restart the measurement window; queue
    /// state and the service clock are untouched.
    pub fn reset_stats(&mut self) {
        self.latencies.clear();
        self.completed = 0;
        self.offered = 0;
        self.dropped = 0;
        self.window_start = self.now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mhz: u64, cores: usize, scale: f64, seconds: f64) -> OpenLoopService {
        let mut svc = OpenLoopService::new(OpenLoopConfig::frontend(), cores);
        svc.set_rate_scale(scale);
        let freqs = vec![KiloHertz::from_mhz(mhz); cores];
        let mut loads = Vec::new();
        for _ in 0..(seconds / 0.001) as usize {
            svc.advance_into(Seconds(0.001), &freqs, &mut loads);
        }
        svc
    }

    #[test]
    fn keeps_up_when_provisioned() {
        let svc = run(3000, 2, 1.0, 20.0);
        // 400 rps offered; nearly all should complete with no drops.
        assert_eq!(svc.dropped(), 0);
        let x = svc.throughput();
        assert!(x > 330.0 && x < 470.0, "throughput {x}");
        assert!(svc.p90_ms() < 50.0, "p90 {}", svc.p90_ms());
    }

    #[test]
    fn overload_drops_instead_of_throttling_arrivals() {
        // 2× the rate against one slow core: the queue caps and drops.
        let svc = run(800, 1, 2.0, 30.0);
        assert!(svc.dropped() > 0, "overload must shed traffic");
        assert!(svc.offered() > svc.completed() + svc.dropped() / 2);
        // Offered rate stays open-loop: ~800 rps regardless of service.
        let offered_rps = svc.offered() as f64 / 30.0;
        assert!(
            offered_rps > 700.0 && offered_rps < 900.0,
            "offered {offered_rps}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(2200, 2, 0.8, 10.0);
        let b = run(2200, 2, 0.8, 10.0);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.offered(), b.offered());
        assert_eq!(a.p90_ms(), b.p90_ms());
    }

    #[test]
    fn advance_into_reused_buffer_matches_a_fresh_one() {
        let mut a = OpenLoopService::new(OpenLoopConfig::frontend(), 3);
        let mut b = a.clone();
        let freqs = vec![KiloHertz::from_mhz(2600); 3];
        let mut buf = Vec::new();
        for _ in 0..8000 {
            let mut fresh = Vec::new();
            a.advance_into(Seconds(0.001), &freqs, &mut fresh);
            b.advance_into(Seconds(0.001), &freqs, &mut buf);
            assert_eq!(fresh, buf);
        }
        assert_eq!(a.completed(), b.completed());
    }

    #[test]
    fn tail_inflates_at_low_frequency() {
        let fast = run(3000, 2, 1.0, 20.0);
        let slow = run(1200, 2, 1.0, 20.0);
        assert!(
            slow.p90_ms() > fast.p90_ms() * 2.0,
            "p90 {} -> {} ms",
            fast.p90_ms(),
            slow.p90_ms()
        );
    }

    #[test]
    fn zero_scale_silences_arrivals() {
        let mut svc = OpenLoopService::new(OpenLoopConfig::frontend(), 2);
        svc.set_rate_scale(0.0);
        let freqs = vec![KiloHertz::from_mhz(3000); 2];
        let mut loads = Vec::new();
        for _ in 0..2000 {
            svc.advance_into(Seconds(0.001), &freqs, &mut loads);
        }
        assert_eq!(svc.offered(), 0);
        // Degenerate scales read as zero, not NaN-rate arrivals.
        svc.set_rate_scale(f64::NAN);
        for _ in 0..1000 {
            svc.advance_into(Seconds(0.001), &freqs, &mut loads);
        }
        assert_eq!(svc.offered(), 0);
    }
}
