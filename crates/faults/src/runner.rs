//! The chaos experiment: daemon vs fault plan, scored on ground truth.
//!
//! [`ChaosExperiment`] runs the same workload mix, fault schedule and
//! package budget through one of two controller stacks:
//!
//! * **resilient** — [`ResilientDaemon`] with retries, health tracking
//!   and the degradation ladder;
//! * **baseline** — the plain [`Daemon`] driven the way naïve tooling
//!   actually behaves when reads fail: the last value is silently
//!   reused ("stale fill"), writes are fire-and-forget, nothing is
//!   retried or read back.
//!
//! Both run through the same [`ControlLoop`] over a [`FaultyChip`]
//! backend. The stacks differ only in the retry budget and in the
//! controller: the plain daemon ignores the sample's health record, so
//! every failed reading reaches it as the buffer's previous value (the
//! package reading starts at the limit, as the loop assumes), while the
//! resilient daemon treats it as missing.
//!
//! The scoreboard ([`ChaosResult`]) is computed from the *inner* chip's
//! ground-truth power, not from the (possibly corrupted) telemetry the
//! controllers saw: per-interval cap violations, the worst sustained
//! violation run, Jain fairness over share-normalized throughput, and
//! starvation. The baseline's signature failure is blind budget raising:
//! during a package-telemetry outage the stale reading sits below the
//! limit forever, so the controller keeps granting frequency while true
//! power climbs unchecked. The resilient stack demotes to a uniform
//! last-good cap instead and keeps the budget enforced.

use std::sync::Arc;

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::stats::jain;
use pap_workloads::engine::RunningApp;
use pap_workloads::phases::PhasedProfile;
use pap_workloads::profile::WorkloadProfile;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority, TranslationKind};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, Controller};
use powerd::resilience::{LadderEvent, ResilienceConfig, ResilientDaemon, RetryPolicy};

use crate::chip::{FaultyChip, InjectionStats};
use crate::plan::FaultPlan;

/// Per-application outcome of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosAppResult {
    /// Application name.
    pub name: String,
    /// Pinned core.
    pub core: usize,
    /// Configured shares.
    pub shares: u32,
    /// Total instructions retired over the run.
    pub retired: u64,
    /// Share-normalized throughput (retired / shares), the quantity
    /// Jain fairness is computed over.
    pub normalized: f64,
}

/// Scoreboard of one chaos run, computed from ground truth.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Control intervals scored (after warm-up).
    pub intervals: usize,
    /// Intervals where true package power exceeded limit + slack.
    pub violations: usize,
    /// Number of violation runs at least `grace` intervals long. This is
    /// the cap-violation verdict: a 1 Hz controller cannot undo a single
    /// interval of overshoot, but nothing excuses a sustained one.
    pub sustained_violations: usize,
    /// Longest consecutive violation run.
    pub longest_violation_run: usize,
    /// Worst overshoot above the limit (W) across scored intervals.
    pub worst_over_watts: f64,
    /// Mean true package power over scored intervals.
    pub mean_power: Watts,
    /// Jain fairness index over share-normalized throughput.
    pub jain: f64,
    /// Apps whose share-normalized throughput fell below 2 % of the best
    /// (starved by the controller, not by the budget).
    pub starved: usize,
    /// Ladder moves (empty for the baseline).
    pub transitions: Vec<LadderEvent>,
    /// What the harness injected.
    pub injected: InjectionStats,
    /// Per-app outcomes, in configuration order.
    pub apps: Vec<ChaosAppResult>,
    /// Ground-truth mean package power per scored interval (post-warmup,
    /// in scoring order) — the raw series behind the violation counts,
    /// kept for post-mortems of failed chaos runs.
    pub interval_powers: Vec<f64>,
}

struct Entry {
    spec: AppSpec,
    profile: WorkloadProfile,
}

/// Builder for chaos runs. Defaults: the per-core-DVFS server platform
/// from [`crate::chaos_platform`], power shares (the most
/// telemetry-hungry policy, so the whole ladder is reachable), a 1 s
/// control interval and a 2 ms simulation tick.
pub struct ChaosExperiment {
    platform: PlatformSpec,
    policy: PolicyKind,
    limit: Watts,
    duration: Seconds,
    tick: Seconds,
    plan: FaultPlan,
    seed: u64,
    resilience: bool,
    rcfg: ResilienceConfig,
    translation: TranslationKind,
    warmup_intervals: usize,
    slack: Watts,
    grace: usize,
    entries: Vec<Entry>,
}

impl ChaosExperiment {
    /// Start building a chaos run.
    pub fn new(platform: PlatformSpec, policy: PolicyKind, limit: Watts) -> ChaosExperiment {
        ChaosExperiment {
            platform,
            policy,
            limit,
            duration: Seconds(120.0),
            tick: Seconds(0.002),
            plan: FaultPlan::new(),
            seed: 42,
            resilience: true,
            rcfg: ResilienceConfig::default(),
            translation: TranslationKind::Naive,
            warmup_intervals: 5,
            slack: Watts(2.0),
            grace: 5,
            entries: Vec::new(),
        }
    }

    /// Add an application on the next free core.
    pub fn app(mut self, name: impl Into<String>, profile: WorkloadProfile, shares: u32) -> Self {
        let core = self.entries.len();
        let baseline = profile.ips(powerd::runner::standalone_freq(&self.platform, &profile));
        self.entries.push(Entry {
            spec: AppSpec::new(name, core)
                .with_priority(Priority::High)
                .with_shares(shares)
                .with_baseline_ips(baseline),
            profile,
        });
        self
    }

    /// Set the run duration.
    pub fn duration(mut self, d: Seconds) -> Self {
        self.duration = d;
        self
    }

    /// Set the simulation tick.
    pub fn tick(mut self, t: Seconds) -> Self {
        self.tick = t;
        self
    }

    /// Install the fault schedule.
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Seed for workload phases and injected noise (the fault *schedule*
    /// is fixed by the plan; see [`FaultPlan::chaos`] for seeding that).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run with (`true`) or without (`false`) the resilience layer.
    pub fn resilience(mut self, on: bool) -> Self {
        self.resilience = on;
        self
    }

    /// Select the budget-to-frequency translation (naïve α by default).
    pub fn translation(mut self, kind: TranslationKind) -> Self {
        self.translation = kind;
        self
    }

    /// Run to completion on the default [`WideChip`] ground truth.
    pub fn run(self) -> Result<ChaosResult, String> {
        self.run_on::<WideChip>()
    }

    /// Run to completion with an explicit chip backend. The chaos
    /// regression in `tests/chaos.rs` drives the same schedule through
    /// both backends and asserts identical verdicts.
    pub fn run_on<C: ChipLike>(self) -> Result<ChaosResult, String> {
        let mut config = DaemonConfig::new(
            self.policy,
            self.limit,
            self.entries.iter().map(|e| e.spec.clone()).collect(),
        );
        config.translation = self.translation;
        let retry = if self.resilience {
            self.rcfg.retry
        } else {
            RetryPolicy::none()
        };
        let fchip = FaultyChip::new(
            C::shared(Arc::new(self.platform.clone())),
            self.plan.clone(),
            self.seed ^ 0x5EED_F00D,
            retry,
        );
        let mut apps: Vec<RunningApp> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                RunningApp::from_phased(
                    PhasedProfile::with_generated_phases(
                        e.profile,
                        self.seed ^ ((i as u64) << 8),
                        0.1,
                    ),
                    true,
                )
            })
            .collect();
        let ((fchip, interval_powers), transitions) = if self.resilience {
            let mut rd = ResilientDaemon::new(config, &self.platform, self.rcfg)
                .map_err(|e| e.to_string())?;
            let run = self.drive(fchip, &mut rd, &mut apps)?;
            (run, rd.transitions().to_vec())
        } else {
            let mut d = Daemon::new(config, &self.platform).map_err(|e| e.to_string())?;
            (self.drive(fchip, &mut d, &mut apps)?, Vec::new())
        };

        // Score on ground truth.
        let scored = interval_powers
            .iter()
            .skip(self.warmup_intervals)
            .copied()
            .collect::<Vec<f64>>();
        let threshold = self.limit.value() + self.slack.value();
        let mut violations = 0;
        let mut sustained = 0;
        let mut longest = 0usize;
        let mut run = 0usize;
        let mut worst: f64 = 0.0;
        for &p in &scored {
            if p > threshold {
                violations += 1;
                run += 1;
                if run == self.grace {
                    sustained += 1;
                }
                longest = longest.max(run);
                worst = worst.max(p - self.limit.value());
            } else {
                run = 0;
            }
        }
        let mean_power = Watts(scored.iter().sum::<f64>() / scored.len().max(1) as f64);

        let app_results: Vec<ChaosAppResult> = self
            .entries
            .iter()
            .zip(&apps)
            .map(|(e, app)| {
                let retired = app.total_retired();
                ChaosAppResult {
                    name: e.spec.name.clone(),
                    core: e.spec.core,
                    shares: e.spec.shares,
                    retired,
                    normalized: retired as f64 / e.spec.shares as f64,
                }
            })
            .collect();
        let normalized: Vec<f64> = app_results.iter().map(|a| a.normalized).collect();
        let best = normalized.iter().cloned().fold(0.0, f64::max);
        let starved = normalized
            .iter()
            .filter(|&&n| best > 0.0 && n < best * 0.02)
            .count();

        Ok(ChaosResult {
            intervals: scored.len(),
            violations,
            sustained_violations: sustained,
            longest_violation_run: longest,
            worst_over_watts: worst,
            mean_power,
            jain: jain(&normalized),
            starved,
            transitions,
            injected: fchip.stats(),
            apps: app_results,
            interval_powers: scored,
        })
    }

    /// Run `apps` under `ctl` for the whole duration. Returns the chip
    /// and the ground-truth mean package power of every control
    /// interval.
    fn drive<C: ChipLike, K: Controller>(
        &self,
        fchip: FaultyChip<C>,
        ctl: &mut K,
        apps: &mut [RunningApp],
    ) -> Result<(FaultyChip<C>, Vec<f64>), String> {
        let interval = ctl.config().control_interval.value();
        let mut lp = ControlLoop::new(fchip, ctl)?;
        let mut energy_acc = 0.0;
        let mut interval_powers = Vec::new();
        while lp.elapsed() < self.duration {
            let (fchip, parked) = lp.split_mut();
            for (app, e) in apps.iter_mut().zip(&self.entries) {
                let core = e.spec.core;
                if parked[core] {
                    continue;
                }
                app.run_on(fchip.chip_mut(), core, self.tick)
                    .map_err(|e| e.to_string())?;
            }
            let boundary = lp.advance(self.tick);
            energy_acc += lp.split_mut().0.inner().package_power().value() * self.tick.value();
            if boundary {
                interval_powers.push(energy_acc / interval);
                energy_acc = 0.0;
                lp.control(ctl)?;
            }
        }
        Ok((lp.into_backend(), interval_powers))
    }
}

#[cfg(test)]
mod tests {
    // The heavyweight end-to-end assertions live in tests/faults_e2e.rs
    // and the ext_faults bench; here we only prove the harness runs and
    // scores a clean plan as clean.
    use super::*;
    use crate::chaos_platform;
    use pap_workloads::spec;

    #[test]
    fn clean_run_has_no_violations_and_high_fairness() {
        let r = ChaosExperiment::new(chaos_platform(), PolicyKind::PowerShares, Watts(30.0))
            .app("cactus", spec::CACTUS_BSSN, 70)
            .app("leela", spec::LEELA, 30)
            .app("gcc", spec::GCC, 50)
            .duration(Seconds(30.0))
            .run()
            .unwrap();
        assert_eq!(r.sustained_violations, 0, "{r:?}");
        assert_eq!(r.starved, 0);
        assert!(r.jain > 0.6, "jain {}", r.jain);
        assert!(r.transitions.is_empty(), "no faults, no ladder moves");
        assert_eq!(r.injected, InjectionStats::default());
    }
}
