//! Resilience layer: retries, sensor health, and the degradation ladder.
//!
//! The plain [`Daemon`] assumes every sensor read and MSR write succeeds.
//! Production telemetry does not cooperate: `/dev/cpu/<n>/msr` reads
//! return `EIO` transiently or permanently, frequency writes get dropped
//! by buggy firmware, and energy counters glitch. The paper's own policy
//! table is a built-in degradation ladder — power shares need per-core
//! power telemetry, frequency shares need only package power, and a
//! uniform cap needs nothing but a working actuator — so losing a sensor
//! should cost *fairness precision*, never the power cap itself.
//!
//! [`ResilientDaemon`] wraps a [`Daemon`] and implements that ladder:
//!
//! 1. **Nominal** — the configured policy runs unchanged.
//! 2. **FrequencyOnly** — per-core power (or performance-counter or
//!    utilization) telemetry went unhealthy while the configured policy
//!    needs it; the daemon swaps in frequency shares, which preserves
//!    proportionality from package power alone.
//! 3. **UniformCap** — package power is gone; the daemon stops trusting
//!    any redistribution and pins every managed core to one conservative
//!    frequency derived from the last trustworthy power reading. While
//!    blind it never raises frequencies.
//!
//! Demotion and promotion both go through the hysteresis in
//! [`HealthTracker`] (`demote_after` consecutive failures, `promote_after`
//! consecutive successes), so a single bad interval cannot flap the
//! policy. Transient gaps *before* a sensor is declared unhealthy hold
//! the previous action rather than redistributing on stale data.
//!
//! The input is a [`Sample`] plus its health record
//! ([`pap_telemetry::sampler::SampleHealth`]): the readings missing this
//! interval, the retries spent, and the cores whose last frequency write
//! failed — which the backend reports with the next sample. A missing
//! reading is never trusted, whatever value the sample buffer still
//! holds. Silently-dropped ("stuck") writes are detected by reading the
//! request register back and comparing with what was commanded. A core
//! whose write path stays broken is quarantined (parked) so it cannot
//! free-run outside the controller.

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::CoreRates;
use pap_telemetry::energy::EnergyLedger;
use pap_telemetry::health::{HealthTracker, SensorId};
use pap_telemetry::sampler::Sample;

use crate::config::{DaemonConfig, PolicyKind};
use crate::daemon::{ActionView, ControlAction, Daemon, DaemonError};
use crate::obs::{AppDecision, DecisionEvent, DecisionRecord, DecisionTrace};

/// Bounded retry for MSR-class reads. A retry burst is orders of
/// magnitude shorter than the 1 s control interval, so retries do not
/// advance simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the no-resilience baseline).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
    }

    /// Run `op` up to `max_attempts` times, returning the first success
    /// (or the last error) together with the number of attempts made.
    pub fn run<T, E>(&self, mut op: impl FnMut() -> Result<T, E>) -> (Result<T, E>, u32) {
        let attempts_allowed = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op() {
                Ok(v) => return (Ok(v), attempt),
                Err(e) if attempt >= attempts_allowed => return (Err(e), attempt),
                Err(_) => attempt += 1,
            }
        }
    }
}

/// Package power, unless its reading is missing this interval.
fn package(s: &Sample) -> Option<Watts> {
    (!s.is_missing(SensorId::PackagePower)).then_some(s.package_power)
}

/// Core `c`'s power, unless missing this interval or not exposed.
fn core_power(s: &Sample, c: usize) -> Option<Watts> {
    s.cores[c]
        .power
        .filter(|_| !s.is_missing(SensorId::CorePower(c)))
}

/// Core `c`'s counter rates, unless missing this interval.
fn rates(s: &Sample, c: usize) -> Option<&CoreRates> {
    (!s.is_missing(SensorId::CoreCounters(c))).then_some(&s.cores[c].rates)
}

/// Where the daemon sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// The configured policy runs with full telemetry.
    Nominal,
    /// Per-core telemetry (for IPS-driven policies also the host's
    /// utilization source) lost: frequency shares substitute for the
    /// configured policy (package power is still trusted).
    FrequencyOnly,
    /// Package power lost: one conservative uniform frequency for every
    /// managed core, never raised while blind.
    UniformCap,
}

impl DegradationLevel {
    /// Short name used in reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::Nominal => "nominal",
            DegradationLevel::FrequencyOnly => "freq-only",
            DegradationLevel::UniformCap => "uniform-cap",
        }
    }
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One move on the degradation ladder, for traces and post-mortems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderEvent {
    /// Simulated time of the move.
    pub time: Seconds,
    /// Level before.
    pub from: DegradationLevel,
    /// Level after.
    pub to: DegradationLevel,
    /// Which telemetry change forced the move.
    pub reason: &'static str,
}

/// Tuning for the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Retry policy for MSR-class reads and writes.
    pub retry: RetryPolicy,
    /// Consecutive failed intervals before a sensor is unhealthy.
    pub demote_after: u32,
    /// Consecutive healthy intervals before a sensor is trusted again.
    pub promote_after: u32,
    /// Safety factor applied when deriving the blind uniform frequency
    /// from the last trustworthy power reading (< 1.0 biases low).
    pub uniform_safety: f64,
    /// Consecutive over-limit package readings tolerated before the
    /// backstop overrides the policy with a proportional shed. Short
    /// transients stay the policy's business; streaks mean its feedback
    /// state is mis-calibrated for the chip and must not be waited out.
    pub backstop_after: u32,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            demote_after: 3,
            promote_after: 5,
            uniform_safety: 0.9,
            backstop_after: 2,
        }
    }
}

/// A [`Daemon`] wrapped in the degradation ladder. See the module docs
/// for the ladder itself.
#[derive(Debug)]
pub struct ResilientDaemon {
    base: DaemonConfig,
    platform: PlatformSpec,
    rcfg: ResilienceConfig,
    level: DegradationLevel,
    /// The active policy engine; `None` at [`DegradationLevel::UniformCap`].
    daemon: Option<Daemon>,
    /// The attached energy ledger while no policy engine runs; otherwise
    /// it rides on the engine and moves across ladder rebuilds.
    energy: Option<EnergyLedger>,
    health: HealthTracker,
    transitions: Vec<LadderEvent>,
    app_cores: Vec<usize>,
    /// Whether an action has been committed yet.
    commanded: bool,
    /// The action in force: the one last committed. Until the next
    /// commit its frequencies are what we last asked the hardware for.
    action: ControlAction,
    /// Buffer the next action is built in; swapped with `action` on
    /// commit, so a step allocates nothing.
    next: ControlAction,
    /// The sample handed to the policy engine when per-core readings are
    /// missing: the observed sample with neutral values in their slots.
    fill: Sample,
    /// Last package power read while the package sensor was healthy.
    last_good_pkg: Option<Watts>,
    /// Consecutive trusted package readings above the limit. Feeds the
    /// over-budget backstop; a missing reading neither extends nor
    /// resets the streak (the blind-hold shed covers that case).
    over_streak: u32,
    /// Last *consistent* operating point: mean commanded kHz over the
    /// managed cores paired with the package power measured while the
    /// hardware was verifiably running those commands. Commanded
    /// frequencies alone are not trustworthy — during a firmware
    /// throttle (PROCHOT) the controller can wind them far above what
    /// the chip executes while measured power stays low, and scaling
    /// that pair would put the blind cap near maximum frequency.
    anchor: Option<(f64, Watts)>,
    /// The blind cap while at [`DegradationLevel::UniformCap`].
    uniform_freq: KiloHertz,
    /// Decision-trace observer. Lives here rather than on the inner
    /// daemon because ladder moves rebuild that daemon from scratch.
    /// `None` (the default) keeps observability strictly off-path.
    observer: Option<DecisionTrace>,
    /// Events noted by this interval's control path, drained into the
    /// interval's [`DecisionRecord`]. Always empty when no observer is
    /// attached ([`ResilientDaemon::note`] is a no-op then).
    pending_events: Vec<DecisionEvent>,
}

impl ResilientDaemon {
    /// Wrap `config` with the resilience layer. Both the configured
    /// policy *and* its frequency-shares fallback are validated here, so
    /// later ladder moves cannot fail.
    pub fn new(
        config: DaemonConfig,
        platform: &PlatformSpec,
        rcfg: ResilienceConfig,
    ) -> Result<ResilientDaemon, DaemonError> {
        let daemon = Daemon::new(config.clone(), platform)?;
        // Pre-validate the fallback so transition() can expect() it.
        Daemon::new(Self::fallback_config(&config), platform)?;
        let app_cores: Vec<usize> = config.apps.iter().map(|a| a.core).collect();
        let num_cores = platform.num_cores;
        let blank = ControlAction {
            freqs: vec![KiloHertz::ZERO; num_cores],
            parked: vec![false; num_cores],
        };
        Ok(ResilientDaemon {
            base: config,
            platform: platform.clone(),
            rcfg,
            level: DegradationLevel::Nominal,
            daemon: Some(daemon),
            energy: None,
            health: HealthTracker::new(rcfg.demote_after, rcfg.promote_after),
            transitions: Vec::new(),
            app_cores,
            commanded: false,
            action: blank.clone(),
            next: blank,
            fill: Sample::empty(),
            last_good_pkg: None,
            over_streak: 0,
            anchor: None,
            uniform_freq: platform.grid.min(),
            observer: None,
            pending_events: Vec::new(),
        })
    }

    /// Attach a decision-trace observer; each subsequent step appends one
    /// [`DecisionRecord`] with `source = "resilience"`.
    pub fn attach_observer(&mut self, trace: DecisionTrace) {
        self.observer = Some(trace);
    }

    /// Detach and return the decision trace (e.g. at end of run).
    pub fn take_observer(&mut self) -> Option<DecisionTrace> {
        self.observer.take()
    }

    /// Attach an energy ledger. The policy engine accounts each interval
    /// it steps (see [`Daemon::attach_energy`]); the ledger survives
    /// ladder rebuilds, and blind or held intervals account nothing.
    pub fn attach_energy(&mut self, ledger: EnergyLedger) {
        match &mut self.daemon {
            Some(d) => d.attach_energy(ledger),
            None => self.energy = Some(ledger),
        }
    }

    /// Detach and return the energy ledger (e.g. at end of run).
    pub fn take_energy(&mut self) -> Option<EnergyLedger> {
        self.daemon
            .as_mut()
            .and_then(Daemon::take_energy)
            .or_else(|| self.energy.take())
    }

    /// Swap in a new policy engine (or none), carrying the ledger over.
    fn install(&mut self, daemon: Option<Daemon>) {
        let ledger = self.take_energy();
        self.daemon = daemon;
        if let Some(ledger) = ledger {
            self.attach_energy(ledger);
        }
    }

    /// Queue an event for this interval's record; no-op when no observer
    /// is attached (keeping the hooks off-path).
    fn note(&mut self, event: DecisionEvent) {
        if self.observer.is_some() {
            self.pending_events.push(event);
        }
    }

    fn fallback_config(base: &DaemonConfig) -> DaemonConfig {
        let mut cfg = base.clone();
        cfg.policy = PolicyKind::FrequencyShares;
        cfg
    }

    /// The config of the engine for the current ladder level.
    fn level_config(&self) -> DaemonConfig {
        if self.level == DegradationLevel::Nominal {
            self.base.clone()
        } else {
            Self::fallback_config(&self.base)
        }
    }

    /// The initial distribution, delegated to the configured policy.
    pub fn initial(&mut self) -> ControlAction {
        let action = self.daemon.as_mut().expect("nominal at start").initial();
        self.next.copy_from(action.view());
        self.commit();
        action
    }

    /// Current position on the degradation ladder.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Every ladder move so far, in time order.
    pub fn transitions(&self) -> &[LadderEvent] {
        &self.transitions
    }

    /// The per-sensor health tracker.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Short name of the policy actually controlling cores right now.
    pub fn active_policy(&self) -> &'static str {
        match self.level {
            DegradationLevel::Nominal => self.base.policy.name(),
            DegradationLevel::FrequencyOnly => PolicyKind::FrequencyShares.name(),
            DegradationLevel::UniformCap => "uniform-cap",
        }
    }

    /// The configured (base) daemon config.
    pub fn config(&self) -> &DaemonConfig {
        &self.base
    }

    /// Whether `core`'s write path is currently quarantined.
    pub fn is_quarantined(&self, core: usize) -> bool {
        !self.health.is_healthy(SensorId::FreqActuator(core))
    }

    /// Learned-model state of the active inner daemon. `None` at
    /// [`DegradationLevel::UniformCap`], which runs no policy engine.
    pub fn model_snapshot(&self) -> Option<pap_model::ModelSnapshot> {
        self.daemon.as_ref().map(|d| d.model_snapshot())
    }

    /// One control interval over a sample and its health record. The
    /// returned view borrows the action in force until the next step;
    /// at a steady [`DegradationLevel::Nominal`] the step allocates
    /// nothing (observer detached).
    pub fn step(&mut self, s: &Sample) -> ActionView<'_> {
        let started = self.observer.as_ref().map(|_| std::time::Instant::now());
        self.observe_health(s);
        if self.health.is_healthy(SensorId::PackagePower) {
            if let Some(p) = package(s) {
                if p > self.base.power_limit {
                    self.over_streak += 1;
                } else {
                    self.over_streak = 0;
                }
            }
        }

        let target = self.target_level();
        if target != self.level {
            self.transition(target, s.time);
        }

        match self.level {
            DegradationLevel::UniformCap => self.uniform_action(s),
            _ => self.policy_action(s),
        }

        if self.health.is_healthy(SensorId::PackagePower) {
            if let Some(p) = package(s) {
                self.last_good_pkg = Some(p);
                // `s` measures the interval driven by the *previous*
                // command (the action not yet replaced by the commit), so
                // this is the correctly-paired anchor — taken only when
                // the hardware demonstrably ran what we asked for.
                if self.commands_took_effect(s) {
                    self.anchor = Some((self.mean_commanded_khz(), p));
                }
            }
        }
        self.commit();
        if self.observer.is_some() {
            let record = self.build_record(s, started);
            if let Some(obs) = self.observer.as_mut() {
                obs.push(record);
            }
        } else {
            self.pending_events.clear();
        }
        self.action.view()
    }

    /// Assemble one [`DecisionRecord`] for the interval, draining the
    /// events noted along the control path. Only called with an observer
    /// attached.
    fn build_record(&mut self, s: &Sample, started: Option<std::time::Instant>) -> DecisionRecord {
        let events = std::mem::take(&mut self.pending_events);
        // At this layer quantization and clustering already happened
        // inside the inner daemon (or do not apply, at UniformCap), so
        // the funnel stages coincide.
        let apps = self
            .app_cores
            .iter()
            .map(|&c| {
                let f = self.action.freqs.get(c).copied().unwrap_or(KiloHertz::ZERO);
                AppDecision {
                    core: c,
                    requested: f,
                    quantized: f,
                    granted: f,
                    parked: self.action.parked.get(c).copied().unwrap_or(false),
                }
            })
            .collect();
        DecisionRecord {
            time: s.time,
            source: "resilience",
            policy: self.active_policy(),
            level: Some(self.level.name()),
            budget: self.base.power_limit,
            measured: package(s),
            translation: self.base.translation.name(),
            model_confident: self.daemon.as_ref().is_some_and(|d| d.model_confident()),
            apps,
            events,
            latency: Seconds(started.map_or(0.0, |s| s.elapsed().as_secs_f64())),
        }
    }

    /// Whether every managed core's measured active frequency confirms
    /// the previous command actually executed. A firmware override
    /// (thermal clamp) shows up as active ≪ commanded even though the
    /// write "succeeded"; samples taken under it must not anchor the
    /// blind cap. Missing counters give no verdict (no anchor update),
    /// matching the actuator-health rule.
    fn commands_took_effect(&self, s: &Sample) -> bool {
        if !self.commanded {
            return false;
        }
        self.app_cores.iter().all(|&c| {
            let commanded = self.action.freqs[c];
            if commanded == KiloHertz::ZERO || self.is_quarantined(c) {
                return false;
            }
            match rates(s, c) {
                Some(r) => r.active_freq.0 as f64 >= 0.7 * commanded.0 as f64,
                None => false,
            }
        })
    }

    fn mean_commanded_khz(&self) -> f64 {
        self.app_cores
            .iter()
            .map(|&c| self.action.freqs[c].0)
            .sum::<u64>() as f64
            / self.app_cores.len().max(1) as f64
    }

    /// Feed this interval's read/write outcomes into the health tracker.
    fn observe_health(&mut self, s: &Sample) {
        let h = &mut self.health;
        h.record(SensorId::PackagePower, package(s).is_some());
        h.record(SensorId::Utilization, !s.is_missing(SensorId::Utilization));
        // Every core, managed or not, so the tracker is the host's one
        // health report; only the managed cores steer the ladder, and
        // only they must expose their power and read back what we
        // commanded (a stuck write otherwise). An explicit write error
        // fails the actuator; no read-back, no verdict.
        for core in 0..s.cores.len() {
            let managed = self.app_cores.contains(&core);
            if self.platform.per_core_power {
                let exposed = !managed || s.cores[core].power.is_some();
                let ok = exposed && !s.is_missing(SensorId::CorePower(core));
                h.record(SensorId::CorePower(core), ok);
            }
            h.record(SensorId::CoreCounters(core), rates(s, core).is_some());
            let verdict = if s.health.write_errors.contains(&core) {
                Some(false)
            } else if self.commanded && !s.is_missing(SensorId::FreqActuator(core)) {
                Some(!managed || s.cores[core].requested_freq == self.action.freqs[core])
            } else {
                None
            };
            if let Some(ok) = verdict {
                h.record(SensorId::FreqActuator(core), ok);
            }
        }
    }

    /// Where the ladder says we should be, given current sensor health.
    fn target_level(&self) -> DegradationLevel {
        if !self.health.is_healthy(SensorId::PackagePower) {
            return DegradationLevel::UniformCap;
        }
        let per_core_lost = self.base.policy.needs_per_core_power()
            && self
                .app_cores
                .iter()
                .any(|&c| !self.health.is_healthy(SensorId::CorePower(c)));
        let perf_lost = self.base.policy.needs_performance_feedback()
            && (!self.health.is_healthy(SensorId::Utilization)
                || self
                    .app_cores
                    .iter()
                    .any(|&c| !self.health.is_healthy(SensorId::CoreCounters(c))));
        if per_core_lost || perf_lost {
            DegradationLevel::FrequencyOnly
        } else {
            DegradationLevel::Nominal
        }
    }

    /// Move to `target`, rebuilding the policy engine. The replacement
    /// engine resumes from the currently-programmed frequencies so the
    /// swap itself cannot overshoot the budget.
    fn transition(&mut self, target: DegradationLevel, time: Seconds) {
        let reason = match target {
            DegradationLevel::UniformCap => "package power unhealthy",
            DegradationLevel::FrequencyOnly => "per-core telemetry unhealthy",
            DegradationLevel::Nominal => "telemetry healthy again",
        };
        self.transitions.push(LadderEvent {
            time,
            from: self.level,
            to: target,
            reason,
        });
        self.note(DecisionEvent::LadderTransition {
            from: self.level.name(),
            to: target.name(),
            reason,
        });
        self.level = target;
        if target == DegradationLevel::UniformCap {
            self.install(None);
            self.uniform_freq = self.blind_uniform_freq();
            return;
        }
        let mut d = Daemon::new(self.level_config(), &self.platform)
            .expect("ladder configs validated at construction");
        // Build per-policy internal state, then overwrite the targets
        // with what the hardware is actually running.
        d.initial();
        if self.commanded {
            d.resume_from(&self.action.freqs);
        }
        self.install(Some(d));
    }

    /// The conservative frequency to pin managed cores at while blind:
    /// scale the anchor's mean frequency by its power-to-limit ratio,
    /// biased low by `uniform_safety`, floored at the grid minimum. The
    /// anchor — not the raw last command — is the basis, because the
    /// last command may be controller windup against a firmware clamp
    /// (see the `anchor` field). Power grows superlinearly in frequency,
    /// so the linear scale-down errs conservative. With no consistent
    /// operating point ever observed there is nothing to extrapolate
    /// from, and the only safe blind cap is the grid minimum.
    fn blind_uniform_freq(&self) -> KiloHertz {
        let grid = self.platform.grid;
        if !self.commanded || self.app_cores.is_empty() {
            return grid.min();
        }
        match self.anchor {
            Some((mean_khz, pkg)) if pkg.value() > 0.0 => {
                let scale = (self.base.power_limit.value() / pkg.value()).min(1.0)
                    * self.rcfg.uniform_safety;
                grid.floor(KiloHertz((mean_khz * scale) as u64))
                    .max(grid.min())
            }
            _ => grid.min(),
        }
    }

    /// Blind mode: one uniform frequency for every managed core. A stray
    /// successful package reading is used only to step *down*.
    fn uniform_action(&mut self, s: &Sample) {
        if let Some(p) = package(s) {
            if p > self.base.power_limit {
                self.uniform_freq = self
                    .platform
                    .grid
                    .step_down(self.uniform_freq)
                    .max(self.platform.grid.min());
            }
        }
        self.next.freqs.fill(self.platform.grid.min());
        self.next.parked.fill(true);
        for &c in &self.app_cores {
            self.next.freqs[c] = self.uniform_freq;
            self.next.parked[c] = self.is_quarantined(c);
        }
    }

    /// Anti-windup: true iff counter telemetry proves the hardware did
    /// not execute the last command — some managed core ran far below
    /// what we asked (firmware clamp, PROCHOT). Raising the command
    /// further would only wind the controller up against the clamp and
    /// unwind as a package-power overshoot when it lifts. Missing
    /// counters on any managed core give no verdict. The 0.7 tolerance
    /// leaves normal turbo-ceiling gaps alone.
    fn actuator_overridden(&self, s: &Sample) -> bool {
        if !self.commanded {
            return false;
        }
        let mut overridden = false;
        for &c in &self.app_cores {
            let Some(r) = rates(s, c) else {
                return false;
            };
            let commanded = self.action.freqs[c];
            if commanded != KiloHertz::ZERO && (r.active_freq.0 as f64) < 0.7 * commanded.0 as f64 {
                overridden = true;
            }
        }
        overridden
    }

    /// Full integrator reset after a detected override, seeded from the
    /// achieved operating point in `self.next`. The policy's feedback
    /// state (per-app power limits, learned levels) was trained against
    /// a chip that was not executing its commands, so it is garbage: a
    /// power-shares engine, for example, inflates its per-app limits to
    /// the per-core ceiling while the clamp suppresses the watts, then
    /// needs many over-budget intervals to deflate them once the clamp
    /// lifts. Rebuild the engine for the current ladder level and seed
    /// only its frequency targets from the achieved operating point; a
    /// stateful policy then falls back to its calibrated *initial
    /// distribution* on the next step, re-entering the budget envelope
    /// from below in one move instead of climbing from the floor and
    /// winding its integrators up all over again.
    fn reset_policy_state(&mut self) {
        if self.daemon.is_none() {
            return; // UniformCap carries no policy state to poison
        }
        let mut d = Daemon::new(self.level_config(), &self.platform)
            .expect("ladder configs validated at construction");
        // Deliberately no `d.initial()`: leaving the per-policy state
        // unprimed is what makes the next step re-run the initial
        // distribution (every policy bootstraps when stepped unprimed).
        d.resume_from(&self.next.freqs);
        self.install(Some(d));
    }

    /// Daemon-driven levels. Transient gaps (a required reading missing
    /// while its sensor is still officially healthy) hold the previous
    /// action instead of redistributing on stale data.
    fn policy_action(&mut self, s: &Sample) {
        // A firmware override re-anchors the controller on the achieved
        // frequencies — what the chip actually ran, grid-rounded and
        // capped at the command — instead of stepping the policy:
        // redistributing against an actuator that is not listening is
        // pure windup.
        if self.actuator_overridden(s) {
            self.note(DecisionEvent::ActuatorOverride);
            self.next.copy_from(self.action.view());
            let grid = self.platform.grid;
            for &c in &self.app_cores {
                let commanded = self.action.freqs[c];
                if commanded != KiloHertz::ZERO {
                    self.next.freqs[c] = grid
                        .round(s.cores[c].rates.active_freq)
                        .clamp(grid.min(), commanded);
                }
            }
            self.reset_policy_state();
            self.quarantine_overlay();
            return;
        }
        let needs_per_core =
            self.level == DegradationLevel::Nominal && self.base.policy.needs_per_core_power();
        let complete = package(s).is_some()
            && (!needs_per_core || self.app_cores.iter().all(|&c| core_power(s, c).is_some()));
        if !complete && self.commanded {
            self.next.copy_from(self.action.view());
            let mut reason = "telemetry gap";
            // Blind while over budget: the last trusted package reading
            // exceeded the limit, so replaying the same command verbatim
            // just prolongs the violation until the ladder demotes. Shed
            // power by the over-budget ratio on every held interval
            // instead (power grows superlinearly in frequency, so the
            // linear scale errs conservative); under-limit gaps still
            // hold the action exactly.
            if let Some(p) = self.last_good_pkg {
                if p > self.base.power_limit {
                    reason = "blind-hold shed";
                    let scale = self.base.power_limit.value() / p.value();
                    let grid = self.platform.grid;
                    for &c in &self.app_cores {
                        let khz = (self.next.freqs[c].0 as f64 * scale) as u64;
                        self.next.freqs[c] = grid.floor(KiloHertz(khz)).max(grid.min());
                    }
                }
            }
            self.note(DecisionEvent::Held { reason });
            self.quarantine_overlay();
            return;
        }
        // Gate model learning on telemetry trust: the neutral fill below
        // substitutes zero rates for failed counter reads, and folding
        // those (or readings from sensors the tracker already declared
        // unhealthy) into the learned power curves would corrupt them.
        // Frozen fits stay valid and thaw when telemetry recovers.
        let learn = self.health.is_healthy(SensorId::PackagePower)
            && package(s).is_some()
            && self.health.is_healthy(SensorId::Utilization)
            && !s.is_missing(SensorId::Utilization)
            && self.app_cores.iter().all(|&c| {
                self.health.is_healthy(SensorId::CoreCounters(c)) && rates(s, c).is_some()
            })
            && (!self.platform.per_core_power
                || self
                    .app_cores
                    .iter()
                    .all(|&c| self.health.is_healthy(SensorId::CorePower(c))));
        let daemon = self.daemon.as_mut().expect("daemon present below uniform");
        daemon.set_learning(learn);
        if complete {
            let input = neutral_fill(s, &mut self.fill);
            let _ = daemon.try_step_view(input);
            self.next.copy_from(daemon.action());
        } else {
            // No previous action and an incomplete first sample: fall
            // back to the initial distribution.
            let initial = daemon.initial();
            self.next.copy_from(initial.view());
        }
        self.backstop(s);
        self.quarantine_overlay();
    }

    /// Over-budget backstop. The paper's policies converge through
    /// model-based feedback, and their integrators can legitimately take
    /// several intervals to walk a mis-calibrated operating point (wrong
    /// uncore estimate, post-fault re-entry) back under the limit. One
    /// or two hot intervals are the policy's business; a *streak* of
    /// trusted over-limit package readings means waiting the policy out
    /// is indefensible, so cap its proposal core-by-core at the last
    /// command scaled down by the over-budget ratio. Power grows
    /// superlinearly in frequency, so the linear scale errs low; the
    /// `min` keeps any deeper cut the policy already chose.
    fn backstop(&mut self, s: &Sample) {
        if self.over_streak < self.rcfg.backstop_after {
            return;
        }
        let Some(p) = package(s) else {
            return;
        };
        self.note(DecisionEvent::Backstop {
            streak: self.over_streak,
        });
        let scale = self.base.power_limit.value() / p.value();
        let grid = self.platform.grid;
        for &c in &self.app_cores {
            let shed = grid
                .floor(KiloHertz((self.action.freqs[c].0 as f64 * scale) as u64))
                .max(grid.min());
            self.next.freqs[c] = self.next.freqs[c].min(shed);
        }
    }

    /// Park cores whose write path is quarantined (they would otherwise
    /// free-run at a stale frequency outside the controller). Their
    /// frequency request is left in place so the backend keeps probing
    /// the write path and recovery is observable.
    fn quarantine_overlay(&mut self) {
        for &c in &self.app_cores {
            if self.is_quarantined(c) {
                self.next.parked[c] = true;
            }
        }
    }

    /// Make the action built in `next` the one in force.
    fn commit(&mut self) {
        std::mem::swap(&mut self.action, &mut self.next);
        self.commanded = true;
    }
}

/// The sample the policy engine steps on: `s` itself when no per-core
/// reading is missing, otherwise a copy in `fill` with neutral values —
/// zero rates for failed counter reads, no power for failed per-core
/// power reads — in place of the stale ones `s` still holds.
fn neutral_fill<'a>(s: &'a Sample, fill: &'a mut Sample) -> &'a Sample {
    let per_core_missing = s
        .health
        .missing
        .iter()
        .any(|id| matches!(id, SensorId::CoreCounters(_) | SensorId::CorePower(_)));
    if !per_core_missing {
        return s;
    }
    fill.time = s.time;
    fill.interval = s.interval;
    fill.package_power = s.package_power;
    fill.cores_power = s.cores_power;
    fill.cores.clone_from(&s.cores);
    for id in &s.health.missing {
        match *id {
            SensorId::CoreCounters(c) => fill.cores[c].rates = CoreRates::ZERO,
            SensorId::CorePower(c) => fill.cores[c].power = None,
            _ => {}
        }
    }
    fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppSpec;
    use pap_telemetry::sampler::CoreSample;

    fn ryzen_like() -> PlatformSpec {
        let mut p = PlatformSpec::ryzen();
        p.shared_pstate_slots = None;
        p
    }

    fn cfg(policy: PolicyKind) -> DaemonConfig {
        DaemonConfig::new(
            policy,
            Watts(30.0),
            vec![
                AppSpec::new("a", 0).with_shares(70).with_baseline_ips(2e9),
                AppSpec::new("b", 1).with_shares(30).with_baseline_ips(2e9),
            ],
        )
    }

    /// A sample with no frequency read-back (the request register is
    /// listed missing on every core) and the given package and per-core
    /// power readings, `None` meaning missing.
    fn obs(t: f64, pkg: Option<f64>, core_power: [Option<f64>; 2], num_cores: usize) -> Sample {
        let rates = CoreRates {
            active_freq: KiloHertz::from_mhz(2000),
            c0_residency: 1.0,
            ips: 1e9,
        };
        let cores = (0..num_cores).map(|c| CoreSample {
            rates,
            power: core_power.get(c).copied().flatten().map(Watts),
            requested_freq: KiloHertz::ZERO,
        });
        let pkg_missing = pkg.is_none().then_some(SensorId::PackagePower);
        let power_missing = (0..2).filter(|&c| core_power[c].is_none());
        let missing = pkg_missing
            .into_iter()
            .chain(power_missing.map(SensorId::CorePower));
        let mut s = Sample {
            package_power: Watts(pkg.unwrap_or(0.0)),
            cores: cores.collect(),
            time: Seconds(t),
            interval: Seconds(1.0),
            ..Sample::empty()
        };
        s.health.missing = missing
            .chain((0..num_cores).map(SensorId::FreqActuator))
            .collect();
        s
    }

    #[test]
    fn retry_policy_counts_attempts() {
        let r = RetryPolicy::default();
        let mut fails = 2;
        let (out, attempts) = r.run(|| -> Result<u32, ()> {
            if fails > 0 {
                fails -= 1;
                Err(())
            } else {
                Ok(7)
            }
        });
        assert_eq!(out, Ok(7));
        assert_eq!(attempts, 3);

        let (out, attempts) = r.run(|| -> Result<u32, ()> { Err(()) });
        assert!(out.is_err());
        assert_eq!(attempts, 3);

        let none = RetryPolicy::none();
        let (_, attempts) = none.run(|| -> Result<u32, ()> { Err(()) });
        assert_eq!(attempts, 1);
    }

    #[test]
    fn per_core_loss_demotes_to_frequency_shares_and_back() {
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::PowerShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        rd.initial();
        assert_eq!(rd.level(), DegradationLevel::Nominal);

        let mut t = 1.0;
        // Two failed intervals: still nominal (holds last action).
        for _ in 0..2 {
            rd.step(&obs(t, Some(25.0), [None, Some(3.0)], plat.num_cores));
            t += 1.0;
        }
        assert_eq!(rd.level(), DegradationLevel::Nominal);
        // Third consecutive failure demotes.
        rd.step(&obs(t, Some(25.0), [None, Some(3.0)], plat.num_cores));
        t += 1.0;
        assert_eq!(rd.level(), DegradationLevel::FrequencyOnly);
        assert_eq!(rd.active_policy(), "freq-shares");

        // Recovery: five healthy intervals promote back.
        for _ in 0..4 {
            rd.step(&obs(t, Some(25.0), [Some(5.0), Some(3.0)], plat.num_cores));
            t += 1.0;
            assert_eq!(rd.level(), DegradationLevel::FrequencyOnly, "hysteresis");
        }
        rd.step(&obs(t, Some(25.0), [Some(5.0), Some(3.0)], plat.num_cores));
        assert_eq!(rd.level(), DegradationLevel::Nominal);
        assert_eq!(rd.transitions().len(), 2);
    }

    #[test]
    fn unmanaged_failures_are_tracked_without_moving_the_ladder() {
        let plat = ryzen_like();
        let cfg = cfg(PolicyKind::FrequencyShares);
        let mut rd = ResilientDaemon::new(cfg, &plat, ResilienceConfig::default()).unwrap();
        rd.initial();
        let idle = plat.num_cores - 1; // runs no app, exposes no power
        for t in 1..=3 {
            let mut s = obs(t as f64, Some(25.0), [Some(5.0), Some(3.0)], plat.num_cores);
            s.health.missing.push(SensorId::Utilization);
            s.health.write_errors.push(idle);
            rd.step(&s);
        }
        // Frequency shares need no utilization signal (an IPS policy
        // would demote), but every failure is on the report.
        assert_eq!(rd.level(), DegradationLevel::Nominal);
        for id in [SensorId::Utilization, SensorId::FreqActuator(idle)] {
            assert!(!rd.health().is_healthy(id), "{id}");
        }
        assert!(rd.health().is_healthy(SensorId::CorePower(idle)));
    }

    #[test]
    fn package_loss_forces_uniform_cap_never_raised() {
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::FrequencyShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        rd.initial();
        let mut t = 1.0;
        // Establish a healthy operating point.
        for _ in 0..3 {
            rd.step(&obs(t, Some(28.0), [Some(5.0), Some(3.0)], plat.num_cores));
            t += 1.0;
        }
        // Lose package power.
        let mut last = None;
        for _ in 0..6 {
            last = Some(
                rd.step(&obs(t, None, [Some(5.0), Some(3.0)], plat.num_cores))
                    .to_owned(),
            );
            t += 1.0;
        }
        assert_eq!(rd.level(), DegradationLevel::UniformCap);
        let a = last.unwrap();
        assert_eq!(a.freqs[0], a.freqs[1], "uniform across managed cores");
        assert!(!a.parked[0] && !a.parked[1]);
        assert!(a.parked[2..].iter().all(|&p| p), "unmanaged cores sleep");
        let blind = a.freqs[0];

        // Blind intervals never raise the cap.
        let a = rd.step(&obs(t, None, [None, None], plat.num_cores));
        assert!(a.freqs[0] <= blind);
        assert_eq!(rd.active_policy(), "uniform-cap");
    }

    #[test]
    fn stray_over_limit_reading_steps_blind_cap_down() {
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::FrequencyShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        rd.initial();
        let mut t = 1.0;
        for _ in 0..3 {
            rd.step(&obs(t, Some(28.0), [None, None], plat.num_cores));
            t += 1.0;
        }
        for _ in 0..3 {
            rd.step(&obs(t, None, [None, None], plat.num_cores));
            t += 1.0;
        }
        assert_eq!(rd.level(), DegradationLevel::UniformCap);
        let before = rd.step(&obs(t, None, [None, None], plat.num_cores)).freqs[0];
        t += 1.0;
        // One spurious over-limit reading arrives while still unhealthy.
        let after = rd
            .step(&obs(t, Some(80.0), [None, None], plat.num_cores))
            .freqs[0];
        assert!(
            after < before || before == plat.grid.min(),
            "over-limit reading must step the blind cap down ({before} -> {after})"
        );
    }

    #[test]
    fn write_error_quarantines_and_readback_recovers() {
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::FrequencyShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        rd.initial();
        let mut t = 1.0;
        for _ in 0..3 {
            let mut o = obs(t, Some(25.0), [Some(5.0), Some(3.0)], plat.num_cores);
            o.health.write_errors.push(1);
            let parked = rd.step(&o).parked[1];
            t += 1.0;
            if rd.is_quarantined(1) {
                assert!(parked, "quarantined core parks");
            }
        }
        assert!(rd.is_quarantined(1));
        assert_eq!(rd.level(), DegradationLevel::Nominal, "cap path unaffected");

        // Read-backs that match the command prove recovery.
        for _ in 0..5 {
            let mut o = obs(t, Some(25.0), [Some(5.0), Some(3.0)], plat.num_cores);
            o.health.missing.clear(); // read-backs present too
            for (c, cs) in o.cores.iter_mut().enumerate() {
                cs.requested_freq = rd.action.freqs[c];
            }
            rd.step(&o);
            t += 1.0;
        }
        assert!(!rd.is_quarantined(1), "matching read-backs unpark the core");
    }

    #[test]
    fn firmware_clamp_does_not_wind_the_controller_up() {
        // A thermal clamp suppresses both power and the executed
        // frequency. A naive controller chases the missing watts and
        // winds its commands up to maximum — which unwinds as a package
        // overshoot the instant the clamp lifts, and poisons the blind
        // cap if package telemetry dies before recovery. The resilient
        // daemon must instead re-anchor on what the chip actually ran.
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::FrequencyShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        rd.initial();
        let mut t = 1.0;
        // Healthy, consistent intervals: active freq = what we commanded.
        for _ in 0..3 {
            let mut o = obs(t, Some(28.0), [Some(5.0), Some(3.0)], plat.num_cores);
            for (c, co) in o.cores.iter_mut().enumerate() {
                co.rates.active_freq = rd.action.freqs[c];
            }
            rd.step(&o);
            t += 1.0;
        }
        let anchored_mean = (rd.action.freqs[0].0 + rd.action.freqs[1].0) / 2;
        let pre_clamp_max = rd.action.freqs[0].max(rd.action.freqs[1]);
        // Firmware clamp: power collapses, chip executes the grid
        // minimum regardless of commands. Re-anchoring alternates with a
        // bounded one-step probe (active == commanded right after a
        // re-anchor, so the clamp is momentarily undetectable) — what
        // must never happen is a ratchet back toward maximum.
        let mut reanchored = 0;
        let mut clamp_max = KiloHertz::ZERO;
        for _ in 0..6 {
            let mut o = obs(t, Some(5.0), [Some(1.0), Some(1.0)], plat.num_cores);
            for co in o.cores.iter_mut() {
                co.rates.active_freq = plat.grid.min();
            }
            let a = rd.step(&o);
            if a.freqs[0] == plat.grid.min() && a.freqs[1] <= plat.grid.min() {
                reanchored += 1;
            }
            clamp_max = clamp_max.max(a.freqs[0]).max(a.freqs[1]);
            t += 1.0;
        }
        assert!(
            reanchored >= 3,
            "most clamped intervals must re-anchor on the achieved minimum, got {reanchored}/6"
        );
        assert!(
            clamp_max.0 * 2 <= pre_clamp_max.0,
            "probe steps must stay far below the pre-clamp command \
             ({clamp_max} vs {pre_clamp_max})"
        );
        // Package telemetry dies mid-clamp: demote to the blind cap. The
        // cap extrapolates from the pre-clamp anchor, never from any
        // wound-up command.
        let mut last = None;
        for _ in 0..3 {
            last = Some(
                rd.step(&obs(t, None, [None, None], plat.num_cores))
                    .to_owned(),
            );
            t += 1.0;
        }
        assert_eq!(rd.level(), DegradationLevel::UniformCap);
        let blind = last.unwrap().freqs[0];
        assert!(
            blind.0 <= anchored_mean,
            "blind cap {blind} must not exceed the pre-clamp anchor ({anchored_mean} kHz)"
        );
    }

    #[test]
    fn over_budget_streak_trips_the_backstop() {
        // A policy whose model is mis-calibrated for the chip can sit
        // above the limit for many intervals while its integrators walk
        // back down. The wrapper tolerates `backstop_after - 1` trusted
        // over-limit readings, then caps the policy's proposal at the
        // last command scaled by the over-budget ratio.
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::FrequencyShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        rd.initial();
        let consistent = |rd: &mut ResilientDaemon, t: f64, pkg: f64| {
            let mut o = obs(t, Some(pkg), [Some(9.0), Some(7.0)], plat.num_cores);
            for (c, co) in o.cores.iter_mut().enumerate() {
                co.rates.active_freq = rd.action.freqs[c];
            }
            rd.step(&o).to_owned()
        };
        consistent(&mut rd, 1.0, 25.0); // under limit: streak stays 0
        let a1 = consistent(&mut rd, 2.0, 40.0); // first hot reading: policy's call
        let a2 = consistent(&mut rd, 3.0, 40.0); // second: backstop engages
        for c in [0usize, 1] {
            let shed = plat
                .grid
                .floor(KiloHertz((a1.freqs[c].0 as f64 * 30.0 / 40.0) as u64))
                .max(plat.grid.min());
            assert!(
                a2.freqs[c] <= shed,
                "core {c}: {} must be capped at the shed point {} after a \
                 sustained over-budget streak",
                a2.freqs[c],
                shed
            );
        }
    }

    #[test]
    fn transient_gap_holds_last_action() {
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::FrequencyShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        let init = rd.initial();
        // One missing package reading: hold, do not redistribute. The
        // counters confirm the command executed, so the anti-windup
        // override stays out of the way.
        let mut o = obs(1.0, None, [None, None], plat.num_cores);
        for (c, co) in o.cores.iter_mut().enumerate() {
            co.rates.active_freq = rd.action.freqs[c];
        }
        let a = rd.step(&o);
        assert_eq!(a.freqs, init.freqs, "single gap holds the last action");
        assert_eq!(rd.level(), DegradationLevel::Nominal);
    }

    #[test]
    fn telemetry_outage_does_not_corrupt_learned_curve() {
        // A partial counter outage is the nastiest case for the online
        // model: with core 0's counters gone, the backfilled sample pairs
        // core 1's effective GHz with *both* cores' package watts — a
        // plausible-looking but wrong observation. The health gate must
        // freeze learning for the whole outage window (including the
        // intervals before the tracker formally demotes the sensor) and
        // thaw it on recovery.
        let plat = ryzen_like();
        let mut rd = ResilientDaemon::new(
            cfg(PolicyKind::FrequencyShares),
            &plat,
            ResilienceConfig::default(),
        )
        .unwrap();
        rd.initial();
        // Observations where the chip verifiably runs what was commanded,
        // so the anti-windup override (which rebuilds the engine and its
        // model) stays out of the way.
        let consistent = |rd: &mut ResilientDaemon, t: f64| {
            let mut o = obs(t, Some(25.0), [Some(5.0), Some(3.0)], plat.num_cores);
            for (c, co) in o.cores.iter_mut().enumerate() {
                co.rates.active_freq = rd.action.freqs[c];
            }
            o
        };
        let mut t = 1.0;
        for _ in 0..15 {
            let o = consistent(&mut rd, t);
            rd.step(&o);
            t += 1.0;
        }
        let before = rd.model_snapshot().unwrap().package;
        assert!(before.observations >= 10, "healthy window must feed fits");

        // Outage: core 0's counters fail for 10 intervals while package
        // power keeps reporting.
        for _ in 0..10 {
            let mut o = consistent(&mut rd, t);
            o.health.missing.push(SensorId::CoreCounters(0));
            rd.step(&o);
            t += 1.0;
        }
        let during = rd.model_snapshot().unwrap().package;
        assert_eq!(
            during.observations, before.observations,
            "no sample from the outage window may enter the fit"
        );
        assert_eq!(
            during.theta, before.theta,
            "coefficients frozen bit-for-bit"
        );

        // Recovery thaws learning.
        for _ in 0..8 {
            let o = consistent(&mut rd, t);
            rd.step(&o);
            t += 1.0;
        }
        let after = rd.model_snapshot().unwrap().package;
        assert!(
            after.observations > before.observations,
            "learning must resume once telemetry is healthy again"
        );
    }

    #[test]
    fn prevalidates_fallback_config() {
        // PowerShares on a per-core-power platform validates both the
        // base and the frequency-shares fallback.
        let plat = ryzen_like();
        assert!(ResilientDaemon::new(
            cfg(PolicyKind::PowerShares),
            &plat,
            ResilienceConfig::default()
        )
        .is_ok());
        // An invalid base config is rejected outright.
        let mut bad = cfg(PolicyKind::PowerShares);
        bad.apps[0].shares = 0;
        assert!(ResilientDaemon::new(bad, &plat, ResilienceConfig::default()).is_err());
    }
}
