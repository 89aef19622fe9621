//! The fault-injecting chip wrapper.
//!
//! [`FaultyChip`] sits between the daemon and a [`ChipLike`] chip,
//! exposing the *fallible* interface real MSR access has: every sensor
//! read and frequency write returns a `Result`, and a [`FaultPlan`]
//! decides which operations fail, jitter or get dropped at any given
//! simulated time. The wrapped chip keeps simulating ground truth, which
//! stays available to harnesses via [`FaultyChip::inner`] — that is how
//! a chaos bench can check the *true* package power against the cap
//! while the daemon only sees the corrupted view.
//!
//! As a [`PowerBackend`], sampling keeps a snapshot *per sensor*, each
//! with its own timestamp, so a sensor dark for two intervals derives
//! power over the span it actually missed. A package power above five
//! times TDP (an energy-counter glitch or spurious rollover) or a
//! per-core power above twice TDP is reported missing; the snapshot
//! still advances, so a one-shot glitch costs exactly one interval.
//!
//! Fault semantics worth spelling out:
//!
//! * **Stuck writes** return `Ok(())` but change nothing — the request
//!   register keeps its old value, so only a read-back
//!   ([`FaultyChip::read_requested`]) reveals the write was dropped.
//! * **Thermal emergencies** clamp every core to the minimum P-state.
//!   Software writes during the emergency are latched into the request
//!   register (and read back faithfully — real parts do the same: the
//!   clamp shows up in the *effective* frequency, not in `PERF_CTL`) and
//!   take effect when the emergency lifts.
//! * **Glitches/rollovers** are one-shot offsets applied to the package
//!   energy counter; they fire at the first read at/after their start
//!   time and persist (a counter cannot un-jump).

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::core::CoreCounters;
use pap_simcpu::error::SimError;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::counters::{core_rates, power_from_energy};
use pap_telemetry::health::SensorId;
use pap_telemetry::sampler::{Sample, SampleHealth};
use powerd::daemon::ActionView;
use powerd::hw::PowerBackend;
use powerd::resilience::RetryPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{FaultKind, FaultPlan};

/// Raw energy-counter units per joule (the counter LSB is 2⁻¹⁴ J).
const UNITS_PER_JOULE: f64 = 16384.0;

/// Why a chip operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// An injected read failure (transient or persistent per the plan).
    InjectedRead(&'static str),
    /// An injected write failure.
    InjectedWrite(&'static str),
    /// A real simulator error (bad core index, off-grid frequency) —
    /// these indicate a caller bug, not an injected fault.
    Sim(SimError),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InjectedRead(what) => write!(f, "injected read error: {what}"),
            FaultError::InjectedWrite(what) => write!(f, "injected write error: {what}"),
            FaultError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<SimError> for FaultError {
    fn from(e: SimError) -> FaultError {
        FaultError::Sim(e)
    }
}

/// Counters of what the harness actually injected, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InjectionStats {
    /// Sensor reads that returned an injected error.
    pub failed_reads: u64,
    /// Frequency writes that returned an injected error.
    pub failed_writes: u64,
    /// Frequency writes silently dropped.
    pub stuck_writes: u64,
    /// Reads perturbed by energy-counter noise.
    pub noisy_reads: u64,
    /// One-shot glitches/rollovers fired.
    pub glitches_fired: u32,
    /// Thermal emergencies entered.
    pub thermal_events: u32,
}

/// A previous raw reading and when it was taken.
type Snap<T> = Option<(T, Seconds)>;

/// Replace `snap` with `value` read at `now`, deriving the value over
/// the span since the previous reading (`None` without one).
fn advance<T: Copy, R>(
    snap: &mut Snap<T>,
    value: T,
    now: Seconds,
    derive: impl FnOnce(T, T, Seconds) -> R,
) -> Option<R> {
    let derived = snap.and_then(|(prev, then)| {
        let dt = now - then;
        (dt.value() > 0.0).then(|| derive(prev, value, dt))
    });
    *snap = Some((value, now));
    derived
}

/// A chip backend behind a fault-injection layer. Generic over the
/// [`ChipLike`] seam — the chaos regression in `tests/chaos.rs` proves a
/// fault schedule produces identical verdicts whether the ground truth
/// is the scalar `Chip` or the batch-stepped default [`WideChip`]. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct FaultyChip<C: ChipLike = WideChip> {
    chip: C,
    plan: FaultPlan,
    rng: StdRng,
    /// One-shot bookkeeping, indexed like `plan.faults`.
    fired: Vec<bool>,
    /// Accumulated one-shot offset on the package energy counter.
    glitch_offset: u32,
    /// The frequency-request "registers" as software sees them. Differs
    /// from the inner chip only while a stuck-write or thermal fault is
    /// in effect.
    shadow: Vec<KiloHertz>,
    in_emergency: bool,
    stats: InjectionStats,
    /// Attempts per sensor read when sampling.
    retry: RetryPolicy,
    /// When the last sample was taken.
    last_sample: Seconds,
    pkg: Snap<u32>,
    core_energy: Vec<Snap<u32>>,
    counters: Vec<Snap<CoreCounters>>,
    /// Package readings above this are rejected as implausible.
    pkg_bound: Watts,
    /// Per-core readings above this are rejected as implausible.
    core_bound: Watts,
    /// Cores whose frequency write failed since the last sample.
    write_errors: Vec<usize>,
}

impl<C: ChipLike> FaultyChip<C> {
    /// Wrap `chip` with a fault plan. `seed` drives only the noise
    /// faults; the schedule itself lives in the plan. Sample reads go
    /// through `retry`; their snapshots are primed now, best effort (a
    /// failed prime makes that sensor's first interval unobservable).
    pub fn new(chip: C, plan: FaultPlan, seed: u64, retry: RetryPolicy) -> FaultyChip<C> {
        let n = chip.num_cores();
        let shadow = (0..n).map(|c| chip.requested_freq(c)).collect();
        let fired = vec![false; plan.faults.len()];
        let tdp = chip.spec().tdp;
        let mut fc = FaultyChip {
            last_sample: chip.now(),
            chip,
            plan,
            rng: StdRng::seed_from_u64(seed),
            fired,
            glitch_offset: 0,
            shadow,
            in_emergency: false,
            stats: InjectionStats::default(),
            retry,
            pkg: None,
            core_energy: vec![None; n],
            counters: vec![None; n],
            pkg_bound: Watts(tdp.value() * 5.0),
            core_bound: Watts(tdp.value() * 2.0),
            write_errors: Vec::new(),
        };
        fc.prime();
        fc
    }

    fn prime(&mut self) {
        let (now, retry) = (self.chip.now(), self.retry);
        self.pkg = retry
            .run(|| self.read_package_energy())
            .0
            .ok()
            .map(|v| (v, now));
        for c in 0..self.chip.num_cores() {
            if self.chip.spec().per_core_power {
                self.core_energy[c] = retry
                    .run(|| self.read_core_energy(c))
                    .0
                    .ok()
                    .map(|v| (v, now));
            }
            self.counters[c] = retry.run(|| self.read_counters(c)).0.ok().map(|v| (v, now));
        }
    }

    /// Ground truth: the wrapped chip. Harnesses use this to score runs;
    /// a daemon backend must not.
    pub fn inner(&self) -> &C {
        &self.chip
    }

    /// What the harness injected so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    fn check_core(&self, core: usize) -> Result<(), FaultError> {
        let num_cores = self.chip.num_cores();
        if core < num_cores {
            Ok(())
        } else {
            Err(FaultError::Sim(SimError::NoSuchCore { core, num_cores }))
        }
    }

    fn read_fault<F: Fn(&FaultKind) -> bool>(&self, pred: F) -> bool {
        self.plan.active_at(self.chip.now()).any(|f| pred(&f.kind))
    }

    /// Read the package energy counter. One-shot glitches scheduled at
    /// or before now fire here (they corrupt the counter, so they are
    /// visible — or not — exactly like the real artifact).
    pub fn read_package_energy(&mut self) -> Result<u32, FaultError> {
        let now = self.chip.now();
        for (i, f) in self.plan.faults.iter().enumerate() {
            if self.fired[i] || now < f.start {
                continue;
            }
            let delta = match f.kind {
                FaultKind::EnergyGlitch { delta_units } => delta_units,
                // A spurious half-range jump: the classic mid-interval
                // wraparound artifact.
                FaultKind::EnergyRollover => u32::MAX / 2 + 1,
                _ => continue,
            };
            self.fired[i] = true;
            self.glitch_offset = self.glitch_offset.wrapping_add(delta);
            self.stats.glitches_fired += 1;
        }
        if self.read_fault(|k| matches!(k, FaultKind::PkgEnergyReadError)) {
            self.stats.failed_reads += 1;
            return Err(FaultError::InjectedRead("package energy MSR"));
        }
        let flaky = self.plan.active_at(now).find_map(|f| match f.kind {
            FaultKind::PkgEnergyFlaky { prob } => Some(prob),
            _ => None,
        });
        if let Some(prob) = flaky {
            if self.rng.gen_bool(prob) {
                self.stats.failed_reads += 1;
                return Err(FaultError::InjectedRead("package energy MSR (flaky)"));
            }
        }
        Ok(self
            .chip
            .package_energy_raw()
            .wrapping_add(self.glitch_offset))
    }

    /// Read one core's energy counter (per-core-power platforms only).
    pub fn read_core_energy(&mut self, core: usize) -> Result<u32, FaultError> {
        let raw = self.chip.core_energy_raw(core)?;
        if self
            .read_fault(|k| matches!(k, FaultKind::CoreEnergyReadError { core: c } if *c == core))
        {
            self.stats.failed_reads += 1;
            return Err(FaultError::InjectedRead("core energy MSR"));
        }
        let flaky = self
            .plan
            .active_at(self.chip.now())
            .find_map(|f| match f.kind {
                FaultKind::CoreEnergyFlaky { core: c, prob } if c == core => Some(prob),
                _ => None,
            });
        if let Some(prob) = flaky {
            if self.rng.gen_bool(prob) {
                self.stats.failed_reads += 1;
                return Err(FaultError::InjectedRead("core energy MSR (flaky)"));
            }
        }
        let amp = self
            .plan
            .active_at(self.chip.now())
            .find_map(|f| match f.kind {
                FaultKind::CoreEnergyNoise { core: c, amp_watts } if c == core => Some(amp_watts),
                _ => None,
            });
        if let Some(amp) = amp {
            self.stats.noisy_reads += 1;
            let jitter_units = (self.rng.gen_range(-amp..amp) * UNITS_PER_JOULE) as i64;
            return Ok(raw.wrapping_add(jitter_units as u32));
        }
        Ok(raw)
    }

    /// The fixed-counter read path, which a
    /// [`FaultKind::CounterReadError`] on `core` takes out.
    fn counter_path(&mut self, core: usize, what: &'static str) -> Result<(), FaultError> {
        self.check_core(core)?;
        if self.read_fault(|k| matches!(k, FaultKind::CounterReadError { core: c } if *c == core)) {
            self.stats.failed_reads += 1;
            return Err(FaultError::InjectedRead(what));
        }
        Ok(())
    }

    /// Read one core's fixed counters.
    pub fn read_counters(&mut self, core: usize) -> Result<CoreCounters, FaultError> {
        self.counter_path(core, "fixed counters")?;
        Ok(self.chip.counters(core))
    }

    /// Read back one core's frequency-request register (the stuck-write
    /// detector). Shares the fixed-counter read path.
    pub fn read_requested(&mut self, core: usize) -> Result<KiloHertz, FaultError> {
        self.counter_path(core, "frequency request register")?;
        Ok(self.shadow[core])
    }

    /// Request a frequency for one core. May error (injected), silently
    /// do nothing (stuck), or be latched-but-clamped (thermal).
    pub fn write_requested(&mut self, core: usize, f: KiloHertz) -> Result<(), FaultError> {
        self.check_core(core)?;
        let grid = self.chip.spec().grid;
        if f < grid.min() || f > grid.max() {
            return Err(FaultError::Sim(SimError::FrequencyOutOfRange {
                requested: f,
                min: grid.min(),
                max: grid.max(),
            }));
        }
        let now = self.chip.now();
        if self
            .plan
            .active_at(now)
            .any(|s| matches!(s.kind, FaultKind::FreqWriteError { core: c } if c == core))
        {
            self.stats.failed_writes += 1;
            return Err(FaultError::InjectedWrite("frequency request register"));
        }
        if self
            .plan
            .active_at(now)
            .any(|s| matches!(s.kind, FaultKind::FreqWriteStuck { core: c } if c == core))
        {
            self.stats.stuck_writes += 1;
            return Ok(()); // accepted, dropped: register unchanged
        }
        let snapped = grid.round(f);
        self.shadow[core] = snapped;
        if !self.in_emergency {
            self.chip.set_requested_freq(core, snapped)?;
        }
        Ok(())
    }

    /// The wrapped chip, for workload driving: the workloads are not
    /// part of the hardware interface, so this path is reliable. The
    /// fallible frequency path is [`FaultyChip::write_requested`].
    pub fn chip_mut(&mut self) -> &mut C {
        &mut self.chip
    }

    /// Advance simulated time, handling thermal-emergency entry/exit.
    /// The emergency state is evaluated at the *post-tick* time, so a
    /// window opening mid-tick clamps from the next tick on (firmware
    /// reacts after the fact, exactly like the real PROCHOT path).
    pub fn tick(&mut self, dt: Seconds) {
        self.chip.tick(dt);
        let emergency = self
            .plan
            .active_at(self.chip.now())
            .any(|f| matches!(f.kind, FaultKind::ThermalEmergency));
        if emergency && !self.in_emergency {
            self.in_emergency = true;
            self.stats.thermal_events += 1;
            let min = self.chip.spec().grid.min();
            for c in 0..self.chip.num_cores() {
                self.chip
                    .set_requested_freq(c, min)
                    .expect("grid minimum is always writable");
            }
        } else if !emergency && self.in_emergency {
            self.in_emergency = false;
            for c in 0..self.chip.num_cores() {
                let f = self.shadow[c];
                self.chip
                    .set_requested_freq(c, f)
                    .expect("shadow values were grid-snapped on write");
            }
        }
    }
}

/// Read `sensor` through `retry`, reporting the retries it took.
fn read<T, E>(
    retry: RetryPolicy,
    health: &mut SampleHealth,
    sensor: SensorId,
    op: impl FnMut() -> Result<T, E>,
) -> Option<T> {
    let (res, attempts) = retry.run(op);
    if attempts > 1 {
        health.retries.push((sensor, (attempts - 1) as u64));
    }
    res.ok()
}

/// Store a fresh reading in `slot`, or list `sensor` missing and leave
/// the slot's previous value.
fn fill<T>(slot: &mut T, reading: Option<T>, health: &mut SampleHealth, sensor: SensorId) {
    match reading {
        Some(v) => *slot = v,
        None => health.missing.push(sensor),
    }
}

impl<C: ChipLike> PowerBackend for FaultyChip<C> {
    fn platform(&self) -> &PlatformSpec {
        self.chip.spec()
    }

    /// One interval's telemetry through the fallible read paths. A
    /// reading that fails after retries, is implausible or has no
    /// snapshot to derive from is listed missing and leaves `out`'s
    /// previous value in place; retries that rescued a read are reported
    /// too.
    fn sample_into(&mut self, out: &mut Sample) -> bool {
        let now = self.chip.now();
        if (now - self.last_sample).value() <= 0.0 {
            return false;
        }
        out.interval = now - self.last_sample;
        out.time = now;
        self.last_sample = now;
        out.size_cores(self.chip.num_cores());
        let (retry, base) = (self.retry, self.chip.spec().base_freq);
        let health = &mut out.health;
        health.clear();

        use SensorId::*;
        let pkg = read(retry, health, PackagePower, || self.read_package_energy())
            .and_then(|raw| advance(&mut self.pkg, raw, now, power_from_energy))
            .filter(|p| *p <= self.pkg_bound);
        fill(&mut out.package_power, pkg, health, PackagePower);
        out.cores_power = out.package_power;

        for (c, core) in out.cores.iter_mut().enumerate() {
            if self.chip.spec().per_core_power {
                let power = read(retry, health, CorePower(c), || self.read_core_energy(c))
                    .and_then(|raw| advance(&mut self.core_energy[c], raw, now, power_from_energy))
                    .filter(|p| *p <= self.core_bound);
                fill(&mut core.power, power.map(Some), health, CorePower(c));
            }
            let rates =
                read(retry, health, CoreCounters(c), || self.read_counters(c)).and_then(|ctr| {
                    advance(&mut self.counters[c], ctr, now, |prev, ctr, dt| {
                        core_rates(prev, ctr, dt, base)
                    })
                });
            fill(&mut core.rates, rates, health, CoreCounters(c));
            // Frequency-request read-back (stuck-write detection).
            let requested = read(retry, health, FreqActuator(c), || self.read_requested(c));
            fill(&mut core.requested_freq, requested, health, FreqActuator(c));
        }
        health.write_errors.append(&mut self.write_errors);
        true
    }

    /// Program every core's frequency request and park flag. Injected
    /// write failures are reported with the next sample; simulator
    /// errors are caller bugs and abort.
    fn apply(&mut self, action: ActionView<'_>) -> Result<(), String> {
        for (core, (&f, &parked)) in action.freqs.iter().zip(action.parked).enumerate() {
            match self.write_requested(core, f) {
                Ok(()) => {}
                Err(FaultError::Sim(e)) => return Err(e.to_string()),
                Err(_) => self.write_errors.push(core),
            }
            // The C-state request path is modeled as reliable (it goes
            // through MWAIT, not the MSR the plan breaks).
            self.chip
                .set_forced_idle(core, parked)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn advance(&mut self, dt: Seconds) {
        self.tick(dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos_platform;
    use pap_simcpu::chip::Chip;
    use pap_simcpu::power::LoadDescriptor;
    use pap_simcpu::units::Seconds;

    const MS: Seconds = Seconds(0.001);

    fn harness(plan: FaultPlan) -> FaultyChip<Chip> {
        FaultyChip::new(
            Chip::new(chaos_platform()),
            plan,
            99,
            RetryPolicy::default(),
        )
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let mut fc = harness(FaultPlan::new());
        fc.write_requested(0, KiloHertz::from_mhz(2500)).unwrap();
        fc.tick(MS);
        assert_eq!(fc.read_requested(0).unwrap(), KiloHertz::from_mhz(2500));
        assert!(fc.read_package_energy().is_ok());
        assert!(fc.read_core_energy(0).is_ok());
        assert!(fc.read_counters(0).is_ok());
        assert_eq!(fc.stats(), InjectionStats::default());
    }

    #[test]
    fn read_errors_follow_the_window() {
        let plan = FaultPlan::new().with(
            FaultKind::PkgEnergyReadError,
            Seconds(0.01),
            Some(Seconds(0.02)),
        );
        let mut fc = harness(plan);
        assert!(fc.read_package_energy().is_ok(), "before the window");
        fc.tick(Seconds(0.015));
        assert!(fc.read_package_energy().is_err(), "inside the window");
        fc.tick(Seconds(0.05));
        assert!(fc.read_package_energy().is_ok(), "after the window");
        assert_eq!(fc.stats().failed_reads, 1);
    }

    #[test]
    fn stuck_write_returns_ok_but_readback_disagrees() {
        let plan = FaultPlan::new().with(
            FaultKind::FreqWriteStuck { core: 2 },
            Seconds(0.0),
            Some(Seconds(1.0)),
        );
        let mut fc = harness(plan);
        let before = fc.read_requested(2).unwrap();
        fc.write_requested(2, KiloHertz::from_mhz(3400)).unwrap(); // "succeeds"
        assert_eq!(fc.read_requested(2).unwrap(), before, "write was dropped");
        assert_eq!(fc.stats().stuck_writes, 1);

        // Other cores are unaffected.
        fc.write_requested(0, KiloHertz::from_mhz(3400)).unwrap();
        assert_eq!(fc.read_requested(0).unwrap(), KiloHertz::from_mhz(3400));

        // After the window the write takes.
        fc.tick(Seconds(1.5));
        fc.write_requested(2, KiloHertz::from_mhz(3400)).unwrap();
        assert_eq!(fc.read_requested(2).unwrap(), KiloHertz::from_mhz(3400));
    }

    #[test]
    fn glitch_fires_once_and_persists() {
        let plan = FaultPlan::new().with(
            FaultKind::EnergyGlitch {
                delta_units: 1 << 22,
            },
            Seconds(0.0),
            None,
        );
        let mut fc = harness(plan);
        let base = fc.inner().package_energy_raw();
        let glitched = fc.read_package_energy().unwrap();
        assert_eq!(glitched, base.wrapping_add(1 << 22));
        // Firing again does not double-apply.
        let again = fc.read_package_energy().unwrap();
        assert_eq!(again, glitched);
        assert_eq!(fc.stats().glitches_fired, 1);
    }

    #[test]
    fn thermal_emergency_clamps_then_restores() {
        let plan = FaultPlan::new().with(
            FaultKind::ThermalEmergency,
            Seconds(0.01),
            Some(Seconds(0.05)),
        );
        let mut fc = harness(plan);
        let min = fc.inner().spec().grid.min();
        fc.write_requested(0, KiloHertz::from_mhz(3400)).unwrap();
        fc.tick(Seconds(0.02)); // enters the emergency
        assert!(fc.in_emergency);
        assert_eq!(fc.inner().requested_freq(0), min, "chip clamped");
        assert_eq!(
            fc.read_requested(0).unwrap(),
            KiloHertz::from_mhz(3400),
            "register read-back shows the software request"
        );
        // A write during the emergency is latched, not applied.
        fc.write_requested(0, KiloHertz::from_mhz(2500)).unwrap();
        assert_eq!(fc.inner().requested_freq(0), min);
        fc.tick(Seconds(0.1)); // emergency over
        assert!(!fc.in_emergency);
        assert_eq!(
            fc.inner().requested_freq(0),
            KiloHertz::from_mhz(2500),
            "latched request applies when the clamp lifts"
        );
        assert_eq!(fc.stats().thermal_events, 1);
    }

    #[test]
    fn noise_perturbs_but_errors_do_not_accumulate() {
        let plan = FaultPlan::new().with(
            FaultKind::CoreEnergyNoise {
                core: 0,
                amp_watts: 0.5,
            },
            Seconds(0.0),
            None,
        );
        let mut fc = harness(plan);
        fc.chip_mut()
            .set_load(0, LoadDescriptor::nominal())
            .unwrap();
        for _ in 0..1000 {
            fc.tick(MS);
        }
        let truth = fc.inner().core_energy_raw(0).unwrap();
        let noisy = fc.read_core_energy(0).unwrap();
        let delta = (noisy.wrapping_sub(truth) as i32).unsigned_abs() as f64;
        assert!(
            delta <= 0.5 * UNITS_PER_JOULE + 1.0,
            "jitter bounded by the amplitude, got {delta} units"
        );
        assert!(fc.stats().noisy_reads > 0);
    }

    #[test]
    fn out_of_range_writes_are_caller_bugs_not_faults() {
        let mut fc = harness(FaultPlan::new());
        assert!(matches!(
            fc.write_requested(0, KiloHertz::from_mhz(9000)),
            Err(FaultError::Sim(SimError::FrequencyOutOfRange { .. }))
        ));
        assert!(matches!(
            fc.write_requested(99, KiloHertz::from_mhz(2000)),
            Err(FaultError::Sim(SimError::NoSuchCore { .. }))
        ));
    }

    /// A busy core 0 behind `plan`, sampled through `retry`.
    fn busy_harness(plan: FaultPlan, retry: RetryPolicy) -> FaultyChip<Chip> {
        let mut fc = FaultyChip::new(Chip::new(chaos_platform()), plan, 5, retry);
        fc.chip_mut()
            .set_load(0, LoadDescriptor::nominal())
            .unwrap();
        fc
    }

    /// Sample into `out` after `secs` of 1 ms ticks.
    fn sample_after(fc: &mut FaultyChip<Chip>, secs: f64, out: &mut Sample) {
        for _ in 0..(secs / MS.value()).round() as usize {
            fc.tick(MS);
        }
        assert!(fc.sample_into(out), "time passed");
    }

    /// Core 0's energy counter fails from 0.5 s to 1.5 s.
    fn core0_dark() -> FaultPlan {
        FaultPlan::new().with(
            FaultKind::CoreEnergyReadError { core: 0 },
            Seconds(0.5),
            Some(Seconds(1.0)),
        )
    }

    #[test]
    fn healthy_chip_full_sample() {
        let mut fc = busy_harness(FaultPlan::new(), RetryPolicy::default());
        let mut s = Sample::empty();
        sample_after(&mut fc, 1.0, &mut s);
        assert!((s.interval.value() - 1.0).abs() < 1e-9);
        assert!(s.health.is_empty(), "{:?}", s.health);
        let p = s.package_power;
        assert!(p.value() > 1.0, "busy chip draws real power, got {p}");
        assert!(
            s.cores[0].power.is_some(),
            "per-core power on this platform"
        );
        assert!(s.cores[0].rates.active_freq > KiloHertz::ZERO);
        assert_eq!(s.cores[0].requested_freq, fc.read_requested(0).unwrap());
    }

    #[test]
    fn read_failure_blanks_only_the_failed_sensor() {
        let mut fc = busy_harness(core0_dark(), RetryPolicy::default());
        let mut s = Sample::empty();
        sample_after(&mut fc, 1.0, &mut s);
        // Package power and the other cores are unaffected.
        assert_eq!(s.health.missing, vec![SensorId::CorePower(0)]);
        assert!(s.cores[1].power.is_some());
    }

    #[test]
    fn snapshot_spans_the_dark_period() {
        // Core 0 energy is dark for the interval ending at 1 s; the next
        // reading must derive power over the 2 s the snapshot actually
        // covers, not 1 s (which would double the value).
        let mut fc = busy_harness(core0_dark(), RetryPolicy::default());
        let mut s = Sample::empty();
        sample_after(&mut fc, 0.4, &mut s);
        let p1 = s.cores[0].power.unwrap();
        sample_after(&mut fc, 1.0, &mut s);
        assert!(s.is_missing(SensorId::CorePower(0)), "dark interval");
        assert_eq!(
            s.cores[0].power,
            Some(p1),
            "the buffer keeps the last value"
        );
        sample_after(&mut fc, 1.0, &mut s);
        assert!(!s.is_missing(SensorId::CorePower(0)));
        let p3 = s.cores[0].power.unwrap();
        assert!(
            (p3.value() - p1.value()).abs() < p1.value() * 0.3,
            "power derived over the true 2 s span: {p1} vs {p3}"
        );
    }

    #[test]
    fn glitch_rejected_as_implausible_then_recovers() {
        let plan = FaultPlan::new().with(
            FaultKind::EnergyGlitch {
                delta_units: 1 << 25, // 2048 J mid-interval: absurd power
            },
            Seconds(0.5),
            None,
        );
        let mut fc = busy_harness(plan, RetryPolicy::default());
        let mut s = Sample::empty();
        sample_after(&mut fc, 1.0, &mut s);
        assert!(
            s.is_missing(SensorId::PackagePower),
            "glitched interval rejected"
        );
        sample_after(&mut fc, 1.0, &mut s);
        assert!(
            !s.is_missing(SensorId::PackagePower),
            "one interval of cost"
        );
        let p = s.package_power;
        assert!(p <= Watts(fc.inner().spec().tdp.value()), "sane again: {p}");
    }

    #[test]
    fn retries_rescue_flaky_reads() {
        let plan =
            FaultPlan::new().with(FaultKind::PkgEnergyFlaky { prob: 0.5 }, Seconds(0.0), None);
        let mut fc = busy_harness(plan, RetryPolicy { max_attempts: 8 });
        let mut s = Sample::empty();
        let (mut ok, mut retried) = (0, 0);
        for _ in 0..20 {
            sample_after(&mut fc, 1.0, &mut s);
            ok += usize::from(!s.is_missing(SensorId::PackagePower));
            retried += s
                .health
                .retries
                .iter()
                .filter(|(id, _)| *id == SensorId::PackagePower)
                .map(|&(_, n)| n)
                .sum::<u64>();
        }
        assert!(ok >= 18, "8 attempts beat a 50% flake: {ok}/20 rescued");
        assert!(retried > 0, "the rescues cost retries, which are reported");
    }

    #[test]
    fn no_retry_budget_reports_no_retries() {
        let mut fc = busy_harness(FaultPlan::new(), RetryPolicy::none());
        let mut s = Sample::empty();
        sample_after(&mut fc, 1.0, &mut s);
        assert!(s.health.retries.is_empty());
        assert!(!s.is_missing(SensorId::PackagePower));
    }

    #[test]
    fn write_errors_arrive_with_the_next_sample() {
        let plan = FaultPlan::new().with(
            FaultKind::FreqWriteError { core: 1 },
            Seconds(0.0),
            Some(Seconds(1.5)),
        );
        let mut fc = busy_harness(plan, RetryPolicy::default());
        let action = ActionView {
            freqs: &[KiloHertz::from_mhz(2000); 8],
            parked: &[false; 8],
        };
        let mut s = Sample::empty();
        for expected in [vec![1], vec![]] {
            fc.apply(action).unwrap();
            sample_after(&mut fc, 1.0, &mut s);
            assert_eq!(s.health.write_errors, expected);
            sample_after(&mut fc, 1.0, &mut s);
        }
    }
}
