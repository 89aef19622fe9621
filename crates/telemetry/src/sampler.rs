//! A turbostat-like sampler.
//!
//! The paper records package power, per-core power (Ryzen), retired
//! instructions and active frequency once per second with a modified
//! `turbostat` (§3.1). [`Sampler`] does the same against a simulated chip:
//! it remembers the previous counter snapshot and, on each call, emits a
//! [`Sample`] of derived rates.

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::core::CoreCounters;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::units::{Seconds, Watts};

use crate::counters::{core_rates, power_from_energy, CoreRates};

/// Per-core slice of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSample {
    /// Derived counter rates.
    pub rates: CoreRates,
    /// Average core power over the interval, if the platform exposes
    /// per-core energy (Ryzen); `None` on Skylake.
    pub power: Option<Watts>,
    /// The frequency software had requested at sample time.
    pub requested_freq: KiloHertz,
}

/// One telemetry sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Simulated time at the sample.
    pub time: Seconds,
    /// Interval covered by the sample.
    pub interval: Seconds,
    /// Average package power over the interval.
    pub package_power: Watts,
    /// Average core-domain power over the interval.
    pub cores_power: Watts,
    /// Per-core slices.
    pub cores: Vec<CoreSample>,
}

impl Sample {
    /// An empty sample, suitable as the reusable target of
    /// [`Sampler::sample_into`].
    pub fn empty() -> Sample {
        Sample {
            time: Seconds(0.0),
            interval: Seconds(0.0),
            package_power: Watts(0.0),
            cores_power: Watts(0.0),
            cores: Vec::new(),
        }
    }
}

impl Default for Sample {
    fn default() -> Sample {
        Sample::empty()
    }
}

/// Stateful sampler over a chip (any [`ChipLike`] backend; the sampler
/// stores only counter snapshots, so one type serves both simulators).
#[derive(Debug, Clone)]
pub struct Sampler {
    prev_time: Seconds,
    prev_counters: Vec<CoreCounters>,
    prev_core_energy: Vec<u32>,
    prev_pkg_energy: u32,
    prev_cores_energy: u32,
}

impl Sampler {
    /// Initialize against the chip's current counters; the first
    /// [`Sampler::sample_into`] call covers the interval from here.
    pub fn new<C: ChipLike>(chip: &C) -> Sampler {
        Sampler {
            prev_time: chip.now(),
            prev_counters: (0..chip.num_cores()).map(|c| chip.counters(c)).collect(),
            prev_core_energy: (0..chip.num_cores())
                .map(|c| chip.core_energy_raw(c).unwrap_or(0))
                .collect(),
            prev_pkg_energy: chip.package_energy_raw(),
            prev_cores_energy: chip.cores_energy_raw(),
        }
    }

    /// Take a sample covering the interval since the previous call (or
    /// construction), written into `out` and reusing its `cores`
    /// allocation. Returns `false` (and leaves `out` untouched) if no
    /// simulated time has passed. Once `out.cores` has reached the chip's
    /// core count this performs no heap allocation.
    pub fn sample_into<C: ChipLike>(&mut self, chip: &C, out: &mut Sample) -> bool {
        let now = chip.now();
        let dt = now - self.prev_time;
        if dt.value() <= 0.0 {
            return false;
        }
        let base = chip.spec().base_freq;
        let per_core_power = chip.spec().per_core_power;

        out.cores.clear();
        for c in 0..chip.num_cores() {
            let counters = chip.counters(c);
            let rates = core_rates(self.prev_counters[c], counters, dt, base);
            let power = if per_core_power {
                let raw = chip.core_energy_raw(c).expect("per-core energy");
                let p = power_from_energy(self.prev_core_energy[c], raw, dt);
                self.prev_core_energy[c] = raw;
                Some(p)
            } else {
                None
            };
            self.prev_counters[c] = counters;
            out.cores.push(CoreSample {
                rates,
                power,
                requested_freq: chip.requested_freq(c),
            });
        }

        let pkg_raw = chip.package_energy_raw();
        let cores_raw = chip.cores_energy_raw();
        out.time = now;
        out.interval = dt;
        out.package_power = power_from_energy(self.prev_pkg_energy, pkg_raw, dt);
        out.cores_power = power_from_energy(self.prev_cores_energy, cores_raw, dt);
        self.prev_pkg_energy = pkg_raw;
        self.prev_cores_energy = cores_raw;
        self.prev_time = now;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_simcpu::chip::Chip;
    use pap_simcpu::platform::PlatformSpec;
    use pap_simcpu::power::LoadDescriptor;

    /// One sample into a fresh buffer.
    fn take(sampler: &mut Sampler, chip: &Chip) -> Option<Sample> {
        let mut out = Sample::empty();
        sampler.sample_into(chip, &mut out).then_some(out)
    }

    fn run_chip(spec: PlatformSpec) -> (Chip, Sampler) {
        let mut chip = Chip::new(spec);
        chip.set_load(0, LoadDescriptor::nominal()).unwrap();
        let sampler = Sampler::new(&chip);
        (chip, sampler)
    }

    #[test]
    fn sample_covers_elapsed_interval() {
        let (mut chip, mut sampler) = run_chip(PlatformSpec::skylake());
        chip.run_ticks(1000, Seconds(0.001));
        let s = take(&mut sampler, &chip).expect("time passed");
        assert!((s.interval.value() - 1.0).abs() < 1e-9);
        assert!(s.package_power.value() > 10.0);
        assert_eq!(s.cores.len(), 10);
    }

    #[test]
    fn no_time_no_sample() {
        let (chip, mut sampler) = run_chip(PlatformSpec::skylake());
        assert!(take(&mut sampler, &chip).is_none());
    }

    #[test]
    fn active_core_reports_its_frequency() {
        let (mut chip, mut sampler) = run_chip(PlatformSpec::skylake());
        chip.set_requested_freq(0, KiloHertz::from_mhz(1500))
            .unwrap();
        chip.run_ticks(1000, Seconds(0.001));
        let s = take(&mut sampler, &chip).unwrap();
        assert_eq!(s.cores[0].rates.active_freq, KiloHertz::from_mhz(1500));
        assert_eq!(s.cores[0].requested_freq, KiloHertz::from_mhz(1500));
        // idle cores report zero active frequency
        assert_eq!(s.cores[5].rates.active_freq, KiloHertz::ZERO);
    }

    #[test]
    fn per_core_power_only_on_ryzen() {
        let (mut chip, mut sampler) = run_chip(PlatformSpec::skylake());
        chip.run_ticks(100, Seconds(0.001));
        let s = take(&mut sampler, &chip).unwrap();
        assert!(s.cores[0].power.is_none());

        let (mut chip, mut sampler) = run_chip(PlatformSpec::ryzen());
        chip.run_ticks(100, Seconds(0.001));
        let s = take(&mut sampler, &chip).unwrap();
        let p = s.cores[0].power.expect("Ryzen exposes per-core power");
        assert!(p.value() > 0.5, "busy core power {p}");
        assert!(s.cores[7].power.unwrap().value() < 0.2, "idle core power");
    }

    #[test]
    fn consecutive_samples_independent() {
        let (mut chip, mut sampler) = run_chip(PlatformSpec::skylake());
        chip.run_ticks(500, Seconds(0.001));
        let s1 = take(&mut sampler, &chip).unwrap();
        // stop the workload; second interval should show near-idle power
        chip.set_load(0, LoadDescriptor::IDLE).unwrap();
        chip.run_ticks(500, Seconds(0.001));
        let s2 = take(&mut sampler, &chip).unwrap();
        assert!(s2.package_power < s1.package_power);
        assert_eq!(s2.cores[0].rates.ips, 0.0);
    }

    #[test]
    fn sample_into_reuses_buffer_and_matches_a_fresh_one() {
        let (mut chip, sampler) = run_chip(PlatformSpec::skylake());
        let mut a = sampler.clone();
        let mut b = sampler;
        let mut out = Sample::empty();
        assert!(!b.sample_into(&chip, &mut out), "no time passed");
        assert_eq!(out, Sample::empty(), "untouched without time");

        chip.run_ticks(500, Seconds(0.001));
        let fresh = take(&mut a, &chip).unwrap();
        assert!(b.sample_into(&chip, &mut out));
        assert_eq!(out, fresh);

        // A second interval must overwrite, not append, the cores buffer.
        let cap = out.cores.capacity();
        chip.run_ticks(500, Seconds(0.001));
        let fresh2 = take(&mut a, &chip).unwrap();
        assert!(b.sample_into(&chip, &mut out));
        assert_eq!(out, fresh2);
        assert_eq!(out.cores.capacity(), cap, "steady state must not realloc");
    }

    #[test]
    fn instructions_rate() {
        let (mut chip, mut sampler) = run_chip(PlatformSpec::skylake());
        for _ in 0..1000 {
            chip.add_instructions(0, 2_000_000).unwrap();
            chip.tick(Seconds(0.001));
        }
        let s = take(&mut sampler, &chip).unwrap();
        assert!((s.cores[0].rates.ips - 2.0e9).abs() / 2.0e9 < 0.01);
    }
}
