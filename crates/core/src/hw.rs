//! Hardware backend abstraction.
//!
//! The daemon itself is a pure controller (telemetry in, frequency
//! targets out); a [`PowerBackend`] is the thing that actually touches
//! hardware. Two implementations ship:
//!
//! * [`SimBackend`] — direct access to the simulated chip (what the
//!   experiment runners use);
//! * [`MsrSysfsBackend`] — drives the *same* chip exclusively through
//!   the emulated MSR bus and cpufreq sysfs tree, i.e. through the exact
//!   interfaces a real Linux host exposes (`/dev/cpu/*/msr`,
//!   `/sys/devices/system/cpu/*/cpufreq/...`). Control software that
//!   works against this backend ports to real hardware by swapping the
//!   file I/O in.
//!
//! [`ControlLoop`] is the §5 monitoring loop over any backend.

use pap_simcpu::chip::Chip;
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::msr::{addr, MsrBus};
use pap_simcpu::platform::{PlatformSpec, Vendor};
use pap_simcpu::sysfs::SysfsTree;
use pap_simcpu::units::Seconds;
use pap_telemetry::counters::{core_rates, power_from_energy};
use pap_telemetry::sampler::{CoreSample, Sample, Sampler};

use crate::daemon::{ActionView, Daemon};

/// The hardware access surface the daemon's host loop needs.
pub trait PowerBackend {
    /// The platform being controlled.
    fn platform(&self) -> &PlatformSpec;

    /// Collect one telemetry sample covering the interval since the last
    /// call.
    fn sample(&mut self) -> Option<Sample>;

    /// Program a control action (frequencies + parking).
    fn apply(&mut self, action: ActionView<'_>) -> Result<(), String>;

    /// Advance simulated time (no-op on real hardware, where wall time
    /// passes by itself).
    fn advance(&mut self, dt: Seconds);
}

/// Direct-chip backend, over either simulator (the scalar [`Chip`] by
/// default, or the SoA `WideChip`).
pub struct SimBackend<C: ChipLike = Chip> {
    chip: C,
    sampler: Sampler,
}

impl<C: ChipLike> SimBackend<C> {
    /// Wrap a chip.
    pub fn new(chip: C) -> SimBackend<C> {
        let sampler = Sampler::new(&chip);
        SimBackend { chip, sampler }
    }

    /// Access the chip (e.g. for workload driving).
    pub fn chip_mut(&mut self) -> &mut C {
        &mut self.chip
    }

    /// Read-only chip access.
    pub fn chip(&self) -> &C {
        &self.chip
    }
}

impl<C: ChipLike> PowerBackend for SimBackend<C> {
    fn platform(&self) -> &PlatformSpec {
        self.chip.spec()
    }

    fn sample(&mut self) -> Option<Sample> {
        let mut out = Sample::empty();
        self.sampler
            .sample_into(&self.chip, &mut out)
            .then_some(out)
    }

    fn apply(&mut self, action: ActionView<'_>) -> Result<(), String> {
        action.apply(&mut self.chip).map_err(|e| e.to_string())
    }

    fn advance(&mut self, dt: Seconds) {
        self.chip.tick(dt);
    }
}

/// Backend that reaches the chip only through the emulated MSR and sysfs
/// interfaces — the portability proof.
pub struct MsrSysfsBackend {
    chip: Chip,
    prev_time: Seconds,
    prev: Vec<PrevCounters>,
    prev_pkg_energy: u32,
}

#[derive(Clone, Copy, Default)]
struct PrevCounters {
    aperf: u64,
    mperf: u64,
    tsc: u64,
    instructions: u64,
    core_energy: u32,
}

impl MsrSysfsBackend {
    /// Wrap a chip; all subsequent access goes through MSRs/sysfs.
    pub fn new(chip: Chip) -> MsrSysfsBackend {
        let n = chip.num_cores();
        let mut b = MsrSysfsBackend {
            chip,
            prev_time: Seconds(0.0),
            prev: vec![PrevCounters::default(); n],
            prev_pkg_energy: 0,
        };
        b.snapshot();
        b
    }

    /// Access the chip for workload driving (the workloads are not part
    /// of the hardware interface).
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    fn pkg_energy_msr(&self) -> u32 {
        match self.chip.spec().vendor {
            Vendor::Intel => addr::PKG_ENERGY_STATUS,
            Vendor::Amd => addr::AMD_PKG_ENERGY,
        }
    }

    fn snapshot(&mut self) {
        self.prev_time = self.chip.now();
        let per_core_power = self.chip.spec().per_core_power;
        let pkg_msr = self.pkg_energy_msr();
        let bus = MsrBus::new(&mut self.chip);
        let n = self.prev.len();
        for c in 0..n {
            self.prev[c] = PrevCounters {
                aperf: bus.read(c, addr::APERF).expect("aperf"),
                mperf: bus.read(c, addr::MPERF).expect("mperf"),
                tsc: bus.read(c, addr::TSC).expect("tsc"),
                instructions: bus.read(c, addr::FIXED_CTR0).expect("instr"),
                core_energy: if per_core_power {
                    bus.read(c, addr::AMD_CORE_ENERGY).expect("core energy") as u32
                } else {
                    0
                },
            };
        }
        self.prev_pkg_energy = bus.read(0, pkg_msr).expect("pkg energy") as u32;
    }
}

impl PowerBackend for MsrSysfsBackend {
    fn platform(&self) -> &PlatformSpec {
        self.chip.spec()
    }

    fn sample(&mut self) -> Option<Sample> {
        let now = self.chip.now();
        let dt = now - self.prev_time;
        if dt.value() <= 0.0 {
            return None;
        }
        let base = self.chip.spec().base_freq;
        let per_core_power = self.chip.spec().per_core_power;
        let pkg_msr = self.pkg_energy_msr();
        let n = self.prev.len();

        let mut cores = Vec::with_capacity(n);
        let mut requested = Vec::with_capacity(n);
        {
            let fs = SysfsTree::new(&mut self.chip);
            for c in 0..n {
                let khz: u64 = fs
                    .read(&format!(
                        "/sys/devices/system/cpu/cpu{c}/cpufreq/scaling_setspeed"
                    ))
                    .expect("setspeed readable")
                    .parse()
                    .expect("kHz");
                requested.push(KiloHertz(khz));
            }
        }
        let bus = MsrBus::new(&mut self.chip);
        let mut pkg_raw = 0u32;
        #[allow(clippy::needless_range_loop)] // `c` is the MSR core index
        for c in 0..n {
            let now_c = pap_simcpu::core::CoreCounters {
                aperf: bus.read(c, addr::APERF).expect("aperf"),
                mperf: bus.read(c, addr::MPERF).expect("mperf"),
                tsc: bus.read(c, addr::TSC).expect("tsc"),
                instructions: bus.read(c, addr::FIXED_CTR0).expect("instr"),
            };
            let prev_c = pap_simcpu::core::CoreCounters {
                aperf: self.prev[c].aperf,
                mperf: self.prev[c].mperf,
                tsc: self.prev[c].tsc,
                instructions: self.prev[c].instructions,
            };
            let rates = core_rates(prev_c, now_c, dt, base);
            let power = if per_core_power {
                let raw = bus.read(c, addr::AMD_CORE_ENERGY).expect("core energy") as u32;
                Some(power_from_energy(self.prev[c].core_energy, raw, dt))
            } else {
                None
            };
            cores.push(CoreSample {
                rates,
                power,
                requested_freq: requested[c],
            });
            if c == 0 {
                pkg_raw = bus.read(0, pkg_msr).expect("pkg energy") as u32;
            }
        }
        let package_power = power_from_energy(self.prev_pkg_energy, pkg_raw, dt);
        #[allow(clippy::drop_non_drop)] // ends the &mut Chip borrow
        drop(bus);
        self.snapshot();

        Some(Sample {
            time: now,
            interval: dt,
            package_power,
            // the PP0 counter is Intel-only; approximate with package for
            // the backend's purposes (no policy consumes cores_power)
            cores_power: package_power,
            cores,
        })
    }

    fn apply(&mut self, action: ActionView<'_>) -> Result<(), String> {
        {
            let mut fs = SysfsTree::new(&mut self.chip);
            for (c, f) in action.freqs.iter().enumerate() {
                fs.write(
                    &format!("/sys/devices/system/cpu/cpu{c}/cpufreq/scaling_setspeed"),
                    &f.khz().to_string(),
                )
                .map_err(|e| e.to_string())?;
            }
        }
        // Core parking has no sysfs file in our emulation; it maps to the
        // cpu online/offline interface on real hardware. Apply directly.
        for (core, &p) in action.parked.iter().enumerate() {
            self.chip
                .set_forced_idle(core, p)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn advance(&mut self, dt: Seconds) {
        self.chip.tick(dt);
    }
}

/// The §5 monitoring loop over any backend: once per control interval
/// it samples, steps the daemon and programs the action in force.
///
/// The caller owns the [`Daemon`] (so it can admit apps, retarget
/// shares or read the model between steps) and drives its workloads
/// each tick:
///
/// ```text
/// while lp.elapsed() < duration {
///     let (backend, parked) = lp.split_mut();   // run unparked apps
///     if lp.advance(tick) {
///         lp.control(&mut daemon)?;
///     }
/// }
/// ```
pub struct ControlLoop<B: PowerBackend> {
    backend: B,
    /// Park flags of the action last programmed into the backend.
    parked: Vec<bool>,
    interval: f64,
    t: f64,
    next: f64,
}

impl<B: PowerBackend> ControlLoop<B> {
    /// Program the daemon's initial distribution and start the clock at 0.
    pub fn new(mut backend: B, daemon: &mut Daemon) -> Result<Self, String> {
        let initial = daemon.initial();
        backend.apply(initial.view())?;
        let interval = daemon.config().control_interval.value();
        Ok(ControlLoop {
            backend,
            parked: initial.parked,
            interval,
            t: 0.0,
            next: interval,
        })
    }

    /// Advance the backend by `dt`; true when a control-interval boundary
    /// was crossed (the caller then calls [`ControlLoop::control`]).
    pub fn advance(&mut self, dt: Seconds) -> bool {
        self.backend.advance(dt);
        self.t += dt.value();
        if self.t + 1e-9 >= self.next {
            self.next += self.interval;
            true
        } else {
            false
        }
    }

    /// One control interval: sample, step the daemon and program the
    /// action in force — the new decision, or the held one when the
    /// sample is malformed. Returns the sample, or `None` (nothing
    /// programmed) if no time passed since the previous sample.
    pub fn control(&mut self, daemon: &mut Daemon) -> Result<Option<Sample>, String> {
        let Some(sample) = self.backend.sample() else {
            return Ok(None);
        };
        let _ = daemon.try_step_view(&sample);
        let action = daemon.action();
        self.backend.apply(action)?;
        self.parked.copy_from_slice(action.parked);
        Ok(Some(sample))
    }

    /// The backend (for workload driving) and the park flags last
    /// programmed into it: parked cores run no workload.
    pub fn split_mut(&mut self) -> (&mut B, &[bool]) {
        (&mut self.backend, &self.parked)
    }

    /// Time advanced since [`ControlLoop::new`].
    pub fn elapsed(&self) -> Seconds {
        Seconds(self.t)
    }

    /// Give the backend back.
    pub fn into_backend(self) -> B {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSpec, DaemonConfig, PolicyKind};
    use crate::daemon::ControlAction;
    use pap_simcpu::units::Watts;
    use pap_workloads::engine::RunningApp;
    use pap_workloads::spec;

    fn daemon(platform: &PlatformSpec, limit: f64) -> Daemon {
        let apps = vec![
            AppSpec::new("cactusBSSN", 0)
                .with_shares(70)
                .with_baseline_ips(3e9),
            AppSpec::new("leela", 1)
                .with_shares(30)
                .with_baseline_ips(3e9),
        ];
        Daemon::new(
            DaemonConfig::new(PolicyKind::FrequencyShares, Watts(limit), apps),
            platform,
        )
        .expect("valid daemon")
    }

    fn drive_two_apps(apps: &mut [RunningApp; 2], chip: &mut Chip, parked: &[bool], tick: Seconds) {
        for (c, app) in apps.iter_mut().enumerate() {
            if !parked[c] {
                app.run_on(chip, c, tick).unwrap();
            }
        }
    }

    /// Run the two-app daemon for 20 s over `backend`, reaching the chip
    /// through `chip_mut` to drive the workloads.
    fn run_two_apps<B: PowerBackend>(
        backend: B,
        d: &mut Daemon,
        chip_mut: fn(&mut B) -> &mut Chip,
    ) -> B {
        let mut apps = [
            RunningApp::looping(spec::CACTUS_BSSN),
            RunningApp::looping(spec::LEELA),
        ];
        let tick = Seconds(0.002);
        let mut lp = ControlLoop::new(backend, d).unwrap();
        while lp.elapsed() < Seconds(20.0) {
            let (b, parked) = lp.split_mut();
            drive_two_apps(&mut apps, chip_mut(b), parked, tick);
            if lp.advance(tick) {
                lp.control(d).unwrap();
            }
        }
        lp.into_backend()
    }

    #[test]
    fn sim_backend_converges() {
        let platform = PlatformSpec::skylake();
        let mut d = daemon(&platform, 26.0);
        let backend = run_two_apps(
            SimBackend::new(Chip::new(platform.clone())),
            &mut d,
            SimBackend::chip_mut,
        );
        let p = backend.chip().package_power().value();
        assert!((p - 26.0).abs() < 3.0, "package {p:.1} vs 26 W");
    }

    #[test]
    fn msr_sysfs_backend_matches_direct_backend() {
        // The same daemon run through the file/MSR surface must land at
        // the same operating point as direct chip access.
        let platform = PlatformSpec::skylake();
        let observe = |chip: &Chip| {
            (
                chip.package_power().value(),
                chip.effective_freq(0).khz(),
                chip.effective_freq(1).khz(),
            )
        };
        let mut b = run_two_apps(
            SimBackend::new(Chip::new(platform.clone())),
            &mut daemon(&platform, 26.0),
            SimBackend::chip_mut,
        );
        let (p_direct, f0_direct, f1_direct) = observe(b.chip_mut());
        let mut b = run_two_apps(
            MsrSysfsBackend::new(Chip::new(platform.clone())),
            &mut daemon(&platform, 26.0),
            MsrSysfsBackend::chip_mut,
        );
        let (p_msr, f0_msr, f1_msr) = observe(b.chip_mut());
        assert!(
            (p_direct - p_msr).abs() < 1.0,
            "package power {p_direct:.1} vs {p_msr:.1}"
        );
        assert_eq!(f0_direct, f0_msr, "core 0 frequency must match exactly");
        assert_eq!(f1_direct, f1_msr, "core 1 frequency must match exactly");
    }

    #[test]
    fn control_boundaries_match_the_inline_cadence() {
        // 1 s interval over 60 s: 60 boundaries at every tick size, each
        // on the tick the inline `t + 1e-9 >= next` arithmetic picks.
        let platform = PlatformSpec::skylake();
        for dt in [0.001, 0.002, 0.1, 1.0] {
            let mut d = daemon(&platform, 26.0);
            assert_eq!(d.config().control_interval, Seconds(1.0));
            let chip = Chip::new(platform.clone());
            let mut lp = ControlLoop::new(SimBackend::new(chip), &mut d).unwrap();
            let (mut t, mut next, mut crossings) = (0.0, 1.0, 0);
            while lp.elapsed() < Seconds(60.0) {
                t += dt;
                let inline = t + 1e-9 >= next;
                if inline {
                    next += 1.0;
                    crossings += 1;
                }
                assert_eq!(lp.advance(Seconds(dt)), inline, "dt {dt} at {t} s");
            }
            assert_eq!(crossings, 60, "dt {dt}");
        }
    }

    /// A [`SimBackend`] whose every third sample is truncated to core 0
    /// (below app core 1), recording every action programmed into it.
    struct TruncatingBackend {
        inner: SimBackend,
        samples: usize,
        applied: Vec<ControlAction>,
    }

    impl PowerBackend for TruncatingBackend {
        fn platform(&self) -> &PlatformSpec {
            self.inner.platform()
        }

        fn sample(&mut self) -> Option<Sample> {
            let mut s = self.inner.sample()?;
            self.samples += 1;
            if self.samples.is_multiple_of(3) {
                s.cores.truncate(1);
            }
            Some(s)
        }

        fn apply(&mut self, action: ActionView<'_>) -> Result<(), String> {
            self.applied.push(action.to_owned());
            self.inner.apply(action)
        }

        fn advance(&mut self, dt: Seconds) {
            self.inner.advance(dt);
        }
    }

    #[test]
    fn malformed_sample_reprograms_the_held_action() {
        let platform = PlatformSpec::skylake();
        let mut d = daemon(&platform, 26.0);
        let backend = TruncatingBackend {
            inner: SimBackend::new(Chip::new(platform.clone())),
            samples: 0,
            applied: Vec::new(),
        };
        let mut apps = [
            RunningApp::looping(spec::CACTUS_BSSN),
            RunningApp::looping(spec::LEELA),
        ];
        let tick = Seconds(0.002);
        let mut lp = ControlLoop::new(backend, &mut d).unwrap();
        let (mut held, mut changed) = (0, 0);
        while lp.elapsed() < Seconds(20.0) {
            let (b, parked) = lp.split_mut();
            drive_two_apps(&mut apps, b.inner.chip_mut(), parked, tick);
            if !lp.advance(tick) {
                continue;
            }
            let sample = lp.control(&mut d).unwrap().expect("an interval elapsed");
            let (b, parked) = lp.split_mut();
            let [.., prev, last] = &b.applied[..] else {
                panic!("every sample programs an action");
            };
            assert_eq!(b.applied.len(), b.samples + 1, "initial + one per sample");
            assert_eq!(parked, &last.parked[..]);
            if sample.cores.len() == 1 {
                held += 1;
                assert_eq!(last, prev, "a malformed sample reprograms the held action");
                assert_eq!(parked, &prev.parked[..], "holding keeps the park flags");
            } else if last != prev {
                changed += 1;
            }
        }
        assert_eq!(held, 6, "samples 3, 6, ..., 18 are truncated");
        assert!(changed > 0, "the daemon moved between holds");
    }

    #[test]
    fn msr_sysfs_backend_on_ryzen_reads_core_power() {
        let platform = PlatformSpec::ryzen();
        let mut b = MsrSysfsBackend::new(Chip::new(platform.clone()));
        b.chip_mut()
            .set_load(0, pap_simcpu::power::LoadDescriptor::nominal())
            .unwrap();
        for _ in 0..1000 {
            b.advance(Seconds(0.001));
        }
        let s = b.sample().expect("time passed");
        let p = s.cores[0].power.expect("per-core power over MSR");
        assert!(p.value() > 1.0, "busy Ryzen core power {p}");
        assert!(s.cores[7].power.unwrap().value() < 0.2);
    }
}
