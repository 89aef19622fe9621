//! [`LinuxBackend`]: the real-hardware implementation of
//! [`powerd::hw::PowerBackend`].
//!
//! Telemetry comes from whichever energy source the host offers — Intel
//! RAPL powercap zones first, then AMD hwmon energy/power channels —
//! and frequency control goes through cpufreq (`scaling_setspeed` under
//! the `userspace` governor, `scaling_max_freq` clamping otherwise).
//! Every sysfs touch goes through the injected [`SysfsRoot`], so the
//! whole backend runs against [`crate::mock::MockSysfs`] fixtures in
//! offline CI, and a [`BackendClock::Manual`] clock makes sample
//! intervals deterministic in tests.
//!
//! Failure handling follows the daemon's degraded-mode philosophy: a
//! sensor read or actuator write that fails is recorded in a
//! [`HealthTracker`] (hysteresis, no flapping) and the loop carries on —
//! the package meter holds its snapshot so the next successful read
//! still integrates the missed energy, and per-core frequency reads fall
//! back to the last programmed target.
//!
//! Per-core C0 residency comes from `/proc/stat` jiffy deltas
//! ([`crate::procstat`]), and `ips` is estimated as
//! `residency × frequency × nominal IPC` — a progress *proxy*, not a
//! retired-instruction count (no perf-events bridge), but one that is
//! monotone in both utilization and frequency, which is what the
//! IPS-consuming policies (performance shares, FastCap) need from it.
//! When the stat source is absent the backend reports the conservative
//! defaults (residency 1.0, ips 0) **and** flags
//! [`SensorId::Utilization`] unhealthy rather than passing assumed
//! values off as measurements. Core parking maps to the CPU
//! online/offline interface (`cpu*/online`) when the host exposes it;
//! [`BackendOptions::no_offline`] and hosts without the file (always
//! CPU 0) fall back to pinning parked cores at the grid floor.

use std::time::Instant;

use pap_simcpu::freq::{FreqGrid, KiloHertz};
use pap_simcpu::platform::{PlatformSpec, Vendor};
use pap_simcpu::turbo::TurboTable;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::CoreRates;
use pap_telemetry::health::{HealthTracker, SensorId};
use pap_telemetry::sampler::{CoreSample, Sample};
use powerd::daemon::ActionView;
use powerd::hw::PowerBackend;

use crate::cpufreq::{self, WriteMode};
use crate::hwmon::HwmonMeter;
use crate::procstat::{self, CpuTicks};
use crate::rapl::RaplMeter;
use crate::sysfs::{HwError, SysfsRoot};

/// Nominal instructions-per-cycle used for the IPS estimate. Real IPC
/// varies per workload; the estimate is only ever consumed *normalized*
/// (against a baseline measured through the same estimator), so the
/// constant cancels out as long as it is applied consistently.
const NOMINAL_IPC: f64 = 1.0;

/// Time source for sample intervals.
#[derive(Debug)]
pub enum BackendClock {
    /// Wall-clock time (real hosts).
    Wall(Instant),
    /// Manually advanced time (tests); [`LinuxBackend::advance`] moves
    /// it.
    Manual(f64),
}

impl BackendClock {
    /// Wall-clock time starting now.
    pub fn wall() -> BackendClock {
        BackendClock::Wall(Instant::now())
    }

    /// Manual time starting at zero.
    pub fn manual() -> BackendClock {
        BackendClock::Manual(0.0)
    }

    fn now(&self) -> f64 {
        match self {
            BackendClock::Wall(start) => start.elapsed().as_secs_f64(),
            BackendClock::Manual(t) => *t,
        }
    }
}

/// The package-level energy source the probe found.
#[derive(Debug)]
enum PackageMeter {
    Rapl(RaplMeter),
    Hwmon(HwmonMeter),
    None,
}

/// Construction options for [`LinuxBackend`].
#[derive(Debug)]
pub struct BackendOptions {
    /// Read telemetry but never write a sysfs file.
    pub dry_run: bool,
    /// How frequency targets are applied.
    pub write_mode: WriteMode,
    /// Time source.
    pub clock: BackendClock,
    /// Escape hatch: never offline a CPU; parked cores pin to the grid
    /// floor instead. For hosts where offlining fights the scheduler,
    /// irq affinity or a hypervisor.
    pub no_offline: bool,
}

impl Default for BackendOptions {
    fn default() -> BackendOptions {
        BackendOptions {
            dry_run: false,
            write_mode: WriteMode::Auto,
            clock: BackendClock::wall(),
            no_offline: false,
        }
    }
}

/// A [`PowerBackend`] over the live Linux sysfs tree (or a mock of it).
#[derive(Debug)]
pub struct LinuxBackend {
    root: SysfsRoot,
    spec: PlatformSpec,
    cpus: Vec<usize>,
    dry_run: bool,
    write_mode: WriteMode,
    clock: BackendClock,
    meter: PackageMeter,
    core_meters: Vec<(usize, HwmonMeter)>,
    health: HealthTracker,
    no_offline: bool,
    /// Last programmed target per policy slot (index into `cpus`).
    targets: Vec<KiloHertz>,
    /// Park flag per slot, as last applied.
    parked: Vec<bool>,
    /// Whether the slot's CPU was actually taken offline (vs. parked by
    /// floor-pinning); offline CPUs are skipped in telemetry instead of
    /// counted as sensor failures.
    offlined: Vec<bool>,
    /// Previous `/proc/stat` reading per slot (`None` before the first
    /// read and across offline periods).
    prev_ticks: Vec<Option<CpuTicks>>,
    /// Last derived C0 residency per slot, held across sub-jiffy
    /// intervals where the counters did not move.
    residency: Vec<f64>,
    last_sample_t: f64,
    last_pkg_w: Watts,
    /// Seconds since the package meter last read successfully; grows
    /// across failed reads so the post-recovery average is taken over
    /// the true interval the held snapshot covers.
    pkg_elapsed: f64,
}

impl LinuxBackend {
    /// Probe the tree under `root` and build a backend.
    ///
    /// Fails with [`HwError::Unsupported`] when no cpufreq policies
    /// exist; a host with cpufreq but no energy source is accepted
    /// (package power reads as the last known value, initially 0) so
    /// `--dry-run` inspection works everywhere.
    pub fn probe(root: SysfsRoot, opts: BackendOptions) -> Result<LinuxBackend, HwError> {
        let cpus = cpufreq::cpus(&root)?;
        let policy = cpufreq::read_policy(&root, cpus[0])?;

        let meter = match RaplMeter::package(&root)? {
            Some(m) => PackageMeter::Rapl(m),
            None => match HwmonMeter::package(&root)? {
                Some(m) => PackageMeter::Hwmon(m),
                None => PackageMeter::None,
            },
        };
        let core_meters = HwmonMeter::cores(&root)?;
        let spec = synthesize_spec(&root, &cpus, &policy, &meter, !core_meters.is_empty());

        let targets = cpus
            .iter()
            .map(|&c| {
                cpufreq::cur_khz(&root, c)
                    .map(KiloHertz)
                    .unwrap_or(spec.grid.max())
            })
            .collect();

        let last_sample_t = opts.clock.now();
        let n = cpus.len();
        Ok(LinuxBackend {
            root,
            spec,
            cpus,
            dry_run: opts.dry_run,
            write_mode: opts.write_mode,
            clock: opts.clock,
            meter,
            core_meters,
            health: HealthTracker::new(3, 2),
            no_offline: opts.no_offline,
            targets,
            parked: vec![false; n],
            offlined: vec![false; n],
            prev_ticks: vec![None; n],
            residency: vec![1.0; n],
            last_sample_t,
            last_pkg_w: Watts(0.0),
            pkg_elapsed: 0.0,
        })
    }

    /// The CPUs under control, ascending.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Whether writes are suppressed.
    pub fn dry_run(&self) -> bool {
        self.dry_run
    }

    /// A one-line description of the probed telemetry/actuation surface.
    pub fn describe(&self) -> String {
        let source = match &self.meter {
            PackageMeter::Rapl(m) => format!("rapl:{}", m.domain().name),
            PackageMeter::Hwmon(HwmonMeter::Energy { .. }) => "hwmon-energy".to_string(),
            PackageMeter::Hwmon(HwmonMeter::Power { .. }) => "hwmon-power".to_string(),
            PackageMeter::None => "none".to_string(),
        };
        format!(
            "{} cpus, {:.1}-{:.1} GHz, energy source: {source}, per-core meters: {}{}",
            self.cpus.len(),
            self.spec.grid.min().ghz(),
            self.spec.grid.max().ghz(),
            self.core_meters.len(),
            if self.dry_run { ", DRY RUN" } else { "" },
        )
    }

    /// The sensor health tracker (read side; exported for reporting).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }
}

/// Build a [`PlatformSpec`] from what the sysfs tree advertises. The
/// power model is a placeholder (the daemon's policies act on *measured*
/// power; the model only seeds predictions) and turbo is flat at the
/// hardware ceiling — real opportunistic limits are not discoverable
/// from sysfs.
fn synthesize_spec(
    root: &SysfsRoot,
    cpus: &[usize],
    policy: &cpufreq::CpuPolicy,
    meter: &PackageMeter,
    per_core_power: bool,
) -> PlatformSpec {
    let min = KiloHertz(policy.hw_min_khz);
    let max = KiloHertz(policy.hw_max_khz);
    // cpufreq has no step attribute; 100 MHz matches Intel/AMD P-state
    // granularity and FreqGrid tolerates a non-divisible span.
    let grid = FreqGrid::new(min, max, KiloHertz::from_mhz(100));
    // intel_pstate exposes the nominal frequency; fall back to the
    // hardware ceiling.
    let base_freq = root
        .read_u64(&format!(
            "{}/cpu{}/cpufreq/base_frequency",
            crate::cpufreq::CPU_DIR,
            policy.cpu
        ))
        .map(KiloHertz)
        .unwrap_or(max);
    let (name, vendor): (&'static str, Vendor) = match meter {
        PackageMeter::Rapl(_) => ("Linux host (Intel RAPL)", Vendor::Intel),
        PackageMeter::Hwmon(_) => ("Linux host (AMD hwmon)", Vendor::Amd),
        PackageMeter::None => ("Linux host", Vendor::Intel),
    };
    let mut spec = PlatformSpec::skylake(); // donor for the placeholder power model
    spec.name = name;
    spec.vendor = vendor;
    spec.num_cores = cpus.len();
    spec.threads_per_core = 1;
    spec.base_freq = base_freq;
    spec.grid = grid;
    spec.turbo = TurboTable::flat(cpus.len(), max, max);
    spec.rapl = None;
    spec.per_core_power = per_core_power;
    spec.shared_pstate_slots = None;
    spec
}

impl PowerBackend for LinuxBackend {
    fn platform(&self) -> &PlatformSpec {
        &self.spec
    }

    fn sample(&mut self) -> Option<Sample> {
        let now = self.clock.now();
        let dt = now - self.last_sample_t;
        if dt <= 0.0 {
            return None;
        }
        self.last_sample_t = now;
        let dt = Seconds(dt);
        let t = Seconds(now);

        self.pkg_elapsed += dt.value();
        let pkg_dt = Seconds(self.pkg_elapsed);
        let package_power = match &mut self.meter {
            PackageMeter::Rapl(m) => Some(m.power(&self.root, pkg_dt)),
            PackageMeter::Hwmon(m) => Some(m.power(&self.root, pkg_dt)),
            PackageMeter::None => None,
        };
        let package_power = match package_power {
            Some(Ok(w)) => {
                self.health.record(SensorId::PackagePower, true, t);
                self.last_pkg_w = w;
                self.pkg_elapsed = 0.0;
                w
            }
            Some(Err(_)) => {
                // The meter kept its snapshot; report the last known
                // power and let hysteresis decide when to declare the
                // sensor dead.
                self.health.record(SensorId::PackagePower, false, t);
                self.last_pkg_w
            }
            None => self.last_pkg_w,
        };

        // One `/proc/stat` read covers every core; its loss degrades the
        // single utilization sensor, not each core's counter health.
        let ticks = procstat::read(&self.root);
        self.health.record(SensorId::Utilization, ticks.is_ok(), t);

        let mut cores = Vec::with_capacity(self.cpus.len());
        for (slot, &cpu) in self.cpus.iter().enumerate() {
            if self.offlined[slot] {
                // Intentionally offline: zero activity is the truth, and
                // skipping the reads keeps the health tracker free of
                // self-inflicted failures.
                self.prev_ticks[slot] = None;
                self.residency[slot] = 0.0;
                cores.push(CoreSample {
                    rates: CoreRates {
                        active_freq: KiloHertz::ZERO,
                        c0_residency: 0.0,
                        ips: 0.0,
                    },
                    power: None,
                    requested_freq: self.targets[slot],
                });
                continue;
            }
            let active_freq = match cpufreq::cur_khz(&self.root, cpu) {
                Ok(khz) => {
                    self.health.record(SensorId::CoreCounters(slot), true, t);
                    KiloHertz(khz)
                }
                Err(_) => {
                    self.health.record(SensorId::CoreCounters(slot), false, t);
                    self.targets[slot]
                }
            };
            let c0_residency = match &ticks {
                Ok(per_cpu) => {
                    match per_cpu.iter().find(|&&(c, _)| c == cpu) {
                        Some(&(_, now)) => {
                            if let Some(f) =
                                self.prev_ticks[slot].and_then(|prev| now.busy_fraction_since(prev))
                            {
                                self.residency[slot] = f;
                            }
                            // else: sub-jiffy interval or counter reset —
                            // hold the last derived value.
                            self.prev_ticks[slot] = Some(now);
                        }
                        None => {
                            // Offlined outside our control: idle, by
                            // definition, until its counters return.
                            self.prev_ticks[slot] = None;
                            self.residency[slot] = 0.0;
                        }
                    }
                    self.residency[slot]
                }
                Err(_) => {
                    // Source absent: report the conservative default the
                    // backend always used — but the Utilization sensor is
                    // flagged above, so consumers know it is assumed.
                    self.prev_ticks[slot] = None;
                    1.0
                }
            };
            // IPS estimate: busy cycles per second at NOMINAL_IPC. Zero
            // when the utilization source is down (ips = 0 is this
            // crate's documented "no progress signal" value).
            let ips = if ticks.is_ok() {
                NOMINAL_IPC * c0_residency * active_freq.hz()
            } else {
                0.0
            };
            let power = self
                .core_meters
                .iter_mut()
                .find(|(c, _)| *c == cpu)
                .and_then(|(_, m)| m.power(&self.root, dt).ok());
            cores.push(CoreSample {
                rates: CoreRates {
                    active_freq,
                    c0_residency,
                    ips,
                },
                power,
                requested_freq: self.targets[slot],
            });
        }

        Some(Sample {
            time: t,
            interval: dt,
            package_power,
            cores_power: package_power,
            cores,
        })
    }

    fn apply(&mut self, action: ActionView<'_>) -> Result<(), String> {
        let t = Seconds(self.clock.now());
        let n = self.cpus.len().min(action.freqs.len());
        for slot in 0..n {
            let cpu = self.cpus[slot];
            let park = action.parked.get(slot).copied().unwrap_or(false);
            // A parked core is taken fully offline when the kernel
            // exposes the hotplug file for it (never CPU 0) and the
            // operator has not vetoed it; otherwise it pins to the grid
            // floor — the pre-hotplug behavior.
            let online = format!("{}/cpu{cpu}/online", cpufreq::CPU_DIR);
            let can_offline = !self.no_offline && !self.dry_run && self.root.exists(&online);

            // Bring a previously-offlined CPU back whenever it should no
            // longer be offline (unparked, or offlining vetoed mid-run).
            if self.offlined[slot] && !(park && can_offline) {
                let ok = self.root.write(&online, "1").is_ok();
                self.health.record(SensorId::FreqActuator(slot), ok, t);
                if !ok {
                    // Stuck offline; keep telemetry treating it as such
                    // and retry on the next apply.
                    self.parked[slot] = park;
                    self.targets[slot] = self.spec.grid.min();
                    continue;
                }
                self.offlined[slot] = false;
            }

            if park && can_offline {
                if !self.offlined[slot] {
                    let ok = self.root.write(&online, "0").is_ok();
                    self.health.record(SensorId::FreqActuator(slot), ok, t);
                    if ok {
                        self.offlined[slot] = true;
                        self.prev_ticks[slot] = None;
                    }
                }
                if self.offlined[slot] {
                    self.parked[slot] = true;
                    self.targets[slot] = self.spec.grid.min();
                    continue; // no cpufreq writes to an offline CPU
                }
                // Offline write failed: fall through to the floor pin.
            }

            self.parked[slot] = park;
            let khz = if park {
                self.spec.grid.min()
            } else {
                action.freqs[slot]
            };
            self.targets[slot] = khz;
            if self.dry_run {
                continue;
            }
            let ok = cpufreq::set_target(&self.root, cpu, khz.khz(), self.write_mode).is_ok();
            // A failed write is a degraded actuator, not a daemon crash:
            // record it and keep driving the cores that still work.
            self.health.record(SensorId::FreqActuator(slot), ok, t);
        }
        Ok(())
    }

    fn advance(&mut self, dt: Seconds) {
        if let BackendClock::Manual(t) = &mut self.clock {
            *t += dt.value();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockSysfs;
    use pap_telemetry::health::SensorState;

    fn manual(opts_dry: bool, mock: &MockSysfs) -> LinuxBackend {
        LinuxBackend::probe(
            mock.root(),
            BackendOptions {
                dry_run: opts_dry,
                write_mode: WriteMode::Auto,
                clock: BackendClock::manual(),
                no_offline: false,
            },
        )
        .expect("probe fixture")
    }

    #[test]
    fn probes_intel_fixture_and_synthesizes_platform() {
        let mock = MockSysfs::intel(4);
        let b = manual(false, &mock);
        assert_eq!(b.platform().num_cores, 4);
        assert_eq!(b.platform().vendor, Vendor::Intel);
        assert_eq!(b.platform().grid.min().khz(), 800_000);
        assert_eq!(b.platform().grid.max().khz(), 3_000_000);
        assert!(b.describe().contains("rapl:package-0"), "{}", b.describe());
    }

    #[test]
    fn apply_writes_and_sample_reads_back() {
        let mock = MockSysfs::intel(2);
        let mut b = manual(false, &mock);
        b.apply(ActionView {
            freqs: &[KiloHertz(1_200_000), KiloHertz(2_600_000)],
            parked: &[false, false],
        })
        .unwrap();
        // The fixture "hardware" settles on the programmed frequencies.
        mock.set_cur_khz(0, 1_200_000);
        mock.set_cur_khz(1, 2_600_000);
        mock.add_package_energy_uj(20_000_000); // 20 J over the next 1 s
        b.advance(Seconds(1.0));
        let s = b.sample().expect("time advanced");
        assert_eq!(s.cores[0].rates.active_freq.khz(), 1_200_000);
        assert_eq!(s.cores[1].rates.active_freq.khz(), 2_600_000);
        assert_eq!(s.cores[0].requested_freq.khz(), 1_200_000);
        assert!((s.package_power.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dry_run_reads_everything_but_writes_nothing() {
        let mock = MockSysfs::intel(2);
        let root = mock.root();
        let before = root
            .read_string("sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed")
            .unwrap();
        let mut b = manual(true, &mock);
        b.apply(ActionView {
            freqs: &[KiloHertz(1_000_000), KiloHertz(1_000_000)],
            parked: &[false, false],
        })
        .unwrap();
        let after = root
            .read_string("sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed")
            .unwrap();
        assert_eq!(before, after, "dry-run must not touch sysfs");
        // Telemetry still works.
        mock.add_package_energy_uj(5_000_000);
        b.advance(Seconds(1.0));
        let s = b.sample().unwrap();
        assert!((s.package_power.value() - 5.0).abs() < 1e-9);
        // And requested_freq reflects the (unwritten) targets.
        assert_eq!(s.cores[0].requested_freq.khz(), 1_000_000);
    }

    #[test]
    fn parked_cores_pin_to_the_grid_floor() {
        let mock = MockSysfs::intel(2);
        let mut b = manual(false, &mock);
        b.apply(ActionView {
            freqs: &[KiloHertz(2_000_000), KiloHertz(2_000_000)],
            parked: &[true, false],
        })
        .unwrap();
        assert_eq!(
            mock.root()
                .read_u64("sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed")
                .unwrap(),
            800_000
        );
    }

    #[test]
    fn vanishing_energy_counter_degrades_health_not_the_loop() {
        let mock = MockSysfs::intel(1);
        let mut b = manual(false, &mock);
        mock.add_package_energy_uj(10_000_000);
        b.advance(Seconds(1.0));
        assert!((b.sample().unwrap().package_power.value() - 10.0).abs() < 1e-9);

        // The counter file disappears mid-run (driver unbind).
        mock.remove("sys/class/powercap/intel-rapl:0/energy_uj");
        for _ in 0..3 {
            b.advance(Seconds(1.0));
            let s = b.sample().expect("loop keeps producing samples");
            assert!(
                (s.package_power.value() - 10.0).abs() < 1e-9,
                "holds last known power"
            );
        }
        let h = b.health().sensor(SensorId::PackagePower).unwrap();
        assert_eq!(h.state, SensorState::Unhealthy, "demoted after 3 failures");

        // Driver rebinds: the meter's held snapshot integrates the gap.
        mock.restore_package_energy();
        mock.add_package_energy_uj(40_000_000);
        b.advance(Seconds(1.0));
        let s = b.sample().unwrap();
        assert!(
            (s.package_power.value() - 10.0).abs() < 1e-9,
            "40 J over the 4 s since the last good read, got {}",
            s.package_power
        );
    }

    #[test]
    fn amd_fixture_reports_per_core_power() {
        let mock = MockSysfs::amd(2);
        let mut b = manual(false, &mock);
        assert_eq!(b.platform().vendor, Vendor::Amd);
        assert!(b.platform().per_core_power);
        mock.add_socket_energy_uj(30_000_000);
        mock.add_core_energy_uj(0, 12_000_000);
        mock.add_core_energy_uj(1, 6_000_000);
        b.advance(Seconds(2.0));
        let s = b.sample().unwrap();
        assert!((s.package_power.value() - 15.0).abs() < 1e-9);
        assert!((s.cores[0].power.unwrap().value() - 6.0).abs() < 1e-9);
        assert!((s.cores[1].power.unwrap().value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn schedutil_host_applies_via_max_freq_clamp() {
        let mock = MockSysfs::amd(1);
        let mut b = manual(false, &mock);
        b.apply(ActionView {
            freqs: &[KiloHertz(1_800_000)],
            parked: &[false],
        })
        .unwrap();
        assert_eq!(
            mock.root()
                .read_u64("sys/devices/system/cpu/cpu0/cpufreq/scaling_max_freq")
                .unwrap(),
            1_800_000,
            "non-userspace governor -> ceiling clamp"
        );
    }

    #[test]
    fn zero_interval_sample_is_none() {
        let mock = MockSysfs::intel(1);
        let mut b = manual(false, &mock);
        assert!(b.sample().is_none(), "no time has passed");
    }

    #[test]
    fn residency_and_ips_derive_from_proc_stat_deltas() {
        let mock = MockSysfs::intel(2);
        let mut b = manual(false, &mock);
        // Baseline read establishes prev ticks (zero-delta holds 1.0).
        b.advance(Seconds(1.0));
        let s = b.sample().unwrap();
        assert_eq!(s.cores[0].rates.c0_residency, 1.0, "no delta yet: hold");
        // Next interval: cpu0 60 % busy, cpu1 25 % busy.
        mock.advance_cpu_jiffies(0, 60, 40);
        mock.advance_cpu_jiffies(1, 25, 75);
        mock.set_cur_khz(0, 2_000_000);
        mock.set_cur_khz(1, 2_000_000);
        b.advance(Seconds(1.0));
        let s = b.sample().unwrap();
        assert!((s.cores[0].rates.c0_residency - 0.60).abs() < 1e-9);
        assert!((s.cores[1].rates.c0_residency - 0.25).abs() < 1e-9);
        // IPS is the busy-cycle proxy: residency x frequency x IPC(1).
        assert!((s.cores[0].rates.ips - 0.60 * 2.0e9).abs() < 1.0);
        assert!((s.cores[1].rates.ips - 0.25 * 2.0e9).abs() < 1.0);
        assert!(b.health().is_healthy(SensorId::Utilization));
    }

    #[test]
    fn missing_proc_stat_flags_utilization_not_core_counters() {
        let mock = MockSysfs::intel(1);
        let mut b = manual(false, &mock);
        mock.remove("proc/stat");
        for _ in 0..3 {
            b.advance(Seconds(1.0));
            let s = b.sample().expect("loop keeps producing samples");
            // Old conservative defaults, but now *flagged*.
            assert_eq!(s.cores[0].rates.c0_residency, 1.0);
            assert_eq!(s.cores[0].rates.ips, 0.0);
        }
        assert!(!b.health().is_healthy(SensorId::Utilization));
        assert!(
            b.health().is_healthy(SensorId::CoreCounters(0)),
            "cpufreq reads are a separate sensor"
        );
    }

    #[test]
    fn parked_core_goes_offline_and_back() {
        let mock = MockSysfs::intel(2);
        let mut b = manual(false, &mock);
        let online = "sys/devices/system/cpu/cpu1/online";
        b.apply(ActionView {
            freqs: &[KiloHertz(2_000_000), KiloHertz(2_000_000)],
            parked: &[false, true],
        })
        .unwrap();
        assert_eq!(mock.root().read_u64(online).unwrap(), 0, "cpu1 offlined");
        // Offline core: telemetry reports zero activity, no health noise.
        b.advance(Seconds(1.0));
        let s = b.sample().unwrap();
        assert_eq!(s.cores[1].rates.active_freq.khz(), 0);
        assert_eq!(s.cores[1].rates.c0_residency, 0.0);
        assert_eq!(s.cores[1].rates.ips, 0.0);
        assert!(s.cores[0].rates.active_freq.khz() > 0, "cpu0 unaffected");
        // Unpark: the backend re-onlines the CPU and resumes driving it.
        b.apply(ActionView {
            freqs: &[KiloHertz(2_000_000), KiloHertz(1_500_000)],
            parked: &[false, false],
        })
        .unwrap();
        assert_eq!(mock.root().read_u64(online).unwrap(), 1, "cpu1 back online");
        assert_eq!(
            mock.root()
                .read_u64("sys/devices/system/cpu/cpu1/cpufreq/scaling_setspeed")
                .unwrap(),
            1_500_000
        );
        for (id, h) in b.health().sensors() {
            assert_eq!(h.total_failures, 0, "{id} failed during hotplug");
        }
    }

    #[test]
    fn no_offline_falls_back_to_the_floor_pin() {
        let mock = MockSysfs::intel(2);
        let mut b = LinuxBackend::probe(
            mock.root(),
            BackendOptions {
                dry_run: false,
                write_mode: WriteMode::Auto,
                clock: BackendClock::manual(),
                no_offline: true,
            },
        )
        .unwrap();
        b.apply(ActionView {
            freqs: &[KiloHertz(2_000_000), KiloHertz(2_000_000)],
            parked: &[false, true],
        })
        .unwrap();
        assert_eq!(
            mock.root()
                .read_u64("sys/devices/system/cpu/cpu1/online")
                .unwrap(),
            1,
            "escape hatch: CPU stays online"
        );
        assert_eq!(
            mock.root()
                .read_u64("sys/devices/system/cpu/cpu1/cpufreq/scaling_setspeed")
                .unwrap(),
            800_000,
            "parked core pinned to the grid floor"
        );
    }

    #[test]
    fn cpu0_never_offlines_even_when_parked() {
        // The kernel exposes no cpu0/online; parking the boot CPU must
        // fall back to the floor pin.
        let mock = MockSysfs::intel(2);
        let mut b = manual(false, &mock);
        b.apply(ActionView {
            freqs: &[KiloHertz(2_000_000), KiloHertz(2_000_000)],
            parked: &[true, false],
        })
        .unwrap();
        assert!(!mock.root().exists("sys/devices/system/cpu/cpu0/online"));
        assert_eq!(
            mock.root()
                .read_u64("sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed")
                .unwrap(),
            800_000
        );
    }
}
