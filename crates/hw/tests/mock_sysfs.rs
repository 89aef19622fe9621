//! End-to-end: the §5 monitoring loop (`powerd::hw::ControlLoop`) over a
//! [`LinuxBackend`] against a mock sysfs tree. The `drive` closure plays
//! the hardware's part — settling `scaling_cur_freq` at whatever the
//! daemon programmed and charging the RAPL counter with a
//! frequency-dependent power draw — so the complete control loop
//! (sample → policy → sysfs write → sample) runs offline.

use pap_hw::mock::MockSysfs;
use pap_hw::{BackendClock, BackendOptions, LinuxBackend};
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::health::{SensorId, SensorState};
use pap_telemetry::sampler::Sample;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, Controller, PowerBackend};
use powerd::resilience::{DegradationLevel, ResilienceConfig, ResilientDaemon};

/// A backend over `mock` on a manual clock.
fn probe(mock: &MockSysfs) -> LinuxBackend {
    let opts = BackendOptions {
        dry_run: false,
        write_mode: pap_hw::cpufreq::WriteMode::Auto,
        clock: BackendClock::manual(),
        no_offline: false,
    };
    LinuxBackend::probe(mock.root(), opts).expect("probe intel fixture")
}

fn fixture_config(limit: f64) -> DaemonConfig {
    let apps = vec![
        AppSpec::new("hi", 0).with_shares(70).with_baseline_ips(3e9),
        AppSpec::new("lo", 1).with_shares(30).with_baseline_ips(3e9),
    ];
    DaemonConfig::new(PolicyKind::FrequencyShares, Watts(limit), apps)
}

/// Run the control loop for `duration` in `tick` steps, calling `drive`
/// before every tick and `after` with the controller and the sample
/// after every control interval.
fn run<C: Controller>(
    backend: LinuxBackend,
    ctl: &mut C,
    duration: Seconds,
    tick: Seconds,
    mut drive: impl FnMut(),
    mut after: impl FnMut(&C, &Sample),
) -> Result<(), String> {
    let mut lp = ControlLoop::new(backend, ctl)?;
    while lp.elapsed() < duration {
        drive();
        if lp.advance(tick) {
            if let Some(s) = lp.control(ctl)? {
                after(ctl, s);
            }
        }
    }
    Ok(())
}

/// The fixture's "hardware" for one tick: each core settles at its
/// programmed setspeed and the package burns the model's power.
fn settle_and_burn(mock: &MockSysfs, tick: Seconds) {
    let khz = setspeeds(mock);
    for (c, &k) in khz.iter().enumerate() {
        mock.set_cur_khz(c, k);
    }
    let uj = model_power_w(&khz) * tick.value() * 1e6;
    mock.add_package_energy_uj(uj as u64);
}

fn setspeeds(mock: &MockSysfs) -> [u64; 2] {
    [0, 1].map(|c| {
        mock.root()
            .read_u64(&format!(
                "sys/devices/system/cpu/cpu{c}/cpufreq/scaling_setspeed"
            ))
            .expect("daemon wrote a target")
    })
}

/// Idle draw plus ~5 W per core at the 3 GHz ceiling, linear in
/// frequency — enough structure for the controller to react to.
fn model_power_w(khz: &[u64]) -> f64 {
    3.0 + khz.iter().map(|&f| 5.0 * f as f64 / 3.0e6).sum::<f64>()
}

#[test]
fn daemon_loop_controls_the_mock_host() {
    let mock = MockSysfs::intel(2);
    let backend = probe(&mock);
    let mut daemon = Daemon::new(fixture_config(9.0), backend.platform()).expect("valid daemon");

    let tick = Seconds(0.1);
    // Every sensor the loop touches stays healthy throughout.
    run(
        backend,
        &mut daemon,
        Seconds(30.0),
        tick,
        || settle_and_burn(&mock, tick),
        |_, s| assert!(s.health.is_empty(), "at {}: {:?}", s.time, s.health),
    )
    .expect("loop completes");

    // The daemon actually wrote targets on the grid...
    let [f0, f1] = setspeeds(&mock);
    for f in [f0, f1] {
        assert!((800_000..=3_000_000).contains(&f), "on-grid target {f}");
    }
    // ...favouring the 70-share app...
    assert!(f0 >= f1, "shares order: hi {f0} >= lo {f1}");
    // ...and pulled the modelled package power down toward the 9 W
    // limit. The synthesized platform carries a placeholder power model,
    // so steady state keeps an offset from the true optimum — what
    // matters is that the loop reacted (uncapped draw would be 13 W)
    // without collapsing to the 800 MHz floor (5.7 W).
    let p = model_power_w(&[f0, f1]);
    assert!(p <= 11.5, "reacted to the limit, got {p:.2} W");
    assert!(p > 5.8, "not collapsed to the floor, got {p:.2} W");
}

/// The headline telemetry fix: live samples carry real `/proc/stat`
/// utilization and a nonzero IPS estimate, enough signal to drive an
/// IPS-consuming policy (performance shares) end to end on the mock
/// host. When `/proc/stat` then dies, together with the frequency read
/// of a core that runs no app, both failures reach the ladder's tracker,
/// and the policy demotes to frequency shares instead of steering on an
/// assumed zero IPS.
#[test]
fn proc_stat_utilization_drives_an_ips_policy() {
    let mock = MockSysfs::intel(3);
    // No hotplug file: the unmanaged cpu2 stays online at the floor, so
    // its reads go on.
    mock.remove("sys/devices/system/cpu/cpu2/online");
    let backend = probe(&mock);
    let apps = vec![
        AppSpec::new("busy", 0)
            .with_shares(50)
            .with_baseline_ips(3e9),
        AppSpec::new("idle", 1)
            .with_shares(50)
            .with_baseline_ips(3e9),
    ];
    let cfg = DaemonConfig::new(PolicyKind::PerformanceShares, Watts(9.0), apps);
    let rcfg = ResilienceConfig::default();
    let mut rd = ResilientDaemon::new(cfg, backend.platform(), rcfg)
        .expect("perf-shares daemon over the synthesized platform");

    let tick = Seconds(0.1);
    let mut ticks = 0u32;
    // Per control interval: the ladder level after the step.
    let mut levels = Vec::new();
    run(
        backend,
        &mut rd,
        Seconds(40.0),
        tick,
        || {
            ticks += 1;
            if ticks <= 300 {
                // "Hardware": core 0 runs ~90 % busy, core 1 ~30 % busy.
                // 10 jiffies per 0.1 s tick (100 Hz kernel).
                mock.advance_cpu_jiffies(0, 9, 1);
                mock.advance_cpu_jiffies(1, 3, 7);
            } else if ticks == 301 {
                mock.remove("proc/stat");
                mock.remove("sys/devices/system/cpu/cpu2/cpufreq/scaling_cur_freq");
            }
            settle_and_burn(&mock, tick);
        },
        |rd, s| {
            if levels.len() < 30 {
                // Healthy: no degradation anywhere, and the live samples
                // carry the real utilization signal.
                assert!(s.health.is_empty(), "at {}: {:?}", s.time, s.health);
                assert_eq!(rd.level(), DegradationLevel::Nominal);
                let [c0, c1] = [0, 1].map(|c| s.cores[c].rates);
                assert!(c0.ips > 0.0 && c1.ips > 0.0, "nonzero ips estimate");
                if levels.len() > 1 {
                    assert!((c0.c0_residency - 0.9).abs() < 0.05);
                    assert!((c1.c0_residency - 0.3).abs() < 0.05);
                }
            } else {
                // Blind to utilization: conservative defaults, listed
                // missing apart from the per-core frequency reads.
                let missing = [SensorId::Utilization, SensorId::CoreCounters(2)];
                assert_eq!(s.health.missing, missing);
                assert_eq!(s.cores[0].rates.c0_residency, 1.0);
                assert_eq!(s.cores[0].rates.ips, 0.0);
            }
            levels.push(rd.level());
            if levels.len() == 30 {
                // The policy consumed it: with equal shares, the servo
                // pushes the utilization-starved app to a higher
                // frequency to equalize delivered (normalized)
                // performance.
                let [f0, f1] = setspeeds(&mock);
                for f in [f0, f1] {
                    assert!((800_000..=3_000_000).contains(&f), "on-grid target {f}");
                }
                assert!(
                    f1 > f0,
                    "perf-shares compensates the 30 %-busy core: f0={f0} f1={f1}"
                );
            }
        },
    )
    .expect("loop survives the loss");

    // Interval 30 is the first to sample the loss.
    assert_eq!(
        levels[30 + rcfg.demote_after as usize - 1],
        DegradationLevel::FrequencyOnly,
        "demoted after {} failed intervals",
        rcfg.demote_after
    );
    assert_eq!(rd.level(), DegradationLevel::FrequencyOnly);
    assert_eq!(rd.active_policy(), "freq-shares");
    for id in [SensorId::Utilization, SensorId::CoreCounters(2)] {
        let h = rd.health().sensor(id).expect("tracked");
        assert_eq!(h.state, SensorState::Unhealthy, "{id}");
        assert_eq!(h.total_failures, (levels.len() - 30) as u64, "{id}");
    }
    for id in [SensorId::PackagePower, SensorId::CoreCounters(0)] {
        assert_eq!(rd.health().sensor(id).unwrap().total_failures, 0, "{id}");
    }
}

/// The RAPL counter dies for good mid-run on a host running the
/// resilience ladder: the daemon goes blind-but-safe instead of steering
/// on a frozen package reading.
#[test]
fn sensor_loss_mid_run_degrades_gracefully() {
    let mock = MockSysfs::intel(2);
    let backend = probe(&mock);
    let limit = 9.0;
    let rcfg = ResilienceConfig::default();
    let mut rd = ResilientDaemon::new(fixture_config(limit), backend.platform(), rcfg)
        .expect("valid daemon over synthesized platform");

    let tick = Seconds(0.1);
    let mut ticks = 0u32;
    // Per control interval: whether package power was missing, the
    // ladder level after the step, and the setspeeds it programmed.
    let mut intervals: Vec<(bool, DegradationLevel, [u64; 2])> = Vec::new();
    run(
        backend,
        &mut rd,
        Seconds(30.0),
        tick,
        || {
            ticks += 1;
            if ticks < 100 {
                settle_and_burn(&mock, tick);
            } else if ticks == 100 {
                // 10 s in, the package energy counter vanishes for good
                // (writing more energy would re-create the file).
                mock.remove("sys/class/powercap/intel-rapl:0/energy_uj");
            }
        },
        |rd, s| {
            intervals.push((
                s.is_missing(SensorId::PackagePower),
                rd.level(),
                setspeeds(&mock),
            ))
        },
    )
    .expect("loop survives the sensor loss");

    let lost = intervals.iter().position(|i| i.0).expect("loss sampled");
    let demoted = intervals
        .iter()
        .position(|i| i.1 == DegradationLevel::UniformCap)
        .expect("the ladder reaches the uniform cap");
    assert!(intervals[..lost]
        .iter()
        .all(|i| i.1 == DegradationLevel::Nominal));
    assert!(
        intervals[lost..].iter().all(|i| i.0),
        "missing from then on"
    );
    assert!(
        demoted - lost < rcfg.demote_after as usize,
        "demoted within {} intervals of the loss ({lost} -> {demoted})",
        rcfg.demote_after
    );
    // The blind cap is one frequency for every managed core, so the
    // demotion itself may lift the low-share core up to it; from then on
    // no core rises and the modelled draw stays under the limit.
    let blind = &intervals[demoted..];
    for (prev, next) in blind.iter().zip(&blind[1..]) {
        assert_eq!(next.1, DegradationLevel::UniformCap);
        assert!(
            next.2[0] <= prev.2[0] && next.2[1] <= prev.2[1],
            "rose while blind"
        );
    }
    for i in blind {
        let p = model_power_w(&i.2);
        assert!(p <= limit, "modelled {p:.2} W over {limit} W at {:?}", i.2);
    }
}
