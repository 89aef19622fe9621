//! Daemon-level end-to-end tests: control actions stay valid for entire
//! runs, convergence holds across limits and platforms, and capability
//! mismatches are rejected up front.

use per_app_power::prelude::*;
use per_app_power::workloads::spec;
use powerd::config::{AppSpec, DaemonConfig};

/// Drive a daemon against a chip for `seconds`, checking every control
/// action against the platform's constraints. Returns the final package
/// power.
fn drive_checked(platform: PlatformSpec, config: DaemonConfig, seconds: f64) -> f64 {
    let chip = Chip::new(platform.clone());
    let mut daemon = Daemon::new(config.clone(), &platform).expect("valid daemon");
    let mut apps: Vec<(usize, RunningApp)> = config
        .apps
        .iter()
        .map(|a| {
            (
                a.core,
                RunningApp::looping(spec::by_name(&a.name).unwrap_or(spec::GCC)),
            )
        })
        .collect();

    // Every frequency must be on the platform grid; Ryzen actions must
    // fit the shared slots (the chip's set_all_requested enforces both).
    let mut lp = ControlLoop::new(SimBackend::new(chip), &mut daemon)
        .expect("daemon action rejected by hardware");

    let dt = Seconds(0.002);
    let ticks = (seconds / dt.value()) as usize;
    for _ in 0..ticks {
        let (backend, parked) = lp.split_mut();
        for (core, app) in apps.iter_mut() {
            if !parked[*core] {
                app.run_on(backend.chip_mut(), *core, dt).unwrap();
            }
        }
        if lp.advance(dt) {
            lp.control(&mut daemon)
                .expect("daemon action rejected by hardware");
        }
    }
    lp.into_backend().chip().package_power().value()
}

fn apps_for(platform: &PlatformSpec) -> Vec<AppSpec> {
    let names = ["cactusBSSN", "leela", "gcc", "omnetpp"];
    (0..platform.num_cores)
        .map(|i| {
            let profile = spec::by_name(names[i % names.len()]).unwrap();
            let standalone = platform.turbo.cap_for(1, profile.avx);
            AppSpec::new(profile.name, i)
                .with_priority(if i % 3 == 0 {
                    Priority::Low
                } else {
                    Priority::High
                })
                .with_shares(10 + 13 * i as u32)
                .with_baseline_ips(profile.ips(standalone))
        })
        .collect()
}

#[test]
fn skylake_all_policies_converge_with_valid_actions() {
    for policy in [
        PolicyKind::Priority,
        PolicyKind::FrequencyShares,
        PolicyKind::PerformanceShares,
        PolicyKind::RaplNative,
    ] {
        let platform = PlatformSpec::skylake();
        let mut cfg = DaemonConfig::new(policy, Watts(48.0), apps_for(&platform));
        cfg.floor_low_priority = false;
        // RaplNative relies on the hardware limiter, which drive_checked
        // does not program; it is covered by the runner tests instead.
        if policy == PolicyKind::RaplNative {
            continue;
        }
        let p = drive_checked(platform, cfg, 25.0);
        assert!(
            (p - 48.0).abs() < 6.0,
            "{}: final package power {p:.1} vs 48 W",
            policy.name()
        );
    }
}

#[test]
fn ryzen_all_policies_converge_with_valid_actions() {
    for policy in [
        PolicyKind::Priority,
        PolicyKind::FrequencyShares,
        PolicyKind::PerformanceShares,
        PolicyKind::PowerShares,
    ] {
        let platform = PlatformSpec::ryzen();
        let cfg = DaemonConfig::new(policy, Watts(45.0), apps_for(&platform));
        let p = drive_checked(platform, cfg, 25.0);
        assert!(
            (p - 45.0).abs() < 6.0,
            "{}: final package power {p:.1} vs 45 W",
            policy.name()
        );
    }
}

#[test]
fn extreme_share_ratios_do_not_break() {
    let platform = PlatformSpec::skylake();
    let apps = vec![
        AppSpec::new("cactusBSSN", 0)
            .with_shares(1)
            .with_baseline_ips(3e9),
        AppSpec::new("leela", 1)
            .with_shares(10_000)
            .with_baseline_ips(3e9),
    ];
    let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(30.0), apps);
    let p = drive_checked(platform, cfg, 15.0);
    assert!(p < 36.0, "package {p:.1} W under a 30 W limit");
}

#[test]
fn single_app_runs_at_speed_under_generous_limit() {
    let platform = PlatformSpec::skylake();
    let apps = vec![AppSpec::new("leela", 0)
        .with_shares(100)
        .with_baseline_ips(3e9)];
    let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(80.0), apps);
    let mut chip = Chip::new(platform.clone());
    let mut daemon = Daemon::new(cfg, &platform).unwrap();
    daemon.initial().view().apply(&mut chip).unwrap();
    let mut app = RunningApp::looping(spec::LEELA);
    for _ in 0..2000 {
        let f = chip.effective_freq(0);
        let out = app.advance(Seconds(0.001), f);
        chip.set_load(0, out.load).unwrap();
        chip.tick(Seconds(0.001));
    }
    // one active core -> full single-core turbo
    assert_eq!(chip.effective_freq(0), KiloHertz::from_mhz(3000));
}

#[test]
fn capability_mismatches_rejected() {
    let sky = PlatformSpec::skylake();
    let ryz = PlatformSpec::ryzen();
    let apps = |n: usize| -> Vec<AppSpec> {
        (0..n)
            .map(|i| AppSpec::new(format!("a{i}"), i).with_baseline_ips(1e9))
            .collect()
    };
    assert!(Daemon::new(
        DaemonConfig::new(PolicyKind::PowerShares, Watts(40.0), apps(2)),
        &sky
    )
    .is_err());
    assert!(Daemon::new(
        DaemonConfig::new(PolicyKind::RaplNative, Watts(40.0), apps(2)),
        &ryz
    )
    .is_err());
    // over-subscribed core
    let mut bad = apps(2);
    bad[1].core = 0;
    assert!(Daemon::new(
        DaemonConfig::new(PolicyKind::FrequencyShares, Watts(40.0), bad),
        &sky
    )
    .is_err());
}
