//! The energy/cost accounting layer must be strictly off-path, the same
//! guarantee the decision trace ships under: attaching an
//! [`EnergyLedger`] to a daemon changes *nothing* about the commanded
//! `ControlAction` stream — bit-identical actions per policy — while the
//! ledger itself ends the run with physically consistent contents
//! (per-app energy sums to package energy under activity attribution,
//! cost derives from the tariff).

use pap_simcpu::chip::Chip;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::energy::{EnergyLedger, Tariff};
use pap_telemetry::sampler::Sampler;
use pap_workloads::engine::RunningApp;
use pap_workloads::spec;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority};
use powerd::daemon::{ControlAction, Daemon};
use powerd::runner::standalone_freq;

fn policy_platforms() -> Vec<(PolicyKind, PlatformSpec)> {
    vec![
        (PolicyKind::RaplNative, PlatformSpec::skylake()),
        (PolicyKind::Priority, PlatformSpec::skylake()),
        (PolicyKind::FrequencyShares, PlatformSpec::skylake()),
        (PolicyKind::PerformanceShares, PlatformSpec::skylake()),
        (PolicyKind::PowerShares, PlatformSpec::ryzen()),
    ]
}

fn four_apps(platform: &PlatformSpec) -> Vec<AppSpec> {
    let mix = [
        ("cactusBSSN", spec::CACTUS_BSSN, 70u32),
        ("lbm", spec::LBM, 50),
        ("gcc", spec::GCC, 50),
        ("leela", spec::LEELA, 30),
    ];
    mix.iter()
        .enumerate()
        .map(|(core, (name, profile, shares))| {
            AppSpec::new(name.to_string(), core)
                .with_priority(Priority::High)
                .with_shares(*shares)
                .with_baseline_ips(profile.ips(standalone_freq(platform, profile)))
        })
        .collect()
}

/// Drive a daemon against a chip for `seconds`, returning every
/// commanded action (the observability suite's driver, unchanged).
fn drive(daemon: &mut Daemon, platform: &PlatformSpec, seconds: f64) -> Vec<ControlAction> {
    let mut chip = Chip::new(platform.clone());
    if daemon.config().policy == PolicyKind::RaplNative {
        chip.set_rapl_limit(Some(daemon.config().power_limit))
            .expect("RAPL range");
    }
    let mut apps: Vec<(usize, RunningApp)> = daemon
        .config()
        .apps
        .iter()
        .map(|a| {
            (
                a.core,
                RunningApp::looping(spec::by_name(&a.name).unwrap_or(spec::GCC)),
            )
        })
        .collect();

    let action = daemon.initial();
    action.view().apply(&mut chip).expect("valid action");
    let mut parked = action.parked;
    let mut sampler = Sampler::new(&chip);

    let dt = Seconds(0.002);
    let mut actions = Vec::new();
    let mut next_control = 1.0;
    let mut t = 0.0;
    while t < seconds {
        for (core, app) in apps.iter_mut() {
            if parked[*core] {
                continue;
            }
            let f = chip.effective_freq(*core);
            let out = app.advance(dt, f);
            chip.set_load(*core, out.load).unwrap();
            chip.add_instructions(*core, out.instructions).unwrap();
        }
        chip.tick(dt);
        t += dt.value();
        if t + 1e-9 >= next_control {
            next_control += 1.0;
            if let Some(sample) = sampler.sample(&chip) {
                let _ = daemon.try_step_view(&sample);
                let action = daemon.action();
                action.apply(&mut chip).expect("valid action");
                parked.copy_from_slice(action.parked);
                actions.push(action.to_owned());
            }
        }
    }
    actions
}

#[test]
fn ledger_attachment_is_bit_identical_per_policy() {
    for (policy, platform) in policy_platforms() {
        let mk = || {
            Daemon::new(
                DaemonConfig::new(policy, Watts(40.0), four_apps(&platform)),
                &platform,
            )
            .expect("valid config")
        };
        let mut bare = mk();
        let plain = drive(&mut bare, &platform, 10.0);

        let mut accounted = mk();
        accounted.attach_energy(EnergyLedger::with_tariff(Tariff::new(0.25)));
        let traced = drive(&mut accounted, &platform, 10.0);

        assert_eq!(
            plain, traced,
            "{policy:?}: attaching an energy ledger changed the action stream"
        );

        let ledger = accounted.take_energy().expect("ledger attached");
        assert_eq!(ledger.len(), 4, "{policy:?}: one account per app");
        assert!(
            ledger.package_wh() > 0.0,
            "{policy:?}: package energy accumulated"
        );
        let apps_wh: f64 = ledger.accounts().iter().map(|a| a.wh).sum();
        assert!(
            apps_wh > 0.0 && apps_wh <= ledger.package_wh() * 1.0001,
            "{policy:?}: app energy {apps_wh} exceeds package {}",
            ledger.package_wh()
        );
        // Cost is tariff-linear.
        let cost = ledger.package_cost_usd().expect("tariff set");
        assert!(
            (cost - ledger.package_wh() / 1000.0 * 0.25).abs() < 1e-12,
            "{policy:?}: cost {cost} vs Wh {}",
            ledger.package_wh()
        );
    }
}

#[test]
fn per_core_power_platform_uses_measured_attribution() {
    // On Ryzen every app core reports measured power; attributed app
    // energy equals the integral of those watts rather than an activity
    // share of the package (which also carries uncore).
    let platform = PlatformSpec::ryzen();
    let mut daemon = Daemon::new(
        DaemonConfig::new(PolicyKind::PowerShares, Watts(40.0), four_apps(&platform)),
        &platform,
    )
    .unwrap();
    daemon.attach_energy(EnergyLedger::new());
    drive(&mut daemon, &platform, 10.0);
    let ledger = daemon.take_energy().unwrap();
    let apps_wh: f64 = ledger.accounts().iter().map(|a| a.wh).sum();
    assert!(apps_wh > 0.0);
    assert!(
        apps_wh < ledger.package_wh(),
        "measured core energy {apps_wh} must exclude uncore, package {}",
        ledger.package_wh()
    );
    // No tariff: no cost fields anywhere in the export.
    assert!(!ledger.to_jsonl().contains("cost"), "tariff-free JSONL");
}

#[test]
fn membership_change_rebuilds_accounts_without_losing_energy() {
    let platform = PlatformSpec::skylake();
    let mut daemon = Daemon::new(
        DaemonConfig::new(
            PolicyKind::FrequencyShares,
            Watts(40.0),
            four_apps(&platform),
        ),
        &platform,
    )
    .unwrap();
    daemon.attach_energy(EnergyLedger::new());
    drive(&mut daemon, &platform, 5.0);
    let wh_before = daemon.energy().unwrap().wh("gcc").expect("tracked");
    assert!(wh_before > 0.0);

    daemon.remove_app("gcc").expect("departing app");
    drive(&mut daemon, &platform, 5.0);
    let ledger = daemon.take_energy().unwrap();
    assert_eq!(
        ledger.wh("gcc").unwrap(),
        wh_before,
        "departed app's account is frozen, not dropped"
    );
    assert!(ledger.wh("leela").unwrap() > 0.0, "survivors keep accruing");
}
