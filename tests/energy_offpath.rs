//! The energy/cost accounting layer must be strictly off-path, the same
//! guarantee the decision trace ships under: attaching an
//! [`EnergyLedger`] to a daemon changes *nothing* about the commanded
//! `ControlAction` stream — bit-identical actions per policy — while the
//! ledger itself ends the run with physically consistent contents
//! (per-app energy sums to package energy under activity attribution,
//! cost derives from the tariff).

mod common;

use common::{drive, four_apps, policy_platforms};
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::Watts;
use pap_telemetry::energy::{EnergyLedger, Tariff};
use powerd::config::{DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;

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
