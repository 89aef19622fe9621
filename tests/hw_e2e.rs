//! End-to-end over the root `linux-hw` feature: the daemon drives a
//! [`pap_hw::LinuxBackend`] against a mock AMD sysfs tree while an
//! attached [`EnergyLedger`] prices the consumed energy. This is the
//! root-workspace proof that the feature forwarding
//! (`linux-hw = ["dep:pap-hw", "pap-tenants/linux-hw"]`) wires the real
//! hardware stack into the same control loop the simulator uses.
#![cfg(feature = "linux-hw")]

use pap_hw::cpufreq::WriteMode;
use pap_hw::mock::MockSysfs;
use pap_hw::{BackendClock, BackendOptions, LinuxBackend};
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::energy::{EnergyLedger, Tariff};
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, PowerBackend};

#[test]
fn daemon_prices_energy_on_an_amd_mock_host() {
    let mock = MockSysfs::amd(2);
    let backend = LinuxBackend::probe(
        mock.root(),
        BackendOptions {
            dry_run: false,
            write_mode: WriteMode::Auto,
            clock: BackendClock::manual(),
            no_offline: false,
        },
    )
    .expect("probe amd fixture");

    let apps = vec![
        AppSpec::new("web", 0)
            .with_shares(70)
            .with_baseline_ips(3e9),
        AppSpec::new("bg", 1).with_shares(30).with_baseline_ips(3e9),
    ];
    let mut daemon = Daemon::new(
        DaemonConfig::new(PolicyKind::FrequencyShares, Watts(20.0), apps),
        backend.platform(),
    )
    .expect("valid daemon");
    daemon.attach_energy(EnergyLedger::with_tariff(Tariff::new(0.25)));

    // The "host" burns a flat 10 W package (socket energy counter) and
    // 4 W per core, charged each tick.
    let tick = Seconds(0.1);
    let mut lp = ControlLoop::new(backend, &mut daemon).expect("initial action programs");
    while lp.elapsed() < Seconds(20.0) {
        mock.add_socket_energy_uj((10.0 * tick.value() * 1e6) as u64);
        for c in 0..2 {
            mock.add_core_energy_uj(c, (4.0 * tick.value() * 1e6) as u64);
        }
        if lp.advance(tick) {
            lp.control(&mut daemon).expect("loop completes");
        }
    }

    let ledger = daemon.take_energy().expect("ledger attached");
    // ~10 W for ~19 s of sampled intervals ≈ 0.05 Wh at the package.
    let pkg_wh = ledger.package_wh();
    assert!(
        (0.03..=0.06).contains(&pkg_wh),
        "package energy {pkg_wh} Wh out of range"
    );
    // Every app core carries a measured 4 W meter, so attribution is
    // measured (4 W each), not an activity share of the 10 W package.
    for name in ["web", "bg"] {
        let wh = ledger.wh(name).expect("account exists");
        let watts = wh * 3600.0 / ledger.elapsed_s();
        assert!(
            (watts - 4.0).abs() < 0.5,
            "{name}: measured attribution expected ~4 W, got {watts:.2}"
        );
    }
    let cost = ledger.package_cost_usd().expect("tariff set");
    assert!((cost - pkg_wh / 1000.0 * 0.25).abs() < 1e-12);

    // The daemon's writes landed in the mock tree (schedutil host: the
    // backend clamps scaling_max_freq rather than using setspeed).
    for c in 0..2 {
        let f = mock
            .root()
            .read_u64(&format!(
                "sys/devices/system/cpu/cpu{c}/cpufreq/scaling_max_freq"
            ))
            .expect("clamp written");
        assert!((800_000..=3_000_000).contains(&f), "on-grid clamp {f}");
    }
}
