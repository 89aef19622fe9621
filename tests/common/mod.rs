//! Shared integration-test harness. For the hot-path suite
//! (`hotpath.rs`): deterministic synthetic telemetry, the policy
//! scenario matrix, and golden-fixture plumbing — pure functions only,
//! so pre- and post-refactor replays see bit-identical inputs. For the
//! off-path suites (`observability.rs`, `energy_offpath.rs`): the
//! per-policy app mix and the closed-loop run that records every
//! commanded action.

#![allow(dead_code)]

use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::CoreRates;
use pap_telemetry::sampler::{CoreSample, Sample};
use pap_workloads::engine::RunningApp;
use pap_workloads::spec;
use powerd::config::{AppSpec, PolicyKind, Priority};
use powerd::daemon::{ActionView, ControlAction, Daemon};
use powerd::hw::{ControlLoop, SimBackend};
use powerd::runner::standalone_freq;

use std::fmt::Write as _;
use std::path::PathBuf;

pub const STEPS: usize = 200;

pub fn skylake_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::new("a0", 0)
            .with_shares(70)
            .with_priority(Priority::High)
            .with_baseline_ips(2.4e9),
        AppSpec::new("a1", 1)
            .with_shares(30)
            .with_priority(Priority::Low)
            .with_baseline_ips(1.8e9),
        AppSpec::new("a2", 2)
            .with_shares(50)
            .with_priority(Priority::High)
            .with_baseline_ips(2.0e9),
        AppSpec::new("a3", 3)
            .with_shares(10)
            .with_priority(Priority::Low)
            .with_baseline_ips(1.5e9),
    ]
}

pub fn ryzen_apps() -> Vec<AppSpec> {
    (0..6)
        .map(|i| {
            AppSpec::new(format!("r{i}"), i)
                .with_shares(10 + 15 * i as u32)
                .with_baseline_ips(2.0e9)
        })
        .collect()
}

pub fn baseline_for(apps: &[AppSpec], core: usize) -> Option<f64> {
    apps.iter().find(|a| a.core == core).map(|a| a.baseline_ips)
}

/// Deterministic synthetic active frequency for (step, core): a pure
/// function of its inputs so pre- and post-refactor replays see the
/// exact same telemetry.
pub fn synth_freq(i: usize, c: usize, platform: &PlatformSpec) -> KiloHertz {
    let lo = platform.grid.min().khz();
    let hi = platform.grid.max().khz();
    let span_steps = (hi - lo) / 100_000;
    let k = (i as u64 * 13 + c as u64 * 7) % span_steps.max(1);
    KiloHertz(lo + k * 100_000)
}

/// Deterministic synthetic sample for one control interval. Package
/// power follows a quadratic curve in total active GHz (so the online
/// model's package fit can become confident) plus a small wobble, and
/// crosses the limit in both directions so redistribution runs both
/// ways; per-core power appears only on per-core-power platforms.
pub fn synth_sample(i: usize, platform: &PlatformSpec, apps: &[AppSpec], limit: Watts) -> Sample {
    let total_ghz: f64 = (0..platform.num_cores)
        .filter(|&c| baseline_for(apps, c).is_some())
        .map(|c| synth_freq(i, c, platform).ghz())
        .sum();
    // Center the quadratic at the managed cores' mid-grid operating
    // point so the package power crosses the limit in both directions.
    let t0 = apps.len() as f64 * (platform.grid.min().ghz() + platform.grid.max().ghz()) / 2.0;
    let wobble = (((i * 37) % 17) as f64 - 8.0) * 0.25;
    let pkg =
        limit.value() + 1.2 * (total_ghz - t0) + 0.18 * (total_ghz * total_ghz - t0 * t0) + wobble;
    let cores = (0..platform.num_cores)
        .map(|c| {
            let managed = baseline_for(apps, c);
            let freq = if managed.is_some() {
                synth_freq(i, c, platform)
            } else {
                KiloHertz::ZERO
            };
            let ips = managed.map_or(0.0, |b| b * (0.1 + 0.3 * freq.ghz()));
            let power = if platform.per_core_power {
                Some(Watts(1.5 + 2.2 * freq.ghz() + ((i + c) % 5) as f64 * 0.3))
            } else {
                None
            };
            CoreSample {
                rates: CoreRates {
                    active_freq: freq,
                    c0_residency: 1.0,
                    ips,
                },
                power,
                requested_freq: freq,
            }
        })
        .collect();
    Sample {
        time: Seconds((i + 1) as f64),
        interval: Seconds(1.0),
        package_power: Watts(pkg),
        cores_power: Watts((pkg - 10.0).max(0.0)),
        cores,
    }
}

pub fn fmt_action(i: usize, a: ActionView<'_>, out: &mut String) {
    let _ = write!(out, "{i}:");
    for f in a.freqs {
        let _ = write!(out, " {}", f.khz());
    }
    out.push_str(" |");
    for &p in a.parked {
        out.push(if p { 'P' } else { '.' });
    }
    out.push('\n');
}

pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/hotpath")
        .join(format!("{name}.txt"))
}

pub fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "control stream for '{name}' diverged from the pre-refactor golden fixture"
    );
}

pub fn policy_scenarios() -> Vec<(&'static str, PolicyKind, PlatformSpec, Vec<AppSpec>)> {
    vec![
        (
            "skylake_priority",
            PolicyKind::Priority,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "skylake_freq",
            PolicyKind::FrequencyShares,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "skylake_perf",
            PolicyKind::PerformanceShares,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "skylake_rapl",
            PolicyKind::RaplNative,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "ryzen_power",
            PolicyKind::PowerShares,
            PlatformSpec::ryzen(),
            ryzen_apps(),
        ),
        (
            "ryzen_freq",
            PolicyKind::FrequencyShares,
            PlatformSpec::ryzen(),
            ryzen_apps(),
        ),
    ]
}

/// Every policy kind, with the platform it runs on natively.
pub fn policy_platforms() -> Vec<(PolicyKind, PlatformSpec)> {
    vec![
        (PolicyKind::RaplNative, PlatformSpec::skylake()),
        (PolicyKind::Priority, PlatformSpec::skylake()),
        (PolicyKind::FrequencyShares, PlatformSpec::skylake()),
        (PolicyKind::PerformanceShares, PlatformSpec::skylake()),
        (PolicyKind::PowerShares, PlatformSpec::ryzen()),
    ]
}

pub fn four_apps(platform: &PlatformSpec) -> Vec<AppSpec> {
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
/// commanded action.
pub fn drive(daemon: &mut Daemon, platform: &PlatformSpec, seconds: f64) -> Vec<ControlAction> {
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

    let mut lp = ControlLoop::new(SimBackend::new(chip), daemon).expect("valid action");

    let dt = Seconds(0.002);
    let mut actions = Vec::new();
    while lp.elapsed().value() < seconds {
        let (backend, parked) = lp.split_mut();
        for (core, app) in apps.iter_mut() {
            if !parked[*core] {
                app.run_on(backend.chip_mut(), *core, dt).unwrap();
            }
        }
        if lp.advance(dt) && lp.control(daemon).expect("valid action").is_some() {
            actions.push(daemon.action().to_owned());
        }
    }
    actions
}
