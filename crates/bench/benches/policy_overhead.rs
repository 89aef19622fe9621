//! Control-loop overhead: one daemon step for each policy.
//!
//! The paper argues the policy should ultimately live in hardware for
//! low sampling overhead (§5); this bench quantifies the userspace cost —
//! a policy step must be negligible against the 1 s control interval.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::CoreRates;
use pap_telemetry::sampler::{CoreSample, Sample};
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority};
use powerd::daemon::Daemon;

fn sample(ncores: usize, pkg: f64) -> Sample {
    Sample {
        time: Seconds(10.0),
        interval: Seconds(1.0),
        package_power: Watts(pkg),
        cores_power: Watts(pkg - 12.0),
        cores: (0..ncores)
            .map(|i| CoreSample {
                rates: CoreRates {
                    active_freq: KiloHertz::from_mhz(1500 + 100 * (i as u64 % 10)),
                    c0_residency: 1.0,
                    ips: 1.5e9,
                },
                power: Some(Watts(3.0)),
                requested_freq: KiloHertz::from_mhz(2000),
            })
            .collect(),
        health: Default::default(),
    }
}

fn daemon(policy: PolicyKind, platform: &PlatformSpec) -> Daemon {
    let apps: Vec<AppSpec> = (0..platform.num_cores)
        .map(|i| {
            AppSpec::new(format!("app{i}"), i)
                .with_priority(if i % 2 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                })
                .with_shares(10 + 10 * i as u32)
                .with_baseline_ips(3e9)
        })
        .collect();
    let mut d =
        Daemon::new(DaemonConfig::new(policy, Watts(45.0), apps), platform).expect("valid daemon");
    d.initial();
    d
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("daemon_step");
    let sky = PlatformSpec::skylake();
    let ryz = PlatformSpec::ryzen();
    for (name, policy, platform) in [
        ("priority/skylake", PolicyKind::Priority, &sky),
        ("freq_shares/skylake", PolicyKind::FrequencyShares, &sky),
        ("perf_shares/skylake", PolicyKind::PerformanceShares, &sky),
        ("power_shares/ryzen", PolicyKind::PowerShares, &ryz),
        ("freq_shares/ryzen_3slot", PolicyKind::FrequencyShares, &ryz),
    ] {
        let s = sample(platform.num_cores, 52.0);
        g.bench_function(name, |b| {
            b.iter_batched(
                || daemon(policy, platform),
                |mut d| {
                    let _ = d.try_step_view(&s);
                    d.action().to_owned()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
