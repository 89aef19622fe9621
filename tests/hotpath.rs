//! Golden-replay and memory-discipline guarantees for the control hot
//! path (DESIGN.md §11).
//!
//! The scratch-arena refactor must not change a single control decision:
//! these tests replay deterministic synthetic telemetry streams through
//! every policy (plus the RAPL baseline and the resilience ladder) and
//! compare the serialized `ControlAction` stream against fixtures
//! generated from the pre-refactor controller. Regenerate with
//! `GOLDEN_REGEN=1 cargo test --test hotpath` — but only intentionally:
//! a diff here means the controller's behaviour changed.
//!
//! The synthetic-telemetry harness and scenario matrix live in
//! `common/mod.rs`.

mod common;

use common::*;
use pap_alloccount::{count_events, AllocCounter, CountingAlloc};
use pap_model::TranslationKind;
use pap_simcpu::chip::Chip;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::health::SensorId;
use pap_telemetry::sampler::Sample;
use pap_workloads::engine::RunningApp;
use pap_workloads::spec;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, SimBackend};
use powerd::resilience::{DegradationLevel, ResilienceConfig, ResilientDaemon};

use std::fmt::Write as _;

/// Count every heap allocation in this test binary, per thread, so the
/// zero-alloc steady-state assertion below is a real measurement.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Replay `STEPS` synthetic intervals through a daemon and serialize
/// every action.
fn replay_daemon(
    policy: PolicyKind,
    platform: &PlatformSpec,
    apps: Vec<AppSpec>,
    translation: TranslationKind,
) -> String {
    let limit = Watts(45.0);
    let mut config = DaemonConfig::new(policy, limit, apps.clone());
    config.translation = translation;
    let mut d = Daemon::new(config, platform).expect("valid golden config");
    let mut out = String::new();
    fmt_action(0, d.initial().view(), &mut out);
    for i in 0..STEPS {
        let s = synth_sample(i, platform, &apps, limit);
        let _ = d.try_step_view(&s);
        fmt_action(i + 1, d.action(), &mut out);
    }
    out
}

/// Replay the resilience ladder: healthy → per-core power lost
/// (FrequencyOnly) → package power lost (UniformCap) → recovery.
fn replay_ladder() -> String {
    let platform = PlatformSpec::ryzen();
    let apps = ryzen_apps();
    let limit = Watts(45.0);
    let config = DaemonConfig::new(PolicyKind::PowerShares, limit, apps.clone());
    let mut d = ResilientDaemon::new(config, &platform, ResilienceConfig::default())
        .expect("valid ladder config");
    let mut out = String::new();
    fmt_action(0, d.initial().view(), &mut out);
    for i in 0..STEPS {
        let mut s = synth_sample(i, &platform, &apps, limit);
        if (50..130).contains(&i) {
            let cores = s.cores.len();
            s.health.missing.extend((0..cores).map(SensorId::CorePower));
        }
        if (90..130).contains(&i) {
            s.health.missing.push(SensorId::PackagePower);
        }
        let a = d.step(&s).to_owned();
        let _ = write!(out, "L{} ", d.level());
        fmt_action(i + 1, a.view(), &mut out);
    }
    out
}

#[test]
fn golden_replay_all_policies_naive() {
    for (name, policy, platform, apps) in policy_scenarios() {
        let actual = replay_daemon(policy, &platform, apps, TranslationKind::Naive);
        check_golden(&format!("{name}_naive"), &actual);
    }
}

#[test]
fn golden_replay_all_policies_online() {
    for (name, policy, platform, apps) in policy_scenarios() {
        let actual = replay_daemon(policy, &platform, apps, TranslationKind::Online);
        check_golden(&format!("{name}_online"), &actual);
    }
}

#[test]
fn golden_replay_resilience_ladder() {
    check_golden("resilience_ladder", &replay_ladder());
}

/// The hot-path guarantee: once warmed up, `Daemon::try_step_view`
/// performs **zero heap allocations per step** for every policy under
/// both translation models (observer detached), on the hold path too:
/// every 10th measured sample is truncated below the highest app core,
/// so the daemon holds its last action and returns the typed error.
/// Samples are synthesized outside the measured window; only the
/// control step is counted.
#[test]
fn zero_alloc_steady_state() {
    const WARMUP: usize = 50;
    const MEASURED: usize = 100;
    for translation in [TranslationKind::Naive, TranslationKind::Online] {
        for (name, policy, platform, apps) in policy_scenarios() {
            let limit = Watts(45.0);
            let mut config = DaemonConfig::new(policy, limit, apps.clone());
            config.translation = translation;
            let mut d = Daemon::new(config, &platform).expect("valid config");
            d.initial();
            let top_core = apps.iter().map(|a| a.core).max().expect("apps");
            let samples: Vec<Sample> = (0..WARMUP + MEASURED)
                .map(|i| {
                    let mut s = synth_sample(i, &platform, &apps, limit);
                    if i >= WARMUP && (i - WARMUP).is_multiple_of(10) {
                        s.cores.truncate(top_core);
                    }
                    s
                })
                .collect();
            for s in &samples[..WARMUP] {
                d.try_step_view(s).expect("well-formed warmup sample");
            }
            for (i, s) in samples[WARMUP..].iter().enumerate() {
                let before = AllocCounter::snapshot();
                let held = d.try_step_view(s).is_err();
                let after = AllocCounter::snapshot();
                assert_eq!(
                    held,
                    i.is_multiple_of(10),
                    "{name}: only truncated samples err"
                );
                assert_eq!(
                    after.events_since(&before),
                    0,
                    "{name}/{translation:?}: step {} allocated on the hot path \
                     ({} allocs, {} reallocs, {} bytes)",
                    WARMUP + i,
                    after.allocs - before.allocs,
                    after.reallocs - before.reallocs,
                    after.bytes_since(&before),
                );
            }
        }
    }
}

/// A steady [`ResilientDaemon`] step at `Nominal` makes no heap
/// allocation: healthy samples whose counters and read-backs confirm
/// every command (the stream a working host produces) leave the ladder
/// idle, and the wrapper builds its action in reused buffers.
#[test]
fn zero_alloc_resilient_nominal_step() {
    for (name, policy, platform, apps) in policy_scenarios() {
        if policy == PolicyKind::RaplNative {
            continue; // no frequency-shares fallback to validate
        }
        let limit = Watts(45.0);
        let config = DaemonConfig::new(policy, limit, apps.clone());
        let mut d = ResilientDaemon::new(config, &platform, ResilienceConfig::default())
            .expect("valid config");
        let mut commanded = d.initial().freqs;
        for i in 0..150 {
            let mut s = synth_sample(i, &platform, &apps, limit);
            for (cs, &f) in s.cores.iter_mut().zip(&commanded) {
                cs.rates.active_freq = f;
                cs.requested_freq = f;
            }
            let (freqs, allocs) = count_events(|| d.step(&s).freqs);
            commanded.copy_from_slice(freqs);
            assert_eq!(d.level(), DegradationLevel::Nominal, "{name}");
            assert!(i < 50 || allocs == 0, "{name}: step {i} allocated");
        }
    }
}

/// One steady [`ControlLoop`] interval over a [`SimBackend`] — sample
/// into the loop's buffer, step the daemon, program the chip — makes no
/// heap allocation. The workloads run and the chip ticks outside the
/// measured window.
#[test]
fn zero_alloc_control_loop_interval() {
    let tick = Seconds(0.01);
    for (name, policy, platform, apps) in policy_scenarios() {
        let limit = Watts(45.0);
        let mut d = Daemon::new(DaemonConfig::new(policy, limit, apps.clone()), &platform)
            .expect("valid config");
        let mut chip = Chip::new(platform.clone());
        if policy == PolicyKind::RaplNative {
            chip.set_rapl_limit(Some(limit)).expect("RAPL range");
        }
        let mut running: Vec<_> = apps
            .iter()
            .map(|a| (a.core, RunningApp::looping(spec::GCC)))
            .collect();
        let mut lp = ControlLoop::new(SimBackend::new(chip), &mut d).expect("valid action");
        for interval in 0..15 {
            loop {
                let (backend, parked) = lp.split_mut();
                for (core, app) in running.iter_mut().filter(|(c, _)| !parked[*c]) {
                    app.run_on(backend.chip_mut(), *core, tick).unwrap();
                }
                if lp.advance(tick) {
                    break;
                }
            }
            let (sampled, allocs) = count_events(|| lp.control(&mut d).unwrap().is_some());
            assert!(sampled, "{name}: an interval elapsed");
            assert!(
                interval < 5 || allocs == 0,
                "{name}: interval {interval} allocated"
            );
        }
    }
}
