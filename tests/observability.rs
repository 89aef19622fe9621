//! End-to-end tests for the decision-trace observability layer and the
//! hot-path bugfixes that shipped with it:
//!
//! * a malformed (short) telemetry sample no longer panics the daemon —
//!   it degrades to holding the previous action and reports a typed
//!   error / trace event instead;
//! * `resume_from` snaps off-grid operating points onto the P-state
//!   grid under every policy;
//! * observability is strictly off-path: with no observer attached the
//!   commanded `ControlAction` stream is untouched, and attaching one
//!   changes nothing but the presence of records (bit-identity checked
//!   per policy, RAPL baseline included);
//! * the resilience ladder and the cluster arbiter emit records too,
//!   and serial vs parallel cluster execution produces identical ones.

mod common;

use std::sync::Arc;

use common::{drive, four_apps, policy_platforms};
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::CoreRates;
use pap_telemetry::health::SensorId;
use pap_telemetry::metrics::ControlMetrics;
use pap_telemetry::sampler::Sample;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::{ControlAction, Daemon, DaemonError};
use powerd::hw::{ControlLoop, SimBackend};
use powerd::obs::{DecisionEvent, DecisionTrace};
use powerd::resilience::{DegradationLevel, ResilienceConfig, ResilientDaemon};

/// Truncate a sample's per-core slices (a torn/partial telemetry read).
fn truncate(sample: &Sample, cores: usize) -> Sample {
    let mut s = sample.clone();
    s.cores.truncate(cores);
    s
}

#[test]
fn short_sample_degrades_instead_of_panicking() {
    for (policy, platform) in policy_platforms() {
        let config = DaemonConfig::new(policy, Watts(40.0), four_apps(&platform));
        let mut daemon = Daemon::new(config, &platform).expect("valid config");
        daemon.attach_observer(DecisionTrace::new());
        let good = drive(&mut daemon, &platform, 5.0);
        let last = good.last().expect("ran at least one interval").clone();

        // Build a plausible sample, then tear off cores 2..: the app
        // pinned to core 3 can no longer be observed.
        let full = Sample {
            time: Seconds(6.0),
            interval: Seconds(1.0),
            package_power: Watts(35.0),
            cores_power: Watts(25.0),
            cores: (0..platform.num_cores)
                .map(|_| pap_telemetry::sampler::CoreSample {
                    rates: CoreRates {
                        active_freq: KiloHertz::from_mhz(2000),
                        c0_residency: 1.0,
                        ips: 1e9,
                    },
                    power: Some(Watts(3.0)),
                    requested_freq: KiloHertz::from_mhz(2000),
                })
                .collect(),
            health: Default::default(),
        };
        let short = truncate(&full, 2);

        // The step reports the shortfall precisely (the first app whose
        // pinned core the sample does not cover sits on core 2).
        let err = daemon
            .try_step_view(&short)
            .expect_err("short sample must err");
        assert!(
            matches!(
                err,
                DaemonError::ShortSample {
                    expected: 3,
                    got: 2
                }
            ),
            "{policy:?}: unexpected error {err}"
        );

        // The action in force is the previous decision, held and sized
        // for the whole chip as always.
        let held = daemon.action();
        assert_eq!(held.freqs.len(), platform.num_cores, "{policy:?}");
        assert_eq!(
            held,
            last.view(),
            "{policy:?}: a malformed sample must hold the previous action"
        );

        // And the trace says why.
        let trace = daemon.take_observer().expect("observer attached");
        let record = trace.records().last().expect("degraded step recorded");
        let kinds: Vec<&str> = record.events.iter().map(|e| e.kind()).collect();
        assert!(
            kinds.contains(&"short_sample") && kinds.contains(&"held"),
            "{policy:?}: events {kinds:?}"
        );
    }
}

#[test]
fn resume_from_snaps_off_grid_points_to_the_grid() {
    for (policy, platform) in policy_platforms() {
        let config = DaemonConfig::new(policy, Watts(40.0), four_apps(&platform));
        let mut daemon = Daemon::new(config, &platform).expect("valid config");
        // Programs the initial distribution, which `resume_from` replaces.
        let lp = ControlLoop::new(SimBackend::new(Chip::new(platform.clone())), &mut daemon)
            .expect("valid action");

        // A firmware-throttled chip reports operating points nowhere
        // near the grid: off-step, below the floor, above the ceiling.
        let observed: Vec<KiloHertz> = (0..platform.num_cores)
            .map(|c| match c % 3 {
                0 => KiloHertz(1_234_567),
                1 => KiloHertz(123),
                _ => KiloHertz(9_999_999),
            })
            .collect();
        daemon.resume_from(&observed);

        for (i, &f) in daemon.current_targets().iter().enumerate() {
            assert!(
                platform.grid.contains(f),
                "{policy:?}: app {i} resumed to off-grid {f:?}"
            );
        }

        // The action in force is the resumed operating point, not the
        // initial distribution: on the grid for every core, no app
        // parked, and (without shared P-state slots to cluster into)
        // each app's core at exactly its resumed target.
        let action = daemon.action();
        for (c, &f) in action.freqs.iter().enumerate() {
            assert!(
                platform.grid.contains(f),
                "{policy:?}: core {c} resumed to off-grid {f:?}"
            );
        }
        for (i, app) in daemon.config().apps.iter().enumerate() {
            assert!(!action.parked[app.core], "{policy:?}: app {i} parked");
            if platform.shared_pstate_slots.is_none() {
                assert_eq!(
                    action.freqs[app.core],
                    daemon.current_targets()[i],
                    "{policy:?}: app {i} action differs from its resumed target"
                );
            }
        }

        // The daemon must keep stepping normally from the resumed state.
        let actions = drive_resumed(lp, &mut daemon, &platform, 3.0);
        assert!(!actions.is_empty());
    }
}

/// Like [`drive`] but on a loop built before the daemon resumed (so
/// `initial()` does not overwrite the resumed state); loads the first
/// cores with a nominal workload under the daemon's control.
fn drive_resumed(
    mut lp: ControlLoop<SimBackend>,
    daemon: &mut Daemon,
    platform: &PlatformSpec,
    seconds: f64,
) -> Vec<ControlAction> {
    let dt = Seconds(0.002);
    let mut actions = Vec::new();
    while lp.elapsed().value() < seconds {
        let chip = lp.split_mut().0.chip_mut();
        for core in 0..platform.num_cores.min(4) {
            chip.set_load(core, pap_simcpu::power::LoadDescriptor::nominal())
                .unwrap();
        }
        if lp.advance(dt) && lp.control(daemon).expect("valid action").is_some() {
            actions.push(daemon.action().to_owned());
        }
    }
    actions
}

#[test]
fn observer_is_strictly_off_path_for_every_policy() {
    for (policy, platform) in policy_platforms() {
        let config = DaemonConfig::new(policy, Watts(40.0), four_apps(&platform));

        let mut plain = Daemon::new(config.clone(), &platform).expect("valid config");
        let baseline = drive(&mut plain, &platform, 30.0);

        let mut observed = Daemon::new(config, &platform).expect("valid config");
        observed.attach_observer(DecisionTrace::with_metrics(Arc::new(ControlMetrics::new())));
        let traced = drive(&mut observed, &platform, 30.0);

        assert_eq!(
            baseline, traced,
            "{policy:?}: attaching an observer changed the commanded actions"
        );
        let trace = observed.take_observer().expect("observer attached");
        assert_eq!(
            trace.len(),
            traced.len(),
            "{policy:?}: one record per control interval"
        );
        let metrics = trace.metrics().expect("metrics attached");
        assert_eq!(metrics.decisions.get(), traced.len() as u64);
    }
}

#[test]
fn resilience_ladder_transitions_are_recorded() {
    let mut platform = PlatformSpec::ryzen();
    platform.shared_pstate_slots = None;
    let apps = vec![
        AppSpec::new("a", 0).with_shares(70).with_baseline_ips(2e9),
        AppSpec::new("b", 1).with_shares(30).with_baseline_ips(2e9),
    ];
    let config = DaemonConfig::new(PolicyKind::PowerShares, Watts(30.0), apps);
    let rcfg = ResilienceConfig::default();
    let mut daemon = ResilientDaemon::new(config, &platform, rcfg).expect("valid config");
    daemon.attach_observer(DecisionTrace::new());

    // No frequency read-back: the request register is missing on every
    // core, so the write path gets no verdict.
    let obs = |t: f64, core0_power: Option<f64>| {
        let core = pap_telemetry::sampler::CoreSample {
            rates: CoreRates {
                active_freq: KiloHertz::from_mhz(2000),
                c0_residency: 1.0,
                ips: 1e9,
            },
            power: Some(Watts(3.0)),
            requested_freq: KiloHertz::ZERO,
        };
        let mut s = Sample {
            time: Seconds(t),
            interval: Seconds(1.0),
            package_power: Watts(25.0),
            cores: vec![core; platform.num_cores],
            ..Sample::empty()
        };
        let core0_dark = core0_power.is_none().then_some(SensorId::CorePower(0));
        s.health.missing = (0..platform.num_cores)
            .map(SensorId::FreqActuator)
            .chain(core0_dark)
            .collect();
        s
    };

    let mut t = 0.0;
    for _ in 0..3 {
        t += 1.0;
        daemon.step(&obs(t, Some(3.0)));
    }
    assert_eq!(daemon.level(), DegradationLevel::Nominal);
    // Core 0's power sensor goes dark: demote_after = 3 consecutive
    // failures demote power shares to frequency shares.
    for _ in 0..rcfg.demote_after {
        t += 1.0;
        daemon.step(&obs(t, None));
    }
    assert_eq!(daemon.level(), DegradationLevel::FrequencyOnly);

    let trace = daemon.take_observer().expect("observer attached");
    let transition = trace
        .records()
        .iter()
        .flat_map(|r| &r.events)
        .find_map(|e| match e {
            DecisionEvent::LadderTransition { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .expect("demotion must be traced");
    assert_eq!(transition, ("nominal", "freq-only"));

    // Records carry the layer and ladder level.
    let last = trace.records().last().unwrap();
    assert_eq!(last.source, "resilience");
    assert_eq!(last.level, Some("freq-only"));
    assert_eq!(last.policy, "freq-shares", "fallback policy is reported");
}

#[test]
fn cluster_records_identical_serial_and_parallel() {
    use clusterd::admission::{AppRequest, DemandClass};
    use clusterd::cluster::{Cluster, ClusterConfig};
    use pap_scale::{run_sharded, ScaleConfig};

    let build = || {
        let mut cfg = ClusterConfig::new(3, PolicyKind::FrequencyShares, Watts(150.0));
        cfg.rebalance_every = 2;
        let mut c = Cluster::new(cfg).unwrap();
        for i in 0..9 {
            let demand = [
                DemandClass::Heavy,
                DemandClass::Moderate,
                DemandClass::Light,
            ][i % 3];
            c.admit(&AppRequest::new(
                format!("app{i}"),
                20 + 10 * (i as u32 % 4),
                demand,
            ))
            .unwrap();
        }
        c.attach_observer(DecisionTrace::with_metrics(Arc::new(ControlMetrics::new())));
        c
    };

    let mut serial = build();
    let mut parallel = build();
    serial.run(8);
    run_sharded(&mut parallel, 8, &ScaleConfig::default());

    let s = serial.take_observer().expect("observer attached");
    let p = parallel.take_observer().expect("observer attached");
    assert_eq!(s.len(), 4, "one record per rebalance round");
    assert_eq!(s.len(), p.len());
    for (sr, pr) in s.records().iter().zip(p.records()) {
        // Latency is wall-clock and legitimately differs; every decision
        // field must not.
        assert_eq!(sr.time, pr.time);
        assert_eq!(sr.source, "cluster");
        assert_eq!(sr.budget, pr.budget);
        assert_eq!(sr.measured, pr.measured);
        assert_eq!(sr.model_confident, pr.model_confident);
        assert_eq!(sr.events, pr.events);
    }
    // The metrics registry aggregates the same rounds.
    let metrics = s.metrics().expect("metrics attached");
    assert_eq!(metrics.rebalances.get(), 4);
}

#[test]
fn jsonl_sink_emits_one_parseable_line_per_record() {
    let platform = PlatformSpec::skylake();
    let config = DaemonConfig::new(
        PolicyKind::FrequencyShares,
        Watts(40.0),
        four_apps(&platform),
    );
    let mut daemon = Daemon::new(config, &platform).expect("valid config");
    daemon.attach_observer(DecisionTrace::new());
    drive(&mut daemon, &platform, 10.0);

    let trace = daemon.take_observer().expect("observer attached");
    let jsonl = trace.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), trace.len());
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"source\":\"daemon\""));
        assert!(line.contains("\"policy\":\"freq-shares\""));
        assert!(line.contains("\"apps\":["));
    }
}
