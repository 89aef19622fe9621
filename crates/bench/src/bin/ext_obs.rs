//! Extension: observability overhead & off-path guarantee bench.
//!
//! The decision trace (`powerd::obs`) must be strictly off-path: with no
//! observer attached, every policy's commanded `ControlAction` stream is
//! bit-identical to a build that never heard of observability, and with
//! an observer attached the control decisions still must not change —
//! only a record is appended per interval. This bench enforces both,
//! plus a cost bound, for every policy on its native platform:
//!
//! * run each (policy, platform) simulation twice — observer off and
//!   observer on — from identical initial state, and require the two
//!   commanded frequency/park streams to be **bit-identical**;
//! * time the daemon step in both runs and fail if tracing pushes the
//!   mean step latency above a generous ceiling (1 ms — the real
//!   control interval is 1 s, so even this is 0.1% duty);
//! * exercise both sinks: aggregate metrics across all traced runs into
//!   one Prometheus exposition and print a JSONL record sample.
//!
//! CI runs it as a smoke test:
//! `cargo run --release -p pap-bench --bin ext_obs`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pap_bench::Table;
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::metrics::ControlMetrics;
use pap_telemetry::sampler::{Sample, Sampler};
use pap_workloads::engine::RunningApp;
use pap_workloads::phases::PhasedProfile;
use pap_workloads::spec;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority};
use powerd::daemon::Daemon;
use powerd::obs::DecisionTrace;
use powerd::runner::standalone_freq;

const DURATION: Seconds = Seconds(60.0);
const TICK: Seconds = Seconds(0.002);
/// Ceiling on the mean traced step latency. The control interval is
/// 1 s; a traced decision costing more than 1 ms would be 0.1% duty and
/// means something pathological crept onto the hot path.
const MAX_TRACED_STEP_SECONDS: f64 = 1e-3;

struct Outcome {
    /// Commanded frequencies, one row per control interval.
    freqs: Vec<Vec<KiloHertz>>,
    /// Park flags, one row per control interval.
    parked: Vec<Vec<bool>>,
    /// Mean daemon step wall time (s).
    mean_step: f64,
    /// The decision trace, when observing.
    trace: Option<DecisionTrace>,
}

fn run(
    policy: PolicyKind,
    platform: &PlatformSpec,
    observe: Option<Arc<ControlMetrics>>,
) -> Outcome {
    let mix = [
        ("cactus", spec::CACTUS_BSSN, 70u32),
        ("lbm", spec::LBM, 50),
        ("gcc", spec::GCC, 50),
        ("leela", spec::LEELA, 30),
    ];
    let apps: Vec<AppSpec> = mix
        .iter()
        .enumerate()
        .map(|(core, (name, profile, shares))| {
            AppSpec::new(name.to_string(), core)
                .with_priority(if core == 3 {
                    Priority::Low
                } else {
                    Priority::High
                })
                .with_shares(*shares)
                .with_baseline_ips(profile.ips(standalone_freq(platform, profile)))
        })
        .collect();
    let config = DaemonConfig::new(policy, Watts(40.0), apps);

    let mut chip = Chip::new(platform.clone());
    if policy == PolicyKind::RaplNative {
        chip.set_rapl_limit(Some(Watts(40.0))).expect("RAPL range");
    }
    let mut daemon = Daemon::new(config, platform).expect("valid config");
    if let Some(metrics) = observe {
        daemon.attach_observer(DecisionTrace::with_metrics(metrics));
    }
    let mut engines: Vec<RunningApp> = mix
        .iter()
        .enumerate()
        .map(|(i, (_, profile, _))| {
            RunningApp::from_phased(
                PhasedProfile::with_generated_phases(*profile, 42 ^ (i as u64) << 8, 0.1),
                true,
            )
        })
        .collect();

    let action = daemon.initial();
    action.view().apply(&mut chip).expect("valid action");
    let mut parked = action.parked;

    let mut sampler = Sampler::new(&chip);
    let mut sample = Sample::empty();
    let mut freqs_log = Vec::new();
    let mut parked_log = Vec::new();
    let mut step_seconds = 0.0;
    let mut steps = 0u32;
    let mut t = 0.0;
    let mut next_control = 1.0;
    while t < DURATION.value() {
        for (i, app) in engines.iter_mut().enumerate() {
            if !parked[i] {
                app.run_on(&mut chip, i, TICK).expect("core in range");
            }
        }
        chip.tick(TICK);
        t += TICK.value();

        if t + 1e-9 >= next_control {
            next_control += 1.0;
            if sampler.sample_into(&chip, &mut sample) {
                let started = Instant::now();
                let _ = daemon.try_step_view(&sample);
                let action = daemon.action().to_owned();
                step_seconds += started.elapsed().as_secs_f64();
                steps += 1;
                action.view().apply(&mut chip).expect("valid action");
                parked.copy_from_slice(&action.parked);
                freqs_log.push(action.freqs);
                parked_log.push(action.parked);
            }
        }
    }

    Outcome {
        freqs: freqs_log,
        parked: parked_log,
        mean_step: step_seconds / steps.max(1) as f64,
        trace: daemon.take_observer(),
    }
}

fn main() -> ExitCode {
    let skylake = PlatformSpec::skylake();
    let ryzen = PlatformSpec::ryzen();
    let cases: &[(PolicyKind, &PlatformSpec, &str)] = &[
        (PolicyKind::RaplNative, &skylake, "skylake"),
        (PolicyKind::Priority, &skylake, "skylake"),
        (PolicyKind::FrequencyShares, &skylake, "skylake"),
        (PolicyKind::PerformanceShares, &skylake, "skylake"),
        (PolicyKind::PowerShares, &ryzen, "ryzen"),
    ];

    let metrics = Arc::new(ControlMetrics::new());
    let mut t = Table::new(
        "Decision-trace overhead: observer off vs on (60 s, 1 s intervals)",
        &[
            "policy",
            "platform",
            "actions",
            "identical",
            "off step (us)",
            "on step (us)",
            "records",
        ],
    );

    let mut all_identical = true;
    let mut worst_traced = 0.0f64;
    let mut sample_record = None;
    for (policy, platform, plat_name) in cases {
        let off = run(*policy, platform, None);
        let on = run(*policy, platform, Some(metrics.clone()));
        let identical = off.freqs == on.freqs && off.parked == on.parked;
        all_identical &= identical;
        worst_traced = worst_traced.max(on.mean_step);
        let trace = on.trace.expect("observer attached");
        if sample_record.is_none() {
            sample_record = trace.records().last().map(|r| r.to_json());
        }
        t.row(vec![
            policy.name().into(),
            (*plat_name).into(),
            off.freqs.len().to_string(),
            if identical { "yes" } else { "DIVERGED" }.into(),
            format!("{:.1}", off.mean_step * 1e6),
            format!("{:.1}", on.mean_step * 1e6),
            trace.len().to_string(),
        ]);
    }
    println!("{t}");

    println!("aggregated metrics across all traced runs:");
    print!("{}", metrics.expose());
    if let Some(json) = sample_record {
        println!("\nsample JSONL record:\n{json}");
    }

    let mut ok = true;
    if !all_identical {
        println!("FAIL: attaching an observer changed a policy's commanded actions");
        ok = false;
    } else {
        println!(
            "\nverdict: all {} policies bit-identical with tracing on",
            cases.len()
        );
    }
    if worst_traced > MAX_TRACED_STEP_SECONDS {
        println!(
            "FAIL: worst traced mean step {:.1} us exceeds the {:.0} us ceiling",
            worst_traced * 1e6,
            MAX_TRACED_STEP_SECONDS * 1e6
        );
        ok = false;
    } else {
        println!(
            "verdict: worst traced mean step {:.1} us (ceiling {:.0} us)",
            worst_traced * 1e6,
            MAX_TRACED_STEP_SECONDS * 1e6
        );
    }
    if metrics.decisions.get() == 0 {
        println!("FAIL: metrics sink recorded no decisions");
        ok = false;
    }
    if ok {
        println!("PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
