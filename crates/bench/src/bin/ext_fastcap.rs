//! Extension: FastCap face-off on the wide-chip simulator (DESIGN.md §15).
//!
//! Runs the FastCap optimizing allocator against the share, priority and
//! native-RAPL baselines on batch-stepped [`WideChip`] descriptors at 16,
//! 128 and 1024 cores. Every core hosts one synthetic app with its own
//! frequency *scalability*
//!
//! ```text
//! ips_i(f) = base_i · (α_i + (1 − α_i) · f / f_max)
//! ```
//!
//! — α near 1 models a memory-bound app whose progress barely responds
//! to frequency, α near 0 a compute-bound one. Under a uniform
//! frequency (what equal-share or RAPL capping produces) the speedups
//! `ips_i / base_i` spread with α, so Jain's fairness index over the
//! share-normalized speedups drops below 1. FastCap's efficiency-
//! weighted water-fill re-targets frequency at apps that still convert
//! hertz into progress, equalizing the speedups: its headline claim is
//! a *higher Jain fair-speedup at equal-or-better aggregate IPS*.
//!
//! Exits non-zero if, at 128 cores, FastCap's Jain fair-speedup falls
//! below the frequency-shares baseline, if its aggregate IPS collapses
//! (< 85 % of shares), or if its online package fit never reached
//! confidence (an unconfident run degenerates to the shares fallback
//! and proves nothing). Results land in `results/BENCH_fastcap.json`.

use std::fmt::Write as _;
use std::process::ExitCode;

use pap_bench::{f1, f3, par_map, Table};
use pap_model::{ModelConfig, TranslationKind};
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::counters::CoreRates;
use pap_telemetry::sampler::{CoreSample, Sample};
use pap_telemetry::stats::jain;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority};
use powerd::daemon::Daemon;

const CORE_COUNTS: [usize; 3] = [16, 128, 1024];
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::FastCap,
    PolicyKind::FrequencyShares,
    PolicyKind::Priority,
    PolicyKind::RaplNative,
];
/// Control intervals discarded while the loop and the online model
/// settle (the model's confidence gate needs the transient's frequency
/// spread), then measured.
const WARMUP_INTERVALS: usize = 30;
const MEASURE_INTERVALS: usize = 30;
/// Simulator ticks per 1 s control interval.
const TICKS_PER_INTERVAL: usize = 100;
const TICK: Seconds = Seconds(0.01);
/// Package budget per core (W). Between the wide descriptor's idle
/// floor and its ~8.5 W/core TDP, so the cap binds mid-grid and the
/// allocator has room to differentiate.
const LIMIT_W_PER_CORE: f64 = 3.8;

/// Frequency-scalability exponent of app `i`: a deterministic spread
/// over [0.15, 0.90] so every chip width carries the full mix of
/// compute-bound and memory-bound tenants.
fn alpha(i: usize) -> f64 {
    0.15 + 0.75 * ((i * 5) % 8) as f64 / 7.0
}

/// Peak (f = f_max) instruction rate of app `i`.
fn base_ips(i: usize) -> f64 {
    2.0e9 + 0.1e9 * ((i * 3) % 5) as f64
}

/// The synthetic scalability curve: progress at frequency `f`,
/// normalized to the app's own peak.
fn speedup(i: usize, f: KiloHertz, fmax: KiloHertz) -> f64 {
    let a = alpha(i);
    a + (1.0 - a) * f.khz() as f64 / fmax.khz() as f64
}

struct FaceOffResult {
    policy: &'static str,
    cores: usize,
    limit: Watts,
    /// Jain's index over mean share-normalized speedups (shares are
    /// equal, so this is the fair-speedup fairness directly).
    jain_fair_speedup: f64,
    /// Mean aggregate instruction throughput (GIPS).
    aggregate_gips: f64,
    mean_package_w: f64,
    mean_freq_mhz: f64,
    model_confident: bool,
}

fn run_face_off(policy: PolicyKind, n: usize) -> FaceOffResult {
    let spec = PlatformSpec::wide(n);
    let fmax = spec.grid.max();
    let limit = Watts(LIMIT_W_PER_CORE * n as f64);

    let apps: Vec<AppSpec> = (0..n)
        .map(|i| {
            AppSpec::new(format!("app{i}"), i)
                .with_shares(100)
                .with_priority(if i % 2 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                })
                .with_baseline_ips(base_ips(i))
        })
        .collect();
    let mut config = DaemonConfig::new(policy, limit, apps);
    config.translation = TranslationKind::Online;
    // The default deadband and model-confidence thresholds are sized
    // for the paper's 10-core / 85 W parts; the wide descriptors scale
    // the package linearly, so the absolute-watt gates scale with it.
    let scale = (n as f64 / 10.0).max(1.0);
    config.tuning.deadband_watts *= scale;
    let mut daemon = Daemon::new(config, &spec).expect("valid face-off config");
    let mut model_cfg = ModelConfig::default();
    model_cfg.power.max_residual_watts *= scale;
    model_cfg.power.drift_floor_watts *= scale;
    daemon.set_model_config(model_cfg);

    let mut chip = WideChip::new(spec.clone());
    if policy == PolicyKind::RaplNative {
        chip.set_rapl_limit(Some(limit))
            .expect("wide spec has RAPL");
    }
    for c in 0..n {
        chip.set_load(c, LoadDescriptor::nominal())
            .expect("core in range");
    }

    let action = daemon.initial();
    action.view().apply(&mut chip).expect("valid action");
    let mut parked = action.parked;

    let mut speedup_sum = vec![0.0f64; n];
    let mut gips_sum = 0.0;
    let mut power_sum = 0.0;
    let mut freq_sum = 0.0;
    let mut measured = 0usize;

    for interval in 0..WARMUP_INTERVALS + MEASURE_INTERVALS {
        chip.run_ticks(TICKS_PER_INTERVAL, TICK);

        // Telemetry for this interval, straight off the chip: the
        // synthetic scalability curve plays the workload engine's part.
        let cores: Vec<CoreSample> = (0..n)
            .map(|c| {
                let f = chip.effective_freq(c);
                let (active, c0, ips) = if parked[c] {
                    (KiloHertz::ZERO, 0.0, 0.0)
                } else {
                    (f, 1.0, base_ips(c) * speedup(c, f, fmax))
                };
                CoreSample {
                    rates: CoreRates {
                        active_freq: active,
                        c0_residency: c0,
                        ips,
                    },
                    power: None,
                    requested_freq: chip.requested_freq(c),
                }
            })
            .collect();
        let sample = Sample {
            time: Seconds((interval + 1) as f64),
            interval: Seconds(1.0),
            package_power: chip.package_power(),
            cores_power: chip.cores_power(),
            cores,
            health: Default::default(),
        };

        if interval >= WARMUP_INTERVALS {
            measured += 1;
            power_sum += sample.package_power.value();
            for (c, s) in speedup_sum.iter_mut().enumerate() {
                let r = &sample.cores[c].rates;
                *s += r.ips / base_ips(c);
                gips_sum += r.ips / 1e9;
                freq_sum += r.active_freq.khz() as f64 / 1000.0;
            }
        }

        let _ = daemon.try_step_view(&sample);
        let action = daemon.action();
        action.apply(&mut chip).expect("valid action");
        parked.copy_from_slice(action.parked);
    }

    let mean_speedups: Vec<f64> = speedup_sum
        .iter()
        .map(|s| s / measured.max(1) as f64)
        .collect();
    FaceOffResult {
        policy: policy.name(),
        cores: n,
        limit,
        jain_fair_speedup: jain(&mean_speedups),
        aggregate_gips: gips_sum / measured.max(1) as f64,
        mean_package_w: power_sum / measured.max(1) as f64,
        mean_freq_mhz: freq_sum / (measured.max(1) * n) as f64,
        model_confident: daemon.model_confident(),
    }
}

fn json_report(results: &[FaceOffResult]) -> String {
    let mut s = String::from("{\n  \"bench\": \"fastcap\",\n");
    let _ = writeln!(
        s,
        "  \"warmup_intervals\": {WARMUP_INTERVALS},\n  \
         \"measure_intervals\": {MEASURE_INTERVALS},\n  \"runs\": ["
    );
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"policy\": \"{}\", \"cores\": {}, \"limit_w\": {:.1}, \
             \"jain_fair_speedup\": {:.4}, \"aggregate_gips\": {:.2}, \
             \"mean_package_w\": {:.1}, \"mean_freq_mhz\": {:.1}, \
             \"model_confident\": {}}}{}",
            r.policy,
            r.cores,
            r.limit.value(),
            r.jain_fair_speedup,
            r.aggregate_gips,
            r.mean_package_w,
            r.mean_freq_mhz,
            r.model_confident,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let mut out_path = String::from("results/BENCH_fastcap.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown argument {other:?} (supported: --out PATH)"),
        }
    }

    let mut jobs = Vec::new();
    for &n in &CORE_COUNTS {
        for &policy in &POLICIES {
            jobs.push((policy, n));
        }
    }
    let results = par_map(jobs, |(policy, n)| run_face_off(policy, n));

    let mut t = Table::new(
        "FastCap face-off: Jain fair-speedup vs aggregate IPS on wide chips",
        &[
            "cores", "policy", "limit_w", "jain", "agg_gips", "pkg_w", "mhz", "model",
        ],
    );
    for r in &results {
        t.row(vec![
            r.cores.to_string(),
            r.policy.into(),
            f1(r.limit.value()),
            f3(r.jain_fair_speedup),
            f1(r.aggregate_gips),
            f1(r.mean_package_w),
            f1(r.mean_freq_mhz),
            if r.model_confident { "conf" } else { "naive" }.into(),
        ]);
    }
    println!("{t}");

    let find = |policy: &str, cores: usize| -> &FaceOffResult {
        results
            .iter()
            .find(|r| r.policy == policy && r.cores == cores)
            .expect("swept")
    };
    let mut failures = Vec::new();
    for &n in &CORE_COUNTS {
        let fast = find("fastcap", n);
        let shares = find("freq-shares", n);
        // The headline gate is pinned at 128 cores; the other widths
        // report but only fail on outright inversions beyond noise.
        if n == 128 {
            if fast.jain_fair_speedup < shares.jain_fair_speedup {
                failures.push(format!(
                    "128 cores: FastCap Jain {:.4} below frequency-shares {:.4}",
                    fast.jain_fair_speedup, shares.jain_fair_speedup
                ));
            }
            if fast.aggregate_gips < 0.85 * shares.aggregate_gips {
                failures.push(format!(
                    "128 cores: FastCap aggregate {:.1} GIPS collapsed below 85% of \
                     shares' {:.1} GIPS",
                    fast.aggregate_gips, shares.aggregate_gips
                ));
            }
            if !fast.model_confident {
                failures.push(
                    "128 cores: FastCap's package fit never became confident — the run \
                     degenerated to the shares fallback and gates nothing"
                        .into(),
                );
            }
        } else if fast.jain_fair_speedup < shares.jain_fair_speedup - 0.02 {
            failures.push(format!(
                "{n} cores: FastCap Jain {:.4} inverted below frequency-shares {:.4}",
                fast.jain_fair_speedup, shares.jain_fair_speedup
            ));
        }
        // Every policy must actually respect the cap it was given.
        for r in results.iter().filter(|r| r.cores == n) {
            if r.mean_package_w > r.limit.value() * 1.1 {
                failures.push(format!(
                    "{n} cores: {} ran {:.0} W against a {:.0} W limit",
                    r.policy,
                    r.mean_package_w,
                    r.limit.value()
                ));
            }
        }
    }

    let json = json_report(&results);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("Report written to {out_path}");

    if failures.is_empty() {
        println!(
            "PASS: FastCap holds the cap while beating the share baseline on \
             Jain fair-speedup without sacrificing aggregate IPS."
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
