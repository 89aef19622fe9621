//! Extension: hot-path memory discipline bench (DESIGN.md §11).
//!
//! Installs a counting global allocator and drives every policy's
//! steady-state control loop (observer detached, naive and online
//! translation) through `Daemon::try_step_view`, proving **zero heap
//! allocations per step** and measuring steps/sec for both the borrowed
//! view and the owned copy: the owned column is the same step plus
//! `ActionView::to_owned` on every interval.
//!
//! Exits non-zero if any scenario allocates in steady state, or if the
//! zero-alloc view is more than 10 % slower than the view plus its
//! owned copy (the copy only adds work; a view that falls behind it is
//! a regression). Results land in
//! `results/BENCH_hotpath.json` for CI to archive.
//!
//! A second section sweeps the batch-stepped [`WideChip`] simulator
//! against the per-core-struct [`Chip`] at 128/512/1024 cores under an
//! identical closed-loop drive (periodic retargeting, mixed loads,
//! RAPL enforcement), checks the two stay bit-identical, and gates the
//! ≥4× tick-throughput speedup at 1024 cores that justifies keeping a
//! second simulator core (DESIGN.md §15).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use pap_alloccount::{AllocCounter, CountingAlloc};
use pap_bench::{f1, Table};
use pap_model::TranslationKind;
use pap_simcpu::chip::Chip;
use pap_simcpu::core::CoreCounters as SimCounters;
use pap_simcpu::cstate::CState;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::counters::CoreRates;
use pap_telemetry::sampler::{CoreSample, Sample};
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority};
use powerd::daemon::Daemon;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steps to run before measuring (fills scratch capacities and the
/// online model's observation windows).
const WARMUP: usize = 300;
/// Distinct pre-synthesized telemetry samples cycled during the run.
const SAMPLE_CYCLE: usize = 512;
/// Timing trials per path; the median trial is reported. Allocation
/// counting spans *all* view-path trials.
const TRIALS: usize = 7;
/// Chunks each trial is split into. View and owned chunks alternate (and
/// alternate which goes first), so host noise on a shared runner hits
/// both paths alike.
const CHUNKS: usize = 20;
/// Timing trials per simulator in the wide-chip sweep; the best
/// (fastest) trial is reported.
const WIDE_TRIALS: usize = 3;

fn skylake_apps() -> Vec<AppSpec> {
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

fn ryzen_apps() -> Vec<AppSpec> {
    (0..6)
        .map(|i| {
            AppSpec::new(format!("r{i}"), i)
                .with_shares(10 + 15 * i as u32)
                .with_baseline_ips(2.0e9)
        })
        .collect()
}

fn baseline_for(apps: &[AppSpec], core: usize) -> Option<f64> {
    apps.iter().find(|a| a.core == core).map(|a| a.baseline_ips)
}

/// Deterministic synthetic telemetry, same regime as the golden-replay
/// suite: package power quadratic in total managed GHz, centered so it
/// crosses the limit both ways; per-core power on Ryzen only.
fn synth_freq(i: usize, c: usize, platform: &PlatformSpec) -> KiloHertz {
    let lo = platform.grid.min().khz();
    let hi = platform.grid.max().khz();
    let span_steps = (hi - lo) / 100_000;
    let k = (i as u64 * 13 + c as u64 * 7) % span_steps.max(1);
    KiloHertz(lo + k * 100_000)
}

fn synth_sample(i: usize, platform: &PlatformSpec, apps: &[AppSpec], limit: Watts) -> Sample {
    let total_ghz: f64 = (0..platform.num_cores)
        .filter(|&c| baseline_for(apps, c).is_some())
        .map(|c| synth_freq(i, c, platform).ghz())
        .sum();
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

struct ScenarioResult {
    name: String,
    policy: &'static str,
    translation: &'static str,
    steps: usize,
    alloc_events: u64,
    alloc_bytes: u64,
    steps_per_sec_view: f64,
    steps_per_sec_owned: f64,
}

fn make_daemon(
    policy: PolicyKind,
    platform: &PlatformSpec,
    apps: &[AppSpec],
    translation: TranslationKind,
    limit: Watts,
) -> Daemon {
    let mut config = DaemonConfig::new(policy, limit, apps.to_vec());
    config.translation = translation;
    Daemon::new(config, platform).expect("valid bench config")
}

/// Time `steps` steady-state steps starting at sample `at`; with `copy`,
/// each step also copies the action out of the arena (the owned path).
fn timed_steps(d: &mut Daemon, samples: &[Sample], at: usize, steps: usize, copy: bool) -> f64 {
    let started = Instant::now();
    if copy {
        for i in at..at + steps {
            let _ = d.try_step_view(&samples[i % SAMPLE_CYCLE]);
            let _ = d.action().to_owned();
        }
    } else {
        for i in at..at + steps {
            let _ = d.try_step_view(&samples[i % SAMPLE_CYCLE]);
        }
    }
    started.elapsed().as_secs_f64()
}

/// Run one scenario: warm up, then measure the zero-alloc view path and
/// the owning path in interleaved trials.
fn run_scenario(
    name: &str,
    policy: PolicyKind,
    platform: &PlatformSpec,
    apps: &[AppSpec],
    translation: TranslationKind,
    steps: usize,
) -> ScenarioResult {
    let limit = Watts(45.0);
    let samples: Vec<Sample> = (0..SAMPLE_CYCLE)
        .map(|i| synth_sample(i, platform, apps, limit))
        .collect();

    // One daemon runs both paths, so its heap placement (which moves from
    // run to run) cannot favour either.
    let mut d = make_daemon(policy, platform, apps, translation, limit);
    d.initial();
    for i in 0..WARMUP {
        let _ = d.try_step_view(&samples[i % SAMPLE_CYCLE]);
    }
    let mut at = WARMUP;
    let mut view_secs = [0.0; TRIALS];
    let mut owned_secs = [0.0; TRIALS];
    let (mut alloc_events, mut alloc_bytes) = (0, 0);
    for k in 0..TRIALS {
        for c in 0..CHUNKS {
            let n = steps * (c + 1) / CHUNKS - steps * c / CHUNKS;
            for copy in [c % 2 == 1, c % 2 == 0] {
                let before = AllocCounter::snapshot();
                let secs = timed_steps(&mut d, &samples, at, n, copy);
                at += n;
                if copy {
                    owned_secs[k] += secs;
                } else {
                    let after = AllocCounter::snapshot();
                    alloc_events += after.events_since(&before);
                    alloc_bytes += after.bytes_since(&before);
                    view_secs[k] += secs;
                }
            }
        }
    }
    let median = |secs: &mut [f64; TRIALS]| {
        secs.sort_by(f64::total_cmp);
        secs[TRIALS / 2]
    };
    let (view_secs, owned_secs) = (median(&mut view_secs), median(&mut owned_secs));

    ScenarioResult {
        name: name.to_string(),
        policy: policy_label(policy),
        translation: match translation {
            TranslationKind::Naive => "naive",
            TranslationKind::Online => "online",
        },
        steps,
        alloc_events,
        alloc_bytes,
        steps_per_sec_view: steps as f64 / view_secs,
        steps_per_sec_owned: steps as f64 / owned_secs,
    }
}

/// Core counts for the wide-chip sweep; the last is the gated width.
const WIDE_CORES: [usize; 3] = [128, 512, 1024];
/// Required `WideChip`-vs-`Chip` tick-throughput ratio at the widest
/// descriptor — the bar the batch-stepped simulator must clear to earn
/// its keep as a second implementation.
const WIDE_SPEEDUP_GATE: f64 = 4.0;
/// Simulator tick used by the sweep.
const WIDE_DT: Seconds = Seconds(0.001);
/// Ticks between frequency retargets, mimicking a 1 s control interval
/// over a ~128 ms cadence so the memoized power path sees real
/// movement instead of pure steady state.
const WIDE_RETARGET_EVERY: usize = 128;
/// Untimed ticks that fill caches and settle the RAPL controller.
const WIDE_WARMUP_TICKS: usize = 256;

/// Everything that must come out bit-identical from the two simulator
/// cores after an identical drive.
type WideFingerprint = (u32, u32, Vec<SimCounters>, Vec<u64>);

struct WideResult {
    cores: usize,
    ticks: usize,
    ticks_per_sec_chip: f64,
    ticks_per_sec_wide: f64,
    speedup: f64,
    bit_identical: bool,
}

/// Deterministic per-core frequency pattern; `phase` rotates it so
/// retargets actually move cores.
fn wide_freq_pattern(spec: &PlatformSpec, phase: usize) -> Vec<KiloHertz> {
    let lo = spec.grid.min().khz();
    let step = spec.grid.step().khz();
    let span = (spec.grid.max().khz() - lo) / step;
    (0..spec.num_cores)
        .map(|c| {
            KiloHertz(lo + (c as u64 * (7 + 4 * phase as u64) + phase as u64) % (span + 1) * step)
        })
        .collect()
}

/// Mixed per-core configuration (same spread the equivalence tests
/// use): full-tilt, AVX, partial-utilization, idle and parked cores,
/// plus shallow idle states.
fn wide_core_setup(c: usize) -> (LoadDescriptor, bool, CState) {
    let load = match c % 5 {
        0 => LoadDescriptor::nominal(),
        1 => LoadDescriptor {
            capacitance: 1.9,
            utilization: 1.0,
            avx: true,
        },
        2 => LoadDescriptor {
            capacitance: 1.2,
            utilization: 0.6,
            avx: false,
        },
        3 => LoadDescriptor::IDLE,
        _ => LoadDescriptor {
            capacitance: 0.8,
            utilization: 0.9,
            avx: false,
        },
    };
    (
        load,
        c % 7 == 3,
        if c % 4 == 1 { CState::C1 } else { CState::C6 },
    )
}

/// Drive the per-core-struct `Chip` through the sweep schedule; returns
/// best-trial seconds per `ticks` plus the end-state fingerprint.
fn sweep_chip(n: usize, ticks: usize) -> (f64, WideFingerprint) {
    let spec = PlatformSpec::wide(n);
    let mut chip = Chip::new(spec.clone());
    let patterns = [wide_freq_pattern(&spec, 0), wide_freq_pattern(&spec, 1)];
    for c in 0..n {
        let (load, parked, idle) = wide_core_setup(c);
        chip.set_load(c, load).unwrap();
        chip.set_forced_idle(c, parked).unwrap();
        chip.set_idle_state(c, idle).unwrap();
    }
    chip.set_rapl_limit(Some(Watts(4.0 * n as f64))).unwrap();
    let mut t_abs = 0usize;
    let mut drive = |chip: &mut Chip, count: usize| {
        for _ in 0..count {
            if t_abs.is_multiple_of(WIDE_RETARGET_EVERY) {
                let p = &patterns[(t_abs / WIDE_RETARGET_EVERY) % 2];
                chip.set_all_requested(p).unwrap();
            }
            chip.tick(WIDE_DT);
            t_abs += 1;
        }
    };
    drive(&mut chip, WIDE_WARMUP_TICKS);
    let mut best = f64::INFINITY;
    for _ in 0..WIDE_TRIALS {
        let started = Instant::now();
        drive(&mut chip, ticks);
        best = best.min(started.elapsed().as_secs_f64());
    }
    let fp = (
        chip.package_energy_raw(),
        chip.cores_energy_raw(),
        (0..n).map(|c| chip.counters(c)).collect(),
        (0..n).map(|c| chip.effective_freq(c).khz()).collect(),
    );
    (best, fp)
}

/// Identical schedule over the batch-stepped `WideChip`.
fn sweep_wide(n: usize, ticks: usize) -> (f64, WideFingerprint) {
    let spec = PlatformSpec::wide(n);
    let mut chip = WideChip::new(spec.clone());
    let patterns = [wide_freq_pattern(&spec, 0), wide_freq_pattern(&spec, 1)];
    for c in 0..n {
        let (load, parked, idle) = wide_core_setup(c);
        chip.set_load(c, load).unwrap();
        chip.set_forced_idle(c, parked).unwrap();
        chip.set_idle_state(c, idle).unwrap();
    }
    chip.set_rapl_limit(Some(Watts(4.0 * n as f64))).unwrap();
    let mut t_abs = 0usize;
    let mut drive = |chip: &mut WideChip, count: usize| {
        for _ in 0..count {
            if t_abs.is_multiple_of(WIDE_RETARGET_EVERY) {
                let p = &patterns[(t_abs / WIDE_RETARGET_EVERY) % 2];
                chip.set_all_requested(p).unwrap();
            }
            chip.tick(WIDE_DT);
            t_abs += 1;
        }
    };
    drive(&mut chip, WIDE_WARMUP_TICKS);
    let mut best = f64::INFINITY;
    for _ in 0..WIDE_TRIALS {
        let started = Instant::now();
        drive(&mut chip, ticks);
        best = best.min(started.elapsed().as_secs_f64());
    }
    let fp = (
        chip.package_energy_raw(),
        chip.cores_energy_raw(),
        (0..n).map(|c| chip.counters(c)).collect(),
        (0..n).map(|c| chip.effective_freq(c).khz()).collect(),
    );
    (best, fp)
}

fn run_wide_sweep() -> Vec<WideResult> {
    WIDE_CORES
        .iter()
        .map(|&n| {
            // Roughly constant work per width so the sweep stays quick.
            let ticks = (400_000 / n).max(256);
            let (chip_secs, chip_fp) = sweep_chip(n, ticks);
            let (wide_secs, wide_fp) = sweep_wide(n, ticks);
            let chip_tps = ticks as f64 / chip_secs;
            let wide_tps = ticks as f64 / wide_secs;
            WideResult {
                cores: n,
                ticks,
                ticks_per_sec_chip: chip_tps,
                ticks_per_sec_wide: wide_tps,
                speedup: wide_tps / chip_tps,
                bit_identical: chip_fp == wide_fp,
            }
        })
        .collect()
}

/// One scenario row recovered from a committed `BENCH_hotpath.json`.
struct BaselineEntry {
    name: String,
    policy: String,
    translation: String,
    view: f64,
    owned: f64,
}

fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Recover the scenario rates from a previously written report. The
/// report serializes one scenario object per line (see [`json_report`]),
/// so line-oriented key scanning is exact for files this bench wrote.
fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineEntry {
                name: extract_str(line, "\"name\": \"")?.to_string(),
                policy: extract_str(line, "\"policy\": \"")?.to_string(),
                translation: extract_str(line, "\"translation\": \"")?.to_string(),
                view: extract_num(line, "\"steps_per_sec_view\": ")?,
                owned: extract_num(line, "\"steps_per_sec_owned\": ")?,
            })
        })
        .collect()
}

/// Regression guard against a committed baseline report, scoped to the
/// shares policies (the heavy water-fill / slot-DP controllers whose
/// cost the fleet fast path is meant to keep down). Absolute steps/sec
/// are machine-dependent and single scenarios jitter >10 % run-to-run
/// even on one host, so the guard compares the *geometric mean* of the
/// per-scenario view ratios (current / baseline) against the same
/// aggregate over the owned copy (the view plus `to_owned`), which
/// serves as the machine-speed proxy: both columns slow down equally on
/// a slower runner, but only a genuine controller regression drags the
/// view aggregate below the owned one. A normalized aggregate >10 %
/// down fails. Failures are appended to `failures`.
fn check_against_baseline(results: &[ScenarioResult], text: &str, failures: &mut Vec<String>) {
    let base = parse_baseline(text);
    let matched: Vec<(&ScenarioResult, &BaselineEntry)> = results
        .iter()
        .filter_map(|r| {
            base.iter()
                .find(|b| {
                    b.name == r.name
                        && b.translation == r.translation
                        && b.policy.contains("shares")
                        && b.view > 0.0
                        && b.owned > 0.0
                })
                .map(|b| (r, b))
        })
        .collect();
    if matched.is_empty() {
        failures.push("baseline report contains no shares-policy scenarios".to_string());
        return;
    }
    let geomean = |ratios: &mut dyn Iterator<Item = f64>| -> f64 {
        let (sum, n) = ratios.fold((0.0, 0u32), |(s, n), r| (s + r.ln(), n + 1));
        (sum / n as f64).exp()
    };
    let view = geomean(&mut matched.iter().map(|(r, b)| r.steps_per_sec_view / b.view));
    let owned = geomean(&mut matched.iter().map(|(r, b)| r.steps_per_sec_owned / b.owned));
    if view < 0.9 * owned {
        failures.push(format!(
            "shares-policy view path regressed >10% vs the recorded baseline: \
             aggregate view ratio {view:.3} vs owned-copy (machine-speed) ratio {owned:.3} \
             over {} scenarios",
            matched.len()
        ));
    } else {
        println!(
            "Baseline guard: shares-policy view ratio {view:.3} vs owned ratio {owned:.3} \
             over {} scenarios — no regression",
            matched.len()
        );
    }
}

fn policy_label(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::RaplNative => "rapl",
        PolicyKind::Priority => "priority",
        PolicyKind::PowerShares => "power-shares",
        PolicyKind::FrequencyShares => "freq-shares",
        PolicyKind::PerformanceShares => "perf-shares",
        PolicyKind::FastCap => "fastcap",
    }
}

fn scenarios() -> Vec<(&'static str, PolicyKind, PlatformSpec, Vec<AppSpec>)> {
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

fn json_report(results: &[ScenarioResult], wide: &[WideResult]) -> String {
    let mut s = String::from("{\n  \"bench\": \"hotpath\",\n");
    let _ = writeln!(
        s,
        "  \"warmup_steps\": {WARMUP},\n  \"timing_trials\": {TRIALS},\n  \"scenarios\": ["
    );
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"policy\": \"{}\", \"translation\": \"{}\", \
             \"steps\": {}, \"alloc_events\": {}, \"alloc_bytes\": {}, \
             \"steps_per_sec_view\": {:.1}, \"steps_per_sec_owned\": {:.1}}}{}",
            r.name,
            r.policy,
            r.translation,
            r.steps,
            r.alloc_events,
            r.alloc_bytes,
            r.steps_per_sec_view,
            r.steps_per_sec_owned,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"widechip\": [\n");
    for (i, r) in wide.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"cores\": {}, \"ticks\": {}, \"ticks_per_sec_chip\": {:.1}, \
             \"ticks_per_sec_wide\": {:.1}, \"speedup\": {:.2}, \
             \"bit_identical\": {}}}{}",
            r.cores,
            r.ticks,
            r.ticks_per_sec_chip,
            r.ticks_per_sec_wide,
            r.speedup,
            r.bit_identical,
            if i + 1 == wide.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let mut steps = 20_000usize;
    let mut out_path = String::from("results/BENCH_hotpath.json");
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--steps" => {
                steps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--steps takes a positive integer");
            }
            "--out" => out_path = args.next().expect("--out takes a path"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline takes a path")),
            other => panic!(
                "unknown argument {other:?} (supported: --steps N, --out PATH, --baseline PATH)"
            ),
        }
    }

    let mut results = Vec::new();
    for translation in [TranslationKind::Naive, TranslationKind::Online] {
        for (name, policy, platform, apps) in scenarios() {
            results.push(run_scenario(
                name,
                policy,
                &platform,
                &apps,
                translation,
                steps,
            ));
        }
    }

    let mut t = Table::new(
        format!("Hot-path memory discipline ({steps} steady-state steps per scenario)"),
        &[
            "scenario",
            "policy",
            "translation",
            "allocs",
            "ksteps_view",
            "ksteps_owned",
            "view_gain_%",
        ],
    );
    let mut failures = Vec::new();
    for r in &results {
        let gain = (r.steps_per_sec_view / r.steps_per_sec_owned - 1.0) * 100.0;
        t.row(vec![
            r.name.clone(),
            r.policy.into(),
            r.translation.into(),
            r.alloc_events.to_string(),
            f1(r.steps_per_sec_view / 1e3),
            f1(r.steps_per_sec_owned / 1e3),
            f1(gain),
        ]);
        if r.alloc_events > 0 {
            failures.push(format!(
                "{}/{}: {} heap allocation events ({} bytes) in steady state",
                r.name, r.translation, r.alloc_events, r.alloc_bytes
            ));
        }
        if r.steps_per_sec_view < 0.9 * r.steps_per_sec_owned {
            failures.push(format!(
                "{}/{}: view {:.0} steps/s is >10% below the view plus owned copy {:.0} steps/s",
                r.name, r.translation, r.steps_per_sec_view, r.steps_per_sec_owned
            ));
        }
    }
    println!("{t}");

    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => check_against_baseline(&results, &text, &mut failures),
            Err(e) => failures.push(format!("--baseline {path}: {e}")),
        }
    }

    let wide = run_wide_sweep();
    let mut wt = Table::new(
        "Wide-chip batch stepping vs per-core Chip (identical closed-loop drive)",
        &[
            "cores",
            "ticks",
            "kticks_chip",
            "kticks_wide",
            "speedup",
            "bit_identical",
        ],
    );
    for r in &wide {
        wt.row(vec![
            r.cores.to_string(),
            r.ticks.to_string(),
            f1(r.ticks_per_sec_chip / 1e3),
            f1(r.ticks_per_sec_wide / 1e3),
            f1(r.speedup),
            r.bit_identical.to_string(),
        ]);
        if !r.bit_identical {
            failures.push(format!(
                "{} cores: WideChip diverged from Chip under an identical drive",
                r.cores
            ));
        }
        if r.cores == *WIDE_CORES.last().unwrap() && r.speedup < WIDE_SPEEDUP_GATE {
            failures.push(format!(
                "{} cores: batch stepping only {:.2}x the per-core loop \
                 (gate: >={WIDE_SPEEDUP_GATE}x)",
                r.cores, r.speedup
            ));
        }
    }
    println!("{wt}");

    let json = json_report(&results, &wide);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("Report written to {out_path}");

    if failures.is_empty() {
        println!(
            "PASS: zero heap allocations per steady-state step across every \
             policy and translation; borrowed view within 10% of the view \
             plus its owned copy; wide-chip batch stepping bit-identical \
             to the per-core simulator and >={WIDE_SPEEDUP_GATE}x faster at \
             the widest descriptor."
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
