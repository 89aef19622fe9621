//! `socket-wide`: the paper's single-socket control loop at 1024 cores.
//!
//! One `PlatformSpec::wide(1024)` chip, one looping SPEC CPU2017 app per
//! core at seeded mixed shares, and one daemon running frequency shares
//! with online translation under a binding package cap. Every interval
//! is one simulator tick: the app loop, the chip tick, a telemetry
//! sample, a daemon step and the actuation of its decision.
//!
//! The output check runs the same intervals twice from the same set-up,
//! once with spans and once without, and requires identical actions;
//! every emitted frequency must lie on the platform's P-state grid.

use std::time::Instant;

use pap_simcpu::freq::FreqGrid;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::sampler::{Sample, Sampler};
use pap_workloads::engine::RunningApp;
use pap_workloads::spec::spec2017;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, TranslationKind};
use powerd::daemon::Daemon;
use powerd::runner::standalone_freq;

use crate::report::{self, m, LogHist, Metric, Outcome};
use crate::trace::{self, span, Layer};

/// Package cap per core: below what the app mix draws at full speed.
const WATTS_PER_CORE: f64 = 3.8;
/// Timed sub-runs per run, each from a fresh set-up; every timed
/// metric is the median over them, `setup_s` the median set-up.
const SUBRUNS: usize = 5;

/// The socket workload's shape.
#[derive(Debug, Clone)]
pub struct SocketSpec {
    pub cores: usize,
    /// Intervals run during set-up, before timing starts.
    pub warmup: u64,
    /// Fewest intervals a timed run holds.
    pub min_intervals: u64,
    /// Intervals, from the start of the timed run, the simulated
    /// metrics cover.
    pub sim_intervals: u64,
}

impl SocketSpec {
    pub fn wide(tiny: bool) -> SocketSpec {
        if tiny {
            SocketSpec {
                cores: 16,
                warmup: 5,
                min_intervals: 50,
                sim_intervals: 50,
            }
        } else {
            SocketSpec {
                cores: 1024,
                warmup: 50,
                min_intervals: 1000,
                sim_intervals: 1000,
            }
        }
    }
}

struct Socket {
    chip: WideChip,
    daemon: Daemon,
    sampler: Sampler,
    sample: Sample,
    apps: Vec<RunningApp>,
    specs: Vec<AppSpec>,
    parked: Vec<bool>,
    grid: FreqGrid,
    limit: Watts,
    tick: Seconds,
}

/// What a timed run measured.
#[derive(Default)]
struct Record {
    intervals: u64,
    /// Thread CPU time per interval and per daemon step, and in total.
    window_ms: LogHist,
    step_us: LogHist,
    cpu_s: f64,
    errors: u64,
    off_grid: u64,
    confident: u64,
    over_w: f64,
    cap_w: f64,
    instructions: f64,
    energy_j: f64,
    jain: f64,
    /// Fold of every emitted frequency and park flag.
    digest: u64,
}

/// SplitMix64: the seeded stream the app mix is drawn from.
struct SplitMix(u64);

impl SplitMix {
    /// A draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

impl Socket {
    fn bring_up(spec: &SocketSpec, seed: u64) -> Socket {
        let platform = PlatformSpec::wide(spec.cores);
        // A balanced mix: app k runs profile k mod 11 at shares 10 to 100
        // by k / 11; the seed permutes which core each app lands on, so
        // every seed offers the same load.
        let profiles = spec2017();
        let mut order: Vec<usize> = (0..spec.cores).collect();
        let mut rng = SplitMix(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut apps = Vec::with_capacity(spec.cores);
        let mut specs = Vec::with_capacity(spec.cores);
        for (core, &k) in order.iter().enumerate() {
            let profile = profiles[k % profiles.len()];
            let shares = 10 + 10 * (k / profiles.len() % 10) as u32;
            let baseline = profile.ips(standalone_freq(&platform, &profile));
            specs.push(
                AppSpec::new(format!("{}-{core}", profile.name), core)
                    .with_shares(shares)
                    .with_baseline_ips(baseline),
            );
            apps.push(RunningApp::looping(profile));
        }
        let limit = Watts(WATTS_PER_CORE * spec.cores as f64);
        let mut config = DaemonConfig::new(PolicyKind::FrequencyShares, limit, specs.clone());
        config.translation = TranslationKind::Online;
        let tick = config.control_interval;
        let mut daemon = Daemon::new(config, &platform).expect("valid socket config");
        let grid = platform.grid;
        let mut chip = WideChip::new(platform);
        let action = daemon.initial();
        chip.set_all_requested(&action.freqs)
            .expect("initial frequencies are on the grid");
        for (core, &p) in action.parked.iter().enumerate() {
            chip.set_forced_idle(core, p).expect("core in range");
        }
        let sampler = Sampler::new(&chip);
        let mut socket = Socket {
            chip,
            daemon,
            sampler,
            sample: Sample::empty(),
            apps,
            specs,
            parked: action.parked,
            grid,
            limit,
            tick,
        };
        let mut warm = Record::default();
        for _ in 0..spec.warmup {
            socket.interval(&mut warm, false);
        }
        socket
    }

    /// One control interval; `day` intervals feed the simulated metrics.
    fn interval(&mut self, rec: &mut Record, day: bool) {
        let Socket {
            chip,
            daemon,
            sampler,
            sample,
            apps,
            specs,
            parked,
            grid,
            limit,
            tick,
        } = self;
        let dt = *tick;
        let started = report::thread_cpu_s();
        span(Layer::WorkloadsAdvance, apps.len() as u64, || {
            for (app, spec) in apps.iter_mut().zip(specs.iter()) {
                let core = spec.core;
                if parked[core] {
                    continue;
                }
                let out = app.advance(dt, chip.effective_freq(core));
                chip.set_load(core, out.load).expect("core in range");
                chip.add_instructions(core, out.instructions)
                    .expect("core in range");
            }
        });
        span(Layer::SimTick, 1, || chip.tick(dt));
        let sampled = span(Layer::TelemetrySample, 1, || {
            sampler.sample_into(chip, sample)
        });
        assert!(sampled, "a whole interval elapsed");
        let step = report::thread_cpu_s();
        let action = span(Layer::DaemonStep, 1, || daemon.try_step_view(sample));
        let step_us = (report::thread_cpu_s() - step) * 1e6;
        if let Ok(view) = &action {
            span(Layer::SimApply, 1, || {
                chip.set_all_requested(view.freqs)
                    .expect("daemon emits grid frequencies");
                for (core, &p) in view.parked.iter().enumerate() {
                    chip.set_forced_idle(core, p).expect("core in range");
                }
            });
        }
        let window_s = report::thread_cpu_s() - started;

        span(Layer::BenchLoadgen, 1, || {
            rec.window_ms.record(window_s * 1e3);
            rec.cpu_s += window_s;
            rec.step_us.record(step_us);
            match &action {
                Ok(view) => {
                    for (&f, &p) in view.freqs.iter().zip(view.parked) {
                        rec.off_grid += u64::from(!grid.contains(f));
                        rec.digest = report::fnv(rec.digest, f.khz() << 1 | u64::from(p));
                    }
                    parked.copy_from_slice(view.parked);
                }
                Err(_) => rec.errors += 1,
            }
            rec.intervals += 1;
            if day {
                let p = sample.package_power.value();
                let secs = sample.interval.value();
                rec.over_w += (p - limit.value()).max(0.0);
                rec.cap_w += limit.value();
                rec.instructions += sample.cores.iter().map(|c| c.rates.ips).sum::<f64>() * secs;
                rec.energy_j += p * secs;
            }
        });
        drop(action);
        rec.confident += u64::from(daemon.model_confident());
    }

    /// Retired instructions of every app so far.
    fn retired(&self) -> Vec<u64> {
        self.apps.iter().map(RunningApp::total_retired).collect()
    }

    /// Run intervals until `min_intervals` and `seconds` have both
    /// passed, or exactly `count` intervals.
    fn run(&mut self, spec: &SocketSpec, seconds: f64, count: Option<u64>) -> Record {
        let mut rec = Record::default();
        let before = self.retired();
        let started = Instant::now();
        loop {
            let more = match count {
                Some(n) => rec.intervals < n,
                None => {
                    rec.intervals < spec.min_intervals || started.elapsed().as_secs_f64() < seconds
                }
            };
            if !more {
                return rec;
            }
            let day = rec.intervals < spec.sim_intervals;
            self.interval(&mut rec, day);
            if rec.intervals == spec.sim_intervals {
                rec.jain = span(Layer::BenchLoadgen, 1, || self.jain(&before, spec));
            }
        }
    }

    /// Jain's index over share-normalised performance across the
    /// simulated-metric span.
    fn jain(&self, before: &[u64], spec: &SocketSpec) -> f64 {
        let secs = spec.sim_intervals as f64 * self.tick.value();
        let xs: Vec<f64> = self
            .apps
            .iter()
            .zip(&self.specs)
            .zip(before)
            .map(|((app, s), b)| {
                let ips = app.total_retired().wrapping_sub(*b) as f64 / secs;
                ips / s.baseline_ips / s.shares as f64
            })
            .collect();
        report::jain(&xs)
    }
}

fn compare(a: &Record, b: &Record) -> Vec<String> {
    let mut out = Vec::new();
    if a.intervals != b.intervals {
        out.push(format!("intervals {} vs {}", a.intervals, b.intervals));
    }
    if a.digest != b.digest {
        out.push("traced and untraced runs emitted different actions".into());
    }
    let sims =
        |r: &Record| [r.over_w, r.cap_w, r.instructions, r.energy_j, r.jain].map(f64::to_bits);
    if sims(a) != sims(b) || a.errors != b.errors {
        out.push("traced and untraced runs simulated different figures".into());
    }
    out
}

fn sanity(rec: &Record, spec: &SocketSpec) -> Vec<String> {
    let mut out = Vec::new();
    if rec.intervals < spec.min_intervals {
        out.push(format!("only {} intervals ran", rec.intervals));
    }
    if rec.off_grid > 0 {
        out.push(format!(
            "{} emitted frequencies lie off the P-state grid",
            rec.off_grid
        ));
    }
    if rec.errors > 0 {
        out.push(format!("{} daemon steps failed", rec.errors));
    }
    if !(rec.instructions > 0.0 && rec.energy_j > 0.0) {
        out.push("the socket retired no instructions or drew no power".into());
    }
    out
}

/// Run the socket workload. Untraced: the end-to-end metrics, from
/// [`SUBRUNS`] timed runs of the same intervals, checked against each
/// other and against a traced run. Traced: the per-layer metrics,
/// checked against an untraced run.
pub fn run(spec: &SocketSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        let mut socket = Socket::bring_up(spec, seed);
        trace::start();
        let wall = Instant::now();
        let rec = socket.run(spec, seconds, None);
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let totals = trace::stop();
        drop(socket);
        let reference = Socket::bring_up(spec, seed).run(spec, 0.0, Some(rec.intervals));
        let mut failures = compare(&rec, &reference);
        failures.extend(sanity(&rec, spec));
        let extras = crate::LayerExtras {
            daemon_errors: rec.errors,
            model_confident_frac: rec.confident as f64 / rec.intervals as f64,
            ..crate::LayerExtras::default()
        };
        return Outcome {
            failures,
            attempted: rec.intervals,
            failed: rec.errors,
            metrics: crate::layer_metrics(&totals, wall_ns, &extras),
        };
    }

    let mut setup_s = Vec::with_capacity(SUBRUNS);
    let mut subs: Vec<Record> = Vec::with_capacity(SUBRUNS);
    let mut count = None;
    for _ in 0..SUBRUNS {
        let t = report::thread_cpu_s();
        let mut socket = Socket::bring_up(spec, seed);
        setup_s.push(report::thread_cpu_s() - t);
        let rec = socket.run(spec, seconds / SUBRUNS as f64, count);
        count = Some(rec.intervals);
        subs.push(rec);
    }
    let first = &subs[0];
    let mut check = Socket::bring_up(spec, seed);
    trace::start();
    let traced = check.run(spec, 0.0, count);
    trace::stop();
    let mut failures = compare(first, &traced);
    for rec in &subs[1..] {
        failures.extend(compare(first, rec));
    }
    failures.extend(sanity(first, spec));

    let med = |f: &dyn Fn(&Record) -> f64| report::median(&subs.iter().map(f).collect::<Vec<_>>());
    let metrics: Vec<Metric> = vec![
        m(
            "intervals_per_s",
            med(&|r| r.intervals as f64 / r.cpu_s),
            "1/s",
        ),
        m("window_ms_p50", med(&|r| r.window_ms.quantile(0.5)), "ms"),
        m("window_ms_p90", med(&|r| r.window_ms.quantile(0.9)), "ms"),
        m("step_us_p50", med(&|r| r.step_us.quantile(0.5)), "us"),
        m("step_us_p99", med(&|r| r.step_us.quantile(0.99)), "us"),
        m("setup_s", report::median(&setup_s), "s"),
        m("peak_rss_mib", report::peak_rss_mib(), "MiB"),
        m("cap_overshoot_pct", 100.0 * first.over_w / first.cap_w, "%"),
        m("jain", first.jain, "index"),
        m(
            "sim_gips_per_w",
            first.instructions / first.energy_j / 1e9,
            "Ginstr/J",
        ),
    ];
    Outcome {
        failures,
        attempted: first.intervals,
        failed: first.errors,
        metrics,
    }
}
