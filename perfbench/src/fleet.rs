//! `fleet-churn` and `fleet-steady`: 1024 Skylake nodes under one
//! cluster budget, frequency shares on every node, a seeded diurnal
//! `ChurnLoad` admitting and departing tenants every control window.
//!
//! One window is the churn batch (`depart_batch`, `admit_batch`) plus
//! one control interval on every node. The timed run drives the nodes
//! with `run_sharded`; the output check replays the same windows from
//! the same set-up through the serial engine seam and requires the two
//! final states to match bit for bit. The traced run is that serial
//! replay with spans, on [`TracedChip`] nodes.

use std::collections::HashMap;
use std::time::Instant;

use clusterd::cluster::AppReport;
use clusterd::{Cluster, ClusterConfig};
use pap_scale::{run_sharded, ChurnLoad, ScaleConfig};
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::rollup::ClusterRollup;
use pap_tenants::arrival::ArrivalTrace;
use powerd::config::PolicyKind;

use crate::report::{self, m, LogHist, Metric, Outcome};
use crate::trace::{self, span, Layer, TracedChip};

/// Cluster budget per node: binding at the diurnal peak.
const WATTS_PER_NODE: f64 = 60.0;
/// Diurnal population: mean and swing as a fraction of all cores.
const MEAN_LOAD: f64 = 0.25;
const SWING: f64 = 0.15;
/// Timed sub-runs per run, each from a fresh set-up; every timed
/// metric is the median over them, `setup_s` the median set-up.
const SUBRUNS: usize = 5;

/// One fleet workload's shape.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub nodes: usize,
    /// Simulator ticks per control interval.
    pub ticks_per_interval: u64,
    /// Tenants replaced per window on top of the diurnal target.
    pub turnover: usize,
    /// Windows run during set-up, before timing starts.
    pub warmup: u64,
    /// Fewest windows a timed run holds, whatever `--seconds` says.
    pub min_windows: u64,
    /// Windows, from the start of the timed run, the simulated metrics
    /// cover (one diurnal day), so they do not depend on host speed.
    pub sim_windows: u64,
}

impl FleetSpec {
    /// `fleet-churn`: one tick per interval and ~`nodes` tenants
    /// replaced per window, so placement dominates.
    pub fn churn(tiny: bool) -> FleetSpec {
        let nodes = if tiny { 8 } else { 1024 };
        FleetSpec {
            nodes,
            ticks_per_interval: 1,
            turnover: nodes,
            ..FleetSpec::shape(nodes, tiny)
        }
    }

    /// `fleet-steady`: 500 ticks per interval and light churn, so node
    /// stepping dominates.
    pub fn steady(tiny: bool) -> FleetSpec {
        let nodes = if tiny { 8 } else { 1024 };
        FleetSpec {
            nodes,
            ticks_per_interval: 500,
            turnover: (nodes / 32).max(1),
            ..FleetSpec::shape(nodes, tiny)
        }
    }

    fn shape(nodes: usize, tiny: bool) -> FleetSpec {
        let (warmup, windows) = if tiny { (2, 12) } else { (8, 100) };
        FleetSpec {
            nodes,
            ticks_per_interval: 1,
            turnover: 0,
            warmup,
            min_windows: windows,
            sim_windows: windows,
        }
    }

    fn config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(
            self.nodes,
            PolicyKind::FrequencyShares,
            Watts(WATTS_PER_NODE * self.nodes as f64),
        );
        cfg.tick = Seconds(cfg.control_interval.value() / self.ticks_per_interval as f64);
        cfg
    }
}

/// How a run advances the nodes one interval.
enum Engine<'a> {
    /// `pap_scale::run_sharded`, the engine users run.
    Sharded(&'a ScaleConfig),
    /// The serial replay through the engine seam; optionally records
    /// each `Node::advance_interval` latency in microseconds.
    Serial { node_us: Option<&'a mut LogHist> },
}

/// When a timed run stops.
#[derive(Clone, Copy)]
enum Until {
    /// At least `min_windows`, and until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many windows.
    Windows(u64),
}

/// A cluster plus its churn stream, positioned at window `window`.
struct Fleet<C: ChipLike> {
    spec: FleetSpec,
    cluster: Cluster<C>,
    load: ChurnLoad,
    window: u64,
    /// Window in which each resident app was admitted (for `jain`).
    admitted_at: HashMap<String, u64>,
}

/// What a timed run measured.
#[derive(Default)]
struct Record {
    windows: u64,
    /// Process CPU time per window, and in total.
    window_ms: LogHist,
    cpu_s: f64,
    /// Wall time of the engine calls.
    engine_s: f64,
    attempted: u64,
    failed: u64,
    rejected: u64,
    /// Σmax(0, P − cap) and Σcap over node-intervals of the day.
    over_w: f64,
    cap_w: f64,
    /// Simulated instructions and energy over the day.
    instructions: f64,
    energy_j: f64,
    jain: f64,
    /// Fold of every window's per-node power and cap bits.
    digest: u64,
    shards: usize,
    delta_updates: u64,
    delta_skips: u64,
}

/// The state the engines must agree on bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    intervals: u64,
    energy_bits: u64,
    caps: Vec<u64>,
    reports: Vec<AppReport>,
    free_cores: usize,
}

impl<C: ChipLike + Send> Fleet<C> {
    /// Bring up the cluster and run the warm-up windows on `scale`.
    fn bring_up(spec: &FleetSpec, seed: u64, scale: &ScaleConfig) -> Fleet<C> {
        let cfg = spec.config();
        let day = Seconds(spec.sim_windows as f64 * cfg.control_interval.value());
        let cluster = Cluster::with_backend(cfg).expect("the budget funds every node floor");
        let load = ChurnLoad::new(
            ArrivalTrace::diurnal(MEAN_LOAD, SWING, day),
            seed,
            cluster.total_cores(),
            spec.turnover,
        );
        let mut fleet = Fleet {
            spec: spec.clone(),
            cluster,
            load,
            window: 0,
            admitted_at: HashMap::new(),
        };
        let mut warm = Record::default();
        for _ in 0..spec.warmup {
            fleet.window(&mut Engine::Sharded(scale), &mut warm, false);
        }
        fleet
    }

    /// Run windows into `rec` until `until` (a window count is a total
    /// for `rec`); its first `sim_windows` feed the simulated metrics.
    fn run(&mut self, engine: &mut Engine<'_>, until: Until, rec: &mut Record) {
        let started = Instant::now();
        loop {
            let more = match until {
                Until::Windows(n) => rec.windows < n,
                Until::Seconds(s) => {
                    rec.windows < self.spec.min_windows || started.elapsed().as_secs_f64() < s
                }
            };
            if !more {
                return;
            }
            let day = rec.windows < self.spec.sim_windows;
            self.window(engine, rec, day);
            rec.windows += 1;
            if rec.windows == self.spec.sim_windows {
                rec.jain = span(Layer::BenchLoadgen, 1, || self.jain());
            }
        }
    }

    /// One window: churn batch, one interval on every node, accounting.
    fn window(&mut self, engine: &mut Engine<'_>, rec: &mut Record, day: bool) {
        let interval = self.cluster.config().control_interval;
        let now = Seconds(self.window as f64 * interval.value());
        let batch = span(Layer::BenchLoadgen, 1, || self.load.next_batch(now));

        let churn = report::process_cpu_s();
        let departed = span(Layer::ClusterDepart, batch.departures.len() as u64, || {
            self.cluster.depart_batch(&batch.departures)
        });
        let admitted = span(Layer::ClusterAdmit, batch.arrivals.len() as u64, || {
            self.cluster.admit_batch(&batch.arrivals)
        });
        let churn_s = report::process_cpu_s() - churn;

        span(Layer::BenchLoadgen, 1, || {
            let ok: Vec<bool> = admitted.iter().map(Result::is_ok).collect();
            self.load.commit(&batch, &ok);
            let refused = ok.iter().filter(|a| !**a).count() as u64;
            let lost = departed.iter().filter(|d| d.is_err()).count() as u64;
            rec.rejected += refused;
            rec.failed += refused + lost;
            rec.attempted += batch.len() as u64 + self.spec.nodes as u64;
            for name in &batch.departures {
                self.admitted_at.remove(name);
            }
            for (req, ok) in batch.arrivals.iter().zip(&ok) {
                if *ok {
                    self.admitted_at.insert(req.name.clone(), self.window);
                }
            }
        });

        let step = Instant::now();
        let step_cpu = report::process_cpu_s();
        match engine {
            Engine::Sharded(cfg) => {
                let stats = run_sharded(&mut self.cluster, 1, cfg);
                rec.shards = stats.shards;
                rec.delta_updates += stats.delta_updates;
                rec.delta_skips += stats.delta_skips;
            }
            Engine::Serial { node_us } => {
                serial_interval(&mut self.cluster, node_us.as_deref_mut())
            }
        }
        let cpu_s = churn_s + report::process_cpu_s() - step_cpu;
        rec.engine_s += step.elapsed().as_secs_f64();
        rec.cpu_s += cpu_s;
        rec.window_ms.record(cpu_s * 1e3);
        self.window += 1;

        span(Layer::BenchLoadgen, 1, || {
            let rollup = self.cluster.last_rollup().expect("an interval ran");
            for n in &rollup.nodes {
                rec.digest = report::fnv(
                    report::fnv(rec.digest, n.package_power.value().to_bits()),
                    n.power_cap.value().to_bits(),
                );
                if day {
                    let p = n.package_power.value();
                    let cap = n.power_cap.value();
                    rec.over_w += (p - cap).max(0.0);
                    rec.cap_w += cap;
                    rec.instructions += n.total_ips * interval.value();
                    rec.energy_j += p * interval.value();
                }
            }
        });
    }

    /// Jain's index over share-normalised performance of every app
    /// resident for at least two intervals.
    fn jain(&self) -> f64 {
        let interval = self.cluster.config().control_interval.value();
        let xs: Vec<f64> = self
            .cluster
            .reports()
            .iter()
            .filter_map(|r| {
                let since = *self.admitted_at.get(&r.name)?;
                let ran = self.window - since;
                (ran >= 2 && r.baseline_ips > 0.0).then(|| {
                    r.total_instructions as f64
                        / (ran as f64 * interval)
                        / r.baseline_ips
                        / r.shares as f64
                })
            })
            .collect();
        report::jain(&xs)
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            intervals: self.cluster.intervals_run(),
            energy_bits: self.cluster.energy_j().to_bits(),
            caps: self
                .cluster
                .node_caps()
                .iter()
                .map(|w| w.value().to_bits())
                .collect(),
            reports: self.cluster.reports(),
            free_cores: self.cluster.free_cores(),
        }
    }
}

/// One interval through the engine seam, as the serial engine runs it:
/// every node advances in id order, the telemetry is rolled up and
/// accounted, and when a rebalance is due the arbiter's caps are applied
/// to the nodes before the next interval.
fn serial_interval<C: ChipLike>(cluster: &mut Cluster<C>, mut node_us: Option<&mut LogHist>) {
    let mut seam = cluster.detach_engine();
    let mut nodes = seam.take_nodes();
    let interval = seam.cfg().control_interval;
    let mut teles = Vec::with_capacity(nodes.len());
    for node in nodes.iter_mut() {
        let started = node_us.is_some().then(Instant::now);
        teles.push(span(Layer::NodeAdvance, 1, || node.advance_interval()));
        if let (Some(us), Some(t)) = (node_us.as_deref_mut(), started) {
            us.record(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let rollup = span(Layer::TelemetryRollup, 1, || {
        let rollup = ClusterRollup::new(interval, teles);
        seam.note_interval(rollup.total_power());
        rollup
    });
    if seam.rebalance_due() {
        let caps = span(Layer::ClusterRebalance, 1, || seam.rebalance(&rollup));
        for (node, cap) in nodes.iter_mut().zip(caps) {
            span(Layer::NodeRetarget, 1, || node.retarget(cap))
                .expect("allocator output stays within platform bounds");
        }
    }
    seam.put_nodes(nodes);
    cluster.attach_engine(seam, Some(rollup));
}

/// Compare two runs of the same windows; one failure line per mismatch.
fn compare(label: &str, a: (&Record, &Fingerprint), b: (&Record, &Fingerprint)) -> Vec<String> {
    let mut out = Vec::new();
    let (ra, fa) = a;
    let (rb, fb) = b;
    if fa.intervals != fb.intervals {
        out.push(format!(
            "{label}: intervals {} vs {}",
            fa.intervals, fb.intervals
        ));
    }
    if fa.energy_bits != fb.energy_bits {
        out.push(format!("{label}: cluster energy differs in its bits"));
    }
    if fa.caps != fb.caps {
        out.push(format!("{label}: node caps differ"));
    }
    if fa.reports != fb.reports {
        out.push(format!("{label}: per-app reports differ"));
    }
    if fa.free_cores != fb.free_cores {
        out.push(format!(
            "{label}: free cores {} vs {}",
            fa.free_cores, fb.free_cores
        ));
    }
    if ra.digest != rb.digest {
        out.push(format!("{label}: per-window node power or caps differ"));
    }
    if (ra.attempted, ra.failed) != (rb.attempted, rb.failed) {
        out.push(format!("{label}: churn outcomes differ"));
    }
    out
}

/// Checks every run makes on its own figures.
fn sanity(rec: &Record, spec: &FleetSpec) -> Vec<String> {
    let mut out = Vec::new();
    if rec.windows < spec.min_windows {
        out.push(format!("only {} windows ran", rec.windows));
    }
    if rec.failed > 0 {
        out.push(format!("{} admissions or departures failed", rec.failed));
    }
    if !(rec.instructions > 0.0 && rec.energy_j > 0.0 && rec.cap_w > 0.0) {
        out.push("the fleet retired no instructions or drew no power".into());
    }
    out
}

/// Run a fleet workload. Untraced: the end-to-end metrics, from
/// [`SUBRUNS`] timed `run_sharded` runs of the same windows, checked
/// against each other and against the serial replay. Traced: the
/// per-layer metrics.
pub fn run(spec: &FleetSpec, seed: u64, seconds: f64, traced: bool, workers: usize) -> Outcome {
    let scale = ScaleConfig {
        shards: workers,
        ..ScaleConfig::default()
    };
    if traced {
        return run_traced(spec, seed, seconds, &scale);
    }

    // After each timed sub-run, the serial replay of the same windows
    // advances by a fifth, timing every node step: the step latencies
    // then sample the whole run, as the sub-runs do.
    let mut reference = Fleet::<WideChip>::bring_up(spec, seed, &scale);
    let mut serial = Record::default();
    let mut node_us = Vec::with_capacity(SUBRUNS);
    let mut setup_s = Vec::with_capacity(SUBRUNS);
    let mut subs: Vec<(Record, Fingerprint)> = Vec::with_capacity(SUBRUNS);
    let mut until = Until::Seconds(seconds / SUBRUNS as f64);
    for i in 0..SUBRUNS {
        let t = report::process_cpu_s();
        let mut fleet = Fleet::<WideChip>::bring_up(spec, seed, &scale);
        setup_s.push(report::process_cpu_s() - t);
        let mut rec = Record::default();
        fleet.run(&mut Engine::Sharded(&scale), until, &mut rec);
        until = Until::Windows(rec.windows);
        subs.push((rec, fleet.fingerprint()));
        drop(fleet);

        let mut us = LogHist::default();
        let upto = subs[0].0.windows * (i as u64 + 1) / SUBRUNS as u64;
        reference.run(
            &mut Engine::Serial {
                node_us: Some(&mut us),
            },
            Until::Windows(upto),
            &mut serial,
        );
        node_us.push(us);
    }
    let (first, fp) = &subs[0];
    let mut failures = compare(
        "run_sharded vs serial replay",
        (first, fp),
        (&serial, &reference.fingerprint()),
    );
    drop(reference);
    for (rec, f) in &subs[1..] {
        failures.extend(compare("run_sharded vs run_sharded", (first, fp), (rec, f)));
    }
    failures.extend(sanity(first, spec));

    let med = |f: &dyn Fn(&Record) -> f64| {
        report::median(&subs.iter().map(|(r, _)| f(r)).collect::<Vec<_>>())
    };
    let step = |q: f64| report::median(&node_us.iter().map(|h| h.quantile(q)).collect::<Vec<_>>());
    let nodes = spec.nodes as f64;
    let metrics: Vec<Metric> = vec![
        m(
            "intervals_per_s",
            med(&|r| r.windows as f64 * nodes / r.cpu_s),
            "1/s",
        ),
        m("window_ms_p50", med(&|r| r.window_ms.quantile(0.5)), "ms"),
        m("window_ms_p90", med(&|r| r.window_ms.quantile(0.9)), "ms"),
        m("step_us_p50", step(0.5), "us"),
        m("step_us_p99", step(0.99), "us"),
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
        attempted: first.attempted,
        failed: first.failed,
        metrics,
    }
}

/// The traced serial replay, then the same windows untraced through
/// `run_sharded` and through the serial replay (the `scale.*` figures).
fn run_traced(spec: &FleetSpec, seed: u64, seconds: f64, scale: &ScaleConfig) -> Outcome {
    let mut fleet = Fleet::<TracedChip>::bring_up(spec, seed, scale);
    let mut rec = Record::default();
    trace::start();
    let wall = Instant::now();
    fleet.run(
        &mut Engine::Serial { node_us: None },
        Until::Seconds(seconds),
        &mut rec,
    );
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let totals = trace::stop();
    let fp = fleet.fingerprint();
    drop(fleet);

    let windows = Until::Windows(rec.windows);
    let mut sharded = Fleet::<WideChip>::bring_up(spec, seed, scale);
    let mut sh = Record::default();
    sharded.run(&mut Engine::Sharded(scale), windows, &mut sh);
    let sh_fp = sharded.fingerprint();
    drop(sharded);
    let mut serial = Fleet::<WideChip>::bring_up(spec, seed, scale);
    let mut se = Record::default();
    serial.run(&mut Engine::Serial { node_us: None }, windows, &mut se);

    let mut failures = compare("traced replay vs run_sharded", (&rec, &fp), (&sh, &sh_fp));
    failures.extend(compare(
        "serial replay vs run_sharded",
        (&se, &serial.fingerprint()),
        (&sh, &sh_fp),
    ));
    failures.extend(sanity(&rec, spec));

    let rows = sh.delta_updates + sh.delta_skips;
    let extras = crate::LayerExtras {
        admit_rejected: rec.rejected,
        scale_workers: sh.shards as f64,
        delta_skip_rate: if rows == 0 {
            0.0
        } else {
            sh.delta_skips as f64 / rows as f64
        },
        speedup_vs_serial: se.engine_s / sh.engine_s,
        ..crate::LayerExtras::default()
    };
    Outcome {
        failures,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics: crate::layer_metrics(&totals, wall_ns, &extras),
    }
}
