//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-churn|fleet-steady|socket-wide> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints a host header line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! non-zero when an output check fails. `--tiny` shrinks every workload
//! to a few nodes, windows and cores, for the smoke test.
//! `perfbench/README.md` defines each workload and metric.

mod fleet;
mod report;
mod socket;
mod trace;

use std::process::ExitCode;

use report::{m, Metric};
use trace::{Layer, LayerTotals};

/// Per-layer figures that are not span totals.
#[derive(Debug, Default)]
pub struct LayerExtras {
    pub daemon_errors: u64,
    pub model_confident_frac: f64,
    pub admit_rejected: u64,
    pub scale_workers: f64,
    pub delta_skip_rate: f64,
    pub speedup_vs_serial: f64,
}

/// Layers reported by their `busy_frac`: the share of the traced wall
/// time spent inside their spans.
const BUSY: [(&str, Layer); 12] = [
    ("workloads.advance.busy_frac", Layer::WorkloadsAdvance),
    ("simcpu.tick.busy_frac", Layer::SimTick),
    ("simcpu.apply.busy_frac", Layer::SimApply),
    ("telemetry.sample.busy_frac", Layer::TelemetrySample),
    ("daemon.step.busy_frac", Layer::DaemonStep),
    ("cluster.admit.busy_frac", Layer::ClusterAdmit),
    ("cluster.depart.busy_frac", Layer::ClusterDepart),
    ("node.advance.busy_frac", Layer::NodeAdvance),
    ("node.retarget.busy_frac", Layer::NodeRetarget),
    ("telemetry.rollup.busy_frac", Layer::TelemetryRollup),
    ("cluster.rebalance.busy_frac", Layer::ClusterRebalance),
    ("bench.loadgen.busy_frac", Layer::BenchLoadgen),
];

/// Layers whose spans hold simulator spans (node steps, admissions and
/// departures call the chip), reported also by their `self_frac`: the
/// share without those. The self shares of all layers plus
/// `other.busy_frac` sum to 1.
const SELF: [(&str, Layer); 3] = [
    ("cluster.admit.self_frac", Layer::ClusterAdmit),
    ("cluster.depart.self_frac", Layer::ClusterDepart),
    ("node.advance.self_frac", Layer::NodeAdvance),
];

/// The per-layer metrics of a traced run whose wall time was `wall_ns`.
pub fn layer_metrics(
    totals: &[LayerTotals; Layer::COUNT],
    wall_ns: u64,
    x: &LayerExtras,
) -> Vec<Metric> {
    let of = |l: Layer| totals[l as usize];
    let share = |ns: u64| ns as f64 / wall_ns as f64;
    let spanned: u64 = totals.iter().map(|t| t.self_ns).sum();
    let tick = of(Layer::SimTick);
    let mut out: Vec<Metric> = BUSY
        .iter()
        .map(|&(name, l)| m(name, share(of(l).busy_ns), "fraction"))
        .chain(
            SELF.iter()
                .map(|&(name, l)| m(name, share(of(l).self_ns), "fraction")),
        )
        .collect();
    out.extend([
        m(
            "simcpu.tick.us",
            tick.self_ns as f64 / 1e3 / tick.units.max(1) as f64,
            "us",
        ),
        m("daemon.step.errors", x.daemon_errors as f64, "count"),
        m("model.confident_frac", x.model_confident_frac, "fraction"),
        m("cluster.admit.rejected", x.admit_rejected as f64, "count"),
        m(
            "cluster.rebalance.rounds",
            of(Layer::ClusterRebalance).calls as f64,
            "count",
        ),
        m("scale.workers", x.scale_workers, "count"),
        m("scale.delta_skip_rate", x.delta_skip_rate, "fraction"),
        m("scale.speedup_vs_serial", x.speedup_vs_serial, "x"),
        m(
            "other.busy_frac",
            share(wall_ns.saturating_sub(spanned)),
            "fraction",
        ),
    ]);
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} takes a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = report::workers();
    let secs = args.seconds as f64;
    let out = match args.workload.as_str() {
        "fleet-churn" => fleet::run(
            &fleet::FleetSpec::churn(args.tiny),
            args.seed,
            secs,
            args.trace,
            workers,
        ),
        "fleet-steady" => fleet::run(
            &fleet::FleetSpec::steady(args.tiny),
            args.seed,
            secs,
            args.trace,
            workers,
        ),
        "socket-wide" => socket::run(
            &socket::SocketSpec::wide(args.tiny),
            args.seed,
            secs,
            args.trace,
        ),
        other => {
            eprintln!("error: unknown workload {other:?} (fleet-churn, fleet-steady, socket-wide)");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        report::header(&args.workload, args.seed, args.seconds, args.trace, workers)
    );
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", report::result_line(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
