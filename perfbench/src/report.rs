//! Summaries, the host header, and the one-line JSON result.

use std::fmt::Write as _;

/// Samples on a log scale with 1% buckets, from 1e-4 to 1e6 of the
/// caller's unit: fixed memory however long a run is, quantiles within
/// half a bucket.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

const HIST_LO: f64 = 1e-4;
const HIST_STEP: f64 = 1.01;
const HIST_BUCKETS: usize = 2315;

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        let i = ((v.max(HIST_LO) / HIST_LO).ln() / HIST_STEP.ln()) as usize;
        self.counts[i.min(HIST_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// The `q` quantile, `q` in `[0, 1]`, placing a bucket's samples
    /// evenly across it; 0 for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let within = (rank - below as f64 + 0.5) / c as f64;
                return HIST_LO * HIST_STEP.powf(i as f64 + within);
            }
            below += c;
        }
        HIST_LO * HIST_STEP.powf(HIST_BUCKETS as f64)
    }
}

/// CPU time of this process (all threads) or of the calling thread, in
/// seconds. Host time for the end-to-end metrics is CPU time: on a
/// shared virtual machine the wall time of the two-thread engine moves
/// with the time other guests steal from either CPU, CPU time does not.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// See [`process_cpu_s`].
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Median of a few samples; 0 for none.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One step of an FNV-1a style fold, for digests of emitted figures.
pub fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Jain's fairness index, `(Σx)² / (n Σx²)`; 1 for no samples.
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the sharded engine may use: the CPUs this process can
/// run on (what `nproc` reports). Fixed in code so no environment
/// variable changes what is measured.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One metric: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Output checks that failed, one line each; empty when correct.
    pub failures: Vec<String>,
    /// Operations attempted: admissions, departures and control steps.
    pub attempted: u64,
    /// Refused admissions, failed departures and daemon step errors.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The host header line printed before the result.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool, workers: usize) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"host\": {{\"cpus_seen\": {cpus}, \"workers\": {workers}, \"profile\": \"{profile}\", \
         \"commit\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {}}}}}",
        commit(),
        u8::from(trace)
    )
}

/// The checkout's commit, when the working directory is a git
/// repository's root (git is not asked to search parent directories).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, mt) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            mt.name,
            num(mt.value),
            mt.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = LogHist::default();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        for (q, want) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 0.011, "q{q}: {got} vs {want}");
        }
        assert_eq!(LogHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn cpu_clocks_advance() {
        let (p, t) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > p && thread_cpu_s() > t);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain(&[2.0, 2.0, 2.0]), 1.0);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
