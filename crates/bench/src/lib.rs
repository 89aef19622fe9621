//! Shared experiment-harness utilities for the figure/table binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index). The helpers here cover what
//! the binaries share: fixed-frequency chip runs (for the mechanism
//! studies of §3 that bypass the daemon), parallel parameter sweeps, and
//! the common sweep constants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// The sweep engine moved to `pap-scale` (the sharded cluster control
// plane grew out of it); this re-export keeps the historical
// `pap_bench::sweep` paths working for every binary and external user.
pub use pap_scale::sweep;

use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::sampler::{Sample, Sampler};
use pap_telemetry::trace::Trace;
use pap_workloads::engine::RunningApp;
use pap_workloads::profile::WorkloadProfile;

pub use powerd::report::{f1, f3, Table};

/// The power limits the paper sweeps on Skylake (W).
pub const SKYLAKE_LIMITS: [f64; 4] = [85.0, 65.0, 50.0, 40.0];

/// The limits used in the policy evaluations (§6).
pub const POLICY_LIMITS: [f64; 3] = [85.0, 50.0, 40.0];

/// Outcome of a fixed-frequency (daemon-less) run.
#[derive(Debug, Clone)]
pub struct FixedRunResult {
    /// Mean package power over the measurement window.
    pub mean_package_power: Watts,
    /// Mean active frequency per core (MHz; 0 for idle cores).
    pub mean_freq_mhz: Vec<f64>,
    /// Mean IPS per core.
    pub mean_ips: Vec<f64>,
    /// The telemetry trace.
    pub trace: Trace,
}

/// Run workloads at fixed requested frequencies, optionally under a native
/// RAPL limit — the §3 mechanism-study shape (no control daemon).
///
/// `assignments[i]` places a looping workload on core `i` (or leaves it
/// idle); `requests[i]` is the programmed frequency for core `i`.
pub fn run_fixed(
    platform: PlatformSpec,
    requests: &[KiloHertz],
    assignments: &[Option<WorkloadProfile>],
    rapl_limit: Option<Watts>,
    duration: Seconds,
) -> FixedRunResult {
    assert_eq!(requests.len(), platform.num_cores);
    assert_eq!(assignments.len(), platform.num_cores);
    let mut chip = Chip::new(platform);
    chip.set_all_requested(requests).expect("valid requests");
    if let Some(w) = rapl_limit {
        chip.set_rapl_limit(Some(w)).expect("platform has RAPL");
    }
    let mut apps: Vec<Option<RunningApp>> = assignments
        .iter()
        .map(|a| a.map(RunningApp::looping))
        .collect();

    let tick = Seconds(0.002);
    let warmup = Seconds(3.0);
    let mut sampler = Sampler::new(&chip);
    let mut sample = Sample::empty();
    let mut trace = Trace::new();
    let total = warmup.value() + duration.value();
    let mut t = 0.0;
    let mut next_sample = 1.0;
    while t < total {
        for (core, slot) in apps.iter_mut().enumerate() {
            if let Some(app) = slot {
                app.run_on(&mut chip, core, tick).expect("core in range");
            }
        }
        chip.tick(tick);
        t += tick.value();
        if t + 1e-9 >= next_sample {
            next_sample += 1.0;
            if sampler.sample_into(&chip, &mut sample) {
                trace.push(std::mem::take(&mut sample));
            }
        }
    }
    trace.trim_warmup(warmup.value() as usize);

    let n = trace.samples().first().map_or(0, |s| s.cores.len());
    FixedRunResult {
        mean_package_power: trace.mean_package_power(),
        mean_freq_mhz: (0..n).map(|c| trace.mean_active_freq_mhz(c)).collect(),
        mean_ips: (0..n).map(|c| trace.mean_ips(c)).collect(),
        trace,
    }
}

/// Map `f` over `items` on worker threads (sweeps are embarrassingly
/// parallel); results come back in input order.
///
/// Thin wrapper over the [`sweep`] engine with the thread mode taken
/// from `PAP_SWEEP_THREADS` (see [`sweep::Threads::from_env`]), so every
/// binary's sweep can be forced serial for byte-identity checks.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    sweep::run(sweep::Threads::from_env(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_workloads::spec;

    #[test]
    fn fixed_run_measures_single_core() {
        let p = PlatformSpec::skylake();
        let mut req = vec![KiloHertz::from_mhz(2200); 10];
        req[0] = KiloHertz::from_mhz(1500);
        let mut asg: Vec<Option<WorkloadProfile>> = vec![None; 10];
        asg[0] = Some(spec::GCC);
        let r = run_fixed(p, &req, &asg, None, Seconds(10.0));
        assert!((r.mean_freq_mhz[0] - 1500.0).abs() < 1.0);
        assert!(r.mean_ips[0] > 1e8);
        assert_eq!(r.mean_freq_mhz[1], 0.0, "idle core");
        assert!(r.mean_package_power.value() > 10.0);
    }

    #[test]
    fn fixed_run_under_rapl_limit() {
        let p = PlatformSpec::skylake();
        let req = vec![KiloHertz::from_mhz(2400); 10];
        let asg: Vec<Option<WorkloadProfile>> = vec![Some(spec::CAM4); 10];
        let r = run_fixed(p, &req, &asg, Some(Watts(40.0)), Seconds(15.0));
        assert!(
            r.mean_package_power.value() < 44.0,
            "RAPL must hold 40 W, got {}",
            r.mean_package_power
        );
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..64).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as i32);
        }
        // empty and single-item cases
        assert!(par_map(Vec::<i32>::new(), |x| x).is_empty());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }
}

/// DVFS-sweep machinery shared by the Figure 2 (Skylake) and Figure 3
/// (Ryzen) binaries.
pub mod dvfs {
    use super::*;
    use pap_telemetry::stats::BoxStats;
    use pap_workloads::spec;

    /// The frequency sweep and reference point for one platform's figure.
    pub struct SweepSpec {
        /// Platform to sweep.
        pub platform: PlatformSpec,
        /// Frequencies to visit (MHz).
        pub freqs_mhz: Vec<u64>,
        /// Runtime-normalization reference (MHz).
        pub reference_mhz: u64,
        /// Table title.
        pub title: &'static str,
    }

    /// Run the sweep and print the box-plot table plus a per-benchmark
    /// detail table at the top frequency.
    pub fn run_sweep(sweep: SweepSpec) {
        let benches = spec::spec2017();
        let mut jobs = Vec::new();
        for &mhz in &sweep.freqs_mhz {
            for b in &benches {
                jobs.push((mhz, *b));
            }
        }
        let results = par_map(jobs, |(mhz, bench): (u64, WorkloadProfile)| {
            let n = sweep.platform.num_cores;
            let req = vec![KiloHertz::from_mhz(mhz); n];
            let mut asg: Vec<Option<WorkloadProfile>> = vec![None; n];
            asg[0] = Some(bench);
            let r = run_fixed(sweep.platform.clone(), &req, &asg, None, Seconds(20.0));
            (mhz, bench.name, r.mean_ips[0], r.mean_package_power.value())
        });

        let ips_at = |mhz: u64, name: &str| -> f64 {
            results
                .iter()
                .find(|(m, n, _, _)| *m == mhz && *n == name)
                .map(|(_, _, ips, _)| *ips)
                .expect("swept")
        };

        let mut t = Table::new(
            sweep.title,
            &[
                "freq_mhz",
                "runtime_med",
                "runtime_q1",
                "runtime_q3",
                "pkg_w_med",
                "pkg_w_q1",
                "pkg_w_q3",
                "pkg_w_p99",
            ],
        );
        for &mhz in &sweep.freqs_mhz {
            let runtimes: Vec<f64> = benches
                .iter()
                .map(|b| ips_at(sweep.reference_mhz, b.name) / ips_at(mhz, b.name))
                .collect();
            let powers: Vec<f64> = results
                .iter()
                .filter(|(m, _, _, _)| *m == mhz)
                .map(|(_, _, _, p)| *p)
                .collect();
            let rt = BoxStats::from(&runtimes).expect("non-empty");
            let pw = BoxStats::from(&powers).expect("non-empty");
            t.row(vec![
                format!("{mhz}"),
                f3(rt.median),
                f3(rt.q1),
                f3(rt.q3),
                f1(pw.median),
                f1(pw.q1),
                f1(pw.q3),
                f1(pw.p99),
            ]);
        }
        println!("{t}");

        let top = *sweep.freqs_mhz.last().expect("non-empty sweep");
        let mut d = Table::new(
            format!("Per-benchmark detail at {top} MHz (AVX outliers visible)"),
            &["bench", "avx", "norm_runtime", "pkg_w"],
        );
        for b in &benches {
            let rt = ips_at(sweep.reference_mhz, b.name) / ips_at(top, b.name);
            let pw = results
                .iter()
                .find(|(m, n, _, _)| *m == top && *n == b.name)
                .map(|(_, _, _, p)| *p)
                .expect("swept");
            d.row(vec![
                b.name.to_string(),
                if b.avx { "yes" } else { "no" }.into(),
                f3(rt),
                f1(pw),
            ]);
        }
        println!("{d}");
    }
}

/// The workload mixes of the priority experiments (§6.1, Table 2).
pub mod mixes {
    use pap_workloads::profile::WorkloadProfile;
    use pap_workloads::spec;
    use powerd::config::Priority;

    /// One entry of a mix: a benchmark at a priority level.
    pub type MixEntry = (WorkloadProfile, Priority);

    /// A named priority mix.
    pub struct Mix {
        /// Display label, e.g. "7H 3L".
        pub label: &'static str,
        /// The applications, one per core.
        pub entries: Vec<MixEntry>,
    }

    fn entry(p: WorkloadProfile, pri: Priority, n: usize) -> Vec<MixEntry> {
        vec![(p, pri); n]
    }

    /// Table 2: the Skylake priority mixes (10 cores, HD = cactusBSSN,
    /// LD = leela).
    pub fn skylake_priority() -> Vec<Mix> {
        use Priority::{High as H, Low as L};
        let hd = spec::CACTUS_BSSN;
        let ld = spec::LEELA;
        vec![
            Mix {
                label: "10H 0L",
                entries: [entry(hd, H, 5), entry(ld, H, 5)].concat(),
            },
            Mix {
                label: "7H 3L",
                entries: [
                    entry(hd, H, 4),
                    entry(ld, H, 3),
                    entry(hd, L, 1),
                    entry(ld, L, 2),
                ]
                .concat(),
            },
            Mix {
                label: "5H 5L",
                entries: [entry(hd, H, 5), entry(ld, L, 5)].concat(),
            },
            Mix {
                label: "3H 7L",
                entries: [
                    entry(hd, H, 2),
                    entry(ld, H, 1),
                    entry(hd, L, 3),
                    entry(ld, L, 4),
                ]
                .concat(),
            },
            Mix {
                label: "1H 9L",
                entries: [entry(hd, H, 1), entry(hd, L, 4), entry(ld, L, 5)].concat(),
            },
        ]
    }

    /// The Ryzen priority mixes (8 cores): 8H, 6H2L (mixed demand), 4H4L
    /// (all-HD high class), 2H6L (mixed).
    pub fn ryzen_priority() -> Vec<Mix> {
        use Priority::{High as H, Low as L};
        let hd = spec::CACTUS_BSSN;
        let ld = spec::LEELA;
        vec![
            Mix {
                label: "8H 0L",
                entries: [entry(hd, H, 4), entry(ld, H, 4)].concat(),
            },
            Mix {
                label: "6H 2L",
                entries: [
                    entry(hd, H, 3),
                    entry(ld, H, 3),
                    entry(hd, L, 1),
                    entry(ld, L, 1),
                ]
                .concat(),
            },
            Mix {
                label: "4H 4L",
                entries: [entry(hd, H, 4), entry(ld, L, 4)].concat(),
            },
            Mix {
                label: "2H 6L",
                entries: [
                    entry(hd, H, 1),
                    entry(ld, H, 1),
                    entry(hd, L, 3),
                    entry(ld, L, 3),
                ]
                .concat(),
            },
        ]
    }
}
