//! Time-series recording and CSV export.
//!
//! Experiments append [`Sample`]s to a [`Trace`] as the run progresses and
//! query aggregates afterwards; the CSV export matches the column layout
//! of the paper's published turbostat logs (time, package power, then
//! per-core frequency/IPS/power triples).

use std::io::{self, Write};

use pap_simcpu::units::{Seconds, Watts};

use crate::sampler::Sample;
use crate::stats;

/// A recorded sequence of telemetry samples.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    samples: Vec<Sample>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Append a sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drop the first `n` samples (warm-up trimming).
    pub fn trim_warmup(&mut self, n: usize) {
        let n = n.min(self.samples.len());
        self.samples.drain(..n);
    }

    /// Mean package power over the trace.
    pub fn mean_package_power(&self) -> Watts {
        let v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.package_power.value())
            .collect();
        Watts(stats::mean(&v))
    }

    /// Mean active frequency of one core over the trace, counting only
    /// samples where the core was awake.
    pub fn mean_active_freq_mhz(&self, core: usize) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.cores[core].rates.active_freq.mhz() as f64)
            .filter(|&f| f > 0.0)
            .collect();
        stats::mean(&v)
    }

    /// Mean IPS of one core over the trace.
    pub fn mean_ips(&self, core: usize) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.cores[core].rates.ips)
            .collect();
        stats::mean(&v)
    }

    /// Mean per-core power of one core (Ryzen only; `None` if the samples
    /// carry no per-core power).
    pub fn mean_core_power(&self, core: usize) -> Option<Watts> {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.cores[core].power.map(|p| p.value()))
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(Watts(stats::mean(&v)))
        }
    }

    /// Total simulated time covered.
    pub fn duration(&self) -> Seconds {
        Seconds(self.samples.iter().map(|s| s.interval.value()).sum())
    }

    /// Render as CSV into a `String` (thin wrapper over
    /// [`Trace::write_csv`]).
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        self.write_csv(&mut out)
            .expect("writing CSV to a Vec cannot fail");
        String::from_utf8(out).expect("CSV output is ASCII")
    }

    /// Stream as CSV into any [`io::Write`]: header plus one row per
    /// sample, without materialising the whole document in memory.
    ///
    /// The column count is sized from the *maximum* core count across all
    /// samples — traces whose samples disagree (mid-run admission on a
    /// cluster node) stay rectangular, with absent cores padded as `-`.
    pub fn write_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        let ncores = self
            .samples
            .iter()
            .map(|s| s.cores.len())
            .max()
            .unwrap_or(0);
        out.write_all(b"time_s,pkg_w,cores_w")?;
        for c in 0..ncores {
            write!(out, ",c{c}_mhz,c{c}_ips,c{c}_w")?;
        }
        out.write_all(b"\n")?;
        for s in &self.samples {
            write!(
                out,
                "{:.3},{:.3},{:.3}",
                s.time.value(),
                s.package_power.value(),
                s.cores_power.value()
            )?;
            for c in 0..ncores {
                match s.cores.get(c) {
                    Some(cs) => {
                        write!(out, ",{},{:.0},", cs.rates.active_freq.mhz(), cs.rates.ips)?;
                        match cs.power {
                            Some(p) => write!(out, "{:.3}", p.value())?,
                            None => out.write_all(b"-")?,
                        }
                    }
                    None => out.write_all(b",-,-,-")?,
                }
            }
            out.write_all(b"\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CoreRates;
    use crate::sampler::CoreSample;
    use pap_simcpu::freq::KiloHertz;

    fn sample(t: f64, pkg: f64, freq_mhz: u64, ips: f64) -> Sample {
        Sample {
            time: Seconds(t),
            interval: Seconds(1.0),
            package_power: Watts(pkg),
            cores_power: Watts(pkg - 10.0),
            cores: vec![CoreSample {
                rates: CoreRates {
                    active_freq: KiloHertz::from_mhz(freq_mhz),
                    c0_residency: 1.0,
                    ips,
                },
                power: None,
                requested_freq: KiloHertz::from_mhz(freq_mhz),
            }],
            health: Default::default(),
        }
    }

    #[test]
    fn aggregates() {
        let mut t = Trace::new();
        t.push(sample(1.0, 40.0, 2000, 1e9));
        t.push(sample(2.0, 50.0, 1000, 5e8));
        assert_eq!(t.len(), 2);
        assert!((t.mean_package_power().value() - 45.0).abs() < 1e-12);
        assert!((t.mean_active_freq_mhz(0) - 1500.0).abs() < 1e-12);
        assert!((t.mean_ips(0) - 7.5e8).abs() < 1.0);
        assert_eq!(t.mean_core_power(0), None);
        assert!((t.duration().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn idle_samples_excluded_from_freq_mean() {
        let mut t = Trace::new();
        t.push(sample(1.0, 40.0, 2000, 1e9));
        t.push(sample(2.0, 40.0, 0, 0.0));
        assert!((t.mean_active_freq_mhz(0) - 2000.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_trimming() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.push(sample(i as f64, 30.0 + i as f64, 1000, 1e9));
        }
        t.trim_warmup(4);
        assert_eq!(t.len(), 6);
        assert!(t.samples()[0].time.value() >= 4.0);
        t.trim_warmup(100);
        assert!(t.is_empty());
    }

    #[test]
    fn csv_layout() {
        let mut t = Trace::new();
        t.push(sample(1.0, 40.5, 2000, 1e9));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time_s,pkg_w,cores_w,c0_mhz,c0_ips,c0_w"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("1.000,40.500,30.500,2000,1000000000,-"));
    }

    #[test]
    fn write_csv_matches_to_csv() {
        let mut t = Trace::new();
        t.push(sample(1.0, 40.5, 2000, 1e9));
        t.push(sample(2.0, 41.5, 1800, 9e8));
        let mut streamed = Vec::new();
        t.write_csv(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), t.to_csv());
    }

    #[test]
    fn csv_ragged_core_counts_stay_rectangular() {
        // Mid-run admission: a later sample carries more cores than the
        // first. The header must be sized from the max core count and
        // short rows padded, so every row has the same column count.
        let mut wide = sample(2.0, 50.0, 1500, 5e8);
        wide.cores.push(wide.cores[0].clone());
        wide.cores.push(wide.cores[0].clone());

        let mut t = Trace::new();
        t.push(sample(1.0, 40.0, 2000, 1e9)); // 1 core
        t.push(wide); // 3 cores
        let csv = t.to_csv();

        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.ends_with("c2_mhz,c2_ips,c2_w"), "header: {header}");
        let ncols = header.split(',').count();
        for row in lines {
            assert_eq!(row.split(',').count(), ncols, "ragged row: {row}");
        }
        // The short row is padded with placeholders for the absent cores.
        let short = csv.lines().nth(1).unwrap();
        assert!(short.ends_with(",-,-,-,-,-,-"), "short row: {short}");
    }
}
