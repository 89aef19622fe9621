//! Counter snapshot/delta arithmetic.
//!
//! Telemetry derives all its rates from free-running hardware counters:
//! active frequency from APERF/MPERF, C0 residency from MPERF/TSC, IPS
//! from the retired-instruction counter, and power from wrapping RAPL
//! energy counters. Everything here is pure delta arithmetic with
//! wraparound handling.

use pap_simcpu::core::CoreCounters;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::rapl::EnergyCounter;
use pap_simcpu::units::{Seconds, Watts};

/// Rates derived from two [`CoreCounters`] snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreRates {
    /// Active (C0) frequency: `Δaperf / Δmperf × base`. Zero when the core
    /// never woke during the interval — matching how turbostat reports
    /// fully idle cores.
    pub active_freq: KiloHertz,
    /// Fraction of the interval spent in C0: `Δmperf / Δtsc`.
    pub c0_residency: f64,
    /// Retired instructions per second.
    pub ips: f64,
}

impl CoreRates {
    /// No activity: what a fully idle core reports, and the neutral
    /// value for a core whose counters could not be read.
    pub const ZERO: CoreRates = CoreRates {
        active_freq: KiloHertz::ZERO,
        c0_residency: 0.0,
        ips: 0.0,
    };
}

/// Compute rates between two counter snapshots taken `dt` apart on a part
/// with nominal frequency `base_freq`.
pub fn core_rates(
    prev: CoreCounters,
    now: CoreCounters,
    dt: Seconds,
    base_freq: KiloHertz,
) -> CoreRates {
    debug_assert!(dt.value() > 0.0);
    let d_aperf = now.aperf.wrapping_sub(prev.aperf);
    let d_mperf = now.mperf.wrapping_sub(prev.mperf);
    let d_tsc = now.tsc.wrapping_sub(prev.tsc);
    let d_instr = now.instructions.wrapping_sub(prev.instructions);

    let active_freq = if d_mperf == 0 {
        KiloHertz::ZERO
    } else {
        base_freq.scale(d_aperf as f64 / d_mperf as f64)
    };
    let c0_residency = if d_tsc == 0 {
        0.0
    } else {
        (d_mperf as f64 / d_tsc as f64).clamp(0.0, 1.0)
    };
    CoreRates {
        active_freq,
        c0_residency,
        ips: d_instr as f64 / dt.value(),
    }
}

/// Average power over an interval from two raw RAPL energy readings.
pub fn power_from_energy(prev_raw: u32, now_raw: u32, dt: Seconds) -> Watts {
    debug_assert!(dt.value() > 0.0);
    EnergyCounter::delta_joules(prev_raw, now_raw) / dt
}

/// Average power over an interval from two microjoule energy readings of
/// a counter that wraps at a caller-supplied range — the format Linux
/// powercap exposes (`energy_uj` counts up to `max_energy_range_uj`,
/// then wraps to zero). Unlike [`power_from_energy`], which assumes the
/// 32-bit raw-MSR format in fixed energy units, this variant takes the
/// counter's actual range, since powercap domains advertise ranges that
/// are neither 32-bit nor power-of-two.
///
/// The counter is modelled as counting `0..=max_energy_range_uj` and
/// wrapping from the maximum back to zero, so a wrapped delta is
/// `(max - prev) + now + 1` µJ. Readings above the advertised range are
/// clamped to it (a defensive measure against drivers that briefly
/// report out-of-range values).
pub fn power_from_energy_uj(
    prev_uj: u64,
    now_uj: u64,
    max_energy_range_uj: u64,
    dt: Seconds,
) -> Watts {
    debug_assert!(dt.value() > 0.0);
    debug_assert!(max_energy_range_uj > 0);
    let prev = prev_uj.min(max_energy_range_uj);
    let now = now_uj.min(max_energy_range_uj);
    let delta_uj = if now >= prev {
        now - prev
    } else {
        // `now < prev <= max`, so this cannot overflow: the wrapped
        // delta is at most `max`.
        (max_energy_range_uj - prev) + now + 1
    };
    Watts(delta_uj as f64 * 1e-6 / dt.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(aperf: u64, mperf: u64, tsc: u64, instr: u64) -> CoreCounters {
        CoreCounters {
            aperf,
            mperf,
            tsc,
            instructions: instr,
        }
    }

    #[test]
    fn active_frequency_from_aperf_mperf() {
        let base = KiloHertz::from_mhz(2200);
        // ran at half the base clock while active
        let r = core_rates(
            counters(0, 0, 0, 0),
            counters(1_100_000_000, 2_200_000_000, 2_200_000_000, 1_000_000),
            Seconds(1.0),
            base,
        );
        assert_eq!(r.active_freq, KiloHertz::from_mhz(1100));
        assert!((r.c0_residency - 1.0).abs() < 1e-12);
        assert!((r.ips - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn idle_core_reports_zero_freq() {
        let r = core_rates(
            counters(5, 5, 100, 7),
            counters(5, 5, 2_200_000_100, 7),
            Seconds(1.0),
            KiloHertz::from_mhz(2200),
        );
        assert_eq!(r.active_freq, KiloHertz::ZERO);
        assert_eq!(r.c0_residency, 0.0);
        assert_eq!(r.ips, 0.0);
    }

    #[test]
    fn partial_residency() {
        let base = KiloHertz::from_mhz(2000);
        let r = core_rates(
            counters(0, 0, 0, 0),
            counters(500_000_000, 500_000_000, 2_000_000_000, 0),
            Seconds(1.0),
            base,
        );
        assert!((r.c0_residency - 0.25).abs() < 1e-12);
        // active frequency is full base while awake
        assert_eq!(r.active_freq, base);
    }

    #[test]
    fn counter_wraparound_handled() {
        let r = core_rates(
            counters(u64::MAX - 10, u64::MAX - 10, u64::MAX - 10, u64::MAX - 5),
            counters(90, 90, 90, 5),
            Seconds(1.0),
            KiloHertz::from_mhz(1000),
        );
        // 101 cycles of each
        assert_eq!(r.active_freq, KiloHertz::from_mhz(1000));
        assert!((r.ips - 11.0).abs() < 1e-9);
    }

    #[test]
    fn microjoule_power_without_wrap() {
        // 2 J over 0.5 s = 4 W, far from the range boundary.
        let p = power_from_energy_uj(1_000_000, 3_000_000, 262_143_328_850, Seconds(0.5));
        assert!((p.value() - 4.0).abs() < 1e-9);
        // Zero delta is zero watts.
        let p = power_from_energy_uj(5, 5, 1_000, Seconds(1.0));
        assert_eq!(p.value(), 0.0);
    }

    #[test]
    fn microjoule_power_wraps_at_caller_supplied_range() {
        // A typical powercap package range (not a power of two). Counter
        // runs from 10 µJ below the max, wraps to 0, and lands at 19 µJ:
        // 10 µJ to reach max, 1 µJ for the max -> 0 step, 19 µJ after.
        let max = 262_143_328_850u64;
        let p = power_from_energy_uj(max - 10, 19, max, Seconds(1.0));
        assert!((p.value() - 30e-6).abs() < 1e-12, "{}", p.value());

        // Exactly at the boundary: prev == max, now == 0 is a 1 µJ step.
        let p = power_from_energy_uj(max, 0, max, Seconds(1.0));
        assert!((p.value() - 1e-6).abs() < 1e-15);

        // A small range wraps many orders of magnitude before u32/u64 do.
        let p = power_from_energy_uj(900, 99, 999, Seconds(0.1));
        // (999 - 900) + 99 + 1 = 199 µJ over 0.1 s
        assert!((p.value() - 199e-5).abs() < 1e-12);
    }

    #[test]
    fn microjoule_power_clamps_out_of_range_readings() {
        // A reading above the advertised range is clamped rather than
        // producing a garbage multi-joule delta.
        let p = power_from_energy_uj(100, u64::MAX, 1_000, Seconds(1.0));
        assert!((p.value() - 900e-6).abs() < 1e-12);
    }

    #[test]
    fn power_from_energy_readings() {
        // 16384 units = 1 J over 0.5 s = 2 W
        let p = power_from_energy(100, 100 + 16384, Seconds(0.5));
        assert!((p.value() - 2.0).abs() < 1e-9);
        // wraparound
        let p = power_from_energy(u32::MAX - 8191, 8192, Seconds(1.0));
        assert!((p.value() - 1.0).abs() < 1e-3);
    }
}
