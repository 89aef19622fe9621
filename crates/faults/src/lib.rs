//! Deterministic fault injection for the per-application power daemon.
//!
//! The simulator (`pap_simcpu`) is perfectly reliable: every MSR read
//! succeeds, every frequency write lands, every energy counter ticks
//! monotonically. Real power-management hardware is not. This crate
//! makes the simulated platform *lie* in the ways real platforms lie —
//! deterministically, from a seed — so the daemon's resilience layer
//! ([`powerd::resilience`]) can be exercised and scored:
//!
//! * [`plan`] — [`plan::FaultPlan`]: a reproducible schedule of fault
//!   windows and one-shot events ([`plan::FaultKind`]), either scripted
//!   by hand or generated from a seed with [`plan::FaultPlan::chaos`].
//! * [`chip`] — [`chip::FaultyChip`]: wraps any
//!   [`pap_simcpu::chiplike::ChipLike`] backend (the batch-stepped
//!   `WideChip` by default, the scalar `Chip` as the reference)
//!   behind fallible read/write hooks that consult the plan: transient
//!   and persistent read errors, flaky (probabilistic) reads, stuck
//!   frequency writes that are accepted but ineffective, per-core power
//!   noise, energy-counter glitches and rollovers, and thermal
//!   emergencies where firmware clamps the chip underneath the OS. It is
//!   a [`powerd::hw::PowerBackend`]: each sample reads every sensor
//!   through bounded retries, keeps a snapshot per sensor, screens
//!   derived values for plausibility and lists what failed in the
//!   sample's health record, together with write errors.
//! * [`runner`] — [`runner::ChaosExperiment`]: drives a workload mix
//!   through a fault plan in a [`powerd::hw::ControlLoop`] over a
//!   `FaultyChip`, with either the resilient stack or a naïve
//!   stale-fill baseline, and scores both on the *inner* chip's ground
//!   truth (cap violations, Jain fairness, starvation).
//!
//! Everything is seeded: the same plan, seed and workload mix replay
//! the exact same run, so chaos results are regression-testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chip;
pub mod plan;
pub mod runner;

use pap_simcpu::platform::PlatformSpec;

/// The platform chaos runs default to: a Ryzen-derived server part with
/// per-core power telemetry and fully independent per-core DVFS (no
/// shared P-state slots), and no hardware RAPL — the daemon alone
/// enforces the budget, which is exactly the regime where telemetry
/// faults are dangerous.
pub fn chaos_platform() -> PlatformSpec {
    let mut p = PlatformSpec::ryzen();
    p.name = "ryzen-server";
    p.shared_pstate_slots = None;
    p
}

/// Convenience re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::chaos_platform;
    pub use crate::chip::{FaultError, FaultyChip, InjectionStats};
    pub use crate::plan::{ChaosProfile, FaultKind, FaultPlan, FaultSpec};
    pub use crate::runner::{ChaosAppResult, ChaosExperiment, ChaosResult};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_platform_has_independent_per_core_dvfs() {
        let p = chaos_platform();
        assert!(p.per_core_power);
        assert!(p.shared_pstate_slots.is_none());
        assert!(p.rapl.is_none(), "daemon-enforced cap, no hardware RAPL");
    }
}
