//! Per-sensor health tracking with hysteresis.
//!
//! Production power daemons cannot assume their telemetry sources work:
//! MSR reads fail transiently (an `EIO` from `/dev/cpu/<n>/msr`), stay
//! broken after a microcode or driver fault, and frequency writes can be
//! silently ignored. The resilience layer needs one place that answers
//! "can I trust this sensor right now?" without flapping on a single
//! bad read. [`HealthTracker`] keeps a [`SensorHealth`] record per
//! [`SensorId`] and applies two-sided hysteresis: a sensor turns
//! *unhealthy* only after `demote_after` consecutive failures, and turns
//! *healthy* again only after `promote_after` consecutive successes.

use std::collections::BTreeMap;

/// Identifies one telemetry source or actuator the daemon depends on.
///
/// The variants mirror the paper's telemetry-requirements table: power
/// shares need [`SensorId::CorePower`] (Ryzen energy MSRs), frequency
/// shares need only [`SensorId::PackagePower`], and a plain uniform cap
/// needs just a working [`SensorId::FreqActuator`] on each core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SensorId {
    /// The package energy counter (package power derives from it).
    PackagePower,
    /// A per-core energy counter (per-core power; Ryzen only).
    CorePower(usize),
    /// A core's fixed counters (APERF/MPERF/TSC/instructions).
    CoreCounters(usize),
    /// A core's P-state write path (`IA32_PERF_CTL` or the AMD
    /// equivalent); unhealthy when writes error or are accepted but
    /// ineffective (stuck).
    FreqActuator(usize),
    /// The host's CPU-utilization source (`/proc/stat` on Linux).
    /// Unhealthy means per-core C0 residency is a stale or assumed
    /// value, so IPS-derived policy inputs must not be trusted.
    Utilization,
}

impl std::fmt::Display for SensorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SensorId::PackagePower => write!(f, "pkg-power"),
            SensorId::CorePower(c) => write!(f, "core{c}-power"),
            SensorId::CoreCounters(c) => write!(f, "core{c}-counters"),
            SensorId::FreqActuator(c) => write!(f, "core{c}-freq-wr"),
            SensorId::Utilization => write!(f, "cpu-util"),
        }
    }
}

/// Health state of one sensor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SensorState {
    /// Readings are trustworthy.
    #[default]
    Healthy,
    /// The sensor has failed often enough that consumers must stop
    /// relying on it.
    Unhealthy,
}

/// Counters and state for one sensor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SensorHealth {
    /// Current state after hysteresis.
    pub state: SensorState,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Successes since the last failure.
    pub consecutive_successes: u32,
    /// Total failed observations.
    pub total_failures: u64,
    /// Healthy→unhealthy and unhealthy→healthy transitions.
    pub transitions: u32,
}

/// Tracks health for any number of sensors with two-sided hysteresis.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    demote_after: u32,
    promote_after: u32,
    sensors: BTreeMap<SensorId, SensorHealth>,
}

impl HealthTracker {
    /// A tracker that declares a sensor unhealthy after `demote_after`
    /// consecutive failures and healthy again after `promote_after`
    /// consecutive successes. Both must be positive.
    pub fn new(demote_after: u32, promote_after: u32) -> HealthTracker {
        assert!(demote_after > 0 && promote_after > 0);
        HealthTracker {
            demote_after,
            promote_after,
            sensors: BTreeMap::new(),
        }
    }

    /// Record one observation of `sensor`. Returns whether it flipped the
    /// sensor's state.
    pub fn record(&mut self, sensor: SensorId, ok: bool) -> bool {
        let demote_after = self.demote_after;
        let promote_after = self.promote_after;
        let h = self.sensors.entry(sensor).or_default();
        if ok {
            h.consecutive_successes += 1;
            h.consecutive_failures = 0;
        } else {
            h.total_failures += 1;
            h.consecutive_failures += 1;
            h.consecutive_successes = 0;
        }
        let next = match h.state {
            SensorState::Healthy if h.consecutive_failures >= demote_after => {
                SensorState::Unhealthy
            }
            SensorState::Unhealthy if h.consecutive_successes >= promote_after => {
                SensorState::Healthy
            }
            same => same,
        };
        let flipped = next != h.state;
        if flipped {
            h.state = next;
            h.transitions += 1;
        }
        flipped
    }

    /// Whether `sensor` is currently healthy. Sensors never observed are
    /// healthy: absence of evidence is not failure.
    pub fn is_healthy(&self, sensor: SensorId) -> bool {
        self.sensors
            .get(&sensor)
            .is_none_or(|h| h.state == SensorState::Healthy)
    }

    /// The full record for one sensor, if it has ever been observed.
    pub fn sensor(&self, sensor: SensorId) -> Option<&SensorHealth> {
        self.sensors.get(&sensor)
    }

    /// Every sensor observed so far, in [`SensorId`] order.
    pub fn sensors(&self) -> impl Iterator<Item = (&SensorId, &SensorHealth)> {
        self.sensors.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_sensor_is_healthy() {
        let t = HealthTracker::new(3, 5);
        assert!(t.is_healthy(SensorId::PackagePower));
        assert!(t.sensor(SensorId::CorePower(2)).is_none());
    }

    #[test]
    fn demotion_needs_consecutive_failures() {
        let mut t = HealthTracker::new(3, 2);
        let s = SensorId::CorePower(0);
        // two failures, a success, two failures: never three in a row
        for ok in [false, false, true, false, false] {
            assert!(!t.record(s, ok));
        }
        assert!(t.is_healthy(s));
        assert!(t.record(s, false), "third consecutive failure");
        assert!(!t.is_healthy(s));
        assert_eq!(t.sensor(s).unwrap().transitions, 1);
    }

    #[test]
    fn promotion_needs_consecutive_successes() {
        let mut t = HealthTracker::new(1, 3);
        let s = SensorId::PackagePower;
        t.record(s, false);
        assert!(!t.is_healthy(s));
        t.record(s, true);
        t.record(s, true);
        assert!(!t.is_healthy(s), "two of three successes");
        t.record(s, false); // resets the streak
        t.record(s, true);
        t.record(s, true);
        assert!(!t.is_healthy(s));
        assert!(t.record(s, true), "third success");
        assert!(t.is_healthy(s));
    }

    #[test]
    fn counters_accumulate() {
        let mut t = HealthTracker::new(2, 2);
        let s = SensorId::FreqActuator(3);
        t.record(s, false);
        t.record(s, true);
        let h = t.sensor(s).unwrap();
        assert_eq!(h.total_failures, 1);
        assert_eq!(h.transitions, 0);
    }

    #[test]
    fn sensors_iterate_in_order() {
        let mut t = HealthTracker::new(1, 1);
        t.record(SensorId::FreqActuator(1), true);
        t.record(SensorId::PackagePower, true);
        t.record(SensorId::CorePower(0), true);
        let ids: Vec<SensorId> = t.sensors().map(|(id, _)| *id).collect();
        assert_eq!(
            ids,
            vec![
                SensorId::PackagePower,
                SensorId::CorePower(0),
                SensorId::FreqActuator(1),
            ]
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(SensorId::PackagePower.to_string(), "pkg-power");
        assert_eq!(SensorId::CorePower(5).to_string(), "core5-power");
        assert_eq!(SensorId::FreqActuator(2).to_string(), "core2-freq-wr");
        assert_eq!(SensorId::CoreCounters(1).to_string(), "core1-counters");
    }
}
