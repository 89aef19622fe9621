//! Intel RAPL through the powercap sysfs interface:
//! `/sys/class/powercap/intel-rapl:*`.
//!
//! Each powercap zone exposes a microjoule energy counter (`energy_uj`)
//! that wraps at an advertised per-zone range
//! (`max_energy_range_uj`) — *not* the raw 32-bit MSR format the
//! simulator emulates. Interval power therefore goes through
//! [`pap_telemetry::counters::power_from_energy_uj`], the wrap-aware
//! µJ variant.

use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::power_from_energy_uj;

use crate::sysfs::{HwError, SysfsRoot};

/// Base of the powercap tree.
pub const POWERCAP_DIR: &str = "sys/class/powercap";

/// One discovered RAPL zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaplDomain {
    /// Zone directory name, e.g. `intel-rapl:0` or `intel-rapl:0:0`.
    pub key: String,
    /// Zone name from the `name` attribute, e.g. `package-0`, `core`,
    /// `dram`.
    pub name: String,
    /// The counter's wrap range in µJ.
    pub max_energy_range_uj: u64,
}

impl RaplDomain {
    /// Whether this is a package-level zone.
    pub fn is_package(&self) -> bool {
        self.name.starts_with("package")
    }

    fn file(&self, name: &str) -> String {
        format!("{POWERCAP_DIR}/{}/{name}", self.key)
    }

    /// Read the zone's current energy counter in µJ.
    pub fn energy_uj(&self, root: &SysfsRoot) -> Result<u64, HwError> {
        root.read_u64(&self.file("energy_uj"))
    }
}

/// All RAPL zones under the powercap tree, top-level zones first (the
/// directory sort puts `intel-rapl:0` before `intel-rapl:0:0`).
pub fn discover(root: &SysfsRoot) -> Result<Vec<RaplDomain>, HwError> {
    let entries = match root.list(POWERCAP_DIR) {
        Ok(e) => e,
        Err(HwError::NotFound(_)) => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for key in entries {
        if !key.starts_with("intel-rapl:") {
            continue;
        }
        // A zone directory without its metadata files (driver mid-unbind)
        // is skipped rather than failing the whole discovery.
        let name = match root.read_string(&format!("{POWERCAP_DIR}/{key}/name")) {
            Ok(n) => n,
            Err(HwError::NotFound(_)) => continue,
            Err(e) => return Err(e),
        };
        let max_energy_range_uj =
            match root.read_u64(&format!("{POWERCAP_DIR}/{key}/max_energy_range_uj")) {
                Ok(v) => v,
                Err(HwError::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
        out.push(RaplDomain {
            key,
            name,
            max_energy_range_uj,
        });
    }
    Ok(out)
}

/// Stateful interval-power meter over one RAPL zone.
#[derive(Debug, Clone)]
pub struct RaplMeter {
    domain: RaplDomain,
    prev_uj: u64,
}

impl RaplMeter {
    /// Snapshot the zone's counter and start metering.
    pub fn new(root: &SysfsRoot, domain: RaplDomain) -> Result<RaplMeter, HwError> {
        let prev_uj = domain.energy_uj(root)?;
        Ok(RaplMeter { domain, prev_uj })
    }

    /// A meter over the first package zone, or `None` when the host has
    /// no RAPL — or a package zone whose energy counter is already gone
    /// (driver mid-unbind).
    pub fn package(root: &SysfsRoot) -> Result<Option<RaplMeter>, HwError> {
        match discover(root)?.into_iter().find(|d| d.is_package()) {
            Some(d) => match RaplMeter::new(root, d) {
                Err(HwError::NotFound(_)) => Ok(None),
                meter => meter.map(Some),
            },
            None => Ok(None),
        }
    }

    /// The zone being metered.
    pub fn domain(&self) -> &RaplDomain {
        &self.domain
    }

    /// Average power since the previous call, over an interval of `dt`.
    /// Advances the snapshot on success; a failed read leaves it
    /// untouched so the next successful read still yields a correct
    /// (longer-interval) average.
    pub fn power(&mut self, root: &SysfsRoot, dt: Seconds) -> Result<Watts, HwError> {
        let now_uj = self.domain.energy_uj(root)?;
        let p = power_from_energy_uj(self.prev_uj, now_uj, self.domain.max_energy_range_uj, dt);
        self.prev_uj = now_uj;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockSysfs;

    #[test]
    fn discovers_package_and_subzones() {
        let mock = MockSysfs::intel(2);
        let root = mock.root();
        let zones = discover(&root).unwrap();
        assert!(zones
            .iter()
            .any(|z| z.name == "package-0" && z.is_package()));
        assert!(zones.iter().any(|z| z.name == "core" && !z.is_package()));
    }

    #[test]
    fn no_powercap_tree_is_not_an_error() {
        let mock = MockSysfs::empty();
        assert!(discover(&mock.root()).unwrap().is_empty());
        assert!(RaplMeter::package(&mock.root()).unwrap().is_none());
    }

    #[test]
    fn interval_power_from_energy_deltas() {
        let mock = MockSysfs::intel(2);
        let root = mock.root();
        let mut m = RaplMeter::package(&root)
            .unwrap()
            .expect("intel fixture has rapl");
        mock.add_package_energy_uj(25_000_000); // 25 J
        let p = m.power(&root, Seconds(1.0)).unwrap();
        assert!((p.value() - 25.0).abs() < 1e-9, "{p}");
        // No further energy: zero watts.
        let p = m.power(&root, Seconds(1.0)).unwrap();
        assert_eq!(p.value(), 0.0);
    }

    #[test]
    fn counter_wrap_mid_run_is_handled() {
        let mock = MockSysfs::intel(2);
        let root = mock.root();
        let max = mock.package_max_energy_range_uj();
        // Park the counter 10 µJ below the range, then add 30 J.
        mock.set_package_energy_uj(max - 10);
        let mut m = RaplMeter::package(&root).unwrap().unwrap();
        mock.add_package_energy_uj(30_000_000);
        let p = m.power(&root, Seconds(2.0)).unwrap();
        assert!((p.value() - 15.0).abs() < 1e-6, "wrapped power {p}");
    }

    #[test]
    fn failed_read_keeps_the_snapshot() {
        let mock = MockSysfs::intel(2);
        let root = mock.root();
        let mut m = RaplMeter::package(&root).unwrap().unwrap();
        mock.add_package_energy_uj(10_000_000);
        mock.remove("sys/class/powercap/intel-rapl:0/energy_uj");
        assert!(matches!(
            m.power(&root, Seconds(1.0)),
            Err(HwError::NotFound(_))
        ));
        // File comes back (driver rebind): the accumulated 10 J over the
        // combined 2 s interval still reads correctly.
        mock.restore_package_energy();
        let p = m.power(&root, Seconds(2.0)).unwrap();
        assert!((p.value() - 5.0).abs() < 1e-9, "{p}");
    }
}
