//! Multi-node telemetry aggregation for cluster-level arbitration.
//!
//! A cluster allocator reasons about *nodes*, not cores: each node's
//! `powerd` daemon samples its own chip at the control cadence, and the
//! arbiter needs those per-node views folded into one cluster picture —
//! total draw vs the global cap, per-node saturation for placement, and
//! headroom for rebalancing. [`NodeTelemetry`] is the one-node summary
//! (built from a [`Sample`] plus the node's static membership facts);
//! [`ClusterRollup`] is the cluster-wide fold the allocator consumes.
//!
//! At datacenter scale re-folding every node each tick is the
//! bottleneck, so [`DeltaRollup`] keeps the per-node rows resident and
//! only re-aggregates nodes whose telemetry moved beyond a configurable
//! epsilon. With `epsilon = 0` the delta path is *exact*: the
//! materialized rollup and every total are bit-identical to a full
//! re-aggregation (property-tested in `tests/rollup_props.rs`), which
//! is what lets the sharded engine in `pap-scale` prove itself against
//! the serial `clusterd` reference.

use std::collections::BTreeSet;

use pap_simcpu::units::{Seconds, Watts};

use crate::sampler::Sample;

/// One node's telemetry for one control interval, summarized to what
/// cluster-level arbitration needs.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTelemetry {
    /// Node identifier within the cluster.
    pub node: usize,
    /// Measured package power over the interval.
    pub package_power: Watts,
    /// The node's currently enforced power cap.
    pub power_cap: Watts,
    /// Cores with an application pinned (membership, not C0 residency:
    /// a momentarily idle service core is still occupied).
    pub busy_cores: usize,
    /// The node's total core count.
    pub num_cores: usize,
    /// Sum of proportional shares across the node's applications.
    pub total_shares: f64,
    /// Aggregate retired instructions per second across all cores.
    pub total_ips: f64,
    /// The node daemon's learned prediction of its maximum package draw
    /// (every app core at the top P-state), when its online power model
    /// is confident. `None` when the node runs the naive translation or
    /// the fit is not yet trustworthy; the cluster allocator then falls
    /// back to the platform ceiling.
    pub predicted_capacity: Option<Watts>,
}

impl NodeTelemetry {
    /// Summarize a node's chip sample. `busy_cores` and `total_shares`
    /// come from the daemon's app membership — the sampler cannot know
    /// them.
    pub fn from_sample(
        node: usize,
        sample: &Sample,
        power_cap: Watts,
        busy_cores: usize,
        total_shares: f64,
    ) -> NodeTelemetry {
        NodeTelemetry {
            node,
            package_power: sample.package_power,
            power_cap,
            busy_cores,
            num_cores: sample.cores.len(),
            total_shares,
            total_ips: sample.cores.iter().map(|c| c.rates.ips).sum(),
            predicted_capacity: None,
        }
    }

    /// Attach the daemon's learned capacity prediction (the sampler
    /// cannot know it; only the node's daemon can).
    pub fn with_predicted_capacity(mut self, capacity: Option<Watts>) -> NodeTelemetry {
        self.predicted_capacity = capacity;
        self
    }

    /// Whether every numeric field is finite and non-negative — i.e.
    /// the row can enter a cluster aggregate without poisoning it.
    pub fn is_healthy(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        ok(self.package_power.value())
            && ok(self.power_cap.value())
            && ok(self.total_ips)
            && ok(self.total_shares)
            && self.predicted_capacity.is_none_or(|c| ok(c.value()))
    }

    /// Clamp non-finite or negative telemetry (a faulty node reporting
    /// NaN power or IPS) to safe zeros so one sick sensor cannot poison
    /// the cluster aggregate. Returns `true` when anything was clamped;
    /// healthy rows pass through bit-unchanged.
    pub fn sanitize(&mut self) -> bool {
        if self.is_healthy() {
            return false;
        }
        let fix = |v: &mut f64| {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.0;
            }
        };
        fix(&mut self.package_power.0);
        fix(&mut self.power_cap.0);
        fix(&mut self.total_ips);
        fix(&mut self.total_shares);
        if let Some(c) = self.predicted_capacity {
            if !c.value().is_finite() || c.value() < 0.0 {
                // A garbage prediction must not clamp the allocator's
                // ceiling; dropping it falls back to the platform max.
                self.predicted_capacity = None;
            }
        }
        true
    }

    /// Occupied fraction of the node's cores.
    pub fn saturation(&self) -> f64 {
        if self.num_cores == 0 {
            return 1.0;
        }
        self.busy_cores as f64 / self.num_cores as f64
    }

    /// Unoccupied cores available for placement.
    pub fn free_cores(&self) -> usize {
        self.num_cores.saturating_sub(self.busy_cores)
    }

    /// Cap minus draw (negative when the node overshoots its cap).
    pub fn headroom(&self) -> Watts {
        self.power_cap - self.package_power
    }
}

/// The cluster-wide aggregation of one control interval's per-node
/// telemetry, in ascending node order.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRollup {
    /// Sampling interval the rows cover.
    pub interval: Seconds,
    /// Per-node summaries, sorted by node id.
    pub nodes: Vec<NodeTelemetry>,
    /// Nodes whose telemetry was clamped by [`NodeTelemetry::sanitize`]
    /// this interval (ascending). Kept out of the public fields so the
    /// only way to build a rollup is through the sanitizing paths.
    unhealthy: Vec<usize>,
}

impl ClusterRollup {
    /// Fold per-node telemetry (any order) into a rollup; rows are
    /// sorted by node id so downstream iteration is deterministic, and
    /// non-finite rows are clamped ([`NodeTelemetry::sanitize`]) with
    /// the offending nodes flagged in [`ClusterRollup::unhealthy_nodes`].
    pub fn new(interval: Seconds, mut nodes: Vec<NodeTelemetry>) -> ClusterRollup {
        nodes.sort_by_key(|n| n.node);
        let mut unhealthy = Vec::new();
        for n in &mut nodes {
            if n.sanitize() {
                unhealthy.push(n.node);
            }
        }
        ClusterRollup {
            interval,
            nodes,
            unhealthy,
        }
    }

    /// Nodes whose telemetry had to be clamped this interval — the
    /// health flag a cluster operator alarms on (ascending node ids).
    pub fn unhealthy_nodes(&self) -> &[usize] {
        &self.unhealthy
    }

    /// Total measured power across the cluster.
    pub fn total_power(&self) -> Watts {
        self.nodes.iter().map(|n| n.package_power).sum()
    }

    /// Sum of all node caps (the budget currently handed out).
    pub fn total_cap(&self) -> Watts {
        self.nodes.iter().map(|n| n.power_cap).sum()
    }

    /// Sum of shares across every application in the cluster.
    pub fn total_shares(&self) -> f64 {
        self.nodes.iter().map(|n| n.total_shares).sum()
    }

    /// Aggregate instruction throughput across the cluster.
    pub fn total_ips(&self) -> f64 {
        self.nodes.iter().map(|n| n.total_ips).sum()
    }

    /// Occupied cores across the cluster.
    pub fn busy_cores(&self) -> usize {
        self.nodes.iter().map(|n| n.busy_cores).sum()
    }

    /// All cores across the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes.iter().map(|n| n.num_cores).sum()
    }

    /// Occupied fraction of the whole cluster.
    pub fn saturation(&self) -> f64 {
        let total = self.total_cores();
        if total == 0 {
            return 1.0;
        }
        self.busy_cores() as f64 / total as f64
    }

    /// The least-saturated node with at least one free core — the
    /// placement target. Ties break to the lowest node id (placement
    /// must be deterministic for the sharded engine's replay checks).
    pub fn least_saturated(&self) -> Option<usize> {
        self.nodes
            .iter()
            .filter(|n| n.free_cores() > 0)
            .min_by(|a, b| {
                a.saturation()
                    .total_cmp(&b.saturation())
                    .then(a.node.cmp(&b.node))
            })
            .map(|n| n.node)
    }

    /// Jain fairness of per-node power draw (1 = perfectly even). An
    /// empty or fully-idle cluster reports 1.0 (the
    /// [`crate::stats::jain`] degenerate-input convention).
    pub fn power_balance(&self) -> f64 {
        let draws: Vec<f64> = self.nodes.iter().map(|n| n.package_power.value()).collect();
        crate::stats::jain(&draws)
    }
}

/// Did a row move beyond the tolerance? Structural fields (membership,
/// caps, prediction presence) count as moved on any change; the float
/// fields use a relative-or-absolute test so epsilon is meaningful for
/// both watt-scale power and 1e9-scale IPS. `eps = 0` degenerates to
/// "any bit changed".
fn moved(old: &NodeTelemetry, new: &NodeTelemetry, eps: f64) -> bool {
    fn beyond(new: f64, old: f64, eps: f64) -> bool {
        (new - old).abs() > eps * old.abs().max(1.0)
    }
    old.busy_cores != new.busy_cores
        || old.num_cores != new.num_cores
        || old.power_cap != new.power_cap
        || old.predicted_capacity.is_some() != new.predicted_capacity.is_some()
        || matches!(
            (old.predicted_capacity, new.predicted_capacity),
            (Some(a), Some(b)) if beyond(b.value(), a.value(), eps)
        )
        || beyond(new.package_power.value(), old.package_power.value(), eps)
        || beyond(new.total_ips, old.total_ips, eps)
        || beyond(new.total_shares, old.total_shares, eps)
}

/// Incremental cluster aggregation for the sharded control plane.
///
/// Rows stay resident between intervals, indexed by node id; an update
/// whose telemetry has not moved beyond `epsilon` (see [`moved`]) is
/// *skipped* — the cached row and running totals stand. Two regimes:
///
/// * **`epsilon = 0` (exact mode)** — a row is only skipped when it is
///   bit-identical to the cached one, and every total is computed by a
///   full in-node-order fold over the resident rows, so
///   [`DeltaRollup::to_rollup`] and all totals are bit-identical to
///   [`ClusterRollup::new`] over the same latest rows. This is the mode
///   the sharded engine's serial-parity proof runs in.
/// * **`epsilon > 0`** — totals are maintained incrementally
///   (subtract-old/add-new on accepted updates), so skipped rows cost
///   nothing and totals drift from a fresh fold by at most the sum of
///   tolerated per-row deltas plus float re-association error. The
///   speed/accuracy trade the arbiter makes at 1000+ nodes.
///
/// Rows are sanitized on the way in exactly like
/// [`ClusterRollup::new`]; nodes currently flagged unhealthy are
/// reported by [`DeltaRollup::unhealthy_nodes`].
#[derive(Debug, Clone)]
pub struct DeltaRollup {
    epsilon: f64,
    interval: Seconds,
    rows: Vec<Option<NodeTelemetry>>,
    // Running totals; authoritative only when `epsilon > 0`.
    power_w: f64,
    cap_w: f64,
    shares: f64,
    ips: f64,
    busy: usize,
    cores: usize,
    present: usize,
    unhealthy: BTreeSet<usize>,
    updates: u64,
    skips: u64,
}

impl DeltaRollup {
    /// An empty delta store. `epsilon` must be finite and non-negative
    /// (clamped otherwise); `0` selects the exact mode.
    pub fn new(interval: Seconds, epsilon: f64) -> DeltaRollup {
        let epsilon = if epsilon.is_finite() && epsilon > 0.0 {
            epsilon
        } else {
            0.0
        };
        DeltaRollup {
            epsilon,
            interval,
            rows: Vec::new(),
            power_w: 0.0,
            cap_w: 0.0,
            shares: 0.0,
            ips: 0.0,
            busy: 0,
            cores: 0,
            present: 0,
            unhealthy: BTreeSet::new(),
            updates: 0,
            skips: 0,
        }
    }

    /// The configured tolerance (0 = exact mode).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The interval stamped on materialized rollups.
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// Number of nodes currently resident.
    pub fn len(&self) -> usize {
        self.present
    }

    /// Whether no nodes are resident.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Updates accepted (row re-aggregated) so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Updates skipped (row within epsilon of the cached one) so far.
    pub fn skips(&self) -> u64 {
        self.skips
    }

    /// Nodes whose most recent accepted update had to be clamped.
    pub fn unhealthy_nodes(&self) -> Vec<usize> {
        self.unhealthy.iter().copied().collect()
    }

    fn add_totals(&mut self, t: &NodeTelemetry) {
        self.power_w += t.package_power.value();
        self.cap_w += t.power_cap.value();
        self.shares += t.total_shares;
        self.ips += t.total_ips;
        self.busy += t.busy_cores;
        self.cores += t.num_cores;
    }

    fn sub_totals(&mut self, t: &NodeTelemetry) {
        self.power_w -= t.package_power.value();
        self.cap_w -= t.power_cap.value();
        self.shares -= t.total_shares;
        self.ips -= t.total_ips;
        self.busy -= t.busy_cores;
        self.cores -= t.num_cores;
    }

    /// Fold one node's fresh telemetry in. Returns `true` when the row
    /// was re-aggregated, `false` when the change was within epsilon
    /// and the cached row stands.
    pub fn update(&mut self, mut tel: NodeTelemetry) -> bool {
        let clamped = tel.sanitize();
        let id = tel.node;
        if id >= self.rows.len() {
            self.rows.resize_with(id + 1, || None);
        }
        match self.rows[id].take() {
            Some(old) => {
                if !moved(&old, &tel, self.epsilon) {
                    self.rows[id] = Some(old);
                    self.skips += 1;
                    return false;
                }
                self.sub_totals(&old);
            }
            None => self.present += 1,
        }
        self.add_totals(&tel);
        if clamped {
            self.unhealthy.insert(id);
        } else {
            self.unhealthy.remove(&id);
        }
        self.rows[id] = Some(tel);
        self.updates += 1;
        true
    }

    /// Drop a departed node's row. Returns whether it was resident.
    pub fn remove(&mut self, node: usize) -> bool {
        match self.rows.get_mut(node).and_then(Option::take) {
            Some(old) => {
                self.sub_totals(&old);
                self.present -= 1;
                self.unhealthy.remove(&node);
                true
            }
            None => false,
        }
    }

    fn exact(&self) -> bool {
        self.epsilon == 0.0
    }

    /// Total measured power. Exact in-order fold in exact mode, cached
    /// running total otherwise.
    pub fn total_power(&self) -> Watts {
        if self.exact() {
            self.rows.iter().flatten().map(|n| n.package_power).sum()
        } else {
            Watts(self.power_w)
        }
    }

    /// Sum of node caps currently handed out.
    pub fn total_cap(&self) -> Watts {
        if self.exact() {
            self.rows.iter().flatten().map(|n| n.power_cap).sum()
        } else {
            Watts(self.cap_w)
        }
    }

    /// Sum of shares across the resident nodes.
    pub fn total_shares(&self) -> f64 {
        if self.exact() {
            self.rows.iter().flatten().map(|n| n.total_shares).sum()
        } else {
            self.shares
        }
    }

    /// Aggregate instruction throughput.
    pub fn total_ips(&self) -> f64 {
        if self.exact() {
            self.rows.iter().flatten().map(|n| n.total_ips).sum()
        } else {
            self.ips
        }
    }

    /// Occupied cores across resident nodes.
    pub fn busy_cores(&self) -> usize {
        if self.exact() {
            self.rows.iter().flatten().map(|n| n.busy_cores).sum()
        } else {
            self.busy
        }
    }

    /// All cores across resident nodes.
    pub fn total_cores(&self) -> usize {
        if self.exact() {
            self.rows.iter().flatten().map(|n| n.num_cores).sum()
        } else {
            self.cores
        }
    }

    /// Materialize the resident rows as a [`ClusterRollup`] (node-id
    /// order). In exact mode the result is bit-identical to
    /// `ClusterRollup::new(interval, latest_rows)`.
    pub fn to_rollup(&self) -> ClusterRollup {
        let nodes: Vec<NodeTelemetry> = self.rows.iter().flatten().cloned().collect();
        // Rows were sanitized on entry, so `new` re-sanitizes no-ops;
        // carry the live health flags instead of the (empty) recompute.
        let mut rollup = ClusterRollup::new(self.interval, nodes);
        rollup.unhealthy = self.unhealthy.iter().copied().collect();
        rollup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: usize, power: f64, cap: f64, busy: usize, shares: f64) -> NodeTelemetry {
        NodeTelemetry {
            node: id,
            package_power: Watts(power),
            power_cap: Watts(cap),
            busy_cores: busy,
            num_cores: 8,
            total_shares: shares,
            total_ips: 1e9 * busy as f64,
            predicted_capacity: None,
        }
    }

    #[test]
    fn aggregates_and_sorts() {
        let r = ClusterRollup::new(
            Seconds(1.0),
            vec![node(2, 30.0, 45.0, 4, 100.0), node(0, 40.0, 45.0, 8, 200.0)],
        );
        assert_eq!(r.nodes[0].node, 0, "rows sorted by node id");
        assert!((r.total_power().value() - 70.0).abs() < 1e-12);
        assert!((r.total_cap().value() - 90.0).abs() < 1e-12);
        assert_eq!(r.busy_cores(), 12);
        assert_eq!(r.total_cores(), 16);
        assert!((r.total_shares() - 300.0).abs() < 1e-12);
        assert!((r.saturation() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn placement_targets_least_saturated_with_deterministic_ties() {
        let r = ClusterRollup::new(
            Seconds(1.0),
            vec![
                node(0, 40.0, 45.0, 8, 200.0), // full
                node(1, 30.0, 45.0, 3, 80.0),
                node(2, 30.0, 45.0, 3, 80.0), // tie with node 1
                node(3, 35.0, 45.0, 6, 150.0),
            ],
        );
        assert_eq!(r.least_saturated(), Some(1), "tie breaks to lowest id");

        let full = ClusterRollup::new(
            Seconds(1.0),
            vec![node(0, 40.0, 45.0, 8, 200.0), node(1, 41.0, 45.0, 8, 210.0)],
        );
        assert_eq!(full.least_saturated(), None, "no free core anywhere");
    }

    #[test]
    fn node_headroom_and_balance() {
        let n = node(0, 50.0, 45.0, 8, 100.0);
        assert!(n.headroom().value() < 0.0, "overshoot is negative headroom");
        assert_eq!(n.free_cores(), 0);

        let even = ClusterRollup::new(
            Seconds(1.0),
            vec![node(0, 30.0, 45.0, 4, 1.0), node(1, 30.0, 45.0, 4, 1.0)],
        );
        assert!((even.power_balance() - 1.0).abs() < 1e-12);
        let skewed = ClusterRollup::new(
            Seconds(1.0),
            vec![node(0, 60.0, 45.0, 4, 1.0), node(1, 0.0, 45.0, 4, 1.0)],
        );
        assert!(skewed.power_balance() < 0.6);
    }

    #[test]
    fn non_finite_telemetry_is_clamped_and_flagged() {
        let mut bad = node(1, 30.0, 45.0, 4, 100.0);
        bad.package_power = Watts(f64::NAN);
        bad.total_ips = f64::INFINITY;
        bad.total_shares = -3.0;
        bad.predicted_capacity = Some(Watts(f64::NEG_INFINITY));
        let r = ClusterRollup::new(Seconds(1.0), vec![node(0, 40.0, 45.0, 8, 200.0), bad]);
        assert_eq!(r.unhealthy_nodes(), &[1], "sick node flagged");
        assert!(
            r.total_power().value().is_finite() && (r.total_power().value() - 40.0).abs() < 1e-12,
            "NaN power clamped out of the aggregate"
        );
        assert!((r.total_ips() - 1e9 * 8.0).abs() < 1.0);
        assert!((r.total_shares() - 200.0).abs() < 1e-12);
        assert!(
            r.nodes[1].predicted_capacity.is_none(),
            "garbage prediction dropped"
        );
        assert!(r.nodes[1].is_healthy(), "row is safe after sanitize");

        let healthy = ClusterRollup::new(Seconds(1.0), vec![node(0, 40.0, 45.0, 8, 200.0)]);
        assert!(healthy.unhealthy_nodes().is_empty());
    }

    #[test]
    fn delta_rollup_exact_mode_matches_full_fold() {
        let mut delta = DeltaRollup::new(Seconds(1.0), 0.0);
        let rows = vec![
            node(0, 40.0, 45.0, 8, 200.0),
            node(1, 30.5, 45.0, 4, 100.0),
            node(2, 12.25, 20.0, 1, 10.0),
        ];
        for r in &rows {
            assert!(delta.update(r.clone()));
        }
        let full = ClusterRollup::new(Seconds(1.0), rows.clone());
        assert_eq!(delta.to_rollup(), full);
        assert_eq!(
            delta.total_power().value().to_bits(),
            full.total_power().value().to_bits()
        );

        // identical re-submission is skipped, state unchanged
        assert!(!delta.update(rows[1].clone()));
        assert_eq!(delta.skips(), 1);
        assert_eq!(delta.to_rollup(), full);

        // any bit of movement is re-aggregated in exact mode
        let mut moved = rows[1].clone();
        moved.package_power = Watts(30.5 + 1e-12);
        assert!(delta.update(moved.clone()));
        let full2 = ClusterRollup::new(Seconds(1.0), vec![rows[0].clone(), moved, rows[2].clone()]);
        assert_eq!(delta.to_rollup(), full2);

        // removal drops the row and the totals
        assert!(delta.remove(2));
        assert!(!delta.remove(2), "double remove is a no-op");
        assert_eq!(delta.len(), 2);
        assert_eq!(
            delta.total_power().value().to_bits(),
            (Watts(40.0) + Watts(30.5 + 1e-12)).value().to_bits()
        );
    }

    #[test]
    fn delta_rollup_epsilon_skips_small_moves() {
        let mut delta = DeltaRollup::new(Seconds(1.0), 0.05);
        delta.update(node(0, 40.0, 45.0, 8, 200.0));
        // 1% power wobble: within 5% tolerance, cached row stands
        assert!(!delta.update(node(0, 40.4, 45.0, 8, 200.0)));
        assert!((delta.total_power().value() - 40.0).abs() < 1e-12);
        // 10% move: re-aggregated
        assert!(delta.update(node(0, 44.0, 45.0, 8, 200.0)));
        assert!((delta.total_power().value() - 44.0).abs() < 1e-9);
        // membership changes always bust the tolerance
        assert!(delta.update(node(0, 44.0, 45.0, 7, 200.0)));
        assert_eq!(delta.busy_cores(), 7);
        // a NaN update is clamped and the node flagged, then recovers
        let mut bad = node(0, f64::NAN, 45.0, 7, 200.0);
        bad.total_ips = f64::NAN;
        assert!(delta.update(bad));
        assert_eq!(delta.unhealthy_nodes(), vec![0]);
        assert_eq!(delta.total_power(), Watts(0.0));
        assert!(delta.update(node(0, 41.0, 45.0, 7, 200.0)));
        assert!(delta.unhealthy_nodes().is_empty());
    }

    #[test]
    fn from_sample_folds_core_rates() {
        use crate::counters::CoreRates;
        use crate::sampler::CoreSample;
        use pap_simcpu::freq::KiloHertz;

        let sample = Sample {
            time: Seconds(2.0),
            interval: Seconds(1.0),
            package_power: Watts(33.0),
            cores_power: Watts(25.0),
            cores: (0..4)
                .map(|_| CoreSample {
                    rates: CoreRates {
                        active_freq: KiloHertz::from_mhz(2000),
                        c0_residency: 1.0,
                        ips: 2e9,
                    },
                    power: None,
                    requested_freq: KiloHertz::from_mhz(2000),
                })
                .collect(),
            health: Default::default(),
        };
        let t = NodeTelemetry::from_sample(3, &sample, Watts(45.0), 2, 120.0);
        assert_eq!(t.node, 3);
        assert_eq!(t.num_cores, 4);
        assert!((t.total_ips - 8e9).abs() < 1.0);
        assert!((t.saturation() - 0.5).abs() < 1e-12);
    }
}
