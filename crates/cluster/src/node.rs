//! One simulated machine of the cluster: a chip, its `powerd` daemon,
//! and the applications currently running on it.
//!
//! A node advances in whole control intervals — exactly the loop the
//! single-socket experiment runner uses (tick the apps and the chip,
//! then sample telemetry and let the daemon act) — so cluster results
//! are directly comparable to the paper's single-node experiments. All
//! state is owned: nodes on different threads share nothing (the
//! [`PlatformSpec`] is shared read-only through an [`Arc`]), which is
//! what lets the sharded engine reproduce the serial reference
//! bit-for-bit.
//!
//! [`Node`] is generic over its simulator backend through the
//! [`ChipLike`] seam and defaults to the struct-of-arrays
//! [`WideChip`], which steps 4–5× faster than the scalar
//! [`Chip`](pap_simcpu::chip::Chip) at fleet core counts while staying
//! bit-identical (`pap-simcpu`'s equivalence suite). Code that needs
//! the scalar backend writes `Node<Chip>`.

use std::sync::Arc;

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::rollup::NodeTelemetry;
use pap_telemetry::sampler::{Sample, Sampler};
use pap_workloads::engine::RunningApp;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, TranslationKind};
use powerd::daemon::{Daemon, DaemonError};

use crate::admission::AppRequest;

/// An application resident on a node.
#[derive(Debug)]
pub struct ResidentApp {
    /// The spec registered with the node's daemon.
    pub spec: AppSpec,
    /// The simulated workload.
    pub engine: RunningApp,
}

/// One cluster node: chip + daemon + resident apps.
#[derive(Debug)]
pub struct Node<C: ChipLike = WideChip> {
    id: usize,
    platform: Arc<PlatformSpec>,
    chip: C,
    daemon: Daemon,
    sampler: Sampler,
    /// The interval's telemetry, reused across intervals.
    sample: Sample,
    apps: Vec<ResidentApp>,
    parked: Vec<bool>,
    cap: Watts,
    interval: Seconds,
    tick: Seconds,
}

impl Node {
    /// Bring up an idle node on the default [`WideChip`] backend: an
    /// empty daemon config (all cores parked) under `policy` with an
    /// initial power cap of `cap`.
    pub fn new(
        id: usize,
        platform: &PlatformSpec,
        policy: PolicyKind,
        cap: Watts,
        interval: Seconds,
        tick: Seconds,
    ) -> Result<Node, DaemonError> {
        Node::with_chip(id, Arc::new(platform.clone()), policy, cap, interval, tick)
    }
}

impl<C: ChipLike> Node<C> {
    /// Bring up an idle node on an explicit backend, sharing the
    /// platform spec instead of cloning it per node (a fleet of 1024
    /// nodes holds one spec, not 1024 copies of its frequency grid and
    /// power curves).
    pub fn with_chip(
        id: usize,
        platform: Arc<PlatformSpec>,
        policy: PolicyKind,
        cap: Watts,
        interval: Seconds,
        tick: Seconds,
    ) -> Result<Node<C>, DaemonError> {
        let mut config = DaemonConfig::new(policy, cap, Vec::new());
        config.control_interval = interval;
        let mut chip = C::shared(Arc::clone(&platform));
        if policy == PolicyKind::RaplNative {
            chip.set_rapl_limit(Some(cap)).expect("platform has RAPL");
        }
        let mut daemon = Daemon::new(config, &platform)?;
        let action = daemon.initial();
        action
            .view()
            .apply(&mut chip)
            .expect("daemon emits grid/slot-valid frequencies");
        let sampler = Sampler::new(&chip);
        let sample = Sample {
            cores: Vec::with_capacity(platform.num_cores),
            ..Sample::empty()
        };
        Ok(Node {
            id,
            platform,
            chip,
            daemon,
            sampler,
            sample,
            apps: Vec::new(),
            parked: action.parked,
            cap,
            interval,
            tick,
        })
    }

    /// Node id within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's current power cap.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Select which budget-to-frequency translation the node's daemon
    /// uses ([`TranslationKind::Naive`] is the paper's α model).
    pub fn set_translation(&mut self, kind: TranslationKind) {
        self.daemon.set_translation(kind);
    }

    /// The daemon's learned prediction of this node's maximum package
    /// draw, when its online power model is confident. Only published
    /// under [`TranslationKind::Online`] so that naive clusters arbitrate
    /// exactly as before the learned model existed.
    pub fn predicted_capacity(&self) -> Option<Watts> {
        match self.daemon.translation() {
            TranslationKind::Online => self.daemon.predicted_capacity(),
            TranslationKind::Naive => None,
        }
    }

    /// Cores with an app pinned.
    pub fn busy_cores(&self) -> usize {
        self.apps.len()
    }

    /// Cores available for placement.
    pub fn free_cores(&self) -> usize {
        self.platform.num_cores - self.apps.len()
    }

    /// Occupied fraction of the node's cores.
    pub fn saturation(&self) -> f64 {
        self.apps.len() as f64 / self.platform.num_cores as f64
    }

    /// Sum of resident apps' shares.
    pub fn total_shares(&self) -> f64 {
        self.apps.iter().map(|a| a.spec.shares as f64).sum()
    }

    /// The apps currently resident, for reporting.
    pub fn apps(&self) -> &[ResidentApp] {
        &self.apps
    }

    /// Place a requested app on the lowest free core. The daemon
    /// validates the grown config atomically; on error the node is
    /// unchanged. The app starts at the next control interval, when the
    /// daemon re-runs its initial distribution over the new app set.
    pub fn admit(&mut self, req: &AppRequest) -> Result<usize, DaemonError> {
        let core = (0..self.platform.num_cores)
            .find(|&c| self.apps.iter().all(|a| a.spec.core != c))
            .ok_or_else(|| {
                DaemonError::Config(powerd::config::ConfigError::CoreOutOfRange {
                    app: req.name.clone(),
                    core: self.platform.num_cores,
                    num_cores: self.platform.num_cores,
                })
            })?;
        let profile = req.demand.profile();
        let spec = AppSpec::new(req.name.clone(), core)
            .with_priority(req.priority)
            .with_shares(req.shares)
            .with_baseline_ips(profile.ips(self.platform.grid.max()));
        self.daemon.add_app(spec.clone())?;
        self.apps.push(ResidentApp {
            spec,
            engine: RunningApp::looping(profile),
        });
        Ok(core)
    }

    /// Remove a resident app by name. Its core parks immediately (the
    /// workload is gone; leaving the chip's stale load descriptor
    /// burning power until the next daemon action would charge the node
    /// for a phantom app).
    pub fn depart(&mut self, name: &str) -> Result<AppSpec, DaemonError> {
        let spec = self.daemon.remove_app(name)?;
        self.apps.retain(|a| a.spec.name != name);
        self.chip
            .set_forced_idle(spec.core, true)
            .expect("core in range");
        self.parked[spec.core] = true;
        Ok(spec)
    }

    /// Change the node's power cap (validated against the platform's
    /// RAPL range by the daemon; RAPL-native nodes reprogram the chip's
    /// hardware limit too).
    pub fn retarget(&mut self, cap: Watts) -> Result<(), DaemonError> {
        self.daemon.retarget_budget(cap)?;
        if self.daemon.config().policy == PolicyKind::RaplNative {
            self.chip
                .set_rapl_limit(Some(cap))
                .expect("platform has RAPL");
        }
        self.cap = cap;
        Ok(())
    }

    /// Whether every running app's next advance is a pure memo replay
    /// whose load equals the descriptor already installed on its core
    /// (parked apps don't touch the chip and can't break steadiness).
    fn apps_steady(&self) -> bool {
        self.apps.iter().all(|a| {
            self.parked[a.spec.core]
                || a.engine
                    .steady_at(self.tick, self.chip.effective_freq(a.spec.core))
        })
    }

    /// Advance one control interval: tick every unparked app and the
    /// chip, then sample telemetry and apply the daemon's decision.
    /// Returns the node's telemetry summary for the cluster roll-up.
    pub fn advance_interval(&mut self) -> NodeTelemetry {
        let steps = (self.interval.value() / self.tick.value()).round() as usize;
        // Per-app instruction credits, accumulated across the interval's
        // ticks and flushed to the chip once before sampling. Nothing
        // reads the chip's instruction counters until the sample below,
        // and u64 wrapping adds commute, so one bulk credit is exactly
        // the per-tick sequence — while skipping a chip call per app per
        // tick.
        let mut credited = vec![0u64; self.apps.len()];
        let steps = steps.max(1);
        let mut t = 0;
        while t < steps {
            // Steady fast path: when the chip's next tick is a pure
            // replay and every running app's next advance is a memo
            // replay of the load already installed, nothing the rest of
            // this interval does can change a chip input — so advance
            // each app through the remaining ticks in one tight loop
            // (exact per-tick state sequence, including run wraps) and
            // batch the chip ticks. Bit-identical to the per-tick loop;
            // the scalar reference backend never reports steady.
            if self.chip.steady_tick(self.tick) && self.apps_steady() {
                let k = steps - t;
                for (app, credit) in self.apps.iter_mut().zip(credited.iter_mut()) {
                    let core = app.spec.core;
                    if self.parked[core] {
                        continue;
                    }
                    let f = self.chip.effective_freq(core);
                    for _ in 0..k {
                        let out = app.engine.advance(self.tick, f);
                        *credit = credit.wrapping_add(out.instructions);
                    }
                }
                self.chip.run_ticks(k, self.tick);
                break;
            }
            for (app, credit) in self.apps.iter_mut().zip(credited.iter_mut()) {
                let core = app.spec.core;
                if self.parked[core] {
                    continue;
                }
                let f = self.chip.effective_freq(core);
                let out = app.engine.advance(self.tick, f);
                self.chip.set_load(core, out.load).expect("core in range");
                *credit = credit.wrapping_add(out.instructions);
            }
            self.chip.tick(self.tick);
            t += 1;
        }
        for (app, credit) in self.apps.iter().zip(credited) {
            self.chip
                .add_instructions(app.spec.core, credit)
                .expect("core in range");
        }
        let sampled = self.sampler.sample_into(&self.chip, &mut self.sample);
        assert!(sampled, "a whole control interval elapsed");
        let _ = self.daemon.try_step_view(&self.sample);
        let action = self.daemon.action();
        action
            .apply(&mut self.chip)
            .expect("daemon emits grid/slot-valid frequencies");
        self.parked.copy_from_slice(action.parked);
        NodeTelemetry::from_sample(
            self.id,
            &self.sample,
            self.cap,
            self.busy_cores(),
            self.total_shares(),
        )
        .with_predicted_capacity(self.predicted_capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::DemandClass;

    fn node() -> Node {
        Node::new(
            0,
            &PlatformSpec::skylake(),
            PolicyKind::FrequencyShares,
            Watts(45.0),
            Seconds(1.0),
            Seconds(0.001),
        )
        .unwrap()
    }

    #[test]
    fn idle_node_draws_little() {
        let mut n = node();
        assert_eq!(n.free_cores(), 10);
        let t = n.advance_interval();
        assert_eq!(t.busy_cores, 0);
        assert!(
            t.package_power.value() < 15.0,
            "all-parked node draws only package idle power, drew {}",
            t.package_power
        );
    }

    #[test]
    fn admitted_app_runs_next_interval() {
        let mut n = node();
        let core = n
            .admit(&AppRequest::new("hog", 100, DemandClass::Heavy))
            .unwrap();
        assert_eq!(core, 0);
        assert_eq!(n.busy_cores(), 1);
        // interval 1 bootstraps the daemon's initial distribution;
        // interval 2 actually runs the app
        n.advance_interval();
        let t = n.advance_interval();
        assert!(
            t.total_ips > 1e8,
            "app retires instructions, got {}",
            t.total_ips
        );
        assert!(
            t.package_power.value() > 15.0,
            "busy node draws above package idle"
        );
    }

    #[test]
    fn departure_parks_core_and_frees_it() {
        let mut n = node();
        n.admit(&AppRequest::new("a", 50, DemandClass::Light))
            .unwrap();
        n.admit(&AppRequest::new("b", 50, DemandClass::Light))
            .unwrap();
        n.advance_interval();
        n.advance_interval();
        let spec = n.depart("a").unwrap();
        assert_eq!(spec.core, 0);
        assert_eq!(n.free_cores(), 9);
        let t = n.advance_interval();
        assert_eq!(t.busy_cores, 1);
        // core 0 is free again for the next admission
        let core = n
            .admit(&AppRequest::new("c", 50, DemandClass::Light))
            .unwrap();
        assert_eq!(core, 0);
    }

    #[test]
    fn retarget_steers_node_power() {
        let mut n = node();
        for i in 0..6 {
            n.admit(&AppRequest::new(format!("a{i}"), 100, DemandClass::Heavy))
                .unwrap();
        }
        for _ in 0..8 {
            n.advance_interval();
        }
        let before = n.advance_interval().package_power;
        n.retarget(Watts(25.0)).unwrap();
        for _ in 0..8 {
            n.advance_interval();
        }
        let after = n.advance_interval().package_power;
        assert!(
            after.value() < before.value() - 5.0,
            "25 W cap must bite: {before} -> {after}"
        );
        assert!(n.retarget(Watts(5.0)).is_err(), "below RAPL floor rejected");
    }

    #[test]
    fn full_node_rejects_admission() {
        let mut n = node();
        for i in 0..10 {
            n.admit(&AppRequest::new(format!("a{i}"), 10, DemandClass::Light))
                .unwrap();
        }
        assert_eq!(n.free_cores(), 0);
        assert!(n
            .admit(&AppRequest::new("x", 10, DemandClass::Light))
            .is_err());
    }
}
