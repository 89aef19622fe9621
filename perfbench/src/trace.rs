//! Spans around the calls the benchmark makes into each layer.
//!
//! The program has no tracing of its own, so the traced run wraps every
//! public call it makes into a layer in [`span`], and fleet nodes run on
//! [`TracedChip`], a [`ChipLike`] backend that forwards to [`WideChip`]
//! and puts spans around the simulator's tick and actuation calls made
//! from inside `Node::advance_interval`. Spans nest: a layer's self time
//! is its spans' duration minus the time covered by spans opened inside
//! them, so the self times of all layers plus the untraced residual add
//! up to the traced wall time exactly.
//!
//! The tracer is thread-local and off until [`start`]; calls made while
//! it is off (set-up, warm-up, untraced runs, shard worker threads) pay
//! one thread-local flag read.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::core::CoreCounters;
use pap_simcpu::cstate::CState;
use pap_simcpu::error::Result;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;

/// The layers the benchmark times, named after the module whose public
/// calls the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `RunningApp::advance` (the per-tick app loop on `socket-wide`).
    WorkloadsAdvance,
    /// `WideChip::tick` / `run_ticks`.
    SimTick,
    /// `set_load`, `set_all_requested`, `set_forced_idle`.
    SimApply,
    /// `Sampler::sample_into`.
    TelemetrySample,
    /// `Daemon::try_step_view`.
    DaemonStep,
    /// `Cluster::admit_batch`.
    ClusterAdmit,
    /// `Cluster::depart_batch`.
    ClusterDepart,
    /// `Node::advance_interval`.
    NodeAdvance,
    /// `Node::retarget`.
    NodeRetarget,
    /// `ClusterRollup::new` plus `EngineSeam::note_interval`.
    TelemetryRollup,
    /// `EngineSeam::rebalance`.
    ClusterRebalance,
    /// The benchmark's own load generation, bookkeeping and checks.
    BenchLoadgen,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = Layer::BenchLoadgen as usize + 1;
}

/// Accumulated self time and work of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Time inside the layer's spans, in nanoseconds.
    pub busy_ns: u64,
    /// Busy time minus the time covered by spans nested inside.
    pub self_ns: u64,
    /// Spans closed.
    pub calls: u64,
    /// Work units the spans covered (simulated ticks for `SimTick`).
    pub units: u64,
}

#[derive(Default)]
struct Tracer {
    on: bool,
    totals: [LayerTotals; Layer::COUNT],
    /// Open spans: layer, start, time covered by spans nested inside.
    stack: Vec<(Layer, Instant, u64)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Reset the totals and start recording on this thread.
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        *t = Tracer::default();
        t.on = true;
    });
}

/// Stop recording and return the totals, indexed by `Layer as usize`.
pub fn stop() -> [LayerTotals; Layer::COUNT] {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "every span closed before stop");
        t.on = false;
        t.totals
    })
}

/// Run `f` inside a span of `layer` covering `units` units of work.
#[inline]
pub fn span<R>(layer: Layer, units: u64, f: impl FnOnce() -> R) -> R {
    let on = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            t.stack.push((layer, Instant::now(), 0));
        }
        t.on
    });
    if !on {
        return f();
    }
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (layer, started, nested) = t.stack.pop().expect("span opened above");
        let dur = started.elapsed().as_nanos() as u64;
        let slot = &mut t.totals[layer as usize];
        slot.busy_ns += dur;
        slot.self_ns += dur.saturating_sub(nested);
        slot.calls += 1;
        slot.units += units;
        if let Some(parent) = t.stack.last_mut() {
            parent.2 += dur;
        }
    });
    out
}

/// A [`WideChip`] whose tick and actuation calls are spans. Bit-identical
/// to the chip it wraps: every method forwards unchanged.
#[derive(Debug, Clone)]
pub struct TracedChip(WideChip);

impl ChipLike for TracedChip {
    fn shared(spec: Arc<PlatformSpec>) -> Self {
        TracedChip(WideChip::shared(spec))
    }
    fn spec(&self) -> &PlatformSpec {
        ChipLike::spec(&self.0)
    }
    fn num_cores(&self) -> usize {
        ChipLike::num_cores(&self.0)
    }
    fn now(&self) -> Seconds {
        ChipLike::now(&self.0)
    }
    fn set_requested_freq(&mut self, core: usize, f: KiloHertz) -> Result<()> {
        ChipLike::set_requested_freq(&mut self.0, core, f)
    }
    fn set_all_requested(&mut self, freqs: &[KiloHertz]) -> Result<()> {
        span(Layer::SimApply, 1, || {
            ChipLike::set_all_requested(&mut self.0, freqs)
        })
    }
    fn requested_freq(&self, core: usize) -> KiloHertz {
        ChipLike::requested_freq(&self.0, core)
    }
    fn effective_freq(&self, core: usize) -> KiloHertz {
        ChipLike::effective_freq(&self.0, core)
    }
    fn set_load(&mut self, core: usize, load: LoadDescriptor) -> Result<()> {
        span(Layer::SimApply, 1, || {
            ChipLike::set_load(&mut self.0, core, load)
        })
    }
    fn set_forced_idle(&mut self, core: usize, idle: bool) -> Result<()> {
        span(Layer::SimApply, 1, || {
            ChipLike::set_forced_idle(&mut self.0, core, idle)
        })
    }
    fn set_idle_state(&mut self, core: usize, state: CState) -> Result<()> {
        ChipLike::set_idle_state(&mut self.0, core, state)
    }
    fn add_instructions(&mut self, core: usize, n: u64) -> Result<()> {
        ChipLike::add_instructions(&mut self.0, core, n)
    }
    fn set_rapl_limit(&mut self, limit: Option<Watts>) -> Result<()> {
        ChipLike::set_rapl_limit(&mut self.0, limit)
    }
    fn rapl_cap(&self) -> Option<KiloHertz> {
        ChipLike::rapl_cap(&self.0)
    }
    fn rapl_limit(&self) -> Option<Watts> {
        ChipLike::rapl_limit(&self.0)
    }
    fn counters(&self, core: usize) -> CoreCounters {
        ChipLike::counters(&self.0, core)
    }
    fn package_power(&self) -> Watts {
        ChipLike::package_power(&self.0)
    }
    fn cores_power(&self) -> Watts {
        ChipLike::cores_power(&self.0)
    }
    fn core_power(&self, core: usize) -> Result<Watts> {
        ChipLike::core_power(&self.0, core)
    }
    fn package_energy_raw(&self) -> u32 {
        ChipLike::package_energy_raw(&self.0)
    }
    fn cores_energy_raw(&self) -> u32 {
        ChipLike::cores_energy_raw(&self.0)
    }
    fn core_energy_raw(&self, core: usize) -> Result<u32> {
        ChipLike::core_energy_raw(&self.0, core)
    }
    fn active_cores(&self) -> usize {
        ChipLike::active_cores(&self.0)
    }
    fn tick(&mut self, dt: Seconds) {
        span(Layer::SimTick, 1, || ChipLike::tick(&mut self.0, dt))
    }
    fn run_ticks(&mut self, n: usize, dt: Seconds) {
        span(Layer::SimTick, n as u64, || {
            ChipLike::run_ticks(&mut self.0, n, dt)
        })
    }
    fn steady_tick(&self, dt: Seconds) -> bool {
        ChipLike::steady_tick(&self.0, dt)
    }
}
