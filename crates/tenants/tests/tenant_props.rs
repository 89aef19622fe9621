//! Property tests for the tenant layer: the share planner conserves
//! the share pool and respects its bounds on arbitrary inputs, seeded
//! samplers are deterministic, and composed arrival traces are total
//! and bounded no matter what they are fed.

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::units::Seconds;
use pap_tenants::prelude::*;
use pap_workloads::latency::DemandShape;
use pap_workloads::openloop::{OpenLoopConfig, OpenLoopService};
use proptest::prelude::*;

fn shape() -> impl Strategy<Value = DemandShape> {
    (0u32..3, 0.2f64..1.5, 1.1f64..3.0).prop_map(|(k, sigma, alpha)| match k {
        0 => DemandShape::Exponential,
        1 => DemandShape::LogNormal { sigma },
        _ => DemandShape::Pareto { alpha },
    })
}

/// Mostly plausible pressures, with a NaN/∞ tail to exercise the
/// planner's non-finite handling.
fn pressure() -> impl Strategy<Value = f64> {
    (0u32..10, 0.0f64..3.0).prop_map(|(k, p)| match k {
        8 => f64::NAN,
        9 => f64::INFINITY,
        _ => p,
    })
}

fn views() -> impl Strategy<Value = Vec<ShareView>> {
    proptest::collection::vec((1u32..300, pressure(), any::<bool>()), 0..24).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(id, (shares, pressure, batch))| ShareView {
                id,
                shares,
                pressure,
                batch,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the pool looks, the planner's transfers sum to zero:
    /// total shares after applying the plan equal total shares before.
    /// Every change is real (from != to), anchored to the app's actual
    /// holdings, and inside the configured floor/ceiling.
    #[test]
    fn planner_conserves_the_share_pool(
        views in views(),
        high in 0.5f64..1.5,
        step in 1u32..30,
    ) {
        let cfg = SloControllerConfig {
            high,
            low: high * 0.6,
            step,
            min_shares: 5,
            max_shares: 200,
        };
        let ctl = SloController::new(cfg);
        let changes = ctl.plan(&views);

        let before: u64 = views.iter().map(|v| v.shares as u64).sum();
        let mut after = before;
        for c in &changes {
            let v = &views[c.id];
            prop_assert_eq!(v.id, c.id, "ids echo the caller's indices");
            prop_assert_eq!(v.shares, c.from, "change anchored to real holdings");
            prop_assert!(c.from != c.to, "only real changes are returned: {c:?}");
            if c.to > c.from {
                prop_assert!(c.to <= cfg.max_shares, "boost past ceiling: {c:?}");
            } else {
                prop_assert!(c.to >= cfg.min_shares, "shed below floor: {c:?}");
            }
            after = after - u64::from(c.from) + u64::from(c.to);
        }
        prop_assert_eq!(before, after, "share pool must be conserved: {:?}", changes);
    }

    /// Planning is a pure function: the same views yield the same plan.
    #[test]
    fn planner_is_deterministic(views in views()) {
        let ctl = SloController::default();
        prop_assert_eq!(ctl.plan(&views), ctl.plan(&views));
    }

    /// Two open-loop services built from the same seed stay in
    /// lock-step through an identical drive sequence — the property the
    /// sweep engine relies on to stay byte-reproducible across
    /// `PAP_SWEEP_THREADS` settings.
    #[test]
    fn open_loop_service_is_deterministic_per_seed(
        seed in 0u64..u64::MAX,
        demand in shape(),
        scale in 0.05f64..1.0,
    ) {
        let cfg = OpenLoopConfig {
            peak_rps: 600.0,
            mean_service_cycles: 8.0e6,
            demand,
            capacitance: 0.6,
            queue_cap: 500,
            seed,
        };
        let mut a = OpenLoopService::new(cfg.clone(), 2);
        let mut b = OpenLoopService::new(cfg, 2);
        a.set_rate_scale(scale);
        b.set_rate_scale(scale);
        let freqs = [KiloHertz(2_200_000), KiloHertz(1_400_000)];
        let (mut la, mut lb) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            a.advance_into(Seconds(0.001), &freqs, &mut la);
            b.advance_into(Seconds(0.001), &freqs, &mut lb);
            prop_assert_eq!(&la, &lb);
        }
        prop_assert_eq!(a.completed(), b.completed());
        prop_assert_eq!(a.dropped(), b.dropped());
        prop_assert_eq!(a.percentile_ms(99.0), b.percentile_ms(99.0));
    }

    /// A composed arrival trace is total and inside [0, 1] for any
    /// parameters and any query time, finite or not.
    #[test]
    fn arrival_trace_is_total_and_bounded(
        mean in -1.0f64..2.0,
        swing in -1.0f64..2.0,
        period in -10.0f64..100.0,
        start in 0.0f64..50.0,
        ramp in -1.0f64..10.0,
        hold in -1.0f64..10.0,
        decay in -1.0f64..10.0,
        boost in -2.0f64..2.0,
        t in (0u32..9, -100.0f64..1000.0).prop_map(|(k, t)| match k {
            6 => f64::NAN,
            7 => f64::INFINITY,
            8 => f64::NEG_INFINITY,
            _ => t,
        }),
    ) {
        let tr = ArrivalTrace::diurnal(mean, swing, Seconds(period)).with_crowd(FlashCrowd {
            start: Seconds(start),
            ramp: Seconds(ramp),
            hold: Seconds(hold),
            decay: Seconds(decay),
            boost,
        });
        let v = tr.intensity(Seconds(t));
        prop_assert!(v.is_finite() && (0.0..=1.0).contains(&v), "intensity {v} at t={t}");
    }
}
