//! Property-based tests over the *assembled* simulator (chip + RAPL +
//! workloads + telemetry), complementing the per-module properties in
//! `tests/proptests.rs`.

use proptest::prelude::*;

use per_app_power::prelude::*;
use per_app_power::simcpu::timeshare::{ShareTask, TimeSharedCore};
use per_app_power::workloads::spec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Energy conservation: the package energy counter's delta equals the
    /// integral of reported package power over the same window.
    #[test]
    fn chip_energy_matches_power_integral(
        cap in 0.3f64..2.5,
        mhz in 800u64..3000,
        n_busy in 1usize..10,
    ) {
        let mut chip = Chip::new(PlatformSpec::skylake());
        for c in 0..n_busy {
            chip.set_requested_freq(c, KiloHertz::from_mhz(mhz)).unwrap();
            chip.set_load(c, LoadDescriptor { capacitance: cap, utilization: 1.0, avx: false })
                .unwrap();
        }
        let e0 = chip.package_energy_raw();
        let dt = Seconds(0.001);
        let mut integral = 0.0;
        for _ in 0..500 {
            chip.tick(dt);
            integral += chip.package_power().value() * dt.value();
        }
        let e1 = chip.package_energy_raw();
        let measured =
            per_app_power::simcpu::rapl::EnergyCounter::delta_joules(e0, e1).value();
        prop_assert!(
            (measured - integral).abs() / integral < 0.01,
            "counter {measured:.3} J vs integral {integral:.3} J"
        );
    }

    /// RAPL always regulates: for any feasible limit and any load, the
    /// settled package power is at or below limit + tolerance.
    #[test]
    fn rapl_regulates_any_load(
        limit in 25.0f64..80.0,
        cap in 0.5f64..3.0,
        avx in any::<bool>(),
    ) {
        let mut chip = Chip::new(PlatformSpec::skylake());
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_mhz(3000)).unwrap();
            chip.set_load(c, LoadDescriptor { capacitance: cap, utilization: 1.0, avx })
                .unwrap();
        }
        chip.set_rapl_limit(Some(Watts(limit))).unwrap();
        chip.run_ticks(3000, Seconds(0.001));
        // The cap is quantized to 100 MHz steps, so the controller may
        // oscillate between adjacent steps; judge the *average* power, as
        // RAPL's running-average semantics do.
        let mut avg = 0.0;
        for _ in 0..1000 {
            chip.tick(Seconds(0.001));
            avg += chip.package_power().value();
        }
        avg /= 1000.0;
        // DVFS bottoms out at the grid minimum; below that floor RAPL has
        // no actuator left (our model has no clock gating), so the bound
        // is max(limit, floor power).
        let spec_p = PlatformSpec::skylake();
        let load = LoadDescriptor { capacitance: cap, utilization: 1.0, avx };
        let floor = spec_p.power.core_power(spec_p.grid.min(), &load).value() * 10.0
            + spec_p
                .power
                .uncore_power(KiloHertz(spec_p.grid.min().khz() * 10))
                .value();
        prop_assert!(
            avg <= limit.max(floor) + 3.0,
            "avg {avg:.1} W over limit {limit} (floor {floor:.1})"
        );
    }

    /// Parked cores never consume more than the idle floor, whatever the
    /// requested frequency and load say.
    #[test]
    fn parked_core_power_is_idle(mhz in 800u64..3000, cap in 0.5f64..3.0) {
        let mut chip = Chip::new(PlatformSpec::ryzen());
        chip.set_requested_freq(0, KiloHertz::from_mhz(mhz / 25 * 25)).unwrap();
        chip.set_load(0, LoadDescriptor { capacitance: cap, utilization: 1.0, avx: false })
            .unwrap();
        chip.set_forced_idle(0, true).unwrap();
        chip.run_ticks(50, Seconds(0.001));
        let p = chip.core_power(0).unwrap();
        prop_assert!(p.value() <= 0.06, "parked core draws {p}");
    }

    /// Closed-loop service conserves its user population under arbitrary
    /// per-core frequency sequences.
    #[test]
    fn service_conserves_users(seq in proptest::collection::vec(400u64..3800, 8..40)) {
        let mut svc = ClosedLoopService::new(ServiceConfig::websearch(), 4);
        let mut loads = Vec::new();
        for mhz in seq {
            let freqs = vec![KiloHertz::from_mhz(mhz); 4];
            for _ in 0..25 {
                svc.advance_into(Seconds(0.001), &freqs, &mut loads);
            }
            prop_assert!(svc.user_conservation());
        }
    }

    /// Time-shared core: simulation equals the analytic time-weighted sum
    /// for arbitrary share splits.
    #[test]
    fn timeshare_matches_analytic(hd in 0.05f64..0.6, ld in 0.05f64..0.4) {
        let model = PlatformSpec::ryzen().power;
        let f = KiloHertz::from_mhz(3400);
        let core = TimeSharedCore::new(
            vec![
                ShareTask {
                    name: "hd".into(),
                    fraction: hd,
                    load: spec::CACTUS_BSSN.load_at(f),
                },
                ShareTask {
                    name: "ld".into(),
                    fraction: ld,
                    load: spec::GCC.load_at(f),
                },
            ],
            Seconds(0.1),
        );
        let analytic = core.time_weighted_power(&model, f).value();
        let sim = core.simulate(&model, f, Seconds(20.0)).average_power.value();
        prop_assert!((analytic - sim).abs() < 1e-6);
    }

    /// The engine's long-horizon throughput matches the analytic IPS for
    /// any benchmark and frequency (looping runs, whole-run average).
    #[test]
    fn engine_long_run_matches_model(idx in 0usize..11, mhz in 800u64..3000) {
        let profile = spec::spec2017()[idx];
        let f = KiloHertz::from_mhz(mhz);
        let mut app = RunningApp::looping(profile);
        let mut total = 0u64;
        let dt = Seconds(0.05);
        let steps = 2000; // 100 s
        for _ in 0..steps {
            total += app.advance(dt, f).instructions;
        }
        let measured_ips = total as f64 / (steps as f64 * dt.value());
        let model_ips = profile.ips(f);
        prop_assert!(
            (measured_ips / model_ips - 1.0).abs() < 0.01,
            "{}: measured {measured_ips:.3e} vs model {model_ips:.3e}",
            profile.name
        );
    }

    /// Turbo resolution is monotone: adding active cores never raises any
    /// core's effective frequency.
    #[test]
    fn effective_freq_monotone_in_active_cores(extra in 1usize..9) {
        let run = |n_active: usize| -> KiloHertz {
            let mut chip = Chip::new(PlatformSpec::skylake());
            for c in 0..n_active {
                chip.set_requested_freq(c, KiloHertz::from_mhz(3000)).unwrap();
                chip.set_load(c, LoadDescriptor::nominal()).unwrap();
            }
            chip.run_ticks(3, Seconds(0.001));
            chip.effective_freq(0)
        };
        let few = run(1);
        let many = run(1 + extra);
        prop_assert!(many <= few, "core 0: {few} with 1 active, {many} with {}", 1 + extra);
    }
}
