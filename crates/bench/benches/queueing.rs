//! Throughput of the websearch closed-loop queueing model, which
//! dominates the latency experiments' wall-clock cost.

use criterion::{criterion_group, criterion_main, Criterion};

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::units::Seconds;
use pap_workloads::latency::{ClosedLoopService, ServiceConfig};

fn bench_advance(c: &mut Criterion) {
    let mut g = c.benchmark_group("websearch_advance");
    for (name, mhz) in [("unsaturated_3ghz", 3000u64), ("saturated_800mhz", 800u64)] {
        let mut svc = ClosedLoopService::new(ServiceConfig::websearch(), 9);
        let freqs = vec![KiloHertz::from_mhz(mhz); 9];
        let mut loads = Vec::with_capacity(9);
        // warm into steady state
        for _ in 0..5_000 {
            svc.advance_into(Seconds(0.001), &freqs, &mut loads);
        }
        g.bench_function(name, |b| {
            b.iter(|| svc.advance_into(Seconds(0.001), &freqs, &mut loads))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_advance);
criterion_main!(benches);
