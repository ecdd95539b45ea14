//! Transaction grouping and correlation/distance construction throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ocasta::{transactions, Correlations, WriteEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_events(n_items: usize, n_events: usize, seed: u64) -> Vec<WriteEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_events)
        .map(|_| {
            WriteEvent::new(
                rng.random_range(0..n_items),
                rng.random_range(0..86_400_000 * 30),
            )
        })
        .collect()
}

fn bench_transactions(c: &mut Criterion) {
    let mut group = c.benchmark_group("transactions");
    for n_events in [1_000usize, 10_000, 100_000] {
        let events = random_events(500, n_events, 7);
        group.throughput(Throughput::Elements(n_events as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(n_events),
            &events,
            |b, events| b.iter(|| transactions(std::hint::black_box(events), 1_000)),
        );
    }
    group.finish();
}

fn bench_correlations(c: &mut Criterion) {
    let events = random_events(500, 50_000, 7);
    let txns = transactions(&events, 1_000);
    c.bench_function("correlations_500_items", |b| {
        b.iter(|| Correlations::from_transactions(500, std::hint::black_box(&txns)))
    });
    let correlations = Correlations::from_transactions(500, &txns);
    c.bench_function("distances_500_items", |b| {
        b.iter(|| {
            std::hint::black_box(&correlations)
                .distances()
                .collect::<Vec<_>>()
        })
    });
}

criterion_group!(benches, bench_transactions, bench_correlations);
criterion_main!(benches);
