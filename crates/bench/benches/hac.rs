//! Clustering scalability: HAC runtime vs item count and linkage criterion
//! (the ablation behind the paper's choice of maximum linkage).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocasta::{hac, Linkage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sparse finite distances over `n` items, like real correlation graphs:
/// each pair present with probability 5%, every other pair at `∞`.
fn random_pairs(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(0.05) {
                pairs.push((i, j, rng.random_range(0.5..2.0)));
            }
        }
    }
    pairs
}

fn bench_hac(c: &mut Criterion) {
    let mut group = c.benchmark_group("hac");
    for n in [50usize, 200, 750] {
        let pairs = random_pairs(n, 42);
        for linkage in Linkage::ALL {
            group.bench_with_input(BenchmarkId::new(linkage.name(), n), &pairs, |b, pairs| {
                b.iter(|| hac(n, std::hint::black_box(pairs).iter().copied(), linkage))
            });
        }
    }
    group.finish();
}

fn bench_cut(c: &mut Criterion) {
    let dendrogram = hac(750, random_pairs(750, 42), Linkage::Complete);
    c.bench_function("dendrogram_cut_750", |b| {
        b.iter(|| std::hint::black_box(&dendrogram).cut(0.5))
    });
}

criterion_group!(benches, bench_hac, bench_cut);
criterion_main!(benches);
