//! Microbenchmarks of the hot per-round primitives: the utility function
//! (Equation 1), subscription-set merges, greedy next-hop choice, Algorithm
//! 4 neighbor selection, Algorithm 5 gateway election, and the workload
//! samplers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vitis::gateway::{elect_gateways, Advert, Proposal, ReverseLink};
use vitis::smallmap::SmallMap;
use vitis::topic::{RateTable, Subs, TopicSet};
use vitis::utility;
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_overlay::routing::next_hop;
use vitis_overlay::rt::{select_neighbors, HybridRt, RtParams};
use vitis_sim::event::NodeIdx;
use vitis_sim::stats::Zipf;

fn random_set(rng: &mut SmallRng, topics: u32, n: usize) -> TopicSet {
    TopicSet::from_iter((0..n).map(|_| rng.gen_range(0..topics)))
}

fn bench_utility(c: &mut Criterion) {
    let mut g = c.benchmark_group("utility_eq1");
    let mut rng = SmallRng::seed_from_u64(1);
    for &subs in &[10usize, 50, 200] {
        let a = random_set(&mut rng, 5000, subs);
        let b = random_set(&mut rng, 5000, subs);
        let rates = RateTable::uniform(5000);
        g.bench_with_input(BenchmarkId::from_parameter(subs), &subs, |bench, _| {
            bench.iter(|| utility(black_box(&a), black_box(&b), black_box(&rates)))
        });
    }
    g.finish();
}

fn bench_topicset_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("topicset");
    let mut rng = SmallRng::seed_from_u64(2);
    let a = random_set(&mut rng, 5000, 50);
    let b = random_set(&mut rng, 5000, 50);
    g.bench_function("intersection_len_50x50", |bench| {
        bench.iter(|| black_box(&a).intersection_len(black_box(&b)))
    });
    g.bench_function("contains", |bench| {
        bench.iter(|| black_box(&a).contains(vitis::topic::TopicId(black_box(2500))))
    });
    g.finish();
}

fn bench_next_hop(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let neighbors: Vec<(Id, NodeIdx)> = (0..15)
        .map(|i| (Id(rng.gen()), NodeIdx(i)))
        .collect();
    c.bench_function("greedy_next_hop_15", |bench| {
        bench.iter(|| {
            next_hop(
                black_box(Id(42)),
                black_box(Id(u64::MAX / 3)),
                neighbors.iter().copied(),
            )
        })
    });
}

fn bench_select_neighbors(c: &mut Criterion) {
    let mut g = c.benchmark_group("select_neighbors");
    for &ncand in &[30usize, 60, 120] {
        let mut rng = SmallRng::seed_from_u64(4);
        let subs_rng = &mut SmallRng::seed_from_u64(5);
        let my_subs = random_set(subs_rng, 5000, 50);
        let rates = RateTable::uniform(5000);
        let cands: Vec<Entry<TopicSet>> = (0..ncand)
            .map(|i| Entry {
                addr: NodeIdx(i as u32),
                id: Id(rng.gen()),
                age: 0,
                payload: random_set(subs_rng, 5000, 50),
            })
            .collect();
        let params = RtParams {
            rt_size: 15,
            k_sw: 1,
            est_n: 10_000,
        };
        g.bench_with_input(BenchmarkId::from_parameter(ncand), &ncand, |bench, _| {
            bench.iter(|| {
                select_neighbors(
                    NodeIdx(u32::MAX),
                    Id(7),
                    &params,
                    black_box(cands.iter().collect()),
                    &[],
                    &[],
                    |e| utility(&my_subs, &e.payload, &rates),
                    &mut rng,
                )
            })
        });
    }
    g.finish();
}

/// One node's election round at the benchmark plans' shape: 25
/// subscriptions drawn from 60 topics, 15 table entries plus 15 reverse
/// links, each advertising a proposal for every topic it subscribes to.
fn bench_gateway_election(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let subs_of = |rng: &mut SmallRng| -> Subs { Arc::new(random_set(rng, 60, 25)) };
    let entry = |rng: &mut SmallRng, i: u32| Entry::fresh(NodeIdx(i), Id(rng.gen()), subs_of(rng));
    let table = HybridRt {
        succ: Some(entry(&mut rng, 1)),
        pred: Some(entry(&mut rng, 2)),
        sw: vec![entry(&mut rng, 3)],
        friends: (4..16).map(|i| entry(&mut rng, i)).collect(),
    };
    let reverse: SmallMap<NodeIdx, ReverseLink> = (16..31)
        .map(|i| {
            let link = ReverseLink {
                subs: subs_of(&mut rng),
                age: 0,
            };
            (NodeIdx(i), link)
        })
        .collect();
    let interests: Vec<(NodeIdx, Subs)> = table
        .iter()
        .map(|e| (e.addr, e.payload.clone()))
        .chain(reverse.iter().map(|(a, l)| (*a, l.subs.clone())))
        .collect();
    let adverts: SmallMap<NodeIdx, Advert> = interests
        .iter()
        .map(|(addr, subs)| {
            let props = subs
                .iter()
                .map(|t| {
                    let gw = rng.gen_range(0..500u32);
                    let parent = if rng.gen_bool(0.5) {
                        *addr
                    } else {
                        NodeIdx(rng.gen_range(0..40))
                    };
                    let p = Proposal {
                        gw_id: Id::of_node(gw as u64),
                        gw_addr: NodeIdx(gw),
                        parent,
                        hops: rng.gen_range(0..3),
                    };
                    (t, p)
                })
                .collect();
            (
                *addr,
                Advert {
                    props: Arc::new(props),
                    age: 0,
                },
            )
        })
        .collect();
    let my_subs = random_set(&mut rng, 60, 25);
    c.bench_function("gateway_election_30x25", |bench| {
        bench.iter(|| {
            elect_gateways(
                NodeIdx(0),
                Id(42),
                black_box(&my_subs),
                3,
                black_box(&table),
                black_box(&reverse),
                black_box(&adverts),
                None,
            )
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    let z = Zipf::new(5000, 1.65);
    let mut rng = SmallRng::seed_from_u64(6);
    c.bench_function("zipf_sample_5000", |bench| bench.iter(|| z.sample(&mut rng)));
}

criterion_group!(
    benches,
    bench_utility,
    bench_topicset_ops,
    bench_next_hop,
    bench_select_neighbors,
    bench_gateway_election,
    bench_zipf
);
criterion_main!(benches);
