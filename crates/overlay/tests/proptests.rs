//! Property-based tests for the overlay substrate invariants.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vitis_overlay::prelude::*;
use vitis_sim::event::NodeIdx;

fn entries(ids: &[u64]) -> Vec<Entry<()>> {
    ids.iter()
        .enumerate()
        .map(|(i, &id)| Entry {
            addr: NodeIdx(i as u32),
            id: Id(id),
            age: 0,
            payload: (),
        })
        .collect()
}

proptest! {
    /// Minimal circular distance is symmetric, bounded by half the space,
    /// and zero iff equal.
    #[test]
    fn ring_distance_properties(a: u64, b: u64) {
        let (ia, ib) = (Id(a), Id(b));
        prop_assert_eq!(ia.ring_distance(ib), ib.ring_distance(ia));
        prop_assert!(ia.ring_distance(ib) <= u64::MAX / 2 + 1);
        prop_assert_eq!(ia.ring_distance(ib) == 0, a == b);
    }

    /// Clockwise and counter-clockwise distances add up to the full circle
    /// for distinct points.
    #[test]
    fn cw_ccw_distances_complement(a: u64, b: u64) {
        prop_assume!(a != b);
        let (ia, ib) = (Id(a), Id(b));
        prop_assert_eq!(ia.distance_cw(ib).wrapping_add(ib.distance_cw(ia)), 0);
    }

    /// `closest_to` returns a global minimizer of the ring distance.
    #[test]
    fn closest_to_is_global_min(target: u64, ids in proptest::collection::vec(any::<u64>(), 1..40)) {
        let cands: Vec<Id> = ids.iter().map(|&x| Id(x)).collect();
        let t = Id(target);
        let i = closest_to(t, &cands).unwrap();
        let best = t.ring_distance(cands[i]);
        for c in &cands {
            prop_assert!(best <= t.ring_distance(*c));
        }
    }

    /// Greedy next hop strictly decreases the distance to the target.
    #[test]
    fn next_hop_strictly_improves(self_id: u64, target: u64, ids in proptest::collection::vec(any::<u64>(), 0..30)) {
        let me = Id(self_id);
        let t = Id(target);
        let nbrs: Vec<(Id, NodeIdx)> = ids.iter().enumerate()
            .map(|(i, &x)| (Id(x), NodeIdx(i as u32)))
            .collect();
        if let Some(nxt) = next_hop(me, t, nbrs.iter().copied()) {
            let (nid, _) = nbrs.iter().find(|(_, a)| *a == nxt).unwrap();
            prop_assert!(t.ring_distance(*nid) < t.ring_distance(me));
        }
    }

    /// A view never exceeds its capacity and never contains the owner or
    /// duplicate addresses.
    #[test]
    fn view_capacity_and_dedup(
        cap in 1usize..10,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..20, 0u16..8), 0..10), 1..6),
    ) {
        let me = NodeIdx(99);
        let mut v: View<()> = View::new(cap);
        for batch in &batches {
            let es: Vec<Entry<()>> = batch.iter().map(|&(a, age)| Entry {
                addr: NodeIdx(a), id: Id(a as u64), age, payload: (),
            }).collect();
            v.merge(&es, me);
            prop_assert!(v.len() <= cap);
            let mut addrs: Vec<u32> = v.entries().iter().map(|e| e.addr.0).collect();
            addrs.sort_unstable();
            let n = addrs.len();
            addrs.dedup();
            prop_assert_eq!(addrs.len(), n, "duplicate addresses in view");
            prop_assert!(!v.contains(me));
        }
    }

    /// Neighbor selection partitions candidates: bounded size, no
    /// duplicates, no self, and ring slots hold the true extremes.
    #[test]
    fn select_neighbors_invariants(
        self_id: u64,
        ids in proptest::collection::vec(any::<u64>(), 0..40),
        rt_size in 3usize..20,
        k_sw in 0usize..6,
        seed: u64,
    ) {
        let cands = entries(&ids);
        let params = RtParams { rt_size, k_sw, est_n: 1000 };
        let mut rng = SmallRng::seed_from_u64(seed);
        let me = NodeIdx(u32::MAX);
        let rt = select_neighbors(me, Id(self_id), &params, cands.iter().collect(), &[], &[], |_| 0.0, &mut rng);
        prop_assert!(rt.len() <= rt_size);
        prop_assert!(rt.sw.len() <= k_sw);
        prop_assert!(!rt.contains(me));
        let mut addrs = rt.addrs();
        let n = addrs.len();
        addrs.sort();
        addrs.dedup();
        prop_assert_eq!(addrs.len(), n, "duplicate across roles");
        // Successor is the candidate with minimal non-zero cw distance.
        if let Some(s) = &rt.succ {
            let d = Id(self_id).distance_cw(s.id);
            for c in &cands {
                let dc = Id(self_id).distance_cw(c.id);
                if dc != 0 {
                    prop_assert!(d <= dc, "succ not minimal");
                }
            }
        }
    }

    /// The borrowed candidate merge picks exactly the descriptors, in
    /// exactly the order, of the owned merge it replaced: table entries,
    /// then `merge_dedup` of the incoming buffer and the sample (freshest
    /// copy per address wins in place), then the age filter.
    #[test]
    fn merge_candidates_matches_owned_merge(
        table in proptest::collection::vec((0u32..12, 0u16..8), 0..8),
        incoming in proptest::collection::vec((0u32..12, 0u16..8), 0..16),
        sample in proptest::collection::vec((0u32..12, 0u16..8), 0..16),
        max_age in 0u16..8,
    ) {
        // Payloads tag each descriptor with its source and position, so a
        // wrong pick between equal-address copies cannot go unnoticed.
        let mk = |src: u32, v: &[(u32, u16)]| -> Vec<Entry<u32>> {
            v.iter().enumerate().map(|(i, &(addr, age))| Entry {
                addr: NodeIdx(addr),
                id: Id(addr as u64 * 1000),
                age,
                payload: src * 100 + i as u32,
            }).collect()
        };
        let t = mk(0, &table);
        let rt = HybridRt {
            succ: t.first().cloned(),
            pred: t.get(1).cloned(),
            sw: t.iter().skip(2).take(2).cloned().collect(),
            friends: t.iter().skip(4).cloned().collect(),
        };
        let (inc, smp) = (mk(1, &incoming), mk(2, &sample));
        let mut want = rt.to_vec();
        merge_dedup(&mut want, &inc);
        merge_dedup(&mut want, &smp);
        want.retain(|e| e.age <= max_age);
        let got: Vec<Entry<u32>> = merge_candidates(&rt, &inc, &smp, max_age)
            .into_iter()
            .cloned()
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Harmonic draws stay in `[1, u64::MAX]` for any network size.
    #[test]
    fn harmonic_distance_bounds(est_n in 2usize..1_000_000, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let d = harmonic_distance(est_n, &mut rng);
            prop_assert!(d >= 1);
        }
    }

    /// Graph components partition the queried subset.
    #[test]
    fn components_partition_subset(
        n in 2usize..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30), 0..60),
        subset in proptest::collection::vec(0u32..30, 0..30),
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter()
            .filter(|&(a, b)| (a as usize) < n && (b as usize) < n)
            .collect();
        let mut subset: Vec<u32> = subset.into_iter().filter(|&v| (v as usize) < n).collect();
        subset.sort_unstable();
        subset.dedup();
        let g = Graph::from_edges(n, edges);
        let comps = g.components_within(&subset);
        let mut all: Vec<u32> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, subset);
    }
}
