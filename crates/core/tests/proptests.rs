//! Property-based tests for the Vitis core data structures.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vitis::gateway::{elect_gateways, revise_proposal, Advert, Proposal, ReverseLink};
use vitis::monitor::Monitor;
use vitis::relay::RelayTable;
use vitis::smallmap::SmallMap;
use vitis::topic::{RateTable, Subs, TopicId, TopicSet};
use vitis::utility;
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_overlay::rt::HybridRt;
use vitis_sim::event::NodeIdx;
use vitis_sim::time::SimTime;

fn ts(v: &[u32]) -> TopicSet {
    TopicSet::from_iter(v.iter().copied())
}

/// The ordered merge `weighted_overlap` must match bit for bit: consume the
/// smaller head (both on a match), adding its rate to the union and, on a
/// match, to the intersection; then the two tails in turn.
fn ordered_merge_overlap(a: &TopicSet, b: &TopicSet, rates: &RateTable) -> (f64, f64) {
    let a: Vec<u32> = a.iter().map(|t| t.0).collect();
    let b: Vec<u32> = b.iter().map(|t| t.0).collect();
    let (mut i, mut j) = (0, 0);
    let (mut inter, mut union) = (0.0, 0.0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            union += rates.rate(TopicId(a[i]));
            i += 1;
        } else if a[i] > b[j] {
            union += rates.rate(TopicId(b[j]));
            j += 1;
        } else {
            let r = rates.rate(TopicId(a[i]));
            inter += r;
            union += r;
            i += 1;
            j += 1;
        }
    }
    for &t in &a[i..] {
        union += rates.rate(TopicId(t));
    }
    for &t in &b[j..] {
        union += rates.rate(TopicId(t));
    }
    (inter, union)
}

/// A node key stands for one simulated node: address `k`, id `of_node(k)`.
/// Key 0 is the electing node itself.
fn node(k: u32) -> (NodeIdx, Id) {
    (NodeIdx(k), Id::of_node(k as u64))
}

fn subs(topics: &[u32]) -> Subs {
    Arc::new(ts(topics))
}

proptest! {
    /// TopicSet behaves like a reference BTreeSet under insert/remove.
    #[test]
    fn topicset_matches_btreeset(ops in proptest::collection::vec((any::<bool>(), 0u32..40), 0..100)) {
        let mut set = TopicSet::new();
        let mut reference = BTreeSet::new();
        for &(insert, t) in &ops {
            if insert {
                prop_assert_eq!(set.insert(TopicId(t)), reference.insert(t));
            } else {
                prop_assert_eq!(set.remove(TopicId(t)), reference.remove(&t));
            }
        }
        prop_assert_eq!(set.len(), reference.len());
        let got: Vec<u32> = set.iter().map(|t| t.0).collect();
        let want: Vec<u32> = reference.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Intersection size via merge equals the reference computation.
    #[test]
    fn intersection_matches_reference(
        a in proptest::collection::vec(0u32..60, 0..40),
        b in proptest::collection::vec(0u32..60, 0..40),
    ) {
        let sa = ts(&a);
        let sb = ts(&b);
        let ra: BTreeSet<u32> = a.iter().copied().collect();
        let rb: BTreeSet<u32> = b.iter().copied().collect();
        prop_assert_eq!(sa.intersection_len(&sb), ra.intersection(&rb).count());
    }

    /// Utility is symmetric, in [0, 1], and 1 only for identical non-empty
    /// rate-positive sets.
    #[test]
    fn utility_bounds_and_symmetry(
        a in proptest::collection::vec(0u32..30, 0..20),
        b in proptest::collection::vec(0u32..30, 0..20),
        rates in proptest::collection::vec(0.0f64..10.0, 30),
    ) {
        let sa = ts(&a);
        let sb = ts(&b);
        let rt = RateTable::from_rates(rates);
        let u = utility(&sa, &sb, &rt);
        prop_assert!((0.0..=1.0).contains(&u));
        prop_assert_eq!(u, utility(&sb, &sa, &rt));
        // Weighted overlap masses are consistent: inter <= union.
        let (i, un) = sa.weighted_overlap(&sb, &rt);
        prop_assert!(i <= un + 1e-12);
    }

    /// The branch-free weighted overlap equals the ordered merge bit for
    /// bit, including rate tables with zero (and negative-zero) entries and
    /// topics past the end of the table, which weigh zero.
    #[test]
    fn weighted_overlap_matches_ordered_merge(
        a in proptest::collection::vec(0u32..40, 0..30),
        b in proptest::collection::vec(0u32..40, 0..30),
        rates in proptest::collection::vec((0u8..4, 0.0f64..10.0), 0..30),
    ) {
        let rates: Vec<f64> = rates
            .iter()
            .map(|&(kind, r)| match kind {
                0 => 0.0,
                1 => -0.0,
                _ => r,
            })
            .collect();
        let rt = RateTable::from_rates(rates);
        let (sa, sb) = (ts(&a), ts(&b));
        let (i, u) = sa.weighted_overlap(&sb, &rt);
        let (wi, wu) = ordered_merge_overlap(&sa, &sb, &rt);
        prop_assert_eq!((i.to_bits(), u.to_bits()), (wi.to_bits(), wu.to_bits()));
    }

    /// Monitor hit ratio is always in [0, 1] and deliveries never exceed
    /// expectations.
    #[test]
    fn monitor_bounds(
        expected in proptest::collection::vec(0u32..30, 0..20),
        deliveries in proptest::collection::vec((0u32..40, 1u32..20), 0..60),
    ) {
        let m = Monitor::new();
        let exp: Vec<NodeIdx> = expected.iter().map(|&i| NodeIdx(i)).collect();
        let e = m.register_event(TopicId(0), SimTime(0), exp);
        for &(node, hops) in &deliveries {
            m.record_delivery(e, NodeIdx(node), hops, SimTime(5));
        }
        let s = m.snapshot();
        prop_assert!(s.delivered <= s.expected);
        prop_assert!((0.0..=1.0).contains(&s.hit_ratio));
        if s.delivered > 0 {
            prop_assert!(s.mean_hops >= 1.0);
            prop_assert!(s.mean_hops <= s.max_hops as f64);
        }
    }

    /// Relay fanout never returns the sender and never duplicates targets.
    #[test]
    fn relay_fanout_excludes_sender(
        downs in proptest::collection::vec(0u32..10, 0..10),
        upstream in proptest::option::of(0u32..10),
        from in proptest::option::of(0u32..10),
    ) {
        let mut rt = RelayTable::new();
        let t = TopicId(1);
        for &d in &downs {
            rt.add_downstream(t, NodeIdx(d));
        }
        if let Some(u) = upstream {
            rt.set_upstream(t, NodeIdx(u));
        }
        let from_idx = from.map(NodeIdx);
        let fan = rt.fanout(t, from_idx);
        if let Some(f) = from_idx {
            prop_assert!(!fan.contains(&f));
        }
        let mut dedup = fan.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), fan.len());
    }

    /// Gateway revision always returns either the self-proposal or one of
    /// the offered ones, with hops within the radius.
    #[test]
    fn revise_proposal_stays_in_offered_set(
        self_id: u64,
        d_max in 1u32..10,
        offers in proptest::collection::vec((1u32..20, any::<u64>(), 0u32..12), 0..10),
    ) {
        let me = NodeIdx(0);
        let topic = TopicId(3);
        // One proposal per distinct neighbor, and a gateway's id is a
        // function of its address — both hold in the real protocol (a
        // neighbor advertises a single proposal; ids are hashes of
        // addresses).
        let proposals: Vec<(NodeIdx, Proposal)> = offers.iter().enumerate()
            .map(|(i, &(nbr, gw_id, hops))| {
                let _ = nbr;
                (NodeIdx(i as u32 + 1), Proposal {
                    gw_id: Id(gw_id),
                    gw_addr: NodeIdx(vitis_sim::rng::mix64(gw_id) as u32),
                    parent: NodeIdx(i as u32 + 1),
                    hops,
                })
            }).collect();
        let refs: Vec<(NodeIdx, &Proposal)> = proposals.iter().map(|(n, p)| (*n, p)).collect();
        let out = revise_proposal(me, Id(self_id), topic, d_max, refs, |_| false);
        if out.gw_addr == me {
            prop_assert_eq!(out.hops, 0);
        } else {
            prop_assert!(out.hops <= d_max);
            prop_assert!(proposals.iter().any(|(_, p)| p.gw_addr == out.gw_addr));
            // Adopted proposals are never ring-farther than self.
            let target = topic.ring_id();
            prop_assert!(target.ring_distance(out.gw_id) <= target.ring_distance(Id(self_id)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The one-pass election equals `revise_proposal` run per subscribed
    /// topic over that topic's electorate, walked as the node walks it:
    /// table entries in table order, then reverse links not in the table,
    /// each counted when it subscribes to the topic and advertised a
    /// proposal for it recently enough. Addresses may sit both in the
    /// table and among the reverse links, and advertisement ages fall on
    /// both sides of the failover threshold. Few node keys and topics keep
    /// the electorates dense, so order, duplicate and loop-avoidance cases
    /// come up often.
    #[test]
    fn one_pass_election_matches_per_topic_revision(
        mine in proptest::collection::vec(0u32..4, 0..8),
        table in proptest::collection::vec((1u32..7, proptest::collection::vec(0u32..4, 1..6)), 0..8),
        reverse in proptest::collection::vec((1u32..7, proptest::collection::vec(0u32..4, 1..6)), 0..8),
        adverts in proptest::collection::vec(
            (1u32..7, 0u16..4, proptest::collection::vec((0u32..4, 0u32..4, 0u8..3, 0u32..9, 0u32..2), 0..8)),
            0..12,
        ),
        d_max in 1u32..6,
        max_age in proptest::option::of(0u16..4),
    ) {
        let (me, my_id) = node(0);
        let my_subs = ts(&mine);
        let entries: Vec<Entry<Subs>> = table
            .iter()
            .map(|(k, t)| {
                let (addr, id) = node(*k);
                Entry::fresh(addr, id, subs(t))
            })
            .collect();
        let rt = HybridRt {
            succ: entries.first().cloned(),
            pred: entries.get(1).cloned(),
            sw: entries.iter().skip(2).take(2).cloned().collect(),
            friends: entries.iter().skip(4).cloned().collect(),
        };
        let rev: SmallMap<NodeIdx, ReverseLink> = reverse
            .iter()
            .map(|(k, t)| (NodeIdx(*k), ReverseLink { subs: subs(t), age: 0 }))
            .collect();
        let ads: SmallMap<NodeIdx, Advert> = adverts
            .iter()
            .map(|(k, age, offers)| {
                // One proposal per topic, sorted by topic, as a node
                // advertises them.
                let props: BTreeMap<TopicId, Proposal> = offers
                    .iter()
                    .map(|&(t, gw, parent_sel, parent, hops)| {
                        let (gw_addr, gw_id) = node(gw);
                        // Mostly origin-adjacent offers (parent = the
                        // advertiser), so adoptions are common.
                        let parent = NodeIdx(if parent_sel < 2 { *k } else { parent });
                        (TopicId(t), Proposal { gw_id, gw_addr, parent, hops })
                    })
                    .collect();
                let advert = Advert { props: Arc::new(props.into_iter().collect()), age: *age };
                (NodeIdx(*k), advert)
            })
            .collect();

        let got = elect_gateways(me, my_id, &my_subs, d_max, &rt, &rev, &ads, max_age);

        let connected = |a: NodeIdx| rt.contains(a) || rev.contains_key(&a);
        prop_assert_eq!(got.len(), my_subs.len());
        for topic in my_subs.iter() {
            let rt_nbrs = rt.iter().filter(|e| e.payload.contains(topic)).map(|e| e.addr);
            let rev_nbrs = rev
                .iter()
                .filter(|(a, l)| l.subs.contains(topic) && !rt.contains(**a))
                .map(|(a, _)| *a);
            let offered = rt_nbrs.chain(rev_nbrs).filter_map(|addr| {
                ads.get(&addr)
                    .filter(|ad| max_age.is_none_or(|max| ad.age <= max))
                    .and_then(|ad| ad.props.iter().find(|(t, _)| *t == topic))
                    .map(|(_, p)| (addr, p))
            });
            let want = revise_proposal(me, my_id, topic, d_max, offered, connected);
            prop_assert_eq!(got.get(&topic), Some(&want), "topic {}", topic);
        }
    }
}
