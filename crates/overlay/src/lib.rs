//! # vitis-overlay
//!
//! The gossip overlay substrate shared by Vitis and its baselines:
//!
//! * a circular 64-bit [`id::Id`] space shared by node and topic ids,
//! * bounded partial [`view::View`]s of [`entry::Entry`] descriptors,
//! * gossip [`peer_sampling`] services (Newscast and Cyclon),
//! * Symphony-style [`smallworld`] link selection and [`ring`] maintenance,
//! * generic [`tman`] topology construction and the T-Man-driven
//!   [`rt::HybridRt`] routing table with the paper's Algorithm 4 neighbor
//!   selection,
//! * greedy rendezvous [`routing`], and
//! * static [`graph`] analysis (topic clusters, hop counts, degrees).

#![warn(missing_docs)]

pub mod entry;
pub mod estimate;
pub mod graph;
pub mod id;
pub mod peer_sampling;
pub mod ring;
pub mod routing;
pub mod rt;
pub mod smallworld;
pub mod tman;
pub mod view;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::entry::{merge_dedup, remove_addr, Entry};
    pub use crate::estimate::SizeEstimator;
    pub use crate::graph::Graph;
    pub use crate::id::{closest_to, Id};
    pub use crate::peer_sampling::{Cyclon, Newscast, PeerSampling};
    pub use crate::ring::{find_predecessor, find_successor, ring_accuracy};
    pub use crate::routing::{greedy_walk, next_hop, LookupPath};
    pub use crate::rt::{
        build_exchange_buffer, merge_candidates, select_neighbors, HybridRt, LinkKind, RtParams,
    };
    pub use crate::smallworld::{harmonic_distance, select_sw_neighbor};
    pub use crate::tman::{RankFn, TMan};
    pub use crate::view::View;
}
