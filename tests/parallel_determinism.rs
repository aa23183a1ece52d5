//! The parallel executor's oracle: the golden scenarios of
//! `determinism_golden`, re-run with rounds routed through the engine's
//! deterministic parallel executor
//! (`SystemRuntime::set_parallel_rounds(true)`), compared byte-for-byte
//! against the **same** checked-in snapshots under `tests/golden/`.
//!
//! Nothing here has its own golden files on purpose: if the parallel path
//! ever diverges from serial execution by a single bit — stats, loss
//! attribution, health probe, or any line of the forensics trace — one of
//! these tests fails against the serial snapshot, naming the system.
//!
//! Thread-count independence is pinned twice: the engine's own
//! differential tests cover it in-process, and CI runs this whole binary
//! under both `RAYON_NUM_THREADS=1` and `RAYON_NUM_THREADS=8` — same
//! files, any thread count.

mod common;

use common::{
    check_golden, faulted_params, golden_params, no_election_params, no_utility_params,
    repair_params, run_repair_scenario, run_scenario, zipf_params,
};
use rand::Rng;
use vitis::conformance::check_pubsub_conformance;
use vitis::system::{SystemParams, VitisSystem};
use vitis::topic::TopicSet;
use vitis_baselines::{OptSystem, RvrSystem};
use vitis_sim::rng::{domain, stream_rng};

#[test]
fn vitis_parallel_run_matches_serial_golden() {
    let mut sys = VitisSystem::new(golden_params());
    sys.set_parallel_rounds(true);
    check_golden("vitis", &run_scenario(&mut sys));
}

#[test]
fn rvr_parallel_run_matches_serial_golden() {
    let mut sys = RvrSystem::new(golden_params());
    sys.set_parallel_rounds(true);
    check_golden("rvr", &run_scenario(&mut sys));
}

#[test]
fn opt_parallel_run_matches_serial_golden() {
    let mut sys = OptSystem::new(golden_params());
    sys.set_parallel_rounds(true);
    check_golden("opt", &run_scenario(&mut sys));
}

/// The fault-injection path under parallel execution: freeze suppression,
/// crash incarnations, partition drops and latency spikes all merge
/// deterministically — same bytes as the serial faulted snapshot.
#[test]
fn vitis_faulted_parallel_run_matches_serial_golden() {
    let mut sys = VitisSystem::new(faulted_params());
    sys.set_parallel_rounds(true);
    check_golden("vitis_faulted", &run_scenario(&mut sys));
}

/// The anti-entropy repair layer under parallel execution: digest target
/// sampling, pull scheduling and recovery-delivery accounting replay
/// identically through the deferred monitor-op pipeline — same bytes as
/// the serial repair snapshot.
#[test]
fn vitis_repair_parallel_run_matches_serial_golden() {
    let mut sys = VitisSystem::new(repair_params());
    sys.set_parallel_rounds(true);
    check_golden("vitis_repair", &run_repair_scenario(&mut sys));
}

/// The skewed-rate, utility-ablation and election-ablation scenarios
/// under parallel execution: same bytes as their serial snapshots.
#[test]
fn vitis_zipf_parallel_run_matches_serial_golden() {
    let mut sys = VitisSystem::new(zipf_params());
    sys.set_parallel_rounds(true);
    check_golden("vitis_zipf", &run_scenario(&mut sys));
}

#[test]
fn vitis_no_utility_parallel_run_matches_serial_golden() {
    let mut sys = VitisSystem::new(no_utility_params());
    sys.set_parallel_rounds(true);
    check_golden("vitis_no_utility", &run_scenario(&mut sys));
}

#[test]
fn vitis_no_election_parallel_run_matches_serial_golden() {
    let mut sys = VitisSystem::new(no_election_params());
    sys.set_parallel_rounds(true);
    check_golden("vitis_no_election", &run_scenario(&mut sys));
}

/// The full pub/sub driver contract holds with parallel rounds on: all
/// three systems pass the shared conformance suite (publish/deliver,
/// churn, metrics-window semantics) unchanged.
fn conformance_params(seed: u64) -> SystemParams {
    const NODES: usize = 120;
    const TOPICS: u32 = 10;
    let mut rng = stream_rng(seed, domain::WORKLOAD, 1);
    let subscriptions: Vec<TopicSet> = (0..NODES)
        .map(|_| TopicSet::from_iter((0..4).map(|_| rng.gen_range(0..TOPICS))))
        .collect();
    let mut p = SystemParams::new(subscriptions, TOPICS as usize);
    p.seed = seed;
    p
}

#[test]
fn vitis_conforms_with_parallel_rounds() {
    let mut sys = VitisSystem::new(conformance_params(61));
    sys.set_parallel_rounds(true);
    check_pubsub_conformance(&mut sys, "vitis-parallel", 10, 12);
}

#[test]
fn rvr_conforms_with_parallel_rounds() {
    let mut sys = RvrSystem::new(conformance_params(61));
    sys.set_parallel_rounds(true);
    check_pubsub_conformance(&mut sys, "rvr-parallel", 10, 12);
}

#[test]
fn opt_conforms_with_parallel_rounds() {
    let mut sys = OptSystem::new(conformance_params(61));
    sys.set_parallel_rounds(true);
    check_pubsub_conformance(&mut sys, "opt-parallel", 10, 12);
}
