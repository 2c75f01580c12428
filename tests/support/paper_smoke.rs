//! The fixed `BULLET_SCALE=paper` smoke workload.
//!
//! A 256-participant Bullet overlay streams for a few seconds of simulated
//! time over a full paper-class transit-stub topology (≥ 20,000 routers,
//! degree-one leaf attachment, Table 1 medium bandwidths), routed by the
//! lazy landmark-guided forward search `Scale::Paper` selects. Shared
//! (via `#[path]` inclusion) by `tests/determinism.rs`, which pins the
//! delivery digest and byte totals to golden values, and by
//! `examples/paper_smoke_probe.rs`, which recaptures them.
//!
//! Because routes are canonical (see `bullet_netsim::routing`), the order
//! in which router pairs are first contacted — and therefore the order in
//! which routes are computed and interned — cannot influence any path, so
//! the fingerprint is stable no matter how route computation interleaves
//! with the protocol.

use bullet_suite::bullet::{BulletConfig, BulletNode};
use bullet_suite::experiments::Scale;
use bullet_suite::netsim::{RoutingStats, Sim, SimCounters, SimRng, SimTime};
use bullet_suite::overlay::random_tree;
use bullet_suite::topology::{generate, TopologyConfig};

/// Participants in the smoke overlay (a subset of the paper's 1,000 so the
/// golden test stays inside a debug-build time budget).
pub const PARTICIPANTS: usize = 256;
/// Topology / protocol seed.
pub const SEED: u64 = 2003;
/// Simulated run length, in seconds.
pub const RUN_SECS: u64 = 6;

fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Runs the workload and returns `(counters, delivery digest, total bytes
/// sent on physical links, routing stats)`.
pub fn fingerprint() -> (SimCounters, u64, u64, RoutingStats) {
    let topo = generate(&TopologyConfig::paper_scale(PARTICIPANTS, SEED));
    assert!(
        topo.spec.routers >= 20_000,
        "paper smoke must run on a paper-sized topology"
    );
    let mut rng = SimRng::new(SEED);
    let tree = random_tree(PARTICIPANTS, 0, 4, &mut rng);
    let config = BulletConfig {
        stream_rate_bps: 500_000.0,
        stream_start: SimTime::from_secs(2),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..PARTICIPANTS)
        .map(|i| BulletNode::new(i, &tree, config.clone()))
        .collect();
    let mut sim = Sim::with_routing(&topo.spec, agents, SEED, Scale::Paper.routing_mode());
    sim.run_until(SimTime::from_secs(RUN_SECS));

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for node in 0..PARTICIPANTS {
        let m = &sim.agent(node).metrics;
        let t = sim.traffic(node);
        for v in [
            m.delivery.useful_packets,
            m.delivery.useful_bytes,
            m.delivery.raw_bytes,
            m.delivery.duplicate_packets,
            m.delivery.total_packets,
            t.data_bytes_in,
            t.control_bytes_in,
            t.data_bytes_out,
            t.control_bytes_out,
        ] {
            digest = mix(digest, v);
        }
    }
    let routing = sim.network().routing_stats();
    (
        sim.counters(),
        digest,
        sim.network().total_bytes_sent(),
        routing,
    )
}
