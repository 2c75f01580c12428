//! The three benchmark workloads and their set-up.
//!
//! Each workload is a fixed protocol configuration over a fixed topology
//! and overlay tree; the benchmark's `--seed` draws each instance's
//! simulator RNG and scenario script. The workloads load different layers:
//!
//! * `mesh_star` routes over a star, so netsim routing is trivial and the
//!   Bullet handlers (peering, content reconciliation, RanSub, TFRC)
//!   dominate host time.
//! * `paper_stream` runs the same protocol over a paper-class transit-stub
//!   topology (at least 20,000 routers, lazy ALT routing), where netsim
//!   route search and link events dominate instead.
//! * `churn_storm` runs the full hardening chain over the default-scale
//!   topology under session churn, router outages and a join storm, so
//!   route repair, re-attach, retries, inbox and ingress shedding and join
//!   deferral all do work.

use std::time::Instant;

use bullet_suite::bullet::{BulletConfig, BulletNode, OverloadConfig};
use bullet_suite::dynamics::{ChurnConfig, ScenarioAction, ScenarioScript};
use bullet_suite::experiments::RunSpec;
use bullet_suite::netsim::{
    Agent, LinkSpec, NetworkSpec, NodeResources, QueueDiscipline, Sim, SimDuration, SimRng, SimTime,
};
use bullet_suite::overlay::{random_tree, Tree};
use bullet_suite::topology::{generate, TopologyConfig};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Bullet on a 128-node star: the protocol layers in isolation.
    MeshStar,
    /// Bullet on a paper-class transit-stub topology: netsim routing.
    PaperStream,
    /// Hardened Bullet under churn, outages and a join storm.
    ChurnStorm,
}

/// Wall seconds of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Topology generation.
    pub topology: f64,
    /// Overlay tree construction.
    pub tree: f64,
    /// Agent, simulator and scenario construction (routing set-up
    /// included).
    pub sim: f64,
}

impl SetupTimes {
    /// All stages together.
    pub fn total(&self) -> f64 {
        self.topology + self.tree + self.sim
    }
}

/// A workload ready to run.
pub struct Prepared<A: Agent> {
    /// The simulator, agents installed.
    pub sim: Sim<A>,
    /// What the meter samples and for how long.
    pub spec: RunSpec,
    /// Mid-run dynamics; empty for the static workloads.
    pub script: ScenarioScript,
    /// Routers in the topology.
    pub routers: usize,
    /// How long set-up took.
    pub setup: SetupTimes,
}

const STREAM_BPS: f64 = 500_000.0;

/// Simulated seconds of every run: the stream starts at 2 s and the last
/// quarter, 22.5-30 s, is the steady-state window.
const RUN_SECS: u64 = 30;

/// The ingress processor of every `churn_storm` receiver: enough for the
/// stream and routine control, not for the storm on top.
const CHURN_INGRESS: NodeResources = NodeResources {
    queue_budget: 60,
    drain_per_sec: 80.0,
    discipline: QueueDiscipline::DropTail,
};

/// When the `churn_storm` hub crashes: after the storm's ramp (8-11 s).
const HUB_CRASH_SECS: u64 = 12;

/// Seed of every workload's topology and overlay tree. The substrate is
/// fixed, as the paper fixes its topology across runs: drawing it per seed
/// raises one `paper_stream` instance's goodput variation from 4% to 15%,
/// more than an affordable batch averages out. The benchmark's `--seed`
/// draws everything else.
const SUBSTRATE_SEED: u64 = 2003;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MeshStar,
        Workload::PaperStream,
        Workload::ChurnStorm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshStar => "mesh_star",
            Workload::PaperStream => "paper_stream",
            Workload::ChurnStorm => "churn_storm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances one run simulates, each with its own protocol seed (and
    /// scenario). One instance's goodput tail, control overhead and host
    /// time swing by 10-35% from seed to seed, so a run reports its seed's
    /// batch: host time summed and simulated outputs averaged over the
    /// instances.
    pub fn instances(self) -> usize {
        match self {
            Workload::MeshStar => 32,
            Workload::PaperStream => 10,
            Workload::ChurnStorm => 48,
        }
    }

    /// The seed of instance `i` of the batch drawn from `seed`.
    pub fn instance_seed(seed: u64, i: usize) -> u64 {
        // splitmix64 finalizer: nearby run seeds give unrelated instances.
        let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn participants(self) -> usize {
        match self {
            Workload::MeshStar => 128,
            Workload::PaperStream => 256,
            Workload::ChurnStorm => 100,
        }
    }

    fn config(self) -> BulletConfig {
        let base = BulletConfig {
            stream_rate_bps: STREAM_BPS,
            stream_start: SimTime::from_secs(2),
            ..BulletConfig::default()
        };
        match self {
            Workload::MeshStar | Workload::PaperStream => base,
            Workload::ChurnStorm => {
                // Budgets sized, as in the 64-node overload golden, so that
                // the storm actually hits them at this overlay size.
                let mut config = BulletConfig {
                    ransub_epoch: SimDuration::from_secs(2),
                    filter_refresh_interval: SimDuration::from_secs(2),
                    mesh_eval_interval: SimDuration::from_secs(5),
                    ..base
                }
                .overload();
                config.overload = Some(OverloadConfig {
                    inbox_budget: 12,
                    working_set_budget: 600,
                    ..OverloadConfig::default()
                });
                config
            }
        }
    }

    fn topology(self) -> NetworkSpec {
        let n = self.participants();
        match self {
            Workload::MeshStar => {
                let mut spec = NetworkSpec::new(n + 1);
                for i in 0..n {
                    spec.add_link(LinkSpec::new(
                        n,
                        i,
                        2_000_000.0,
                        SimDuration::from_millis(10),
                    ));
                    spec.attach(i);
                }
                spec
            }
            Workload::PaperStream => generate(&TopologyConfig::paper_scale(n, SUBSTRATE_SEED)).spec,
            Workload::ChurnStorm => generate(&TopologyConfig::emulation(n, SUBSTRATE_SEED)).spec,
        }
    }

    /// The scenario script over `spec`; empty for the static workloads.
    fn script(self, spec: &NetworkSpec, tree: &Tree, seed: u64) -> ScenarioScript {
        if self != Workload::ChurnStorm {
            return ScenarioScript::new();
        }
        let n = self.participants();
        // Churn and outages stop at 60% of the run. The steady-state window
        // (the last quarter) then measures how far the hardened overlay
        // recovered, rather than where the last crash happened to land.
        let calm = RUN_SECS as f64 * 0.6;
        // The last fifth of the overlay arrives as one storm at t = 8 s.
        let storm_first = n - n / 5;
        let mut script = ScenarioScript::new().at(
            SimTime::from_secs(8),
            ScenarioAction::JoinStorm {
                first: storm_first,
                count: n - storm_first,
                ramp_secs: 3.0,
                seed: seed ^ 0x0B10,
            },
        );
        // Once the storm has passed, the pre-storm member with the most
        // pre-storm children crashes for good, so every instance walks the
        // re-attach ladder at least once. Churn leaves it alone, so it is
        // up when it crashes and stays down.
        let hub = (1..storm_first)
            .max_by_key(|&node| {
                let kids = tree
                    .children(node)
                    .iter()
                    .filter(|&&c| c < storm_first)
                    .count();
                (kids, std::cmp::Reverse(node))
            })
            .expect("the overlay has pre-storm members");
        script = script.at(
            SimTime::from_secs(HUB_CRASH_SECS),
            ScenarioAction::Crash { node: hub },
        );
        // Session churn of the other pre-storm members, source excluded.
        script = script.merge(ScenarioScript::exponential_churn(&ChurnConfig {
            nodes: (1..storm_first).filter(|&node| node != hub).collect(),
            start: SimTime::from_secs(5),
            end: SimTime::from_secs_f64(calm),
            mean_session_secs: 200.0,
            mean_downtime_secs: 4.0,
            graceful_fraction: 0.25,
            seed: seed ^ 0xC0_94,
        }));
        // Every 4 s a random member's stub router fails for 2 s, so every
        // route to that member is invalidated and repaired.
        let mut rng = SimRng::new(seed ^ 0x0A7A);
        let mut at = 6.0;
        while at + 2.0 <= calm {
            let node = rng.range_usize(1, n);
            script = script.merge(ScenarioScript::stub_outage(
                spec.attachments[node],
                SimTime::from_secs_f64(at),
                2.0,
            ));
            at += 4.0;
        }
        script
    }

    /// Builds the workload for `seed`, wrapping each Bullet node with
    /// `wrap` (the identity for untraced runs).
    pub fn prepare<A: Agent>(self, seed: u64, wrap: impl Fn(BulletNode) -> A) -> Prepared<A> {
        let started = Instant::now();
        let spec = self.topology();
        let topology = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let n = self.participants();
        let tree = random_tree(n, 0, 4, &mut SimRng::new(SUBSTRATE_SEED));
        let tree_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let config = self.config();
        let agents: Vec<A> = (0..n)
            .map(|i| wrap(BulletNode::new(i, &tree, config.clone())))
            .collect();
        let mut sim = Sim::new(&spec, agents, seed);
        if self == Workload::ChurnStorm {
            // Finite ingress processors, so the storm also reaches the
            // simulator's drop-tail shedding, not only the inbox budget.
            for node in 1..n {
                sim.set_node_resources(node, CHURN_INGRESS);
            }
        }
        let script = self.script(&spec, &tree, seed);
        let sim_secs = started.elapsed().as_secs_f64();

        Prepared {
            sim,
            spec: RunSpec {
                label: self.name().to_string(),
                source: 0,
                duration: SimDuration::from_secs(RUN_SECS),
                sample_interval: SimDuration::from_secs(1),
                failure: None,
            },
            script,
            routers: spec.routers,
            setup: SetupTimes {
                topology,
                tree: tree_secs,
                sim: sim_secs,
            },
        }
    }
}
