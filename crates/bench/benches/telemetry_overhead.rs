//! Telemetry overhead benchmark: events/s with the observability layer
//! off, counters-only (metrics hub + self-profiling), and fully tracing.
//!
//! Runs the bullet64-shaped star workload through `run_metered_with`
//! three ways, round-robin interleaved (off → counters → trace, repeated
//! `ROUNDS` times after one warmup round) so machine drift hits every mode
//! alike. Prints one `telemetry_bench {...}` JSON line per mode with the
//! median and interquartile range of its events/s, plus a final summary
//! line. Those lines feed `BENCH_telemetry.json` at the repository root and
//! the nightly `BENCH_telemetry` artifact published by the paper-smoke
//! workflow.
//!
//! Two gates read the summary line. `counters_overhead_pct` (hub sampling
//! and self-profiling, no flight recorder) is the median over rounds of the
//! paired wall-time ratio counters/off, minus one, and must stay within 10%.
//! `sim_events_match` is deterministic: telemetry only observes, so every
//! run of every mode must process exactly the same number of events. The
//! workload is fixed-size on purpose — overhead ratios, not absolute
//! throughput, are the contract.

use std::time::Instant;

use bullet_bench::announce;
use bullet_core::{BulletConfig, BulletNode};
use bullet_experiments::{run_metered_with, RunSpec, TelemetryConfig};
use bullet_netsim::telemetry::TraceSpec;
use bullet_netsim::{LinkSpec, NetworkSpec, Sim, SimDuration, SimRng, SimTime};
use bullet_overlay::random_tree;

const NODES: usize = 64;
const SEED: u64 = 2003;
const RUN_SECS: u64 = 20;
const ROUNDS: usize = 15;

fn build_sim() -> Sim<BulletNode> {
    let mut spec = NetworkSpec::new(NODES + 1);
    for i in 0..NODES {
        spec.add_link(LinkSpec::new(
            NODES,
            i,
            2_000_000.0,
            SimDuration::from_millis(10),
        ));
        spec.attach(i);
    }
    let mut rng = SimRng::new(SEED);
    let tree = random_tree(NODES, 0, 4, &mut rng);
    let config = BulletConfig {
        stream_rate_bps: 500_000.0,
        stream_start: SimTime::from_secs(2),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..NODES)
        .map(|i| BulletNode::new(i, &tree, config.clone()))
        .collect();
    Sim::new(&spec, agents, SEED)
}

fn run_spec() -> RunSpec {
    RunSpec {
        label: "telemetry_overhead".into(),
        source: 0,
        duration: SimDuration::from_secs(RUN_SECS),
        sample_interval: SimDuration::from_secs(2),
        failure: None,
    }
}

/// One timed run: `(events processed, wall seconds)`.
fn run_once(config: &TelemetryConfig) -> (u64, f64) {
    let sim = build_sim();
    let start = Instant::now();
    let result = run_metered_with(sim, &run_spec(), config);
    (result.summary.sim_events, start.elapsed().as_secs_f64())
}

/// Median and interquartile range (linear interpolation between ranks).
fn median_iqr(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

fn main() {
    announce("Telemetry overhead — events/s off vs counters-only vs full trace");
    println!(
        "# fixed workload: {NODES}-node star, 500 Kbps stream, {RUN_SECS} s sim, \
         {ROUNDS} interleaved rounds (off, counters, trace) after one warmup round"
    );

    let modes: [(&str, TelemetryConfig); 3] = [
        ("off", TelemetryConfig::disabled()),
        (
            "counters",
            TelemetryConfig {
                trace: None,
                profile: true,
            },
        ),
        (
            "trace",
            TelemetryConfig {
                trace: Some(TraceSpec::parse("all,cap=1048576").expect("valid spec")),
                profile: true,
            },
        ),
    ];

    for (_, config) in &modes {
        run_once(config);
    }
    let mut events: Vec<u64> = Vec::new();
    let mut secs = [const { Vec::new() }; 3];
    for _ in 0..ROUNDS {
        for (i, (_, config)) in modes.iter().enumerate() {
            let (n, s) = run_once(config);
            events.push(n);
            secs[i].push(s);
        }
    }
    let sim_events = events[0];
    let sim_events_match = events.iter().all(|&n| n == sim_events);

    for (i, (name, _)) in modes.iter().enumerate() {
        let rates: Vec<f64> = secs[i].iter().map(|s| sim_events as f64 / s).collect();
        let (median, iqr) = median_iqr(&rates);
        println!(
            "telemetry_bench {{\"mode\": \"{name}\", \"sim_events\": {sim_events}, \
             \"events_per_sec_median\": {median:.0}, \"events_per_sec_iqr\": {iqr:.0}, \
             \"runs\": {ROUNDS}}}"
        );
    }

    // Overhead per round, from the paired wall times of that round.
    let overhead = |mode: usize| {
        let pct: Vec<f64> = (0..ROUNDS)
            .map(|r| (secs[mode][r] / secs[0][r] - 1.0) * 100.0)
            .collect();
        median_iqr(&pct)
    };
    let (counters, counters_iqr) = overhead(1);
    let (trace, trace_iqr) = overhead(2);
    println!(
        "telemetry_bench {{\"mode\": \"summary\", \"counters_overhead_pct\": {counters:.2}, \
         \"counters_overhead_iqr_pct\": {counters_iqr:.2}, \"trace_overhead_pct\": {trace:.2}, \
         \"trace_overhead_iqr_pct\": {trace_iqr:.2}, \"budget_counters_pct\": 10.0, \
         \"sim_events_match\": {sim_events_match}}}"
    );
}
