//! The repository benchmark: end-to-end host cost and simulated delivery
//! of three Bullet workloads, plus a per-layer ledger from a traced run.
//!
//! ```text
//! bullet-perfbench --workload <mesh_star|paper_stream|churn_storm>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--seed` draws a batch of independent instances of the workload (see
//! [`Workload::instances`]). The run cycles through the batch, serially on
//! one thread, until `--seconds` of host time have passed and every
//! instance has run; an untraced run then repeats the first instance once
//! more. With `--trace 0` every run is untraced and the end-to-end metrics
//! are printed. With `--trace 1` every untraced run is paired with a traced
//! one and the per-layer metrics are printed. Host times are batch sums of
//! each instance's median; the end-to-end ones are scaled to a reference
//! host speed (see [`speed_kernel`]). Simulated outputs are batch means and
//! repeat exactly for a fixed seed. Every run of an instance, traced or not, must
//! reproduce its first run bit for bit, and each instance's outputs must
//! pass the checks in [`output_errors`] and [`workload_errors`]. The last
//! line of standard output is one JSON object; a readable table goes to
//! standard error.

mod ledger;
mod workload;

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bullet_suite::dynamics::{ScenarioAction, ScenarioAgent, ScenarioScript};
use bullet_suite::experiments::{
    run_metered_dynamic_with, run_metered_with, MeteredAgent, RunResult, TelemetryConfig,
};
use bullet_suite::telemetry::SelfProfile;

use ledger::{Ledger, Timed, MSG_KINDS, TIMER_KINDS};
use workload::{Prepared, SetupTimes, Workload};

/// Share of the run after which steady-state goodput is read, as in
/// `RunSummary::steady_useful_kbps`.
const STEADY_TAIL: f64 = 0.25;

/// Host seconds of one [`speed_kernel`] pass at the reference host speed,
/// about what it takes on the 2-core container the README's figures come
/// from.
const REFERENCE_KERNEL_SECS: f64 = 0.02;

/// An untraced run times one [`speed_kernel`] pass after each simulated
/// run, plus one more per this many host seconds of that run.
const KERNEL_EVERY_SECS: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One simulated repetition.
struct Rep {
    setup: SetupTimes,
    /// Host seconds of the metered run, set-up excluded.
    wall: f64,
    result: RunResult,
}

/// Every repetition of one instance of the batch.
struct Instance {
    seed: u64,
    routers: usize,
    /// Nodes up once the scenario has played out (all, when static).
    members: Vec<bool>,
    plain: Vec<Rep>,
    traced: Vec<(Rep, Ledger)>,
}

fn execute<A: MeteredAgent + ScenarioAgent>(
    prepared: Prepared<A>,
    telemetry: &TelemetryConfig,
) -> Rep {
    let Prepared {
        sim,
        spec,
        script,
        setup,
        ..
    } = prepared;
    let started = Instant::now();
    let result = if script.is_empty() {
        run_metered_with(sim, &spec, telemetry)
    } else {
        run_metered_dynamic_with(sim, &spec, &script, telemetry)
    };
    let wall = started.elapsed().as_secs_f64();
    Rep {
        setup,
        wall,
        result,
    }
}

impl Instance {
    fn run_plain(&mut self, workload: Workload) {
        let prepared = workload.prepare(self.seed, |node| node);
        self.routers = prepared.routers;
        self.members = members_at_end(&prepared.script, prepared.sim.agents().len());
        self.plain
            .push(execute(prepared, &TelemetryConfig::disabled()));
    }

    fn run_traced(&mut self, workload: Workload) {
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        let prepared = workload.prepare(self.seed, |node| Timed::new(node, ledger.clone()));
        let telemetry = TelemetryConfig {
            trace: None,
            profile: true,
        };
        let rep = execute(prepared, &telemetry);
        let ledger = ledger.borrow().clone();
        self.traced.push((rep, ledger));
    }

    fn results(&self) -> impl Iterator<Item = &RunResult> {
        self.plain
            .iter()
            .chain(self.traced.iter().map(|(rep, _)| rep))
            .map(|rep| &rep.result)
    }

    /// The first run; every other run of the instance must reproduce it.
    fn reference(&self) -> &RunResult {
        &self.plain[0].result
    }

    /// Runs that did not reproduce the first one: a different fingerprint,
    /// or (traced) different callback counts.
    fn mismatches(&self) -> usize {
        let reference = fingerprint(self.reference());
        let calls = self.traced.first().map(|(_, l)| l.call_counts());
        self.results()
            .filter(|r| fingerprint(r) != reference)
            .count()
            + self
                .traced
                .iter()
                .filter(|(_, l)| Some(l.call_counts()) != calls)
                .count()
    }

    /// Steady-state goodput of each receiver up at the end of the run.
    fn member_kbps(&self) -> Vec<f64> {
        let r = self.reference();
        steady_node_kbps(r)
            .into_iter()
            .enumerate()
            .filter(|&(node, _)| node != r.source && self.members[node])
            .map(|(_, kbps)| kbps)
            .collect()
    }

    fn plain_wall(&self) -> f64 {
        median(self.plain.iter().map(|r| r.wall))
    }

    fn traced_wall(&self) -> f64 {
        median(self.traced.iter().map(|(r, _)| r.wall))
    }

    /// Median over the traced runs of one ledger reading.
    fn ledger_secs(&self, read: impl Fn(&Ledger) -> f64) -> f64 {
        median(self.traced.iter().map(|(_, l)| read(l)))
    }

    fn setups(&self) -> impl Iterator<Item = SetupTimes> + '_ {
        self.plain
            .iter()
            .chain(self.traced.iter().map(|(rep, _)| rep))
            .map(|rep| rep.setup)
    }
}

fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// A digest of everything a metered run returns that is a pure function of
/// the simulation: event count, routing work, every sampled per-node byte
/// count and the summary's counters. Queue depths are left out because
/// only profiled runs fill them in.
fn fingerprint(r: &RunResult) -> u64 {
    let s = &r.summary;
    let routing = &r.routing;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut values = vec![
        s.sim_events,
        routing.route_queries,
        routing.batched_queries,
        routing.trees_built,
        routing.lazy_searches,
        routing.routers_settled,
        routing.landmarks as u64,
        s.link_stress_max,
        s.orphan_detections,
        s.reattaches,
        s.orphan_window_packets,
        s.control_retries,
        s.false_positive_evictions,
        s.route_mutations,
        s.routes_invalidated,
        s.landmark_repairs,
        s.blocks_verified,
        s.corrupt_blocks_rejected,
        s.corrupt_blocks_accepted,
        s.quarantines,
        s.inbox_sheds,
        s.joins_deferred,
        s.joins_admitted_after_defer,
        s.peak_inbox_depth,
        s.working_set_evictions,
        s.slow_demotions,
        s.ingress_sheds,
        s.ingress_peak_depth,
    ];
    values.extend(
        [
            s.steady_useful_kbps,
            s.steady_raw_kbps,
            s.duplicate_fraction,
            s.parent_relay_duplicate_share,
            s.control_overhead_kbps,
            s.link_stress_mean,
            s.median_delivery_fraction,
            s.mean_reattach_secs,
            s.median_reattach_secs,
            s.clean_goodput_kbps,
        ]
        .map(f64::to_bits),
    );
    values.extend(r.per_node_useful_bytes.iter().flatten());
    for v in values {
        h = mix(h, v);
    }
    h
}

/// Per-node useful Kbps over the steady-state window of the run, the
/// window `RunSummary::steady_useful_kbps` averages.
fn steady_node_kbps(r: &RunResult) -> Vec<f64> {
    let len = r.times.len();
    let start = ((len as f64 * (1.0 - STEADY_TAIL)).floor() as usize).min(len - 1);
    let (t0, before) = if start == 0 {
        (0.0, None)
    } else {
        (
            r.times[start - 1],
            Some(&r.per_node_useful_bytes[start - 1]),
        )
    };
    let dt = r.times[len - 1] - t0;
    let last = &r.per_node_useful_bytes[len - 1];
    (0..last.len())
        .map(|node| {
            let from = before.map_or(0, |b| b[node]);
            (last[node] - from) as f64 * 8.0 / dt / 1_000.0
        })
        .collect()
}

fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values.into_iter().collect(), 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether each node is up when the script has played out: late joiners
/// and storm cohorts have joined, crashed nodes that never rejoined and
/// graceful leavers are down.
fn members_at_end(script: &ScenarioScript, n: usize) -> Vec<bool> {
    let mut up = vec![true; n];
    for &node in script.initially_down() {
        up[node] = false;
    }
    for event in script.sorted_events() {
        match event.action {
            ScenarioAction::Crash { node } | ScenarioAction::GracefulLeave { node } => {
                up[node] = false
            }
            ScenarioAction::Join { node } | ScenarioAction::Recover { node } => up[node] = true,
            ScenarioAction::JoinStorm { first, count, .. } => up[first..first + count].fill(true),
            _ => {}
        }
    }
    up
}

/// Checks a run's outputs against each other: the per-node byte counters
/// must only grow, they must reproduce the summary's steady goodput when
/// averaged independently, and the summary ratios must be proportions.
fn output_errors(r: &RunResult) -> Vec<String> {
    let mut errors = Vec::new();
    let s = &r.summary;
    for pair in r.per_node_useful_bytes.windows(2) {
        if pair[0].iter().zip(&pair[1]).any(|(a, b)| b < a) {
            errors.push("a receiver's cumulative useful bytes decreased".into());
            break;
        }
    }
    let receivers = steady_node_kbps(r)
        .into_iter()
        .enumerate()
        .filter(|&(node, _)| node != r.source)
        .map(|(_, kbps)| kbps);
    let mean = mean(receivers);
    if (mean - s.steady_useful_kbps).abs() > 1e-6 * s.steady_useful_kbps.max(1.0) {
        errors.push(format!(
            "per-node steady goodput averages to {mean} Kbps but the summary reports {}",
            s.steady_useful_kbps
        ));
    }
    if !(s.steady_useful_kbps > 0.0 && s.control_overhead_kbps > 0.0) {
        errors.push("no goodput or no control traffic".into());
    }
    if !(s.median_delivery_fraction > 0.0 && s.median_delivery_fraction <= 1.0) {
        errors.push(format!(
            "median delivery fraction {} outside (0, 1]",
            s.median_delivery_fraction
        ));
    }
    if !(0.0..1.0).contains(&s.duplicate_fraction) {
        errors.push(format!(
            "duplicate fraction {} outside [0, 1)",
            s.duplicate_fraction
        ));
    }
    errors
}

/// Checks that the workload exercised the layers it is meant to load and
/// skipped the ones it is meant to bypass.
fn workload_errors(workload: Workload, routers: usize, r: &RunResult) -> Vec<String> {
    let s = &r.summary;
    let mut errors = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            errors.push(format!("{}: expected {what}", workload.name()));
        }
    };
    let hardening = [
        s.route_mutations,
        s.routes_invalidated,
        s.landmark_repairs,
        s.orphan_detections,
        s.reattaches,
        s.control_retries,
        s.false_positive_evictions,
        s.inbox_sheds,
        s.joins_deferred,
        s.working_set_evictions,
        s.ingress_sheds,
    ];
    match workload {
        Workload::MeshStar => {
            expect(r.routing.lazy_searches == 0, "no lazy route searches");
            expect(s.routes_invalidated == 0, "no route invalidations");
            expect(
                hardening.iter().all(|&c| c == 0),
                "every churn and hardening counter at 0",
            );
        }
        Workload::PaperStream => {
            expect(routers >= 20_000, "at least 20,000 routers");
            expect(r.routing.lazy_searches > 0, "lazy route searches");
            expect(
                hardening.iter().all(|&c| c == 0),
                "every churn and hardening counter at 0",
            );
        }
        Workload::ChurnStorm => {
            expect(s.routes_invalidated > 0, "route invalidations");
            expect(s.reattaches > 0, "orphan re-attaches");
            expect(
                s.inbox_sheds + s.joins_deferred > 0,
                "inbox sheds or join deferrals",
            );
        }
    }
    errors
}

/// A fixed workload that stands in for the host's speed: a binary heap and
/// a hash map driven by a xorshift stream, the shapes of the simulator's
/// event queue and per-node state. Returns its host seconds.
///
/// The host's speed drifts by 20-30% over minutes, far longer than a run,
/// so medians within a run cannot remove it. Timing this kernel between
/// simulated runs tracks the drift: on one seed, twelve runs' raw walls
/// spread by 15.5% (IQR/median) and walls divided by the kernel's mean by
/// 4.4%. The kernel does not touch the program, so a change to the program
/// moves only the wall it is divided into.
fn speed_kernel() -> f64 {
    let started = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut state: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push(std::cmp::Reverse(x % 1_000_000));
        *state.entry(x % 50_000).or_default() += i;
        if queue.len() > 20_000 {
            std::hint::black_box(queue.pop());
        }
    }
    std::hint::black_box(&state);
    started.elapsed().as_secs_f64()
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.add(name, value as f64, "count");
    }
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    ratio(sum, n as f64)
}

/// Batch set-up seconds: each instance's median set-up, summed.
fn setup_secs(batch: &[Instance], stage: impl Fn(&SetupTimes) -> f64) -> f64 {
    batch
        .iter()
        .map(|i| median(i.setups().map(|s| stage(&s))))
        .sum()
}

/// `speed` is the factor that scales this host's seconds to the reference
/// host speed's.
fn end_to_end(batch: &[Instance], speed: f64, report: &mut Report) {
    // Simulated outputs: means over the batch.
    let across = |read: &dyn Fn(&Instance) -> f64| mean(batch.iter().map(read));
    report.add("setup_s", setup_secs(batch, SetupTimes::total) * speed, "s");
    report.add(
        "wall_s",
        batch.iter().map(Instance::plain_wall).sum::<f64>() * speed,
        "s",
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add(
        "goodput_kbps",
        across(&|i| i.reference().summary.steady_useful_kbps),
        "kbps",
    );
    report.add(
        "goodput_p10_kbps",
        across(&|i| quantile(i.member_kbps(), 0.10)),
        "kbps",
    );
    report.add(
        "delivery_fraction",
        across(&|i| i.reference().summary.median_delivery_fraction),
        "fraction",
    );
    report.add(
        "control_overhead_kbps",
        across(&|i| i.reference().summary.control_overhead_kbps),
        "kbps",
    );
}

fn per_layer(batch: &[Instance], report: &mut Report) {
    report.add("setup.topology_s", setup_secs(batch, |s| s.topology), "s");
    report.add("setup.tree_s", setup_secs(batch, |s| s.tree), "s");
    report.add("setup.sim_s", setup_secs(batch, |s| s.sim), "s");

    // Counts are batch totals; host times are batch sums of each
    // instance's median over its traced runs.
    let sum = |read: &dyn Fn(&Instance) -> f64| batch.iter().map(read).sum::<f64>();
    let total =
        |read: &dyn Fn(&RunResult) -> u64| batch.iter().map(|i| read(i.reference())).sum::<u64>();
    let calls =
        |read: &dyn Fn(&Ledger) -> u64| batch.iter().map(|i| read(&i.traced[0].1)).sum::<u64>();
    let traced_wall = sum(&Instance::traced_wall);
    let bullet_self = sum(&|i| i.ledger_secs(Ledger::self_secs));
    let profile = |i: &Instance, read: &dyn Fn(&SelfProfile) -> f64| {
        median(i.traced.iter().map(|(rep, _)| {
            read(
                &rep.result
                    .telemetry
                    .as_ref()
                    .and_then(|t| t.profile)
                    .expect("profiled runs carry a self-profile"),
            )
        }))
    };
    let events = total(&|r| r.summary.sim_events);

    report.add("netsim.self_s", traced_wall - bullet_self, "s");
    report.count("netsim.events", events);
    report.add(
        "netsim.events_per_s",
        ratio(events as f64, traced_wall),
        "1/s",
    );
    report.count(
        "netsim.peak_queue_depth",
        batch
            .iter()
            .map(|i| i.traced[0].0.result.summary.peak_queue_depth)
            .max()
            .unwrap_or(0),
    );
    report.add(
        "netsim.mean_queue_depth",
        mean(
            batch
                .iter()
                .map(|i| i.traced[0].0.result.summary.mean_queue_depth),
        ),
        "count",
    );
    report.add(
        "netsim.link_stress_mean",
        mean(batch.iter().map(|i| i.reference().summary.link_stress_mean)),
        "ratio",
    );
    let searches = total(&|r| r.routing.lazy_searches);
    let settled = total(&|r| r.routing.routers_settled);
    report.count("netsim.route_queries", total(&|r| r.routing.route_queries));
    report.count("netsim.lazy_searches", searches);
    report.count("netsim.routers_settled", settled);
    report.add(
        "netsim.settled_per_search",
        ratio(settled as f64, searches as f64),
        "ratio",
    );
    report.count("netsim.trees_built", total(&|r| r.routing.trees_built));
    report.count(
        "netsim.route_mutations",
        total(&|r| r.summary.route_mutations),
    );
    report.count(
        "netsim.routes_invalidated",
        total(&|r| r.summary.routes_invalidated),
    );
    report.count(
        "netsim.landmark_repairs",
        total(&|r| r.summary.landmark_repairs),
    );
    report.add(
        "netsim.repair_s",
        sum(&|i| profile(i, &|p| p.repair_wall_secs)),
        "s",
    );
    report.count("netsim.ingress_sheds", total(&|r| r.summary.ingress_sheds));

    report.count("bullet.callbacks", calls(&Ledger::callbacks));
    report.add("bullet.self_s", bullet_self, "s");
    report.add("bullet.share", ratio(bullet_self, traced_wall), "ratio");
    for (k, kind) in MSG_KINDS.iter().enumerate() {
        report.count(
            format!("bullet.msg.{kind}.calls"),
            calls(&|l| l.msgs[k].calls),
        );
        report.add(
            format!("bullet.msg.{kind}.s"),
            sum(&|i| i.ledger_secs(|l| l.msgs[k].secs)),
            "s",
        );
    }
    for (k, kind) in TIMER_KINDS.iter().enumerate() {
        report.count(
            format!("bullet.timer.{kind}.calls"),
            calls(&|l| l.timers[k].calls),
        );
        report.add(
            format!("bullet.timer.{kind}.s"),
            sum(&|i| i.ledger_secs(|l| l.timers[k].secs)),
            "s",
        );
    }
    report.count("bullet.lifecycle.calls", calls(&|l| l.lifecycle.calls));
    report.add(
        "bullet.lifecycle.s",
        sum(&|i| i.ledger_secs(|l| l.lifecycle.secs)),
        "s",
    );
    report.add(
        "bullet.peering_accept_ratio",
        ratio(
            calls(&Ledger::peering_accepts) as f64,
            calls(&Ledger::peering_requests) as f64,
        ),
        "ratio",
    );
    report.add(
        "bullet.duplicate_fraction",
        mean(
            batch
                .iter()
                .map(|i| i.reference().summary.duplicate_fraction),
        ),
        "fraction",
    );
    report.count("bullet.reattaches", total(&|r| r.summary.reattaches));
    report.count(
        "bullet.control_retries",
        total(&|r| r.summary.control_retries),
    );
    report.count(
        "bullet.false_positive_evictions",
        total(&|r| r.summary.false_positive_evictions),
    );
    report.count(
        "bullet.working_set_evictions",
        total(&|r| r.summary.working_set_evictions),
    );
    report.count("bullet.inbox_sheds", total(&|r| r.summary.inbox_sheds));
    report.count(
        "bullet.joins_deferred",
        total(&|r| r.summary.joins_deferred),
    );

    report.add(
        "trace.overhead",
        ratio(traced_wall, sum(&Instance::plain_wall)),
        "ratio",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bullet-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut batch: Vec<Instance> = (0..w.instances())
        .map(|i| Instance {
            seed: Workload::instance_seed(args.seed, i),
            routers: 0,
            members: Vec::new(),
            plain: Vec::new(),
            traced: Vec::new(),
        })
        .collect();

    // Cycle through the batch until the budget is spent. An untraced run
    // covers every instance once and then repeats the first, so the
    // reproducibility check always has a second run to compare; a traced
    // run pairs every untraced run with a traced one.
    let started = Instant::now();
    let min_runs = if args.trace {
        batch.len()
    } else {
        batch.len() + 1
    };
    let mut runs = 0;
    let mut kernel = Vec::new();
    while runs < min_runs || started.elapsed() < budget {
        let instance = &mut batch[runs % w.instances()];
        instance.run_plain(w);
        if args.trace {
            instance.run_traced(w);
        } else {
            let wall = instance.plain.last().map_or(0.0, |rep| rep.wall);
            for _ in 0..=(wall / KERNEL_EVERY_SECS) as usize {
                kernel.push(speed_kernel());
            }
        }
        runs += 1;
    }

    let mut errors = Vec::new();
    let mut failed = 0;
    for instance in &batch {
        let mismatches = instance.mismatches();
        if mismatches > 0 {
            errors.push(format!(
                "instance seed {}: {mismatches} runs did not reproduce the first",
                instance.seed
            ));
        }
        let mut instance_errors = output_errors(instance.reference());
        instance_errors.extend(workload_errors(w, instance.routers, instance.reference()));
        failed += if instance_errors.is_empty() {
            mismatches
        } else {
            instance.plain.len() + instance.traced.len()
        };
        errors.extend(
            instance_errors
                .into_iter()
                .map(|e| format!("instance seed {}: {e}", instance.seed)),
        );
    }
    for e in &errors {
        eprintln!("bullet-perfbench: check failed: {e}");
    }

    let mut report = Report {
        metrics: Vec::new(),
    };
    if args.trace {
        per_layer(&batch, &mut report);
    } else {
        let kernel_secs = mean(kernel.iter().copied());
        eprintln!(
            "speed kernel: {} passes, mean {:.3} ms (reference {:.3} ms); raw wall {:.3} s",
            kernel.len(),
            kernel_secs * 1e3,
            REFERENCE_KERNEL_SECS * 1e3,
            batch.iter().map(Instance::plain_wall).sum::<f64>()
        );
        end_to_end(
            &batch,
            ratio(REFERENCE_KERNEL_SECS, kernel_secs),
            &mut report,
        );
    }
    let attempted: usize = batch.iter().map(|i| i.plain.len() + i.traced.len()).sum();
    eprintln!(
        "{} seed {}: {} instances, {attempted} simulated runs",
        w.name(),
        args.seed,
        batch.len()
    );
    for m in &report.metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
