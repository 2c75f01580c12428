//! The per-layer cost ledger, measured from outside the protocol.
//!
//! [`Timed`] wraps one [`BulletNode`] and forwards every agent callback to
//! it, timing each one. The simulator only records an agent's sends into
//! its `Context` while the callback runs and performs them afterwards, so
//! the time spent inside a callback is the Bullet handler's self time:
//! RanSub, content reconciliation and TFRC work done on behalf of the
//! handler included, netsim dispatch and routing excluded.
//!
//! `run_metered_*` consume the simulator, so the wrappers write into a
//! [`Ledger`] shared through an `Rc` that the benchmark keeps.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bullet_suite::bullet::{BulletMsg, BulletNode};
use bullet_suite::dynamics::ScenarioAgent;
use bullet_suite::experiments::{Delivery, MeteredAgent};
use bullet_suite::netsim::{Agent, Context, FaultPlan, OverlayId};

/// Metric-name stems of the `BulletMsg` variants, indexed by [`msg_kind`].
pub const MSG_KINDS: [&str; 15] = [
    "data",
    "feedback",
    "ransub",
    "peering_request",
    "peering_accept",
    "peering_reject",
    "peering_deferred",
    "filter_refresh",
    "receiver_report",
    "peer_drop",
    "leave",
    "reparent",
    "reattach",
    "reattach_accept",
    "reattach_reject",
];

/// Metric-name stems of the node's timer kinds. The low byte of a Bullet
/// timer tag is its kind (1-based); the high bits carry a generation.
pub const TIMER_KINDS: [&str; 9] = [
    "generate",
    "ransub_epoch",
    "peer_service",
    "filter_refresh",
    "mesh_eval",
    "housekeeping",
    "orphan",
    "retry",
    "defer_retry",
];

const PEERING_REQUEST: usize = 3;
const PEERING_ACCEPT: usize = 4;

fn msg_kind(msg: &BulletMsg) -> usize {
    match msg {
        BulletMsg::Data { .. } => 0,
        BulletMsg::Feedback(_) => 1,
        BulletMsg::RanSub(_) => 2,
        BulletMsg::PeeringRequest { .. } => PEERING_REQUEST,
        BulletMsg::PeeringAccept => PEERING_ACCEPT,
        BulletMsg::PeeringReject => 5,
        BulletMsg::PeeringDeferred { .. } => 6,
        BulletMsg::FilterRefresh { .. } => 7,
        BulletMsg::ReceiverReport { .. } => 8,
        BulletMsg::PeerDrop => 9,
        BulletMsg::Leave { .. } => 10,
        BulletMsg::Reparent { .. } => 11,
        BulletMsg::Reattach => 12,
        BulletMsg::ReattachAccept => 13,
        BulletMsg::ReattachReject => 14,
    }
}

/// Calls and summed wall seconds at one callback boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slot {
    /// Callbacks made (deterministic for a fixed workload and seed).
    pub calls: u64,
    /// Wall seconds spent inside them.
    pub secs: f64,
}

/// Callback time of one traced run, by message variant and timer kind.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// One slot per entry of [`MSG_KINDS`].
    pub msgs: [Slot; MSG_KINDS.len()],
    /// One slot per entry of [`TIMER_KINDS`]; tags outside it panic.
    pub timers: [Slot; TIMER_KINDS.len()],
    /// `on_start` and the scenario lifecycle hooks.
    pub lifecycle: Slot,
}

impl Ledger {
    /// Every callback slot.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.msgs
            .iter()
            .chain(&self.timers)
            .chain(std::iter::once(&self.lifecycle))
    }

    /// Callbacks of every kind.
    pub fn callbacks(&self) -> u64 {
        self.slots().map(|s| s.calls).sum()
    }

    /// Handler self time: wall seconds inside any callback.
    pub fn self_secs(&self) -> f64 {
        self.slots().map(|s| s.secs).sum()
    }

    /// Peering requests received, the attempts behind `accepts`.
    pub fn peering_requests(&self) -> u64 {
        self.msgs[PEERING_REQUEST].calls
    }

    /// Peering accepts received.
    pub fn peering_accepts(&self) -> u64 {
        self.msgs[PEERING_ACCEPT].calls
    }

    /// The deterministic half of the ledger, for comparing runs.
    pub fn call_counts(&self) -> Vec<u64> {
        self.slots().map(|s| s.calls).collect()
    }
}

/// A [`BulletNode`] whose callbacks are timed into a shared [`Ledger`].
pub struct Timed {
    node: BulletNode,
    ledger: Rc<RefCell<Ledger>>,
}

impl Timed {
    /// Wraps `node`, recording into `ledger`.
    pub fn new(node: BulletNode, ledger: Rc<RefCell<Ledger>>) -> Self {
        Timed { node, ledger }
    }

    fn record<R>(
        &mut self,
        slot: impl FnOnce(&mut Ledger) -> &mut Slot,
        call: impl FnOnce(&mut BulletNode) -> R,
    ) -> R {
        let started = Instant::now();
        let out = call(&mut self.node);
        let secs = started.elapsed().as_secs_f64();
        let mut ledger = self.ledger.borrow_mut();
        let slot = slot(&mut ledger);
        slot.calls += 1;
        slot.secs += secs;
        out
    }
}

impl Agent for Timed {
    type Msg = BulletMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BulletMsg>) {
        self.record(|l| &mut l.lifecycle, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BulletMsg>, from: OverlayId, msg: BulletMsg) {
        let kind = msg_kind(&msg);
        self.record(|l| &mut l.msgs[kind], |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BulletMsg>, tag: u64) {
        let kind = (tag & 0xff) as usize;
        assert!(
            (1..=TIMER_KINDS.len()).contains(&kind),
            "unknown Bullet timer kind {kind}"
        );
        self.record(|l| &mut l.timers[kind - 1], |n| n.on_timer(ctx, tag));
    }

    fn tamper(msg: BulletMsg) -> BulletMsg {
        BulletNode::tamper(msg)
    }
}

impl MeteredAgent for Timed {
    fn delivery(&self) -> Delivery {
        self.node.delivery()
    }
}

impl ScenarioAgent for Timed {
    fn on_graceful_leave(&mut self, ctx: &mut Context<'_, BulletMsg>) {
        self.record(|l| &mut l.lifecycle, |n| n.on_graceful_leave(ctx));
    }

    fn on_join(&mut self, ctx: &mut Context<'_, BulletMsg>) {
        self.record(|l| &mut l.lifecycle, |n| n.on_join(ctx));
    }

    fn on_adversary(&mut self, ctx: &mut Context<'_, BulletMsg>, plan: FaultPlan) {
        self.record(|l| &mut l.lifecycle, |n| n.on_adversary(ctx, plan));
    }

    fn on_slow_node(&mut self, ctx: &mut Context<'_, BulletMsg>, factor: f64) {
        self.record(|l| &mut l.lifecycle, |n| n.on_slow_node(ctx, factor));
    }
}
