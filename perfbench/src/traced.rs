//! Traced runs of the simulation workloads: per-layer time and counts.
//!
//! The traced world is rebuilt here through `netsim`'s public API, node for
//! node and link for link as `Scenario::run` builds it, with every
//! `jqos-core` node wrapped in a [`Shim`] that times its handlers.  The
//! rebuilt world must reproduce the untraced run's outcome digest exactly;
//! that is checked on every traced run.
//!
//! `erasure` is not called directly by the benchmark during a simulation,
//! so its cost is estimated by replaying the batch shapes the run produced
//! (observed at DC2's and the receivers' boundaries) through `BatchCodec`.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use erasure::packets::BatchCodec;
use jqos_core::nodes::dc1::Dc1Node;
use jqos_core::nodes::dc2::{Dc2Config, Dc2Node};
use jqos_core::nodes::receiver::{ReceiverConfig, ReceiverNode};
use jqos_core::nodes::sender::SenderNode;
use jqos_core::nodes::source::ScheduleSource;
use jqos_core::nodes::FlowSpec;
use jqos_core::packet::{BatchId, FlowId, Msg, SeqNo};
use jqos_core::PacketOutcome;
use netsim::{Context, Dur, Node, NodeId, QueueKind, Simulator, TimerId};

use crate::report::RunReport;
use crate::rng::SplitMix;
use crate::sim::{self, SimKind, SimSize, World, WorldResult};
use crate::stats::ratio;

/// The node kinds whose handlers are timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layer {
    Dc1 = 0,
    Dc2 = 1,
    Sender = 2,
    Receiver = 3,
}

/// `(data shards, parity shards, shard length)` of one coded batch.
type Shape = (usize, usize, usize);

/// Per-layer accumulators shared by the shims of one traced world.
#[derive(Default)]
struct Tracer {
    /// Handler nanoseconds per [`Layer`].
    self_ns: [Cell<u64>; 4],
    /// Shapes of coded batches seen arriving at DC2, by batch.
    batches: RefCell<BTreeMap<u64, Shape>>,
    /// Shapes of batches decoded for a repair the receivers got.
    decodes: RefCell<Vec<Shape>>,
}

/// Times every handler of the wrapped node; delegates everything.
struct Shim<N> {
    inner: N,
    layer: Layer,
    tracer: Rc<Tracer>,
}

impl<N: Node<Msg>> Shim<N> {
    fn new(inner: N, layer: Layer, tracer: &Rc<Tracer>) -> Self {
        Shim {
            inner,
            layer,
            tracer: tracer.clone(),
        }
    }

    fn charge(&self, start: Instant) {
        let cell = &self.tracer.self_ns[self.layer as usize];
        cell.set(cell.get() + start.elapsed().as_nanos() as u64);
    }

    fn observe(&self, msg: &Msg) {
        match (self.layer, msg) {
            (Layer::Dc2, Msg::Coded(c)) => {
                self.tracer
                    .batches
                    .borrow_mut()
                    .entry(c.batch.0)
                    .or_insert((c.members.len(), c.parity_count, c.shard_len));
            }
            (
                Layer::Receiver,
                Msg::Recovered {
                    via_batch: Some(BatchId(b)),
                    ..
                },
            ) => {
                if let Some(shape) = self.tracer.batches.borrow().get(b) {
                    self.tracer.decodes.borrow_mut().push(*shape);
                }
            }
            _ => {}
        }
    }
}

impl<N: Node<Msg>> Node<Msg> for Shim<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.charge(t);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.observe(&msg);
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.charge(t);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: TimerId, tag: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, timer, tag);
        self.charge(t);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Per-layer numbers of one traced world.
#[derive(Clone, Debug, Default)]
pub struct WorldTrace {
    /// Events the engine processed.
    pub events: u64,
    /// Seconds inside `run_for`.
    pub run_s: f64,
    /// Handler seconds per layer: DC1, DC2, sender, receiver.
    pub self_s: [f64; 4],
    /// Shapes of every encoded batch.
    pub encodes: Vec<Shape>,
    /// Shapes of every decode that produced a repair.
    pub decodes: Vec<Shape>,
}

/// Builds and runs `world` the way `Scenario::run` does, with shims.
pub fn run_world_traced(world: &World) -> (WorldResult, WorldTrace) {
    let tracer = Rc::new(Tracer::default());
    let topo = world.topology();
    let n = world.flows.len();
    let mut simulator: Simulator<Msg> = Simulator::with_capacity_and_queue(
        world.seed,
        QueueKind::default(),
        2 + 2 * n,
        (64 * n).clamp(256, 8_192),
    );
    let sim = &mut simulator;
    let dc2_config = Dc2Config::default();
    let mut dc1_node = Dc1Node::new(world.coding);
    let mut dc2_node = Dc2Node::new(dc2_config);
    let dc1 = sim.add_node(Shim::new(Dc1Node::new(world.coding), Layer::Dc1, &tracer));
    let dc2 = sim.add_node(Shim::new(Dc2Node::new(dc2_config), Layer::Dc2, &tracer));
    let rtt = topo.rtt();
    let mut wiring = Vec::with_capacity(n);
    for (idx, plan) in world.flows.iter().enumerate() {
        let flow = FlowId(idx as u32);
        let mut receiver_node = ReceiverNode::new(ReceiverConfig::prototype(rtt));
        receiver_node.register_flow(flow, plan.service, dc2);
        let receiver = sim.add_node(Shim::new(receiver_node, Layer::Receiver, &tracer));
        let spec = FlowSpec::new(flow, plan.service, receiver, dc1, dc2);
        let source = Box::new(ScheduleSource::new(plan.schedule.clone()));
        let sender = sim.add_node(Shim::new(
            SenderNode::new(spec, source),
            Layer::Sender,
            &tracer,
        ));
        dc1_node.register_flow(flow, plan.service, dc2, receiver);
        dc2_node.register_flow(flow, plan.service, receiver);
        wiring.push((flow, sender, receiver));
    }
    *sim.node_as::<Dc1Node>(dc1) = dc1_node;
    *sim.node_as::<Dc2Node>(dc2) = dc2_node;
    sim.add_link(dc1, dc2, topo.dc1_dc2.clone());
    for ((_, sender, receiver), plan) in wiring.iter().zip(&world.flows) {
        sim.add_link(*sender, *receiver, plan.link());
        sim.add_link(*sender, dc1, topo.sender_dc1.clone());
        sim.add_link(*receiver, dc2, topo.receiver_dc2.clone());
    }

    let t = Instant::now();
    sim.run_for(world.duration);
    sim.run_for(rtt * 4 + Dur::from_millis(500));
    let run_s = t.elapsed().as_secs_f64();

    let mut flows = Vec::with_capacity(n);
    let (mut nacks, mut recovery_delays) = (0, 0);
    for (flow, sender, receiver) in &wiring {
        let sent_log = sim.node_as::<SenderNode>(*sender).sent_log().to_vec();
        let r = sim.node_as::<ReceiverNode>(*receiver);
        let mut first: BTreeMap<SeqNo, _> = BTreeMap::new();
        for (seq, record) in r.deliveries(*flow) {
            first.entry(seq).or_insert(record);
        }
        nacks += r.flow_stats(*flow).unwrap_or_default().nacks_sent;
        recovery_delays += r.recovery_delays(*flow).len() as u64;
        flows.push(
            sent_log
                .iter()
                .map(|(seq, sent_at, size)| {
                    let d = first.get(seq);
                    PacketOutcome {
                        seq: *seq,
                        sent_at: *sent_at,
                        size: *size,
                        delivered_at: d.map(|d| d.delivered_at),
                        method: d.map(|d| d.method),
                    }
                })
                .collect(),
        );
    }
    let result = WorldResult {
        flows,
        dc1: sim.node_as::<Dc1Node>(dc1).stats(),
        dc2: sim.node_as::<Dc2Node>(dc2).stats(),
        encoder: sim.node_as::<Dc1Node>(dc1).encoder_stats(),
        nacks,
        recovery_delays,
    };
    let trace = WorldTrace {
        events: sim.stats().events_processed,
        run_s,
        self_s: std::array::from_fn(|i| tracer.self_ns[i].get() as f64 * 1e-9),
        encodes: tracer.batches.borrow().values().copied().collect(),
        decodes: tracer.decodes.borrow().clone(),
    };
    (result, trace)
}

/// Measured `erasure` cost of a set of batch shapes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecCost {
    /// Calls the workload made.
    pub calls: u64,
    /// Data MB per second of codec time in the replay.
    pub mb_s: f64,
    /// Seconds per call in the replay.
    pub s_per_call: f64,
}

/// Most shapes replayed per direction; larger sets are sampled evenly.
const REPLAY_SAMPLE: usize = 4_000;

fn sample(shapes: &[Shape]) -> Vec<Shape> {
    let step = shapes.len().div_ceil(REPLAY_SAMPLE).max(1);
    shapes.iter().step_by(step).copied().collect()
}

fn payloads(rng: &mut SplitMix, k: usize, shard_len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| {
            (0..shard_len.saturating_sub(2))
                .map(|_| rng.next_u64() as u8)
                .collect()
        })
        .collect()
}

/// Replays encode shapes through `BatchCodec::encode_batch`.
pub fn replay_encodes(shapes: &[Shape]) -> CodecCost {
    let mut codec = BatchCodec::new();
    let mut rng = SplitMix::new(1, 0xE0);
    let (mut secs, mut bytes, mut calls) = (0.0, 0.0, 0usize);
    for (k, m, len) in sample(shapes) {
        let data = payloads(&mut rng, k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let t = Instant::now();
        let out = codec.encode_batch(&refs, m);
        secs += t.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        bytes += (k * len) as f64;
        calls += 1;
    }
    CodecCost {
        calls: shapes.len() as u64,
        mb_s: ratio(bytes / 1e6, secs),
        s_per_call: ratio(secs, calls as f64),
    }
}

/// Replays decode shapes through `BatchCodec::decode_batch`, each with its
/// first data shard missing and all parity present.
pub fn replay_decodes(shapes: &[Shape]) -> CodecCost {
    let mut codec = BatchCodec::new();
    let mut rng = SplitMix::new(1, 0xD0);
    let (mut secs, mut bytes, mut calls) = (0.0, 0.0, 0usize);
    for (k, m, len) in sample(shapes) {
        let data = payloads(&mut rng, k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let Ok(coded) = codec.encode_batch(&refs, m) else {
            continue;
        };
        let parity: Vec<Vec<u8>> = coded.parity.iter().map(|p| p.to_vec()).collect();
        let have_data: Vec<(usize, &[u8])> = refs.iter().copied().enumerate().skip(1).collect();
        let have_parity: Vec<(usize, &[u8])> = parity
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.as_slice()))
            .collect();
        let t = Instant::now();
        let out = codec.decode_batch(k, coded.shard_len, &have_data, &have_parity);
        secs += t.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        bytes += (k * len) as f64;
        calls += 1;
    }
    CodecCost {
        calls: shapes.len() as u64,
        mb_s: ratio(bytes / 1e6, secs),
        s_per_call: ratio(secs, calls as f64),
    }
}

/// Reports the `erasure` per-layer metrics from two replays.
pub fn erasure_metrics(report: &mut RunReport, enc: CodecCost, dec: CodecCost) {
    report.metric("erasure.encode_mb_s", enc.mb_s, "MB/s");
    report.metric("erasure.decode_mb_s", dec.mb_s, "MB/s");
    report.metric("erasure.encode_calls", enc.calls as f64, "count");
    report.metric("erasure.decode_calls", dec.calls as f64, "count");
    report.metric(
        "erasure.est_s",
        enc.calls as f64 * enc.s_per_call + dec.calls as f64 * dec.s_per_call,
        "s",
    );
}

/// Names of the per-layer metrics only the relay workload produces; the
/// simulations report them as 0.
pub const RELAY_ONLY: [(&str, &str); 13] = [
    ("jqos-net.admission.register_ms", "ms"),
    ("jqos-net.wire.encode_ns", "ns"),
    ("jqos-net.wire.decode_ns", "ns"),
    ("jqos-net.relay.cpu_us_per_dgram", "us"),
    ("jqos-net.relay.dgrams_per_wakeup", "dgrams"),
    ("jqos-net.relay.recv_syscalls_per_dgram", "calls/dgram"),
    ("jqos-net.relay.queue_highwater", "dgrams"),
    ("jqos-net.relay.repair_ms_p50", "ms"),
    ("jqos-net.relay.recovery_misses", "count"),
    ("jqos-net.relay.coding_resyncs", "count"),
    ("jqos-net.relay.shed", "count"),
    ("jqos-net.kernel_drops", "count"),
    ("jqos-net.relay.fwd_latency_p99_ms", "ms"),
];

/// Names of the per-layer metrics only the simulations produce; the relay
/// workload reports them as 0.
pub const SIM_ONLY: [(&str, &str); 13] = [
    ("netsim.events", "count"),
    ("netsim.self_s", "s"),
    ("netsim.events_per_s", "events/s"),
    ("jqos-core.dc1.self_s", "s"),
    ("jqos-core.dc1.data_per_batch", "packets"),
    ("jqos-core.dc1.coded_per_data", "packets/packet"),
    ("jqos-core.dc2.self_s", "s"),
    ("jqos-core.dc2.repairs", "count"),
    ("jqos-core.dc2.repair_yield", "ratio"),
    ("jqos-core.dc2.coop_failed", "count"),
    ("jqos-core.sender.self_s", "s"),
    ("jqos-core.receiver.self_s", "s"),
    ("jqos-core.receiver.nacks", "count"),
];

/// The traced run of a simulation workload: one untraced round for the
/// reference digests and wall time, then one traced round.
pub fn run_traced(kind: SimKind, seed: u64, size: SimSize) -> (RunReport, f64, f64) {
    let mut report = RunReport::default();
    let worlds = sim::worlds(kind, seed, size);

    let t = Instant::now();
    let digests: Vec<u64> = worlds.iter().map(|w| sim::run_world(w).digest()).collect();
    let untraced_s = t.elapsed().as_secs_f64();

    let mut total = WorldTrace::default();
    let (mut repairs, mut first_copy, mut coop_failed, mut nacks, mut delays) = (0, 0, 0, 0, 0);
    let (mut batches, mut coded, mut data_packets, mut decoded) = (0u64, 0u64, 0u64, 0u64);
    let mut mismatches = 0u64;
    let t = Instant::now();
    for (i, world) in worlds.iter().enumerate() {
        let (result, trace) = run_world_traced(world);
        report.attempted += 1;
        let ok = sim::check_world(world, &result);
        if result.digest() != digests[i] {
            mismatches += 1;
        }
        if ok.is_err() {
            report.failed += 1;
        }
        report.check(ok);
        total.events += trace.events;
        total.run_s += trace.run_s;
        for l in 0..4 {
            total.self_s[l] += trace.self_s[l];
        }
        total.encodes.extend(trace.encodes);
        total.decodes.extend(trace.decodes);
        repairs += result.repairs();
        first_copy += result.first_copy_repairs();
        coop_failed += result.dc2.coop_failed;
        nacks += result.nacks;
        delays += result.recovery_delays;
        batches += result.encoder.batches;
        decoded += result.dc2.coop_recovered;
        coded += result.encoder.coded_packets;
        data_packets += result.encoder.data_bytes / world.payload as u64;
    }
    let traced_s = t.elapsed().as_secs_f64();

    let handlers: f64 = total.self_s.iter().sum();
    report.metric("netsim.events", total.events as f64, "count");
    report.metric("netsim.self_s", total.run_s - handlers, "s");
    report.metric(
        "netsim.events_per_s",
        ratio(total.events as f64, total.run_s),
        "events/s",
    );
    report.metric(
        "jqos-core.dc1.self_s",
        total.self_s[Layer::Dc1 as usize],
        "s",
    );
    report.metric(
        "jqos-core.dc1.data_per_batch",
        ratio(data_packets as f64, batches as f64),
        "packets",
    );
    report.metric(
        "jqos-core.dc1.coded_per_data",
        ratio(coded as f64, data_packets as f64),
        "packets/packet",
    );
    report.metric(
        "jqos-core.dc2.self_s",
        total.self_s[Layer::Dc2 as usize],
        "s",
    );
    report.metric("jqos-core.dc2.repairs", repairs as f64, "count");
    report.metric(
        "jqos-core.dc2.repair_yield",
        ratio(first_copy as f64, repairs as f64),
        "ratio",
    );
    report.metric("jqos-core.dc2.coop_failed", coop_failed as f64, "count");
    report.metric(
        "jqos-core.sender.self_s",
        total.self_s[Layer::Sender as usize],
        "s",
    );
    report.metric(
        "jqos-core.receiver.self_s",
        total.self_s[Layer::Receiver as usize],
        "s",
    );
    report.metric("jqos-core.receiver.nacks", nacks as f64, "count");
    report.metric(
        "jqos-core.receiver.recovery_delays_recorded",
        delays as f64,
        "count",
    );
    // Every encoded batch is one `encode_batch` call; every cooperative
    // recovery DC2 served is one successful `decode_batch` call.
    let enc = CodecCost {
        calls: batches,
        ..replay_encodes(&total.encodes)
    };
    let dec = CodecCost {
        calls: decoded,
        ..replay_decodes(&total.decodes)
    };
    erasure_metrics(&mut report, enc, dec);
    for (name, unit) in RELAY_ONLY {
        report.metric(name, 0.0, unit);
    }
    report.metric("bench.generator_late_ms_p99", 0.0, "ms");
    report.metric("bench.replay_mismatches", mismatches as f64, "count");
    (report, untraced_s, traced_s)
}
