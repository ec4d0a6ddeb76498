//! The `relay-paced` workload: the live relay on loopback, driven open-loop.
//!
//! One generator thread (this crate's code on `std::net::UdpSocket`, using
//! only `WireMsg` and `BatchCodec::decode_batch` from the program) plays
//! sender and receiver of every flow.  Each flow sends one 64-byte packet
//! per interval at a fixed phase; the schedule does not depend on how fast
//! the relay answers, and every packet is timed from its *due* time.
//!
//! * Forwarding flows send only to the relay, which forwards every packet.
//! * Caching and coding flows also send a "direct path" copy to the
//!   generator's own socket, except for a deterministic set of dropped
//!   packets that the relay must repair: caching holes are NACKed as soon
//!   as a later packet shows the gap; coding holes once the relay holds the
//!   whole batch, and the parity shards it returns are decoded here.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant, SystemTime};

use erasure::packets::BatchCodec;
use jqos_core::select::ServiceKind;
use jqos_net::wire::{service_from_wire, RejectReason, WireMsg};
use jqos_net::{Relay, RelayConfig, RelayMetrics, ShardSnapshot};

use crate::host;
use crate::report::RunReport;
use crate::rng::SplitMix;
use crate::rxstamp;
use crate::stats::{quantile, ratio};
use crate::traced::{self, CodecCost};

/// Payload bytes of every packet: the smallest size, where per-packet cost
/// dominates.
pub const PAYLOAD: usize = 64;

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct RelaySize {
    /// Flows per service (forwarding, caching, coding).
    pub flows_per_service: usize,
    /// Registrations with a budget nothing can meet.
    pub infeasible: usize,
    /// Per-flow packet interval.
    pub interval: Duration,
    /// How long the generator keeps receiving after its last send.
    pub drain: Duration,
    /// Relay set-ups measured for `setup_s` (the last one is used).
    pub setups: usize,
}

impl RelaySize {
    /// The measured size: 300 flows at 25 packets/s each.
    pub const FULL: RelaySize = RelaySize {
        flows_per_service: 100,
        infeasible: 6,
        interval: Duration::from_millis(40),
        drain: Duration::from_millis(500),
        setups: 3,
    };
    /// A size for the benchmark's own tests.
    pub const QUICK: RelaySize = RelaySize {
        flows_per_service: 8,
        infeasible: 2,
        interval: Duration::from_millis(40),
        drain: Duration::from_millis(300),
        setups: 1,
    };
}

/// The relay's delay model, restated: `y = 75`, `δs = δr = 10`, `x = 70` ms.
const Y_MS: u32 = 75;
const DS_MS: u32 = 10;
const X_MS: u32 = 70;
const DR_MS: u32 = 10;

/// The service the §6.1 delay model assigns to `budget_ms`, derived by hand
/// from the relay's delays: forwarding needs `δs + x + δr`; caching
/// `y + 2δr + Δ`; coding `y + 4δr + Δ`, where the cloud-copy wait `Δ` is
/// `max(0, δs + x − y − δr)`.  The cheapest that fits wins; `None` means
/// even forwarding misses the budget and admission must refuse.
pub fn expected_service(budget_ms: u32) -> Option<ServiceKind> {
    let wait = (DS_MS + X_MS).saturating_sub(Y_MS + DR_MS);
    if budget_ms >= Y_MS + 4 * DR_MS + wait {
        Some(ServiceKind::Coding)
    } else if budget_ms >= Y_MS + 2 * DR_MS + wait {
        Some(ServiceKind::Caching)
    } else if budget_ms >= DS_MS + X_MS + DR_MS {
        Some(ServiceKind::Forwarding)
    } else {
        None
    }
}

/// An admission verdict agrees with [`expected_service`]: the derived
/// service was granted, or the flow was refused with `BudgetInfeasible`
/// when no service fits.
pub fn check_verdict(
    budget_ms: u32,
    service: Option<ServiceKind>,
    rejected: Option<RejectReason>,
) -> Result<(), String> {
    let want = expected_service(budget_ms);
    match (want, service, rejected) {
        (Some(w), Some(got), None) if w == got => Ok(()),
        (None, None, Some(RejectReason::BudgetInfeasible)) => Ok(()),
        _ => Err(format!(
            "budget {budget_ms} ms got {service:?}/{rejected:?}; the delay model gives {want:?}"
        )),
    }
}

/// A delivered payload is byte-identical to the one built for `(flow, seq)`.
pub fn check_payload(seed: u64, flow: u32, seq: u64, bytes: &[u8]) -> Result<(), String> {
    if bytes == payload_for(seed, flow, seq) {
        Ok(())
    } else {
        Err(format!(
            "flow {flow} seq {seq}: delivered bytes differ from those sent"
        ))
    }
}

/// The payload the generator builds for `(flow, seq)`.
pub fn payload_for(seed: u64, flow: u32, seq: u64) -> [u8; PAYLOAD] {
    let mut rng = SplitMix::new(seed ^ (u64::from(flow) << 32), seq);
    let mut out = [0u8; PAYLOAD];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Flow phases sit on a 1 ms grid, so the generator wakes once per slot
/// and sends that slot's packets together, instead of waking for every
/// packet: its CPU cost per packet then does not depend on how promptly a
/// shared host wakes it.
pub const PHASE_SLOT: Duration = Duration::from_millis(1);

/// One flow as planned from the seed.
#[derive(Clone, Copy, Debug)]
pub struct FlowPlan {
    /// Flow id.
    pub id: u32,
    /// Registered budget.
    pub budget_ms: u32,
    /// Offset of the flow's first packet within the interval.
    pub phase: Duration,
    /// Every `drop_every`-th direct copy is dropped (0 = none).
    pub drop_every: u64,
    /// Offset of the drop pattern.
    pub drop_phase: u64,
}

impl FlowPlan {
    /// Whether the direct copy of `seq` is dropped.  The last packet of a
    /// flow always arrives, so every hole is followed by an arrival.
    pub fn drops(&self, seq: u64, count: u64) -> bool {
        self.drop_every > 0
            && seq + 1 < count
            && (seq + self.drop_phase).is_multiple_of(self.drop_every)
    }
}

/// Plans every flow (feasible first, then infeasible) from the seed.
pub fn plan_flows(seed: u64, size: RelaySize) -> Vec<FlowPlan> {
    let mut rng = SplitMix::new(seed, 0x300);
    let n = 3 * size.flows_per_service + size.infeasible;
    let mut ids: Vec<u32> = Vec::with_capacity(n);
    while ids.len() < n {
        let id = (rng.next_u64() >> 40) as u32 + 1;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let slots = (size.interval.as_micros() / PHASE_SLOT.as_micros()) as u64;
    ids.into_iter()
        .enumerate()
        .map(|(i, id)| {
            let budget_ms = match (i / size.flows_per_service.max(1), i) {
                (_, i) if i >= 3 * size.flows_per_service => rng.range_u64(40, 89),
                (0, _) => rng.range_u64(90, 94),
                (1, _) => rng.range_u64(95, 114),
                _ => rng.range_u64(115, 250),
            } as u32;
            FlowPlan {
                id,
                budget_ms,
                phase: PHASE_SLOT * rng.range_u64(0, slots - 1) as u32,
                drop_every: rng.range_u64(10, 16),
                drop_phase: rng.range_u64(0, 15),
            }
        })
        .collect()
}

/// Aggregated spans of one name: count and total nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Spans recorded.
    pub count: u64,
    /// Their total duration.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, start: Option<Instant>) {
        if let Some(t) = start {
            self.count += 1;
            self.ns += t.elapsed().as_nanos() as u64;
        }
    }

    fn mean_ns(&self) -> f64 {
        ratio(self.ns as f64, self.count as f64)
    }
}

/// The generator's spans, kept in memory and written out at the end of a
/// traced run.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// `WireMsg::encode_into` calls.
    pub wire_encode: Span,
    /// `WireMsg::decode` calls.
    pub wire_decode: Span,
    /// Socket sends.
    pub socket_send: Span,
    /// Receive batches (one drain of the socket).
    pub socket_recv_batch: Span,
    /// `BatchCodec::decode_batch` calls.
    pub decode_batch: Span,
    /// Data bytes (k × shard length) fed to `decode_batch`.
    pub decode_bytes: u64,
    /// Registrations (register sent → verdict received).
    pub register: Span,
}

impl Spans {
    /// The spans as a JSON object.
    pub fn to_json(&self) -> String {
        let one = |name: &str, s: &Span| {
            format!("\"{name}\": {{\"count\": {}, \"ns\": {}}}", s.count, s.ns)
        };
        format!(
            "{{{}, {}, {}, {}, {}, {}}}",
            one("wire.encode", &self.wire_encode),
            one("wire.decode", &self.wire_decode),
            one("socket.send", &self.socket_send),
            one("socket.recv_batch", &self.socket_recv_batch),
            one("erasure.decode_batch", &self.decode_batch),
            one("admission.register", &self.register),
        )
    }
}

/// Shards of one coding batch held for repair: data by index, parity by
/// index.
type BatchBuf = (Vec<Option<Vec<u8>>>, Vec<Option<Vec<u8>>>);

/// Per-flow generator state.
struct Flow {
    plan: FlowPlan,
    service: Option<ServiceKind>,
    rejected: Option<RejectReason>,
    shard: Option<SocketAddr>,
    k: u64,
    m: usize,
    delivered: Vec<bool>,
    max_seen: Option<u64>,
    /// Holes: seq → (first NACK, last NACK, NACKs sent).
    holes: BTreeMap<u64, Option<(Instant, Instant, u32)>>,
    /// Coding batches being repaired, by first seq.
    batches: BTreeMap<u64, BatchBuf>,
}

/// Everything measured in one timed phase.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Packets sent, per flow (admitted flows only).
    pub sent: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets never delivered.
    pub failed: u64,
    /// Of the failed, direct-path holes the relay never repaired.
    pub failed_holes: u64,
    /// Forwarding latencies from due time, ms, with the one-second window
    /// of the schedule each packet was due in.
    pub fwd_ms: Vec<(u64, f64)>,
    /// Latencies of repaired holes from due time, ms.
    pub recovery_ms: Vec<f64>,
    /// NACK sent → repair complete, ms.
    pub repair_ms: Vec<f64>,
    /// How late each send was, ms.
    pub late_ms: Vec<f64>,
    /// NACKs sent, retries included.
    pub nacks: u64,
    /// Bytes the relay sent to the generator.
    pub relay_bytes: u64,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
}

/// The generator and the relay it drives.
pub struct Generator {
    seed: u64,
    size: RelaySize,
    socket: UdpSocket,
    self_addr: SocketAddr,
    flows: Vec<Flow>,
    by_id: std::collections::HashMap<u32, usize>,
    codec: BatchCodec,
    buf: Vec<u8>,
    out: Vec<u8>,
    trace: bool,
    /// The same moment on the monotonic and the wall clock, to place kernel
    /// arrival stamps (wall clock) on the schedule (monotonic).
    anchor: (Instant, SystemTime),
    /// Spans recorded when tracing.
    pub spans: Spans,
    errors: Vec<String>,
}

const NACK_RETRY: Duration = Duration::from_millis(30);
const NACK_MAX: u32 = 6;

impl Generator {
    /// A generator for the seed's flows on a fresh loopback socket.
    pub fn new(seed: u64, size: RelaySize, trace: bool) -> io::Result<Generator> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        rxstamp::enable(&socket)?;
        let self_addr = socket.local_addr()?;
        Ok(Generator {
            seed,
            size,
            socket,
            self_addr,
            flows: Vec::new(),
            by_id: std::collections::HashMap::new(),
            codec: BatchCodec::new(),
            buf: vec![0u8; 65_536],
            out: Vec::with_capacity(256),
            trace,
            anchor: (Instant::now(), SystemTime::now()),
            spans: Spans::default(),
            errors: Vec::new(),
        })
    }

    /// The generator socket's port.
    pub fn port(&self) -> u16 {
        self.self_addr.port()
    }

    fn now_if_traced(&self) -> Option<Instant> {
        self.trace.then(Instant::now)
    }

    fn encode(&mut self, msg: &WireMsg) {
        let t = self.now_if_traced();
        msg.encode_into(&mut self.out);
        self.spans.wire_encode.add(t);
    }

    fn send(&mut self, to: SocketAddr) -> bool {
        let t = self.now_if_traced();
        let ok = self.socket.send_to(&self.out, to).is_ok();
        self.spans.socket_send.add(t);
        ok
    }

    /// Registers every planned flow, one at a time, against `control`.
    pub fn register_all(&mut self, control: SocketAddr) -> io::Result<()> {
        self.flows = plan_flows(self.seed, self.size)
            .into_iter()
            .map(|plan| Flow {
                plan,
                service: None,
                rejected: None,
                shard: None,
                k: 0,
                m: 0,
                delivered: Vec::new(),
                max_seen: None,
                holes: BTreeMap::new(),
                batches: BTreeMap::new(),
            })
            .collect();
        self.by_id = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| (f.plan.id, i))
            .collect();
        for i in 0..self.flows.len() {
            let start = Instant::now();
            let plan = self.flows[i].plan;
            let mut attempts = 0;
            while self.flows[i].service.is_none() && self.flows[i].rejected.is_none() {
                if attempts == 50 {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("flow {} got no admission verdict", plan.id),
                    ));
                }
                attempts += 1;
                self.encode(&WireMsg::Register {
                    flow: plan.id,
                    budget_ms: plan.budget_ms,
                    loss_tolerant: false,
                });
                self.send(control);
                let wait = Instant::now() + Duration::from_millis(100);
                while Instant::now() < wait
                    && self.flows[i].service.is_none()
                    && self.flows[i].rejected.is_none()
                {
                    if self.poll(None, &mut Outcome::default())? == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
            if self.trace {
                self.spans.register.add(Some(start));
            }
        }
        Ok(())
    }

    /// Checks every admission verdict against the hand-derived service,
    /// and the relay's flow table against the verdicts.
    pub fn check_admission(&self, relay: &RelayMetrics) -> Result<(), String> {
        for f in &self.flows {
            check_verdict(f.plan.budget_ms, f.service, f.rejected)
                .map_err(|e| format!("flow {}: {e}", f.plan.id))?;
            let listed = relay.flows.iter().find(|i| i.flow == f.plan.id);
            if listed.map(|i| i.service) != f.service {
                return Err(format!(
                    "flow {}: relay lists {:?}, generator was told {:?}",
                    f.plan.id,
                    listed.map(|i| i.service),
                    f.service
                ));
            }
        }
        Ok(())
    }

    /// Packets each admitted flow sends in a phase of `seconds`: a whole
    /// number of coding batches.
    fn per_flow(&self, seconds: f64) -> u64 {
        let k = self.flows.iter().map(|f| f.k).max().unwrap_or(1).max(1);
        let n = (seconds / self.size.interval.as_secs_f64()) as u64;
        (n / k).max(1) * k
    }

    /// Runs the open-loop phase for about `seconds`, then drains.
    pub fn run(&mut self, seconds: f64) -> io::Result<Outcome> {
        let count = self.per_flow(seconds);
        let mut order: Vec<usize> = (0..self.flows.len())
            .filter(|&i| self.flows[i].service.is_some())
            .collect();
        order.sort_by_key(|&i| (self.flows[i].plan.phase, self.flows[i].plan.id));
        for &i in &order {
            self.flows[i].delivered = vec![false; count as usize];
        }
        let total = count * order.len() as u64;
        let interval = self.size.interval;
        let mut out = Outcome {
            sent: total,
            ..Outcome::default()
        };
        self.anchor = (Instant::now(), SystemTime::now());
        let t0 = Instant::now() + Duration::from_millis(10);
        let due = |g: u64, flows: &[Flow]| -> Instant {
            let i = order[(g % order.len() as u64) as usize];
            t0 + flows[i].plan.phase + interval * (g / order.len() as u64) as u32
        };
        let mut next = 0u64;
        let mut drain_end: Option<Instant> = None;
        loop {
            let now = Instant::now();
            while next < total && due(next, &self.flows) <= now {
                let i = order[(next % order.len() as u64) as usize];
                let seq = next / order.len() as u64;
                out.late_ms
                    .push(now.duration_since(due(next, &self.flows)).as_secs_f64() * 1e3);
                self.send_packet(i, seq, count);
                next += 1;
            }
            self.poll(Some(t0), &mut out)?;
            self.retry_nacks(&mut out);
            if next >= total {
                let end = *drain_end.get_or_insert(Instant::now() + self.size.drain);
                if Instant::now() >= end {
                    break;
                }
                std::thread::sleep(PHASE_SLOT);
            } else {
                // Arrivals carry kernel stamps, so sleeping until the next
                // slot delays no measurement.
                let wait = due(next, &self.flows).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        for &i in &order {
            let f = &self.flows[i];
            for (seq, d) in f.delivered.iter().enumerate() {
                if *d {
                    out.delivered += 1;
                    continue;
                }
                out.failed += 1;
                if f.service != Some(ServiceKind::Forwarding) && f.plan.drops(seq as u64, count) {
                    out.failed_holes += 1;
                }
            }
        }
        Ok(out)
    }

    fn send_packet(&mut self, i: usize, seq: u64, count: u64) {
        let f = &self.flows[i];
        let (id, service, shard) = (f.plan.id, f.service, f.shard.expect("admitted"));
        let drop_direct = f.plan.drops(seq, count);
        self.encode(&WireMsg::Data {
            flow: id,
            seq,
            payload: payload_for(self.seed, id, seq).to_vec(),
        });
        if service != Some(ServiceKind::Forwarding) && !drop_direct {
            self.send(self.self_addr);
        }
        self.send(shard);
    }

    /// Drains the socket and handles every datagram; returns how many.
    fn poll(&mut self, timed: Option<Instant>, out: &mut Outcome) -> io::Result<usize> {
        let t = self.now_if_traced();
        let mut handled = 0;
        while handled < 4096 {
            let (len, from, stamp) = match rxstamp::recv(&self.socket, &mut self.buf) {
                Ok(hit) => hit,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            };
            handled += 1;
            let td = self.now_if_traced();
            let msg = WireMsg::decode(&self.buf[..len]);
            self.spans.wire_decode.add(td);
            let Some(msg) = msg else {
                self.errors.push("malformed datagram from the relay".into());
                continue;
            };
            if from != self.self_addr {
                out.relay_bytes += len as u64;
            }
            let at = self.arrival(stamp);
            self.dispatch(msg, timed, at, out);
        }
        if handled > 0 {
            self.spans.socket_recv_batch.add(t);
        }
        Ok(handled)
    }

    /// The kernel's arrival stamp on the monotonic clock (now, if the
    /// kernel attached none).
    fn arrival(&self, stamp: Option<SystemTime>) -> Instant {
        let (mono, wall) = self.anchor;
        match stamp.map(|s| s.duration_since(wall)) {
            Some(Ok(after)) => mono + after,
            Some(Err(before)) => mono.checked_sub(before.duration()).unwrap_or(mono),
            None => Instant::now(),
        }
    }

    fn index(&self, flow: u32) -> Option<usize> {
        self.by_id.get(&flow).copied()
    }

    fn dispatch(&mut self, msg: WireMsg, timed: Option<Instant>, at: Instant, out: &mut Outcome) {
        match msg {
            WireMsg::RegisterAck {
                flow,
                service,
                port,
                coding_k,
                coding_m,
                ..
            } => {
                if let Some(i) = self.index(flow) {
                    let f = &mut self.flows[i];
                    f.service = service_from_wire(service);
                    f.shard = Some(SocketAddr::new(self.self_addr.ip(), port));
                    f.k = u64::from(coding_k);
                    f.m = usize::from(coding_m);
                }
            }
            WireMsg::RegisterNack { flow, reason } => {
                if let Some(i) = self.index(flow) {
                    self.flows[i].rejected = RejectReason::from_u8(reason);
                }
            }
            WireMsg::Data { flow, seq, payload } | WireMsg::Recovered { flow, seq, payload } => {
                if let (Some(i), Some(t0)) = (self.index(flow), timed) {
                    self.deliver(i, seq, &payload, t0, at, out);
                }
            }
            WireMsg::Parity {
                flow,
                base_seq,
                index,
                payload,
            } => {
                if let (Some(i), Some(t0)) = (self.index(flow), timed) {
                    let f = &mut self.flows[i];
                    if let Some((_, parity)) = f.batches.get_mut(&base_seq) {
                        if let Some(slot) = parity.get_mut(usize::from(index)) {
                            *slot = Some(payload);
                        }
                        self.reconstruct(i, base_seq, t0, at, out);
                    }
                }
            }
            WireMsg::Nack { .. } | WireMsg::Register { .. } => {
                self.errors.push("relay sent a client-only message".into());
            }
        }
    }

    fn due_of(&self, i: usize, seq: u64, t0: Instant) -> Instant {
        t0 + self.flows[i].plan.phase + self.size.interval * seq as u32
    }

    fn deliver(
        &mut self,
        i: usize,
        seq: u64,
        payload: &[u8],
        t0: Instant,
        now: Instant,
        out: &mut Outcome,
    ) {
        let id = self.flows[i].plan.id;
        if let Err(e) = check_payload(self.seed, id, seq, payload) {
            self.errors.push(e);
            return;
        }
        let due = self.due_of(i, seq, t0);
        let f = &mut self.flows[i];
        let Some(slot) = f.delivered.get_mut(seq as usize) else {
            self.errors.push(format!("flow {id}: unknown seq {seq}"));
            return;
        };
        if *slot {
            return;
        }
        *slot = true;
        let latency = now.saturating_duration_since(due).as_secs_f64() * 1e3;
        if let Some(hole) = f.holes.remove(&seq) {
            out.recovery_ms.push(latency);
            if let Some((first, _, _)) = hole {
                out.repair_ms
                    .push(now.saturating_duration_since(first).as_secs_f64() * 1e3);
            }
        } else if f.service == Some(ServiceKind::Forwarding) {
            let window = due.duration_since(t0).as_secs();
            out.fwd_ms.push((window, latency));
        }
        if f.service == Some(ServiceKind::Coding) {
            let (k, m) = (f.k, f.m);
            let base = seq - seq % k;
            let entry = f
                .batches
                .entry(base)
                .or_insert_with(|| (vec![None; k as usize], vec![None; m]));
            entry.0[(seq - base) as usize] = Some(payload.to_vec());
            // Batches before the previous one can no longer be needed.
            while f.batches.len() > 3 {
                f.batches.pop_first();
            }
        }
        // Gap detection: every seq skipped since the last arrival is a hole.
        let from = f.max_seen.map_or(0, |m| m + 1);
        if seq >= from {
            for s in from..seq {
                if !f.delivered[s as usize] {
                    f.holes.insert(s, None);
                }
            }
            f.max_seen = Some(seq);
            self.nack_ready(i, out);
        }
    }

    /// Sends the first NACK of every hole the relay can now repair: caching
    /// holes at once, coding holes once the relay holds the whole batch
    /// (its copy of the batch's last packet was sent before the direct copy
    /// that revealed it, so it is ahead of the NACK in the relay's socket).
    fn nack_ready(&mut self, i: usize, out: &mut Outcome) {
        let f = &self.flows[i];
        let max_seen = f.max_seen.unwrap_or(0);
        let ready: Vec<u64> = f
            .holes
            .iter()
            .filter(|(s, h)| {
                h.is_none()
                    && (f.service != Some(ServiceKind::Coding)
                        || max_seen >= *s - *s % f.k + f.k - 1)
            })
            .map(|(s, _)| *s)
            .collect();
        let now = Instant::now();
        for s in ready {
            self.flows[i].holes.insert(s, Some((now, now, 1)));
            self.send_nack(i, s, out);
        }
    }

    fn send_nack(&mut self, i: usize, seq: u64, out: &mut Outcome) {
        let (id, shard) = (
            self.flows[i].plan.id,
            self.flows[i].shard.expect("admitted"),
        );
        self.encode(&WireMsg::Nack { flow: id, seq });
        if self.send(shard) {
            out.nacks += 1;
        }
    }

    fn retry_nacks(&mut self, out: &mut Outcome) {
        let now = Instant::now();
        for i in 0..self.flows.len() {
            let due: Vec<u64> = self.flows[i]
                .holes
                .iter()
                .filter_map(|(s, h)| match h {
                    Some((_, last, n))
                        if *n < NACK_MAX && now.duration_since(*last) >= NACK_RETRY =>
                    {
                        Some(*s)
                    }
                    _ => None,
                })
                .collect();
            for s in due {
                if let Some(Some((_, last, n))) = self.flows[i].holes.get_mut(&s) {
                    *last = now;
                    *n += 1;
                }
                self.send_nack(i, s, out);
            }
        }
    }

    /// Rebuilds the holes of a coding batch once `k` shards are present.
    fn reconstruct(&mut self, i: usize, base: u64, t0: Instant, at: Instant, out: &mut Outcome) {
        let f = &self.flows[i];
        let k = f.k as usize;
        let Some((data, parity)) = f.batches.get(&base) else {
            return;
        };
        let have_data: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .filter_map(|(j, d)| d.as_deref().map(|d| (j, d)))
            .collect();
        let have_parity: Vec<(usize, &[u8])> = parity
            .iter()
            .enumerate()
            .filter_map(|(j, p)| p.as_deref().map(|p| (j, p)))
            .collect();
        if have_data.len() == k || have_data.len() + have_parity.len() < k {
            return;
        }
        let shard_len = have_parity[0].1.len();
        let t = self.trace.then(Instant::now);
        let decoded = self
            .codec
            .decode_batch(k, shard_len, &have_data, &have_parity);
        self.spans.decode_batch.add(t);
        if self.trace {
            self.spans.decode_bytes += (k * shard_len) as u64;
        }
        let Ok(decoded) = decoded else {
            self.errors
                .push(format!("flow {}: batch {base} failed to decode", f.plan.id));
            return;
        };
        let missing: Vec<usize> = (0..k).filter(|&j| data[j].is_none()).collect();
        for j in missing {
            if let Some(p) = decoded.get(j) {
                self.deliver(i, base + j as u64, p, t0, at, out);
            }
        }
    }
}

/// The median over one-second windows of each window's 99th percentile.
///
/// A single stall of the shared host lands in one window and moves that
/// window's tail only; each window holds about 2,500 forwarding samples,
/// 25 of them beyond its p99.
pub fn windowed_p99(samples: &[(u64, f64)]) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (w, l) in samples {
        windows.entry(*w).or_default().push(*l);
    }
    let mut tails: Vec<f64> = windows
        .into_values()
        .map(|mut v| quantile(&mut v, 0.99))
        .collect();
    crate::stats::median(&mut tails)
}

/// Relay configuration of the workload: one shard, defaults otherwise.
pub fn relay_config() -> RelayConfig {
    RelayConfig {
        shards: 1,
        ..RelayConfig::default()
    }
}

fn shard_totals(m: &RelayMetrics) -> ShardSnapshot {
    let mut total = ShardSnapshot::default();
    for s in &m.shards {
        total.merge(s);
    }
    total
}

fn shed(s: &ShardSnapshot) -> u64 {
    s.shed_queue_full + s.malformed_rx + s.shed_unknown_flow + s.shed_egress_full
}

/// Runs the workload: set-ups (median timed), one timed phase, checks.
pub fn run(seed: u64, seconds: f64, size: RelaySize, trace: bool) -> io::Result<RunReport> {
    let mut report = RunReport::default();
    let mut setups = Vec::new();
    let mut live: Option<(Relay, Generator)> = None;
    for rep in 0..size.setups.max(1) {
        let t = Instant::now();
        let mut relay = tokio::runtime::block_on(Relay::bind("127.0.0.1:0", relay_config()))?;
        relay.start();
        let mut gen = Generator::new(seed, size, trace)?;
        gen.register_all(relay.control_addr()?)?;
        setups.push(t.elapsed().as_secs_f64());
        report.check(gen.check_admission(&relay.metrics()));
        if rep + 1 < size.setups.max(1) {
            tokio::runtime::block_on(relay.shutdown());
        } else {
            live = Some((relay, gen));
        }
    }
    let (mut relay, mut gen) = live.expect("at least one set-up");
    let ports = [
        relay.control_addr()?.port(),
        relay.shard_addrs()[0].port(),
        gen.port(),
    ];

    let before = shard_totals(&relay.metrics());
    let drops_before = host::udp_drops(&ports);
    let cpu_before = host::process_cpu_s();
    let gen_cpu_before = host::thread_cpu_s();
    let out = gen.run(seconds)?;
    let gen_cpu = host::thread_cpu_s() - gen_cpu_before;
    let cpu = host::process_cpu_s() - cpu_before;
    let kernel_drops = host::udp_drops(&ports) - drops_before;
    let after = tokio::runtime::block_on(relay.shutdown());
    let totals = shard_totals(&after);
    let d = |f: fn(&ShardSnapshot) -> u64| f(&totals) - f(&before);
    let relay_dgrams = d(|s| s.datagrams_rx) + d(|s| s.datagrams_tx);
    let shed_total = shed(&totals) - shed(&before);

    report.attempted = out.sent;
    report.failed = out.failed;
    for e in gen.errors.iter().take(5) {
        report.errors.push(e.clone());
    }
    if gen.errors.len() > 5 {
        report
            .errors
            .push(format!("{} more generator errors", gen.errors.len() - 5));
    }
    if out.delivered + out.failed != out.sent {
        report.errors.push("sent != delivered + failed".to_string());
    }
    // Every failed packet is attributed to exactly one cause.  A hole whose
    // direct copy the generator dropped on purpose and the relay never
    // repaired is an unrepaired hole; any other lost packet needed a
    // datagram that the relay shed or the kernel dropped, and is charged to
    // those counts in that order.  What is left over is a silent loss.
    let holes = out.failed_holes;
    let lost = out.failed - holes;
    let by_shed = lost.min(shed_total);
    let by_kernel = (lost - by_shed).min(kernel_drops);
    let silent = lost - by_shed - by_kernel;
    if silent > 0 {
        report.errors.push(format!(
            "{silent} packets lost with no relay shed or kernel drop counted"
        ));
    }
    let mut late = out.late_ms.clone();
    let late_p99 = quantile(&mut late, 0.99);
    if late_p99 > 20.0 {
        report.errors.push(format!(
            "generator ran {late_p99:.1} ms late at p99; the schedule was not kept"
        ));
    }
    println!(
        "failed_by_cause {{\"failed\": {}, \"unrepaired_hole\": {holes}, \"relay_shed\": {by_shed}, \"kernel_drop\": {by_kernel}, \"silent\": {silent}, \"shed_by_reason\": {{\"queue_full\": {}, \"malformed\": {}, \"unknown_flow\": {}, \"egress_full\": {}}}, \"kernel_drops\": {kernel_drops}}}",
        out.failed,
        d(|s| s.shed_queue_full),
        d(|s| s.malformed_rx),
        d(|s| s.shed_unknown_flow),
        d(|s| s.shed_egress_full),
    );
    println!(
        "timed_phase {{\"wall_s\": {:.4}, \"process_cpu_s\": {cpu:.4}, \"generator_cpu_s\": {gen_cpu:.4}, \"relay_datagrams\": {relay_dgrams}, \"nacks_sent\": {}}}",
        out.wall_s, out.nacks
    );

    if !trace {
        report.metric("setup_s", crate::stats::median(&mut setups), "s");
        report.metric(
            "pkts_per_s",
            (out.delivered + out.failed) as f64 / out.wall_s,
            "packets/s",
        );
        let mut fwd: Vec<f64> = out.fwd_ms.iter().map(|(_, l)| *l).collect();
        report.metric("op_latency_p50_ms", quantile(&mut fwd, 0.5), "ms");
        let mut rec = out.recovery_ms.clone();
        report.metric(
            "recovery_latency_iqm_ms",
            crate::stats::interquartile_mean(&mut rec),
            "ms",
        );
        report.metric(
            "overlay_bytes_per_byte",
            out.relay_bytes as f64 / (out.sent * PAYLOAD as u64).max(1) as f64,
            "B/B",
        );
        report.metric("cpu_us_per_pkt", cpu * 1e6 / out.sent.max(1) as f64, "us");
        report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
        return Ok(report);
    }

    println!("spans {}", gen.spans.to_json());
    for (name, unit) in traced::SIM_ONLY {
        report.metric(name, 0.0, unit);
    }
    report.metric("jqos-core.receiver.recovery_delays_recorded", 0.0, "count");
    let s = &gen.spans;
    let enc_replay = traced::replay_encodes(&vec![
        (
            relay_config().coding_k,
            relay_config().coding_m,
            PAYLOAD + 2
        );
        2_000
    ]);
    let enc = CodecCost {
        calls: d(|s| s.batches_encoded),
        ..enc_replay
    };
    let dec = CodecCost {
        calls: s.decode_batch.count,
        mb_s: ratio(s.decode_bytes as f64 / 1e6, s.decode_batch.ns as f64 * 1e-9),
        s_per_call: s.decode_batch.mean_ns() * 1e-9,
    };
    traced::erasure_metrics(&mut report, enc, dec);
    report.metric(
        "jqos-net.admission.register_ms",
        s.register.mean_ns() * 1e-6,
        "ms",
    );
    report.metric("jqos-net.wire.encode_ns", s.wire_encode.mean_ns(), "ns");
    report.metric("jqos-net.wire.decode_ns", s.wire_decode.mean_ns(), "ns");
    report.metric(
        "jqos-net.relay.cpu_us_per_dgram",
        ratio((cpu - gen_cpu) * 1e6, relay_dgrams as f64),
        "us",
    );
    report.metric(
        "jqos-net.relay.dgrams_per_wakeup",
        ratio(d(|s| s.datagrams_rx) as f64, d(|s| s.wakeups) as f64),
        "dgrams",
    );
    report.metric(
        "jqos-net.relay.recv_syscalls_per_dgram",
        ratio(d(|s| s.recv_syscalls) as f64, d(|s| s.datagrams_rx) as f64),
        "calls/dgram",
    );
    report.metric(
        "jqos-net.relay.queue_highwater",
        totals.queue_highwater as f64,
        "dgrams",
    );
    let mut repair = out.repair_ms.clone();
    report.metric(
        "jqos-net.relay.repair_ms_p50",
        quantile(&mut repair, 0.5),
        "ms",
    );
    report.metric(
        "jqos-net.relay.recovery_misses",
        d(|s| s.recovery_misses) as f64,
        "count",
    );
    report.metric(
        "jqos-net.relay.coding_resyncs",
        d(|s| s.coding_resyncs) as f64,
        "count",
    );
    report.metric("jqos-net.relay.shed", shed_total as f64, "count");
    report.metric("jqos-net.kernel_drops", kernel_drops as f64, "count");
    report.metric(
        "jqos-net.relay.fwd_latency_p99_ms",
        windowed_p99(&out.fwd_ms),
        "ms",
    );
    report.metric("bench.generator_late_ms_p99", late_p99, "ms");
    report.metric("bench.replay_mismatches", 0.0, "count");
    Ok(report)
}
