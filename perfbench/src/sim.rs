//! The two simulation workloads: their worlds, their runs, and the checks
//! made on every run's outcomes.
//!
//! A *world* is one scenario: a DC1/DC2 pair and its flows, each flow with
//! an explicit packet schedule and a direct-path loss spec.  The benchmark
//! generates both from `--seed`, so the expected packet count, send times,
//! path delays and loss rates are known here independently of the
//! simulator, and the checks compare the simulator's outcomes against them.

use std::time::Instant;

use jqos_core::coding::encoder::EncoderStats;
use jqos_core::coding::params::CodingParams;
use jqos_core::nodes::dc1::Dc1Stats;
use jqos_core::nodes::dc2::Dc2Stats;
use jqos_core::nodes::receiver::DeliveryMethod;
use jqos_core::nodes::source::ScheduleSource;
use jqos_core::{PacketOutcome, Scenario, ScenarioReport, ServiceKind};
use measurements::planetlab::planetlab_paths;
use netsim::{Dur, LinkSpec, LossSpec, Time, Topology};

use crate::report::RunReport;
use crate::rng::{Fnv, SplitMix};
use crate::stats::{interquartile_mean, median};

/// Which simulation workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// The Figure 8 CR-WAN world over the PlanetLab path set.
    CrwanPaths,
    /// Many caching/forwarding flows on one DC pair, lossless overlay.
    CachingFanin,
}

/// Workload sizes; [`SimSize::FULL`] is what the benchmark measures,
/// [`SimSize::QUICK`] keeps the benchmark's own tests fast.
#[derive(Clone, Copy, Debug)]
pub struct SimSize {
    /// PlanetLab paths in one `crwan-paths` round (one world per path).
    pub crwan_paths: usize,
    /// ON intervals per `crwan-paths` flow.
    pub crwan_on_intervals: usize,
    /// Flows in the `caching-fanin` world.
    pub fanin_flows: usize,
    /// Seconds of traffic per `caching-fanin` flow.
    pub fanin_secs: u64,
}

impl SimSize {
    /// The measured size.
    pub const FULL: SimSize = SimSize {
        crwan_paths: 45,
        crwan_on_intervals: 3,
        fanin_flows: 300,
        fanin_secs: 5,
    };
    /// A size that runs in well under a second.
    pub const QUICK: SimSize = SimSize {
        crwan_paths: 3,
        crwan_on_intervals: 1,
        fanin_flows: 30,
        fanin_secs: 4,
    };
}

/// Loss process of one flow's direct Internet path.
#[derive(Clone, Copy, Debug)]
pub struct DirectLoss {
    /// Stationary loss rate of the Gilbert–Elliott background process.
    pub rate: f64,
    /// Mean loss-burst length, packets.
    pub mean_burst: f64,
    /// Periodic outage `(first, period, duration)`, if any.
    pub outage: Option<(Time, Dur, Dur)>,
}

impl DirectLoss {
    /// The simulator's loss spec for this process.
    pub fn spec(&self) -> LossSpec {
        let bursty = LossSpec::bursty(self.rate, self.mean_burst);
        match self.outage {
            Some((first, period, duration)) => LossSpec::Compound(vec![
                bursty,
                LossSpec::PeriodicOutage {
                    first,
                    period,
                    duration,
                },
            ]),
            None => bursty,
        }
    }

    /// Whether a packet sent at `t` falls in an outage.
    pub fn in_outage(&self, t: Time) -> bool {
        match self.outage {
            Some((first, period, duration)) if t >= first => {
                (t.as_micros() - first.as_micros()) % period.as_micros() < duration.as_micros()
            }
            _ => false,
        }
    }
}

/// One flow of a world.
#[derive(Clone, Debug)]
pub struct FlowPlan {
    /// Service the flow uses.
    pub service: ServiceKind,
    /// `(gap since previous packet, payload bytes)` for every packet.
    pub schedule: Vec<(Dur, usize)>,
    /// One-way delay of the flow's direct path.
    pub y: Dur,
    /// Loss process of the direct path.
    pub loss: DirectLoss,
}

impl FlowPlan {
    /// Send time of every packet, from the schedule alone.
    pub fn send_times(&self) -> Vec<Time> {
        let mut t = Time::ZERO;
        self.schedule
            .iter()
            .map(|(gap, _)| {
                t += *gap;
                t
            })
            .collect()
    }

    /// The direct path's link spec.
    pub fn link(&self) -> LinkSpec {
        LinkSpec::symmetric(self.y).loss(self.loss.spec())
    }
}

/// One scenario: a DC pair, its access and inter-DC delays, and its flows.
#[derive(Clone, Debug)]
pub struct World {
    /// Simulator seed.
    pub seed: u64,
    /// Nominal direct-path delay of the topology (sets the receivers' RTT).
    pub y: Dur,
    /// Sender → DC1 delay.
    pub delta_s: Dur,
    /// DC1 → DC2 delay.
    pub x: Dur,
    /// Receiver ↔ DC2 delay.
    pub delta_r: Dur,
    /// Loss spec of every sender → DC1 segment.
    pub sender_access: LossSpec,
    /// Loss spec of every receiver ↔ DC2 segment.
    pub receiver_access: LossSpec,
    /// Coding parameters of DC1.
    pub coding: CodingParams,
    /// The flows.
    pub flows: Vec<FlowPlan>,
    /// Simulated run length (the scenario adds its own drain).
    pub duration: Dur,
    /// Payload size of every packet (bytes).
    pub payload: usize,
    /// Whether every overlay segment is lossless, so caching and forwarding
    /// must leave no residual loss.
    pub lossless_overlay: bool,
}

impl World {
    /// The scenario topology.
    pub fn topology(&self) -> Topology {
        Topology::lossless(self.y, self.delta_s, self.x, self.delta_r)
            .sender_access_loss(self.sender_access.clone())
            .receiver_access_loss(self.receiver_access.clone())
    }

    /// The scenario, ready to run.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::new(self.seed)
            .with_topology(self.topology())
            .with_coding(self.coding);
        for f in &self.flows {
            s = s.add_flow_with_path(
                f.service,
                Box::new(ScheduleSource::new(f.schedule.clone())),
                f.link(),
            );
        }
        s
    }

    /// Packets the world's sources emit.
    pub fn packets(&self) -> usize {
        self.flows.iter().map(|f| f.schedule.len()).sum()
    }

    /// Lowest possible latency of a packet that crossed the overlay.
    pub fn overlay_floor(&self) -> Dur {
        self.delta_s + self.x + self.delta_r
    }
}

fn ms(v: f64) -> Dur {
    Dur::from_millis_f64(v)
}

/// Generator seed of the Figure 8 path set (`figures::fig8` uses it too).
pub const FIG8_PATH_SEED: u64 = 2020;

/// The `crwan-paths` round: one world per PlanetLab path of the Figure 8
/// set, six coding flows each (the measured path plus five companions).
/// The path set is the paper's fixed deployment; `seed` draws the flows'
/// ON/OFF schedules and the simulator seed of every world.
pub fn crwan_worlds(seed: u64, size: SimSize) -> Vec<World> {
    let mut paths = planetlab_paths(FIG8_PATH_SEED);
    paths.truncate(size.crwan_paths);
    paths
        .iter()
        .map(|p| {
            let mut rng = SplitMix::new(seed, 0x100 + p.index as u64);
            let outage = p.has_outages.then(|| {
                (
                    Time::from_secs(2),
                    Dur::from_secs(61),
                    ms(p.outage_secs * 1_000.0),
                )
            });
            let mut flows = vec![FlowPlan {
                service: ServiceKind::Coding,
                schedule: on_off_schedule(&mut rng, size.crwan_on_intervals),
                y: ms(p.y_ms),
                loss: DirectLoss {
                    rate: p.loss_rate,
                    mean_burst: p.mean_burst,
                    outage,
                },
            }];
            for i in 0..5 {
                flows.push(FlowPlan {
                    service: ServiceKind::Coding,
                    schedule: on_off_schedule(&mut rng, size.crwan_on_intervals),
                    y: ms(p.y_ms * (0.8 + 0.1 * i as f64)),
                    loss: DirectLoss {
                        rate: 0.002,
                        mean_burst: 3.0,
                        outage: None,
                    },
                });
            }
            World {
                seed: rng.next_u64(),
                y: ms(p.y_ms),
                delta_s: ms(p.delta_s_ms),
                x: ms(p.x_ms),
                delta_r: ms(p.delta_r_ms),
                sender_access: p.sender_access_loss_spec(),
                receiver_access: LossSpec::Bernoulli(0.004),
                coding: CodingParams {
                    cross_parity: 2,
                    ..CodingParams::planetlab_defaults()
                },
                flows,
                duration: Dur::from_secs(200),
                payload: 512,
                lossless_overlay: false,
            }
        })
        .collect()
}

/// The §6.2.1 probe stream scaled 60× in time: 5 s ON intervals of
/// 512-byte packets every 20 ms, separated by exponential OFF times (mean
/// 55 s, capped at 85 s so every packet is sent inside the 200 s run).
fn on_off_schedule(rng: &mut SplitMix, intervals: usize) -> Vec<(Dur, usize)> {
    let per_on = 250;
    let mut out = Vec::with_capacity(intervals * per_on);
    for i in 0..intervals {
        for j in 0..per_on {
            let gap = if j > 0 {
                Dur::from_millis(20)
            } else if i == 0 {
                Dur::ZERO
            } else {
                let off_ms = (-(1.0 - rng.unit()).ln() * 55_000.0).min(85_000.0);
                Dur::from_millis(20) + ms(off_ms)
            };
            out.push((gap, 512));
        }
    }
    out
}

/// The `caching-fanin` round: one world of `fanin_flows` CBR flows (85 %
/// caching, 15 % forwarding) sharing one DC pair on a lossless overlay,
/// each over its own bursty direct path.
///
/// Per-flow rates, path delays, loss rates and burst lengths are stratified
/// (one draw from each of `n` equal slices of their range, the slices dealt
/// to flows in a seeded order), so every seed offers the same total load
/// and loss while the seed still decides which flow gets what and when it
/// starts.
pub fn fanin_worlds(seed: u64, size: SimSize) -> Vec<World> {
    let mut rng = SplitMix::new(seed, 0x200);
    let n = size.fanin_flows;
    let caching = n * 85 / 100;
    let mut services: Vec<ServiceKind> = (0..n)
        .map(|i| {
            if i < caching {
                ServiceKind::Caching
            } else {
                ServiceKind::Forwarding
            }
        })
        .collect();
    rng.shuffle(&mut services);
    let mut strata = |lo: f64, hi: f64| -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + rng.unit()) / n as f64)
            .collect();
        rng.shuffle(&mut v);
        v
    };
    let intervals = strata(10.0, 40.0);
    let delays = strata(60.0, 90.0);
    let rates = strata(0.005, 0.03);
    let bursts = strata(1.0, 6.0);
    let payload = 200;
    let flows = services
        .into_iter()
        .enumerate()
        .map(|(i, service)| {
            let interval = Dur::from_micros((intervals[i] * 1_000.0) as u64);
            let offset = Dur::from_micros(rng.range_u64(0, interval.as_micros() - 1));
            let count = size.fanin_secs * 1_000_000 / interval.as_micros();
            let schedule = (0..count)
                .map(|j| (if j == 0 { offset } else { interval }, payload))
                .collect();
            FlowPlan {
                service,
                schedule,
                y: ms(delays[i]),
                loss: DirectLoss {
                    rate: rates[i],
                    mean_burst: bursts[i],
                    outage: None,
                },
            }
        })
        .collect();
    vec![World {
        seed: rng.next_u64(),
        y: Dur::from_millis(75),
        delta_s: Dur::from_millis(10),
        x: Dur::from_millis(70),
        delta_r: Dur::from_millis(10),
        sender_access: LossSpec::None,
        receiver_access: LossSpec::None,
        coding: CodingParams::planetlab_defaults(),
        flows,
        duration: Dur::from_secs(size.fanin_secs + 1),
        payload,
        lossless_overlay: true,
    }]
}

/// The worlds of one round of `kind`.
pub fn worlds(kind: SimKind, seed: u64, size: SimSize) -> Vec<World> {
    match kind {
        SimKind::CrwanPaths => crwan_worlds(seed, size),
        SimKind::CachingFanin => fanin_worlds(seed, size),
    }
}

/// Outcomes and public counters of one world's run.
#[derive(Clone, Debug)]
pub struct WorldResult {
    /// Per flow, the outcome of every packet the sender logged.
    pub flows: Vec<Vec<PacketOutcome>>,
    /// DC1 counters.
    pub dc1: Dc1Stats,
    /// DC2 counters.
    pub dc2: Dc2Stats,
    /// DC1 encoder counters.
    pub encoder: EncoderStats,
    /// NACKs sent by all receivers.
    pub nacks: u64,
    /// Recovery delays the receivers recorded.
    pub recovery_delays: u64,
}

impl WorldResult {
    /// Collects a [`ScenarioReport`].
    pub fn from_report(report: ScenarioReport) -> WorldResult {
        WorldResult {
            nacks: report.flows.iter().map(|f| f.nacks_sent).sum(),
            recovery_delays: report
                .flows
                .iter()
                .map(|f| f.recovery_delays_ms.len() as u64)
                .sum(),
            flows: report.flows.into_iter().map(|f| f.packets).collect(),
            dc1: report.dc1,
            dc2: report.dc2,
            encoder: report.encoder,
        }
    }

    /// Application packets with an outcome.
    pub fn packets(&self) -> usize {
        self.flows.iter().map(|f| f.len()).sum()
    }

    /// Repairs DC2 served: cache replies, cooperative recoveries, pulls.
    pub fn repairs(&self) -> u64 {
        self.dc2.cache_recoveries + self.dc2.coop_recovered + self.dc2.pulls_served
    }

    /// Packets whose first copy arrived as a repair.
    pub fn first_copy_repairs(&self) -> u64 {
        self.flows
            .iter()
            .flatten()
            .filter(|p| p.method.map(|m| m.is_recovery()).unwrap_or(false))
            .count() as u64
    }

    /// Bytes that left a data center: DC1→DC2 copies and coded shards, plus
    /// DC2→receiver forwards and repairs (payload bytes; headers excluded).
    pub fn overlay_bytes(&self, payload: usize) -> u64 {
        let p = payload as u64;
        self.dc1.packets_relayed * p
            + self.encoder.coded_bytes
            + (self.dc2.forwarded + self.repairs()) * p
    }

    /// Order-sensitive digest of every packet's outcome.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (i, flow) in self.flows.iter().enumerate() {
            h.add(i as u64);
            for p in flow {
                h.add(p.seq);
                h.add(p.sent_at.as_micros());
                h.add(p.delivered_at.map(|t| t.as_micros()).unwrap_or(u64::MAX));
                h.add(match p.method {
                    None => 0,
                    Some(DeliveryMethod::Direct) => 1,
                    Some(DeliveryMethod::CloudForwarded) => 2,
                    Some(DeliveryMethod::RecoveredFromCache) => 3,
                    Some(DeliveryMethod::RecoveredByCoding(b)) => 4 + (b.0 << 3),
                });
            }
        }
        h.0
    }
}

/// Runs one world through `Scenario::run`.
pub fn run_world(world: &World) -> WorldResult {
    WorldResult::from_report(world.scenario().run(world.duration))
}

/// Every scheduled packet has exactly one outcome, in order, sent when the
/// schedule says and with the scheduled size.
pub fn check_one_outcome_per_packet(world: &World, result: &WorldResult) -> Result<(), String> {
    if result.flows.len() != world.flows.len() {
        return Err(format!(
            "{} flows reported, {} planned",
            result.flows.len(),
            world.flows.len()
        ));
    }
    for (i, (plan, outcomes)) in world.flows.iter().zip(&result.flows).enumerate() {
        if outcomes.len() != plan.schedule.len() {
            return Err(format!(
                "flow {i}: {} outcomes for {} scheduled packets",
                outcomes.len(),
                plan.schedule.len()
            ));
        }
        for (j, (p, sent)) in outcomes.iter().zip(plan.send_times()).enumerate() {
            if p.seq != j as u64 || p.sent_at != sent || p.size != plan.schedule[j].1 {
                return Err(format!(
                    "flow {i} packet {j}: outcome seq {} sent {:?} size {} does not match the schedule ({sent:?}, {})",
                    p.seq, p.sent_at, p.size, plan.schedule[j].1
                ));
            }
            if p.delivered_at.is_some() != p.method.is_some() {
                return Err(format!("flow {i} seq {j}: delivery time without method"));
            }
        }
    }
    Ok(())
}

/// No packet arrives earlier than the propagation delay of the path it took:
/// `y` for the direct path, `δs + x + δr` for anything that crossed the
/// overlay (forwarded copies, cache replies, and coded recoveries, whose
/// parity also travelled sender → DC1 → DC2 → receiver).
pub fn check_propagation_floor(world: &World, result: &WorldResult) -> Result<(), String> {
    let overlay = world.overlay_floor();
    for (i, (plan, outcomes)) in world.flows.iter().zip(&result.flows).enumerate() {
        for p in outcomes {
            let (Some(at), Some(method)) = (p.delivered_at, p.method) else {
                continue;
            };
            let floor = if method == DeliveryMethod::Direct {
                plan.y
            } else {
                overlay
            };
            if at < p.sent_at || at - p.sent_at < floor {
                return Err(format!(
                    "flow {i} seq {}: delivered {:?} after sending via {method:?}, below the {floor:?} propagation floor",
                    p.seq,
                    at.saturating_since(p.sent_at)
                ));
            }
        }
    }
    Ok(())
}

/// With a lossless overlay, caching and forwarding leave no residual loss.
pub fn check_no_residual_loss(world: &World, result: &WorldResult) -> Result<(), String> {
    if !world.lossless_overlay {
        return Ok(());
    }
    for (i, (plan, outcomes)) in world.flows.iter().zip(&result.flows).enumerate() {
        if !matches!(plan.service, ServiceKind::Caching | ServiceKind::Forwarding) {
            continue;
        }
        let lost = outcomes.iter().filter(|p| p.delivered_at.is_none()).count();
        if lost > 0 {
            return Err(format!(
                "flow {i} ({:?}) left {lost} packets unrecovered on a lossless overlay",
                plan.service
            ));
        }
    }
    Ok(())
}

/// Direct-path losses of a round are within a statistical bound of the rate
/// the loss specs imply.
///
/// Each packet sent inside an outage is lost; every other packet is lost
/// with the Gilbert–Elliott stationary probability `p`.  The count of
/// losses over `n` packets of a bursty process with mean burst `b` has
/// variance ≈ `n·p(1−p)(2b−1)`; the observed total must lie within six
/// standard deviations (plus a few packets of slack for the chain starting
/// in its good state) of the expected total.
pub fn check_direct_loss(worlds: &[World], results: &[WorldResult]) -> Result<(), String> {
    let (mut expected, mut variance, mut observed) = (0.0, 0.0, 0.0);
    for (world, result) in worlds.iter().zip(results) {
        for (plan, outcomes) in world.flows.iter().zip(&result.flows) {
            let p = plan.loss.rate;
            let inflation = 2.0 * plan.loss.mean_burst.max(1.0) - 1.0;
            for (out, t) in outcomes.iter().zip(plan.send_times()) {
                if plan.loss.in_outage(t) {
                    expected += 1.0;
                } else {
                    expected += p;
                    variance += p * (1.0 - p) * inflation;
                }
                if out.method != Some(DeliveryMethod::Direct) {
                    observed += 1.0;
                }
            }
        }
    }
    let bound = 6.0 * variance.sqrt() + 5.0;
    if (observed - expected).abs() > bound {
        return Err(format!(
            "direct-path losses {observed} outside {expected:.1} ± {bound:.1} implied by the loss specs"
        ));
    }
    Ok(())
}

/// All per-world checks.
pub fn check_world(world: &World, result: &WorldResult) -> Result<(), String> {
    check_one_outcome_per_packet(world, result)?;
    check_propagation_floor(world, result)?;
    check_no_residual_loss(world, result)
}

/// Median time to build one round's inputs: the path set, the flow
/// schedules, and every world's scenario.
pub fn setup_seconds(kind: SimKind, seed: u64, size: SimSize, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let worlds = worlds(kind, seed, size);
            let scenarios: Vec<Scenario> = worlds.iter().map(World::scenario).collect();
            std::hint::black_box(&scenarios);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Runs the untraced workload for at least `seconds`, in whole rounds, and
/// reports its end-to-end metrics.
pub fn run_untraced(kind: SimKind, seed: u64, seconds: f64, size: SimSize) -> RunReport {
    let mut report = RunReport::default();
    let setup_s = setup_seconds(kind, seed, size, 21);
    let worlds = worlds(kind, seed, size);
    // Replays of a world whose outcome digest differs from its first run.
    // The determinism contract says this never happens; it does (DC2 starts
    // the recoveries of parked NACKs in hash-map order), so mismatches are
    // counted and reported rather than failing the operation.
    let mut digests: Vec<u64> = Vec::new();
    let (mut replays, mut mismatches) = (0u64, 0u64);
    let (mut overlay, mut payload) = (0u64, 0u64);
    let (mut packets, mut busy_s, mut cpu_s, mut op_ms) = (0u64, 0.0, 0.0, Vec::new());
    let start = Instant::now();
    let mut recovery_ms: Vec<f64> = Vec::new();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut results = Vec::with_capacity(worlds.len());
        for (i, world) in worlds.iter().enumerate() {
            let c = crate::host::process_cpu_s();
            let t = Instant::now();
            let result = run_world(world);
            let wall = t.elapsed().as_secs_f64();
            cpu_s += crate::host::process_cpu_s() - c;
            busy_s += wall;
            packets += result.packets() as u64;
            op_ms.push(wall * 1e3);
            report.attempted += 1;
            let ok = check_world(world, &result);
            let digest = result.digest();
            if round == 0 {
                digests.push(digest);
            } else {
                replays += 1;
                if digests[i] != digest {
                    mismatches += 1;
                }
            }
            if ok.is_err() {
                report.failed += 1;
            }
            report.check(ok);
            overlay += result.overlay_bytes(world.payload);
            payload += (result.packets() * world.payload) as u64;
            results.push(result);
        }
        if round == 0 {
            report.check(check_direct_loss(&worlds, &results));
            recovery_ms = results
                .iter()
                .flat_map(|r| r.flows.iter().flatten())
                .filter(|p| p.method.map(|m| m.is_recovery()).unwrap_or(false))
                .filter_map(|p| p.latency().map(|l| l.as_millis_f64()))
                .collect();
        }
        round += 1;
    }
    println!("replay {{\"replays\": {replays}, \"digest_mismatches\": {mismatches}}}");
    report.metric("setup_s", setup_s, "s");
    // Rates are totals over the whole run, so they average over the shared
    // host's changes of speed instead of picking one of its states.
    report.metric("pkts_per_s", packets as f64 / busy_s, "packets/s");
    report.metric("op_latency_p50_ms", median(&mut op_ms), "ms");
    report.metric(
        "recovery_latency_iqm_ms",
        interquartile_mean(&mut recovery_ms),
        "ms",
    );
    report.metric(
        "overlay_bytes_per_byte",
        overlay as f64 / payload.max(1) as f64,
        "B/B",
    );
    report.metric("cpu_us_per_pkt", cpu_s * 1e6 / packets.max(1) as f64, "us");
    report.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
    report
}
