//! The benchmark's own tests: every workload runs at a quick size and
//! passes its checks, the checks reject deliberately broken outputs, and a
//! run of the benchmark binary leaves the repository's files unchanged.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use jqos_core::nodes::receiver::DeliveryMethod;
use jqos_core::ServiceKind;
use jqos_net::RejectReason;
use jqos_perfbench::relay::{self, RelaySize};
use jqos_perfbench::rng::Fnv;
use jqos_perfbench::sim::{self, SimKind, SimSize};
use jqos_perfbench::traced;
use netsim::Dur;

#[test]
fn quick_simulation_runs_pass_their_checks() {
    for kind in [SimKind::CrwanPaths, SimKind::CachingFanin] {
        let report = sim::run_untraced(kind, 11, 0.2, SimSize::QUICK);
        assert!(report.correct(), "{kind:?}: {:?}", report.errors);
        assert!(report.attempted >= 1);
        assert_eq!(report.failed, 0);
        for name in [
            "pkts_per_s",
            "op_latency_p50_ms",
            "cpu_us_per_pkt",
            "peak_rss_mb",
        ] {
            assert!(report.get(name).unwrap() > 0.0, "{kind:?}: {name} is 0");
        }
    }
}

#[test]
fn traced_simulation_reproduces_the_untraced_outcomes() {
    for kind in [SimKind::CrwanPaths, SimKind::CachingFanin] {
        let (report, _, _) = traced::run_traced(kind, 12, SimSize::QUICK);
        assert!(report.correct(), "{kind:?}: {:?}", report.errors);
        assert!(report.get("netsim.events").unwrap() > 0.0);
        assert!(report.get("jqos-core.dc2.self_s").unwrap() > 0.0);
    }
    // Without coding, DC2 never starts cooperative recoveries, the one place
    // where hash-map order reaches the event schedule: the traced world must
    // replay the untraced one exactly.
    let fanin = sim::worlds(SimKind::CachingFanin, 12, SimSize::QUICK);
    let (traced, _) = traced::run_world_traced(&fanin[0]);
    assert_eq!(traced.digest(), sim::run_world(&fanin[0]).digest());
    let crwan = sim::worlds(SimKind::CrwanPaths, 12, SimSize::QUICK);
    let (traced, trace) = traced::run_world_traced(&crwan[0]);
    sim::check_world(&crwan[0], &traced).expect("traced CR-WAN outcomes pass");
    assert!(!trace.encodes.is_empty(), "CR-WAN world encoded nothing");
}

#[test]
fn quick_relay_run_delivers_every_packet() {
    let report = relay::run(13, 1.0, RelaySize::QUICK, false).expect("relay run");
    assert!(report.correct(), "{:?}", report.errors);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    assert!(report.get("op_latency_p50_ms").unwrap() > 0.0);
    assert!(report.get("recovery_latency_iqm_ms").unwrap() > 0.0);

    let traced = relay::run(14, 1.0, RelaySize::QUICK, true).expect("traced relay run");
    assert!(traced.correct(), "{:?}", traced.errors);
    assert!(traced.get("erasure.decode_calls").unwrap() > 0.0);
    assert!(traced.get("jqos-net.wire.decode_ns").unwrap() > 0.0);
}

fn quick_world(kind: SimKind) -> (sim::World, sim::WorldResult) {
    let world = sim::worlds(kind, 21, SimSize::QUICK).remove(0);
    let result = sim::run_world(&world);
    sim::check_world(&world, &result).expect("unmutated outcomes pass");
    (world, result)
}

#[test]
fn a_dropped_outcome_is_rejected() {
    let (world, mut result) = quick_world(SimKind::CachingFanin);
    result.flows[3].remove(5);
    assert!(sim::check_one_outcome_per_packet(&world, &result).is_err());
}

#[test]
fn a_delivery_faster_than_propagation_is_rejected() {
    for kind in [SimKind::CachingFanin, SimKind::CrwanPaths] {
        let (world, mut result) = quick_world(kind);
        for method in [DeliveryMethod::Direct, DeliveryMethod::RecoveredFromCache] {
            let mut mutated = result.clone();
            let (i, p) = mutated
                .flows
                .iter_mut()
                .enumerate()
                .find_map(|(i, f)| f.iter_mut().find(|p| p.method.is_some()).map(|p| (i, p)))
                .expect("something was delivered");
            let floor = match method {
                DeliveryMethod::Direct => world.flows[i].y,
                _ => world.overlay_floor(),
            };
            p.method = Some(method);
            p.delivered_at = Some(p.sent_at + floor - Dur::from_micros(1));
            assert!(
                sim::check_propagation_floor(&world, &mutated).is_err(),
                "{kind:?} {method:?}"
            );
        }
        result.flows.clear();
        assert!(sim::check_one_outcome_per_packet(&world, &result).is_err());
    }
}

#[test]
fn an_unrecovered_caching_packet_is_rejected() {
    let (world, mut result) = quick_world(SimKind::CachingFanin);
    let i = world
        .flows
        .iter()
        .position(|f| f.service == ServiceKind::Caching)
        .unwrap();
    result.flows[i][2].delivered_at = None;
    result.flows[i][2].method = None;
    assert!(sim::check_no_residual_loss(&world, &result).is_err());
}

#[test]
fn direct_loss_far_from_the_loss_specs_is_rejected() {
    let (world, mut result) = quick_world(SimKind::CachingFanin);
    let worlds = vec![world];
    sim::check_direct_loss(&worlds, std::slice::from_ref(&result)).expect("unmutated");
    for p in result.flows.iter_mut().flatten() {
        if p.method == Some(DeliveryMethod::Direct) {
            p.method = Some(DeliveryMethod::RecoveredFromCache);
        }
    }
    assert!(sim::check_direct_loss(&worlds, &[result]).is_err());
}

#[test]
fn a_flipped_payload_byte_is_rejected() {
    let mut bytes = relay::payload_for(5, 77, 9);
    relay::check_payload(5, 77, 9, &bytes).expect("unmutated payload");
    bytes[17] ^= 0x01;
    assert!(relay::check_payload(5, 77, 9, &bytes).is_err());
}

#[test]
fn a_wrong_service_for_a_budget_is_rejected() {
    // By hand from y = 75, δs = δr = 10, x = 70 ms: forwarding 90 ms,
    // caching 95 ms, coding 115 ms.
    assert_eq!(relay::expected_service(89), None);
    assert_eq!(relay::expected_service(90), Some(ServiceKind::Forwarding));
    assert_eq!(relay::expected_service(95), Some(ServiceKind::Caching));
    assert_eq!(relay::expected_service(114), Some(ServiceKind::Caching));
    assert_eq!(relay::expected_service(115), Some(ServiceKind::Coding));
    relay::check_verdict(100, Some(ServiceKind::Caching), None).expect("right service");
    relay::check_verdict(60, None, Some(RejectReason::BudgetInfeasible)).expect("refused");
    assert!(relay::check_verdict(100, Some(ServiceKind::Coding), None).is_err());
    assert!(relay::check_verdict(60, Some(ServiceKind::Forwarding), None).is_err());
    assert!(relay::check_verdict(100, None, Some(RejectReason::ShardFull)).is_err());
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Content digest of every file under `dir`, skipping build output, git's
/// own files and the benchmark's output directory.
fn snapshot(dir: &Path, root: &Path, out: &mut BTreeMap<PathBuf, u64>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap().to_path_buf();
        let name = entry.file_name();
        let skip = [".git", "target", ".bench_build"]
            .iter()
            .any(|s| name == *s)
            || rel == Path::new("perfbench").join("out");
        if skip {
            continue;
        }
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            snapshot(&path, root, out);
        } else if kind.is_file() {
            let mut h = Fnv::default();
            for b in std::fs::read(&path).unwrap_or_default() {
                h.add(u64::from(b));
            }
            out.insert(rel, h.0);
        }
    }
}

#[test]
fn a_run_leaves_the_repository_files_unchanged() {
    let root = repo_root();
    let mut before = BTreeMap::new();
    snapshot(&root, &root, &mut before);
    assert!(before.contains_key(Path::new("Cargo.toml")));
    for args in [
        [
            "--workload",
            "caching-fanin",
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            "1",
        ],
        [
            "--workload",
            "relay-paced",
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_jqos-perfbench"))
            .args(args)
            .current_dir(&root)
            .output()
            .expect("benchmark binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        assert!(last.starts_with("{\"correct\": true"), "{args:?}: {last}");
    }
    let mut after = BTreeMap::new();
    snapshot(&root, &root, &mut after);
    assert_eq!(
        before, after,
        "a benchmark run changed files of the repository"
    );
}
