//! End-to-end and per-layer benchmark of the J-QoS reproduction.
//!
//! Three workloads, each run in its own process by `src/main.rs`:
//!
//! * `crwan-paths` — the Figure 8 world (CR-WAN coding service over the
//!   PlanetLab path set) through [`jqos_core::Scenario`];
//! * `caching-fanin` — hundreds of caching/forwarding flows on one DC pair,
//!   where the `netsim` scheduler and the NACK→cache path dominate;
//! * `relay-paced` — the live [`jqos_net::Relay`] on loopback, driven
//!   open-loop by a generator owned by this crate.
//!
//! Every workload checks its outputs against computations made here, never
//! against stored output.  Traced runs time this crate's calls into each
//! layer's public functions; the library code under test is not modified.

pub mod host;
pub mod relay;
pub mod report;
pub mod rng;
pub mod rxstamp;
pub mod sim;
pub mod stats;
pub mod traced;
