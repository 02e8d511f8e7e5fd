//! `fl-sim` — the discrete-event fleet simulator.
//!
//! The paper's operational data (Sec. 9 and Appendix A) comes from a
//! production fleet of ~10M devices that this reproduction cannot have.
//! `fl-sim` replaces it with the closest synthetic equivalent: an
//! event-driven simulation of a device fleet with
//!
//! * [`availability`] — a diurnal eligibility model (devices are idle,
//!   charging, and on WiFi mostly at night; Fig. 5's "4× difference
//!   between low and high numbers of participating devices"),
//! * [`network`] — per-device latency/bandwidth/failure models,
//! * [`des`] — the virtual-clock event queue,
//! * [`chaos`] — seeded, replayable fault injection against the real
//!   server stack, auditing the Sec. 4.2/4.4 recovery guarantees,
//! * [`netchaos`] — network chaos at the wire boundary: seeded
//!   `FaultyTransport` scripts mangle device report frames in flight
//!   through the live sharded topology, auditing the at-most-once
//!   report accounting and the device reconnect/resume protocol,
//! * [`explore`] — seeded schedule exploration: the live actor tree
//!   under permuted mailbox delivery (via the `fl-actors`
//!   `ScheduleExplorer`) and chaos plans under permuted device timing,
//!   auditing the never-hang / exactly-one-commit / storage-write /
//!   obituary-exactly-once invariants across K legal interleavings,
//! * [`multi`] — the flow-control DES: FL populations sharing one fleet
//!   and one Selector layer, every device a `DeviceTenancy` (one lane per
//!   population, one active session). Its scenarios audit the Sec. 2.3
//!   flow-control loop (admission shedding, closed-loop pace steering,
//!   device retry budgets) under a thundering herd, a flash crowd, a
//!   diurnal ramp, or a SecAgg flash crowd — each a single-population
//!   run — and cross-population fairness under asymmetric load (a flash
//!   crowd in one tenant must not starve another's accepts or commits,
//!   Sec. 2.1/3),
//! * [`fleet`] — the fleet-dynamics scenario driving the real
//!   `fl-server` round state machines with tens of thousands of simulated
//!   devices over simulated days (regenerates Figs. 5–9 and Table 1),
//! * [`training`] — the convergence scenario running *real* on-device
//!   training (`fl-device` runtime over `fl-data` stores) through the real
//!   `fl-server` Coordinator (regenerates the Sec. 8 next-word-prediction
//!   experiment and clients-per-round sweeps).

pub mod availability;
pub mod chaos;
pub mod des;
pub mod explore;
pub mod fleet;
pub mod multi;
pub mod netchaos;
pub mod network;
pub mod training;

pub use availability::DiurnalAvailability;
pub use chaos::{run_chaos_with_schedule, ChaosConfig, ChaosReport, Fault, FaultPlan};
pub use explore::{explore_chaos, explore_live_round, explore_secagg_live_round, ExploreReport};
pub use fleet::{FleetConfig, FleetReport};
pub use multi::{run_multi_tenant, MultiTenantConfig, MultiTenantReport};
pub use netchaos::{run_wire_chaos, run_wire_chaos_secagg, WireChaosReport};
pub use training::{TrainingRunConfig, TrainingRunReport};

/// Milliseconds per hour, used throughout the simulator.
pub const HOUR_MS: u64 = 3_600_000;
/// Milliseconds per day.
pub const DAY_MS: u64 = 24 * HOUR_MS;
