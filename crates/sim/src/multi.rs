//! The flow-control DES: FL populations sharing one device fleet and one
//! Selector layer, under seeded arrival disturbances.
//!
//! The paper's flow-control loop (Sec. 2.3) and its multi-tenancy
//! (Sec. 2.1/3) are one mechanism, and this engine runs both. Pace
//! steering spreads device check-ins, Selectors shed what still arrives
//! faster than capacity, and devices cooperate with jittered backoff and
//! per-population retry budgets.
//!
//! * **Device half** — every device is a [`DeviceTenancy`]: one lane (a
//!   `JobScheduler` cadence plus a `ConnectivityManager` retry budget) per
//!   population it registered, and a single active training session
//!   ("we avoid running training sessions on-device in parallel"). A
//!   refused session retries at its lane's retry decision; a served one
//!   comes back on the lane's cadence.
//! * **Server half** — the Selector layer comes from the live topology's
//!   blueprint. It holds each population against its own quota and admits
//!   against a shared fleet-wide budget with per-population fair-share
//!   reservations ([`GlobalAdmissionBudget::try_admit_for`]). Each
//!   population runs its own [`RoundState`] rounds, aligned to pace-window
//!   boundaries; a SecAgg population aggregates every round through a
//!   real [`MasterAggregator`].
//! * **Wire** — every check-in and report crosses an in-memory
//!   [`ChannelTransport`] as a framed message naming its population, and
//!   every rejection, configuration, and ack comes back framed.
//!
//! A scenario is populations × an optional fleet-wide [`ArrivalProfile`]
//! (thundering herd, diurnal ramp) × optional per-population flash crowds.
//! The single-population flow-control scenarios
//! ([`MultiTenantConfig::thundering_herd`], [`flash_crowd`],
//! [`secagg_flash_crowd`], [`diurnal_ramp`]) are the n=1 case of the same
//! engine that runs the multi-tenant fairness scenario
//! ([`MultiTenantConfig::flash_vs_steady`]).
//!
//! Each run audits:
//!
//! * the held-connection queue stays under its configured bound;
//! * after a herd or flash crowd, the fleet-wide shed rate converges back
//!   within [`CONVERGENCE_BUDGET_WINDOWS`] pace windows (not under a
//!   diurnal ramp, whose disturbance never ends, and only reported under
//!   a fleet-wide fair-share budget, which caps the storm on and off for
//!   as long as it over-demands) — while every later window still carries
//!   check-ins and devices retry within that budget, so a fleet gone
//!   silent cannot pass for one that recovered;
//! * every round that starts reaches a terminal state and every
//!   population commits at least once;
//! * a storm in one population does not starve another's accepts;
//! * check-ins are conserved across layers: the per-population ledgers
//!   sum to the aggregate, and each population's `CheckinRequest` frames
//!   on the wire equal the check-ins its Selectors were offered.
//!
//! Reports render byte-identically per seed (the chaos-harness idiom), so
//! a failing seed is a replayable bug report.
//!
//! [`flash_crowd`]: MultiTenantConfig::flash_crowd
//! [`secagg_flash_crowd`]: MultiTenantConfig::secagg_flash_crowd
//! [`diurnal_ramp`]: MultiTenantConfig::diurnal_ramp

use crate::des::EventQueue;
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, FlCheckpoint, FlPlan, PopulationName, RetryPolicy, RoundId};
use fl_device::conditions::DeviceConditions;
use fl_device::tenancy::DeviceTenancy;
use fl_ml::fixedpoint::FixedPointEncoder;
use fl_ml::rng;
use fl_server::aggregator::{AggregationPlan, MasterAggregator};
use fl_server::pace::PaceSteering;
use fl_server::round::{CheckinResponse, Phase, RoundEvent, RoundState};
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionBudget, GlobalAdmissionConfig};
use fl_server::topology::{SelectorSpec, TopologyBlueprint};
use fl_server::wire::{ChannelTransport, Transport, WireMessage, WireStats};
use rand::Rng;

/// Pace windows allowed between a disturbance's onset and shed-rate
/// convergence.
pub const CONVERGENCE_BUDGET_WINDOWS: u64 = 5;

/// When a [`ArrivalProfile::ThunderingHerd`] fires.
pub const HERD_AT_MS: u64 = 600_000;

/// Period of the [`ArrivalProfile::DiurnalRamp`] swing, in pace windows.
pub const RAMP_PERIOD_WINDOWS: u64 = 20;

/// Relative amplitude of the [`ArrivalProfile::DiurnalRamp`] swing.
pub const RAMP_AMPLITUDE: f64 = 0.6;

/// Model dimension of the SecAgg field vectors devices upload.
const SECAGG_DIM: usize = 4;

/// A flash crowd aimed at one population: `newcomers` devices that know
/// only this population appear at `at_ms` and check in unpaced within
/// one pace window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCrowd {
    /// When the crowd arrives.
    pub at_ms: u64,
    /// How many single-population newcomer devices it brings.
    pub newcomers: u64,
}

/// A fleet-wide arrival disturbance on top of every lane's cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProfile {
    /// At [`HERD_AT_MS`] every idle baseline device joins a synchronized
    /// reconnect (network-outage recovery, a shared alarm): its lanes are
    /// pulled in to that instant.
    ThunderingHerd,
    /// Sinusoidal day/night swing (Fig. 5), fed to the Selectors as the
    /// pace-steering activity factor `1 + a · sin(2πt / period)` with
    /// `a` = [`RAMP_AMPLITUDE`] and a period of [`RAMP_PERIOD_WINDOWS`]
    /// pace windows.
    DiurnalRamp,
}

impl ArrivalProfile {
    /// The pace-steering activity factor at `now_ms`.
    fn activity(self, now_ms: u64, window_ms: u64) -> f64 {
        match self {
            ArrivalProfile::DiurnalRamp => {
                let period_ms = (RAMP_PERIOD_WINDOWS * window_ms) as f64;
                1.0 + RAMP_AMPLITUDE * (now_ms as f64 / period_ms * std::f64::consts::TAU).sin()
            }
            ArrivalProfile::ThunderingHerd => 1.0,
        }
    }
}

/// One population (one learning problem) sharing the fleet.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Wire-visible population name.
    pub name: &'static str,
    /// Device-side job cadence for this population's lane (ms).
    pub period_ms: u64,
    /// Round configuration of this population's Coordinator.
    pub round: RoundConfig,
    /// Per-Selector held-connection quota for this population.
    pub quota: usize,
    /// Baseline device `i` registers this population iff
    /// `i % membership_stride == 0` (stride 1 = the whole fleet).
    pub membership_stride: u64,
    /// The disturbance, if this is the stormy tenant.
    pub flash: Option<FlashCrowd>,
    /// When set, every round aggregates through a real
    /// [`MasterAggregator`] under Secure Aggregation with this group
    /// threshold `k`: reports upload fixed-point field vectors in
    /// [`WireMessage::SecAggReport`] frames (the Sec. 6 bandwidth
    /// premium), and a cohort whose group falls below `k` surfaces as a
    /// per-shard or whole-round abort instead of a silent mis-sum.
    pub secagg_k: Option<usize>,
}

impl PopulationSpec {
    fn population(&self) -> PopulationName {
        PopulationName::new(self.name)
    }
}

/// Multi-tenant simulation parameters.
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// Baseline fleet size (newcomers from flash crowds come on top).
    pub devices: u64,
    /// Simulated duration (ms).
    pub horizon_ms: u64,
    /// Pace window = metric bucket width (ms).
    pub window_ms: u64,
    /// How often each population's Coordinator asks for forwards.
    pub forward_period_ms: u64,
    /// How many Selectors the load fans across (device id modulo).
    pub selectors: u64,
    /// Per-Selector local admission control (population-blind capacity
    /// protection; the per-population fairness lives in the quotas and
    /// the global budget).
    pub admission: AdmissionConfig,
    /// Shared fleet-wide budget with per-population fair-share
    /// reservations; `None` leaves admission local + quota only.
    pub global_admission: Option<GlobalAdmissionConfig>,
    /// Selector staleness TTL for held connections (ms).
    pub stale_after_ms: u64,
    /// Device retry discipline (per population lane).
    pub retry: RetryPolicy,
    /// Master seed.
    pub seed: u64,
    /// The tenants.
    pub populations: Vec<PopulationSpec>,
    /// The fleet-wide arrival disturbance, if any.
    pub arrival: Option<ArrivalProfile>,
}

/// Round configuration shared by every built-in scenario.
fn round(goal_count: usize) -> RoundConfig {
    RoundConfig {
        goal_count,
        overselection: 1.3,
        min_goal_fraction: 0.6,
        selection_timeout_ms: 60_000,
        report_window_ms: 60_000,
        device_cap_ms: 60_000,
    }
}

/// Device retry discipline shared by every built-in scenario.
fn retry() -> RetryPolicy {
    RetryPolicy {
        base_delay_ms: 30_000,
        multiplier: 2.0,
        max_delay_ms: 600_000,
        jitter_frac: 0.5,
        budget_per_window: 30,
        budget_window_ms: 600_000,
    }
}

impl MultiTenantConfig {
    /// The acceptance scenario: three tenants on a 4 000-device fleet —
    /// a fleet-wide steady population, a half-fleet population that takes
    /// a 12 000-newcomer flash crowd at window 10, and a quarter-fleet
    /// auxiliary population — under a shared fair-share budget. The
    /// storm must shed/defer in its own lane while the other two keep
    /// committing.
    pub fn flash_vs_steady(seed: u64) -> Self {
        MultiTenantConfig {
            devices: 4_000,
            horizon_ms: 30 * 60_000,
            window_ms: 60_000,
            forward_period_ms: 15_000,
            selectors: 1,
            admission: AdmissionConfig {
                accepts_per_sec: 200.0,
                burst: 400,
                max_inflight: 800,
            },
            // Fair share = 540 / 3 = 180 admits per window per tenant:
            // above the steady tenant's ~133/window demand (so fairness
            // costs it nothing) and far below what the storm wants.
            global_admission: Some(GlobalAdmissionConfig {
                window_ms: 60_000,
                max_admits_per_window: 540,
            }),
            stale_after_ms: 180_000,
            retry: retry(),
            seed,
            populations: vec![
                PopulationSpec {
                    name: "multi/steady",
                    period_ms: 1_800_000,
                    round: round(100),
                    quota: 260,
                    membership_stride: 1,
                    flash: None,
                    secagg_k: None,
                },
                PopulationSpec {
                    name: "multi/flash",
                    period_ms: 1_800_000,
                    round: round(50),
                    // A quota well above the storm's fair share, so the
                    // *budget* is what visibly caps the crowd.
                    quota: 400,
                    membership_stride: 2,
                    flash: Some(FlashCrowd {
                        at_ms: 600_000,
                        newcomers: 12_000,
                    }),
                    secagg_k: None,
                },
                PopulationSpec {
                    name: "multi/aux",
                    period_ms: 1_800_000,
                    round: round(25),
                    quota: 70,
                    membership_stride: 4,
                    flash: None,
                    secagg_k: None,
                },
            ],
            arrival: None,
        }
    }

    /// The same tenants with every disturbance removed — the fairness
    /// baseline a stormy run is compared against.
    pub fn without_flash(mut self) -> Self {
        for spec in &mut self.populations {
            spec.flash = None;
        }
        self
    }

    /// A single steady population — the n=1 degenerate case whose
    /// per-population series must equal the aggregate exactly.
    pub fn single(seed: u64) -> Self {
        let mut config = MultiTenantConfig::flash_vs_steady(seed);
        config.populations.truncate(1);
        config
    }

    /// The calibrated single-population flow-control base: one
    /// population `overload/train` on 8 000 devices (large enough that a
    /// 40-window horizon never drains the pool), 60 s pace windows, and
    /// local admission only. Each lane's period is the steady-state
    /// re-participation horizon `devices / selection_target` windows, so
    /// the paced fleet offers one selection target per window.
    fn overload(seed: u64) -> Self {
        let devices = 8_000;
        let window_ms = 60_000;
        let round = round(100);
        let period_ms = ((devices as f64 / round.selection_target().max(1) as f64).max(1.0)
            * window_ms as f64) as u64;
        MultiTenantConfig {
            devices,
            horizon_ms: 40 * window_ms,
            window_ms,
            forward_period_ms: 15_000,
            selectors: 1,
            admission: AdmissionConfig {
                accepts_per_sec: 50.0,
                burst: 200,
                max_inflight: 400,
            },
            global_admission: None,
            stale_after_ms: 180_000,
            retry: retry(),
            seed,
            populations: vec![PopulationSpec {
                name: "overload/train",
                period_ms,
                round,
                quota: 400,
                membership_stride: 1,
                flash: None,
                secagg_k: None,
            }],
            arrival: None,
        }
    }

    /// The thundering-herd scenario: the whole idle fleet — more than 10×
    /// a window's normal arrivals — reconnects at once at window 10.
    pub fn thundering_herd(seed: u64) -> Self {
        let mut config = MultiTenantConfig::overload(seed);
        config.arrival = Some(ArrivalProfile::ThunderingHerd);
        config
    }

    /// The flash-crowd scenario: a 10× population step at window 10.
    pub fn flash_crowd(seed: u64) -> Self {
        let mut config = MultiTenantConfig::overload(seed);
        config.populations[0].flash = Some(FlashCrowd {
            at_ms: 600_000,
            newcomers: config.devices * 9,
        });
        config
    }

    /// The flash crowd under Secure Aggregation with group threshold
    /// `k = 18`: storm-degraded cohorts spread too thin across the
    /// Aggregator groups must abort per shard, never mis-sum.
    pub fn secagg_flash_crowd(seed: u64) -> Self {
        let mut config = MultiTenantConfig::flash_crowd(seed);
        config.populations[0].secagg_k = Some(18);
        config
    }

    /// The diurnal-ramp scenario: a full activity swing over a 20-window
    /// period.
    pub fn diurnal_ramp(seed: u64) -> Self {
        let mut config = MultiTenantConfig::overload(seed);
        config.arrival = Some(ArrivalProfile::DiurnalRamp);
        config
    }

    /// Total device slots including every flash crowd's newcomers.
    fn total_devices(&self) -> u64 {
        self.devices
            + self
                .populations
                .iter()
                .filter_map(|p| p.flash.map(|f| f.newcomers))
                .sum::<u64>()
    }

    /// When the first discrete disturbance (a herd or a flash crowd)
    /// hits. `None` without one, and under a diurnal ramp, whose
    /// disturbance never ends — so there is no convergence to audit.
    fn onset_ms(&self) -> Option<u64> {
        let herd = match self.arrival {
            Some(ArrivalProfile::DiurnalRamp) => return None,
            Some(ArrivalProfile::ThunderingHerd) => Some(HERD_AT_MS),
            None => None,
        };
        self.populations
            .iter()
            .filter_map(|p| p.flash.map(|f| f.at_ms))
            .chain(herd)
            .min()
    }
}

/// One population's share of a [`MultiTenantReport`].
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    /// Population name.
    pub name: &'static str,
    /// Check-ins offered under this population (accepted + rejected).
    pub offered: u64,
    /// Check-ins accepted into this population's held set.
    pub accepted: u64,
    /// Check-ins shed (local admission + global budget) while claiming
    /// this population.
    pub shed: u64,
    /// Rejections that were quota/duplicate pacing, not shedding.
    pub rejected_other: u64,
    /// Admits charged to this population on the shared global budget.
    pub budget_admits: u64,
    /// Sheds charged to this population by the shared global budget.
    pub budget_sheds: u64,
    /// Check-ins this population's lanes made while still carrying an
    /// unresolved rejection: the retries that actually came back (the
    /// retries *pushed* are the telemetry panel's `retries` series).
    pub retried: u64,
    /// Lanes that exhausted a retry-budget window at least once.
    pub budget_exhaustions: u64,
    /// Rounds begun by this population's Coordinator.
    pub rounds_started: u64,
    /// Rounds that reached a terminal state.
    pub rounds_terminal: u64,
    /// Rounds committed.
    pub committed: u64,
    /// Rounds abandoned (cleanly).
    pub abandoned: u64,
}

/// Outcome of one run: per-population outcomes in spec order,
/// fleet-level counters, and the flow-control/fairness audit.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// The master seed.
    pub seed: u64,
    /// Per-population outcomes, in spec order.
    pub populations: Vec<PopulationOutcome>,
    /// Aggregate accepted check-ins across every population.
    pub accepted_total: u64,
    /// Aggregate rejected check-ins across every population.
    pub rejected_total: u64,
    /// Times a due population lost the on-device single-session
    /// arbitration and was deferred through its own backoff.
    pub arbitration_losses: u64,
    /// Deepest the shared held-connection queue ever got.
    pub max_queue_depth: usize,
    /// The configured bound it must stay under.
    pub queue_bound: usize,
    /// Bytes-on-wire counters from the device end: every check-in and
    /// report crosses the in-memory wire as a framed v3 message carrying
    /// its population.
    pub wire: WireStats,
    /// The subset of sheds caused by the shared fleet-wide budget (zero
    /// when no global budget is configured).
    pub shed_global: u64,
    /// Stale held connections the Selectors evicted.
    pub evicted: u64,
    /// The closed-loop population estimate, summed across Selectors, at
    /// the horizon.
    pub population_estimate_final: u64,
    /// The highest the summed estimate ever got — a flash crowd may
    /// overshoot before the capped EWMA settles, but only boundedly (see
    /// `PaceControllerConfig::max_growth_per_window`).
    pub population_estimate_peak: u64,
    /// Shed-rate monitor alerts raised (deviation + ceiling).
    pub alerts: usize,
    /// Windows from the first herd or flash crowd until the fleet-wide
    /// shed rate settled (`None`: no such disturbance, or it never
    /// settled).
    pub convergence_windows: Option<u64>,
    /// SecAgg Aggregator groups stranded below threshold in rounds that
    /// still committed from the surviving groups.
    pub secagg_shard_aborts: u64,
    /// Committed rounds whose aggregate was lost because *every* SecAgg
    /// group fell below threshold.
    pub secagg_round_aborts: u64,
    /// The per-population accept/shed/retry dashboard panel
    /// ([`OverloadMetrics::render_population_panel`]), captured at the
    /// horizon — deterministic per seed like everything else here.
    pub telemetry_panel: String,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl MultiTenantReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The outcome of the named population, if it ran.
    pub fn outcome(&self, name: &str) -> Option<&PopulationOutcome> {
        self.populations.iter().find(|p| p.name == name)
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seed={} populations={}\n\
             accepted_total={} rejected_total={} arbitration_losses={}\n\
             max_queue_depth={} queue_bound={}\n\
             wire up_frames={} up_bytes={} down_frames={} down_bytes={}\n\
             shed_global={} evicted={} alerts={} convergence_windows={}\n\
             population_estimate_final={} population_estimate_peak={}\n\
             secagg_shard_aborts={} secagg_round_aborts={}\n",
            self.seed,
            self.populations.len(),
            self.accepted_total,
            self.rejected_total,
            self.arbitration_losses,
            self.max_queue_depth,
            self.queue_bound,
            self.wire.frames_sent,
            self.wire.bytes_sent,
            self.wire.frames_received,
            self.wire.bytes_received,
            self.shed_global,
            self.evicted,
            self.alerts,
            self.convergence_windows
                .map_or_else(|| "none".into(), |w| w.to_string()),
            self.population_estimate_final,
            self.population_estimate_peak,
            self.secagg_shard_aborts,
            self.secagg_round_aborts,
        );
        for p in &self.populations {
            out.push_str(&format!(
                "pop {} offered={} accepted={} shed={} rejected_other={} \
                 budget_admits={} budget_sheds={} retried={} exhaustions={} \
                 rounds={}:{} committed={} abandoned={}\n",
                p.name,
                p.offered,
                p.accepted,
                p.shed,
                p.rejected_other,
                p.budget_admits,
                p.budget_sheds,
                p.retried,
                p.budget_exhaustions,
                p.rounds_started,
                p.rounds_terminal,
                p.committed,
                p.abandoned,
            ));
        }
        out.push_str(&self.telemetry_panel);
        out.push_str(&format!("violations={}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str("violation: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// The fixed seed set swept by `scripts/check.sh` and the tier-1
/// multi-tenant tests.
pub fn default_seeds() -> Vec<u64> {
    vec![7, 19, 41]
}

/// Runs [`run_multi_tenant`] for one config constructor over a seed set.
pub fn sweep(
    seeds: &[u64],
    make: impl Fn(u64) -> MultiTenantConfig,
) -> Vec<MultiTenantReport> {
    seeds.iter().map(|&s| run_multi_tenant(&make(s))).collect()
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A device's wake chain fires: resolve a stale held slot, then try
    /// to start whichever population's session the tenancy arbitrates.
    Wake { device: u64, gen: u32 },
    /// Every population's Coordinator asks its Selector slice for
    /// forwards.
    Forward,
    /// A selected device finishes training + upload for `pop`.
    Report { device: u64, pop: usize, round_seq: u64 },
    /// Round phase timeout check for `pop`.
    RoundTick { pop: usize, round_seq: u64 },
    /// Per-window staleness eviction + queue-depth sampling.
    WindowSample,
    /// The thundering herd fires.
    HerdWake,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DevPhase {
    /// Not connected; the wake chain is pending.
    Idle,
    /// Held in a Selector's queue for population `pop`.
    Held { pop: usize },
    /// Forwarded into `pop`'s active round; awaiting report.
    InRound { pop: usize },
}

struct Device {
    tenancy: DeviceTenancy,
    phase: DevPhase,
    /// Wake-chain generation: a `Wake` whose `gen` does not match is
    /// stale (superseded) and dropped — one live chain per device.
    gen: u32,
}

struct PopRound {
    seq: u64,
    state: RoundState,
    /// Rounds open at pace-window boundaries (the rendezvous cadence).
    open_at_ms: u64,
    /// Devices forwarded before Configuration fired.
    pending: Vec<u64>,
    /// The round's SecAgg aggregation subtree (SecAgg populations only).
    master: Option<MasterAggregator>,
}

impl PopRound {
    /// Round `seq` of `spec`'s population, opening at `open_at_ms`; a
    /// SecAgg population gets a fresh aggregation subtree per round, as
    /// in the live topology.
    fn begin(spec: &PopulationSpec, seq: u64, open_at_ms: u64, seed: u64) -> Self {
        PopRound {
            seq,
            state: RoundState::begin(RoundId(seq + 1), spec.round, open_at_ms),
            open_at_ms,
            pending: Vec::new(),
            master: spec.secagg_k.map(|k| {
                MasterAggregator::new(
                    AggregationPlan::with_secagg(SECAGG_DIM, 33, k),
                    CodecSpec::Identity,
                    spec.round.selection_target().max(1),
                    seed.wrapping_add(seq),
                )
            }),
        }
    }
}

#[derive(Default)]
struct PopCounters {
    rounds_started: u64,
    rounds_terminal: u64,
    committed: u64,
    abandoned: u64,
    secagg_shard_aborts: u64,
    secagg_round_aborts: u64,
}

impl PopCounters {
    /// Books a finished round. A committed SecAgg round finalizes its
    /// master: a storm-degraded cohort spreads too thin across the
    /// groups, so shards below `k` abort while surviving shards still
    /// merge, and if nothing survives the aggregate is lost whole.
    /// Returns the round's shard aborts.
    fn finish(&mut self, outcome: &RoundOutcome, master: Option<MasterAggregator>) -> usize {
        self.rounds_terminal += 1;
        if !outcome.is_committed() {
            self.abandoned += 1;
            return 0;
        }
        self.committed += 1;
        let Some(master) = master else { return 0 };
        match master.finalize(&[0.0; SECAGG_DIM], &[], &[]) {
            Ok(out) => {
                self.secagg_shard_aborts += out.shard_aborts as u64;
                out.shard_aborts
            }
            Err(_) => {
                self.secagg_round_aborts += 1;
                0
            }
        }
    }
}

/// The earliest any of the device's lanes comes due, clamped into the
/// future so a wake chain always advances.
fn next_wake_ms(tenancy: &DeviceTenancy, now_ms: u64) -> u64 {
    tenancy
        .populations()
        .iter()
        .filter_map(|p| tenancy.lane(p).map(|l| l.scheduler.next_due_ms()))
        .min()
        .unwrap_or(u64::MAX)
        .max(now_ms + 1)
}

/// Windows from `onset_window` until the shed-fraction series settles: the
/// first window from which every later window stays within `tol` of the
/// final steady level (mean of the last three windows).
fn shed_convergence(fractions: &[f64], onset_window: usize, tol: f64) -> Option<u64> {
    if fractions.len() < onset_window + 4 {
        return None;
    }
    let tail = &fractions[fractions.len() - 3..];
    let steady = tail.iter().sum::<f64>() / tail.len() as f64;
    (onset_window..fractions.len())
        .find(|&w| fractions[w..].iter().all(|f| (f - steady).abs() <= tol))
        .map(|w| (w - onset_window) as u64)
}

/// Drives one seeded scenario against the real Selector/round/tenancy
/// stack and audits the flow-control and fairness invariants. See the
/// module docs.
pub fn run_multi_tenant(config: &MultiTenantConfig) -> MultiTenantReport {
    assert!(
        !config.populations.is_empty(),
        "a multi-tenant run needs at least one population"
    );
    let npop = config.populations.len();
    let names: Vec<PopulationName> =
        config.populations.iter().map(|p| p.population()).collect();
    let targets: Vec<usize> = config
        .populations
        .iter()
        .map(|p| p.round.selection_target().max(1))
        .collect();
    let total_target: u64 = targets.iter().map(|&t| t as u64).sum();
    let total = config.total_devices();

    // The Selector layer comes from the same blueprint the live
    // multi-tenant topology builds from; per-population quotas are set
    // the way `spawn_multi_topology` sets them through `with_route`.
    let n = config.selectors.max(1);
    let pace = PaceSteering::new(config.window_ms, total_target.max(1));
    let mut blueprint = TopologyBlueprint::new(
        (0..n)
            .map(|i| {
                SelectorSpec::new(
                    pace,
                    config.devices / n,
                    config.seed ^ (0x7E2 + i),
                    config.admission.max_inflight,
                )
                .with_admission(config.admission)
                .with_staleness(config.stale_after_ms)
            })
            .collect(),
    );
    if let Some(global) = config.global_admission {
        blueprint = blueprint.with_global_admission(global);
    }
    let budget: Option<GlobalAdmissionBudget> = blueprint.build_global_budget();
    let mut selectors: Vec<Selector> = blueprint.build_selectors(budget.as_ref());
    for selector in &mut selectors {
        for (spec, name) in config.populations.iter().zip(&names) {
            selector.set_population_quota(name.clone(), spec.quota);
        }
    }
    if let Some(budget) = &budget {
        for name in &names {
            budget.register_population(name);
        }
    }

    let mut rng = rng::seeded(config.seed ^ 0x3A9);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut metrics = OverloadMetrics::new(
        OverloadMonitorConfig {
            bucket_ms: config.window_ms,
            ..OverloadMonitorConfig::default()
        },
        0,
    );

    // Baseline devices register every population whose stride divides
    // their id; flash newcomers know only their own population.
    let mut devices: Vec<Device> = Vec::with_capacity(total as usize);
    for i in 0..config.devices {
        let mut tenancy = DeviceTenancy::new();
        for (spec, name) in config.populations.iter().zip(&names) {
            if i % spec.membership_stride.max(1) == 0 {
                tenancy.register(name.clone(), spec.period_ms, config.retry);
            }
        }
        devices.push(Device {
            tenancy,
            phase: DevPhase::Idle,
            gen: 0,
        });
    }
    let mut newcomer_base = config.devices;
    let mut newcomer_ranges: Vec<(usize, u64, u64)> = Vec::new();
    for (p, (spec, name)) in config.populations.iter().zip(&names).enumerate() {
        if let Some(flash) = spec.flash {
            for _ in 0..flash.newcomers {
                let mut tenancy = DeviceTenancy::new();
                tenancy.register(name.clone(), spec.period_ms, config.retry);
                devices.push(Device {
                    tenancy,
                    phase: DevPhase::Idle,
                    gen: 0,
                });
            }
            newcomer_ranges.push((p, newcomer_base, newcomer_base + flash.newcomers));
            newcomer_base += flash.newcomers;
        }
    }

    // Bootstrap: the baseline fleet's first wakes spread over the
    // shortest lane period (steady-state pacing from t=0); newcomers
    // arrive unpaced within one window of their crowd's onset.
    let spread = config
        .populations
        .iter()
        .map(|p| p.period_ms)
        .min()
        .unwrap_or(config.window_ms)
        .max(1);
    for d in 0..config.devices {
        let at = rng.random_range(0..spread);
        devices[d as usize].gen += 1;
        let gen = devices[d as usize].gen;
        queue.schedule_at(at, Event::Wake { device: d, gen });
    }
    for &(p, lo, hi) in &newcomer_ranges {
        let at_ms = match config.populations[p].flash {
            Some(flash) => flash.at_ms,
            None => continue,
        };
        for d in lo..hi {
            let at = at_ms + rng.random_range(0..config.window_ms.max(1));
            devices[d as usize].gen += 1;
            let gen = devices[d as usize].gen;
            queue.schedule_at(at, Event::Wake { device: d, gen });
        }
    }
    if config.arrival == Some(ArrivalProfile::ThunderingHerd) {
        queue.schedule_at(HERD_AT_MS, Event::HerdWake);
    }
    queue.schedule_at(config.window_ms, Event::WindowSample);
    queue.schedule_at(config.forward_period_ms, Event::Forward);

    let mut rounds: Vec<PopRound> = config
        .populations
        .iter()
        .map(|spec| PopRound::begin(spec, 0, 0, config.seed))
        .collect();
    let mut counters: Vec<PopCounters> = (0..npop)
        .map(|_| PopCounters {
            rounds_started: 1,
            ..PopCounters::default()
        })
        .collect();
    for (p, spec) in config.populations.iter().enumerate() {
        queue.schedule_at(
            spec.round.selection_timeout_ms,
            Event::RoundTick { pop: p, round_seq: 0 },
        );
    }

    let mut max_queue_depth: usize = 0;
    let mut population_estimate_peak: u64 = 0;
    // `CheckinRequest` frames each population sent up the wire — the
    // device-side half of the cross-layer conservation check.
    let mut checkins_sent: Vec<u64> = vec![0; npop];
    // Retried check-ins per population, and fleet-wide check-ins and
    // retries per pace window (the recovery audit's evidence).
    let mut retried: Vec<u64> = vec![0; npop];
    let windows = (config.horizon_ms / config.window_ms + 1) as usize;
    let mut offered_by_window: Vec<u64> = vec![0; windows];
    let mut retried_by_window: Vec<u64> = vec![0; windows];
    let mut violations: Vec<String> = Vec::new();
    let fixedpoint = FixedPointEncoder::default_for_updates();

    // The in-memory wire: every check-in and report crosses it as a
    // framed v3 `WireMessage` carrying its population, every rejection /
    // configuration / ack comes back framed — the same protocol the
    // live multi-tenant topology speaks.
    let (device_wire, server_wire) = ChannelTransport::pair();
    // One shared Configuration payload per population (this harness
    // models flow control, not learning).
    let config_msgs: Vec<WireMessage> = config
        .populations
        .iter()
        .zip(&names)
        .map(|(spec, name)| WireMessage::PlanAndCheckpoint {
            plan: Box::new(FlPlan::standard_training(
                ModelSpec::Logistic {
                    dim: 4,
                    classes: 2,
                    seed: 1,
                },
                1,
                8,
                0.1,
                CodecSpec::Identity,
            )),
            checkpoint: Box::new(FlCheckpoint::new(spec.name, RoundId(1), vec![0.0; 10])),
            population: name.clone(),
        })
        .collect();

    macro_rules! wire_uplink {
        ($now:expr, $msg:expr) => {{
            if device_wire.send($msg).is_err() {
                violations.push(format!("t={}: wire uplink send failed", $now));
                None
            } else {
                match server_wire.try_recv() {
                    Ok(Some(decoded)) => Some(decoded),
                    _ => {
                        violations.push(format!("t={}: frame lost on the uplink", $now));
                        None
                    }
                }
            }
        }};
    }

    macro_rules! wire_downlink {
        ($msg:expr) => {{
            let _ = server_wire.send($msg);
            while let Ok(Some(_)) = device_wire.try_recv() {}
        }};
    }

    macro_rules! schedule_wake {
        ($dev:expr, $at:expr) => {{
            let d = &mut devices[$dev as usize];
            d.gen += 1;
            let gen = d.gen;
            queue.schedule_at($at, Event::Wake { device: $dev, gen });
        }};
    }

    // Routes a framed rejection/refusal through the device's own
    // population lane (its backoff + budget), finishes the session, and
    // resumes the wake chain at whatever lane comes due first.
    macro_rules! handle_rejection {
        ($dev:expr, $pop:expr, $now:expr, $reply:expr) => {{
            metrics.record_retry_for(&names[$pop], $now);
            let _ = devices[$dev as usize]
                .tenancy
                .on_server_reply(&names[$pop], $now, $reply, &mut rng);
            devices[$dev as usize].tenancy.finish_session();
            let at = next_wake_ms(&devices[$dev as usize].tenancy, $now);
            schedule_wake!($dev, at);
        }};
    }

    while let Some((now, event)) = queue.next_before(config.horizon_ms) {
        match event {
            Event::Wake { device, gen } => {
                if devices[device as usize].gen != gen {
                    continue;
                }
                match devices[device as usize].phase {
                    DevPhase::InRound { .. } => continue,
                    DevPhase::Held { .. } => {
                        // The fallback wake fired while still held: the
                        // slot went stale without a forward. Give the
                        // connection up and let the lane's cadence carry
                        // the next attempt.
                        selectors[(device % n) as usize].on_disconnect(DeviceId(device));
                        devices[device as usize].tenancy.finish_session();
                        devices[device as usize].phase = DevPhase::Idle;
                    }
                    DevPhase::Idle => {}
                }
                let winner = devices[device as usize].tenancy.start_session(
                    now,
                    DeviceConditions::eligible(),
                    &mut rng,
                );
                let Some(winner) = winner else {
                    let at = next_wake_ms(&devices[device as usize].tenancy, now);
                    schedule_wake!(device, at);
                    continue;
                };
                let pop = match names.iter().position(|name| *name == winner) {
                    Some(pop) => pop,
                    None => {
                        violations.push(format!("t={now}: unknown winner population"));
                        devices[device as usize].tenancy.finish_session();
                        continue;
                    }
                };
                // The check-in crosses the wire framed with its
                // population; the Selector acts only on what it decoded.
                checkins_sent[pop] += 1;
                let window = (now / config.window_ms) as usize;
                offered_by_window[window] += 1;
                if devices[device as usize]
                    .tenancy
                    .lane(&names[pop])
                    .is_some_and(|lane| lane.connectivity.consecutive_failures() > 0)
                {
                    retried[pop] += 1;
                    retried_by_window[window] += 1;
                }
                let Some(WireMessage::CheckinRequest {
                    device: wired,
                    population: wired_pop,
                }) = wire_uplink!(
                    now,
                    &WireMessage::CheckinRequest {
                        device: DeviceId(device),
                        population: names[pop].clone(),
                    }
                )
                else {
                    devices[device as usize].tenancy.finish_session();
                    continue;
                };
                let activity = config
                    .arrival
                    .map_or(1.0, |a| a.activity(now, config.window_ms));
                let selector = &mut selectors[(wired.0 % n) as usize];
                let shed_before = selector.shed_total_for(&wired_pop);
                match selector.on_checkin_for(&wired_pop, wired, now, activity) {
                    CheckinDecision::Accept => {
                        metrics.record_accept_for(&wired_pop, now);
                        devices[device as usize].phase = DevPhase::Held { pop };
                        devices[device as usize].tenancy.on_success(&names[pop], now);
                        max_queue_depth = max_queue_depth.max(selector.connected_count());
                        // Fallback wake: if never forwarded, the held
                        // slot goes stale and the chain resumes.
                        let jitter = rng.random_range(0..config.window_ms.max(1));
                        schedule_wake!(device, now + config.stale_after_ms + jitter);
                    }
                    CheckinDecision::Reject { retry_at_ms } => {
                        let shed = selector.shed_total_for(&wired_pop) > shed_before;
                        let reply = if shed {
                            metrics.record_shed_for(&wired_pop, now);
                            WireMessage::Shed {
                                retry_at_ms,
                                population: wired_pop.clone(),
                            }
                        } else {
                            WireMessage::ComeBackLater {
                                retry_at_ms,
                                population: wired_pop.clone(),
                            }
                        };
                        wire_downlink!(&reply);
                        handle_rejection!(device, pop, now, &reply);
                    }
                }
            }
            Event::Forward => {
                for p in 0..npop {
                    if rounds[p].state.phase() != Phase::Selection
                        || now < rounds[p].open_at_ms
                    {
                        continue;
                    }
                    let have = rounds[p].pending.len();
                    let mut need = targets[p].saturating_sub(have);
                    for s in 0..selectors.len() {
                        if need == 0 {
                            break;
                        }
                        // Population-filtered forwarding: tenants never
                        // receive each other's devices.
                        let forwarded = selectors[s].forward_devices_for(&names[p], need, now);
                        need = need.saturating_sub(forwarded.len());
                        for d in forwarded {
                            match rounds[p].state.on_checkin(d, now) {
                                CheckinResponse::Selected => {
                                    wire_downlink!(&config_msgs[p]);
                                    devices[d.0 as usize].phase = DevPhase::InRound { pop: p };
                                    rounds[p].pending.push(d.0);
                                }
                                CheckinResponse::AlreadySelected => {}
                                CheckinResponse::NotSelecting => {
                                    let reply = WireMessage::ComeBackLater {
                                        retry_at_ms: now,
                                        population: names[p].clone(),
                                    };
                                    wire_downlink!(&reply);
                                    devices[d.0 as usize].phase = DevPhase::Idle;
                                    handle_rejection!(d.0, p, now, &reply);
                                }
                            }
                        }
                    }
                }
                if now + config.forward_period_ms <= config.horizon_ms {
                    queue.schedule_in(config.forward_period_ms, Event::Forward);
                }
            }
            Event::Report { device, pop, round_seq } => {
                devices[device as usize].phase = DevPhase::Idle;
                let weight = 1 + device % 7;
                let loss = 0.9 - (device % 10) as f64 * 0.02;
                let accuracy = 0.5 + (device % 10) as f64 * 0.03;
                let round_key = rounds[pop].state.round;
                let population = names[pop].clone();
                let report_msg = if config.populations[pop].secagg_k.is_some() {
                    // SecAgg upload: the fixed-point field vector, 8
                    // bytes per coordinate on the measured wire.
                    let update = [0.1 + (device % 5) as f32 * 0.01; SECAGG_DIM];
                    let Ok(field_vector) = fixedpoint.encode(&update) else {
                        violations.push(format!("t={now}: fixed-point encode failed"));
                        devices[device as usize].tenancy.finish_session();
                        continue;
                    };
                    WireMessage::SecAggReport {
                        device: DeviceId(device),
                        round: round_key,
                        attempt: 1,
                        field_vector,
                        weight,
                        loss,
                        accuracy,
                        population,
                    }
                } else {
                    WireMessage::UpdateReport {
                        device: DeviceId(device),
                        round: round_key,
                        attempt: 1,
                        update_bytes: vec![0u8; 4],
                        weight,
                        loss,
                        accuracy,
                        population,
                    }
                };
                let (wired, field) = match wire_uplink!(now, &report_msg) {
                    Some(WireMessage::UpdateReport { device, .. }) => (device, None),
                    Some(WireMessage::SecAggReport {
                        device,
                        field_vector,
                        weight,
                        ..
                    }) => (device, Some((field_vector, weight))),
                    _ => {
                        devices[device as usize].tenancy.finish_session();
                        continue;
                    }
                };
                let accepted = round_seq == rounds[pop].seq;
                if accepted {
                    let _ = rounds[pop].state.on_report(wired, now);
                    if let (Some(master), Some((field_vector, weight))) =
                        (rounds[pop].master.as_mut(), field)
                    {
                        // Drop-not-crash: a malformed contribution costs
                        // only itself.
                        let _ = master.accept_field(wired, &field_vector, weight);
                    }
                }
                let ack = WireMessage::ReportAck {
                    accepted,
                    round: round_key,
                    attempt: 1,
                    population: names[pop].clone(),
                };
                wire_downlink!(&ack);
                if accepted {
                    devices[device as usize].tenancy.on_success(&names[pop], now);
                    devices[device as usize].tenancy.finish_session();
                    let at = next_wake_ms(&devices[device as usize].tenancy, now);
                    schedule_wake!(device, at);
                } else {
                    // A refusing ack (the round moved on) charges only
                    // this population's lane.
                    handle_rejection!(device, pop, now, &ack);
                }
            }
            Event::RoundTick { pop, round_seq } => {
                if round_seq == rounds[pop].seq {
                    rounds[pop].state.on_tick(now);
                    match rounds[pop].state.phase() {
                        Phase::Reporting => queue.schedule_in(
                            config.populations[pop].round.report_window_ms.min(10_000),
                            Event::RoundTick { pop, round_seq },
                        ),
                        Phase::Selection => queue.schedule_in(
                            config.populations[pop].round.selection_timeout_ms,
                            Event::RoundTick { pop, round_seq },
                        ),
                        _ => {}
                    }
                }
            }
            Event::WindowSample => {
                for s in selectors.iter_mut() {
                    s.evict_stale(now);
                    max_queue_depth = max_queue_depth.max(s.connected_count());
                }
                let estimate: u64 = selectors
                    .iter()
                    .map(|s| s.pace_controller().population_estimate())
                    .sum();
                population_estimate_peak = population_estimate_peak.max(estimate);
                if now + config.window_ms <= config.horizon_ms {
                    queue.schedule_in(config.window_ms, Event::WindowSample);
                }
            }
            Event::HerdWake => {
                // The idle baseline fleet reconnects at once. The wake
                // reaches each device through its lanes, so the
                // session still goes through the tenancy's arbitration.
                for d in 0..config.devices {
                    if devices[d as usize].phase == DevPhase::Idle {
                        for name in &names {
                            devices[d as usize].tenancy.pull_in(name, now);
                        }
                        schedule_wake!(d, now);
                    }
                }
            }
        }

        for p in 0..npop {
            for round_event in rounds[p].state.drain_events() {
                match round_event {
                    RoundEvent::Configured { at_ms, .. } => {
                        let seq = rounds[p].seq;
                        let pending: Vec<u64> = rounds[p].pending.drain(..).collect();
                        for d in pending {
                            let latency = 10_000 + rng.random_range(0..30_000u64);
                            queue.schedule_at(
                                at_ms + latency,
                                Event::Report { device: d, pop: p, round_seq: seq },
                            );
                        }
                        queue.schedule_in(10_000, Event::RoundTick { pop: p, round_seq: seq });
                    }
                    RoundEvent::Finished { at_ms, outcome } => {
                        let aborts = counters[p].finish(&outcome, rounds[p].master.take());
                        for _ in 0..aborts {
                            metrics.record_secagg_abort(at_ms);
                        }
                        if let RoundOutcome::AbandonedInSelection { .. } = outcome {
                            // Forwarded-but-unconfigured devices retry
                            // through their own lane.
                            let orphans: Vec<u64> = rounds[p].pending.drain(..).collect();
                            let reply = WireMessage::ComeBackLater {
                                retry_at_ms: at_ms,
                                population: names[p].clone(),
                            };
                            for d in orphans {
                                devices[d as usize].phase = DevPhase::Idle;
                                handle_rejection!(d, p, at_ms, &reply);
                            }
                        }
                        let seq = rounds[p].seq + 1;
                        counters[p].rounds_started += 1;
                        let open_at = (at_ms / config.window_ms + 1) * config.window_ms;
                        let spec = &config.populations[p];
                        rounds[p] = PopRound::begin(spec, seq, open_at, config.seed);
                        queue.schedule_at(
                            open_at + spec.round.selection_timeout_ms,
                            Event::RoundTick { pop: p, round_seq: seq },
                        );
                    }
                }
            }
        }
    }

    // Post-horizon drain: every population's last round must still reach
    // a terminal state — ticking past every window forces the state
    // machine to resolve (commit on what it has, or abandon cleanly).
    for (p, spec) in config.populations.iter().enumerate() {
        let round = &mut rounds[p];
        let mut drain_t = config.horizon_ms;
        for _ in 0..4 {
            if round.state.phase().is_terminal() {
                break;
            }
            drain_t += spec.round.selection_timeout_ms
                + spec.round.report_window_ms
                + spec.round.device_cap_ms
                + 1;
            round.state.on_tick(drain_t);
            for round_event in round.state.drain_events() {
                if let RoundEvent::Finished { outcome, .. } = round_event {
                    counters[p].finish(&outcome, round.master.take());
                }
            }
        }
    }

    metrics.finalize(config.horizon_ms);

    let (accepted_total, rejected_total) = selectors
        .iter()
        .map(|s| s.counters())
        .fold((0, 0), |(a, r), (sa, sr)| (a + sa, r + sr));

    let outcomes: Vec<PopulationOutcome> = config
        .populations
        .iter()
        .enumerate()
        .map(|(p, spec)| {
            let name = &names[p];
            let (accepted, rejected) = selectors
                .iter()
                .map(|s| s.counters_for(name))
                .fold((0, 0), |(a, r), (sa, sr)| (a + sa, r + sr));
            let shed: u64 = selectors.iter().map(|s| s.shed_total_for(name)).sum();
            let budget_exhaustions: u64 = devices
                .iter()
                .filter_map(|d| d.tenancy.lane(name))
                .filter(|l| l.connectivity.budget_exhaustions_total() > 0)
                .count() as u64;
            PopulationOutcome {
                name: spec.name,
                offered: accepted + rejected,
                accepted,
                shed,
                rejected_other: rejected.saturating_sub(shed),
                budget_admits: budget
                    .as_ref()
                    .map(|b| b.admitted_total_for(name))
                    .unwrap_or(0),
                budget_sheds: budget
                    .as_ref()
                    .map(|b| b.shed_total_for(name))
                    .unwrap_or(0),
                retried: retried[p],
                budget_exhaustions,
                rounds_started: counters[p].rounds_started,
                rounds_terminal: counters[p].rounds_terminal,
                committed: counters[p].committed,
                abandoned: counters[p].abandoned,
            }
        })
        .collect();

    // Conservation: the per-population ledgers must sum exactly to the
    // aggregate — the multi-tenant bookkeeping loses no check-in.
    let accepted_by_pop: u64 = outcomes.iter().map(|o| o.accepted).sum();
    let rejected_by_pop: u64 = outcomes.iter().map(|o| o.offered - o.accepted).sum();
    if accepted_by_pop != accepted_total {
        violations.push(format!(
            "per-population accepts {accepted_by_pop} != aggregate {accepted_total}"
        ));
    }
    if rejected_by_pop != rejected_total {
        violations.push(format!(
            "per-population rejects {rejected_by_pop} != aggregate {rejected_total}"
        ));
    }
    // Cross-layer conservation: every check-in frame a device sent is a
    // check-in the Selector layer decided, under the same population.
    for (o, &sent) in outcomes.iter().zip(&checkins_sent) {
        if o.offered != sent {
            violations.push(format!(
                "population {}: {sent} check-in frames sent but the Selectors were offered {}",
                o.name, o.offered
            ));
        }
    }
    if max_queue_depth > config.admission.max_inflight {
        violations.push(format!(
            "queue depth {max_queue_depth} exceeded bound {}",
            config.admission.max_inflight
        ));
    }
    for o in &outcomes {
        if o.rounds_terminal != o.rounds_started {
            violations.push(format!(
                "population {}: {} of {} started rounds never reached a terminal state",
                o.name,
                o.rounds_started - o.rounds_terminal.min(o.rounds_started),
                o.rounds_started
            ));
        }
        if o.committed == 0 {
            violations.push(format!("population {} never committed a round", o.name));
        }
    }
    // Fairness: after any flash crowd's onset, every *other* population
    // must still be getting accepts — starvation of a steady tenant by a
    // stormy one is the regression this harness exists to catch.
    for spec in &config.populations {
        let Some(flash) = spec.flash else { continue };
        let onset_bucket = (flash.at_ms / config.window_ms) as usize;
        for (other, name) in config.populations.iter().zip(&names) {
            if other.name == spec.name {
                continue;
            }
            let post_onset: f64 = metrics
                .population_series(name)
                .map(|series| series.accepts.sums().iter().skip(onset_bucket).sum())
                .unwrap_or(0.0);
            if post_onset == 0.0 {
                violations.push(format!(
                    "population {} starved after the flash crowd in {}",
                    other.name, spec.name
                ));
            }
        }
    }
    // Recovery: after a herd or flash crowd the fleet-wide shed rate
    // must settle within the budget. Under a fleet-wide fair-share budget
    // the storm stays capped for as long as it over-demands, so the shed
    // rate follows that cap binding on and off; there the fairness audits
    // above are the invariant, and convergence is only reported.
    let onset_window = config.onset_ms().map(|at| (at / config.window_ms) as usize);
    let convergence_windows =
        onset_window.and_then(|w| shed_convergence(metrics.shed_fractions(), w, 0.15));
    if let Some(onset) = onset_window {
        match convergence_windows {
            _ if config.global_admission.is_some() => {}
            Some(w) if w <= CONVERGENCE_BUDGET_WINDOWS => {}
            Some(w) => violations.push(format!(
                "shed rate took {w} windows to converge (budget {CONVERGENCE_BUDGET_WINDOWS})"
            )),
            None => violations.push("shed rate never converged".into()),
        }
        // A silent window closes at a shed fraction of 0, so convergence
        // only means recovery while the fleet keeps checking in and the
        // devices turned away at the onset come back on their retries.
        let last = (config.horizon_ms.saturating_sub(1) / config.window_ms) as usize;
        if let Some(w) = (onset + 1..=last).find(|&w| offered_by_window[w] == 0) {
            violations.push(format!(
                "window {w} after the onset saw no check-ins: the fleet went silent"
            ));
        }
        let budget_end = (onset + CONVERGENCE_BUDGET_WINDOWS as usize).min(last);
        if retried_by_window
            .get(onset + 1..=budget_end)
            .is_some_and(|after| after.iter().all(|&r| r == 0))
        {
            violations.push(format!(
                "no device retried within {CONVERGENCE_BUDGET_WINDOWS} windows of the onset"
            ));
        }
    }

    let arbitration_losses: u64 = devices.iter().map(|d| d.tenancy.arbitration_losses()).sum();
    let population_estimate_final: u64 = selectors
        .iter()
        .map(|s| s.pace_controller().population_estimate())
        .sum();

    MultiTenantReport {
        seed: config.seed,
        populations: outcomes,
        accepted_total,
        rejected_total,
        arbitration_losses,
        max_queue_depth,
        queue_bound: config.admission.max_inflight,
        wire: device_wire.stats(),
        shed_global: budget.as_ref().map_or(0, |b| b.shed_total()),
        evicted: selectors.iter().map(|s| s.evicted_total()).sum(),
        population_estimate_final,
        population_estimate_peak: population_estimate_peak.max(population_estimate_final),
        alerts: metrics.alerts().len(),
        convergence_windows,
        secagg_shard_aborts: counters.iter().map(|c| c.secagg_shard_aborts).sum(),
        secagg_round_aborts: counters.iter().map(|c| c.secagg_round_aborts).sum(),
        telemetry_panel: metrics.render_population_panel(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_in_one_population_does_not_starve_the_others() {
        let report = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(7));
        assert!(report.is_clean(), "{}", report.render());
        let steady = report.outcome("multi/steady").unwrap();
        let flash = report.outcome("multi/flash").unwrap();
        let aux = report.outcome("multi/aux").unwrap();
        // The storm really stormed: its lane absorbed mass rejection...
        assert!(
            flash.shed + flash.rejected_other > 5_000,
            "the flash crowd was never turned away:\n{}",
            report.render()
        );
        // ...while the other tenants kept committing.
        assert!(steady.committed >= 3, "{}", report.render());
        assert!(aux.committed >= 1, "{}", report.render());
        // And the stormy tenant itself still made progress on its share.
        assert!(flash.committed >= 1, "{}", report.render());
        // The dashboard panel carries one block per tenant.
        for name in ["multi/steady", "multi/flash", "multi/aux"] {
            assert!(
                report.telemetry_panel.contains(name),
                "panel missing {name}:\n{}",
                report.telemetry_panel
            );
        }
    }

    #[test]
    fn shared_budget_charges_the_stormy_population() {
        let report = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(19));
        assert!(report.is_clean(), "{}", report.render());
        let steady = report.outcome("multi/steady").unwrap();
        let flash = report.outcome("multi/flash").unwrap();
        // Fair-share reservations bind against the storm, not the
        // steady tenant.
        assert!(
            flash.budget_sheds > 0,
            "the global budget never capped the storm:\n{}",
            report.render()
        );
        assert!(
            steady.budget_sheds < flash.budget_sheds,
            "{}",
            report.render()
        );
    }

    #[test]
    fn steady_commits_match_the_no_storm_baseline() {
        let stormy = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(41));
        let calm =
            run_multi_tenant(&MultiTenantConfig::flash_vs_steady(41).without_flash());
        assert!(stormy.is_clean(), "{}", stormy.render());
        assert!(calm.is_clean(), "{}", calm.render());
        let with_storm = stormy.outcome("multi/steady").unwrap().committed;
        let without = calm.outcome("multi/steady").unwrap().committed;
        // Fair-share isolation: the steady tenant's round throughput
        // under the storm stays within one round of its calm baseline.
        assert!(
            with_storm + 1 >= without,
            "storm cost the steady tenant rounds: {with_storm} vs calm {without}\n{}",
            stormy.render()
        );
    }

    #[test]
    fn devices_arbitrate_one_session_across_populations() {
        let report = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(7));
        // Devices registered in several populations must have collided
        // and deferred through their own lanes at least sometimes.
        assert!(
            report.arbitration_losses > 0,
            "no device ever arbitrated:\n{}",
            report.render()
        );
    }

    #[test]
    fn single_population_reduces_to_the_aggregate() {
        let report = run_multi_tenant(&MultiTenantConfig::single(7));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.populations.len(), 1);
        let only = &report.populations[0];
        // n=1: the population ledger *is* the aggregate ledger.
        assert_eq!(only.accepted, report.accepted_total);
        assert_eq!(only.offered - only.accepted, report.rejected_total);
        assert!(only.committed >= 3, "{}", report.render());
    }

    #[test]
    fn replay_is_byte_identical() {
        for (make, seed) in [
            (MultiTenantConfig::flash_vs_steady as fn(u64) -> MultiTenantConfig, 19),
            (MultiTenantConfig::thundering_herd, 53),
            (MultiTenantConfig::secagg_flash_crowd, 29),
        ] {
            let a = run_multi_tenant(&make(seed)).render();
            let b = run_multi_tenant(&make(seed)).render();
            assert_eq!(a, b, "seed {seed} diverged between replays");
        }
    }

    #[test]
    fn thundering_herd_holds_the_invariants_and_trips_the_monitors() {
        let report = run_multi_tenant(&MultiTenantConfig::thundering_herd(3));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.max_queue_depth <= report.queue_bound);
        assert!(
            report.populations[0].shed > 0,
            "a herd must actually shed:\n{}",
            report.render()
        );
        assert!(report.populations[0].committed >= 3, "{}", report.render());
        // Every check-in/report crossed the wire framed, and every
        // shed/configuration/ack came back framed.
        assert!(
            report.wire.frames_sent > 0 && report.wire.frames_received > 0,
            "no framed traffic recorded:\n{}",
            report.render()
        );
        assert!(report.alerts > 0, "herd raised no alerts:\n{}", report.render());
    }

    /// The closed loop must notice the 10× step (the estimate ends far
    /// above the baseline 8 000) without overshooting unboundedly.
    /// Regression (pace-controller overshoot): the flash window delivers
    /// ~72 000 unpaced arrivals against an 8 000-device estimate, and the
    /// uncapped `implied = arrivals × periods_per_return` law (~61
    /// periods) used to spike the estimate past two million devices —
    /// 25×+ the true stepped population — before the EWMA decayed. With
    /// per-window growth capped
    /// (`PaceControllerConfig::max_growth_per_window`), the peak must
    /// stay within a small factor of the true population.
    #[test]
    fn flash_crowd_tracks_the_population_step_with_bounded_overshoot() {
        let config = MultiTenantConfig::flash_crowd(17);
        let true_population = config.total_devices();
        let report = run_multi_tenant(&config);
        assert!(report.is_clean(), "{}", report.render());
        assert!(
            report.population_estimate_final > 20_000,
            "estimate stuck at {}:\n{}",
            report.population_estimate_final,
            report.render()
        );
        assert!(
            report.population_estimate_peak <= 5 * true_population,
            "estimate peaked at {} for a true population of {true_population}:\n{}",
            report.population_estimate_peak,
            report.render()
        );
        assert!(
            report.population_estimate_peak >= report.population_estimate_final,
            "{}",
            report.render()
        );
    }

    #[test]
    fn diurnal_ramp_never_wedges() {
        let report = run_multi_tenant(&MultiTenantConfig::diurnal_ramp(29));
        assert!(report.is_clean(), "{}", report.render());
        let only = &report.populations[0];
        assert_eq!(only.rounds_started, only.rounds_terminal);
    }

    #[test]
    fn secagg_flash_crowd_strands_cohorts_below_k_cleanly() {
        let plain = run_multi_tenant(&MultiTenantConfig::flash_crowd(17));
        let report = run_multi_tenant(&MultiTenantConfig::secagg_flash_crowd(17));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.populations[0].committed >= 1, "{}", report.render());
        // The storm must have pushed at least one cohort's group below k
        // — surfaced as a typed abort, never a silent mis-sum.
        assert!(
            report.secagg_shard_aborts + report.secagg_round_aborts >= 1,
            "no group ever fell below threshold:\n{}",
            report.render()
        );
        // Field vectors are 8 bytes per coordinate vs. the plain run's
        // 4-byte blob: the SecAgg premium shows in measured uplink bytes.
        assert!(
            report.wire.bytes_sent > plain.wire.bytes_sent,
            "secagg uplink {} <= plain uplink {}",
            report.wire.bytes_sent,
            plain.wire.bytes_sent
        );
    }

    /// Three Selectors each shed locally under a herd, while one shared
    /// fleet-wide budget caps what they admit in total — the cap binds
    /// (global sheds happen) yet rounds still commit.
    #[test]
    fn global_budget_is_shared_across_selectors() {
        let mut config = MultiTenantConfig::thundering_herd(3);
        config.selectors = 3;
        config.global_admission = Some(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 300,
        });
        let report = run_multi_tenant(&config);
        let only = &report.populations[0];
        assert!(
            report.shed_global > 0,
            "herd never hit the shared budget:\n{}",
            report.render()
        );
        assert!(only.shed > report.shed_global, "{}", report.render());
        assert!(only.committed >= 1, "{}", report.render());
        assert_eq!(only.rounds_started, only.rounds_terminal, "{}", report.render());
    }
}
