//! Seeded schedule exploration of the live actor topology (Sec. 4.2,
//! 4.4).
//!
//! The chaos harness explores *fault* schedules on a virtual clock; this
//! module explores *delivery* schedules on the real threaded runtime. It
//! installs a [`ScheduleExplorer`] — the `fl-actors` fault-injector that
//! answers `Reorder` for a seeded subset of mailbox deliveries — and
//! drives the full live round from `fl-server` (Selector actor →
//! Coordinator actor → ephemeral Master Aggregator subtree → shared
//! checkpoint store) under the permuted schedule, auditing the standing
//! invariants:
//!
//! * **never hang** — every wait in the scenario is deadline-bounded, and
//!   a missed deadline is a reported violation, not a stuck test;
//! * **exactly one commit** — one round begins and exactly one commit
//!   reaches storage, whatever order the mailboxes drained in;
//! * **storage audit** — `write_count == 1 + committed` (the deployment
//!   write plus one per committed round; per-device updates are never
//!   persisted, Sec. 4.2);
//! * **obituaries exactly once** — every independent `deaths()`
//!   subscriber sees each actor's obituary exactly once (the invariant
//!   the Sec. 4.4 "respawn happens exactly once" recovery loop hinges
//!   on).
//!
//! All of these are schedule-invariant by design, so
//! [`ExploreReport::render`] is byte-identical across replays of one
//! schedule seed — a failing seed is a self-contained repro, same
//! discipline as `ChaosReport`.

use crate::chaos::{run_chaos_with_schedule, ChaosConfig, ChaosReport, FaultPlan};
use crossbeam::channel::unbounded;
use fl_actors::{audit_exactly_once, ActorSystem, DeathReason, LockingService, ScheduleExplorer};
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::RoundConfig;
use fl_core::{DeviceId, PopulationName};
use fl_server::coordinator::CoordinatorConfig;
use fl_server::live::{coordinator_lease_name, CoordMsg, CoordinatorActor, DeviceConn, SelectorMsg};
use fl_server::wire::WireMessage;
use fl_server::pace::PaceSteering;
use fl_server::shedding::GlobalAdmissionConfig;
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use fl_server::topology::{spawn_multi_topology, SelectorSpec, TopologyBlueprint};
use std::sync::Arc;
use std::time::Duration;

/// The task name the explored round trains.
const TASK_NAME: &str = "t";
/// The population the explored coordinator owns.
const POPULATION: &str = "explore/pop";
/// Devices participating in the explored round (equals the round goal).
const DEVICES: u64 = 4;
/// Obituaries the scenario must produce — each exactly once, in every
/// subscriber view: the tree's two long-lived actors plus the round's
/// ephemeral Master Aggregator subtree (one shard for 4 devices).
const EXPECTED_OBITUARIES: &[&str] = &[
    "coordinator-explore/pop",
    "selector-0",
    "coordinator-explore/pop/master-r1",
    "coordinator-explore/pop/master-r1/agg-0",
];
/// Bound on completion polls (~20 ms apart): the never-hang deadline.
const MAX_POLLS: u32 = 500;
/// Bound on any single channel wait.
const WAIT: Duration = Duration::from_secs(10);

/// Outcome of one explored schedule. Every field is schedule-invariant
/// (no reorder counts, no tick counts), so [`ExploreReport::render`] is
/// byte-identical across replays of one seed.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenario tag (`"live-round"`).
    pub scenario: &'static str,
    /// The explorer seed this schedule was generated from.
    pub schedule_seed: u64,
    /// Rounds committed (must be exactly 1).
    pub committed: u64,
    /// Checkpoint writes observed (must equal `1 + committed`).
    pub write_count: u64,
    /// Obituaries from one subscriber view, sorted by actor name, with
    /// the death-reason kind (`normal` / `panicked`).
    pub obituaries: Vec<(String, String)>,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl ExploreReport {
    /// Whether every invariant held under this schedule.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario={} schedule_seed={}\ncommitted={} write_count={}\n",
            self.scenario, self.schedule_seed, self.committed, self.write_count
        );
        for (name, reason) in &self.obituaries {
            out.push_str(&format!("obituary {name} reason={reason}\n"));
        }
        out.push_str(&format!("violations={}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str("violation: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// What one device client thread observed.
enum DeviceOutcome {
    Accepted,
    Failed(String),
}

/// Drives one full live round — check-in, configuration, report,
/// aggregation, commit, shutdown — with every mailbox in the tree
/// subject to seeded delivery reordering, and audits the standing
/// invariants. See the module docs for the list.
pub fn explore_live_round(schedule_seed: u64) -> ExploreReport {
    explore_round("live-round", schedule_seed, None)
}

/// [`explore_live_round`] with Secure Aggregation enabled (Sec. 6 over
/// the Sec. 4 tree): devices report fixed-point field vectors, the
/// round's single shard runs the four-round protocol at finalize, and a
/// scripted share-stage dropout forces mask reconstruction — all under
/// the same seeded mailbox reordering, holding the same invariants.
pub fn explore_secagg_live_round(schedule_seed: u64) -> ExploreReport {
    explore_round("secagg-live-round", schedule_seed, Some(2))
}

fn explore_round(
    scenario: &'static str,
    schedule_seed: u64,
    secagg_k: Option<usize>,
) -> ExploreReport {
    let mut report = ExploreReport {
        scenario,
        schedule_seed,
        committed: 0,
        write_count: 0,
        obituaries: Vec::new(),
        violations: Vec::new(),
    };

    let system = ActorSystem::new();
    system.install_fault_injector(Arc::new(ScheduleExplorer::new(schedule_seed)));

    let spec = ModelSpec::Logistic {
        dim: 4,
        classes: 2,
        seed: 0,
    };
    let dim = spec.num_params();
    let round = RoundConfig {
        goal_count: DEVICES as usize,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 10_000,
        device_cap_ms: 10_000,
    };
    let mut task = FlTask::training(TASK_NAME, POPULATION).with_round(round);
    if let Some(k) = secagg_k {
        task = task.with_secagg(k);
    }
    let plan = FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity);
    let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);

    // An external shared store + a manually acquired lease: the same
    // wiring a respawned incarnation uses, and the only way the harness
    // can audit write_count after the coordinator is gone.
    let store = SharedCheckpointStore::new(InMemoryCheckpointStore::new());
    let locks = LockingService::new();
    let config = CoordinatorConfig::new(POPULATION, 7);
    let lease_name = coordinator_lease_name(&config.population);
    let Some(lease) = locks.acquire(lease_name.clone(), lease_name.clone()) else {
        report.violations.push("could not acquire coordinator lease".into());
        return report;
    };
    let coordinator = CoordinatorActor::with_store(
        config,
        group,
        vec![plan],
        vec![0.0; dim],
        locks.clone(),
        lease,
        store.clone(),
    );

    // One selector, with a shared admission budget and overload telemetry
    // attached so the exploration also exercises those lock sites.
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 10),
        100,
        1,
        10,
    )])
    .with_global_admission(GlobalAdmissionConfig {
        window_ms: 60_000,
        max_admits_per_window: 100,
    })
    .with_telemetry(Default::default());
    let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
    let coord_ref = topology.coordinators[&PopulationName::new(POPULATION)].clone();
    let selector_refs = topology.selectors;

    // One client thread per device: check in, wait for configuration,
    // report. Every wait is bounded — a timeout is a violation.
    let handles: Vec<_> = (0..DEVICES)
        .map(|i| {
            let sel = selector_refs[0].clone();
            let coord = coord_ref.clone();
            std::thread::spawn(move || -> DeviceOutcome {
                let conn = DeviceConn::connect(DeviceId(i), POPULATION, sel, coord);
                if conn.check_in().is_err() {
                    return DeviceOutcome::Failed(format!("device {i}: selector gone"));
                }
                loop {
                    match conn.recv(WAIT) {
                        Ok(WireMessage::PlanAndCheckpoint {
                            plan, checkpoint, ..
                        }) => {
                            let dim = plan.server.expected_dim;
                            if checkpoint.len() != dim {
                                return DeviceOutcome::Failed(format!(
                                    "device {i}: checkpoint dim {} != plan dim {dim}",
                                    checkpoint.len()
                                ));
                            }
                            let update = vec![0.25f32; dim];
                            let round = checkpoint.round;
                            let sent = if secagg_k.is_some() {
                                match fl_ml::fixedpoint::FixedPointEncoder::default_for_updates()
                                    .encode(&update)
                                {
                                    Ok(field) => conn.report_secagg(round, 1, field, 4, 0.5, 0.8),
                                    Err(e) => {
                                        return DeviceOutcome::Failed(format!(
                                            "device {i}: fixed-point encode failed: {e}"
                                        ))
                                    }
                                }
                            } else {
                                let bytes = CodecSpec::Identity.build().encode(&update);
                                conn.report(round, 1, bytes, 4, 0.5, 0.8)
                            };
                            if sent.is_err() {
                                return DeviceOutcome::Failed(format!(
                                    "device {i}: coordinator gone"
                                ));
                            }
                        }
                        Ok(WireMessage::ReportAck { accepted: true, .. }) => {
                            return DeviceOutcome::Accepted
                        }
                        Ok(other) => {
                            return DeviceOutcome::Failed(format!(
                                "device {i}: unexpected reply {other:?}"
                            ))
                        }
                        Err(_) => {
                            return DeviceOutcome::Failed(format!(
                                "device {i}: hung waiting for a reply"
                            ))
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        match h.join() {
            Ok(DeviceOutcome::Accepted) => {}
            Ok(DeviceOutcome::Failed(why)) => report.violations.push(why),
            Err(_) => report.violations.push("device thread panicked".into()),
        }
    }

    // SecAgg: one device vanishes *after* its masked contribution is
    // staged — the expensive recovery path (Shamir mask reconstruction
    // from the survivors' shares) must also hold under every schedule.
    if secagg_k.is_some() {
        let _ = coord_ref.send(CoordMsg::DeviceDropped {
            device: DeviceId(DEVICES - 1),
            stage: fl_server::aggregator::DropStage::Share,
        });
    }

    // Poll for completion off the timer wheel, never with a raw sleep;
    // a bounded number of polls is the never-hang deadline.
    let wheel = fl_actors::timer::TimerWheel::new();
    let mut completed = false;
    for _ in 0..MAX_POLLS {
        let (tx, rx) = unbounded();
        if coord_ref.send(CoordMsg::TryCompleteRound { reply: tx }).is_err() {
            report.violations.push("coordinator died before completing".into());
            break;
        }
        match rx.recv_timeout(WAIT) {
            Ok(Some(outcome)) => {
                if !outcome.is_committed() {
                    report
                        .violations
                        .push(format!("round finished uncommitted: {outcome:?}"));
                }
                completed = true;
                break;
            }
            Ok(None) => {}
            Err(_) => {
                report.violations.push("TryCompleteRound reply hung".into());
                break;
            }
        }
        let _ = coord_ref.send(CoordMsg::Tick);
        let (poll_tx, poll_rx) = unbounded::<()>();
        wheel.schedule(Duration::from_millis(20), move || {
            let _ = poll_tx.send(());
        });
        let _ = poll_rx.recv_timeout(WAIT);
    }
    wheel.shutdown();
    if !completed && report.violations.is_empty() {
        report
            .violations
            .push(format!("round hung past {MAX_POLLS} completion polls"));
    }

    for s in &selector_refs {
        let _ = s.send(SelectorMsg::Shutdown);
    }
    let _ = coord_ref.send(CoordMsg::Shutdown);
    system.join();

    // Storage audit (Sec. 4.2): one deployment write plus exactly one
    // commit; per-device updates never touched the store.
    // The committed-round count is the latest checkpoint's round id:
    // deployment writes r0, each committed round advances it by one.
    report.committed = store.with(|s| {
        s.latest(TASK_NAME).map(|ck| ck.round.0).unwrap_or(0)
    });
    report.write_count = store.write_count();
    if report.committed != 1 {
        report
            .violations
            .push(format!("committed {} rounds, want exactly 1", report.committed));
    }
    if report.write_count != 1 + report.committed {
        report.violations.push(format!(
            "write_count {} != 1 + committed {}",
            report.write_count, report.committed
        ));
    }
    // Clean shutdown must have released population ownership.
    if locks.lookup(&lease_name).is_some() {
        report
            .violations
            .push("coordinator lease still held after clean shutdown".into());
    }

    // Obituaries exactly once, in every independent subscriber view
    // (each `deaths()` receiver replays the full log).
    let views: Vec<Vec<_>> = (0..2)
        .map(|_| system.deaths().try_iter().collect())
        .collect();
    report
        .violations
        .extend(audit_exactly_once(&views, EXPECTED_OBITUARIES));
    let mut obituaries: Vec<(String, String)> = views[0]
        .iter()
        .map(|o| {
            let reason = match &o.reason {
                DeathReason::Normal => "normal".to_string(),
                DeathReason::Panicked(_) => "panicked".to_string(),
            };
            (o.name.clone(), reason)
        })
        .collect();
    obituaries.sort();
    report.obituaries = obituaries;
    report
}

/// Explores one chaos fault plan under an alternative delivery schedule:
/// a thin, discoverable alias for
/// [`crate::chaos::run_chaos_with_schedule`] so both exploration axes
/// (threaded mailbox order here, virtual-clock timing there) live behind
/// one module.
pub fn explore_chaos(plan_seed: u64, schedule_seed: u64, config: &ChaosConfig) -> ChaosReport {
    let plan = FaultPlan::generate(plan_seed, config.horizon_ms);
    run_chaos_with_schedule(&plan, config, schedule_seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explored_live_round_holds_invariants() {
        let report = explore_live_round(3);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.committed, 1);
        assert_eq!(report.write_count, 2);
        assert_eq!(report.obituaries.len(), EXPECTED_OBITUARIES.len());
    }

    #[test]
    fn unperturbed_schedule_is_clean_too() {
        // Seed or no seed, the explorer must never *cause* a violation:
        // rate 0 reorders nothing and the scenario still commits.
        let report = explore_live_round(0);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn report_is_byte_identical_per_seed() {
        assert_eq!(explore_live_round(5).render(), explore_live_round(5).render());
    }

    #[test]
    fn explored_secagg_round_reconstructs_masks_and_commits_once() {
        let report = explore_secagg_live_round(3);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.committed, 1);
        assert_eq!(report.write_count, 2);
        assert_eq!(report.obituaries.len(), EXPECTED_OBITUARIES.len());
    }
}
