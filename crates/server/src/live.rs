//! Live mode: the protocol state machines wired onto the `fl-actors`
//! runtime (Fig. 3's actor topology on real threads).
//!
//! Topology: device clients talk to a [`SelectorActor`] (accept/reject +
//! pace steering + optional admission control and shared global budget);
//! accepted devices are forwarded to the [`CoordinatorActor`], which owns
//! the [`crate::coordinator::Coordinator`] state machine and drives
//! rounds. Each training round detaches its aggregation pipeline into an
//! ephemeral [`MasterAggregatorActor`] child ("scale[s] with rounds",
//! Sec. 4.1), which shards reporting devices across `AggregatorActor`
//! children of its own and dies with the round. The Coordinator registers
//! itself in the shared [`fl_actors::LockingService`]; if it dies, the
//! Selector layer detects the obituary and respawns it exactly once.
//!
//! Construction of the tree — Selector specs, the shared
//! [`crate::shedding::GlobalAdmissionBudget`], telemetry — lives in
//! [`crate::topology`], shared with the `fl-sim` chaos and overload
//! harnesses.
//!
//! This module is deliberately thin: all protocol decisions live in the
//! deterministic state machines; actors only move messages and time.

use crate::aggregator::{MasterAggregatorActor, MasterMsg};
use crate::coordinator::{ActiveRound, Coordinator, CoordinatorConfig};
use crate::round::{CheckinResponse, ReportResponse};
use crate::selector::{CheckinDecision, Selector};
use crate::storage::{CheckpointStore, InMemoryCheckpointStore};
use fl_actors::{Actor, ActorRef, ActorSystem, Context, Flow, Lease, LockingService};
use fl_analytics::overload::OverloadMetrics;
use fl_core::plan::FlPlan;
use fl_core::population::{TaskGroup, TaskKind};
use fl_core::{CoreError, DeviceId, PopulationName, RoundId, RoundOutcome};
use std::collections::BTreeMap;
use fl_wire::{ChannelTransport, Transport, WireError, WireMessage, WireSink, WireStats};
use crossbeam::channel::{unbounded, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Overload telemetry shared between the live Selector actors and
/// whatever reads it (dashboards, tests): accepts, sheds, evictions, and
/// retries recorded straight from the `Checkin` path.
pub type SharedOverloadMetrics = Arc<fl_race::Mutex<OverloadMetrics>>;

/// Telemetry is recorded after each admission decision completes, with
/// no other site held — a leaf lock (rank table in DESIGN.md §7).
pub(crate) const OVERLOAD_METRICS: fl_race::Site =
    fl_race::Site::new("server/live.overload_metrics", 60);

/// Messages understood by the [`CoordinatorActor`].
///
/// Device-facing replies are no longer an ad-hoc enum: the server
/// answers through the connection's [`WireSink`] with framed
/// [`WireMessage`]s ([`WireMessage::PlanAndCheckpoint`],
/// [`WireMessage::ReportAck`], [`WireMessage::ComeBackLater`]) — the
/// single protocol surface defined by `fl-wire`.
#[derive(Debug)]
pub enum CoordMsg {
    /// A selector forwards an accepted device together with its
    /// connection, already stripped of the check-in frame.
    DeviceForwarded {
        /// The device.
        device: DeviceId,
        /// The device's connection, for configuration/ack replies.
        conn: WireSink,
    },
    /// A framed [`WireMessage::UpdateReport`] (clear bytes) or
    /// [`WireMessage::SecAggReport`] (fixed-point masked contribution)
    /// arrived on a device connection.
    Report {
        /// The encoded frame.
        frame: Vec<u8>,
        /// The device's connection, for the [`WireMessage::ReportAck`].
        conn: WireSink,
    },
    /// A selected device's connection died mid-round at the given SecAgg
    /// protocol stage (Sec. 6). In production the Selector's connection
    /// watchdog reports this; tests script it. The round records the
    /// dropout stage so finalize can exclude (advertise) or
    /// mask-reconstruct (share) the device per shard.
    DeviceDropped {
        /// The vanished device.
        device: DeviceId,
        /// How far through the SecAgg protocol it got.
        stage: crate::aggregator::DropStage,
    },
    /// Periodic clock tick.
    Tick,
    /// Census update: how many devices the population is believed to
    /// have. Sizes the pace-steering horizon for `NotSelecting` rejects.
    SetPopulationEstimate(u64),
    /// Finish the current round if it is done; reply with the outcome.
    TryCompleteRound {
        /// Outcome reply channel (None = round still running).
        reply: Sender<Option<RoundOutcome>>,
    },
    /// Stop the actor.
    Shutdown,
}

/// The Coordinator as an actor: wraps the deterministic state machine,
/// stamping messages with elapsed wall time. Generic over the checkpoint
/// store so a respawned incarnation can reattach to the storage layer
/// that survived its predecessor (see
/// [`crate::storage::SharedCheckpointStore`]).
pub struct CoordinatorActor<S: CheckpointStore + Send + 'static = InMemoryCheckpointStore> {
    coordinator: Coordinator<S>,
    active: Option<ActiveRound>,
    /// The in-flight round's detached aggregation tree: a
    /// [`MasterAggregatorActor`] child (named `master-r<N>`) whose own
    /// `AggregatorActor` children hold the shard sums. `None` between
    /// rounds and for evaluation tasks.
    master: Option<ActorRef<MasterMsg>>,
    /// Shared overload telemetry; SecAgg per-shard aborts observed at
    /// finalize are recorded here alongside the Selector layer's
    /// accept/shed counters.
    telemetry: Option<SharedOverloadMetrics>,
    device_replies: std::collections::HashMap<DeviceId, WireSink>,
    /// At-most-once report ledger: the final ack decision for every
    /// `(device, round, attempt)` key seen this round. A retried upload
    /// whose key is already here (its first ack was lost on the wire)
    /// gets the *original* decision replayed and never reaches the
    /// round's accounting — so a report is summed at most once no
    /// matter how often the device re-sends it. Cleared at round
    /// completion.
    report_acks: std::collections::HashMap<(DeviceId, RoundId, u32), bool>,
    epoch: Instant,
    lease: Lease,
    locks: LockingService<String>,
    /// Pace steering for devices that arrive while no round is selecting:
    /// a `NotSelecting` reject must carry a real reconnect suggestion
    /// (aimed at the next selection-period tick), not a magic constant
    /// that defeats Sec. 2.3's flow control.
    pace: crate::pace::PaceSteering,
    pace_rng: rand::rngs::StdRng,
    population_estimate: u64,
}

impl<S: CheckpointStore + Send + 'static> std::fmt::Debug for CoordinatorActor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinatorActor")
            .field("coordinator", &self.coordinator)
            .field("lease", &self.lease)
            .finish_non_exhaustive()
    }
}

/// The locking-service name under which a population's coordinator
/// registers (Sec. 4.2).
pub fn coordinator_lease_name(population: &PopulationName) -> String {
    format!("coordinator/{population}")
}

impl CoordinatorActor<InMemoryCheckpointStore> {
    /// Creates the actor, deploying the task group, and registers it in
    /// the locking service.
    ///
    /// # Panics
    ///
    /// Panics if the population is already registered (exactly-once
    /// ownership violated) or the initial checkpoint write fails.
    pub fn new(
        config: CoordinatorConfig,
        group: TaskGroup,
        plans: Vec<FlPlan>,
        initial_params: Vec<f32>,
        locks: LockingService<String>,
    ) -> Self {
        let lease_name = coordinator_lease_name(&config.population);
        let lease = locks
            .acquire(lease_name.clone(), lease_name)
            // fl-lint: allow(unwrap): documented `# Panics` contract —
            // double ownership of a population breaks the exactly-once
            // guarantee (Sec. 4.2) and must fail loudly at wiring time,
            // before any device traffic exists.
            .expect("population already owned by another coordinator");
        Self::with_store(
            config,
            group,
            plans,
            initial_params,
            locks,
            lease,
            InMemoryCheckpointStore::new(),
        )
    }
}

impl<S: CheckpointStore + Send + 'static> CoordinatorActor<S> {
    /// Creates the actor over an explicit store and an *already-acquired*
    /// lease — the respawn path: the watcher that won re-acquisition
    /// passes the new lease plus the storage handle that survived the
    /// previous incarnation, and `deploy`'s resume-awareness picks up the
    /// committed model.
    ///
    /// # Panics
    ///
    /// Panics if the initial checkpoint write fails at wiring time.
    pub fn with_store(
        config: CoordinatorConfig,
        group: TaskGroup,
        plans: Vec<FlPlan>,
        initial_params: Vec<f32>,
        locks: LockingService<String>,
        lease: Lease,
        store: S,
    ) -> Self {
        // NotSelecting rejects rendezvous on the selection-period tick:
        // rejected devices should return together just as the next round
        // opens (small-population concentration, Sec. 2.3).
        let round = group.tasks().first().map(|t| t.round).unwrap_or_default();
        let pace = crate::pace::PaceSteering::new(
            round.selection_timeout_ms.max(1),
            (round.selection_target() as u64).max(1),
        );
        let pace_rng = fl_ml::rng::seeded(config.seed ^ 0x9ACE);
        let mut coordinator = Coordinator::new(config, store);
        coordinator
            .deploy(group, plans, initial_params)
            // fl-lint: allow(unwrap): documented `# Panics` contract — a
            // storage failure during wiring (before any device traffic)
            // leaves nothing to recover; fail loudly.
            .expect("initial deployment failed");
        CoordinatorActor {
            coordinator,
            active: None,
            master: None,
            telemetry: None,
            device_replies: std::collections::HashMap::new(),
            report_acks: std::collections::HashMap::new(),
            // fl-lint: allow(wall-clock): the live topology stamps protocol
            // events with real elapsed time; the deterministic state
            // machines only ever see the derived `now_ms` offsets.
            epoch: Instant::now(),
            lease,
            locks,
            pace,
            pace_rng,
            population_estimate: 0,
        }
    }

    /// The fenced lease this incarnation holds.
    pub fn lease(&self) -> &Lease {
        &self.lease
    }

    /// The population this coordinator owns (Sec. 4.2: one Coordinator
    /// per population). Every device-facing reply it frames carries this
    /// name, and reports claiming any other population are refused.
    pub fn population(&self) -> PopulationName {
        self.coordinator.population().clone()
    }

    /// Attaches shared overload telemetry: SecAgg shard aborts observed
    /// when a round finalizes are recorded next to the Selector layer's
    /// accept/shed/evict counters.
    pub fn with_telemetry(mut self, telemetry: SharedOverloadMetrics) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// The at-most-once gate every decoded report passes through: a key
    /// already in the ledger replays its original ack (the duplicate is
    /// telemetry, never accounting input); a fresh key runs `evaluate`
    /// once and pins the outcome for any retry that follows.
    fn admit_report(
        &mut self,
        now: u64,
        key: (DeviceId, RoundId, u32),
        evaluate: impl FnOnce(&mut Self) -> bool,
    ) -> WireMessage {
        let (_, round, attempt) = key;
        let population = self.population();
        if let Some(&prior) = self.report_acks.get(&key) {
            if let Some(telemetry) = &self.telemetry {
                telemetry.lock().record_duplicate_report(now);
            }
            return WireMessage::ReportAck {
                accepted: prior,
                round,
                attempt,
                population,
            };
        }
        let accepted = evaluate(self);
        if !accepted {
            if let Some(telemetry) = &self.telemetry {
                telemetry.lock().record_rejected_report(now);
            }
        }
        self.report_acks.insert(key, accepted);
        WireMessage::ReportAck {
            accepted,
            round,
            attempt,
            population,
        }
    }

    /// Multi-tenancy boundary check: a report claiming a population this
    /// coordinator does not own is refused with a rejecting ack echoing
    /// the *claimed* population (so the device's per-population retry
    /// discipline sees the refusal), and never reaches the at-most-once
    /// ledger or the round's accounting. Cross-tenant contributions must
    /// not leak between models even if a gateway misroutes a frame.
    fn refuse_foreign_report(
        &mut self,
        now: u64,
        round: RoundId,
        attempt: u32,
        claimed: PopulationName,
    ) -> WireMessage {
        if let Some(telemetry) = &self.telemetry {
            telemetry.lock().record_rejected_report(now);
        }
        WireMessage::ReportAck {
            accepted: false,
            round,
            attempt,
            population: claimed,
        }
    }

    fn ensure_round(&mut self, ctx: &Context<CoordMsg>) {
        if self.active.is_none() {
            let now = self.now_ms();
            if let Ok(mut round) = self.coordinator.begin_round(now) {
                // Detach the training round's aggregation pipeline and
                // spawn it as the per-round Master Aggregator subtree
                // (Sec. 4.1: aggregation actors "scale with rounds" and
                // die with them). Evaluation rounds have no aggregate.
                if round.task.kind == TaskKind::Training {
                    if let Some(master) = round.detach_master() {
                        let tag = format!("master-r{}", round.state.round.0);
                        self.master =
                            Some(ctx.spawn_child(tag, MasterAggregatorActor::new(master)));
                    }
                }
                self.active = Some(round);
            }
        }
    }

    /// Closes the round's Master Aggregator subtree and collects its
    /// merged aggregate — a framed `ShardFinalize`/`ShardMerged`
    /// exchange (SecAgg rounds use `SecAggFinalize` with stage-tagged
    /// dropout lists) over the Selector↔Aggregator wire boundary. The
    /// reply stream carries one framed `ShardAbort` per SecAgg shard
    /// whose group fell below threshold before the final `ShardMerged`;
    /// the abort count is returned for telemetry. A master that died
    /// mid-round (its mailbox or reply channel is gone) surfaces as an
    /// error: the round is lost, nothing reaches storage, and the next
    /// round restarts from the committed checkpoint — Sec. 4.2's Master
    /// Aggregator loss semantics.
    fn finalize_external(
        master: &ActorRef<MasterMsg>,
        round: &ActiveRound,
    ) -> Result<(Vec<f32>, usize, usize), CoreError> {
        let dead =
            || CoreError::InvariantViolated("master aggregator died mid-round".into());
        let frame = if round.task.secagg_group_size.is_some() {
            fl_wire::encode(&WireMessage::SecAggFinalize {
                current_params: round.checkpoint.params().to_vec(),
                // One SecAggUpdate frame was streamed per accepted
                // report; the master holds its shards open until all of
                // them are staged, so a masked contribution overtaken
                // in delivery by this finalize cannot vanish from the
                // sum (or strand its group below threshold).
                expected_contributors: round.state.counters().0 as u64,
                advertise_dropouts: round.advertise_dropouts().to_vec(),
                share_dropouts: round.share_dropouts().to_vec(),
            })
        } else {
            fl_wire::encode(&WireMessage::ShardFinalize {
                current_params: round.checkpoint.params().to_vec(),
                dropouts: round.share_dropouts().to_vec(),
            })
        }
        // The only encode failure is an over-long string, which these
        // frames cannot carry; an empty frame still fails the round
        // cleanly at the master.
        .unwrap_or_default();
        let (tx, rx) = unbounded();
        master
            .send(MasterMsg::Finalize { frame, reply: tx })
            .map_err(|_| dead())?;
        let mut shard_aborts = 0usize;
        loop {
            match rx.recv() {
                Ok(frame) => match fl_wire::decode(&frame) {
                    // One abort announcement per below-threshold shard
                    // precedes the merged result.
                    Ok(WireMessage::ShardAbort) => shard_aborts += 1,
                    Ok(WireMessage::ShardMerged { merged }) => {
                        return merged
                            .map(|(params, n)| (params, n as usize, shard_aborts))
                            .map_err(CoreError::MalformedCheckpoint);
                    }
                    _ => {
                        return Err(CoreError::InvariantViolated(
                            "master aggregator replied with a non-ShardMerged frame".into(),
                        ));
                    }
                },
                Err(_) => return Err(dead()),
            }
        }
    }

    /// Send the Configuration download — one framed
    /// [`WireMessage::PlanAndCheckpoint`] per participant — once the
    /// round enters Reporting.
    fn push_configuration(&mut self) {
        let Some(round) = &self.active else { return };
        if round.state.phase() != crate::round::Phase::Reporting {
            return;
        }
        let plan = round.plan.clone();
        let checkpoint = round.checkpoint.clone();
        let population = self.population();
        for d in round.state.participants() {
            if let Some(conn) = self.device_replies.get(&d) {
                let _ = conn.send(&WireMessage::PlanAndCheckpoint {
                    plan: Box::new(plan.clone()),
                    checkpoint: Box::new(checkpoint.clone()),
                    population: population.clone(),
                });
            }
        }
    }
}

impl<S: CheckpointStore + Send + 'static> Actor for CoordinatorActor<S> {
    type Msg = CoordMsg;

    fn handle(&mut self, msg: CoordMsg, ctx: &mut Context<CoordMsg>) -> Flow {
        match msg {
            CoordMsg::DeviceForwarded { device, conn } => {
                self.ensure_round(ctx);
                let now = self.now_ms();
                if let Some(round) = &mut self.active {
                    let was_selecting =
                        round.state.phase() == crate::round::Phase::Selection;
                    match round.on_checkin(device, now) {
                        CheckinResponse::Selected => {
                            self.device_replies.insert(device, conn);
                            if was_selecting {
                                self.push_configuration();
                            }
                        }
                        CheckinResponse::AlreadySelected => {
                            // A retrying participant keeps its slot; route
                            // replies to its fresh connection and re-send
                            // the configuration if the round already has
                            // one.
                            self.device_replies.insert(device, conn);
                            if round.state.phase() == crate::round::Phase::Reporting {
                                let plan = round.plan.clone();
                                let checkpoint = round.checkpoint.clone();
                                let population = self.coordinator.population().clone();
                                if let Some(c) = self.device_replies.get(&device) {
                                    let _ = c.send(&WireMessage::PlanAndCheckpoint {
                                        plan: Box::new(plan),
                                        checkpoint: Box::new(checkpoint),
                                        population,
                                    });
                                }
                            }
                        }
                        CheckinResponse::NotSelecting => {
                            // Pace-steered rejection: suggest the next
                            // selection-period rendezvous (or a spread
                            // window for large populations) instead of a
                            // fixed 1-second hammer interval.
                            let retry_at_ms = self.pace.suggest_reconnect(
                                now,
                                self.population_estimate,
                                1.0,
                                &mut self.pace_rng,
                            );
                            let _ = conn.send(&WireMessage::ComeBackLater {
                                retry_at_ms,
                                population: self.coordinator.population().clone(),
                            });
                        }
                    }
                }
                Flow::Continue
            }
            CoordMsg::Report { frame, conn } => {
                // Decode at the wire boundary; a frame that is neither an
                // `UpdateReport` nor a `SecAggReport` (stream desync,
                // protocol drift, byte rot) is answered with a rejecting
                // ack rather than a panic, and counted as corrupt. Valid
                // reports pass through the at-most-once ledger before any
                // accounting.
                let now = self.now_ms();
                let own_population = self.population();
                let ack = match fl_wire::decode(&frame) {
                    Ok(WireMessage::UpdateReport {
                        round,
                        attempt,
                        population,
                        ..
                    }) if population != own_population => {
                        self.refuse_foreign_report(now, round, attempt, population)
                    }
                    Ok(WireMessage::SecAggReport {
                        round,
                        attempt,
                        population,
                        ..
                    }) if population != own_population => {
                        self.refuse_foreign_report(now, round, attempt, population)
                    }
                    Ok(WireMessage::UpdateReport {
                        device,
                        round,
                        attempt,
                        update_bytes,
                        weight,
                        loss,
                        accuracy,
                        ..
                    }) => self.admit_report(now, (device, round, attempt), |actor| {
                        if let Some(active) = &mut actor.active {
                            // The round does the protocol accounting
                            // (participant check, lateness, goal count,
                            // session logs); accepted bytes stream on to
                            // the round's Aggregator shard via the Master
                            // Aggregator subtree as a framed `ShardUpdate`.
                            match active.on_report(
                                device,
                                now,
                                &update_bytes,
                                weight,
                                loss,
                                accuracy,
                            ) {
                                Ok(ReportResponse::Accepted) => {
                                    if let Some(master) = &actor.master {
                                        let _ = master.send(MasterMsg::Update {
                                            frame: fl_wire::encode(&WireMessage::ShardUpdate {
                                                device,
                                                update_bytes,
                                                weight,
                                            })
                                            .unwrap_or_default(),
                                        });
                                    }
                                    true
                                }
                                _ => false,
                            }
                        } else {
                            false
                        }
                    }),
                    Ok(WireMessage::SecAggReport {
                        device,
                        round,
                        attempt,
                        field_vector,
                        weight,
                        loss,
                        accuracy,
                        ..
                    }) => self.admit_report(now, (device, round, attempt), |actor| {
                        if let Some(active) = &mut actor.active {
                            // Masked contributions take the same accounting
                            // path but stay in the field: the shard sums
                            // them without ever seeing a cleartext update.
                            match active.on_secagg_report(
                                device,
                                now,
                                &field_vector,
                                weight,
                                loss,
                                accuracy,
                            ) {
                                Ok(ReportResponse::Accepted) => {
                                    if let Some(master) = &actor.master {
                                        let _ = master.send(MasterMsg::Update {
                                            frame: fl_wire::encode(&WireMessage::SecAggUpdate {
                                                device,
                                                field_vector,
                                                weight,
                                            })
                                            .unwrap_or_default(),
                                        });
                                    }
                                    true
                                }
                                _ => false,
                            }
                        } else {
                            false
                        }
                    }),
                    _ => {
                        // No key to echo: the device's retry discipline
                        // treats the rejecting ack as a refusal and backs
                        // off.
                        if let Some(telemetry) = &self.telemetry {
                            telemetry.lock().record_corrupt_frame(now);
                        }
                        WireMessage::ReportAck {
                            accepted: false,
                            round: RoundId(0),
                            attempt: 0,
                            population: own_population,
                        }
                    }
                };
                let _ = conn.send(&ack);
                Flow::Continue
            }
            CoordMsg::DeviceDropped { device, stage } => {
                let now = self.now_ms();
                if let Some(round) = &mut self.active {
                    round.on_dropout_staged(device, now, stage);
                }
                Flow::Continue
            }
            CoordMsg::SetPopulationEstimate(estimate) => {
                self.population_estimate = estimate;
                Flow::Continue
            }
            CoordMsg::Tick => {
                let now = self.now_ms();
                let newly_configured = if let Some(round) = &mut self.active {
                    let before = round.state.phase();
                    round.on_tick(now);
                    before == crate::round::Phase::Selection
                        && round.state.phase() == crate::round::Phase::Reporting
                } else {
                    false
                };
                if newly_configured {
                    self.push_configuration();
                }
                Flow::Continue
            }
            CoordMsg::TryCompleteRound { reply } => {
                let finished = self
                    .active
                    .as_ref()
                    .is_some_and(|r| r.state.outcome().is_some());
                if let Some(mut round) = if finished { self.active.take() } else { None } {
                    // The round's report keys die with it; a straggler
                    // retry from a completed round re-evaluates against
                    // no active round and is refused.
                    self.report_acks.clear();
                    round.record_participation_metrics();
                    let master = self.master.take();
                    let committed = round.state.outcome().is_some_and(|o| o.is_committed());
                    let aggregate = if committed && round.task.kind == TaskKind::Training {
                        let merged = match &master {
                            Some(master) => Self::finalize_external(master, &round),
                            // Unreachable by construction (`ensure_round`
                            // always detaches for training), but a missing
                            // subtree must fail the round, not panic.
                            None => Err(CoreError::InvariantViolated(
                                "committed training round has no aggregator subtree".into(),
                            )),
                        };
                        Some(merged.map(|(params, contributors, shard_aborts)| {
                            // Per-shard SecAgg aborts are telemetry, not
                            // round failures: the commit proceeds from the
                            // surviving shards and the aborts are counted.
                            if shard_aborts > 0 {
                                if let Some(telemetry) = &self.telemetry {
                                    let now = self.now_ms();
                                    let mut metrics = telemetry.lock();
                                    for _ in 0..shard_aborts {
                                        metrics.record_secagg_abort(now);
                                    }
                                }
                            }
                            (params, contributors)
                        }))
                    } else {
                        // Nothing to merge: tell the subtree (if any) to
                        // tear itself down with the abandoned round.
                        if let Some(master) = &master {
                            let _ = master.send(MasterMsg::Abort);
                        }
                        None
                    };
                    let outcome = self.coordinator.complete_round_external(round, aggregate).ok();
                    let _ = reply.send(outcome);
                } else {
                    let _ = reply.send(None);
                }
                Flow::Continue
            }
            CoordMsg::Shutdown => {
                // Dropping the handle reaps the subtree anyway; an explicit
                // Abort just makes the teardown prompt.
                if let Some(master) = self.master.take() {
                    let _ = master.send(MasterMsg::Abort);
                }
                Flow::Stop
            }
        }
    }

    fn on_stop(&mut self) {
        // Release population ownership so a successor can acquire it.
        // Fenced: a zombie incarnation stopping late cannot evict a
        // successor that re-acquired the name at a higher epoch.
        self.locks.release(&self.lease);
    }
}

/// Messages understood by the [`SelectorActor`].
#[derive(Debug)]
pub enum SelectorMsg {
    /// A framed [`WireMessage::CheckinRequest`] arrived on a device
    /// connection. The gateway that owns the socket routes the raw frame
    /// here by [`fl_wire::peek_tag`]; the selector decodes it and answers
    /// through `conn` with [`WireMessage::Shed`] /
    /// [`WireMessage::ComeBackLater`], or forwards the accepted device to
    /// the Coordinator.
    Checkin {
        /// The encoded check-in frame.
        frame: Vec<u8>,
        /// The device's connection, for replies.
        conn: WireSink,
    },
    /// Retarget one population's route at a (respawned) coordinator.
    /// Sec. 4.4: after the Selector layer respawns a dead Coordinator,
    /// traffic must flow to the replacement, not the corpse — and the
    /// selector must be re-briefed, not left with pacing state from the
    /// dead incarnation: the replacement's first quota/census
    /// instructions ride along instead of waiting for the next periodic
    /// update. Other populations' routes and quotas are untouched.
    Rewire {
        /// The population whose Coordinator was replaced.
        population: PopulationName,
        /// The replacement coordinator.
        coordinator: ActorRef<CoordMsg>,
        /// The replacement's current held-connection quota for
        /// `population`.
        quota: usize,
        /// The replacement's current population-size estimate.
        population_estimate: u64,
    },
    /// Stop the actor.
    Shutdown,
}

/// A Selector as an actor: applies admission control, quota, and pace
/// steering, forwards accepted devices to the owning population's
/// Coordinator, and streams accept/shed/evict telemetry into shared
/// [`OverloadMetrics`].
///
/// Multi-tenancy (Sec. 2.1): check-ins are demultiplexed by the
/// [`PopulationName`] carried in every v3 `CheckinRequest`. A population
/// with a registered route ([`SelectorActor::with_route`]) forwards to
/// its own Coordinator; a population this tree does not serve gets a
/// pace-steered `ComeBackLater` and never reaches any Coordinator.
pub struct SelectorActor {
    selector: Selector,
    /// Per-population Coordinator routes.
    routes: BTreeMap<PopulationName, ActorRef<CoordMsg>>,
    telemetry: Option<SharedOverloadMetrics>,
    epoch: Instant,
}

impl std::fmt::Debug for SelectorActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectorActor")
            .field("selector", &self.selector)
            .finish_non_exhaustive()
    }
}

impl SelectorActor {
    /// Creates the actor with no routes: until
    /// [`with_route`](SelectorActor::with_route) registers a population,
    /// every check-in is answered with `ComeBackLater`.
    pub fn new(selector: Selector) -> Self {
        SelectorActor {
            selector,
            routes: BTreeMap::new(),
            telemetry: None,
            // fl-lint: allow(wall-clock): live-mode event timestamps only.
            epoch: Instant::now(),
        }
    }

    /// Attaches shared overload telemetry: every check-in decision is
    /// recorded into the metrics from inside the `Checkin` path.
    pub fn with_telemetry(mut self, telemetry: SharedOverloadMetrics) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Registers a per-population Coordinator route: accepted devices of
    /// `population` are forwarded there, with the population held against
    /// `quota` slots of this selector.
    pub fn with_route(
        mut self,
        population: PopulationName,
        coordinator: ActorRef<CoordMsg>,
        quota: usize,
    ) -> Self {
        self.selector.set_population_quota(population.clone(), quota);
        self.routes.insert(population, coordinator);
        self
    }
}

impl Actor for SelectorActor {
    type Msg = SelectorMsg;

    fn handle(&mut self, msg: SelectorMsg, _ctx: &mut Context<SelectorMsg>) -> Flow {
        match msg {
            SelectorMsg::Checkin { frame, conn } => {
                // A frame that is not a well-formed `CheckinRequest`
                // (garbage, version skew, stream desync) is dropped
                // silently: the peer is not speaking the protocol, so no
                // protocol-level reply applies.
                let Ok(WireMessage::CheckinRequest { device, population }) =
                    fl_wire::decode(&frame)
                else {
                    return Flow::Continue;
                };
                let now = self.epoch.elapsed().as_millis() as u64;
                let shed_before = self.selector.shed_total();
                let evicted_before = self.selector.evicted_total();
                let route = self.routes.get(&population);
                let decision = match route {
                    Some(_) => self.selector.on_checkin_for(&population, device, now, 1.0),
                    None => self.selector.reject_unserved(&population, now),
                };
                let shed = self.selector.shed_total() > shed_before;
                if let Some(telemetry) = &self.telemetry {
                    let mut metrics = telemetry.lock();
                    for _ in evicted_before..self.selector.evicted_total() {
                        metrics.record_evict(now);
                    }
                    match decision {
                        CheckinDecision::Accept => metrics.record_accept_for(&population, now),
                        CheckinDecision::Reject { .. } => {
                            if shed {
                                metrics.record_shed_for(&population, now);
                            }
                            // Every rejection sends the device into its
                            // retry discipline.
                            metrics.record_retry_for(&population, now);
                        }
                    }
                }
                match decision {
                    CheckinDecision::Accept => {
                        // Forward to the owning population's Coordinator
                        // (only routed populations are ever accepted); the
                        // selector releases the device from its own set.
                        self.selector.on_disconnect(device);
                        if let Some(route) = route {
                            let _ = route.send(CoordMsg::DeviceForwarded { device, conn });
                        }
                    }
                    CheckinDecision::Reject { retry_at_ms } => {
                        // Admission-control sheds and ordinary pacing
                        // rejects are distinct wire messages: a `Shed`
                        // tells the device the server is over capacity
                        // (Sec. 5's load shedding), a `ComeBackLater` is
                        // routine pace steering. Both echo the population
                        // so the device's per-population retry budget
                        // absorbs the backoff.
                        let msg = if shed {
                            WireMessage::Shed {
                                retry_at_ms,
                                population,
                            }
                        } else {
                            WireMessage::ComeBackLater {
                                retry_at_ms,
                                population,
                            }
                        };
                        let _ = conn.send(&msg);
                    }
                }
                Flow::Continue
            }
            SelectorMsg::Rewire {
                population,
                coordinator,
                quota,
                population_estimate,
            } => {
                self.selector.set_population_quota(population.clone(), quota);
                self.selector.set_population_estimate(population_estimate);
                self.routes.insert(population, coordinator);
                Flow::Continue
            }
            SelectorMsg::Shutdown => Flow::Stop,
        }
    }
}

/// An in-memory device connection to the live topology: the client half
/// of a [`ChannelTransport`] pair plus the gateway half whose inbound
/// frames the caller pumps into the Selector/Coordinator mailboxes.
///
/// This is the same shape as the TCP front door in
/// `examples/live_server.rs` — one connection, framed [`WireMessage`]s
/// in both directions, inbound frames routed to an actor by
/// [`fl_wire::peek_tag`] — with the per-connection gateway thread
/// collapsed into the device's own thread (the pump runs opportunistically
/// inside [`DeviceConn::recv`]).
pub struct DeviceConn {
    device: DeviceId,
    /// Population this connection checks in under and stamps on every
    /// report (v3 multi-tenant wire contract).
    population: PopulationName,
    client: ChannelTransport,
    gateway: ChannelTransport,
    selector: ActorRef<SelectorMsg>,
    coordinator: ActorRef<CoordMsg>,
}

impl std::fmt::Debug for DeviceConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceConn")
            .field("device", &self.device)
            .finish_non_exhaustive()
    }
}

impl DeviceConn {
    /// Opens an in-memory connection from `device` to the given selector,
    /// with update reports routed to `coordinator`. The connection checks
    /// in under `population` and stamps it on every report.
    pub fn connect(
        device: DeviceId,
        population: impl Into<PopulationName>,
        selector: ActorRef<SelectorMsg>,
        coordinator: ActorRef<CoordMsg>,
    ) -> Self {
        let (client, gateway) = ChannelTransport::pair();
        DeviceConn {
            device,
            population: population.into(),
            client,
            gateway,
            selector,
            coordinator,
        }
    }

    /// Routes every frame the device has sent so far into the right
    /// server mailbox — the gateway role a per-connection thread plays in
    /// the TCP front door.
    fn pump(&self) -> Result<(), WireError> {
        while let Some(frame) = self.gateway.try_recv_frame()? {
            let target_ok = match fl_wire::peek_tag(&frame) {
                Ok(fl_wire::tag::UPDATE_REPORT | fl_wire::tag::SECAGG_REPORT) => self
                    .coordinator
                    .send(CoordMsg::Report {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
                // Everything else goes to the selector, which drops
                // non-check-in frames silently — same policy as the TCP
                // gateway, so garbage cannot crash the connection.
                Ok(_) => self
                    .selector
                    .send(SelectorMsg::Checkin {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
                Err(_) => true, // unframeable junk: drop it
            };
            if !target_ok {
                return Err(WireError::Closed);
            }
        }
        Ok(())
    }

    /// Sends a [`WireMessage::CheckinRequest`] for this device under its
    /// population.
    pub fn check_in(&self) -> Result<(), WireError> {
        self.client.send(&WireMessage::CheckinRequest {
            device: self.device,
            population: self.population.clone(),
        })?;
        self.pump()
    }

    /// Sends a [`WireMessage::UpdateReport`] with the given payload
    /// under the `(round, attempt)` at-most-once key — a retry of the
    /// same upload must pass the same key to get the original ack
    /// replayed instead of a second evaluation.
    pub fn report(
        &self,
        round: RoundId,
        attempt: u32,
        update_bytes: Vec<u8>,
        weight: u64,
        loss: f64,
        accuracy: f64,
    ) -> Result<(), WireError> {
        self.client.send(&WireMessage::UpdateReport {
            device: self.device,
            round,
            attempt,
            update_bytes,
            weight,
            loss,
            accuracy,
            population: self.population.clone(),
        })?;
        self.pump()
    }

    /// Sends a [`WireMessage::SecAggReport`] carrying this device's
    /// masked field-element vector — the SecAgg analogue of [`Self::report`],
    /// paying the 8-bytes-per-coordinate wire premium.
    pub fn report_secagg(
        &self,
        round: RoundId,
        attempt: u32,
        field_vector: Vec<u64>,
        weight: u64,
        loss: f64,
        accuracy: f64,
    ) -> Result<(), WireError> {
        self.client.send(&WireMessage::SecAggReport {
            device: self.device,
            round,
            attempt,
            field_vector,
            weight,
            loss,
            accuracy,
            population: self.population.clone(),
        })?;
        self.pump()
    }

    /// Receives the next server reply, pumping any not-yet-routed
    /// outbound frames first.
    pub fn recv(&self, timeout: Duration) -> Result<WireMessage, WireError> {
        self.pump()?;
        self.client.recv_timeout(timeout)
    }

    /// Bytes-on-wire counters for the device end of this connection.
    pub fn stats(&self) -> WireStats {
        self.client.stats()
    }
}

/// Outcome of one [`watch_and_respawn`] watcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespawnReport {
    /// Obituaries of the watched coordinator observed, in order.
    pub deaths: Vec<fl_actors::Obituary>,
    /// Respawns performed by *this* watcher. Across all concurrent
    /// watchers the locking service guarantees at most one respawn per
    /// death (Sec. 4.4: "this will happen exactly once").
    pub respawns: usize,
}

/// Watches a population's coordinator actor and respawns it on panic —
/// exactly once per death even with many concurrent watchers.
///
/// This is the Selector layer's recovery loop from Sec. 4.4: "the
/// Selector layer will detect this and respawn it. Because the
/// Coordinators are registered in a shared locking service, this will
/// happen exactly once." A panicked coordinator never runs `on_stop`, so
/// its lease is still held; each watcher evicts it *with the fencing
/// epoch of the incarnation it saw die* (a stale watcher cannot evict a
/// successor) and races to re-acquire. The winner builds the replacement
/// via `make_actor(lease)` — typically [`CoordinatorActor::with_store`]
/// over a [`crate::storage::SharedCheckpointStore`], so resume-aware
/// deployment picks up the committed model — spawns it under
/// `actor_name`, and announces it through `wire` (e.g. a
/// [`SelectorMsg::Rewire`] fan-out).
///
/// Returns when the coordinator dies without panicking (clean shutdown),
/// the deadline passes, or a respawn budget of `max_respawns` is spent.
pub fn watch_and_respawn<S, F, W>(
    system: &ActorSystem,
    locks: &LockingService<String>,
    actor_name: &str,
    lease_name: &str,
    mut known_epoch: u64,
    max_respawns: usize,
    mut make_actor: F,
    mut wire: W,
    deadline: Duration,
) -> RespawnReport
where
    S: CheckpointStore + Send + 'static,
    F: FnMut(Lease) -> CoordinatorActor<S>,
    W: FnMut(ActorRef<CoordMsg>),
{
    let deaths_rx = system.deaths();
    // fl-lint: allow(wall-clock): the live watcher bounds real elapsed
    // time; the sim exercises recovery via its virtual clock instead.
    let started = Instant::now();
    let mut report = RespawnReport {
        deaths: Vec::new(),
        respawns: 0,
    };
    loop {
        let remaining = deadline.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return report;
        }
        let obit = match deaths_rx.recv_timeout(remaining) {
            Ok(o) => o,
            Err(_) => return report,
        };
        if obit.name != actor_name {
            continue;
        }
        let panicked = matches!(obit.reason, fl_actors::DeathReason::Panicked(_));
        report.deaths.push(obit);
        if !panicked {
            // Clean shutdown released the lease itself; nothing to do.
            return report;
        }
        if report.respawns >= max_respawns {
            return report;
        }
        // The dead incarnation never ran `on_stop`: its lease is stale.
        // Atomic fenced takeover picks exactly one winner among
        // concurrent watchers — and, unlike an evict-then-acquire pair,
        // cannot grab the name after a *successor* released it cleanly
        // (a laggard watcher still digesting the original obituary must
        // not respawn a second coordinator).
        match locks.replace_stale(lease_name, known_epoch, lease_name.to_string()) {
            Some(lease) => {
                known_epoch = lease.epoch;
                report.respawns += 1;
                let replacement = system.spawn(actor_name.to_string(), make_actor(lease));
                wire(replacement);
            }
            None => {
                // Another watcher won the race; track the successor's
                // epoch so a later death of *that* incarnation can still
                // be evicted by us.
                if let Some(epoch) = locks.current_epoch(lease_name) {
                    known_epoch = epoch;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pace::PaceSteering;
    use crate::topology::{spawn_multi_topology, SelectorSpec, TopologyBlueprint};
    use fl_actors::DeathReason;
    use fl_core::plan::{CodecSpec, ModelSpec};
    use fl_core::population::{FlTask, TaskSelectionStrategy};
    use fl_core::round::RoundConfig;
    use crossbeam::channel::unbounded;
    use std::time::Duration;

    fn spec() -> ModelSpec {
        ModelSpec::Logistic {
            dim: 4,
            classes: 2,
            seed: 0,
        }
    }

    fn quick_round(goal: usize) -> RoundConfig {
        RoundConfig {
            goal_count: goal,
            overselection: 1.0,
            min_goal_fraction: 1.0,
            selection_timeout_ms: 5_000,
            report_window_ms: 10_000,
            device_cap_ms: 10_000,
        }
    }

    #[test]
    fn live_round_commits_over_real_threads() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop").with_round(quick_round(4));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint =
            TopologyBlueprint::new(vec![SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10)]);
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop")].clone();
        let selector_refs = topology.selectors;
        assert!(locks.lookup("coordinator/pop").is_some());

        // Four device clients, each on its own thread, each speaking the
        // framed wire protocol over an in-memory transport.
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let sel = selector_refs[0].clone();
                let coord = coord_ref.clone();
                std::thread::spawn(move || {
                    let conn = DeviceConn::connect(DeviceId(i), "pop", sel, coord);
                    conn.check_in().unwrap();
                    // Wait to be configured.
                    loop {
                        match conn.recv(Duration::from_secs(5)).unwrap() {
                            WireMessage::PlanAndCheckpoint { plan, checkpoint, .. } => {
                                let dim = plan.server.expected_dim;
                                assert_eq!(checkpoint.len(), dim);
                                let round = checkpoint.round;
                                let update = vec![0.25f32; dim];
                                let bytes = CodecSpec::Identity.build().encode(&update);
                                conn.report(round, 1, bytes, 4, 0.5, 0.8).unwrap();
                            }
                            WireMessage::ReportAck { accepted, .. } => {
                                // The round trip moved real frames: the
                                // device's own counters saw both
                                // directions.
                                let stats = conn.stats();
                                assert!(stats.bytes_sent > 0);
                                assert!(stats.bytes_received > 0);
                                return accepted;
                            }
                            WireMessage::ComeBackLater { .. } | WireMessage::Shed { .. } => {
                                return false
                            }
                            other => panic!("unexpected server reply {other:?}"),
                        }
                    }
                })
            })
            .collect();

        let accepted = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(accepted, 4);

        // Poll for round completion, pacing the polls off the timer wheel
        // rather than blocking the test thread with a raw sleep.
        let wheel = fl_actors::timer::TimerWheel::new();
        let outcome = loop {
            let (tx, rx) = unbounded();
            coord_ref
                .send(CoordMsg::TryCompleteRound { reply: tx })
                .unwrap();
            if let Some(outcome) = rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                break outcome;
            }
            coord_ref.send(CoordMsg::Tick).unwrap();
            let (poll_tx, poll_rx) = unbounded::<()>();
            wheel.schedule(Duration::from_millis(20), move || {
                let _ = poll_tx.send(());
            });
            let _ = poll_rx.recv();
        };
        wheel.shutdown();
        assert!(outcome.is_committed());

        for s in &selector_refs {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        coord_ref.send(CoordMsg::Shutdown).unwrap();
        system.join();
        // Lease released on clean shutdown.
        assert!(locks.lookup("coordinator/pop").is_none());

        // The round aggregated through an ephemeral Master Aggregator
        // subtree spawned under the coordinator, and the whole subtree
        // died normally with the round.
        let obits: Vec<_> = system.deaths().try_iter().collect();
        for name in ["coordinator-pop/master-r1", "coordinator-pop/master-r1/agg-0"] {
            let obit = obits
                .iter()
                .find(|o| o.name == name)
                .unwrap_or_else(|| panic!("no obituary for {name}"));
            assert_eq!(obit.reason, DeathReason::Normal);
        }
    }

    /// Regression: a device arriving while the round is already in
    /// Reporting used to get a hardcoded `now + 1_000` retry — a 1 s
    /// hammer interval that defeats pace steering. The reject must now
    /// rendezvous on the next selection-period tick (≥ the selection
    /// timeout), so rejected devices return when a round can actually
    /// take them.
    #[test]
    fn not_selecting_reject_is_pace_steered() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop3").with_round(quick_round(1));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop3", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint =
            TopologyBlueprint::new(vec![SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10)]);
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop3")].clone();
        let selector_refs = topology.selectors;

        // First device fills the goal; the round enters Reporting.
        let first = DeviceConn::connect(DeviceId(0), "pop3", selector_refs[0].clone(), coord_ref.clone());
        first.check_in().unwrap();
        assert!(matches!(
            first.recv(Duration::from_secs(5)).unwrap(),
            WireMessage::PlanAndCheckpoint { .. }
        ));

        // Second device finds the round NotSelecting.
        let second = DeviceConn::connect(DeviceId(1), "pop3", selector_refs[0].clone(), coord_ref.clone());
        second.check_in().unwrap();
        match second.recv(Duration::from_secs(5)).unwrap() {
            WireMessage::ComeBackLater { retry_at_ms, .. } => {
                // quick_round(1).selection_timeout_ms == 5_000: the next
                // rendezvous tick lies at or beyond it, far beyond the old
                // `now + 1_000` constant (the test runs well inside 4 s).
                assert!(
                    retry_at_ms >= 5_000,
                    "retry {retry_at_ms} ms is not pace-steered"
                );
            }
            other => panic!("expected ComeBackLater, got {other:?}"),
        }

        for s in &selector_refs {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        coord_ref.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// A malformed or mis-tagged frame on the check-in path must be
    /// dropped silently — not crash the selector, not earn a reply —
    /// and the connection must keep working for well-formed traffic.
    #[test]
    fn retried_report_is_acked_twice_but_summed_once() {
        // The at-most-once contract (satellite of the network-fault PR):
        // a device whose `ReportAck` was lost re-sends the *same*
        // `(round, attempt)` key; the coordinator answers both uploads
        // with the original accepting ack but incorporates exactly one
        // contribution.
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop-dedup").with_round(quick_round(1));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop-dedup", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
            PaceSteering::new(1_000, 10),
            100,
            1,
            10,
        )])
        .with_telemetry(fl_analytics::overload::OverloadMonitorConfig::default());
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop-dedup")].clone();

        let conn = DeviceConn::connect(
            DeviceId(0),
            "pop-dedup",
            topology.selectors[0].clone(),
            coord_ref.clone(),
        );
        conn.check_in().unwrap();
        let (round, dim) = loop {
            if let WireMessage::PlanAndCheckpoint { plan, checkpoint, .. } =
                conn.recv(Duration::from_secs(5)).unwrap()
            {
                break (checkpoint.round, plan.server.expected_dim);
            }
        };

        let update = vec![0.25f32; dim];
        let bytes = CodecSpec::Identity.build().encode(&update);
        // The upload, then its retry under the same attempt key — as a
        // device would after losing the first ack on the wire.
        conn.report(round, 1, bytes.clone(), 4, 0.5, 0.8).unwrap();
        conn.report(round, 1, bytes, 4, 0.5, 0.8).unwrap();

        let mut acks = Vec::new();
        while acks.len() < 2 {
            if let WireMessage::ReportAck {
                accepted,
                round: r,
                attempt,
                ..
            } = conn.recv(Duration::from_secs(5)).unwrap()
            {
                acks.push((accepted, r, attempt));
            }
        }
        assert_eq!(acks, vec![(true, round, 1), (true, round, 1)]);

        let wheel = fl_actors::timer::TimerWheel::new();
        let outcome = loop {
            let (tx, rx) = unbounded();
            coord_ref
                .send(CoordMsg::TryCompleteRound { reply: tx })
                .unwrap();
            if let Some(outcome) = rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                break outcome;
            }
            coord_ref.send(CoordMsg::Tick).unwrap();
            let (poll_tx, poll_rx) = unbounded::<()>();
            wheel.schedule(Duration::from_millis(20), move || {
                let _ = poll_tx.send(());
            });
            let _ = poll_rx.recv();
        };
        wheel.shutdown();
        match outcome {
            RoundOutcome::Committed { incorporated, .. } => assert_eq!(incorporated, 1),
            other => panic!("expected a committed round, got {other:?}"),
        }

        // The duplicate shows up as telemetry, not as accounting.
        let telemetry = topology.telemetry.clone().expect("telemetry configured");
        let dupes: f64 = telemetry.lock().dup_reports().sums().iter().sum();
        assert_eq!(dupes, 1.0);

        for s in &topology.selectors {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        coord_ref.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    #[test]
    fn garbage_checkin_frame_is_dropped_silently() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop4").with_round(quick_round(1));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop4", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint =
            TopologyBlueprint::new(vec![SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10)]);
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop4")].clone();
        let selector_refs = topology.selectors;

        // Inject raw garbage and a valid frame of the wrong type straight
        // into the selector mailbox, as a hostile or desynced gateway
        // would.
        let (client, gateway) = fl_wire::ChannelTransport::pair();
        selector_refs[0]
            .send(SelectorMsg::Checkin {
                frame: vec![0xFF, 0x00, 0xAB],
                conn: gateway.sink(),
            })
            .unwrap();
        selector_refs[0]
            .send(SelectorMsg::Checkin {
                frame: fl_wire::encode(&WireMessage::ReportAck {
                    accepted: true,
                    round: RoundId(0),
                    attempt: 0,
                    population: PopulationName::new("pop4"),
                })
                .expect("test frame encodes"),
                conn: gateway.sink(),
            })
            .unwrap();
        // Neither earns a reply...
        assert_eq!(
            client.recv_timeout(Duration::from_millis(200)).unwrap_err(),
            WireError::Timeout
        );
        // ...and the selector still serves a well-formed check-in.
        let conn = DeviceConn::connect(DeviceId(5), "pop4", selector_refs[0].clone(), coord_ref.clone());
        conn.check_in().unwrap();
        assert!(matches!(
            conn.recv(Duration::from_secs(5)).unwrap(),
            WireMessage::PlanAndCheckpoint { .. }
        ));

        for s in &selector_refs {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        coord_ref.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    #[test]
    fn second_coordinator_for_same_population_is_refused() {
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop2").with_round(quick_round(2));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let make = || {
            CoordinatorActor::new(
                CoordinatorConfig::new("pop2", 1),
                TaskGroup::new(vec![task.clone()], TaskSelectionStrategy::Single),
                vec![plan.clone()],
                vec![0.0; spec().num_params()],
                locks.clone(),
            )
        };
        let _first = make();
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(make));
        assert!(second.is_err(), "duplicate coordinator must be refused");
    }
}
