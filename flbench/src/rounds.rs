//! `plain_rounds` and `secagg_rounds`: closed-loop training rounds
//! through the live actor tree, timed at its client boundary.
//!
//! Set-up generates a device pool, runs the real `FlRuntime::execute`
//! once per device on the initial checkpoint, pre-builds every check-in
//! frame and connection, and spawns the tree. Each timed round then
//! checks in a seeded cohort, answers each configuration with the
//! device's update re-sent under the round's fresh `(round, attempt)`
//! key, waits for every ack, and asks the Coordinator to complete the
//! round. The next round starts after the commit reply.

use crate::gen::{reply_tag, Conn, GenClock};
use crate::replay::{layer_metrics, layer_ms_per_root, replay_round, Layers};
use crate::stats::{median, percentile, Metrics};
use crate::trace::{dump_spans, layer_table, render_table, Tracer};
use crate::{repeat_setup, Args, Outcome};
use crossbeam::channel::unbounded;
use fl_actors::{ActorSystem, LockingService};
use fl_analytics::overload::OverloadMonitorConfig;
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::RoundConfig;
use fl_core::{DeviceId, FlCheckpoint, PopulationName, RoundId, RoundOutcome};
use fl_data::store::{InMemoryStore, StoreConfig};
use fl_device::runtime::{ExecutionOutcome, FlRuntime};
use fl_ml::fixedpoint::FixedPointEncoder;
use fl_ml::Example;
use fl_server::aggregator::DropStage;
use fl_server::live::{coordinator_lease_name, CoordMsg, CoordinatorActor};
use fl_server::pace::PaceSteering;
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use fl_server::topology::{spawn_multi_topology, MultiTopology, SelectorSpec, TopologyBlueprint};
use fl_server::CoordinatorConfig;
use fl_wire::{tag, WireMessage};
use rand::RngExt;
use std::time::{Duration, Instant};

/// How long any single reply may take before the run is declared broken.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Rounds run before timing starts (allocator and page-cache warm-up).
pub const WARMUP_ROUNDS: usize = 2;
/// Simulated on-device compute speed used to express the devices'
/// training work as device time (the fleet model's median: 60 000
/// examples in about two minutes).
const EXAMPLES_PER_DEVICE_S: f64 = 500.0;
/// Rounds the traced run replays.
const REPLAY_ROUNDS: usize = 3;
/// The task every round trains.
pub const TASK: &str = "train";

/// Which round workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// FIG9-family model, quantized uploads, no SecAgg.
    Plain,
    /// Small logistic model, SecAgg per shard, share-stage dropouts.
    SecAgg,
}

/// Shape of one round workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Device pool size.
    pub pool: usize,
    /// Devices checked in per round (the goal count).
    pub per_round: usize,
    /// Aggregator shard capacity.
    pub max_per_shard: usize,
    /// Share of participants dropped at the share stage after reporting.
    pub drop_frac: f64,
}

impl Spec {
    /// The workload's fixed shape.
    pub fn of(kind: Kind) -> Spec {
        match kind {
            Kind::Plain => Spec {
                kind,
                pool: 256,
                per_round: 64,
                max_per_shard: 16,
                drop_frac: 0.0,
            },
            Kind::SecAgg => Spec {
                kind,
                pool: 256,
                per_round: 256,
                max_per_shard: 64,
                drop_frac: 0.05,
            },
        }
    }

    /// The population the workload's devices belong to.
    pub fn population(&self) -> &'static str {
        match self.kind {
            Kind::Plain => "bench/plain",
            Kind::SecAgg => "bench/secagg",
        }
    }

    /// The model every device trains.
    pub fn model(&self, seed: u64) -> ModelSpec {
        match self.kind {
            Kind::Plain => ModelSpec::EmbeddingLm {
                vocab: 2_000,
                dim: 64,
                seed,
            },
            Kind::SecAgg => ModelSpec::Logistic {
                dim: 256,
                classes: 10,
                seed,
            },
        }
    }

    /// The plan the Coordinator deploys.
    pub fn plan(&self, seed: u64) -> FlPlan {
        match self.kind {
            Kind::Plain => FlPlan::standard_training(
                self.model(seed),
                1,
                16,
                0.5,
                CodecSpec::Quantize { block: 256 },
            ),
            Kind::SecAgg => {
                FlPlan::standard_training(self.model(seed), 1, 8, 0.05, CodecSpec::Identity)
            }
        }
    }

    /// The round configuration: the round closes when every checked-in
    /// device has reported.
    pub fn round(&self) -> RoundConfig {
        RoundConfig {
            goal_count: self.per_round,
            overselection: 1.0,
            min_goal_fraction: 1.0,
            selection_timeout_ms: 600_000,
            report_window_ms: 600_000,
            device_cap_ms: 600_000,
        }
    }

    /// The deployed task.
    pub fn task(&self) -> FlTask {
        let task = FlTask::training(TASK, self.population()).with_round(self.round());
        match self.kind {
            Kind::Plain => task,
            Kind::SecAgg => task.with_secagg(32),
        }
    }

    /// Each device's local examples, generated from the seed.
    fn device_data(&self, seed: u64) -> Vec<Vec<Example>> {
        match self.kind {
            Kind::Plain => {
                fl_data::synth::text::generate(&fl_data::synth::text::TextConfig {
                    vocab: 2_000,
                    users: self.pool,
                    sentences_per_user: 1,
                    sentence_len: 6,
                    seed,
                    ..Default::default()
                })
                .users
            }
            Kind::SecAgg => {
                fl_data::synth::classification::generate(
                    &fl_data::synth::classification::ClassificationConfig {
                        dim: 256,
                        classes: 10,
                        users: self.pool,
                        examples_per_user: 16,
                        seed,
                        ..Default::default()
                    },
                )
                .users
            }
        }
    }
}

/// One device of the pool, everything pre-built.
#[derive(Debug)]
pub struct Device {
    /// Its connection.
    pub conn: Conn,
    /// Its encoded check-in frame.
    pub checkin: Vec<u8>,
    /// Its report, re-keyed and re-encoded every round.
    pub report: WireMessage,
}

/// What `FlRuntime::execute` produced for one device.
#[derive(Debug)]
pub struct Update {
    /// The report carrying the update, keyed `(0, 0)`.
    pub report: WireMessage,
    /// FedAvg weight (local examples).
    pub weight: u64,
    /// Examples processed (device training work).
    pub work_units: u64,
    /// The clear weighted delta (SecAgg devices only; plain devices
    /// decode their upload when the check runs).
    pub delta: Vec<f32>,
}

/// Inputs computed before the tree exists: the device runtime's output.
#[derive(Debug)]
pub struct Inputs {
    /// The plan.
    pub plan: FlPlan,
    /// Initial global model.
    pub initial: Vec<f32>,
    /// Per device, its update.
    pub updates: Vec<Update>,
    /// Per device `execute` wall time (ms).
    pub execute_ms: Vec<f64>,
}

/// Set-up time split (s).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Data generation and `FlRuntime::execute` for every device.
    pub execute_s: f64,
    /// Check-in frames and connections.
    pub frames_s: f64,
    /// Topology spawn (Coordinator deploy, Selector).
    pub spawn_s: f64,
}

/// A spawned tree plus its pre-built device pool.
pub struct Live {
    system: ActorSystem,
    topology: MultiTopology,
    /// The Coordinator's store, shared so commits can be audited.
    pub store: SharedCheckpointStore<InMemoryCheckpointStore>,
    /// The device pool.
    pub devices: Vec<Device>,
    /// Set-up time split.
    pub split: SetupSplit,
}

/// The one Selector of a round workload's tree.
pub fn selector_spec(spec: &Spec, seed: u64) -> SelectorSpec {
    SelectorSpec::new(
        PaceSteering::new(1_000, spec.per_round as u64),
        spec.pool as u64,
        seed,
        spec.pool,
    )
}

/// Runs the device runtime once per device on the initial checkpoint.
pub fn build_inputs(spec: &Spec, seed: u64) -> Inputs {
    let plan = spec.plan(seed);
    let initial = spec.model(seed).instantiate().params().to_vec();
    let checkpoint = FlCheckpoint::new(TASK, RoundId(0), initial.clone());
    let runtime = FlRuntime::new(u32::MAX);
    let codec = plan.device.update_codec.build();
    let encoder = FixedPointEncoder::default_for_updates();
    let population = PopulationName::new(spec.population());
    let mut updates = Vec::with_capacity(spec.pool);
    let mut execute_ms = Vec::with_capacity(spec.pool);
    for (i, examples) in spec.device_data(seed).into_iter().enumerate() {
        let store = InMemoryStore::with_examples(StoreConfig::default(), examples, 0);
        let started = Instant::now();
        let outcome = runtime
            .execute(&plan.device, &checkpoint, &store, None)
            .expect("device plan executes");
        execute_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let ExecutionOutcome::Completed {
            update_bytes: Some(update_bytes),
            weight,
            loss,
            accuracy,
            work_units,
            ..
        } = outcome
        else {
            panic!("device {i} did not produce an update");
        };
        let device = DeviceId(i as u64);
        let (report, delta) = match spec.kind {
            Kind::Plain => (
                WireMessage::UpdateReport {
                    device,
                    round: RoundId(0),
                    attempt: 0,
                    update_bytes,
                    weight,
                    loss,
                    accuracy,
                    population: population.clone(),
                },
                Vec::new(),
            ),
            Kind::SecAgg => {
                let delta = codec
                    .decode(&update_bytes, plan.server.expected_dim)
                    .expect("identity update decodes");
                let field_vector = encoder
                    .encode(&delta)
                    .expect("weighted delta fits the fixed-point range");
                (
                    WireMessage::SecAggReport {
                        device,
                        round: RoundId(0),
                        attempt: 0,
                        field_vector,
                        weight,
                        loss,
                        accuracy,
                        population: population.clone(),
                    },
                    delta,
                )
            }
        };
        updates.push(Update {
            report,
            weight,
            work_units,
            delta,
        });
    }
    Inputs {
        plan,
        initial,
        updates,
        execute_ms,
    }
}

/// Builds the pool, spawns the tree: the workload's whole set-up.
pub fn setup(spec: &Spec, seed: u64) -> (Live, Inputs) {
    let started = Instant::now();
    let inputs = build_inputs(spec, seed);
    let execute_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let store = SharedCheckpointStore::new(InMemoryCheckpointStore::new());
    let mut config = CoordinatorConfig::new(spec.population(), seed);
    config.max_per_shard = spec.max_per_shard;
    let lease_name = coordinator_lease_name(&config.population);
    let lease = locks
        .acquire(lease_name.clone(), lease_name)
        .expect("fresh locking service has no owner");
    let coordinator = CoordinatorActor::with_store(
        config,
        TaskGroup::new(vec![spec.task()], TaskSelectionStrategy::Single),
        vec![inputs.plan.clone()],
        inputs.initial.clone(),
        locks,
        lease,
        store.clone(),
    );
    let blueprint = TopologyBlueprint::new(vec![selector_spec(spec, seed)])
        .with_telemetry(OverloadMonitorConfig::default());
    let topology = spawn_multi_topology(&system, vec![(coordinator, spec.pool)], &blueprint);
    let spawn_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let population = PopulationName::new(spec.population());
    let coordinator = topology
        .coordinator(&population)
        .expect("population spawned")
        .clone();
    let devices = inputs
        .updates
        .iter()
        .enumerate()
        .map(|(i, update)| Device {
            conn: Conn::new(topology.selectors[0].clone(), coordinator.clone()),
            checkin: fl_wire::encode(&WireMessage::CheckinRequest {
                device: DeviceId(i as u64),
                population: population.clone(),
            })
            .expect("check-in frame encodes"),
            report: update.report.clone(),
        })
        .collect();
    let frames_s = started.elapsed().as_secs_f64();
    (
        Live {
            system,
            topology,
            store,
            devices,
            split: SetupSplit {
                execute_s,
                frames_s,
                spawn_s,
            },
        },
        inputs,
    )
}

impl Live {
    /// Stops every actor and waits for its thread.
    pub fn shutdown(self) {
        self.topology.shutdown();
        self.system.join();
    }

    fn coordinator(&self) -> &fl_actors::ActorRef<CoordMsg> {
        self.topology
            .coordinators
            .values()
            .next()
            .expect("one population")
    }

    /// Secagg shard aborts recorded in telemetry so far.
    pub fn secagg_aborts(&self) -> f64 {
        self.topology
            .telemetry
            .as_ref()
            .map_or(0.0, |t| t.lock().secagg_aborts().sums().iter().sum())
    }
}

/// The client-boundary timeline of one round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round id the configuration carried.
    pub round: RoundId,
    /// Participants, in check-in order.
    pub participants: Vec<usize>,
    /// Participants dropped at the share stage after reporting.
    pub dropped: Vec<usize>,
    /// The completion outcome.
    pub outcome: Option<RoundOutcome>,
    /// Reports acked as accepted.
    pub accepted: usize,
    /// Reports acked as rejected (or acked with a wrong key).
    pub rejected: usize,
    /// First check-in sent.
    pub t_start: Instant,
    /// Last check-in sent.
    pub t_checkins_sent: Instant,
    /// First configuration received.
    pub t_first_config: Instant,
    /// Last configuration received.
    pub t_last_config: Instant,
    /// Last report sent.
    pub t_last_report: Instant,
    /// Last ack received.
    pub t_last_ack: Instant,
    /// TryCompleteRound sent.
    pub t_complete_sent: Instant,
    /// Commit reply received.
    pub t_end: Instant,
    /// Generator busy time inside the round (s).
    pub gen_busy_s: f64,
    /// Committed parameters after the round (for the output check).
    pub params: Vec<f32>,
}

impl RoundRecord {
    /// First check-in sent → commit reply (ms).
    pub fn latency_ms(&self) -> f64 {
        (self.t_end - self.t_start).as_secs_f64() * 1e3
    }
}

/// Drives one closed-loop round.
pub fn run_round(
    live: &mut Live,
    participants: Vec<usize>,
    dropped: Vec<usize>,
    attempt: u32,
) -> RoundRecord {
    let mut busy = 0.0f64;
    let t_start = Instant::now();
    for &d in &participants {
        live.devices[d]
            .conn
            .send(&live.devices[d].checkin)
            .expect("check-in sends");
    }
    let t_checkins_sent = Instant::now();
    busy += (t_checkins_sent - t_start).as_secs_f64();
    let mut round = None;
    let mut t_first_config = t_checkins_sent;
    let mut t_last_config = t_checkins_sent;
    let mut t_last_report = t_checkins_sent;
    for &d in &participants {
        let device = &mut live.devices[d];
        let frame = device
            .conn
            .recv(REPLY_TIMEOUT)
            .expect("configuration arrives");
        let t = Instant::now();
        t_last_config = t;
        assert_eq!(
            reply_tag(&frame),
            tag::PLAN_AND_CHECKPOINT,
            "device {d} was not configured"
        );
        let round_id = *round.get_or_insert_with(|| {
            t_first_config = t;
            match fl_wire::decode(&frame) {
                Ok(WireMessage::PlanAndCheckpoint { checkpoint, .. }) => checkpoint.round,
                other => panic!("configuration does not decode: {other:?}"),
            }
        });
        rekey(&mut device.report, round_id, attempt);
        let frame = fl_wire::encode(&device.report).expect("report encodes");
        device.conn.send(&frame).expect("report sends");
        t_last_report = Instant::now();
        busy += (t_last_report - t).as_secs_f64();
    }
    let round_id = round.expect("at least one participant");
    let mut accepted = 0;
    let mut rejected = 0;
    let mut t_last_ack = t_last_report;
    for &d in &participants {
        let frame = live.devices[d]
            .conn
            .recv(REPLY_TIMEOUT)
            .expect("ack arrives");
        let t = Instant::now();
        match fl_wire::decode(&frame) {
            Ok(WireMessage::ReportAck {
                accepted: true,
                round,
                attempt: a,
                ..
            }) if round == round_id && a == attempt => accepted += 1,
            _ => rejected += 1,
        }
        t_last_ack = Instant::now();
        busy += (t_last_ack - t).as_secs_f64();
    }
    let coordinator = live.coordinator();
    for &d in &dropped {
        coordinator
            .send(CoordMsg::DeviceDropped {
                device: DeviceId(d as u64),
                stage: DropStage::Share,
            })
            .expect("coordinator alive");
    }
    let t_complete_sent = Instant::now();
    let (tx, rx) = unbounded();
    coordinator
        .send(CoordMsg::TryCompleteRound { reply: tx })
        .expect("coordinator alive");
    let outcome = rx.recv_timeout(REPLY_TIMEOUT).expect("completion reply");
    let t_end = Instant::now();
    let params = live
        .store
        .latest(TASK)
        .map(|c| c.into_params())
        .unwrap_or_default();
    RoundRecord {
        round: round_id,
        participants,
        dropped,
        outcome,
        accepted,
        rejected,
        t_start,
        t_checkins_sent,
        t_first_config,
        t_last_config,
        t_last_report,
        t_last_ack,
        t_complete_sent,
        t_end,
        gen_busy_s: busy,
        params,
    }
}

/// Sets a report's at-most-once key: every round re-sends the same
/// update bytes under a fresh `(round, attempt)` key.
pub fn rekey(report: &mut WireMessage, new_round: RoundId, new_attempt: u32) {
    if let WireMessage::UpdateReport { round, attempt, .. }
    | WireMessage::SecAggReport { round, attempt, .. } = report
    {
        *round = new_round;
        *attempt = new_attempt;
    }
}

/// The cohort of round `n`: a seeded sample of the pool, plus the
/// seeded share-stage dropouts among it.
pub fn cohort(spec: &Spec, seed: u64, n: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = fl_ml::rng::seeded_stream(seed ^ 0xC0_4027, n);
    let mut participants: Vec<usize> =
        fl_ml::rng::reservoir_sample(&mut rng, spec.pool, spec.per_round);
    // Check-in order is part of the input: shuffle it too.
    for i in (1..participants.len()).rev() {
        let j = rng.random_range(0..=i);
        participants.swap(i, j);
    }
    let dropped = participants
        .iter()
        .copied()
        .filter(|_| rng.random_bool(spec.drop_frac))
        .collect();
    (participants, dropped)
}

/// What a round workload measured.
#[derive(Debug)]
pub struct RoundsRun {
    /// Timed rounds.
    pub rounds: Vec<RoundRecord>,
    /// Wall time of the timed loop (s).
    pub wall_s: f64,
    /// Generator bookkeeping.
    pub gen: GenClock,
    /// Committed parameters before the first timed round.
    pub params_before: Vec<f32>,
    /// Store writes counted after the run.
    pub store_writes: u64,
    /// Rounds committed by this call, warm-up included.
    pub committed_total: u64,
    /// Rounds attempted by this call, warm-up included.
    pub attempted_total: u64,
    /// The round number the next call continues from.
    pub next_round: u64,
    /// SecAgg shard aborts seen in telemetry.
    pub secagg_aborts: f64,
    /// Device-end traffic over the timed rounds: (frames, bytes).
    pub traffic: (u64, u64),
}

/// Runs warm-up rounds, then timed rounds for `seconds`.
pub fn drive(live: &mut Live, spec: &Spec, seed: u64, seconds: f64, first_round: u64) -> RoundsRun {
    let mut n = first_round;
    let mut committed_total = 0;
    if first_round == 0 {
        for _ in 0..WARMUP_ROUNDS {
            let (p, d) = cohort(spec, seed, n);
            let r = run_round(live, p, d, 1);
            committed_total += u64::from(r.outcome.is_some_and(|o| o.is_committed()));
            n += 1;
        }
    }
    let params_before = live
        .store
        .latest(TASK)
        .map(|c| c.into_params())
        .unwrap_or_default();
    let traffic_before = pool_traffic(live);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while started.elapsed().as_secs_f64() < seconds || rounds.is_empty() {
        let (p, d) = cohort(spec, seed, n);
        let r = run_round(live, p, d, 1 + (n % 3) as u32);
        committed_total += u64::from(r.outcome.is_some_and(|o| o.is_committed()));
        rounds.push(r);
        n += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let traffic_after = pool_traffic(live);
    let gen = GenClock {
        busy_s: rounds.iter().map(|r| r.gen_busy_s).sum(),
        wall_s,
        lateness_max_ms: 0.0,
    };
    RoundsRun {
        rounds,
        wall_s,
        gen,
        params_before,
        store_writes: live.store.write_count(),
        committed_total,
        attempted_total: n - first_round,
        next_round: n,
        secagg_aborts: live.secagg_aborts(),
        traffic: (
            traffic_after.0 - traffic_before.0,
            traffic_after.1 - traffic_before.1,
        ),
    }
}

fn pool_traffic(live: &Live) -> (u64, u64) {
    live.devices
        .iter()
        .map(|d| d.conn.traffic())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Output checks; returns the failures found (empty = correct).
pub fn check(spec: &Spec, inputs: &Inputs, run: &RoundsRun, prior_commits: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let dim = inputs.plan.server.expected_dim;
    let codec = inputs.plan.server.update_codec.build();
    let encoder = FixedPointEncoder::default_for_updates();
    let mut prev = run.params_before.as_slice();
    for r in &run.rounds {
        match r.outcome {
            Some(RoundOutcome::Committed { incorporated, .. })
                if incorporated == spec.per_round => {}
            other => problems.push(format!("round {:?}: outcome {other:?}", r.round)),
        }
        if r.accepted != spec.per_round || r.rejected != 0 {
            problems.push(format!(
                "round {:?}: {} reports accepted, {} rejected",
                r.round, r.accepted, r.rejected
            ));
        }
        let survivors: Vec<usize> = r
            .participants
            .iter()
            .copied()
            .filter(|d| !r.dropped.contains(d))
            .collect();
        let weight: f64 = survivors
            .iter()
            .map(|&d| inputs.updates[d].weight as f64)
            .sum();
        let mut sum = vec![0f64; dim];
        for &d in &survivors {
            let update = &inputs.updates[d];
            let delta = match (&spec.kind, &update.report) {
                (Kind::Plain, WireMessage::UpdateReport { update_bytes, .. }) => {
                    codec.decode(update_bytes, dim).expect("upload decodes")
                }
                _ => update.delta.clone(),
            };
            for (s, x) in sum.iter_mut().zip(&delta) {
                *s += f64::from(*x);
            }
        }
        // Plain: the shards sum the same decoded updates in another
        // order. SecAgg: the sum passed through the fixed-point field.
        let slack = match spec.kind {
            Kind::Plain => 0.0,
            Kind::SecAgg => encoder.per_summand_error() * survivors.len() as f64 / weight,
        };
        let worst = prev
            .iter()
            .zip(&sum)
            .zip(&r.params)
            .map(|((p, s), got)| {
                let want = f64::from(*p) + s / weight;
                (f64::from(*got) - want).abs() - (slack + 1e-5 * (1.0 + want.abs()))
            })
            .fold(f64::NEG_INFINITY, f64::max);
        if r.params.len() != dim || worst > 0.0 {
            problems.push(format!(
                "round {:?}: committed model is off the expected weighted mean by {worst:e} beyond tolerance",
                r.round
            ));
        }
        prev = &r.params;
    }
    let committed = prior_commits + run.committed_total;
    if run.store_writes != 1 + committed {
        problems.push(format!(
            "store has {} writes for {committed} committed rounds (+1 initial)",
            run.store_writes
        ));
    }
    if run.committed_total != run.attempted_total {
        problems.push(format!(
            "{} of {} rounds committed",
            run.committed_total, run.attempted_total
        ));
    }
    if run.secagg_aborts != 0.0 {
        problems.push(format!("{} SecAgg shard aborts", run.secagg_aborts));
    }
    problems
}

/// End-to-end and client-boundary metrics of a timed run.
pub fn metrics(inputs: &Inputs, run: &RoundsRun, tail_pct: f64) -> Metrics {
    let mut m = Metrics::default();
    let lat: Vec<f64> = run.rounds.iter().map(RoundRecord::latency_ms).collect();
    let committed = run
        .rounds
        .iter()
        .filter(|r| r.outcome.is_some_and(|o| o.is_committed()))
        .count() as f64;
    m.put("rounds_per_s", committed / run.wall_s, "1/s");
    m.put("round_p50_ms", median(&lat), "ms");
    m.put("round_tail_ms", percentile(&lat, tail_pct), "ms");
    // Closed loop: the selection burst's check-ins answered per second,
    // first check-in sent → last configuration received.
    let burst: Vec<f64> = run
        .rounds
        .iter()
        .map(|r| r.participants.len() as f64 / (r.t_last_config - r.t_start).as_secs_f64())
        .collect();
    m.put("checkin_max_rate", median(&burst), "1/s");
    // Simulated device time the accepted reports represent, per second.
    let device_s: f64 = run
        .rounds
        .iter()
        .flat_map(|r| r.participants.iter())
        .map(|&d| inputs.updates[d].work_units as f64 / EXAMPLES_PER_DEVICE_S)
        .sum();
    m.put(
        "sim_device_hours_per_s",
        device_s / 3600.0 / run.wall_s,
        "1/s",
    );
    let n = run.rounds.len().max(1) as f64;
    m.put("wire.frames", run.traffic.0 as f64 / n, "count");
    m.put("wire.bytes", run.traffic.1 as f64 / n, "B");
    let waits = |f: &dyn Fn(&RoundRecord) -> f64| -> f64 {
        median(&run.rounds.iter().map(f).collect::<Vec<_>>())
    };
    m.put(
        "live.config_wait_ms",
        waits(&|r| (r.t_first_config - r.t_start).as_secs_f64() * 1e3),
        "ms",
    );
    m.put(
        "live.ack_wait_ms",
        waits(&|r| (r.t_last_ack - r.t_last_report).as_secs_f64() * 1e3),
        "ms",
    );
    m.put(
        "live.complete_ms",
        waits(&|r| (r.t_end - r.t_complete_sent).as_secs_f64() * 1e3),
        "ms",
    );
    m.put("gen.busy_frac", run.gen.busy_frac(), "ratio");
    m.put("gen.lateness_max_ms", run.gen.lateness_max_ms, "ms");
    m.put("gen.unanswered", 0.0, "count");
    m.put(
        "coordinator.reports_accepted",
        run.rounds.iter().map(|r| r.accepted as f64).sum(),
        "count",
    );
    m.put(
        "coordinator.reports_rejected",
        run.rounds.iter().map(|r| r.rejected as f64).sum(),
        "count",
    );
    m.put("storage.writes", run.store_writes as f64, "count");
    m.put("secagg.aborts", run.secagg_aborts, "count");
    m
}

/// Records the client-boundary spans of the timed rounds.
pub fn record_spans(tracer: &mut Tracer, run: &RoundsRun) {
    for r in &run.rounds {
        let id = r.round.0;
        let root = tracer.record("live.round", id, r.t_start, r.t_end, None);
        tracer.record("gen.checkins", id, r.t_start, r.t_checkins_sent, root);
        tracer.record("live.config_wait", id, r.t_start, r.t_first_config, root);
        tracer.record("live.ack_wait", id, r.t_last_report, r.t_last_ack, root);
        tracer.record("live.complete", id, r.t_complete_sent, r.t_end, root);
    }
}

/// Percentile of the round latencies reported as `round_tail_ms`: the
/// highest with at least ten of a 15-second run's rounds beyond it.
pub fn tail_pct(kind: Kind) -> f64 {
    match kind {
        Kind::Plain => 70.0,
        Kind::SecAgg => 85.0,
    }
}

/// Runs `plain_rounds` or `secagg_rounds`.
pub fn workload(kind: Kind, args: &Args) -> Outcome {
    let spec = Spec::of(kind);
    let mut out = Outcome::default();
    let (mut live, inputs) = repeat_setup(
        || {
            let (live, inputs) = setup(&spec, args.seed);
            let s = live.split;
            ((live, inputs), [s.execute_s, s.frames_s, s.spawn_s])
        },
        |(live, _)| live.shutdown(),
        &mut out.metrics,
    );
    let tail = tail_pct(kind);
    if !args.trace {
        let run = drive(&mut live, &spec, args.seed, args.seconds, 0);
        out.problems = check(&spec, &inputs, &run, 0);
        out.metrics.extend(metrics(&inputs, &run, tail));
        tally(&mut out, &run);
        live.shutdown();
        return out;
    }
    // Traced run: an untraced third, a traced third (client-boundary
    // spans), then the replay of the traced rounds' inputs.
    let third = args.seconds / 3.0;
    let plain_run = drive(&mut live, &spec, args.seed, third, 0);
    let untraced = metrics(&inputs, &plain_run, tail);
    let prior = plain_run.committed_total;
    let mut tracer = Tracer::new(true);
    let traced_run = drive(&mut live, &spec, args.seed, third, plain_run.next_round);
    record_spans(&mut tracer, &traced_run);
    let traced = metrics(&inputs, &traced_run, tail);
    out.problems = check(&spec, &inputs, &plain_run, 0);
    out.problems
        .extend(check(&spec, &inputs, &traced_run, prior));
    tally(&mut out, &plain_run);
    tally(&mut out, &traced_run);
    let m = &mut out.metrics;
    m.extend(traced);
    let p50 = |m: &Metrics| m.get("round_p50_ms").unwrap_or(f64::NAN);
    m.put(
        "trace.overhead_frac",
        p50(m) / p50(&untraced) - 1.0,
        "ratio",
    );
    let mut layers = Layers::new(&spec, args.seed, &inputs);
    let first = traced_run.rounds.first().map_or(0, |r| r.round.0);
    for n in 0..REPLAY_ROUNDS as u64 {
        replay_round(
            &mut tracer,
            &mut layers,
            &spec,
            args.seed,
            &inputs,
            first + n,
        );
    }
    let spans = tracer.spans();
    let table = layer_table(spans);
    layer_metrics(m, &table, REPLAY_ROUNDS as f64);
    m.put(
        "selector.accepts",
        layers.selector.counters().0 as f64,
        "count",
    );
    m.put(
        "selector.sheds",
        layers.selector.shed_total() as f64,
        "count",
    );
    m.put(
        "secagg.recoveries",
        traced_run
            .rounds
            .iter()
            .map(|r| r.dropped.len() as f64)
            .sum(),
        "count",
    );
    m.put("device.execute_ms", median(&inputs.execute_ms), "ms");
    m.put(
        "device.update_bytes",
        inputs
            .updates
            .iter()
            .map(|u| update_len(&u.report) as f64)
            .sum::<f64>()
            / inputs.updates.len().max(1) as f64,
        "B",
    );
    // Live round time the replayed server layers and the generator do
    // not account for: waiting, mailbox hops, thread hand-offs, minus
    // whatever the shards overlapped on the second core.
    let layer_ms = median(&layer_ms_per_root(spans, "replay.round"));
    let gen_ms = median(
        &traced_run
            .rounds
            .iter()
            .map(|r| r.gen_busy_s * 1e3)
            .collect::<Vec<_>>(),
    );
    let live_ms = m.get("round_p50_ms").unwrap_or(0.0);
    m.put("live.unexplained_ms", live_ms - layer_ms - gen_ms, "ms");
    eprintln!(
        "replay: live round p50 {live_ms:.3} ms = server layers {layer_ms:.3} ms + generator {gen_ms:.3} ms + unexplained {:.3} ms",
        live_ms - layer_ms - gen_ms
    );
    out.trace = Some((dump_spans(spans), render_table(&table)));
    live.shutdown();
    out
}

fn update_len(report: &WireMessage) -> usize {
    match report {
        WireMessage::UpdateReport { update_bytes, .. } => update_bytes.len(),
        WireMessage::SecAggReport { field_vector, .. } => field_vector.len() * 8,
        _ => 0,
    }
}

fn tally(out: &mut Outcome, run: &RoundsRun) {
    out.attempted += run.rounds.len() as u64;
    out.failed += run
        .rounds
        .iter()
        .filter(|r| !r.outcome.is_some_and(|o| o.is_committed()) || r.rejected > 0)
        .count() as u64;
}
