//! `checkin_storm`: an open-loop, seeded Poisson check-in storm over
//! eight populations behind two Selectors.
//!
//! Every check-in of the run is due at a scheduled instant and is timed
//! from that instant to its reply, so a stall in the server also delays
//! the check-ins queued behind it. Selected devices report a tiny
//! pre-built update after a fixed simulated training delay; everyone
//! else meets a round in Reporting and is pace-steered away with
//! `ComeBackLater`, the Sec. 2.3 steady state. A run is a fixed-rate
//! phase below the knee (check-in latency, rounds) followed by a binary
//! search and a staircase on a fixed rate ladder for the highest rate
//! that passes (`checkin_max_rate`).

use crate::gen::{reply_tag, Conn, GenClock};
use crate::rounds::rekey;
use crate::stats::{median, percentile};
use crate::trace::{dump_spans, layer_table, render_table, Tracer};
use crate::{repeat_setup, Args, Outcome};
use crossbeam::channel::{unbounded, Receiver};
use fl_actors::{ActorRef, ActorSystem, LockingService};
use fl_analytics::overload::OverloadMonitorConfig;
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::RoundConfig;
use fl_core::{DeviceId, PopulationName, RoundId, RoundOutcome};
use fl_server::live::{CoordMsg, CoordinatorActor};
use fl_server::pace::PaceSteering;
use fl_server::shedding::GlobalAdmissionConfig;
use fl_server::topology::{
    spawn_multi_topology, DeploymentSpec, MultiTopology, SelectorSpec, TopologyBlueprint,
};
use fl_server::CoordinatorConfig;
use fl_wire::{tag, WireMessage};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Percentile of the fixed-rate phase's round latencies reported as
/// `round_tail_ms`.
pub const TAIL_PCT: f64 = 90.0;
/// Populations sharing the tree.
pub const POPULATIONS: usize = 8;
/// Selectors the gateway spreads devices over (device id modulo).
pub const SELECTORS: usize = 2;
/// Share of all arrivals that the first population takes.
pub const HOT_SHARE: f64 = 0.5;
/// Devices in the pool.
pub const POOL: usize = 65_536;
/// Devices a round selects.
pub const GOAL: usize = 8;
/// Simulated on-device training before a selected device reports.
pub const TRAIN_DELAY: Duration = Duration::from_millis(200);
/// Rate offered between steps, so arrivals never stop and every
/// cohort fills (check-ins/s, below the knee).
pub const BACKGROUND_RATE: f64 = 10_000.0;
/// Rate of the fixed-rate phase, below the knee (check-ins/s).
pub const FIXED_RATE: f64 = 40_000.0;
/// The ladder: `LADDER_BASE · LADDER_STEP^k` for `k < LADDER_RUNGS`.
pub const LADDER_BASE: f64 = 20_000.0;
/// Ratio between adjacent rungs (5 % apart).
pub const LADDER_STEP: f64 = 1.05;
/// Rungs on the ladder (top ≈ 600 000/s).
pub const LADDER_RUNGS: usize = 71;
/// Arrival window of one ladder step.
pub const STEP: Duration = Duration::from_millis(500);
/// A step passes only if p99 check-in latency stays under this.
pub const P99_LIMIT_MS: f64 = 50.0;
/// A step whose generator's p99 lateness exceeds this is generator-bound.
pub const LATENESS_LIMIT_MS: f64 = 25.0;
/// After a step's last arrival, check-ins still unanswered this much
/// later count as unanswered at the end of the step.
pub const GRACE: Duration = Duration::from_millis(50);
/// The traced run keeps every `LIVE_SPAN_SAMPLE`-th check-in's span.
const LIVE_SPAN_SAMPLE: usize = 10;
/// Check-ins the traced run's replay drives through the layers.
const REPLAY_CHECKINS: usize = 20_000;
/// While arrivals are due, the generator scans for replies this often.
const POLL_EVERY: Duration = Duration::from_micros(100);
/// How long the generator waits for stragglers before giving up on them.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// The rate of rung `k`.
pub fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

fn population(p: usize) -> PopulationName {
    PopulationName::new(format!("storm/p{p}"))
}

fn model() -> ModelSpec {
    ModelSpec::Logistic {
        dim: 4,
        classes: 2,
        seed: 3,
    }
}

/// Every population's round: `GOAL` devices; it configures when the
/// cohort is full and closes at its last report. No window expires, so
/// a backlog above the knee delays rounds but never abandons one.
fn round_config() -> RoundConfig {
    RoundConfig {
        goal_count: GOAL,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 600_000,
        report_window_ms: 600_000,
        device_cap_ms: 600_000,
    }
}

/// Per-Selector quota for each population (never reached: the live
/// Selector releases a device as soon as it accepts it).
const QUOTA: usize = 1_000;

/// Arrival share per population: one takes `HOT_SHARE`, the rest split
/// the remainder evenly.
fn weights() -> Vec<f64> {
    (0..POPULATIONS)
        .map(|p| {
            if p == 0 {
                HOT_SHARE
            } else {
                (1.0 - HOT_SHARE) / (POPULATIONS - 1) as f64
            }
        })
        .collect()
}

/// The global fair-share budget: consulted on every admit, sized never
/// to shed at the ladder's rates.
fn global_budget() -> GlobalAdmissionConfig {
    GlobalAdmissionConfig {
        window_ms: 1_000,
        max_admits_per_window: 1 << 40,
    }
}

/// Selector `i` of the tree.
fn selector_spec(seed: u64, i: usize) -> SelectorSpec {
    SelectorSpec::new(
        PaceSteering::new(1_000, GOAL as u64),
        POOL as u64,
        seed ^ i as u64,
        QUOTA,
    )
}

/// Population `p`'s Coordinator deployment.
fn deployment(seed: u64, p: usize) -> DeploymentSpec {
    let task = FlTask::training("train", population(p)).with_round(round_config());
    DeploymentSpec {
        config: CoordinatorConfig::new(population(p), seed ^ p as u64),
        group: TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        plans: vec![FlPlan::standard_training(
            model(),
            1,
            8,
            0.1,
            CodecSpec::Identity,
        )],
        initial_params: vec![0.0; model().num_params()],
    }
}

#[derive(Debug)]
struct Device {
    conn: Conn,
    pop: usize,
    checkin: Vec<u8>,
    report: WireMessage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Free,
    CheckingIn { due: Instant, counted: bool },
    Training,
    Reporting { round: RoundId },
}

/// One population's in-flight round as the generator sees it.
#[derive(Debug, Default)]
struct PopRound {
    round: Option<RoundId>,
    started: Option<Instant>,
    configured: usize,
    acked: usize,
    accepted: usize,
    completing: Option<Receiver<Option<RoundOutcome>>>,
    retry_at: Option<Instant>,
}

/// A finished round.
#[derive(Debug, Clone, Copy)]
struct RoundDone {
    latency_ms: f64,
    started: Instant,
    accepted: usize,
    outcome: Option<RoundOutcome>,
}

/// What one step saw.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Offered rate.
    pub rate: f64,
    /// Check-ins sent.
    pub sent: u64,
    /// Latency of each answered check-in (ms, from its due time).
    pub latency_ms: Vec<f64>,
    /// Shed replies.
    pub shed: u64,
    /// Check-ins unanswered `GRACE` after the last arrival.
    pub unanswered_at_end: u64,
    /// Arrivals skipped because no pool device was free.
    pub pool_exhausted: u64,
    /// Lateness of each send against its due time (ms).
    pub lateness_ms: Vec<f64>,
    /// Worst lateness of a send against its due time (ms).
    pub lateness_max_ms: f64,
    /// Generator busy share.
    pub busy_frac: f64,
}

/// A step's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every limit held.
    Pass,
    /// The program missed a limit (latency, shed, unanswered).
    Fail,
    /// The generator could not keep its schedule; never a pass.
    GeneratorBound,
}

impl Step {
    /// p99 latency, counting every shed or unanswered check-in as a miss.
    pub fn p99_ms(&self) -> f64 {
        if self.shed + self.unanswered_at_end > 0 {
            return f64::INFINITY;
        }
        percentile(&self.latency_ms, 99.0)
    }

    /// p99 of the generator's lateness.
    pub fn lateness_p99_ms(&self) -> f64 {
        percentile(&self.lateness_ms, 99.0)
    }

    /// Judges the step against the limits.
    pub fn verdict(&self) -> Verdict {
        if self.lateness_p99_ms() > LATENESS_LIMIT_MS || self.pool_exhausted > 0 {
            Verdict::GeneratorBound
        } else if self.p99_ms() < P99_LIMIT_MS {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }
}

/// The spawned tree, the device pool and the generator's state.
struct Storm {
    system: ActorSystem,
    topology: MultiTopology,
    coordinators: Vec<ActorRef<CoordMsg>>,
    devices: Vec<Device>,
    state: Vec<State>,
    free: Vec<VecDeque<usize>>,
    waiting: Vec<usize>,
    training: VecDeque<(Instant, usize)>,
    reporting: Vec<usize>,
    rounds: Vec<PopRound>,
    done: Vec<RoundDone>,
    rng: StdRng,
    cum_weights: Vec<f64>,
    step_waiting: usize,
    /// When tracing, `(due, answered)` of every counted check-in.
    live_spans: Option<Vec<(Instant, Instant)>>,
    gen: GenClock,
    counts: Counts,
}

/// Totals over the whole run.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    checkins: u64,
    come_back_later: u64,
    shed: u64,
    configured: u64,
    reports: u64,
    acks_accepted: u64,
    acks_rejected: u64,
    unexpected: u64,
}

fn setup(seed: u64) -> (Storm, [f64; 3]) {
    let started = Instant::now();
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let dim = model().num_params();
    let coordinators: Vec<(CoordinatorActor, usize)> = (0..POPULATIONS)
        .map(|p| {
            let d = deployment(seed, p);
            let actor =
                CoordinatorActor::new(d.config, d.group, d.plans, d.initial_params, locks.clone());
            (actor, QUOTA)
        })
        .collect();
    let blueprint =
        TopologyBlueprint::new((0..SELECTORS).map(|i| selector_spec(seed, i)).collect())
            .with_global_admission(global_budget())
            .with_telemetry(OverloadMonitorConfig::default());
    let topology = spawn_multi_topology(&system, coordinators, &blueprint);
    let coordinators: Vec<ActorRef<CoordMsg>> = (0..POPULATIONS)
        .map(|p| {
            topology
                .coordinator(&population(p))
                .expect("spawned")
                .clone()
        })
        .collect();
    let spawn_s = started.elapsed().as_secs_f64();

    // The pool is split among the populations in arrival proportions.
    let started = Instant::now();
    let weights = weights();
    let mut rng = fl_ml::rng::seeded(seed ^ 0x5702);
    let update = CodecSpec::Identity.build().encode(&vec![0.01f32; dim]);
    let mut free = vec![VecDeque::new(); POPULATIONS];
    let devices: Vec<Device> = (0..POOL)
        .map(|i| {
            let pop = fl_ml::rng::weighted_index(&mut rng, &weights);
            free[pop].push_back(i);
            let device = DeviceId(i as u64);
            let selector = topology.selectors[i % SELECTORS].clone();
            Device {
                conn: Conn::new(selector, coordinators[pop].clone()),
                pop,
                checkin: fl_wire::encode(&WireMessage::CheckinRequest {
                    device,
                    population: population(pop),
                })
                .expect("check-in frame encodes"),
                report: WireMessage::UpdateReport {
                    device,
                    round: RoundId(0),
                    attempt: 1,
                    update_bytes: update.clone(),
                    weight: 1,
                    loss: 0.5,
                    accuracy: 0.5,
                    population: population(pop),
                },
            }
        })
        .collect();
    for (p, c) in coordinators.iter().enumerate() {
        let _ = c.send(CoordMsg::SetPopulationEstimate(free[p].len() as u64));
    }
    let frames_s = started.elapsed().as_secs_f64();
    let mut cum = 0.0;
    let cum_weights = weights
        .iter()
        .map(|w| {
            cum += w;
            cum
        })
        .collect();
    (
        Storm {
            system,
            topology,
            coordinators,
            state: vec![State::Free; devices.len()],
            devices,
            free,
            waiting: Vec::new(),
            training: VecDeque::new(),
            reporting: Vec::new(),
            rounds: (0..POPULATIONS).map(|_| PopRound::default()).collect(),
            done: Vec::new(),
            rng,
            cum_weights,
            step_waiting: 0,
            live_spans: None,
            gen: GenClock::default(),
            counts: Counts::default(),
        },
        [0.0, frames_s, spawn_s],
    )
}

impl Storm {
    fn shutdown(self) {
        self.topology.shutdown();
        self.system.join();
    }

    fn pick_population(&mut self) -> usize {
        let u: f64 = self.rng.random();
        self.cum_weights
            .iter()
            .position(|&c| u < c)
            .unwrap_or(POPULATIONS - 1)
    }

    /// Polls every reply channel once; returns whether anything moved.
    fn poll(&mut self, step: &mut Step) -> bool {
        let mut moved = false;
        let now = Instant::now();
        let mut i = 0;
        while i < self.waiting.len() {
            let d = self.waiting[i];
            let Ok(Some(frame)) = self.devices[d].conn.try_recv() else {
                i += 1;
                continue;
            };
            moved = true;
            self.waiting.swap_remove(i);
            let State::CheckingIn { due, counted } = self.state[d] else {
                self.counts.unexpected += 1;
                continue;
            };
            if counted {
                step.latency_ms.push((now - due).as_secs_f64() * 1e3);
                self.step_waiting -= 1;
                if let Some(spans) = &mut self.live_spans {
                    spans.push((due, now));
                }
            }
            match reply_tag(&frame) {
                tag::COME_BACK_LATER => {
                    self.counts.come_back_later += 1;
                    self.release(d);
                }
                tag::SHED => {
                    self.counts.shed += 1;
                    step.shed += u64::from(counted);
                    self.release(d);
                }
                tag::PLAN_AND_CHECKPOINT => {
                    self.counts.configured += 1;
                    let pop = self.devices[d].pop;
                    // A round begins only after the Coordinator answered
                    // the previous round's completion, so a configuration
                    // arriving while that answer is pending belongs to
                    // the next round: collect the answer first.
                    if let Some(rx) = self.rounds[pop].completing.take() {
                        match rx.recv_timeout(DRAIN_LIMIT) {
                            Ok(Some(outcome)) => self.finish_round(pop, outcome, now),
                            _ => self.counts.unexpected += 1,
                        }
                    }
                    let round = &mut self.rounds[pop];
                    if round.round.is_none() {
                        // The one configuration a device decodes per round.
                        match fl_wire::decode(&frame) {
                            Ok(WireMessage::PlanAndCheckpoint { checkpoint, .. }) => {
                                round.round = Some(checkpoint.round);
                            }
                            _ => self.counts.unexpected += 1,
                        }
                    }
                    round.configured += 1;
                    round.started = Some(round.started.map_or(due, |s| s.min(due)));
                    self.state[d] = State::Training;
                    self.training.push_back((now + TRAIN_DELAY, d));
                }
                _ => {
                    self.counts.unexpected += 1;
                    self.release(d);
                }
            }
        }
        // Reports whose simulated training is over.
        while let Some(&(at, d)) = self.training.front() {
            if at > now {
                break;
            }
            self.training.pop_front();
            let pop = self.devices[d].pop;
            let round = self.rounds[pop].round.unwrap_or(RoundId(0));
            rekey(&mut self.devices[d].report, round, 1);
            let frame = fl_wire::encode(&self.devices[d].report).expect("report encodes");
            self.devices[d].conn.send(&frame).expect("report sends");
            self.counts.reports += 1;
            self.state[d] = State::Reporting { round };
            self.reporting.push(d);
            moved = true;
        }
        let mut i = 0;
        while i < self.reporting.len() {
            let d = self.reporting[i];
            let Ok(Some(frame)) = self.devices[d].conn.try_recv() else {
                i += 1;
                continue;
            };
            moved = true;
            self.reporting.swap_remove(i);
            let State::Reporting { round } = self.state[d] else {
                continue;
            };
            let pop = self.devices[d].pop;
            let ok = matches!(
                fl_wire::decode(&frame),
                Ok(WireMessage::ReportAck { accepted: true, round: r, .. }) if r == round
            );
            if ok {
                self.counts.acks_accepted += 1;
                self.rounds[pop].accepted += 1;
            } else {
                self.counts.acks_rejected += 1;
            }
            self.rounds[pop].acked += 1;
            self.release(d);
        }
        // Ask a Coordinator to complete its round once every configured
        // device has its ack; collect completion replies.
        for pop in 0..POPULATIONS {
            let round = &mut self.rounds[pop];
            if round.round.is_some()
                && round.completing.is_none()
                && round.acked == round.configured
                && round.retry_at.is_none_or(|at| at <= now)
            {
                let (tx, rx) = unbounded();
                let _ = self.coordinators[pop].send(CoordMsg::TryCompleteRound { reply: tx });
                round.completing = Some(rx);
                moved = true;
            }
            let Some(rx) = &round.completing else {
                continue;
            };
            match rx.try_recv() {
                Ok(Some(outcome)) => {
                    self.finish_round(pop, outcome, now);
                    moved = true;
                }
                // Not finished yet: ask again a little later.
                Ok(None) => {
                    round.completing = None;
                    round.retry_at = Some(now + Duration::from_millis(5));
                }
                Err(_) => {}
            }
        }
        moved
    }

    fn finish_round(&mut self, pop: usize, outcome: RoundOutcome, now: Instant) {
        let round = std::mem::take(&mut self.rounds[pop]);
        let started = round.started.unwrap_or(now);
        self.done.push(RoundDone {
            latency_ms: (now - started).as_secs_f64() * 1e3,
            started,
            accepted: round.accepted,
            outcome: Some(outcome),
        });
    }

    fn release(&mut self, d: usize) {
        self.state[d] = State::Free;
        let pop = self.devices[d].pop;
        self.free[pop].push_back(d);
    }

    /// Sends one check-in for `pop` due at `due`; false if the
    /// population has no free device.
    fn check_in(&mut self, pop: usize, due: Instant, counted: bool) -> bool {
        let Some(d) = self.free[pop].pop_front() else {
            return false;
        };
        self.devices[d]
            .conn
            .send(&self.devices[d].checkin)
            .expect("check-in sends");
        self.state[d] = State::CheckingIn { due, counted };
        self.waiting.push(d);
        self.counts.checkins += 1;
        self.step_waiting += usize::from(counted);
        true
    }

    /// Offers `rate` check-ins/s for `window` (the step's counted
    /// check-ins), then `BACKGROUND_RATE` until every counted check-in is
    /// answered.
    fn step(&mut self, rate: f64, window: Duration) -> Step {
        let mut step = Step {
            rate,
            ..Step::default()
        };
        // Stragglers of an earlier step no longer count against this one.
        for &d in &self.waiting {
            if let State::CheckingIn { due, .. } = self.state[d] {
                self.state[d] = State::CheckingIn {
                    due,
                    counted: false,
                };
            }
        }
        self.step_waiting = 0;
        let start = Instant::now();
        let end = start + window;
        let mut busy = 0.0f64;
        let mut next_due = start + exp_gap(&mut self.rng, rate);
        let mut grace_checked = false;
        let mut last_poll = start;
        loop {
            let t0 = Instant::now();
            let mut moved = false;
            let mut sent = false;
            while next_due <= t0 {
                moved = true;
                sent = true;
                let pop = self.pick_population();
                let counted = next_due < end;
                if counted {
                    let late = (Instant::now() - next_due).as_secs_f64() * 1e3;
                    step.lateness_max_ms = step.lateness_max_ms.max(late);
                    step.lateness_ms.push(late);
                    step.sent += 1;
                }
                if !self.check_in(pop, next_due, counted) && counted {
                    step.sent -= 1;
                    step.pool_exhausted += 1;
                }
                next_due += exp_gap(
                    &mut self.rng,
                    if next_due < end {
                        rate
                    } else {
                        BACKGROUND_RATE
                    },
                );
            }
            // Scanning every waiting device costs the generator time, so
            // while arrivals keep it busy it scans once per POLL_EVERY.
            if !sent || t0 - last_poll >= POLL_EVERY {
                last_poll = t0;
                moved |= self.poll(&mut step);
            }
            let now = Instant::now();
            if moved {
                busy += (now - t0).as_secs_f64();
            }
            if now >= end + GRACE {
                if !grace_checked {
                    grace_checked = true;
                    step.unanswered_at_end = self.step_waiting as u64;
                }
                if self.step_waiting == 0 || now >= end + DRAIN_LIMIT {
                    break;
                }
            }
            if !moved {
                let nap = next_due
                    .saturating_duration_since(now)
                    .min(Duration::from_micros(50));
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        step.busy_frac = busy / wall;
        self.gen.busy_s += busy;
        self.gen.wall_s += wall;
        self.gen.lateness_max_ms = self.gen.lateness_max_ms.max(step.lateness_max_ms);
        step
    }

    /// A fixed-rate phase of `seconds`: the step, the rounds that began
    /// inside it, and its wall time.
    fn fixed_phase(&mut self, seconds: f64) -> (Step, Vec<RoundDone>, f64) {
        let before = self.done.len();
        let started = Instant::now();
        let step = self.step(FIXED_RATE, Duration::from_secs_f64(seconds));
        self.settle();
        let wall = started.elapsed().as_secs_f64();
        let rounds = self.done[before..]
            .iter()
            .copied()
            .filter(|r| r.started >= started)
            .collect();
        (step, rounds, wall)
    }

    /// Stops the arrival process cleanly: a population with unanswered
    /// check-ins (a cohort still filling) gets one more check-in every
    /// millisecond until everything is answered, and every round in
    /// flight completes.
    fn settle(&mut self) {
        let deadline = Instant::now() + DRAIN_LIMIT;
        let mut ignored = Step::default();
        let mut last_top_up = Instant::now();
        while Instant::now() < deadline
            && (!self.waiting.is_empty()
                || !self.training.is_empty()
                || !self.reporting.is_empty()
                || self.rounds.iter().any(|r| r.round.is_some()))
        {
            let now = Instant::now();
            if now - last_top_up >= Duration::from_millis(1) {
                last_top_up = now;
                let mut filling = [false; POPULATIONS];
                for &d in &self.waiting {
                    filling[self.devices[d].pop] = true;
                }
                for (pop, _) in filling.iter().enumerate().filter(|(_, f)| **f) {
                    self.check_in(pop, now, false);
                }
            }
            if !self.poll(&mut ignored) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

fn exp_gap(rng: &mut StdRng, rate: f64) -> Duration {
    let u: f64 = rng.random();
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

/// Finds the knee: a binary search of the ladder, then an up/down
/// staircase from the rung found — one rung up after a pass, one down
/// after anything else — until `deadline`. Returns every probe as
/// `(rung, step, staircase?)`. (The traced run probes the top rung on its
/// own, to show the ladder reaches past the knee.)
fn find_knee(storm: &mut Storm, deadline: Instant) -> Vec<(usize, Step, bool)> {
    let mut probes = Vec::new();
    let mut lo: Option<usize> = None;
    let mut hi = LADDER_RUNGS;
    let mut k = LADDER_RUNGS / 2;
    loop {
        let s = storm.step(rung(k), STEP);
        let pass = s.verdict() == Verdict::Pass;
        probes.push((k, s, false));
        if pass {
            lo = Some(k);
        } else {
            hi = k;
        }
        let low = lo.map_or(0, |l| l + 1);
        if low >= hi {
            break;
        }
        k = (low + hi) / 2;
    }
    let mut k = lo.unwrap_or(0);
    while Instant::now() < deadline {
        let s = storm.step(rung(k), STEP);
        let pass = s.verdict() == Verdict::Pass;
        probes.push((k, s, true));
        k = if pass {
            (k + 1).min(LADDER_RUNGS - 1)
        } else {
            k.saturating_sub(1)
        };
    }
    probes
}

/// `checkin_max_rate` from the probes. Once the staircase has climbed or
/// fallen to the knee it oscillates between the highest rung that passes
/// and the one above it, so the median rung of its second half is that
/// highest passing rung. Falls back to the binary search's highest pass.
fn max_rate(probes: &[(usize, Step, bool)]) -> f64 {
    let mut stair: Vec<usize> = probes
        .iter()
        .filter(|(_, _, st)| *st)
        .map(|(k, _, _)| *k)
        .collect();
    if stair.len() >= 2 {
        let mut tail = stair.split_off(stair.len() / 2);
        tail.sort_unstable();
        return rung(tail[(tail.len() - 1) / 2]);
    }
    probes
        .iter()
        .filter(|(_, s, _)| s.verdict() == Verdict::Pass)
        .map(|(k, _, _)| rung(*k))
        .fold(0.0, f64::max)
}

/// Runs `checkin_storm`.
pub fn workload(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut storm = repeat_setup(|| setup(args.seed), Storm::shutdown, &mut out.metrics);
    let started = Instant::now();
    // Warm-up, then the fixed-rate phase below the knee.
    storm.step(FIXED_RATE, Duration::from_millis(500));
    storm.settle();
    let fixed_s = args.seconds * 0.25;
    let (fixed, fixed_rounds, fixed_wall) = storm.fixed_phase(fixed_s);
    let mut tracer = Tracer::new(args.trace);
    let all_probes = if args.trace {
        // The same phase again with its client-boundary spans kept, then
        // only the top rung: the replay replaces the knee search.
        storm.live_spans = Some(Vec::new());
        let (traced, _, _) = storm.fixed_phase(fixed_s);
        for (i, (due, answered)) in storm
            .live_spans
            .take()
            .unwrap_or_default()
            .into_iter()
            .enumerate()
        {
            if i % LIVE_SPAN_SAMPLE == 0 {
                tracer.record("live.checkin", i as u64, due, answered, None);
            }
        }
        out.metrics.put(
            "trace.overhead_frac",
            median(&traced.latency_ms) / median(&fixed.latency_ms) - 1.0,
            "ratio",
        );
        vec![(
            LADDER_RUNGS - 1,
            storm.step(rung(LADDER_RUNGS - 1), STEP),
            false,
        )]
    } else {
        find_knee(&mut storm, started + Duration::from_secs_f64(args.seconds))
    };
    storm.settle();

    // Every check-in got exactly one reply, and nothing else arrived.
    let mut problems = Vec::new();
    let c = storm.counts;
    let mut strays = 0;
    for d in &storm.devices {
        while let Ok(Some(_)) = d.conn.try_recv() {
            strays += 1;
        }
    }
    let unanswered = storm.waiting.len() as u64;
    if c.come_back_later + c.shed + c.configured != c.checkins {
        problems.push(format!(
            "{} check-ins sent but {} ComeBackLater + {} Shed + {} PlanAndCheckpoint replies ({unanswered} unanswered)",
            c.checkins, c.come_back_later, c.shed, c.configured
        ));
    }
    if strays + c.unexpected > 0 {
        problems.push(format!(
            "{} unexpected or duplicate replies",
            strays + c.unexpected
        ));
    }
    let incorporated: usize = storm
        .done
        .iter()
        .map(|r| match r.outcome {
            Some(RoundOutcome::Committed { incorporated, .. }) => {
                if incorporated != r.accepted {
                    problems.push(format!(
                        "a round incorporated {incorporated} reports but acked {} as accepted",
                        r.accepted
                    ));
                }
                incorporated
            }
            other => {
                problems.push(format!("round outcome {other:?}"));
                0
            }
        })
        .sum();
    if incorporated as u64 != c.acks_accepted {
        problems.push(format!(
            "{} accepted report keys but {incorporated} incorporated",
            c.acks_accepted
        ));
    }
    if !storm.training.is_empty() || !storm.reporting.is_empty() {
        problems.push("reports still in flight at the end of the run".into());
    }

    let m = &mut out.metrics;
    let lat: Vec<f64> = fixed_rounds.iter().map(|r| r.latency_ms).collect();
    m.put(
        "rounds_per_s",
        fixed_rounds.len() as f64 / fixed_wall,
        "1/s",
    );
    m.put("round_p50_ms", median(&lat), "ms");
    m.put("round_tail_ms", percentile(&lat, TAIL_PCT), "ms");
    m.put("checkin_max_rate", max_rate(&all_probes), "1/s");
    let reports: usize = fixed_rounds.iter().map(|r| r.accepted).sum();
    m.put(
        "sim_device_hours_per_s",
        reports as f64 * TRAIN_DELAY.as_secs_f64() / 3600.0 / fixed_wall,
        "1/s",
    );
    m.put("live.checkin_p50_us", median(&fixed.latency_ms) * 1e3, "us");
    m.put(
        "live.checkin_tail_ms",
        percentile(&fixed.latency_ms, 99.0),
        "ms",
    );
    m.put("gen.lateness_max_ms", fixed.lateness_max_ms, "ms");
    m.put("gen.busy_frac", fixed.busy_frac, "ratio");
    m.put("gen.unanswered", unanswered as f64, "count");
    if args.trace {
        m.put(
            "storm.top_rung_fails",
            f64::from(u8::from(all_probes[0].1.verdict() != Verdict::Pass)),
            "count",
        );
    }
    m.put(
        "coordinator.reports_accepted",
        c.acks_accepted as f64,
        "count",
    );
    m.put(
        "coordinator.reports_rejected",
        c.acks_rejected as f64,
        "count",
    );
    m.put("selector.sheds", c.shed as f64, "count");
    for (k, s, stair) in &all_probes {
        eprintln!(
            "storm: {} rung {k:>2} {:>9.0}/s sent {:>7} p99 {:>9.3} ms late p99 {:>7.3} max {:>7.3} ms busy {:.2} unanswered {} -> {:?}",
            if *stair { "stair " } else { "search" },
            s.rate,
            s.sent,
            s.p99_ms(),
            s.lateness_p99_ms(),
            s.lateness_max_ms,
            s.busy_frac,
            s.unanswered_at_end,
            s.verdict()
        );
    }
    out.attempted = c.checkins + c.reports;
    out.failed = c.shed + unanswered + c.acks_rejected;
    out.problems = problems;
    storm.shutdown();
    if args.trace {
        let rounds = replay(&mut tracer, args.seed);
        let table = layer_table(tracer.spans());
        crate::replay::layer_metrics(&mut out.metrics, &table, rounds as f64);
        out.metrics.put(
            "selector.accepts",
            table.get("selector.checkin").map_or(0, |r| r.count) as f64,
            "count",
        );
        out.trace = Some((dump_spans(tracer.spans()), render_table(&table)));
    }
    out
}

/// One population's round in the replay: the round, its shards, the
/// master's seed, its cohort, and when the cohort reports (virtual ms).
type ReplayRound = (
    fl_server::coordinator::ActiveRound,
    Vec<fl_server::aggregator::AggregatorShard>,
    u64,
    Vec<DeviceId>,
    f64,
);

/// The traced run's replay: `REPLAY_CHECKINS` seeded storm check-ins at
/// `FIXED_RATE` on a virtual clock, single-threaded through the wire
/// codec, both Selector disciplines, telemetry and each population's
/// Coordinator. A round's cohort reports `TRAIN_DELAY` after the round
/// configured, through the shards, the merge and the commit. Returns the
/// rounds completed.
fn replay(tracer: &mut Tracer, seed: u64) -> usize {
    use crate::replay::{begin_round, checkin, complete_round, finalize, report, TimedStore};
    use fl_server::coordinator::Coordinator;
    use fl_server::round::{CheckinResponse, Phase};
    use fl_server::selector::{CheckinDecision, Selector};
    use fl_server::shedding::GlobalAdmissionBudget;

    let pops: Vec<PopulationName> = (0..POPULATIONS).map(population).collect();
    // The live tree's Selector layer; a second copy keeps its held sets.
    let build = || -> Vec<Selector> {
        let budget = GlobalAdmissionBudget::new(global_budget());
        for p in &pops {
            budget.register_population(p);
        }
        (0..SELECTORS)
            .map(|i| {
                let mut s = selector_spec(seed, i).build(Some(&budget));
                for p in &pops {
                    s.set_population_quota(p.clone(), QUOTA);
                }
                s
            })
            .collect()
    };
    let mut selectors = build();
    let mut held = build();
    let mut telemetry =
        fl_analytics::overload::OverloadMetrics::new(OverloadMonitorConfig::default(), 0);
    let dim = model().num_params();
    let mut coordinators: Vec<Coordinator<TimedStore>> = (0..POPULATIONS)
        .map(|p| {
            let d = deployment(seed, p);
            let mut c = Coordinator::new(d.config.clone(), TimedStore::default());
            d.deploy_on(&mut c).expect("replay deployment");
            c.store().take_commits();
            c
        })
        .collect();
    // NotSelecting replies are pace-steered as the live Coordinator does.
    let pace = PaceSteering::new(round_config().selection_timeout_ms, GOAL as u64);
    let mut pace_rng = fl_ml::rng::seeded(seed ^ 0x9ACE);
    let update = CodecSpec::Identity.build().encode(&vec![0.01f32; dim]);
    let weights = weights();
    let mut rng = fl_ml::rng::seeded(seed ^ 0x5EED);
    let mut active: Vec<Option<ReplayRound>> = (0..POPULATIONS).map(|_| None).collect();
    let mut now_ms = 0.0f64;
    let mut rounds = 0;
    for i in 0..REPLAY_CHECKINS {
        now_ms += -(1.0 - rng.random::<f64>()).ln() / FIXED_RATE * 1e3;
        let now = now_ms as u64;
        // Cohorts whose training is over report; their rounds commit.
        for p in 0..POPULATIONS {
            let due = matches!(&active[p], Some((r, _, _, _, at))
                if r.state.phase() == Phase::Reporting && now_ms >= *at);
            if !due {
                continue;
            }
            let (mut round, mut shards, master_seed, cohort, _) =
                active[p].take().expect("due round");
            let id = rounds as u64;
            let root = tracer.begin("replay.round", id);
            for &device in &cohort {
                let msg = WireMessage::UpdateReport {
                    device,
                    round: round.checkpoint.round,
                    attempt: 1,
                    update_bytes: update.clone(),
                    weight: 1,
                    loss: 0.5,
                    accuracy: 0.5,
                    population: pops[p].clone(),
                };
                let frame = tracer.time("gen.report_encode", id, || {
                    fl_wire::encode(&msg).expect("report encodes")
                });
                report(tracer, id, &mut round, &mut shards, &frame, now);
            }
            let (aggregate, _) = finalize(tracer, id, &round, shards, master_seed, false);
            complete_round(tracer, id, &mut coordinators[p], round, aggregate)
                .expect("replayed round commits");
            tracer.end(root);
            rounds += 1;
        }
        // The check-in itself.
        let p = fl_ml::rng::weighted_index(&mut rng, &weights);
        let id = i as u64;
        let frame = fl_wire::encode(&WireMessage::CheckinRequest {
            device: DeviceId(id),
            population: pops[p].clone(),
        })
        .expect("check-in encodes");
        let root = tracer.begin("replay.checkin", id);
        let s = i % SELECTORS;
        let decided = checkin(
            tracer,
            id,
            &frame,
            &mut selectors[s],
            &mut held[s],
            &mut telemetry,
            now,
        );
        if let Some((device, population, CheckinDecision::Accept)) = decided {
            if active[p].is_none() {
                let (round, shards, master_seed) =
                    begin_round(tracer, id, &mut coordinators[p], now);
                // The DES discipline: a beginning round drains the held set.
                for h in held.iter_mut() {
                    tracer.time("selector.forward", id, || {
                        h.forward_devices_for(&population, GOAL, now)
                    });
                }
                active[p] = Some((round, shards, master_seed, Vec::new(), f64::INFINITY));
            }
            let (round, _, _, cohort, report_at) = active[p].as_mut().expect("round begun");
            match tracer.time("coordinator.checkin", id, || round.on_checkin(device, now)) {
                CheckinResponse::Selected => {
                    cohort.push(device);
                    if round.state.phase() == Phase::Reporting {
                        *report_at = now_ms + TRAIN_DELAY.as_secs_f64() * 1e3;
                        for _ in cohort.iter() {
                            let msg = WireMessage::PlanAndCheckpoint {
                                plan: Box::new(round.plan.clone()),
                                checkpoint: Box::new(round.checkpoint.clone()),
                                population: population.clone(),
                            };
                            tracer.time("wire.encode", id, || {
                                fl_wire::encode(&msg).expect("configuration encodes")
                            });
                        }
                    }
                }
                _ => {
                    let retry_at_ms = pace.suggest_reconnect(now, POOL as u64, 1.0, &mut pace_rng);
                    let reply = WireMessage::ComeBackLater {
                        retry_at_ms,
                        population,
                    };
                    tracer.time("wire.checkin_reply_encode", id, || {
                        fl_wire::encode(&reply).expect("reply encodes")
                    });
                }
            }
        }
        tracer.end(root);
    }
    rounds
}
