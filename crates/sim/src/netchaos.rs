//! Network chaos through the live wire boundary (Sec. 2.2, 4.2).
//!
//! [`crate::chaos`] injects *server-side* faults (actor crashes, storage
//! failures) on a virtual clock; this module injects *network* faults on
//! the real threaded topology: every device's uplink runs through a
//! [`FaultyTransport`] whose seeded [`FaultScript`] drops, duplicates,
//! reorders, byte-flips, and truncates report frames in flight, while the
//! devices drive the full reconnect/resume loop ([`UploadSession`] keys,
//! resends after silent ack loss, fresh attempts after pinned rejects)
//! against the Selector → Coordinator actor tree.
//!
//! [`run_wire_chaos`] / [`run_wire_chaos_secagg`] audit the paper's
//! robustness claims under that mangled traffic:
//!
//! * **no panic, no hang** — every mangled frame surfaces as a typed
//!   error or a silent drop at some endpoint; every wait in the scenario
//!   is deadline-bounded;
//! * **at-most-once accounting** — however many times a report is
//!   retried or duplicated on the wire, the committed round incorporates
//!   exactly one contribution per device
//!   (`incorporated == unique_accepted`);
//! * **storage audit** — `write_count == 1 + committed`: retries and
//!   duplicates never reach persistent storage (Sec. 4.2);
//! * **determinism** — frame fates are a pure function of
//!   `(seed, device, frame index)`, so [`WireChaosReport::render`] is
//!   byte-identical across replays of one seed: a failing sweep seed in
//!   `tests/wire_chaos.rs` is a self-contained repro.
//!
//! Check-in frames are deliberately exempted (each script's slot 0 is
//! [`FrameFault::Deliver`]) so the cohort is fixed and the fault budget
//! lands entirely on the report/ack exchange — the surface the
//! at-most-once ledger exists to protect. Check-in loss is the *device
//! availability* axis, owned by [`crate::chaos`] drop-out bursts.

use crossbeam::channel::unbounded;
use fl_actors::{ActorRef, ActorSystem, LockingService};
use fl_analytics::overload::OverloadMonitorConfig;
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, PopulationName};
use fl_device::UploadSession;
use fl_server::coordinator::CoordinatorConfig;
use fl_server::live::{coordinator_lease_name, CoordMsg, CoordinatorActor, SelectorMsg};
use fl_server::pace::PaceSteering;
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use fl_server::topology::{spawn_multi_topology, SelectorSpec, TopologyBlueprint};
use fl_server::wire::{
    self, ChannelTransport, FaultScript, FaultStats, FaultyTransport, FrameFault, Transport,
    WireError, WireMessage,
};
use std::time::Duration;

/// The task every wire-chaos round trains.
const TASK_NAME: &str = "wire-chaos-train";
/// The population every wire-chaos coordinator owns.
const POPULATION: &str = "wire-chaos/pop";
/// Devices in the cohort (equals the round goal; all of them must land a
/// contribution for the run to be clean).
const DEVICES: u64 = 6;
/// Scripted fault slots per device — comfortably past the send budget,
/// so every frame a device can ever send has a scripted fate.
const SCRIPT_LEN: u64 = 48;
/// Per-frame fault probability, in thousandths, over slots `1..`.
const FAULT_PER_MILLE: u64 = 100;
/// How long a device waits for the ack to one send before it re-sends
/// the same `(round, attempt)` key. Frame fates are scripted, so an ack
/// either arrives within actor-hop latency (milliseconds) or never —
/// this wait only has to dominate the former by a wide margin for the
/// resend count to be schedule-invariant.
const ACK_WAIT: Duration = Duration::from_millis(1_200);
/// Bound on total sends of one device's report (resends + fresh
/// attempts). At a ~10% per-frame fault rate the chance of a device
/// exhausting this is negligible; hitting it is reported as a violation.
const MAX_SENDS: u32 = 10;
/// Bound on fresh `(round, attempt)` keys after pinned rejects.
const MAX_ATTEMPTS: u32 = 4;
/// Bound on completion polls (~20 ms apart): the never-hang deadline.
const MAX_POLLS: u32 = 1_000;
/// Bound on any single channel wait.
const WAIT: Duration = Duration::from_secs(10);

/// `splitmix64`, the house mixer — fault fates must be a pure function
/// of `(seed, device, slot)`, identical across platforms and replays.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mix(seed: u64, device: u64, slot: u64) -> u64 {
    splitmix64(seed ^ splitmix64(device.wrapping_mul(0x0101_0101_0101_0101) ^ slot))
}

/// Sparse device ids: any two differ in *every* byte, so a one-byte
/// corruption of an id on the wire can never collide with another live
/// device's id (it becomes a ghost the round rejects as NotParticipant).
/// Parity alternates with `i`, keeping `device % shards` routing
/// balanced.
fn device_id(i: u64) -> DeviceId {
    DeviceId((i + 1).wrapping_mul(0x0101_0101_0101_0101))
}

/// The per-device fault script: slot 0 (the check-in) always delivers —
/// see the module docs — and every later slot is independently mangled
/// with probability [`FAULT_PER_MILLE`]/1000, drawn uniformly from the
/// five non-terminal kinds.
fn device_script(seed: u64, device: u64) -> FaultScript {
    let mut faults = vec![FrameFault::Deliver];
    for slot in 1..SCRIPT_LEN {
        let roll = mix(seed, device, slot);
        faults.push(if roll % 1000 < FAULT_PER_MILLE {
            match (roll >> 10) % 5 {
                0 => FrameFault::Drop,
                1 => FrameFault::Duplicate,
                2 => FrameFault::Delay,
                3 => FrameFault::Corrupt,
                _ => FrameFault::Truncate,
            }
        } else {
            FrameFault::Deliver
        });
    }
    FaultScript::scripted(mix(seed, device, 0xFA17), faults)
}

/// A device connection whose uplink runs through a [`FaultyTransport`] —
/// the same shape as `fl_server::live::DeviceConn` (client/gateway
/// channel pair, inbound frames routed to an actor mailbox by tag), with
/// the fault injector spliced in where a lossy network would sit.
struct ChaosConn {
    client: FaultyTransport<ChannelTransport>,
    gateway: ChannelTransport,
    selector: ActorRef<SelectorMsg>,
    coordinator: ActorRef<CoordMsg>,
}

impl ChaosConn {
    fn connect(
        script: FaultScript,
        selector: ActorRef<SelectorMsg>,
        coordinator: ActorRef<CoordMsg>,
    ) -> Self {
        let (client, gateway) = ChannelTransport::pair();
        ChaosConn {
            client: FaultyTransport::new(client, script),
            gateway,
            selector,
            coordinator,
        }
    }

    /// Routes every frame that survived the fault injector into the
    /// right server mailbox — the gateway role, mirroring
    /// `DeviceConn::pump`: report tags go to the coordinator, everything
    /// else to the selector (which drops garbage silently), unframeable
    /// junk is dropped here.
    fn pump(&self) -> Result<(), WireError> {
        while let Some(frame) = self.gateway.try_recv_frame()? {
            let target_ok = match wire::peek_tag(&frame) {
                Ok(wire::tag::UPDATE_REPORT | wire::tag::SECAGG_REPORT) => self
                    .coordinator
                    .send(CoordMsg::Report {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
                Ok(_) => self
                    .selector
                    .send(SelectorMsg::Checkin {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
                Err(_) => true,
            };
            if !target_ok {
                return Err(WireError::Closed);
            }
        }
        Ok(())
    }

    fn send(&self, msg: &WireMessage) -> Result<(), WireError> {
        self.client.send(msg)?;
        self.pump()
    }

    fn recv(&self, timeout: Duration) -> Result<WireMessage, WireError> {
        self.pump()?;
        self.client.recv_timeout(timeout)
    }
}

/// What one device client observed; everything in it is deterministic
/// per seed (frame fates are scripted, so each send's ack either arrives
/// within actor-hop latency or never).
enum DeviceOutcome {
    /// The upload was acked accepted under this `(attempt, sends)`.
    Accepted { attempt: u32, sends: u32 },
    /// The device gave up; the reason lands in the violations list.
    Failed(String),
}

/// Outcome of one wire-chaos round. Every field is deterministic per
/// seed, so [`WireChaosReport::render`] is byte-identical across
/// replays — the property `tests/wire_chaos.rs` sweeps.
#[derive(Debug, Clone)]
pub struct WireChaosReport {
    /// Scenario tag (`"wire-chaos"` / `"secagg-wire-chaos"`).
    pub scenario: &'static str,
    /// The fault-script seed this run was generated from.
    pub seed: u64,
    /// Rounds committed (must be exactly 1).
    pub committed: u64,
    /// Checkpoint writes observed (must equal `1 + committed` — retries
    /// and duplicates never reach storage).
    pub write_count: u64,
    /// Contributions the committed round incorporated.
    pub incorporated: u64,
    /// Distinct `(device, round, attempt)` keys acked *accepted* — one
    /// per device when the at-most-once ledger holds.
    pub unique_accepted: u64,
    /// Coordinator-side duplicate-report replays (ledger hits).
    pub dup_reports: u64,
    /// Coordinator-side rejected evaluations (ghost keys, mangled
    /// payloads, pinned rejects).
    pub report_rejects: u64,
    /// Report-tagged frames the coordinator could not decode.
    pub corrupt_frames: u64,
    /// Injector-side fault ledger, summed over all device uplinks.
    pub faults: FaultStats,
    /// Per-device `(accepted attempt, total sends)`, indexed by device.
    pub device_attempts: Vec<(u32, u32)>,
    /// The committed model parameters — always exactly the cohort
    /// average: the frame integrity trailer guarantees a byte-flipped
    /// frame dies as a typed decode error instead of reaching the sum.
    pub params: Vec<f32>,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl WireChaosReport {
    /// Whether every invariant held under this fault script.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario={} seed={}\ncommitted={} write_count={} incorporated={} unique_accepted={}\n",
            self.scenario, self.seed, self.committed, self.write_count, self.incorporated,
            self.unique_accepted
        );
        out.push_str(&format!(
            "dup_reports={} report_rejects={} corrupt_frames={}\n",
            self.dup_reports, self.report_rejects, self.corrupt_frames
        ));
        let f = &self.faults;
        out.push_str(&format!(
            "faults delivered={} dropped={} duplicated={} delayed={} corrupted={} truncated={}\n",
            f.delivered, f.dropped, f.duplicated, f.delayed, f.corrupted, f.truncated
        ));
        for (i, (attempt, sends)) in self.device_attempts.iter().enumerate() {
            out.push_str(&format!("device {i} attempt={attempt} sends={sends}\n"));
        }
        out.push_str("params=[");
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{p:.6}"));
        }
        out.push_str("]\n");
        out.push_str(&format!("violations={}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str("violation: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// Runs one live round over plain `UpdateReport` frames with every
/// device uplink mangled by its seeded fault script. See the module docs
/// for the audited invariants.
pub fn run_wire_chaos(seed: u64) -> WireChaosReport {
    run("wire-chaos", seed, None)
}

/// [`run_wire_chaos`] over `SecAggReport` frames: masked field vectors
/// through two Aggregator shards (`max_per_shard = 3`, sticky
/// `device % shards` routing), same fault scripts, same invariants.
pub fn run_wire_chaos_secagg(seed: u64) -> WireChaosReport {
    run("secagg-wire-chaos", seed, Some(2))
}

/// One device's check-in → configure → report/resend/retry loop. The
/// loop is the reconnect/resume protocol from `fl-device`: a silent ack
/// loss re-sends the *same* [`UploadSession`] key (the ledger replays
/// the original verdict), a pinned reject moves to a fresh attempt key,
/// and acks for ghost keys (born of in-flight corruption) are ignored.
fn run_device(
    conn: &ChaosConn,
    device: DeviceId,
    index: u64,
    secagg_k: Option<usize>,
) -> DeviceOutcome {
    let population = PopulationName::new(POPULATION);
    if conn
        .send(&WireMessage::CheckinRequest {
            device,
            population: population.clone(),
        })
        .is_err()
    {
        return DeviceOutcome::Failed(format!("device {index}: selector gone"));
    }
    let (plan, checkpoint) = loop {
        match conn.recv(WAIT) {
            Ok(WireMessage::PlanAndCheckpoint {
                plan, checkpoint, ..
            }) => break (plan, checkpoint),
            Ok(other) => {
                return DeviceOutcome::Failed(format!(
                    "device {index}: unexpected pre-config reply {other:?}"
                ))
            }
            Err(e) => {
                return DeviceOutcome::Failed(format!("device {index}: no configuration: {e}"))
            }
        }
    };
    let dim = plan.server.expected_dim;
    let update = vec![0.5f32; dim];
    // Weight 1 each: the committed average over any accepted cohort of
    // intact frames is exactly 0.5 per coordinate.
    let build = |round, attempt| -> Result<WireMessage, String> {
        Ok(match secagg_k {
            Some(_) => WireMessage::SecAggReport {
                device,
                round,
                attempt,
                field_vector: fl_ml::fixedpoint::FixedPointEncoder::default_for_updates()
                    .encode(&update)
                    .map_err(|e| format!("device {index}: fixed-point encode failed: {e}"))?,
                weight: 1,
                loss: 0.4,
                accuracy: 0.9,
                population: population.clone(),
            },
            None => WireMessage::UpdateReport {
                device,
                round,
                attempt,
                update_bytes: CodecSpec::Identity.build().encode(&update),
                weight: 1,
                loss: 0.4,
                accuracy: 0.9,
                population: population.clone(),
            },
        })
    };

    let mut session = UploadSession::new(checkpoint.round);
    let (mut round, mut attempt) = session.key();
    let mut attempts = 1u32;
    let mut sends = 0u32;
    let mut strays = 0u32;
    'send: loop {
        if sends >= MAX_SENDS {
            return DeviceOutcome::Failed(format!(
                "device {index}: send budget exhausted after {sends} sends"
            ));
        }
        sends += 1;
        let msg = match build(round, attempt) {
            Ok(msg) => msg,
            Err(why) => return DeviceOutcome::Failed(why),
        };
        if conn.send(&msg).is_err() {
            return DeviceOutcome::Failed(format!("device {index}: coordinator gone"));
        }
        loop {
            match conn.recv(ACK_WAIT) {
                Ok(WireMessage::ReportAck {
                    accepted,
                    round: r,
                    attempt: a,
                    ..
                }) if r == round && a == attempt => {
                    if accepted {
                        return DeviceOutcome::Accepted { attempt, sends };
                    }
                    // Pinned reject: this key is burned for good — move
                    // to a fresh attempt key and re-evaluate.
                    if attempts >= MAX_ATTEMPTS {
                        return DeviceOutcome::Failed(format!(
                            "device {index}: rejected on all {attempts} attempts"
                        ));
                    }
                    attempts += 1;
                    let (r2, a2) = session.next_attempt();
                    round = r2;
                    attempt = a2;
                    continue 'send;
                }
                // Stray replies (the coordinator's keyless reject of a
                // frame the integrity trailer killed, or a re-pushed
                // configuration): not ours, keep waiting for the real
                // verdict.
                Ok(_) => {
                    strays += 1;
                    if strays > 64 {
                        return DeviceOutcome::Failed(format!(
                            "device {index}: drowned in stray replies"
                        ));
                    }
                }
                // Silent loss: re-send the same key; if the original
                // did land, the ledger replays its ack unchanged.
                Err(WireError::Timeout) => {
                    let _ = session.key_for_resend();
                    continue 'send;
                }
                Err(e) => {
                    return DeviceOutcome::Failed(format!("device {index}: link died: {e}"))
                }
            }
        }
    }
}

fn run(scenario: &'static str, seed: u64, secagg_k: Option<usize>) -> WireChaosReport {
    let mut report = WireChaosReport {
        scenario,
        seed,
        committed: 0,
        write_count: 0,
        incorporated: 0,
        unique_accepted: 0,
        dup_reports: 0,
        report_rejects: 0,
        corrupt_frames: 0,
        faults: FaultStats::default(),
        device_attempts: Vec::new(),
        params: Vec::new(),
        violations: Vec::new(),
    };

    let system = ActorSystem::new();
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
        // Selection closes on the 6th check-in (check-ins are never
        // faulted); reporting closes when the goal is reached. The
        // windows only have to outlast the worst deterministic
        // resend chain (a handful of ACK_WAITs).
        selection_timeout_ms: 10_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    let mut task = FlTask::training(TASK_NAME, POPULATION).with_round(round);
    if let Some(k) = secagg_k {
        task = task.with_secagg(k);
    }
    let plan = FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity);
    let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);

    // External shared store + manually acquired lease, so the harness
    // can audit write_count after the coordinator is gone.
    let store = SharedCheckpointStore::new(InMemoryCheckpointStore::new());
    let locks = LockingService::new();
    let mut config = CoordinatorConfig::new(POPULATION, 7);
    if secagg_k.is_some() {
        // Two Aggregator shards: sparse ids alternate parity, so sticky
        // `device % shards` routing splits the cohort 3/3.
        config.max_per_shard = 3;
    }
    let lease_name = coordinator_lease_name(&config.population);
    let Some(lease) = locks.acquire(lease_name.clone(), lease_name.clone()) else {
        report
            .violations
            .push("could not acquire coordinator lease".into());
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

    // Two selectors — the sharded front door; device `i` checks in
    // through selector `i % 2`.
    let blueprint = TopologyBlueprint::new(vec![
        SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10),
        SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10),
    ])
    .with_telemetry(OverloadMonitorConfig::default());
    let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
    let telemetry = topology.telemetry.clone();
    let coord_ref = topology.coordinators[&PopulationName::new(POPULATION)].clone();
    let selector_refs = topology.selectors;

    let handles: Vec<_> = (0..DEVICES)
        .map(|i| {
            let sel = selector_refs[(i % selector_refs.len() as u64) as usize].clone();
            let coord = coord_ref.clone();
            std::thread::spawn(move || {
                let conn = ChaosConn::connect(device_script(seed, i), sel, coord);
                let outcome = run_device(&conn, device_id(i), i, secagg_k);
                (outcome, conn.client.fault_stats())
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok((outcome, faults)) => {
                report.faults.delivered += faults.delivered;
                report.faults.dropped += faults.dropped;
                report.faults.duplicated += faults.duplicated;
                report.faults.delayed += faults.delayed;
                report.faults.corrupted += faults.corrupted;
                report.faults.truncated += faults.truncated;
                report.faults.disconnects += faults.disconnects;
                match outcome {
                    DeviceOutcome::Accepted { attempt, sends } => {
                        report.unique_accepted += 1;
                        report.device_attempts.push((attempt, sends));
                    }
                    DeviceOutcome::Failed(why) => {
                        report.device_attempts.push((0, 0));
                        report.violations.push(why);
                    }
                }
            }
            Err(_) => report
                .violations
                .push(format!("device {i} thread panicked")),
        }
    }

    // Poll for completion off the timer wheel, never with a raw sleep;
    // a bounded number of polls is the never-hang deadline.
    let wheel = fl_actors::timer::TimerWheel::new();
    let mut completed = false;
    for _ in 0..MAX_POLLS {
        let (tx, rx) = unbounded();
        if coord_ref
            .send(CoordMsg::TryCompleteRound { reply: tx })
            .is_err()
        {
            report
                .violations
                .push("coordinator died before completing".into());
            break;
        }
        match rx.recv_timeout(WAIT) {
            Ok(Some(outcome)) => {
                match outcome {
                    RoundOutcome::Committed { incorporated, .. } => {
                        report.incorporated = incorporated as u64;
                    }
                    other => report
                        .violations
                        .push(format!("round finished uncommitted: {other:?}")),
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

    if let Some(telemetry) = &telemetry {
        let t = telemetry.lock();
        report.dup_reports = t.dup_reports().sums().iter().sum::<f64>() as u64;
        report.report_rejects = t.report_rejects().sums().iter().sum::<f64>() as u64;
        report.corrupt_frames = t.corrupt_frames().sums().iter().sum::<f64>() as u64;
    }

    for s in &selector_refs {
        let _ = s.send(SelectorMsg::Shutdown);
    }
    let _ = coord_ref.send(CoordMsg::Shutdown);
    system.join();

    // Storage audit (Sec. 4.2): the deployment write plus exactly one
    // commit — no retried or duplicated report ever reached the store.
    report.committed = store.with(|s| s.latest(TASK_NAME).map(|ck| ck.round.0).unwrap_or(0));
    report.write_count = store.write_count();
    report.params = store.with(|s| {
        s.latest(TASK_NAME)
            .map(|ck| ck.params().to_vec())
            .unwrap_or_default()
    });
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
    // At-most-once: one incorporated contribution per accepted key.
    if report.incorporated != report.unique_accepted {
        report.violations.push(format!(
            "incorporated {} != unique accepted contributions {}",
            report.incorporated, report.unique_accepted
        ));
    }
    if report.faults.disconnects != 0 {
        report.violations.push(format!(
            "scripted {} disconnects in a disconnect-free scenario",
            report.faults.disconnects
        ));
    }
    // The committed model must be the exact cohort average no matter
    // what the scripts did: the frame integrity trailer kills every
    // byte-flipped or truncated frame at decode, so only frames built
    // by a device (all reporting 0.5 per coordinate) can ever reach the
    // sum.
    for p in &report.params {
        if (p - 0.5).abs() > 1e-3 {
            report.violations.push(format!(
                "a mangled frame polluted the committed params: {:?}",
                report.params
            ));
            break;
        }
    }
    if locks.lookup(&lease_name).is_some() {
        report
            .violations
            .push("coordinator lease still held after clean shutdown".into());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_seed_commits_the_exact_average() {
        // Seed 0's scripts happen to matter less than the structure: a
        // run is clean whenever every device lands exactly one accepted
        // contribution, whatever the script did to the wire.
        let report = run_wire_chaos(0);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.committed, 1);
        assert_eq!(report.write_count, 2);
        assert_eq!(report.incorporated, DEVICES);
        assert_eq!(report.unique_accepted, DEVICES);
    }

    #[test]
    fn scripts_are_seed_stable() {
        for device in 0..DEVICES {
            for slot in 0..SCRIPT_LEN {
                assert_eq!(
                    device_script(9, device).fault_for(slot),
                    device_script(9, device).fault_for(slot)
                );
            }
        }
        assert_ne!(
            (0..SCRIPT_LEN)
                .map(|s| device_script(1, 0).fault_for(s))
                .collect::<Vec<_>>(),
            (0..SCRIPT_LEN)
                .map(|s| device_script(2, 0).fault_for(s))
                .collect::<Vec<_>>(),
            "different seeds must mangle differently"
        );
    }

    #[test]
    fn check_in_slot_is_always_clean() {
        for seed in 0..64u64 {
            for device in 0..DEVICES {
                assert_eq!(
                    device_script(seed, device).fault_for(0),
                    FrameFault::Deliver,
                    "slot 0 carries the check-in and must never be faulted"
                );
            }
        }
    }

    #[test]
    fn sparse_ids_survive_any_single_byte_flip() {
        let ids: Vec<u64> = (0..DEVICES).map(|i| device_id(i).0).collect();
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                if i == j {
                    continue;
                }
                for byte in 0..8 {
                    for mask in 1..=255u64 {
                        assert_ne!(
                            a ^ (mask << (8 * byte)),
                            b,
                            "one flipped byte must never alias another device"
                        );
                    }
                }
            }
        }
    }
}
