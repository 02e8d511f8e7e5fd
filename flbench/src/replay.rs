//! The traced run's in-process replay: the same generated inputs driven
//! single-threaded through each layer's public functions, one span per
//! call, so the per-layer self times can be set against the live round's
//! client-boundary timeline.
//!
//! Spans named `gen.*` are device-side work the live run's generator
//! does; they are kept out of the server's layer sum, because the live
//! run measures the generator's own busy time directly.

use crate::rounds::{self, cohort, rekey, Inputs, Kind, Spec};
use crate::stats::Metrics;
use crate::trace::{self_times, LayerRow, Span, Tracer};
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_core::aggregation::FedAvgAccumulator;
use fl_core::population::{TaskGroup, TaskSelectionStrategy};
use fl_core::{CoreError, DeviceId, FlCheckpoint, PopulationName, RoundId};
use fl_server::aggregator::{AggregatorShard, DropStage};
use fl_server::coordinator::{ActiveRound, Coordinator};
use fl_server::round::Phase;
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore};
use fl_server::CoordinatorConfig;
use fl_wire::WireMessage;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// A checkpoint store that times every commit, so the replay can put a
/// `storage.commit` span under the Coordinator's completion span.
#[derive(Debug, Default)]
pub struct TimedStore {
    inner: InMemoryCheckpointStore,
    commits: Rc<RefCell<Vec<(Instant, Instant)>>>,
}

impl TimedStore {
    /// The commits timed since the last call.
    pub fn take_commits(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.commits.borrow_mut())
    }
}

/// Completes a round on `coordinator` with its merged aggregate, with a
/// `storage.commit` span under the completion span.
pub fn complete_round(
    tracer: &mut Tracer,
    id: u64,
    coordinator: &mut Coordinator<TimedStore>,
    round: ActiveRound,
    aggregate: (Vec<f32>, usize),
) -> Option<fl_core::RoundOutcome> {
    let span = tracer.begin("coordinator.complete", id);
    let outcome = coordinator
        .complete_round_external(round, Some(Ok(aggregate)))
        .ok();
    tracer.end(span);
    for (start, end) in coordinator.store().take_commits() {
        tracer.record("storage.commit", id, start, end, span);
    }
    outcome
}

impl CheckpointStore for TimedStore {
    fn commit(&mut self, checkpoint: FlCheckpoint) -> Result<(), CoreError> {
        let started = Instant::now();
        let result = self.inner.commit(checkpoint);
        self.commits.borrow_mut().push((started, Instant::now()));
        result
    }

    fn latest(&self, task_name: &str) -> Result<FlCheckpoint, CoreError> {
        self.inner.latest(task_name)
    }

    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }
}

/// The shard seed `MasterAggregator` derives for shard `index`.
fn shard_seed(master_seed: u64, index: usize) -> u64 {
    master_seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The layers of one population's server tree, driven in process.
pub struct Layers {
    /// The Coordinator over a timed store.
    pub coordinator: Coordinator<TimedStore>,
    /// The Selector, with the live `SelectorActor` discipline (release on
    /// accept).
    pub selector: Selector,
    /// A second Selector keeping its held set, drained by
    /// `forward_devices_for` as the DES does.
    pub held: Selector,
    /// Overload telemetry.
    pub telemetry: OverloadMetrics,
    /// The population served.
    pub population: PopulationName,
    /// Virtual clock (ms).
    pub now_ms: u64,
}

impl Layers {
    /// Deploys `spec`'s task on a fresh Coordinator and builds both
    /// Selectors the way the live topology builds its one.
    pub fn new(spec: &Spec, seed: u64, inputs: &Inputs) -> Layers {
        let mut config = CoordinatorConfig::new(spec.population(), seed);
        config.max_per_shard = spec.max_per_shard;
        let mut coordinator = Coordinator::new(config, TimedStore::default());
        coordinator
            .deploy(
                TaskGroup::new(vec![spec.task()], TaskSelectionStrategy::Single),
                vec![inputs.plan.clone()],
                inputs.initial.clone(),
            )
            .expect("replay deployment");
        // The deployment's initial write is set-up, not a round's commit.
        coordinator.store().take_commits();
        let population = PopulationName::new(spec.population());
        let selector_spec = rounds::selector_spec(spec, seed);
        let mut selector = selector_spec.build(None);
        let mut held = selector_spec.build(None);
        selector.set_population_quota(population.clone(), spec.pool);
        held.set_population_quota(population.clone(), spec.pool);
        Layers {
            coordinator,
            selector,
            held,
            telemetry: OverloadMetrics::new(OverloadMonitorConfig::default(), 0),
            population,
            now_ms: 0,
        }
    }

    /// One check-in through [`checkin`]; the device if it was accepted.
    pub fn checkin(&mut self, tracer: &mut Tracer, id: u64, frame: &[u8]) -> Option<DeviceId> {
        let (device, _, decision) = checkin(
            tracer,
            id,
            frame,
            &mut self.selector,
            &mut self.held,
            &mut self.telemetry,
            self.now_ms,
        )?;
        (decision == CheckinDecision::Accept).then_some(device)
    }

    /// Drains the held Selector as the DES Coordinator does.
    pub fn forward(&mut self, tracer: &mut Tracer, id: u64, k: usize) -> usize {
        let (held, population, now) = (&mut self.held, &self.population, self.now_ms);
        tracer.time("selector.forward", id, || {
            held.forward_devices_for(population, k, now).len()
        })
    }
}

/// One check-in frame through the wire codec, a Selector with the live
/// `SelectorActor` discipline (release on accept), a Selector keeping its
/// held set (the DES discipline), and telemetry. Returns the device, its
/// population and the live discipline's decision.
pub fn checkin(
    tracer: &mut Tracer,
    id: u64,
    frame: &[u8],
    selector: &mut Selector,
    held: &mut Selector,
    telemetry: &mut OverloadMetrics,
    now: u64,
) -> Option<(DeviceId, PopulationName, CheckinDecision)> {
    let Ok(WireMessage::CheckinRequest { device, population }) =
        tracer.time("wire.checkin_decode", id, || fl_wire::decode(frame))
    else {
        return None;
    };
    let decision = tracer.time("selector.checkin", id, || {
        let d = selector.on_checkin_for(&population, device, now, 1.0);
        if d == CheckinDecision::Accept {
            selector.on_disconnect(device);
        }
        d
    });
    tracer.time("selector.held_checkin", id, || {
        held.on_checkin_for(&population, device, now, 1.0)
    });
    tracer.time("telemetry.record", id, || match decision {
        CheckinDecision::Accept => telemetry.record_accept_for(&population, now),
        CheckinDecision::Reject { .. } => telemetry.record_retry_for(&population, now),
    });
    Some((device, population, decision))
}

/// Begins a round and detaches its shards, as the live Coordinator does
/// when it spawns the round's Master Aggregator. Returns the round, its
/// shards and the master's seed.
pub fn begin_round(
    tracer: &mut Tracer,
    id: u64,
    coordinator: &mut Coordinator<TimedStore>,
    now: u64,
) -> (ActiveRound, Vec<AggregatorShard>, u64) {
    let mut round = tracer
        .time("coordinator.begin_round", id, || {
            coordinator.begin_round(now)
        })
        .expect("a task is deployed");
    let master = round.detach_master().expect("training round has a master");
    let (_, shards, seed) = master.into_parts();
    (round, shards, seed)
}

/// One report frame through the wire codec, the round's accounting, the
/// Master Aggregator's forward frame and the device's shard (routed by
/// device id, as the master does). Returns the encoded ack.
pub fn report(
    tracer: &mut Tracer,
    id: u64,
    round: &mut ActiveRound,
    shards: &mut [AggregatorShard],
    frame: &[u8],
    now: u64,
) -> Vec<u8> {
    let n = shards.len().max(1) as u64;
    let (accepted, round_id, population) =
        match tracer.time("wire.decode", id, || fl_wire::decode(frame)) {
            Ok(WireMessage::UpdateReport {
                device,
                round: round_id,
                update_bytes,
                weight,
                loss,
                accuracy,
                population,
                ..
            }) => {
                let response = tracer.time("coordinator.report", id, || {
                    round.on_report(device, now, &update_bytes, weight, loss, accuracy)
                });
                let forward = WireMessage::ShardUpdate {
                    device,
                    update_bytes,
                    weight,
                };
                let frame = tracer.time("wire.encode", id, || {
                    fl_wire::encode(&forward).expect("update encodes")
                });
                if let Ok(WireMessage::ShardUpdate {
                    device,
                    update_bytes,
                    weight,
                }) = tracer.time("wire.decode", id, || fl_wire::decode(&frame))
                {
                    let shard = &mut shards[(device.0 % n) as usize];
                    tracer
                        .time("aggregator.accept", id, || {
                            shard.accept(device, &update_bytes, weight)
                        })
                        .expect("update accepted by its shard");
                }
                (response.is_ok(), round_id, population)
            }
            Ok(WireMessage::SecAggReport {
                device,
                round: round_id,
                field_vector,
                weight,
                loss,
                accuracy,
                population,
                ..
            }) => {
                let response = tracer.time("coordinator.report", id, || {
                    round.on_secagg_report(device, now, &field_vector, weight, loss, accuracy)
                });
                let forward = WireMessage::SecAggUpdate {
                    device,
                    field_vector,
                    weight,
                };
                let frame = tracer.time("wire.encode", id, || {
                    fl_wire::encode(&forward).expect("update encodes")
                });
                if let Ok(WireMessage::SecAggUpdate {
                    device,
                    field_vector,
                    weight,
                }) = tracer.time("wire.decode", id, || fl_wire::decode(&frame))
                {
                    let shard = &mut shards[(device.0 % n) as usize];
                    tracer
                        .time("aggregator.accept", id, || {
                            shard.accept_field(device, &field_vector, weight)
                        })
                        .expect("field vector accepted by its shard");
                }
                (response.is_ok(), round_id, population)
            }
            _ => (false, RoundId(0), round.task.population.clone()),
        };
    let ack = WireMessage::ReportAck {
        accepted,
        round: round_id,
        attempt: 1,
        population,
    };
    tracer.time("wire.encode", id, || {
        fl_wire::encode(&ack).expect("ack encodes")
    })
}

/// Closes every shard and merges the survivors (the Master Aggregator's
/// finalize); returns the new parameters and the contributor count.
pub fn finalize(
    tracer: &mut Tracer,
    id: u64,
    round: &ActiveRound,
    shards: Vec<AggregatorShard>,
    master_seed: u64,
    secagg: bool,
) -> ((Vec<f32>, usize), usize) {
    let dim = round.checkpoint.params().len();
    let finalize = if secagg {
        WireMessage::SecAggFinalize {
            current_params: round.checkpoint.params().to_vec(),
            expected_contributors: round.state.counters().0 as u64,
            advertise_dropouts: round.advertise_dropouts().to_vec(),
            share_dropouts: round.share_dropouts().to_vec(),
        }
    } else {
        WireMessage::ShardFinalize {
            current_params: round.checkpoint.params().to_vec(),
            dropouts: round.share_dropouts().to_vec(),
        }
    };
    let frame = tracer.time("wire.encode", id, || {
        fl_wire::encode(&finalize).expect("finalize encodes")
    });
    tracer.time("wire.decode", id, || {
        fl_wire::decode(&frame).expect("finalize decodes")
    });
    let close = if secagg {
        "secagg.close"
    } else {
        "aggregator.close"
    };
    let mut aborts = 0;
    let intermediates: Vec<FedAvgAccumulator> = shards
        .into_iter()
        .enumerate()
        .filter_map(|(i, shard)| {
            let result = tracer.time(close, id, || {
                shard.close(
                    round.advertise_dropouts(),
                    round.share_dropouts(),
                    shard_seed(master_seed, i),
                )
            });
            aborts += usize::from(result.is_err());
            result.ok()
        })
        .collect();
    let current = round.checkpoint.params();
    let merged = tracer.time("aggregator.merge", id, || {
        let mut merged = FedAvgAccumulator::new(dim);
        for acc in intermediates.iter().filter(|a| a.contributors() > 0) {
            merged.merge(acc).expect("shard dimensions agree");
        }
        (
            merged.apply_to(current).expect("non-empty merge"),
            merged.contributors(),
        )
    });
    let reply = WireMessage::ShardMerged {
        merged: Ok((merged.0.clone(), merged.1 as u64)),
    };
    let frame = tracer.time("wire.encode", id, || {
        fl_wire::encode(&reply).expect("merged encodes")
    });
    tracer.time("wire.decode", id, || {
        fl_wire::decode(&frame).expect("merged decodes")
    });
    (merged, aborts)
}

/// Replays round `n` of a round workload; returns the round span's index.
pub fn replay_round(
    tracer: &mut Tracer,
    layers: &mut Layers,
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    n: u64,
) -> Option<usize> {
    let id = n;
    let (participants, dropped) = cohort(spec, seed, n);
    let population = layers.population.clone();
    let checkins: Vec<Vec<u8>> = participants
        .iter()
        .map(|&d| {
            fl_wire::encode(&WireMessage::CheckinRequest {
                device: DeviceId(d as u64),
                population: population.clone(),
            })
            .expect("check-in encodes")
        })
        .collect();
    let root = tracer.begin("replay.round", id);
    let mut active: Option<(ActiveRound, Vec<AggregatorShard>, u64)> = None;
    for frame in &checkins {
        layers.now_ms += 1;
        let Some(device) = layers.checkin(tracer, id, frame) else {
            continue;
        };
        if active.is_none() {
            active = Some(begin_round(
                tracer,
                id,
                &mut layers.coordinator,
                layers.now_ms,
            ));
        }
        let (round, _, _) = active.as_mut().expect("round begun");
        let now = layers.now_ms;
        tracer.time("coordinator.checkin", id, || round.on_checkin(device, now));
    }
    layers.forward(tracer, id, spec.per_round);
    let (mut round, mut shards, master_seed) = active.expect("every cohort checks in");
    assert_eq!(
        round.state.phase(),
        Phase::Reporting,
        "a full cohort configures the round"
    );
    // The Coordinator frames one configuration per participant; each
    // device decodes only the tag, and one decodes the whole download.
    let mut config = Vec::new();
    for _ in &participants {
        let msg = WireMessage::PlanAndCheckpoint {
            plan: Box::new(round.plan.clone()),
            checkpoint: Box::new(round.checkpoint.clone()),
            population: population.clone(),
        };
        config = tracer.time("wire.encode", id, || {
            fl_wire::encode(&msg).expect("configuration encodes")
        });
    }
    let round_id = match tracer.time("gen.config_decode", id, || fl_wire::decode(&config)) {
        Ok(WireMessage::PlanAndCheckpoint { checkpoint, .. }) => checkpoint.round,
        _ => RoundId(0),
    };
    let secagg = spec.kind == Kind::SecAgg;
    for &d in &participants {
        layers.now_ms += 1;
        let mut msg = inputs.updates[d].report.clone();
        rekey(&mut msg, round_id, 1);
        let frame = tracer.time("gen.report_encode", id, || {
            fl_wire::encode(&msg).expect("report encodes")
        });
        let ack = report(tracer, id, &mut round, &mut shards, &frame, layers.now_ms);
        tracer.time("gen.ack_decode", id, || {
            fl_wire::decode(&ack).expect("ack decodes")
        });
    }
    for &d in &dropped {
        round.on_dropout_staged(DeviceId(d as u64), layers.now_ms, DropStage::Share);
    }
    let (aggregate, _aborts) = finalize(tracer, id, &round, shards, master_seed, secagg);
    complete_round(tracer, id, &mut layers.coordinator, round, aggregate);
    tracer.end(root);
    // Side measurement, outside the round span: the codec decode every
    // accepted plain update costs inside `AggregatorShard::accept`.
    if !secagg {
        let codec = inputs.plan.server.update_codec.build();
        let dim = inputs.plan.server.expected_dim;
        for &d in &participants {
            if let WireMessage::UpdateReport { update_bytes, .. } = &inputs.updates[d].report {
                tracer.time("codec.decode", id, || {
                    codec.decode(update_bytes, dim).expect("update decodes")
                });
            }
        }
    }
    root
}

/// Mean span duration per call of `name`, in `unit_ns` units.
fn mean(table: &BTreeMap<&'static str, LayerRow>, name: &str, unit_ns: f64) -> f64 {
    table
        .get(name)
        .map_or(0.0, |r| r.total_ns as f64 / r.count.max(1) as f64 / unit_ns)
}

/// Summed duration of every span whose name satisfies `pick`, per `per`.
fn total(
    table: &BTreeMap<&'static str, LayerRow>,
    pick: impl Fn(&str) -> bool,
    per: f64,
    unit_ns: f64,
) -> f64 {
    table
        .iter()
        .filter(|(n, _)| pick(n))
        .map(|(_, r)| r.total_ns as f64)
        .sum::<f64>()
        / per.max(1.0)
        / unit_ns
}

/// Server-side self time (ms) inside each span named `root` (children
/// not named `gen.*`), one value per root span.
pub fn layer_ms_per_root(spans: &[Span], root: &str) -> Vec<f64> {
    let own = self_times(spans);
    let mut per_root: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        if spans[p].name == root && !s.name.starts_with("gen.") {
            *per_root.entry(p).or_default() += own[i] as f64 / 1e6;
        }
    }
    per_root.into_values().collect()
}

/// Per-layer metrics every replay shares.
pub fn layer_metrics(m: &mut Metrics, table: &BTreeMap<&'static str, LayerRow>, rounds: f64) {
    let is_encode = |n: &str| n.starts_with("wire.") && n.contains("encode");
    let is_decode = |n: &str| n.starts_with("wire.") && n.contains("decode");
    m.put("wire.encode_ms", total(table, is_encode, rounds, 1e6), "ms");
    m.put("wire.decode_ms", total(table, is_decode, rounds, 1e6), "ms");
    let checkins = table.get("wire.checkin_decode").map_or(0, |r| r.count) as f64;
    m.put(
        "wire.checkin_frame_us",
        total(
            table,
            |n| n == "wire.checkin_decode" || n == "wire.checkin_reply_encode",
            checkins,
            1e3,
        ),
        "us",
    );
    m.put(
        "selector.checkin_ns",
        mean(table, "selector.checkin", 1.0),
        "ns",
    );
    m.put(
        "selector.held_checkin_ns",
        mean(table, "selector.held_checkin", 1.0),
        "ns",
    );
    m.put(
        "coordinator.checkin_ns",
        mean(table, "coordinator.checkin", 1.0),
        "ns",
    );
    m.put(
        "coordinator.report_us",
        mean(table, "coordinator.report", 1e3),
        "us",
    );
    m.put(
        "coordinator.begin_round_us",
        mean(table, "coordinator.begin_round", 1e3),
        "us",
    );
    m.put(
        "telemetry.record_ns",
        mean(table, "telemetry.record", 1.0),
        "ns",
    );
    m.put(
        "telemetry.events",
        table.get("telemetry.record").map_or(0, |r| r.count) as f64,
        "count",
    );
    m.put("codec.decode_us", mean(table, "codec.decode", 1e3), "us");
    m.put(
        "aggregator.accept_us",
        mean(table, "aggregator.accept", 1e3),
        "us",
    );
    m.put(
        "aggregator.merge_ms",
        total(table, |n| n == "aggregator.merge", rounds, 1e6),
        "ms",
    );
    let closes = table
        .get("secagg.close")
        .or(table.get("aggregator.close"))
        .map_or(0, |r| r.count);
    m.put(
        "aggregator.shards",
        closes as f64 / rounds.max(1.0),
        "count",
    );
    m.put("secagg.close_ms", mean(table, "secagg.close", 1e6), "ms");
    m.put(
        "storage.commit_us",
        mean(table, "storage.commit", 1e3),
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A replayed round's layer spans all nest under its round span, in
    /// time as well as by parent link.
    #[test]
    fn replayed_layer_spans_nest_under_their_round() {
        let spec = Spec {
            kind: Kind::SecAgg,
            pool: 80,
            per_round: 80,
            max_per_shard: 40,
            drop_frac: 0.05,
        };
        let inputs = rounds::build_inputs(&spec, 5);
        let mut layers = Layers::new(&spec, 5, &inputs);
        let mut tracer = Tracer::new(true);
        let roots: Vec<usize> = (0..2)
            .map(|n| replay_round(&mut tracer, &mut layers, &spec, 5, &inputs, n).expect("traced"))
            .collect();
        let spans = tracer.spans();
        let top_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut names = std::collections::BTreeSet::new();
        for (i, s) in spans.iter().enumerate() {
            let top = top_of(i);
            assert!(roots.contains(&top), "span {} escaped its round", s.name);
            assert_eq!(spans[top].trace_id, s.trace_id);
            let p = s.parent.map_or(i, |p| p);
            assert!(
                spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns,
                "{} [{}, {}] outside its parent {} [{}, {}]",
                s.name,
                s.start_ns,
                s.end_ns,
                spans[p].name,
                spans[p].start_ns,
                spans[p].end_ns
            );
            names.insert(s.name);
        }
        for layer in [
            "wire.checkin_decode",
            "selector.checkin",
            "selector.held_checkin",
            "telemetry.record",
            "coordinator.begin_round",
            "coordinator.checkin",
            "coordinator.report",
            "aggregator.accept",
            "secagg.close",
            "aggregator.merge",
            "coordinator.complete",
            "storage.commit",
        ] {
            assert!(names.contains(layer), "no {layer} span");
        }
        assert_eq!(
            layers.coordinator.store().write_count(),
            3,
            "initial + two commits"
        );
    }
}
