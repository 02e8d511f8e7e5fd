//! `sim_multi_tenant`: the multi-tenant discrete-event simulation,
//! `fl_sim::multi::run_multi_tenant` on the `flash_vs_steady` scenario
//! scaled up by [`SCALE`].

use crate::replay::checkin;
use crate::stats::{median, percentile, Metrics};
use crate::trace::{dump_spans, layer_table, render_table, Tracer};
use crate::{repeat_setup, Args, Outcome};
use fl_core::{DeviceId, PopulationName};
use fl_server::pace::PaceSteering;
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::GlobalAdmissionBudget;
use fl_server::topology::SelectorSpec;
use fl_sim::multi::{run_multi_tenant, MultiTenantConfig, MultiTenantReport};
use fl_wire::WireMessage;
use rand::RngExt;
use std::time::Instant;

/// Fleet scale relative to `MultiTenantConfig::flash_vs_steady`.
pub const SCALE: u64 = 10;
/// Percentile of the per-repetition wall time per round reported as
/// `round_tail_ms`.
pub const TAIL_PCT: f64 = 75.0;
/// Set-up warms the allocator with a run at this fraction of `SCALE`.
const WARMUP_DIVISOR: u64 = 5;

/// The scenario with its baseline fleet and flash crowd multiplied by
/// `scale`; quotas, goals and admission budgets stay as they are, so the
/// Selector layer holds and sheds a fleet `scale` times larger.
pub fn config(seed: u64, scale: u64) -> MultiTenantConfig {
    let mut c = MultiTenantConfig::flash_vs_steady(seed);
    c.devices *= scale;
    for p in &mut c.populations {
        if let Some(f) = &mut p.flash {
            f.newcomers *= scale;
        }
    }
    c
}

fn total_devices(c: &MultiTenantConfig) -> u64 {
    c.devices
        + c.populations
            .iter()
            .filter_map(|p| p.flash.map(|f| f.newcomers))
            .sum::<u64>()
}

/// Runs `sim_multi_tenant`.
pub fn workload(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let warm = config(args.seed, (SCALE / WARMUP_DIVISOR).max(1));
    repeat_setup(
        || {
            let started = Instant::now();
            let report = run_multi_tenant(&warm);
            assert!(
                report.is_clean(),
                "warm-up run violated invariants: {:?}",
                report.violations
            );
            ((), [started.elapsed().as_secs_f64(), 0.0, 0.0])
        },
        |()| (),
        &mut out.metrics,
    );
    let c = config(args.seed, SCALE);
    let devices = total_devices(&c) as f64;
    let horizon_h = c.horizon_ms as f64 / 3.6e6;
    let mut tracer = Tracer::new(args.trace);
    let (walls, traced, report) = repeat_runs(&c, args.seconds, &mut tracer, &mut out.problems);
    if args.trace {
        out.metrics.put(
            "trace.overhead_frac",
            median(&traced) / median(&walls) - 1.0,
            "ratio",
        );
        replay(&mut tracer, args.seed);
        let table = layer_table(tracer.spans());
        crate::replay::layer_metrics(&mut out.metrics, &table, 1.0);
        out.trace = Some((dump_spans(tracer.spans()), render_table(&table)));
    }
    let wall = median(&walls);
    let rounds: u64 = report.populations.iter().map(|p| p.committed).sum();
    let offered: u64 = report.populations.iter().map(|p| p.offered).sum();
    let m: &mut Metrics = &mut out.metrics;
    m.put("sim_device_hours_per_s", devices * horizon_h / wall, "1/s");
    m.put("rounds_per_s", rounds as f64 / wall, "1/s");
    m.put("checkin_max_rate", offered as f64 / wall, "1/s");
    // Wall time the engine spends per committed round, median and
    // TAIL_PCT over the run's repetitions.
    let per_round: Vec<f64> = walls
        .iter()
        .map(|w| w * 1e3 / rounds.max(1) as f64)
        .collect();
    m.put("round_p50_ms", median(&per_round), "ms");
    m.put("round_tail_ms", percentile(&per_round, TAIL_PCT), "ms");
    m.put("sim.wall_s", wall, "s");
    m.put("sim.checkins_per_s", offered as f64 / wall, "1/s");
    m.put("sim.rounds_committed", rounds as f64, "count");
    m.put("selector.accepts", report.accepted_total as f64, "count");
    m.put(
        "selector.sheds",
        report.populations.iter().map(|p| p.shed).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "wire.frames",
        (report.wire.frames_sent + report.wire.frames_received) as f64,
        "count",
    );
    m.put(
        "wire.bytes",
        (report.wire.bytes_sent + report.wire.bytes_received) as f64,
        "B",
    );
    eprintln!(
        "sim: {} devices, {} runs, wall {:?} s, {} rounds, {} offered, {} accepted",
        devices,
        walls.len(),
        walls,
        rounds,
        offered,
        report.accepted_total
    );
    out.attempted = walls.len() as u64;
    out.failed = out.problems.len() as u64;
    out
}

/// Runs the scenario back to back for `seconds` (at least once); checks
/// each report is clean and renders like the first. When `tracer` is
/// enabled, every second repetition runs inside a `sim.run` span, so
/// traced and untraced repetitions interleave. Returns the untraced and
/// traced wall times and the last report.
fn repeat_runs(
    c: &MultiTenantConfig,
    seconds: f64,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> (Vec<f64>, Vec<f64>, MultiTenantReport) {
    let started = Instant::now();
    let (mut walls, mut traced) = (Vec::new(), Vec::new());
    let mut first_render: Option<String> = None;
    for i in 0u64.. {
        let t = Instant::now();
        let span = if i % 2 == 1 {
            tracer.begin("sim.run", i)
        } else {
            None
        };
        let report = run_multi_tenant(c);
        tracer.end(span);
        let wall = t.elapsed().as_secs_f64();
        if span.is_some() {
            traced.push(wall);
        } else {
            walls.push(wall);
        }
        if !report.is_clean() {
            problems.push(format!("seed {}: {:?}", c.seed, report.violations));
        }
        let render = report.render();
        match &first_render {
            Some(first) if *first != render => {
                problems.push("the same seed rendered differently".into())
            }
            Some(_) => {}
            None => first_render = Some(render),
        }
        if started.elapsed().as_secs_f64() >= seconds {
            return (walls, traced, report);
        }
    }
    unreachable!("the repetition loop only ends by returning")
}

/// Check-ins the traced run's replay drives through the Selectors.
const REPLAY_CHECKINS: u64 = 20_000;
/// Virtual time between replayed check-ins (ms): the scenario's mean
/// offered rate.
const REPLAY_GAP_MS: u64 = 10;

/// The traced run's replay of the DES's Selector discipline: seeded
/// check-ins from the scaled fleet, each population chosen among the
/// device's memberships, into the Selector layer the DES builds — one
/// copy keeping its held set and draining it with `forward_devices_for`
/// every forward period (the DES), one releasing on accept (the live
/// `SelectorActor`) — with telemetry and the check-in frame codec.
fn replay(tracer: &mut Tracer, seed: u64) {
    let c = config(seed, SCALE);
    let names: Vec<PopulationName> = c
        .populations
        .iter()
        .map(|p| PopulationName::new(p.name))
        .collect();
    let total_target: u64 = c
        .populations
        .iter()
        .map(|p| p.round.selection_target().max(1) as u64)
        .sum();
    let build = || -> Selector {
        let mut spec = SelectorSpec::new(
            PaceSteering::new(c.window_ms, total_target.max(1)),
            c.devices,
            c.seed ^ 0x7E2,
            c.admission.max_inflight,
        )
        .with_admission(c.admission)
        .with_staleness(c.stale_after_ms);
        spec.quota = c.admission.max_inflight;
        let budget = c.global_admission.map(GlobalAdmissionBudget::new);
        let mut selector = spec.build(budget.as_ref());
        for (p, name) in c.populations.iter().zip(&names) {
            if let Some(b) = &budget {
                b.register_population(name);
            }
            selector.set_population_quota(name.clone(), p.quota);
        }
        selector
    };
    let mut held = build();
    let mut released = build();
    let mut telemetry = fl_analytics::overload::OverloadMetrics::new(Default::default(), 0);
    let mut rng = fl_ml::rng::seeded(seed ^ 0x51A1);
    let mut next_forward = c.forward_period_ms;
    for i in 0..REPLAY_CHECKINS {
        let now = i * REPLAY_GAP_MS;
        if now >= next_forward {
            next_forward += c.forward_period_ms;
            for (p, name) in c.populations.iter().zip(&names) {
                let k = p.round.selection_target();
                tracer.time("selector.forward", i, || {
                    held.forward_devices_for(name, k, now)
                });
            }
        }
        let device = rng.random_range(0..c.devices);
        let members: Vec<usize> = (0..names.len())
            .filter(|&p| device % c.populations[p].membership_stride.max(1) == 0)
            .collect();
        let pop = &names[members[rng.random_range(0..members.len())]];
        let frame = fl_wire::encode(&WireMessage::CheckinRequest {
            device: DeviceId(device),
            population: pop.clone(),
        })
        .expect("check-in encodes");
        let root = tracer.begin("replay.checkin", i);
        let decided = checkin(
            tracer,
            i,
            &frame,
            &mut released,
            &mut held,
            &mut telemetry,
            now,
        );
        if let Some((_, population, CheckinDecision::Reject { retry_at_ms })) = decided {
            let reply = WireMessage::ComeBackLater {
                retry_at_ms,
                population,
            };
            tracer.time("wire.checkin_reply_encode", i, || {
                fl_wire::encode(&reply).expect("reply encodes")
            });
        }
        tracer.end(root);
    }
}
