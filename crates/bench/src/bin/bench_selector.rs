//! Selector admission-path throughput bench: ns per
//! [`Selector::on_checkin_for`] as the number of tenant populations
//! sharing one Selector grows, emitting `BENCH_selector.json` at the
//! repo root.
//!
//! ```text
//! cargo run --release -p fl-bench --bin bench_selector
//! ```
//!
//! Each case drives a fresh Selector with unique device check-ins
//! round-robined across N populations, draining held connections with
//! [`Selector::forward_devices_for`] every `DRAIN_EVERY` arrivals so
//! the accept path (pace loop → token bucket → per-population quota →
//! global fair-share budget → insert) dominates and the held set stays
//! bounded. The one-population case is the baseline: a single-tenant
//! deployment is the n=1 case of the same path.
//!
//! Every case is warmed up once, then measured in `REPETITIONS`
//! interleaved passes (case order rotates within each pass) and reported
//! as the median. The in-run gate: the 8-population median must stay
//! within `MAX_RATIO` of the 1-population median, so per-population
//! bookkeeping cannot grow with the tenant count unnoticed.

use fl_core::{DeviceId, PopulationName};
use fl_server::pace::PaceSteering;
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionBudget, GlobalAdmissionConfig};
use std::time::Instant;

/// Drain cadence: bounds the held set so the bench measures admission,
/// not eviction pathology.
const DRAIN_EVERY: u32 = 512;
/// Check-ins per measured pass.
const ITERS: u32 = 200_000;
/// Check-ins in each case's warm-up pass.
const WARMUP: u32 = 20_000;
/// Measured passes per case; the median is reported.
const REPETITIONS: usize = 5;
/// Population counts measured; the first is the baseline.
const POPULATIONS: [usize; 3] = [1, 2, 8];
/// Gate: 8-population median / 1-population median must not exceed this.
const MAX_RATIO: f64 = 2.0;

/// Builds a Selector tuned so nothing sheds: the token bucket refills
/// far faster than arrivals, the queue bound and quotas sit well above
/// the drained held-set size, and the global budget window is
/// effectively unbounded. Every check-in then exercises the full
/// accept path.
fn build_selector(pops: &[PopulationName]) -> Selector {
    let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
        window_ms: 60_000,
        max_admits_per_window: 1 << 40,
    });
    for pop in pops {
        budget.register_population(pop);
    }
    let mut selector = Selector::new(PaceSteering::new(60_000, 10_000), 1_000_000, 42)
        .with_admission(AdmissionConfig {
            accepts_per_sec: 1e9,
            burst: 1_000_000,
            max_inflight: 1 << 20,
        })
        .with_global_budget(budget);
    for pop in pops {
        selector.set_population_quota(pop.clone(), DRAIN_EVERY as usize * 4);
    }
    selector
}

/// One pass over `iters` check-ins: (ns per check-in, accepted fraction).
fn run(populations: usize, iters: u32) -> (f64, f64) {
    let pops: Vec<PopulationName> = (0..populations)
        .map(|i| PopulationName::new(format!("bench/pop{i}")))
        .collect();
    let mut selector = build_selector(&pops);
    let mut accepted = 0u64;
    let start = Instant::now();
    for i in 0..iters {
        let now_ms = 1 + u64::from(i);
        let pop = &pops[i as usize % pops.len()];
        if let CheckinDecision::Accept =
            selector.on_checkin_for(pop, DeviceId(u64::from(i)), now_ms, 1.0)
        {
            accepted += 1;
        }
        if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            for pop in &pops {
                let _ = selector.forward_devices_for(pop, DRAIN_EVERY as usize, now_ms);
            }
        }
    }
    let checkin_ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    (checkin_ns, accepted as f64 / f64::from(iters))
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn main() {
    for populations in POPULATIONS {
        let _ = run(populations, WARMUP);
    }
    let mut samples = vec![Vec::with_capacity(REPETITIONS); POPULATIONS.len()];
    for rep in 0..REPETITIONS {
        for k in 0..POPULATIONS.len() {
            let case = (rep + k) % POPULATIONS.len();
            let (checkin_ns, accept_fraction) = run(POPULATIONS[case], ITERS);
            assert!(
                accept_fraction > 0.99,
                "bench must measure the accept path, not shedding"
            );
            samples[case].push(checkin_ns);
        }
    }
    let medians: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let baseline = medians[0];
    for (populations, m) in POPULATIONS.iter().zip(&medians) {
        println!(
            "on_checkin_for ({populations} population{}): {m:>7.1} ns/check-in \
             (median of {REPETITIONS}), {:.2}x the 1-population case",
            if *populations == 1 { " " } else { "s" },
            m / baseline
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"selector_checkin\",\n");
    json.push_str(&format!("  \"drain_every\": {DRAIN_EVERY},\n"));
    json.push_str(&format!("  \"iters\": {ITERS},\n"));
    json.push_str(&format!("  \"repetitions\": {REPETITIONS},\n"));
    json.push_str(&format!(
        "  \"gate\": {{\"populations\": 8, \"max_ratio_vs_1_population\": {MAX_RATIO:.1}}},\n"
    ));
    json.push_str("  \"cases\": [\n");
    for (i, populations) in POPULATIONS.iter().enumerate() {
        let reps: Vec<String> = samples[i].iter().map(|s| format!("{s:.1}")).collect();
        json.push_str(&format!(
            "    {{\"populations\": {populations}, \"median_ns\": {:.1}, \"samples_ns\": [{}], \
             \"ratio_vs_1_population\": {:.2}}}{}\n",
            medians[i],
            reps.join(", "),
            medians[i] / baseline,
            if i + 1 == POPULATIONS.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // Anchor at the workspace root regardless of the invocation cwd.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selector.json");
    std::fs::write(out, &json).expect("write BENCH_selector.json");
    println!("wrote {out}");

    let ratio = medians[POPULATIONS.len() - 1] / baseline;
    assert!(
        ratio <= MAX_RATIO,
        "8-population check-in costs {ratio:.2}x the 1-population case (gate {MAX_RATIO}x)"
    );
}
