//! Overload sweep: seeded, replayable flash-crowd / thundering-herd /
//! diurnal-ramp scenarios — single-population runs of the flow-control
//! DES — driven against the real Selector stack (admission control +
//! closed-loop pace steering) and real device retry budgets, asserting
//! the Sec. 2.3 flow-control guarantees: bounded queues, shed-rate
//! convergence, and rounds that still commit under overload.

use federated::sim::multi::{run_multi_tenant, sweep, MultiTenantConfig};

/// The fixed seed set `scripts/check.sh` sweeps for the overload gate.
const SEEDS: [u64; 4] = [3, 17, 29, 53];

/// The fixed-seed thundering-herd sweep `scripts/check.sh` runs as a
/// release gate: a synchronized reconnect of the entire idle fleet must
/// keep the Selector queue under its configured bound, converge the shed
/// rate within the window budget, and drive every started round to a
/// terminal state with at least one commit. Convergence must be recovery,
/// not silence: the devices shed by the herd come back on their retries.
#[test]
fn fixed_seed_herd_sweep_is_clean() {
    let reports = sweep(&SEEDS, MultiTenantConfig::thundering_herd);
    assert_eq!(reports.len(), SEEDS.len());
    for report in &reports {
        let only = &report.populations[0];
        assert!(
            report.is_clean(),
            "seed {} violated overload invariants:\n{}",
            report.seed,
            report.render()
        );
        assert!(
            report.max_queue_depth <= report.queue_bound,
            "seed {} queue overflowed:\n{}",
            report.seed,
            report.render()
        );
        assert!(
            only.committed >= 1,
            "seed {} never committed a round:\n{}",
            report.seed,
            report.render()
        );
        assert_eq!(
            only.rounds_started, only.rounds_terminal,
            "seed {} left a round non-terminal:\n{}",
            report.seed,
            report.render()
        );
        assert!(
            only.retried > 0,
            "seed {} no shed device ever came back:\n{}",
            report.seed,
            report.render()
        );
    }
    // The sweep must actually exercise the admission layer, not coast.
    let shed: u64 = reports.iter().map(|r| r.populations[0].shed).sum();
    assert!(shed >= 100, "sweep shed only {shed} check-ins");
}

/// Flash crowds (a sustained 10× population step) and diurnal ramps must
/// also hold the invariants on every gate seed — sustained overload is
/// absorbed by steady shedding plus pace-steered deferral, never by
/// queue growth or wedged rounds.
#[test]
fn fixed_seed_flash_and_ramp_sweeps_are_clean() {
    for (scenario, make) in [
        ("flash-crowd", MultiTenantConfig::flash_crowd as fn(u64) -> MultiTenantConfig),
        ("diurnal-ramp", MultiTenantConfig::diurnal_ramp),
    ] {
        for report in sweep(&SEEDS, make) {
            assert!(
                report.is_clean(),
                "seed {} ({scenario}) violated overload invariants:\n{}",
                report.seed,
                report.render()
            );
            assert!(
                report.populations[0].committed >= 1,
                "seed {} ({scenario}) never committed:\n{}",
                report.seed,
                report.render()
            );
            assert!(
                report.populations[0].retried > 0,
                "seed {} ({scenario}) no rejected device ever came back:\n{}",
                report.seed,
                report.render()
            );
        }
    }
}

/// Determinism is the whole point: the same seed must reproduce the same
/// run byte-for-byte, so a failing seed is a replayable bug report.
#[test]
fn replay_of_a_seed_is_byte_identical() {
    for seed in SEEDS {
        for make in [
            MultiTenantConfig::thundering_herd as fn(u64) -> MultiTenantConfig,
            MultiTenantConfig::flash_crowd,
        ] {
            let first = run_multi_tenant(&make(seed)).render();
            let second = run_multi_tenant(&make(seed)).render();
            assert_eq!(first, second, "seed {seed} diverged between replays");
        }
    }
}
