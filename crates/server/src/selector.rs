//! Selectors (Sec. 4.2).
//!
//! "Selectors are responsible for accepting and forwarding device
//! connections. They periodically receive information from the Coordinator
//! about how many devices are needed for each FL population, which they
//! use to make local decisions about whether or not to accept each device.
//! After the Master Aggregator and set of Aggregators are spawned, the
//! Coordinator instructs the Selectors to forward a subset of its
//! connected devices to the Aggregators."
//!
//! Every check-in and every drain names its population; a Selector
//! serving one population is simply the n=1 case. Populations are
//! interned into a dense per-Selector table the first time they are seen,
//! so the hot path never clones a [`PopulationName`] and a population's
//! held count is a field read, not a scan of the held set.
//!
//! Selection among connected devices uses reservoir sampling, per the
//! paper's footnote 1 ("selection is done by simple reservoir sampling").
//!
//! Overload protection (this reproduction's Sec. 2.3/4.2 closing of the
//! loop) is layered in front of the quota check: an optional
//! [`AdmissionController`] sheds check-ins when the sustained accept rate
//! or the held-connection queue hits its bound, and a [`PaceController`]
//! sizes every "come back later" suggestion from the *observed* check-in
//! arrival rate instead of a static population estimate.

use crate::pace::PaceSteering;
use crate::shedding::{
    AdmissionConfig, AdmissionController, AdmissionDecision, GlobalAdmissionBudget,
    PaceController, PaceControllerConfig,
};
use fl_core::{DeviceId, PopulationName};
use fl_ml::rng;
use rand::rngs::StdRng;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Decision returned to a checking-in device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinDecision {
    /// The device is accepted and held on the bidirectional stream.
    Accept,
    /// "Come back later": rejected with a pace-steered reconnect time.
    Reject {
        /// Absolute suggested reconnect time (ms).
        retry_at_ms: u64,
    },
}

/// A held device connection: when it was last seen and the dense index
/// of the population it checked in under.
#[derive(Debug, Clone)]
struct HeldConn {
    last_seen_ms: u64,
    pop: usize,
}

/// One population's row of the Selector's state table.
#[derive(Debug, Default)]
struct PopState {
    /// Per-population quota override; `None` falls back to the
    /// Selector-wide quota.
    quota: Option<usize>,
    /// Devices of this population currently held.
    held: usize,
    accepted: u64,
    /// Rejections, shed check-ins included.
    rejected: u64,
    shed: u64,
}

/// A Selector: accepts or rejects device check-ins against a quota and an
/// optional admission controller, and forwards sampled subsets toward
/// Aggregators on request.
///
/// Multi-tenancy (Sec. 2.1/4.2): one physical Selector serves several FL
/// populations at once. Check-ins arrive demultiplexed by
/// [`PopulationName`] via [`on_checkin_for`](Selector::on_checkin_for),
/// each population is held against its own quota
/// ([`set_population_quota`](Selector::set_population_quota)), and
/// forwarding samples only within the requested population
/// ([`forward_devices_for`](Selector::forward_devices_for)). Fleet-wide
/// admission fairness across populations is delegated to the shared
/// [`GlobalAdmissionBudget`]'s per-population reservations.
#[derive(Debug)]
pub struct Selector {
    /// Default quota of devices this selector may hold per population,
    /// set by the Coordinator; populations without an explicit
    /// per-population quota fall back to it.
    quota: usize,
    /// Population name → dense index into `pops`.
    pop_index: BTreeMap<PopulationName, usize>,
    /// Per-population state, indexed by interning order.
    pops: Vec<PopState>,
    /// Held connections with their last-seen times and populations.
    connected: BTreeMap<DeviceId, HeldConn>,
    /// Held connections idle longer than this are considered disconnected
    /// and evicted before quota/admission checks. `None` disables
    /// eviction (a caller that forwards immediately never holds state
    /// long enough to go stale).
    stale_after_ms: Option<u64>,
    pace: PaceController,
    admission: Option<AdmissionController>,
    /// Fleet-wide admission budget shared with the topology's other
    /// Selectors; consulted only for check-ins that would otherwise be
    /// accepted, so local rejections never burn global slots.
    global: Option<GlobalAdmissionBudget>,
    accepted_total: u64,
    rejected_total: u64,
    shed_total: u64,
    shed_global_total: u64,
    evicted_total: u64,
    rng: StdRng,
}

impl Selector {
    /// Creates a selector with an initial quota of zero (nothing accepted
    /// until the Coordinator assigns one). The closed-loop pace controller
    /// starts from `population_estimate` and adjusts from observed
    /// arrivals.
    pub fn new(pace: PaceSteering, population_estimate: u64, seed: u64) -> Self {
        let controller_config = PaceControllerConfig::for_pace(&pace);
        Selector {
            quota: 0,
            pop_index: BTreeMap::new(),
            pops: Vec::new(),
            connected: BTreeMap::new(),
            stale_after_ms: None,
            pace: PaceController::new(pace, population_estimate, controller_config),
            admission: None,
            global: None,
            accepted_total: 0,
            rejected_total: 0,
            shed_total: 0,
            shed_global_total: 0,
            evicted_total: 0,
            rng: rng::seeded(seed),
        }
    }

    /// Enables admission control (token-bucket accept rate + bounded
    /// held-connection queue) in front of the quota check.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionController::new(config));
        self
    }

    /// Attaches a shared fleet-wide admission budget: a check-in that
    /// passes local admission and quota still sheds
    /// ([`crate::shedding::ShedReason::GlobalBudget`]) when the budget's
    /// current window is spent across all Selectors sharing it.
    pub fn with_global_budget(mut self, budget: GlobalAdmissionBudget) -> Self {
        self.global = Some(budget);
        self
    }

    /// Enables stale-connection eviction: devices not seen for
    /// `stale_after_ms` are dropped from the connected set before quota
    /// and admission checks, so ghosts cannot pin capacity.
    pub fn with_staleness(mut self, stale_after_ms: u64) -> Self {
        self.stale_after_ms = Some(stale_after_ms);
        self
    }

    /// Coordinator instruction: how many devices to hold for each
    /// population without an explicit
    /// [`set_population_quota`](Selector::set_population_quota).
    pub fn set_quota(&mut self, quota: usize) {
        self.quota = quota;
    }

    /// Per-population Coordinator instruction: how many devices of
    /// `population` to hold. Each population's quota is independent — one
    /// tenant filling its slots never blocks another's accepts.
    pub fn set_population_quota(&mut self, population: PopulationName, quota: usize) {
        let pop = self.intern(&population);
        self.pops[pop].quota = Some(quota);
    }

    /// Seeds/overrides the population-size estimate used for pace
    /// steering; the closed loop keeps adjusting from the new value.
    pub fn set_population_estimate(&mut self, estimate: u64) {
        self.pace.set_population_estimate(estimate);
    }

    /// The closed-loop pace controller (observed-rate population estimate
    /// and arrival sketches).
    pub fn pace_controller(&self) -> &PaceController {
        &self.pace
    }

    /// The admission controller, if admission control is enabled.
    pub fn admission_controller(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// The dense index of `population`, interning it on first sight.
    fn intern(&mut self, population: &PopulationName) -> usize {
        if let Some(&pop) = self.pop_index.get(population) {
            return pop;
        }
        let pop = self.pops.len();
        self.pops.push(PopState::default());
        self.pop_index.insert(population.clone(), pop);
        pop
    }

    fn state(&self, population: &PopulationName) -> Option<&PopState> {
        self.pop_index.get(population).map(|&pop| &self.pops[pop])
    }

    /// Drops held connections not seen since `now_ms − stale_after_ms`.
    /// Returns how many were evicted. No-op when eviction is disabled.
    pub fn evict_stale(&mut self, now_ms: u64) -> usize {
        let Some(ttl) = self.stale_after_ms else {
            return 0;
        };
        let pops = &mut self.pops;
        let before = self.connected.len();
        self.connected.retain(|_, held| {
            let fresh = now_ms.saturating_sub(held.last_seen_ms) < ttl;
            if !fresh {
                pops[held.pop].held -= 1;
            }
            fresh
        });
        let evicted = before - self.connected.len();
        self.evicted_total += evicted as u64;
        evicted
    }

    /// Handles a device check-in for `population` at `now_ms` with the
    /// given diurnal activity factor (Sec. 2.1). The arrival feeds the
    /// shared pace loop and local admission controller like any other,
    /// but quota is checked against the population's own allowance and
    /// the shared global budget is consulted through its per-population
    /// fair-share reservations ([`GlobalAdmissionBudget::try_admit_for`]),
    /// so a flash crowd in one population cannot starve another's accepts.
    pub fn on_checkin_for(
        &mut self,
        population: &PopulationName,
        device: DeviceId,
        now_ms: u64,
        activity_factor: f64,
    ) -> CheckinDecision {
        // Every arrival feeds the closed loop, whatever its fate.
        self.pace.on_arrival(now_ms);
        // Evict ghosts before they count against quota or the queue bound
        // (mirror of the selection pool's fresh-length fix).
        self.evict_stale(now_ms);
        let pop = self.intern(population);

        if let Some(admission) = &mut self.admission {
            if let AdmissionDecision::Shed(_) = admission.offer(now_ms, self.connected.len()) {
                self.shed_total += 1;
                self.pops[pop].shed += 1;
                return self.reject(pop, now_ms, activity_factor);
            }
        }

        let state = &self.pops[pop];
        let has_room = state.held < state.quota.unwrap_or(self.quota);
        match self.connected.entry(device) {
            // A duplicate check-in still proves the device is alive.
            Entry::Occupied(mut held) => held.get_mut().last_seen_ms = now_ms,
            Entry::Vacant(slot) if has_room => {
                if self
                    .global
                    .as_ref()
                    .is_none_or(|budget| budget.try_admit_for(now_ms, population))
                {
                    slot.insert(HeldConn {
                        last_seen_ms: now_ms,
                        pop,
                    });
                    let state = &mut self.pops[pop];
                    state.held += 1;
                    state.accepted += 1;
                    self.accepted_total += 1;
                    return CheckinDecision::Accept;
                }
                self.shed_total += 1;
                self.shed_global_total += 1;
                self.pops[pop].shed += 1;
            }
            Entry::Vacant(_) => {}
        }
        self.reject(pop, now_ms, activity_factor)
    }

    /// Answers a check-in for a population this Selector's tree does not
    /// serve: a pace-steered rejection counted against `population`. The
    /// arrival feeds the pace loop, but admission, quota and the global
    /// budget are never consulted, so unserved traffic cannot spend
    /// capacity that served populations own.
    pub fn reject_unserved(&mut self, population: &PopulationName, now_ms: u64) -> CheckinDecision {
        self.pace.on_arrival(now_ms);
        let pop = self.intern(population);
        self.reject(pop, now_ms, 1.0)
    }

    fn reject(&mut self, pop: usize, now_ms: u64, activity_factor: f64) -> CheckinDecision {
        self.pops[pop].rejected += 1;
        self.rejected_total += 1;
        CheckinDecision::Reject {
            retry_at_ms: self
                .pace
                .suggest_reconnect(now_ms, activity_factor, &mut self.rng),
        }
    }

    /// A connected device disconnected (eligibility change, network loss).
    pub fn on_disconnect(&mut self, device: DeviceId) {
        if let Some(held) = self.connected.remove(&device) {
            self.pops[held.pop].held -= 1;
        }
    }

    /// Number of devices currently connected (reported to the
    /// Coordinator). May include devices that would be evicted as stale at
    /// the next check-in; call [`evict_stale`](Selector::evict_stale)
    /// first for a fresh count.
    pub fn connected_count(&self) -> usize {
        self.connected.len()
    }

    /// Number of held devices that checked in under `population`.
    pub fn connected_count_for(&self, population: &PopulationName) -> usize {
        self.state(population).map_or(0, |s| s.held)
    }

    /// Total accepted/rejected counters (for analytics). Rejections
    /// include shed check-ins.
    pub fn counters(&self) -> (u64, u64) {
        (self.accepted_total, self.rejected_total)
    }

    /// Per-population accepted/rejected counters. Rejections include shed
    /// check-ins, mirroring [`counters`](Selector::counters).
    pub fn counters_for(&self, population: &PopulationName) -> (u64, u64) {
        self.state(population)
            .map_or((0, 0), |s| (s.accepted, s.rejected))
    }

    /// Check-ins shed (admission controller or global budget) while
    /// checking in under `population`.
    pub fn shed_total_for(&self, population: &PopulationName) -> u64 {
        self.state(population).map_or(0, |s| s.shed)
    }

    /// Total check-ins shed by the admission controller or the global
    /// budget.
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// Total check-ins shed by the shared global budget specifically.
    pub fn shed_global_total(&self) -> u64 {
        self.shed_global_total
    }

    /// The shared global admission budget, if attached.
    pub fn global_budget(&self) -> Option<&GlobalAdmissionBudget> {
        self.global.as_ref()
    }

    /// Total stale connections evicted.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// Coordinator instruction: forward up to `k` devices held for
    /// `population` to the Aggregator layer. Stale connections are
    /// evicted first (forwarding a ghost wastes an Aggregator slot); the
    /// forwarded devices are sampled uniformly (reservoir sampling) within
    /// the population's held set, in device order, and removed from this
    /// selector's connected set — so tenants never receive each other's
    /// devices.
    pub fn forward_devices_for(
        &mut self,
        population: &PopulationName,
        k: usize,
        now_ms: u64,
    ) -> Vec<DeviceId> {
        self.evict_stale(now_ms);
        let Some(&pop) = self.pop_index.get(population) else {
            return Vec::new();
        };
        let held = self.pops[pop].held;
        if held == 0 || k == 0 {
            return Vec::new();
        }
        let mut pool = Vec::with_capacity(held);
        pool.extend(
            self.connected
                .iter()
                .filter(|(_, conn)| conn.pop == pop)
                .map(|(d, _)| *d),
        );
        let take = k.min(pool.len());
        let picked = rng::reservoir_sample(&mut self.rng, pool.len(), take);
        self.pops[pop].held -= take;
        let mut out = Vec::with_capacity(take);
        for idx in picked {
            let d = pool[idx];
            self.connected.remove(&d);
            out.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn pop() -> PopulationName {
        PopulationName::new("test/pop")
    }

    fn selector(quota: usize) -> Selector {
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 42);
        s.set_quota(quota);
        s
    }

    /// A check-in of `device` under the single test population.
    fn checkin(s: &mut Selector, device: u64, now_ms: u64) -> CheckinDecision {
        s.on_checkin_for(&pop(), DeviceId(device), now_ms, 1.0)
    }

    fn forward(s: &mut Selector, k: usize, now_ms: u64) -> Vec<DeviceId> {
        s.forward_devices_for(&pop(), k, now_ms)
    }

    #[test]
    fn accepts_up_to_quota_then_rejects() {
        let mut s = selector(3);
        for i in 0..3 {
            assert_eq!(checkin(&mut s, i, 1000), CheckinDecision::Accept);
        }
        match checkin(&mut s, 99, 1000) {
            CheckinDecision::Reject { retry_at_ms } => assert!(retry_at_ms > 1000),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(s.connected_count(), 3);
        assert_eq!(s.counters(), (3, 1));
    }

    #[test]
    fn duplicate_checkin_is_rejected() {
        let mut s = selector(5);
        assert_eq!(checkin(&mut s, 1, 0), CheckinDecision::Accept);
        assert!(matches!(checkin(&mut s, 1, 0), CheckinDecision::Reject { .. }));
        assert_eq!(s.connected_count(), 1);
    }

    #[test]
    fn disconnect_frees_capacity() {
        let mut s = selector(1);
        assert_eq!(checkin(&mut s, 1, 0), CheckinDecision::Accept);
        s.on_disconnect(DeviceId(1));
        assert_eq!(checkin(&mut s, 2, 0), CheckinDecision::Accept);
    }

    #[test]
    fn forward_removes_and_returns_distinct_devices() {
        let mut s = selector(10);
        for i in 0..10 {
            checkin(&mut s, i, 0);
        }
        let forwarded = forward(&mut s, 4, 0);
        assert_eq!(forwarded.len(), 4);
        assert_eq!(s.connected_count(), 6);
        let set: BTreeSet<DeviceId> = forwarded.iter().copied().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn forward_caps_at_connected_count() {
        let mut s = selector(3);
        for i in 0..3 {
            checkin(&mut s, i, 0);
        }
        assert_eq!(forward(&mut s, 100, 0).len(), 3);
        assert_eq!(s.connected_count(), 0);
        assert!(forward(&mut s, 1, 0).is_empty());
    }

    #[test]
    fn forwarding_is_roughly_uniform() {
        // Forward 1 of 10 many times; each device should win ~10%.
        let mut wins = vec![0u32; 10];
        for trial in 0..4000 {
            let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, trial);
            s.set_quota(10);
            for i in 0..10 {
                checkin(&mut s, i, 0);
            }
            let f = forward(&mut s, 1, 0);
            wins[f[0].0 as usize] += 1;
        }
        for (i, &w) in wins.iter().enumerate() {
            assert!(
                (w as f64 - 400.0).abs() < 100.0,
                "device {i} won {w} of 4000"
            );
        }
    }

    #[test]
    fn zero_quota_rejects_everything() {
        let mut s = selector(0);
        assert!(matches!(checkin(&mut s, 0, 0), CheckinDecision::Reject { .. }));
    }

    #[test]
    fn stale_devices_are_evicted_before_quota_checks() {
        // Regression (mirror of the selection pool's fresh_len fix): a
        // device that connected long ago and silently vanished must not
        // pin a quota slot forever.
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 7)
            .with_staleness(120_000);
        s.set_quota(1);
        assert_eq!(checkin(&mut s, 1, 0), CheckinDecision::Accept);
        // Before the TTL expires the ghost still holds the slot.
        assert!(matches!(
            checkin(&mut s, 2, 100_000),
            CheckinDecision::Reject { .. }
        ));
        // After the TTL the ghost is evicted and the slot is free again.
        assert_eq!(checkin(&mut s, 2, 130_000), CheckinDecision::Accept);
        assert_eq!(s.evicted_total(), 1);
        assert_eq!(s.connected_count(), 1);
    }

    #[test]
    fn duplicate_checkin_refreshes_staleness() {
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 7)
            .with_staleness(100_000);
        s.set_quota(1);
        assert_eq!(checkin(&mut s, 1, 0), CheckinDecision::Accept);
        // The device re-checks in at 90 s (still rejected as a duplicate,
        // but its liveness clock resets)...
        assert!(matches!(
            checkin(&mut s, 1, 90_000),
            CheckinDecision::Reject { .. }
        ));
        // ...so at 150 s it has NOT gone stale (last seen 90 s ago).
        assert!(matches!(
            checkin(&mut s, 2, 150_000),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(s.evicted_total(), 0);
    }

    #[test]
    fn forward_skips_stale_devices() {
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 9)
            .with_staleness(60_000);
        s.set_quota(4);
        checkin(&mut s, 1, 0);
        checkin(&mut s, 2, 0);
        checkin(&mut s, 3, 50_000);
        checkin(&mut s, 4, 50_000);
        // At t=70s devices 1 and 2 are stale; only 3 and 4 may forward.
        let forwarded = forward(&mut s, 10, 70_000);
        let set: BTreeSet<DeviceId> = forwarded.into_iter().collect();
        assert_eq!(set, BTreeSet::from([DeviceId(3), DeviceId(4)]));
        assert_eq!(s.evicted_total(), 2);
    }

    #[test]
    fn admission_sheds_a_burst_deterministically() {
        let make = || {
            let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 3)
                .with_admission(AdmissionConfig {
                    accepts_per_sec: 10.0,
                    burst: 5,
                    max_inflight: 50,
                });
            s.set_quota(1_000);
            s
        };
        let mut s = make();
        let decisions: Vec<bool> = (0..100)
            .map(|i| checkin(&mut s, i, 0) == CheckinDecision::Accept)
            .collect();
        // Exactly the burst is admitted; the rest shed.
        assert_eq!(decisions.iter().filter(|&&a| a).count(), 5);
        assert_eq!(s.shed_total(), 95);
        assert_eq!(s.counters().1, 95);
        // Determinism: a fresh selector replays the same decisions.
        let mut s2 = make();
        let replay: Vec<bool> = (0..100)
            .map(|i| checkin(&mut s2, i, 0) == CheckinDecision::Accept)
            .collect();
        assert_eq!(decisions, replay);
    }

    #[test]
    fn queue_bound_holds_even_with_tokens() {
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 3)
            .with_admission(AdmissionConfig {
                accepts_per_sec: 1_000.0,
                burst: 1_000,
                max_inflight: 4,
            });
        s.set_quota(1_000);
        for i in 0..50 {
            checkin(&mut s, i, 0);
        }
        assert_eq!(s.connected_count(), 4);
        let (_, queue_sheds) = s
            .admission_controller()
            .expect("admission enabled")
            .shed_totals();
        assert_eq!(queue_sheds, 46);
    }

    #[test]
    fn global_budget_caps_accepts_across_selectors() {
        use crate::shedding::{GlobalAdmissionBudget, GlobalAdmissionConfig};
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 4,
        });
        let mut selectors: Vec<Selector> = (0..3)
            .map(|i| {
                let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, i)
                    .with_global_budget(budget.clone());
                s.set_quota(10);
                s
            })
            .collect();
        // 3 devices offered to each of 3 selectors: each has local quota
        // headroom, but only 4 accepts exist fleet-wide in this window.
        let mut accepted = 0;
        for (i, s) in selectors.iter_mut().enumerate() {
            for d in 0..3u64 {
                if checkin(s, i as u64 * 10 + d, 0) == CheckinDecision::Accept {
                    accepted += 1;
                }
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(budget.admitted_total(), 4);
        assert_eq!(budget.shed_total(), 5);
        let global_sheds: u64 = selectors.iter().map(Selector::shed_global_total).sum();
        assert_eq!(global_sheds, 5);
        // A locally-rejected duplicate must not burn a global slot: next
        // window, re-offering an already-connected device is a plain
        // rejection with the budget untouched.
        assert!(matches!(
            checkin(&mut selectors[0], 0, 61_000),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(budget.admitted_total() + budget.shed_total(), 9);
    }

    #[test]
    fn shed_retry_suggestions_stretch_under_load() {
        // Closed loop end to end: sustained overload inflates the
        // population estimate, so later rejects are pushed further out.
        let mut s = Selector::new(PaceSteering::new(1_000, 10), 100, 5)
            .with_admission(AdmissionConfig {
                accepts_per_sec: 5.0,
                burst: 5,
                max_inflight: 10,
            });
        s.set_quota(1_000);
        let mut early_max = 0;
        let mut late_max = 0;
        for i in 0..5_000u64 {
            let now = i * 2; // 500 arrivals/s against a 5/s accept cap
            if let CheckinDecision::Reject { retry_at_ms } = checkin(&mut s, i, now) {
                let delay = retry_at_ms - now;
                if i < 100 {
                    early_max = early_max.max(delay);
                } else if i >= 4_900 {
                    late_max = late_max.max(delay);
                }
            }
        }
        assert!(
            late_max > early_max * 4,
            "no back pressure: early {early_max} ms vs late {late_max} ms"
        );
        assert!(s.pace_controller().population_estimate() > 1_000);
    }
    #[test]
    fn populations_are_demultiplexed_with_independent_quotas() {
        let pop_a = PopulationName::new("tenant/a");
        let pop_b = PopulationName::new("tenant/b");
        let mut s = selector(0); // default quota 0: only explicit quotas admit
        s.set_population_quota(pop_a.clone(), 2);
        s.set_population_quota(pop_b.clone(), 1);
        assert_eq!(
            s.on_checkin_for(&pop_a, DeviceId(1), 0, 1.0),
            CheckinDecision::Accept
        );
        assert_eq!(
            s.on_checkin_for(&pop_a, DeviceId(2), 0, 1.0),
            CheckinDecision::Accept
        );
        // Population A is full; its third device bounces even though B
        // still has room, and vice versa B's accept is untouched by A.
        assert!(matches!(
            s.on_checkin_for(&pop_a, DeviceId(3), 0, 1.0),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(
            s.on_checkin_for(&pop_b, DeviceId(4), 0, 1.0),
            CheckinDecision::Accept
        );
        assert!(matches!(
            s.on_checkin_for(&pop_b, DeviceId(5), 0, 1.0),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(s.connected_count(), 3);
        assert_eq!(s.connected_count_for(&pop_a), 2);
        assert_eq!(s.connected_count_for(&pop_b), 1);
        assert_eq!(s.counters_for(&pop_a), (2, 1));
        assert_eq!(s.counters_for(&pop_b), (1, 1));
        assert_eq!(s.counters(), (3, 2));
    }

    #[test]
    fn forwarding_stays_within_the_requested_population() {
        let pop_a = PopulationName::new("tenant/a");
        let pop_b = PopulationName::new("tenant/b");
        let mut s = selector(0);
        s.set_population_quota(pop_a.clone(), 8);
        s.set_population_quota(pop_b.clone(), 8);
        for i in 0..4 {
            s.on_checkin_for(&pop_a, DeviceId(i), 0, 1.0);
            s.on_checkin_for(&pop_b, DeviceId(100 + i), 0, 1.0);
        }
        let forwarded = s.forward_devices_for(&pop_a, 10, 0);
        assert_eq!(forwarded.len(), 4);
        assert!(forwarded.iter().all(|d| d.0 < 100), "leaked tenant B device");
        // B's held set is untouched and forwards independently.
        assert_eq!(s.connected_count_for(&pop_a), 0);
        assert_eq!(s.connected_count_for(&pop_b), 4);
        let forwarded_b = s.forward_devices_for(&pop_b, 2, 0);
        assert_eq!(forwarded_b.len(), 2);
        assert!(forwarded_b.iter().all(|d| d.0 >= 100));
    }

    #[test]
    fn global_budget_fair_share_spans_selector_populations() {
        use crate::shedding::{GlobalAdmissionBudget, GlobalAdmissionConfig};
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 6,
        });
        let greedy = PopulationName::new("tenant/greedy");
        let steady = PopulationName::new("tenant/steady");
        budget.register_population(&greedy);
        budget.register_population(&steady);
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 3)
            .with_global_budget(budget.clone());
        s.set_population_quota(greedy.clone(), 1_000);
        s.set_population_quota(steady.clone(), 1_000);
        // Greedy floods first: it may take its fair half (3) but cannot
        // spend the slots reserved for steady.
        for i in 0..20 {
            s.on_checkin_for(&greedy, DeviceId(i), 0, 1.0);
        }
        assert_eq!(s.counters_for(&greedy).0, 3);
        assert_eq!(s.shed_total_for(&greedy), 17);
        // Steady arrives late and still gets its reserved share.
        for i in 0..3 {
            assert_eq!(
                s.on_checkin_for(&steady, DeviceId(100 + i), 0, 1.0),
                CheckinDecision::Accept
            );
        }
        assert_eq!(s.counters_for(&steady), (3, 0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const TTL_MS: u64 = 4_000;

        /// Drops the model's stale devices; returns how many.
        fn evict(held: &mut BTreeMap<DeviceId, (usize, u64)>, now_ms: u64) -> usize {
            let before = held.len();
            held.retain(|_, (_, seen)| now_ms.saturating_sub(*seen) < TTL_MS);
            before - held.len()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Under any interleaving of check-ins, drains, disconnects and
            /// evictions across 1–4 populations, the per-population held
            /// counts match the held devices (a model tracks them) and sum
            /// to the connected count, and every offered check-in is
            /// counted exactly once, per population and in aggregate.
            #[test]
            fn held_counts_and_counters_stay_conserved(
                populations in 1usize..5,
                quotas in proptest::collection::vec(0usize..6, 4..5),
                seed in 0u64..1_000,
                ops in proptest::collection::vec(0u32..(1 << 20), 1..160),
            ) {
                let names: Vec<PopulationName> = (0..populations)
                    .map(|p| PopulationName::new(format!("prop/{p}")))
                    .collect();
                let mut s = Selector::new(PaceSteering::new(1_000, 10), 100, seed)
                    .with_staleness(TTL_MS)
                    .with_admission(AdmissionConfig {
                        accepts_per_sec: 2.0,
                        burst: 4,
                        max_inflight: 12,
                    });
                s.set_quota(3);
                // The first population keeps the Selector-wide fallback.
                for (p, name) in names.iter().enumerate().skip(1) {
                    s.set_population_quota(name.clone(), quotas[p]);
                }
                // Model: held device → (population, last seen).
                let mut held = BTreeMap::new();
                let mut offered = vec![0u64; populations];
                let mut now = 0u64;
                for op in ops {
                    let p = (op >> 2) as usize % populations;
                    let device = DeviceId(u64::from((op >> 5) % 24));
                    now += u64::from((op >> 10) % 1_500);
                    match op % 4 {
                        0 => {
                            offered[p] += 1;
                            evict(&mut held, now);
                            let shed_before = s.shed_total();
                            let decision = s.on_checkin_for(&names[p], device, now, 1.0);
                            if decision == CheckinDecision::Accept {
                                prop_assert!(held.insert(device, (p, now)).is_none());
                            } else if s.shed_total() == shed_before {
                                // A duplicate past admission refreshes its liveness.
                                if let Some(h) = held.get_mut(&device) {
                                    h.1 = now;
                                }
                            }
                        }
                        1 => {
                            evict(&mut held, now);
                            let k = (op >> 5) as usize % 6;
                            let of_p = held.values().filter(|(q, _)| *q == p).count();
                            let forwarded = s.forward_devices_for(&names[p], k, now);
                            prop_assert_eq!(forwarded.len(), k.min(of_p));
                            for d in forwarded {
                                prop_assert_eq!(held.remove(&d).map(|(q, _)| q), Some(p));
                            }
                        }
                        2 => {
                            s.on_disconnect(device);
                            held.remove(&device);
                        }
                        _ => prop_assert_eq!(s.evict_stale(now), evict(&mut held, now)),
                    }
                    let (mut held_sum, mut accepted, mut rejected) = (0, 0, 0);
                    for (p, name) in names.iter().enumerate() {
                        let of_p = held.values().filter(|(q, _)| *q == p).count();
                        prop_assert_eq!(s.connected_count_for(name), of_p);
                        held_sum += of_p;
                        let (a, r) = s.counters_for(name);
                        prop_assert_eq!(a + r, offered[p]);
                        accepted += a;
                        rejected += r;
                    }
                    prop_assert_eq!(s.connected_count(), held_sum);
                    prop_assert_eq!(s.connected_count(), held.len());
                    prop_assert_eq!(s.counters(), (accepted, rejected));
                }
            }
        }
    }
}
