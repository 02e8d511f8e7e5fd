//! Overload telemetry (Sec. 5 applied to the Sec. 2.3 flow-control loop).
//!
//! The paper's monitoring pipeline ("aggregated […] and fed into automatic
//! time-series monitors that trigger alerts on substantial deviations")
//! pointed at the overload-protection stack: accepted check-ins, shed
//! check-ins, and device retries are bucketed into [`TimeSeries`], and the
//! per-bucket *shed fraction* — the share of offered check-ins the
//! admission layer turned away — feeds both a sliding-window
//! [`DeviationMonitor`] (a sudden shift in shed rate is the signature of a
//! flash crowd or a capacity regression) and an absolute ceiling (sustained
//! shedding above the ceiling means pace steering has lost control of the
//! arrival rate, not merely smoothed a burst).

use crate::monitor::{Alert, DeviationMonitor};
use crate::timeseries::TimeSeries;
use fl_core::PopulationName;
use std::collections::BTreeMap;

/// Per-population accept/shed/retry series for a multi-tenant Selector
/// layer (Sec. 2.1): the aggregate series answer "is the fleet
/// overloaded", these answer "who is being shed" — a fairness regression
/// (one population starving another) is invisible in the aggregate.
#[derive(Debug, Clone)]
pub struct PopulationSeries {
    /// Accepted check-ins of this population.
    pub accepts: TimeSeries,
    /// Shed check-ins of this population.
    pub sheds: TimeSeries,
    /// Retry attempts pushed back to this population's devices.
    pub retries: TimeSeries,
}

/// Thresholds for the overload monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadMonitorConfig {
    /// Bucket width for the accept/shed/retry series (ms).
    pub bucket_ms: u64,
    /// Sliding baseline window (buckets) for the shed-fraction monitor.
    pub baseline_window: usize,
    /// Z-score threshold for the shed-fraction deviation monitor.
    pub threshold_sigmas: f64,
    /// Absolute shed-fraction ceiling: any closed bucket above this
    /// alerts regardless of baseline.
    pub max_shed_fraction: f64,
}

impl Default for OverloadMonitorConfig {
    fn default() -> Self {
        OverloadMonitorConfig {
            bucket_ms: 60_000,
            baseline_window: 32,
            threshold_sigmas: 4.0,
            max_shed_fraction: 0.9,
        }
    }
}

/// Accept/shed/retry telemetry with alerting, fed by the Selector layer
/// (live or simulated). Check-in outcomes are always recorded under
/// their population (`record_*_for`); the aggregate series are the sum
/// over every population.
#[derive(Debug, Clone)]
pub struct OverloadMetrics {
    config: OverloadMonitorConfig,
    origin_ms: u64,
    accepts: TimeSeries,
    sheds: TimeSeries,
    retries: TimeSeries,
    evictions: TimeSeries,
    secagg_aborts: TimeSeries,
    dup_reports: TimeSeries,
    report_rejects: TimeSeries,
    corrupt_frames: TimeSeries,
    monitor: DeviationMonitor,
    /// Per-population accept/shed/retry series; the aggregate series
    /// above are their sums.
    by_population: BTreeMap<PopulationName, PopulationSeries>,
    /// Index of the bucket currently accumulating.
    open_bucket: usize,
    open_accepts: u64,
    open_sheds: u64,
    /// Shed fraction of every closed bucket, in order.
    closed_fractions: Vec<f64>,
    alerts: Vec<Alert>,
}

impl OverloadMetrics {
    /// Creates the metric set with buckets anchored at `origin_ms`.
    pub fn new(config: OverloadMonitorConfig, origin_ms: u64) -> Self {
        OverloadMetrics {
            config,
            origin_ms,
            accepts: TimeSeries::new("selector.accepts", config.bucket_ms, origin_ms),
            sheds: TimeSeries::new("selector.sheds", config.bucket_ms, origin_ms),
            retries: TimeSeries::new("device.retries", config.bucket_ms, origin_ms),
            evictions: TimeSeries::new("selector.evictions", config.bucket_ms, origin_ms),
            secagg_aborts: TimeSeries::new("aggregator.secagg_aborts", config.bucket_ms, origin_ms),
            dup_reports: TimeSeries::new("coordinator.dup_reports", config.bucket_ms, origin_ms),
            report_rejects: TimeSeries::new(
                "coordinator.report_rejects",
                config.bucket_ms,
                origin_ms,
            ),
            corrupt_frames: TimeSeries::new(
                "coordinator.corrupt_frames",
                config.bucket_ms,
                origin_ms,
            ),
            monitor: DeviationMonitor::new(
                "selector.shed_fraction",
                config.baseline_window,
                config.threshold_sigmas,
            ),
            by_population: BTreeMap::new(),
            open_bucket: 0,
            open_accepts: 0,
            open_sheds: 0,
            closed_fractions: Vec::new(),
            alerts: Vec::new(),
        }
    }

    fn bucket_index(&self, now_ms: u64) -> usize {
        (now_ms.saturating_sub(self.origin_ms) / self.config.bucket_ms) as usize
    }

    /// Closes every bucket strictly before `now_ms`'s bucket, feeding each
    /// closed bucket's shed fraction to the monitors. Quiet buckets count
    /// as fraction 0 — silence after a storm is itself signal.
    fn roll(&mut self, now_ms: u64) {
        let current = self.bucket_index(now_ms);
        while self.open_bucket < current {
            let offered = self.open_accepts + self.open_sheds;
            let fraction = if offered == 0 {
                0.0
            } else {
                self.open_sheds as f64 / offered as f64
            };
            let close_at =
                self.origin_ms + (self.open_bucket as u64 + 1) * self.config.bucket_ms;
            if let Some(alert) = self.monitor.observe(close_at, fraction) {
                self.alerts.push(alert);
            }
            if fraction > self.config.max_shed_fraction {
                self.alerts.push(Alert {
                    metric: "selector.shed_fraction.ceiling".into(),
                    observed: fraction,
                    baseline_mean: self.config.max_shed_fraction,
                    sigmas: (fraction - self.config.max_shed_fraction)
                        / self.config.max_shed_fraction.max(1e-9),
                    at_ms: close_at,
                });
            }
            self.closed_fractions.push(fraction);
            self.open_accepts = 0;
            self.open_sheds = 0;
            self.open_bucket += 1;
        }
    }

    /// Counts an accepted check-in in the aggregate series.
    fn record_accept(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.accepts.increment(now_ms);
        self.open_accepts += 1;
    }

    /// Counts a shed (admission-rejected) check-in in the aggregate series.
    fn record_shed(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.sheds.increment(now_ms);
        self.open_sheds += 1;
    }

    /// Counts a device-side retry attempt in the aggregate series.
    fn record_retry(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.retries.increment(now_ms);
    }

    /// Lazily creates the per-population series triple.
    fn series_for(&mut self, population: &PopulationName) -> &mut PopulationSeries {
        let (bucket_ms, origin_ms) = (self.config.bucket_ms, self.origin_ms);
        self.by_population
            .entry(population.clone())
            .or_insert_with(|| PopulationSeries {
                accepts: TimeSeries::new(
                    format!("selector.accepts[{population}]"),
                    bucket_ms,
                    origin_ms,
                ),
                sheds: TimeSeries::new(
                    format!("selector.sheds[{population}]"),
                    bucket_ms,
                    origin_ms,
                ),
                retries: TimeSeries::new(
                    format!("device.retries[{population}]"),
                    bucket_ms,
                    origin_ms,
                ),
            })
    }

    /// Records an accepted check-in from `population`: counts in the
    /// aggregate series *and* the population's own series.
    pub fn record_accept_for(&mut self, population: &PopulationName, now_ms: u64) {
        self.record_accept(now_ms);
        self.series_for(population).accepts.increment(now_ms);
    }

    /// Records a shed check-in from `population` (aggregate + per-population).
    pub fn record_shed_for(&mut self, population: &PopulationName, now_ms: u64) {
        self.record_shed(now_ms);
        self.series_for(population).sheds.increment(now_ms);
    }

    /// Records a retry pushed to a device of `population` (aggregate +
    /// per-population).
    pub fn record_retry_for(&mut self, population: &PopulationName, now_ms: u64) {
        self.record_retry(now_ms);
        self.series_for(population).retries.increment(now_ms);
    }

    /// Records a stale held connection evicted by a Selector. Evictions
    /// are capacity reclaimed from ghosts, not load turned away, so they
    /// feed their own series and not the shed-fraction monitors.
    pub fn record_evict(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.evictions.increment(now_ms);
    }

    /// Records a SecAgg Aggregator shard whose surviving group fell below
    /// the protocol threshold and aborted at finalize. Aborts cost a
    /// shard's worth of contributions, not admission capacity, so like
    /// evictions they stay out of the shed-fraction monitors.
    pub fn record_secagg_abort(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.secagg_aborts.increment(now_ms);
    }

    /// Records a retried upload answered from the ack-replay cache: the
    /// `(device, round, attempt)` key had already been decided, so the
    /// contribution was *not* summed a second time. Dupes are expected
    /// under lossy links (a lost `ReportAck` looks like a lost report to
    /// the device) and stay out of the shed-fraction monitors.
    pub fn record_duplicate_report(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.dup_reports.increment(now_ms);
    }

    /// Records a report the round refused (late, unknown participant, no
    /// active round) — the `accepted: false` ack path.
    pub fn record_rejected_report(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.report_rejects.increment(now_ms);
    }

    /// Records a frame the wire codec rejected at an endpoint (byte rot,
    /// truncation, stream desync) — the frame never reached protocol
    /// accounting.
    pub fn record_corrupt_frame(&mut self, now_ms: u64) {
        self.roll(now_ms);
        self.corrupt_frames.increment(now_ms);
    }

    /// Closes every fully-elapsed bucket as of `now_ms` (end of run /
    /// dashboard flush). The bucket containing `now_ms` stays open — a
    /// partial bucket would read as an artificial lull.
    pub fn finalize(&mut self, now_ms: u64) {
        self.roll(now_ms);
    }

    /// Shed fraction of each closed bucket, in time order.
    pub fn shed_fractions(&self) -> &[f64] {
        &self.closed_fractions
    }

    /// Alerts raised so far (deviation and ceiling).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The accepted-check-ins series.
    pub fn accepts(&self) -> &TimeSeries {
        &self.accepts
    }

    /// The shed-check-ins series.
    pub fn sheds(&self) -> &TimeSeries {
        &self.sheds
    }

    /// The device-retries series.
    pub fn retries(&self) -> &TimeSeries {
        &self.retries
    }

    /// The stale-connection evictions series.
    pub fn evictions(&self) -> &TimeSeries {
        &self.evictions
    }

    /// The SecAgg below-threshold shard-abort series.
    pub fn secagg_aborts(&self) -> &TimeSeries {
        &self.secagg_aborts
    }

    /// The deduplicated retried-upload series.
    pub fn dup_reports(&self) -> &TimeSeries {
        &self.dup_reports
    }

    /// The refused-report series.
    pub fn report_rejects(&self) -> &TimeSeries {
        &self.report_rejects
    }

    /// The codec-rejected-frame series.
    pub fn corrupt_frames(&self) -> &TimeSeries {
        &self.corrupt_frames
    }

    /// The accept/shed/retry series of one population, if any of its
    /// check-ins have been recorded.
    pub fn population_series(&self, population: &PopulationName) -> Option<&PopulationSeries> {
        self.by_population.get(population)
    }

    /// Every population with recorded per-population telemetry, in name
    /// order (deterministic for rendering).
    pub fn populations(&self) -> Vec<&PopulationName> {
        self.by_population.keys().collect()
    }

    /// Renders the per-population series as an ASCII dashboard panel
    /// (Sec. 5's "aggregated and presented in dashboards" applied to the
    /// multi-tenant Selector layer): one block per population in name
    /// order, each with accept/shed/retry totals and a
    /// [`crate::dashboard::sparkline`] of the bucketed series. The output
    /// is a pure function of the recorded events, so seeded DES reports
    /// can embed it and stay byte-identical across replays.
    pub fn render_population_panel(&self) -> String {
        let mut out = String::from("per-population check-in telemetry\n");
        if self.by_population.is_empty() {
            out.push_str("  (no per-population records)\n");
            return out;
        }
        for (name, series) in &self.by_population {
            out.push_str(&format!("  {name}\n"));
            for (label, ts) in [
                ("accepts", &series.accepts),
                ("sheds", &series.sheds),
                ("retries", &series.retries),
            ] {
                let sums = ts.sums();
                out.push_str(&format!(
                    "    {label:>7} {:>10.0} |{}|\n",
                    sums.iter().sum::<f64>(),
                    crate::dashboard::sparkline(&sums)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> OverloadMonitorConfig {
        OverloadMonitorConfig {
            bucket_ms: 1_000,
            baseline_window: 16,
            threshold_sigmas: 4.0,
            max_shed_fraction: 0.9,
        }
    }

    #[test]
    fn steady_shedding_raises_no_alerts() {
        let mut m = OverloadMetrics::new(config(), 0);
        // 20 buckets of 10% shed.
        for b in 0..20u64 {
            for i in 0..9 {
                m.record_accept(b * 1_000 + i * 10);
            }
            m.record_shed(b * 1_000 + 990);
        }
        m.finalize(20_000);
        assert!(m.alerts().is_empty(), "{:?}", m.alerts());
        assert_eq!(m.shed_fractions().len(), 20);
        assert!((m.shed_fractions()[5] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn flash_crowd_shift_trips_the_deviation_monitor() {
        let mut m = OverloadMetrics::new(config(), 0);
        for b in 0..16u64 {
            for i in 0..10 {
                m.record_accept(b * 1_000 + i * 10);
            }
        }
        // Flash crowd: shedding jumps to 80%.
        for b in 16..20u64 {
            for i in 0..2 {
                m.record_accept(b * 1_000 + i * 10);
            }
            for i in 0..8 {
                m.record_shed(b * 1_000 + 500 + i * 10);
            }
        }
        m.finalize(20_000);
        assert!(
            m.alerts()
                .iter()
                .any(|a| a.metric == "selector.shed_fraction"),
            "no deviation alert: {:?}",
            m.alerts()
        );
    }

    #[test]
    fn sustained_ceiling_breach_alerts_absolutely() {
        let mut m = OverloadMetrics::new(config(), 0);
        // Shedding ~95% from the very first bucket: the deviation monitor
        // may rebaseline, the ceiling must still fire.
        for b in 0..12u64 {
            m.record_accept(b * 1_000);
            for i in 0..19 {
                m.record_shed(b * 1_000 + 10 + i * 10);
            }
        }
        m.finalize(12_000);
        let ceiling: Vec<_> = m
            .alerts()
            .iter()
            .filter(|a| a.metric == "selector.shed_fraction.ceiling")
            .collect();
        assert!(ceiling.len() >= 10, "only {} ceiling alerts", ceiling.len());
        assert!(ceiling[0].observed > 0.9);
    }

    #[test]
    fn quiet_buckets_close_as_zero() {
        let mut m = OverloadMetrics::new(config(), 0);
        m.record_shed(100);
        // Nothing for 5 buckets, then an accept.
        m.record_accept(6_500);
        m.finalize(7_100);
        assert_eq!(m.shed_fractions(), &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn series_record_everything() {
        let mut m = OverloadMetrics::new(config(), 0);
        m.record_accept(0);
        m.record_shed(10);
        m.record_retry(20);
        m.record_retry(1_500);
        assert_eq!(m.accepts().sums(), vec![1.0]);
        assert_eq!(m.sheds().sums(), vec![1.0]);
        assert_eq!(m.retries().sums(), vec![1.0, 1.0]);
    }

    #[test]
    fn wire_fault_series_stay_out_of_the_shed_fraction() {
        let mut m = OverloadMetrics::new(config(), 0);
        m.record_accept(0);
        m.record_duplicate_report(100);
        m.record_rejected_report(150);
        m.record_corrupt_frame(200);
        m.record_duplicate_report(1_100);
        m.finalize(2_000);
        assert_eq!(m.dup_reports().sums(), vec![1.0, 1.0]);
        assert_eq!(m.report_rejects().sums(), vec![1.0]);
        assert_eq!(m.corrupt_frames().sums(), vec![1.0]);
        // A lossy wire is not admission pressure.
        assert_eq!(m.shed_fractions(), &[0.0, 0.0]);
    }

    #[test]
    fn secagg_aborts_feed_their_own_series_only() {
        let mut m = OverloadMetrics::new(config(), 0);
        m.record_accept(0);
        m.record_secagg_abort(100);
        m.record_secagg_abort(1_200);
        m.finalize(2_000);
        assert_eq!(m.secagg_aborts().sums(), vec![1.0, 1.0]);
        // Aborts never count as shed load.
        assert_eq!(m.shed_fractions(), &[0.0, 0.0]);
    }

    #[test]
    fn per_population_series_split_the_aggregate() {
        let mut m = OverloadMetrics::new(config(), 0);
        let a = PopulationName::new("pop/a");
        let b = PopulationName::new("pop/b");
        m.record_accept_for(&a, 0);
        m.record_accept_for(&a, 10);
        m.record_accept_for(&b, 20);
        m.record_shed_for(&b, 30);
        m.record_retry_for(&b, 40);
        m.finalize(1_000);
        // Aggregates include every per-population event.
        assert_eq!(m.accepts().sums(), vec![3.0]);
        assert_eq!(m.sheds().sums(), vec![1.0]);
        assert_eq!(m.retries().sums(), vec![1.0]);
        // The split is by claimed population.
        let sa = m.population_series(&a).unwrap();
        assert_eq!(sa.accepts.sums(), vec![2.0]);
        assert!(sa.sheds.sums().iter().sum::<f64>() == 0.0);
        let sb = m.population_series(&b).unwrap();
        assert_eq!(sb.accepts.sums(), vec![1.0]);
        assert_eq!(sb.sheds.sums(), vec![1.0]);
        assert_eq!(sb.retries.sums(), vec![1.0]);
        assert_eq!(m.populations(), vec![&a, &b]);
        // The shed fraction is still computed over the whole fleet.
        assert_eq!(m.shed_fractions(), &[0.25]);
    }

    #[test]
    fn evictions_do_not_move_the_shed_fraction() {
        let mut m = OverloadMetrics::new(config(), 0);
        m.record_accept(0);
        m.record_evict(10);
        m.record_evict(20);
        m.finalize(1_000);
        assert_eq!(m.evictions().sums(), vec![2.0]);
        // The only closed bucket saw one accept and no sheds.
        assert_eq!(m.shed_fractions(), &[0.0]);
    }

    #[test]
    fn population_panel_renders_every_tenant_in_name_order() {
        let mut m = OverloadMetrics::new(config(), 0);
        let quiet = PopulationName::new("panel/quiet");
        let storm = PopulationName::new("panel/storm");
        for b in 0..4u64 {
            m.record_accept_for(&quiet, b * 1_000);
            for i in 0..(b + 1) {
                m.record_shed_for(&storm, b * 1_000 + 10 + i);
            }
        }
        m.record_retry_for(&storm, 3_500);
        m.finalize(4_000);
        let panel = m.render_population_panel();
        let quiet_at = panel.find("panel/quiet").expect("quiet block rendered");
        let storm_at = panel.find("panel/storm").expect("storm block rendered");
        assert!(quiet_at < storm_at, "blocks must follow name order:\n{panel}");
        // Totals line up with the recorded events.
        for (label, total) in [("accepts", 4.0), ("sheds", 10.0), ("retries", 1.0)] {
            let expect = format!("{label:>7} {total:>10.0} |");
            assert!(panel.contains(&expect), "missing {expect:?} in:\n{panel}");
        }
        // The storm's ramp (1,2,3,4 sheds/bucket) spans the sparkline
        // alphabet from floor to full block.
        assert!(panel.contains('▁') && panel.contains('█'), "{panel}");
        // Rendering twice is byte-identical (embeddable in seeded reports).
        assert_eq!(panel, m.render_population_panel());
    }

    #[test]
    fn population_panel_without_tenants_says_so() {
        let mut m = OverloadMetrics::new(config(), 0);
        m.record_accept(0);
        m.finalize(1_000);
        assert!(m
            .render_population_panel()
            .contains("(no per-population records)"));
    }
}
