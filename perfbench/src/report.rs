//! What a workload hands back, and how it is printed.
//!
//! Every run prints a human-readable block (metric, value, unit,
//! direction; the output checks; any layer table) and then, as the last
//! line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

/// The contract's end-to-end metrics, in output order, with their units.
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("timeline_s", "s"),
    ("lookups_per_s", "1/s"),
    ("lookup_success", "ratio"),
    ("lookup_failure_rate", "ratio"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The contract's per-layer metrics, in output order, with their units.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.runtime.self_s", "s"),
    ("net.runtime.ns_per_message", "ns"),
    ("net.runtime.messages_delivered", "count"),
    ("net.runtime.messages_lost", "count"),
    ("net.runtime.decode_failures", "count"),
    ("net.runtime.multi_message_frames", "count"),
    ("net.runtime.lookups_timed_out", "count"),
    ("net.runtime.lookups_answered_not_found", "count"),
    ("net.runtime.lookups_answered_at_origin", "count"),
    ("net.runtime.late_responses", "count"),
    ("net.runtime.mean_hops", "hops"),
    ("net.runtime.maint_bytes_per_peer", "B"),
    ("transport.loopback.send_s", "s"),
    ("transport.loopback.poll_s", "s"),
    ("transport.loopback.frames", "count"),
    ("transport.loopback.bytes", "B"),
    ("transport.loopback.bytes_per_frame", "B"),
    ("transport.loopback.in_flight_max", "count"),
    ("net.message.frame_decode_ns", "ns"),
    ("net.message.decode_ns.exchange", "ns"),
    ("net.message.decode_ns.query", "ns"),
    ("net.message.encode_ns.exchange", "ns"),
    ("net.message.encode_ns.query", "ns"),
    ("net.message.bytes.exchange", "B"),
    ("net.message.bytes.query", "B"),
    ("net.message.share", "ratio"),
    ("core.exchange.assess_ns", "ns"),
    ("core.exchange.apply_ns", "ns"),
    ("core.exchange.exchanges", "count"),
    ("core.exchange.useful_ratio", "ratio"),
    ("core.exchange.build_virtual_min", "min"),
    ("core.exchange.unsettled_overlays", "count"),
    ("core.exchange.balance_deviation", "ratio"),
    ("core.search.lookup_ns", "ns"),
    ("core.search.hops", "hops"),
    ("core.search.no_route", "count"),
    ("core.search.found_ratio", "ratio"),
    ("cluster.phase.join_s", "s"),
    ("cluster.phase.replicate_s", "s"),
    ("cluster.phase.construct_s", "s"),
    ("cluster.phase.query_s", "s"),
    ("cluster.phase.churn_s", "s"),
    ("cluster.cpu_util", "ratio"),
    ("cluster.detect_ms", "ms"),
    ("cluster.rejoin_ms", "ms"),
    ("cluster.recovered_warm", "count"),
    ("cluster.recovery_s", "s"),
    ("cluster.heal_ms", "ms"),
    ("cluster.heal_lookup_success", "ratio"),
    ("cluster.balance_deviation", "ratio"),
    ("cluster.maint_bytes_per_peer", "B"),
    ("reactor.epoll_wakeups_per_frame", "ratio"),
    ("reactor.partial_writes", "count"),
    ("reactor.reconnects", "count"),
    ("reactor.dropped_frames", "count"),
    ("transport.wire_bytes_per_peer", "B"),
    ("durable.syncs", "count"),
    ("durable.fsync_s", "s"),
    ("durable.fsync_p99_us", "us"),
    ("durable.records_per_sync", "ratio"),
    ("durable.appended_bytes", "B"),
    ("durable.replayed_records", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_s", "s"),
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
    /// A count or share reported for attribution, with no direction.
    Info,
}

impl Better {
    fn arrow(self) -> &'static str {
        match self {
            Better::Lower => "lower is better",
            Better::Higher => "higher is better",
            Better::Info => "",
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as it appears in the JSON result.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// One output check; any failing check fails the run.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values behind the verdict.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The end-to-end metrics of the contract (untraced run).
    pub end_to_end: Vec<Metric>,
    /// End-to-end figures the workload defines beyond the contract's
    /// shared set (printed in the table, not in the JSON).
    pub extra: Vec<Metric>,
    /// The per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Free-form report lines (breakdowns, layer tables).
    pub lines: Vec<String>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted: lookups issued on the loopback workloads,
    /// deployments on `cluster`.
    pub attempted: u64,
    /// Operations that failed: lookups not answered with their key, or
    /// deployments that failed an output check.
    pub failed: u64,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, better: Better) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        });
    }

    /// Records a workload-specific end-to-end figure.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, better: Better) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better: Better::Info,
        });
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Adds a report line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// A finite JSON number (non-finite values become 0, which no metric of
/// the contract takes).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn table(out: &mut String, title: &str, metrics: &[Metric]) {
    let _ = writeln!(out, "{title}");
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<42} {:>18.6} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.better.arrow()
        );
    }
}

/// Prints the human-readable block and the final JSON line; returns
/// whether the run is correct.
pub fn print(workload: &str, traced: bool, outcome: &Outcome) -> bool {
    let mut out = String::new();
    for line in &outcome.lines {
        let _ = writeln!(out, "{line}");
    }
    if traced {
        table(
            &mut out,
            &format!("[{workload}] per-layer metrics (traced pass)"),
            &outcome.per_layer,
        );
    } else {
        table(
            &mut out,
            &format!("[{workload}] end-to-end metrics"),
            &outcome.end_to_end,
        );
        if !outcome.extra.is_empty() {
            table(
                &mut out,
                &format!("[{workload}] workload-specific end-to-end figures"),
                &outcome.extra,
            );
        }
    }
    let _ = writeln!(out, "[{workload}] output checks");
    for c in &outcome.checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        let _ = writeln!(out, "  {verdict} {:<44} {}", c.name, c.detail);
    }
    let (list, metrics) = if traced {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let mut correct = outcome.correct();
    let mut body = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let found = metrics.iter().find(|m| m.name == name);
        if let Some(m) = found {
            assert_eq!(m.unit, unit, "unit of {name}");
        }
        let value = found.map_or(0.0, |m| m.value);
        // An end-to-end metric is never 0 or missing in a sound run.
        let sound = value.is_finite() && value != 0.0;
        if !traced && !sound {
            let _ = writeln!(out, "  FAIL end-to-end metric {name} is {value}");
            correct = false;
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    for m in metrics {
        assert!(
            list.iter().any(|&(name, _)| name == m.name),
            "{} is not in the metric list",
            m.name
        );
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    print!("{out}");
    correct
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of exact integer observations, linearly interpolated
/// between closest ranks (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
