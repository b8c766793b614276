//! The unified metrics registry: counters, gauges and log-histogram
//! metrics with label sets, one validated Prometheus text encoder, and a
//! compact wire codec for streaming snapshots across the cluster control
//! plane.
//!
//! The registry is the one metrics path of the workspace: producers
//! populate it from their own state (snapshot style — cheap, no atomics
//! on the hot paths, e.g. `NetMetrics::to_registry`,
//! `TransportStats::to_registry`) and call [`MetricsRegistry::encode`]; consumers that aggregate several
//! processes call [`MetricsRegistry::absorb`] with an extra
//! distinguishing label (e.g. `worker="1"`).
//!
//! Metric and label names are validated **at registration** against the
//! Prometheus data-model grammar, so an invalid name is a panic at the
//! call site that introduced it rather than a silently unscrapeable
//! series; help text and label values are escaped at encode time.

use pgrid_core::histogram::LogHistogram;
use pgrid_core::wire::{Reader, WireError, Writer, NO_CAP};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What kind of metric a family holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing `u64` (name should end in `_total`).
    Counter,
    /// An instantaneous `f64` measurement.
    Gauge,
    /// A `LogHistogram` of `u64` observations.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// One metric family: a help string, a kind, and the labelled series.
#[derive(Clone, Debug, PartialEq)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the sorted label pairs; the empty key is the bare series.
    series: BTreeMap<Vec<(String, String)>, Value>,
}

/// A set of metric families, encodable as Prometheus exposition text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// `true` when `name` matches the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` when `name` matches the label-name grammar
/// `[a-zA-Z_][a-zA-Z0-9_]*` and is not a reserved `__` name.
pub fn valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value (`\`, `"` and newline, per the exposition spec).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a help string (`\` and newline, per the exposition spec).
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    key
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Family {
        assert!(
            valid_metric_name(name),
            "invalid Prometheus metric name: {name:?}"
        );
        let entry = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            });
        assert!(
            entry.kind == kind,
            "metric {name} registered as {} and again as {}",
            entry.kind.as_str(),
            kind.as_str()
        );
        entry
    }

    fn checked_key(name: &str, labels: &[(&str, &str)]) -> Vec<(String, String)> {
        for (label, _) in labels {
            assert!(
                valid_label_name(label),
                "invalid Prometheus label name {label:?} on metric {name}"
            );
            assert!(
                *label != "le",
                "label \"le\" on metric {name} is reserved for histogram buckets"
            );
        }
        let key = label_key(labels);
        assert!(
            key.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate label name on metric {name}"
        );
        key
    }

    /// Sets a counter series to an absolute value (snapshot style).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let key = Self::checked_key(name, labels);
        self.family(name, help, MetricKind::Counter)
            .series
            .insert(key, Value::Counter(value));
    }

    /// Adds to a counter series (creating it at zero first).
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], delta: u64) {
        let key = Self::checked_key(name, labels);
        let slot = self
            .family(name, help, MetricKind::Counter)
            .series
            .entry(key)
            .or_insert(Value::Counter(0));
        if let Value::Counter(v) = slot {
            *v += delta;
        }
    }

    /// Sets a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = Self::checked_key(name, labels);
        self.family(name, help, MetricKind::Gauge)
            .series
            .insert(key, Value::Gauge(value));
    }

    /// Merges a histogram snapshot into a histogram series (bucketwise
    /// addition when the series already exists).
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: &LogHistogram,
    ) {
        let key = Self::checked_key(name, labels);
        let slot = self
            .family(name, help, MetricKind::Histogram)
            .series
            .entry(key)
            .or_insert_with(|| Value::Histogram(LogHistogram::new()));
        if let Value::Histogram(h) = slot {
            h.merge(histogram);
        }
    }

    /// Number of registered families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Total number of series across all families.
    pub fn series_count(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Folds every series of `other` into this registry, optionally
    /// tagging each incoming series with one extra label — the cluster
    /// coordinator absorbs each worker's snapshot under
    /// `worker="<shard>"`, so merged series stay distinguishable and no
    /// cross-process summing semantics are needed.  Series that collide
    /// exactly (same name, same final label set) are summed for counters
    /// and histograms and overwritten for gauges.  A family whose kind
    /// conflicts with one already registered under its name (two workers
    /// disagreeing on a metric) is skipped: the first kind wins, and the
    /// rest of the merge goes ahead.
    pub fn absorb(&mut self, other: &MetricsRegistry, extra: Option<(&str, &str)>) {
        for (name, family) in &other.families {
            if self
                .families
                .get(name)
                .is_some_and(|mine| mine.kind != family.kind)
            {
                continue;
            }
            let mine = self.family(name, &family.help, family.kind);
            for (labels, value) in &family.series {
                let mut key = labels.clone();
                if let Some((k, v)) = extra {
                    key.push((k.to_string(), v.to_string()));
                    key.sort();
                }
                match (
                    mine.series.entry(key).or_insert_with(|| match value {
                        Value::Counter(_) => Value::Counter(0),
                        Value::Gauge(_) => Value::Gauge(0.0),
                        Value::Histogram(_) => Value::Histogram(LogHistogram::new()),
                    }),
                    value,
                ) {
                    (Value::Counter(mine), Value::Counter(theirs)) => *mine += theirs,
                    (Value::Gauge(mine), Value::Gauge(theirs)) => *mine = *theirs,
                    (Value::Histogram(mine), Value::Histogram(theirs)) => mine.merge(theirs),
                    _ => unreachable!("family kind already checked"),
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// families in name order, one `# HELP`/`# TYPE` pair per family,
    /// series in label order, histograms as cumulative `_bucket{le=...}`
    /// plus `_sum`/`_count`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, value) in &family.series {
                match value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Value::Histogram(h) => {
                        for (upper, cumulative) in h.cumulative_buckets() {
                            let le = upper.to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, Some(("le", &le)))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels(labels, Some(("le", "+Inf"))),
                            h.total()
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum());
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.total()
                        );
                    }
                }
            }
        }
        out
    }

    /// Serialises the registry for the cluster control plane (workers
    /// stream snapshots to the coordinator at each phase barrier), in the
    /// big-endian [`pgrid_core::wire`] form.
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.count(self.families.len());
        for (name, family) in &self.families {
            w.str(name);
            w.str(&family.help);
            w.u8(match family.kind {
                MetricKind::Counter => 0,
                MetricKind::Gauge => 1,
                MetricKind::Histogram => 2,
            });
            w.count(family.series.len());
            for (labels, value) in &family.series {
                w.u8(labels.len() as u8);
                for (k, v) in labels {
                    w.str(k);
                    w.str(v);
                }
                match value {
                    Value::Counter(v) => w.u64(*v),
                    Value::Gauge(v) => w.f64(*v),
                    Value::Histogram(h) => w.histogram(h),
                }
            }
        }
        w.into_vec()
    }

    /// Decodes a registry produced by [`MetricsRegistry::encode_wire`].
    pub fn decode_wire(buf: &[u8]) -> Result<Self, WireError> {
        // Smallest family: empty name and help, kind, no series.
        const FAMILY_MIN_BYTES: usize = 4 + 4 + 1 + 4;
        // Smallest series: no labels, one 8-byte counter or gauge.
        const SERIES_MIN_BYTES: usize = 1 + 8;
        let mut r = Reader::new(buf);
        let mut reg = MetricsRegistry::new();
        let n_families = r.count(NO_CAP, FAMILY_MIN_BYTES)?;
        for _ in 0..n_families {
            let name = r.string(NO_CAP)?;
            let help = r.string(NO_CAP)?;
            let kind = match r.u8()? {
                0 => MetricKind::Counter,
                1 => MetricKind::Gauge,
                2 => MetricKind::Histogram,
                k => return Err(WireError::Invalid(format!("metric kind {k}"))),
            };
            if !valid_metric_name(&name) {
                return Err(WireError::Invalid(format!("metric name {name:?}")));
            }
            let n_series = r.count(NO_CAP, SERIES_MIN_BYTES)?;
            let family = match reg.families.entry(name) {
                Entry::Vacant(slot) => slot.insert(Family {
                    help,
                    kind,
                    series: BTreeMap::new(),
                }),
                // Encoders write each name once; a repeated one could mix
                // kinds inside one family.
                Entry::Occupied(slot) => {
                    return Err(WireError::Invalid(format!(
                        "duplicate family {:?}",
                        slot.key()
                    )))
                }
            };
            for _ in 0..n_series {
                let n_labels = r.u8()?;
                let mut labels = Vec::new();
                for _ in 0..n_labels {
                    let k = r.string(NO_CAP)?;
                    if !valid_label_name(&k) {
                        return Err(WireError::Invalid(format!("label name {k:?}")));
                    }
                    labels.push((k, r.string(NO_CAP)?));
                }
                labels.sort();
                let value = match kind {
                    MetricKind::Counter => Value::Counter(r.u64()?),
                    MetricKind::Gauge => Value::Gauge(r.f64()?),
                    MetricKind::Histogram => Value::Histogram(r.histogram()?),
                };
                family.series.insert(labels, value);
            }
        }
        r.finish()?;
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_matches_the_grammar() {
        for good in ["a", "pgrid_net_queries_total", "a:b", "_x9"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "9x", "a-b", "a b", "a\"b"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_label_name("peer"));
        assert!(!valid_label_name("__reserved"));
        assert!(!valid_label_name("le-gacy"));
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn invalid_metric_name_panics_at_registration() {
        MetricsRegistry::new().counter("bad-name", "x", &[], 1);
    }

    #[test]
    #[should_panic(expected = "registered as counter and again as gauge")]
    fn kind_conflicts_panic() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_x_total", "x", &[], 1);
        reg.gauge("pgrid_x_total", "x", &[], 1.0);
    }

    #[test]
    fn encode_emits_one_header_per_family_and_sorted_series() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_b_total", "b help", &[("peer", "2")], 7);
        reg.counter("pgrid_b_total", "b help", &[("peer", "1")], 5);
        reg.gauge("pgrid_a", "a help \"quoted\"\nsecond", &[], 1.5);
        let text = reg.encode();
        let a_at = text.find("# HELP pgrid_a").unwrap();
        let b_at = text.find("# HELP pgrid_b_total").unwrap();
        assert!(a_at < b_at, "families must render in name order");
        assert!(text.contains("# HELP pgrid_a a help \"quoted\"\\nsecond"));
        assert!(text.contains("pgrid_a 1.5"));
        let one = text.find("pgrid_b_total{peer=\"1\"} 5").unwrap();
        let two = text.find("pgrid_b_total{peer=\"2\"} 7").unwrap();
        assert!(one < two, "series must render in label order");
        assert_eq!(text.matches("# TYPE pgrid_b_total counter").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("pgrid_g", "g", &[("path", "a\"b\\c\nd")], 2.0);
        assert!(reg.encode().contains("path=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn histogram_series_render_cumulative_buckets_with_labels() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let mut reg = MetricsRegistry::new();
        reg.histogram("pgrid_latency_ms", "latency", &[("index", "0")], &h);
        let text = reg.encode();
        assert!(text.contains("# TYPE pgrid_latency_ms histogram"));
        assert!(text.contains("pgrid_latency_ms_bucket{index=\"0\",le=\"1\"} 2"));
        assert!(text.contains("pgrid_latency_ms_bucket{index=\"0\",le=\"+Inf\"} 3"));
        assert!(text.contains("pgrid_latency_ms_sum{index=\"0\"} 102"));
        assert!(text.contains("pgrid_latency_ms_count{index=\"0\"} 3"));
    }

    #[test]
    fn absorb_tags_incoming_series_and_merges_histograms() {
        let mut worker = MetricsRegistry::new();
        worker.counter("pgrid_frames_total", "frames", &[], 10);
        let mut h = LogHistogram::new();
        h.record(4);
        worker.histogram("pgrid_latency_ms", "latency", &[], &h);

        let mut merged = MetricsRegistry::new();
        merged.absorb(&worker, Some(("worker", "0")));
        merged.absorb(&worker, Some(("worker", "1")));
        let text = merged.encode();
        assert!(text.contains("pgrid_frames_total{worker=\"0\"} 10"));
        assert!(text.contains("pgrid_frames_total{worker=\"1\"} 10"));
        assert!(text.contains("pgrid_latency_ms_count{worker=\"1\"} 1"));

        // Absorbing without a tag sums counters exactly.
        let mut sum = MetricsRegistry::new();
        sum.absorb(&worker, None);
        sum.absorb(&worker, None);
        assert!(sum.encode().contains("pgrid_frames_total 20"));
    }

    #[test]
    fn absorb_skips_a_family_whose_kind_conflicts() {
        let mut first = MetricsRegistry::new();
        first.counter("pgrid_x", "x", &[], 3);
        first.counter("pgrid_frames_total", "frames", &[], 1);
        let mut second = MetricsRegistry::new();
        second.gauge("pgrid_x", "x", &[], 7.5);
        second.counter("pgrid_frames_total", "frames", &[], 2);

        let mut merged = MetricsRegistry::new();
        merged.absorb(&first, Some(("worker", "0")));
        merged.absorb(&second, Some(("worker", "1")));
        let text = merged.encode();
        // The first kind wins; the conflicting family is dropped whole.
        assert!(text.contains("# TYPE pgrid_x counter"));
        assert!(text.contains("pgrid_x{worker=\"0\"} 3"));
        assert!(!text.contains("worker=\"1\"} 7.5"));
        // Every other family of the conflicting snapshot still merges.
        assert!(text.contains("pgrid_frames_total{worker=\"1\"} 2"));
        assert_eq!(merged.series_count(), 3);
    }

    #[test]
    fn wire_round_trip_preserves_the_registry() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_c_total", "c", &[("peer", "3"), ("link", "tcp")], 42);
        reg.gauge("pgrid_g", "g", &[], -2.25);
        let mut h = LogHistogram::new();
        for v in [1u64, 9, 200, 4096] {
            h.record(v);
        }
        reg.histogram("pgrid_h_ms", "h", &[("index", "1")], &h);
        let rebuilt = MetricsRegistry::decode_wire(&reg.encode_wire()).unwrap();
        assert_eq!(rebuilt, reg);
        assert_eq!(rebuilt.encode(), reg.encode());
    }

    /// One histogram family with one unlabelled series, cut off right
    /// after the series' bucket count.
    fn histogram_wire_prefix(n_buckets: u32) -> Vec<u8> {
        let mut w = Writer::default();
        w.count(1);
        w.str("pgrid_h_ms");
        w.str("h");
        w.u8(2);
        w.count(1);
        w.u8(0);
        w.u32(n_buckets);
        w.into_vec()
    }

    #[test]
    fn wire_decode_rejects_a_huge_bucket_count_without_allocating() {
        // Used to reach `Vec::with_capacity(u32::MAX)` and abort.  The
        // padding keeps every count before the bucket count plausible.
        let mut wire = histogram_wire_prefix(u32::MAX);
        wire.extend_from_slice(&[0; 64]);
        assert_eq!(
            MetricsRegistry::decode_wire(&wire),
            Err(WireError::Count(u32::MAX as u64))
        );
    }

    #[test]
    fn wire_decode_saturates_overflowing_bucket_counts() {
        // Two wire buckets whose counts overflow a u64 when added.
        let mut w = Writer::default();
        w.raw(&histogram_wire_prefix(2));
        for _ in 0..2 {
            w.u16(4);
            w.u64(u64::MAX);
        }
        w.u64(0);
        w.u64(4);
        let reg = MetricsRegistry::decode_wire(&w.into_vec()).unwrap();
        assert!(reg
            .encode()
            .contains(&format!("pgrid_h_ms_count {}", u64::MAX)));
    }

    #[test]
    fn wire_decode_rejects_a_repeated_family() {
        let mut counter = MetricsRegistry::new();
        counter.counter("pgrid_x", "x", &[], 1);
        let mut gauge = MetricsRegistry::new();
        gauge.gauge("pgrid_x", "x", &[], 1.0);
        // Two families named `pgrid_x`, one a counter and one a gauge.
        let mut w = Writer::default();
        w.count(2);
        w.raw(&counter.encode_wire()[4..]);
        w.raw(&gauge.encode_wire()[4..]);
        assert!(matches!(
            MetricsRegistry::decode_wire(&w.into_vec()),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn wire_decode_rejects_truncation_and_trailing_bytes() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_c_total", "c", &[], 1);
        let wire = reg.encode_wire();
        assert!(MetricsRegistry::decode_wire(&wire[..wire.len() - 1]).is_err());
        let mut extra = wire.clone();
        extra.push(0);
        assert!(MetricsRegistry::decode_wire(&extra).is_err());
    }
}
