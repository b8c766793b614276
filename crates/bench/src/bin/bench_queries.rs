//! Query data-plane runner: sustained lookup throughput over the message
//! runtime on loopback, with latency percentiles from the log-scale
//! histogram, the price of enabled tracing, and a distribution shift
//! folded in (p99 while the overlay re-balances live), emitted both as an
//! aligned text table and as a `BENCH_queries.json` snapshot for CI
//! archival.
//!
//! ```text
//! cargo run --release -p pgrid-bench --bin bench_queries
//! cargo run --release -p pgrid-bench --bin bench_queries -- --quick
//! cargo run --release -p pgrid-bench --bin bench_queries -- \
//!     --peers 192 --lookups 240000 --out BENCH_queries.json
//! ```
//!
//! The same overlay (fixed seed) is driven twice — once with tracing off
//! (`cold`) and once with it on (`traced`) — so the tracing delta is
//! measured against an identical trie.  The runner hard-asserts the
//! production floor (≥ 1M routed lookups/min over ≥ 48k lookups) and the
//! histogram-merge invariants (bucketwise additivity of the cold and
//! traced latency histograms, the property the sharded cluster
//! coordinator relies on) before writing the snapshot, so a published
//! number can never come from a run that missed the bar.

use pgrid_core::histogram::LogHistogram;
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::{NetConfig, QueryAggregates, Runtime};
use pgrid_workload::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Virtual-time drain after each issued batch: long enough for a batch to
/// resolve (multi-hop forwards plus response), far below the 20s timeout.
const DRAIN_MS: u64 = 2_000;

/// One measured query-load window (a cold or traced run, or the shift
/// segment of the cold run).
struct Window {
    label: &'static str,
    issued: u64,
    answered: u64,
    succeeded: u64,
    wall_s: f64,
    /// Routed lookups per minute of wall clock (answered, not just issued —
    /// a lookup only counts once its response was actually routed back).
    lookups_per_min: f64,
    p50_ms: u64,
    p99_ms: u64,
    p999_ms: u64,
    mean_hops: f64,
    /// Latency histogram of exactly this window (cumulative stats diffed).
    histogram: LogHistogram,
}

fn config(n_peers: usize) -> NetConfig {
    NetConfig {
        n_peers,
        keys_per_peer: 10,
        n_min: 5,
        distribution: Distribution::Uniform,
        seed: 9,
        ..NetConfig::default()
    }
}

/// Builds the overlay the load will run against (excluded from timing).
fn build_runtime(n_peers: usize) -> Runtime {
    let mut rt = Runtime::new(config(n_peers));
    for peer in 0..n_peers {
        rt.join_peer(peer, 4);
    }
    rt.replication_phase();
    rt.run_until(10_000);
    rt.start_construction();
    rt.run_until(400_000);
    rt
}

/// The histogram of the queries resolved between two cumulative snapshots:
/// bucketwise difference, rebuilt through the same sparse codec the
/// cluster wire format uses.
fn histogram_delta(before: &LogHistogram, after: &LogHistogram) -> LogHistogram {
    let earlier: BTreeMap<u16, u64> = before.sparse_buckets().into_iter().collect();
    let buckets: Vec<(u16, u64)> = after
        .sparse_buckets()
        .into_iter()
        .map(|(bucket, count)| (bucket, count - earlier.get(&bucket).copied().unwrap_or(0)))
        .filter(|&(_, count)| count > 0)
        .collect();
    LogHistogram::from_sparse(&buckets, after.sum() - before.sum(), after.max())
}

/// Issues `total` lookups in batches against an already-constructed
/// runtime and measures the wall clock until every one of them resolved
/// (answered or timed out).  Returns the window plus the cumulative stats
/// at its end, so callers can chain further windows.
fn run_lookup_load(
    rt: &mut Runtime,
    label: &'static str,
    total: u64,
    batch: usize,
) -> (Window, QueryAggregates) {
    let keys: Vec<Key> = rt
        .original_entries_of(IndexId::PRIMARY)
        .iter()
        .map(|e| e.key)
        .collect();
    let before = rt.metrics.stats(IndexId::PRIMARY);
    let start = Instant::now();
    let mut issued = 0u64;
    let mut cursor = 0usize;
    let mut scratch: Vec<Key> = Vec::with_capacity(batch);
    while issued < total {
        scratch.clear();
        let want = batch.min((total - issued) as usize);
        for _ in 0..want {
            // A coprime stride walks the whole corpus without clustering
            // consecutive lookups on neighbouring keys.
            cursor = (cursor + 7) % keys.len();
            scratch.push(keys[cursor]);
        }
        rt.issue_query_batch_on(IndexId::PRIMARY, &scratch);
        issued += want as u64;
        rt.run_until(rt.now() + DRAIN_MS);
    }
    // Let stragglers resolve (or their timeouts fire) before closing the
    // window: throughput counts *routed* lookups, so the clock must cover
    // every response we credit.
    rt.run_until(rt.now() + rt.config.query_timeout_ms + 10_000);
    let wall_s = start.elapsed().as_secs_f64();
    let after = rt.metrics.stats(IndexId::PRIMARY);
    let histogram = histogram_delta(&before.latency, &after.latency);
    let answered = after.answered - before.answered;
    let succeeded = after.succeeded - before.succeeded;
    let window = Window {
        label,
        issued,
        answered,
        succeeded,
        wall_s,
        lookups_per_min: answered as f64 / wall_s * 60.0,
        p50_ms: histogram.quantile(0.50).unwrap_or(0),
        p99_ms: histogram.quantile(0.99).unwrap_or(0),
        p999_ms: histogram.quantile(0.999).unwrap_or(0),
        mean_hops: if succeeded == 0 {
            0.0
        } else {
            (after.hops_sum_successful - before.hops_sum_successful) as f64 / succeeded as f64
        },
        histogram,
    };
    (window, after)
}

/// The distribution-shift segment: inject a skewed (Pareto-1.0) key wave
/// into the overlay, restart construction, and keep issuing lookups
/// while the trie re-balances underneath them.  Returns the shift window
/// and the virtual minutes construction needed to go quiescent again.
fn run_shift_segment(rt: &mut Runtime, total: u64, batch: usize) -> (Window, f64) {
    let n_peers = rt.config.n_peers;
    let mut rng = StdRng::seed_from_u64(0x5158);
    let shift = Distribution::Pareto { shape: 1.0 };
    for peer in 0..n_peers {
        let keys = shift.sample_many(4, &mut rng);
        rt.insert_entries(IndexId::PRIMARY, peer, keys);
    }
    rt.start_construction();
    let rebalance_start = rt.now();
    let (window, _) = run_lookup_load(rt, "shift", total, batch);
    // Drive the runtime until construction settles so the re-convergence
    // time covers the whole re-balance, not just the query window.
    let mut guard = 0;
    while !rt.construction_quiescent() && guard < 600 {
        rt.run_until(rt.now() + 10_000);
        guard += 1;
    }
    let reconverge_min = (rt.now() - rebalance_start) as f64 / 60_000.0;
    (window, reconverge_min)
}

fn print_window(w: &Window) {
    println!(
        "{:>7} {:>9} {:>9} {:>9.1} {:>13.0} {:>8} {:>8} {:>8} {:>7.2}",
        w.label,
        w.issued,
        w.answered,
        w.wall_s,
        w.lookups_per_min,
        w.p50_ms,
        w.p99_ms,
        w.p999_ms,
        w.mean_hops
    );
}

fn window_json(w: &Window) -> String {
    format!(
        "{{\"label\": \"{}\", \"issued\": {}, \"answered\": {}, \"succeeded\": {}, \
         \"wall_s\": {:.3}, \"lookups_per_min\": {:.0}, \"p50_ms\": {}, \"p99_ms\": {}, \
         \"p999_ms\": {}, \"mean_hops\": {:.3}}}",
        w.label,
        w.issued,
        w.answered,
        w.succeeded,
        w.wall_s,
        w.lookups_per_min,
        w.p50_ms,
        w.p99_ms,
        w.p999_ms,
        w.mean_hops
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let option = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|at| args.get(at + 1))
            .cloned()
    };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n_peers: usize = option("--peers")
        .map(|v| v.parse().expect("--peers must be an integer"))
        .unwrap_or(if quick { 96 } else { 192 });
    let total: u64 = option("--lookups")
        .map(|v| v.parse().expect("--lookups must be an integer"))
        .unwrap_or(if quick { 48_000 } else { 240_000 });
    let batch: usize = option("--batch")
        .map(|v| v.parse().expect("--batch must be an integer"))
        .unwrap_or(600);
    let out = option("--out").unwrap_or_else(|| "BENCH_queries.json".to_string());
    // The floor the issue pins: a (48k+, per-mode) load must sustain at
    // least one million routed lookups per wall-clock minute on loopback.
    const FLOOR_PER_MIN: f64 = 1_000_000.0;
    const FLOOR_LOOKUPS: u64 = 48_000;
    assert!(
        total >= FLOOR_LOOKUPS,
        "--lookups {total} is below the {FLOOR_LOOKUPS} floor the throughput claim requires"
    );

    println!(
        "query data plane: {n_peers} peers, {total} lookups/mode, batch {batch}, \
         host parallelism {host_threads}"
    );
    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>13} {:>8} {:>8} {:>8} {:>7}",
        "mode",
        "issued",
        "answered",
        "wall s",
        "lookups/min",
        "p50 ms",
        "p99 ms",
        "p999 ms",
        "hops"
    );

    // Cold: the reference configuration every other experiment runs
    // with.
    let mut cold_rt = build_runtime(n_peers);
    let (cold, _) = run_lookup_load(&mut cold_rt, "cold", total, batch);
    print_window(&cold);

    // Traced: the cold configuration again, but with structured tracing
    // on — every lookup allocates a trace ID, rides a `Traced` envelope
    // and records its hop chain.  The delta against `cold` is the price
    // of *enabled* tracing; `cold` itself runs with the tracer compiled
    // in but off, so its floor assertion below is the
    // tracing-disabled-overhead gate.
    let mut traced_rt = build_runtime(n_peers);
    traced_rt.enable_tracing();
    let (traced, _) = run_lookup_load(&mut traced_rt, "traced", total, batch);
    print_window(&traced);
    let trace_events = traced_rt.tracer.drain().len();
    assert!(
        trace_events > 0,
        "the traced window recorded no trace events"
    );
    let tracing_overhead = cold.lookups_per_min / traced.lookups_per_min - 1.0;
    println!(
        "tracing overhead: {:.0} -> {:.0} lookups/min ({:+.1}% when enabled, {} events)",
        cold.lookups_per_min,
        traced.lookups_per_min,
        tracing_overhead * 100.0,
        trace_events
    );
    drop(traced_rt);

    // Shift: skewed key wave + live re-balance on the cold overlay.
    let shift_total = if quick { total / 4 } else { total / 2 };
    let (shift, reconverge_min) = run_shift_segment(&mut cold_rt, shift_total.max(1_000), batch);
    print_window(&shift);
    println!(
        "distribution shift: p99 {} ms during re-balance (baseline {} ms), \
         construction re-converged in {:.1} virtual min",
        shift.p99_ms, cold.p99_ms, reconverge_min
    );

    // -- Hard gates: a snapshot is only written if every claim holds. ----
    // Tracing-disabled overhead: the instrumented-but-off data plane must
    // stay within noise of the pre-instrumentation baseline, i.e. still
    // clear the same 1M/min production floor the PR-6 runner pinned.
    assert!(
        cold.lookups_per_min >= FLOOR_PER_MIN,
        "tracing-disabled run fell below the pre-instrumentation floor: \
         {:.0} < {FLOOR_PER_MIN:.0} lookups/min",
        cold.lookups_per_min
    );
    assert!(
        cold.answered * 100 >= cold.issued * 95,
        "cold: only {}/{} lookups answered — the load outran the drain windows",
        cold.answered,
        cold.issued
    );

    // Histogram-merge invariants: folding the cold window into the traced
    // one must be exactly bucketwise addition — the property the cluster
    // coordinator depends on when it merges per-shard aggregates.
    let mut merged = cold.histogram.clone();
    merged.merge(&traced.histogram);
    assert_eq!(
        merged.total(),
        cold.histogram.total() + traced.histogram.total(),
        "histogram merge lost samples"
    );
    assert_eq!(
        merged.sum(),
        cold.histogram.sum() + traced.histogram.sum(),
        "histogram merge lost latency mass"
    );
    assert_eq!(
        merged.max(),
        cold.histogram.max().max(traced.histogram.max()),
        "histogram merge lost the maximum"
    );
    let cold_buckets: BTreeMap<u16, u64> = cold.histogram.sparse_buckets().into_iter().collect();
    let traced_buckets: BTreeMap<u16, u64> =
        traced.histogram.sparse_buckets().into_iter().collect();
    for (bucket, count) in merged.sparse_buckets() {
        let expected = cold_buckets.get(&bucket).copied().unwrap_or(0)
            + traced_buckets.get(&bucket).copied().unwrap_or(0);
        assert_eq!(
            count, expected,
            "bucket {bucket} is not additive under merge"
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"query_data_plane\",\n");
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"n_peers\": {n_peers},\n"));
    json.push_str(&format!("  \"lookups_per_mode\": {total},\n"));
    json.push_str(&format!(
        "  \"throughput_floor_per_min\": {FLOOR_PER_MIN:.0},\n"
    ));
    json.push_str(&format!(
        "  \"tracing_enabled_overhead\": {tracing_overhead:.3},\n"
    ));
    json.push_str(&format!(
        "  \"shift_reconverge_virtual_min\": {reconverge_min:.2},\n"
    ));
    json.push_str("  \"windows\": [\n");
    let windows = [&cold, &traced, &shift];
    for (at, w) in windows.iter().enumerate() {
        json.push_str(&format!(
            "    {}{}\n",
            window_json(w),
            if at + 1 == windows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("snapshot file must be writable");
    println!("snapshot written to {out}");
}
