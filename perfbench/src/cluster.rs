//! The `cluster` workload: `pgrid-cluster local` with two worker processes
//! on the reactor transport, worker 1 killed in the middle of construction.
//!
//! A run deploys the cluster several times on the `--smoke` timeline (25
//! virtual minutes), in rounds of two kinds of deployment:
//!
//! * *warm*: durable journaling on, the killed worker relaunched and
//!   rejoining warm from its log.  This is the path the workload exists
//!   for; it gives the lookup figures (success and latency after a warm
//!   restart), the recovery time and every per-layer metric.
//! * *heal*: journaling off, the killed worker's shard rebuilt on the
//!   survivor from P-Grid replicas.  It gives the wall-clock figures
//!   (set-up, build, timeline, lookup throughput).  A journaled
//!   deployment's wall time follows the filesystem's fsync latency, whose
//!   p99 moved between 0.8 and 13 ms from one minute to the next in the
//!   container the benchmark was developed in, doubling the timeline; the
//!   heal deployment runs the same processes, sockets and protocol without
//!   waiting on the disk.
//!
//! Every figure is a median over the run's deployments of its kind, except
//! lookup success and failure rate, which pool the lookups of all warm
//! deployments (a pooled ratio moves less between runs than a median of
//! few ratios).  Each deployment is measured from outside the program: a scraper thread polls
//! the coordinator's live `/metrics` endpoint for the `pgrid_cluster_phase`
//! gauge, the merged registry is read back from `--metrics-out`, the
//! summary and failure lines from standard output, the kill and rejoin
//! moments from the leveled log on standard error, and CPU time and peak
//! memory of the whole process tree from `getrusage(RUSAGE_CHILDREN)`.

use crate::report::{median, Better, Outcome};
use pgrid_obs::scrape::http_get;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Peers of the cluster deployment.
const PEERS: u64 = 256;
/// Worker processes.
const WORKERS: u64 = 2;
/// Virtual minute worker 1 kills itself at: inside the smoke timeline's
/// construction window (minutes 5 to 18).
const KILL_AT_MIN: u64 = 10;
/// Seconds of `--seconds` per round of deployments (at least one round).
const SECONDS_PER_ROUND: u64 = 20;
/// Heal deployments per round.
const HEAL_PER_ROUND: u64 = 3;
/// Warm deployments per round: twice the heal ones, because the lookup
/// success after a warm rejoin varies more between deployments than the
/// heal deployments' wall times do.
const WARM_PER_ROUND: u64 = 6;
/// How long the coordinator waits for the killed worker's warm rejoin.
const REJOIN_GRACE_MS: u64 = 5_000;
/// A deployment is killed (and the run fails) after this long.
const DEADLINE: Duration = Duration::from_secs(60);
/// Interval of the `/metrics` scrape.
const SCRAPE_EVERY: Duration = Duration::from_millis(20);
/// Names of the timeline phases, indexed by the barrier that ends them.
const PHASES: [&str; 5] = ["join", "replicate", "construct", "query", "churn"];

/// `struct rusage` of Linux (x86-64 and aarch64 share the layout).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU seconds and peak RSS (MiB) of all waited-for descendants.
fn children_usage() -> (f64, f64) {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the call's
    // duration; `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    (
        secs(usage.utime) + secs(usage.stime),
        usage.maxrss as f64 / 1024.0,
    )
}

/// Polls the phase gauge until `stop`; returns when each phase value was
/// first seen, relative to `start`.
fn watch_phases(addr: SocketAddr, start: Instant, stop: Arc<AtomicBool>) -> Vec<Option<Duration>> {
    let mut seen = vec![None; PHASES.len() + 1];
    while !stop.load(Ordering::SeqCst) {
        if let Ok(body) = http_get(addr, "/metrics") {
            let phase = body
                .lines()
                .find_map(|l| l.strip_prefix("pgrid_cluster_phase "))
                .and_then(|v| v.trim().parse::<f64>().ok());
            if let Some(p) = phase {
                let p = p as usize;
                if p < seen.len() && seen[p].is_none() {
                    seen[p] = Some(start.elapsed());
                }
            }
        }
        std::thread::sleep(SCRAPE_EVERY);
    }
    seen
}

/// A Prometheus text dump, summed over the `worker` label.
#[derive(Default)]
struct Registry {
    values: BTreeMap<String, f64>,
    /// Histograms by metric name: per labelled series (worker), `le` →
    /// cumulative count.
    buckets: BTreeMap<String, BTreeMap<String, BTreeMap<u64, f64>>>,
}

impl Registry {
    fn parse(text: &str) -> Registry {
        let mut reg = Registry::default();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = series.split_once('{').unwrap_or((series, ""));
            let Some(base) = name.strip_suffix("_bucket") else {
                *reg.values.entry(name.to_string()).or_default() += value;
                continue;
            };
            let (others, le): (Vec<&str>, Vec<&str>) = labels
                .trim_end_matches('}')
                .split(',')
                .partition(|kv| !kv.starts_with("le="));
            let le = le
                .first()
                .map(|kv| kv.trim_start_matches("le=").trim_matches('"'));
            if let Some(Ok(le)) = le.map(str::parse::<u64>) {
                reg.buckets
                    .entry(base.to_string())
                    .or_default()
                    .entry(others.join(","))
                    .or_default()
                    .insert(le, value);
            }
        }
        reg
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The histogram merged over its series: cumulative count at every
    /// bound any series reports (a series' count carries forward to
    /// bounds it does not list).
    fn merged(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut merged = BTreeMap::new();
        let Some(series) = self.buckets.get(name) else {
            return merged;
        };
        let bounds: std::collections::BTreeSet<u64> =
            series.values().flat_map(|b| b.keys().copied()).collect();
        for le in bounds {
            let count = series
                .values()
                .map(|b| b.range(..=le).next_back().map_or(0.0, |(_, c)| *c))
                .sum();
            merged.insert(le, count);
        }
        merged
    }

    /// Observations at or below `le` in a histogram.
    fn count_at(&self, name: &str, le: u64) -> f64 {
        self.merged(name)
            .range(..=le)
            .next_back()
            .map_or(0.0, |(_, c)| *c)
    }

    /// The `q`-quantile of the observations above `floor` (of all of them
    /// when `floor` is `None`), linearly interpolated inside the bucket
    /// that holds it (the usual Prometheus estimate).
    fn quantile(&self, name: &str, q: f64, floor: Option<u64>) -> f64 {
        let buckets = self.merged(name);
        let below = floor.map_or(0.0, |f| {
            buckets.range(..=f).next_back().map_or(0.0, |(_, c)| *c)
        });
        let total = buckets.values().copied().fold(0.0, f64::max) - below;
        if total <= 0.0 {
            return 0.0;
        }
        let target = below + q * total;
        let first = floor.map_or(0, |f| f + 1);
        let mut prev = (floor.unwrap_or(0) as f64, below);
        for (&le, &count) in buckets.range(first..) {
            if count >= target {
                let span = count - prev.1;
                let frac = if span > 0.0 {
                    (target - prev.1) / span
                } else {
                    1.0
                };
                return prev.0 + frac * (le as f64 - prev.0);
            }
            prev = (le as f64, count);
        }
        prev.0
    }
}

/// `HH:MM:SS.mmm` of a log line, in milliseconds of the day.
fn log_ms(line: &str) -> Option<u64> {
    let stamp = line.strip_prefix('[')?.get(..12)?;
    let mut parts = stamp.split([':', '.']);
    let mut next = || parts.next().and_then(|p| p.parse::<u64>().ok());
    let (h, m, s, ms) = (next()?, next()?, next()?, next()?);
    Some(((h * 60 + m) * 60 + s) * 1000 + ms)
}

/// The number after `key` in `text` (e.g. `"detected after "` → 219).
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Rounds of deployments per run for a `--seconds` budget.
pub fn rounds(seconds: u64) -> u64 {
    (seconds / SECONDS_PER_ROUND).max(1)
}

/// What one deployment produced.
#[derive(Default)]
struct Deployment {
    /// Journaling on and the killed worker relaunched warm (otherwise its
    /// shard is healed from replicas).
    warm: bool,
    /// Every output check of the deployment passed.
    ok: bool,
    /// Launch to the first barrier (workers wired).
    setup_s: f64,
    /// First barrier to the construction barrier.
    build_s: f64,
    /// First barrier to process exit.
    timeline_s: f64,
    /// Wall seconds of each phase (scraped barriers).
    phases: [f64; 5],
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    issued: f64,
    answered: f64,
    succeeded: f64,
    timed_out: f64,
    late: f64,
    at_origin: f64,
    success: f64,
    p50_ms: f64,
    p99_ms: f64,
    detect_ms: f64,
    rejoin_ms: f64,
    /// Heal deployments: how long the heal round took.
    heal_ms: f64,
    recovery_s: f64,
    recovered_warm: f64,
    balance: f64,
    mean_hops: f64,
    reg: Registry,
}

/// Launches one deployment and measures it.
fn deploy(seed: u64, warm: bool, dir: &Path, exe: &Path, out: &mut Outcome) -> Deployment {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("the work directory is writable");
    let metrics_out = dir.join("metrics.prom");
    let log_path = dir.join("cluster.log");
    let addr: SocketAddr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
        probe.local_addr().expect("a bound listener has an address")
    };
    let (cpu_before, _) = children_usage();

    let mut command = Command::new(exe);
    command
        .args(["local", "--smoke", "--workers", &WORKERS.to_string()])
        .args(["--peers", &PEERS.to_string(), "--seed", &seed.to_string()])
        .args(["--transport", "reactor", "--event-threads", "1"])
        .args([
            "--kill-worker",
            "1",
            "--kill-at-min",
            &KILL_AT_MIN.to_string(),
        ]);
    if warm {
        command
            .arg("--data-dir")
            .arg(dir.join("data"))
            .arg("--relaunch")
            .args(["--rejoin-grace-ms", &REJOIN_GRACE_MS.to_string()]);
    }
    let start = Instant::now();
    let mut child = command
        .args(["--metrics-addr", &addr.to_string()])
        .arg("--metrics-out")
        .arg(&metrics_out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(std::fs::File::create(&log_path).expect("the work directory is writable"))
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {}: {e}", exe.display()));
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || watch_phases(addr, start, stop))
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        if let Some(status) = child.try_wait().expect("waiting on the cluster process") {
            break Some(status);
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let wall = start.elapsed();
    stop.store(true, Ordering::SeqCst);
    let seen = watcher.join().expect("the phase watcher does not panic");
    let stdout = reader.join().expect("the stdout reader does not panic");
    let (cpu_after, rss_mb) = children_usage();
    let log = std::fs::read_to_string(&log_path).unwrap_or_default();
    let reg = Registry::parse(&std::fs::read_to_string(&metrics_out).unwrap_or_default());
    let _ = std::fs::remove_dir_all(dir);

    let tag = format!("seed {seed} {}", if warm { "warm" } else { "heal" });
    let mut ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        ok &= pass;
        out.check(name, pass, detail);
    };
    // Local mode exits 0 only when every worker process exited 0, except
    // the one the coordinator watched die (the injected kill).
    check(
        &format!(
            "{tag}: cluster and workers exit cleanly within {} s",
            DEADLINE.as_secs()
        ),
        status.is_some_and(|s| s.success()),
        format!("{status:?} after {:.1} s", wall.as_secs_f64()),
    );
    let failure = stdout
        .lines()
        .find(|l| l.contains("worker 1 failure"))
        .unwrap_or("");
    let shard_len = number_after(failure, "+").unwrap_or(0.0);
    // "... warm-rejoined in Xms (N peers replayed ...)" or
    // "... healed in Xms (R peers from replicas, L locally)".
    let recovered = number_after(failure, "(").unwrap_or(0.0);
    if warm {
        check(
            &format!("{tag}: rejoined warm, recovered_warm == shard_len"),
            failure.contains("warm-rejoined") && shard_len > 0.0 && recovered == shard_len,
            format!("{recovered} of {shard_len} peers replayed warm"),
        );
    } else {
        let local = number_after(failure, "replicas, ").unwrap_or(0.0);
        check(
            &format!("{tag}: healed, every orphan rebuilt"),
            failure.contains("healed in") && shard_len > 0.0 && recovered + local == shard_len,
            format!("{recovered} from replicas + {local} locally of {shard_len}"),
        );
    }
    let issued = reg.get("pgrid_net_queries_issued_total");
    let answered = reg.get("pgrid_net_queries_answered_total");
    let timed_out = reg.get("pgrid_net_queries_timed_out_total");
    check(
        &format!("{tag}: issued == answered + timed_out"),
        issued > 0.0 && issued == answered + timed_out,
        format!("issued {issued} answered {answered} timed_out {timed_out}"),
    );
    let decode_failures = reg.get("pgrid_net_decode_failures_total");
    check(
        &format!("{tag}: decode_failures == 0"),
        decode_failures == 0.0,
        format!("{decode_failures}"),
    );
    // The last barrier comes just before the process exits and can fall
    // between two scrapes; the exit stands in for it then.
    let mut seen = seen;
    let last = seen.len() - 1;
    let scraped = seen[..last].iter().all(Option::is_some);
    seen[last] = seen[last].or(Some(wall));
    check(
        &format!("{tag}: every phase barrier before the last observed on /metrics"),
        scraped,
        format!("{seen:?}"),
    );
    // Kill → warm rejoin, from the log's timestamps (reported, not checked:
    // the processes share one stderr, so a line can arrive interleaved
    // with another process's; the warm rejoin itself is checked above).
    let death = log
        .lines()
        .find(|l| l.contains("dying at virtual minute"))
        .and_then(log_ms);
    let rejoined = log
        .lines()
        .find(|l| l.contains("rejoined warm"))
        .and_then(log_ms);
    let recovery_s = match (death, rejoined) {
        (Some(d), Some(r)) if r >= d => (r - d) as f64 / 1000.0,
        _ => 0.0,
    };

    let at = |i: usize| seen[i].unwrap_or_default();
    let mut phases = [0.0; 5];
    for (i, phase) in phases.iter_mut().enumerate() {
        *phase = at(i + 1).saturating_sub(at(i)).as_secs_f64();
    }
    const LATENCY: &str = "pgrid_net_query_latency_ms";
    Deployment {
        warm,
        ok,
        setup_s: at(0).as_secs_f64(),
        build_s: at(3).saturating_sub(at(0)).as_secs_f64(),
        timeline_s: wall.saturating_sub(at(0)).as_secs_f64(),
        phases,
        wall_s: wall.as_secs_f64(),
        cpu_s: cpu_after - cpu_before,
        rss_mb,
        issued,
        answered,
        succeeded: reg.get("pgrid_net_queries_succeeded_total"),
        timed_out,
        late: reg.get("pgrid_net_query_late_responses_total"),
        at_origin: reg.count_at(LATENCY, 0),
        success: number_after(&stdout, "query_success_rate = ").unwrap_or(0.0),
        // Most lookups are answered by their origin in 0 virtual ms, so
        // the median is taken over the answers that crossed the network.
        p50_ms: reg.quantile(LATENCY, 0.50, Some(0)),
        p99_ms: reg.quantile(LATENCY, 0.99, None),
        detect_ms: number_after(failure, "detected after ").unwrap_or(0.0),
        rejoin_ms: number_after(failure, "warm-rejoined in ").unwrap_or(0.0),
        heal_ms: number_after(failure, "healed in ").unwrap_or(0.0),
        recovery_s,
        recovered_warm: if warm { recovered } else { 0.0 },
        balance: number_after(&stdout, "balance_deviation  = ").unwrap_or(0.0),
        mean_hops: number_after(&stdout, "mean_query_hops    = ").unwrap_or(0.0),
        reg,
    }
}

/// Runs the cluster workload: [`rounds`] rounds of heal and warm
/// deployments, interleaved, reported per kind.
pub fn run(seed: u64, seconds: u64, work_dir: &Path, exe: &Path) -> Outcome {
    let mut out = Outcome::default();
    let dir = work_dir.join(format!("cluster-{}", std::process::id()));
    let per_round = HEAL_PER_ROUND + WARM_PER_ROUND;
    let runs: Vec<Deployment> = (0..rounds(seconds) * per_round)
        .map(|r| {
            // Within a round: heal, warm, warm, heal, warm, warm, ...
            let warm = r % per_round % (per_round / HEAL_PER_ROUND) != 0;
            let deployment_seed = seed.wrapping_mul(1_000).wrapping_add(r);
            deploy(deployment_seed, warm, &dir, exe, &mut out)
        })
        .collect();
    let (warm, heal): (Vec<&Deployment>, Vec<&Deployment>) = runs.iter().partition(|d| d.warm);
    let med_of = |set: &[&Deployment], f: &dyn Fn(&Deployment) -> f64| {
        median(&set.iter().map(|d| f(d)).collect::<Vec<_>>())
    };
    let med = |f: &dyn Fn(&Deployment) -> f64| med_of(&warm, f);
    let sum = |f: &dyn Fn(&Deployment) -> f64| warm.iter().map(|d| f(d)).sum::<f64>();
    let reg_med = |name: &str| med(&|d| d.reg.get(name));
    let lookups_per_s = |d: &Deployment| d.answered / (d.phases[3] + d.phases[4]).max(1e-9);

    // The operations of this workload are deployments.  Lookups are not
    // counted one by one: which of them succeed depends on how the
    // processes are scheduled, so the count differs between runs of one
    // seed; their success is the gated `lookup_success` instead.
    out.attempted = runs.len() as u64;
    out.failed = runs.iter().filter(|d| !d.ok).count() as u64;
    out.e2e("setup_s", med_of(&heal, &|d| d.setup_s), "s", Better::Lower);
    out.e2e("build_s", med_of(&heal, &|d| d.build_s), "s", Better::Lower);
    out.e2e(
        "timeline_s",
        med_of(&heal, &|d| d.timeline_s),
        "s",
        Better::Lower,
    );
    out.e2e(
        "lookups_per_s",
        med_of(&heal, &lookups_per_s),
        "1/s",
        Better::Higher,
    );
    let issued = sum(&|d| d.issued).max(1.0);
    out.e2e(
        "lookup_success",
        sum(&|d| d.succeeded) / issued,
        "ratio",
        Better::Higher,
    );
    out.e2e(
        "lookup_failure_rate",
        sum(&|d| d.issued - d.succeeded) / issued,
        "ratio",
        Better::Lower,
    );
    out.e2e("lookup_p50_ms", med(&|d| d.p50_ms), "ms", Better::Lower);
    out.e2e("lookup_p99_ms", med(&|d| d.p99_ms), "ms", Better::Lower);
    out.e2e(
        "peak_rss_mb",
        runs.iter().map(|d| d.rss_mb).fold(0.0, f64::max),
        "MiB",
        Better::Lower,
    );
    let maint = |d: &Deployment| d.reg.get("pgrid_net_maintenance_bytes_total") / PEERS as f64;
    out.extra("recovery_s", med(&|d| d.recovery_s), "s", Better::Lower);
    out.extra(
        "balance_deviation",
        med(&|d| d.balance),
        "ratio",
        Better::Lower,
    );
    out.extra("maint_bytes_per_peer", med(&maint), "B", Better::Lower);

    out.line(format!(
        "[cluster] {} warm and {} heal deployments of {WORKERS} worker processes and {PEERS} \
         peers on the smoke timeline, reactor transport over the host loopback interface, \
         worker 1 killed at virtual minute {KILL_AT_MIN}; warm deployments journal under {} \
         (fsync latency is this filesystem's, not a device's) and relaunch the worker warm, \
         heal deployments rebuild its shard from replicas; wall-clock figures are medians of the \
         heal deployments, lookup figures and the per-layer table medians of the warm ones",
        warm.len(),
        heal.len(),
        dir.display()
    ));
    out.line(format!(
        "[cluster] warm deployments: lookups issued {} answered {} succeeded {} (success per \
         deployment as the coordinator reports it: {:?}; heal deployments: {:?})",
        sum(&|d| d.issued),
        sum(&|d| d.answered),
        sum(&|d| d.succeeded),
        warm.iter().map(|d| d.success).collect::<Vec<_>>(),
        heal.iter().map(|d| d.success).collect::<Vec<_>>()
    ));
    out.line(format!(
        "[cluster] warm lookup failures: timed out {} | answered not found {} | late responses {} \
         | answered by their origin in 0 virtual ms {} (p50 is over the other answered lookups, \
         p99 over all answered lookups)",
        sum(&|d| d.timed_out),
        sum(&|d| d.answered - d.succeeded),
        sum(&|d| d.late),
        sum(&|d| d.at_origin)
    ));
    for d in &runs {
        let phases: Vec<String> = PHASES
            .iter()
            .zip(d.phases)
            .map(|(name, s)| format!("{name} {s:.2}s"))
            .collect();
        let recovery = if d.warm {
            format!("warm rejoin {:.3}s after the kill", d.recovery_s)
        } else {
            format!("healed in {:.0}ms", d.heal_ms)
        };
        out.line(format!(
            "[cluster] {} deployment: wall {:.2}s, phases {}, {recovery}",
            if d.warm { "warm" } else { "heal" },
            d.wall_s,
            phases.join(", ")
        ));
    }

    for (i, name) in PHASES.iter().enumerate() {
        out.layer(
            &format!("cluster.phase.{name}_s"),
            med(&|d| d.phases[i]),
            "s",
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.layer(
        "cluster.cpu_util",
        med(&|d| d.cpu_s / (d.wall_s * cores)),
        "ratio",
    );
    out.layer("cluster.detect_ms", med(&|d| d.detect_ms), "ms");
    out.layer("cluster.rejoin_ms", med(&|d| d.rejoin_ms), "ms");
    out.layer(
        "cluster.recovered_warm",
        med(&|d| d.recovered_warm),
        "count",
    );
    out.layer("cluster.recovery_s", med(&|d| d.recovery_s), "s");
    out.layer("cluster.heal_ms", med_of(&heal, &|d| d.heal_ms), "ms");
    out.layer(
        "cluster.heal_lookup_success",
        med_of(&heal, &|d| d.success),
        "ratio",
    );
    out.layer("cluster.balance_deviation", med(&|d| d.balance), "ratio");
    out.layer("cluster.maint_bytes_per_peer", med(&maint), "B");
    out.layer(
        "reactor.epoll_wakeups_per_frame",
        med(&|d| {
            d.reg.get("pgrid_reactor_epoll_wakeups_total")
                / d.reg.get("pgrid_transport_frames_delivered_total").max(1.0)
        }),
        "ratio",
    );
    out.layer(
        "reactor.partial_writes",
        reg_med("pgrid_reactor_partial_writes_total"),
        "count",
    );
    out.layer(
        "reactor.reconnects",
        reg_med("pgrid_reactor_reconnects_total"),
        "count",
    );
    out.layer(
        "reactor.dropped_frames",
        reg_med("pgrid_reactor_dropped_frames_total"),
        "count",
    );
    out.layer(
        "transport.wire_bytes_per_peer",
        reg_med("pgrid_transport_bytes_sent_total") / PEERS as f64,
        "B",
    );
    out.layer(
        "durable.syncs",
        reg_med("pgrid_durable_syncs_total"),
        "count",
    );
    out.layer(
        "durable.fsync_s",
        reg_med("pgrid_durable_fsync_micros_sum") / 1e6,
        "s",
    );
    out.layer(
        "durable.fsync_p99_us",
        med(&|d| d.reg.quantile("pgrid_durable_fsync_micros", 0.99, None)),
        "us",
    );
    out.layer(
        "durable.records_per_sync",
        med(&|d| {
            d.reg.get("pgrid_durable_appended_records_total")
                / d.reg.get("pgrid_durable_syncs_total").max(1.0)
        }),
        "ratio",
    );
    out.layer(
        "durable.appended_bytes",
        reg_med("pgrid_durable_appended_bytes_total"),
        "B",
    );
    out.layer(
        "durable.replayed_records",
        reg_med("pgrid_durable_replayed_records_total"),
        "count",
    );
    out.layer(
        "net.runtime.messages_delivered",
        reg_med("pgrid_net_messages_delivered_total"),
        "count",
    );
    out.layer(
        "net.runtime.messages_lost",
        reg_med("pgrid_net_messages_lost_total"),
        "count",
    );
    out.layer(
        "net.runtime.decode_failures",
        reg_med("pgrid_net_decode_failures_total"),
        "count",
    );
    out.layer(
        "net.runtime.multi_message_frames",
        reg_med("pgrid_net_multi_message_frames_total"),
        "count",
    );
    out.layer(
        "net.runtime.lookups_timed_out",
        med(&|d| d.timed_out),
        "count",
    );
    out.layer(
        "net.runtime.lookups_answered_not_found",
        med(&|d| d.answered - d.succeeded),
        "count",
    );
    out.layer(
        "net.runtime.lookups_answered_at_origin",
        med(&|d| d.at_origin),
        "count",
    );
    out.layer("net.runtime.late_responses", med(&|d| d.late), "count");
    out.layer("net.runtime.mean_hops", med(&|d| d.mean_hops), "hops");
    out.layer("net.runtime.maint_bytes_per_peer", med(&maint), "B");
    out
}
