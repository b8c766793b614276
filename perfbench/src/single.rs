//! The `lookup` and `build` workloads: untraced pass, traced pass, parity
//! check and the metrics of both.
//!
//! A pass runs the workload's fixed schedule over a given transport.  The
//! untraced pass uses `Runtime::new` (the bare loopback transport) and
//! yields the end-to-end metrics.  The traced pass rebuilds the same
//! overlays over [`TappedLoopback`], snapshots peer pairs during
//! construction, and yields the per-layer table; its counts must equal
//! the untraced pass's exactly.

use crate::calib::SpeedClock;
use crate::layers::{
    replay_codec, replay_exchange, replay_search, snapshot_pairs, CodecReplay, PairSnapshot,
    SearchReplay,
};
use crate::loopback::{
    build_unit, config, lookup_keys, lookup_window, snapshot, Rig, Window, BUILD_BUILD_MS,
    BUILD_PEERS, LOOKUP_BATCH, LOOKUP_BUILD_MS, LOOKUP_PEERS, STEP_MS, WAVE_MS,
};
use crate::report::{median, peak_rss_mb, quantile, Better, Outcome};
use crate::tap::{TapStats, TappedLoopback};
use bytes::Bytes;
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_net::runtime::{NetConfig, Runtime};
use pgrid_transport::loopback::LoopbackTransport;
use pgrid_transport::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Overlays the `lookup` workload builds and queries per run.
const LOOKUP_OVERLAYS: u64 = 2;
/// Lookups issued per second of `--seconds` (sized so a run measures for
/// about that long on a 2-core x86-64 host).
const LOOKUPS_PER_BUDGET_SECOND: u64 = 120_000;
/// Seconds of `--seconds` per `build` unit (at least three units run).
const BUDGET_SECONDS_PER_UNIT: u64 = 5;
/// Keys each `core.search` replay looks up per overlay.
const SEARCH_KEYS: usize = 20_000;

/// The seed of the `k`-th overlay of a run.
fn overlay_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Lookup batches per overlay for a `--seconds` budget.
pub fn lookup_batches(seconds: u64) -> u64 {
    (seconds * LOOKUPS_PER_BUDGET_SECOND / LOOKUP_BATCH as u64 / LOOKUP_OVERLAYS).max(1)
}

/// `build` units for a `--seconds` budget.
pub fn build_units(seconds: u64) -> u64 {
    seconds.div_ceil(BUDGET_SECONDS_PER_UNIT).max(3)
}

/// What the traced pass collects beyond the runtime's own counters.
trait Hooks<T: Transport> {
    /// Before the overlay built from `seed` is created; its construction
    /// runs until virtual time `horizon_ms`.
    fn overlay(&mut self, _seed: u64, _horizon_ms: u64) {}
    /// After every construction step.
    fn step(&mut self, _rt: &Runtime<T>) {}
    /// Start of a measured window.
    fn begin(&mut self, _rt: &mut Runtime<T>) {}
    /// End of a measured window.
    fn end(&mut self, _rt: &mut Runtime<T>) {}
}

struct Untraced;
impl Hooks<LoopbackTransport> for Untraced {}

/// Shares of the construction horizon at which the traced pass copies
/// peer pairs for the exchange replay: early, middle and late.
const SNAPSHOT_AT: [f64; 3] = [0.1, 0.5, 0.9];

/// The traced pass's collection state.
#[derive(Default)]
struct Tracer {
    rng: Option<StdRng>,
    /// Construction steps of the current overlay so far.
    steps: u64,
    /// The steps at which the current overlay's pairs are copied.
    snapshot_steps: Vec<u64>,
    /// Pair snapshots of every overlay so far.
    snapshots: Vec<PairSnapshot>,
    tap: TapStats,
    samples: Vec<Bytes>,
}

impl Hooks<TappedLoopback> for Tracer {
    fn overlay(&mut self, seed: u64, horizon_ms: u64) {
        self.rng = Some(StdRng::seed_from_u64(seed ^ 0x5A1F));
        self.steps = 0;
        let steps = horizon_ms / STEP_MS;
        self.snapshot_steps = SNAPSHOT_AT
            .iter()
            .map(|share| ((steps as f64 * share) as u64).max(1))
            .collect();
    }

    fn step(&mut self, rt: &Runtime<TappedLoopback>) {
        self.steps += 1;
        if self.snapshot_steps.contains(&self.steps) {
            let rng = self.rng.as_mut().expect("overlay() seeds the pair sampler");
            let minute = rt.now() as f64 / 60_000.0;
            let n = rt.config.n_peers;
            self.snapshots.push(snapshot_pairs(
                n,
                |p| rt.peer_state(IndexId::PRIMARY, p),
                minute,
                rng,
            ));
        }
    }

    fn begin(&mut self, rt: &mut Runtime<TappedLoopback>) {
        rt.transport_mut().recording = true;
    }

    fn end(&mut self, rt: &mut Runtime<TappedLoopback>) {
        let tap = rt.transport_mut();
        tap.recording = false;
        let s = &tap.stats;
        self.tap.send += s.send;
        self.tap.poll += s.poll;
        self.tap.frames_sent += s.frames_sent;
        self.tap.bytes_sent += s.bytes_sent;
        self.tap.in_flight_max = self.tap.in_flight_max.max(s.in_flight_max);
        // Keep an equal share of every window's sample.
        self.samples.extend(tap.samples.drain(..).take(4_000));
        tap.stats = TapStats::default();
    }
}

/// One overlay (lookup) or unit (build) of a pass.
#[derive(Clone, Debug, Default)]
struct Part {
    /// `Runtime` creation (peer and key generation), in reference-speed
    /// seconds.
    create: Duration,
    /// Runtime calls from the first join to the end of construction
    /// (lookup) or of the insert wave (build), in reference-speed seconds.
    build: Duration,
    /// How much slower than nominal the host ran the reference (median
    /// over the overlay's life).
    slowdown: f64,
    /// Virtual minute construction was first quiescent.
    quiescent_min: Option<f64>,
    /// Virtual minutes from the insert wave to its re-balance being first
    /// quiescent (build only).
    wave_quiescent_min: Option<f64>,
    /// Virtual minutes construction ran for.
    horizon_min: f64,
    maint_bytes_per_peer: f64,
    balance_deviation: f64,
    /// The measured lookup window (lookup) or the whole unit (build).
    window: Window,
    /// The insert wave, whose lookups are the unit's reads (build only).
    wave: Option<Window>,
    /// Frames the transport accepted, handed out, and still holds, over
    /// the whole overlay's life.
    frames_sent: u64,
    frames_delivered: u64,
    bytes_sent: u64,
    in_flight: usize,
    search: SearchReplay,
}

/// Creates the runtime of one overlay; returns it with the creation's
/// reference-speed time.
fn create_rig<T: Transport>(
    make: &dyn Fn(NetConfig) -> Runtime<T>,
    n_peers: usize,
    seed: u64,
) -> (Rig<T>, Duration) {
    let mut clock = SpeedClock::new();
    let start = Instant::now();
    let rt = make(config(n_peers, seed));
    let create = clock.convert_ended(start.elapsed());
    (Rig::new(rt, clock), create)
}

fn finish_part<T: Transport>(d: &mut Rig<T>, part: &mut Part, keys: &[Key], seed: u64) {
    part.slowdown = d.clock.median_slowdown();
    let stats = d.rt.transport_stats();
    part.frames_sent = stats.frames_sent;
    part.frames_delivered = stats.frames_delivered;
    part.bytes_sent = stats.bytes_sent;
    part.in_flight = d.rt.transport_mut().in_flight();
    let states = snapshot(&d.rt);
    let take = keys.len().min(SEARCH_KEYS);
    part.search = replay_search(&states, &keys[..take], seed);
}

fn lookup_pass<T: Transport>(
    make: &dyn Fn(NetConfig) -> Runtime<T>,
    hooks: &mut dyn Hooks<T>,
    seed: u64,
    batches: u64,
) -> Vec<Part> {
    let mut parts = Vec::new();
    for k in 0..LOOKUP_OVERLAYS {
        let s = overlay_seed(seed, k);
        hooks.overlay(s, LOOKUP_BUILD_MS);
        let (mut d, create) = create_rig(make, LOOKUP_PEERS, s);
        let quiescent_at = d.construct(LOOKUP_BUILD_MS, &mut |rt| hooks.step(rt));
        let build = d.paced;
        let maint = d.counters().maintenance_bytes as f64 / LOOKUP_PEERS as f64;
        let keys = lookup_keys(&d.rt, s);
        hooks.begin(&mut d.rt);
        let window = lookup_window(&mut d, &keys, batches);
        hooks.end(&mut d.rt);
        let mut part = Part {
            create,
            build,
            quiescent_min: quiescent_at.map(|ms| ms as f64 / 60_000.0),
            horizon_min: LOOKUP_BUILD_MS as f64 / 60_000.0,
            maint_bytes_per_peer: maint,
            window,
            ..Part::default()
        };
        finish_part(&mut d, &mut part, &keys, s);
        parts.push(part);
    }
    parts
}

fn build_pass<T: Transport>(
    make: &dyn Fn(NetConfig) -> Runtime<T>,
    hooks: &mut dyn Hooks<T>,
    seed: u64,
    units: u64,
) -> Vec<Part> {
    let mut parts = Vec::new();
    for u in 0..units {
        let s = overlay_seed(seed, u);
        hooks.overlay(s, BUILD_BUILD_MS);
        let (mut d, create) = create_rig(make, BUILD_PEERS, s);
        hooks.begin(&mut d.rt);
        let unit = build_unit(&mut d, s, &mut |rt| hooks.step(rt));
        hooks.end(&mut d.rt);
        let keys: Vec<Key> =
            d.rt.original_entries_of(IndexId::PRIMARY)
                .iter()
                .map(|e| e.key)
                .collect();
        let mut part = Part {
            create,
            build: unit.build,
            quiescent_min: unit.quiescent_min,
            wave_quiescent_min: unit.wave_quiescent_min,
            horizon_min: BUILD_BUILD_MS as f64 / 60_000.0,
            maint_bytes_per_peer: unit.maint_bytes_per_peer,
            balance_deviation: unit.balance_deviation,
            window: unit.whole,
            wave: Some(unit.wave),
            ..Part::default()
        };
        finish_part(&mut d, &mut part, &keys, s);
        parts.push(part);
    }
    parts
}

impl Part {
    /// The window whose lookups are this part's reads.
    fn reads(&self) -> &Window {
        self.wave.as_ref().unwrap_or(&self.window)
    }
}

/// Sums of a pass's read windows.
#[derive(Default)]
struct Reads {
    issued: u64,
    answered: u64,
    succeeded: u64,
    timed_out: u64,
    late: u64,
    resolved: u64,
    hops: u64,
    /// Answered lookups the origin resolved itself (0 virtual ms).
    at_origin: u64,
    /// Latencies of the answered lookups, ascending.
    latencies: Vec<u64>,
    /// Latencies of every issued lookup, ascending, a timed-out lookup
    /// counting as the query timeout (longer than any answer).
    all: Vec<u64>,
}

fn reads(parts: &[Part]) -> Reads {
    let mut r = Reads::default();
    let timeout_ms = NetConfig::default().query_timeout_ms;
    for p in parts {
        let q = &p.reads().delta.queries;
        r.issued += q.issued;
        r.answered += q.answered;
        r.succeeded += q.succeeded;
        r.timed_out += q.timed_out;
        r.late += q.late_responses;
        r.hops += q.hops_sum_successful;
        r.resolved += p.reads().resolved;
        r.latencies.extend(&p.reads().latencies);
        r.at_origin += p.reads().latencies.iter().filter(|&&l| l == 0).count() as u64;
    }
    r.latencies.sort_unstable();
    r.all = r.latencies.clone();
    r.all.resize(r.all.len() + r.timed_out as usize, timeout_ms);
    r
}

/// The output checks every loopback pass must satisfy.
fn check_pass(out: &mut Outcome, label: &str, parts: &[Part]) {
    let r = reads(parts);
    out.check(
        &format!("{label}: issued == answered + timed_out"),
        r.issued == r.answered + r.timed_out && r.resolved == r.issued,
        format!(
            "issued {} answered {} timed_out {} resolved {}",
            r.issued, r.answered, r.timed_out, r.resolved
        ),
    );
    let decode_failures: u64 = parts.iter().map(|p| p.window.delta.decode_failures).sum();
    out.check(
        &format!("{label}: decode_failures == 0"),
        decode_failures == 0,
        format!("{decode_failures}"),
    );
    let misrouted: u64 = parts.iter().map(|p| p.search.misrouted).sum();
    let reached: u64 = parts.iter().map(|p| p.search.reached).sum();
    out.check(
        &format!("{label}: core.search Found path covers key"),
        misrouted == 0 && reached > 0,
        format!("{reached} reached, {misrouted} misrouted"),
    );
    let conserved = parts
        .iter()
        .all(|p| p.frames_sent == p.frames_delivered + p.in_flight as u64);
    let (sent, delivered, in_flight) = parts.iter().fold((0, 0, 0), |acc, p| {
        (
            acc.0 + p.frames_sent,
            acc.1 + p.frames_delivered,
            acc.2 + p.in_flight as u64,
        )
    });
    out.check(
        &format!("{label}: loopback frames conserved"),
        conserved,
        format!("sent {sent} = delivered {delivered} + in flight {in_flight}"),
    );
}

/// Median virtual minute of first quiescence; an overlay that never got
/// there counts as its construction horizon (a lower bound).
fn quiescent_median(parts: &[Part]) -> f64 {
    median(
        &parts
            .iter()
            .map(|p| p.quiescent_min.unwrap_or(p.horizon_min))
            .collect::<Vec<_>>(),
    )
}

/// The figures the traced and untraced passes must agree on.
fn trajectory(parts: &[Part]) -> Vec<[u64; 5]> {
    parts
        .iter()
        .map(|p| {
            let q = &p.reads().delta.queries;
            [
                q.issued,
                q.answered,
                q.succeeded,
                p.frames_sent,
                p.bytes_sent,
            ]
        })
        .collect()
}

/// Which single-process workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Point lookups on quiescent overlays.
    Lookup,
    /// Construction from scratch plus an insert wave.
    Build,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Lookup => "lookup",
            Kind::Build => "build",
        }
    }

    fn peers(self) -> usize {
        match self {
            Kind::Lookup => LOOKUP_PEERS,
            Kind::Build => BUILD_PEERS,
        }
    }
}

fn run_pass<T: Transport>(
    kind: Kind,
    make: &dyn Fn(NetConfig) -> Runtime<T>,
    hooks: &mut dyn Hooks<T>,
    seed: u64,
    seconds: u64,
) -> (Vec<Part>, Duration) {
    let start = Instant::now();
    let parts = match kind {
        Kind::Lookup => lookup_pass(make, hooks, seed, lookup_batches(seconds)),
        Kind::Build => build_pass(make, hooks, seed, build_units(seconds)),
    };
    (parts, start.elapsed())
}

/// Runs one single-process workload and assembles its outcome.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let name = kind.name();
    let (plain, plain_wall) = run_pass(kind, &Runtime::new, &mut Untraced, seed, seconds);
    let rss = peak_rss_mb();
    check_pass(&mut out, "untraced", &plain);
    let r = reads(&plain);
    out.attempted = r.issued;
    out.failed = r.issued - r.succeeded;
    end_to_end(&mut out, kind, &plain, &r, rss);
    breakdown(&mut out, kind, &plain, &r);

    if traced {
        let mut tracer = Tracer::default();
        let make = |config: NetConfig| {
            let transport = TappedLoopback::for_config(&config);
            Runtime::with_transport(config, transport).expect("loopback registration cannot fail")
        };
        let (traced_parts, traced_wall) = run_pass(kind, &make, &mut tracer, seed, seconds);
        check_pass(&mut out, "traced", &traced_parts);
        let same = trajectory(&plain) == trajectory(&traced_parts);
        out.check(
            "traced trajectory == untraced trajectory",
            same,
            format!(
                "[issued, answered, succeeded, frames, bytes] per overlay: untraced {:?} traced {:?}",
                trajectory(&plain),
                trajectory(&traced_parts)
            ),
        );
        let overhead = traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0;
        out.line(format!(
            "[{name}] tracing overhead: traced pass {:.3} s vs untraced pass {:.3} s ({:+.1}%)",
            traced_wall.as_secs_f64(),
            plain_wall.as_secs_f64(),
            overhead * 100.0
        ));
        per_layer(&mut out, kind, &traced_parts, &tracer, overhead, seed);
    }
    out
}

fn end_to_end(out: &mut Outcome, kind: Kind, parts: &[Part], r: &Reads, rss: f64) {
    let secs = |f: &dyn Fn(&Part) -> Duration| -> Vec<f64> {
        parts.iter().map(|p| f(p).as_secs_f64()).collect()
    };
    let setup = match kind {
        // The lookup workload's set-up is the whole overlay build.
        Kind::Lookup => median(&secs(&|p| p.create + p.build)),
        Kind::Build => median(&secs(&|p| p.create)),
    };
    // The lookup schedules' time and throughput come from their slices:
    // slices x median slice time per schedule, and the median rate over
    // all slices.  All of it is in reference-speed seconds.
    let timeline: f64 = parts
        .iter()
        .map(|p| {
            let slices = &p.reads().slices;
            let times: Vec<f64> = slices.iter().map(|s| s.paced.as_secs_f64()).collect();
            slices.len() as f64 * median(&times)
        })
        .sum();
    let rates: Vec<f64> = parts
        .iter()
        .flat_map(|p| &p.reads().slices)
        .map(|s| s.answered as f64 / s.paced.as_secs_f64())
        .collect();
    out.e2e("setup_s", setup, "s", Better::Lower);
    out.e2e("build_s", median(&secs(&|p| p.build)), "s", Better::Lower);
    out.e2e("timeline_s", timeline, "s", Better::Lower);
    out.e2e("lookups_per_s", median(&rates), "1/s", Better::Higher);
    out.e2e(
        "lookup_success",
        r.succeeded as f64 / r.issued.max(1) as f64,
        "ratio",
        Better::Higher,
    );
    out.e2e(
        "lookup_failure_rate",
        (r.issued - r.succeeded) as f64 / r.issued.max(1) as f64,
        "ratio",
        Better::Lower,
    );
    out.e2e("lookup_p50_ms", quantile(&r.all, 0.50), "ms", Better::Lower);
    out.e2e(
        "lookup_p99_ms",
        quantile(&r.latencies, 0.99),
        "ms",
        Better::Lower,
    );
    out.e2e("peak_rss_mb", rss, "MiB", Better::Lower);
    let vals =
        |f: &dyn Fn(&Part) -> f64| -> f64 { median(&parts.iter().map(f).collect::<Vec<_>>()) };
    out.extra(
        "build_virtual_min",
        quiescent_median(parts),
        "min",
        Better::Lower,
    );
    out.extra(
        "maint_bytes_per_peer",
        vals(&|p| p.maint_bytes_per_peer),
        "B",
        Better::Lower,
    );
    if kind == Kind::Build {
        out.extra(
            "balance_deviation",
            vals(&|p| p.balance_deviation),
            "ratio",
            Better::Lower,
        );
    }
}

fn breakdown(out: &mut Outcome, kind: Kind, parts: &[Part], r: &Reads) {
    let name = kind.name();
    let no_route: u64 = parts.iter().map(|p| p.search.no_route).sum();
    let hop_limit: u64 = parts.iter().map(|p| p.search.hop_limit).sum();
    let searched: u64 = parts.iter().map(|p| p.search.lookups).sum();
    out.line(format!(
        "[{name}] {} overlays of {} peers; lookups issued {} answered {} succeeded {} \
         (virtual ms from scheduled issue: p50 over all {} issued, a timeout counting as {} ms; \
         p99 over the {} answered, of which {} were answered by their origin in 0 ms)",
        parts.len(),
        kind.peers(),
        r.issued,
        r.answered,
        r.succeeded,
        r.all.len(),
        NetConfig::default().query_timeout_ms,
        r.latencies.len(),
        r.at_origin
    ));
    out.line(format!(
        "[{name}] lookup failures: timed out {} | answered not found {} | late responses {} | \
         core.search no_route {} and over the hop limit {} of {} replayed",
        r.timed_out,
        r.answered - r.succeeded,
        r.late,
        no_route,
        hop_limit,
        searched
    ));
    let per_part: Vec<String> = parts
        .iter()
        .map(|p| {
            let settled = p
                .quiescent_min
                .map_or(format!("not quiescent by {:.0}", p.horizon_min), |m| {
                    format!("quiescent at {m:.0}")
                });
            let wave = match (&p.wave, p.wave_quiescent_min) {
                (None, _) => String::new(),
                (Some(_), Some(m)) => format!("; wave re-balanced {m:.1} min after the insert"),
                (Some(_), None) => format!(
                    "; wave not re-balanced {:.0} min after the insert",
                    WAVE_MS as f64 / 60_000.0
                ),
            };
            format!("{:.2}s ({settled} min{wave})", p.build.as_secs_f64())
        })
        .collect();
    out.line(format!(
        "[{name}] build per overlay, in reference-speed seconds: {}",
        per_part.join(", ")
    ));
    let slowdowns: Vec<String> = parts.iter().map(|p| format!("{:.2}", p.slowdown)).collect();
    let wall: f64 = parts.iter().map(|p| p.reads().wall.as_secs_f64()).sum();
    let paced: f64 = parts.iter().map(|p| p.reads().paced.as_secs_f64()).sum();
    out.line(format!(
        "[{name}] host speed: the reference took [{}] times its nominal {} us per overlay; \
         the lookup schedules took {wall:.3} s of wall time, {paced:.3} s of it in runtime \
         calls at reference speed",
        slowdowns.join(", "),
        crate::calib::NOMINAL.as_micros()
    ));
}

fn per_layer(
    out: &mut Outcome,
    kind: Kind,
    parts: &[Part],
    tracer: &Tracer,
    overhead: f64,
    seed: u64,
) {
    let r = reads(parts);
    let span: Duration = parts.iter().map(|p| p.window.span).sum();
    let wall: Duration = parts.iter().map(|p| p.window.wall).sum();
    let tap = &tracer.tap;
    let transport = tap.send + tap.poll;
    let self_s = span.saturating_sub(transport).as_secs_f64();
    let sum = |f: &dyn Fn(&Part) -> u64| -> u64 { parts.iter().map(f).sum() };
    let delivered = sum(&|p| p.window.delta.delivered);

    out.layer("net.runtime.self_s", self_s, "s");
    out.layer(
        "net.runtime.ns_per_message",
        self_s * 1e9 / delivered.max(1) as f64,
        "ns",
    );
    out.layer("net.runtime.messages_delivered", delivered as f64, "count");
    out.layer(
        "net.runtime.messages_lost",
        sum(&|p| p.window.delta.lost) as f64,
        "count",
    );
    out.layer(
        "net.runtime.decode_failures",
        sum(&|p| p.window.delta.decode_failures) as f64,
        "count",
    );
    out.layer(
        "net.runtime.multi_message_frames",
        sum(&|p| p.window.delta.multi_message_frames) as f64,
        "count",
    );
    out.layer("net.runtime.lookups_timed_out", r.timed_out as f64, "count");
    out.layer(
        "net.runtime.lookups_answered_not_found",
        (r.answered - r.succeeded) as f64,
        "count",
    );
    out.layer(
        "net.runtime.lookups_answered_at_origin",
        r.at_origin as f64,
        "count",
    );
    out.layer("net.runtime.late_responses", r.late as f64, "count");
    out.layer(
        "net.runtime.mean_hops",
        r.hops as f64 / r.succeeded.max(1) as f64,
        "hops",
    );

    out.layer("transport.loopback.send_s", tap.send.as_secs_f64(), "s");
    out.layer("transport.loopback.poll_s", tap.poll.as_secs_f64(), "s");
    out.layer("transport.loopback.frames", tap.frames_sent as f64, "count");
    out.layer("transport.loopback.bytes", tap.bytes_sent as f64, "B");
    out.layer(
        "transport.loopback.bytes_per_frame",
        tap.bytes_sent as f64 / tap.frames_sent.max(1) as f64,
        "B",
    );
    out.layer(
        "transport.loopback.in_flight_max",
        tap.in_flight_max as f64,
        "count",
    );

    let codec = replay_codec(&tracer.samples);
    let scale = tap.frames_sent as f64 / codec.frames.max(1) as f64;
    let codec_s = codec_seconds(&codec, scale);
    out.check(
        "traced: every sampled frame decodes",
        codec.decode_failures == 0,
        format!(
            "{} of {} frames failed",
            codec.decode_failures, codec.frames
        ),
    );
    out.layer("net.message.frame_decode_ns", codec.frame_decode_ns, "ns");
    out.layer(
        "net.message.decode_ns.exchange",
        codec.exchange.decode_ns,
        "ns",
    );
    out.layer("net.message.decode_ns.query", codec.query.decode_ns, "ns");
    out.layer(
        "net.message.encode_ns.exchange",
        codec.exchange.encode_ns,
        "ns",
    );
    out.layer("net.message.encode_ns.query", codec.query.encode_ns, "ns");
    out.layer("net.message.bytes.exchange", codec.exchange.bytes, "B");
    out.layer("net.message.bytes.query", codec.query.bytes, "B");
    out.layer("net.message.share", codec_s / self_s.max(1e-9), "ratio");

    let snapshots = &tracer.snapshots;
    let params = config(kind.peers(), seed).balance_params();
    let exchange = replay_exchange(params, snapshots, seed);
    out.layer("core.exchange.assess_ns", exchange.assess_ns, "ns");
    out.layer("core.exchange.apply_ns", exchange.apply_ns, "ns");
    out.layer(
        "core.exchange.exchanges",
        (codec.exchange_requests as f64 * scale).round(),
        "count",
    );
    out.layer(
        "core.exchange.useful_ratio",
        codec.replies_useful as f64 / codec.replies.max(1) as f64,
        "ratio",
    );
    let vals =
        |f: &dyn Fn(&Part) -> f64| -> f64 { median(&parts.iter().map(f).collect::<Vec<_>>()) };
    out.layer(
        "core.exchange.build_virtual_min",
        quiescent_median(parts),
        "min",
    );
    out.layer(
        "core.exchange.unsettled_overlays",
        parts.iter().filter(|p| p.quiescent_min.is_none()).count() as f64,
        "count",
    );
    out.layer(
        "core.exchange.balance_deviation",
        vals(&|p| p.balance_deviation),
        "ratio",
    );
    out.layer(
        "net.runtime.maint_bytes_per_peer",
        vals(&|p| p.maint_bytes_per_peer),
        "B",
    );

    let searched = sum(&|p| p.search.lookups).max(1) as f64;
    out.layer("core.search.lookup_ns", vals(&|p| p.search.lookup_ns), "ns");
    out.layer("core.search.hops", vals(&|p| p.search.hops), "hops");
    out.layer(
        "core.search.no_route",
        sum(&|p| p.search.no_route) as f64,
        "count",
    );
    out.layer(
        "core.search.found_ratio",
        sum(&|p| p.search.found) as f64 / searched,
        "ratio",
    );

    out.layer("bench.trace_overhead", overhead, "ratio");
    // What the replays explain of the runtime's own time; the rest (event
    // queue, handlers, bookkeeping) stays unattributed until the runtime
    // carries spans of its own.
    // The runtime assesses and decides every exchange that is not a
    // referral, and changes state for splits and replications.
    let exchange_s = scale
        * ((codec.replies - codec.replies_refer) as f64
            * (exchange.assess_ns + exchange.decide_ns)
            + codec.replies_applied as f64 * exchange.apply_ns)
        / 1e9;
    let routing_s = r.issued as f64 * vals(&|p| p.search.lookup_ns) / 1e9;
    let unattributed = (self_s - codec_s - exchange_s - routing_s).max(0.0);
    out.layer("bench.unattributed_s", unattributed, "s");

    let name = kind.name();
    let wall_s = wall.as_secs_f64();
    let rows = [
        ("transport.loopback (send + poll)", transport.as_secs_f64()),
        ("net.message (codec replay x messages)", codec_s),
        (
            "core.exchange (engine replay x sampled outcome mix)",
            exchange_s,
        ),
        ("core.search (lookup replay x lookups)", routing_s),
        (
            "unattributed (event queue, handlers, bookkeeping)",
            unattributed,
        ),
        (
            "benchmark code and host-speed reference runs between calls",
            wall.saturating_sub(span).as_secs_f64(),
        ),
    ];
    out.line(format!(
        "[{name}] layer table of the measured windows ({wall_s:.3} s wall):"
    ));
    for (label, s) in rows {
        out.line(format!(
            "  {label:<56} {s:>9.3} s {:>6.1}%",
            100.0 * s / wall_s.max(1e-9)
        ));
    }
    out.line(format!(
        "  codec replay over {} sampled frames: {} exchange msgs ({:.0} B), {} query msgs ({:.0} B), {} other",
        codec.frames,
        codec.exchange.messages,
        codec.exchange.bytes,
        codec.query.messages,
        codec.query.bytes,
        codec.other.messages
    ));
    let minutes: Vec<String> = snapshots
        .iter()
        .map(|s| format!("{:.0}", s.minute))
        .collect();
    out.line(format!(
        "  exchange replay over {} pairs snapshotted at virtual minutes [{}]: assess {:.0} ns, \
         decide {:.0} ns, apply {:.0} ns",
        exchange.pairs,
        minutes.join(", "),
        exchange.assess_ns,
        exchange.decide_ns,
        exchange.apply_ns
    ));
}

/// Estimated wall seconds the run spent encoding and decoding: every
/// message sent is encoded once and decoded once, frames likewise.
fn codec_seconds(codec: &CodecReplay, scale: f64) -> f64 {
    let class = |c: &crate::layers::CodecClass| c.messages as f64 * (c.decode_ns + c.encode_ns);
    let ns = class(&codec.exchange)
        + class(&codec.query)
        + class(&codec.other)
        + codec.frames as f64 * codec.frame_decode_ns;
    ns * scale / 1e9
}
