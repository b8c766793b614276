//! The two single-process workloads over the loopback transport.
//!
//! * `lookup` builds its overlays during set-up, then issues point lookups
//!   for existing keys in an open loop on the virtual clock (one batch
//!   every [`BATCH_PERIOD_MS`]); the runtime drains each period as fast as
//!   the CPU allows.
//! * `build` constructs overlays from scratch, then inserts a skewed key
//!   wave and re-balances while lookups continue.
//!
//! Construction runs for a fixed span of virtual time ([`LOOKUP_BUILD_MS`],
//! [`BUILD_BUILD_MS`], [`WAVE_MS`]) rather than until quiescence: how long
//! the last peer takes to settle is heavy-tailed (from about 200 to more
//! than 2000 virtual minutes across seeds at 512 peers), which would make
//! a wall-clock figure depend on the seed more than on the code.  The
//! virtual minute at which `Runtime::construction_quiescent` first holds is
//! recorded instead, and overlays that never got there are counted.
//!
//! Everything is driven through public `Runtime` calls; [`Rig`] times
//! each call (the `net.runtime` span) and collects the exact latency of
//! every resolved lookup from the runtime's query-sample ring.  Between
//! calls it lets its [`SpeedClock`] measure the host's speed, and it also
//! keeps each call's time in reference-speed seconds, which the wall-clock
//! metrics are made of.

use crate::calib::SpeedClock;
use pgrid_core::index::IndexId;
use pgrid_core::key::Key;
use pgrid_core::peer::PeerState;
use pgrid_net::runtime::{NetConfig, QueryAggregates, Runtime};
use pgrid_transport::Transport;
use pgrid_workload::distributions::Distribution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Peers of the `lookup` workload's overlay.
pub const LOOKUP_PEERS: usize = 512;
/// Peers of each overlay the `build` workload constructs, as in `lookup`.
pub const BUILD_PEERS: usize = 512;
/// Virtual time the `lookup` workload's set-up constructs for (from the
/// first join), before the lookups start.
pub const LOOKUP_BUILD_MS: u64 = 600 * 60_000;
/// Virtual time each `build` unit constructs for before its insert wave.
pub const BUILD_BUILD_MS: u64 = 300 * 60_000;
/// Virtual time the insert wave re-balances for, from the insert.
pub const WAVE_MS: u64 = 20 * 60_000;
/// Virtual time between two lookup batches (the open-loop period).
pub const BATCH_PERIOD_MS: u64 = 2_000;
/// Lookups per batch on the `lookup` workload.
pub const LOOKUP_BATCH: usize = 2_048;
/// The insert wave is the distribution-shift segment of `bench_queries`
/// (crates/bench): 4 Pareto-1.0 keys per peer, then batches of 600
/// lookups every 2 virtual seconds, 120 000 lookups in all, drawn from
/// the original and the inserted keys.
pub const WAVE_KEYS_PER_PEER: usize = 4;
/// Lookups per batch while the insert wave re-balances.
pub const WAVE_BATCH: usize = 600;
/// Lookup batches of the insert wave.
pub const WAVE_BATCHES: u64 = 200;
/// Lookup batches per slice of a lookup schedule.  The throughput of a
/// schedule is the median over its slices (a fraction of a second
/// each), so a burst of interference from other work on the host moves
/// only the slices it falls in.
pub const SLICE_BATCHES: u64 = 10;
/// Virtual step between two quiescence checks during construction.
pub const STEP_MS: u64 = 10_000;
/// Capacity of the runtime's resolved-query ring; the rig empties it
/// after every call, so it only has to hold one call's resolutions.
const QUERY_RING: usize = 1 << 17;

/// The deployment configuration of one overlay: the default `NetConfig`
/// (Text keys, 1% message loss, 20-250 ms latency) at `n_peers` peers.
/// Only the size of the debugging ring of resolved queries differs, which
/// changes retention, not behaviour.
pub fn config(n_peers: usize, seed: u64) -> NetConfig {
    NetConfig {
        n_peers,
        seed,
        query_sample_cap: QUERY_RING,
        ..NetConfig::default()
    }
}

/// Counters of the runtime sampled at the edges of a window.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Query aggregates of the primary index.
    pub queries: QueryAggregates,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages lost in transit.
    pub lost: u64,
    /// Undecodable frames or messages.
    pub decode_failures: u64,
    /// Frames carrying more than one message.
    pub multi_message_frames: u64,
    /// Maintenance bytes over all minutes.
    pub maintenance_bytes: u64,
}

impl Counters {
    fn of<T: Transport>(rt: &Runtime<T>) -> Counters {
        Counters {
            queries: rt.metrics.stats(IndexId::PRIMARY),
            delivered: rt.metrics.messages_delivered as u64,
            lost: rt.metrics.messages_lost as u64,
            decode_failures: rt.metrics.decode_failures as u64,
            multi_message_frames: rt.metrics.multi_message_frames as u64,
            maintenance_bytes: rt
                .metrics
                .bandwidth_per_minute
                .values()
                .map(|b| b.maintenance_bytes as u64)
                .sum(),
        }
    }

    /// `self - earlier`, field by field (query latency histograms are not
    /// differenced; windows use the exact latencies instead).
    fn since(&self, earlier: &Counters) -> Counters {
        let q = &self.queries;
        let e = &earlier.queries;
        Counters {
            queries: QueryAggregates {
                issued: q.issued - e.issued,
                answered: q.answered - e.answered,
                succeeded: q.succeeded - e.succeeded,
                timed_out: q.timed_out - e.timed_out,
                late_responses: q.late_responses - e.late_responses,
                hops_sum_successful: q.hops_sum_successful - e.hops_sum_successful,
                ..QueryAggregates::default()
            },
            delivered: self.delivered - earlier.delivered,
            lost: self.lost - earlier.lost,
            decode_failures: self.decode_failures - earlier.decode_failures,
            multi_message_frames: self.multi_message_frames - earlier.multi_message_frames,
            maintenance_bytes: self.maintenance_bytes - earlier.maintenance_bytes,
        }
    }
}

/// A runtime plus the measurements taken around every call into it.
pub struct Rig<T: Transport> {
    /// The runtime under test.
    pub rt: Runtime<T>,
    /// Wall time spent inside `Runtime` calls since the last reset.
    pub span: Duration,
    /// The same time in reference-speed seconds.
    pub paced: Duration,
    /// Measures the host's speed between calls.
    pub clock: SpeedClock,
    /// Exact virtual latency (ms) of every answered lookup since the last
    /// reset.
    pub latencies: Vec<u64>,
    /// Resolved lookups (answered or timed out) collected since the last
    /// reset.
    pub resolved: u64,
}

impl<T: Transport> Rig<T> {
    /// Wraps a fresh runtime; `clock` has timed its creation.
    pub fn new(rt: Runtime<T>, clock: SpeedClock) -> Rig<T> {
        Rig {
            rt,
            span: Duration::ZERO,
            paced: Duration::ZERO,
            clock,
            latencies: Vec::new(),
            resolved: 0,
        }
    }

    /// Times one call into the runtime, then empties its resolved-query
    /// ring.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut Runtime<T>) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.rt);
        let took = start.elapsed();
        self.span += took;
        self.paced += self.clock.convert(took);
        for record in self.rt.metrics.query_samples.drain(..) {
            self.resolved += 1;
            if let Some(latency) = record.latency_ms {
                self.latencies.push(latency);
            }
        }
        self.clock.tick();
        out
    }

    /// Advances the virtual clock by `ms`.
    pub fn advance(&mut self, ms: u64) {
        self.call(|rt| rt.run_until(rt.now() + ms));
    }

    /// Starts a measured window.
    pub fn reset(&mut self) {
        self.span = Duration::ZERO;
        self.paced = Duration::ZERO;
        self.latencies.clear();
        self.resolved = 0;
    }

    /// The runtime's counters now.
    pub fn counters(&self) -> Counters {
        Counters::of(&self.rt)
    }

    /// Runs construction in [`STEP_MS`] steps until virtual time `until`,
    /// calling `probe` after every step.  Returns the virtual time at which
    /// construction was first observed quiescent, if it was.
    pub fn run_construction(
        &mut self,
        until: u64,
        probe: &mut dyn FnMut(&Runtime<T>),
    ) -> Option<u64> {
        let mut quiescent_at = None;
        while self.rt.now() < until {
            self.advance(STEP_MS);
            probe(&self.rt);
            if quiescent_at.is_none() && self.call(|rt| rt.construction_quiescent()) {
                quiescent_at = Some(self.rt.now());
            }
        }
        quiescent_at
    }

    /// Join (fanout 4), replication, then construction until virtual time
    /// `until`; returns when construction was first quiescent.
    pub fn construct(&mut self, until: u64, probe: &mut dyn FnMut(&Runtime<T>)) -> Option<u64> {
        let n = self.rt.config.n_peers;
        self.call(|rt| {
            for peer in 0..n {
                rt.join_peer(peer, 4);
            }
            rt.replication_phase();
        });
        self.advance(STEP_MS);
        self.call(|rt| rt.start_construction());
        self.run_construction(until, probe)
    }

    /// Lets every outstanding lookup resolve (answer or timeout).
    pub fn drain(&mut self) {
        let wait = self.rt.config.query_timeout_ms + STEP_MS;
        self.advance(wait);
    }
}

/// A copy of the overlay state of every peer (primary index).
pub fn snapshot<T: Transport>(rt: &Runtime<T>) -> Vec<PeerState> {
    (0..rt.config.n_peers)
        .map(|peer| rt.peer_state(IndexId::PRIMARY, peer).clone())
        .collect()
}

/// The keys the lookup workload asks for: every original key, in a seeded
/// random order.
pub fn lookup_keys<T: Transport>(rt: &Runtime<T>, seed: u64) -> Vec<Key> {
    let mut keys: Vec<Key> = rt
        .original_entries_of(IndexId::PRIMARY)
        .iter()
        .map(|e| e.key)
        .collect();
    keys.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x10C0));
    keys
}

/// One measured window of the run.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Wall time of the window.
    pub wall: Duration,
    /// Wall time inside runtime calls.
    pub span: Duration,
    /// The same in reference-speed seconds.
    pub paced: Duration,
    /// Counter deltas over the window.
    pub delta: Counters,
    /// Exact latencies (virtual ms) of the lookups answered in the window.
    pub latencies: Vec<u64>,
    /// Resolved lookups collected from the ring.
    pub resolved: u64,
    /// The lookup schedule's slices of [`SLICE_BATCHES`] batches (the
    /// final drain is not part of any slice).
    pub slices: Vec<Slice>,
}

/// One slice of a lookup schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    /// Reference-speed time of the runtime calls of the slice.
    pub paced: Duration,
    /// Lookups answered during the slice.
    pub answered: u64,
}

/// Cuts a lookup schedule into [`Slice`]s.
struct Slicer {
    start: Duration,
    answered: usize,
    slices: Vec<Slice>,
}

impl Slicer {
    fn new<T: Transport>(d: &Rig<T>) -> Slicer {
        Slicer {
            start: d.paced,
            answered: d.latencies.len(),
            slices: Vec::new(),
        }
    }

    /// Ends the current slice after batch `i` (1-based) when it is full.
    fn after_batch<T: Transport>(&mut self, d: &Rig<T>, i: u64) {
        if i % SLICE_BATCHES == 0 {
            self.slices.push(Slice {
                paced: d.paced - self.start,
                answered: (d.latencies.len() - self.answered) as u64,
            });
            self.start = d.paced;
            self.answered = d.latencies.len();
        }
    }
}

/// The lookup schedule of the `lookup` workload: a batch of
/// [`LOOKUP_BATCH`] keys every [`BATCH_PERIOD_MS`], `batches` times, then
/// a drain.
pub fn lookup_window<T: Transport>(d: &mut Rig<T>, keys: &[Key], batches: u64) -> Window {
    d.reset();
    let before = d.counters();
    let start = Instant::now();
    let mut cursor = 0usize;
    let mut batch = Vec::with_capacity(LOOKUP_BATCH);
    let mut slicer = Slicer::new(d);
    for i in 1..=batches {
        batch.clear();
        for _ in 0..LOOKUP_BATCH {
            batch.push(keys[cursor]);
            cursor = (cursor + 1) % keys.len();
        }
        d.call(|rt| rt.issue_query_batch_on(IndexId::PRIMARY, &batch));
        d.advance(BATCH_PERIOD_MS);
        slicer.after_batch(d, i);
    }
    d.drain();
    close_window(d, before, start, slicer.slices)
}

fn close_window<T: Transport>(
    d: &mut Rig<T>,
    before: Counters,
    start: Instant,
    slices: Vec<Slice>,
) -> Window {
    Window {
        wall: start.elapsed(),
        span: d.span,
        paced: d.paced,
        delta: d.counters().since(&before),
        latencies: std::mem::take(&mut d.latencies),
        resolved: d.resolved,
        slices,
    }
}

/// What one `build` unit measured.
#[derive(Clone, Debug, Default)]
pub struct BuildUnit {
    /// Reference-speed time of the runtime calls from the first join to
    /// the end of the insert wave.
    pub build: Duration,
    /// Virtual minute the initial construction was first quiescent.
    pub quiescent_min: Option<f64>,
    /// Virtual minutes from the insert until the re-balance was first
    /// observed quiescent (checked once the wave's lookups have drained).
    pub wave_quiescent_min: Option<f64>,
    /// Maintenance bytes per peer over the whole unit.
    pub maint_bytes_per_peer: f64,
    /// Balance deviation of the final overlay against the reference
    /// partitioning of all its keys.
    pub balance_deviation: f64,
    /// Everything from the first join to the final drain.
    pub whole: Window,
    /// The insert wave: re-balance with lookups running beside it.
    pub wave: Window,
}

/// One `build` unit: construct from scratch for [`BUILD_BUILD_MS`], insert
/// a Pareto-1.0 wave of keys and re-balance for [`WAVE_MS`]; the wave's
/// lookups of original and inserted keys run in its first
/// [`WAVE_BATCHES`] periods, then drain while the re-balance continues.
pub fn build_unit<T: Transport>(
    d: &mut Rig<T>,
    seed: u64,
    probe: &mut dyn FnMut(&Runtime<T>),
) -> BuildUnit {
    d.reset();
    let before = d.counters();
    let start = Instant::now();
    let quiescent_at = d.construct(BUILD_BUILD_MS, probe);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5158);
    let wave = Distribution::Pareto { shape: 1.0 };
    let n = d.rt.config.n_peers;
    d.call(|rt| {
        for peer in 0..n {
            rt.insert_entries(
                IndexId::PRIMARY,
                peer,
                wave.sample_many(WAVE_KEYS_PER_PEER, &mut rng),
            );
        }
        rt.start_construction();
    });
    let wave_end = d.rt.now() + WAVE_MS;
    let keys: Vec<Key> =
        d.rt.original_entries_of(IndexId::PRIMARY)
            .iter()
            .map(|e| e.key)
            .collect();
    let wave_before = d.counters();
    let wave_span = d.span;
    let wave_paced = d.paced;
    let wave_latencies = d.latencies.len();
    let wave_resolved = d.resolved;
    let wave_start = Instant::now();
    let mut batch = Vec::with_capacity(WAVE_BATCH);
    let mut slicer = Slicer::new(d);
    for i in 1..=WAVE_BATCHES {
        batch.clear();
        batch.extend((0..WAVE_BATCH).map(|_| keys[rng.gen_range(0..keys.len())]));
        d.call(|rt| rt.issue_query_batch_on(IndexId::PRIMARY, &batch));
        d.advance(BATCH_PERIOD_MS);
        if i % (STEP_MS / BATCH_PERIOD_MS) == 0 {
            probe(&d.rt);
        }
        slicer.after_batch(d, i);
    }
    d.drain();
    let wave_window = Window {
        wall: wave_start.elapsed(),
        span: d.span - wave_span,
        paced: d.paced - wave_paced,
        delta: d.counters().since(&wave_before),
        latencies: d.latencies[wave_latencies..].to_vec(),
        resolved: d.resolved - wave_resolved,
        slices: slicer.slices,
    };
    let rebalanced_at = d.run_construction(wave_end, probe);
    let build = d.paced;

    let whole = close_window(d, before, start, Vec::new());
    let paths: Vec<_> = (0..n)
        .map(|p| d.rt.peer_state(IndexId::PRIMARY, p).path)
        .collect();
    let reference = pgrid_core::reference::ReferencePartitioning::compute(&keys, n, d.rt.params());
    let balance = pgrid_core::balance::compare_to_reference(&reference, &paths);
    BuildUnit {
        build,
        quiescent_min: quiescent_at.map(|ms| ms as f64 / 60_000.0),
        wave_quiescent_min: rebalanced_at.map(|ms| (ms + WAVE_MS - wave_end) as f64 / 60_000.0),
        maint_bytes_per_peer: whole.delta.maintenance_bytes as f64 / n as f64,
        balance_deviation: balance.deviation,
        whole,
        wave: wave_window,
    }
}
