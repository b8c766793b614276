//! Rendezvous wire protocol between the coordinator and its workers.
//!
//! The control plane is deliberately tiny: one TCP connection per worker,
//! carrying [`ClusterMsg`]s as single-payload frames (the same
//! length-prefixed framing the data plane uses, so both sides reuse
//! [`pgrid_transport::frame::FrameReader`] for reassembly).  The lifecycle
//! is:
//!
//! ```text
//! worker                          coordinator
//!   | ---------- connect ------------> |
//!   | <--------- Welcome ------------- |   shard assignment + run config
//!   | ---------- Hello --------------> |   per-peer listen addresses
//!   | <--------- AddressBook --------- |   all peers of all shards
//!   |                                  |
//!   | ---- Minutes*, PhaseDone(p) ---> |   per phase p = 0..=5
//!   | <--------- Proceed(p) ---------- |   barrier release
//!   |                                  |
//!   | ---- Minutes*, Report ---------> |   final shard report
//! ```
//!
//! Like the peer protocol, the codec is built on [`pgrid_core::wire`]:
//! self-describing enough for round-trip tests, and versioned by a leading
//! magic/version pair so a stale worker fails loudly instead of
//! mis-parsing.

use bytes::Bytes;
use pgrid_core::index::IndexId;
use pgrid_core::path::Path;
use pgrid_core::wire::{Reader, WireError, WireResult, Writer, HISTOGRAM_MIN_BYTES, PATH_BYTES};
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::{MinuteLatency, NetConfig, QueryAggregates};
use pgrid_transport::frame::{decode_frame, encode_frame, FrameReader};
use pgrid_transport::{LinkStats, ReactorStats, TransportStats};
use pgrid_workload::distributions::Distribution;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Protocol magic, checked on every message.
const MAGIC: u16 = 0x5047; // "PG"
/// Protocol version; bump on any wire-format change.
///
/// v5 adds the self-healing control plane: liveness heartbeats, membership
/// epochs, and the worker-failure / shard-reassignment / recovery messages.
///
/// v6 adds the warm-restart handshake (`Rejoin` / `Resume`: a relaunched
/// worker offers its durability-log shard back instead of waiting for a
/// `Welcome`) and the replica-pull retry pacing fields of the run config.
///
/// v7 adds the optional reactor block to the `Report` transport counters.
///
/// v8 drops the frame-compression counters from `Report` and carries the
/// metrics registry snapshot in the big-endian [`pgrid_core::wire`] form.
///
/// v9 drops the per-tick-batching and route-cache flags from the run
/// config: batching is the only behaviour, and the route cache is gone.
const VERSION: u8 = 9;

/// Phases of the Section-5 timeline the cluster barriers on, in order.
pub const PHASE_WIRED: u8 = 0;
/// All peers joined the unstructured overlay.
pub const PHASE_JOINED: u8 = 1;
/// Replication pushes flushed.
pub const PHASE_REPLICATED: u8 = 2;
/// Construction window over.
pub const PHASE_CONSTRUCTED: u8 = 3;
/// Query window over.
pub const PHASE_QUERIED: u8 = 4;
/// Churn window over and outstanding queries drained.
pub const PHASE_DONE: u8 = 5;

/// One worker shard's final contribution to the merged report.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// First peer id of the shard.
    pub shard_start: u64,
    /// Final path of every hosted peer, in shard order.
    pub paths: Vec<Path>,
    /// Per-index query aggregates of the shard (bounded-size histograms
    /// instead of raw per-query records; the coordinator folds them with
    /// [`QueryAggregates::merge`]).
    pub query_stats: Vec<(IndexId, QueryAggregates)>,
    /// Hosted peers online when the run ended.
    pub online_at_end: u64,
    /// The worker's transport counters, including its per-peer link stats
    /// (send side keyed by destination, receive side by hosted peer); the
    /// coordinator folds the shards together with
    /// [`TransportStats::merge`].
    pub transport: TransportStats,
    /// Protocol messages delivered to hosted peers.
    pub messages_delivered: u64,
    /// Protocol messages lost (emulated loss + broken connections).
    pub messages_lost: u64,
    /// Final `(peer id, path)` of peers this worker *adopted* from a dead
    /// worker during recovery (empty on a healthy run); the coordinator
    /// merges them at their global indices like the shard paths.
    pub extra_paths: Vec<(u64, Path)>,
}

/// One peer being moved off a dead worker during recovery.
#[derive(Clone, Debug, PartialEq)]
pub struct ReassignMove {
    /// The orphaned peer.
    pub peer: u64,
    /// Index of the surviving (or replacement) worker that adopts it.
    pub to_worker: u32,
    /// A live peer believed to replicate the orphan's partition (the
    /// coordinator's longest-common-prefix hint); equal to `peer` when no
    /// candidate is known, in which case the adopter recovers locally from
    /// the seeded regeneration.
    pub source_peer: u64,
    /// The orphan's last path the coordinator observed at a barrier (the
    /// local-recovery fallback path).
    pub path: Path,
}

/// A control-plane message.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterMsg {
    /// Coordinator → worker: shard assignment and the run configuration.
    Welcome {
        /// Index of this worker (0-based, in accept order).
        worker_index: u32,
        /// Total number of workers in the cluster.
        n_workers: u32,
        /// First peer id of the assigned shard.
        shard_start: u64,
        /// Number of peers in the assigned shard.
        shard_len: u64,
        /// Deployment configuration (identical for every worker).
        config: NetConfig,
        /// Phase boundaries of the timeline.
        timeline: Timeline,
        /// Whether the worker must enable structured tracing (with its
        /// worker index as the trace-ID base, so merged IDs never
        /// collide).
        tracing: bool,
        /// Wall-clock interval between worker liveness heartbeats
        /// (milliseconds; `0` disables heartbeats).
        heartbeat_ms: u64,
        /// Wall-clock silence after which the coordinator declares this
        /// worker dead (milliseconds).
        failure_timeout_ms: u64,
        /// Whether the coordinator heals worker failures (reassigns the
        /// dead shard to survivors) instead of merely recording them.
        heal: bool,
        /// Fault injection: virtual minute at which this worker must kill
        /// its own process (`None` for all workers of a healthy run).
        kill_at_min: Option<u64>,
    },
    /// Worker → coordinator: listen addresses of the hosted peers.
    Hello {
        /// First peer id of the shard (echo of the assignment).
        shard_start: u64,
        /// `(peer id, socket address)` of every hosted peer.
        peer_addrs: Vec<(u64, SocketAddr)>,
        /// Address of the worker's `/metrics` scrape endpoint, when one
        /// is serving.
        metrics_addr: Option<SocketAddr>,
    },
    /// Coordinator → worker: the address book of the whole cluster.
    AddressBook {
        /// `(peer id, socket address)` of every peer of every shard.
        peer_addrs: Vec<(u64, SocketAddr)>,
    },
    /// Worker → coordinator: the local timeline reached the end of `phase`.
    PhaseDone {
        /// One of the `PHASE_*` constants.
        phase: u8,
    },
    /// Coordinator → worker: every worker finished `phase`; continue.
    Proceed {
        /// One of the `PHASE_*` constants.
        phase: u8,
    },
    /// Worker → coordinator: freshly completed per-minute bandwidth
    /// buckets, streamed at each barrier (and once more with the final
    /// report).
    Minutes {
        /// `(minute bucket, maintenance bytes, query bytes)` triples.
        samples: Vec<(u64, u64, u64)>,
    },
    /// Worker → coordinator: trace events drained at a phase barrier.
    /// Only sent while tracing is enabled; the coordinator merges the
    /// batches into cluster-wide hop chains.
    TraceBatch {
        /// The drained events, in recording order.
        events: Vec<pgrid_obs::trace::TraceEvent>,
    },
    /// Worker → coordinator: the worker's current metrics registry
    /// (encoded with [`pgrid_obs::registry::MetricsRegistry::encode_wire`]),
    /// streamed at each phase barrier so the coordinator's merged
    /// `/metrics` view stays fresh mid-run.
    MetricsSnapshot {
        /// The wire-encoded registry snapshot.
        registry: Vec<u8>,
    },
    /// Worker → coordinator: the shard's final report.
    Report(ShardReport),
    /// Worker → coordinator: periodic liveness signal, carrying the
    /// membership epoch the worker currently believes in.
    Heartbeat {
        /// The worker's current membership epoch.
        epoch: u64,
    },
    /// Worker → coordinator: current paths of the originally assigned
    /// shard, sent at every barrier while healing is enabled — the
    /// coordinator's raw material for replica hints and partial reports.
    ShardPaths {
        /// First peer id of the shard.
        shard_start: u64,
        /// Current path of every originally hosted peer, in shard order.
        paths: Vec<Path>,
    },
    /// Coordinator → workers: a worker died; a new membership epoch
    /// begins.
    WorkerFailed {
        /// The new membership epoch.
        epoch: u64,
        /// Index of the dead worker.
        worker_index: u32,
        /// First peer id of the orphaned shard.
        shard_start: u64,
        /// Number of orphaned peers.
        shard_len: u64,
    },
    /// Coordinator → workers: how the orphaned peers are redistributed.
    /// Every worker receives the full move list; each adopts the moves
    /// targeting its own index and learns which endpoints will re-appear
    /// elsewhere.
    ShardReassign {
        /// The membership epoch these moves belong to.
        epoch: u64,
        /// One entry per orphaned peer.
        moves: Vec<ReassignMove>,
    },
    /// Worker → coordinator: the listen addresses of the endpoints this
    /// worker just took over, to be folded into a fresh address book.
    RecoveryAddrs {
        /// The membership epoch of the takeover.
        epoch: u64,
        /// `(peer id, socket address)` of every adopted endpoint.
        peer_addrs: Vec<(u64, SocketAddr)>,
    },
    /// Worker → coordinator: state rebuild of the adopted peers finished;
    /// the barrier may release.
    RecoveryDone {
        /// The membership epoch of the recovery.
        epoch: u64,
        /// `(peer id, via_replica)` per recovered peer: `true` when the
        /// state was pulled from a live replica, `false` for the seeded
        /// local fallback.
        recovered: Vec<(u64, bool)>,
    },
    /// Relaunched worker → coordinator: the first message of a warm
    /// restart.  A fresh worker waits silently for a `Welcome`; a worker
    /// relaunched over a durability log speaks first and offers its
    /// retained shard back, so the coordinator can prefer it over
    /// round-robin reassignment during a healing round.
    Rejoin {
        /// First peer id of the shard the durability log holds.
        shard_start: u64,
        /// Number of peers in that shard.
        shard_len: u64,
        /// The membership epoch the log last recorded.
        epoch: u64,
        /// The `PHASE_*` barrier class the log last recorded.
        phase: u8,
        /// Virtual time the log last recorded, in milliseconds.
        now_ms: u64,
        /// The run seed the log belongs to (the coordinator rejects a
        /// rejoin from a different run).
        seed: u64,
    },
    /// Coordinator → relaunched worker: accepts the rejoin (follows the
    /// `Welcome` that re-assigns the retained shard) and tells the worker
    /// which barrier class the run is currently in, so it can pace its
    /// replayed runtime forward and skip the already-executed phases.
    Resume {
        /// The current membership epoch.
        epoch: u64,
        /// The `PHASE_*` class the cluster is currently executing.
        phase: u8,
    },
}

impl ClusterMsg {
    /// Encodes the message (including the magic/version header).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(64);
        w.u16(MAGIC);
        w.u8(VERSION);
        match self {
            ClusterMsg::Welcome {
                worker_index,
                n_workers,
                shard_start,
                shard_len,
                config,
                timeline,
                tracing,
                heartbeat_ms,
                failure_timeout_ms,
                heal,
                kill_at_min,
            } => {
                w.u8(0);
                w.u32(*worker_index);
                w.u32(*n_workers);
                w.u64(*shard_start);
                w.u64(*shard_len);
                put_config(&mut w, config);
                put_timeline(&mut w, timeline);
                w.bool(*tracing);
                w.u64(*heartbeat_ms);
                w.u64(*failure_timeout_ms);
                w.bool(*heal);
                match kill_at_min {
                    Some(at) => {
                        w.u8(1);
                        w.u64(*at);
                    }
                    None => w.u8(0),
                }
            }
            ClusterMsg::Hello {
                shard_start,
                peer_addrs,
                metrics_addr,
            } => {
                w.u8(1);
                w.u64(*shard_start);
                put_addrs(&mut w, peer_addrs);
                match metrics_addr {
                    Some(addr) => {
                        w.u8(1);
                        put_addr(&mut w, addr);
                    }
                    None => w.u8(0),
                }
            }
            ClusterMsg::AddressBook { peer_addrs } => {
                w.u8(2);
                put_addrs(&mut w, peer_addrs);
            }
            ClusterMsg::PhaseDone { phase } => {
                w.u8(3);
                w.u8(*phase);
            }
            ClusterMsg::Proceed { phase } => {
                w.u8(4);
                w.u8(*phase);
            }
            ClusterMsg::Minutes { samples } => {
                w.u8(5);
                w.count(samples.len());
                for (minute, maintenance, query) in samples {
                    w.u64(*minute);
                    w.u64(*maintenance);
                    w.u64(*query);
                }
            }
            ClusterMsg::TraceBatch { events } => {
                w.u8(7);
                w.count(events.len());
                for event in events {
                    w.u64(event.trace_id);
                    w.str(event.kind);
                    w.u64(event.peer);
                    w.u64(event.virtual_ms);
                    w.u64(event.wall_micros);
                    w.str(&event.detail);
                }
            }
            ClusterMsg::MetricsSnapshot { registry } => {
                w.u8(8);
                w.blob(registry);
            }
            ClusterMsg::Report(report) => {
                w.u8(6);
                w.u64(report.shard_start);
                w.count(report.paths.len());
                for path in &report.paths {
                    w.path(path);
                }
                w.count(report.query_stats.len());
                for (index, stats) in &report.query_stats {
                    w.u16(index.0);
                    put_aggregates(&mut w, stats);
                }
                w.u64(report.online_at_end);
                w.u64(report.transport.frames_sent);
                w.u64(report.transport.frames_delivered);
                w.u64(report.transport.bytes_sent);
                w.u64(report.transport.bytes_delivered);
                w.count(report.transport.per_peer.len());
                for (&peer, link) in &report.transport.per_peer {
                    w.u64(peer);
                    w.u64(link.frames_sent);
                    w.u64(link.bytes_sent);
                    w.u64(link.frames_received);
                    w.u64(link.bytes_received);
                    w.u64(link.reconnects);
                    w.u64(link.send_failures);
                }
                // The optional reactor block: flag byte, then the eight
                // reactor fields.
                match &report.transport.reactor {
                    Some(reactor) => {
                        w.u8(1);
                        w.u64(reactor.registered_peers);
                        w.u64(reactor.registered_fds);
                        w.u64(reactor.epoll_wakeups);
                        w.u64(reactor.write_queue_frames);
                        w.u64(reactor.write_queue_bytes);
                        w.u64(reactor.partial_writes);
                        w.u64(reactor.reconnects);
                        w.u64(reactor.dropped_frames);
                    }
                    None => w.u8(0),
                }
                w.u64(report.messages_delivered);
                w.u64(report.messages_lost);
                w.count(report.extra_paths.len());
                for (peer, path) in &report.extra_paths {
                    w.u64(*peer);
                    w.path(path);
                }
            }
            ClusterMsg::Heartbeat { epoch } => {
                w.u8(9);
                w.u64(*epoch);
            }
            ClusterMsg::ShardPaths { shard_start, paths } => {
                w.u8(10);
                w.u64(*shard_start);
                w.count(paths.len());
                for path in paths {
                    w.path(path);
                }
            }
            ClusterMsg::WorkerFailed {
                epoch,
                worker_index,
                shard_start,
                shard_len,
            } => {
                w.u8(11);
                w.u64(*epoch);
                w.u32(*worker_index);
                w.u64(*shard_start);
                w.u64(*shard_len);
            }
            ClusterMsg::ShardReassign { epoch, moves } => {
                w.u8(12);
                w.u64(*epoch);
                w.count(moves.len());
                for m in moves {
                    w.u64(m.peer);
                    w.u32(m.to_worker);
                    w.u64(m.source_peer);
                    w.path(&m.path);
                }
            }
            ClusterMsg::RecoveryAddrs { epoch, peer_addrs } => {
                w.u8(13);
                w.u64(*epoch);
                put_addrs(&mut w, peer_addrs);
            }
            ClusterMsg::RecoveryDone { epoch, recovered } => {
                w.u8(14);
                w.u64(*epoch);
                w.count(recovered.len());
                for (peer, via_replica) in recovered {
                    w.u64(*peer);
                    w.bool(*via_replica);
                }
            }
            ClusterMsg::Rejoin {
                shard_start,
                shard_len,
                epoch,
                phase,
                now_ms,
                seed,
            } => {
                w.u8(15);
                w.u64(*shard_start);
                w.u64(*shard_len);
                w.u64(*epoch);
                w.u8(*phase);
                w.u64(*now_ms);
                w.u64(*seed);
            }
            ClusterMsg::Resume { epoch, phase } => {
                w.u8(16);
                w.u64(*epoch);
                w.u8(*phase);
            }
        }
        Bytes::from(w.into_vec())
    }

    /// Decodes a message previously produced by [`ClusterMsg::encode`];
    /// `None` for malformed input or a version mismatch.
    pub fn decode(data: Bytes) -> Option<ClusterMsg> {
        decode_msg(&mut Reader::new(data.as_slice())).ok()
    }
}

// ----- field codecs ----------------------------------------------------------

/// Cap on the items of one counted list (paths, links, moves, addresses).
const MAX_ITEMS: usize = 1 << 24;

/// Cap on minute samples and trace events per message.
const MAX_BATCH: usize = 1 << 20;

/// Cap on one trace string.
const MAX_STRING: usize = 1 << 16;

/// Cap on one wire-encoded metrics registry snapshot.
const MAX_REGISTRY_BYTES: usize = 1 << 26;

/// Smallest encoding of one socket address (IPv4).
const ADDR_MIN_BYTES: usize = 1 + 4 + 2;

/// Smallest encoding of one [`QueryAggregates`] (empty histograms and no
/// per-minute buckets).
const AGGREGATES_MIN_BYTES: usize = 8 * 8 + 2 * HISTOGRAM_MIN_BYTES + 4;

fn decode_msg(r: &mut Reader<'_>) -> WireResult<ClusterMsg> {
    if r.u16()? != MAGIC || r.u8()? != VERSION {
        return Err(WireError::Invalid("magic or version mismatch".into()));
    }
    Ok(match r.u8()? {
        0 => ClusterMsg::Welcome {
            worker_index: r.u32()?,
            n_workers: r.u32()?,
            shard_start: r.u64()?,
            shard_len: r.u64()?,
            config: get_config(r)?,
            timeline: get_timeline(r)?,
            tracing: r.bool()?,
            heartbeat_ms: r.u64()?,
            failure_timeout_ms: r.u64()?,
            heal: r.bool()?,
            kill_at_min: match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                flag => return Err(WireError::Invalid(format!("option flag {flag}"))),
            },
        },
        1 => ClusterMsg::Hello {
            shard_start: r.u64()?,
            peer_addrs: get_addrs(r)?,
            metrics_addr: match r.u8()? {
                0 => None,
                1 => Some(get_addr(r)?),
                flag => return Err(WireError::Invalid(format!("option flag {flag}"))),
            },
        },
        2 => ClusterMsg::AddressBook {
            peer_addrs: get_addrs(r)?,
        },
        3 => ClusterMsg::PhaseDone { phase: r.u8()? },
        4 => ClusterMsg::Proceed { phase: r.u8()? },
        5 => {
            let n = r.count(MAX_BATCH, 3 * 8)?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push((r.u64()?, r.u64()?, r.u64()?));
            }
            ClusterMsg::Minutes { samples }
        }
        7 => {
            let n = r.count(MAX_BATCH, 4 * 8 + 2 * 4)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let trace_id = r.u64()?;
                let kind = pgrid_obs::trace::intern_kind(&r.string(MAX_STRING)?);
                events.push(pgrid_obs::trace::TraceEvent {
                    trace_id,
                    kind,
                    peer: r.u64()?,
                    virtual_ms: r.u64()?,
                    wall_micros: r.u64()?,
                    detail: r.string(MAX_STRING)?,
                });
            }
            ClusterMsg::TraceBatch { events }
        }
        8 => ClusterMsg::MetricsSnapshot {
            registry: r.blob(MAX_REGISTRY_BYTES)?.to_vec(),
        },
        6 => {
            let shard_start = r.u64()?;
            let paths = decode_paths(r)?;
            let n_indexes = r.count(1 << 16, 2 + AGGREGATES_MIN_BYTES)?;
            let mut query_stats = Vec::with_capacity(n_indexes);
            for _ in 0..n_indexes {
                let index = IndexId(r.u16()?);
                query_stats.push((index, get_aggregates(r)?));
            }
            let online_at_end = r.u64()?;
            let mut transport = TransportStats {
                frames_sent: r.u64()?,
                frames_delivered: r.u64()?,
                bytes_sent: r.u64()?,
                bytes_delivered: r.u64()?,
                ..TransportStats::default()
            };
            let n_links = r.count(MAX_ITEMS, 7 * 8)?;
            for _ in 0..n_links {
                let peer = r.u64()?;
                let link = LinkStats {
                    frames_sent: r.u64()?,
                    bytes_sent: r.u64()?,
                    frames_received: r.u64()?,
                    bytes_received: r.u64()?,
                    reconnects: r.u64()?,
                    send_failures: r.u64()?,
                };
                transport.per_peer.insert(peer, link);
            }
            if r.bool()? {
                transport.reactor = Some(ReactorStats {
                    registered_peers: r.u64()?,
                    registered_fds: r.u64()?,
                    epoll_wakeups: r.u64()?,
                    write_queue_frames: r.u64()?,
                    write_queue_bytes: r.u64()?,
                    partial_writes: r.u64()?,
                    reconnects: r.u64()?,
                    dropped_frames: r.u64()?,
                });
            }
            let messages_delivered = r.u64()?;
            let messages_lost = r.u64()?;
            let n_extra = r.count(MAX_ITEMS, 8 + PATH_BYTES)?;
            let mut extra_paths = Vec::with_capacity(n_extra);
            for _ in 0..n_extra {
                extra_paths.push((r.u64()?, r.path()?));
            }
            ClusterMsg::Report(ShardReport {
                shard_start,
                paths,
                query_stats,
                online_at_end,
                transport,
                messages_delivered,
                messages_lost,
                extra_paths,
            })
        }
        9 => ClusterMsg::Heartbeat { epoch: r.u64()? },
        10 => ClusterMsg::ShardPaths {
            shard_start: r.u64()?,
            paths: decode_paths(r)?,
        },
        11 => ClusterMsg::WorkerFailed {
            epoch: r.u64()?,
            worker_index: r.u32()?,
            shard_start: r.u64()?,
            shard_len: r.u64()?,
        },
        12 => {
            let epoch = r.u64()?;
            let n = r.count(MAX_ITEMS, 8 + 4 + 8 + PATH_BYTES)?;
            let mut moves = Vec::with_capacity(n);
            for _ in 0..n {
                moves.push(ReassignMove {
                    peer: r.u64()?,
                    to_worker: r.u32()?,
                    source_peer: r.u64()?,
                    path: r.path()?,
                });
            }
            ClusterMsg::ShardReassign { epoch, moves }
        }
        13 => ClusterMsg::RecoveryAddrs {
            epoch: r.u64()?,
            peer_addrs: get_addrs(r)?,
        },
        14 => {
            let epoch = r.u64()?;
            let n = r.count(MAX_ITEMS, 8 + 1)?;
            let mut recovered = Vec::with_capacity(n);
            for _ in 0..n {
                recovered.push((r.u64()?, r.bool()?));
            }
            ClusterMsg::RecoveryDone { epoch, recovered }
        }
        15 => ClusterMsg::Rejoin {
            shard_start: r.u64()?,
            shard_len: r.u64()?,
            epoch: r.u64()?,
            phase: r.u8()?,
            now_ms: r.u64()?,
            seed: r.u64()?,
        },
        16 => ClusterMsg::Resume {
            epoch: r.u64()?,
            phase: r.u8()?,
        },
        tag => return Err(WireError::Invalid(format!("control message tag {tag}"))),
    })
}

fn decode_paths(r: &mut Reader<'_>) -> WireResult<Vec<Path>> {
    let n = r.count(MAX_ITEMS, PATH_BYTES)?;
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        paths.push(r.path()?);
    }
    Ok(paths)
}

fn put_config(w: &mut Writer, config: &NetConfig) {
    w.u64(config.n_peers as u64);
    w.u64(config.keys_per_peer as u64);
    w.u64(config.n_min as u64);
    match config.delta_max {
        Some(d) => {
            w.u8(1);
            w.u64(d as u64);
        }
        None => w.u8(0),
    }
    w.u64(config.latency_min_ms);
    w.u64(config.latency_max_ms);
    w.f64(config.loss_probability);
    w.u64(config.construct_interval_ms);
    w.u64(config.query_timeout_ms);
    w.u64(config.routing_fanout as u64);
    w.u64(config.seed);
    match config.distribution {
        Distribution::Uniform => w.u8(0),
        Distribution::Pareto { shape } => {
            w.u8(1);
            w.f64(shape);
        }
        Distribution::Normal { mean, std_dev } => {
            w.u8(2);
            w.f64(mean);
            w.f64(std_dev);
        }
        Distribution::Text {
            vocabulary,
            exponent,
        } => {
            w.u8(3);
            w.u64(vocabulary as u64);
            w.f64(exponent);
        }
    }
    w.u64(config.query_sample_cap as u64);
    w.u64(config.recovery_retry_ms);
    w.u64(config.recovery_retry_max_ms);
}

fn get_config(r: &mut Reader<'_>) -> WireResult<NetConfig> {
    Ok(NetConfig {
        n_peers: r.u64()? as usize,
        keys_per_peer: r.u64()? as usize,
        n_min: r.u64()? as usize,
        delta_max: if r.bool()? {
            Some(r.u64()? as usize)
        } else {
            None
        },
        latency_min_ms: r.u64()?,
        latency_max_ms: r.u64()?,
        loss_probability: r.f64()?,
        construct_interval_ms: r.u64()?,
        query_timeout_ms: r.u64()?,
        routing_fanout: r.u64()? as usize,
        seed: r.u64()?,
        distribution: match r.u8()? {
            0 => Distribution::Uniform,
            1 => Distribution::Pareto { shape: r.f64()? },
            2 => Distribution::Normal {
                mean: r.f64()?,
                std_dev: r.f64()?,
            },
            3 => Distribution::Text {
                vocabulary: r.u64()? as usize,
                exponent: r.f64()?,
            },
            tag => return Err(WireError::Invalid(format!("distribution {tag}"))),
        },
        query_sample_cap: r.u64()? as usize,
        recovery_retry_ms: r.u64()?,
        recovery_retry_max_ms: r.u64()?,
    })
}

fn put_aggregates(w: &mut Writer, stats: &QueryAggregates) {
    w.u64(stats.issued);
    w.u64(stats.answered);
    w.u64(stats.succeeded);
    w.u64(stats.timed_out);
    w.u64(stats.late_responses);
    w.u64(stats.hops_sum_successful);
    w.histogram(&stats.latency);
    w.u64(stats.ranges_issued);
    w.u64(stats.ranges_complete);
    w.histogram(&stats.range_latency);
    w.count(stats.per_minute.len());
    for (minute, bucket) in &stats.per_minute {
        w.u64(*minute);
        w.u64(bucket.count);
        w.f64(bucket.sum_s);
        w.f64(bucket.sum_sq_s);
    }
}

fn get_aggregates(r: &mut Reader<'_>) -> WireResult<QueryAggregates> {
    let mut stats = QueryAggregates {
        issued: r.u64()?,
        answered: r.u64()?,
        succeeded: r.u64()?,
        timed_out: r.u64()?,
        late_responses: r.u64()?,
        hops_sum_successful: r.u64()?,
        latency: r.histogram()?,
        ranges_issued: r.u64()?,
        ranges_complete: r.u64()?,
        range_latency: r.histogram()?,
        ..QueryAggregates::default()
    };
    let n_minutes = r.count(MAX_ITEMS, 4 * 8)?;
    for _ in 0..n_minutes {
        let minute = r.u64()?;
        stats.per_minute.insert(
            minute,
            MinuteLatency {
                count: r.u64()?,
                sum_s: r.f64()?,
                sum_sq_s: r.f64()?,
            },
        );
    }
    Ok(stats)
}

fn put_timeline(w: &mut Writer, timeline: &Timeline) {
    w.u64(timeline.join_end_min);
    w.u64(timeline.replicate_end_min);
    w.u64(timeline.construct_end_min);
    w.u64(timeline.range_end_min);
    w.u64(timeline.query_end_min);
    w.u64(timeline.end_min);
}

fn get_timeline(r: &mut Reader<'_>) -> WireResult<Timeline> {
    Ok(Timeline {
        join_end_min: r.u64()?,
        replicate_end_min: r.u64()?,
        construct_end_min: r.u64()?,
        range_end_min: r.u64()?,
        query_end_min: r.u64()?,
        end_min: r.u64()?,
    })
}

fn put_addr(w: &mut Writer, addr: &SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            w.u8(4);
            w.raw(&ip.octets());
        }
        IpAddr::V6(ip) => {
            w.u8(6);
            w.raw(&ip.octets());
        }
    }
    w.u16(addr.port());
}

fn get_addr(r: &mut Reader<'_>) -> WireResult<SocketAddr> {
    let ip: IpAddr = match r.u8()? {
        4 => Ipv4Addr::from(r.array::<4>()?).into(),
        6 => Ipv6Addr::from(r.array::<16>()?).into(),
        family => return Err(WireError::Invalid(format!("address family {family}"))),
    };
    Ok(SocketAddr::new(ip, r.u16()?))
}

fn put_addrs(w: &mut Writer, addrs: &[(u64, SocketAddr)]) {
    w.count(addrs.len());
    for (peer, addr) in addrs {
        w.u64(*peer);
        put_addr(w, addr);
    }
}

fn get_addrs(r: &mut Reader<'_>) -> WireResult<Vec<(u64, SocketAddr)>> {
    let n = r.count(MAX_ITEMS, 8 + ADDR_MIN_BYTES)?;
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        addrs.push((r.u64()?, get_addr(r)?));
    }
    Ok(addrs)
}

// ----- control channel -------------------------------------------------------

/// A framed, bidirectional control connection.
///
/// Sends are synchronous writes of one single-payload frame; receives
/// reassemble frames from the stream with a short socket read timeout so
/// [`ControlChannel::try_recv`] never parks the caller — a worker waiting at
/// a barrier must keep servicing its *data* transport while it waits for the
/// coordinator.
pub struct ControlChannel {
    stream: TcpStream,
    reader: FrameReader,
}

/// Socket read timeout of the control channel; bounds how long `try_recv`
/// can block.
const POLL_TIMEOUT: Duration = Duration::from_millis(2);

impl ControlChannel {
    /// Wraps a connected control stream.
    pub fn new(stream: TcpStream) -> std::io::Result<ControlChannel> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL_TIMEOUT))?;
        Ok(ControlChannel {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// The remote end of the channel.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one message.
    pub fn send(&mut self, msg: &ClusterMsg) -> std::io::Result<()> {
        let frame = encode_frame(&[msg.encode()]);
        self.stream.write_all(frame.as_slice())
    }

    /// Returns the next message if one is available within the short poll
    /// timeout, `None` otherwise.
    pub fn try_recv(&mut self) -> std::io::Result<Option<ClusterMsg>> {
        if let Some(msg) = self.pop_frame()? {
            return Ok(Some(msg));
        }
        let mut buf = [0u8; 16 * 1024];
        match self.stream.read(&mut buf) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "control connection closed",
            )),
            Ok(n) => {
                self.reader.extend(&buf[..n]);
                self.pop_frame()
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Waits up to `timeout` for the next message.
    pub fn recv_timeout(&mut self, timeout: Duration) -> std::io::Result<ClusterMsg> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.try_recv()? {
                return Ok(msg);
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "timed out waiting for a control message",
                ));
            }
        }
    }

    fn pop_frame(&mut self) -> std::io::Result<Option<ClusterMsg>> {
        let frame = self
            .reader
            .next_frame()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        let Some(frame) = frame else { return Ok(None) };
        let payloads = decode_frame(&frame)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        let [payload] = payloads.as_slice() else {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "control frames carry exactly one message",
            ));
        };
        ClusterMsg::decode(payload.clone())
            .map(Some)
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed control message"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ClusterMsg) {
        let encoded = msg.encode();
        let decoded = ClusterMsg::decode(encoded).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        roundtrip(ClusterMsg::Welcome {
            worker_index: 1,
            n_workers: 4,
            shard_start: 16,
            shard_len: 16,
            config: NetConfig {
                n_peers: 64,
                delta_max: Some(50),
                loss_probability: 0.0125,
                distribution: Distribution::Pareto { shape: 1.0 },
                ..NetConfig::default()
            },
            timeline: Timeline::default(),
            tracing: true,
            heartbeat_ms: 500,
            failure_timeout_ms: 10_000,
            heal: true,
            kill_at_min: Some(10),
        });
        roundtrip(ClusterMsg::Hello {
            shard_start: 0,
            peer_addrs: vec![
                (0, "127.0.0.1:4000".parse().unwrap()),
                (1, "[::1]:4001".parse().unwrap()),
            ],
            metrics_addr: Some("127.0.0.1:9100".parse().unwrap()),
        });
        roundtrip(ClusterMsg::Hello {
            shard_start: 16,
            peer_addrs: vec![(16, "127.0.0.1:4016".parse().unwrap())],
            metrics_addr: None,
        });
        roundtrip(ClusterMsg::AddressBook {
            peer_addrs: (0..32u64)
                .map(|i| (i, format!("127.0.0.1:{}", 5000 + i).parse().unwrap()))
                .collect(),
        });
        roundtrip(ClusterMsg::PhaseDone {
            phase: PHASE_CONSTRUCTED,
        });
        roundtrip(ClusterMsg::Proceed { phase: PHASE_DONE });
        roundtrip(ClusterMsg::Minutes {
            samples: vec![(0, 1200, 0), (1, 900, 30), (7, 0, 4096)],
        });
        roundtrip(ClusterMsg::TraceBatch {
            events: vec![
                pgrid_obs::trace::TraceEvent {
                    trace_id: (1 << 40) | 3,
                    kind: pgrid_obs::trace::intern_kind("query_issued"),
                    peer: 17,
                    virtual_ms: 120_000,
                    wall_micros: 1_700_000_000_000_000,
                    detail: "id=3 index=0 key=0.25".to_string(),
                },
                pgrid_obs::trace::TraceEvent {
                    trace_id: (1 << 40) | 3,
                    kind: pgrid_obs::trace::intern_kind("query_hop"),
                    peer: 4,
                    virtual_ms: 120_040,
                    wall_micros: 1_700_000_000_000_900,
                    detail: "path=\"01\" cached=false".to_string(),
                },
            ],
        });
        let mut registry = pgrid_obs::registry::MetricsRegistry::new();
        registry.counter("pgrid_net_messages_delivered_total", "m", &[], 42);
        roundtrip(ClusterMsg::MetricsSnapshot {
            registry: registry.encode_wire(),
        });
        let mut primary = QueryAggregates {
            issued: 120,
            answered: 110,
            succeeded: 104,
            timed_out: 10,
            late_responses: 3,
            hops_sum_successful: 312,
            ranges_issued: 7,
            ranges_complete: 6,
            ..QueryAggregates::default()
        };
        for latency in [12u64, 80, 80, 412, 3_000] {
            primary.latency.record(latency);
        }
        primary.range_latency.record(950);
        primary.per_minute.entry(61).or_default().record(0.412);
        let secondary = QueryAggregates {
            issued: 4,
            timed_out: 4,
            ..QueryAggregates::default()
        };
        roundtrip(ClusterMsg::Report(ShardReport {
            shard_start: 32,
            paths: vec![Path::root(), Path::parse("0110"), Path::parse("1")],
            query_stats: vec![(IndexId::PRIMARY, primary), (IndexId(2), secondary)],
            online_at_end: 14,
            transport: TransportStats {
                frames_sent: 1000,
                frames_delivered: 990,
                bytes_sent: 123_456,
                bytes_delivered: 120_000,
                per_peer: [
                    (
                        32,
                        LinkStats {
                            frames_sent: 40,
                            bytes_sent: 5_000,
                            frames_received: 41,
                            bytes_received: 5_100,
                            reconnects: 1,
                            send_failures: 0,
                        },
                    ),
                    (
                        7,
                        LinkStats {
                            frames_received: 9,
                            bytes_received: 900,
                            ..LinkStats::default()
                        },
                    ),
                ]
                .into_iter()
                .collect(),
                reactor: Some(ReactorStats {
                    registered_peers: 32,
                    registered_fds: 3,
                    epoll_wakeups: 777,
                    write_queue_frames: 2,
                    write_queue_bytes: 512,
                    partial_writes: 5,
                    reconnects: 1,
                    dropped_frames: 0,
                }),
            },
            messages_delivered: 2048,
            messages_lost: 17,
            extra_paths: vec![(3, Path::parse("011")), (9, Path::root())],
        }));
        roundtrip(ClusterMsg::Heartbeat { epoch: 2 });
        roundtrip(ClusterMsg::ShardPaths {
            shard_start: 16,
            paths: vec![Path::parse("01"), Path::root(), Path::parse("110")],
        });
        roundtrip(ClusterMsg::WorkerFailed {
            epoch: 1,
            worker_index: 2,
            shard_start: 22,
            shard_len: 10,
        });
        roundtrip(ClusterMsg::ShardReassign {
            epoch: 1,
            moves: vec![
                ReassignMove {
                    peer: 22,
                    to_worker: 0,
                    source_peer: 4,
                    path: Path::parse("010"),
                },
                ReassignMove {
                    peer: 23,
                    to_worker: 1,
                    source_peer: 23,
                    path: Path::root(),
                },
            ],
        });
        roundtrip(ClusterMsg::RecoveryAddrs {
            epoch: 1,
            peer_addrs: vec![
                (22, "127.0.0.1:6022".parse().unwrap()),
                (23, "[::1]:6023".parse().unwrap()),
            ],
        });
        roundtrip(ClusterMsg::RecoveryDone {
            epoch: 1,
            recovered: vec![(22, true), (23, false)],
        });
        roundtrip(ClusterMsg::Rejoin {
            shard_start: 16,
            shard_len: 8,
            epoch: 2,
            phase: PHASE_CONSTRUCTED,
            now_ms: 1_380_000,
            seed: 12,
        });
        roundtrip(ClusterMsg::Resume {
            epoch: 3,
            phase: PHASE_QUERIED,
        });
    }

    #[test]
    fn config_retry_pacing_survives_the_codec() {
        roundtrip(ClusterMsg::Welcome {
            worker_index: 0,
            n_workers: 1,
            shard_start: 0,
            shard_len: 8,
            config: NetConfig {
                recovery_retry_ms: 500,
                recovery_retry_max_ms: 7_000,
                ..NetConfig::default()
            },
            timeline: Timeline::default(),
            tracing: false,
            heartbeat_ms: 0,
            failure_timeout_ms: 0,
            heal: false,
            kill_at_min: None,
        });
    }

    #[test]
    fn every_distribution_variant_survives_the_config_codec() {
        for distribution in Distribution::paper_suite() {
            roundtrip(ClusterMsg::Welcome {
                worker_index: 0,
                n_workers: 1,
                shard_start: 0,
                shard_len: 8,
                config: NetConfig {
                    distribution,
                    ..NetConfig::default()
                },
                timeline: Timeline::default(),
                tracing: false,
                heartbeat_ms: 0,
                failure_timeout_ms: 0,
                heal: false,
                kill_at_min: None,
            });
        }
    }

    #[test]
    fn malformed_and_mismatched_input_is_rejected() {
        assert!(ClusterMsg::decode(Bytes::from_static(&[])).is_none());
        assert!(ClusterMsg::decode(Bytes::from_static(&[0x50, 0x47])).is_none());
        // wrong version
        assert!(ClusterMsg::decode(Bytes::from_static(&[0x50, 0x47, 99, 3, 1])).is_none());
        // truncated Welcome
        let mut good = ClusterMsg::PhaseDone { phase: 2 }
            .encode()
            .as_slice()
            .to_vec();
        good.pop();
        assert!(ClusterMsg::decode(Bytes::from(good)).is_none());
        // unknown tag
        assert!(ClusterMsg::decode(Bytes::from_static(&[0x50, 0x47, 1, 200])).is_none());
    }

    #[test]
    fn control_channel_carries_framed_messages_both_ways() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut ctl = ControlChannel::new(TcpStream::connect(addr).unwrap()).unwrap();
            ctl.send(&ClusterMsg::PhaseDone { phase: 1 }).unwrap();
            let reply = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(reply, ClusterMsg::Proceed { phase: 1 });
        });
        let (stream, _) = listener.accept().unwrap();
        let mut ctl = ControlChannel::new(stream).unwrap();
        let msg = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg, ClusterMsg::PhaseDone { phase: 1 });
        ctl.send(&ClusterMsg::Proceed { phase: 1 }).unwrap();
        client.join().unwrap();
    }
}
