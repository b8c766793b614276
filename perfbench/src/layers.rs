//! Per-layer replays, timed from outside through each layer's public API.
//!
//! * [`replay_codec`] decodes the frames the transport tap sampled with
//!   `frame::decode_frame` and `Message::decode`, and re-encodes them with
//!   `Message::encode` (the `net.message` layer).
//! * [`replay_exchange`] runs `ExchangeEngine::assess` / `decide` and
//!   `apply_decision` on peer pairs snapshotted during construction (the
//!   `core.exchange` layer).
//! * [`replay_search`] runs `search::lookup` over a quiescent snapshot of
//!   every peer (the `core.search` layer).
//!
//! Each operation class is timed as a batch, repeated until the batch has
//! run for at least [`MIN_TIMED`], so clock reads do not dominate the
//! per-operation figure.

use bytes::Bytes;
use pgrid_core::exchange::{apply_decision, ExchangeEngine};
use pgrid_core::key::Key;
use pgrid_core::path::Path;
use pgrid_core::peer::PeerState;
use pgrid_core::reference::BalanceParams;
use pgrid_core::routing::PeerId;
use pgrid_core::search::{lookup, LookupStatus, NetworkView};
use pgrid_core::store::KeyStore;
use pgrid_net::message::{ExchangeOutcome, Message};
use pgrid_transport::frame::decode_frame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest total time a timed batch runs for.
const MIN_TIMED: Duration = Duration::from_millis(40);

/// Runs `pass` (which performs `ops` operations) until [`MIN_TIMED`] has
/// elapsed, and returns nanoseconds per operation.
fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < MIN_TIMED {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * ops as f64)
}

/// Codec figures of one message class.
#[derive(Clone, Debug, Default)]
pub struct CodecClass {
    /// Sampled messages of this class.
    pub messages: u64,
    /// Mean encoded size in bytes.
    pub bytes: f64,
    /// Nanoseconds per `Message::decode`.
    pub decode_ns: f64,
    /// Nanoseconds per `Message::encode`.
    pub encode_ns: f64,
}

/// What the codec replay measured over the sampled frames.
#[derive(Clone, Debug, Default)]
pub struct CodecReplay {
    /// Frames replayed.
    pub frames: u64,
    /// Nanoseconds per `frame::decode_frame`.
    pub frame_decode_ns: f64,
    /// `Exchange` and `ExchangeReply` messages.
    pub exchange: CodecClass,
    /// `Query` and `QueryResponse` messages.
    pub query: CodecClass,
    /// Everything else (replication pushes, range queries, ...).
    pub other: CodecClass,
    /// Sampled payloads that failed to decode.
    pub decode_failures: u64,
    /// Sampled `Exchange` requests.
    pub exchange_requests: u64,
    /// Sampled `ExchangeReply`s whose outcome made progress (a split, or
    /// a replication that shipped entries).
    pub replies_useful: u64,
    /// Sampled `ExchangeReply`s.
    pub replies: u64,
    /// Of those, referrals (decided without assessing the stores).
    pub replies_refer: u64,
    /// Of those, splits and replications (decisions that change state).
    pub replies_applied: u64,
}

fn time_class(payloads: &[Bytes]) -> CodecClass {
    if payloads.is_empty() {
        return CodecClass::default();
    }
    let decoded: Vec<Message> = payloads
        .iter()
        .filter_map(|p| Message::decode(p.clone()))
        .collect();
    CodecClass {
        messages: payloads.len() as u64,
        bytes: payloads.iter().map(|p| p.len()).sum::<usize>() as f64 / payloads.len() as f64,
        decode_ns: ns_per_op(payloads.len(), || {
            for p in payloads {
                black_box(Message::decode(black_box(p.clone())));
            }
        }),
        encode_ns: ns_per_op(decoded.len(), || {
            for m in &decoded {
                black_box(black_box(m).encode());
            }
        }),
    }
}

/// Decodes and re-encodes the sampled frames.
pub fn replay_codec(frames: &[Bytes]) -> CodecReplay {
    let mut out = CodecReplay {
        frames: frames.len() as u64,
        ..CodecReplay::default()
    };
    let mut exchange = Vec::new();
    let mut query = Vec::new();
    let mut other = Vec::new();
    for frame in frames {
        let Ok(payloads) = decode_frame(frame) else {
            out.decode_failures += 1;
            continue;
        };
        for payload in payloads {
            let Some(message) = Message::decode(payload.clone()) else {
                out.decode_failures += 1;
                continue;
            };
            match &message {
                Message::Exchange { .. } => {
                    out.exchange_requests += 1;
                    exchange.push(payload);
                }
                Message::ExchangeReply { outcome, .. } => {
                    out.replies += 1;
                    out.replies_refer +=
                        u64::from(matches!(outcome, ExchangeOutcome::Refer { .. }));
                    out.replies_applied += u64::from(matches!(
                        outcome,
                        ExchangeOutcome::Split { .. } | ExchangeOutcome::Replicate { .. }
                    ));
                    let useful = match outcome {
                        ExchangeOutcome::Split { .. } => true,
                        ExchangeOutcome::Replicate { entries } => !entries.is_empty(),
                        ExchangeOutcome::Refer { .. } | ExchangeOutcome::Nothing => false,
                    };
                    out.replies_useful += u64::from(useful);
                    exchange.push(payload);
                }
                Message::Query { .. } | Message::QueryResponse { .. } => query.push(payload),
                _ => other.push(payload),
            }
        }
    }
    out.frame_decode_ns = ns_per_op(frames.len(), || {
        for f in frames {
            let _ = black_box(decode_frame(black_box(f)));
        }
    });
    out.exchange = time_class(&exchange);
    out.query = time_class(&query);
    out.other = time_class(&other);
    out
}

/// Peer pairs copied at one moment of construction.
#[derive(Clone, Debug)]
pub struct PairSnapshot {
    /// Virtual minute of the copy.
    pub minute: f64,
    /// `(lagging, ahead)`: the lagging peer's path is a prefix of (or
    /// equal to) the other's, so the pair shares a partition and the
    /// bilateral decision applies.
    pub pairs: Vec<(PeerState, PeerState)>,
}

/// Pairs per snapshot.
const PAIRS: usize = 64;

/// Copies up to [`PAIRS`] partition-sharing peer pairs out of the `n`
/// peers `state` returns.
pub fn snapshot_pairs<'a>(
    n: usize,
    state: impl Fn(usize) -> &'a PeerState,
    minute: f64,
    rng: &mut StdRng,
) -> PairSnapshot {
    let mut pairs = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS * 8 {
        if pairs.len() == PAIRS {
            break;
        }
        let a = state(rng.gen_range(0..n));
        let b = state(rng.gen_range(0..n));
        if a.id == b.id || ExchangeEngine::refer_level(&a.path, &b.path).is_some() {
            continue;
        }
        let (lag, ahead) = if a.path.len() <= b.path.len() {
            (a, b)
        } else {
            (b, a)
        };
        pairs.push((lag.clone(), ahead.clone()));
    }
    PairSnapshot { minute, pairs }
}

/// What the exchange replay measured.
#[derive(Clone, Debug, Default)]
pub struct ExchangeReplay {
    /// Pairs replayed.
    pub pairs: u64,
    /// Nanoseconds per `ExchangeEngine::assess`.
    pub assess_ns: f64,
    /// Nanoseconds per `ExchangeEngine::decide`.
    pub decide_ns: f64,
    /// Nanoseconds per `apply_decision`.
    pub apply_ns: f64,
}

/// Replays assess → decide → apply on every snapshotted pair.
pub fn replay_exchange(
    params: BalanceParams,
    snapshots: &[PairSnapshot],
    seed: u64,
) -> ExchangeReplay {
    let engine = ExchangeEngine::new(params);
    let pairs: Vec<&(PeerState, PeerState)> = snapshots.iter().flat_map(|s| &s.pairs).collect();
    if pairs.is_empty() {
        return ExchangeReplay::default();
    }
    let partitions: Vec<Path> = pairs.iter().map(|(lag, _)| lag.path).collect();
    let assess = |i: usize| {
        let (lag, ahead) = pairs[i];
        let partition = &partitions[i];
        engine.assess(
            &lag.store.restricted(partition),
            &ahead.store.restricted(partition),
            partition,
        )
    };
    let assess_ns = ns_per_op(pairs.len(), || {
        for i in 0..pairs.len() {
            black_box(assess(i));
        }
    });
    let assessments: Vec<_> = (0..pairs.len()).map(assess).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEC1);
    let decide_ns = ns_per_op(pairs.len(), || {
        for (i, (lag, ahead)) in pairs.iter().enumerate() {
            black_box(engine.decide(lag.path, ahead.path, &assessments[i], &mut rng));
        }
    });
    let decisions: Vec<_> = pairs
        .iter()
        .enumerate()
        .map(|(i, (lag, ahead))| engine.decide(lag.path, ahead.path, &assessments[i], &mut rng))
        .collect();
    // `apply_decision` mutates both peers: every pass works on fresh copies
    // made outside the timed region.
    let mut elapsed = Duration::ZERO;
    let mut applied = 0u64;
    while elapsed < MIN_TIMED || applied == 0 {
        let mut copies: Vec<(PeerState, PeerState)> = pairs
            .iter()
            .map(|(lag, ahead)| (lag.clone(), ahead.clone()))
            .collect();
        let start = Instant::now();
        for (i, (lag, ahead)) in copies.iter_mut().enumerate() {
            let complement = ahead.routing.level(partitions[i].len()).first().copied();
            black_box(apply_decision(
                &decisions[i],
                lag,
                ahead,
                complement,
                &mut rng,
            ));
        }
        elapsed += start.elapsed();
        applied += copies.len() as u64;
        drop(black_box(copies));
    }
    ExchangeReplay {
        pairs: pairs.len() as u64,
        assess_ns,
        decide_ns,
        apply_ns: elapsed.as_nanos() as f64 / applied as f64,
    }
}

/// A benchmark-owned view over copied peer states.
struct SnapshotView<'a>(&'a [PeerState]);

impl NetworkView for SnapshotView<'_> {
    fn path_of(&self, peer: PeerId) -> Option<Path> {
        self.0.get(peer.0 as usize).map(|s| s.path)
    }

    fn routing_refs(&self, peer: PeerId, level: usize) -> Vec<(PeerId, Path)> {
        self.0
            .get(peer.0 as usize)
            .map(|s| {
                s.routing
                    .level(level)
                    .iter()
                    .map(|e| (e.peer, e.path))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn is_online(&self, peer: PeerId) -> bool {
        self.0.get(peer.0 as usize).is_some_and(|s| s.online)
    }

    fn store_of(&self, peer: PeerId) -> Option<&KeyStore> {
        self.0.get(peer.0 as usize).map(|s| &s.store)
    }
}

/// What the search replay measured.
#[derive(Clone, Debug, Default)]
pub struct SearchReplay {
    /// Lookups replayed.
    pub lookups: u64,
    /// Nanoseconds per `search::lookup`.
    pub lookup_ns: f64,
    /// Mean forwarding hops.
    pub hops: f64,
    /// Lookups that reached a responsible peer.
    pub reached: u64,
    /// Lookups whose responsible peer held the key.
    pub found: u64,
    /// Lookups stuck without an online reference.
    pub no_route: u64,
    /// Lookups over the hop limit.
    pub hop_limit: u64,
    /// Lookups that ended at a peer whose path is not a prefix of the key
    /// (must stay 0).
    pub misrouted: u64,
}

/// Runs `search::lookup` for `keys` from seeded random start peers.
pub fn replay_search(states: &[PeerState], keys: &[Key], seed: u64) -> SearchReplay {
    let view = SnapshotView(states);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EA7);
    let starts: Vec<PeerId> = keys
        .iter()
        .map(|_| PeerId(rng.gen_range(0..states.len()) as u64))
        .collect();
    let mut out = SearchReplay {
        lookups: keys.len() as u64,
        ..SearchReplay::default()
    };
    let mut hops = 0u64;
    for (key, start) in keys.iter().zip(&starts) {
        let result = lookup(&view, *start, *key, &mut rng);
        hops += result.hops as u64;
        match result.status {
            LookupStatus::Found { responsible } => {
                out.reached += 1;
                out.found += u64::from(!result.entries.is_empty());
                if !states[responsible.0 as usize].path.covers(*key) {
                    out.misrouted += 1;
                }
            }
            LookupStatus::NoRoute { .. } => out.no_route += 1,
            LookupStatus::HopLimit => out.hop_limit += 1,
        }
    }
    out.hops = hops as f64 / keys.len().max(1) as f64;
    out.lookup_ns = ns_per_op(keys.len(), || {
        for (key, start) in keys.iter().zip(&starts) {
            black_box(lookup(&view, *start, *key, &mut rng));
        }
    });
    out
}
