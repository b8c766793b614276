//! Property tests for the control codec: the membership, reassignment and
//! recovery messages added for self-healing in proto v5 must survive
//! encode → decode bit-exactly, and truncated or version-flipped frames
//! must be rejected without panics.  Both control-plane decoders —
//! [`ClusterMsg::decode`] and the metrics registry snapshot it carries,
//! [`MetricsRegistry::decode_wire`] — are total on arbitrary bytes.

use bytes::Bytes;
use pgrid_cluster::proto::{ClusterMsg, ReassignMove, ShardReport};
use pgrid_core::histogram::LogHistogram;
use pgrid_core::index::IndexId;
use pgrid_core::path::Path;
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::{NetConfig, QueryAggregates};
use pgrid_obs::registry::MetricsRegistry;
use pgrid_transport::{LinkStats, ReactorStats, TransportStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

fn arbitrary_path(rng: &mut StdRng) -> Path {
    let len = rng.gen_range(0..=12);
    let mut path = Path::root();
    for _ in 0..len {
        path = path.child(rng.gen_bool(0.5));
    }
    path
}

fn arbitrary_addr(rng: &mut StdRng) -> SocketAddr {
    let ip = if rng.gen_bool(0.5) {
        let mut segments = [0u16; 8];
        for segment in &mut segments {
            *segment = rng.gen();
        }
        IpAddr::V6(Ipv6Addr::from(segments))
    } else {
        let mut octets = [0u8; 4];
        for octet in &mut octets {
            *octet = rng.gen();
        }
        IpAddr::V4(Ipv4Addr::from(octets))
    };
    SocketAddr::new(ip, rng.gen())
}

fn arbitrary_move(rng: &mut StdRng) -> ReassignMove {
    ReassignMove {
        peer: rng.gen(),
        to_worker: rng.gen(),
        source_peer: rng.gen(),
        path: arbitrary_path(rng),
    }
}

/// One random v5 self-healing message; `variant` cycles so every shape is
/// exercised no matter what the seed draws.
fn arbitrary_v5_message(variant: u8, rng: &mut StdRng) -> ClusterMsg {
    match variant % 6 {
        0 => ClusterMsg::Heartbeat { epoch: rng.gen() },
        1 => ClusterMsg::ShardPaths {
            shard_start: rng.gen(),
            paths: (0..rng.gen_range(0..32))
                .map(|_| arbitrary_path(rng))
                .collect(),
        },
        2 => ClusterMsg::WorkerFailed {
            epoch: rng.gen(),
            worker_index: rng.gen(),
            shard_start: rng.gen(),
            shard_len: rng.gen(),
        },
        3 => ClusterMsg::ShardReassign {
            epoch: rng.gen(),
            moves: (0..rng.gen_range(0..16))
                .map(|_| arbitrary_move(rng))
                .collect(),
        },
        4 => ClusterMsg::RecoveryAddrs {
            epoch: rng.gen(),
            peer_addrs: (0..rng.gen_range(0..16))
                .map(|_| (rng.gen(), arbitrary_addr(rng)))
                .collect(),
        },
        _ => ClusterMsg::RecoveryDone {
            epoch: rng.gen(),
            recovered: (0..rng.gen_range(0..32))
                .map(|_| (rng.gen(), rng.gen_bool(0.5)))
                .collect(),
        },
    }
}

fn arbitrary_histogram(rng: &mut StdRng) -> LogHistogram {
    let mut h = LogHistogram::new();
    for _ in 0..rng.gen_range(0..8) {
        h.record(rng.gen::<u64>() >> rng.gen_range(0..64));
    }
    h
}

fn arbitrary_registry(rng: &mut StdRng) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    for i in 0..rng.gen_range(0..4) {
        let peer = rng.gen_range(0..4u32).to_string();
        let labels: &[(&str, &str)] = if rng.gen_bool(0.5) {
            &[("peer", &peer)]
        } else {
            &[]
        };
        match i % 3 {
            0 => registry.counter("pgrid_c_total", "c", labels, rng.gen()),
            1 => registry.gauge("pgrid_g", "g \"quoted\"", labels, rng.gen()),
            _ => registry.histogram("pgrid_h_ms", "h", labels, &arbitrary_histogram(rng)),
        }
    }
    registry
}

fn arbitrary_report(rng: &mut StdRng) -> ShardReport {
    let mut stats = QueryAggregates {
        issued: rng.gen(),
        succeeded: rng.gen(),
        latency: arbitrary_histogram(rng),
        range_latency: arbitrary_histogram(rng),
        ..QueryAggregates::default()
    };
    for _ in 0..rng.gen_range(0..3) {
        stats
            .per_minute
            .entry(rng.gen_range(0..100))
            .or_default()
            .record(rng.gen());
    }
    ShardReport {
        shard_start: rng.gen(),
        paths: (0..rng.gen_range(0..8))
            .map(|_| arbitrary_path(rng))
            .collect(),
        query_stats: vec![(IndexId(rng.gen()), stats)],
        online_at_end: rng.gen(),
        transport: TransportStats {
            frames_sent: rng.gen(),
            bytes_sent: rng.gen(),
            per_peer: (0..rng.gen_range(0..4))
                .map(|_| {
                    let link = LinkStats {
                        frames_sent: rng.gen(),
                        reconnects: rng.gen(),
                        ..LinkStats::default()
                    };
                    (rng.gen(), link)
                })
                .collect(),
            reactor: rng.gen_bool(0.5).then(|| ReactorStats {
                epoll_wakeups: rng.gen(),
                dropped_frames: rng.gen(),
                ..ReactorStats::default()
            }),
            ..TransportStats::default()
        },
        messages_delivered: rng.gen(),
        messages_lost: rng.gen(),
        extra_paths: (0..rng.gen_range(0..4))
            .map(|_| (rng.gen(), arbitrary_path(rng)))
            .collect(),
    }
}

/// One random message of any kind: the v5 shapes plus the run-setup,
/// barrier, streaming and report messages.
fn arbitrary_message(variant: u8, rng: &mut StdRng) -> ClusterMsg {
    match variant % 14 {
        0 => ClusterMsg::Welcome {
            worker_index: rng.gen(),
            n_workers: rng.gen(),
            shard_start: rng.gen(),
            shard_len: rng.gen(),
            config: NetConfig {
                n_peers: rng.gen_range(0..1024),
                delta_max: rng.gen_bool(0.5).then(|| rng.gen_range(0..64)),
                loss_probability: rng.gen(),
                ..NetConfig::default()
            },
            timeline: Timeline::default(),
            tracing: rng.gen_bool(0.5),
            heartbeat_ms: rng.gen(),
            failure_timeout_ms: rng.gen(),
            heal: rng.gen_bool(0.5),
            kill_at_min: rng.gen_bool(0.5).then(|| rng.gen()),
        },
        1 => ClusterMsg::Hello {
            shard_start: rng.gen(),
            peer_addrs: (0..rng.gen_range(0..8))
                .map(|_| (rng.gen(), arbitrary_addr(rng)))
                .collect(),
            metrics_addr: rng.gen_bool(0.5).then(|| arbitrary_addr(rng)),
        },
        2 => ClusterMsg::Proceed { phase: rng.gen() },
        3 => ClusterMsg::Minutes {
            samples: (0..rng.gen_range(0..8))
                .map(|_| (rng.gen(), rng.gen(), rng.gen()))
                .collect(),
        },
        4 => ClusterMsg::TraceBatch {
            events: (0..rng.gen_range(0..4))
                .map(|_| pgrid_obs::trace::TraceEvent {
                    trace_id: rng.gen(),
                    kind: pgrid_obs::trace::intern_kind("query_hop"),
                    peer: rng.gen(),
                    virtual_ms: rng.gen(),
                    wall_micros: rng.gen(),
                    detail: format!("hop {}", rng.gen::<u32>()),
                })
                .collect(),
        },
        5 => ClusterMsg::MetricsSnapshot {
            registry: arbitrary_registry(rng).encode_wire(),
        },
        6 => ClusterMsg::Report(arbitrary_report(rng)),
        7 => ClusterMsg::Rejoin {
            shard_start: rng.gen(),
            shard_len: rng.gen(),
            epoch: rng.gen(),
            phase: rng.gen(),
            now_ms: rng.gen(),
            seed: rng.gen(),
        },
        v => arbitrary_v5_message(v - 8, rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_kind_roundtrips_and_rejects_truncation(
        seed in any::<u64>(),
        variant in 0u8..14,
        cut in 0usize..1 << 16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let encoded = msg.encode();
        let decoded = ClusterMsg::decode(encoded.clone());
        prop_assert_eq!(decoded.as_ref(), Some(&msg));
        let cut = cut % encoded.len();
        let prefix = Bytes::from(&encoded.as_slice()[..cut]);
        prop_assert!(ClusterMsg::decode(prefix).is_none(), "prefix of length {} decoded", cut);
    }

    // Arbitrary bytes behind a valid magic/version header (so decoding
    // reaches every message body), and valid messages with bytes
    // overwritten, decode or fail but never panic or abort.
    #[test]
    fn arbitrary_control_bytes_never_panic(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
        variant in 0u8..14,
    ) {
        let _ = ClusterMsg::decode(Bytes::from(data.clone()));
        let header = ClusterMsg::Heartbeat { epoch: 0 }.encode();
        let _ = ClusterMsg::decode(Bytes::from([&header.as_slice()[..3], &data].concat()));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire = arbitrary_message(variant, &mut rng).encode().as_slice().to_vec();
        for pair in data.chunks_exact(2).take(4) {
            let at = 3 + pair[0] as usize % (wire.len() - 3);
            wire[at] = pair[1];
        }
        let _ = ClusterMsg::decode(Bytes::from(wire));
    }

    #[test]
    fn registry_snapshots_roundtrip_and_reject_truncation(
        seed in any::<u64>(),
        cut in 0usize..1 << 16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let registry = arbitrary_registry(&mut rng);
        let wire = registry.encode_wire();
        let decoded = MetricsRegistry::decode_wire(&wire);
        prop_assert_eq!(decoded.as_ref(), Ok(&registry));
        let cut = cut % wire.len();
        prop_assert!(
            MetricsRegistry::decode_wire(&wire[..cut]).is_err(),
            "prefix of length {} decoded",
            cut
        );
    }

    // The registry decoder is total on arbitrary and corrupted bytes.
    #[test]
    fn arbitrary_registry_bytes_never_panic(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
    ) {
        let _ = MetricsRegistry::decode_wire(&data);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire = arbitrary_registry(&mut rng).encode_wire();
        for pair in data.chunks_exact(2).take(4) {
            let at = pair[0] as usize % wire.len();
            wire[at] = pair[1];
        }
        let _ = MetricsRegistry::decode_wire(&wire);
    }

    #[test]
    fn v5_messages_roundtrip(seed in any::<u64>(), variant in 0u8..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_v5_message(variant, &mut rng);
        let decoded = ClusterMsg::decode(msg.encode());
        prop_assert_eq!(decoded.as_ref(), Some(&msg));
    }

    #[test]
    fn truncated_v5_frames_never_panic(
        seed in any::<u64>(),
        variant in 0u8..6,
        cut in 0usize..4096,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_v5_message(variant, &mut rng);
        let encoded = msg.encode();
        // Truncation anywhere strictly inside the frame must fail cleanly:
        // every strict prefix is missing at least its trailing field.
        let cut = cut % encoded.len();
        let prefix = Bytes::from(&encoded.as_slice()[..cut]);
        prop_assert!(ClusterMsg::decode(prefix).is_none());
    }

    #[test]
    fn flipped_version_is_rejected(
        seed in any::<u64>(),
        variant in 0u8..6,
        version in 0u8..=255,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_v5_message(variant, &mut rng);
        let mut bytes = msg.encode().as_slice().to_vec();
        // Byte 2 is the version (after the u16 magic); any other value
        // must be rejected up front.
        if version == bytes[2] {
            return Ok(());
        }
        bytes[2] = version;
        prop_assert!(ClusterMsg::decode(Bytes::from(bytes)).is_none());
    }
}
