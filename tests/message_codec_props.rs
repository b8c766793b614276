//! Property tests for the wire codec and the transport framing: every
//! message variant must survive encode → frame → (split) → deframe →
//! decode, and malformed/truncated bytes must be rejected without panics.
//! A golden-bytes test pins the exact encoding of every variant.

use bytes::Bytes;
use pgrid::core::key::{DataEntry, DataId, Key};
use pgrid::core::path::Path;
use pgrid::core::routing::PeerId;
use pgrid::net::message::{ExchangeOutcome, Message};
use pgrid::transport::frame::{decode_frame, encode_frame, FrameReader};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arbitrary_path(rng: &mut StdRng) -> Path {
    let len = rng.gen_range(0..=12);
    let mut path = Path::root();
    for _ in 0..len {
        path = path.child(rng.gen_bool(0.5));
    }
    path
}

fn arbitrary_entries(rng: &mut StdRng) -> Vec<DataEntry> {
    (0..rng.gen_range(0..20))
        .map(|_| DataEntry::new(Key(rng.gen()), DataId(rng.gen())))
        .collect()
}

fn arbitrary_outcome(rng: &mut StdRng) -> ExchangeOutcome {
    match rng.gen_range(0..4) {
        0 => ExchangeOutcome::Split {
            partition: arbitrary_path(rng),
            initiator_bit: rng.gen_bool(0.5),
            entries: arbitrary_entries(rng),
            complement: rng
                .gen_bool(0.5)
                .then(|| (PeerId(rng.gen()), arbitrary_path(rng))),
        },
        1 => ExchangeOutcome::Replicate {
            entries: arbitrary_entries(rng),
        },
        2 => ExchangeOutcome::Refer {
            peer: PeerId(rng.gen()),
            path: arbitrary_path(rng),
        },
        _ => ExchangeOutcome::Nothing,
    }
}

/// Number of message shapes [`arbitrary_message`] cycles through.
const VARIANTS: u8 = 13;

/// One random message; `variant` cycles so every shape is exercised no
/// matter what the seed draws.
fn arbitrary_message(variant: u8, rng: &mut StdRng) -> Message {
    match variant % VARIANTS {
        0 => Message::Join {
            peer: PeerId(rng.gen()),
        },
        1 => Message::JoinAck {
            neighbours: (0..rng.gen_range(0..16))
                .map(|_| PeerId(rng.gen()))
                .collect(),
        },
        2 => Message::Replicate {
            entries: arbitrary_entries(rng),
        },
        3 => Message::Exchange {
            from: PeerId(rng.gen()),
            path: arbitrary_path(rng),
            entries: arbitrary_entries(rng),
        },
        4 => Message::ExchangeReply {
            from: PeerId(rng.gen()),
            path: arbitrary_path(rng),
            outcome: arbitrary_outcome(rng),
        },
        5 => Message::Query {
            origin: PeerId(rng.gen()),
            id: rng.gen(),
            key: Key(rng.gen()),
            hops: rng.gen_range(0..64),
        },
        6 => Message::QueryResponse {
            id: rng.gen(),
            entries: arbitrary_entries(rng),
            hops: rng.gen_range(0..64),
            found: rng.gen_bool(0.5),
        },
        7 => Message::RangeQuery {
            origin: PeerId(rng.gen()),
            id: rng.gen(),
            lo: Key(rng.gen()),
            hi: Key(rng.gen()),
            cursor: Key(rng.gen()),
            hops: rng.gen(),
        },
        8 => Message::RangeResponse {
            id: rng.gen(),
            from: Key(rng.gen()),
            upto: Key(rng.gen()),
            entries: arbitrary_entries(rng),
            hops: rng.gen(),
        },
        9 => Message::ReplicaPull {
            origin: PeerId(rng.gen()),
        },
        10 => Message::ReplicaPush {
            path: arbitrary_path(rng),
            entries: arbitrary_entries(rng),
            routing: (0..rng.gen_range(0..8))
                .map(|_| (rng.gen(), PeerId(rng.gen()), arbitrary_path(rng)))
                .collect(),
            replicas: (0..rng.gen_range(0..8))
                .map(|_| PeerId(rng.gen()))
                .collect(),
        },
        11 => Message::ForIndex {
            index: rng.gen_range(1..=u16::MAX),
            inner: Box::new(arbitrary_message(rng.gen_range(0..10), rng)),
        },
        _ => {
            let inner = arbitrary_message(rng.gen_range(0..12), rng);
            Message::Traced {
                trace_id: rng.gen_range(1..=u64::MAX),
                inner: Box::new(inner),
            }
        }
    }
}

fn arbitrary_batch(seed: u64, count: usize) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| arbitrary_message(i as u8, &mut rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_variant_roundtrips(seed in any::<u64>(), variant in 0u8..VARIANTS) {
        let mut rng = StdRng::seed_from_u64(seed);
        let message = arbitrary_message(variant, &mut rng);
        let decoded = Message::decode(message.encode());
        prop_assert_eq!(decoded.as_ref(), Some(&message));
    }

    // Every strict prefix of a valid encoding is rejected: each one is
    // missing at least its trailing field.
    #[test]
    fn truncated_messages_are_rejected(
        seed in any::<u64>(),
        variant in 0u8..VARIANTS,
        cut in 0usize..4096,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let encoded = arbitrary_message(variant, &mut rng).encode();
        let cut = cut % encoded.len();
        let prefix = Bytes::from(&encoded.as_slice()[..cut]);
        prop_assert!(Message::decode(prefix).is_none(), "prefix of length {} decoded", cut);
    }

    // The decoder is total: arbitrary bytes, and valid encodings with
    // bytes overwritten deep inside, decode or fail but never panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
        variant in 0u8..VARIANTS,
    ) {
        let _ = Message::decode(Bytes::from(data.clone()));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire = arbitrary_message(variant, &mut rng).encode().as_slice().to_vec();
        for pair in data.chunks_exact(2).take(4) {
            let at = pair[0] as usize % wire.len();
            wire[at] = pair[1];
        }
        let _ = Message::decode(Bytes::from(wire));
    }

    #[test]
    fn multi_message_batches_roundtrip_through_frames(seed in any::<u64>(), count in 0usize..12) {
        let batch = arbitrary_batch(seed, count);
        let payloads: Vec<Bytes> = batch.iter().map(Message::encode).collect();
        let frame = encode_frame(&payloads);
        let recovered = decode_frame(&frame).expect("own frames must decode");
        prop_assert_eq!(recovered.len(), batch.len());
        for (payload, original) in recovered.into_iter().zip(&batch) {
            let decoded = Message::decode(payload);
            prop_assert_eq!(decoded.as_ref(), Some(original));
        }
    }

    #[test]
    fn frames_split_at_arbitrary_boundaries_reassemble(
        seed in any::<u64>(),
        frames in 1usize..5,
        chunk in 1usize..97,
    ) {
        let mut stream = Vec::new();
        let mut sent = Vec::new();
        for f in 0..frames {
            let batch = arbitrary_batch(seed.wrapping_add(f as u64), f + 1);
            let payloads: Vec<Bytes> = batch.iter().map(Message::encode).collect();
            let frame = encode_frame(&payloads);
            stream.extend_from_slice(frame.as_slice());
            sent.push(batch);
        }
        let mut reader = FrameReader::new();
        let mut received = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.extend(piece);
            while let Some(frame) = reader.next_frame().expect("valid stream") {
                let batch: Vec<Message> = decode_frame(&frame)
                    .expect("complete frame")
                    .into_iter()
                    .map(|p| Message::decode(p).expect("valid payload"))
                    .collect();
                received.push(batch);
            }
        }
        prop_assert_eq!(reader.buffered(), 0);
        prop_assert_eq!(received, sent);
    }

    #[test]
    fn truncated_frames_are_incomplete_never_garbage(seed in any::<u64>(), keep in 0usize..64) {
        let batch = arbitrary_batch(seed, 3);
        let payloads: Vec<Bytes> = batch.iter().map(Message::encode).collect();
        let frame = encode_frame(&payloads);
        let keep = keep.min(frame.len().saturating_sub(1));
        // decode_frame on a truncated frame must error out, not panic.
        let truncated = Bytes::from(&frame.as_slice()[..keep]);
        prop_assert!(decode_frame(&truncated).is_err());
        // The incremental reader must simply wait for the rest.
        let mut reader = FrameReader::new();
        reader.extend(truncated.as_slice());
        prop_assert_eq!(reader.next_frame().expect("prefix of a valid frame"), None);
        reader.extend(&frame.as_slice()[keep..]);
        prop_assert_eq!(reader.next_frame().expect("now complete"), Some(frame));
    }
}

/// Asserts `message` encodes to exactly the concatenation of `fields` and
/// decodes back from those bytes.
fn assert_golden(message: Message, fields: &[&[u8]]) {
    let expected: Vec<u8> = fields.concat();
    assert_eq!(
        message.encode().as_slice(),
        expected.as_slice(),
        "encoding of {message:?}"
    );
    assert_eq!(Message::decode(Bytes::from(expected)), Some(message));
}

/// Pins the peer-protocol wire format byte for byte: one hand-built
/// instance of every message variant (and every exchange outcome) with its
/// exact big-endian encoding.  The loopback trajectories, the maintenance
/// byte counts and the figures reference all depend on these bytes, so a
/// codec refactor must leave this test passing unedited.
#[test]
fn every_message_variant_has_pinned_golden_bytes() {
    const PEER_7: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 7];
    const PEER_9: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 9];
    // Path "0110": u8 length, then the bits left-aligned in a u64.
    const PATH_0110: &[u8] = &[4, 0x60, 0, 0, 0, 0, 0, 0, 0];
    // Path "1": one bit set at the top.
    const PATH_1: &[u8] = &[1, 0x80, 0, 0, 0, 0, 0, 0, 0];
    const PATH_ROOT: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 0, 0];
    // Two entries: u32 count, then (key u64, id u64) pairs.
    const TWO_ENTRIES: &[u8] = &[
        0, 0, 0, 2, //
        0, 0, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0, 0, 0, 0x0a, //
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x0b,
    ];
    const NO_ENTRIES: &[u8] = &[0, 0, 0, 0];
    let two_entries = || {
        vec![
            DataEntry::new(Key(0x0102), DataId(10)),
            DataEntry::new(Key(u64::MAX), DataId(11)),
        ]
    };
    let query = || Message::Query {
        origin: PeerId(7),
        id: 0x0102_0304_0506_0708,
        key: Key(1 << 63),
        hops: 3,
    };
    const QUERY: &[&[u8]] = &[
        &[5],
        PEER_7,
        &[1, 2, 3, 4, 5, 6, 7, 8],
        &[0x80, 0, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 3],
    ];

    assert_golden(Message::Join { peer: PeerId(7) }, &[&[0], PEER_7]);
    assert_golden(
        Message::JoinAck {
            neighbours: vec![PeerId(7), PeerId(9)],
        },
        &[&[1], &[0, 0, 0, 2], PEER_7, PEER_9],
    );
    assert_golden(
        Message::Replicate {
            entries: two_entries(),
        },
        &[&[2], TWO_ENTRIES],
    );
    assert_golden(
        Message::Exchange {
            from: PeerId(7),
            path: Path::parse("0110"),
            entries: two_entries(),
        },
        &[&[3], PEER_7, PATH_0110, TWO_ENTRIES],
    );
    assert_golden(
        Message::ExchangeReply {
            from: PeerId(9),
            path: Path::parse("0110"),
            outcome: ExchangeOutcome::Split {
                partition: Path::parse("1"),
                initiator_bit: true,
                entries: two_entries(),
                complement: Some((PeerId(7), Path::root())),
            },
        },
        &[
            &[4],
            PEER_9,
            PATH_0110,
            &[0],
            PATH_1,
            &[1],
            TWO_ENTRIES,
            &[1],
            PEER_7,
            PATH_ROOT,
        ],
    );
    assert_golden(
        Message::ExchangeReply {
            from: PeerId(9),
            path: Path::root(),
            outcome: ExchangeOutcome::Split {
                partition: Path::root(),
                initiator_bit: false,
                entries: Vec::new(),
                complement: None,
            },
        },
        &[
            &[4],
            PEER_9,
            PATH_ROOT,
            &[0],
            PATH_ROOT,
            &[0],
            NO_ENTRIES,
            &[0],
        ],
    );
    assert_golden(
        Message::ExchangeReply {
            from: PeerId(9),
            path: Path::parse("1"),
            outcome: ExchangeOutcome::Replicate {
                entries: two_entries(),
            },
        },
        &[&[4], PEER_9, PATH_1, &[1], TWO_ENTRIES],
    );
    assert_golden(
        Message::ExchangeReply {
            from: PeerId(9),
            path: Path::parse("1"),
            outcome: ExchangeOutcome::Refer {
                peer: PeerId(7),
                path: Path::parse("0110"),
            },
        },
        &[&[4], PEER_9, PATH_1, &[2], PEER_7, PATH_0110],
    );
    assert_golden(
        Message::ExchangeReply {
            from: PeerId(9),
            path: Path::parse("1"),
            outcome: ExchangeOutcome::Nothing,
        },
        &[&[4], PEER_9, PATH_1, &[3]],
    );
    assert_golden(query(), QUERY);
    assert_golden(
        Message::QueryResponse {
            id: 0x0102_0304_0506_0708,
            entries: two_entries(),
            hops: 4,
            found: true,
        },
        &[
            &[6],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            TWO_ENTRIES,
            &[0, 0, 0, 4],
            &[1],
        ],
    );
    assert_golden(
        Message::ForIndex {
            index: 0x0203,
            inner: Box::new(query()),
        },
        &[&[&[7u8, 2, 3][..]], QUERY].concat(),
    );
    assert_golden(
        Message::RangeQuery {
            origin: PeerId(9),
            id: 5,
            lo: Key(1),
            hi: Key(u64::MAX),
            cursor: Key(0x100),
            hops: 2,
        },
        &[
            &[8],
            PEER_9,
            &[0, 0, 0, 0, 0, 0, 0, 5],
            &[0, 0, 0, 0, 0, 0, 0, 1],
            &[0xff; 8],
            &[0, 0, 0, 0, 0, 0, 1, 0],
            &[0, 0, 0, 2],
        ],
    );
    assert_golden(
        Message::RangeResponse {
            id: 5,
            from: Key(0x100),
            upto: Key(0x1ff),
            entries: two_entries(),
            hops: 6,
        },
        &[
            &[9],
            &[0, 0, 0, 0, 0, 0, 0, 5],
            &[0, 0, 0, 0, 0, 0, 1, 0],
            &[0, 0, 0, 0, 0, 0, 1, 0xff],
            TWO_ENTRIES,
            &[0, 0, 0, 6],
        ],
    );
    assert_golden(
        Message::Traced {
            trace_id: 0x0a0b,
            inner: Box::new(query()),
        },
        &[&[&[10u8, 0, 0, 0, 0, 0, 0, 0x0a, 0x0b][..]], QUERY].concat(),
    );
    assert_golden(
        Message::Traced {
            trace_id: 1,
            inner: Box::new(Message::ForIndex {
                index: 2,
                inner: Box::new(query()),
            }),
        },
        &[&[&[10u8, 0, 0, 0, 0, 0, 0, 0, 1][..], &[7, 0, 2]], QUERY].concat(),
    );
    assert_golden(Message::ReplicaPull { origin: PeerId(9) }, &[&[11], PEER_9]);
    assert_golden(
        Message::ReplicaPush {
            path: Path::parse("0110"),
            entries: two_entries(),
            routing: vec![
                (0, PeerId(7), Path::parse("1")),
                (3, PeerId(9), Path::root()),
            ],
            replicas: vec![PeerId(9)],
        },
        &[
            &[12],
            PATH_0110,
            TWO_ENTRIES,
            &[0, 0, 0, 2],
            &[0],
            PEER_7,
            PATH_1,
            &[3],
            PEER_9,
            PATH_ROOT,
            &[0, 0, 0, 1],
            PEER_9,
        ],
    );
}
