//! Logical journal records and their wire codec.
//!
//! Each record is one self-delimiting payload of a log segment (the
//! checksum lives in the segment framing, not here).  Replay is
//! last-writer-wins per component, which is what makes compaction and
//! torn-tail truncation safe: a full image can always be re-applied, a
//! delta applies on top of whatever image replay has built so far.

use pgrid_core::key::DataEntry;
use pgrid_core::path::Path;
use pgrid_core::wire::{Reader, WireError, WireResult, Writer, NO_CAP, PATH_BYTES};

/// Worker-level metadata: which shard this log belongs to and how far
/// the run had progressed at the last sync.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaImage {
    /// First hosted peer index.
    pub shard_start: u32,
    /// Number of hosted peers.
    pub shard_len: u32,
    /// Control-plane membership epoch at the last sync.
    pub epoch: u64,
    /// Last phase barrier this worker passed.
    pub phase: u8,
    /// Virtual time at the last sync, in milliseconds.
    pub now_ms: u64,
    /// Seed of the deployment config (guards against replaying a log
    /// into a different run).
    pub seed: u64,
}

/// A full per-peer image: path, entries, routing references, replicas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerImage {
    /// The peer's trie path.
    pub path: Path,
    /// Every stored entry.
    pub entries: Vec<DataEntry>,
    /// Routing references as `(level, peer, path)`.
    pub routing: Vec<(u8, u64, Path)>,
    /// Replica peers of this peer's partition.
    pub replicas: Vec<u64>,
}

/// The parts of a peer's state that changed since its last journaled
/// image; `None` components are unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerDelta {
    /// New path, if it changed.
    pub path: Option<Path>,
    /// Entries added to the store.
    pub added: Vec<DataEntry>,
    /// Entries removed from the store (split handovers, drains).
    pub removed: Vec<DataEntry>,
    /// Full routing image, if any reference changed.
    pub routing: Option<Vec<(u8, u64, Path)>>,
    /// Full replica set, if it changed.
    pub replicas: Option<Vec<u64>>,
}

impl PeerDelta {
    /// Whether the delta carries no change at all.
    pub fn is_empty(&self) -> bool {
        self.path.is_none()
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.routing.is_none()
            && self.replicas.is_none()
    }
}

/// One journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Worker metadata (shard identity, run progress).
    Meta(MetaImage),
    /// A full image of one peer on one index — written the first time a
    /// peer is observed and by every compaction checkpoint.
    Image {
        /// Index id.
        index: u32,
        /// Peer index.
        peer: u32,
        /// The image.
        image: PeerImage,
    },
    /// A delta against the peer's last journaled state.  One `observe`
    /// emits at most one delta, so every record boundary is a consistent
    /// cut of that peer's state.
    Delta {
        /// Index id.
        index: u32,
        /// Peer index.
        peer: u32,
        /// The changes.
        delta: PeerDelta,
    },
}

const TAG_META: u8 = 1;
const TAG_IMAGE: u8 = 2;
const TAG_DELTA: u8 = 3;

const DELTA_PATH: u8 = 1;
const DELTA_ROUTING: u8 = 2;
const DELTA_REPLICAS: u8 = 4;

impl Record {
    /// Encodes the record as one segment payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            Record::Meta(meta) => {
                w.u8(TAG_META);
                w.u32(meta.shard_start);
                w.u32(meta.shard_len);
                w.u64(meta.epoch);
                w.u8(meta.phase);
                w.u64(meta.now_ms);
                w.u64(meta.seed);
            }
            Record::Image { index, peer, image } => {
                w.u8(TAG_IMAGE);
                w.u32(*index);
                w.u32(*peer);
                w.path(&image.path);
                w.entries(&image.entries);
                put_routing(&mut w, &image.routing);
                put_peers(&mut w, &image.replicas);
            }
            Record::Delta { index, peer, delta } => {
                w.u8(TAG_DELTA);
                w.u32(*index);
                w.u32(*peer);
                let mut flags = 0u8;
                if delta.path.is_some() {
                    flags |= DELTA_PATH;
                }
                if delta.routing.is_some() {
                    flags |= DELTA_ROUTING;
                }
                if delta.replicas.is_some() {
                    flags |= DELTA_REPLICAS;
                }
                w.u8(flags);
                if let Some(path) = &delta.path {
                    w.path(path);
                }
                w.entries(&delta.added);
                w.entries(&delta.removed);
                if let Some(routing) = &delta.routing {
                    put_routing(&mut w, routing);
                }
                if let Some(replicas) = &delta.replicas {
                    put_peers(&mut w, replicas);
                }
            }
        }
        w.into_vec()
    }

    /// Decodes one segment payload.  The payload passed its checksum, so
    /// a decode failure means a format mismatch, not crash damage.
    pub fn decode(buf: &[u8]) -> Result<Record, WireError> {
        let mut r = Reader::new(buf);
        let record = match r.u8()? {
            TAG_META => Record::Meta(MetaImage {
                shard_start: r.u32()?,
                shard_len: r.u32()?,
                epoch: r.u64()?,
                phase: r.u8()?,
                now_ms: r.u64()?,
                seed: r.u64()?,
            }),
            TAG_IMAGE => Record::Image {
                index: r.u32()?,
                peer: r.u32()?,
                image: PeerImage {
                    path: r.path()?,
                    entries: r.entries(NO_CAP)?,
                    routing: get_routing(&mut r)?,
                    replicas: get_peers(&mut r)?,
                },
            },
            TAG_DELTA => {
                let index = r.u32()?;
                let peer = r.u32()?;
                let flags = r.u8()?;
                Record::Delta {
                    index,
                    peer,
                    delta: PeerDelta {
                        path: if flags & DELTA_PATH != 0 {
                            Some(r.path()?)
                        } else {
                            None
                        },
                        added: r.entries(NO_CAP)?,
                        removed: r.entries(NO_CAP)?,
                        routing: if flags & DELTA_ROUTING != 0 {
                            Some(get_routing(&mut r)?)
                        } else {
                            None
                        },
                        replicas: if flags & DELTA_REPLICAS != 0 {
                            Some(get_peers(&mut r)?)
                        } else {
                            None
                        },
                    },
                }
            }
            tag => return Err(WireError::Invalid(format!("record tag {tag}"))),
        };
        r.finish()?;
        Ok(record)
    }
}

fn put_routing(w: &mut Writer, routing: &[(u8, u64, Path)]) {
    w.count(routing.len());
    for (level, peer, path) in routing {
        w.u8(*level);
        w.u64(*peer);
        w.path(path);
    }
}

fn put_peers(w: &mut Writer, peers: &[u64]) {
    w.count(peers.len());
    for p in peers {
        w.u64(*p);
    }
}

fn get_routing(r: &mut Reader<'_>) -> WireResult<Vec<(u8, u64, Path)>> {
    let n = r.count(NO_CAP, 1 + 8 + PATH_BYTES)?;
    let mut routing = Vec::with_capacity(n);
    for _ in 0..n {
        routing.push((r.u8()?, r.u64()?, r.path()?));
    }
    Ok(routing)
}

fn get_peers(r: &mut Reader<'_>) -> WireResult<Vec<u64>> {
    let n = r.count(NO_CAP, 8)?;
    let mut peers = Vec::with_capacity(n);
    for _ in 0..n {
        peers.push(r.u64()?);
    }
    Ok(peers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_core::key::{DataId, Key};

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Meta(MetaImage {
                shard_start: 10,
                shard_len: 11,
                epoch: 3,
                phase: 2,
                now_ms: 600_000,
                seed: 0xBEEF,
            }),
            Record::Image {
                index: 0,
                peer: 12,
                image: PeerImage {
                    path: Path::parse("0110"),
                    entries: vec![
                        DataEntry {
                            key: Key(42),
                            id: DataId(7),
                        },
                        DataEntry {
                            key: Key(u64::MAX),
                            id: DataId(0),
                        },
                    ],
                    routing: vec![(0, 3, Path::parse("1")), (1, 5, Path::parse("00"))],
                    replicas: vec![3, 9],
                },
            },
            Record::Delta {
                index: 1,
                peer: 12,
                delta: PeerDelta {
                    path: Some(Path::parse("01101")),
                    added: vec![DataEntry {
                        key: Key(1),
                        id: DataId(2),
                    }],
                    removed: vec![],
                    routing: None,
                    replicas: Some(vec![4]),
                },
            },
            Record::Delta {
                index: 0,
                peer: 0,
                delta: PeerDelta::default(),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in sample_records() {
            let decoded = Record::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        for record in sample_records() {
            let wire = record.encode();
            for cut in 0..wire.len() {
                assert!(
                    Record::decode(&wire[..cut]).is_err(),
                    "prefix of length {cut} decoded"
                );
            }
            let mut extra = wire.clone();
            extra.push(0);
            assert!(Record::decode(&extra).is_err());
        }
    }
}
