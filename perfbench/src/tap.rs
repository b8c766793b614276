//! A timing wrapper around the loopback transport.
//!
//! [`TappedLoopback`] forwards every [`Transport`] call to a
//! [`LoopbackTransport`] built with the exact configuration
//! `Runtime::new` uses, and records around each call: the wall time spent
//! inside `send`/`poll` (the transport layer's span), the frames and bytes
//! that crossed it, the largest number of frames in flight, and a uniform
//! sample of up to [`SAMPLE_CAP`] of the frames sent, which the codec replay
//! decodes later.  It draws only from its own random stream, never from the
//! runtime's, so a run over the wrapper follows the same trajectory as a
//! run over the bare transport.

use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_net::runtime::NetConfig;
use pgrid_transport::loopback::{LoopbackConfig, LoopbackTransport};
use pgrid_transport::{LinkFault, Millis, PeerAddr, Transport, TransportError, TransportStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Frames kept for the codec replay (a reservoir sample over every frame
/// sent while recording).
pub const SAMPLE_CAP: usize = 20_000;

/// What the tap measured.
#[derive(Clone, Debug, Default)]
pub struct TapStats {
    /// Wall time spent inside `send`/`send_from`.
    pub send: Duration,
    /// Wall time spent inside `poll`.
    pub poll: Duration,
    /// Frames handed to the transport.
    pub frames_sent: u64,
    /// Frame bytes handed to the transport.
    pub bytes_sent: u64,
    /// Largest `in_flight()` seen after a send.
    pub in_flight_max: usize,
}

/// The benchmark-owned transport wrapper.
pub struct TappedLoopback {
    inner: LoopbackTransport,
    /// Whether counters and samples are being collected (only inside
    /// measured windows).
    pub recording: bool,
    /// Counters of the recorded windows.
    pub stats: TapStats,
    /// Reservoir sample of the frames sent while recording.
    pub samples: Vec<Bytes>,
    sampler: StdRng,
}

/// The loopback configuration `Runtime::new` derives from `config`.
pub fn loopback_config(config: &NetConfig) -> LoopbackConfig {
    LoopbackConfig {
        latency_min_ms: config.latency_min_ms,
        latency_max_ms: config.latency_max_ms,
        seed: config.seed ^ 0x7A4E,
    }
}

impl TappedLoopback {
    /// Wraps a loopback transport configured exactly as `Runtime::new`
    /// configures its own.
    pub fn for_config(config: &NetConfig) -> TappedLoopback {
        TappedLoopback {
            inner: LoopbackTransport::new(loopback_config(config)),
            recording: false,
            stats: TapStats::default(),
            samples: Vec::new(),
            sampler: StdRng::seed_from_u64(config.seed ^ 0x7A9),
        }
    }

    fn record_send(&mut self, frame: &Bytes) {
        if !self.recording {
            return;
        }
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(frame.clone());
        } else {
            let slot = self.sampler.gen_range(0..self.stats.frames_sent) as usize;
            if slot < SAMPLE_CAP {
                self.samples[slot] = frame.clone();
            }
        }
    }

    fn timed<R>(&mut self, poll: bool, f: impl FnOnce(&mut LoopbackTransport) -> R) -> R {
        if !self.recording {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let out = f(&mut self.inner);
        let spent = start.elapsed();
        if poll {
            self.stats.poll += spent;
        } else {
            self.stats.send += spent;
            self.stats.in_flight_max = self.stats.in_flight_max.max(self.inner.in_flight());
        }
        out
    }
}

impl Transport for TappedLoopback {
    fn register(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        self.inner.register(peer)
    }

    fn send(&mut self, now: Millis, to: PeerId, frame: Bytes) -> Result<(), TransportError> {
        self.record_send(&frame);
        self.timed(false, |inner| inner.send(now, to, frame))
    }

    fn send_from(
        &mut self,
        now: Millis,
        from: PeerId,
        to: PeerId,
        frame: Bytes,
    ) -> Result<(), TransportError> {
        self.record_send(&frame);
        self.timed(false, |inner| inner.send_from(now, from, to, frame))
    }

    fn inject_fault(&mut self, fault: LinkFault) -> bool {
        self.inner.inject_fault(fault)
    }

    fn poll(&mut self, now: Millis) -> Vec<(PeerId, Bytes)> {
        self.timed(true, |inner| inner.poll(now))
    }

    fn next_due(&self) -> Option<Millis> {
        self.inner.next_due()
    }

    fn is_realtime(&self) -> bool {
        self.inner.is_realtime()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn addr_of(&self, peer: PeerId) -> Option<PeerAddr> {
        self.inner.addr_of(peer)
    }
}
