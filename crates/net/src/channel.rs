//! In-process duplex transport with length-prefixed framing.
//!
//! The protocol's serialize → frame → deliver → parse path runs for real;
//! only the wire is substituted (crossbeam channels instead of TCP). An
//! optional simulated latency per delivery lets integration tests model a
//! WAN without sleeping for real seconds.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use rbc_telemetry::{wall_clock, ClockHandle, SIM_POLL_TICK};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::telemetry::NetTelemetry;

/// Transport failures.
#[derive(Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint was dropped.
    Disconnected,
    /// No message arrived within the receive timeout.
    Timeout,
    /// The payload failed to parse as the expected message type.
    Decode(String),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Timeout => write!(f, "receive timeout"),
            TransportError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Serializes a message into a frame's payload.
pub(crate) fn encode<M: Serialize>(msg: &M) -> Result<Vec<u8>, TransportError> {
    serde_json::to_vec(msg).map_err(|e| TransportError::Decode(e.to_string()))
}

/// One side of a duplex message link.
pub struct Endpoint {
    tx: Sender<(Instant, Bytes)>,
    rx: Receiver<(Instant, Bytes)>,
    /// Accumulated simulated wire time (frames × modelled latency); real
    /// delivery is instantaneous.
    simulated_latency: Duration,
    per_frame_latency: Duration,
    frames_sent: u64,
    bytes_sent: u64,
    telemetry: Option<NetTelemetry>,
    clock: ClockHandle,
    /// Frames pulled off the channel before their virtual delivery time
    /// (sim receive path only — the wall path reads the channel directly).
    stash: Mutex<VecDeque<(Instant, Bytes)>>,
}

/// Creates a connected pair of endpoints. `per_frame_latency` is *recorded*
/// per send (for end-to-end accounting) rather than slept.
pub fn duplex(per_frame_latency: Duration) -> (Endpoint, Endpoint) {
    duplex_with_clock(per_frame_latency, wall_clock())
}

/// [`duplex`] on an explicit clock. On a virtual clock the latency model
/// becomes *causal*: each frame is stamped `send + per_frame_latency` and
/// the receiver blocks (in virtual time) until that instant, so wire delay
/// interleaves with deadlines instead of being accounted after the fact.
pub fn duplex_with_clock(per_frame_latency: Duration, clock: ClockHandle) -> (Endpoint, Endpoint) {
    let (atx, brx) = unbounded();
    let (btx, arx) = unbounded();
    let make = |tx, rx, clock: &ClockHandle| Endpoint {
        tx,
        rx,
        simulated_latency: Duration::ZERO,
        per_frame_latency,
        frames_sent: 0,
        bytes_sent: 0,
        telemetry: None,
        clock: clock.clone(),
        stash: Mutex::new(VecDeque::new()),
    };
    (make(atx, arx, &clock), make(btx, brx, &clock))
}

impl Endpoint {
    /// Serializes, frames and sends a message.
    pub fn send<M: Serialize>(&mut self, msg: &M) -> Result<(), TransportError> {
        self.send_payload(&encode(msg)?)
    }

    /// Frames and sends an already serialized message.
    pub(crate) fn send_payload(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let mut frame = BytesMut::with_capacity(4 + payload.len());
        frame.put_u32(payload.len() as u32);
        frame.put_slice(payload);
        self.frames_sent += 1;
        self.bytes_sent += frame.len() as u64;
        if let Some(t) = &self.telemetry {
            t.frames_sent.inc();
            t.bytes_sent.add(frame.len() as u64);
        }
        self.simulated_latency += self.per_frame_latency;
        let deliver_at = self.clock.now() + self.per_frame_latency;
        self.tx.send((deliver_at, frame.freeze())).map_err(|_| TransportError::Disconnected)
    }

    /// Receives and parses the next message, waiting up to `timeout`.
    pub fn recv<M: DeserializeOwned>(&self, timeout: Duration) -> Result<M, TransportError> {
        let mut frame = if self.clock.is_virtual() {
            self.recv_frame_virtual(timeout)?
        } else {
            // Wall clock: delivery is instantaneous and the stamped
            // latency stays pure accounting, exactly as before.
            match self.rx.recv_timeout(timeout) {
                Ok((_, f)) => f,
                Err(RecvTimeoutError::Timeout) => return Err(TransportError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Disconnected),
            }
        };
        if frame.len() < 4 {
            return Err(TransportError::Decode("short frame".into()));
        }
        let len = frame.get_u32() as usize;
        if frame.len() != len {
            return Err(TransportError::Decode(format!(
                "length mismatch: header {len}, body {}",
                frame.len()
            )));
        }
        serde_json::from_slice(&frame).map_err(|e| TransportError::Decode(e.to_string()))
    }

    /// Virtual-time receive: frames become visible only at their stamped
    /// delivery instant. Frames popped early wait in `stash` (channel FIFO
    /// order is preserved — one sender, constant latency, monotone clock),
    /// so a frame still "in flight" past this call's deadline is delivered
    /// by a later call rather than lost.
    fn recv_frame_virtual(&self, timeout: Duration) -> Result<Bytes, TransportError> {
        let deadline = self.clock.now() + timeout;
        // Idle back-off: an endpoint parked on an empty channel has no
        // delivery instant to wake at, so it polls — starting at tick
        // granularity, doubling while nothing arrives. Coarser idle
        // wakes cost a little delivery precision on the first frame
        // after a lull but keep a simulation with many quiet endpoints
        // from burning one wake per actor per virtual millisecond.
        let mut idle_tick = SIM_POLL_TICK;
        loop {
            let disconnected = loop {
                match self.rx.try_recv() {
                    Ok(f) => self.stash.lock().unwrap().push_back(f),
                    Err(TryRecvError::Empty) => break false,
                    Err(TryRecvError::Disconnected) => break true,
                }
            };
            let head_at = self.stash.lock().unwrap().front().map(|(at, _)| *at);
            let now = self.clock.now();
            match head_at {
                Some(at) if at <= now => {
                    return Ok(self.stash.lock().unwrap().pop_front().expect("head present").1);
                }
                Some(at) if at <= deadline => self.clock.sleep_until(at),
                Some(_) => return Err(TransportError::Timeout),
                None if disconnected => return Err(TransportError::Disconnected),
                None if now >= deadline => return Err(TransportError::Timeout),
                None => {
                    self.clock.sleep(idle_tick.min(deadline - now));
                    idle_tick = (idle_tick * 2).min(32 * SIM_POLL_TICK);
                }
            }
        }
    }

    /// The clock this endpoint waits on.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// Mirrors this endpoint's send accounting into shared `rbc_net_*`
    /// counters (in addition to the local accessors below).
    pub fn attach_telemetry(&mut self, telemetry: NetTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Total simulated wire latency accumulated by this endpoint's sends.
    pub fn simulated_latency(&self) -> Duration {
        self.simulated_latency
    }

    /// Frames sent.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Bytes sent (framing included).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Ping {
        n: u32,
        tag: String,
    }

    #[test]
    fn roundtrip() {
        let (mut a, b) = duplex(Duration::ZERO);
        a.send(&Ping { n: 7, tag: "hello".into() }).unwrap();
        let got: Ping = b.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(got, Ping { n: 7, tag: "hello".into() });
    }

    #[test]
    fn duplex_both_directions() {
        let (mut a, mut b) = duplex(Duration::ZERO);
        a.send(&1u32).unwrap();
        b.send(&2u32).unwrap();
        assert_eq!(b.recv::<u32>(Duration::from_secs(1)).unwrap(), 1);
        assert_eq!(a.recv::<u32>(Duration::from_secs(1)).unwrap(), 2);
    }

    #[test]
    fn timeout_when_silent() {
        let (a, _b) = duplex(Duration::ZERO);
        let err = a.recv::<u32>(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, TransportError::Timeout);
    }

    #[test]
    fn disconnected_peer_detected() {
        let (mut a, b) = duplex(Duration::ZERO);
        drop(b);
        assert_eq!(a.send(&1u32).unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn wrong_type_is_decode_error() {
        let (mut a, b) = duplex(Duration::ZERO);
        a.send(&"a string").unwrap();
        let err = b.recv::<u32>(Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, TransportError::Decode(_)));
    }

    #[test]
    fn latency_accounting_accumulates() {
        let (mut a, _b) = duplex(Duration::from_millis(130));
        a.send(&1u32).unwrap();
        a.send(&2u32).unwrap();
        assert_eq!(a.simulated_latency(), Duration::from_millis(260));
        assert_eq!(a.frames_sent(), 2);
        assert!(a.bytes_sent() > 8);
    }

    #[test]
    fn messages_preserve_order() {
        let (mut a, b) = duplex(Duration::ZERO);
        for i in 0..100u32 {
            a.send(&i).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(b.recv::<u32>(Duration::from_secs(1)).unwrap(), i);
        }
    }

    /// Hostile frames for each of the four protocol messages: whatever
    /// arrives, `recv` returns a message or [`TransportError::Decode`] —
    /// it never panics, and never allocates from a length header (the
    /// header is only compared with the frame already received).
    mod hostile {
        use super::*;
        use proptest::prelude::*;
        use rbc_core::protocol::{ChallengeMsg, DigestMsg, HelloMsg, Verdict, VerdictMsg};
        use rbc_hash::{DynDigest, HashAlgo};
        use rbc_telemetry::TraceContext;
        use std::fmt::Debug;

        /// Delivers `raw` as one frame, bypassing `send`'s framing.
        fn deliver<M: DeserializeOwned>(raw: &[u8]) -> Result<M, TransportError> {
            let (a, b) = duplex(Duration::ZERO);
            a.tx.send((Instant::now(), Bytes::copy_from_slice(raw))).expect("peer alive");
            b.recv(Duration::from_secs(1))
        }

        fn framed(header: u32, payload: &[u8]) -> Vec<u8> {
            let mut f = header.to_be_bytes().to_vec();
            f.extend_from_slice(payload);
            f
        }

        fn assert_decode_error<M: DeserializeOwned + Debug>(raw: &[u8], what: &str) {
            match deliver::<M>(raw) {
                Err(TransportError::Decode(_)) => {}
                other => panic!("{what}: expected a decode error, got {other:?}"),
            }
        }

        /// A message or a decode error; anything else (a timeout, a
        /// disconnect) would mean the frame was lost.
        fn assert_message_or_decode_error<M: DeserializeOwned + Debug>(raw: &[u8], what: &str) {
            match deliver::<M>(raw) {
                Ok(_) | Err(TransportError::Decode(_)) => {}
                Err(e) => panic!("{what}: {e:?}"),
            }
        }

        /// Characters spliced into a valid payload: multi-byte scalars,
        /// JSON structure, escapes and out-of-range numbers.
        const SPLICES: [&str; 12] =
            ["é", "😀", "\"", "\\", "{", "]", ",", "\\u", "\\ud800", "-", "1e999", "null"];

        fn hostile_frames<M>(msg: &M, noise: &[u8], at: usize, splice: usize)
        where
            M: Serialize + DeserializeOwned + PartialEq + Debug,
        {
            let payload = serde_json::to_vec(msg).expect("serializes");
            let len = payload.len() as u32;
            let valid = framed(len, &payload);
            assert_eq!(&deliver::<M>(&valid).expect("a valid frame decodes"), msg);

            for cut in 0..valid.len() {
                assert_decode_error::<M>(&valid[..cut], "truncated frame");
            }
            for header in [0, len - 1, len + 1, len.saturating_mul(2), u32::MAX] {
                assert_decode_error::<M>(&framed(header, &payload), "lying header");
            }
            assert_message_or_decode_error::<M>(noise, "random bytes");
            assert_message_or_decode_error::<M>(
                &framed(noise.len() as u32, noise),
                "random payload",
            );
            // Every position gets a splice, rotating through the list
            // from a per-case offset.
            for at in 0..=payload.len() {
                let mut spliced = payload.clone();
                spliced.splice(at..at, SPLICES[(splice + at) % SPLICES.len()].bytes());
                assert_message_or_decode_error::<M>(
                    &framed(spliced.len() as u32, &spliced),
                    "spliced payload",
                );
            }
            let mut flipped = payload;
            let i = at % flipped.len();
            flipped[i] = noise.first().copied().unwrap_or(0xFF);
            assert_message_or_decode_error::<M>(
                &framed(flipped.len() as u32, &flipped),
                "flipped byte",
            );
            let deep = "[".repeat(1 << 18);
            assert_decode_error::<M>(&framed(deep.len() as u32, deep.as_bytes()), "deep nesting");
        }

        /// An accepted verdict whose `public_key` is `key`, spliced raw
        /// into the JSON, as one frame.
        fn verdict_with_key(key: &str) -> Vec<u8> {
            let payload = format!(
                r#"{{"session":1,"verdict":{{"Accepted":{{"distance":1,"public_key":{key}}}}},"trace":{{"trace_id":2,"parent_span":3}}}}"#
            );
            framed(payload.len() as u32, payload.as_bytes())
        }

        #[test]
        fn malformed_public_keys_are_decode_errors() {
            let valid = verdict_with_key(r#""00ff""#);
            let msg = deliver::<VerdictMsg>(&valid).expect("a hex key decodes");
            assert_eq!(msg.verdict, Verdict::Accepted { distance: 1, public_key: vec![0, 0xff] });
            for (key, what) in [
                (r#""0ff""#, "odd length"),
                (r#""00fg""#, "non-hex ASCII"),
                (r#""0é0""#, "a multi-byte character across two pairs"),
                (r#""é""#, "a multi-byte character filling one pair"),
                ("[0,255]", "the old array form"),
            ] {
                assert_decode_error::<VerdictMsg>(&verdict_with_key(key), what);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn hostile_frames_never_panic(
                id in any::<u64>(),
                session in any::<u64>(),
                trace_id in any::<u64>(),
                digest in any::<[u8; 32]>(),
                noise in proptest::collection::vec(any::<u8>(), 0..96),
                at in any::<usize>(),
                splice in 0usize..SPLICES.len(),
                pick in 0usize..4,
            ) {
                let trace = TraceContext { trace_id, parent_span: session };
                let algo = if id.is_multiple_of(2) { HashAlgo::Sha1 } else { HashAlgo::Sha3_256 };
                let digest = DynDigest::from_slice(&digest[..algo.digest_len()]);
                hostile_frames(&HelloMsg { client_id: id, trace }, &noise, at, splice);
                hostile_frames(
                    &ChallengeMsg {
                        client_id: id,
                        session,
                        cells: vec![id as u32, session as u32, 7],
                        algo,
                        trace,
                    },
                    &noise,
                    at,
                    splice,
                );
                hostile_frames(
                    &DigestMsg { client_id: id, session, digest, trace },
                    &noise,
                    at,
                    splice,
                );
                let verdict = match pick {
                    0 => Verdict::Accepted { distance: 2, public_key: digest.as_bytes().to_vec() },
                    1 => Verdict::Rejected,
                    2 => Verdict::TimedOut,
                    _ => Verdict::Overloaded { retry_after_ms: session },
                };
                hostile_frames(&VerdictMsg { session, verdict, trace }, &noise, at, splice);
            }
        }
    }
}
