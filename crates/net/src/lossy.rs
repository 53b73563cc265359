//! Lossy-link simulation and a stop-and-wait reliability wrapper.
//!
//! The paper's clients are IoT devices; their uplinks drop frames. The
//! RBC exchange is a short request/response protocol, so the natural
//! reliability layer is stop-and-wait with retransmission — which also
//! feeds the latency model (each retransmission costs one extra round
//! trip, directly inflating the 0.90 s communication bundle).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use rbc_telemetry::{wall_clock, ClockHandle};

use crate::channel::{duplex_with_clock, encode, Endpoint, TransportError};
use crate::telemetry::NetTelemetry;

/// A link that drops each frame independently with probability `loss`.
pub struct LossyEndpoint {
    inner: Endpoint,
    loss: f64,
    rng: StdRng,
    dropped: u64,
    telemetry: Option<NetTelemetry>,
}

/// Creates a connected lossy pair; `seed` makes drop patterns
/// reproducible.
pub fn lossy_duplex(
    per_frame_latency: Duration,
    loss: f64,
    seed: u64,
) -> (LossyEndpoint, LossyEndpoint) {
    lossy_duplex_with_clock(per_frame_latency, loss, seed, wall_clock())
}

/// [`lossy_duplex`] on an explicit clock — see
/// [`crate::channel::duplex_with_clock`] for the virtual-time semantics.
pub fn lossy_duplex_with_clock(
    per_frame_latency: Duration,
    loss: f64,
    seed: u64,
    clock: ClockHandle,
) -> (LossyEndpoint, LossyEndpoint) {
    assert!((0.0..1.0).contains(&loss), "loss probability must be in [0, 1)");
    let (a, b) = duplex_with_clock(per_frame_latency, clock);
    let wrap = |inner, seed| LossyEndpoint {
        inner,
        loss,
        rng: StdRng::seed_from_u64(seed),
        dropped: 0,
        telemetry: None,
    };
    (wrap(a, seed), wrap(b, seed ^ 0x5a5a))
}

impl LossyEndpoint {
    /// Sends, possibly dropping the frame on the floor (the send still
    /// "succeeds" — the sender cannot tell, exactly like UDP).
    pub fn send<M: Serialize>(&mut self, msg: &M) -> Result<(), TransportError> {
        self.send_payload(&encode(msg)?)
    }

    /// [`send`](Self::send) for an already serialized message.
    fn send_payload(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        if self.rng.gen::<f64>() < self.loss {
            self.dropped += 1;
            if let Some(t) = &self.telemetry {
                t.frames_dropped.inc();
            }
            return Ok(());
        }
        self.inner.send_payload(payload)
    }

    /// Receives the next surviving frame.
    pub fn recv<M: DeserializeOwned>(&self, timeout: Duration) -> Result<M, TransportError> {
        self.inner.recv(timeout)
    }

    /// Frames silently dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames actually sent (surviving).
    pub fn frames_sent(&self) -> u64 {
        self.inner.frames_sent()
    }

    /// Bytes actually sent (surviving, framing included).
    pub fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    /// Mirrors drop/send accounting into shared `rbc_net_*` counters;
    /// the reliability wrappers above this link also use the attached
    /// telemetry for retransmit/stale-ack counting.
    pub fn attach_telemetry(&mut self, telemetry: NetTelemetry) {
        self.inner.attach_telemetry(telemetry.clone());
        self.telemetry = Some(telemetry);
    }

    pub(crate) fn telemetry(&self) -> Option<&NetTelemetry> {
        self.telemetry.as_ref()
    }

    /// The clock this link waits on.
    pub fn clock(&self) -> &ClockHandle {
        self.inner.clock()
    }
}

/// SplitMix64 (the shared workspace mixer) derives the deterministic
/// retry jitter — no RNG state to carry or reseed.
use rbc_splitmix::splitmix64;

/// An envelope carrying a sequence number for stop-and-wait.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Envelope<M> {
    seq: u64,
    body: M,
}

/// Acknowledgement frame.
#[derive(Serialize, Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
struct Ack {
    seq: u64,
}

/// Stop-and-wait sender statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Application messages delivered.
    pub delivered: u64,
    /// Total transmissions (first attempts + retransmissions).
    pub transmissions: u64,
}

/// Stop-and-wait reliable sender over a lossy endpoint.
pub struct ReliableSender {
    link: LossyEndpoint,
    next_seq: u64,
    /// Retransmission timer.
    pub rto: Duration,
    /// Give up after this many attempts per message.
    pub max_attempts: u32,
    stats: ReliableStats,
}

impl ReliableSender {
    /// Wraps a lossy endpoint.
    pub fn new(link: LossyEndpoint) -> Self {
        ReliableSender {
            link,
            next_seq: 1,
            rto: Duration::from_millis(20),
            max_attempts: 50,
            stats: ReliableStats::default(),
        }
    }

    /// Sends `msg` reliably: transmit, await the matching ack, retransmit
    /// on timeout.
    pub fn send<M: Serialize>(&mut self, msg: &M) -> Result<(), TransportError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        for attempt in 0..self.max_attempts {
            self.stats.transmissions += 1;
            if attempt > 0 {
                if let Some(t) = self.link.telemetry() {
                    t.on_retransmit(0, "stop-and-wait retransmission");
                }
            }
            self.link.send(&Envelope { seq, body: msg })?;
            match self.link.recv::<Ack>(self.rto) {
                Ok(ack) if ack.seq == seq => {
                    self.stats.delivered += 1;
                    return Ok(());
                }
                Ok(_) => {
                    // Stale ack; retransmit.
                    if let Some(t) = self.link.telemetry() {
                        t.stale_acks.inc();
                    }
                    continue;
                }
                Err(TransportError::Timeout) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(TransportError::Timeout)
    }

    /// Delivery statistics.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }
}

/// Stop-and-wait reliable receiver.
pub struct ReliableReceiver {
    link: LossyEndpoint,
    last_delivered: u64,
}

impl ReliableReceiver {
    /// Wraps a lossy endpoint.
    pub fn new(link: LossyEndpoint) -> Self {
        ReliableReceiver { link, last_delivered: 0 }
    }

    /// Receives the next in-order message, acking every arrival
    /// (duplicates are re-acked and suppressed).
    pub fn recv<M: DeserializeOwned + Serialize>(
        &mut self,
        overall_timeout: Duration,
    ) -> Result<M, TransportError> {
        let clock = self.link.clock().clone();
        let deadline = clock.now() + overall_timeout;
        loop {
            let remaining =
                deadline.checked_duration_since(clock.now()).ok_or(TransportError::Timeout)?;
            let env: Envelope<M> = self.link.recv(remaining)?;
            // Ack everything we see; the ack itself may be lost, which is
            // what the sender's retransmission covers.
            self.link.send(&Ack { seq: env.seq })?;
            if env.seq > self.last_delivered {
                self.last_delivered = env.seq;
                return Ok(env.body);
            }
            // Duplicate of an already-delivered message: keep waiting.
        }
    }
}

/// Request/response over a lossy link: the response is the implicit ack
/// (retransmit the request until a response with the matching sequence
/// number arrives). This is the right reliability shape for RBC's
/// strictly alternating exchange — pure stop-and-wait on *two* links can
/// deadlock when both sides hold unacked sends (each blocked waiting for
/// an ack only the other's next receive call would generate).
pub struct RpcClient {
    link: LossyEndpoint,
    next_seq: u64,
    /// Base retransmission timer (the attempt-0 wait).
    pub rto: Duration,
    /// Attempts before giving up.
    pub max_attempts: u32,
    /// Exponential backoff growth per retry; values ≤ 1.0 disable
    /// backoff and every attempt waits `rto`.
    pub backoff_factor: f64,
    /// Ceiling on the backed-off timer, so a long outage retries at a
    /// steady cadence instead of sleeping into the deadline.
    pub max_rto: Duration,
    trace_id: u64,
}

impl RpcClient {
    /// Wraps a lossy endpoint.
    pub fn new(link: LossyEndpoint) -> Self {
        RpcClient {
            link,
            next_seq: 1,
            rto: Duration::from_millis(20),
            max_attempts: 100,
            backoff_factor: 1.6,
            max_rto: Duration::from_millis(320),
            trace_id: 0,
        }
    }

    /// The wait before retry `attempt` of request `seq`: `rto` grown by
    /// `backoff_factor` per attempt, capped at `max_rto`, with a
    /// deterministic ±25% jitter keyed on `(seq, attempt)` so a fleet of
    /// clients that lost the same frame desynchronises instead of
    /// retransmitting in lockstep — and a replayed run still observes
    /// the exact same timers.
    pub fn retry_timeout(&self, seq: u64, attempt: u32) -> Duration {
        let factor = self.backoff_factor.max(1.0);
        let cap = self.max_rto.max(self.rto);
        // Grow in f64 seconds and clamp *before* converting back: an
        // aggressive factor × a large base would overflow `Duration`
        // multiplication long past the cap that makes it irrelevant.
        let grown_secs = self.rto.as_secs_f64() * factor.powi(attempt.min(24) as i32);
        let capped = if grown_secs.is_finite() && grown_secs < cap.as_secs_f64() {
            Duration::from_secs_f64(grown_secs)
        } else {
            cap
        };
        let key = splitmix64(seq.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(attempt)));
        let unit = (key >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let jittered = capped.as_secs_f64() * (1.0 + (unit - 0.5) * 0.5);
        Duration::try_from_secs_f64(jittered).unwrap_or(Duration::MAX)
    }

    /// Tags subsequent retransmission events with the trace id of the
    /// in-flight authentication (0 clears the tag). The transport doesn't
    /// parse payloads, so the caller — who minted the trace — hints it.
    pub fn set_trace(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    /// Honors a server-issued `retry_after` hint (the
    /// `Verdict::Overloaded` backpressure field): blocks on the link's
    /// clock for `retry_after_ms` with a deterministic ±25% jitter keyed
    /// on the next sequence number, so a fleet of clients refused in the
    /// same brownout desynchronises its retries instead of returning as
    /// one thundering herd — and a replayed run sleeps the exact same
    /// timers. A hint of 0 (the legacy retry-at-will encoding) is a
    /// no-op. Returns the wait actually taken.
    ///
    /// The transport doesn't parse payloads, so the caller — who decoded
    /// the verdict — feeds the hint.
    pub fn honor_retry_after(&mut self, retry_after_ms: u64) -> Duration {
        if retry_after_ms == 0 {
            return Duration::ZERO;
        }
        let key = splitmix64(self.next_seq.wrapping_mul(0x9E37_79B9).wrapping_add(retry_after_ms));
        let unit = (key >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let base = Duration::from_millis(retry_after_ms);
        let wait = Duration::try_from_secs_f64(base.as_secs_f64() * (1.0 + (unit - 0.5) * 0.5))
            .unwrap_or(base);
        if let Some(t) = self.link.telemetry() {
            t.server_backoffs.inc();
        }
        self.link.clock().sleep(wait);
        wait
    }

    /// Sends `req` until the matching response arrives.
    pub fn call<Req: Serialize, Resp: DeserializeOwned>(
        &mut self,
        req: &Req,
    ) -> Result<Resp, TransportError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                if let Some(t) = self.link.telemetry() {
                    t.on_retransmit(self.trace_id, "rpc request retransmitted");
                }
            }
            self.link.send(&Envelope { seq, body: req })?;
            match self.link.recv::<Envelope<Resp>>(self.retry_timeout(seq, attempt)) {
                Ok(env) if env.seq == seq => return Ok(env.body),
                Ok(_) => {
                    // Stale response.
                    if let Some(t) = self.link.telemetry() {
                        t.stale_acks.inc();
                    }
                    continue;
                }
                Err(TransportError::Timeout) => continue, // lost somewhere
                Err(TransportError::Decode(_)) => continue, // stale frame of another type
                Err(e) => return Err(e),
            }
        }
        Err(TransportError::Timeout)
    }
}

/// Server side of the lossy RPC: receives requests, sends responses, and
/// replays the last response when a duplicate request shows up (the
/// client retransmits exactly when the response was lost).
pub struct RpcServer {
    link: LossyEndpoint,
    /// The last response's sequence number and serialized envelope; a
    /// replay resends these bytes.
    last: Option<(u64, Vec<u8>)>,
}

impl RpcServer {
    /// Wraps a lossy endpoint.
    pub fn new(link: LossyEndpoint) -> Self {
        RpcServer { link, last: None }
    }

    /// Receives the next *new* request, transparently replaying the
    /// cached response for duplicates of the previous one.
    pub fn recv_request<Req: DeserializeOwned>(
        &mut self,
        overall_timeout: Duration,
    ) -> Result<(u64, Req), TransportError> {
        let clock = self.link.clock().clone();
        let deadline = clock.now() + overall_timeout;
        loop {
            let remaining =
                deadline.checked_duration_since(clock.now()).ok_or(TransportError::Timeout)?;
            match self.link.recv::<Envelope<Req>>(remaining) {
                Ok(env) => {
                    if let Some((seq, cached)) = &self.last {
                        if env.seq == *seq {
                            // Duplicate: the client missed our response.
                            self.link.send_payload(cached)?;
                            continue;
                        }
                    }
                    return Ok((env.seq, env.body));
                }
                Err(TransportError::Decode(_)) => continue, // stale frame
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends (and caches) the response to request `seq`.
    pub fn respond<Resp: Serialize>(
        &mut self,
        seq: u64,
        resp: &Resp,
    ) -> Result<(), TransportError> {
        let payload = encode(&Envelope { seq, body: resp })?;
        self.link.send_payload(&payload)?;
        self.last = Some((seq, payload));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_link_behaves_like_channel() {
        let (mut a, b) = lossy_duplex(Duration::ZERO, 0.0, 1);
        a.send(&42u32).unwrap();
        assert_eq!(b.recv::<u32>(Duration::from_secs(1)).unwrap(), 42);
        assert_eq!(a.dropped(), 0);
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let (mut a, _b) = lossy_duplex(Duration::ZERO, 0.3, 7);
        for i in 0..1000u32 {
            a.send(&i).unwrap();
        }
        let rate = a.dropped() as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.06, "drop rate {rate}");
    }

    #[test]
    fn stop_and_wait_survives_heavy_loss() {
        let (a, b) = lossy_duplex(Duration::ZERO, 0.4, 99);
        let mut tx = ReliableSender::new(a);
        tx.rto = Duration::from_millis(5);
        let mut rx = ReliableReceiver::new(b);

        let sender = std::thread::spawn(move || {
            for i in 0..30u32 {
                tx.send(&i).expect("reliable send");
            }
            tx.stats()
        });
        for i in 0..30u32 {
            let got: u32 = rx.recv(Duration::from_secs(20)).expect("reliable recv");
            assert_eq!(got, i, "in-order delivery");
        }
        let stats = sender.join().unwrap();
        assert_eq!(stats.delivered, 30);
        assert!(
            stats.transmissions > 30,
            "40% loss must force retransmissions: {}",
            stats.transmissions
        );
    }

    #[test]
    fn duplicates_are_suppressed() {
        // Loss on the ack path causes retransmission of an already-
        // delivered message; the receiver must not surface it twice.
        let (a, b) = lossy_duplex(Duration::ZERO, 0.25, 3);
        let mut tx = ReliableSender::new(a);
        tx.rto = Duration::from_millis(5);
        let mut rx = ReliableReceiver::new(b);
        let sender = std::thread::spawn(move || {
            for i in 0..20u32 {
                tx.send(&(i * 10)).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(rx.recv::<u32>(Duration::from_secs(20)).unwrap());
        }
        sender.join().unwrap();
        assert_eq!(got, (0..20u32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sender_gives_up_when_peer_is_gone() {
        let (a, b) = lossy_duplex(Duration::ZERO, 0.0, 5);
        drop(b);
        let mut tx = ReliableSender::new(a);
        tx.max_attempts = 3;
        tx.rto = Duration::from_millis(1);
        assert!(tx.send(&1u32).is_err());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        lossy_duplex(Duration::ZERO, 1.5, 0);
    }

    #[test]
    fn honor_retry_after_backs_off_jittered_and_deterministic() {
        use rbc_telemetry::{Registry, SimClock};
        use std::sync::Arc;

        let registry = Arc::new(Registry::new());
        let clock = SimClock::new();
        let handle = clock.handle();
        let _actor = handle.enter();
        let (mut a, _b) = lossy_duplex_with_clock(Duration::ZERO, 0.0, 9, handle.clone());
        a.attach_telemetry(NetTelemetry::register_with_clock(&registry, handle.clone()));
        let mut client = RpcClient::new(a);

        // The legacy 0 hint is retry-at-will: no sleep, no counter.
        assert_eq!(client.honor_retry_after(0), Duration::ZERO);
        assert_eq!(registry.snapshot().counter("rbc_net_server_backoff_total"), Some(0));

        // A real hint sleeps the virtual timeline within ±25% of the
        // hint, and the counter records the honored backoff.
        let before = clock.virtual_elapsed();
        let wait = client.honor_retry_after(200);
        assert!(
            (0.150..=0.250).contains(&wait.as_secs_f64()),
            "jitter must stay within ±25%: {wait:?}"
        );
        assert_eq!(clock.virtual_elapsed() - before, wait);
        assert_eq!(registry.snapshot().counter("rbc_net_server_backoff_total"), Some(1));

        // Deterministic: a fresh client at the same sequence number
        // takes the identical jittered wait — replay-stable backoff.
        let (c, _d) = lossy_duplex_with_clock(Duration::ZERO, 0.0, 9, handle.clone());
        let mut replay = RpcClient::new(c);
        assert_eq!(replay.honor_retry_after(200), wait);
        // A different hint (or seq) de-synchronises the fleet.
        assert_ne!(replay.honor_retry_after(201), wait);
    }

    #[test]
    fn rpc_survives_heavy_loss_both_ways() {
        let (a, b) = lossy_duplex(Duration::ZERO, 0.35, 1234);
        let mut client = RpcClient::new(a);
        client.rto = Duration::from_millis(5);
        let mut server = RpcServer::new(b);

        let handle = std::thread::spawn(move || {
            for _ in 0..20 {
                let (seq, req): (u64, u32) =
                    server.recv_request(Duration::from_secs(30)).expect("request");
                server.respond(seq, &(req * 2)).expect("respond");
            }
        });
        for i in 0..20u32 {
            let resp: u32 = client.call(&i).expect("rpc call");
            assert_eq!(resp, i * 2);
        }
        handle.join().unwrap();
    }

    #[test]
    fn link_stats_land_in_the_shared_registry() {
        use rbc_telemetry::Registry;
        use std::sync::Arc;

        let registry = Arc::new(Registry::new());
        let telemetry = NetTelemetry::register(&registry);
        let (mut a, mut b) = lossy_duplex(Duration::ZERO, 0.35, 77);
        a.attach_telemetry(telemetry.clone());
        b.attach_telemetry(telemetry.clone());
        let mut client = RpcClient::new(a);
        client.rto = Duration::from_millis(5);
        let mut server = RpcServer::new(b);

        // Serve until the client hangs up: the client's *last* response
        // may be dropped, so the server must stay up for the retransmit.
        let handle = std::thread::spawn(move || {
            while let Ok((seq, req)) = server.recv_request::<u32>(Duration::from_secs(30)) {
                if server.respond(seq, &(req + 1)).is_err() {
                    break;
                }
            }
        });
        for i in 0..10u32 {
            assert_eq!(client.call::<_, u32>(&i).expect("rpc"), i + 1);
        }
        drop(client);
        handle.join().unwrap();

        let snap = registry.snapshot();
        let sent = snap.counter("rbc_net_frames_sent_total").unwrap();
        let dropped = snap.counter("rbc_net_frames_dropped_total").unwrap();
        assert!(sent >= 20, "both directions counted: {sent}");
        assert!(dropped >= 1, "35% loss must drop something");
        assert!(
            snap.counter("rbc_net_retransmits_total").unwrap() >= 1,
            "loss must force retransmission"
        );
        assert!(snap.counter("rbc_net_bytes_sent_total").unwrap() > sent * 4);
    }

    #[test]
    fn retry_timeout_backs_off_deterministically_and_caps() {
        let (a, _b) = lossy_duplex(Duration::ZERO, 0.0, 2);
        let client = RpcClient::new(a);
        // Deterministic: the same (seq, attempt) always yields the same
        // jittered timer — a replayed chaos run sees identical retries.
        assert_eq!(client.retry_timeout(3, 2), client.retry_timeout(3, 2));
        // Growth: later attempts wait longer than attempt 0 even in the
        // worst jitter case (1.6³ ≈ 4.1 × dominates the ±25% band).
        assert!(client.retry_timeout(1, 3) > client.retry_timeout(1, 0));
        // Cap: no attempt waits more than max_rto + 25% jitter.
        for attempt in 0..40 {
            assert!(client.retry_timeout(7, attempt) <= client.max_rto.mul_f64(1.25));
        }
        // Every attempt stays within the jitter band of its nominal timer.
        let nominal = client.rto.mul_f64(1.6 * 1.6);
        let t = client.retry_timeout(5, 2);
        assert!(t >= nominal.mul_f64(0.75) && t <= nominal.mul_f64(1.25), "{t:?}");
    }

    #[test]
    fn backoff_factor_of_one_keeps_a_flat_timer() {
        let (a, _b) = lossy_duplex(Duration::ZERO, 0.0, 2);
        let mut client = RpcClient::new(a);
        client.backoff_factor = 1.0;
        for attempt in 0..10 {
            let t = client.retry_timeout(1, attempt);
            assert!(t >= client.rto.mul_f64(0.75) && t <= client.rto.mul_f64(1.25), "{t:?}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The retry timer never panics and never escapes its cap —
            /// for any base/ceiling/factor a caller can configure,
            /// including degenerate zeros and absurd growth factors that
            /// would overflow a naive `Duration` multiply.
            #[test]
            fn retry_timeout_saturates_for_any_configuration(
                rto_ms in 0u64..=600_000,
                max_rto_ms in 0u64..=600_000,
                factor in 0.0f64..=1_000.0,
                seq in 0u64..=u64::MAX - 1,
                attempt in 0u32..=10_000,
            ) {
                let (a, _b) = lossy_duplex(Duration::ZERO, 0.0, 1);
                let mut client = RpcClient::new(a);
                client.rto = Duration::from_millis(rto_ms);
                client.max_rto = Duration::from_millis(max_rto_ms);
                client.backoff_factor = factor;
                let t = client.retry_timeout(seq, attempt);
                let cap = client.max_rto.max(client.rto);
                prop_assert!(t <= cap.mul_f64(1.2501), "{t:?} beyond cap {cap:?}");
                // Deterministic: a replayed run derives the same timer.
                prop_assert_eq!(t, client.retry_timeout(seq, attempt));
            }
        }
    }

    #[test]
    fn rpc_replays_cached_response_for_duplicates() {
        // Deterministic duplicate: lossless link, client sends the same
        // envelope twice manually.
        let (mut a, b) = lossy_duplex(Duration::ZERO, 0.0, 0);
        let mut server = RpcServer::new(b);
        a.send(&Envelope { seq: 1, body: 7u32 }).unwrap();
        let (seq, req): (u64, u32) = server.recv_request(Duration::from_secs(1)).unwrap();
        assert_eq!((seq, req), (1, 7));
        server.respond(seq, &14u32).unwrap();
        let first: Envelope<u32> = a.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(first.body, 14);
        // Duplicate request → replayed response, not a new delivery.
        a.send(&Envelope { seq: 1, body: 7u32 }).unwrap();
        a.send(&Envelope { seq: 2, body: 9u32 }).unwrap();
        let (seq2, req2): (u64, u32) = server.recv_request(Duration::from_secs(1)).unwrap();
        assert_eq!((seq2, req2), (2, 9), "duplicate was absorbed");
        let replay: Envelope<u32> = a.recv(Duration::from_secs(1)).unwrap();
        assert_eq!((replay.seq, replay.body), (1, 14));
    }
}
