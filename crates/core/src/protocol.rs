//! Protocol messages and the client side of RBC-SALTED (Figure 1).
//!
//! Flow: the client asks to authenticate; the CA answers with the PUF
//! address information (which cells to read); the client reads its PUF,
//! hashes the bit stream into the message digest `M₁` and sends it; the
//! CA runs the RBC search and, on success, generates the salted public key
//! and updates the registration authority.

use rbc_bits::U256;
use rbc_hash::{DynDigest, HashAlgo};
use rbc_puf::PufDevice;
use rbc_telemetry::TraceContext;
use serde::{Deserialize, Serialize};

/// Stable client identifier assigned at enrollment.
pub type ClientId = u64;

/// Client → CA: request to authenticate.
///
/// Carries the freshly minted [`TraceContext`] identifying this
/// authentication's span tree; every later message of the exchange
/// echoes it, so client- and CA-side spans stitch across the wire.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloMsg {
    /// Who is asking.
    pub client_id: ClientId,
    /// Trace identity minted for this authentication attempt.
    pub trace: TraceContext,
}

/// CA → client: the handshake's "PUF address information" — which cells to
/// read (the TAPKI-selected stable cells recorded at enrollment) and which
/// hash to use for the digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChallengeMsg {
    /// Echoed client id.
    pub client_id: ClientId,
    /// Session nonce; echoed back by the client.
    pub session: u64,
    /// Absolute cell indices to read, in order; bit `i` of the stream
    /// comes from `cells[i]`.
    pub cells: Vec<u32>,
    /// Hash algorithm for the message digest.
    pub algo: HashAlgo,
    /// Echoed trace identity from the hello.
    pub trace: TraceContext,
}

/// Client → CA: the message digest `M₁ = SHA(bit stream)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestMsg {
    /// Echoed client id.
    pub client_id: ClientId,
    /// Echoed session nonce.
    pub session: u64,
    /// The digest `M₁`.
    pub digest: DynDigest,
    /// Echoed trace identity from the challenge.
    pub trace: TraceContext,
}

/// CA → client: the verdict.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictMsg {
    /// Echoed session nonce.
    pub session: u64,
    /// The outcome.
    pub verdict: Verdict,
    /// Echoed trace identity, closing the loop: the client can match
    /// the verdict to the trace it minted at hello.
    pub trace: TraceContext,
}

/// Authentication outcome as reported to the client.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Authenticated; the registered public key (encoded) is returned.
    Accepted {
        /// Hamming distance at which the seed was recovered.
        distance: u32,
        /// The client's new public key, as registered with the RA; on
        /// the wire, one lowercase hex string.
        #[serde(with = "rbc_hash::hex")]
        public_key: Vec<u8>,
    },
    /// No seed within the search bound matched.
    Rejected,
    /// The time threshold `T` expired; the CA will issue a new challenge.
    TimedOut,
    /// The CA's dispatch queue or admission layer could not serve the
    /// request; it was shed before (or instead of) searching. The hint
    /// tells the client *when* retrying is worthwhile — hammering a
    /// saturated server only deepens the overload.
    Overloaded {
        /// Server-suggested backoff before the next attempt, in
        /// milliseconds. `0` means "retry at the client's discretion"
        /// (the pre-hint behavior, kept for shed-without-admission
        /// paths).
        retry_after_ms: u64,
    },
}

/// The client endpoint: a device with a PUF, able to answer challenges.
pub struct Client<D: PufDevice> {
    /// This client's identity.
    pub id: ClientId,
    device: D,
    /// Extra bits of deliberate noise to inject into every readout
    /// (§5's security extension; 0 for a plain client).
    pub extra_noise: u32,
}

impl<D: PufDevice> Client<D> {
    /// Creates a client around a PUF device.
    pub fn new(id: ClientId, device: D) -> Self {
        Client { id, device, extra_noise: 0 }
    }

    /// Borrow the underlying device (enrollment needs it in the secure
    /// facility).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Opens an authentication attempt, minting the trace context that
    /// will identify this request's spans across the whole pipeline.
    pub fn hello(&self) -> HelloMsg {
        HelloMsg { client_id: self.id, trace: TraceContext::mint() }
    }

    /// Answers a challenge: reads the addressed cells, assembles the
    /// 256-bit stream, optionally injects deliberate noise, hashes.
    ///
    /// Panics if the challenge does not address exactly 256 cells — a
    /// malformed challenge is a protocol violation, not a recoverable
    /// condition for the client.
    pub fn respond<R: rand::Rng + ?Sized>(
        &self,
        challenge: &ChallengeMsg,
        rng: &mut R,
    ) -> DigestMsg {
        assert_eq!(challenge.cells.len(), 256, "challenge must address 256 cells");
        let mut stream = U256::ZERO;
        for (i, &cell) in challenge.cells.iter().enumerate() {
            if self.device.read_cell(cell as usize, rng) {
                stream = stream.set_bit(i);
            }
        }
        if self.extra_noise > 0 {
            stream = rbc_puf::inject_extra_noise(&stream, self.extra_noise, rng);
        }
        DigestMsg {
            client_id: self.id,
            session: challenge.session,
            digest: challenge.algo.digest_seed(&stream),
            trace: challenge.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rbc_puf::ModelPuf;

    fn challenge(cells: Vec<u32>) -> ChallengeMsg {
        ChallengeMsg {
            client_id: 1,
            session: 99,
            cells,
            algo: HashAlgo::Sha3_256,
            trace: TraceContext { trace_id: 0x7f3a, parent_span: 0 },
        }
    }

    #[test]
    fn respond_hashes_the_addressed_cells() {
        let device = ModelPuf::noiseless(1024, 5);
        let client = Client::new(1, device);
        let mut rng = StdRng::seed_from_u64(0);
        let cells: Vec<u32> = (100..356).collect();
        let msg = client.respond(&challenge(cells.clone()), &mut rng);
        assert_eq!(msg.session, 99);

        // Recompute the expected stream from the device's nominal values.
        let mut stream = U256::ZERO;
        for (i, &c) in cells.iter().enumerate() {
            if client.device().cell(c as usize).nominal {
                stream = stream.set_bit(i);
            }
        }
        assert_eq!(msg.digest, HashAlgo::Sha3_256.digest_seed(&stream));
    }

    #[test]
    fn deliberate_noise_changes_the_digest() {
        let device = ModelPuf::noiseless(1024, 5);
        let mut noisy = Client::new(1, device);
        noisy.extra_noise = 5;
        let mut rng = StdRng::seed_from_u64(1);
        let cells: Vec<u32> = (0..256).collect();
        let clean_msg = {
            let plain = Client::new(1, ModelPuf::noiseless(1024, 5));
            plain.respond(&challenge(cells.clone()), &mut rng)
        };
        let noisy_msg = noisy.respond(&challenge(cells), &mut rng);
        assert_ne!(clean_msg.digest, noisy_msg.digest);
    }

    #[test]
    #[should_panic(expected = "256 cells")]
    fn short_challenge_is_rejected() {
        let client = Client::new(1, ModelPuf::noiseless(512, 2));
        let mut rng = StdRng::seed_from_u64(0);
        client.respond(&challenge((0..100).collect()), &mut rng);
    }

    #[test]
    fn messages_serde_roundtrip() {
        let c = challenge((0..256).collect());
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<ChallengeMsg>(&json).unwrap(), c);

        let v = VerdictMsg {
            session: 1,
            verdict: Verdict::Accepted { distance: 3, public_key: vec![1, 2, 3] },
            trace: TraceContext { trace_id: 5, parent_span: 0 },
        };
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(serde_json::from_str::<VerdictMsg>(&json).unwrap(), v);

        // The backpressure hint survives the wire: a shed verdict's
        // retry_after must round-trip exactly.
        let o = VerdictMsg {
            session: 2,
            verdict: Verdict::Overloaded { retry_after_ms: 250 },
            trace: TraceContext { trace_id: 6, parent_span: 0 },
        };
        let json = serde_json::to_string(&o).unwrap();
        assert_eq!(serde_json::from_str::<VerdictMsg>(&json).unwrap(), o);
    }

    #[test]
    fn hello_mints_and_respond_echoes_the_trace() {
        let client = Client::new(1, ModelPuf::noiseless(1024, 5));
        let h1 = client.hello();
        let h2 = client.hello();
        assert!(!h1.trace.is_none(), "hello mints a real trace");
        assert_ne!(h1.trace.trace_id, h2.trace.trace_id, "one trace per attempt");

        let mut rng = StdRng::seed_from_u64(0);
        let msg = client.respond(&challenge((0..256).collect()), &mut rng);
        assert_eq!(msg.trace.trace_id, 0x7f3a, "digest echoes the challenge's trace");
    }
}
