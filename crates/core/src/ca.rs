//! The certificate authority (CA) and registration authority (RA) —
//! the server side of Figure 1.
//!
//! The CA enrolls clients (in the secure facility), issues challenges,
//! runs the RBC-SALTED search over the stored PUF image, and on success
//! generates the client's public key from the *salted* seed exactly once,
//! registering it with the RA.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::Rng;
use rbc_bits::U256;
use rbc_hash::HashAlgo;
use rbc_pqc::PqcKeyGen;
use rbc_puf::{enroll, EnrollmentConfig, PufDevice};
use rbc_telemetry::{Counter, Histogram, Registry, TraceContext};

use crate::backend::{CpuBackend, SearchBackend, SearchJob};
use crate::clock::{wall_clock, ClockHandle};
use crate::engine::{EngineConfig, Outcome, SearchReport};
use crate::protocol::{ChallengeMsg, ClientId, DigestMsg, HelloMsg, Verdict, VerdictMsg};
use crate::salt::Salt;
use crate::store::{EnrollmentRecord, SealedImageStore};

pub use crate::derive::DynHashDerive;

/// CA policy knobs.
#[derive(Clone, Debug)]
pub struct CaConfig {
    /// Maximum Hamming distance searched (the paper uses 5).
    pub max_d: u32,
    /// Hash used for message digests.
    pub algo: HashAlgo,
    /// Search engine configuration; `deadline` is the threshold `T`.
    pub engine: EngineConfig,
    /// Enrollment procedure parameters.
    pub enrollment: EnrollmentConfig,
}

impl Default for CaConfig {
    fn default() -> Self {
        CaConfig {
            max_d: 5,
            algo: HashAlgo::Sha3_256,
            engine: EngineConfig { deadline: Some(Duration::from_secs(20)), ..Default::default() },
            enrollment: EnrollmentConfig::default(),
        }
    }
}

/// The registration authority: the public-key directory the CA updates
/// after each successful authentication.
#[derive(Default)]
pub struct RegistrationAuthority {
    keys: HashMap<ClientId, Vec<u8>>,
    updates: u64,
}

impl RegistrationAuthority {
    /// Registers (or rotates) a client's public key.
    pub fn register(&mut self, id: ClientId, public_key: Vec<u8>) {
        self.keys.insert(id, public_key);
        self.updates += 1;
    }

    /// Looks up the currently registered key.
    pub fn lookup(&self, id: ClientId) -> Option<&[u8]> {
        self.keys.get(&id).map(|k| k.as_slice())
    }

    /// Total registrations performed (keys rotate per session — the
    /// "one-time session keys" property).
    pub fn update_count(&self) -> u64 {
        self.updates
    }
}

/// Statistics of one authentication attempt, for the evaluation harness.
#[derive(Clone, Debug)]
pub struct AuthRecord {
    /// The client involved.
    pub client_id: ClientId,
    /// Search report of the RBC engine.
    pub report: SearchReport,
    /// Whether the verdict was acceptance.
    pub accepted: bool,
}

/// A session the CA has validated and is ready to search for.
///
/// Produced by [`CertificateAuthority::prepare`]; the `job` can be run on
/// any [`SearchBackend`] (directly, or through a dispatcher for
/// multi-client service) and the resulting report fed back through
/// [`CertificateAuthority::finish`]. This split is what lets the
/// [`crate::service::AuthService`] hold the CA lock only around the cheap
/// bookkeeping while searches run concurrently.
#[derive(Clone, Debug)]
pub struct PendingAuth {
    client_id: ClientId,
    session: u64,
    salt: Salt,
    trace: TraceContext,
    /// The backend-agnostic search the CA wants run.
    pub job: SearchJob,
}

impl PendingAuth {
    /// The client being authenticated.
    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// The session nonce this search answers.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The trace identity minted at hello and carried through the
    /// session — the root context of this authentication's span tree.
    pub fn trace(&self) -> TraceContext {
        self.trace
    }

    /// The difficulty class this search is billed under when it does
    /// *not* find the seed: the CA's search bound `d`. A rejection pays
    /// the full C(256,0..=d) exhaustion, which is why cost receipts use
    /// this as the worst-case difficulty and swap in the found distance
    /// only on acceptance.
    pub fn difficulty_bound(&self) -> u32 {
        self.job.max_d
    }
}

/// CA-side instrumentation: the post-search acceptance work (protocol
/// steps 7–9 — salt application, the one-time keygen, the RA update).
#[derive(Clone, Debug)]
pub struct CaTelemetry {
    /// Wall time of salt + keygen + RA registration per acceptance
    /// (`rbc_ca_keygen_ns`) — the "keygen" phase of the per-phase
    /// latency breakdown.
    pub keygen_ns: Arc<Histogram>,
    /// One-time keys generated (`rbc_ca_keygen_total`); equals the RA's
    /// update count.
    pub keygens: Arc<Counter>,
}

impl CaTelemetry {
    /// Registers (or rejoins) the `rbc_ca_*` metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        CaTelemetry {
            keygen_ns: registry.histogram("rbc_ca_keygen_ns"),
            keygens: registry.counter("rbc_ca_keygen_total"),
        }
    }
}

/// A challenge the CA has issued and not yet seen answered. It keeps the
/// reference seed and salt (68 bytes of key material) of the one record
/// `begin` unsealed, so `prepare` builds the search without touching the
/// store, against the image the challenge named even if the client
/// re-enrolls in between.
struct OpenSession {
    client_id: ClientId,
    /// Reference seed of the image whose cells the challenge named.
    reference: U256,
    salt: Salt,
    trace: TraceContext,
}

/// The certificate authority.
pub struct CertificateAuthority<P: PqcKeyGen> {
    cfg: CaConfig,
    store: SealedImageStore,
    keygen: P,
    backend: Arc<dyn SearchBackend>,
    ra: RegistrationAuthority,
    /// Open sessions by nonce, each with the trace context minted at
    /// hello; see [`OpenSession`].
    sessions: HashMap<u64, OpenSession>,
    /// Per-client cursor into its enrolled addresses; bumped after a
    /// timeout so the next challenge uses a fresh address (the paper's
    /// restart rule).
    address_cursor: HashMap<ClientId, usize>,
    next_session: u64,
    log: Vec<AuthRecord>,
    telemetry: Option<CaTelemetry>,
    clock: ClockHandle,
}

/// Errors surfaced by CA entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaError {
    /// The client id is not enrolled.
    UnknownClient(ClientId),
    /// The session nonce is unknown or already consumed.
    UnknownSession(u64),
    /// Enrollment failed (e.g. not enough stable cells at this address).
    Enrollment(String),
    /// The client's sealed record failed its integrity check or did not
    /// decode.
    CorruptRecord(ClientId),
}

impl core::fmt::Display for CaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CaError::UnknownClient(id) => write!(f, "unknown client {id}"),
            CaError::UnknownSession(s) => write!(f, "unknown session {s}"),
            CaError::Enrollment(e) => write!(f, "enrollment failed: {e}"),
            CaError::CorruptRecord(id) => write!(f, "corrupt enrollment record for client {id}"),
        }
    }
}

impl std::error::Error for CaError {}

impl<P: PqcKeyGen> CertificateAuthority<P> {
    /// Creates a CA with a database key and the post-search keygen,
    /// searching on the in-process CPU engine configured by
    /// `cfg.engine`.
    pub fn new(db_key: [u8; 32], keygen: P, cfg: CaConfig) -> Self {
        let backend = Arc::new(CpuBackend::new(cfg.engine.clone()));
        Self::with_backend(db_key, keygen, cfg, backend)
    }

    /// Creates a CA that runs its searches on an explicit
    /// [`SearchBackend`] (GPU/APU simulator, cluster, …) instead of the
    /// default CPU engine.
    pub fn with_backend(
        db_key: [u8; 32],
        keygen: P,
        cfg: CaConfig,
        backend: Arc<dyn SearchBackend>,
    ) -> Self {
        CertificateAuthority {
            cfg,
            store: SealedImageStore::new(db_key),
            keygen,
            backend,
            ra: RegistrationAuthority::default(),
            sessions: HashMap::new(),
            address_cursor: HashMap::new(),
            next_session: 1,
            log: Vec::new(),
            telemetry: None,
            clock: wall_clock(),
        }
    }

    /// Attaches keygen-phase instrumentation; see [`CaTelemetry`]. The
    /// [`crate::service::AuthService`] does this automatically with its
    /// shared registry.
    pub fn set_telemetry(&mut self, telemetry: CaTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Reads keygen-phase timings from `clock` instead of the wall
    /// clock. The [`crate::service::AuthService`] propagates its
    /// dispatcher's clock here so one timeline covers the whole
    /// pipeline.
    pub fn set_clock(&mut self, clock: ClockHandle) {
        self.clock = clock;
    }

    /// Enrolls a client device at `address` (secure-facility step),
    /// replacing any previous enrollment. The shared salt is derived and
    /// would be provisioned to the client here.
    pub fn enroll_client<D: PufDevice, R: Rng + ?Sized>(
        &mut self,
        id: ClientId,
        device: &D,
        address: usize,
        rng: &mut R,
    ) -> Result<Salt, CaError> {
        let image = enroll(device, address, &self.cfg.enrollment, rng)
            .map_err(|e| CaError::Enrollment(e.to_string()))?;
        let salt = Salt::from_enrollment(id, rng.gen());
        self.store.insert(id, &EnrollmentRecord { image, salt });
        Ok(salt)
    }

    /// Enrolls an *additional* PUF address for an already-known client,
    /// giving the CA somewhere to restart after a timeout.
    pub fn enroll_additional_address<D: PufDevice, R: Rng + ?Sized>(
        &mut self,
        id: ClientId,
        device: &D,
        address: usize,
        rng: &mut R,
    ) -> Result<Salt, CaError> {
        let image = enroll(device, address, &self.cfg.enrollment, rng)
            .map_err(|e| CaError::Enrollment(e.to_string()))?;
        let salt = Salt::from_enrollment(id, rng.gen());
        self.store.append(id, &EnrollmentRecord { image, salt });
        Ok(salt)
    }

    /// Handles a hello: opens a session and issues the challenge, using
    /// the client's current address cursor (advanced on timeouts). This
    /// unseals exactly one record — the one at the cursor.
    pub fn begin(&mut self, hello: &HelloMsg) -> Result<ChallengeMsg, CaError> {
        let client_id = hello.client_id;
        let count = self.store.record_count(client_id);
        if count == 0 {
            return Err(CaError::UnknownClient(client_id));
        }
        let cursor = *self.address_cursor.get(&client_id).unwrap_or(&0);
        let record = self
            .store
            .get_at(client_id, cursor % count)
            .ok_or(CaError::CorruptRecord(client_id))?;
        let session = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            session,
            OpenSession {
                client_id,
                reference: record.image.reference,
                salt: record.salt,
                trace: hello.trace,
            },
        );
        Ok(ChallengeMsg {
            client_id,
            session,
            cells: record.image.selected,
            algo: self.cfg.algo,
            trace: hello.trace,
        })
    }

    /// Handles the digest: runs the RBC-SALTED search on the CA's backend
    /// and produces the verdict. On acceptance the salted seed feeds one
    /// keygen and the RA is updated (protocol steps 7–9).
    pub fn complete(&mut self, msg: &DigestMsg) -> Result<VerdictMsg, CaError> {
        let pending = self.prepare(msg)?;
        let report = self.backend.submit(&pending.job);
        Ok(self.finish(&pending, report))
    }

    /// Validates the digest message and builds the search job, consuming
    /// the session. The caller runs the job on any backend (or through a
    /// dispatcher) and hands the report to
    /// [`CertificateAuthority::finish`]. Reads only the session `begin`
    /// opened; the store is not touched.
    pub fn prepare(&mut self, msg: &DigestMsg) -> Result<PendingAuth, CaError> {
        let OpenSession { client_id, reference, salt, trace } =
            self.sessions.remove(&msg.session).ok_or(CaError::UnknownSession(msg.session))?;
        if client_id != msg.client_id {
            return Err(CaError::UnknownSession(msg.session));
        }

        // The session-stored context (minted at hello) is authoritative;
        // the digest's echo is untrusted client input.
        let mut job = SearchJob::new(self.cfg.algo, msg.digest, reference, self.cfg.max_d)
            .with_mode(self.cfg.engine.mode)
            .with_trace(trace);
        if let Some(deadline) = self.cfg.engine.deadline {
            job = job.with_deadline(deadline);
        }
        Ok(PendingAuth { client_id, session: msg.session, salt, trace, job })
    }

    /// Turns a search report into the verdict for a prepared session:
    /// salt + one-time keygen + RA update on success, address rotation on
    /// timeout, and the authentication log entry in every case.
    pub fn finish(&mut self, pending: &PendingAuth, report: SearchReport) -> VerdictMsg {
        let client_id = pending.client_id;
        let verdict = match report.outcome {
            Outcome::Found { seed, distance } => {
                // Step 7–9: salt once, generate the public key once,
                // update the RA. The raw seed never leaves this scope.
                let keygen_start = self.clock.now();
                let salted = pending.salt.apply(&seed);
                let public_key = self.keygen.public_key(&salted);
                self.ra.register(client_id, public_key.clone());
                if let Some(t) = &self.telemetry {
                    t.keygens.inc();
                    t.keygen_ns
                        .record_duration(self.clock.now().saturating_duration_since(keygen_start));
                }
                Verdict::Accepted { distance, public_key }
            }
            Outcome::NotFound => Verdict::Rejected,
            Outcome::TimedOut { .. } => {
                // The paper's restart rule: next challenge uses a fresh
                // PUF address.
                *self.address_cursor.entry(client_id).or_insert(0) += 1;
                Verdict::TimedOut
            }
        };
        let accepted = matches!(verdict, Verdict::Accepted { .. });
        self.log.push(AuthRecord { client_id, report, accepted });
        VerdictMsg { session: pending.session, verdict, trace: pending.trace }
    }

    /// Records a shed request: the dispatcher or admission layer refused
    /// the search, so no report exists and the client is told to retry
    /// after `retry_after_ms`. The session was already consumed by
    /// [`CertificateAuthority::prepare`].
    pub fn shed(&mut self, pending: &PendingAuth, retry_after_ms: u64) -> VerdictMsg {
        VerdictMsg {
            session: pending.session,
            verdict: Verdict::Overloaded { retry_after_ms },
            trace: pending.trace,
        }
    }

    /// The backend the CA searches on.
    pub fn backend(&self) -> &Arc<dyn SearchBackend> {
        &self.backend
    }

    /// The registration authority (public-key directory).
    pub fn ra(&self) -> &RegistrationAuthority {
        &self.ra
    }

    /// Authentication log for the evaluation harness.
    pub fn log(&self) -> &[AuthRecord] {
        &self.log
    }

    /// The CA's configuration.
    pub fn config(&self) -> &CaConfig {
        &self.cfg
    }

    /// Number of enrolled clients.
    pub fn enrolled(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Client;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rbc_bits::U256;
    use rbc_pqc::LightSaber;
    use rbc_puf::ModelPuf;

    fn small_cfg() -> CaConfig {
        CaConfig {
            max_d: 3,
            engine: EngineConfig { threads: 4, ..Default::default() },
            ..Default::default()
        }
    }

    fn authenticate_once(
        ca: &mut CertificateAuthority<LightSaber>,
        client: &Client<ModelPuf>,
        rng: &mut StdRng,
    ) -> VerdictMsg {
        let challenge = ca.begin(&client.hello()).unwrap();
        let digest = client.respond(&challenge, rng);
        ca.complete(&digest).unwrap()
    }

    #[test]
    fn end_to_end_noiseless_accepts_at_distance_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let device = ModelPuf::noiseless(2048, 10);
        let client = Client::new(1, device);
        let mut ca = CertificateAuthority::new([0u8; 32], LightSaber, small_cfg());
        ca.enroll_client(1, client.device(), 0, &mut rng).unwrap();

        let verdict = authenticate_once(&mut ca, &client, &mut rng);
        match verdict.verdict {
            Verdict::Accepted { distance, ref public_key } => {
                assert_eq!(distance, 0);
                assert_eq!(ca.ra().lookup(1).unwrap(), &public_key[..]);
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert_eq!(ca.log().len(), 1);
        assert!(ca.log()[0].accepted);
    }

    #[test]
    fn end_to_end_noisy_sram_accepts_at_low_distance() {
        let mut rng = StdRng::seed_from_u64(2);
        let device = ModelPuf::sram(4096, 77);
        let client = Client::new(5, device);
        let mut ca = CertificateAuthority::new([1u8; 32], LightSaber, small_cfg());
        ca.enroll_client(5, client.device(), 100, &mut rng).unwrap();

        let mut accepted = 0;
        for _ in 0..5 {
            if let Verdict::Accepted { distance, .. } =
                authenticate_once(&mut ca, &client, &mut rng).verdict
            {
                assert!(distance <= 3);
                accepted += 1;
            }
        }
        assert!(accepted >= 3, "masked SRAM client should usually authenticate, got {accepted}/5");
    }

    #[test]
    fn noise_beyond_max_d_rejects() {
        let mut rng = StdRng::seed_from_u64(3);
        let device = ModelPuf::noiseless(2048, 20);
        let mut client = Client::new(2, device);
        client.extra_noise = 6; // strictly above max_d = 3
        let mut ca = CertificateAuthority::new([2u8; 32], LightSaber, small_cfg());
        ca.enroll_client(2, client.device(), 0, &mut rng).unwrap();

        let verdict = authenticate_once(&mut ca, &client, &mut rng);
        assert_eq!(verdict.verdict, Verdict::Rejected);
        assert!(!ca.log()[0].accepted);
    }

    #[test]
    fn deliberate_noise_within_bound_still_accepts() {
        // §5: injected noise raises the searched distance but not past max_d.
        let mut rng = StdRng::seed_from_u64(4);
        let device = ModelPuf::noiseless(2048, 30);
        let mut client = Client::new(3, device);
        client.extra_noise = 2;
        let mut ca = CertificateAuthority::new([3u8; 32], LightSaber, small_cfg());
        ca.enroll_client(3, client.device(), 0, &mut rng).unwrap();

        match authenticate_once(&mut ca, &client, &mut rng).verdict {
            Verdict::Accepted { distance, .. } => assert_eq!(distance, 2),
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    #[test]
    fn key_rotates_every_session() {
        let mut rng = StdRng::seed_from_u64(5);
        let device = ModelPuf::noiseless(2048, 40);
        let mut client = Client::new(4, device);
        client.extra_noise = 1; // stochastic flips → different seed each time
        let mut ca = CertificateAuthority::new([4u8; 32], LightSaber, small_cfg());
        ca.enroll_client(4, client.device(), 0, &mut rng).unwrap();

        let k1 = match authenticate_once(&mut ca, &client, &mut rng).verdict {
            Verdict::Accepted { public_key, .. } => public_key,
            other => panic!("{other:?}"),
        };
        let k2 = match authenticate_once(&mut ca, &client, &mut rng).verdict {
            Verdict::Accepted { public_key, .. } => public_key,
            other => panic!("{other:?}"),
        };
        assert_ne!(k1, k2, "one-time session keys");
        assert_eq!(ca.ra().update_count(), 2);
    }

    #[test]
    fn unknown_client_and_session_are_rejected() {
        let mut ca = CertificateAuthority::new([5u8; 32], LightSaber, small_cfg());
        let hello = HelloMsg { client_id: 99, trace: TraceContext::NONE };
        assert_eq!(ca.begin(&hello), Err(CaError::UnknownClient(99)));
        let msg = DigestMsg {
            client_id: 1,
            session: 12345,
            digest: HashAlgo::Sha3_256.digest_seed(&U256::ZERO),
            trace: TraceContext::NONE,
        };
        assert_eq!(ca.complete(&msg), Err(CaError::UnknownSession(12345)));
    }

    #[test]
    fn session_is_single_use() {
        let mut rng = StdRng::seed_from_u64(6);
        let device = ModelPuf::noiseless(2048, 50);
        let client = Client::new(6, device);
        let mut ca = CertificateAuthority::new([6u8; 32], LightSaber, small_cfg());
        ca.enroll_client(6, client.device(), 0, &mut rng).unwrap();
        let challenge = ca.begin(&client.hello()).unwrap();
        let digest = client.respond(&challenge, &mut rng);
        ca.complete(&digest).unwrap();
        assert_eq!(ca.complete(&digest), Err(CaError::UnknownSession(digest.session)));
    }

    #[test]
    fn timeout_rotates_to_a_fresh_address() {
        let mut rng = StdRng::seed_from_u64(8);
        let device = ModelPuf::noiseless(8192, 70);
        let mut client = Client::new(8, device);
        // Noise keeps the search away from the instant d=0 match so the
        // pathological deadline below actually trips.
        client.extra_noise = 2;
        // Pathological deadline: first attempt always times out.
        let cfg = CaConfig {
            max_d: 3,
            engine: EngineConfig {
                threads: 2,
                deadline: Some(std::time::Duration::from_nanos(1)),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut ca = CertificateAuthority::new([8u8; 32], LightSaber, cfg);
        ca.enroll_client(8, client.device(), 0, &mut rng).unwrap();
        ca.enroll_additional_address(8, client.device(), 2048, &mut rng).unwrap();

        let first = ca.begin(&client.hello()).unwrap();
        let digest = client.respond(&first, &mut rng);
        let verdict = ca.complete(&digest).unwrap();
        assert_eq!(verdict.verdict, Verdict::TimedOut);

        // The restarted session must challenge different cells.
        let second = ca.begin(&client.hello()).unwrap();
        assert_ne!(first.cells, second.cells, "new PUF address after timeout");

        // With a sane deadline the retry authenticates against the
        // second image.
        let mut ca2 = CertificateAuthority::new(
            [8u8; 32],
            LightSaber,
            CaConfig {
                max_d: 2,
                engine: EngineConfig { threads: 2, ..Default::default() },
                ..Default::default()
            },
        );
        ca2.enroll_client(8, client.device(), 0, &mut rng).unwrap();
        ca2.enroll_additional_address(8, client.device(), 2048, &mut rng).unwrap();
        // Force the cursor forward as if a timeout had happened.
        ca2.address_cursor.insert(8, 1);
        let challenge = ca2.begin(&client.hello()).unwrap();
        let digest = client.respond(&challenge, &mut rng);
        let verdict = ca2.complete(&digest).unwrap();
        assert!(
            matches!(verdict.verdict, Verdict::Accepted { .. }),
            "retry at the fresh address must authenticate: {verdict:?}"
        );
    }

    #[test]
    fn reenrolling_mid_session_still_searches_the_challenged_image() {
        let mut rng = StdRng::seed_from_u64(9);
        let device = ModelPuf::noiseless(8192, 90);
        let client = Client::new(9, device);
        let mut ca = CertificateAuthority::new([9u8; 32], LightSaber, small_cfg());
        ca.enroll_client(9, client.device(), 0, &mut rng).unwrap();
        let challenge = ca.begin(&client.hello()).unwrap();

        // Re-enrollment at another address replaces the stored image
        // before the digest arrives.
        ca.enroll_client(9, client.device(), 4096, &mut rng).unwrap();
        let fresh = ca.store.get_at(9, 0).unwrap();
        assert_ne!(fresh.image.selected, challenge.cells);

        let digest = client.respond(&challenge, &mut rng);
        let pending = ca.prepare(&digest).unwrap();
        assert_ne!(pending.job.s_init, fresh.image.reference);
        let report = ca.backend().submit(&pending.job);
        match ca.finish(&pending, report).verdict {
            Verdict::Accepted { distance, .. } => assert_eq!(distance, 0),
            other => panic!("the challenged image must be searched, got {other:?}"),
        }
    }

    #[test]
    fn append_leaves_earlier_ciphertexts_untouched() {
        let mut rng = StdRng::seed_from_u64(10);
        let device = ModelPuf::noiseless(8192, 100);
        let mut ca = CertificateAuthority::new([10u8; 32], LightSaber, small_cfg());
        ca.enroll_client(10, &device, 0, &mut rng).unwrap();
        let first = ca.store.sealed_bytes(10, 0).unwrap().to_vec();
        ca.enroll_additional_address(10, &device, 2048, &mut rng).unwrap();
        ca.enroll_additional_address(10, &device, 4096, &mut rng).unwrap();
        let second = ca.store.sealed_bytes(10, 1).unwrap().to_vec();
        ca.enroll_additional_address(10, &device, 6144, &mut rng).unwrap();
        assert_eq!(ca.store.record_count(10), 4);
        assert_eq!(ca.store.sealed_bytes(10, 0).unwrap(), &first[..]);
        assert_eq!(ca.store.sealed_bytes(10, 1).unwrap(), &second[..]);
    }

    #[test]
    fn corrupt_record_fails_closed_at_hello() {
        let mut rng = StdRng::seed_from_u64(11);
        let device = ModelPuf::noiseless(2048, 110);
        let client = Client::new(11, device);
        let mut ca = CertificateAuthority::new([11u8; 32], LightSaber, small_cfg());
        ca.enroll_client(11, client.device(), 0, &mut rng).unwrap();
        // Flip one bit of the ciphertext where the reference seed sits
        // (after the 12-byte nonce, the magic word and the address).
        ca.store.sealed_bytes_mut(11, 0).unwrap()[30] ^= 0x04;
        assert_eq!(ca.begin(&client.hello()), Err(CaError::CorruptRecord(11)));
    }

    #[test]
    fn mismatched_client_id_is_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let device = ModelPuf::noiseless(2048, 60);
        let client = Client::new(7, device);
        let mut ca = CertificateAuthority::new([7u8; 32], LightSaber, small_cfg());
        ca.enroll_client(7, client.device(), 0, &mut rng).unwrap();
        let challenge = ca.begin(&client.hello()).unwrap();
        let mut digest = client.respond(&challenge, &mut rng);
        digest.client_id = 8;
        assert!(matches!(ca.complete(&digest), Err(CaError::UnknownSession(_))));
    }
}
