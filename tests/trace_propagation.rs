//! End-to-end trace stitching over a lossy wire: the client mints a
//! [`TraceContext`] at hello, every protocol message echoes it through
//! the rbc-net RPC transport (retransmissions included), and the
//! service-side span tree reassembles under that one trace id — for
//! every verdict variant, including `Overloaded`.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_salted::core::backend::BackendDescriptor;
use rbc_salted::core::engine::SearchReport;
use rbc_salted::core::protocol::{ChallengeMsg, DigestMsg, HelloMsg, VerdictMsg};
use rbc_salted::net::{lossy_duplex, NetTelemetry, RpcClient, RpcServer};
use rbc_salted::prelude::*;
use rbc_salted::telemetry::{CollectingRecorder, EventKind, SpanRecord, TraceContext};

const RECV_TIMEOUT: Duration = Duration::from_secs(30);
const LOSS: f64 = 0.30;

/// A backend that supports only SHA-1: submitting the CA's SHA-3 job is
/// impossible, so the dispatcher sheds deterministically — the one
/// serial, timing-independent way to force `Verdict::Overloaded`.
struct Sha1Only;

impl SearchBackend for Sha1Only {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor { kind: "cpu", name: "sha1-only".into(), slots: 1 }
    }
    fn supports(&self, algo: HashAlgo) -> bool {
        algo == HashAlgo::Sha1
    }
    fn submit(&self, _job: &SearchJob) -> SearchReport {
        unreachable!("the dispatcher must shed unsupported jobs")
    }
}

struct ScenarioResult {
    hello_trace: TraceContext,
    verdict: VerdictMsg,
    spans: Vec<SpanRecord>,
    events: Vec<rbc_salted::telemetry::EventRecord>,
    retransmits: u64,
}

/// Runs one full authentication through RPC over a seeded lossy duplex
/// link against a dedicated service, collecting spans, events and link
/// telemetry.
fn run_scenario(
    backends: Vec<Arc<dyn SearchBackend>>,
    dispatch_cfg: DispatcherConfig,
    enroll_device: &ModelPuf,
    client: Client<ModelPuf>,
    seed: u64,
) -> ScenarioResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let ca_cfg = CaConfig {
        max_d: 3,
        engine: EngineConfig { threads: 2, ..Default::default() },
        ..Default::default()
    };
    let mut ca = CertificateAuthority::new([7u8; 32], LightSaber, ca_cfg);
    ca.enroll_client(client.id, enroll_device, 0, &mut rng).expect("enroll");

    let recorder = Arc::new(CollectingRecorder::new());
    let dispatcher = Arc::new(Dispatcher::new(backends, dispatch_cfg));
    let service = AuthService::with_recorder(ca, dispatcher, recorder.clone());
    let net = NetTelemetry::register(service.registry()).with_recorder(recorder.clone());

    let (mut client_link, mut server_link) = lossy_duplex(Duration::ZERO, LOSS, seed);
    client_link.attach_telemetry(net.clone());
    server_link.attach_telemetry(net.clone());

    let server = std::thread::spawn(move || {
        let mut rpc = RpcServer::new(server_link);
        // Serve generically-decoded requests until the client hangs up:
        // decoding to Value keeps the duplicate-replay cache effective
        // even when a retransmitted digest arrives where a hello is
        // expected (a typed decode would fail and skip the replay).
        while let Ok((seq, req)) = rpc.recv_request::<serde_json::Value>(RECV_TIMEOUT) {
            let sent = if req.field("digest").is_ok() {
                let digest: DigestMsg = serde_json::from_value(req).expect("digest message shape");
                let verdict = service.complete(&digest).expect("complete");
                rpc.respond(seq, &verdict)
            } else {
                let hello: HelloMsg = serde_json::from_value(req).expect("hello message shape");
                let challenge = service.begin(&hello).expect("begin");
                rpc.respond(seq, &challenge)
            };
            if sent.is_err() {
                break;
            }
        }
    });

    let mut rpc = RpcClient::new(client_link);
    rpc.rto = Duration::from_millis(5);
    // A rejection enumerates the whole d≤3 ball (seconds in a debug
    // build); the retry budget must comfortably outlive the search.
    rpc.max_attempts = 20_000;
    let hello = client.hello();
    rpc.set_trace(hello.trace.trace_id);
    let challenge: ChallengeMsg = rpc.call(&hello).expect("challenge over lossy rpc");
    assert_eq!(challenge.trace, hello.trace, "challenge echoes the minted trace");
    let digest = client.respond(&challenge, &mut rng);
    let verdict: VerdictMsg = rpc.call(&digest).expect("verdict over lossy rpc");
    drop(rpc);
    server.join().expect("server thread");

    ScenarioResult {
        hello_trace: hello.trace,
        verdict,
        spans: recorder.take(),
        events: recorder.events(),
        retransmits: net.retransmits.get(),
    }
}

/// Asserts the span tree is complete and stitched: every span carries
/// the wire trace id, every non-root parent pointer names a span present
/// in the same tree (no orphans), and the expected phases all appear.
fn assert_stitched(r: &ScenarioResult, expected_phases: &[&str]) {
    assert!(!r.hello_trace.is_none());
    assert_eq!(r.verdict.trace, r.hello_trace, "verdict closes the loop");
    for s in &r.spans {
        assert_eq!(
            s.trace_id, r.hello_trace.trace_id,
            "span {} is off-trace: {:#x} != {:#x}",
            s.name, s.trace_id, r.hello_trace.trace_id
        );
    }
    let ids: Vec<u64> = r.spans.iter().map(|s| s.span_id).collect();
    for s in &r.spans {
        assert!(
            s.parent_span == 0 || ids.contains(&s.parent_span),
            "span {} is an orphan: parent {:#x} not in the tree",
            s.name,
            s.parent_span
        );
    }
    let names: Vec<&str> = r.spans.iter().map(|s| s.name).collect();
    for phase in expected_phases {
        assert!(names.contains(phase), "missing span {phase}: {names:?}");
    }
}

#[test]
fn accepted_auth_stitches_one_trace_across_the_lossy_wire() {
    let device = ModelPuf::sram(4096, 500);
    let client = Client::new(9, ModelPuf::sram(4096, 500));
    let backends: Vec<Arc<dyn SearchBackend>> =
        vec![Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }))];
    let r = run_scenario(backends, DispatcherConfig::default(), &device, client, 0xACCE);

    assert!(
        matches!(r.verdict.verdict, Verdict::Accepted { .. }),
        "same die must authenticate: {:?}",
        r.verdict.verdict
    );
    assert_stitched(&r, &["hello", "prepare", "queue_wait", "search", "finish", "auth_total"]);
    // 30% loss over 4+ frames forces retransmission with this seed — the
    // trace assertions above therefore held *across* retransmits.
    assert!(r.retransmits >= 1, "seeded loss must have forced a retransmission");
    let retries: Vec<_> = r.events.iter().filter(|e| e.kind == EventKind::Retransmit).collect();
    assert!(!retries.is_empty(), "retransmissions surface as events");
    assert!(
        retries.iter().any(|e| e.trace_id == r.hello_trace.trace_id),
        "client-side retransmits are tagged with the in-flight trace"
    );
}

#[test]
fn rejected_auth_keeps_a_complete_span_tree() {
    // Impostor: enrolled die and presented die differ.
    let honest = ModelPuf::sram(4096, 1000);
    let impostor = Client::new(1, ModelPuf::sram(4096, 9999));
    let backends: Vec<Arc<dyn SearchBackend>> =
        vec![Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }))];
    let r = run_scenario(backends, DispatcherConfig::default(), &honest, impostor, 0x41);

    assert_eq!(r.verdict.verdict, Verdict::Rejected);
    assert_stitched(&r, &["hello", "prepare", "queue_wait", "search", "finish", "auth_total"]);
}

#[test]
fn timed_out_auth_emits_a_deadline_breach_on_its_trace() {
    // A ~zero dispatcher budget forces the search deadline to expire;
    // deliberate noise guarantees the d=0 probe can't match first.
    let device = ModelPuf::sram(4096, 42);
    let mut client = Client::new(2, ModelPuf::sram(4096, 42));
    client.extra_noise = 3;
    let backends: Vec<Arc<dyn SearchBackend>> =
        vec![Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }))];
    let cfg = DispatcherConfig { budget: Duration::from_nanos(1), ..Default::default() };
    let r = run_scenario(backends, cfg, &device, client, 0x7140);

    match r.verdict.verdict {
        Verdict::TimedOut => {
            assert_stitched(
                &r,
                &["hello", "prepare", "queue_wait", "search", "finish", "auth_total"],
            );
            let breach = r
                .events
                .iter()
                .find(|e| e.kind == EventKind::DeadlineBreach)
                .expect("a timeout must emit a deadline-breach event");
            assert_eq!(breach.trace_id, r.hello_trace.trace_id);
        }
        // A zero budget may also shed pre-search depending on scheduling;
        // that path is covered by the overload test below.
        Verdict::Overloaded { .. } => assert_stitched(&r, &["hello", "prepare", "auth_total"]),
        other => panic!("zero budget cannot complete a noisy search: {other:?}"),
    }
}

#[test]
fn overloaded_auth_still_stitches_and_emits_a_shed_event() {
    // The pool can't run SHA-3 jobs at all: the dispatcher sheds
    // deterministically, with no timing dependence.
    let device = ModelPuf::sram(4096, 77);
    let client = Client::new(5, ModelPuf::sram(4096, 77));
    let backends: Vec<Arc<dyn SearchBackend>> = vec![Arc::new(Sha1Only)];
    let r = run_scenario(backends, DispatcherConfig::default(), &device, client, 0x0E7);

    assert!(matches!(r.verdict.verdict, Verdict::Overloaded { .. }), "{:?}", r.verdict.verdict);
    // No backend ran: `search`/`finish` legitimately never happened, but
    // what did happen still stitches under the wire trace.
    assert_stitched(&r, &["hello", "prepare", "queue_wait", "auth_total"]);
    let shed = r
        .events
        .iter()
        .find(|e| e.kind == EventKind::Shed)
        .expect("a shed request must emit a shed event");
    assert_eq!(shed.trace_id, r.hello_trace.trace_id);
}
