//! The protocol's wire format, pinned: each of the four messages
//! serializes to the committed JSON under `tests/wire/`, parses back to
//! itself, and survives a round trip through `RpcClient` / `RpcServer`.
//! A malformed hex key is refused without allocating more than its frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::time::Duration;

use rbc_core::protocol::{ChallengeMsg, DigestMsg, HelloMsg, Verdict, VerdictMsg};
use rbc_hash::{DynDigest, HashAlgo};
use rbc_net::{duplex, lossy_duplex, RpcClient, RpcServer, TransportError};
use rbc_telemetry::TraceContext;
use serde::de::DeserializeOwned;
use serde::Serialize;

thread_local! {
    /// The largest single allocation this thread has asked for.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct PeakAlloc;

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const TRACE: TraceContext = TraceContext { trace_id: 0x1234_5678_9abc_def0, parent_span: 7 };

fn hello() -> HelloMsg {
    HelloMsg { client_id: 42, trace: TRACE }
}

fn challenge() -> ChallengeMsg {
    ChallengeMsg {
        client_id: 42,
        session: 9001,
        cells: vec![3, 141, 5926, 53589],
        algo: HashAlgo::Sha3_256,
        trace: TRACE,
    }
}

fn digest() -> DigestMsg {
    let bytes: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(29).wrapping_add(5)).collect();
    DigestMsg { client_id: 42, session: 9001, digest: DynDigest::from_slice(&bytes), trace: TRACE }
}

/// An accepted verdict carrying a LightSaber-sized (1,056-byte) key that
/// takes every byte value.
fn verdict() -> VerdictMsg {
    let public_key = (0..1056u32).map(|i| (i * 37 + 11) as u8).collect();
    VerdictMsg {
        session: 9001,
        verdict: Verdict::Accepted { distance: 2, public_key },
        trace: TRACE,
    }
}

/// Serializes to exactly `committed`, parses back to itself, and comes
/// back unchanged as both the request and the response of one RPC.
fn pinned<M>(msg: M, committed: &str)
where
    M: Serialize + DeserializeOwned + PartialEq + Debug + Send + 'static,
{
    let wire = serde_json::to_vec(&msg).expect("serializes");
    assert_eq!(std::str::from_utf8(&wire).expect("UTF-8"), committed.trim_end());
    assert_eq!(serde_json::from_slice::<M>(&wire).expect("parses"), msg);

    let (client_link, server_link) = lossy_duplex(Duration::ZERO, 0.0, 1);
    let server = std::thread::spawn(move || {
        let mut server = RpcServer::new(server_link);
        let (seq, req): (u64, M) = server.recv_request(Duration::from_secs(10)).expect("request");
        server.respond(seq, &req).expect("respond");
        req
    });
    let mut client = RpcClient::new(client_link);
    let echoed: M = client.call(&msg).expect("response");
    assert_eq!(server.join().expect("server thread"), msg);
    assert_eq!(echoed, msg);
}

#[test]
fn hello_wire_format() {
    pinned(hello(), include_str!("wire/hello.json"));
}

#[test]
fn challenge_wire_format() {
    pinned(challenge(), include_str!("wire/challenge.json"));
}

#[test]
fn digest_wire_format() {
    pinned(digest(), include_str!("wire/digest.json"));
}

#[test]
fn accepted_verdict_wire_format() {
    pinned(verdict(), include_str!("wire/verdict_accepted.json"));
}

/// Key-sized malformed hex strings. (The old array form is refused too,
/// see `channel::tests::hostile`, but not within this bound: the JSON
/// parser builds a 32-byte `Value` per array element before any key
/// decoder runs.)
#[test]
fn malformed_keys_allocate_no_more_than_their_frame() {
    let hex = rbc_hash::hex::encode(&(0..1056u32).map(|i| i as u8).collect::<Vec<u8>>());
    for (key, what) in [
        (format!("\"{}\"", &hex[1..]), "odd length"),
        (format!("\"{}g\"", &hex[1..]), "non-hex ASCII"),
        (format!("\"{}é{}\"", &hex[..1000], &hex[1002..]), "multi-byte character"),
    ] {
        let payload = format!(
            r#"{{"session":1,"verdict":{{"Accepted":{{"distance":1,"public_key":{key}}}}},"trace":{{"trace_id":2,"parent_span":3}}}}"#
        );
        let (mut a, b) = duplex(Duration::ZERO);
        a.send(&serde_json::from_str::<serde_json::Value>(&payload).expect("valid JSON"))
            .expect("peer alive");
        let frame = a.bytes_sent() as usize;
        PEAK.with(|p| p.set(0));
        let got = b.recv::<VerdictMsg>(Duration::from_secs(1));
        let peak = PEAK.with(Cell::get);
        assert!(matches!(got, Err(TransportError::Decode(_))), "{what}: {got:?}");
        assert!(peak <= frame, "{what}: a {peak}-byte allocation for a {frame}-byte frame");
    }
}
