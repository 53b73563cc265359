//! The stack under test, built in-process the way the service deploys it:
//!
//! `RpcClient` over a lossless, zero-latency link → the server loop (one
//! thread per connection) → `AuthService` with admission control →
//! `Dispatcher` → the metering decorator → the backend.
//!
//! The benchmark changes no library code. It observes the search layers
//! through [`Metered`], a `SearchBackend` decorator around whatever the
//! dispatcher holds (and, for the pool, around each of its inner
//! backends).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_salted::core::admission::{AdmissionConfig, AdmissionControl};
use rbc_salted::core::backend::{BackendDescriptor, CpuBackend, SearchBackend, SearchJob};
use rbc_salted::core::ca::{CaConfig, CertificateAuthority};
use rbc_salted::core::dispatch::{Dispatcher, DispatcherConfig, RoutePolicy};
use rbc_salted::core::engine::{EngineConfig, Outcome, SearchReport};
use rbc_salted::core::pool::{SupervisedPool, SupervisedPoolConfig};
use rbc_salted::core::protocol::{DigestMsg, HelloMsg};
use rbc_salted::core::service::AuthService;
use rbc_salted::core::shard::{CheckpointSink, ShardReport, ShardSpec};
use rbc_salted::hash::HashAlgo;
use rbc_salted::net::{
    lossy_duplex, LatencyModel, LossyEndpoint, NetTelemetry, RpcClient, RpcServer, TransportError,
};
use rbc_salted::pqc::LightSaber;
use rbc_salted::puf::ModelPuf;
use rbc_salted::telemetry::{NullRecorder, Recorder, Registry};
use serde_json::Value;

use crate::spans::{traced, Span, SpanStore};
use crate::workload::{device_seed, mix, Backends, Workload};

/// The CA's search bound in every workload.
pub const MAX_D: u32 = 3;
/// Cells per client PUF model.
pub const CELLS: usize = 4096;
const QUEUE_LIMIT: usize = 16;
/// Longer than the search budget, so the lossless link never
/// retransmits; a second attempt only happens if the server stalls.
const RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// The per-request budget: the paper's 20 s threshold minus the modelled
/// WAN communication.
pub fn budget() -> Duration {
    LatencyModel::paper_wan().search_budget(Duration::from_secs(20))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the decorator saw of one backend call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Seeds derived (`submit`) or masks swept (`run_shard`).
    pub hashes: u64,
    /// Found distance of a search; the distance a shard sweeps.
    pub d: Option<u32>,
}

impl Call {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The decorator's shared books: every search and shard call, and, when
/// tracing, their spans.
pub struct Meter {
    epoch: Instant,
    spans: Option<Arc<SpanStore>>,
    searches: Mutex<Vec<Call>>,
    shards: Mutex<Vec<Call>>,
    /// Trace id → id of its open `backend.submit` span, so shard spans
    /// can name their parent.
    open: Mutex<HashMap<u64, u64>>,
}

impl Meter {
    fn new(epoch: Instant, spans: Option<Arc<SpanStore>>) -> Self {
        Meter {
            epoch,
            spans,
            searches: Mutex::default(),
            shards: Mutex::default(),
            open: Mutex::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(
        &self,
        calls: &Mutex<Vec<Call>>,
        name: &'static str,
        call: Call,
        id: u64,
        parent: u64,
    ) {
        calls.lock().expect("meter poisoned").push(call);
        if let Some(store) = &self.spans {
            let (start_ns, end_ns) = (call.start_ns, call.end_ns);
            store.push(Span { name, trace: call.trace, id, parent, start_ns, end_ns });
        }
    }

    pub fn searches(&self) -> Vec<Call> {
        self.searches.lock().expect("meter poisoned").clone()
    }

    pub fn shards(&self) -> Vec<Call> {
        self.shards.lock().expect("meter poisoned").clone()
    }

    /// Forgets the set-up requests' calls.
    pub fn clear(&self) {
        self.searches.lock().expect("meter poisoned").clear();
        self.shards.lock().expect("meter poisoned").clear();
    }
}

/// Transparent `SearchBackend` decorator recording every `submit` and
/// `run_shard` into a [`Meter`].
pub struct Metered {
    inner: Arc<dyn SearchBackend>,
    meter: Arc<Meter>,
}

impl SearchBackend for Metered {
    fn descriptor(&self) -> BackendDescriptor {
        self.inner.descriptor()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn supports(&self, algo: HashAlgo) -> bool {
        self.inner.supports(algo)
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        let trace = job.trace.trace_id;
        let id = self.meter.spans.as_ref().map_or(0, |s| s.new_id());
        self.meter.open.lock().expect("meter poisoned").insert(trace, id);
        let start = Instant::now();
        let report = self.inner.submit(job);
        let end = Instant::now();
        self.meter.open.lock().expect("meter poisoned").remove(&trace);
        let d = match report.outcome {
            Outcome::Found { distance, .. } => Some(distance),
            _ => None,
        };
        let (start_ns, end_ns) = (self.meter.ns(start), self.meter.ns(end));
        let call = Call { trace, start_ns, end_ns, hashes: report.seeds_derived, d };
        // The parent (the service's `search` span) is stitched in later.
        self.meter.record(&self.meter.searches, "backend.submit", call, id, 0);
        report
    }

    fn run_shard(
        &self,
        job: &SearchJob,
        spec: &ShardSpec,
        checkpoint_interval: u64,
        sink: &dyn CheckpointSink,
    ) -> ShardReport {
        let start = Instant::now();
        let report = self.inner.run_shard(job, spec, checkpoint_interval, sink);
        let end = Instant::now();
        let trace = job.trace.trace_id;
        let parent = self.meter.open.lock().expect("meter poisoned").get(&trace).copied();
        let id = self.meter.spans.as_ref().map_or(0, |s| s.new_id());
        let (start_ns, end_ns) = (self.meter.ns(start), self.meter.ns(end));
        let call = Call { trace, start_ns, end_ns, hashes: report.swept, d: Some(spec.d) };
        self.meter.record(&self.meter.shards, "shard.run", call, id, parent.unwrap_or(0));
        report
    }
}

/// One built stack with its open client connections.
pub struct Stack {
    pub service: Arc<AuthService<LightSaber>>,
    pub registry: Arc<Registry>,
    pub meter: Arc<Meter>,
    /// Searches the dispatcher runs at once.
    pub slots: usize,
    /// One RPC connection per generator thread.
    pub conns: Vec<RpcClient>,
    servers: Vec<JoinHandle<()>>,
}

impl Stack {
    /// Enrolls the workload's population and builds the stack with
    /// `workers` connections. Spans go to `spans` when tracing.
    pub fn build(
        w: Workload,
        seed: u64,
        workers: usize,
        epoch: Instant,
        spans: Option<Arc<SpanStore>>,
    ) -> Stack {
        let cfg = CaConfig {
            max_d: MAX_D,
            algo: w.algo(),
            engine: EngineConfig {
                threads: nproc(),
                deadline: Some(Duration::from_secs(20)),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut ca = CertificateAuthority::new([0x5a; 32], LightSaber, cfg);
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xe7_0011));
        for id in 0..w.enrolled() {
            let device = ModelPuf::noiseless(CELLS, device_seed(seed, id));
            ca.enroll_client(id, &device, 0, &mut rng).expect("noiseless devices always enroll");
        }

        let registry = Arc::new(Registry::new());
        let meter = Arc::new(Meter::new(epoch, spans.clone()));
        let metered = |inner: Arc<dyn SearchBackend>| -> Arc<dyn SearchBackend> {
            Arc::new(Metered { inner, meter: meter.clone() })
        };
        let cpu = |threads| -> Arc<dyn SearchBackend> {
            Arc::new(CpuBackend::new(EngineConfig { threads, ..Default::default() }))
        };
        let backends: Vec<Arc<dyn SearchBackend>> = match w.backends() {
            Backends::Shared => vec![metered(cpu(nproc()))],
            Backends::PerCore => (0..nproc()).map(|_| metered(cpu(1))).collect(),
            Backends::Pool => {
                let shards = (0..nproc()).map(|_| metered(cpu(1))).collect();
                vec![metered(Arc::new(SupervisedPool::with_registry(
                    shards,
                    SupervisedPoolConfig::default(),
                    registry.clone(),
                )))]
            }
        };
        let slots = backends.iter().map(|b| b.capacity()).sum();
        let dispatcher = Arc::new(Dispatcher::with_registry(
            backends,
            DispatcherConfig {
                queue_limit: QUEUE_LIMIT,
                budget: budget(),
                policy: RoutePolicy::LeastLoaded,
            },
            registry.clone(),
        ));
        let recorder: Arc<dyn Recorder> = match &spans {
            Some(store) => {
                store.anchor_service(Instant::now());
                store.clone()
            }
            None => Arc::new(NullRecorder),
        };
        let admission =
            Arc::new(AdmissionControl::new(AdmissionConfig::for_bound(MAX_D), &registry));
        let service = Arc::new(
            AuthService::with_recorder(ca, dispatcher, recorder).with_admission(admission),
        );

        let mut conns = Vec::new();
        let mut servers = Vec::new();
        for i in 0..workers {
            let (mut client_end, mut server_end) = lossy_duplex(Duration::ZERO, 0.0, i as u64);
            let net = NetTelemetry::register(&registry);
            client_end.attach_telemetry(net.clone());
            server_end.attach_telemetry(net);
            let mut rpc = RpcClient::new(client_end);
            rpc.rto = RPC_TIMEOUT;
            rpc.max_rto = RPC_TIMEOUT;
            rpc.backoff_factor = 1.0;
            rpc.max_attempts = 2;
            conns.push(rpc);
            let (service, spans) = (service.clone(), spans.clone());
            servers.push(std::thread::spawn(move || serve(&service, server_end, spans.as_deref())));
        }
        Stack { service, registry, meter, slots, conns, servers }
    }

    /// Hangs up every connection and waits for the server threads.
    pub fn shutdown(self) {
        drop(self.conns);
        for server in self.servers {
            server.join().expect("server thread panicked");
        }
    }
}

/// The server loop of one connection: hello → `begin`, digest →
/// `complete`. A request the service refuses with a `CaError` gets an
/// error string back, which the client cannot decode as a reply and so
/// reports as a failed call.
fn serve(service: &AuthService<LightSaber>, link: LossyEndpoint, spans: Option<&SpanStore>) {
    let mut rpc = RpcServer::new(link);
    loop {
        let (seq, req) = match rpc.recv_request::<Value>(Duration::from_secs(3600)) {
            Ok(r) => r,
            Err(TransportError::Timeout) => continue,
            Err(_) => return,
        };
        // Each handler span re-parents the message's trace context under
        // itself, so the service's spans nest below it.
        let sent = if req.field("digest").is_ok() {
            match serde_json::from_value::<DigestMsg>(req) {
                Ok(mut msg) => {
                    let (trace, parent) = (msg.trace.trace_id, msg.trace.parent_span);
                    match traced(spans, "server.complete", trace, parent, |id| {
                        if id != 0 {
                            msg.trace.parent_span = id;
                        }
                        service.complete(&msg)
                    }) {
                        Ok(verdict) => rpc.respond(seq, &verdict),
                        Err(e) => rpc.respond(seq, &e.to_string()),
                    }
                }
                Err(e) => rpc.respond(seq, &e.to_string()),
            }
        } else {
            match serde_json::from_value::<HelloMsg>(req) {
                Ok(mut msg) => {
                    let (trace, parent) = (msg.trace.trace_id, msg.trace.parent_span);
                    match traced(spans, "server.begin", trace, parent, |id| {
                        if id != 0 {
                            msg.trace.parent_span = id;
                        }
                        service.begin(&msg)
                    }) {
                        Ok(challenge) => rpc.respond(seq, &challenge),
                        Err(e) => rpc.respond(seq, &e.to_string()),
                    }
                }
                Err(e) => rpc.respond(seq, &e.to_string()),
            }
        };
        if sent.is_err() {
            return;
        }
    }
}
