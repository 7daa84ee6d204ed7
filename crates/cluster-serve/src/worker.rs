//! The worker node: one [`ServeEngine`] behind the cluster protocol.
//!
//! A worker is deliberately dumb — it owns no topology, knows no peers,
//! and never initiates anything. The router tells it what to serve
//! (`/submit`), which streams to hand over or adopt
//! (`/migrate/snapshot`, `/migrate/in`, `/migrate/evict`), and when to
//! stage and flip a new model (`/swap/prepare`, `/swap/commit`).
//! Everything stateful lives in the
//! engine; killing a worker loses exactly what killing a single-node
//! [`ServeEngine`] loses (nothing, with a durable store under it — see
//! `hom-store`).
//!
//! | route | method | payload |
//! |---|---|---|
//! | `/submit` | POST | JSONL request batch in, JSONL responses out, order preserved ([`crate::wire`]) |
//! | `/migrate/snapshot` | POST | `{"stream":N}` → `{"stream":N,"snapshot":"<hex>"}`; a **non-destructive** copy ([`ServeEngine::snapshot`]) — phase 1 of the router's two-phase migration |
//! | `/migrate/in` | POST | `{"stream":N,"snapshot":"<hex>"}` → installs the state ([`ServeEngine::restore`]; older-epoch snapshots migrate forward on arrival) — phase 2 |
//! | `/migrate/evict` | POST | `{"stream":N}` → removes every local trace of the stream ([`ServeEngine::extract`], bytes discarded) — phase 3, sent only after the target acks `/migrate/in` |
//! | `/swap/prepare` | POST | raw `HOMM` model blob (`hom_core::model_codec`) → decoded, validated and **staged**; `{"epoch":N}` echoes the blob's target epoch |
//! | `/swap/commit` | POST | `{"epoch":N}` → flips the staged model into the engine iff the target epoch matches; `{"epoch":N}` confirms |
//! | `/quiesce` | POST | parks every live stream and commits the durable store → `{"parked":N}` |
//! | `/healthz` | GET | JSON liveness: epoch, live/parked stream counts (the router's probe parses this shape) |
//! | `/cluster/info` | GET | JSON epoch + full stream-id census ([`ServeEngine::stream_ids`]) — the rebalancer's input |
//! | `/posterior/<id>` | GET | the stream's posterior, shortest round-trip floats (bit-exact scrape) |
//!
//! Every other GET is answered by `hom-serve`'s introspection routes
//! ([`hom_serve::introspect::route`]), the ones a single-node
//! `MetricsServer` serves: `/metrics` (Prometheus text from the
//! engine's [`ServeTelemetry`] — the router federates these),
//! `/trace/<id>` (this worker's span slice of a distributed trace — the
//! router federates these into the stitched tree), `/streams/<id>`,
//! `/shards`, `/store`, `/flight`, `/concepts` and `/slo`.
//!
//! Every route the router forwards carries an optional `X-HOM-Trace`
//! header ([`hom_serve::http::TRACE_HEADER`]); when present and
//! well-formed, the worker's handler spans — `cluster.submit` (with
//! `cluster.decode`/`serve.batch`/`cluster.encode` under it), the
//! `cluster.migrate_*` phases, `cluster.swap_*`, `cluster.healthz` —
//! join the router's trace as children of the router's forwarding span.
//!
//! The two-phase swap is what makes a cluster-wide model flip atomic:
//! `prepare` distributes and validates the blob on every worker while
//! traffic still flows against the old model; `commit` is then a tiny,
//! deterministic step (the model is already decoded and resident), so
//! the router can flip the whole fleet inside one routing write-lock
//! hold — no worker ever serves a request against a different epoch
//! than its peers (see `crate::router`).

use std::fmt;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use hom_core::{decode_model, HighOrderModel};
use hom_obs::jsonl::{parse_object, push_f64, JsonObject};
use hom_obs::TraceContext;
use hom_serve::http::{HttpRequest, HttpResponse, HttpServer};
use hom_serve::introspect;
use hom_serve::{ServeEngine, ServeTelemetry, StreamId};

use crate::wire;

/// A worker's engine plus the HTTP listener speaking the cluster
/// protocol over it. Dropping the server stops the listener; the engine
/// (shared `Arc`) lives on.
pub struct WorkerServer {
    server: HttpServer,
    engine: Arc<ServeEngine>,
}

impl fmt::Debug for WorkerServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerServer")
            .field("addr", &self.server.addr())
            .finish()
    }
}

/// The model staged by `/swap/prepare`, waiting for its `/swap/commit`.
struct Staged {
    model: Arc<HighOrderModel>,
    epoch: u32,
}

impl WorkerServer {
    /// Bind the cluster protocol on `addr` (port 0 picks a free one —
    /// read it back with [`Self::addr`]) over `engine`. `telemetry` must
    /// be the bundle the engine's `ServeOptions::sink` records into, or
    /// `/metrics` will scrape an empty aggregate.
    pub fn bind(
        addr: SocketAddr,
        engine: Arc<ServeEngine>,
        telemetry: Arc<ServeTelemetry>,
    ) -> std::io::Result<Self> {
        let handler_engine = Arc::clone(&engine);
        let staged: Arc<Mutex<Option<Staged>>> = Arc::new(Mutex::new(None));
        let server = HttpServer::bind(
            addr,
            "hom-worker",
            Arc::new(move |req: &HttpRequest| dispatch(&handler_engine, &telemetry, &staged, req)),
        )?;
        Ok(WorkerServer { server, engine })
    }

    /// The address actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The engine this worker serves.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }
}

fn dispatch(
    engine: &Arc<ServeEngine>,
    telemetry: &Arc<ServeTelemetry>,
    staged: &Mutex<Option<Staged>>,
    req: &HttpRequest,
) -> HttpResponse {
    // An inbound `X-HOM-Trace` header joins this request to the
    // router's trace: the scope installs the remote parent span id, so
    // every span opened while handling the request — including the
    // engine's own `serve.batch` (same `Obs` handle via `telemetry`) —
    // lands in the worker's trace buffer under the router's span.
    // Malformed or absent headers mean "untraced": no scope, no spans,
    // zero deviation from the untraced path.
    let ctx = req.trace.as_deref().and_then(TraceContext::parse);
    let obs = telemetry.obs();
    let _scope = ctx.map(|c| obs.trace_scope(c));
    let traced = ctx.is_some();
    let span = |name| traced.then(|| obs.span(name));
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => {
            let _s = span("cluster.submit");
            submit(engine, &req.body, traced, &obs)
        }
        ("POST", "/migrate/snapshot") => {
            let _s = span("cluster.migrate_snapshot");
            migrate_snapshot(engine, &req.body)
        }
        ("POST", "/migrate/in") => {
            let _s = span("cluster.migrate_in");
            migrate_in(engine, &req.body)
        }
        ("POST", "/migrate/evict") => {
            let _s = span("cluster.migrate_evict");
            migrate_evict(engine, &req.body)
        }
        ("POST", "/swap/prepare") => {
            let _s = span("cluster.swap_prepare");
            swap_prepare(engine, staged, &req.body)
        }
        ("POST", "/swap/commit") => {
            let _s = span("cluster.swap_commit");
            swap_commit(engine, staged, &req.body)
        }
        ("POST", "/quiesce") => quiesce(engine),
        ("GET", "/healthz") => {
            let _s = span("cluster.healthz");
            healthz(engine)
        }
        ("GET", "/cluster/info") => cluster_info(engine),
        ("GET", path) if path.starts_with("/posterior/") => {
            posterior(engine, &path["/posterior/".len()..])
        }
        ("GET", _) => introspect::route(engine, telemetry, req),
        _ => HttpResponse::not_found("unknown route"),
    }
}

fn submit(engine: &ServeEngine, body: &[u8], traced: bool, obs: &hom_obs::Obs) -> HttpResponse {
    let decoded = {
        let _s = traced.then(|| obs.span("cluster.decode"));
        std::str::from_utf8(body)
            .map_err(|_| "submit body is not UTF-8".to_string())
            .and_then(|text| wire::decode_requests(text).map_err(|e| e.to_string()))
    };
    let batch = match decoded {
        Ok(batch) => batch,
        Err(e) => return HttpResponse::bad_request(&e),
    };
    // `engine.submit` opens its own `serve.batch` span under the active
    // trace (the engine records into the same `Obs`), so the trace
    // shows decode / batch / encode as siblings under `cluster.submit`.
    let responses = engine.submit(&batch);
    let _s = traced.then(|| obs.span("cluster.encode"));
    HttpResponse::ok("application/jsonl", wire::encode_responses(&responses))
}

/// Parse a one-line JSON body like `{"stream":7,...}`.
fn body_fields(body: &[u8]) -> Result<JsonObject, &'static str> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    parse_object(text).map_err(|e| e.what)
}

/// Phase 1 of the router's two-phase migration: a **non-destructive**
/// snapshot. This worker keeps serving the stream — and keeps its
/// durable-store copy — until the router confirms the target installed
/// it and sends `/migrate/evict`, so a failure anywhere in between
/// loses nothing.
fn migrate_snapshot(engine: &ServeEngine, body: &[u8]) -> HttpResponse {
    let stream = match body_fields(body).and_then(|f| f.u64("stream")) {
        Ok(s) => s,
        Err(what) => return HttpResponse::bad_request(what),
    };
    match engine.snapshot(stream) {
        Some(bytes) => HttpResponse::ok(
            "application/json",
            format!(
                "{{\"stream\":{stream},\"snapshot\":\"{}\"}}\n",
                wire::to_hex(&bytes)
            ),
        ),
        None => HttpResponse::not_found("stream not on this worker"),
    }
}

/// Phase 3 of the two-phase migration: drop the source copy — live
/// slot, RAM-parked bytes, durable-store tombstone — now that the
/// target owns the stream. The extracted bytes are discarded; the
/// authoritative copy already lives on the target.
fn migrate_evict(engine: &ServeEngine, body: &[u8]) -> HttpResponse {
    let stream = match body_fields(body).and_then(|f| f.u64("stream")) {
        Ok(s) => s,
        Err(what) => return HttpResponse::bad_request(what),
    };
    match engine.extract(stream) {
        Some(_) => HttpResponse::ok("application/json", format!("{{\"stream\":{stream}}}\n")),
        None => HttpResponse::not_found("stream not on this worker"),
    }
}

fn migrate_in(engine: &ServeEngine, body: &[u8]) -> HttpResponse {
    let fields = match body_fields(body) {
        Ok(f) => f,
        Err(what) => return HttpResponse::bad_request(what),
    };
    let (stream, hex) = match (fields.u64("stream"), fields.str("snapshot")) {
        (Ok(s), Ok(h)) => (s, h),
        (Err(what), _) | (_, Err(what)) => return HttpResponse::bad_request(what),
    };
    let bytes = match wire::from_hex(hex) {
        Ok(b) => b,
        Err(e) => return HttpResponse::bad_request(&e.to_string()),
    };
    match engine.restore(stream, &bytes) {
        Ok(()) => HttpResponse::ok("application/json", format!("{{\"stream\":{stream}}}\n")),
        Err(e) => HttpResponse::bad_request(&format!("snapshot rejected: {e}")),
    }
}

fn swap_prepare(engine: &ServeEngine, staged: &Mutex<Option<Staged>>, body: &[u8]) -> HttpResponse {
    let (model, epoch) = match decode_model(body) {
        Ok(decoded) => decoded,
        Err(e) => return HttpResponse::bad_request(&format!("model blob rejected: {e}")),
    };
    // Validate the flip *now*, not at commit time: a blob targeting the
    // wrong epoch (router and worker disagree on swap count) must fail
    // the prepare phase, while every worker still serves the old model.
    let expected = engine.epoch() + 1;
    if epoch != expected {
        return HttpResponse::bad_request(&format!(
            "blob targets epoch {epoch}, this worker's next epoch is {expected}"
        ));
    }
    *staged.lock().unwrap_or_else(|e| e.into_inner()) = Some(Staged { model, epoch });
    HttpResponse::ok("application/json", format!("{{\"epoch\":{epoch}}}\n"))
}

fn swap_commit(engine: &ServeEngine, staged: &Mutex<Option<Staged>>, body: &[u8]) -> HttpResponse {
    let epoch = match body_fields(body).and_then(|f| f.u64("epoch")) {
        Ok(e) => e as u32,
        Err(what) => return HttpResponse::bad_request(what),
    };
    let mut slot = staged.lock().unwrap_or_else(|e| e.into_inner());
    match slot.as_ref() {
        Some(s) if s.epoch == epoch => {}
        Some(s) => {
            return HttpResponse::bad_request(&format!(
                "staged model targets epoch {}, commit asked for {epoch}",
                s.epoch
            ))
        }
        None => return HttpResponse::bad_request("no staged model to commit"),
    }
    let model = Arc::clone(&slot.as_ref().expect("checked above").model);
    match engine.swap_model(model) {
        Ok(report) if report.epoch == epoch => {
            *slot = None;
            HttpResponse::ok("application/json", format!("{{\"epoch\":{epoch}}}\n"))
        }
        Ok(report) => {
            // The engine flipped but landed on an unexpected epoch — a
            // cluster invariant violation the router must see loudly.
            *slot = None;
            HttpResponse::bad_request(&format!(
                "swap landed on epoch {}, expected {epoch}",
                report.epoch
            ))
        }
        Err(e) => HttpResponse::bad_request(&format!("swap rejected: {e}")),
    }
}

fn quiesce(engine: &ServeEngine) -> HttpResponse {
    let mut parked = 0usize;
    for stream in engine.stream_ids() {
        if engine.park(stream) {
            parked += 1;
        }
    }
    if let Some(store) = engine.store() {
        if let Err(e) = store.commit() {
            return HttpResponse::bad_request(&format!("store commit failed: {e}"));
        }
    }
    HttpResponse::ok("application/json", format!("{{\"parked\":{parked}}}\n"))
}

fn healthz(engine: &ServeEngine) -> HttpResponse {
    HttpResponse::ok(
        "application/json",
        format!(
            "{{\"epoch\":{},\"live\":{},\"parked\":{}}}\n",
            engine.epoch(),
            engine.live_streams(),
            engine.parked_streams()
        ),
    )
}

fn cluster_info(engine: &ServeEngine) -> HttpResponse {
    let ids = engine.stream_ids();
    let mut body = format!("{{\"epoch\":{},\"streams\":[", engine.epoch());
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&id.to_string());
    }
    body.push_str("]}\n");
    HttpResponse::ok("application/json", body)
}

fn posterior(engine: &ServeEngine, id: &str) -> HttpResponse {
    let Ok(stream) = id.parse::<StreamId>() else {
        return HttpResponse::bad_request("stream id must be an integer");
    };
    match engine.posterior(stream) {
        Some(p) => {
            let mut body = format!("{{\"stream\":{stream},\"posterior\":[");
            for (i, &v) in p.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                push_f64(&mut body, v);
            }
            body.push_str("]}\n");
            HttpResponse::ok("application/json", body)
        }
        None => HttpResponse::not_found("no such stream"),
    }
}
