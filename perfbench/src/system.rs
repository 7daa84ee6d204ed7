//! The systems under test, built only from the serving crates' public
//! API, and the plain in-process engine the outputs are checked against.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use hom_cluster_serve::{Router, WorkerServer, DEFAULT_VNODES};
use hom_core::HighOrderModel;
use hom_obs::Obs;
use hom_serve::{Request, Response, ServeEngine, ServeOptions, ServeTelemetry, StreamId};
use hom_store::{FsIo, StoreOptions, StreamStore};

use crate::traffic::{Spec, Topology, SHARDS};

/// Per-exchange deadline of the router and the bench's own HTTP calls.
pub const TIMEOUT: Duration = Duration::from_secs(5);

pub enum System {
    /// Field order is drop order: the router goes before its workers.
    Cluster {
        router: Router,
        workers: Vec<WorkerServer>,
    },
    Engine(Box<ServeEngine>),
}

/// One submit thread per engine, so an engine's batch runs on the
/// submitting thread.
fn options(sink: Obs) -> ServeOptions {
    ServeOptions {
        shards: Some(SHARDS),
        threads: Some(1),
        compiled: Some(true),
        sink,
        ..Default::default()
    }
}

/// The reference every output is compared against: one plain engine,
/// every stream in RAM, no telemetry.
pub fn reference(model: &Arc<HighOrderModel>) -> ServeEngine {
    ServeEngine::with_options(Arc::clone(model), &options(Obs::none()))
}

impl System {
    /// Bind the workload's system; a store lives under `dir`.
    pub fn bind(spec: &Spec, model: &Arc<HighOrderModel>, dir: &Path) -> Result<System, String> {
        Ok(match spec.topology {
            Topology::Cluster { workers } => {
                let workers = (0..workers)
                    .map(|_| {
                        let telemetry = Arc::new(ServeTelemetry::new());
                        let engine = Arc::new(ServeEngine::with_options(
                            Arc::clone(model),
                            &options(telemetry.obs()),
                        ));
                        WorkerServer::bind(
                            "127.0.0.1:0".parse().expect("loopback"),
                            engine,
                            telemetry,
                        )
                        .map_err(|e| format!("worker bind: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let router = Router::new(
                    workers.iter().map(|w| w.addr()).collect(),
                    DEFAULT_VNODES,
                    TIMEOUT,
                )
                .map_err(|e| format!("router: {e}"))?;
                System::Cluster { router, workers }
            }
            Topology::Engine => System::Engine(Box::new(reference(model))),
            Topology::Store { capacity } => {
                let store = open_store(dir)?;
                System::Engine(Box::new(ServeEngine::with_options(
                    Arc::clone(model),
                    &ServeOptions {
                        capacity: Some(capacity),
                        store: Some(Arc::new(store)),
                        ..options(Obs::none())
                    },
                )))
            }
        })
    }

    pub fn submit(&self, batch: &[Request]) -> Result<Vec<Response>, String> {
        match self {
            System::Cluster { router, .. } => router.submit(batch).map_err(|e| e.to_string()),
            System::Engine(engine) => Ok(engine.submit(batch)),
        }
    }

    /// The engines serving the streams (one per worker in a cluster).
    pub fn engines(&self) -> Vec<&ServeEngine> {
        match self {
            System::Cluster { workers, .. } => workers.iter().map(|w| &**w.engine()).collect(),
            System::Engine(engine) => vec![&**engine],
        }
    }

    /// `stream`'s posterior, read from the engine that owns it.
    pub fn posterior(&self, stream: StreamId) -> Option<Vec<f64>> {
        match self {
            System::Cluster { router, workers } => {
                workers[router.owner(stream)].engine().posterior(stream)
            }
            System::Engine(engine) => engine.posterior(stream),
        }
    }
}

/// A store in a fresh directory, its telemetry off like the engines'.
pub fn open_store(dir: &Path) -> Result<StreamStore, String> {
    let io = FsIo::open(dir).map_err(|e| format!("store directory {}: {e}", dir.display()))?;
    StreamStore::open_with(
        Arc::new(io),
        StoreOptions {
            sink: Obs::none(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("store open: {e}"))
}
