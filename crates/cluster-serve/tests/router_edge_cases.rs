//! Router failure and corner semantics: a dead worker is a typed error
//! (never a hang, never a partial response vector), unknown stream ids
//! route deterministically, parked and store-tiered streams migrate
//! over the wire, and an older-epoch snapshot arriving *after* a
//! cluster-wide swap migrates forward on restore.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hom_classifiers::{Classifier, DecisionTreeLearner, MajorityClassifier};
use hom_cluster::ClusterParams;
use hom_cluster_serve::{http_request, wire, ClusterError, Router, WorkerServer, DEFAULT_VNODES};
use hom_core::{build, encode_model, BuildParams, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_obs::Obs;
use hom_serve::{Request, ServeEngine, ServeOptions, ServeTelemetry, StreamStore};
use hom_store::{FsIo, StoreOptions};

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

fn fixture() -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
    let mut src = StaggerSource::new(StaggerParams {
        lambda: 0.01,
        ..Default::default()
    });
    let (data, _) = collect(&mut src, 3000);
    let (model, _) = build(
        &data,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size: 10,
                seed: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let test: Vec<StreamRecord> = (0..500).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

fn novel_classifier(model: &HighOrderModel) -> Arc<dyn Classifier> {
    let n = model.schema().n_classes();
    let counts: Vec<usize> = (0..n).map(|c| usize::from(c == 1)).collect();
    Arc::new(MajorityClassifier::from_counts(&counts))
}

fn spawn_worker(model: &Arc<HighOrderModel>, store: Option<Arc<StreamStore>>) -> WorkerServer {
    let telemetry = Arc::new(ServeTelemetry::new());
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            threads: Some(1),
            sink: telemetry.obs(),
            store,
            ..Default::default()
        },
    ));
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    WorkerServer::bind(addr, engine, telemetry).expect("worker binds")
}

fn disk_store(tag: &str) -> (Arc<StreamStore>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("hom-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = FsIo::open(&dir).expect("temp dir");
    let store = StreamStore::open_with(
        Arc::new(io),
        StoreOptions {
            commit_interval_us: 0,
            sink: Obs::none(),
            ..Default::default()
        },
    )
    .expect("open store");
    (Arc::new(store), dir)
}

/// One `Step` per record per stream, records outer.
fn steps(records: &[StreamRecord], streams: &[u64]) -> Vec<Request> {
    records
        .iter()
        .flat_map(|r| {
            streams.iter().map(move |&stream| Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            })
        })
        .collect()
}

/// The first stream id (from 1) the ring sends to worker `owner`.
fn stream_owned_by(router: &Router, owner: usize) -> u64 {
    (1..)
        .find(|&s| router.owner(s) == owner)
        .expect("ring is total")
}

#[test]
fn dead_worker_mid_batch_is_a_typed_error_never_partial() {
    let (model, test) = fixture();
    let alive = spawn_worker(&model, None);
    let doomed = spawn_worker(&model, None);
    let doomed_addr = doomed.addr();
    let router = Router::new(
        vec![alive.addr(), doomed_addr],
        DEFAULT_VNODES,
        Duration::from_millis(800),
    )
    .expect("router");
    let s0 = stream_owned_by(&router, 0);
    let s1 = stream_owned_by(&router, 1);

    // Kill worker 1 (dropping the server stops its listener), then
    // submit a batch spanning both workers.
    drop(doomed);
    let batch = steps(&test[..5], &[s0, s1]);
    let t0 = Instant::now();
    let err = router
        .submit(&batch)
        .expect_err("half the batch is unroutable");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "failure must be prompt, not a hang"
    );
    match err {
        ClusterError::WorkerDown { worker, addr, .. } => {
            assert_eq!(worker, 1);
            assert_eq!(addr, doomed_addr);
        }
        other => panic!("expected WorkerDown, got {other}"),
    }

    // A batch entirely on the surviving worker still serves, with the
    // answers one engine gives: the failed batch applied nothing (it
    // failed connecting, before any sub-batch was sent), and no reply
    // left over from it is read as this batch's.
    let reference = ServeEngine::new(Arc::clone(&model));
    for r in &test[5..10] {
        let ok_batch = steps(std::slice::from_ref(r), &[s0]);
        let responses = router.submit(&ok_batch).expect("survivor still serves");
        assert_eq!(responses, reference.submit(&ok_batch));
    }
    assert_eq!(
        bits(&alive.engine().posterior(s0).expect("served")),
        bits(&reference.posterior(s0).expect("reference")),
    );
}

#[test]
fn dropping_a_worker_with_pooled_connections_is_prompt() {
    let (model, test) = fixture();
    let alive = spawn_worker(&model, None);
    let doomed = spawn_worker(&model, None);
    let timeout = Duration::from_millis(800);
    let router =
        Router::new(vec![alive.addr(), doomed.addr()], DEFAULT_VNODES, timeout).expect("router");
    let s0 = stream_owned_by(&router, 0);
    let s1 = stream_owned_by(&router, 1);
    router
        .submit(&steps(&test[..5], &[s0, s1]))
        .expect("both workers serve");

    // The router's pool now holds an idle connection to each worker.
    // Dropping one must not wait out that connection's idle deadline.
    let t0 = Instant::now();
    drop(doomed);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "worker drop blocked {:?} on a pooled connection",
        t0.elapsed()
    );

    let t0 = Instant::now();
    let err = router
        .submit(&steps(&test[5..10], &[s0, s1]))
        .expect_err("worker 1 is gone");
    assert!(t0.elapsed() < timeout * 2, "failure must be prompt");
    assert!(
        matches!(err, ClusterError::WorkerDown { worker: 1, .. }),
        "expected WorkerDown for worker 1, got {err}"
    );
    let responses = router
        .submit(&steps(&test[10..15], &[s0]))
        .expect("survivor still serves");
    assert_eq!(responses.len(), 5);
    assert!(responses.iter().all(|r| r.prediction.is_some()));
}

#[test]
fn a_worker_rebound_on_its_port_is_reached_on_a_fresh_connection() {
    let (model, test) = fixture();
    let w0 = spawn_worker(&model, None);
    let w1 = spawn_worker(&model, None);
    let router = Router::new(
        vec![w0.addr(), w1.addr()],
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let streams = [stream_owned_by(&router, 0), stream_owned_by(&router, 1)];
    let reference = ServeEngine::new(Arc::clone(&model));
    let drive = |records: &[StreamRecord]| {
        for r in records {
            let batch = steps(std::slice::from_ref(r), &streams);
            let responses = router.submit(&batch).expect("both workers serve");
            assert_eq!(responses, reference.submit(&batch));
        }
    };
    drive(&test[..20]);

    // Restart worker 1 on the same port over the same engine: the
    // router's pooled connection to the old listener is closed, so the
    // next batch must find that out and connect afresh.
    let (addr, engine) = (w1.addr(), Arc::clone(w1.engine()));
    drop(w1);
    let w1 = WorkerServer::bind(addr, engine, Arc::new(ServeTelemetry::new())).expect("rebinds");
    drive(&test[20..40]);
    assert_eq!(
        bits(&w1.engine().posterior(streams[1]).expect("served")),
        bits(&reference.posterior(streams[1]).expect("reference")),
    );
}

#[test]
fn unknown_stream_ids_route_deterministically() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..3).map(|_| spawn_worker(&model, None)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");

    // A never-seen id is created on its ring owner by the first request
    // and every subsequent request lands on the same worker.
    for fresh in [12345u64, 999_999_999_999, u64::MAX - 17] {
        let owner = router.owner(fresh);
        for r in &test[..3] {
            let responses = router
                .submit(&[Request::Step {
                    stream: fresh,
                    x: r.x.to_vec(),
                    y: r.y,
                }])
                .expect("submit");
            assert!(responses[0].prediction.is_some());
        }
        for (w, worker) in workers.iter().enumerate() {
            assert_eq!(
                worker.engine().stream_ids().contains(&fresh),
                w == owner,
                "stream {fresh}: worker {w} vs owner {owner}"
            );
        }
    }
}

#[test]
fn parked_and_store_tiered_streams_migrate_over_the_wire() {
    let (model, test) = fixture();
    let (store, dir) = disk_store("migrate");
    let source = spawn_worker(&model, Some(Arc::clone(&store)));
    let target = spawn_worker(&model, None);
    let router = Router::new(
        vec![source.addr(), target.addr()],
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let stream = stream_owned_by(&router, 0);

    let reference = ServeEngine::new(Arc::clone(&model));
    for r in &test[..250] {
        router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
        reference.step(stream, &r.x, r.y);
    }
    // Park on the source: with a store configured the snapshot tiers to
    // disk, which is exactly what migration must be able to lift.
    assert!(source.engine().park(stream));
    assert_eq!(source.engine().live_streams(), 0);
    assert!(store.contains(stream) || store.parked_len() > 0);

    router.migrate_stream(stream, 1).expect("wire migration");
    assert!(
        !source.engine().stream_ids().contains(&stream),
        "extract must remove the stream from the source"
    );
    store.commit().expect("commit");
    assert!(
        !store.contains(stream),
        "store copy must be tombstoned, or a source restart resurrects it"
    );

    // The stream continues on the target, bit-identically. (Traffic is
    // driven at the target directly: the operator escape hatch moved
    // the stream off its ring owner.)
    for r in &test[250..] {
        let body = wire::encode_requests(&[Request::Step {
            stream,
            x: r.x.to_vec(),
            y: r.y,
        }])
        .expect("encodes");
        let (status, payload) = http_request(
            target.addr(),
            "POST",
            "/submit",
            body.as_bytes(),
            Duration::from_secs(5),
        )
        .expect("target serves");
        assert_eq!(status, 200);
        let responses =
            wire::decode_responses(std::str::from_utf8(&payload).expect("utf-8")).expect("decodes");
        let want = reference.step(stream, &r.x, r.y);
        assert_eq!(responses[0].prediction, Some(want));
    }
    assert_eq!(
        bits(&target.engine().posterior(stream).expect("migrated")),
        bits(&reference.posterior(stream).expect("reference")),
        "post-migration posterior diverged"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn failed_migration_never_loses_stream_state() {
    let (model, test) = fixture();
    let source = spawn_worker(&model, None);
    // A topology entry nobody listens on: the migration target is dead.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        l.local_addr().expect("addr")
    };
    let router = Router::new(
        vec![source.addr(), dead_addr],
        DEFAULT_VNODES,
        Duration::from_millis(500),
    )
    .expect("router");
    let stream = stream_owned_by(&router, 0);

    let reference = ServeEngine::new(Arc::clone(&model));
    for r in &test[..100] {
        router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
        reference.step(stream, &r.x, r.y);
    }

    let err = router
        .migrate_stream(stream, 1)
        .expect_err("target is dead");
    assert!(
        matches!(err, ClusterError::WorkerDown { worker: 1, .. }),
        "expected WorkerDown for the target, got {err}"
    );
    // Two-phase migration: the source copy is evicted only after the
    // target acks /migrate/in, so the failed move lost nothing and the
    // stream keeps serving bit-identically where it was.
    assert!(
        source.engine().stream_ids().contains(&stream),
        "source must still hold the stream after a failed migration"
    );
    assert_eq!(
        bits(&source.engine().posterior(stream).expect("still resident")),
        bits(&reference.posterior(stream).expect("reference")),
        "posterior diverged after failed migration"
    );
    for r in &test[100..150] {
        let want = reference.step(stream, &r.x, r.y);
        let responses = router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("source still serves");
        assert_eq!(responses[0].prediction, Some(want));
    }
}

#[test]
fn older_epoch_snapshot_arriving_after_swap_migrates_forward() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model, None)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let stream = stream_owned_by(&router, 0);

    let reference = ServeEngine::new(Arc::clone(&model));
    for r in &test[..200] {
        router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
        reference.step(stream, &r.x, r.y);
    }
    // Park the stream at epoch 0, then flip the whole fleet to epoch 1.
    assert!(workers[0].engine().park(stream));
    let extended = Arc::new(model.admit_concept(novel_classifier(&model), 0.2, 120));
    let blob = encode_model(&extended, 1).expect("encodes");
    assert_eq!(router.swap(&blob).expect("fleet flip"), 1);
    reference
        .swap_model(Arc::clone(&extended))
        .expect("reference swap");

    // The parked snapshot still carries the epoch-0 stamp. Migrating it
    // now ships pre-swap bytes into a post-swap engine: /migrate/in
    // must migrate the state forward, not reject or corrupt it.
    router
        .migrate_stream(stream, 1)
        .expect("stale snapshot migrates");
    let migrated = workers[1]
        .engine()
        .posterior(stream)
        .expect("restored on the target");
    assert_eq!(
        migrated.len(),
        extended.n_concepts(),
        "posterior must span the grown concept space"
    );
    assert_eq!(
        bits(&migrated),
        bits(&reference.posterior(stream).expect("reference")),
        "forward-migrated posterior diverged"
    );

    // And it keeps serving on the new model, still bit-identical.
    for r in &test[200..300] {
        let want = reference.step(stream, &r.x, r.y);
        let body = wire::encode_requests(&[Request::Step {
            stream,
            x: r.x.to_vec(),
            y: r.y,
        }])
        .expect("encodes");
        let (status, payload) = http_request(
            workers[1].addr(),
            "POST",
            "/submit",
            body.as_bytes(),
            Duration::from_secs(5),
        )
        .expect("target serves");
        assert_eq!(status, 200);
        let responses =
            wire::decode_responses(std::str::from_utf8(&payload).expect("utf-8")).expect("decodes");
        assert_eq!(responses[0].prediction, Some(want));
    }
}

#[test]
fn swap_aborts_at_prepare_when_a_worker_would_disagree() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model, None)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    for r in &test[..20] {
        router
            .submit(&[Request::Step {
                stream: 1,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
    }

    // A blob targeting epoch 5 cannot be the fleet's next epoch (1):
    // every worker rejects it at prepare, and nothing flips.
    let extended = Arc::new(model.admit_concept(novel_classifier(&model), 0.2, 120));
    let blob = encode_model(&extended, 5).expect("encodes");
    let err = router.swap(&blob).expect_err("wrong-epoch blob");
    assert!(
        matches!(err, ClusterError::BadResponse { .. }),
        "expected a prepare rejection, got {err}"
    );
    for (w, worker) in workers.iter().enumerate() {
        assert_eq!(worker.engine().epoch(), 0, "worker {w} flipped anyway");
    }
    // The correctly-stamped blob then flips cleanly.
    let blob = encode_model(&extended, 1).expect("encodes");
    assert_eq!(router.swap(&blob).expect("fleet flip"), 1);
}
