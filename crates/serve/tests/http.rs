//! The introspection listener end to end, over real TCP: every route
//! answers, the JSON a scrape returns parses back **bit-for-bit** equal
//! to the engine's in-memory state, malformed requests get clean HTTP
//! errors, and serving introspection never changes a prediction.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build, BuildParams, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_serve::{
    MetricsConfigError, MetricsServer, Request, ServeEngine, ServeOptions, ServeTelemetry,
    METRICS_ADDR_ENV,
};

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

/// A one-shot HTTP/1.1 GET (what a scraper does): returns the status
/// line and the body.
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    request(addr, "GET", path)
}

fn request(addr: SocketAddr, method: &str, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("listener accepts");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("whole response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// The `"key":[floats]` array inside a JSON body, parsed back to f64s.
fn json_f64_array(body: &str, key: &str) -> Vec<f64> {
    let marker = format!("\"{key}\":[");
    let start = body.find(&marker).expect("array present") + marker.len();
    let end = start + body[start..].find(']').expect("array closes");
    body[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("float parses"))
        .collect()
}

#[test]
fn routes_serve_live_state_bit_for_bit() {
    let (model, test) = fixture();
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            shards: Some(4),
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    // Traffic across a few streams, so there is state to introspect.
    let batch: Vec<Request> = test
        .iter()
        .enumerate()
        .map(|(i, r)| Request::Step {
            stream: (i % 8) as u64,
            x: r.x.to_vec(),
            y: r.y,
        })
        .collect();
    engine.submit(&batch);

    let server = MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "127.0.0.1:0")
        .expect("port 0 binds");
    let addr = server.addr();

    // /healthz: liveness JSON with engine-truth numbers.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"shards\":4"), "{body}");
    assert!(body.contains("\"model_epoch\":0"), "{body}");
    assert!(
        body.contains(&format!("\"live_streams\":{}", engine.live_streams())),
        "{body}"
    );

    // /shards: one entry per shard, totals matching the engine.
    let (status, body) = get(addr, "/shards");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body.matches("\"shard\":").count(), 4);
    let occupancy = engine.shard_occupancy();
    for (i, (live, parked)) in occupancy.iter().enumerate() {
        assert!(
            body.contains(&format!(
                "{{\"shard\":{i},\"live\":{live},\"parked\":{parked}}}"
            )),
            "shard {i} missing from {body}"
        );
    }

    // /metrics: Prometheus text with the serving counters & histogram.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        body.contains("# TYPE hom_serve_records_predicted_total counter"),
        "{body}"
    );
    assert!(
        body.contains(&format!(
            "hom_serve_records_predicted_total {}\n",
            test.len()
        )),
        "{body}"
    );
    assert!(
        body.contains("# TYPE hom_serve_batch_latency_ns histogram"),
        "{body}"
    );
    assert!(body.contains("hom_serve_batch_latency_ns_bucket{le=\"+Inf\"}"));

    // /streams/<id>: the live posterior, bit-for-bit.
    let (status, body) = get(addr, "/streams/3");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"live\":true"), "{body}");
    let scraped = json_f64_array(&body, "posterior");
    let truth = engine
        .peek(3, |s| s.posterior().to_vec())
        .expect("stream 3 lives");
    assert_eq!(scraped.len(), truth.len());
    for (a, b) in scraped.iter().zip(&truth) {
        assert_eq!(a.to_bits(), b.to_bits(), "posterior not bit-identical");
    }

    // A parked stream is introspected without being unparked.
    assert!(engine.park(5));
    let truth = engine
        .peek(5, |s| s.posterior().to_vec())
        .expect("peek decodes parked");
    let (status, body) = get(addr, "/streams/5");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"live\":false"), "{body}");
    let scraped = json_f64_array(&body, "posterior");
    for (a, b) in scraped.iter().zip(&truth) {
        assert_eq!(a.to_bits(), b.to_bits(), "parked posterior differs");
    }
    assert_eq!(engine.parked_streams(), 1, "introspection must not unpark");

    // /flight: the raw-event tail as parseable JSONL.
    let (status, body) = get(addr, "/flight");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(!body.is_empty(), "traffic left events in the ring");
    for line in body.lines() {
        hom_obs::jsonl::parse_line(line).expect("flight line parses");
    }

    // Errors: unknown stream & route are 404, non-GET is 405.
    assert_eq!(get(addr, "/streams/424242").0, "HTTP/1.1 404 Not Found");
    assert_eq!(
        get(addr, "/streams/not-a-number").0,
        "HTTP/1.1 404 Not Found"
    );
    assert_eq!(get(addr, "/bogus").0, "HTTP/1.1 404 Not Found");
    assert_eq!(
        request(addr, "POST", "/metrics").0,
        "HTTP/1.1 405 Method Not Allowed"
    );

    server.shutdown();
}

#[test]
fn malformed_metrics_addr_is_a_typed_error() {
    let (model, _) = fixture();
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));

    // Direct bind: not a socket address.
    let err = MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "nonsense")
        .expect_err("must be rejected");
    assert!(
        matches!(
            err,
            MetricsConfigError::InvalidAddr {
                from_env: false,
                ..
            }
        ),
        "{err}"
    );
    assert!(err.to_string().contains("ip:port"), "{err}");

    // Env hook: unset means no listener, set-but-malformed is an error
    // naming the variable — never a silent fallback.
    std::env::remove_var(METRICS_ADDR_ENV);
    assert!(
        MetricsServer::from_env(Arc::clone(&engine), telemetry.clone())
            .expect("unset is not an error")
            .is_none()
    );
    std::env::set_var(METRICS_ADDR_ENV, "not-an-addr");
    let err = MetricsServer::from_env(Arc::clone(&engine), telemetry.clone())
        .expect_err("malformed env value must be rejected");
    std::env::remove_var(METRICS_ADDR_ENV);
    assert!(
        matches!(err, MetricsConfigError::InvalidAddr { from_env: true, .. }),
        "{err}"
    );
    assert!(err.to_string().contains(METRICS_ADDR_ENV), "{err}");
}

/// Scraping while batches are in flight must not change a single
/// prediction: a hammered engine equals an unobserved one, bit for bit.
#[test]
fn concurrent_scraping_never_changes_predictions() {
    let (model, test) = fixture();

    let run = |with_server: bool| -> (Vec<u32>, Vec<Vec<u64>>) {
        let telemetry = ServeTelemetry::new();
        let engine = Arc::new(ServeEngine::with_options(
            Arc::clone(&model),
            &ServeOptions {
                shards: Some(4),
                sink: telemetry.obs(),
                ..Default::default()
            },
        ));
        let server = with_server.then(|| {
            MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "127.0.0.1:0")
                .expect("binds")
        });
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = server.as_ref().map(|s| {
            let addr = s.addr();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                loop {
                    for path in ["/metrics", "/healthz", "/shards", "/streams/1", "/flight"] {
                        get(addr, path);
                    }
                    scrapes += 1;
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        return scrapes;
                    }
                }
            })
        });

        let mut predictions = Vec::new();
        for chunk in test.chunks(50) {
            let batch: Vec<Request> = chunk
                .iter()
                .enumerate()
                .map(|(i, r)| Request::Step {
                    stream: (i % 8) as u64,
                    x: r.x.to_vec(),
                    y: r.y,
                })
                .collect();
            for resp in engine.submit(&batch) {
                predictions.push(resp.prediction.expect("step predicts"));
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(handle) = scraper {
            let scrapes = handle.join().expect("scraper thread");
            assert!(scrapes > 0, "the scraper must actually have scraped");
        }
        let posteriors: Vec<Vec<u64>> = (0..8)
            .map(|s| {
                engine
                    .peek(s, |st| st.posterior().iter().map(|v| v.to_bits()).collect())
                    .expect("stream lives")
            })
            .collect();
        (predictions, posteriors)
    };

    let (quiet_preds, quiet_posts) = run(false);
    let (scraped_preds, scraped_posts) = run(true);
    assert_eq!(quiet_preds, scraped_preds, "scraping changed a prediction");
    assert_eq!(quiet_posts, scraped_posts, "scraping changed a posterior");
}

/// The `/store` route: tier status as JSON when a durable store is
/// configured, a clean 404 when there is none.
#[test]
fn store_route_reports_tier_status_and_404s_without_one() {
    let (model, test) = fixture();

    // No store configured: /store is a 404, not a panic or empty 200.
    let telemetry = ServeTelemetry::new();
    let plain = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    let server = MetricsServer::bind(Arc::clone(&plain), telemetry.clone(), "127.0.0.1:0")
        .expect("port 0 binds");
    assert_eq!(get(server.addr(), "/store").0, "HTTP/1.1 404 Not Found");
    server.shutdown();

    // Store configured: the route reports the tier's accounting.
    let store = Arc::new(
        hom_serve::StreamStore::open_with(
            Arc::new(hom_store::MemIo::new()) as Arc<dyn hom_store::StoreIo>,
            hom_store::StoreOptions {
                commit_interval_us: 0,
                sink: hom_obs::Obs::none(),
                ..Default::default()
            },
        )
        .expect("open store"),
    );
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            capacity: Some(1),
            shards: Some(4),
            sink: telemetry.obs(),
            store: Some(Arc::clone(&store)),
            ..Default::default()
        },
    ));
    for (i, r) in test.iter().enumerate() {
        engine.step((i % 8) as u64, &r.x, r.y);
    }
    let server = MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "127.0.0.1:0")
        .expect("port 0 binds");
    let (status, body) = get(server.addr(), "/store");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let want = store.status();
    assert!(
        body.contains(&format!("\"parked\":{}", want.parked)),
        "parked count missing from {body}"
    );
    assert!(
        body.contains(&format!("\"commits\":{}", want.commits)),
        "commit count missing from {body}"
    );
    assert!(body.contains("\"degraded\":false"), "healthy store: {body}");
    assert!(
        body.contains("\"recovery\""),
        "recovery block missing: {body}"
    );
    server.shutdown();
}

/// A listener over a fresh engine, for the connection-handling tests.
fn bare_server() -> MetricsServer {
    let (model, _) = fixture();
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        model,
        &ServeOptions {
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    MetricsServer::bind(engine, telemetry, "127.0.0.1:0").expect("port 0 binds")
}

/// A client that connects and never sends a byte must not hold up the
/// listener: `/healthz` still answers within a 5 s client deadline.
#[test]
fn an_idle_client_does_not_stall_healthz() {
    let server = bare_server();
    let _idle = TcpStream::connect(server.addr()).expect("listener accepts");
    let mut conn = TcpStream::connect(server.addr()).expect("listener accepts");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        conn,
        "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .expect("answered within the client deadline");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
}

/// A header line longer than the 16 KiB head cap is answered `400`,
/// not buffered without bound.
#[test]
fn an_endless_header_line_is_a_400() {
    let server = bare_server();
    let mut conn = TcpStream::connect(server.addr()).expect("listener accepts");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(conn, "GET /healthz HTTP/1.1\r\nX-Junk: ").unwrap();
    // The server may answer and close before this write completes.
    let _ = conn.write_all(&vec![b'a'; 32 << 10]);
    let mut status_line = String::new();
    BufReader::new(conn)
        .read_line(&mut status_line)
        .expect("answered within the client deadline");
    assert!(status_line.starts_with("HTTP/1.1 400"), "{status_line:?}");
}
