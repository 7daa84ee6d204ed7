//! The traced run. Each batch goes through the system under test inside
//! a span, then the bench replays the batch through each layer's public
//! functions — the wire codec on the real per-owner sub-batches, a twin
//! engine, the kernel on bench-owned filter states, a bench-owned store —
//! each call in its own span, and derives the per-layer figures from the
//! spans. The program's own spans and counters are not read.

use std::collections::BTreeMap;
use std::path::Path;

use hom_cluster_serve::http_request;
use hom_cluster_serve::wire::{
    decode_requests, decode_responses, encode_requests, encode_responses,
};
use hom_core::{BatchTable, CompiledModel, FilterState, HighOrderModel, KernelScratch};
use hom_data::ClassId;
use hom_serve::{Request, Response, ServeEngine};
use hom_store::StreamStore;

use crate::spans::{self_times, Recorder, Span};
use crate::stats::median;
use crate::system::{open_store, System, TIMEOUT};

/// Every per-layer metric, in report order, with its unit. A layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("router.submit_us", "us"),
    ("router.fanout", "count"),
    ("router.residual_us", "us"),
    ("router.vs_engine_x", "ratio"),
    ("wire.encode_requests_us", "us"),
    ("wire.decode_requests_us", "us"),
    ("wire.encode_responses_us", "us"),
    ("wire.decode_responses_us", "us"),
    ("wire.request_bytes", "count"),
    ("wire.response_bytes", "count"),
    ("http.exchange_us", "us"),
    ("engine.submit_us", "us"),
    ("engine.other_us", "us"),
    ("engine.live_streams", "count"),
    ("engine.parked_streams", "count"),
    ("kernel.intern_us", "us"),
    ("kernel.evaluate_us", "us"),
    ("kernel.apply_us", "us"),
    ("kernel.dedup_ratio", "ratio"),
    ("kernel.consulted_per_pred", "count"),
    ("store.park_us", "us"),
    ("store.unpark_us", "us"),
    ("store.commit_us", "us"),
    ("store.fsync_us", "us"),
    ("store.disk_unparks_per_req", "ratio"),
    ("store.commits_per_batch", "ratio"),
    ("store.live_mb", "MB"),
    ("store.dead_mb", "MB"),
    ("snapshot.encode_us", "us"),
    ("snapshot.restore_us", "us"),
    ("setup.datagen_s", "s"),
    ("setup.build_s", "s"),
    ("setup.compile_s", "s"),
    ("setup.bind_s", "s"),
    ("setup.warmup_s", "s"),
    ("client.preds_per_s", "1/s"),
    ("client.batch_p50_ms", "ms"),
    ("client.batch_p99_ms", "ms"),
    ("machine.slowdown", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Counts one batch's kernel replays add up.
#[derive(Default)]
struct KernelCounts {
    interned: u64,
    distinct: u64,
    predictions: u64,
    consulted: u64,
}

pub struct Tracer<'a> {
    pub rec: Recorder,
    samples: BTreeMap<&'static str, Vec<f64>>,
    model: &'a HighOrderModel,
    cm: &'a CompiledModel,
    scratch: KernelScratch,
    /// Bench-owned filter states, indexed by stream id.
    states: Vec<FilterState>,
    /// On the store workload: a bench-owned store parking every stream,
    /// which the replay unparks, restores, applies, encodes and parks.
    store: Option<StreamStore>,
    counts: KernelCounts,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

impl<'a> Tracer<'a> {
    /// Start the traced phase from the reference engine's state: every
    /// stream's snapshot restored into a bench-owned filter state (and,
    /// with `store_dir`, parked in a bench-owned store).
    pub fn new(
        model: &'a HighOrderModel,
        cm: &'a CompiledModel,
        reference: &ServeEngine,
        streams: u64,
        store_dir: Option<&Path>,
    ) -> Result<Tracer<'a>, String> {
        let states = (0..streams)
            .map(|s| {
                let bytes = reference
                    .snapshot(s)
                    .ok_or(format!("reference has no stream {s}"))?;
                FilterState::restore(model, &bytes).map_err(|e| format!("restore {s}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let store = match store_dir {
            Some(dir) => {
                let store = open_store(dir)?;
                for (s, state) in states.iter().enumerate() {
                    store.park(s as u64, state.snapshot());
                }
                store
                    .commit()
                    .map_err(|e| format!("replay store commit: {e}"))?;
                Some(store)
            }
            None => None,
        };
        Ok(Tracer {
            rec: Recorder::new(),
            samples: BTreeMap::new(),
            scratch: KernelScratch::new(cm),
            model,
            cm,
            states,
            store,
            counts: KernelCounts::default(),
        })
    }

    /// Record a figure measured once for the whole phase.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of every per-layer metric's samples (0 where the layer did
    /// no work), in [`PER_LAYER`] order.
    pub fn report(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.samples.get(name).map_or(0.0, |v| median(v));
                (name, unit, value)
            })
            .collect()
    }

    /// Median time of the system-under-test call per traced batch, µs.
    pub fn batch_us(&self) -> f64 {
        median(&self.samples["trace.batch_us"])
    }

    /// One traced batch: the system under test, then the layer replays.
    /// Fails on any output that differs between the system, the twin
    /// engine and the kernel replay.
    pub fn batch(
        &mut self,
        system: &System,
        reference: &ServeEngine,
        batch: &[Request],
        b: u64,
    ) -> Result<Vec<Response>, String> {
        self.counts = KernelCounts::default();
        let root = self.rec.open("batch", b, None);
        let (got, twin, replayed) = match system {
            System::Cluster { router, workers } => {
                let got = self
                    .rec
                    .time("router.submit", b, Some(root), || router.submit(batch))
                    .map_err(|e| e.to_string())?;
                let addr = workers[0].addr();
                let (status, _) = self
                    .rec
                    .time("http.exchange", b, Some(root), || {
                        http_request(addr, "GET", "/healthz", b"", TIMEOUT)
                    })
                    .map_err(|e| e.to_string())?;
                if status != 200 {
                    return Err(format!("/healthz answered {status}"));
                }
                // Split by ring owner as the router does, batch order
                // within each owner.
                let mut owners: Vec<Vec<usize>> = vec![Vec::new(); workers.len()];
                for (i, r) in batch.iter().enumerate() {
                    owners[router.owner(r.stream())].push(i);
                }
                owners.retain(|o| !o.is_empty());
                let (twin, replayed) = self.cluster_replay(reference, batch, &owners, b, root)?;
                self.sample("router.fanout", owners.len() as f64);
                (got, twin, replayed)
            }
            System::Engine(engine) => {
                let got = self
                    .rec
                    .time("engine.submit", b, Some(root), || engine.submit(batch));
                let twin = self.rec.time("reference.submit", b, Some(root), || {
                    reference.submit(batch)
                });
                let replayed = match self.store.take() {
                    Some(store) => {
                        let replayed = self.store_replay(&store, batch, b, root);
                        self.store = Some(store);
                        replayed?
                    }
                    None => self.kernel(batch, b, root),
                };
                (got, twin, replayed)
            }
        };
        self.rec.close(root);
        if got != twin {
            return Err(format!(
                "batch {b}: responses differ from the twin engine's"
            ));
        }
        let predicted: Vec<Option<ClassId>> = got.iter().map(|r| r.prediction).collect();
        if predicted != replayed {
            return Err(format!(
                "batch {b}: predictions differ from the kernel replay's"
            ));
        }
        self.derive(root, matches!(system, System::Cluster { .. }));
        Ok(got)
    }

    /// The router's blocking path replayed call by call: request encode
    /// per owner, then per owner decode → twin engine → response encode,
    /// then response decode per owner; and the kernel per owner.
    fn cluster_replay(
        &mut self,
        reference: &ServeEngine,
        batch: &[Request],
        owners: &[Vec<usize>],
        b: u64,
        root: usize,
    ) -> Result<(Vec<Response>, Vec<Option<ClassId>>), String> {
        let subs: Vec<Vec<Request>> = owners
            .iter()
            .map(|idx| idx.iter().map(|&i| batch[i].clone()).collect())
            .collect();
        let mut bodies = Vec::with_capacity(subs.len());
        for sub in &subs {
            let body = self
                .rec
                .time("wire.encode_requests", b, Some(root), || {
                    encode_requests(sub)
                })
                .map_err(|e| e.to_string())?;
            bodies.push(body);
        }
        let mut replies = Vec::with_capacity(subs.len());
        for body in &bodies {
            let owner = self.rec.open("worker", b, Some(root));
            let decoded = self
                .rec
                .time("wire.decode_requests", b, Some(owner), || {
                    decode_requests(body)
                })
                .map_err(|e| e.to_string())?;
            let responses = self.rec.time("engine.submit", b, Some(owner), || {
                reference.submit(&decoded)
            });
            replies.push(self.rec.time("wire.encode_responses", b, Some(owner), || {
                encode_responses(&responses)
            }));
            self.rec.close(owner);
        }
        let mut twin = vec![None; batch.len()];
        for (idx, reply) in owners.iter().zip(&replies) {
            let decoded = self
                .rec
                .time("wire.decode_responses", b, Some(root), || {
                    decode_responses(reply)
                })
                .map_err(|e| e.to_string())?;
            for (&i, r) in idx.iter().zip(decoded) {
                twin[i] = Some(r);
            }
        }
        let mut replayed = vec![None; batch.len()];
        for (idx, sub) in owners.iter().zip(&subs) {
            for (&i, p) in idx.iter().zip(self.kernel(sub, b, root)) {
                replayed[i] = p;
            }
        }
        self.sample(
            "wire.request_bytes",
            bodies.iter().map(String::len).sum::<usize>() as f64,
        );
        self.sample(
            "wire.response_bytes",
            replies.iter().map(String::len).sum::<usize>() as f64,
        );
        let twin = twin
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("a request got no twin response")?;
        Ok((twin, replayed))
    }

    /// The engine's store path replayed on the bench-owned store: unpark
    /// and restore the batch's streams, run the kernel, encode and park
    /// them again, group-commit.
    fn store_replay(
        &mut self,
        store: &StreamStore,
        batch: &[Request],
        b: u64,
        root: usize,
    ) -> Result<Vec<Option<ClassId>>, String> {
        let ids: Vec<u64> = batch.iter().map(Request::stream).collect();
        let blobs = self.rec.time("store.unpark", b, Some(root), || {
            ids.iter()
                .map(|&s| store.unpark(s))
                .collect::<Result<Vec<_>, _>>()
        });
        let blobs = blobs
            .map_err(|e| format!("replay unpark: {e}"))?
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("replay store lost a stream")?;
        let model = self.model;
        let restored = self.rec.time("snapshot.restore", b, Some(root), || {
            blobs
                .iter()
                .map(|bytes| FilterState::restore(model, bytes))
                .collect::<Result<Vec<_>, _>>()
        });
        for (&s, state) in ids
            .iter()
            .zip(restored.map_err(|e| format!("replay restore: {e}"))?)
        {
            self.states[s as usize] = state;
        }
        let replayed = self.kernel(batch, b, root);
        let states = &self.states;
        let snapshots = self.rec.time("snapshot.encode", b, Some(root), || {
            ids.iter()
                .map(|&s| states[s as usize].snapshot())
                .collect::<Vec<_>>()
        });
        self.rec.time("store.park", b, Some(root), || {
            for (&s, snapshot) in ids.iter().zip(snapshots) {
                store.park(s, snapshot);
            }
        });
        let report = self
            .rec
            .time("store.commit", b, Some(root), || store.commit())
            .map_err(|e| format!("replay commit: {e}"))?;
        self.sample("store.fsync_us", us(report.fsync_ns));
        Ok(replayed)
    }

    /// One kernel pass over `sub`, as the engine runs it per task: intern
    /// every record, evaluate each distinct record under every concept,
    /// then apply each request to its stream's state.
    fn kernel(&mut self, sub: &[Request], b: u64, parent: usize) -> Vec<Option<ClassId>> {
        let kernel = self.rec.open("kernel", b, Some(parent));
        let mut table = BatchTable::with_capacity(sub.len());
        let recs: Vec<u32> = self.rec.time("kernel.intern", b, Some(kernel), || {
            sub.iter()
                .map(|r| match r {
                    Request::Predict { x, .. } => table.intern(x, false),
                    Request::Observe { x, .. } | Request::Step { x, .. } => table.intern(x, true),
                    Request::Advance { .. } => u32::MAX,
                })
                .collect()
        });
        let cm = self.cm;
        self.rec.time("kernel.evaluate", b, Some(kernel), || {
            cm.evaluate(&mut table)
        });
        let (states, scratch, counts) = (&mut self.states, &mut self.scratch, &mut self.counts);
        let predictions = self.rec.time("kernel.apply", b, Some(kernel), || {
            sub.iter()
                .zip(&recs)
                .map(|(r, &rec)| {
                    let mut view = states[r.stream() as usize].as_view();
                    let prediction = match r {
                        Request::Predict { .. } | Request::Step { .. } => {
                            let (p, consulted) = cm.predict_pruned(&view, &table, rec, scratch);
                            counts.predictions += 1;
                            counts.consulted += consulted as u64;
                            Some(p)
                        }
                        Request::Observe { .. } | Request::Advance { .. } => None,
                    };
                    match *r {
                        Request::Observe { y, .. } | Request::Step { y, .. } => {
                            cm.absorb(&mut view, &table, rec, y, scratch);
                            cm.roll_prior(&mut view);
                        }
                        Request::Advance { k, .. } => cm.advance_by(&mut view, k),
                        Request::Predict { .. } => {}
                    }
                    prediction
                })
                .collect()
        });
        self.rec.close(kernel);
        self.counts.interned += table.n_interned();
        self.counts.distinct += table.n_records() as u64;
        predictions
    }

    /// Per-batch figures from the batch's spans (ids from `root` on).
    fn derive(&mut self, root: usize, cluster: bool) {
        let spans: &[Span] = &self.rec.spans()[root..];
        let own = self_times(spans, root);
        let total = |name: &str| -> u64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_ns)
                .sum()
        };
        // Time a span's children cover: its layer calls, without the
        // bench's bookkeeping between them.
        let covered = |name: &str| -> Vec<u64> {
            spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == name)
                .map(|(s, &o)| s.duration_ns() - o)
                .collect()
        };
        let engine_ns = total("engine.submit");
        let kernel_ns: u64 = covered("kernel").iter().sum();
        let mut figures: Vec<(&'static str, f64)> = vec![
            ("engine.submit_us", us(engine_ns)),
            ("engine.other_us", us(engine_ns) - us(kernel_ns)),
            ("kernel.intern_us", us(total("kernel.intern"))),
            ("kernel.evaluate_us", us(total("kernel.evaluate"))),
            ("kernel.apply_us", us(total("kernel.apply"))),
        ];
        if cluster {
            let router_ns = total("router.submit");
            let (encode, decode) = (
                total("wire.encode_requests"),
                total("wire.decode_responses"),
            );
            // Owners run in parallel behind the router: the slowest one
            // blocks, the serial encode before and decode after add up.
            let slowest = covered("worker").into_iter().max().unwrap_or(0);
            figures.extend([
                ("trace.batch_us", us(router_ns)),
                ("router.submit_us", us(router_ns)),
                (
                    "router.residual_us",
                    us(router_ns) - us(encode + slowest + decode),
                ),
                (
                    "router.vs_engine_x",
                    router_ns as f64 / engine_ns.max(1) as f64,
                ),
                ("wire.encode_requests_us", us(encode)),
                ("wire.decode_requests_us", us(total("wire.decode_requests"))),
                (
                    "wire.encode_responses_us",
                    us(total("wire.encode_responses")),
                ),
                ("wire.decode_responses_us", us(decode)),
                ("http.exchange_us", us(total("http.exchange"))),
            ]);
        } else {
            figures.push(("trace.batch_us", us(engine_ns)));
        }
        if self.store.is_some() {
            figures.extend([
                ("store.park_us", us(total("store.park"))),
                ("store.unpark_us", us(total("store.unpark"))),
                ("store.commit_us", us(total("store.commit"))),
                ("snapshot.encode_us", us(total("snapshot.encode"))),
                ("snapshot.restore_us", us(total("snapshot.restore"))),
            ]);
        }
        let c = &self.counts;
        figures.push((
            "kernel.dedup_ratio",
            c.interned as f64 / c.distinct.max(1) as f64,
        ));
        if c.predictions > 0 {
            figures.push((
                "kernel.consulted_per_pred",
                c.consulted as f64 / c.predictions as f64,
            ));
        }
        for (name, value) in figures {
            self.sample(name, value);
        }
    }
}
