//! The three workloads: what each runs, and the deterministic request
//! schedule every phase draws its batches from.

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build_with, BuildOptions, BuildParams, HighOrderModel};
use hom_data::rng::derive_seed;
use hom_data::{ClassId, Dataset, StreamRecord};
use hom_eval::workloads::{Workload, WorkloadKind};
use hom_obs::Obs;
use hom_serve::{Request, StreamId};

/// The system a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Topology {
    /// `Router::submit` over in-process `WorkerServer`s on loopback.
    Cluster { workers: usize },
    /// `ServeEngine::submit` in process, every stream in RAM.
    Engine,
    /// `ServeEngine::submit` in process over a durable `StreamStore`,
    /// with `capacity` live streams per shard.
    Store { capacity: usize },
}

/// Request kinds in a workload's batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Every request a `Step` (predict, then absorb the label).
    Step,
    /// Even batches `Predict`, odd batches `Observe` the same records.
    PredictThenObserve,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: WorkloadKind,
    pub topology: Topology,
    pub streams: u64,
    pub batch: usize,
    pub mix: Mix,
    /// `error_rate` scores the predictions of the first this many timed
    /// batches, so it repeats exactly for a seed; each segment of the
    /// timed phase runs at least these.
    pub scored_batches: u64,
}

pub const SHARDS: usize = 16;

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "cluster_stagger",
        why: "router over 2 loopback workers; small batches make the wire codec and the fixed cost of each HTTP exchange the cost, and Stagger's 27 records make the kernel almost free",
        kind: WorkloadKind::Stagger,
        topology: Topology::Cluster { workers: 2 },
        streams: 1_000,
        batch: 256,
        mix: Mix::Step,
        scored_batches: 3_000,
    },
    Spec {
        name: "engine_hyperplane",
        why: "in-process engine on continuous records, so interning dedups nothing and the kernel's evaluate, predict and update do the work; no network layer runs",
        kind: WorkloadKind::Hyperplane,
        topology: Topology::Engine,
        streams: 10_000,
        batch: 2_048,
        mix: Mix::PredictThenObserve,
        scored_batches: 1_000,
    },
    Spec {
        name: "store_churn",
        why: "engine over a durable store holding 2,048 of 100,000 streams live, so nearly every request unparks one snapshot and parks another and each batch group-commits",
        kind: WorkloadKind::Stagger,
        topology: Topology::Store { capacity: 128 },
        streams: 100_000,
        batch: 2_048,
        mix: Mix::Step,
        scored_batches: 400,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The seed of the generated stream. Fixed, so every run serves the same
/// model on the same records: the concept count sets the kernel's cost
/// (on Hyperplane some seeds mine 7 concepts rather than the generator's
/// 4), and the concept switches in the test records set `error_rate`.
/// `--seed` picks where each stream starts in the test records.
const DATA_SEED: u64 = 1;

/// The Table I configuration of the workload's stream.
pub fn table_one(spec: &Spec) -> Workload {
    Workload::paper(spec.kind, 1.0)
}

/// Table I's split of one evolving stream: the historical dataset the
/// model is mined from, and the test records that follow it.
pub fn generate(spec: &Spec) -> (Dataset, Vec<StreamRecord>) {
    let workload = table_one(spec);
    let (historical, _, mut source) = workload.split(DATA_SEED);
    let test = (0..workload.test_size)
        .map(|_| source.next_record())
        .collect();
    (historical, test)
}

/// Mine the high-order model (the offline build the paper's §III times)
/// on one thread, as the engines serve on one.
pub fn mine(spec: &Spec, historical: &Dataset) -> HighOrderModel {
    let workload = table_one(spec);
    let (model, _) = build_with(
        historical,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size: workload.block_size,
                seed: derive_seed(DATA_SEED, 100),
                ..Default::default()
            },
            ..Default::default()
        },
        &BuildOptions {
            threads: Some(1),
            sink: Obs::none(),
        },
    );
    model
}

/// The request schedule. Request `g` of the run goes to stream
/// `g mod streams`, which walks the test records contiguously from its
/// own start, so every stream sees concepts persist and switch at the
/// paper's λ. Batch `k` is a pure function of
/// `k`, which lets the reference engine replay any phase.
pub struct Traffic {
    records: Vec<StreamRecord>,
    starts: Vec<u64>,
    streams: u64,
    batch: usize,
    mix: Mix,
}

impl Traffic {
    pub fn new(spec: &Spec, records: Vec<StreamRecord>, seed: u64) -> Self {
        assert!(
            spec.batch as u64 <= spec.streams,
            "a batch must address distinct streams"
        );
        // Starts evenly spaced from a seed-chosen offset: every stretch
        // of the records, and so every concept switch, is walked by the
        // same number of streams whatever the seed, which keeps
        // `error_rate` from moving with the seed.
        let n = records.len() as u64;
        let offset = derive_seed(seed, 0) % n;
        Traffic {
            starts: (0..spec.streams)
                .map(|s| (offset + s * n / spec.streams) % n)
                .collect(),
            records,
            streams: spec.streams,
            batch: spec.batch,
            mix: spec.mix,
        }
    }

    /// Batches of the warm-up pass: every stream created (and, for the
    /// predict/observe mix, observed once).
    pub fn warmup_batches(&self) -> u64 {
        let pass = self.streams.div_ceil(self.batch as u64);
        match self.mix {
            Mix::Step => pass,
            Mix::PredictThenObserve => 2 * pass,
        }
    }

    /// Request `j` of batch `k`: its stream and record.
    pub fn slot(&self, k: u64, j: usize) -> (StreamId, &StreamRecord) {
        let round = match self.mix {
            Mix::Step => k,
            Mix::PredictThenObserve => k / 2,
        };
        let g = round * self.batch as u64 + j as u64;
        let stream = g % self.streams;
        let at = (self.starts[stream as usize] + g / self.streams) % self.records.len() as u64;
        (stream, &self.records[at as usize])
    }

    pub fn batch(&self, k: u64) -> Vec<Request> {
        (0..self.batch)
            .map(|j| {
                let (stream, r) = self.slot(k, j);
                let x = r.x.to_vec();
                match (self.mix, k % 2) {
                    (Mix::Step, _) => Request::Step { stream, x, y: r.y },
                    (Mix::PredictThenObserve, 0) => Request::Predict { stream, x },
                    (Mix::PredictThenObserve, _) => Request::Observe { stream, x, y: r.y },
                }
            })
            .collect()
    }

    /// The true label of request `j` of batch `k`.
    pub fn label(&self, k: u64, j: usize) -> ClassId {
        self.slot(k, j).1.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize) -> StreamRecord {
        StreamRecord {
            x: vec![i as f64].into_boxed_slice(),
            y: (i % 2) as ClassId,
            concept: 0,
            drifting: false,
        }
    }

    fn spec(mix: Mix) -> Spec {
        Spec {
            name: "t",
            why: "",
            kind: WorkloadKind::Stagger,
            topology: Topology::Engine,
            streams: 5,
            batch: 4,
            mix,
            scored_batches: 1_000,
        }
    }

    #[test]
    fn streams_walk_their_records_in_order() {
        let records: Vec<StreamRecord> = (0..100).map(record).collect();
        let t = Traffic::new(&spec(Mix::Step), records, 9);
        // Request g = 7 is stream 2's second request, g = 12 its third.
        let (s1, r1) = t.slot(1, 3);
        let (s2, r2) = t.slot(3, 0);
        assert_eq!((s1, s2), (2, 2));
        assert_eq!((r1.x[0] as u64 + 1) % 100, r2.x[0] as u64);
        assert_eq!(t.warmup_batches(), 2);
    }

    #[test]
    fn observe_batches_repeat_the_predicted_records() {
        let records: Vec<StreamRecord> = (0..100).map(record).collect();
        let t = Traffic::new(&spec(Mix::PredictThenObserve), records, 9);
        let (predict, observe) = (t.batch(4), t.batch(5));
        for (p, o) in predict.iter().zip(&observe) {
            match (p, o) {
                (
                    Request::Predict { stream, x },
                    Request::Observe {
                        stream: s, x: ox, ..
                    },
                ) => {
                    assert_eq!((stream, x), (s, ox));
                }
                other => panic!("unexpected pair {other:?}"),
            }
        }
        assert_eq!(t.warmup_batches(), 4);
    }

    #[test]
    fn every_workload_has_a_distinct_name_and_distinct_streams_per_batch() {
        for (i, s) in SPECS.iter().enumerate() {
            assert!(SPECS[..i].iter().all(|o| o.name != s.name));
            assert!(s.batch as u64 <= s.streams, "{}", s.name);
        }
    }

    #[test]
    fn the_seed_moves_the_starts() {
        let a = Traffic::new(&spec(Mix::Step), (0..100).map(record).collect(), 1);
        let b = Traffic::new(&spec(Mix::Step), (0..100).map(record).collect(), 2);
        assert_ne!(a.starts, b.starts);
        assert_eq!(
            a.starts,
            Traffic::new(&spec(Mix::Step), (0..100).map(record).collect(), 1).starts
        );
    }
}
