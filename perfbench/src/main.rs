//! `perfbench` — the end-to-end serving benchmark.
//!
//! One closed-loop client submits batches to a serving system built from
//! the public API of `hom-cluster-serve`, `hom-serve`, `hom-core` and
//! `hom-store`, checks every output against a plain in-process engine fed
//! the same batches, and prints the end-to-end metrics (`--trace 0`) or
//! the per-layer breakdown of a traced run (`--trace 1`). The last line
//! of standard output is one JSON object; `README.md` beside this crate
//! lists the workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload store_churn --seed 3 --seconds 10 --trace 0
//! ```

mod cpu;
mod gate;
mod layers;
mod spans;
mod stats;
mod system;
mod traffic;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hom_core::{CompiledModel, HighOrderModel};
use hom_serve::{Request, ServeEngine};

use cpu::Probe;
use gate::{check_shape, posterior_digest, ResponseDigest};
use layers::Tracer;
use stats::{median, min_samples, window_percentiles, windows};
use system::System;
use traffic::{Spec, Topology, Traffic};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where runs write, relative to the working directory: per-run scratch
/// (removed at exit) and the traced run's span files.
const OUT_DIR: &str = ".perfbench";
/// The traced phase runs at least this many batches.
const TRACED_BATCHES: u64 = 100;
/// Windows the timed phase is cut into for throughput and p50, which
/// are medians over them. The p99 comes from windows of 1,000 batches,
/// the fewest that leave ten beyond it, and is the lowest window's: on
/// `cluster_stagger` a batch's CPU time grows in a busy stretch of the
/// host more than the probe's does, and over eight runs the median
/// window's p99 spread 0.25 of its median where the lowest spread 0.10.
const WINDOWS: usize = 10;
/// Wall time between machine-speed probes in the timed phase.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// A batch's CPU time is scaled by the median slowdown of this many
/// latest probes.
const PROBES_HELD: usize = 5;
/// A timed segment that has not run its fewest batches by then fails,
/// which keeps a run inside three minutes.
const TIMED_LIMIT: Duration = Duration::from_secs(40);

/// The end-to-end metrics, in report order, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("preds_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("error_rate", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: perfbench --workload <cluster_stagger|engine_hyperplane|store_churn> \
                     --seed <u64> --seconds <1-600> --trace <0|1>";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => spec = Some(traffic::spec(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Requests sent, answered and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
struct Phase {
    sent: u64,
    succeeded: u64,
    failed: u64,
}

impl std::ops::AddAssign for Phase {
    fn add_assign(&mut self, other: Phase) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

impl Phase {
    fn add(&mut self, requests: usize, ok: bool) {
        self.sent += requests as u64;
        if ok {
            self.succeeded += requests as u64;
        } else {
            self.failed += requests as u64;
        }
    }
}

/// Seconds spent in each set-up stage.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    datagen: f64,
    build: f64,
    compile: f64,
    bind: f64,
    warmup: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.datagen + self.build + self.compile + self.bind + self.warmup
    }
}

/// Everything one set-up produces.
struct Fixture {
    model: Arc<HighOrderModel>,
    cm: CompiledModel,
    traffic: Traffic,
    system: System,
    warmup: Phase,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything before the timed phase: generate the data, mine and
/// compile the model, bind the system, and create every stream. Each
/// stage is timed on the process's CPU clock and scaled to the reference
/// machine by the compute leg of probes taken just before and just
/// after: a set-up is mostly the model build, which is all computation.
fn set_up(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    probe: &Probe,
) -> Result<(Fixture, SetupTimes), String> {
    let mut slowdowns: Vec<f64> = (0..PROBES_HELD).map(|_| probe.compute_slowdown()).collect();
    let mut at = cpu::process_ns();
    let mut lap = || {
        let now = cpu::process_ns();
        let s = (now - at) as f64 / 1e9;
        at = now;
        s
    };
    let (historical, test) = traffic::generate(spec);
    let traffic = Traffic::new(spec, test, seed);
    let datagen = lap();
    let model = Arc::new(traffic::mine(spec, &historical));
    drop(historical);
    let build = lap();
    let cm = CompiledModel::compile(&model);
    let compile = lap();
    let system = System::bind(spec, &model, dir)?;
    let bind = lap();
    let mut warmup = Phase::default();
    for k in 0..traffic.warmup_batches() {
        let batch = traffic.batch(k);
        warmup.add(batch.len(), system.submit(&batch).is_ok());
    }
    let warmed = lap();
    slowdowns.extend((0..PROBES_HELD).map(|_| probe.compute_slowdown()));
    let slowdown = median(&slowdowns);
    let times = SetupTimes {
        datagen: datagen / slowdown,
        build: build / slowdown,
        compile: compile / slowdown,
        bind: bind / slowdown,
        warmup: warmed / slowdown,
    };
    Ok((
        Fixture {
            model,
            cm,
            traffic,
            system,
            warmup,
        },
        times,
    ))
}

/// The timed phase's record.
struct Timed {
    /// Per batch, submit call to return: the wall time, and the CPU time
    /// of every thread of the process scaled to the reference machine
    /// (see [`cpu::Probe`]); both infinite for a failed batch.
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    /// Every probe's [`cpu::Probe::slowdown`].
    slowdowns: Vec<f64>,
    phase: Phase,
    digest: ResponseDigest,
    /// The first output that was not a well-formed answer, if any.
    malformed: Option<String>,
}

/// Submit batches back to back for `length`, and at least
/// `min_batches` of them. Every [`PROBE_EVERY`], between two batches,
/// the machine's speed is probed; each batch's CPU time is divided by
/// the median slowdown of the latest [`PROBES_HELD`] probes, which takes
/// out how fast the shared host ran just then.
fn timed(
    system: &System,
    traffic: &Traffic,
    probe: &Probe,
    length: Duration,
    min_batches: u64,
) -> Result<Timed, String> {
    let first = traffic.warmup_batches();
    let mut run = Timed {
        wall_ms: Vec::new(),
        cpu_ms: Vec::new(),
        slowdowns: (0..PROBES_HELD)
            .map(|_| probe.slowdown())
            .collect::<Result<_, _>>()?,
        phase: Phase::default(),
        digest: ResponseDigest::default(),
        malformed: None,
    };
    let start = Instant::now();
    let mut probed = start;
    let mut k = first;
    while k - first < min_batches || start.elapsed() < length {
        if start.elapsed() > TIMED_LIMIT {
            return Err(format!(
                "only {} of {min_batches} batches ran in {TIMED_LIMIT:?}",
                k - first
            ));
        }
        if probed.elapsed() >= PROBE_EVERY {
            run.slowdowns.push(probe.slowdown()?);
            probed = Instant::now();
        }
        let slowdown = median(&run.slowdowns[run.slowdowns.len() - PROBES_HELD..]);
        let batch = traffic.batch(k);
        let c0 = cpu::process_ns();
        let t0 = Instant::now();
        let result = system.submit(&batch);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = (cpu::process_ns() - c0) as f64 / 1e6 / slowdown;
        run.phase.add(batch.len(), result.is_ok());
        match result {
            Ok(responses) => {
                run.wall_ms.push(wall_ms);
                run.cpu_ms.push(cpu_ms);
                if let Err(e) = check_shape(&batch, &responses) {
                    run.malformed.get_or_insert(format!("batch {k}: {e}"));
                }
                run.digest.fold(&responses);
            }
            Err(e) => {
                run.wall_ms.push(f64::INFINITY);
                run.cpu_ms.push(f64::INFINITY);
                run.malformed
                    .get_or_insert(format!("batch {k} failed: {e}"));
            }
        }
        k += 1;
    }
    Ok(run)
}

/// Throughput, p50 and p99 of one clock's batch times, over windows of
/// the timed phase.
struct Figures {
    /// Requests answered per second of the clock, per window.
    per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
}

impl Figures {
    fn new(batch_ms: &[f64], batch: usize) -> Figures {
        Figures {
            per_s: windows(batch_ms, WINDOWS)
                .map(|w| {
                    let ok: Vec<f64> = w.iter().copied().filter(|l| l.is_finite()).collect();
                    (ok.len() * batch) as f64 / (ok.iter().sum::<f64>() / 1e3)
                })
                .collect(),
            p50_ms: window_percentiles(batch_ms, 50, WINDOWS),
            p99_ms: window_percentiles(batch_ms, 99, usize::MAX),
        }
    }

    /// `(preds_per_s, batch_p50_ms, batch_p99_ms)`: the medians over
    /// the windows, and the lowest window's p99.
    fn figures(&self) -> (f64, f64, f64) {
        (
            median(&self.per_s),
            median(&self.p50_ms),
            self.p99_ms.iter().copied().fold(f64::INFINITY, f64::min),
        )
    }

    fn describe(&self, clock: &str) -> String {
        let (per_s, p50, p99) = self.figures();
        format!(
            "{clock}: preds_per_s {per_s:.0} batch_p50_ms {p50:.4} batch_p99_ms {p99:.4}; \
             windows: {:.0?} {:.4?} {:.4?}",
            self.per_s, self.p50_ms, self.p99_ms
        )
    }
}

/// What the reference engine answered over the timed batches.
struct Reference {
    digest: ResponseDigest,
    predictions: u64,
    errors: u64,
}

/// Feed the reference engine the warm-up and the timed batches, scoring
/// the predictions of the first `scored_batches` timed ones.
fn replay_reference(
    engine: &ServeEngine,
    traffic: &Traffic,
    timed_batches: u64,
    scored_batches: u64,
) -> Reference {
    let first = traffic.warmup_batches();
    let mut out = Reference {
        digest: ResponseDigest::default(),
        predictions: 0,
        errors: 0,
    };
    for k in 0..first + timed_batches {
        let responses = engine.submit(&traffic.batch(k));
        if k < first {
            continue;
        }
        out.digest.fold(&responses);
        if k - first < scored_batches {
            for (j, r) in responses.iter().enumerate() {
                if let Some(p) = r.prediction {
                    out.predictions += 1;
                    out.errors += u64::from(p != traffic.label(k, j));
                }
            }
        }
    }
    out
}

/// The traced phase: every batch through [`Tracer::batch`], for half the
/// run time and at least [`TRACED_BATCHES`] batches.
fn traced(
    system: &System,
    traffic: &Traffic,
    tracer: &mut Tracer,
    reference: &ServeEngine,
    first: u64,
    seconds: u64,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut k = first;
    while k - first < TRACED_BATCHES || start.elapsed().as_secs_f64() < seconds as f64 / 2.0 {
        let batch: Vec<Request> = traffic.batch(k);
        tracer.batch(system, reference, &batch, k)?;
        phase.add(batch.len(), true);
        k += 1;
    }
    Ok(phase)
}

/// The process's peak resident set (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

/// A finite JSON number with every digit Rust's shortest round trip gives.
fn number(v: f64) -> String {
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}

fn describe(spec: &Spec, args: &Args, n_concepts: usize) -> String {
    let w = traffic::table_one(spec);
    let system = match spec.topology {
        Topology::Cluster { workers } => format!("Router over {workers} loopback WorkerServers"),
        Topology::Engine => "in-process ServeEngine".to_string(),
        Topology::Store { capacity } => format!(
            "in-process ServeEngine over a durable StreamStore, capacity {capacity} x {} shards",
            traffic::SHARDS
        ),
    };
    let shape = match spec.mix {
        traffic::Mix::Step => "Step",
        traffic::Mix::PredictThenObserve => "alternating Predict/Observe",
    };
    format!(
        "workload {} seed {} seconds {} trace {} cores {}\n\
         why: {}\n\
         data: {} (Table I: {} historical + {} test records, lambda {}, block {}), model {} concepts\n\
         load: closed loop, 1 client; {}-request {shape} batches over {} streams; {system}, 1 thread per engine",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        spec.why,
        w.kind.name(),
        w.historical_size,
        w.test_size,
        w.lambda,
        w.block_size,
        n_concepts,
        spec.batch,
        spec.streams,
    )
}

/// The fewest batches a timed segment runs: the scored batches, and
/// enough that the whole phase leaves ten batches beyond its p99.
fn segment_batches(spec: &Spec) -> u64 {
    spec.scored_batches
        .max(min_samples(99).div_ceil(SETUPS) as u64)
}

/// The traced phase on the last set-up's system, and the figures it
/// measures once for the whole phase.
fn trace_run<'a>(
    spec: &Spec,
    fx: &'a Fixture,
    reference: &ServeEngine,
    first: u64,
    seconds: u64,
    store_dir: &Path,
) -> Result<(Tracer<'a>, Phase), String> {
    let store_dir = matches!(spec.topology, Topology::Store { .. }).then_some(store_dir);
    let mut t = Tracer::new(&fx.model, &fx.cm, reference, spec.streams, store_dir)?;
    let engines = fx.system.engines();
    let store_before = engines[0].store().map(|s| s.status());
    let phase = traced(&fx.system, &fx.traffic, &mut t, reference, first, seconds)?;
    t.set(
        "engine.live_streams",
        engines.iter().map(|e| e.live_streams()).sum::<usize>() as f64,
    );
    t.set(
        "engine.parked_streams",
        engines.iter().map(|e| e.parked_streams()).sum::<usize>() as f64,
    );
    if let (Some(before), Some(after)) = (store_before, engines[0].store().map(|s| s.status())) {
        let requests = phase.sent as f64;
        t.set(
            "store.disk_unparks_per_req",
            (after.disk_unparks - before.disk_unparks) as f64 / requests,
        );
        t.set(
            "store.commits_per_batch",
            (after.commits - before.commits) as f64 * spec.batch as f64 / requests,
        );
        t.set("store.live_mb", after.live_bytes as f64 / 1e6);
        t.set("store.dead_mb", after.dead_bytes as f64 / 1e6);
    }
    Ok((t, phase))
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = args.spec;
    let core = cpu::pin_to_this_core()?;
    let out = PathBuf::from(OUT_DIR);
    let scratch = Scratch(out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;

    // Each set-up serves one segment of the timed phase. Systems built
    // alike settle at speeds a few per cent apart, so a run's figures
    // pool three of them: on `store_churn`, batch_p50_ms spread 0.094
    // over five runs of one system each and 0.050 over five of three.
    let segment = Duration::from_secs_f64(args.seconds as f64 / SETUPS as f64);
    let min_batches = segment_batches(spec);
    let probe = Probe::new(
        matches!(spec.topology, Topology::Store { .. })
            .then(|| scratch.0.join("probe"))
            .as_deref(),
        matches!(spec.topology, Topology::Cluster { .. }),
    )?;
    let mut setups = Vec::with_capacity(SETUPS);
    let (mut wall_ms, mut cpu_ms, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warmup, mut timed_phase, mut traced_phase) =
        (Phase::default(), Phase::default(), Phase::default());
    let mut problems: Vec<String> = Vec::new();
    let mut scored = None;
    let mut tracer = None;
    for i in 0..SETUPS {
        let dir = scratch.0.join(format!("store-{i}"));
        let (fx, times) = set_up(spec, args.seed, &dir, &probe)?;
        if i == 0 {
            println!("{}", describe(spec, args, fx.model.n_concepts()));
            println!("every thread pinned to core {core}");
        }
        println!(
            "set-up {i}: datagen {:.4} build {:.4} compile {:.4} bind {:.4} warmup {:.4} s",
            times.datagen, times.build, times.compile, times.bind, times.warmup
        );
        setups.push(times);
        let run = timed(&fx.system, &fx.traffic, &probe, segment, min_batches)?;
        let timed_batches = run.wall_ms.len() as u64;
        let reference = system::reference(&fx.model);
        let want = replay_reference(&reference, &fx.traffic, timed_batches, spec.scored_batches);
        problems.extend(run.malformed.iter().map(|e| format!("set-up {i}: {e}")));
        if fx.warmup.failed > 0 {
            problems.push(format!(
                "set-up {i}: {} warm-up requests failed",
                fx.warmup.failed
            ));
        }
        if run.digest != want.digest {
            problems.push(format!(
                "set-up {i}: timed responses differ from the reference engine's"
            ));
        }
        // Every segment starts from the same schedule, so the scored
        // batches, and their errors, are the same each time.
        if *scored.get_or_insert((want.predictions, want.errors)) != (want.predictions, want.errors)
        {
            problems.push(format!(
                "set-up {i}: scored predictions differ from set-up 0's"
            ));
        }
        wall_ms.extend(&run.wall_ms);
        cpu_ms.extend(&run.cpu_ms);
        slowdowns.extend(&run.slowdowns);
        warmup += fx.warmup;
        timed_phase += run.phase;

        if args.trace && i + 1 == SETUPS {
            let first = fx.traffic.warmup_batches() + timed_batches;
            let (mut t, phase) = trace_run(
                spec,
                &fx,
                &reference,
                first,
                args.seconds,
                &scratch.0.join("replay-store"),
            )
            .map_err(|e| format!("traced phase: {e}"))?;
            let setup_median =
                |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
            t.set("setup.datagen_s", setup_median(|s| s.datagen));
            t.set("setup.build_s", setup_median(|s| s.build));
            t.set("setup.compile_s", setup_median(|s| s.compile));
            t.set("setup.bind_s", setup_median(|s| s.bind));
            t.set("setup.warmup_s", setup_median(|s| s.warmup));
            let (per_s, p50_ms, p99_ms) = Figures::new(&wall_ms, spec.batch).figures();
            t.set("client.preds_per_s", per_s);
            t.set("client.batch_p50_ms", p50_ms);
            t.set("client.batch_p99_ms", p99_ms);
            t.set("machine.slowdown", median(&slowdowns));
            t.set("trace.overhead_frac", t.batch_us() / (p50_ms * 1e3) - 1.0);
            traced_phase = phase;
            let path = out.join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
            std::fs::write(&path, t.rec.to_jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans: {} ({} spans)", path.display(), t.rec.spans().len());
            tracer = Some(t.report());
        }

        // The final state: every stream's posterior, system against reference.
        let got = posterior_digest(spec.streams, |s| fx.system.posterior(s));
        let expected = posterior_digest(spec.streams, |s| reference.posterior(s))?;
        match got {
            Ok(digest) if digest == expected => {
                println!("set-up {i}: {timed_batches} timed batches, posterior digest {digest:016x} matches the reference")
            }
            Ok(digest) => problems.push(format!(
                "set-up {i}: posterior digest {digest:016x} != reference {expected:016x}"
            )),
            Err(e) => problems.push(format!("set-up {i}: posterior digest: {e}")),
        }
        drop(fx);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (predictions, errors) = scored.expect("at least one set-up");
    let scaled = Figures::new(&cpu_ms, spec.batch);
    let client = Figures::new(&wall_ms, spec.batch);
    let slowdown = median(&slowdowns);

    for (name, phase) in [
        ("warmup", warmup),
        ("timed", timed_phase),
        ("traced", traced_phase),
    ] {
        println!(
            "phase {name}: sent {} succeeded {} failed {}",
            phase.sent, phase.succeeded, phase.failed
        );
    }
    println!(
        "timed: {} batches in {SETUPS} segments, cut into {WINDOWS} windows (and {} for p99, \
         each with ten or more batches beyond its p99); error_rate scores {predictions} \
         predictions of the first {} batches of each segment; median slowdown {slowdown:.4} \
         over {} probes",
        wall_ms.len(),
        scaled.p99_ms.len(),
        spec.scored_batches,
        slowdowns.len(),
    );
    println!("{}", client.describe("wall clock"));
    println!("{}", scaled.describe("CPU time at reference speed"));

    let attempted = timed_phase.sent + traced_phase.sent;
    let failed = timed_phase.failed + traced_phase.failed;
    let metrics: Vec<(&str, &str, f64)> = match tracer {
        Some(report) => report,
        None => {
            let (per_s, p50_ms, p99_ms) = scaled.figures();
            let values = [
                per_s,
                p50_ms,
                p99_ms,
                timed_phase.succeeded as f64 / timed_phase.sent as f64,
                errors as f64 / predictions.max(1) as f64,
                median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()),
                peak_rss_mb()?,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| (name, unit, value))
                .collect()
        }
    };
    println!(
        "failed_frac = {} frac",
        number(timed_phase.failed as f64 / timed_phase.sent as f64)
    );
    for (name, unit, value) in &metrics {
        println!("{name} = {} {unit}", number(*value));
    }
    for p in &problems {
        eprintln!("perfbench: OUTPUT CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "store_churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("store_churn", 7, 10, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "store_churn",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "store_churn", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn benchmark_json_names_what_the_bench_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |name: &str, unit: &str| {
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(&layers::PER_LAYER) {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + layers::PER_LAYER.len()
        );
        for spec in &traffic::SPECS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
            assert!(
                json.contains(&entry),
                "workload {} differs in BENCHMARK.json",
                spec.name
            );
        }
    }

    #[test]
    fn every_timed_phase_supports_a_p99() {
        for spec in &traffic::SPECS {
            assert!(
                segment_batches(spec) as usize * SETUPS >= min_samples(99),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn numbers_are_finite_json() {
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::INFINITY), number(f64::MAX));
        assert!(!number(1e-9).contains("inf"));
    }
}
