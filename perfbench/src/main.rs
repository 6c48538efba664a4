//! End-to-end AutoBlox benchmark with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study-long|study-short|place-mix|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run first computes the workload's reference output at one thread
//! and speculation depth 1 (telemetry counters on, so the exact simulator
//! counts are known), then measures fresh set-up + job repetitions for
//! `--seconds`, one job at a time. Each job's output must match the
//! reference byte for byte. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced jobs and prints the per-layer
//! metrics. The last line of standard output is one JSON object. See
//! `perfbench/README.md` for the workloads and the metric map.

mod measure;
mod selftime;
mod workloads;

use autoblox::parallel;
use measure::{median, process_cpu_s, quantile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{JobOutput, Prepared, Shape, Workload};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <study-long|study-short|place-mix|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups timed before the measured jobs, so `setup_s` is a median over
/// several samples even when only a few jobs fit into a run.
const EXTRA_SETUPS: usize = 20;
/// Traced jobs per `--trace 1` run (two, for the exact-count identity).
const MIN_TRACED: usize = 2;
/// Span ring capacity for traced jobs: large enough that no span drops.
const RING_CAPACITY: usize = 1 << 21;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    workloads::ALL.to_vec()
                } else {
                    vec![Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                });
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One workload's result: the JSON line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// One measured job.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    out: Result<JobOutput, String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| String::from("non-string panic payload"))
}

/// Times one set-up; a panic here is returned as an error.
fn setup(w: Workload, seed: u64) -> (Result<Prepared, String>, f64) {
    let t0 = Instant::now();
    let prep = catch_unwind(|| w.setup(seed)).map_err(panic_message);
    (prep, t0.elapsed().as_secs_f64())
}

/// Runs one job at `shape`, timing wall clock and process CPU. Panics are
/// caught and count as failures.
fn timed_job(prep: &Prepared, shape: Shape) -> Timed {
    parallel::set_max_threads(shape.threads);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| prep.run(shape)))
        .unwrap_or_else(|p| Err(panic_message(p)));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    Timed { wall_s, cpu_s, out }
}

/// Checks a job's output against the reference output.
fn check(
    out: &Result<JobOutput, String>,
    reference: &Result<JobOutput, String>,
) -> Result<(), String> {
    let out = out.as_ref().map_err(|e| format!("job failed: {e}"))?;
    let reference = reference
        .as_ref()
        .map_err(|e| format!("no reference output: {e}"))?;
    if out.fingerprint != reference.fingerprint {
        return Err(String::from("output differs from the reference output"));
    }
    if out.exact != reference.exact {
        return Err(format!(
            "exact counts differ: {:?} vs {:?}",
            out.exact, reference.exact
        ));
    }
    Ok(())
}

/// Tallies attempted and failed jobs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, w: Workload, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!(
                "perfbench: {}: job {} failed: {e}",
                w.name(),
                self.attempted
            );
        }
    }
}

/// The reference output every job must reproduce: one untimed job at one
/// thread and speculation depth 1 (the repository's threads x speculation
/// determinism contract), with telemetry counters on so its exact simulator
/// counts are known. It also finishes the process's lazy set-up (allocator
/// growth, per-thread simulator scratch) before anything is timed.
fn reference_run(w: Workload, seed: u64, tally: &mut Tally) -> Result<JobOutput, String> {
    let out = setup(w, seed).0.and_then(|prep| {
        telemetry::set_enabled(true);
        let t = timed_job(&prep, Shape::SEQUENTIAL);
        telemetry::set_enabled(false);
        autoblox::telemetry::global().clear();
        t.out
    });
    tally.record(w, out.as_ref().map(|_| ()).map_err(String::clone));
    out
}

fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let shape = w.shape(host_cpus());
    let mut tally = Tally::default();
    let reference = reference_run(w, seed, &mut tally);

    let mut setup_s = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        setup_s.push(setup(w, seed).1);
    }
    let (mut wall, mut cpu, mut heap) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while wall.is_empty() || another_fits(start, seconds, wall.len()) {
        let (prep, s) = setup(w, seed);
        setup_s.push(s);
        // Set-up is deterministic for a seed: it would fail again.
        let prep = match prep {
            Ok(p) => p,
            Err(e) => {
                tally.record(w, Err(format!("set-up failed: {e}")));
                break;
            }
        };
        let t = timed_job(&prep, shape);
        drop(prep);
        eprintln!(
            "perfbench: {}: job {} wall {:.3} s, cpu {:.3} s",
            w.name(),
            wall.len() + 1,
            t.wall_s,
            t.cpu_s
        );
        wall.push(t.wall_s);
        cpu.push(t.cpu_s);
        if let Ok(out) = &t.out {
            heap.extend_from_slice(&out.unit_heap_mb);
        }
        tally.record(w, check(&t.out, &reference));
    }
    parallel::set_max_threads(0);

    let out = reference.as_ref().ok();
    let exact = out.map(|o| &o.exact);
    let requests = out.map_or(0, |o| o.counts.sim("ssdsim.requests")) as f64;
    let rate: Vec<f64> = wall.iter().map(|&s| requests / s.max(1e-9)).collect();
    // A metric that does not apply to a workload reads 1, so every
    // workload prints every end-to-end metric; see README.md.
    let best_grade = exact.and_then(|e| e.best_grade).unwrap_or(1.0);
    let placement_cost = exact.and_then(|e| e.placement_cost).unwrap_or(1.0);
    let simulator_runs = exact.map_or(0, |e| e.simulator_runs) as f64;
    let success = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("wall_s", median(&wall), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("cpu_s", median(&cpu), "s"),
            metric("sim_requests_per_s", median(&rate), "1/s"),
            metric("simulator_runs", simulator_runs, "count"),
            metric("best_grade", best_grade, "grade"),
            metric("placement_cost", placement_cost, "cost"),
            metric("peak_heap_mb", median(&heap), "MiB"),
            metric("success_frac", success, "frac"),
        ],
    }
}

/// Whether one more job (or traced pair) of the mean length so far ends
/// within `seconds` of `start`.
fn another_fits(start: Instant, seconds: f64, done: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= seconds
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-layer numbers of one traced job.
struct TracedJob {
    wall_s: f64,
    layers: selftime::LayerTimes,
    pool: mlkit::parallel::PoolStats,
    dropped: u64,
}

fn traced_job(prep: &Prepared, shape: Shape) -> (Timed, TracedJob) {
    use telemetry::span;
    telemetry::set_enabled(true);
    span::reset_tracing_state();
    parallel::reset_pool_stats();
    span::set_tracing(true);
    let t = timed_job(prep, shape);
    span::set_tracing(false);
    let mut spans = Vec::new();
    span::drain_spans(&mut spans);
    let pool = parallel::pool_stats();
    let dropped = span::dropped_spans();
    telemetry::set_enabled(false);
    autoblox::telemetry::global().clear();
    let job = TracedJob {
        wall_s: t.wall_s,
        layers: selftime::aggregate(&spans),
        pool,
        dropped,
    };
    (t, job)
}

/// Checks what only a traced job shows: no dropped spans, and simulator
/// counts identical to the reference run's (and so to every other traced
/// run's).
fn check_traced(
    job: &TracedJob,
    out: &Result<JobOutput, String>,
    reference: &Result<JobOutput, String>,
) -> Result<(), String> {
    if job.dropped != 0 {
        return Err(format!("{} span(s) dropped", job.dropped));
    }
    check(out, reference)?;
    let (out, reference) = (out.as_ref()?, reference.as_ref()?);
    if out.counts.sim != reference.counts.sim {
        return Err(format!(
            "simulator counts differ from the reference run: {:?} vs {:?}",
            out.counts.sim, reference.counts.sim
        ));
    }
    Ok(())
}

fn run_traced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let shape = w.shape(host_cpus());
    let mut tally = Tally::default();
    let reference = reference_run(w, seed, &mut tally);
    telemetry::span::set_ring_capacity(RING_CAPACITY);

    let mut generate_s = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut step_ms = Vec::new();
    let mut traced: Vec<TracedJob> = Vec::new();
    let mut first_traced: Option<JobOutput> = None;
    let start = Instant::now();
    'jobs: while traced.len() < MIN_TRACED || another_fits(start, seconds, traced.len()) {
        for trace in [false, true] {
            let prep = match setup(w, seed).0 {
                Ok(p) => p,
                // Set-up is deterministic for a seed: it would fail again.
                Err(e) => {
                    tally.record(w, Err(format!("set-up failed: {e}")));
                    break 'jobs;
                }
            };
            generate_s.push(prep.generate_s);
            if !trace {
                let t = timed_job(&prep, shape);
                untraced_wall.push(t.wall_s);
                if let Ok(out) = &t.out {
                    step_ms.extend_from_slice(&out.step_ms);
                }
                tally.record(w, check(&t.out, &reference));
                continue;
            }
            let (t, job) = traced_job(&prep, shape);
            tally.record(w, check_traced(&job, &t.out, &reference));
            traced.push(job);
            if first_traced.is_none() {
                first_traced = t.out.ok();
            }
        }
    }
    parallel::set_max_threads(0);

    let layer = |f: &dyn Fn(&TracedJob) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let self_s = |name: &'static str| layer(&|j| j.layers.self_s(name));
    let counts = first_traced
        .as_ref()
        .map(|o| o.counts.clone())
        .unwrap_or_default();
    let exact = first_traced.as_ref().map(|o| o.exact.clone());
    let count = |name: &str| counts.sim(name) as f64;
    let requests = count("ssdsim.requests");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let exact_or = |f: &dyn Fn(&workloads::Exact) -> u64| exact.as_ref().map_or(0, f) as f64;
    let untraced = median(&untraced_wall);
    let run_self_s = self_s("sim.run");

    let metrics = vec![
        metric("iotrace.generate_s", median(&generate_s), "s"),
        metric("ssdsim.run_self_s", run_self_s, "s"),
        metric(
            "ssdsim.run_ns_per_request",
            ratio(run_self_s * 1e9, requests),
            "ns",
        ),
        metric("ssdsim.warm_up_self_s", self_s("sim.warm_up"), "s"),
        metric(
            "ssdsim.warm_up_calls",
            layer(&|j| j.layers.calls("sim.warm_up") as f64),
            "count",
        ),
        metric("ssdsim.drain_self_s", self_s("sim.drain"), "s"),
        metric("ssdsim.requests", requests, "count"),
        metric("ssdsim.flash_reads", count("ssdsim.flash_reads"), "count"),
        metric(
            "ssdsim.flash_programs",
            count("ssdsim.flash_programs"),
            "count",
        ),
        metric("ssdsim.flash_erases", count("ssdsim.flash_erases"), "count"),
        metric(
            "ssdsim.gc_invocations",
            count("ssdsim.gc_invocations"),
            "count",
        ),
        metric(
            "ssdsim.slc_migration_ns",
            count("ssdsim.slc_migration_ns"),
            "ns",
        ),
        metric(
            "validator.simulate_self_s",
            self_s("validator.simulate"),
            "s",
        ),
        metric(
            "validator.cache_hit_ratio",
            ratio(counts.cache_hits as f64, counts.cache_probes as f64),
            "ratio",
        ),
        metric(
            "validator.speculative_runs",
            counts.speculative_runs as f64,
            "count",
        ),
        metric(
            "validator.speculative_useful_ratio",
            ratio(
                counts.speculative_hits as f64,
                counts.speculative_runs as f64,
            ),
            "ratio",
        ),
        metric("tuner.step_ms_p50", quantile(&step_ms, 0.5), "ms"),
        metric("tuner.step_ms_p90", quantile(&step_ms, 0.9), "ms"),
        metric("tuner.sgd_walk_self_s", self_s("tuner.sgd_walk"), "s"),
        metric(
            "tuner.fit_surrogate_self_s",
            self_s("tuner.fit_surrogate"),
            "s",
        ),
        metric("tuner.speculate_self_s", self_s("tuner.speculate"), "s"),
        metric("tuner.validate_self_s", self_s("tuner.validate"), "s"),
        metric("tuner.iterations", exact_or(&|e| e.iterations), "count"),
        metric("tuner.validations", exact_or(&|e| e.validations), "count"),
        metric(
            "tuner.candidates_per_s",
            ratio(exact_or(&|e| e.candidates), untraced),
            "1/s",
        ),
        metric(
            "mlkit.workers_spawned",
            layer(&|j| j.pool.workers_spawned as f64),
            "count",
        ),
        metric(
            "mlkit.pool_batches",
            layer(&|j| j.pool.batches as f64),
            "count",
        ),
        metric(
            "mlkit.pool_utilization",
            layer(&|j| j.pool.utilization()),
            "ratio",
        ),
        metric("place.classify_self_s", self_s("place.classify"), "s"),
        metric("place.search_self_s", self_s("place.search"), "s"),
        metric("place.attribute_self_s", self_s("place.attribute"), "s"),
        metric("cluster.fit_self_s", self_s("cluster.fit"), "s"),
        metric("cluster.classify_self_s", self_s("cluster.classify"), "s"),
        metric(
            "telemetry.overhead_frac",
            ratio(layer(&|j| j.wall_s), untraced) - 1.0,
            "frac",
        ),
        metric(
            "telemetry.dropped_spans",
            traced.iter().map(|j| j.dropped).max().unwrap_or(0) as f64,
            "count",
        ),
    ];
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

fn json_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let name = w.name();
        let mut o = if args.trace {
            run_traced(w, args.seed, args.seconds)
        } else {
            run_untraced(w, args.seed, args.seconds)
        };
        for m in &mut o.metrics {
            if !m.value.is_finite() {
                eprintln!("perfbench: {name}: {} is not finite", m.name);
                m.value = 0.0;
                o.correct = false;
            }
            println!("{name:<13} {:<36} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{name:<13} jobs attempted {} failed {} correct {}",
            o.attempted, o.failed, o.correct
        );
        outcomes.push((name, o));
    }
    // With `--workload all`, metric names carry a `<workload>/` prefix.
    let prefixed = outcomes.len() > 1;
    println!(
        "{}",
        json_line(
            outcomes.iter().all(|(_, o)| o.correct),
            outcomes.iter().map(|(_, o)| o.attempted).sum(),
            outcomes.iter().map(|(_, o)| o.failed).sum(),
            outcomes.iter().flat_map(|(name, o)| {
                o.metrics.iter().map(move |m| {
                    let key = if prefixed {
                        format!("{name}/{}", m.name)
                    } else {
                        m.name.to_string()
                    };
                    (key, m)
                })
            }),
        )
    );
    ExitCode::SUCCESS
}
