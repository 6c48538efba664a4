//! The three AutoBlox jobs the benchmark runs, driven through the library's
//! public API exactly as the `autoblox` CLI and the `AutoBlox` facade drive
//! them. Why each workload exists is recorded in `perfbench/README.md`.
//!
//! A job is several independent replicates of the workload's unit (one
//! seven-category study, one placement), each on its own seeds. One tune's
//! outcome swings widely with its seed (the search either finds a better
//! configuration or converges on the reference after a few iterations), so a
//! job averages over enough tunes for its totals to be steady from one
//! benchmark seed to the next.

use crate::measure::{heap_peak_mb, reset_heap_peak};
use autoblox::constraints::Constraints;
use autoblox::place::{place, PlacementOptions};
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions, ValidatorStats};
use iotrace::gen::WorkloadKind;
use iotrace::{TenantSpec, Trace};
use ssdsim::config::{presets, SsdConfig};
use std::sync::Arc;
use std::time::Instant;

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 3] = [
    Workload::StudyLong,
    Workload::StudyShort,
    Workload::PlaceMix,
];

/// Iteration cap of every tune (the CLI's `--iterations` default).
const TUNE_ITERATIONS: usize = 20;
/// Studied non-target categories graded alongside each target (the CLI's
/// choice: the first three studied categories other than the target).
const NON_TARGETS: usize = 3;
/// Validation-trace length of the long studies (events per trace).
const LONG_EVENTS: usize = 1_500;
/// Validation-trace length of the short study: the CI smoke shape.
const SHORT_EVENTS: usize = 300;
/// Placement mix: read-mostly tenants beside write-heavy ones.
const PLACE_TENANTS: [WorkloadKind; 6] = [
    WorkloadKind::WebSearch,
    WorkloadKind::BatchAnalytics,
    WorkloadKind::CloudStorage,
    WorkloadKind::KvStore,
    WorkloadKind::Database,
    WorkloadKind::Recomm,
];
/// Events per placement tenant.
const PLACE_EVENTS: usize = 1_500;
/// Devices the placement mix is consolidated onto.
const PLACE_DEVICES: usize = 3;

/// Seeds of one replicate. Replicate `r` of benchmark seed `n` offsets every
/// library default by `1000 n + r`, so seed 0's first replicate reproduces
/// the CLI's own defaults (`ValidatorOptions::default().seed`,
/// `TunerOptions::default().seed`, the `:11` tenant seed of the CI placement
/// mix and `PlacementOptions::default().train_seed`).
#[derive(Debug, Clone, Copy)]
struct Seeds {
    trace: u64,
    tuner: u64,
    tenant: u64,
    train: u64,
}

impl Seeds {
    fn new(seed: u64, replicate: u64) -> Seeds {
        let offset = seed.wrapping_mul(1_000).wrapping_add(replicate);
        Seeds {
            trace: ValidatorOptions::default().seed.wrapping_add(offset),
            tuner: TunerOptions::default().seed.wrapping_add(offset),
            tenant: 11u64.wrapping_add(offset),
            train: PlacementOptions::default().train_seed.wrapping_add(offset),
        }
    }
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StudyLong,
    StudyShort,
    PlaceMix,
}

/// Thread count and speculation depth of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub threads: usize,
    pub speculate: usize,
}

impl Shape {
    /// The sequential shape every determinism reference runs at.
    pub const SEQUENTIAL: Shape = Shape {
        threads: 1,
        speculate: 1,
    };
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyLong => "study-long",
            Workload::StudyShort => "study-short",
            Workload::PlaceMix => "place-mix",
        }
    }

    /// The shape the workload is measured at on a host with `host_cpus`
    /// CPUs. `study-short` uses the CLI default speculation (the thread
    /// count).
    pub fn shape(self, host_cpus: usize) -> Shape {
        match self {
            Workload::StudyLong => Shape::SEQUENTIAL,
            Workload::StudyShort => Shape {
                threads: host_cpus,
                speculate: host_cpus,
            },
            Workload::PlaceMix => Shape {
                threads: host_cpus,
                speculate: 1,
            },
        }
    }

    /// Independent replicates (studies or placements) per job.
    fn replicates(self) -> u64 {
        match self {
            Workload::StudyLong => 3,
            Workload::StudyShort => 6,
            Workload::PlaceMix => 8,
        }
    }

    /// Validation-trace length of a study workload; `None` for placement.
    fn study_events(self) -> Option<usize> {
        match self {
            Workload::StudyLong => Some(LONG_EVENTS),
            Workload::StudyShort => Some(SHORT_EVENTS),
            Workload::PlaceMix => None,
        }
    }

    /// Builds one job's inputs for benchmark seed `seed`: a validator per
    /// replicate with every trace it will replay already generated, and the
    /// reference configuration.
    pub fn setup(self, seed: u64) -> Prepared {
        let seeds: Vec<Seeds> = (0..self.replicates())
            .map(|r| Seeds::new(seed, r))
            .collect();
        let mut generate_s = 0.0;
        let units = match self.study_events() {
            Some(events) => {
                let validators = seeds
                    .iter()
                    .map(|s| {
                        let validator = Validator::new(ValidatorOptions {
                            trace_events: events,
                            seed: s.trace,
                            ..ValidatorOptions::default()
                        });
                        // `trace_for` runs `WorkloadSpec::generate` and caches
                        // the trace; a study replays every studied category
                        // (as target or non-target), so the job starts with
                        // every trace built.
                        let t0 = Instant::now();
                        for k in WorkloadKind::STUDIED {
                            std::hint::black_box(validator.trace_for(k));
                        }
                        generate_s += t0.elapsed().as_secs_f64();
                        (validator, s.tuner)
                    })
                    .collect();
                Units::Study {
                    reference: reference_config(),
                    validators,
                }
            }
            None => {
                let placements = seeds
                    .iter()
                    .map(|s| {
                        let t0 = Instant::now();
                        // Tenant names follow the CLI's `t<i>:<label>` scheme.
                        let tenants: Vec<Arc<Trace>> = PLACE_TENANTS
                            .iter()
                            .enumerate()
                            .map(|(i, &kind)| {
                                let spec = TenantSpec {
                                    kind,
                                    events: PLACE_EVENTS,
                                    seed: s.tenant,
                                };
                                Arc::new(spec.generate(format!("t{i}:{}", kind.name())))
                            })
                            .collect();
                        generate_s += t0.elapsed().as_secs_f64();
                        Placement {
                            validator: Validator::new(ValidatorOptions::default()),
                            tenants,
                            train_seed: s.train,
                        }
                    })
                    .collect();
                Units::Place {
                    fallback: reference_config(),
                    placements,
                }
            }
        };
        Prepared { generate_s, units }
    }
}

/// The CLI's non-target choice for `target`.
fn non_targets(target: WorkloadKind) -> impl Iterator<Item = WorkloadKind> {
    WorkloadKind::STUDIED
        .into_iter()
        .filter(move |&w| w != target)
        .take(NON_TARGETS)
}

/// The CLI's reference configuration under its default constraints (the
/// commodity preset the search starts from, pinned to the constraints).
fn reference_config() -> SsdConfig {
    let mut reference = presets::intel_750();
    Constraints::paper_default().pin(&mut reference);
    reference
}

struct Placement {
    validator: Validator,
    tenants: Vec<Arc<Trace>>,
    train_seed: u64,
}

enum Units {
    /// Seven-category studies, one per replicate.
    Study {
        reference: SsdConfig,
        /// One validator (with its traces) and tuner seed per replicate.
        validators: Vec<(Validator, u64)>,
    },
    Place {
        fallback: SsdConfig,
        placements: Vec<Placement>,
    },
}

/// One job's inputs, ready to run once.
pub struct Prepared {
    /// Harness-timed trace generation inside this set-up, seconds.
    pub generate_s: f64,
    units: Units,
}

/// Counts and results that repeat exactly for a fixed seed, at any thread
/// count and speculation depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    pub simulator_runs: u64,
    /// Mean best grade over the tunes (tune workloads only).
    pub best_grade: Option<f64>,
    /// Mean final placement cost (`place-mix` only).
    pub placement_cost: Option<f64>,
    pub iterations: u64,
    pub validations: u64,
    /// Unique candidates the SGD walks scored.
    pub candidates: u64,
}

/// Validator counters summed over a job's replicates. The simulator
/// counts are populated only while telemetry is enabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Probes answered without simulating: completed-entry hits plus waits
    /// on another thread's in-flight evaluation. Their split depends on
    /// thread timing; their sum does not.
    pub cache_hits: u64,
    pub cache_probes: u64,
    pub speculative_runs: u64,
    pub speculative_hits: u64,
    /// Exact simulator aggregate: `(name, value)` in a fixed order.
    pub sim: [(&'static str, u64); 7],
}

impl Counts {
    fn add(&mut self, s: &ValidatorStats) {
        self.cache_hits += s.cache_hits + s.dedup_waits;
        self.cache_probes += s.shard_probes.iter().sum::<u64>();
        self.speculative_runs += s.speculative_runs;
        self.speculative_hits += s.speculative_hits;
        let a = &s.sim;
        let values = [
            ("ssdsim.runs", a.runs),
            ("ssdsim.requests", a.latency_buckets.total()),
            ("ssdsim.flash_reads", a.flash_reads),
            ("ssdsim.flash_programs", a.flash_programs),
            ("ssdsim.flash_erases", a.flash_erases),
            ("ssdsim.gc_invocations", a.gc_invocations),
            ("ssdsim.slc_migration_ns", a.slc_migration_ns),
        ];
        for (slot, (name, v)) in self.sim.iter_mut().zip(values) {
            *slot = (name, slot.1 + v);
        }
    }

    /// A simulator count by name (0 when unknown).
    pub fn sim(&self, name: &str) -> u64 {
        self.sim
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// What one job produced.
#[derive(Debug)]
pub struct JobOutput {
    /// Serialized tuned configurations or placement reports, plus the exact
    /// counts: equal fingerprints mean equal outputs.
    pub fingerprint: String,
    pub exact: Exact,
    /// Harness-timed `Tuner::step` calls, milliseconds.
    pub step_ms: Vec<f64>,
    /// Heap high-water mark of each tune or placement, MiB.
    pub unit_heap_mb: Vec<f64>,
    pub counts: Counts,
}

impl Prepared {
    /// Runs the job once at `shape.speculate`. The caller sets the worker
    /// pool size. Errors name the first invalid output.
    pub fn run(&self, shape: Shape) -> Result<JobOutput, String> {
        match &self.units {
            Units::Study {
                reference,
                validators,
            } => run_study(reference, validators, shape.speculate),
            Units::Place {
                fallback,
                placements,
            } => run_place(fallback, placements),
        }
    }
}

fn run_study(
    reference: &SsdConfig,
    validators: &[(Validator, u64)],
    speculate: usize,
) -> Result<JobOutput, String> {
    let mut fingerprint = String::new();
    let mut step_ms = Vec::new();
    let mut unit_heap_mb = Vec::new();
    let mut counts = Counts::default();
    let (mut grade_sum, mut tunes) = (0.0, 0);
    let (mut iterations, mut validations, mut candidates, mut runs) = (0, 0, 0, 0);
    for (validator, tuner_seed) in validators {
        for target in WorkloadKind::STUDIED {
            let opts = TunerOptions {
                max_iterations: TUNE_ITERATIONS,
                // Every tune runs the full iteration cap: with the default
                // early stop, a tune's work swings by half with its seed.
                convergence_window: usize::MAX,
                speculative_batch: speculate,
                non_target: non_targets(target).collect(),
                seed: *tuner_seed,
                ..TunerOptions::default()
            };
            let tuner = Tuner::new(Constraints::paper_default(), validator, opts);
            reset_heap_peak();
            let mut state = tuner.init_state(target, reference, &[], None);
            loop {
                let t0 = Instant::now();
                if !tuner.step(target, &mut state) {
                    break;
                }
                step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            unit_heap_mb.push(heap_peak_mb());
            let outcome = Tuner::outcome(state);
            let grade = outcome.best.grade;
            if !grade.is_finite() || outcome.grade_history.iter().any(|g| !g.is_finite()) {
                return Err(format!("{target}: non-finite grade (best {grade})"));
            }
            let config = serde_json::to_string(&outcome.best.config).map_err(|e| e.to_string())?;
            fingerprint.push_str(&format!(
                "{target} seed={tuner_seed} grade={:016x} iterations={} validations={} config={config}\n",
                grade.to_bits(),
                outcome.iterations,
                outcome.validations
            ));
            grade_sum += grade;
            tunes += 1;
            iterations += outcome.iterations as u64;
            validations += outcome.validations;
            candidates += outcome
                .iteration_records
                .iter()
                .map(|r| r.candidates_considered)
                .sum::<u64>();
        }
        runs += validator.simulator_runs();
        counts.add(&validator.stats());
    }
    fingerprint.push_str(&format!("simulator_runs={runs}\n"));
    Ok(JobOutput {
        fingerprint,
        exact: Exact {
            simulator_runs: runs,
            best_grade: Some(grade_sum / f64::from(tunes)),
            placement_cost: None,
            iterations,
            validations,
            candidates,
        },
        step_ms,
        unit_heap_mb,
        counts,
    })
}

fn run_place(fallback: &SsdConfig, placements: &[Placement]) -> Result<JobOutput, String> {
    let mut fingerprint = String::new();
    let mut unit_heap_mb = Vec::new();
    let mut counts = Counts::default();
    let (mut cost_sum, mut runs) = (0.0, 0);
    for p in placements {
        let opts = PlacementOptions {
            devices: PLACE_DEVICES,
            classify: true,
            train_seed: p.train_seed,
            ..PlacementOptions::default()
        };
        reset_heap_peak();
        let report = place(&p.tenants, fallback, None, &p.validator, &opts)?;
        unit_heap_mb.push(heap_peak_mb());
        if !report.final_cost.is_finite() || !report.greedy_cost.is_finite() {
            return Err(format!(
                "non-finite placement cost (greedy {}, final {})",
                report.greedy_cost, report.final_cost
            ));
        }
        if report.final_cost > report.greedy_cost {
            return Err(format!(
                "local search worsened the greedy cost ({} > {})",
                report.final_cost, report.greedy_cost
            ));
        }
        if report.simulator_runs != p.validator.simulator_runs() {
            return Err(String::from(
                "report and validator disagree on simulator runs",
            ));
        }
        fingerprint.push_str(&serde_json::to_string(&report).map_err(|e| e.to_string())?);
        fingerprint.push('\n');
        cost_sum += report.final_cost;
        runs += report.simulator_runs;
        counts.add(&p.validator.stats());
    }
    Ok(JobOutput {
        fingerprint,
        exact: Exact {
            simulator_runs: runs,
            best_grade: None,
            placement_cost: Some(cost_sum / placements.len() as f64),
            iterations: 0,
            validations: 0,
            candidates: 0,
        },
        step_ms: Vec::new(),
        unit_heap_mb,
        counts,
    })
}
