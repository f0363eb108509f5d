//! One run of one workload: set-up, the closed-loop clients, the oracle that
//! checks what they were served, and the untraced (end-to-end) measurement.

use crate::spec::END_TO_END;
use crate::stats::{
    box_speed, median, reference_kernel_us, windows, with_box_speed, Timed, Window,
};
use crate::trace::Span;
use crate::workload::{generate, Inputs, Kind, Scale, Stream};
use crate::write::{durability_failures, run_writer, WriteModel};
use pbds_core::telemetry::clock::Stopwatch;
use pbds_core::{Engine, PbdsServer, ServedQuery, ServerConfig, SketchCatalog};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set-up is repeated in an untraced run and `setup_s` is the median: at
/// least `SETUP_REPS_MIN` times, then until `SETUP_MEASURE_S` seconds of
/// set-up have been measured or `SETUP_REPS_MAX` repetitions made, so that a
/// set-up of a few milliseconds is not judged by three samples.
pub const SETUP_REPS_MIN: usize = 3;
pub const SETUP_REPS_MAX: usize = 9;
const SETUP_MEASURE_S: f64 = 4.0;
/// Windows the timed phase is cut into; see [`crate::stats::windows`].
pub const WINDOWS: usize = 20;
/// Reference kernels timed before and after one set-up.
const SETUP_KERNELS: usize = 50;
/// Passes over every pool binding that warm a catalog before timing. The
/// second pass lets bindings whose first reuse failed the runtime top-k
/// check settle on a sketch of their own.
const WARM_PASSES: usize = 2;
/// One served query in this many is kept and checked against the oracle, up
/// to a cap per client: a snapshot of a mutating server pins a copy of the
/// mutated table.
pub const ORACLE_EVERY: usize = 50;
const ORACLE_SAMPLES_MAX: usize = 64;

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub scale: Scale,
    /// Directory under which a durable server may create its files.
    pub tmp_root: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// No operation failed and the run had the samples its percentiles need.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// What a reader of stderr should know: sample counts, failed checks.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// Closed-loop session threads: callers of a library wait for its reply.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A server under test with the inputs it was built from.
pub struct Instance {
    pub server: PbdsServer,
    pub stream: Stream,
    pub config: ServerConfig,
    /// Durability directory of a writing workload.
    pub dir: Option<PathBuf>,
    pub write_model: Option<WriteModel>,
    pub generate_s: f64,
}

impl Instance {
    pub fn engine(&self) -> Engine {
        Engine::new(self.config.profile)
    }
}

/// Data generation, server construction and — for the warm workloads — the
/// warm passes with their captures drained. Returns the instance and the
/// seconds all of that took, at the reference speed.
pub fn set_up(args: &RunArgs) -> (Instance, f64) {
    let ((mut instance, seconds), speed) = with_box_speed(SETUP_KERNELS, || build(args));
    instance.generate_s *= speed;
    (instance, seconds * speed)
}

fn build(args: &RunArgs) -> (Instance, f64) {
    let sw = Stopwatch::start();
    let Inputs {
        db,
        pools,
        stream,
        config,
        catalog_budget,
        warm,
    } = generate(args.kind, args.seed, args.scale);
    let generate_s = sw.elapsed().as_secs_f64();
    let write_model = args.kind.writes().then(|| WriteModel::new(&db, args.seed));
    let db = Arc::new(db);
    let dir = args.kind.writes().then(|| {
        args.tmp_root.join(format!(
            "{}-{}-{}",
            args.kind.name(),
            args.seed,
            std::process::id()
        ))
    });
    let server = match (&dir, catalog_budget) {
        (Some(dir), _) => {
            let _ = std::fs::remove_dir_all(dir);
            PbdsServer::create(dir, db, config).expect("create the durable server")
        }
        (None, Some(budget)) => PbdsServer::with_catalog(
            db,
            Arc::new(SketchCatalog::with_byte_budget(budget)),
            config,
        ),
        (None, None) => PbdsServer::new(db, config),
    };
    if warm {
        let session = server.session();
        for _ in 0..WARM_PASSES {
            for pool in &pools {
                for binding in &pool.bindings {
                    session
                        .serve(&pool.template, binding)
                        .expect("warm pass query");
                    // Draining after each query makes the stored sketches
                    // independent of how fast the capture worker runs.
                    server.drain();
                }
            }
        }
    }
    let instance = Instance {
        server,
        stream,
        config,
        dir,
        write_model,
        generate_s,
    };
    (instance, sw.elapsed().as_secs_f64())
}

/// Stop the server and remove the files it kept.
pub fn discard(instance: Instance) {
    let Instance { server, dir, .. } = instance;
    drop(server);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A served query kept for the oracle, with its position in the stream.
pub struct Sample {
    pub index: usize,
    pub served: ServedQuery,
}

#[derive(Default)]
pub struct ClientLog {
    pub served: Vec<Timed>,
    pub errors: u64,
    pub samples: Vec<Sample>,
}

impl ClientLog {
    pub fn attempted(&self) -> u64 {
        self.served.len() as u64 + self.errors
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.served.iter().map(|t| t.ms).collect()
    }

    fn merge(&mut self, other: ClientLog) {
        self.served.extend(other.served);
        self.errors += other.errors;
        self.samples.extend(other.samples);
    }
}

/// What one closed-loop client does: serve `stream[first]`,
/// `stream[first + step]`, … (cyclically), each after the previous reply,
/// until `clock` passes `deadline`.
pub struct ClientPlan<'a> {
    pub stream: &'a Stream,
    pub first: usize,
    pub step: usize,
    pub clock: Stopwatch,
    pub deadline: Duration,
    /// Keep query `n` of this client for the oracle when
    /// `n % ORACLE_EVERY == sample_phase`.
    pub sample_phase: usize,
}

pub fn client_loop(server: &PbdsServer, plan: &ClientPlan<'_>) -> ClientLog {
    let session = server.session();
    let mut log = ClientLog::default();
    let mut index = plan.first;
    let mut n = 0usize;
    while plan.clock.elapsed() < plan.deadline {
        let (template, binding) = &plan.stream[index % plan.stream.len()];
        let kernel_us = reference_kernel_us();
        let sw = Stopwatch::start();
        let result = session.serve(template, binding);
        let elapsed = sw.elapsed();
        match result {
            Ok(served) => {
                log.served.push(Timed {
                    end_s: plan.clock.elapsed().as_secs_f64(),
                    ms: elapsed.as_secs_f64() * 1e3,
                    kernel_us: Some(kernel_us),
                });
                if n % ORACLE_EVERY == plan.sample_phase && log.samples.len() < ORACLE_SAMPLES_MAX {
                    log.samples.push(Sample { index, served });
                }
            }
            Err(_) => log.errors += 1,
        }
        index += plan.step;
        n += 1;
    }
    log
}

pub struct Phase {
    pub log: ClientLog,
    pub wall_s: f64,
}

impl Phase {
    /// [`box_speed`] over the whole phase.
    pub fn speed(&self) -> f64 {
        let kernels: Vec<f64> = self.log.served.iter().filter_map(|t| t.kernel_us).collect();
        box_speed(&kernels)
    }

    /// Queries per second at the reference speed.
    pub fn queries_per_s(&self) -> f64 {
        self.log.served.len() as f64 / self.wall_s / self.speed()
    }
}

/// Whether a writer thread runs beside the readers of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterMode {
    Off,
    /// Every submitted mutation is waited for before the phase ends.
    WaitAll,
    /// The last window is abandoned unacknowledged, for the crash check.
    LeaveInFlight,
}

/// `clients` closed-loop sessions striped over the stream from `offset`, for
/// `seconds`. A writer thread, if any, is stopped when the readers are done.
pub fn serve_phase(
    instance: &mut Instance,
    args: &RunArgs,
    clients: usize,
    offset: usize,
    seconds: f64,
    writer: WriterMode,
) -> Phase {
    let server = &instance.server;
    let stream = &instance.stream;
    let stop = AtomicBool::new(false);
    let model = match writer {
        WriterMode::Off => None,
        _ => Some(instance.write_model.as_mut().expect("a writing workload")),
    };
    let clock = Stopwatch::start();
    std::thread::scope(|scope| {
        let mut log = ClientLog::default();
        let writer_thread = model.map(|model| {
            let leave_in_flight = writer == WriterMode::LeaveInFlight;
            let stop = &stop;
            scope.spawn(move || run_writer(server, model, clock, stop, None, leave_in_flight))
        });
        let readers: Vec<_> = (0..clients)
            .map(|t| {
                let plan = ClientPlan {
                    stream,
                    first: offset + t,
                    step: clients,
                    clock,
                    deadline: Duration::from_secs_f64(seconds),
                    sample_phase: args.seed as usize % ORACLE_EVERY,
                };
                scope.spawn(move || client_loop(server, &plan))
            })
            .collect();
        for reader in readers {
            log.merge(reader.join().expect("client thread panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(writer_thread) = writer_thread {
            writer_thread.join().expect("writer thread panicked");
        }
        Phase {
            log,
            wall_s: clock.elapsed().as_secs_f64(),
        }
    })
}

/// Served results that are not bag-equal to plain execution of the same
/// instance on the snapshot they were served against.
pub fn oracle_failures(engine: &Engine, stream: &Stream, samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|sample| {
            let (template, binding) = &stream[sample.index % stream.len()];
            let plan = template.instantiate(binding);
            match engine.execute(&sample.served.snapshot, &plan) {
                Ok(plain) => !plain.relation.bag_eq(&sample.served.relation),
                Err(_) => true,
            }
        })
        .count() as u64
}

pub struct Recovery {
    pub seconds: f64,
    /// Acknowledged mutations missing, unacknowledged ones torn, or a first
    /// query answered wrongly.
    pub failures: u64,
}

/// Drop the server without `shutdown` (no final checkpoint: the WAL holds
/// everything since the last automatic one), reopen its directory and answer
/// one query; then compare the recovered table with the write model.
pub fn crash_and_reopen(instance: Instance, first_query: usize) -> (Instance, Recovery) {
    let Instance {
        server,
        stream,
        config,
        dir,
        write_model,
        generate_s,
    } = instance;
    drop(server);
    let path = dir.as_ref().expect("only a durable server reopens");
    let sw = Stopwatch::start();
    // A server that cannot reopen can vouch for nothing it acknowledged.
    let server = PbdsServer::open(path, config).expect("reopen the durability directory");
    let (template, binding) = &stream[first_query % stream.len()];
    let served = server.session().serve(template, binding);
    let seconds = sw.elapsed().as_secs_f64();
    let mut failures = match served {
        Ok(served) => {
            let sample = Sample {
                index: first_query,
                served,
            };
            oracle_failures(&Engine::new(config.profile), &stream, &[sample])
        }
        Err(_) => 1,
    };
    let model = write_model.as_ref().expect("a durable server writes");
    failures += durability_failures(&server.db(), model);
    let instance = Instance {
        server,
        stream,
        config,
        dir,
        write_model,
        generate_s,
    };
    (instance, Recovery { seconds, failures })
}

/// `VmHWM` of this process in MB: the most memory it ever had resident.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The untraced run: every end-to-end metric, measured from outside around
/// `PbdsSession::serve` and `submit_mutation(..).wait()`.
pub fn run_untraced(args: &RunArgs) -> Outcome {
    let mut notes = Vec::new();
    let mut setup_times = Vec::new();
    let mut current: Option<Instance> = None;
    while setup_times.len() < SETUP_REPS_MIN
        || (setup_times.len() < SETUP_REPS_MAX && setup_times.iter().sum::<f64>() < SETUP_MEASURE_S)
    {
        if let Some(previous) = current.take() {
            discard(previous);
        }
        let (instance, seconds) = set_up(args);
        setup_times.push(seconds);
        current = Some(instance);
    }
    let mut instance = current.expect("set-up ran at least once");

    let writes = args.kind.writes();
    // A writing workload spends one of its two threads on the writer.
    let readers = if writes { 1 } else { clients() };
    let writer = if writes {
        WriterMode::LeaveInFlight
    } else {
        WriterMode::Off
    };
    let phase = serve_phase(&mut instance, args, readers, 0, args.seconds, writer);

    let engine = instance.engine();
    let mismatches = oracle_failures(&engine, &instance.stream, &phase.log.samples);
    let mut attempted = phase.log.attempted();
    let mut failed = phase.log.errors + mismatches;
    let mut acks = Vec::new();
    if writes {
        let (reopened, recovery) = crash_and_reopen(instance, 0);
        instance = reopened;
        let model = instance.write_model.as_ref().expect("writing workload");
        attempted += model.submitted() + 1;
        failed += model.errors + recovery.failures;
        acks = model.acks.clone();
        notes.push(format!(
            "{} mutations acknowledged of {} submitted; reopen took {:.3} s with {} failures",
            model.acked(),
            model.submitted(),
            recovery.seconds,
            recovery.failures
        ));
    }
    notes.push(format!(
        "{} set-ups; {} queries served by {readers} client(s) in {:.3} s; {} checked against the oracle, {} mismatched, {} errors",
        setup_times.len(),
        phase.log.served.len(),
        phase.wall_s,
        phase.log.samples.len(),
        mismatches,
        phase.log.errors
    ));
    // Windows stated for the reference speed: a latency is the median over
    // them, a rate their operations over their reference seconds.
    let stated = windows(&phase.log.served, &acks, args.seconds, WINDOWS);
    let over_windows = |of: &dyn Fn(&Window) -> Option<f64>| {
        let values: Vec<f64> = stated.iter().filter_map(of).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let reference_s: f64 = stated.iter().map(|w| w.reference_s).sum();
    let per_s =
        |of: &dyn Fn(&Window) -> usize| stated.iter().map(of).sum::<usize>() as f64 / reference_s;
    // The 95th percentile wants ten samples beyond it in the phase as a
    // whole, and every window wants queries.
    let empty = stated.iter().filter(|w| w.queries == 0).count();
    let thin = phase.log.served.len() < 200 || empty > 0;
    if thin {
        notes.push(format!(
            "only {} latency samples, none in {empty} of {WINDOWS} windows: too few for the 95th percentile",
            phase.log.served.len(),
        ));
    }
    notes.push(format!(
        "the box ran at {:.2} of the reference speed over the phase (windows from {:.2} to {:.2})",
        phase.speed(),
        stated.iter().map(|w| w.speed).fold(f64::INFINITY, f64::min),
        stated.iter().map(|w| w.speed).fold(0.0, f64::max),
    ));
    discard(instance);

    let values = [
        ("setup_s", median(&setup_times)),
        ("queries_per_s", per_s(&|w| w.queries)),
        ("query_p50_ms", over_windows(&|w| w.p50_ms)),
        ("query_p95_ms", over_windows(&|w| w.p95_ms)),
        ("ops_per_s", per_s(&|w| w.ops)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            unit: spec.unit,
            value: values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("no value measured for {}", spec.name))
                .1,
        })
        .collect();
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && !thin,
        metrics,
        notes,
        spans: Vec::new(),
    }
}
