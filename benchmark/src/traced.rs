//! The traced run: per-layer metrics.
//!
//! A single client replays each query's pipeline from outside the library —
//! one span per public call, in the order `PbdsSession::serve` makes them —
//! and then serves the same instance through the session. Time comes from
//! the spans, counts from `ExecStats` of the served queries and from
//! `metrics_snapshot()` read by `pbds_*` name. Counts are taken over a fixed
//! window of queries so that they repeat exactly from run to run; times are
//! taken over everything the run's seconds allow.

use crate::run::{
    clients, crash_and_reopen, discard, oracle_failures, serve_phase, set_up, Instance, Metric,
    Outcome, Phase, RunArgs, Sample, WriterMode,
};
use crate::spec::PER_LAYER;
use crate::stats::{
    box_speed, mean, median, percentile, ratio, reference_kernel_us, sorted, with_box_speed,
};
use crate::trace::{self_time_by_name, Tracer};
use crate::write::{run_writer, ROWS_PER_APPEND, TABLE, USER_BYTES_PER_ROW, WINDOW};
use pbds_core::algebra::{LogicalPlan, QueryTemplate};
use pbds_core::exec::PhysicalPlan;
use pbds_core::persist::{
    encode_op, read_records, read_snapshot, write_snapshot, MutationWal, WalOpRef,
};
use pbds_core::provenance::CaptureConfig;
use pbds_core::storage::{Database, PartitionRef, Relation, Value};
use pbds_core::telemetry::clock::Stopwatch;
use pbds_core::{
    apply_sketches, capture_sketches, estimate_selectivity, Action, Engine, MetricsSnapshot,
    PartitionAttr, PbdsServer, ReuseChecker, ServerConfig, SketchCatalog, Strategy,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Queries at the start of the traced phase over which counts are taken.
pub const COUNT_WINDOW: usize = 128;
/// One traced query in this many also gets: a direct reuse check against
/// stored bindings, an `EXPLAIN ANALYZE`, a plain-execution oracle check.
const REUSE_PROBE_EVERY: usize = 10;
const ANALYZE_EVERY: usize = 20;
const ORACLE_EVERY: usize = 10;
/// One catalog miss in this many is also captured from outside.
const CAPTURE_PROBE_EVERY: usize = 4;
/// Crash / reopen cycles of a writing workload, and the mutations written
/// between two of them (fewer than `checkpoint_every`, so the WAL is never
/// empty at a crash).
const RECOVERY_CYCLES: usize = 3;
const MUTATIONS_BETWEEN_CRASHES: u64 = 64;
/// Repetitions of each persistence and storage probe.
const PROBE_REPS: usize = 8;

/// Shares of the run's seconds. Read-only workloads: traced single client,
/// untraced single client, untraced `clients`. The writing workload: reader
/// alone, reader beside the writer, traced reader beside the writer.
const TRACED_SHARE: f64 = 0.45;
const SINGLE_SHARE: f64 = 0.30;
const MULTI_SHARE: f64 = 0.25;
const ALONE_SHARE: f64 = 0.15;
const BESIDE_SHARE: f64 = 0.45;

/// Per-layer metrics only `write_side` measures.
const WRITE_SIDE_PREFIXES: [&str; 3] = ["server.mutation", "persist.", "storage."];

/// How one replayed query ended.
struct Replay {
    relation: Relation,
    snapshot: Arc<Database>,
    plan: LogicalPlan,
    /// `Some(hit)` when the catalog was asked.
    catalog_hit: Option<bool>,
    attrs: Option<Vec<PartitionAttr>>,
    /// Time in the final `exec.execute` span, for the capture overhead ratio.
    execute_ns: u64,
}

/// Replay the pipeline of `PbdsSession::serve` through public calls.
fn replay(
    tracer: &mut Tracer,
    qid: u64,
    server: &PbdsServer,
    engine: &Engine,
    config: &ServerConfig,
    template: &QueryTemplate,
    binding: &[Value],
) -> Replay {
    let snapshot = server.db();
    let db: &Database = &snapshot;
    let catalog = server.catalog();
    let (plan, _) = tracer.span("algebra.instantiate", qid, |_| {
        template.instantiate(binding)
    });

    let execute = |tracer: &mut Tracer, logical: &LogicalPlan| {
        let (physical, _): (PhysicalPlan, u64) = tracer.span("exec.lower", qid, |_| {
            engine.plan(db, logical).expect("lower the plan")
        });
        tracer.span("exec.execute", qid, |_| {
            engine
                .execute_physical(db, &physical)
                .expect("execute the plan")
        })
    };

    let mut attrs = None;
    let mut catalog_hit = None;
    let mut reusable = None;
    if config.strategy != Strategy::NoPbds {
        (attrs, _) = tracer.span("safety.cached_lookup", qid, |_| {
            catalog.safe_attrs(db, template)
        });
        let gated = attrs.is_some() && {
            let (estimate, _) =
                tracer.span("tuning.estimate", qid, |_| estimate_selectivity(db, &plan));
            let threshold = match config.strategy {
                Strategy::Eager {
                    selectivity_threshold,
                }
                | Strategy::Adaptive {
                    selectivity_threshold,
                    ..
                } => selectivity_threshold,
                Strategy::NoPbds => 0.0,
            };
            estimate.is_none_or(|e| e <= threshold)
        };
        if gated {
            (reusable, _) = tracer.span("catalog.find_reusable", qid, |_| {
                catalog.find_reusable(db, template, binding)
            });
            catalog_hit = Some(reusable.is_some());
        }
    }
    let (out, execute_ns) = match &reusable {
        Some(found) => {
            let (instrumented, _) = tracer.span("instrument.apply", qid, |_| {
                apply_sketches(&plan, &found.sketches, config.style)
            });
            let (out, ns) = execute(tracer, &instrumented);
            if out.stats.topk_safety_revalidated() {
                (out, ns)
            } else {
                // The runtime top-k check disproved the reuse: the server
                // answers from the plain plan, and so does the replay.
                execute(tracer, &plan)
            }
        }
        None => execute(tracer, &plan),
    };
    Replay {
        relation: out.relation,
        snapshot,
        plan,
        catalog_hit,
        attrs,
        execute_ns,
    }
}

/// Sums of `ExecStats` over the queries of the count window.
#[derive(Default)]
struct ExecTotals {
    queries: u64,
    rows_scanned: u64,
    rows_output: u64,
    result_rows: u64,
    blocks_skipped: u64,
    blocks_total: u64,
    index_scans: u64,
    full_scans: u64,
    vectorized_scans: u64,
    agg_pushdown_blocks: u64,
}

#[derive(Default)]
struct TracedLog {
    serve_ns: Vec<u64>,
    replay_ns: Vec<u64>,
    /// Per query, the serve time no replayed span accounts for (≥ 0).
    uncovered_ns: Vec<u64>,
    use_sketch: u64,
    plain: u64,
    fallback: u64,
    errors: u64,
    /// Served results that differ from the replay's on the same snapshot.
    mismatches: u64,
    window: ExecTotals,
    window_start: Option<MetricsSnapshot>,
    window_end: Option<MetricsSnapshot>,
    reuse_check_ns: Vec<u64>,
    reuse_accepted: u64,
    capture_ms: Vec<f64>,
    capture_overhead: Vec<f64>,
    sketch_selectivity: Vec<f64>,
    sketch_bytes: Vec<f64>,
    scan_time_share: Vec<f64>,
    misses: usize,
    oracle: Vec<Sample>,
    /// The reference kernel, timed before every query.
    kernel_us: Vec<f64>,
}

/// The key `SketchCatalog` files a template's entries under.
fn template_key(template: &QueryTemplate) -> String {
    format!("{}#{:016x}", template.name(), template.fingerprint())
}

/// Share of an analyzed query's time spent in its scans: the leaves of the
/// physical plan, or for a scan fused into the aggregate above it, that
/// aggregate.
fn scan_time_share(analyzed: &pbds_core::AnalyzedQuery) -> f64 {
    fn walk(
        plan: &PhysicalPlan,
        ops: &[pbds_core::exec::OpMetrics],
        id: &mut usize,
        parent: Option<usize>,
        scan_ns: &mut u128,
    ) {
        let me = *id;
        *id += 1;
        let children = plan.children();
        if children.is_empty() {
            let charged = if ops[me].fused {
                parent.unwrap_or(me)
            } else {
                me
            };
            *scan_ns += ops[charged].elapsed.as_nanos();
        }
        for child in children {
            walk(child, ops, id, Some(me), scan_ns);
        }
    }
    let mut scan_ns = 0u128;
    walk(
        &analyzed.physical,
        &analyzed.metrics.ops,
        &mut 0,
        None,
        &mut scan_ns,
    );
    let total = analyzed
        .metrics
        .ops
        .first()
        .map_or(0, |root| root.elapsed.as_nanos());
    ratio(scan_ns as f64, total as f64).min(1.0)
}

/// Traced single client: replay, then serve, each stream instance from
/// `offset` on, until `seconds` have passed and the count window is full.
fn traced_phase(
    tracer: &mut Tracer,
    instance: &Instance,
    offset: usize,
    seconds: f64,
) -> TracedLog {
    let server = &instance.server;
    let config = &instance.config;
    let engine = instance.engine();
    let session = server.session();
    let catalog = server.catalog();
    let mut log = TracedLog {
        window_start: Some(server.metrics_snapshot()),
        ..TracedLog::default()
    };
    let mut stored = catalog.export();
    let clock = Stopwatch::start();
    let mut n = 0usize;
    while n < COUNT_WINDOW || clock.elapsed().as_secs_f64() < seconds {
        let index = offset + n;
        let qid = index as u64;
        let (template, binding) = &instance.stream[index % instance.stream.len()];
        log.kernel_us.push(reference_kernel_us());

        let spans_before = tracer.spans().len();
        let (replayed, replay_ns) = tracer.span("replay", qid, |t| {
            replay(t, qid, server, &engine, config, template, binding)
        });
        let covered_ns: u64 = tracer.spans()[spans_before + 1..]
            .iter()
            .map(|s| s.duration_ns())
            .sum();
        let (served, serve_ns) =
            tracer.span("server.serve", qid, |_| session.serve(template, binding));
        let served = match served {
            Ok(served) => served,
            Err(_) => {
                log.errors += 1;
                n += 1;
                continue;
            }
        };
        log.serve_ns.push(serve_ns);
        log.replay_ns.push(replay_ns);
        log.uncovered_ns.push(serve_ns.saturating_sub(covered_ns));
        match served.record.action {
            Action::UseSketch => log.use_sketch += 1,
            Action::RevalidationFallback => log.fallback += 1,
            Action::Plain | Action::Capture => log.plain += 1,
        }
        // The two answers are comparable when no mutation landed between them.
        if Arc::ptr_eq(&replayed.snapshot, &served.snapshot)
            && !replayed.relation.bag_eq(&served.relation)
        {
            log.mismatches += 1;
        }
        if n < COUNT_WINDOW {
            let stats = &served.record.stats;
            let w = &mut log.window;
            w.queries += 1;
            w.rows_scanned += stats.rows_scanned;
            w.rows_output += stats.rows_output;
            w.result_rows += served.record.result_rows as u64;
            w.blocks_skipped += stats.blocks_skipped;
            w.blocks_total += stats.blocks_total;
            w.index_scans += stats.index_scans;
            w.full_scans += stats.full_scans;
            w.vectorized_scans += stats.vectorized_scans;
            w.agg_pushdown_blocks += stats.agg_pushdown_blocks;
            if n + 1 == COUNT_WINDOW {
                log.window_end = Some(server.metrics_snapshot());
            }
        }

        // Probes: calls the serve path makes only inside `find_reusable` or
        // on a capture worker, made directly so that they can be timed.
        if n.is_multiple_of(REUSE_PROBE_EVERY) && replayed.catalog_hit.is_some() {
            if n.is_multiple_of(REUSE_PROBE_EVERY * 10) {
                stored = catalog.export();
            }
            let key = template_key(template);
            let checker = ReuseChecker::new(&replayed.snapshot);
            for entry in stored
                .entries
                .iter()
                .filter(|e| e.template_key == key && e.binding != *binding)
                .take(3)
            {
                let (result, ns) = tracer.span("probe.reuse_check", qid, |_| {
                    checker.can_reuse(template, &entry.binding, binding)
                });
                log.reuse_check_ns.push(ns);
                log.reuse_accepted += u64::from(result.reusable);
            }
        }
        if replayed.catalog_hit == Some(false) {
            log.misses += 1;
            if log.misses % CAPTURE_PROBE_EVERY == 1 {
                capture_probe(tracer, qid, catalog, config, &replayed, &mut log);
            }
        }
        if n.is_multiple_of(ANALYZE_EVERY) {
            let (analyzed, _) = tracer.span("probe.explain_analyze", qid, |_| {
                engine.explain_analyze(&replayed.snapshot, &replayed.plan)
            });
            if let Ok(analyzed) = analyzed {
                log.scan_time_share.push(scan_time_share(&analyzed));
            }
        }
        if n.is_multiple_of(ORACLE_EVERY) {
            log.oracle.push(Sample { index, served });
        }
        n += 1;
    }
    if log.window_end.is_none() {
        log.window_end = Some(server.metrics_snapshot());
    }
    log
}

/// Capture the sketches of a missed instance from outside, as a capture
/// worker would, and compare its cost with the plain execution just replayed.
fn capture_probe(
    tracer: &mut Tracer,
    qid: u64,
    catalog: &SketchCatalog,
    config: &ServerConfig,
    replayed: &Replay,
    log: &mut TracedLog,
) {
    let db: &Database = &replayed.snapshot;
    let Some(attrs) = &replayed.attrs else {
        return;
    };
    let partitions: Vec<PartitionRef> = attrs
        .iter()
        .filter_map(|a| catalog.partition_for(db, a, config.fragments))
        .collect();
    if partitions.is_empty() {
        return;
    }
    let (captured, ns) = tracer.span("probe.capture", qid, |_| {
        capture_sketches(db, &replayed.plan, &partitions, &CaptureConfig::optimized())
    });
    let Ok(captured) = captured else {
        return;
    };
    log.capture_ms.push(ns as f64 / 1e6);
    log.capture_overhead
        .push(ratio(ns as f64, replayed.execute_ns as f64));
    for sketch in &captured.sketches {
        if let Ok(selectivity) = sketch.selectivity(db) {
            log.sketch_selectivity.push(selectivity);
        }
        log.sketch_bytes.push(sketch.size_bytes() as f64);
    }
}

/// Time of a first (uncached) safety analysis per template, on a catalog of
/// its own; the served catalog has cached every template since the warm pass.
fn first_safety_checks(tracer: &mut Tracer, instance: &Instance) -> (Vec<f64>, usize, usize) {
    let db = instance.server.db();
    let mut seen: Vec<String> = Vec::new();
    let mut times_ms = Vec::new();
    let mut safe = 0;
    for (template, _) in &instance.stream {
        let key = template_key(template);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let fresh = SketchCatalog::default();
        let (attrs, ns) = tracer.span("probe.safety_first_check", 0, |_| {
            fresh.safe_attrs(&db, template)
        });
        times_ms.push(ns as f64 / 1e6);
        safe += usize::from(attrs.is_some());
    }
    (times_ms, safe, seen.len())
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

fn gauge(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.gauge(name).unwrap_or(0) as f64
}

fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> f64 {
    counter(after, name) - counter(before, name)
}

/// Values of the write-side and recovery metrics of a writing workload.
struct WriteSide {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Encoded bytes of every row of a database whose values are all integers.
fn user_bytes(db: &Database) -> u64 {
    db.table_names()
        .iter()
        .map(|name| {
            let table = db.table(name).expect("listed table exists");
            table.len() as u64 * table.schema().arity() as u64 * 8
        })
        .sum()
}

/// Crash / reopen cycles, then the persistence and storage calls the write
/// path makes, timed one by one on scratch files beside the server's own.
fn write_side(
    mut instance: Instance,
    beside: &Phase,
    beside_acks: std::ops::Range<usize>,
    notes: &mut Vec<String>,
) -> (Instance, WriteSide) {
    let mut values = BTreeMap::new();
    let mut failed = 0;
    let submitted_before = instance.write_model.as_ref().map_or(0, |m| m.submitted());

    let model = instance.write_model.as_ref().expect("a writing workload");
    let acks = sorted(model.acks[beside_acks].iter().map(|t| t.ms).collect());
    values.insert("server.mutations_per_s", acks.len() as f64 / beside.wall_s);
    for (name, p) in [
        ("server.mutation_ack_p50_ms", 50.0),
        ("server.mutation_ack_p95_ms", 95.0),
        ("server.mutation_ack_p99_ms", 99.0),
    ] {
        values.insert(name, percentile(&acks, p).unwrap_or(0.0));
    }
    notes.push(format!("{} mutation acknowledgements timed", acks.len()));

    let mut recovery_s = Vec::new();
    for cycle in 0..RECOVERY_CYCLES {
        if cycle > 0 {
            let never = AtomicBool::new(false);
            let model = instance.write_model.as_mut().expect("a writing workload");
            run_writer(
                &instance.server,
                model,
                Stopwatch::start(),
                &never,
                Some(MUTATIONS_BETWEEN_CRASHES),
                true,
            );
        }
        let (reopened, recovery) = crash_and_reopen(instance, cycle);
        instance = reopened;
        recovery_s.push(recovery.seconds);
        if recovery.failures > 0 {
            notes.push(format!(
                "crash/reopen cycle {cycle}: {} mutations or first answers wrong",
                recovery.failures
            ));
        }
        failed += recovery.failures;
    }
    values.insert("persist.recovery_s", median(&recovery_s));

    let dir = instance
        .dir
        .clone()
        .expect("a durable server has a directory");
    let db = instance.server.db();
    let on_disk: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| file_len(&e.path()))
                .sum()
        })
        .unwrap_or(0);
    values.insert(
        "persist.disk_bytes_per_user_byte",
        ratio(on_disk as f64, user_bytes(&db) as f64),
    );

    // One WAL append + fsync per window of this run's payloads.
    let model = instance.write_model.as_mut().expect("a writing workload");
    let payloads = model.sample_payloads(PROBE_REPS * WINDOW);
    let wal_path = dir.join("probe.wal");
    let (mut wal, _) = MutationWal::open(&wal_path).expect("open the scratch WAL");
    let mut append_ms = Vec::new();
    for (batch_no, batch) in payloads.chunks(WINDOW).enumerate() {
        let records: Vec<(u64, Vec<u8>)> = batch
            .iter()
            .enumerate()
            .map(|(i, rows)| {
                let seq = (batch_no * WINDOW + i + 1) as u64;
                (seq, encode_op(WalOpRef::Append { table: TABLE, rows }))
            })
            .collect();
        let sw = Stopwatch::start();
        wal.append_batch(&records)
            .expect("append to the scratch WAL");
        append_ms.push(sw.elapsed().as_secs_f64() * 1e3);
    }
    drop(wal);
    values.insert("persist.wal_append_fsync_ms", mean(&append_ms));
    let payload_bytes = (payloads.len() * ROWS_PER_APPEND * USER_BYTES_PER_ROW) as f64;
    values.insert(
        "persist.wal_bytes_per_user_byte",
        ratio(file_len(&wal_path) as f64, payload_bytes),
    );
    let sw = Stopwatch::start();
    let (records, _) = read_records(&wal_path).expect("read the scratch WAL back");
    values.insert("persist.wal_replay_ms", sw.elapsed().as_secs_f64() * 1e3);
    if records.len() != payloads.len() {
        notes.push(format!(
            "scratch WAL read back {} of {} records",
            records.len(),
            payloads.len()
        ));
        failed += 1;
    }

    let snapshot_path = dir.join("probe.snapshot");
    let sw = Stopwatch::start();
    write_snapshot(&snapshot_path, &db, 0).expect("write the scratch snapshot");
    values.insert(
        "persist.snapshot_write_ms",
        sw.elapsed().as_secs_f64() * 1e3,
    );
    let sw = Stopwatch::start();
    let (restored, _) = read_snapshot(&snapshot_path).expect("read the scratch snapshot");
    values.insert("persist.snapshot_read_ms", sw.elapsed().as_secs_f64() * 1e3);
    if restored.total_rows() != db.total_rows() {
        notes.push("scratch snapshot read back another row count".to_string());
        failed += 1;
    }

    let sw = Stopwatch::start();
    let exported = instance.server.catalog().export();
    let entries = exported.entries.len();
    let imported = SketchCatalog::default().import(&db, exported);
    values.insert(
        "persist.catalog_export_import_ms",
        sw.elapsed().as_secs_f64() * 1e3,
    );
    if imported.imported + imported.dropped != entries {
        notes.push("catalog import lost entries of the export".to_string());
        failed += 1;
    }

    // What one commit batch does to the mutated table, and what the first
    // reader after it pays to rebuild the derived structures.
    let rows = payloads[0].clone();
    let (mut fork_us, mut delete_ms, mut rebuild_ms) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..PROBE_REPS {
        let sw = Stopwatch::start();
        let mut fork = (*db).clone();
        fork.append_rows(TABLE, rows.clone())
            .expect("append to the fork");
        fork_us.push(sw.elapsed().as_secs_f64() * 1e6);
        let table = fork.table(TABLE).expect("forked table");
        let sw = Stopwatch::start();
        let _ = (
            table.zone_map(),
            table.columnar_chunks(),
            table.index_on("userid"),
        );
        rebuild_ms.push(sw.elapsed().as_secs_f64() * 1e3);
        let doomed = Value::Int(rep as i64);
        let sw = Stopwatch::start();
        let deleted = fork
            .delete_where(TABLE, |row| row[0] == doomed)
            .expect("delete from the fork");
        delete_ms.push(sw.elapsed().as_secs_f64() * 1e3);
        if deleted != 1 {
            notes.push(format!("delete probe removed {deleted} rows, not 1"));
            failed += 1;
        }
    }
    values.insert("storage.fork_append_us", mean(&fork_us));
    values.insert("storage.delete_where_ms", mean(&delete_ms));
    values.insert("storage.derived_rebuild_ms", mean(&rebuild_ms));

    let model = instance.write_model.as_ref().expect("a writing workload");
    let attempted = model.submitted() - submitted_before + RECOVERY_CYCLES as u64;
    (
        instance,
        WriteSide {
            values,
            attempted,
            failed,
        },
    )
}

fn mean_us(by_name: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    by_name
        .get(name)
        .map_or(0.0, |(calls, ns)| ratio(*ns as f64, *calls as f64) / 1e3)
}

/// The traced run: every per-layer metric.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let mut notes = Vec::new();
    let (mut instance, _setup_s) = set_up(args);
    let kind = args.kind;
    let writes = kind.writes();
    let after_setup = instance.server.metrics_snapshot();
    let mut tracer = Tracer::new();
    let mut attempted = 0;
    let mut failed = 0;

    let ((first_check_ms, safe_templates, templates), first_check_speed) =
        with_box_speed(20, || {
            if instance.config.strategy == Strategy::NoPbds {
                (Vec::new(), 0, 0)
            } else {
                first_safety_checks(&mut tracer, &instance)
            }
        });

    // Phases. `untraced` is the single client the traced one is compared
    // with; `multi` is the same stream under the run's full client count.
    let traced_seconds = args.seconds
        * if writes {
            1.0 - ALONE_SHARE - BESIDE_SHARE
        } else {
            TRACED_SHARE
        };
    let (traced, untraced, multi, alone);
    // Acknowledgements timed while the reader ran untraced beside the writer.
    let mut acks = 0..0;
    if writes {
        let a = serve_phase(
            &mut instance,
            args,
            1,
            0,
            args.seconds * ALONE_SHARE,
            WriterMode::Off,
        );
        let acked = |i: &Instance| i.write_model.as_ref().map_or(0, |m| m.acks.len());
        let acks_before = acked(&instance);
        let b = serve_phase(
            &mut instance,
            args,
            1,
            a.log.attempted() as usize,
            args.seconds * BESIDE_SHARE,
            WriterMode::WaitAll,
        );
        acks = acks_before..acked(&instance);
        let offset = (a.log.attempted() + b.log.attempted()) as usize;
        let stop = AtomicBool::new(false);
        let model = instance.write_model.take().expect("a writing workload");
        let (log, model) = std::thread::scope(|scope| {
            let server = &instance.server;
            let stop = &stop;
            let writer = scope.spawn(move || {
                let mut model = model;
                run_writer(server, &mut model, Stopwatch::start(), stop, None, true);
                model
            });
            let log = traced_phase(&mut tracer, &instance, offset, traced_seconds);
            stop.store(true, Ordering::Relaxed);
            (log, writer.join().expect("writer thread panicked"))
        });
        instance.write_model = Some(model);
        traced = log;
        alone = Some(a);
        multi = None;
        untraced = b;
    } else {
        traced = traced_phase(&mut tracer, &instance, 0, traced_seconds);
        let offset = traced.serve_ns.len();
        let single = serve_phase(
            &mut instance,
            args,
            1,
            offset,
            args.seconds * SINGLE_SHARE,
            WriterMode::Off,
        );
        let offset = offset + single.log.attempted() as usize;
        multi = Some(serve_phase(
            &mut instance,
            args,
            clients(),
            offset,
            args.seconds * MULTI_SHARE,
            WriterMode::Off,
        ));
        untraced = single;
        alone = None;
    }
    let after_phases = instance.server.metrics_snapshot();

    // Outputs: every traced answer against its replay, a tenth of them and
    // the sampled untraced ones against plain execution on their snapshot.
    let engine = instance.engine();
    let mut samples: Vec<&Sample> = traced.oracle.iter().collect();
    samples.extend(untraced.log.samples.iter());
    for phase in multi.iter().chain(alone.iter()) {
        samples.extend(phase.log.samples.iter());
    }
    let oracle_mismatches: u64 = samples
        .iter()
        .map(|s| oracle_failures(&engine, &instance.stream, std::slice::from_ref(*s)))
        .sum();
    attempted += traced.serve_ns.len() as u64 + traced.errors + untraced.log.attempted();
    failed += traced.errors + traced.mismatches + oracle_mismatches + untraced.log.errors;
    for phase in multi.iter().chain(alone.iter()) {
        attempted += phase.log.attempted();
        failed += phase.log.errors;
    }
    notes.push(format!(
        "{} traced queries ({} replay mismatches), {} untraced single-client, {} oracle checks ({} mismatched)",
        traced.serve_ns.len(),
        traced.mismatches,
        untraced.log.served.len(),
        samples.len(),
        oracle_mismatches
    ));
    drop(samples);

    // A metric of a layer this workload never enters reads 0.
    let mut write_values: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter(|m| WRITE_SIDE_PREFIXES.iter().any(|p| m.name.starts_with(p)))
        .map(|m| (m.name, 0.0))
        .collect();
    if writes {
        let (reopened, side) = write_side(instance, &untraced, acks, &mut notes);
        instance = reopened;
        attempted += side.attempted;
        failed += side.failed;
        let model = instance.write_model.as_ref().expect("a writing workload");
        failed += model.errors;
        write_values.extend(side.values);
    }

    // ---- per-layer values -------------------------------------------------
    // Times are stated for the reference speed, phase by phase, as in the
    // untraced run.
    let speed = box_speed(&traced.kernel_us);
    let by_name: BTreeMap<&'static str, (u64, u64)> = self_time_by_name(tracer.spans())
        .into_iter()
        .map(|(name, (calls, ns))| (name, (calls, (ns as f64 * speed) as u64)))
        .collect();
    let window_start = traced.window_start.as_ref().expect("window start");
    let window_end = traced.window_end.as_ref().expect("window end");
    let w = &traced.window;
    let lookups = delta(window_end, window_start, "pbds_catalog_hits")
        + delta(window_end, window_start, "pbds_catalog_misses");
    let queries = w.queries as f64;
    let decided = (traced.use_sketch + traced.plain + traced.fallback) as f64;

    let serve_ms: Vec<f64> = traced
        .serve_ns
        .iter()
        .map(|ns| *ns as f64 * speed / 1e6)
        .collect();
    let overheads_us: Vec<f64> = traced
        .serve_ns
        .iter()
        .zip(&traced.replay_ns)
        .map(|(serve, replay)| (*serve as f64 - *replay as f64) * speed / 1e3)
        .collect();
    let single_qps = alone.as_ref().unwrap_or(&untraced).queries_per_s();
    let loaded = multi.as_ref().unwrap_or(&untraced);
    let loaded_clients = if writes { 1 } else { clients() };
    let mut untraced_ms = untraced.log.latencies_ms();
    if let Some(multi) = &multi {
        untraced_ms.extend(multi.log.latencies_ms());
    }
    let untraced_sorted = sorted(untraced_ms);
    let stall_ratio = alone.as_ref().map_or(0.0, |alone| {
        let before = percentile(&sorted(alone.log.latencies_ms()), 95.0);
        let beside = percentile(&sorted(untraced.log.latencies_ms()), 95.0);
        match (before, beside) {
            (Some(before), Some(beside)) => {
                ratio(beside * untraced.speed(), before * alone.speed())
            }
            _ => 0.0,
        }
    });
    let capture_hist = after_phases.histogram("pbds_capture_seconds");
    let fsync_hist = after_phases.histogram("pbds_wal_fsync_seconds");
    let committed = delta(
        &after_phases,
        &after_setup,
        "pbds_commit_mutations_committed",
    );

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        (
            "algebra.instantiate_us",
            mean_us(&by_name, "algebra.instantiate"),
        ),
        (
            "safety.first_check_ms",
            mean(&first_check_ms) * first_check_speed,
        ),
        (
            "safety.cached_lookup_us",
            mean_us(&by_name, "safety.cached_lookup"),
        ),
        (
            "safety.safe_template_share",
            ratio(safe_templates as f64, templates as f64),
        ),
        ("tuning.estimate_us", mean_us(&by_name, "tuning.estimate")),
        (
            "tuning.use_sketch_share",
            ratio(traced.use_sketch as f64, decided),
        ),
        ("tuning.plain_share", ratio(traced.plain as f64, decided)),
        (
            "tuning.fallback_share",
            ratio(traced.fallback as f64, decided),
        ),
        (
            "catalog.find_reusable_us",
            mean_us(&by_name, "catalog.find_reusable"),
        ),
        (
            "catalog.hit_ratio",
            ratio(
                delta(window_end, window_start, "pbds_catalog_hits"),
                lookups,
            ),
        ),
        (
            "catalog.memo_hit_ratio",
            ratio(
                delta(window_end, window_start, "pbds_catalog_memo_hits"),
                lookups,
            ),
        ),
        (
            "catalog.stored_sketches",
            gauge(&after_phases, "pbds_catalog_stored"),
        ),
        ("catalog.bytes", gauge(&after_phases, "pbds_catalog_bytes")),
        (
            "catalog.evictions",
            delta(&after_phases, &after_setup, "pbds_catalog_evictions"),
        ),
        (
            "catalog.invalidated",
            delta(&after_phases, &after_setup, "pbds_catalog_invalidated"),
        ),
        (
            "catalog.extended",
            delta(&after_phases, &after_setup, "pbds_catalog_extended"),
        ),
        (
            "catalog.maintenance_deltas",
            delta(
                &after_phases,
                &after_setup,
                "pbds_catalog_maintenance_deltas",
            ),
        ),
        (
            "reuse.check_us",
            mean(
                &traced
                    .reuse_check_ns
                    .iter()
                    .map(|ns| *ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ) * speed,
        ),
        (
            "reuse.accept_ratio",
            ratio(
                traced.reuse_accepted as f64,
                traced.reuse_check_ns.len() as f64,
            ),
        ),
        ("instrument.apply_us", mean_us(&by_name, "instrument.apply")),
        ("exec.lower_us", mean_us(&by_name, "exec.lower")),
        ("exec.execute_ms", mean_us(&by_name, "exec.execute") / 1e3),
        (
            "exec.rows_scanned_per_query",
            ratio(w.rows_scanned as f64, queries),
        ),
        (
            "exec.rows_scanned_per_result_row",
            ratio(w.rows_scanned as f64, w.result_rows as f64),
        ),
        (
            "exec.blocks_skipped_ratio",
            ratio(w.blocks_skipped as f64, w.blocks_total as f64),
        ),
        (
            "exec.index_scan_share",
            ratio(w.index_scans as f64, (w.index_scans + w.full_scans) as f64),
        ),
        (
            "exec.vectorized_scan_share",
            ratio(
                w.vectorized_scans as f64,
                (w.index_scans + w.full_scans) as f64,
            ),
        ),
        (
            "exec.agg_pushdown_blocks_per_query",
            ratio(w.agg_pushdown_blocks as f64, queries),
        ),
        ("exec.scan_time_share", mean(&traced.scan_time_share)),
        (
            "exec.rows_output_per_query",
            ratio(w.rows_output as f64, queries),
        ),
        ("provenance.capture_ms", mean(&traced.capture_ms) * speed),
        (
            "provenance.capture_overhead_ratio",
            mean(&traced.capture_overhead),
        ),
        (
            "provenance.sketch_selectivity",
            mean(&traced.sketch_selectivity),
        ),
        ("provenance.sketch_bytes", mean(&traced.sketch_bytes)),
        ("server.serve_overhead_us", mean(&overheads_us)),
        ("server.single_client_qps", single_qps),
        (
            "server.scaling_efficiency",
            ratio(loaded.queries_per_s(), loaded_clients as f64 * single_qps),
        ),
        (
            "server.query_p99_ms",
            percentile(&untraced_sorted, 99.0).unwrap_or(0.0) * untraced.speed(),
        ),
        (
            "server.captures_done",
            delta(&after_phases, &after_setup, "pbds_captures_done"),
        ),
        (
            "server.capture_p50_ms",
            capture_hist
                .filter(|h| h.count() > 0)
                .map_or(0.0, |h| h.quantile_scaled(0.5) * 1e3),
        ),
        (
            "server.commit_batch_mean",
            ratio(
                committed,
                delta(&after_phases, &after_setup, "pbds_commit_batches"),
            ),
        ),
        ("server.reader_p95_stall_ratio", stall_ratio),
        (
            "persist.fsyncs_per_mutation",
            ratio(
                delta(&after_phases, &after_setup, "pbds_wal_fsyncs"),
                committed,
            ),
        ),
        (
            "persist.fsync_p99_ms",
            fsync_hist
                .filter(|h| h.count() > 0)
                .map_or(0.0, |h| h.quantile_scaled(0.99) * 1e3),
        ),
        ("workloads.generate_s", instance.generate_s),
        (
            "trace.overhead_ratio",
            ratio(
                mean(&serve_ms),
                mean(&untraced.log.latencies_ms()) * untraced.speed(),
            ),
        ),
        ("trace.box_speed", speed),
        (
            "trace.unattributed_share",
            ratio(
                traced.uncovered_ns.iter().sum::<u64>() as f64,
                traced.serve_ns.iter().sum::<u64>() as f64,
            ),
        ),
    ]);
    // What was measured above wins over a write-side default of 0.
    for (name, value) in write_values {
        values.entry(name).or_insert(value);
    }

    discard(instance);

    let metrics = PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            unit: spec.unit,
            value: *values
                .get(spec.name)
                .unwrap_or_else(|| panic!("no value measured for {}", spec.name)),
        })
        .collect();
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        notes,
        spans: tracer.spans().to_vec(),
    }
}
