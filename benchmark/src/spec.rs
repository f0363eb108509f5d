//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same names; a test compares the two so that a
//! name can only change in both places at once.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured with tracing off, from outside the
/// library, and gated by `bound` (the share of the parent's median by which
/// it may get worse).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A per-layer metric: reported by the traced run, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Declared in `BENCHMARK.json`; the program itself never judges a
    /// per-layer metric.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Declared in `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "warm-reuse",
        why: "Zipf HAVING stream on SOF with a warm catalog: nearly every query reuses a stored sketch, so catalog, reuse check, instrumentation and skip scans do the work",
    },
    WorkloadSpec {
        name: "no-sketch-scan",
        why: "same data, stream and seed under Strategy::NoPbds: the paper's No-PS baseline, where PBDS is bypassed and all time is full scan plus aggregate",
    },
    WorkloadSpec {
        name: "cold-capture",
        why: "Crimes stream over a cold catalog at half its working-set size: safety, solver, capture and eviction dominate, and a fifth of one template takes the plain path",
    },
    WorkloadSpec {
        name: "join-topk",
        why: "TPC-H Q3/Q5/Q10/Q18 analogues with a warm catalog: joins, aggregation, sort and top-k above the scan do most of the work and skipping helps least",
    },
    WorkloadSpec {
        name: "mixed-read-write",
        why: "durable server: one writer keeps 8 mutations in flight while one reader serves the warm-reuse stream, so catalog maintenance, COW forks and fsync run beside reads",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The observed spread behind each bound is recorded in the README.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.20),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p95_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.20),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("algebra.instantiate_us", "us", Lower),
    layer("safety.first_check_ms", "ms", Lower),
    layer("safety.cached_lookup_us", "us", Lower),
    layer("safety.safe_template_share", "ratio", Higher),
    layer("tuning.estimate_us", "us", Lower),
    layer("tuning.use_sketch_share", "ratio", Higher),
    layer("tuning.plain_share", "ratio", Lower),
    layer("tuning.fallback_share", "ratio", Lower),
    layer("catalog.find_reusable_us", "us", Lower),
    layer("catalog.hit_ratio", "ratio", Higher),
    layer("catalog.memo_hit_ratio", "ratio", Higher),
    layer("catalog.stored_sketches", "count", Higher),
    layer("catalog.bytes", "B", Lower),
    layer("catalog.evictions", "count", Lower),
    layer("catalog.invalidated", "count", Lower),
    layer("catalog.extended", "count", Higher),
    layer("catalog.maintenance_deltas", "count", Lower),
    layer("reuse.check_us", "us", Lower),
    layer("reuse.accept_ratio", "ratio", Higher),
    layer("instrument.apply_us", "us", Lower),
    layer("exec.lower_us", "us", Lower),
    layer("exec.execute_ms", "ms", Lower),
    layer("exec.rows_scanned_per_query", "rows", Lower),
    layer("exec.rows_scanned_per_result_row", "ratio", Lower),
    layer("exec.blocks_skipped_ratio", "ratio", Higher),
    layer("exec.index_scan_share", "ratio", Higher),
    layer("exec.vectorized_scan_share", "ratio", Higher),
    layer("exec.agg_pushdown_blocks_per_query", "count", Higher),
    layer("exec.scan_time_share", "ratio", Lower),
    layer("exec.rows_output_per_query", "rows", Lower),
    layer("provenance.capture_ms", "ms", Lower),
    layer("provenance.capture_overhead_ratio", "ratio", Lower),
    layer("provenance.sketch_selectivity", "ratio", Lower),
    layer("provenance.sketch_bytes", "B", Lower),
    layer("server.serve_overhead_us", "us", Lower),
    layer("server.single_client_qps", "1/s", Higher),
    layer("server.scaling_efficiency", "ratio", Higher),
    layer("server.query_p99_ms", "ms", Lower),
    layer("server.captures_done", "count", Lower),
    layer("server.capture_p50_ms", "ms", Lower),
    layer("server.mutations_per_s", "1/s", Higher),
    layer("server.mutation_ack_p50_ms", "ms", Lower),
    layer("server.mutation_ack_p95_ms", "ms", Lower),
    layer("server.mutation_ack_p99_ms", "ms", Lower),
    layer("server.commit_batch_mean", "count", Higher),
    layer("server.reader_p95_stall_ratio", "ratio", Lower),
    layer("persist.recovery_s", "s", Lower),
    layer("persist.disk_bytes_per_user_byte", "ratio", Lower),
    layer("persist.wal_append_fsync_ms", "ms", Lower),
    layer("persist.fsyncs_per_mutation", "ratio", Lower),
    layer("persist.fsync_p99_ms", "ms", Lower),
    layer("persist.wal_bytes_per_user_byte", "ratio", Lower),
    layer("persist.snapshot_write_ms", "ms", Lower),
    layer("persist.snapshot_read_ms", "ms", Lower),
    layer("persist.wal_replay_ms", "ms", Lower),
    layer("persist.catalog_export_import_ms", "ms", Lower),
    layer("storage.fork_append_us", "us", Lower),
    layer("storage.delete_where_ms", "ms", Lower),
    layer("storage.derived_rebuild_ms", "ms", Lower),
    layer("workloads.generate_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
    layer("trace.box_speed", "ratio", Higher),
];

/// Seconds one run measures; `BENCHMARK.json` states the same number.
pub const RUN_SECONDS: u64 = 10;
