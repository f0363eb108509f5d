//! Execution statistics.
//!
//! Wall-clock times vary across machines, so besides elapsed time the engine
//! reports deterministic counters — rows scanned, zone-map blocks skipped,
//! index probes — that serve as a machine-independent proxy for the I/O the
//! paper's data-skipping saves.

use std::time::Duration;

/// Counters collected while executing one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Rows read from base tables (after data skipping).
    pub rows_scanned: u64,
    /// Rows produced by the root operator.
    pub rows_output: u64,
    /// Zone-map blocks skipped thanks to range predicates.
    pub blocks_skipped: u64,
    /// Zone-map blocks considered in total.
    pub blocks_total: u64,
    /// Number of scans answered through an ordered index.
    pub index_scans: u64,
    /// Number of full table scans.
    pub full_scans: u64,
    /// Number of zone-map skip scans. Every resolved scan counts in exactly
    /// one of `full_scans`, `index_scans` and `zone_map_scans`.
    pub zone_map_scans: u64,
    /// Hash-join build scans narrowed to the keys of their probe side.
    pub join_key_filters: u64,
    /// Intermediate rows processed by joins/aggregates (a coarse work proxy).
    pub intermediate_rows: u64,
    /// Batches emitted by the root of the physical operator pipeline.
    pub batches: u64,
    /// Scans on the vectorized chunk kernels: every scan with a pushed-down
    /// filter, and every index probe.
    pub vectorized_scans: u64,
    /// Chunk pieces whose filter the kernels evaluated into selection
    /// bitmaps.
    pub vectorized_blocks: u64,
    /// Vectorized blocks whose chunk carried at least one compressed
    /// (bit-packed) column.
    pub encoded_blocks: u64,
    /// Conjuncts that fell back to row-at-a-time evaluation over a block
    /// with compressed columns (no encoded kernel applied).
    pub encoded_kernel_fallbacks: u64,
    /// Columnar blocks aggregated directly over the selection bitmap by the
    /// scan→aggregate pushdown, skipping row materialization.
    pub agg_pushdown_blocks: u64,
    /// `(limit, input_rows)` per top-k operator, used to re-validate sketch
    /// safety at runtime (footnote 1, Sec. 5 of the paper).
    pub topk_inputs: Vec<(usize, u64)>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl ExecStats {
    /// Upper bound on the `topk_inputs` vector after a merge; see
    /// [`ExecStats::merge`].
    pub const TOPK_INPUTS_CAP: usize = 32;

    /// Merge another stats record into this one (used when the self-tuning
    /// framework accumulates per-workload totals). The two executions
    /// happened one after the other, so counters and wall-clock times add up.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_output += other.rows_output;
        self.blocks_skipped += other.blocks_skipped;
        self.blocks_total += other.blocks_total;
        self.index_scans += other.index_scans;
        self.full_scans += other.full_scans;
        self.zone_map_scans += other.zone_map_scans;
        self.join_key_filters += other.join_key_filters;
        self.intermediate_rows = self
            .intermediate_rows
            .saturating_add(other.intermediate_rows);
        self.batches += other.batches;
        self.vectorized_scans += other.vectorized_scans;
        self.vectorized_blocks += other.vectorized_blocks;
        self.encoded_blocks += other.encoded_blocks;
        self.encoded_kernel_fallbacks += other.encoded_kernel_fallbacks;
        self.agg_pushdown_blocks += other.agg_pushdown_blocks;
        self.merge_topk_bounded(other);
        self.elapsed += other.elapsed;
    }

    /// Accumulate `topk_inputs`, bounded at [`ExecStats::TOPK_INPUTS_CAP`]
    /// entries. When the cap is exceeded, the entries with the smallest
    /// `input / limit` slack are kept: those are the only ones that can make
    /// [`ExecStats::topk_safety_revalidated`] fail, so dropping the
    /// comfortable ones never turns a failing re-validation into a passing
    /// one, and long accumulation loops cannot grow the vector without limit.
    fn merge_topk_bounded(&mut self, other: &ExecStats) {
        self.topk_inputs.extend(other.topk_inputs.iter().cloned());
        if self.topk_inputs.len() > Self::TOPK_INPUTS_CAP {
            let slack = |&(limit, input): &(usize, u64)| input as f64 / (limit.max(1) as f64);
            self.topk_inputs
                .sort_by(|a, b| slack(a).total_cmp(&slack(b)));
            self.topk_inputs.truncate(Self::TOPK_INPUTS_CAP);
        }
    }

    /// True if every top-k operator saw at least as many input rows as its
    /// limit — the condition under which the static safety check remains
    /// valid for top-k queries.
    pub fn topk_safety_revalidated(&self) -> bool {
        self.topk_inputs
            .iter()
            .all(|(limit, input)| *input >= *limit as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_counters() {
        let mut a = ExecStats {
            rows_scanned: 10,
            blocks_skipped: 1,
            blocks_total: 4,
            topk_inputs: vec![(5, 20)],
            ..Default::default()
        };
        let b = ExecStats {
            rows_scanned: 5,
            blocks_skipped: 3,
            blocks_total: 4,
            topk_inputs: vec![(10, 3)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 15);
        assert_eq!(a.blocks_skipped, 4);
        assert_eq!(a.topk_inputs.len(), 2);
        assert!(!a.topk_safety_revalidated());
    }

    #[test]
    fn merge_sums_block_counters_and_elapsed() {
        let mut a = ExecStats {
            rows_scanned: 10,
            zone_map_scans: 1,
            join_key_filters: 2,
            encoded_blocks: 2,
            encoded_kernel_fallbacks: 1,
            agg_pushdown_blocks: 3,
            elapsed: Duration::from_millis(30),
            ..Default::default()
        };
        let b = ExecStats {
            rows_scanned: 5,
            zone_map_scans: 3,
            join_key_filters: 1,
            encoded_blocks: 4,
            encoded_kernel_fallbacks: 2,
            agg_pushdown_blocks: 5,
            elapsed: Duration::from_millis(50),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 15);
        assert_eq!((a.zone_map_scans, a.join_key_filters), (4, 3));
        assert_eq!(a.encoded_blocks, 6);
        assert_eq!(a.encoded_kernel_fallbacks, 3);
        assert_eq!(a.agg_pushdown_blocks, 8);
        assert_eq!(a.elapsed, Duration::from_millis(80));
    }

    #[test]
    fn sequential_merge_bounds_topk_inputs_like_parallel_merge() {
        // Regression: plain merge used to extend `topk_inputs` unbounded, so
        // a self-tuning loop accumulating per-workload totals over thousands
        // of top-k queries grew the vector without limit.
        let mut seq = ExecStats::default();
        for _ in 0..10 {
            let mut one = ExecStats::default();
            one.topk_inputs.push((10, 3)); // failing entry every round
            for _ in 0..ExecStats::TOPK_INPUTS_CAP {
                one.topk_inputs.push((5, 1_000));
            }
            seq.merge(&one);
        }
        assert!(
            seq.topk_inputs.len() <= ExecStats::TOPK_INPUTS_CAP,
            "sequential merge must bound topk_inputs: {}",
            seq.topk_inputs.len()
        );
        // Truncation keeps the smallest-slack entries, so the failing ones
        // survive and re-validation still (correctly) fails.
        assert!(!seq.topk_safety_revalidated());
        assert!(seq.topk_inputs.contains(&(10, 3)));
    }

    #[test]
    fn topk_revalidation_passes_when_inputs_large_enough() {
        let s = ExecStats {
            topk_inputs: vec![(10, 10), (5, 100)],
            ..Default::default()
        };
        assert!(s.topk_safety_revalidated());
    }
}
