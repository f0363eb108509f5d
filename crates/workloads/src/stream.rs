//! Zipf-parameterized query streams.
//!
//! The paper's middleware deployment (Sec. 6 / 9.5) serves a *stream* of
//! instances of parameterized queries where parameter values repeat with the
//! skew of real user traffic: a few popular parameter values account for
//! most of the stream, so a sketch captured for a popular binding is reused
//! many times. This module generates such streams: each template owns a
//! ranked pool of candidate bindings, and every stream event draws a
//! template uniformly and a binding rank from a [`Zipf`] distribution —
//! rank 1 (the most popular binding) dominates, the tail provides the
//! misses that keep capture work flowing.

use crate::dist::{normal, Zipf};
use pbds_algebra::QueryTemplate;
use pbds_storage::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a Zipf-parameterized query stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Number of query instances to generate.
    pub queries: usize,
    /// Zipf exponent over binding ranks (`0` = uniform, `≈1` = classic Zipf).
    pub skew: f64,
    /// RNG seed (streams are deterministic given the seed).
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            queries: 200,
            skew: 1.0,
            seed: 17,
        }
    }
}

/// A query template together with its ranked pool of candidate bindings
/// (index 0 = most popular).
#[derive(Debug, Clone)]
pub struct TemplatePool {
    /// The parameterized query.
    pub template: QueryTemplate,
    /// Candidate bindings ordered by popularity.
    pub bindings: Vec<Vec<Value>>,
}

impl TemplatePool {
    /// Create a pool.
    pub fn new(template: QueryTemplate, bindings: Vec<Vec<Value>>) -> Self {
        assert!(!bindings.is_empty(), "a template pool needs bindings");
        TemplatePool { template, bindings }
    }
}

/// Generate a Zipf-parameterized stream over the given template pools.
///
/// Each event picks a template uniformly at random and a binding from the
/// template's pool with Zipf-distributed rank, so popular bindings recur —
/// the reuse opportunity PBDS middleware exploits. The output is a
/// `(template, binding)` sequence ready for
/// `PbdsServer::serve_stream`.
pub fn zipf_stream(pools: &[TemplatePool], spec: &StreamSpec) -> Vec<(QueryTemplate, Vec<Value>)> {
    assert!(!pools.is_empty(), "zipf_stream needs at least one template");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let zipfs: Vec<Zipf> = pools
        .iter()
        .map(|p| Zipf::new(p.bindings.len(), spec.skew))
        .collect();
    (0..spec.queries)
        .map(|_| {
            let ti = rng.gen_range(0..pools.len());
            let rank = zipfs[ti].sample(&mut rng) - 1;
            (pools[ti].template.clone(), pools[ti].bindings[rank].clone())
        })
        .collect()
}

/// Build template pools for the Stack-Overflow end-to-end templates
/// ([`crate::sof::end_to_end_templates`]): each template gets `pool_size`
/// integer bindings drawn from the paper's normal parameter distribution
/// (mean 30, σ 4 — Sec. 9.5), deduplicated and kept in draw order so that
/// rank 1 is an "ordinary" parameter value rather than an extreme one.
pub fn sof_pools(pool_size: usize, seed: u64) -> Vec<TemplatePool> {
    let mut rng = StdRng::seed_from_u64(seed);
    crate::sof::end_to_end_templates()
        .into_iter()
        .map(|t| {
            let mut bindings: Vec<Vec<Value>> = Vec::with_capacity(pool_size);
            // The truncated normal only yields a few dozen distinct integers,
            // so cap the rejection sampling and top up deterministically —
            // a large `pool_size` must widen the pool, not hang the loop.
            let mut attempts = 0usize;
            while bindings.len() < pool_size && attempts < 50 * pool_size {
                attempts += 1;
                let v = normal(&mut rng, 30.0, 4.0).max(1.0) as i64;
                let b = vec![Value::Int(v)];
                if !bindings.contains(&b) {
                    bindings.push(b);
                }
            }
            let mut next = 1i64;
            while bindings.len() < pool_size {
                let b = vec![Value::Int(next)];
                if !bindings.contains(&b) {
                    bindings.push(b);
                }
                next += 1;
            }
            TemplatePool::new(t, bindings)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn stream_is_deterministic_given_seed() {
        let pools = sof_pools(8, 5);
        let spec = StreamSpec::default();
        let a = zipf_stream(&pools, &spec);
        let b = zipf_stream(&pools, &spec);
        assert_eq!(a.len(), spec.queries);
        for ((ta, ba), (tb, bb)) in a.iter().zip(&b) {
            assert_eq!(ta.name(), tb.name());
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn popular_bindings_dominate_a_skewed_stream() {
        let pools = sof_pools(16, 5);
        let stream = zipf_stream(
            &pools,
            &StreamSpec {
                queries: 2_000,
                skew: 1.2,
                seed: 9,
            },
        );
        // Count occurrences per (template, binding).
        let mut counts: HashMap<(String, String), usize> = HashMap::new();
        for (t, b) in &stream {
            *counts
                .entry((t.name().to_string(), format!("{b:?}")))
                .or_default() += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        // The head dominates the tail: the hottest binding appears far more
        // often than a fair share (2000 / (3 templates * 16 bindings) ≈ 42).
        assert!(by_count[0] > 100, "head count {}", by_count[0]);
        // And repetition is pervasive: far fewer distinct bindings than
        // stream events, i.e. plenty of reuse opportunities.
        assert!(counts.len() < stream.len() / 4);
    }

    #[test]
    fn uniform_skew_still_repeats_bindings() {
        let pools = sof_pools(4, 5);
        let stream = zipf_stream(
            &pools,
            &StreamSpec {
                queries: 400,
                skew: 0.0,
                seed: 3,
            },
        );
        let distinct: std::collections::HashSet<String> = stream
            .iter()
            .map(|(t, b)| format!("{}{b:?}", t.name()))
            .collect();
        assert!(distinct.len() <= 12); // 3 templates × 4 bindings
    }

    #[test]
    fn oversized_pools_terminate_with_distinct_bindings() {
        // More bindings than the truncated normal has distinct integers:
        // the generator must top up instead of looping forever.
        let pools = sof_pools(200, 7);
        for p in &pools {
            assert_eq!(p.bindings.len(), 200);
            let distinct: std::collections::HashSet<_> =
                p.bindings.iter().map(|b| format!("{b:?}")).collect();
            assert_eq!(distinct.len(), 200);
        }
    }

    #[test]
    #[should_panic(expected = "needs bindings")]
    fn empty_pool_panics() {
        TemplatePool::new(crate::sof::end_to_end_templates().remove(0), vec![]);
    }
}
