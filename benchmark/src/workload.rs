//! The five workloads: data, parameter pools, query stream and server
//! configuration, all derived from the run's seed. The library under test
//! receives only these generated inputs.

use pbds_core::algebra::QueryTemplate;
use pbds_core::storage::{Database, Value};
use pbds_core::{ServerConfig, Strategy};
use pbds_workloads::{crimes, sof, sof_pools, tpch, zipf_stream, StreamSpec, TemplatePool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WarmReuse,
    NoSketchScan,
    ColdCapture,
    JoinTopk,
    MixedReadWrite,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::WarmReuse,
        Kind::NoSketchScan,
        Kind::ColdCapture,
        Kind::JoinTopk,
        Kind::MixedReadWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmReuse => "warm-reuse",
            Kind::NoSketchScan => "no-sketch-scan",
            Kind::ColdCapture => "cold-capture",
            Kind::JoinTopk => "join-topk",
            Kind::MixedReadWrite => "mixed-read-write",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The server persists to a directory and a writer runs beside the reader.
    pub fn writes(self) -> bool {
        self == Kind::MixedReadWrite
    }
}

/// Dataset scale. `Tiny` exists for the benchmark's own tests only; every
/// reported number is measured at `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Scale {
    fn rows(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tiny => (full / 10).max(1),
        }
    }
}

/// Instances in a generated stream. Clients walk the stream cyclically, so
/// its length bounds the period of the traffic, not the length of a run.
pub const STREAM_LEN: usize = 4096;

/// Bindings per template pool and Zipf skew over their ranks.
const SOF_POOL: usize = 12;
const SOF_SKEW: f64 = 1.1;
const CRIMES_POOL: usize = 48;
const CRIMES_SKEW: f64 = 0.6;
const TPCH_POOL: usize = 8;
const TPCH_SKEW: f64 = 1.1;

/// Catalog byte budget of `cold-capture`: half of what the same stream
/// stores with an unbounded catalog (measured once at seed 1, see README).
pub const COLD_CAPTURE_BYTE_BUDGET: usize = 2_700;

/// The parameter pools are part of a workload's definition (which parameter
/// values are popular), so their seed is fixed; the run's seed drives the
/// data and the order and mix of the stream.
const POOL_SEED: u64 = 5;

pub type Stream = Vec<(QueryTemplate, Vec<Value>)>;

pub struct Inputs {
    pub db: Database,
    pub pools: Vec<TemplatePool>,
    pub stream: Stream,
    pub config: ServerConfig,
    /// Byte budget of the sketch catalog; `None` is unbounded.
    pub catalog_budget: Option<usize>,
    /// Serve every pool binding once (and drain captures) before timing.
    pub warm: bool,
}

pub fn generate(kind: Kind, seed: u64, scale: Scale) -> Inputs {
    let eager = ServerConfig::default();
    let (db, pools, skew, config, catalog_budget, warm) = match kind {
        Kind::WarmReuse | Kind::MixedReadWrite => (
            sof_db(seed, scale),
            sof_pools(SOF_POOL, POOL_SEED),
            SOF_SKEW,
            eager,
            None,
            true,
        ),
        Kind::NoSketchScan => {
            let config = ServerConfig {
                strategy: Strategy::NoPbds,
                ..eager
            };
            (
                sof_db(seed, scale),
                sof_pools(SOF_POOL, POOL_SEED),
                SOF_SKEW,
                config,
                None,
                true,
            )
        }
        Kind::ColdCapture => (
            crimes_db(seed, scale),
            crimes_pools(scale),
            CRIMES_SKEW,
            eager,
            Some(COLD_CAPTURE_BYTE_BUDGET),
            false,
        ),
        Kind::JoinTopk => (
            tpch_db(seed, scale),
            tpch_pools(),
            TPCH_SKEW,
            eager,
            None,
            true,
        ),
    };
    let stream = zipf_stream(
        &pools,
        &StreamSpec {
            queries: STREAM_LEN,
            skew,
            seed: seed ^ 0x5eed_57ea,
        },
    );
    Inputs {
        db,
        pools,
        stream,
        config,
        catalog_budget,
        warm,
    }
}

/// `datasets::sof_db()` scale of the repository's figure benches.
fn sof_db(seed: u64, scale: Scale) -> Database {
    sof::generate(&sof::SofConfig {
        users: scale.rows(10_000),
        posts: scale.rows(60_000),
        comments: scale.rows(80_000),
        badges: scale.rows(30_000),
        seed,
        ..Default::default()
    })
}

/// `datasets::crimes_db()` scale.
fn crimes_db(seed: u64, scale: Scale) -> Database {
    crimes::generate(&crimes::CrimesConfig {
        rows: scale.rows(60_000),
        seed,
        ..Default::default()
    })
}

/// `datasets::tpch(TpchScale::Large)` scale.
fn tpch_db(seed: u64, scale: Scale) -> Database {
    tpch::generate(&tpch::TpchConfig {
        scale: match scale {
            Scale::Full => 0.016,
            Scale::Tiny => 0.002,
        },
        seed,
        block_size: 256,
    })
}

/// Pools for the four `crimes::end_to_end_templates()`. Thresholds scale
/// with the row count so that the tiny test scale still returns rows.
fn crimes_pools(scale: Scale) -> Vec<TemplatePool> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let rows = scale.rows(60_000) as i64;
    let distinct = |rng: &mut StdRng, draw: &dyn Fn(&mut StdRng) -> Vec<Value>| {
        let mut bindings: Vec<Vec<Value>> = Vec::with_capacity(CRIMES_POOL);
        while bindings.len() < CRIMES_POOL {
            let b = draw(rng);
            if !bindings.contains(&b) {
                bindings.push(b);
            }
        }
        bindings
    };
    let int = Value::Int;
    // Wide enough for a pool of distinct values even at the tiny test scale.
    let span = |lo: i64, hi: i64| lo..hi.max(lo + 2 * CRIMES_POOL as i64);
    let templates = crimes::end_to_end_templates();
    let pools: Vec<Vec<Vec<Value>>> = vec![
        // Areas with more than $0 crimes: the busiest of 77 areas holds
        // about a fifth of the rows, the median one under one percent.
        distinct(&mut rng, &|r| {
            vec![int(r.gen_range(span(rows / 400, rows / 12)))]
        }),
        // Blocks with more than $0 crimes (3080 blocks).
        distinct(&mut rng, &|r| {
            vec![int(r.gen_range(span(rows / 6000, rows / 250)))]
        }),
        // Blocks with more than $0 crimes of kinds in [$1, $2).
        distinct(&mut rng, &|r| {
            let lo = r.gen_range(0..24);
            vec![
                int(r.gen_range(rows / 20_000..rows / 1000)),
                int(lo),
                int(lo + r.gen_range(3..8)),
            ]
        }),
        // Areas with more than $0 arrests since year $1: years are uniform
        // over 2001..=2020, so a start year up to 2005 keeps over three
        // quarters of the rows and the selectivity gate sends it down the
        // plain path.
        distinct(&mut rng, &|r| {
            vec![
                int(r.gen_range(rows / 1200..rows / 60)),
                int(r.gen_range(2001..2021)),
            ]
        }),
    ];
    templates
        .into_iter()
        .zip(pools)
        .map(|(t, b)| TemplatePool::new(t, b))
        .collect()
}

/// Pools for the TPC-H Q3 / Q5 / Q10 / Q18 analogues, varied over market
/// segment, order-date window and quantity bound.
fn tpch_pools() -> Vec<TemplatePool> {
    let int = Value::Int;
    let query = |name: &str| {
        tpch::queries()
            .into_iter()
            .find(|q| q.name == name)
            .unwrap_or_else(|| panic!("tpch::queries() has no {name}"))
            .template
    };
    let pool = |name: &str, bindings: Vec<Vec<Value>>| TemplatePool::new(query(name), bindings);
    vec![
        pool("Q3", (0..5).map(|segment| vec![int(segment)]).collect()),
        pool(
            "Q5",
            (0..TPCH_POOL as i64)
                .map(|i| vec![int(i * 270), int(i * 270 + 365)])
                .collect(),
        ),
        pool(
            "Q10",
            (0..TPCH_POOL as i64)
                .map(|i| vec![int(200 + i * 290), int(290 + i * 290)])
                .collect(),
        ),
        pool(
            "Q18",
            (0..TPCH_POOL as i64)
                .map(|i| vec![int(170 + i * 10)])
                .collect(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        for kind in Kind::ALL {
            let a = generate(kind, 11, Scale::Tiny);
            let b = generate(kind, 11, Scale::Tiny);
            let c = generate(kind, 12, Scale::Tiny);
            assert_eq!(a.stream.len(), STREAM_LEN);
            let key = |inputs: &Inputs| -> Vec<(String, Vec<Value>)> {
                inputs
                    .stream
                    .iter()
                    .map(|(t, b)| (t.name().to_string(), b.clone()))
                    .collect()
            };
            assert_eq!(key(&a), key(&b), "{}", kind.name());
            assert_ne!(key(&a), key(&c), "{}", kind.name());
            for name in a.db.table_names() {
                let rows = |inputs: &Inputs| inputs.db.table(name).unwrap().rows().to_vec();
                assert_eq!(rows(&a), rows(&b), "{} {name}", kind.name());
            }
        }
    }

    #[test]
    fn warm_and_bypass_workloads_share_data_and_stream() {
        let warm = generate(Kind::WarmReuse, 3, Scale::Tiny);
        let bypass = generate(Kind::NoSketchScan, 3, Scale::Tiny);
        assert_eq!(bypass.config.strategy, Strategy::NoPbds);
        assert_eq!(warm.stream.len(), bypass.stream.len());
        for ((ta, ba), (tb, bb)) in warm.stream.iter().zip(&bypass.stream) {
            assert_eq!((ta.name(), ba), (tb.name(), bb));
        }
        assert_eq!(
            warm.db.table("posts").unwrap().rows(),
            bypass.db.table("posts").unwrap().rows()
        );
    }

    #[test]
    fn names_round_trip_and_match_the_declared_workloads() {
        let declared: Vec<&str> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(declared, kinds);
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }
}
