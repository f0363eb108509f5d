//! # pbds-provenance
//!
//! Provenance substrate for the PBDS reproduction:
//!
//! * [`lineage`] — Lineage capture (the ground-truth provenance model of
//!   Sec. 3.2), used as a reference implementation and for accuracy checks;
//! * [`bitset`] — fragment bitsets and the merge strategies compared by the
//!   capture-optimization experiment (Fig. 12);
//! * [`sketch`] — provenance sketches (Sec. 4): fragments selected from a
//!   range or composite partition, selectivity, sketch instances `D_P`;
//! * [`capture`] — sketch capture by query instrumentation (Sec. 7, rules
//!   r0–r7), always with the binary-search / delay / no-copy optimizations
//!   and min/max narrowing.

#![warn(missing_docs)]

pub mod bitset;
pub mod capture;
pub mod lineage;
pub mod sketch;

pub use bitset::{Annotation, FragmentBitset, MergeStrategy};
pub use capture::{
    capture_sketches, capture_sketches_with_profile, CaptureConfig, CaptureResult,
    FragmentAssigner, SketchTagPolicy,
};
pub use lineage::{
    capture_lineage, is_sufficient_subset, LineageResult, LineageTagPolicy, TupleSet,
};
pub use sketch::{restrict_database, ProvenanceSketch, SketchSet};

// Concurrency audit: sketches are stored in the shared `SketchCatalog` and
// cloned across serving threads; capture results cross the capture-worker
// channel. Both must stay `Send + Sync` (sketches hold only `Arc`s to
// immutable partitions and plain bitsets).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProvenanceSketch>();
    assert_send_sync::<FragmentBitset>();
    assert_send_sync::<CaptureResult>();
};
