//! # pbds-telemetry
//!
//! The observability seam of the PBDS workspace: every other crate reports
//! *through* this one instead of growing its own ad-hoc counters.
//!
//! Three layers, bottom-up:
//!
//! * [`clock`] — the **one** place library code may read wall-clock time.
//!   The workspace `clippy.toml` disallows `Instant::now` / `SystemTime::now`
//!   everywhere else, so tests and future deterministic-replay work have a
//!   single seam to virtualize.
//! * [`metrics`] / [`hist`] — a registry of named [`Counter`]s, [`Gauge`]s
//!   and log-linear (HDR-style) [`Histogram`]s. The hot path is lock-free
//!   atomics (the registry mutex is touched only at registration);
//!   [`Registry::snapshot`] produces a deterministic [`MetricsSnapshot`]
//!   renderable to Prometheus-style text exposition via a `String`-returning
//!   API (library crates do not print).
//! * [`span`](crate::span()) / [`span!`] — a span tracer recording
//!   start/duration events into per-thread ring buffers and a bounded global
//!   event journal. Compiled to zero-cost no-ops unless `debug_assertions`
//!   or `--features telemetry` (the same dual-implementation pattern as
//!   `pbds-sync` lock tracking); the journal is dumped into
//!   `RecoveryReport`-style forensics when a server fail-stops.
//!
//! The crate has **no dependencies** — it sits at the bottom of the
//! workspace graph so `pbds-sync`, `pbds-exec`, `pbds-core`, `pbds-persist`
//! and the benches can all report through it.

#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod metrics;
mod spans;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge, MetricsSnapshot, Registry};
pub use spans::{
    journal, render_journal, span, spans_enabled, take_thread_events, SpanEvent, SpanGuard,
};

/// Open a span guard for `phase`: records one [`SpanEvent`] (start + wall
/// duration) when the guard drops. Compiled to a no-op unit guard unless
/// `debug_assertions` or `--features telemetry`.
///
/// ```
/// let _g = pbds_telemetry::span!("reuse-check");
/// // ... the phase ...
/// // guard drop records the span (when tracing is armed)
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
