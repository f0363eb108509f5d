//! The fail-safe health lattice: the [`HealthState`] enum, the [`Health`]
//! atom whose only mutators are [`Health::escalate`] and [`Health::settle`],
//! and the server's `degrade` / `settle_health` transitions. Repair
//! campaigns run on the commit thread (`commit.rs`).
//!
//! The atom is a private field of this module's newtype, so the rest of the
//! server (its parent module and the commit pipeline) can read the health
//! state and move it through these two operations, but cannot write it.

use super::ServerShared;
use crate::pbds::PbdsError;
use std::sync::atomic::{AtomicU8, Ordering};

/// Fail-safe degradation state of a [`PbdsServer`](super::PbdsServer).
/// Health only ever escalates (`fetch_max` on the shared atom) while a
/// failure is being handled, and is settled back down only after a
/// *successful* repair — never optimistically. The lattice:
///
/// * [`HealthState::Healthy`] — full service.
/// * [`HealthState::Degraded`] — full service, but a non-critical component
///   failed (a checkpoint failed and will be retried; background capture was
///   disabled after repeated panics). Acknowledged writes are still durable
///   (the WAL holds them); the degradation costs recovery time, not data.
/// * [`HealthState::ReadOnly`] — a WAL append or fsync failed, so new writes
///   can no longer be made durable before acknowledgement. Writes are
///   refused fast with [`PbdsError::ReadOnly`]; reads keep serving from the
///   consistent in-memory state. The commit thread retries repair with
///   backoff.
/// * [`HealthState::FailStop`] — repair was exhausted from read-only.
///   Terminal: reads and writes are both refused.
///
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Full service.
    Healthy,
    /// Serving fully, but a non-critical durability component is impaired.
    Degraded,
    /// Writes refused (durability cannot be guaranteed); reads keep serving.
    ReadOnly,
    /// Terminal: repair exhausted, reads and writes both refused.
    FailStop,
}

impl HealthState {
    /// The error writes are refused with in this state, if any.
    pub(super) fn write_refusal(self) -> Option<PbdsError> {
        match self {
            HealthState::Healthy | HealthState::Degraded => None,
            HealthState::ReadOnly => Some(PbdsError::ReadOnly),
            HealthState::FailStop => Some(PbdsError::FailStop),
        }
    }

    fn from_u8(v: u8) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::ReadOnly,
            _ => HealthState::FailStop,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::ReadOnly => write!(f, "read-only"),
            HealthState::FailStop => write!(f, "fail-stop"),
        }
    }
}

/// The server's current [`HealthState`], stored as its `u8` discriminant.
pub(super) struct Health(AtomicU8);

impl Health {
    pub(super) fn new() -> Health {
        Health(AtomicU8::new(HealthState::Healthy as u8))
    }

    pub(super) fn get(&self) -> HealthState {
        HealthState::from_u8(self.0.load(Ordering::SeqCst))
    }

    /// Raise health to at least `to` and return the state it had before.
    /// A `fetch_max`, so health never improves under a race.
    fn escalate(&self, to: HealthState) -> HealthState {
        HealthState::from_u8(self.0.fetch_max(to as u8, Ordering::SeqCst))
    }

    /// Lower health after a successful repair: to `Degraded` while capture
    /// stays disabled, else `Healthy`. Never raises, and never leaves
    /// `FailStop`. Returns `(from, to)` when the state moved.
    fn settle(&self, capture_disabled: bool) -> Option<(HealthState, HealthState)> {
        let target = if capture_disabled {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        loop {
            let cur = self.get();
            if cur == HealthState::FailStop || cur <= target {
                return None;
            }
            if self
                .0
                .compare_exchange(cur as u8, target as u8, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some((cur, target));
            }
        }
    }
}

impl ServerShared {
    /// Current health state.
    pub(super) fn health(&self) -> HealthState {
        self.health.get()
    }

    /// Escalate health to at least `to` (never downward) and log why.
    /// Transitions taken on the write path run on the commit thread, so a
    /// batch can never commit concurrently with the degradation it should
    /// have observed.
    pub(super) fn degrade(&self, to: HealthState, why: String) {
        let prev = self.health.escalate(to);
        if prev < to {
            self.note(format!("health {prev} -> {to}: {why}"));
            if to == HealthState::FailStop {
                // Terminal transition: freeze the span-tracer journal as
                // forensics — the last phases every thread went through
                // before the server stopped (RecoveryReport-style, but for
                // the failure instead of the restart).
                let mut forensics = self.failstop_forensics.lock();
                if forensics.is_none() {
                    *forensics = Some(pbds_telemetry::render_journal());
                }
            }
        } else {
            self.note(why);
        }
    }

    /// Settle health back down after a *successful* repair or checkpoint
    /// (see [`Health::settle`]). Only the commit thread calls this, between
    /// batches, so the write path observes the restored state consistently.
    pub(super) fn settle_health(&self) {
        let capture_disabled = self.capture_disabled.load(Ordering::SeqCst);
        if let Some((from, to)) = self.health.settle(capture_disabled) {
            self.note(format!("health {from} -> {to}: repair succeeded"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use HealthState::{Degraded, FailStop, Healthy, ReadOnly};

    const LATTICE: [HealthState; 4] = [Healthy, Degraded, ReadOnly, FailStop];

    fn health_at(state: HealthState) -> Health {
        let health = Health::new();
        health.escalate(state);
        health
    }

    #[test]
    fn escalate_leaves_the_maximum_and_reports_the_previous_state() {
        for from in LATTICE {
            for to in LATTICE {
                let health = health_at(from);
                assert_eq!(health.escalate(to), from, "{from} -> {to}");
                assert_eq!(health.get(), from.max(to), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn settle_lowers_to_the_capture_floor_and_never_leaves_fail_stop() {
        for from in LATTICE {
            for capture_disabled in [false, true] {
                let floor = if capture_disabled { Degraded } else { Healthy };
                let health = health_at(from);
                let moved = health.settle(capture_disabled);
                let after = health.get();
                assert!(after <= from, "settle raised {from} to {after}");
                if from == FailStop || from <= floor {
                    assert_eq!((moved, after), (None, from));
                } else {
                    assert_eq!((moved, after), (Some((from, floor)), floor));
                }
            }
        }
    }

    #[test]
    fn a_settle_racing_an_escalation_to_fail_stop_ends_at_fail_stop() {
        for from in [Degraded, ReadOnly] {
            for _ in 0..200 {
                let health = health_at(from);
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        start.wait();
                        health.settle(false);
                    });
                    s.spawn(|| {
                        start.wait();
                        health.escalate(FailStop);
                    });
                });
                assert_eq!(
                    health.get(),
                    FailStop,
                    "settled below fail-stop from {from}"
                );
            }
        }
    }
}
