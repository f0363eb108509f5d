//! Span-based tracing: phase guards, per-thread ring buffers, and a bounded
//! global event journal.
//!
//! The same dual-implementation pattern as `pbds-sync` lock tracking: with
//! `debug_assertions` or `--features telemetry` the tracer is armed — a
//! [`SpanGuard`] stamps its start offset at creation and records one
//! [`SpanEvent`] on drop, into both the dropping thread's bounded ring
//! buffer and the process-wide journal (oldest events evicted first). In a
//! plain release build every function here compiles to a no-op and
//! [`SpanGuard`] is a zero-sized unit, so instrumented call sites cost
//! nothing — the acceptance bar the `pbds-sync` passthrough set.
//!
//! The journal is the forensic record: when a server fail-stops it renders
//! the journal (via [`render_journal`]) into its `RecoveryReport`-style
//! diagnostics, showing the last phases every thread went through before
//! the health lattice hit bottom.

/// One recorded span: a named phase with its start offset (nanoseconds since
/// the process telemetry epoch) and wall duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Phase name given to [`span`](crate::span()).
    pub name: &'static str,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Nanoseconds from the telemetry epoch to span start.
    pub start_ns: u64,
    /// Span wall duration in nanoseconds.
    pub dur_ns: u64,
}

#[cfg(any(debug_assertions, feature = "telemetry"))]
#[expect(
    clippy::disallowed_types,
    reason = "pbds-telemetry sits below pbds-sync, so the journal keeps a std mutex"
)]
#[deny(clippy::unwrap_used, clippy::expect_used)]
mod imp {
    use super::SpanEvent;
    use crate::clock;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Per-thread ring capacity.
    const THREAD_RING_CAP: usize = 256;
    /// Global journal capacity (bounded: forensics keep the recent tail).
    const JOURNAL_CAP: usize = 1024;

    fn journal_store() -> &'static Mutex<VecDeque<SpanEvent>> {
        static JOURNAL: OnceLock<Mutex<VecDeque<SpanEvent>>> = OnceLock::new();
        JOURNAL.get_or_init(|| Mutex::new(VecDeque::with_capacity(JOURNAL_CAP)))
    }

    fn thread_id() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        thread_local! {
            static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        ID.with(|id| *id)
    }

    thread_local! {
        static RING: RefCell<VecDeque<SpanEvent>> =
            RefCell::new(VecDeque::with_capacity(THREAD_RING_CAP));
    }

    /// Whether span recording is armed in this build.
    pub fn spans_enabled() -> bool {
        true
    }

    /// An open span; records one [`SpanEvent`] when dropped.
    #[must_use = "a span guard records on drop; binding it to `_` drops immediately"]
    pub struct SpanGuard {
        name: &'static str,
        start_ns: u64,
        sw: clock::Stopwatch,
    }

    /// Open a span for `name`.
    #[inline]
    pub fn span(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            start_ns: clock::nanos_since_start(),
            sw: clock::Stopwatch::start(),
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let event = SpanEvent {
                name: self.name,
                thread: thread_id(),
                start_ns: self.start_ns,
                dur_ns: self.sw.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            };
            // Thread ring (bounded, oldest out).
            let _ = RING.try_with(|ring| {
                let mut ring = ring.borrow_mut();
                if ring.len() == THREAD_RING_CAP {
                    ring.pop_front();
                }
                ring.push_back(event);
            });
            // Global journal (bounded, oldest out).
            let mut journal = journal_store()
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if journal.len() == JOURNAL_CAP {
                journal.pop_front();
            }
            journal.push_back(event);
        }
    }

    /// Drain the calling thread's span ring (oldest first).
    pub fn take_thread_events() -> Vec<SpanEvent> {
        RING.try_with(|ring| ring.borrow_mut().drain(..).collect())
            .unwrap_or_default()
    }

    /// The current global journal contents, oldest first.
    pub fn journal() -> Vec<SpanEvent> {
        journal_store()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }
}

#[cfg(not(any(debug_assertions, feature = "telemetry")))]
mod imp {
    use super::SpanEvent;

    /// Whether span recording is armed in this build.
    pub fn spans_enabled() -> bool {
        false
    }

    /// Zero-sized no-op span guard (tracing disarmed in this build).
    #[must_use = "a span guard records on drop; binding it to `_` drops immediately"]
    pub struct SpanGuard;

    /// Open a span for `name` (no-op in this build).
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// Drain the calling thread's span ring (always empty in this build).
    pub fn take_thread_events() -> Vec<SpanEvent> {
        Vec::new()
    }

    /// The current global journal contents (always empty in this build).
    pub fn journal() -> Vec<SpanEvent> {
        Vec::new()
    }
}

pub use imp::{journal, span, spans_enabled, take_thread_events, SpanGuard};

/// Render the event journal as human-readable forensics, oldest first —
/// the block a fail-stopping server embeds in its diagnostics. Empty string
/// when tracing is disarmed or nothing was recorded.
pub fn render_journal() -> String {
    let events = journal();
    let mut out = String::new();
    for e in &events {
        out.push_str(&format!(
            "t=+{:>12.6}ms th{:<3} {:<24} {:>10.3}us\n",
            e.start_ns as f64 / 1e6,
            e.thread,
            e.name,
            e.dur_ns as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether this build compiled the armed tracer: debug builds and
    /// `--features telemetry` do, a plain `--release` build does not. Each
    /// test checks the branch its build compiled.
    const ARMED: bool = cfg!(any(debug_assertions, feature = "telemetry"));

    #[test]
    fn spans_record_into_ring_and_journal() {
        assert_eq!(spans_enabled(), ARMED);
        let _ = take_thread_events(); // isolate from other tests on this thread
        {
            let _g = crate::span!("unit-phase");
        }
        let mine = take_thread_events();
        let rendered = render_journal();
        if ARMED {
            assert!(mine.iter().any(|e| e.name == "unit-phase"), "{mine:?}");
            assert!(journal().iter().any(|e| e.name == "unit-phase"));
            assert!(rendered.contains("unit-phase"), "{rendered}");
        } else {
            assert!(mine.is_empty(), "{mine:?}");
            assert!(journal().is_empty());
            assert!(rendered.is_empty(), "{rendered}");
        }
    }

    #[test]
    fn nested_spans_close_inner_first() {
        let _ = take_thread_events();
        {
            let _outer = span("outer-phase");
            let _inner = span("inner-phase");
        }
        let events = take_thread_events();
        if !ARMED {
            assert!(events.is_empty(), "{events:?}");
            return;
        }
        let inner = events.iter().position(|e| e.name == "inner-phase");
        let outer = events.iter().position(|e| e.name == "outer-phase");
        assert!(
            inner.is_some() && inner < outer,
            "inner span must record before outer: {events:?}"
        );
    }

    #[test]
    fn thread_rings_are_bounded() {
        let _ = take_thread_events();
        for _ in 0..1000 {
            let _g = span("bounded-phase");
        }
        assert!(take_thread_events().len() <= 256);
        assert!(journal().len() <= 1024);
    }
}
