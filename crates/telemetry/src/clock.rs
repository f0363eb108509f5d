//! The workspace clock seam.
//!
//! All wall-clock reads in PBDS library crates go through these functions —
//! the workspace `clippy.toml` disallows `Instant::now` / `SystemTime::now`
//! anywhere else. Centralizing the reads keeps timing observable (span and histogram
//! recording share the same time base) and leaves one seam to virtualize if
//! deterministic replay ever needs a mock clock.

use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime};

/// Monotonic "now". The only sanctioned `Instant::now` in library code.
#[inline]
#[expect(clippy::disallowed_methods, reason = "this is the clock seam")]
pub fn now() -> Instant {
    Instant::now()
}

/// Wall-clock "now". The only sanctioned `SystemTime::now` in library code.
#[inline]
#[expect(clippy::disallowed_methods, reason = "this is the clock seam")]
pub fn system_now() -> SystemTime {
    SystemTime::now()
}

/// A started stopwatch; sugar over [`now`] for elapsed-time measurements.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start measuring.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch { start: now() }
    }

    /// Time since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// The process-wide time origin: the first call wins, every span timestamp
/// is an offset from it, so events from different threads order coherently.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(now)
}

/// Nanoseconds since the process telemetry epoch (saturating at `u64::MAX`).
pub fn nanos_since_start() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(sw.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn nanos_since_start_is_monotone() {
        let a = nanos_since_start();
        let b = nanos_since_start();
        assert!(b >= a);
    }
}
