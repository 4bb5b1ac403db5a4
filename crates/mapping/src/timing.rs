//! Opt-in floorplan phase timing for long-running callers.
//!
//! The serve daemon attributes request latency to phases (route-table
//! build, swap search, floorplan, probe). The first two and the probe
//! are timed at their call sites, but floorplanning happens deep inside
//! the evaluation hot loop — thousands of calls per request, spread
//! over the sweep's worker threads — so it is accumulated here in a
//! process-global counter instead of threading a collector through
//! every evaluation signature.
//!
//! What is timed: in the evaluation engine, filling the layout template
//! with a candidate's core slots plus the geometry-only grid solve; in
//! the reference `evaluate`, the named floorplan solve. The engine's
//! bounded swap-search evaluation floorplans a candidate only when a
//! bound needs the geometry before routing or once the candidate has
//! survived routing, so candidates the bounds abandon mid-routing are
//! never floorplanned and add nothing here.
//!
//! Disabled (the default), the cost at each floorplan call is a single
//! relaxed atomic load. Enabled, each call adds its wall-clock
//! nanoseconds to the global accumulator; [`take_floorplan_nanos`]
//! drains it. With several requests in flight the accumulator holds
//! their *combined* floorplan time — attribution is per process, not
//! per request, which is exactly the granularity the daemon's metrics
//! histograms report.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static FLOORPLAN_NANOS: AtomicU64 = AtomicU64::new(0);

/// Turns floorplan timing on or off for the whole process.
pub fn set_floorplan_timing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drains the accumulated floorplan nanoseconds (resets to zero).
pub fn take_floorplan_nanos() -> u64 {
    FLOORPLAN_NANOS.swap(0, Ordering::Relaxed)
}

/// Starts one floorplan measurement; `None` when timing is off.
#[inline]
pub(crate) fn floorplan_start() -> Option<Instant> {
    if ENABLED.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Finishes the measurement begun by [`floorplan_start`].
#[inline]
pub(crate) fn floorplan_finish(start: Option<Instant>) {
    if let Some(t) = start {
        let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        FLOORPLAN_NANOS.fetch_add(nanos, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timing_accumulates_nothing() {
        // Tests in this binary run concurrently, but nothing else in
        // the mapping crate's unit tests enables timing, so the
        // accumulator only moves inside this test.
        set_floorplan_timing(false);
        take_floorplan_nanos();
        floorplan_finish(floorplan_start());
        assert_eq!(take_floorplan_nanos(), 0);
        set_floorplan_timing(true);
        let start = floorplan_start();
        assert!(start.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        floorplan_finish(start);
        set_floorplan_timing(false);
        assert!(take_floorplan_nanos() > 0);
        assert_eq!(take_floorplan_nanos(), 0);
    }
}
