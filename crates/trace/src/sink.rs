//! The global trace sink: the zero-cost-when-disabled hook that lets
//! the simulator and algorithm crates emit events without threading a
//! tracer handle through every signature.
//!
//! The tracer lives in an [`ecl_profiling::Hook`]: when tracing is off
//! every emission site costs one relaxed load and a never-taken
//! branch (the overhead benchmark and
//! `crates/bench/tests/trace_overhead.rs` hold this to account); when
//! on, one pointer load then a lock-free ring write.

use std::sync::Arc;

use ecl_profiling::Hook;

use crate::event::EventKind;
use crate::ring::Tracer;

static SINK: Hook<Tracer> = Hook::new();

/// Installs `tracer` as the global sink and enables emission.
/// A previously installed tracer keeps its recorded events (fetch it
/// with [`current`] before replacing it) but stops receiving new ones.
pub fn install(tracer: Arc<Tracer>) {
    SINK.install(tracer);
}

/// Stops emission and detaches the tracer, returning it so the caller
/// can snapshot.
pub fn uninstall() -> Option<Arc<Tracer>> {
    SINK.uninstall()
}

/// Whether `emit` currently records. The hot-path guard: a single
/// relaxed load.
#[inline(always)]
pub fn is_enabled() -> bool {
    SINK.is_enabled()
}

/// The installed tracer, if any.
pub fn current() -> Option<Arc<Tracer>> {
    SINK.current()
}

/// Records one event into the installed tracer; a single branch when
/// tracing is disabled.
#[inline(always)]
pub fn emit(kind: EventKind, block: u32, lane: u16, payload: u32) {
    SINK.with(|t| t.record(kind, block, lane, payload));
}

/// Records a named phase start (interns on the cold path).
pub fn phase_start(name: &str) {
    SINK.with(|t| t.phase_start(name));
}

/// Records a named phase end.
pub fn phase_end(name: &str) {
    SINK.with(|t| t.phase_end(name));
}

/// Records a round boundary.
pub fn round(n: u32) {
    SINK.with(|t| t.round(n));
}

/// Runs `f` between `phase_start(name)` and `phase_end(name)`.
pub fn phase_span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    phase_start(name);
    let r = f();
    phase_end(name);
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ring::{ClockMode, TracerConfig};

    // The sink is process-global, so its tests share one #[test] body
    // to avoid cross-test interference under the parallel test runner.
    #[test]
    fn sink_lifecycle() {
        assert!(!is_enabled());
        emit(EventKind::Marker, 0, 0, 1); // no sink: must be a no-op

        let t = Arc::new(Tracer::new(TracerConfig {
            slots: 4,
            events_per_slot: 64,
            clock: ClockMode::Logical,
        }));
        install(Arc::clone(&t));
        assert!(is_enabled());
        emit(EventKind::Marker, 0, 0, 2);
        phase_span("p", || emit(EventKind::AtomicUpdated, 1, 0, 0));
        round(3);

        emit(EventKind::Marker, 0, 0, 4);

        let back = uninstall().expect("tracer was installed");
        emit(EventKind::Marker, 0, 0, 100); // detached: no-op

        let s = back.snapshot();
        let payloads: Vec<u32> = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Marker.raw())
            .map(|e| e.payload)
            .collect();
        assert_eq!(payloads, vec![2, 4]);
        assert_eq!(s.of_kind(EventKind::PhaseStart).count(), 1);
        assert_eq!(s.of_kind(EventKind::Round).next().unwrap().payload, 3);
    }
}
