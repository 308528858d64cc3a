//! The global profiling sink: the [`Collector`] attached to the
//! simulator's launch fan-out ([`ecl_gpusim::observe`]).
//!
//! The collector lives in an [`ecl_profiling::Hook`], so a launch with
//! no collector installed pays one relaxed load for it and skips the
//! timing instrumentation and the sample entirely.

use std::sync::Arc;

use ecl_gpusim::observe;
use ecl_profiling::Hook;

use crate::collector::Collector;

static SINK: Hook<Collector> = Hook::new();

/// Installs `collector` as the global sink and enables profiling. A
/// previously installed collector keeps its aggregates (fetch it with
/// [`current`] before replacing) but stops receiving launches.
pub fn install(collector: Arc<Collector>) {
    observe::attach(&SINK, collector);
}

/// Stops profiling and detaches the collector, returning it for
/// snapshotting.
pub fn uninstall() -> Option<Arc<Collector>> {
    SINK.uninstall()
}

/// Whether launches are currently profiled — one relaxed load.
#[inline(always)]
pub fn is_enabled() -> bool {
    SINK.is_enabled()
}

/// The installed collector, if any.
pub fn current() -> Option<Arc<Collector>> {
    SINK.current()
}
