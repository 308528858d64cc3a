//! The global observability sink: the installed [`Obs`] (flight
//! recorder + SLO engine), attached to the simulator's launch fan-out
//! ([`ecl_gpusim::observe`]) so request-attributed launches land in
//! the recorder.
//!
//! The handle lives in an [`ecl_profiling::Hook`]: with nothing
//! installed, a launch pays one relaxed load for it; with an `Obs`
//! installed, only launches issued inside a request context
//! ([`ecl_gpusim::ctx`]) are sampled.

use std::sync::Arc;

use ecl_gpusim::{observe, LaunchObserver, LaunchSample};
use ecl_profiling::Hook;

use crate::recorder::{FlightRecorder, RecorderConfig};
use crate::slo::SloEngine;

/// The installed observability state: the always-on flight recorder
/// plus an optional SLO engine.
pub struct Obs {
    /// The request flight recorder.
    pub recorder: FlightRecorder,
    /// The SLO engine, present when objectives were configured.
    pub slo: Option<SloEngine>,
}

impl Obs {
    /// An `Obs` with the given recorder bounds and optional SLO
    /// engine.
    pub fn new(recorder: RecorderConfig, slo: Option<SloEngine>) -> Obs {
        Obs { recorder: FlightRecorder::new(recorder), slo }
    }
}

impl LaunchObserver for Obs {
    /// Only launches working for a request are worth a sample.
    fn wants_launch(&self) -> bool {
        ecl_gpusim::ctx::current() != 0
    }

    /// Routes one request-attributed launch sample into the flight
    /// recorder. Samples with `req == 0` (no request context) are
    /// skipped.
    fn on_launch(&self, sample: &LaunchSample) {
        if sample.req != 0 {
            self.recorder.on_launch(sample.req, sample);
        }
    }
}

static SINK: Hook<Obs> = Hook::new();

/// Installs `obs` as the global sink and enables attribution.
pub fn install(obs: Arc<Obs>) {
    observe::attach(&SINK, obs);
}

/// Disables attribution and detaches the handle, returning it.
pub fn uninstall() -> Option<Arc<Obs>> {
    SINK.uninstall()
}

/// Whether an `Obs` is installed — one relaxed load.
#[inline(always)]
pub fn is_enabled() -> bool {
    SINK.is_enabled()
}

/// The installed handle, if any.
pub fn current() -> Option<Arc<Obs>> {
    SINK.current()
}

/// Runs `f` against the installed `Obs`, if any.
#[inline]
pub fn with<R>(f: impl FnOnce(&Obs) -> R) -> Option<R> {
    SINK.with(f)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::ctx::CtxGuard;
    use ecl_gpusim::{launch_flat_named, Device, LaunchConfig};

    // The sink is process-global: one #[test] body.
    #[test]
    fn routes_request_launches_to_the_recorder() {
        let d = Device::test_small();
        let launch = |req: u64| {
            let _g = CtxGuard::enter(req);
            launch_flat_named(&d, "k", LaunchConfig::new(2, 32), |_| {});
        };
        let obs = Arc::new(Obs::new(RecorderConfig::default(), None));
        install(Arc::clone(&obs));
        // Only launches inside a request context are wanted.
        assert!(!obs.wants_launch());
        {
            let _g = CtxGuard::enter(5);
            assert!(obs.wants_launch());
        }

        obs.recorder.begin(5, 1, "cc", "g");
        launch(5);
        launch(0); // no request: not sampled
        launch(6); // not in flight: dropped by the recorder
        let s =
            obs.recorder.finish(5, 1, "cc", "g", crate::recorder::FinishInfo::default()).unwrap();
        assert_eq!(s.kernels, 1);
        uninstall();
    }
}
