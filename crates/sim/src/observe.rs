//! Launch observation: the one path by which per-launch samples leave
//! the simulator.
//!
//! Every launch shape runs through one launch body
//! (`launch::launch`), which asks the attached [`LaunchObserver`]s
//! whether any wants the launch, and if so times the dispatch,
//! snapshots the device's cost tally around it and hands each
//! observer one [`LaunchSample`]. Observers (the profile collector in
//! `ecl-prof`, the request recorder in `ecl-obs`) live in crates above
//! the simulator: each keeps its installed value in its own
//! [`Hook`] and [`attach`]es that hook here, so the simulator depends
//! on neither.
//!
//! With no observer attached the launch pays one relaxed load; with
//! observers attached but none installed, one more per observer.

use std::sync::{Arc, Mutex};

use ecl_profiling::{imbalance_from_summary, Hook, Summary};

use crate::cost::CostKind;
use crate::pool::WorkerStat;

/// One kernel launch as observed by the launch layer: grid geometry,
/// wall time, the per-participant execution stats of the dispatch
/// pool, and the cost units the launch charged.
#[derive(Clone, Debug)]
pub struct LaunchSample {
    /// Kernel name (the `*_named` launch name; `flat`/`blocks`/`warps`
    /// for anonymous launches).
    pub kernel: String,
    /// Launch shape (`flat`, `persistent`, `blocks`, `warps`).
    pub shape: &'static str,
    /// Blocks in the grid.
    pub blocks: u64,
    /// Threads per block.
    pub block_size: u64,
    /// Wall time of the dispatch, submitter-side.
    pub wall_ns: u64,
    /// Per-participant stats; empty for zero-block launches.
    pub workers: Vec<WorkerStat>,
    /// Originating request id ([`crate::ctx`] correlation; 0 = no
    /// request context, e.g. CLI runs).
    pub req: u64,
    /// Shard (simulated device instance) the launch ran on. 0 for
    /// single-pool runs; `ecl-shard` multi-pool runs attach the
    /// ambient shard id via [`crate::shard`], which keeps concurrent
    /// pool instances from collapsing into one series.
    pub shard: u32,
    /// Cost units the device was charged from just before the launch's
    /// `KernelLaunch` charge until its dispatch joined, indexed like
    /// [`CostKind::ALL`]. Charges other threads make to the same
    /// device meanwhile land here too.
    pub cost: [u64; CostKind::COUNT],
}

impl LaunchSample {
    /// Worker utilization: busy time over the span all participants
    /// were attached to the launch (`participants × wall`). 0 for
    /// degenerate launches, clamped to 1 (timers of busy and wall are
    /// sampled independently).
    pub fn utilization(&self) -> f64 {
        let span = self.wall_ns.saturating_mul(self.workers.len() as u64);
        if span == 0 {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        (busy as f64 / span as f64).clamp(0.0, 1.0)
    }

    /// Load-imbalance factor over participant busy times (max / avg),
    /// the per-launch form of `ecl_profiling::LoadBalance`; 0 for
    /// zero-activity launches, never NaN/inf.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.workers.iter().map(|w| w.busy_ns).collect();
        imbalance_from_summary(&Summary::of_u64(&busy))
    }

    /// Aggregate ticket-claim wait: time participants were attached to
    /// the launch but not executing blocks (claim contention, queue
    /// scan, parking latency).
    pub fn claim_wait_ns(&self) -> u64 {
        let span = self.wall_ns.saturating_mul(self.workers.len() as u64);
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        span.saturating_sub(busy)
    }

    /// Total ticket claims across participants.
    pub fn claims(&self) -> u64 {
        self.workers.iter().map(|w| w.claims).sum()
    }

    /// Total threads launched.
    pub fn threads(&self) -> u64 {
        self.blocks.saturating_mul(self.block_size)
    }
}

/// A consumer of launch samples. Implemented by the values installed
/// in attached hooks.
pub trait LaunchObserver: Send + Sync + 'static {
    /// Whether a launch issued from the calling thread now should be
    /// sampled. Sampling costs a timer pair, per-claim worker stats and
    /// two cost snapshots, so observers that only care about some
    /// launches say so here.
    fn wants_launch(&self) -> bool {
        true
    }

    /// One completed launch.
    fn on_launch(&self, sample: &LaunchSample);
}

impl<T: LaunchObserver> LaunchObserver for Hook<T> {
    fn wants_launch(&self) -> bool {
        self.with(T::wants_launch).unwrap_or(false)
    }

    fn on_launch(&self, sample: &LaunchSample) {
        self.with(|o| o.on_launch(sample));
    }
}

/// The attached observer hooks; replaced wholesale on [`attach`].
static OBSERVERS: Hook<Vec<&'static dyn LaunchObserver>> = Hook::new();

/// Installs `value` into `hook` and makes sure the hook is attached to
/// the launch fan-out. Attaching is idempotent; uninstall through the
/// hook itself.
pub fn attach<T: LaunchObserver>(hook: &'static Hook<T>, value: Arc<T>) {
    static ATTACH: Mutex<()> = Mutex::new(());
    hook.install(value);
    let _serial = ATTACH.lock().unwrap_or_else(|e| e.into_inner());
    let mut list = OBSERVERS.current().map(|l| l.to_vec()).unwrap_or_default();
    let hook: &'static dyn LaunchObserver = hook;
    if !list.iter().any(|&h| std::ptr::addr_eq(h, hook)) {
        list.push(hook);
        OBSERVERS.install(Arc::new(list));
    }
}

/// Whether any attached observer wants a launch issued now.
#[inline]
pub(crate) fn wants_launch() -> bool {
    OBSERVERS.with(|list| list.iter().any(|o| o.wants_launch())).unwrap_or(false)
}

/// Hands `sample` to every attached observer.
pub(crate) fn notify(sample: &LaunchSample) {
    OBSERVERS.with(|list| list.iter().for_each(|o| o.on_launch(sample)));
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample(workers: Vec<WorkerStat>, wall_ns: u64) -> LaunchSample {
        LaunchSample {
            kernel: "k".into(),
            shape: "flat",
            blocks: 8,
            block_size: 32,
            wall_ns,
            workers,
            req: 0,
            shard: 0,
            cost: [0; CostKind::COUNT],
        }
    }

    #[test]
    fn utilization_and_imbalance() {
        let s = sample(
            vec![
                WorkerStat { blocks: 4, claims: 2, busy_ns: 80 },
                WorkerStat { blocks: 4, claims: 2, busy_ns: 40 },
            ],
            100,
        );
        assert!((s.utilization() - 0.6).abs() < 1e-12);
        // avg busy 60, max 80 -> 1.333…
        assert!((s.imbalance() - 80.0 / 60.0).abs() < 1e-12);
        assert_eq!(s.claim_wait_ns(), 200 - 120);
        assert_eq!(s.claims(), 4);
        assert_eq!(s.threads(), 256);
    }

    #[test]
    fn zero_activity_launch_is_finite() {
        let s = sample(vec![], 0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.imbalance(), 0.0);
        assert_eq!(s.claim_wait_ns(), 0);
        assert!(s.utilization().is_finite() && s.imbalance().is_finite());
    }

    #[test]
    fn utilization_clamped_to_one() {
        // busy sampled slightly above wall (independent timers).
        let s = sample(vec![WorkerStat { blocks: 1, claims: 1, busy_ns: 110 }], 100);
        assert_eq!(s.utilization(), 1.0);
    }
}
