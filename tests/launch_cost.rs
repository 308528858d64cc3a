//! Launch-cost completeness: the cost windows the launch layer hands
//! its observers account for the device's modeled cost.
//!
//! Every launch sample carries the cost units its device was charged
//! from the launch's `KernelLaunch` charge until its blocks joined.
//! ECL-CC charges nothing outside a launch, so under a sequential
//! dispatch its samples must sum to the device total exactly — which is
//! what lets a `Collector` serve as the per-kernel cost table (the
//! §6.1.3 "init is 10–20% of ECL-CC" breakdown). The other algorithms
//! also charge host-side work outside any launch (MST's
//! `HostReconfig`, SCC's modeled launches), so for them the samples
//! are a lower bound per cost kind.

#![allow(clippy::unwrap_used)]

use std::sync::{Arc, Mutex};

use ecl_prof::{sink, Collector};
use ecl_suite::sim::pool::{with_policy, DispatchPolicy};
use ecl_suite::sim::{CostKind, Device};
use ecl_suite::{cc, gc, gen, mis, mst, reference, scc};

/// The collector is process-global: the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` sequentially with a fresh collector installed.
fn collected<R>(f: impl FnOnce() -> R) -> (R, Arc<Collector>) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Arc::new(Collector::new());
    sink::install(Arc::clone(&collector));
    let r = with_policy(DispatchPolicy::sequential(), f);
    sink::uninstall();
    (r, collector)
}

/// The collected cost units summed over every kernel, per kind.
fn sample_sums(collector: &Collector) -> [u64; CostKind::COUNT] {
    let mut sums = [0; CostKind::COUNT];
    for k in collector.snapshot() {
        for (acc, units) in sums.iter_mut().zip(k.cost) {
            *acc += units;
        }
    }
    sums
}

fn cc_run() -> (Device, Arc<Collector>) {
    let g = gen::random::erdos_renyi(2000, 6.0, 7);
    let device = Device::test_small();
    let (r, collector) = collected(|| cc::run(&device, &g, &cc::CcConfig::baseline()));
    assert_eq!(r.labels, reference::connected_components(&g));
    (device, collector)
}

#[test]
fn cc_launch_costs_sum_to_the_device_total() {
    let (device, collector) = cc_run();
    assert_eq!(sample_sums(&collector), device.cost().snapshot());
}

#[test]
fn cc_kernel_breakdown_from_the_collector() {
    let (device, collector) = cc_run();
    let params = device.params();
    let stats = collector.snapshot();
    let kernels =
        ["cc.init", "cc.compute-low", "cc.compute-medium", "cc.compute-high", "cc.finalize"];
    let names: Vec<&str> = stats.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(names, kernels, "all five kernels, in launch order");
    let total: f64 = stats.iter().map(|k| k.modeled_time(params)).sum();
    assert_eq!(total, device.modeled_time());
    let share =
        |name: &str| stats.iter().find(|k| k.name == name).unwrap().modeled_time(params) / total;
    let share_sum: f64 = kernels.iter().map(|k| share(k)).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
    // The §6.1.3 ballpark: init is a real but minority share.
    let init = share("cc.init");
    assert!((0.01..0.7).contains(&init), "init share {init} outside the plausible band");
}

/// Asserts `run`'s launch samples stay within the device total, per
/// cost kind.
fn samples_within_device_total(algo: &str, run: impl FnOnce(&Device)) {
    let device = Device::test_small();
    let ((), collector) = collected(|| run(&device));
    assert!(collector.launches() > 0, "{algo} launched nothing");
    let totals = device.cost().snapshot();
    for ((kind, sampled), total) in CostKind::ALL.iter().zip(sample_sums(&collector)).zip(totals) {
        assert!(sampled <= total, "{algo} {kind:?}: samples {sampled} > device {total}");
    }
}

#[test]
fn other_algorithms_charge_at_least_their_launch_windows() {
    let undirected = gen::random::erdos_renyi(1500, 6.0, 11);
    let weighted = gen::weights::with_hashed_weights(&undirected, 1 << 20, 11);
    let directed = gen::registry::find("star").unwrap().generate(0.002, 11);
    samples_within_device_total("gc", |d| drop(gc::run(d, &undirected, &Default::default())));
    samples_within_device_total("mis", |d| drop(mis::run(d, &undirected, &Default::default())));
    samples_within_device_total("mst", |d| drop(mst::run(d, &weighted, &Default::default())));
    samples_within_device_total("scc", |d| drop(scc::run(d, &directed, &Default::default())));
}
