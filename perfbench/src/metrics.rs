//! The metric declarations (mirrored by `BENCHMARK.json`) and the
//! result line.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", "lower"),
    d("run_s", "s", "lower"),
    d("modeled_units", "units", "lower"),
    d("peak_rss_mib", "MiB", "lower"),
    d("req_p50_ms", "ms", "lower"),
    d("req_p99_ms", "ms", "lower"),
    d("slo_rps", "req/s", "higher"),
];

/// Kernels whose wall time the traced run breaks out: cc-road (and
/// the shard-torus single-pool baseline), scc-mesh, shard-torus. Each
/// has a `sim.kernel.<name>.wall_s` and `.ns_per_thread` metric.
pub const KERNELS: &[&str] = &[
    "cc.init",
    "cc.compute-low",
    "cc.finalize",
    "scc.signature-init",
    "scc.propagate",
    "scc.prune",
    "shard.cc.init",
    "shard.cc.sweep",
];

/// Per-layer metrics, printed by every traced run of every workload (0
/// where the workload bypasses the layer).
pub const PER_LAYER: &[Decl] = &[
    d("gen.generate_s", "s", "lower"),
    d("gen.relabel_s", "s", "lower"),
    d("graph.fingerprint_s", "s", "lower"),
    d("graph.vertices", "count", "higher"),
    d("graph.arcs", "count", "higher"),
    d("sim.kernel.cc.init.wall_s", "s", "lower"),
    d("sim.kernel.cc.init.ns_per_thread", "ns", "lower"),
    d("sim.kernel.cc.compute-low.wall_s", "s", "lower"),
    d("sim.kernel.cc.compute-low.ns_per_thread", "ns", "lower"),
    d("sim.kernel.cc.finalize.wall_s", "s", "lower"),
    d("sim.kernel.cc.finalize.ns_per_thread", "ns", "lower"),
    d("sim.kernel.scc.signature-init.wall_s", "s", "lower"),
    d("sim.kernel.scc.signature-init.ns_per_thread", "ns", "lower"),
    d("sim.kernel.scc.propagate.wall_s", "s", "lower"),
    d("sim.kernel.scc.propagate.ns_per_thread", "ns", "lower"),
    d("sim.kernel.scc.prune.wall_s", "s", "lower"),
    d("sim.kernel.scc.prune.ns_per_thread", "ns", "lower"),
    d("sim.kernel.shard.cc.init.wall_s", "s", "lower"),
    d("sim.kernel.shard.cc.init.ns_per_thread", "ns", "lower"),
    d("sim.kernel.shard.cc.sweep.wall_s", "s", "lower"),
    d("sim.kernel.shard.cc.sweep.ns_per_thread", "ns", "lower"),
    d("sim.launches", "count", "lower"),
    d("sim.cost.thread_work", "units", "lower"),
    d("sim.cost.idle_check", "units", "lower"),
    d("sim.cost.atomic", "units", "lower"),
    d("sim.cost.block_sync", "units", "lower"),
    d("sim.cost.kernel_launch", "units", "lower"),
    d("sim.cost.host_reconfig", "units", "lower"),
    d("sim.modeled_spread_frac", "1", "lower"),
    d("pool.claim_wait_s", "s", "lower"),
    d("pool.utilization", "1", "higher"),
    d("pool.imbalance", "x", "lower"),
    d("pool.scale_x", "x", "higher"),
    d("cc.hook_cas_fail_frac", "1", "lower"),
    d("cc.find_progress_frac", "1", "higher"),
    d("scc.max_effective_frac", "1", "higher"),
    d("scc.outer_iterations", "count", "lower"),
    d("shard.partition_s", "s", "lower"),
    d("shard.cut_frac", "1", "lower"),
    d("shard.supersteps", "count", "lower"),
    d("shard.exchange_messages", "count", "lower"),
    d("shard.superstep_ms", "ms", "lower"),
    d("shard.vs_single_run_x", "x", "lower"),
    d("shard.vs_single_modeled_x", "x", "lower"),
    d("serve.queue_ms_p50", "ms", "lower"),
    d("serve.queue_ms_p99", "ms", "lower"),
    d("serve.resolve_ms_p99", "ms", "lower"),
    d("serve.run_ms_p50", "ms", "lower"),
    d("serve.unattributed_ms_p50", "ms", "lower"),
    d("serve.hit_p50_ms", "ms", "lower"),
    d("serve.miss_p50_ms", "ms", "lower"),
    d("serve.rounds_drift_frac", "1", "lower"),
    d("cache.hit_frac", "1", "higher"),
    d("catalog.hit_frac", "1", "higher"),
    d("catalog.evictions", "count", "lower"),
    d("loadgen.late_p99_ms", "ms", "lower"),
    d("trace.overhead_x", "x", "lower"),
    d("fail_frac", "1", "lower"),
];

/// The declarations a run in this mode must print.
pub fn declared(trace: bool) -> &'static [Decl] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Renders the final result line. Every declared metric is printed:
/// a per-layer metric the workload bypasses reads 0.
///
/// # Panics
/// Panics if an end-to-end metric is missing, a value is not finite or
/// a value names an undeclared metric — all bugs in a workload.
pub fn result_line(trace: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let decls = declared(trace);
    for name in values.keys() {
        assert!(decls.iter().any(|d| d.name == name), "undeclared metric {name}");
    }
    let rows: Vec<String> = decls
        .iter()
        .map(|d| {
            let v = match values.get(d.name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            assert!(v.is_finite(), "metric {} is {v}", d.name);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        rows.join(", ")
    )
}
