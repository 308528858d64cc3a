//! Job execution: [`JobSpec`] → simulated device → algorithm run →
//! bit-comparable [`RunOutput`].
//!
//! Outputs carry *aggregates*, not full label arrays: counts, rounds,
//! and an FNV checksum over each per-vertex solution vector. The
//! checksums make the result-cache equivalence guarantee testable —
//! a cache hit is byte-identical to a cold run iff every aggregate
//! (including the checksums and the modeled-time bit pattern) matches.

use std::sync::Arc;
use std::time::Duration;

use ecl_gpusim::pool::with_policy;
use ecl_gpusim::{Device, DeviceConfig};

use crate::catalog::{CatalogError, GraphCatalog};
use crate::jobs::{Algo, Fault, JobSpec};

/// SM floor for SCC runs (mirrors the bench harness: the forward/
/// backward sweeps need a multi-block grid even at tiny scales).
pub const SCC_MIN_SMS: usize = 8;

/// An RTX 4090 scaled down by `scale`: same SM shape, proportionally
/// fewer SMs, floored at `min_sms`. Kept in sync with the bench
/// harness's `scaled_device_min` (serve cannot depend on ecl-bench —
/// the bench crate hosts the serve binaries).
pub fn scaled_device(scale: f64, min_sms: usize) -> Device {
    Device::new(scaled_config(scale, min_sms))
}

/// The configuration behind [`scaled_device`]; the sharded path builds
/// one identical device per shard from it.
pub fn scaled_config(scale: f64, min_sms: usize) -> DeviceConfig {
    let full = DeviceConfig::rtx4090();
    let num_sms = ((full.num_sms as f64 * scale).round() as usize).max(min_sms).max(1);
    DeviceConfig { num_sms, ..full }
}

/// The deterministic, bit-comparable result of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutput {
    /// Algorithm that ran.
    pub algo: Algo,
    /// Catalog graph name.
    pub graph: String,
    /// Content hash of the exact input graph.
    pub graph_hash: u64,
    /// Input vertex count.
    pub vertices: usize,
    /// Input arc count.
    pub arcs: usize,
    /// Named integer aggregates (counts, rounds, solution checksums).
    /// Bit-exact: two runs are "the same result" iff these match.
    pub aggregates: Vec<(&'static str, u64)>,
    /// Deterministic modeled GPU time in cost units.
    pub modeled_time: f64,
    /// Whether a manifest schedule (attached to the resolved graph at
    /// catalog registration) was applied to this run.
    pub tuned: bool,
}

impl RunOutput {
    /// Looks up an aggregate by name.
    pub fn aggregate(&self, name: &str) -> Option<u64> {
        self.aggregates.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// FNV-1a over a `u32` slice — stable solution-vector checksum.
fn checksum_u32(values: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Executes `spec` against `catalog`. Errors are strings (they become
/// the job's failure message). Panics propagate — the scheduler wraps
/// this call in `catch_unwind`.
pub fn execute(spec: &JobSpec, catalog: &Arc<GraphCatalog>) -> Result<RunOutput, String> {
    match spec.fault {
        Fault::Panic => panic!("injected fault: panic"),
        Fault::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms as u64)),
        Fault::None => {}
    }

    let weighted = spec.algo == Algo::Mst;
    let resolve_start = std::time::Instant::now();
    let resolved = catalog
        .resolve(&spec.graph, spec.scale, spec.seed, weighted)
        .map_err(|e: CatalogError| e.to_string())?;
    // Request-scoped phase: a cold resolve (generate + materialize) can
    // dominate a request's run time; the flight recorder shows it as a
    // distinct span instead of unexplained non-kernel time.
    let req = ecl_gpusim::ctx::current();
    if req != 0 {
        let resolve_ns = resolve_start.elapsed().as_nanos() as u64;
        ecl_obs::sink::with(|obs| obs.recorder.on_phase(req, "graph.resolve", resolve_ns));
    }
    let structure = resolved.structure();

    // Directedness contract: SCC is the only directed algorithm; the
    // others assume symmetric adjacency.
    if spec.algo == Algo::Scc && !structure.is_directed() {
        return Err(format!("scc requires a directed graph ({:?} is undirected)", spec.graph));
    }
    if spec.algo != Algo::Scc && structure.is_directed() {
        return Err(format!(
            "{} requires an undirected graph ({:?} is directed)",
            spec.algo.name(),
            spec.graph
        ));
    }

    let min_sms = if spec.algo == Algo::Scc { SCC_MIN_SMS } else { 1 };

    // Multi-pool path: shard the graph across `spec.shards` modeled
    // GPUs and run the algorithm through ecl-shard. Results are
    // bit-identical to single-pool (see crates/shard), but modeled
    // time and the shard aggregates are not — the cache key's shard
    // count keeps the entries separate.
    if spec.shards > 1 {
        return execute_sharded(spec, &resolved, structure, min_sms);
    }

    let device = scaled_device(spec.scale, min_sms);

    // Tuned-schedule attachment: the catalog pinned the best-known
    // manifest schedule to this graph at registration. Precedence is
    // schedule < explicit spec overrides — a client-supplied
    // block_size or seed always wins over the manifest.
    let schedule = resolved.schedule_for(spec.algo.name());
    let tuned = schedule.is_some();

    let run = || -> Result<Vec<(&'static str, u64)>, String> {
        Ok(match spec.algo {
            Algo::Cc => {
                let g = resolved.csr.as_ref().ok_or("internal: unweighted view missing")?;
                let mut cfg = ecl_cc::CcConfig::baseline();
                if let Some(s) = schedule {
                    cfg.apply_schedule(s);
                }
                let r = ecl_cc::run(&device, g, &cfg);
                vec![
                    ("num_components", r.num_components() as u64),
                    ("labels_checksum", checksum_u32(&r.labels)),
                ]
            }
            Algo::Gc => {
                let g = resolved.csr.as_ref().ok_or("internal: unweighted view missing")?;
                let mut cfg = ecl_gc::GcConfig::default();
                if let Some(s) = schedule {
                    cfg.apply_schedule(s);
                }
                if let Some(bs) = spec.block_size {
                    cfg.block_size = bs;
                }
                let r = ecl_gc::run(&device, g, &cfg);
                vec![
                    ("num_colors", r.num_colors() as u64),
                    ("rounds", r.rounds as u64),
                    ("colors_checksum", checksum_u32(&r.colors)),
                ]
            }
            Algo::Mis => {
                let g = resolved.csr.as_ref().ok_or("internal: unweighted view missing")?;
                // The job seed salts the tie-break permutation, so two
                // seeds explore genuinely different (still
                // deterministic) independent sets. The seed is applied
                // *after* the schedule: result-cache keys include the
                // seed, so it must keep full authority over the salt.
                let mut cfg = ecl_mis::MisConfig::default();
                if let Some(s) = schedule {
                    cfg.apply_schedule(s);
                }
                cfg.tie_salt = ecl_mis::MisConfig::seeded(spec.seed).tie_salt;
                let r = ecl_mis::run(&device, g, &cfg);
                let set: Vec<u32> = r.in_set.iter().map(|&b| b as u32).collect();
                vec![
                    ("set_size", r.set_size() as u64),
                    ("rounds", r.rounds as u64),
                    ("set_checksum", checksum_u32(&set)),
                ]
            }
            Algo::Mst => {
                let g = resolved.weighted.as_ref().ok_or("internal: weighted view missing")?;
                let mut cfg = ecl_mst::MstConfig::baseline();
                if let Some(s) = schedule {
                    cfg.apply_schedule(s);
                }
                let r = ecl_mst::run(&device, g, &cfg);
                let mut edges: Vec<u32> = r.edges.iter().map(|&e| e as u32).collect();
                edges.sort_unstable();
                vec![
                    ("total_weight", r.total_weight),
                    ("num_trees", r.num_trees as u64),
                    ("num_mst_edges", r.edges.len() as u64),
                    ("edges_checksum", checksum_u32(&edges)),
                ]
            }
            Algo::Scc => {
                let g = resolved.csr.as_ref().ok_or("internal: unweighted view missing")?;
                let mut cfg = ecl_scc::SccConfig::default();
                if let Some(s) = schedule {
                    cfg.apply_schedule(s);
                }
                if let Some(bs) = spec.block_size {
                    cfg.block_size = bs;
                }
                let r = ecl_scc::run(&device, g, &cfg);
                vec![
                    ("num_sccs", r.num_sccs() as u64),
                    ("outer_iterations", r.outer_iterations as u64),
                    ("labels_checksum", checksum_u32(&r.labels)),
                ]
            }
        })
    };
    // Tuned runs also honor the schedule's dispatch knobs (engine,
    // workers, claim grain). These are cost-neutral by scheduler
    // determinism, so they can never change aggregates or modeled time.
    let aggregates = match schedule {
        Some(s) => with_policy(s.dispatch_policy(), run)?,
        None => run()?,
    };

    Ok(RunOutput {
        algo: spec.algo,
        graph: resolved.name.clone(),
        graph_hash: resolved.content_hash,
        vertices: structure.num_vertices(),
        arcs: structure.num_arcs(),
        aggregates,
        modeled_time: device.modeled_time(),
        tuned,
    })
}

/// Runs `spec` across `spec.shards` modeled GPUs through ecl-shard.
///
/// CC/MIS/SCC produce the same solution checksums as the single-pool
/// kernels (ecl-shard's fixpoints are bit-identical at every shard
/// count); GC and MST have no sharded implementation and fail cleanly.
/// Manifest schedules tune single-pool dispatch knobs and are not
/// applied here, so sharded runs always report `tuned: false`.
fn execute_sharded(
    spec: &JobSpec,
    resolved: &crate::catalog::ResolvedGraph,
    structure: &ecl_graph::Csr,
    min_sms: usize,
) -> Result<RunOutput, String> {
    if matches!(spec.algo, Algo::Gc | Algo::Mst) {
        return Err(format!(
            "{} does not support sharded execution (cc|mis|scc only)",
            spec.algo.name()
        ));
    }
    let g = resolved.csr.as_ref().ok_or("internal: unweighted view missing")?;
    let part = ecl_shard::Partition::auto(g, spec.shards);
    let devices = ecl_shard::devices_for(scaled_config(spec.scale, min_sms), spec.shards);
    let (mut aggregates, stats) = match spec.algo {
        Algo::Cc => {
            let r = ecl_shard::run_cc(&devices, g, &part);
            (
                vec![
                    ("num_components", r.num_components() as u64),
                    ("labels_checksum", checksum_u32(&r.labels)),
                ],
                r.stats,
            )
        }
        Algo::Mis => {
            let salt = ecl_mis::MisConfig::seeded(spec.seed).tie_salt;
            let r = ecl_shard::run_mis(&devices, g, &part, salt);
            let set: Vec<u32> = r.in_set.iter().map(|&b| b as u32).collect();
            (vec![("set_size", r.set_size() as u64), ("set_checksum", checksum_u32(&set))], r.stats)
        }
        Algo::Scc => {
            let r = ecl_shard::run_scc(&devices, g, &part);
            (
                vec![
                    ("num_sccs", r.num_sccs() as u64),
                    ("outer_iterations", r.outer_iterations as u64),
                    ("labels_checksum", checksum_u32(&r.labels)),
                ],
                r.stats,
            )
        }
        Algo::Gc | Algo::Mst => unreachable!("rejected above"),
    };
    aggregates.extend([
        ("shards", stats.shards as u64),
        ("cut_arcs", stats.cut_arcs as u64),
        ("supersteps", stats.supersteps as u64),
        ("exchange_messages", stats.exchange_messages),
    ]);
    Ok(RunOutput {
        algo: spec.algo,
        graph: resolved.name.clone(),
        graph_hash: resolved.content_hash,
        vertices: structure.num_vertices(),
        arcs: structure.num_arcs(),
        aggregates,
        modeled_time: stats.modeled_time,
        tuned: false,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;

    fn catalog() -> Arc<GraphCatalog> {
        Arc::new(GraphCatalog::new(CatalogConfig::default()))
    }

    #[test]
    fn cc_runs_and_is_deterministic() {
        let cat = catalog();
        let spec = JobSpec::new(Algo::Cc, "internet");
        let a = execute(&spec, &cat).unwrap();
        let b = execute(&spec, &cat).unwrap();
        assert_eq!(a, b, "same spec must be bit-identical");
        assert!(a.aggregate("num_components").unwrap() >= 1);
        assert!(a.modeled_time > 0.0);
    }

    #[test]
    fn seed_changes_generated_input_and_result_hash() {
        let cat = catalog();
        let mut a = JobSpec::new(Algo::Cc, "internet");
        let mut b = a.clone();
        a.seed = 1;
        b.seed = 2;
        let ra = execute(&a, &cat).unwrap();
        let rb = execute(&b, &cat).unwrap();
        assert_ne!(ra.graph_hash, rb.graph_hash);
    }

    #[test]
    fn mis_seed_changes_tie_breaks_on_same_graph() {
        // Same graph content (seed only salts MIS tie-breaking when
        // the graph comes from disk) — emulate by generating one graph
        // and running MIS with two salted configs directly.
        let g = ecl_graphgen::registry::find("internet").unwrap().generate(0.002, 7);
        let device = scaled_device(0.002, 1);
        let r0 = ecl_mis::run(&device, &g, &ecl_mis::MisConfig::seeded(0));
        let r1 = ecl_mis::run(&device, &g, &ecl_mis::MisConfig::seeded(0xDEAD_BEEF_CAFE));
        // Both are valid MIS runs; the selected sets should differ for
        // a graph this size (astronomically unlikely to coincide).
        assert!(r0.set_size() > 0 && r1.set_size() > 0);
        assert_ne!(r0.in_set, r1.in_set, "salt must permute tie-breaking");
    }

    #[test]
    fn scc_on_undirected_graph_fails_cleanly() {
        let cat = catalog();
        let spec = JobSpec::new(Algo::Scc, "internet");
        let err = execute(&spec, &cat).unwrap_err();
        assert!(err.contains("directed"), "got: {err}");
    }

    #[test]
    fn scc_on_directed_mesh_succeeds() {
        let cat = catalog();
        let name = ecl_graphgen::registry::scc_inputs()[0].name;
        let spec = JobSpec::new(Algo::Scc, name);
        let out = execute(&spec, &cat).unwrap();
        assert!(out.aggregate("num_sccs").unwrap() >= 1);
    }

    #[test]
    fn mst_runs_on_weighted_view() {
        let cat = catalog();
        let spec = JobSpec::new(Algo::Mst, "USA-road-d.NY");
        let out = execute(&spec, &cat).unwrap();
        assert!(out.aggregate("total_weight").unwrap() > 0);
        assert_eq!(
            out.aggregate("num_mst_edges").unwrap() + out.aggregate("num_trees").unwrap(),
            out.vertices as u64,
            "spanning forest invariant: edges + trees == vertices"
        );
    }

    fn manifest_for(
        algo: &str,
        fp: &ecl_graph::Fingerprint,
        schedule: ecl_gpusim::Schedule,
    ) -> ecl_tune::TuneManifest {
        let sketch = ecl_profiling::LogSketch::new();
        sketch.record(1);
        ecl_tune::TuneManifest::new(vec![ecl_tune::TuneEntry {
            algo: algo.to_string(),
            input: "internet".into(),
            family: fp.family_key(),
            fingerprint: fp.clone(),
            scale: 0.001,
            seed: 0,
            method: "exhaustive".into(),
            evaluations: 1,
            space: 1,
            default_time: 2.0,
            tuned_time: 1.0,
            eval_sketch: sketch.snapshot(),
            schedule,
        }])
    }

    #[test]
    fn manifest_schedule_applies_and_labels_tuned() {
        let plain = catalog();
        let spec = JobSpec::new(Algo::Cc, "internet");
        let base = execute(&spec, &plain).unwrap();
        assert!(!base.tuned, "no manifest → defaults");

        let g = plain.resolve("internet", spec.scale, spec.seed, false).unwrap();
        let schedule = ecl_gpusim::schedule::default_schedule("cc")
            .with("optimized_init", ecl_gpusim::KnobValue::Bool(true));
        let cat = Arc::new(GraphCatalog::new(CatalogConfig {
            tune: Some(Arc::new(manifest_for("cc", &g.fingerprint, schedule))),
            ..CatalogConfig::default()
        }));
        let tuned = execute(&spec, &cat).unwrap();
        assert!(tuned.tuned, "manifest match → tuned run");
        assert_eq!(
            tuned.aggregate("num_components"),
            base.aggregate("num_components"),
            "schedule changes cost, never the answer"
        );
        assert_ne!(
            tuned.modeled_time.to_bits(),
            base.modeled_time.to_bits(),
            "optimized init must change the modeled cost"
        );
    }

    #[test]
    fn job_seed_overrides_manifest_tie_salt() {
        let plain = catalog();
        let mut spec = JobSpec::new(Algo::Mis, "internet");
        spec.seed = 5;
        let base = execute(&spec, &plain).unwrap();

        // Manifest pins a nonzero MIS tie salt; the job seed must
        // still control the salt (result-cache keys include the seed).
        let g = plain.resolve("internet", spec.scale, spec.seed, false).unwrap();
        let schedule = ecl_gpusim::schedule::default_schedule("mis")
            .with("tie_salt", ecl_gpusim::KnobValue::Int(0x9E37));
        let cat = Arc::new(GraphCatalog::new(CatalogConfig {
            tune: Some(Arc::new(manifest_for("mis", &g.fingerprint, schedule))),
            ..CatalogConfig::default()
        }));
        let tuned = execute(&spec, &cat).unwrap();
        assert!(tuned.tuned);
        assert_eq!(
            tuned.aggregate("set_checksum"),
            base.aggregate("set_checksum"),
            "seed-derived salt must win over the manifest salt"
        );
    }

    #[test]
    fn sharded_cc_matches_single_pool_checksums() {
        let cat = catalog();
        let mut spec = JobSpec::new(Algo::Cc, "internet");
        let single = execute(&spec, &cat).unwrap();
        spec.shards = 4;
        let sharded = execute(&spec, &cat).unwrap();
        assert_eq!(sharded.aggregate("labels_checksum"), single.aggregate("labels_checksum"));
        assert_eq!(sharded.aggregate("num_components"), single.aggregate("num_components"));
        assert_eq!(sharded.aggregate("shards"), Some(4));
        assert!(sharded.aggregate("supersteps").unwrap() > 0);
        assert!(!sharded.tuned);
    }

    #[test]
    fn sharded_mis_seed_controls_tie_salt() {
        let cat = catalog();
        let mut spec = JobSpec::new(Algo::Mis, "internet");
        spec.seed = 9;
        let single = execute(&spec, &cat).unwrap();
        spec.shards = 2;
        let sharded = execute(&spec, &cat).unwrap();
        assert_eq!(sharded.aggregate("set_checksum"), single.aggregate("set_checksum"));
        assert_eq!(sharded.aggregate("set_size"), single.aggregate("set_size"));
    }

    #[test]
    fn sharded_scc_matches_single_pool() {
        let cat = catalog();
        let name = ecl_graphgen::registry::scc_inputs()[0].name;
        let mut spec = JobSpec::new(Algo::Scc, name);
        let single = execute(&spec, &cat).unwrap();
        spec.shards = 3;
        let sharded = execute(&spec, &cat).unwrap();
        assert_eq!(sharded.aggregate("labels_checksum"), single.aggregate("labels_checksum"));
        assert_eq!(sharded.aggregate("num_sccs"), single.aggregate("num_sccs"));
        assert_eq!(sharded.aggregate("outer_iterations"), single.aggregate("outer_iterations"));
    }

    #[test]
    fn sharded_gc_and_mst_fail_cleanly() {
        let cat = catalog();
        let mut gc = JobSpec::new(Algo::Gc, "internet");
        gc.shards = 2;
        assert!(execute(&gc, &cat).unwrap_err().contains("sharded"));
        let mut mst = JobSpec::new(Algo::Mst, "USA-road-d.NY");
        mst.shards = 2;
        assert!(execute(&mst, &cat).unwrap_err().contains("sharded"));
    }

    #[test]
    fn injected_panic_propagates() {
        let cat = catalog();
        let mut spec = JobSpec::new(Algo::Cc, "internet");
        spec.fault = Fault::Panic;
        let r = std::panic::catch_unwind(|| execute(&spec, &cat));
        assert!(r.is_err());
    }
}
