//! End-to-end and per-layer benchmark of the ECL suite.
//!
//! One command per workload, seeded, verified against `ecl-ref` (batch
//! workloads) or an in-process re-run (serve-mix). An untraced run
//! prints the end-to-end metrics; a traced run (`--trace 1`) prints the
//! per-layer breakdown and the tracing overhead. The layers are timed
//! from outside, around calls into their public functions; kernel and
//! pool figures come from the `ecl-prof` launch collector and serve
//! figures from the server's own trace and metrics endpoints. See
//! `README.md` for the workloads, the metric map and the baseline.

pub mod batch;
pub mod metrics;
pub mod serve_mix;
pub mod spans;
pub mod stats;
pub mod verify;

use metrics::Values;
use spans::Spans;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ECL-CC on a road network. Runnable by hand, but not in
    /// `BENCHMARK.json`: its wall time did not hold steady enough to
    /// gate on (see `README.md`).
    CcRoad,
    /// ECL-SCC on a directed mesh.
    SccMesh,
    /// 4-shard CC on a torus.
    ShardTorus,
    /// Open-loop job mix against an in-process server.
    ServeMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::CcRoad, Workload::SccMesh, Workload::ShardTorus, Workload::ServeMix];

    /// The workloads `BENCHMARK.json` declares, in its order.
    pub const GATED: [Workload; 3] = [Workload::SccMesh, Workload::ShardTorus, Workload::ServeMix];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CcRoad => "cc-road",
            Workload::SccMesh => "scc-mesh",
            Workload::ShardTorus => "shard-torus",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed: the same seed builds the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Test-sized inputs (the smoke tests); the benchmark never sets it.
    pub tiny: bool,
}

/// What a run measured.
pub struct Outcome {
    /// Operations attempted (calls, set-up repeats, requests, checks).
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
    /// Environment and sample counts recorded beside the result.
    pub info: Vec<(&'static str, String)>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Spans,
}

/// Dispatch overrides that would change what is measured.
pub const PINNED_ENV: [&str; 3] = ["ECL_SIM_DISPATCH", "ECL_SIM_WORKERS", "ECL_SIM_GRAIN"];

/// Refuses to run under a dispatch override.
pub fn check_env() -> Result<(), String> {
    match PINNED_ENV.iter().find(|k| std::env::var_os(k).is_some()) {
        Some(k) => Err(format!("{k} is set; unset it so the default dispatch is measured")),
        None => Ok(()),
    }
}

/// Runs one workload.
pub fn run(params: &Params) -> Outcome {
    let mut out = match params.workload {
        Workload::ServeMix => serve_mix::run(params),
        _ => batch::run(params),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut info = vec![
        ("workload", params.workload.name().to_string()),
        ("seed", params.seed.to_string()),
        ("seconds", params.seconds.to_string()),
        ("trace", params.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("workers", ecl_gpusim::pool::effective_workers().to_string()),
        ("dispatch", "pool".to_string()),
        ("git_sha", ecl_prof::git_sha()),
    ];
    info.append(&mut out.info);
    out.info = info;
    out
}

/// The environment/sample line printed before the result.
pub fn info_line(info: &[(&'static str, String)]) -> String {
    let rows: Vec<String> =
        info.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", ecl_prof::json::escape(v))).collect();
    format!("{{\"perfbench\": {{{}}}}}", rows.join(", "))
}
