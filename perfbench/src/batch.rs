//! The batch workloads: one generated input, then back-to-back timed
//! algorithm calls (a closed loop with one client).
//!
//! - `cc-road`: ECL-CC baseline on `europe_osm`. Generation dominates
//!   set-up, and the run is a few huge flat launches, so the
//!   per-simulated-thread hot path and pool scaling do the work;
//!   block-sync, shard and serve code are bypassed.
//! - `scc-mesh`: ECL-SCC original config (block 512) on the directed
//!   `star` mesh: hundreds of block-synchronous propagate launches on a
//!   tiny input, so launch/pool/block-sync changes show and a generator
//!   change must not.
//! - `shard-torus`: 4-shard CC on the relabeled `2d-2e20.sym` torus,
//!   the only workload where the shard exchange does the work, with
//!   single-pool ECL-CC on the same graph as the baseline.

use std::sync::Arc;
use std::time::Instant;

use ecl_gpusim::pool::{with_policy, DispatchPolicy};
use ecl_gpusim::{CostKind, Device};
use ecl_graph::{Csr, Fingerprint};
use ecl_prof::Collector;
use ecl_serve::exec::{scaled_config, scaled_device, SCC_MIN_SMS};
use ecl_shard::{Partition, ShardStats};

use crate::metrics::{Values, KERNELS};
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio, spread_frac};
use crate::verify::same_partition;
use crate::{Outcome, Params, Workload};

/// Salt `InputSpec::generate` applies to the seed when it relabels;
/// set-up repeats the two generator steps separately to time them, and
/// must build the same graph.
pub const RELABEL_SALT: u64 = 0x1D;

/// Fewest timed calls a window makes, however long they take.
const MIN_CALLS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Cc,
    Scc,
    ShardCc,
}

/// The fixed shape of one batch workload.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    kind: Kind,
    /// Registered input name.
    pub input: &'static str,
    /// Input (and device) scale.
    pub scale: f64,
    /// Whether the registry relabels this family's natural ids.
    pub relabel: bool,
    min_sms: usize,
    shards: u32,
    /// Set-ups before the window, and after each timed call. The host's
    /// speed drifts over a run; a short set-up sampled only at the start
    /// would read whatever state the run began in.
    setup_reps: usize,
    setup_between: usize,
}

impl Batch {
    /// The batch workload `w` at full or test size.
    ///
    /// # Panics
    /// Panics for `serve-mix`, which is not a batch workload.
    pub fn of(w: Workload, tiny: bool) -> Batch {
        let size = |full: f64, small: f64| if tiny { small } else { full };
        match w {
            Workload::CcRoad => Batch {
                kind: Kind::Cc,
                input: "europe_osm",
                scale: size(0.05, 0.0005),
                relabel: true,
                min_sms: 1,
                shards: 1,
                setup_reps: 3,
                setup_between: 0,
            },
            Workload::SccMesh => Batch {
                kind: Kind::Scc,
                input: "star",
                scale: size(0.03, 0.003),
                relabel: false,
                min_sms: SCC_MIN_SMS,
                shards: 1,
                setup_reps: 25,
                setup_between: 10,
            },
            Workload::ShardTorus => Batch {
                kind: Kind::ShardCc,
                input: "2d-2e20.sym",
                scale: size(0.1, 0.005),
                relabel: true,
                min_sms: 1,
                shards: 4,
                setup_reps: 5,
                setup_between: 1,
            },
            Workload::ServeMix => panic!("serve-mix is not a batch workload"),
        }
    }

    fn device(&self) -> Device {
        scaled_device(self.scale, self.min_sms)
    }
}

/// A generated, set-up input.
pub struct Prepared {
    /// The input graph.
    pub g: Csr,
    part: Option<Partition>,
    family: String,
}

/// One set-up: generate, relabel, fingerprint, partition. Returns the
/// input and the set-up wall time in seconds.
pub fn prepare(b: &Batch, seed: u64, spans: &mut Spans) -> (Prepared, f64) {
    let start = Instant::now();
    let spec = ecl_graphgen::registry::find(b.input).expect("batch inputs are registered");
    let g = spans.time("gen.generate", || spec.generate_natural(b.scale, seed));
    let g = if b.relabel {
        spans.time("gen.relabel", || ecl_graphgen::relabel::relabel_random(&g, seed ^ RELABEL_SALT))
    } else {
        g
    };
    let family = spans.time("graph.fingerprint", || Fingerprint::of(&g).family_key());
    let part =
        (b.shards > 1).then(|| spans.time("shard.partition", || Partition::auto(&g, b.shards)));
    (Prepared { g, part, family }, start.elapsed().as_secs_f64())
}

/// FNV-1a over the CSR arrays: set-up repeats must rebuild the same
/// input from the same seed.
fn csr_checksum(g: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    g.offsets().iter().for_each(|&o| eat(o as u64));
    g.neighbor_array().iter().for_each(|&v| eat(v as u64));
    h
}

/// The reference labels (minimum vertex id per component).
fn reference(b: &Batch, g: &Csr) -> Vec<u32> {
    match b.kind {
        Kind::Scc => ecl_ref::strongly_connected_components(g),
        Kind::Cc | Kind::ShardCc => ecl_ref::connected_components(g),
    }
}

/// What one timed algorithm call produced.
struct Call {
    wall_s: f64,
    modeled: f64,
    ok: bool,
    cost: [u64; 6],
    labels: Option<Vec<u32>>,
    /// `(hook_cas failed, hook_cas attempted, find_smaller, find_calls)`.
    cc: Option<[u64; 4]>,
    /// `(max_tally updated, max_tally attempted, outer iterations)`.
    scc: Option<[u64; 3]>,
    shard: Option<ShardStats>,
}

fn breakdown(devices: &[Device]) -> [u64; 6] {
    let mut cost = [0u64; 6];
    for d in devices {
        for (kind, units) in d.cost().breakdown() {
            let i = CostKind::ALL.iter().position(|k| *k == kind).expect("known cost kind");
            cost[i] += units;
        }
    }
    cost
}

/// One ECL-CC call on the single-pool device.
fn cc_call(b: &Batch, g: &Csr, reference: &[u32], keep: bool, spans: &mut Spans) -> Call {
    let device = b.device();
    let s = spans.open("cc.run");
    let t = Instant::now();
    let r = ecl_cc::run(&device, g, &ecl_cc::CcConfig::baseline());
    let wall_s = t.elapsed().as_secs_f64();
    spans.close(s);
    let ok = spans.time("verify", || same_partition(&r.labels, reference));
    let c = &r.counters;
    Call {
        wall_s,
        modeled: device.modeled_time(),
        ok,
        cost: breakdown(std::slice::from_ref(&device)),
        cc: Some([
            c.hook_cas.cas_failed(),
            c.hook_cas.attempted(),
            c.find_smaller.get(),
            c.find_calls.get(),
        ]),
        scc: None,
        shard: None,
        labels: keep.then_some(r.labels),
    }
}

fn call(b: &Batch, p: &Prepared, reference: &[u32], spans: &mut Spans) -> Call {
    match b.kind {
        Kind::Cc => cc_call(b, &p.g, reference, false, spans),
        Kind::Scc => {
            let device = b.device();
            let s = spans.open("scc.run");
            let t = Instant::now();
            let r = ecl_scc::run(&device, &p.g, &ecl_scc::SccConfig::original());
            let wall_s = t.elapsed().as_secs_f64();
            spans.close(s);
            let ok = spans.time("verify", || same_partition(&r.labels, reference));
            let m = &r.counters.max_tally;
            Call {
                wall_s,
                modeled: device.modeled_time(),
                ok,
                cost: breakdown(std::slice::from_ref(&device)),
                labels: None,
                cc: None,
                scc: Some([m.updated(), m.attempted(), u64::from(r.outer_iterations)]),
                shard: None,
            }
        }
        Kind::ShardCc => {
            let part = p.part.as_ref().expect("shard workloads partition in set-up");
            let devices = ecl_shard::devices_for(scaled_config(b.scale, b.min_sms), b.shards);
            let s = spans.open("shard.run_cc");
            let t = Instant::now();
            let r = ecl_shard::run_cc(&devices, &p.g, part);
            let wall_s = t.elapsed().as_secs_f64();
            spans.close(s);
            let ok = spans.time("verify", || r.labels == reference);
            Call {
                wall_s,
                modeled: r.stats.modeled_time,
                ok,
                cost: breakdown(&devices),
                labels: Some(r.labels),
                cc: None,
                scc: None,
                shard: Some(r.stats),
            }
        }
    }
}

/// Repeated set-ups: their times, and whether each rebuilt the input
/// of the first.
struct Setups {
    seed: u64,
    secs: Vec<f64>,
    first_sum: Option<u64>,
    mismatches: u64,
}

impl Setups {
    fn rep(&mut self, b: &Batch, spans: &mut Spans) -> Prepared {
        let s = spans.open("setup");
        let (p, secs) = prepare(b, self.seed, spans);
        spans.close(s);
        let sum = csr_checksum(&p.g);
        self.mismatches += u64::from(*self.first_sum.get_or_insert(sum) != sum);
        self.secs.push(secs);
        p
    }
}

/// Back-to-back calls until `seconds` have passed (at least `min`),
/// with `b.setup_between` set-ups after each.
fn window(
    b: &Batch,
    p: &Prepared,
    reference: &[u32],
    seconds: f64,
    min: usize,
    setups: &mut Setups,
    spans: &mut Spans,
) -> Vec<Call> {
    let start = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < min || start.elapsed().as_secs_f64() < seconds {
        let mut c = call(b, p, reference, spans);
        c.labels = c.labels.filter(|_| calls.is_empty());
        calls.push(c);
        for _ in 0..b.setup_between {
            setups.rep(b, spans);
        }
    }
    calls
}

/// Runs `f` with a fresh launch collector installed.
fn collected<R>(f: impl FnOnce() -> R) -> (R, Arc<Collector>) {
    let collector = Arc::new(Collector::new());
    ecl_prof::sink::install(Arc::clone(&collector));
    let r = f();
    ecl_prof::sink::uninstall();
    (r, collector)
}

fn walls(calls: &[Call]) -> Vec<f64> {
    calls.iter().map(|c| c.wall_s).collect()
}

fn modeled(calls: &[Call]) -> Vec<f64> {
    calls.iter().map(|c| c.modeled).collect()
}

/// Per-kernel and pool metrics from a collector that saw `calls`
/// calls. Shards' series of one kernel are summed.
fn kernel_values(values: &mut Values, collector: &Collector, calls: usize, pool: bool) {
    let stats = collector.snapshot();
    let per_call = |x: f64| x / calls.max(1) as f64;
    for k in KERNELS {
        let of: Vec<_> = stats.iter().filter(|s| s.name == *k).collect();
        if of.is_empty() {
            continue;
        }
        let wall_ns: u64 = of.iter().map(|s| s.wall_ns.sum).sum();
        let threads: u64 = of.iter().map(|s| s.threads).sum();
        values.insert(format!("sim.kernel.{k}.wall_s"), per_call(wall_ns as f64 / 1e9));
        values
            .insert(format!("sim.kernel.{k}.ns_per_thread"), ratio(wall_ns as f64, threads as f64));
    }
    if !pool {
        return;
    }
    let wall: f64 = stats.iter().map(|s| s.wall_ns.sum as f64).sum();
    let busy: f64 = stats.iter().map(|s| s.utilization * s.wall_ns.sum as f64).sum();
    let wait: u64 = stats.iter().map(|s| s.claim_wait_ns).sum();
    let imb_sum: u64 = stats.iter().map(|s| s.imbalance_milli.sum).sum();
    let imb_count: u64 = stats.iter().map(|s| s.imbalance_milli.count).sum();
    values.insert("sim.launches".into(), per_call(collector.launches() as f64));
    values.insert("pool.claim_wait_s".into(), per_call(wait as f64 / 1e9));
    values.insert("pool.utilization".into(), ratio(busy, wall));
    values.insert("pool.imbalance".into(), ratio(imb_sum as f64, imb_count as f64) / 1000.0);
}

const COST_NAMES: [&str; 6] = [
    "sim.cost.thread_work",
    "sim.cost.idle_check",
    "sim.cost.atomic",
    "sim.cost.block_sync",
    "sim.cost.kernel_launch",
    "sim.cost.host_reconfig",
];

fn cost_values(values: &mut Values, calls: &[Call]) {
    for (i, name) in COST_NAMES.iter().enumerate() {
        let per: Vec<f64> = calls.iter().map(|c| c.cost[i] as f64).collect();
        values.insert((*name).into(), median(&per));
    }
}

/// Useful-outcome ratios of the kernels' own counters, where the calls
/// carry them.
fn counter_values(values: &mut Values, calls: &[Call]) {
    let mut median_of = |name: &str, f: &dyn Fn(&Call) -> Option<f64>| {
        let v: Vec<f64> = calls.iter().filter_map(f).collect();
        if !v.is_empty() {
            values.insert(name.into(), median(&v));
        }
    };
    median_of("cc.hook_cas_fail_frac", &|c| c.cc.map(|x| ratio(x[0] as f64, x[1] as f64)));
    median_of("cc.find_progress_frac", &|c| c.cc.map(|x| ratio(x[2] as f64, x[3] as f64)));
    median_of("scc.max_effective_frac", &|c| c.scc.map(|x| ratio(x[0] as f64, x[1] as f64)));
    median_of("scc.outer_iterations", &|c| c.scc.map(|x| x[2] as f64));
}

/// Runs one batch workload.
pub fn run(params: &Params) -> Outcome {
    let b = Batch::of(params.workload, params.tiny);
    let mut spans = Spans::new(params.trace, params.seed, Instant::now());
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // Set-up, repeated (here and between calls): the median is
    // `setup_s`. Every repeat must rebuild the identical input.
    let mut setups = Setups { seed: params.seed, secs: Vec::new(), first_sum: None, mismatches: 0 };
    let mut prepared: Option<Prepared> = None;
    for _ in 0..b.setup_reps {
        drop(prepared.take());
        prepared = Some(setups.rep(&b, &mut spans));
    }
    let p = prepared.expect("at least one set-up");
    let reference = spans.time("ref", || reference(&b, &p.g));

    // One untimed warm-up call: lazy pool start-up and first-touch
    // page faults are not what a call costs.
    let warm = call(&b, &p, &reference, &mut Spans::new(false, 0, Instant::now()));
    tally(warm.ok);

    let mut values = Values::new();
    let mut info: Vec<(&'static str, String)> = vec![
        ("input", b.input.to_string()),
        ("scale", b.scale.to_string()),
        ("vertices", p.g.num_vertices().to_string()),
        ("arcs", p.g.num_arcs().to_string()),
        ("family", p.family.clone()),
    ];
    let mut off = Spans::new(false, 0, Instant::now());
    let window_s = if params.trace { params.seconds / 2.0 } else { params.seconds };
    let untraced = window(&b, &p, &reference, window_s, MIN_CALLS, &mut setups, &mut off);
    untraced.iter().for_each(|c| tally(c.ok));
    let run_walls = walls(&untraced);
    let run_s = median(&run_walls);
    info.push(("run_samples", untraced.len().to_string()));
    let shown: Vec<String> = run_walls.iter().map(|w| format!("{w:.3}")).collect();
    info.push(("run_walls_s", shown.join(" ")));

    if !params.trace {
        values.insert("setup_s".into(), median(&setups.secs));
        values.insert("run_s".into(), run_s);
        values.insert("modeled_units".into(), median(&modeled(&untraced)));
        values.insert("req_p50_ms".into(), run_s * 1e3);
        values.insert("req_p99_ms".into(), percentile(&run_walls, 0.99) * 1e3);
        values.insert("slo_rps".into(), ratio(1.0, run_s));
    } else {
        let one_worker = with_policy(DispatchPolicy::pooled(1), || {
            window(&b, &p, &reference, params.seconds / 4.0, 1, &mut setups, &mut off)
        });
        one_worker.iter().for_each(|c| tally(c.ok));
        let (traced, collector) =
            collected(|| window(&b, &p, &reference, window_s, MIN_CALLS, &mut setups, &mut spans));
        traced.iter().for_each(|c| tally(c.ok));
        info.push(("traced_samples", traced.len().to_string()));
        kernel_values(&mut values, &collector, traced.len(), true);
        cost_values(&mut values, &traced);
        counter_values(&mut values, &traced);
        if b.kind == Kind::ShardCc {
            // The single-pool baseline gets its own collector so its
            // kernels stay out of the sharded pool figures.
            let (base, collector) = collected(|| {
                (0..traced.len())
                    .map(|_| cc_call(&b, &p.g, &reference, false, &mut spans))
                    .collect::<Vec<_>>()
            });
            base.iter().for_each(|c| tally(c.ok));
            kernel_values(&mut values, &collector, base.len(), false);
            counter_values(&mut values, &base);
            let shard = traced[0].shard.as_ref().expect("sharded calls carry stats");
            let sharded_s = median(&walls(&traced));
            values.insert("shard.cut_frac".into(), shard.cut_ratio());
            values.insert("shard.supersteps".into(), f64::from(shard.supersteps));
            values.insert("shard.exchange_messages".into(), shard.exchange_messages as f64);
            values.insert(
                "shard.superstep_ms".into(),
                ratio(sharded_s * 1e3, f64::from(shard.supersteps)),
            );
            values.insert("shard.vs_single_run_x".into(), ratio(sharded_s, median(&walls(&base))));
            values.insert(
                "shard.vs_single_modeled_x".into(),
                ratio(median(&modeled(&traced)), median(&modeled(&base))),
            );
        }
        let all: Vec<f64> = modeled(&untraced).into_iter().chain(modeled(&traced)).collect();
        values.insert("sim.modeled_spread_frac".into(), spread_frac(&all));
        values.insert("pool.scale_x".into(), ratio(median(&walls(&one_worker)), run_s));
        values.insert("trace.overhead_x".into(), ratio(median(&walls(&traced)), run_s));
        for (metric, span) in [
            ("gen.generate_s", "gen.generate"),
            ("gen.relabel_s", "gen.relabel"),
            ("graph.fingerprint_s", "graph.fingerprint"),
            ("shard.partition_s", "shard.partition"),
        ] {
            let d = spans.durations_s(span);
            if !d.is_empty() {
                values.insert(metric.into(), median(&d));
            }
        }
        values.insert("graph.vertices".into(), p.g.num_vertices() as f64);
        values.insert("graph.arcs".into(), p.g.num_arcs() as f64);
    }

    // Sharded labels must also equal the single-pool kernel's.
    if b.kind == Kind::ShardCc {
        let single = cc_call(&b, &p.g, &reference, true, &mut off);
        tally(single.ok);
        tally(single.labels.is_some() && untraced[0].labels == single.labels);
    }

    info.push(("setup_samples", setups.secs.len().to_string()));
    attempted += setups.secs.len() as u64;
    failed += setups.mismatches;
    if params.trace {
        values.insert("fail_frac".into(), ratio(failed as f64, attempted as f64));
    } else {
        values.insert("peak_rss_mib".into(), crate::stats::peak_rss_mib());
    }
    Outcome { attempted, failed, values, info, spans }
}
