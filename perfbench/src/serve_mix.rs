//! serve-mix: an open loop of cc/mis/gc jobs on `internet` against an
//! in-process `Server`, over at most `nproc` keep-alive connections.
//!
//! Most requests (60%) repeat a hot (algo, seed) key, so they are
//! result-cache reads; the rest carry fresh seeds, so each is a catalog
//! miss that generates the graph, runs the kernels and then inserts into
//! (and, with the small cache sizes below, evicts from) both caches.
//! This is the only workload where the HTTP front end, reactor,
//! scheduler, result cache and catalog matter.
//!
//! The load generator sends each request at its scheduled (Poisson) due time
//! and times it from that due time, not from when it was sent, so a
//! stall is charged to every request it delays. It reports how late it
//! sent. Latencies are kept exactly, one per request.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecl_prof::json::{self, Value};
use ecl_serve::catalog::{CatalogConfig, GraphCatalog};
use ecl_serve::jobs::{Algo, JobSpec};
use ecl_serve::loadgen::{http_call, HttpClient};
use ecl_serve::server::{ServeConfig, Server};

use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mib, percentile, ratio};
use crate::{Outcome, Params};

/// Registered graph every job runs on.
const GRAPH: &str = "internet";
/// Job algorithms, drawn uniformly.
const ALGOS: [Algo; 3] = [Algo::Cc, Algo::Mis, Algo::Gc];
/// Share of requests that repeat a hot key.
const HOT_FRAC: f64 = 0.6;
/// Base request rate (req/s), run for half the window in
/// `STAIR_STEPS` segments, one before each staircase step:
/// `req_p50_ms`, `req_p99_ms` and `run_s` are measured at it. It sits
/// well below the mixed capacity of a 2-core host.
pub const BASE_RPS: f64 = 125.0;
/// The SLO ladder above the base: `LADDER_RUNGS` rates from
/// `LADDER_FROM` req/s, each `LADDER_STEP` times the one before, so
/// that it spans the knee of a 2-core host and a one-rung move stays
/// small.
const LADDER_FROM: f64 = 1000.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: usize = 11;
/// The staircase on the ladder: `STAIR_STEPS` rung runs, the first on
/// rung `STAIR_START` (1,464 req/s, below the knee of a 2-core host),
/// each next one a rung up after a pass and a rung down after a fail.
const STAIR_START: usize = 4;
const STAIR_STEPS: usize = 12;
/// Share of the measured window each staircase step runs.
const RUNG_SHARE: f64 = 0.04;
/// Latency limit on a rung's p99 (ms).
pub const LIMIT_MS: f64 = 50.0;
/// Server start + warm-up repeats before the window, and again after
/// it (the host's speed drifts over a run); the median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Fresh-seed jobs in each warm-up (besides the hot keys).
const WARM_FRESH: u64 = 8;
/// Result-cache entries and catalog bytes: small enough that the
/// fresh-seed half keeps evicting from both.
const RESULT_ENTRIES: usize = 64;
const CATALOG_BYTES: usize = 1 << 20;
/// Seeds are sent as JSON numbers (f64): keep them below 2^53.
const FRESH_BASE: u64 = 1 << 50;

/// The request rates of the ladder, base first.
pub fn ladder_rps() -> Vec<f64> {
    let mut rungs = vec![BASE_RPS];
    rungs.extend((0..LADDER_RUNGS as i32).map(|i| LADDER_FROM * LADDER_STEP.powi(i)));
    rungs
}

fn scale(tiny: bool) -> f64 {
    if tiny {
        0.002
    } else {
        0.01
    }
}

/// splitmix64: the schedule's random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    /// Due time from the start of its rung.
    pub due: Duration,
    /// Algorithm.
    pub algo: Algo,
    /// Job seed.
    pub seed: u64,
    /// Whether the key is one of the hot ones.
    pub hot: bool,
}

/// Builds the inputs from the benchmark seed: the hot seed and a
/// fresh-seed counter shared by every schedule of the run.
pub struct Planner {
    rng: Rng,
    hot_seed: u64,
    fresh: u64,
}

impl Planner {
    /// A planner for benchmark seed `seed`.
    pub fn new(seed: u64) -> Planner {
        let hot_seed = seed & 0xFF_FFFF;
        Planner { rng: Rng(seed ^ 0x5EED_5E12), hot_seed, fresh: FRESH_BASE + (hot_seed << 24) }
    }

    fn fresh_seed(&mut self) -> u64 {
        self.fresh += 1;
        self.fresh
    }

    /// The hot keys: one per algorithm.
    pub fn hot_keys(&self) -> Vec<(Algo, u64)> {
        ALGOS.iter().map(|&a| (a, self.hot_seed)).collect()
    }

    /// `n` fresh-seed keys, cycling through the algorithms.
    pub fn fresh_keys(&mut self, n: u64) -> Vec<(Algo, u64)> {
        (0..n).map(|i| (ALGOS[i as usize % ALGOS.len()], self.fresh_seed())).collect()
    }

    /// Poisson arrivals at `rps` for `seconds`.
    pub fn schedule(&mut self, rps: f64, seconds: f64) -> Vec<Planned> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -self.rng.unit().ln() / rps;
            if t >= seconds {
                return out;
            }
            let algo = ALGOS[(self.rng.next() % ALGOS.len() as u64) as usize];
            let hot = self.rng.unit() <= HOT_FRAC;
            let seed = if hot { self.hot_seed } else { self.fresh_seed() };
            out.push(Planned { due: Duration::from_secs_f64(t), algo, seed, hot });
        }
    }
}

fn job_body(algo: Algo, seed: u64, scale: f64) -> String {
    format!(
        "{{\"algo\": \"{}\", \"graph\": \"{GRAPH}\", \"scale\": {scale}, \"seed\": {seed}, \
         \"wait_ms\": 60000}}",
        algo.name()
    )
}

/// A served job's result, as the client saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct Served {
    /// Server job id.
    pub job: u64,
    /// Whether the result cache answered.
    pub cached: bool,
    /// Content hash of the input (hex, as served).
    pub graph_hash: String,
    /// Modeled time (not compared: it is not a pure function of the
    /// input on more than one core).
    pub modeled: f64,
    /// Aggregates, parsed exactly as integers.
    pub aggregates: Vec<(String, u64)>,
    /// Server-side run time of the job (ms).
    pub run_ms: f64,
}

/// Parses a `POST /v1/jobs` body of a finished job. Aggregates are
/// read from the text as integers: checksums do not survive an f64.
pub fn parse_served(body: &str) -> Option<Served> {
    let v = json::parse(body).ok()?;
    if v.get("state")?.as_str()? != "done" {
        return None;
    }
    let result = v.get("result")?;
    let start = body.find("\"aggregates\": {")? + "\"aggregates\": {".len();
    let end = start + body[start..].find('}')?;
    let mut aggregates = Vec::new();
    for pair in body[start..end].split(',').filter(|p| !p.trim().is_empty()) {
        let (k, val) = pair.split_once(':')?;
        aggregates.push((k.trim().trim_matches('"').to_string(), val.trim().parse().ok()?));
    }
    Some(Served {
        job: v.get("id")?.as_f64()? as u64,
        cached: matches!(v.get("cached"), Some(Value::Bool(true))),
        graph_hash: result.get("graph_hash")?.as_str()?.to_string(),
        modeled: result.get("modeled_time")?.as_f64()?,
        aggregates,
        run_ms: v.get("run_ms").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

/// Aggregates that count the run's own iterations rather than describe
/// its output. Like modeled time they depend on the dispatch
/// interleaving on more than one core, so the output check skips them
/// and `serve.rounds_drift_frac` reports how often they differ.
const SCHEDULE_DEPENDENT: [&str; 1] = ["rounds"];

fn aggregate_agrees(served: &Served, name: &str, value: u64) -> bool {
    served.aggregates.iter().any(|(k, v)| k == name && *v == value)
}

/// Whether a served result equals an in-process run of the same spec:
/// same input hash and the same output aggregates (solution counts and
/// checksums; modeled time and [`SCHEDULE_DEPENDENT`] excluded).
pub fn matches(served: &Served, expected: &ecl_serve::exec::RunOutput) -> bool {
    served.graph_hash == format!("{:016x}", expected.graph_hash)
        && served.aggregates.len() == expected.aggregates.len()
        && expected
            .aggregates
            .iter()
            .filter(|(k, _)| !SCHEDULE_DEPENDENT.contains(k))
            .all(|(k, v)| aggregate_agrees(served, k, *v))
}

/// Whether the schedule-dependent aggregates also agree.
fn rounds_agree(served: &Served, expected: &ecl_serve::exec::RunOutput) -> bool {
    expected
        .aggregates
        .iter()
        .filter(|(k, _)| SCHEDULE_DEPENDENT.contains(k))
        .all(|(k, v)| aggregate_agrees(served, k, *v))
}

/// Server-side timing of one request from `/v1/jobs/:id/trace`.
#[derive(Clone, Copy, Debug, Default)]
struct ServerTrace {
    queue_ns: u64,
    run_ns: u64,
    total_ns: u64,
    /// `cache.probe` + `graph.resolve` phases: the catalog resolve
    /// (a cold graph is generated in the probe).
    resolve_ns: u64,
}

fn parse_trace(body: &str) -> Option<ServerTrace> {
    let v = json::parse(body).ok()?;
    let s = v.get("summary")?;
    let ns = |k: &str| s.get(k).and_then(Value::as_f64).map(|x| x as u64);
    let resolve_ns = v
        .get("spans")?
        .as_arr()?
        .iter()
        .filter(|sp| {
            matches!(sp.get("name").and_then(Value::as_str), Some("cache.probe" | "graph.resolve"))
        })
        .filter_map(|sp| sp.get("wall_ns").and_then(Value::as_f64))
        .sum::<f64>() as u64;
    Some(ServerTrace {
        queue_ns: ns("queue_ns")?,
        run_ns: ns("run_ns")?,
        total_ns: ns("total_ns")?,
        resolve_ns,
    })
}

/// One request's outcome.
#[derive(Clone, Debug)]
struct Sample {
    planned: Planned,
    /// Send time minus due time.
    late: Duration,
    /// Completion minus due time.
    latency: Duration,
    /// Completion minus send time.
    exchange: Duration,
    served: Option<Served>,
    /// Why `served` is empty: transport error or status and body.
    error: Option<String>,
    trace: Option<ServerTrace>,
}

/// Sends `plan` over `conns` keep-alive connections, each request at
/// its due time. With `trace`, each finished job's server trace is
/// fetched right after its response.
fn drive(addr: &str, plan: &[Planned], conns: usize, scale: f64, spans: &mut Spans) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<(Vec<Sample>, Spans)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                let mut spans = spans.fork();
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr, true);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&planned) = plan.get(i) else { break };
                        let due = start + planned.due;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let body = job_body(planned.algo, planned.seed, scale);
                        let span = spans.open("serve.http");
                        let response = client.call("POST", "/v1/jobs", Some(&body));
                        let done = Instant::now();
                        spans.close_req(span, client.last_req_id());
                        let (served, error) = match response {
                            Ok((200, text)) => match parse_served(&text) {
                                Some(s) => (Some(s), None),
                                None => (None, Some(format!("200 {text}"))),
                            },
                            Ok((status, text)) => (None, Some(format!("{status} {text}"))),
                            Err(e) => (None, Some(e)),
                        };
                        let trace = match (&served, spans.enabled()) {
                            (Some(s), true) => {
                                let span = spans.open("serve.trace_fetch");
                                let path = format!("/v1/jobs/{}/trace", s.job);
                                let t = client.call("GET", &path, None).ok();
                                spans.close(span);
                                t.and_then(|(st, b)| (st == 200).then(|| parse_trace(&b)).flatten())
                            }
                            _ => None,
                        };
                        out.push(Sample {
                            planned,
                            late: sent.saturating_duration_since(due),
                            latency: done.saturating_duration_since(due),
                            exchange: done - sent,
                            served,
                            error,
                            trace,
                        });
                    }
                    (out, spans)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load generator thread panicked")).collect()
    });
    let mut samples = Vec::with_capacity(plan.len());
    for (s, thread_spans) in results {
        samples.extend(s);
        spans.absorb(thread_spans);
    }
    samples
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies in ms; a failed request reads as infinitely late, so it
/// misses any limit.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| if s.served.is_some() { ms(s.latency) } else { f64::INFINITY }).collect()
}

/// Latencies in ms of the answered requests; the failed ones are
/// counted in the result's `failed`.
fn answered_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.served.is_some()).map(|s| ms(s.latency)).collect()
}

/// Whether a rung met the limit: every request answered, p99 within
/// [`LIMIT_MS`], and no growing backlog (the last tenth of the rung was
/// still sent within the limit of its due time).
fn rung_passes(samples: &[Sample]) -> bool {
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by_key(|s| s.planned.due);
    let tail = &by_due[by_due.len() - by_due.len().div_ceil(10)..];
    let tail_late: Vec<f64> = tail.iter().map(|s| ms(s.late)).collect();
    !samples.is_empty()
        && samples.iter().all(|s| s.served.is_some())
        && percentile(&latencies_ms(samples), 0.99) <= LIMIT_MS
        && median(&tail_late) <= LIMIT_MS
}

/// One rung's line in the environment record.
fn describe(rps: f64, rung: &[Sample], pass: bool) -> String {
    let lat = latencies_ms(rung);
    format!(
        "{rps:.0}/s p50 {:.3}ms p99 {:.2}ms {}",
        percentile(&lat, 0.5),
        percentile(&lat, 0.99),
        if pass { "pass" } else { "fail" }
    )
}

/// Answered requests per second over a rung (due of the first request
/// to the last completion).
fn achieved_rps(samples: &[Sample]) -> f64 {
    let end = samples.iter().map(|s| s.planned.due + s.latency).max().unwrap_or_default();
    let ok = samples.iter().filter(|s| s.served.is_some()).count();
    ratio(ok as f64, end.as_secs_f64())
}

/// The SLO rate of a staircase, from each step's achieved rate and
/// whether it passed: the median rate of the passing steps after the
/// first fail (before it the staircase is still climbing to the knee),
/// or of every passing step when none passes after a fail. 0 when no
/// step passed.
pub fn staircase_slo(steps: &[(f64, bool)]) -> f64 {
    let first_fail = steps.iter().position(|&(_, pass)| !pass).unwrap_or(steps.len());
    let passing = |from: usize| -> Vec<f64> {
        steps[from..].iter().filter(|&&(_, pass)| pass).map(|&(rps, _)| rps).collect()
    };
    let at_knee = passing(first_fail);
    median(&if at_knee.is_empty() { passing(0) } else { at_knee })
}

/// Prometheus counter value from a `/metrics` body (0 when absent).
fn prom(body: &str, name: &str) -> f64 {
    body.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

fn metrics_body(addr: &str) -> String {
    match http_call(addr, "GET", "/metrics", None) {
        Ok((200, body)) => body,
        _ => String::new(),
    }
}

fn server_config() -> ServeConfig {
    ServeConfig {
        catalog: CatalogConfig { cache_bytes: CATALOG_BYTES, ..CatalogConfig::default() },
        result_entries: RESULT_ENTRIES,
        ..ServeConfig::default()
    }
}

/// Runs serve-mix.
pub fn run(params: &Params) -> Outcome {
    let scale = scale(params.tiny);
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get()).max(1);
    let mut spans = Spans::new(params.trace, params.seed, Instant::now());
    let mut planner = Planner::new(params.seed);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut all: Vec<Sample> = Vec::new();

    // Set-up, repeated: start the server and warm it (hot keys plus a
    // few fresh ones), so the window starts with the hot keys cached.
    let mut setup = Vec::with_capacity(2 * SETUP_REPS);
    let mut set_up = |planner: &mut Planner, spans: &mut Spans, all: &mut Vec<Sample>| {
        let span = spans.open("setup");
        let t = Instant::now();
        let s = spans
            .time("serve.start", || Server::start(server_config()))
            .expect("server binds an ephemeral localhost port");
        let addr = s.addr().to_string();
        let mut keys = planner.hot_keys();
        keys.extend(planner.fresh_keys(WARM_FRESH));
        let warm: Vec<Planned> = keys
            .into_iter()
            .map(|(algo, seed)| Planned { due: Duration::ZERO, algo, seed, hot: false })
            .collect();
        all.extend(drive(&addr, &warm, 1, scale, spans));
        setup.push(t.elapsed().as_secs_f64());
        spans.close(span);
        s
    };
    // Each server is shut down before the next starts: its shutdown
    // uninstalls the process-global sinks a start installs.
    for _ in 1..SETUP_REPS {
        set_up(&mut planner, &mut spans, &mut all).shutdown();
    }
    let server = set_up(&mut planner, &mut spans, &mut all);
    let addr = server.addr().to_string();

    let mut values = Values::new();
    let mut info: Vec<(&'static str, String)> = vec![
        ("graph", GRAPH.to_string()),
        ("scale", scale.to_string()),
        ("connections", conns.to_string()),
        ("ladder_rps", format!("{:.0?}", ladder_rps())),
        ("limit_ms", LIMIT_MS.to_string()),
    ];
    let mut off = Spans::new(false, 0, Instant::now());
    let base_seconds = params.seconds / 2.0;

    if !params.trace {
        // The base rate runs in segments and the SLO staircase in steps,
        // alternating, so both sample the whole run: the host's speed
        // changes in phases of seconds.
        let ladder = ladder_rps();
        let segment_seconds = base_seconds / STAIR_STEPS as f64;
        let mut segments: Vec<Vec<Sample>> = Vec::with_capacity(STAIR_STEPS);
        let mut steps = Vec::with_capacity(STAIR_STEPS);
        let mut outcomes = Vec::with_capacity(STAIR_STEPS);
        let mut rung = STAIR_START;
        for _ in 0..STAIR_STEPS {
            let plan = planner.schedule(BASE_RPS, segment_seconds);
            segments.push(drive(&addr, &plan, conns, scale, &mut off));
            let rps = ladder[1 + rung];
            let plan = planner.schedule(rps, params.seconds * RUNG_SHARE);
            let step = drive(&addr, &plan, conns, scale, &mut off);
            let pass = rung_passes(&step);
            steps.push(describe(rps, &step, pass));
            outcomes.push((achieved_rps(&step), pass));
            rung = if pass { (rung + 1).min(LADDER_RUNGS - 1) } else { rung.saturating_sub(1) };
            all.extend(step);
        }
        info.push(("steps", steps.join(", ")));
        // A miss is one algorithm call (resolve, generate, kernels) as
        // timed by the server's worker, at the base rate: near the knee
        // the load generator competes with the worker for the cores.
        let miss_runs: Vec<f64> = segments
            .iter()
            .flatten()
            .filter_map(|s| s.served.as_ref())
            .filter(|s| !s.cached)
            .map(|s| s.run_ms / 1e3)
            .collect();
        // The latency percentiles are medians over the segments of each
        // segment's percentile, so a slow phase of the host moves them
        // only when it covers most of the run.
        let segment_lat: Vec<Vec<f64>> = segments.iter().map(|s| answered_ms(s)).collect();
        let over_segments = |q: f64| {
            let per_segment: Vec<f64> =
                segment_lat.iter().filter(|l| !l.is_empty()).map(|l| percentile(l, q)).collect();
            median(&per_segment)
        };
        let pooled = segment_lat.concat();
        info.push(("req_samples", pooled.len().to_string()));
        info.push(("req_segments", segments.len().to_string()));
        info.push(("req_p99_pooled_ms", percentile(&pooled, 0.99).to_string()));
        info.push(("run_samples", miss_runs.len().to_string()));
        values.insert("run_s".into(), median(&miss_runs));
        values.insert("req_p50_ms".into(), over_segments(0.5));
        values.insert("req_p99_ms".into(), over_segments(0.99));
        values.insert("slo_rps".into(), staircase_slo(&outcomes));
        all.extend(segments.into_iter().flatten());
    } else {
        // Untraced, then traced, at the base rate.
        let base = drive(&addr, &planner.schedule(BASE_RPS, base_seconds), conns, scale, &mut off);
        let before = metrics_body(&addr);
        let plan = planner.schedule(BASE_RPS, base_seconds);
        let traced = drive(&addr, &plan, conns, scale, &mut spans);
        let after = metrics_body(&addr);
        let delta = |name: &str| prom(&after, name) - prom(&before, name);
        let (hits, misses) = (
            delta("ecl_serve_result_cache_hits_total"),
            delta("ecl_serve_result_cache_misses_total"),
        );
        values.insert("cache.hit_frac".into(), ratio(hits, hits + misses));
        let (hits, misses) = (
            delta("ecl_serve_graph_cache_hits_total"),
            delta("ecl_serve_graph_cache_misses_total"),
        );
        values.insert("catalog.hit_frac".into(), ratio(hits, hits + misses));
        values.insert("catalog.evictions".into(), delta("ecl_serve_graph_cache_evictions_total"));

        let traces: Vec<(&Sample, ServerTrace)> =
            traced.iter().filter_map(|s| s.trace.map(|t| (s, t))).collect();
        let pick = |f: &dyn Fn(&(&Sample, ServerTrace)) -> Option<f64>| -> Vec<f64> {
            traces.iter().filter_map(f).collect()
        };
        let queue = pick(&|(_, t)| Some(t.queue_ns as f64 / 1e6));
        values.insert("serve.queue_ms_p50".into(), percentile(&queue, 0.5));
        values.insert("serve.queue_ms_p99".into(), percentile(&queue, 0.99));
        let cold = |(s, _): &(&Sample, ServerTrace)| s.served.as_ref().is_some_and(|v| !v.cached);
        let resolve = pick(&|x| cold(x).then(|| x.1.resolve_ns as f64 / 1e6));
        values.insert("serve.resolve_ms_p99".into(), percentile(&resolve, 0.99));
        let run = pick(&|(_, t)| Some(t.run_ns.saturating_sub(t.resolve_ns) as f64 / 1e6));
        values.insert("serve.run_ms_p50".into(), percentile(&run, 0.5));
        let unattributed =
            pick(&|(s, t)| Some((s.exchange.as_nanos() as f64 - t.total_ns as f64) / 1e6));
        values.insert("serve.unattributed_ms_p50".into(), percentile(&unattributed, 0.5));
        let split = |cached: bool| -> Vec<f64> {
            traced
                .iter()
                .filter(|s| s.served.as_ref().is_some_and(|v| v.cached == cached))
                .map(|s| ms(s.latency))
                .collect()
        };
        values.insert("serve.hit_p50_ms".into(), percentile(&split(true), 0.5));
        values.insert("serve.miss_p50_ms".into(), percentile(&split(false), 0.5));
        let late: Vec<f64> = traced.iter().map(|s| ms(s.late)).collect();
        values.insert("loadgen.late_p99_ms".into(), percentile(&late, 0.99));
        values.insert(
            "trace.overhead_x".into(),
            ratio(percentile(&answered_ms(&traced), 0.5), percentile(&answered_ms(&base), 0.5)),
        );
        info.push(("traced_samples", traced.len().to_string()));
        info.push(("traces_fetched", traces.len().to_string()));
        all.extend(base);
        all.extend(traced);
    }
    server.shutdown();
    for _ in 0..SETUP_REPS {
        set_up(&mut planner, &mut spans, &mut all).shutdown();
    }
    info.push(("setup_samples", setup.len().to_string()));
    if !params.trace {
        values.insert("setup_s".into(), median(&setup));
    }
    // The server and load generator's high-water mark, before the
    // verification below allocates its own.
    let peak_rss = peak_rss_mib();

    // Verification, outside every timed window: each distinct key is
    // re-run in process; every response carrying it must match. The
    // keys are distinct, so the catalog keeps only the latest graph.
    let catalog =
        Arc::new(GraphCatalog::new(CatalogConfig { cache_bytes: 0, ..CatalogConfig::default() }));
    let mut expected: BTreeMap<(&'static str, u64), Option<ecl_serve::exec::RunOutput>> =
        BTreeMap::new();
    let mut modeled = Vec::new();
    let mut drifted = 0u64;
    for s in &all {
        attempted += 1;
        let Some(served) = &s.served else {
            failed += 1;
            if failed <= 3 {
                eprintln!("perfbench: request failed: {}", s.error.as_deref().unwrap_or("?"));
            }
            continue;
        };
        let key = (s.planned.algo.name(), s.planned.seed);
        let want = expected.entry(key).or_insert_with(|| {
            let spec = JobSpec { scale, seed: key.1, ..JobSpec::new(s.planned.algo, GRAPH) };
            let out = spans.time("verify", || ecl_serve::exec::execute(&spec, &catalog)).ok();
            modeled.push(served.modeled);
            drifted += u64::from(out.as_ref().is_some_and(|w| !rounds_agree(served, w)));
            out
        });
        if !want.as_ref().is_some_and(|w| matches(served, w)) {
            failed += 1;
            if failed <= 3 {
                eprintln!("perfbench: {key:?} served {served:?}, in-process run gave {want:?}");
            }
        }
    }
    info.push(("distinct_keys", expected.len().to_string()));
    if params.trace {
        values.insert("fail_frac".into(), ratio(failed as f64, attempted as f64));
        values
            .insert("serve.rounds_drift_frac".into(), ratio(drifted as f64, expected.len() as f64));
    } else {
        values.insert("modeled_units".into(), median(&modeled));
        values.insert("peak_rss_mib".into(), peak_rss);
    }
    Outcome { attempted, failed, values, info, spans }
}
