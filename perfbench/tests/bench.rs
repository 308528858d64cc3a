//! The benchmark's own checks: declarations, verification, refusal.

use std::collections::BTreeSet;
use std::process::Command;

use ecl_prof::json::{self, Value};
use ecl_serve::catalog::{CatalogConfig, GraphCatalog};
use ecl_serve::jobs::{Algo, JobSpec};
use perfbench::batch::{self, Batch};
use perfbench::metrics::{self, Decl, END_TO_END, PER_LAYER};
use perfbench::serve_mix;
use perfbench::spans::Spans;
use perfbench::verify::same_partition;
use perfbench::{Params, Workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
    }
    assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
}

fn declared_in(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn as_rows(decls: &[Decl]) -> Vec<(String, String, String)> {
    decls.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
}

#[test]
fn benchmark_json_declares_what_the_program_prints() {
    let doc = benchmark_json();
    assert_eq!(declared_in(&doc, "end_to_end"), as_rows(END_TO_END));
    assert_eq!(declared_in(&doc, "per_layer"), as_rows(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::GATED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for e in doc.get("end_to_end").and_then(Value::as_arr).expect("end_to_end") {
        let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

/// Metric names of a result line, which must be the last JSON line.
fn printed_metrics(line: &str) -> (bool, BTreeSet<String>) {
    let v = json::parse(line).expect("result line parses");
    let Some(Value::Obj(members)) = v.get("metrics") else { panic!("no metrics object") };
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    (correct, members.iter().map(|(k, _)| k.clone()).collect())
}

/// Tiny runs of every workload in both modes: outputs verify, and each
/// prints exactly the metrics its mode declares. Sequential, because
/// the launch collector and the server's sinks are process-global.
#[test]
fn tiny_runs_verify_and_print_the_declared_metrics() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let params = Params { workload: w, seed: 7, seconds: 0.5, trace, tiny: true };
            let out = perfbench::run(&params);
            assert_eq!(out.failed, 0, "{} trace={trace}: {:?}", w.name(), out.info);
            assert!(out.attempted > 0);
            let line = metrics::result_line(trace, out.attempted, out.failed, &out.values);
            let (correct, names) = printed_metrics(&line);
            assert!(correct, "{line}");
            let want: BTreeSet<String> =
                metrics::declared(trace).iter().map(|d| d.name.to_string()).collect();
            assert_eq!(names, want, "{} trace={trace}", w.name());
            if !trace {
                for d in END_TO_END {
                    let v = out.values[d.name];
                    assert!(v > 0.0 && v.is_finite(), "{}: {} = {v}", w.name(), d.name);
                }
            }
        }
    }
}

#[test]
fn setup_rebuilds_the_registry_input() {
    for w in [Workload::CcRoad, Workload::SccMesh, Workload::ShardTorus] {
        let b = Batch::of(w, true);
        let (p, _) = batch::prepare(&b, 11, &mut Spans::new(false, 0, std::time::Instant::now()));
        let spec = ecl_graphgen::registry::find(b.input).expect("registered");
        let g = spec.generate(b.scale, 11);
        assert_eq!(p.g.offsets(), g.offsets(), "{}", w.name());
        assert_eq!(p.g.neighbor_array(), g.neighbor_array(), "{}", w.name());
    }
}

#[test]
fn a_flipped_cc_label_is_a_failure() {
    let spec = ecl_graphgen::registry::find("europe_osm").expect("registered");
    let g = spec.generate(0.0005, 3);
    let reference = ecl_ref::connected_components(&g);
    let device = ecl_serve::exec::scaled_device(0.0005, 1);
    let mut labels = ecl_cc::run(&device, &g, &ecl_cc::CcConfig::baseline()).labels;
    assert!(same_partition(&labels, &reference));
    // Give one non-root vertex its own label: it leaves its component.
    let v = labels.iter().enumerate().rposition(|(v, &l)| l != v as u32).expect("a non-root");
    labels[v] = v as u32;
    assert!(!same_partition(&labels, &reference));
}

#[test]
fn an_altered_served_aggregate_is_a_failure() {
    let catalog = std::sync::Arc::new(GraphCatalog::new(CatalogConfig::default()));
    let spec = JobSpec { scale: 0.002, seed: 5, ..JobSpec::new(Algo::Cc, "internet") };
    let run = ecl_serve::exec::execute(&spec, &catalog).expect("runs");
    let body = |aggs: &[(&str, u64)]| {
        let rows: Vec<String> = aggs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!(
            "{{\"id\": 9, \"state\": \"done\", \"cached\": false, \"result\": {{\"graph_hash\": \
             \"{:016x}\", \"modeled_time\": 1.5, \"aggregates\": {{{}}}}}}}",
            run.graph_hash,
            rows.join(", ")
        )
    };
    let served = serve_mix::parse_served(&body(&run.aggregates)).expect("parses");
    assert!(serve_mix::matches(&served, &run));
    let mut altered = run.aggregates.clone();
    altered[0].1 ^= 1;
    let served = serve_mix::parse_served(&body(&altered)).expect("parses");
    assert!(!serve_mix::matches(&served, &run));
}

#[test]
fn serve_schedule_is_a_function_of_the_seed() {
    let plan = |seed| serve_mix::Planner::new(seed).schedule(500.0, 1.0);
    let (a, b) = (plan(3), plan(3));
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x.due == y.due && x.seed == y.seed && x.algo == y.algo));
    assert!(a.iter().any(|r| r.hot) && a.iter().any(|r| !r.hot));
    assert!(a.iter().all(|r| r.seed < 1 << 53), "seeds must survive a JSON number");
}

#[test]
fn the_serve_ladder_climbs_in_small_steps() {
    let rungs = serve_mix::ladder_rps();
    assert_eq!(rungs[0], serve_mix::BASE_RPS);
    assert!(rungs[1] > 2.0 * rungs[0], "the ladder starts well above the base rate");
    for pair in rungs[1..].windows(2) {
        let step = pair[1] / pair[0];
        assert!(step > 1.0 && step <= 1.15, "a one-rung move must stay small: {step}");
    }
}

#[test]
fn the_slo_rate_is_read_at_the_knee() {
    let step = |rps, pass| (rps, pass);
    // Climb 1000 -> 1331, fail at 1464, then oscillate around the knee.
    let stair = [
        step(1000.0, true),
        step(1100.0, true),
        step(1210.0, true),
        step(1331.0, true),
        step(1464.0, false),
        step(1331.0, true),
        step(1464.0, true),
        step(1611.0, false),
        step(1464.0, true),
    ];
    assert_eq!(serve_mix::staircase_slo(&stair), 1464.0);
    // Never failed: every passing step counts.
    assert_eq!(serve_mix::staircase_slo(&stair[..3]), 1100.0);
    // The only fail is the last step: the climb counts.
    assert_eq!(serve_mix::staircase_slo(&stair[..5]), 1155.0);
    assert_eq!(serve_mix::staircase_slo(&[step(1000.0, false)]), 0.0);
}

#[test]
#[should_panic(expected = "req_p99_ms is inf")]
fn a_non_finite_metric_is_refused() {
    let mut values: metrics::Values =
        END_TO_END.iter().map(|d| (d.name.to_string(), 1.0)).collect();
    values.insert("req_p99_ms".into(), f64::INFINITY);
    metrics::result_line(false, 1, 0, &values);
}

fn bench(args: &[&str], env: Option<(&str, &str)>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for k in perfbench::PINNED_ENV {
        cmd.env_remove(k);
    }
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.output().expect("runs the benchmark binary")
}

#[test]
fn refuses_dispatch_overrides_and_bad_arguments() {
    let args = ["--workload", "scc-mesh", "--seed", "1", "--seconds", "1", "--trace", "0"];
    for k in perfbench::PINNED_ENV {
        let out = bench(&args, Some((k, "1")));
        assert_eq!(out.status.code(), Some(2), "{k}");
        assert!(out.stdout.is_empty(), "{k}: printed a result");
    }
    let out = bench(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
