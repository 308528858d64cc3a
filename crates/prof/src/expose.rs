//! Prometheus-style text exposition of a run manifest.
//!
//! Renders the manifest's kernels, metrics, and distributions in the
//! text format scrapers and `promtool` understand: `# HELP`/`# TYPE`
//! headers, `summary`-style quantile series for sketches, and a
//! `ecl_run_info` gauge carrying the run identity as labels.

use std::fmt::Write as _;

use ecl_profiling::SketchSnapshot;

use crate::json;
use crate::manifest::Manifest;

/// Escapes a Prometheus label value (backslash, quote, newline).
fn label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Turns an arbitrary metric/distribution name into a valid Prometheus
/// metric-name suffix: `[a-zA-Z0-9_]`, everything else folded to `_`.
fn sanitize(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn write_sketch(out: &mut String, metric: &str, labels: &str, s: &SketchSnapshot) {
    for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
        let sep = if labels.is_empty() { "" } else { "," };
        let _ = writeln!(out, "{metric}{{{labels}{sep}quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", s.sum);
    let _ = writeln!(out, "{metric}_count{{{labels}}} {}", s.count);
}

/// Renders `manifest` in the Prometheus text exposition format.
pub fn to_prometheus(manifest: &Manifest) -> String {
    let mut out = String::new();

    out.push_str("# HELP ecl_run_info Run identity (value is always 1).\n");
    out.push_str("# TYPE ecl_run_info gauge\n");
    let mut info = vec![
        ("schema".to_string(), manifest.schema.clone()),
        ("git_sha".to_string(), manifest.git_sha.clone()),
        ("dispatch_mode".to_string(), manifest.dispatch.mode.clone()),
        ("workers".to_string(), manifest.dispatch.workers.to_string()),
    ];
    info.extend(manifest.context.iter().cloned());
    let pairs: Vec<String> =
        info.iter().map(|(k, v)| format!("{}=\"{}\"", sanitize(k), label(v))).collect();
    let _ = writeln!(out, "ecl_run_info{{{}}} 1", pairs.join(","));

    for m in &manifest.metrics {
        let name = format!("ecl_{}", sanitize(&m.name));
        let _ = writeln!(
            out,
            "# HELP {name} {} ({}, {} is better).",
            m.name,
            if m.unit.is_empty() { "unitless" } else { &m.unit },
            m.direction.name()
        );
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (i, v) in m.samples.iter().enumerate() {
            let _ = writeln!(out, "{name}{{repeat=\"{i}\"}} {}", json::num(*v));
        }
    }

    if !manifest.kernels.is_empty() {
        // The shard label only appears once a manifest actually holds
        // multi-pool samples: single-pool manifests (every kernel on
        // shard 0) keep their historical label set, so existing
        // scrapers and dashboards see byte-identical series.
        let sharded = manifest.kernels.iter().any(|k| k.shard != 0);
        let kernel_labels = |k: &crate::collector::KernelStats| {
            if sharded {
                format!("kernel=\"{}\",shard=\"{}\"", label(&k.name), k.shard)
            } else {
                format!("kernel=\"{}\"", label(&k.name))
            }
        };
        out.push_str("# HELP ecl_kernel_wall_ns Per-launch wall time by kernel.\n");
        out.push_str("# TYPE ecl_kernel_wall_ns summary\n");
        for k in &manifest.kernels {
            write_sketch(&mut out, "ecl_kernel_wall_ns", &kernel_labels(k), &k.wall_ns);
        }
        out.push_str("# HELP ecl_kernel_imbalance_milli Per-launch load-imbalance factor x1000.\n");
        out.push_str("# TYPE ecl_kernel_imbalance_milli summary\n");
        for k in &manifest.kernels {
            write_sketch(
                &mut out,
                "ecl_kernel_imbalance_milli",
                &kernel_labels(k),
                &k.imbalance_milli,
            );
        }
        out.push_str("# HELP ecl_kernel_utilization Mean worker utilization by kernel.\n");
        out.push_str("# TYPE ecl_kernel_utilization gauge\n");
        for k in &manifest.kernels {
            let _ = writeln!(
                out,
                "ecl_kernel_utilization{{{}}} {}",
                kernel_labels(k),
                json::num(k.utilization)
            );
        }
        out.push_str("# HELP ecl_kernel_launches_total Launches by kernel.\n");
        out.push_str("# TYPE ecl_kernel_launches_total counter\n");
        for k in &manifest.kernels {
            let _ =
                writeln!(out, "ecl_kernel_launches_total{{{}}} {}", kernel_labels(k), k.launches);
        }
        out.push_str("# HELP ecl_kernel_claim_wait_ns_total Ticket-claim wait by kernel.\n");
        out.push_str("# TYPE ecl_kernel_claim_wait_ns_total counter\n");
        for k in &manifest.kernels {
            let _ = writeln!(
                out,
                "ecl_kernel_claim_wait_ns_total{{{}}} {}",
                kernel_labels(k),
                k.claim_wait_ns
            );
        }
    }

    if !manifest.distributions.is_empty() {
        out.push_str("# HELP ecl_distribution Algorithm counter distributions.\n");
        out.push_str("# TYPE ecl_distribution summary\n");
        for (name, sketch) in &manifest.distributions {
            write_sketch(
                &mut out,
                "ecl_distribution",
                &format!("name=\"{}\"", label(name)),
                sketch,
            );
        }
    }

    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::collector::KernelStats;
    use crate::manifest::{Direction, DispatchInfo, Metric, SCHEMA};
    use ecl_profiling::LogSketch;

    fn demo() -> Manifest {
        let sketch = LogSketch::new();
        sketch.record_values(&[5, 9, 1000]);
        Manifest {
            schema: SCHEMA.to_string(),
            git_sha: "abc".into(),
            dispatch: DispatchInfo { mode: "pool".into(), workers: 8, grain: None },
            context: vec![("algo".into(), "mis".into())],
            metrics: vec![Metric {
                name: "wall_seconds".into(),
                unit: "s".into(),
                direction: Direction::Lower,
                samples: vec![0.25, 0.5],
            }],
            kernels: vec![KernelStats {
                name: "select/flip\"x".into(),
                shape: "flat".into(),
                shard: 0,
                launches: 3,
                blocks: 24,
                threads: 768,
                wall_ns: sketch.snapshot(),
                imbalance_milli: sketch.snapshot(),
                utilization: 0.75,
                claim_wait_ns: 999,
                claims: 12,
                cost: Default::default(),
            }],
            distributions: vec![("mis/iterations".into(), sketch.snapshot())],
        }
    }

    #[test]
    fn exposition_contains_all_sections() {
        let text = to_prometheus(&demo());
        assert!(text.contains("ecl_run_info{schema=\"ecl-prof/1\",git_sha=\"abc\""));
        assert!(text.contains("ecl_wall_seconds{repeat=\"0\"} 0.25"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("ecl_kernel_utilization{kernel=\"select/flip\\\"x\"} 0.75"));
        assert!(text.contains("ecl_kernel_launches_total{kernel=\"select/flip\\\"x\"} 3"));
        assert!(text.contains("ecl_distribution{name=\"mis/iterations\",quantile=\"0.99\"}"));
        assert!(text.contains("ecl_kernel_wall_ns_count{kernel=\"select/flip\\\"x\"} 3"));
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize("kernel/init wall-ns"), "kernel_init_wall_ns");
        assert_eq!(sanitize("9lives"), "_9lives");
        // Every emitted line is either a comment or `name{labels} value`.
        for line in to_prometheus(&demo()).lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name_end = line.find('{').unwrap_or(line.len());
            assert!(
                line[..name_end].chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in line: {line}"
            );
        }
    }
}
