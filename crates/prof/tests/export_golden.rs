//! Byte-for-byte goldens of the two `ecl-prof` export formats: the
//! `ecl-prof/1` manifest JSON and its Prometheus exposition, rendered
//! from a collector fed a fixed list of synthetic launch samples.
//!
//! The goldens under `tests/golden/` pin what dashboards, scrapers and
//! the regression gate read; a change to the collector or the
//! renderers that moves a byte fails here. Regenerating them is a
//! deliberate act: rerun the rendering and review the diff.

#![allow(clippy::unwrap_used)]

use ecl_prof::{to_prometheus, Collector, DispatchInfo, LaunchSample, WorkerStat};
use ecl_prof::{Direction, Manifest, Metric, SCHEMA};
use ecl_profiling::LogSketch;
use ecl_serve::metrics::lint_exposition;

/// One synthetic launch; `workers` are `(blocks, claims, busy_ns)`.
fn sample(
    kernel: &str,
    shape: &'static str,
    shard: u32,
    grid: (u64, u64),
    wall_ns: u64,
    workers: &[(u64, u64, u64)],
) -> LaunchSample {
    LaunchSample {
        kernel: kernel.to_string(),
        shape,
        blocks: grid.0,
        block_size: grid.1,
        wall_ns,
        workers: workers
            .iter()
            .map(|&(blocks, claims, busy_ns)| WorkerStat { blocks, claims, busy_ns })
            .collect(),
        req: 0,
        shard,
        cost: [grid.0 * grid.1, 3, 1, 0, 1, 0],
    }
}

/// A fixed launch sequence: repeated kernels, an empty grid, uneven
/// workers and, when `sharded`, a second shard.
fn samples(sharded: bool) -> Vec<LaunchSample> {
    let other = if sharded { 3 } else { 0 };
    vec![
        sample("cc.init", "flat", 0, (40, 256), 91_000, &[(24, 6, 70_000), (16, 4, 52_000)]),
        sample("cc.compute-low", "flat", 0, (37, 256), 1_250_000, &[(37, 9, 1_190_000)]),
        sample("cc.compute-medium", "warps", 0, (0, 256), 800, &[]),
        sample("cc.init", "flat", other, (40, 256), 77_500, &[(20, 5, 60_000), (20, 5, 61_000)]),
        sample(
            "scc.propagate",
            "blocks",
            other,
            (12, 512),
            3_400_000,
            &[(9, 3, 3_300_000), (3, 1, 900_000)],
        ),
        sample("cc.finalize", "flat", 0, (40, 256), 150_250, &[(40, 10, 149_000)]),
    ]
}

fn manifest(sharded: bool) -> Manifest {
    let collector = Collector::new();
    for s in samples(sharded) {
        collector.record(&s);
    }
    let sketch = LogSketch::new();
    for v in [1, 2, 2, 3, 5, 8, 13, 21, 34, 55] {
        sketch.record(v);
    }
    Manifest {
        schema: SCHEMA.to_string(),
        git_sha: "0123456789ab".to_string(),
        dispatch: DispatchInfo { mode: "seq".into(), workers: 1, grain: None },
        context: vec![
            ("algo".into(), "cc".into()),
            ("input".into(), "as-skitter".into()),
            ("scale".into(), "0.002".into()),
        ],
        metrics: vec![
            Metric {
                name: "wall_seconds".into(),
                unit: "s".into(),
                direction: Direction::Lower,
                samples: vec![0.125, 0.1175, 0.13],
            },
            Metric {
                name: "modeled_time".into(),
                unit: "units".into(),
                direction: Direction::Lower,
                samples: vec![30768012.0; 3],
            },
        ],
        kernels: collector.snapshot(),
        distributions: vec![("cc/traversal_len".into(), sketch.snapshot())],
    }
}

#[test]
fn manifest_json_matches_golden() {
    assert_eq!(manifest(false).to_json(), include_str!("golden/manifest.json"));
}

#[test]
fn prometheus_exposition_matches_golden_and_lints_clean() {
    for (sharded, golden) in [
        (false, include_str!("golden/metrics.prom")),
        (true, include_str!("golden/metrics-sharded.prom")),
    ] {
        let text = to_prometheus(&manifest(sharded));
        assert_eq!(text, golden, "sharded: {sharded}");
        let problems = lint_exposition(&text);
        assert!(problems.is_empty(), "exposition hygiene violations:\n{}", problems.join("\n"));
    }
}
