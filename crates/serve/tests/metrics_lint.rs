//! Prometheus exposition hygiene for `/metrics`.
//!
//! The rendering is assembled from three sources (the manifest
//! exposition in `ecl-prof`, the serve counters, and the `ecl_slo_*`
//! family from `ecl-obs`), each hand-formatted — an easy place for a
//! series to lose its `# HELP`/`# TYPE` metadata or for a counter to
//! drop its `_total` suffix, which strict scrapers reject. The lint in
//! `ecl_serve::metrics::lint_exposition` is `std`-only and runs over a
//! real rendering with every source populated.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ecl_serve::cache::ResultCache;
use ecl_serve::catalog::{CatalogConfig, GraphCatalog};
use ecl_serve::jobs::Algo;
use ecl_serve::metrics::{lint_exposition, ServeMetrics};

/// Renders `/metrics` with every section live: latency sketches,
/// kernel series from a profiling collector, serve counters, the SLO
/// engine (burn rates + exemplar histogram), and the recorder gauge.
fn full_rendering() -> String {
    let m = ServeMetrics::new();
    m.jobs_admitted.store(5, Ordering::Relaxed);
    m.jobs_done.store(4, Ordering::Relaxed);
    m.jobs_failed.store(1, Ordering::Relaxed);
    m.record_latency(Algo::Cc, 120, 4500);
    m.record_latency(Algo::Gc, 90, 5100);
    let catalog = GraphCatalog::new(CatalogConfig::default());
    let results = ResultCache::new(4);

    let collector = ecl_prof::Collector::new();
    collector.record(&ecl_prof::LaunchSample {
        kernel: "cc.init".to_string(),
        shape: "flat",
        blocks: 64,
        block_size: 256,
        wall_ns: 10_000,
        workers: vec![ecl_prof::WorkerStat { blocks: 64, claims: 64, busy_ns: 9_000 }],
        req: 7,
        shard: 0,
        cost: Default::default(),
    });

    let slo = ecl_obs::SloEngine::from_spec("cc:p99=5ms,err=1%").expect("valid spec");
    slo.observe("cc", 7, 4_500_000, true);
    slo.observe("cc", 8, 9_000_000, false);
    let obs = Arc::new(ecl_obs::Obs::new(ecl_obs::RecorderConfig::default(), Some(slo)));
    obs.recorder.begin(7, 1, "cc", "internet");
    obs.recorder.finish(7, 1, "cc", "internet", ecl_obs::FinishInfo::default());

    m.render_prometheus(&catalog, &results, 2, 1, 3, Some(&collector), Some(&obs))
}

#[test]
fn full_metrics_rendering_passes_the_lint() {
    let text = full_rendering();
    // The sections this test exists to cover are actually present.
    for needle in
        ["ecl_serve_jobs_finished_total", "ecl_slo_burn_rate", "ecl_slo_latency_seconds_bucket"]
    {
        assert!(text.contains(needle), "rendering lost section {needle:?}:\n{text}");
    }
    let problems = lint_exposition(&text);
    assert!(problems.is_empty(), "exposition hygiene violations:\n{}", problems.join("\n"));
}

#[test]
fn lint_flags_missing_metadata_and_bad_counters() {
    // A sample with neither HELP nor TYPE.
    let problems = lint_exposition("orphan_series 1\n");
    assert!(problems.iter().any(|p| p.contains("no preceding HELP")), "{problems:?}");
    assert!(problems.iter().any(|p| p.contains("no preceding TYPE")), "{problems:?}");

    // A counter without the _total suffix.
    let text = "# HELP bad_counter x\n# TYPE bad_counter counter\nbad_counter 3\n";
    let problems = lint_exposition(text);
    assert!(problems.iter().any(|p| p.contains("does not end in _total")), "{problems:?}");

    // Metadata after the first sample of the family.
    let text = "# HELP late_total x\n# TYPE late_total counter\nlate_total 1\n\
                # HELP late_total again\n";
    let problems = lint_exposition(text);
    assert!(problems.iter().any(|p| p.contains("after its first sample")), "{problems:?}");

    // An unparseable sample value.
    let text = "# HELP g x\n# TYPE g gauge\ng not-a-number\n";
    let problems = lint_exposition(text);
    assert!(problems.iter().any(|p| p.contains("does not parse")), "{problems:?}");
}

#[test]
fn lint_accepts_exemplars_and_machine_suffixes() {
    // OpenMetrics exemplar on a histogram bucket plus the _sum/_count
    // machine-suffixed series — all fold into the declared family.
    let text = "# HELP h request latency\n# TYPE h histogram\n\
                h_bucket{le=\"0.1\"} 3 # {req_id=\"42\"} 0.042\n\
                h_bucket{le=\"+Inf\"} 4\n\
                h_sum 0.5\n\
                h_count 4\n";
    let problems = lint_exposition(text);
    assert!(problems.is_empty(), "{problems:?}");
}
