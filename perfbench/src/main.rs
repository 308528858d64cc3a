//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an environment line, then as the last line of standard
//! output one JSON object: `correct`, `attempted`, `failed` and the
//! metrics. Exits 1 on a wrong output, 2 on bad arguments or a
//! dispatch override in the environment.

use std::process::ExitCode;

use perfbench::{metrics, Params, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <cc-road|scc-mesh|shard-torus|serve-mix> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [key, value] = pair else { return usage("arguments come in --key value pairs") };
        match key.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 600.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };
    if let Err(e) = perfbench::check_env() {
        return usage(&e);
    }
    let params = Params { workload, seed, seconds, trace, tiny: false };
    let out = perfbench::run(&params);
    if trace {
        for (name, count, total, own) in out.spans.summary() {
            eprintln!(
                "span {name:<20} n={count:<5} total={:.4}s self={:.4}s",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{seed}.spans.jsonl", workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out.spans.to_jsonl()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", perfbench::info_line(&out.info));
    println!("{}", metrics::result_line(trace, out.attempted, out.failed, &out.values));
    if out.failed > 0 {
        eprintln!("perfbench: {} of {} operations failed", out.failed, out.attempted);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
