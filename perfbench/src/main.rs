//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_ring|sim_store|node_loopback> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload through the public APIs of the simulator
//! (`simsearch::SearchSystem` over `simnet`, `chord` and `landmark`) or
//! of a loopback cluster of `node` runtimes, checks every answer against
//! brute force, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and the metrics by name and
//! unit — the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. The traced run also writes its spans to
//! `perfbench/out/`. See `perfbench/README.md`.

mod loopback;
mod measure;
mod sim;
mod trace;
mod truth;
mod worlds;

use measure::Outcome;
use std::collections::BTreeMap;
use std::time::Duration;
use trace::Tracer;

/// Longest a run may take before it gives up without a result.
const HARD_DEADLINE: Duration = Duration::from_secs(170);

/// Per-layer metrics of the node runtime; zero on simulator workloads.
pub const NODE_LAYER: &[(&str, &str)] = &[
    ("node.bootstrap_s", "s"),
    ("node.load_s", "s"),
    ("node.client.rtt_p50_us", "us"),
    ("node.client.polls_per_query", "count"),
    ("node.client.bytes_per_query", "bytes"),
    ("node.wire.encode_ns_per_frame", "ns"),
    ("node.wire.decode_ns_per_frame", "ns"),
    ("node.traces_retained", "count"),
];

/// Report metrics of a layer the workload does not run, as zero.
pub fn absent(out: &mut Outcome, names: &[(&'static str, &'static str)]) {
    for &(name, unit) in names {
        out.metric(name, 0.0, unit);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Write the traced run's spans, per-layer metrics and its own
/// end-to-end figures next to the benchmark.
fn write_trace(args: &Args, tr: &Tracer, out: &Outcome) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
    let mut body = match tr.to_json() {
        serde_json::Value::Object(m) => m,
        _ => unreachable!("Tracer::to_json returns an object"),
    };
    let num = |v: f64| serde_json::Value::Float(v);
    body.insert(
        "workload".into(),
        serde_json::Value::String(args.workload.clone()),
    );
    body.insert("seed".into(), serde_json::Value::UInt(args.seed));
    body.insert(
        "nproc".into(),
        serde_json::Value::UInt(measure::nproc() as u64),
    );
    let per_layer: BTreeMap<String, serde_json::Value> = out
        .metrics
        .iter()
        .map(|&(n, v, _)| (n.to_string(), num(v)))
        .collect();
    body.insert("per_layer".into(), serde_json::Value::Object(per_layer));
    let e2e: BTreeMap<String, serde_json::Value> = out
        .notes
        .iter()
        .map(|&(n, v)| (n.to_string(), num(v)))
        .collect();
    body.insert(
        "end_to_end_traced_run".into(),
        serde_json::Value::Object(e2e),
    );
    let text = serde_json::to_string(&serde_json::Value::Object(body))
        .expect("serialization is infallible");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sim_ring|sim_store|node_loopback> --seed <n> --seconds <1-60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Nothing may wait forever: a run that overstays gives up loudly.
    std::thread::spawn(|| {
        std::thread::sleep(HARD_DEADLINE);
        eprintln!("perfbench: run exceeded {HARD_DEADLINE:?}; giving up");
        std::process::exit(3);
    });

    let mut tr = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "sim_ring" => worlds::sim_ring(args.seed, args.seconds, &mut tr, &mut out),
        "sim_store" => worlds::sim_store(args.seed, args.seconds, &mut tr, &mut out),
        "node_loopback" => loopback::run(args.seed, args.seconds, &mut tr, &mut out),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    if !args.trace {
        out.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
    } else {
        match write_trace(&args, &tr, &out) {
            Ok(path) => eprintln!("perfbench: trace written to {path}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    for &(name, value, unit) in &out.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        serde_json::to_string(&out.to_json()).expect("serialization is infallible")
    );
}
