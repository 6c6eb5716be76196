//! `perfbench --workload <paper|xl_pce> --seed <n> --seconds <s>
//! --trace <0|1>`: run one workload and print its metrics, ending with a
//! one-line JSON result. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones.

use perfbench::workloads::{self, Bench};
use std::process::ExitCode;

struct Args {
    bench: Bench,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be in 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let bench = Bench::by_name(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {}",
            workloads::WORKLOADS.join(", ")
        )
    })?;
    Ok(Args {
        bench,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark measures one simulation thread: refuse a worker pool or
/// parallel lanes asked for through the environment.
fn single_thread_check() -> Result<(), String> {
    for var in ["PCELISP_JOBS", "PCELISP_LANES"] {
        if let Ok(v) = std::env::var(var) {
            if v.trim() != "1" {
                return Err(format!(
                    "{var}={v} asks for more than one simulation thread; unset it or set it to 1"
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match single_thread_check().and_then(|()| parse()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = workloads::run(&args.bench, args.seed, args.seconds, args.trace);
    for line in perfbench::summary_lines(&report) {
        println!("{line}");
    }
    println!("{}", perfbench::result_json(&report));
    ExitCode::SUCCESS
}
