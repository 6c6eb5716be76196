//! Reduced-size smoke runs of every workload: 8-site worlds with a few
//! dozen flows (PCE, and NERD for the push path), and a two-experiment
//! registry pass.
//!
//! `netsim.events` is read from the simulator's process-wide event
//! tally, so the tests in this file run one at a time.

use pcelisp::scenario::CpKind;
use perfbench::workloads::{self, Bench, Report, XlShape};
use std::process::Command;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn small(cp: CpKind) -> Bench {
    Bench::Xl(XlShape {
        cp,
        sites: 8,
        hosts_per_site: 2,
        flows: 40,
        rate_per_sec: 20.0,
    })
}

fn benches() -> Vec<(&'static str, Bench)> {
    vec![
        (
            "paper",
            Bench::Paper {
                only: vec!["e1", "e9"],
                suite_sites: 4,
            },
        ),
        ("xl_pce", small(CpKind::Pce)),
        ("nerd", small(CpKind::Nerd)),
    ]
}

fn run(bench: &Bench, seed: u64, trace: bool) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    workloads::run(bench, seed, 0.0, trace)
}

/// `(name, unit)` of every metric of one list in BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn digest_repeats_and_outputs_check_out() {
    for (name, bench) in benches() {
        let a = run(&bench, 5, false);
        let b = run(&bench, 5, false);
        assert!(a.correct(), "{name}: {:?} {:?}", a.ops.problems, a.problems);
        assert_eq!(a.ops.failed, 0, "{name}");
        assert!(a.ops.attempted >= 4, "{name}: warm-up plus three units");
        assert_eq!(
            a.ops.reference, b.ops.reference,
            "{name}: same seed, same outputs"
        );
        let c = run(&bench, 6, false);
        assert_ne!(
            a.ops.reference, c.ops.reference,
            "{name}: the seed reaches the inputs"
        );
    }
}

#[test]
fn boot_and_flow_events_add_up() {
    for (name, bench) in benches() {
        let r = run(&bench, 2, true);
        assert!(r.correct(), "{name}: {:?} {:?}", r.ops.problems, r.problems);
        let v = |m: &str| r.value(m).unwrap_or_else(|| panic!("{name}: no {m}"));
        assert!(v("netsim.events") > 0.0, "{name}");
        assert_eq!(
            v("netsim.events.boot") + v("netsim.events.flows"),
            v("netsim.events"),
            "{name}"
        );
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for (name, bench) in benches() {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let r = run(&bench, 3, trace);
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect();
            assert_eq!(&got, want, "{name} trace={trace}");
            let lines = perfbench::summary_lines(&r);
            for (metric, unit) in want {
                assert!(
                    lines
                        .iter()
                        .any(|l| l.starts_with(&format!("{metric} = ")) && l.contains(unit)),
                    "{name}: {metric} not printed with {unit}"
                );
            }
            let json = perfbench::result_json(&r);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn perturbed_digest_is_a_failed_op() {
    let (_, bench) = benches().remove(1);
    let mut r = run(&bench, 4, false);
    assert!(r.correct());
    let digest = r.ops.reference.expect("units ran");
    r.ops.record(digest ^ 1, Vec::new());
    assert_eq!(r.ops.failed, 1);
    assert!(!r.correct());
    let json = perfbench::result_json(&r);
    assert!(json.starts_with("{\"correct\": false,"), "{json}");
    assert!(json.contains("\"failed\": 1,"), "{json}");
}

#[test]
fn refuses_more_than_one_simulation_thread() {
    for (var, value) in [("PCELISP_JOBS", "4"), ("PCELISP_LANES", "2")] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "xl_pce", "--seed", "1", "--seconds", "1"])
            .env(var, value)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        assert!(out.stdout.is_empty(), "no result is printed");
    }
}
