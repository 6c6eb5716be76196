//! The two workloads and their timed (`--trace 0`) and traced
//! (`--trace 1`) runs.
//!
//! * `paper` — one serial pass over the whole E1–E13 registry with
//!   report rendering: what a user of the reproduction runs. Many small
//!   worlds, so per-world build, report building and shallow-queue
//!   dispatch dominate; the only workload on the pull planes, ALT/CONS,
//!   NERD, dynamics, attackers and TE.
//! * `xl_pce` — one PCE world at the top of the address plan (2048
//!   destination sites) with about 10 flows per site: deep event queue,
//!   per-flow DNS intercept, PCE push, IRC admission and encapsulation.
//!   No mapping-system push or pull runs.

use crate::calib::Speed;
use crate::cells::{lookup_cells, EngineShape};
use crate::inputs::{poisson_zipf, FlowStream};
use crate::measure::{Digest, Ops, Samples};
use crate::world::{add_counts, run_world, Counts, Spans, WorldInput};
use pcelisp::experiments::{registry, ExpReport};
use pcelisp::scenario::CpKind;
use pcelisp::spec::ScenarioSpec;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest measured units, however short `--seconds` is: a median and a
/// digest comparison need several.
const MIN_UNITS: usize = 3;

/// Flows per destination site of the E9 scale cells.
const E9_FLOWS_PER_SITE: usize = 3;

/// Arrival rate of the E9 scale cells (flows/s).
const E9_RATE: f64 = 2.0;

/// Zipf exponent of destination-site popularity.
const ZIPF_S: f64 = 1.0;

/// Size and load of one multi-site world.
#[derive(Debug, Clone, Copy)]
pub struct XlShape {
    /// Control plane.
    pub cp: CpKind,
    /// Destination sites.
    pub sites: usize,
    /// Destination hosts per site.
    pub hosts_per_site: usize,
    /// Flows in the stream.
    pub flows: usize,
    /// Poisson arrival rate (flows/s).
    pub rate_per_sec: f64,
}

/// The `xl_pce` world: 2048 sites, 20 480 flows at 20 flows/s.
pub const XL_PCE: XlShape = XlShape {
    cp: CpKind::Pce,
    sites: 2048,
    hosts_per_site: 2,
    flows: 20_480,
    rate_per_sec: 20.0,
};

/// One multi-site world of `shape` with flows generated from `seed`.
fn multi_site_input(shape: XlShape, seed: u64) -> (WorldInput, FlowStream) {
    let mut spec = ScenarioSpec::multi_site(shape.cp, shape.sites, shape.hosts_per_site);
    let stream = poisson_zipf(
        &spec.topology,
        seed,
        shape.flows,
        shape.rate_per_sec,
        ZIPF_S,
    );
    spec.set_flows(stream.flows.clone());
    let input = WorldInput {
        spec,
        lossless: shape.cp == CpKind::Pce,
    };
    (input, stream)
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub enum Bench {
    /// Serial passes over the experiment registry (or the named subset;
    /// the full registry is the `paper` workload).
    Paper {
        /// Experiment names, in registry order; empty = all.
        only: Vec<&'static str>,
        /// Destination sites of the set-up suite's scale worlds.
        suite_sites: usize,
    },
    /// Repeated runs of one multi-site world.
    Xl(XlShape),
}

impl Bench {
    /// The workload of that name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Bench::Paper {
                only: Vec::new(),
                suite_sites: 32,
            }),
            "xl_pce" => Some(Bench::Xl(XL_PCE)),
            _ => None,
        }
    }
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["paper", "xl_pce"];

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Units attempted and failed.
    pub ops: Ops,
    /// Failed checks that are not a unit's (the benchmark's own
    /// consistency checks).
    pub problems: Vec<String>,
    /// `(name, unit, value, samples)`, in print order.
    pub metrics: Vec<(&'static str, &'static str, f64, Samples)>,
    /// Lines printed after the metrics that are not metrics (raw times
    /// behind the calibrated ones).
    pub notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, s: Samples) {
        self.metrics.push((name, unit, s.median(), s));
    }

    fn put_value(&mut self, name: &'static str, unit: &'static str, v: f64) {
        let mut s = Samples::default();
        s.push(v);
        self.put(name, unit, s);
    }

    /// True when every unit and every consistency check passed.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0 && self.problems.is_empty() && self.ops.attempted > 0
    }

    /// The value of a metric, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|&(_, _, v, _)| v)
    }
}

/// Run `bench` at `seed` for about `seconds` of measured time. With
/// `trace` the run reports the per-layer metrics instead of the
/// end-to-end ones.
pub fn run(bench: &Bench, seed: u64, seconds: f64, trace: bool) -> Report {
    match bench {
        Bench::Paper { only, suite_sites } => paper(only, *suite_sites, seed, seconds, trace),
        Bench::Xl(shape) => xl(*shape, seed, seconds, trace),
    }
}

/// Keep running units until `seconds` have passed and at least
/// [`MIN_UNITS`] ran. With `speed`, the calibration kernel runs before
/// the first unit and after every unit.
fn measure_window(seconds: f64, mut speed: Option<&mut Speed>, mut unit: impl FnMut(usize)) {
    let t0 = Instant::now();
    if let Some(s) = speed.as_deref_mut() {
        s.tick();
    }
    let mut i = 0;
    while i < MIN_UNITS || t0.elapsed().as_secs_f64() < seconds {
        unit(i);
        if let Some(s) = speed.as_deref_mut() {
            s.tick();
        }
        i += 1;
    }
}

fn xl(shape: XlShape, seed: u64, seconds: f64, trace: bool) -> Report {
    let (input, stream) = multi_site_input(shape, seed);
    let mut r = Report::default();
    // One checked but untimed unit first: the first unit of a process
    // pays one-off heap growth.
    let w = run_world(&input, seed, false);
    r.ops.record(w.digest, w.problems);
    if !trace {
        let (mut wall, mut setup, mut speed) = (Vec::new(), Vec::new(), Speed::default());
        measure_window(seconds, Some(&mut speed), |_| {
            let w = run_world(&input, seed, false);
            wall.push(w.spans.wall);
            setup.push(w.spans.setup());
            r.ops.record(w.digest, w.problems);
        });
        end_to_end(&mut r, &wall, &setup, &speed);
        return r;
    }

    let cells = lookup_cells(&input.spec.topology, &stream, EngineShape::Star);
    let mut plain = SpanSamples::default();
    let mut traced_run = Samples::default();
    let mut counts = None;
    let mut trace_events = 0;
    // Alternate plain units and units with the simulator's trace log on,
    // so both see the same host conditions.
    measure_window(seconds, None, |i| {
        let logged = i % 2 == 1;
        let w = run_world(&input, seed, logged);
        if logged {
            traced_run.push(w.spans.run());
            trace_events = w.counts["netsim.trace_events"];
        } else {
            plain.push(&w.spans);
            counts.get_or_insert_with(|| w.counts.clone());
        }
        r.ops.record(w.digest, w.problems);
    });
    let mut counts = counts.expect("at least one plain unit ran");
    counts.insert("netsim.trace_events", trace_events);
    adds_up("world spans", &plain.sum, &plain.wall, &mut r.problems);
    let overhead = traced_run.median() - plain.run.median();
    per_layer(&mut r, &plain, &counts, &cells, overhead, &BTreeMap::new());
    r
}

/// Span samples of the plain units of a traced run.
#[derive(Debug, Default)]
struct SpanSamples {
    build: Samples,
    schedule: Samples,
    boot: Samples,
    flows: Samples,
    run: Samples,
    results: Samples,
    sum: Samples,
    wall: Samples,
}

impl SpanSamples {
    fn push(&mut self, s: &Spans) {
        self.build.push(s.build);
        self.schedule.push(s.schedule);
        self.boot.push(s.boot);
        self.flows.push(s.flows);
        self.run.push(s.run());
        self.results.push(s.results);
        self.sum.push(s.sum());
        self.wall.push(s.wall);
    }
}

/// Inner spans must account for the time of the unit they split, within
/// the run-to-run spread (plus 1 ms for the clock reads).
fn adds_up(what: &str, sum: &Samples, wall: &Samples, problems: &mut Vec<String>) {
    let (q1, wall, q3) = wall.quartiles();
    let sum = sum.median();
    if (sum - wall).abs() > (q3 - q1) + 1e-3 {
        problems.push(format!(
            "{what} add up to {sum:.4} s but the unit took {wall:.4} s"
        ));
    }
}

/// Report the end-to-end metrics from the raw unit times: each time is
/// divided by its unit's host-speed factor before the median is taken.
fn end_to_end(r: &mut Report, wall: &[f64], setup: &[f64], speed: &Speed) {
    let calibrated = |raw: &[f64]| -> Samples {
        raw.iter()
            .enumerate()
            .map(|(i, t)| t / speed.factor(i))
            .collect()
    };
    r.put("wall_s", "s", calibrated(wall));
    r.put("setup_s", "s", calibrated(setup));
    let raw = |v: &[f64]| v.iter().copied().collect::<Samples>();
    let factors: Samples = (0..wall.len()).map(|i| speed.factor(i)).collect();
    let kernel: Samples = speed.kernel_times().iter().copied().collect();
    r.notes.extend([
        raw_line("wall_s uncalibrated", &raw(wall)),
        raw_line("setup_s uncalibrated", &raw(setup)),
        raw_line("host-speed factor", &factors),
        raw_line("calibration kernel", &kernel),
    ]);
    if speed.bad_checksums > 0 {
        r.problems.push(format!(
            "calibration kernel returned a wrong checksum {} times",
            speed.bad_checksums
        ));
    }
    match crate::measure::peak_rss_mb() {
        Some(mb) => r.put_value("peak_rss_mb", "MB", mb),
        None => r
            .problems
            .push("VmHWM not readable from /proc/self/status".into()),
    }
}

/// `what = median (median of n; q1 …, q3 …)`.
fn raw_line(what: &str, s: &Samples) -> String {
    let (q1, median, q3) = s.quartiles();
    format!(
        "{what} = {median} (median of {}; q1 {q1}, q3 {q3})",
        s.len()
    )
}

/// Report every per-layer metric. World-level spans and counts come
/// from `spans`/`counts`; `experiments` holds the registry spans by
/// experiment name (empty on the `xl_*` workloads, which run no
/// experiment: those spans report 0).
fn per_layer(
    r: &mut Report,
    spans: &SpanSamples,
    counts: &Counts,
    cells: &[(&'static str, f64)],
    trace_overhead: f64,
    experiments: &BTreeMap<&'static str, Samples>,
) {
    r.put("core.spec.build_s", "s", spans.build.clone());
    r.put("core.hosts.schedule_s", "s", spans.schedule.clone());
    r.put("netsim.run.boot_s", "s", spans.boot.clone());
    r.put("netsim.run.flows_s", "s", spans.flows.clone());
    r.put("core.results_s", "s", spans.results.clone());
    for (metric, exp) in EXPERIMENT_SPANS {
        match experiments.get(exp) {
            Some(s) => r.put(metric, "s", s.clone()),
            None => r.put_value(metric, "s", 0.0),
        }
    }
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let run_s = spans.run.median();
    let rate = if run_s > 0.0 {
        c("netsim.events") / run_s
    } else {
        0.0
    };
    for name in ["netsim.events", "netsim.events.boot", "netsim.events.flows"] {
        r.put_value(name, "count", c(name));
    }
    r.put_value("netsim.events_per_s", "1/s", rate);
    for name in [
        "netsim.link.tx_packets",
        "netsim.link.tx_bytes",
        "netsim.link.queue_drops",
        "netsim.trace_events",
    ] {
        r.put_value(name, "count", c(name));
    }
    r.put_value("netsim.trace_overhead_s", "s", trace_overhead);
    for name in ["mapsys.push_bytes", "mapsys.push_chunks"] {
        r.put_value(name, "count", c(name));
    }
    for &(name, ns) in cells {
        r.put_value(name, "ns", ns);
    }
    let lookups = c("lispdp.encap") + c("lispdp.miss_events");
    let hit_ratio = if lookups > 0.0 {
        c("lispdp.encap") / lookups
    } else {
        0.0
    };
    r.put_value("lispdp.cache_hit_ratio", "ratio", hit_ratio);
    for name in [
        "lispdp.map_requests_sent",
        "lispdp.miss_drops",
        "lispdp.flow_installs",
        "simdns.client_queries",
        "simdns.upstream_queries",
        "core.pce.dns_intercepts",
        "core.pce.pushes_sent",
        "core.ctl_msgs",
        "core.flows",
        "core.delivered",
    ] {
        r.put_value(name, "count", c(name));
    }
}

/// The span metric of each registry experiment, with its name.
const EXPERIMENT_SPANS: [(&str, &str); 13] = [
    ("core.experiments.e1_s", "e1"),
    ("core.experiments.e2_s", "e2"),
    ("core.experiments.e3_s", "e3"),
    ("core.experiments.e4_s", "e4"),
    ("core.experiments.e5_s", "e5"),
    ("core.experiments.e6_s", "e6"),
    ("core.experiments.e7_s", "e7"),
    ("core.experiments.e8_s", "e8"),
    ("core.experiments.e9_s", "e9"),
    ("core.experiments.e10_s", "e10"),
    ("core.experiments.e11_s", "e11"),
    ("core.experiments.e12_s", "e12"),
    ("core.experiments.e13_s", "e13"),
];

/// The worlds the `paper` workload builds itself, for its set-up time
/// and its world-level spans and counts: the Fig. 1 world and an E9
/// scale world under every control plane.
fn paper_suite(seed: u64, sites: usize) -> (Vec<WorldInput>, FlowStream) {
    let mut suite = Vec::new();
    let mut cell_stream = None;
    for cp in CpKind::all() {
        suite.push(WorldInput {
            spec: ScenarioSpec::fig1(cp),
            lossless: false,
        });
        let (input, stream) = multi_site_input(
            XlShape {
                cp,
                sites,
                hosts_per_site: 4,
                flows: E9_FLOWS_PER_SITE * sites,
                rate_per_sec: E9_RATE,
            },
            seed,
        );
        suite.push(WorldInput {
            lossless: false,
            ..input
        });
        cell_stream.get_or_insert(stream);
    }
    (suite, cell_stream.expect("CpKind::all is not empty"))
}

/// One registry pass: per-experiment spans, rendering span, and the
/// digest of every rendered report.
struct Pass {
    spans: Vec<(&'static str, f64)>,
    render: f64,
    wall: f64,
    digest: u64,
    reports: Vec<ExpReport>,
}

fn registry_pass(only: &[&'static str], seed: u64) -> Pass {
    let t_pass = Instant::now();
    let mut spans = Vec::new();
    let mut reports = Vec::new();
    for exp in registry() {
        if !only.is_empty() && !only.contains(&exp.name()) {
            continue;
        }
        let t0 = Instant::now();
        reports.push(exp.run(seed, 1));
        spans.push((exp.name(), t0.elapsed().as_secs_f64()));
    }
    let t0 = Instant::now();
    let mut d = Digest::default();
    for report in &reports {
        for table in report.tables() {
            d.bytes(table.render().as_bytes());
        }
        d.bytes(report.to_json().as_bytes());
    }
    let render = t0.elapsed().as_secs_f64();
    Pass {
        spans,
        render,
        wall: t_pass.elapsed().as_secs_f64(),
        digest: d.finish(),
        reports,
    }
}

/// Set-up time of the suite: build + schedule of every world (dropping
/// a world is not set-up, so it falls outside the timed part).
fn suite_setup(suite: &[WorldInput], seed: u64) -> f64 {
    let mut total = 0.0;
    for input in suite {
        let t0 = Instant::now();
        let mut world = input.spec.build(seed);
        world.schedule_all_flows();
        total += t0.elapsed().as_secs_f64();
        drop(world);
    }
    total
}

fn paper(
    only: &[&'static str],
    suite_sites: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Report {
    let (suite, cell_stream) = paper_suite(seed, suite_sites);
    let mut r = Report::default();

    // The goldens are rendered at seed 1; at any other seed an extra,
    // untimed seed-1 pass checks them (it doubles as the warm-up).
    let golden_pass = registry_pass(only, 1);
    let golden_problems = crate::golden::check(&golden_pass.reports, only);
    if seed == 1 {
        r.ops.record(golden_pass.digest, golden_problems);
    } else {
        r.ops.record_undigested(golden_problems);
    }
    drop(golden_pass);

    if !trace {
        let (mut wall, mut setup, mut speed) = (Vec::new(), Vec::new(), Speed::default());
        measure_window(seconds, Some(&mut speed), |_| {
            let p = registry_pass(only, seed);
            wall.push(p.wall);
            r.ops.record(p.digest, Vec::new());
            setup.push(suite_setup(&suite, seed));
        });
        end_to_end(&mut r, &wall, &setup, &speed);
        return r;
    }

    let cells = lookup_cells(&suite[1].spec.topology, &cell_stream, EngineShape::PingPong);
    let mut experiments: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let (mut render, mut pass_wall, mut pass_sum) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut plain = SpanSamples::default();
    let mut traced_run = Samples::default();
    let mut counts = None;
    let mut trace_events = 0;
    let mut suite_digest = None;
    measure_window(seconds, None, |i| {
        let p = registry_pass(only, seed);
        for &(exp, secs) in &p.spans {
            experiments.entry(exp).or_default().push(secs);
        }
        render.push(p.render);
        pass_wall.push(p.wall);
        pass_sum.push(p.spans.iter().map(|s| s.1).sum::<f64>() + p.render);

        // The suite: plain and trace-log units alternate.
        let logged = i % 2 == 1;
        let mut spans = Spans::default();
        let mut c = Counts::new();
        let mut d = Digest::default();
        let mut problems = Vec::new();
        for input in &suite {
            let w = run_world(input, seed, logged);
            spans.add(&w.spans);
            add_counts(&mut c, &w.counts);
            d.u64(w.digest);
            problems.extend(w.problems);
        }
        let d = d.finish();
        if *suite_digest.get_or_insert(d) != d {
            problems.push("set-up suite digest differs from the first unit's".into());
        }
        r.ops.record(p.digest, problems);
        if logged {
            traced_run.push(spans.run());
            trace_events = c["netsim.trace_events"];
        } else {
            plain.push(&spans);
            counts.get_or_insert(c);
        }
    });
    let mut counts = counts.expect("at least one plain unit ran");
    counts.insert("netsim.trace_events", trace_events);
    adds_up("experiment spans", &pass_sum, &pass_wall, &mut r.problems);
    adds_up(
        "set-up suite spans",
        &plain.sum,
        &plain.wall,
        &mut r.problems,
    );
    // On `paper` the results span is the registry's report rendering.
    plain.results = render;
    let overhead = traced_run.median() - plain.run.median();
    per_layer(&mut r, &plain, &counts, &cells, overhead, &experiments);
    r
}
