//! One simulated world driven from outside: build, schedule, run in two
//! virtual-time slices, read the results. Every call into the simulator
//! is timed as a span, and the work counts are read through public
//! accessors after the run.

use crate::measure::Digest;
use lispdp::Xtr;
use mapsys::NerdAuthority;
use netsim::Ns;
use pcelisp::experiments::e8_overhead::control_plane_tally;
use pcelisp::pce::Pce;
use pcelisp::spec::{ScenarioSpec, Workload, World};
use simdns::Resolver;
use std::collections::BTreeMap;
use std::time::Instant;

/// Virtual time simulated after the last flow starts (the scale
/// experiments' horizon).
pub const DRAIN: Ns = Ns::from_secs(30);

/// A world to drive: the spec (flows already set) and its checks.
#[derive(Debug, Clone)]
pub struct WorldInput {
    /// The scenario, with an explicit flow script.
    pub spec: ScenarioSpec,
    /// The paper's claim for the PCE plane: no packet waits for a
    /// mapping, so no miss drops and every packet sent is delivered.
    pub lossless: bool,
}

impl WorldInput {
    /// The spec's explicit flow script.
    ///
    /// # Panics
    /// Panics if the workload is not an explicit script: the benchmark
    /// always hands the world its flows.
    pub fn flows(&self) -> &[pcelisp::hosts::FlowSpec] {
        match &self.spec.workload {
            Workload::Explicit(flows) => flows,
            Workload::PoissonZipf { .. } => panic!("benchmark worlds take explicit flows"),
        }
    }
}

/// Host seconds spent in each call of one world unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `ScenarioSpec::build`.
    pub build: f64,
    /// `World::schedule_all_flows`.
    pub schedule: f64,
    /// `Sim::run_until` from 0 to just before the first flow starts.
    pub boot: f64,
    /// `Sim::run_until` from the first flow start to the horizon.
    pub flows: f64,
    /// Records, tally and counter reads, and the digest.
    pub results: f64,
    /// The whole unit, timed on its own.
    pub wall: f64,
}

impl Spans {
    /// Build + schedule: the unit's set-up.
    pub fn setup(&self) -> f64 {
        self.build + self.schedule
    }

    /// Time inside `run_until`.
    pub fn run(&self) -> f64 {
        self.boot + self.flows
    }

    /// Sum of the inner spans, to compare against `wall`.
    pub fn sum(&self) -> f64 {
        self.build + self.schedule + self.boot + self.flows + self.results
    }

    /// Field-wise sum (several worlds in one unit).
    pub fn add(&mut self, o: &Spans) {
        self.build += o.build;
        self.schedule += o.schedule;
        self.boot += o.boot;
        self.flows += o.flows;
        self.results += o.results;
        self.wall += o.wall;
    }
}

/// Work counts of a finished world, keyed by metric name. Besides the
/// per-layer count metrics it holds `lispdp.encap` and
/// `lispdp.miss_events` (the base of `lispdp.cache_hit_ratio`) and
/// `core.sent` (data packets the client sent).
pub type Counts = BTreeMap<&'static str, u64>;

/// Add `other` into `into`, name by name.
pub fn add_counts(into: &mut Counts, other: &Counts) {
    for (k, v) in other {
        *into.entry(k).or_default() += v;
    }
}

/// The outcome of one world unit.
#[derive(Debug, Clone)]
pub struct WorldRun {
    /// Host time per call.
    pub spans: Spans,
    /// Work counts read after the run.
    pub counts: Counts,
    /// Digest of the simulated outputs (flow records and counts; the
    /// trace-event count is left out, since turning the simulator's
    /// trace log on must not change the simulation).
    pub digest: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

/// Build `input`'s world at `seed` and run it to the horizon, timing
/// every call. With `trace_log` the simulator's own trace log records
/// every event (`netsim.trace_overhead_s` compares such units against
/// plain ones).
pub fn run_world(input: &WorldInput, seed: u64, trace_log: bool) -> WorldRun {
    let first_start = input
        .flows()
        .iter()
        .map(|f| f.start)
        .min()
        .unwrap_or(Ns::ZERO);

    let t_unit = Instant::now();
    let t0 = Instant::now();
    let mut world = input.spec.build(seed);
    let build = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    world.schedule_all_flows();
    let schedule = t0.elapsed().as_secs_f64();

    if trace_log {
        world.sim.trace.enable();
        world.sim.trace.set_capacity(usize::MAX);
    }
    let horizon = world.last_flow_start().saturating_add(DRAIN);
    let events_before = netsim::sim::process_events();
    let t0 = Instant::now();
    // Events at exactly the deadline run in this slice, so stop 1 ns
    // short of the first flow start; a flow at t = 0 has no boot slice.
    if first_start > Ns::ZERO {
        world.sim.run_until(Ns(first_start.0 - 1));
    }
    let boot = t0.elapsed().as_secs_f64();
    let events_boot = world.sim.events_processed();

    let t0 = Instant::now();
    world.sim.run_until(horizon);
    let flows = t0.elapsed().as_secs_f64();
    let events_total = netsim::sim::process_events() - events_before;

    let t0 = Instant::now();
    let (counts, digest, mut problems) = read_results(&world, input, events_boot, events_total);
    let results = t0.elapsed().as_secs_f64();
    let wall = t_unit.elapsed().as_secs_f64();
    drop(world);

    let spans = Spans {
        build,
        schedule,
        boot,
        flows,
        results,
        wall,
    };
    if counts["netsim.events.boot"] + counts["netsim.events.flows"] != counts["netsim.events"] {
        problems.push(format!(
            "boot + flows events {} + {} != total {}",
            counts["netsim.events.boot"], counts["netsim.events.flows"], counts["netsim.events"]
        ));
    }
    WorldRun {
        spans,
        counts,
        digest,
        problems,
    }
}

/// Read every count, digest the outputs and check them.
fn read_results(
    world: &World,
    input: &WorldInput,
    events_boot: u64,
    events_total: u64,
) -> (Counts, u64, Vec<String>) {
    let sim = &world.sim;
    let records = world.records();
    let tally = control_plane_tally(world);
    let mut c = Counts::new();
    c.insert("netsim.events", events_total);
    c.insert("netsim.events.boot", events_boot);
    c.insert(
        "netsim.events.flows",
        sim.events_processed().saturating_sub(events_boot),
    );
    let (mut tx_packets, mut tx_bytes) = (0, 0);
    for link in 0..sim.link_count() {
        for dir in 0..2 {
            let s = sim.link_stats(link, dir);
            tx_packets += s.tx_packets;
            tx_bytes += s.tx_bytes;
        }
    }
    c.insert("netsim.link.tx_packets", tx_packets);
    c.insert("netsim.link.tx_bytes", tx_bytes);
    c.insert("netsim.link.queue_drops", sim.total_queue_drops());
    c.insert("netsim.trace_events", sim.trace.len() as u64);
    c.insert("mapsys.push_bytes", tally.push_bytes);
    c.insert(
        "mapsys.push_chunks",
        world
            .nerd_node
            .map_or(0, |n| sim.node_ref::<NerdAuthority>(n).chunks_sent),
    );
    let (mut requests, mut installs, mut encap, mut misses) = (0, 0, 0, 0);
    for x in world.all_xtrs() {
        let s = &sim.node_ref::<Xtr>(x).stats;
        requests += s.map_requests_sent;
        installs += s.flow_installs;
        encap += s.encap;
        misses += s.miss_events;
    }
    c.insert("lispdp.map_requests_sent", requests);
    c.insert("lispdp.miss_drops", world.total_miss_drops());
    c.insert("lispdp.flow_installs", installs);
    c.insert("lispdp.encap", encap);
    c.insert("lispdp.miss_events", misses);
    let resolver = sim.node_ref::<Resolver>(world.client().dns);
    c.insert("simdns.client_queries", resolver.client_queries);
    c.insert("simdns.upstream_queries", resolver.upstream_queries);
    let (mut intercepts, mut pushes) = (0, 0);
    for pce in world.sites.iter().filter_map(|s| s.pce) {
        let s = &sim.node_ref::<Pce>(pce).stats;
        intercepts += s.dns_intercepts;
        pushes += s.pushes_sent;
    }
    c.insert("core.pce.dns_intercepts", intercepts);
    c.insert("core.pce.pushes_sent", pushes);
    c.insert("core.ctl_msgs", tally.control_msgs);
    c.insert("core.flows", records.len() as u64);
    let sent: u64 = records.iter().map(|r| u64::from(r.data_sent)).sum();
    c.insert("core.sent", sent);
    c.insert("core.delivered", world.server_udp_received());

    let mut d = Digest::default();
    for (name, v) in c.iter().filter(|(k, _)| **k != "netsim.trace_events") {
        d.bytes(name.as_bytes());
        d.u64(*v);
    }
    let t = |t: Option<Ns>| t.map_or(u64::MAX, |t| t.0);
    for r in &records {
        d.bytes(r.qname.to_string().as_bytes());
        d.u64(t(r.t_query));
        d.u64(t(r.t_answer));
        d.u64(t(r.t_established));
        d.u64(r.dest.map_or(0, |a| u64::from(u32::from_be_bytes(a.0))));
        d.u64(u64::from(r.data_sent));
        d.u64(u64::from(r.data_echoed));
    }
    d.u64(sim.now().0);

    let mut problems = Vec::new();
    let flows = input.flows().len() as u64;
    let delivered = c["core.delivered"];
    if c["core.flows"] != flows {
        problems.push(format!(
            "{} flow records for {flows} flows",
            c["core.flows"]
        ));
    }
    if delivered > sent {
        problems.push(format!("delivered {delivered} > sent {sent}"));
    }
    if input.lossless {
        if c["lispdp.miss_drops"] != 0 {
            problems.push(format!(
                "{} miss drops on a PCE world",
                c["lispdp.miss_drops"]
            ));
        }
        if delivered != sent {
            problems.push(format!("PCE world delivered {delivered} of {sent} packets"));
        }
    }
    (c, d.finish(), problems)
}
