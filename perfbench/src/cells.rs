//! Isolated cells: direct calls to the hot lookup functions of each
//! layer, fed with the workload's own site records, prefixes, names and
//! flow stream, plus an engine-only cell from the bench crate's shapes.

use crate::inputs::FlowStream;
use crate::measure::Samples;
use inet::LpmTrie;
use ircte::{IrcEngine, Provider, SelectionPolicy};
use lispdp::MapCache;
use lispwire::dnswire::Name;
use lispwire::lispctl::Locator;
use lispwire::Ipv4Address;
use mapsys::api::SiteEntry;
use mapsys::MappingDb;
use netsim::Ns;
use pcelisp::spec::{SiteRole, TopologySpec};
use simdns::{Zone, ZoneStore};
use std::hint::black_box;
use std::time::Instant;

/// Timed rounds per cell; the cell reports their median.
const ROUNDS: usize = 5;

/// Least host time per round, so timer resolution does not matter.
const MIN_ROUND_SECS: f64 = 0.02;

/// Engine-cell size: the ping-pong shape exchanges this many pairs.
const PING_PONG_PAIRS: u64 = 250_000;

/// Engine-cell size: rounds per leaf of the star shape.
const STAR_ROUNDS: u64 = 128;

/// Which engine shape matches a workload's event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineShape {
    /// Two nodes, one event in flight: the shallow queues of the many
    /// small worlds of the experiment registry.
    PingPong,
    /// A hub with one leaf per site, a packet in flight per leaf: a
    /// queue as deep as the large worlds' site count.
    Star,
}

/// Median host nanoseconds per call of `pass`, which makes `ops` calls.
fn time_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    let mut per_op = Samples::default();
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let mut calls = 0usize;
        while calls == 0 || t0.elapsed().as_secs_f64() < MIN_ROUND_SECS {
            pass();
            calls += ops.max(1);
        }
        per_op.push(t0.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    per_op.median()
}

/// The site registrations the world's mapping system is built from.
fn mapping_db(topo: &TopologySpec) -> MappingDb {
    let mut db = MappingDb::new();
    for s in &topo.sites {
        let etr = s.providers[0].rloc;
        db.register(SiteEntry {
            prefix: s.eid_prefix,
            locators: s
                .providers
                .iter()
                .map(|p| Locator::new(p.rloc, 1, 50))
                .collect(),
            etr_addr: etr,
            ttl_minutes: 60,
        });
    }
    db
}

/// Each cell's name and its median nanoseconds per call.
pub fn lookup_cells(
    topo: &TopologySpec,
    stream: &FlowStream,
    shape: EngineShape,
) -> Vec<(&'static str, f64)> {
    let dests: Vec<Ipv4Address> = stream
        .targets
        .iter()
        .map(|t| topo.sites[t.site].dest_eid(t.host))
        .collect();
    let n = dests.len();
    let mut out = Vec::new();

    let db = mapping_db(topo);
    out.push((
        "mapsys.db_lookup_ns",
        time_per_op(n, || {
            for &eid in &dests {
                black_box(db.lookup(black_box(eid)));
            }
        }),
    ));

    let mut cache = MapCache::unbounded();
    for r in db.records() {
        cache.insert(r, Ns::ZERO);
    }
    let now = Ns::from_secs(1);
    out.push((
        "lispdp.mapcache_lookup_ns",
        time_per_op(n, || {
            for &eid in &dests {
                black_box(cache.lookup(black_box(eid), now));
            }
        }),
    ));

    let mut lpm: LpmTrie<usize> = LpmTrie::new();
    for (i, s) in topo.sites.iter().enumerate() {
        lpm.insert(s.eid_prefix, i);
        for p in &s.providers {
            lpm.insert(p.core_route, i);
        }
    }
    out.push((
        "inet.lpm_lookup_ns",
        time_per_op(n, || {
            for &eid in &dests {
                black_box(lpm.lookup(black_box(eid)));
            }
        }),
    ));

    out.push(("simdns.zone_lookup_ns", zone_cell(topo, stream)));

    let client = topo
        .sites
        .iter()
        .find(|s| s.role == SiteRole::Client)
        .expect("topology has a client site");
    let providers: Vec<Provider> = client
        .providers
        .iter()
        .map(|p| Provider::new(&p.name, p.rloc, p.bandwidth_bps as f64 / 1e6))
        .collect();
    let src = client.host_addr();
    out.push((
        "ircte.admit_ns",
        time_per_op(n, || {
            let mut irc = IrcEngine::new(providers.clone(), SelectionPolicy::WeightedBalance);
            for &dst in &dests {
                black_box(irc.admit_flow(black_box((src, dst)), 1.0));
            }
        }),
    ));

    out.push(("netsim.engine_ns_per_event", engine_cell(topo, shape)));
    out
}

/// Per flow, the two authoritative lookups its resolution makes: the
/// referral at the deepest infrastructure zone (which delegates every
/// server site) and the answer at the destination site's zone.
fn zone_cell(topo: &TopologySpec, stream: &FlowStream) -> f64 {
    let suffixes = topo.level_suffixes();
    let deepest = suffixes.last().expect("at least the root level");
    let apex = if deepest.is_empty() {
        Name::root()
    } else {
        Name::parse_str(deepest).expect("valid zone name")
    };
    let mut infra = Zone::new(apex);
    let mut site_stores: Vec<Option<ZoneStore>> = vec![None; topo.sites.len()];
    for (i, s) in topo.sites.iter().enumerate() {
        if s.role != SiteRole::Server {
            continue;
        }
        let z = topo.site_zone(s);
        infra.delegate(
            Name::parse_str(&z).expect("valid zone name"),
            vec![(
                Name::parse_str(&format!("ns.{z}")).expect("valid name"),
                s.dns_addr(),
            )],
            86_400,
        );
        let mut zone = Zone::new(Name::parse_str(&z).expect("valid zone name"));
        for h in 0..s.hosts {
            zone.add_a(
                Name::parse_str(&topo.host_name(s, h)).expect("valid name"),
                s.dest_eid(h),
                300,
            );
        }
        let mut store = ZoneStore::new();
        store.add_zone(zone);
        site_stores[i] = Some(store);
    }
    let mut infra_store = ZoneStore::new();
    infra_store.add_zone(infra);
    let queries: Vec<(&Name, &ZoneStore)> = stream
        .flows
        .iter()
        .zip(&stream.targets)
        .map(|(f, t)| {
            let store = site_stores[t.site]
                .as_ref()
                .expect("flows go to server sites");
            (&f.qname, store)
        })
        .collect();
    time_per_op(2 * queries.len(), || {
        for &(qname, store) in &queries {
            black_box(infra_store.lookup(black_box(qname)));
            black_box(store.lookup(black_box(qname)));
        }
    })
}

/// Host nanoseconds per engine event of the bench crate's shape that
/// matches the workload's queue depth.
fn engine_cell(topo: &TopologySpec, shape: EngineShape) -> f64 {
    let mut per_event = Samples::default();
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let events = match shape {
            EngineShape::PingPong => pcelisp_bench::workloads::run_ping_pong(PING_PONG_PAIRS),
            EngineShape::Star => pcelisp_bench::workloads::run_star(topo.sites.len(), STAR_ROUNDS),
        };
        per_event.push(t0.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64);
    }
    per_event.median()
}
