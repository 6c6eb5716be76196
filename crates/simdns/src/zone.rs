//! Zone data for authoritative servers.

use lispwire::dnswire::{Name, Rdata, Record};
use lispwire::Ipv4Address;
use std::collections::BTreeMap;

/// One delegation: a child zone cut with its name servers and glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// The delegated child zone name.
    pub zone: Name,
    /// Name-server names with their glue addresses.
    pub servers: Vec<(Name, Ipv4Address)>,
    /// TTL for the NS and glue records.
    pub ttl: u32,
}

/// A zone: an apex plus its data and delegations.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    /// The zone apex (e.g. `example` or the root).
    pub apex: Name,
    /// A records by owner name.
    pub a_records: BTreeMap<Name, (Ipv4Address, u32)>,
    /// Delegations by child-zone name.
    pub delegations: BTreeMap<Name, Delegation>,
}

impl Zone {
    /// An empty zone with the given apex.
    pub fn new(apex: Name) -> Self {
        Self {
            apex,
            a_records: BTreeMap::new(),
            delegations: BTreeMap::new(),
        }
    }

    /// Add an A record.
    pub fn add_a(&mut self, name: Name, addr: Ipv4Address, ttl: u32) -> &mut Self {
        debug_assert!(name.is_subdomain_of(&self.apex), "record outside zone");
        self.a_records.insert(name, (addr, ttl));
        self
    }

    /// Add a delegation for a child zone.
    pub fn delegate(
        &mut self,
        child: Name,
        servers: Vec<(Name, Ipv4Address)>,
        ttl: u32,
    ) -> &mut Self {
        debug_assert!(child.is_subdomain_of(&self.apex), "delegation outside zone");
        self.delegations.insert(
            child.clone(),
            Delegation {
                zone: child,
                servers,
                ttl,
            },
        );
        self
    }

    /// Find the delegation (if any) that covers `qname`: the most specific
    /// delegated child the name falls under. Walks `qname`'s ancestors
    /// longest first with one map probe each, so the cost grows with the
    /// name's depth, not with the number of delegations. Covering cuts
    /// are ancestors of `qname`, and no two ancestors share a label
    /// count, so the first hit is the deepest cut.
    pub fn covering_delegation(&self, qname: &Name) -> Option<&Delegation> {
        qname
            .ancestors()
            .find_map(|suffix| self.delegations.get(suffix))
    }
}

/// What an authoritative lookup produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// Authoritative answer records.
    Answer(Vec<Record>),
    /// Referral: NS records for the child zone plus glue.
    Referral {
        /// NS records (owner = child zone).
        ns: Vec<Record>,
        /// Glue A records for the name servers.
        glue: Vec<Record>,
    },
    /// The name does not exist in this zone.
    NxDomain,
    /// The query name is not inside any zone this store serves.
    NotAuthoritative,
}

/// The set of zones one server is authoritative for.
#[derive(Debug, Clone, Default)]
pub struct ZoneStore {
    zones: Vec<Zone>,
}

impl ZoneStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a zone.
    pub fn add_zone(&mut self, zone: Zone) -> &mut Self {
        self.zones.push(zone);
        self
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True if the store has no zones.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// The most specific zone whose apex covers `qname`.
    pub fn best_zone(&self, qname: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| qname.is_subdomain_of(&z.apex))
            .max_by_key(|z| z.apex.label_count())
    }

    /// Perform the authoritative lookup for an A query.
    pub fn lookup(&self, qname: &Name) -> LookupResult {
        let Some(zone) = self.best_zone(qname) else {
            return LookupResult::NotAuthoritative;
        };
        // Delegation check first: a zone cut takes precedence for names
        // below it (unless the name is the data at/above the cut).
        if let Some(d) = zone.covering_delegation(qname) {
            let ns = d
                .servers
                .iter()
                .map(|(nsname, _)| Record::ns(d.zone.clone(), nsname.clone(), d.ttl))
                .collect();
            let glue = d
                .servers
                .iter()
                .map(|(nsname, addr)| Record::a(nsname.clone(), *addr, d.ttl))
                .collect();
            return LookupResult::Referral { ns, glue };
        }
        if let Some((addr, ttl)) = zone.a_records.get(qname) {
            return LookupResult::Answer(vec![Record {
                name: qname.clone(),
                ttl: *ttl,
                rdata: Rdata::A(*addr),
            }]);
        }
        LookupResult::NxDomain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Linear scan over every delegation keeping the deepest covering
    /// cut: the reference [`Zone::covering_delegation`] is checked against.
    fn covering_delegation_scan<'z>(zone: &'z Zone, qname: &Name) -> Option<&'z Delegation> {
        let mut best: Option<&Delegation> = None;
        for d in zone.delegations.values() {
            if qname.is_subdomain_of(&d.zone) {
                match best {
                    Some(b) if b.zone.label_count() >= d.zone.label_count() => {}
                    _ => best = Some(d),
                }
            }
        }
        best
    }

    fn n(s: &str) -> Name {
        Name::parse_str(s).unwrap()
    }
    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn root_zone() -> Zone {
        let mut z = Zone::new(Name::root());
        z.delegate(
            n("example"),
            vec![(n("ns.example"), a([12, 0, 0, 53]))],
            86400,
        );
        z
    }

    fn example_zone() -> Zone {
        let mut z = Zone::new(n("example"));
        z.add_a(n("host.d.example"), a([101, 0, 0, 5]), 300);
        z.delegate(
            n("deep.example"),
            vec![(n("ns.deep.example"), a([13, 0, 0, 53]))],
            3600,
        );
        z
    }

    #[test]
    fn answer_when_present() {
        let mut store = ZoneStore::new();
        store.add_zone(example_zone());
        match store.lookup(&n("host.d.example")) {
            LookupResult::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rdata, Rdata::A(a([101, 0, 0, 5])));
                assert_eq!(recs[0].ttl, 300);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn referral_below_cut() {
        let mut store = ZoneStore::new();
        store.add_zone(root_zone());
        match store.lookup(&n("host.d.example")) {
            LookupResult::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(ns[0].name, n("example"));
                assert_eq!(glue[0].rdata, Rdata::A(a([12, 0, 0, 53])));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_inside_zone() {
        let mut store = ZoneStore::new();
        store.add_zone(example_zone());
        assert_eq!(store.lookup(&n("missing.example")), LookupResult::NxDomain);
    }

    #[test]
    fn not_authoritative_outside() {
        let mut store = ZoneStore::new();
        store.add_zone(example_zone());
        assert_eq!(
            store.lookup(&n("other.org")),
            LookupResult::NotAuthoritative
        );
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut store = ZoneStore::new();
        store.add_zone(root_zone());
        store.add_zone(example_zone());
        // With both zones loaded, example data answers directly instead of
        // the root's referral.
        assert!(matches!(
            store.lookup(&n("host.d.example")),
            LookupResult::Answer(_)
        ));
    }

    #[test]
    fn nested_delegation_prefers_deepest() {
        let z = example_zone();
        let d = z.covering_delegation(&n("host.deep.example")).unwrap();
        assert_eq!(d.zone, n("deep.example"));
        assert!(z.covering_delegation(&n("host.d.example")).is_none());
    }

    #[test]
    fn root_zone_covers_everything() {
        let mut store = ZoneStore::new();
        store.add_zone(root_zone());
        assert!(!matches!(
            store.lookup(&n("anything.at.all")),
            LookupResult::NotAuthoritative
        ));
    }

    /// A name of 0–3 labels over an alphabet where one label is a string
    /// suffix of another (`b` / `ab`), so `ends_with` without a label
    /// boundary would be caught.
    fn name_strategy() -> impl Strategy<Value = Name> {
        prop::collection::vec(prop::sample::select(vec!["a", "b", "ab", "c"]), 0..4)
            .prop_map(|labels| n(&labels.join(".")))
    }

    fn cut(zone: Name) -> Delegation {
        Delegation {
            servers: vec![(n("ns.x"), a([9, 9, 9, 53]))],
            zone,
            ttl: 60,
        }
    }

    proptest! {
        /// The ancestor walk finds the same delegation as the linear scan
        /// on random cut sets: a root cut, nested cuts, query names equal
        /// to a cut or one label below it, and names outside the apex.
        #[test]
        fn covering_delegation_matches_linear_scan(
            apex in name_strategy(),
            cuts in prop::collection::vec(name_strategy(), 0..10),
            root_cut in any::<bool>(),
            queries in prop::collection::vec(name_strategy(), 1..12),
        ) {
            // Cuts go straight into the map: `delegate` would reject cuts
            // outside the apex, and the lookup must not depend on the apex.
            let mut zone = Zone::new(apex);
            for c in cuts {
                zone.delegations.insert(c.clone(), cut(c));
            }
            if root_cut {
                zone.delegations.insert(Name::root(), cut(Name::root()));
            }
            let mut qnames = queries;
            for c in zone.delegations.keys() {
                qnames.push(c.clone());
                qnames.push(n(&format!("ab.{c}")));
            }
            for q in &qnames {
                prop_assert_eq!(
                    zone.covering_delegation(q),
                    covering_delegation_scan(&zone, q),
                    "qname {}",
                    q
                );
            }
        }
    }

    #[test]
    fn tld_zone_with_2048_delegations() {
        let mut tld = Zone::new(n("example"));
        tld.add_a(n("www.example"), a([12, 0, 0, 80]), 300);
        for i in 0..2048u16 {
            let child = format!("s{i}.example");
            let [hi, lo] = i.to_be_bytes();
            tld.delegate(
                n(&child),
                vec![(n(&format!("ns.{child}")), a([10, hi, lo, 53]))],
                86400,
            );
        }
        for i in 0..2048 {
            let q = n(&format!("host-1.s{i}.example"));
            assert_eq!(
                tld.covering_delegation(&q),
                covering_delegation_scan(&tld, &q)
            );
        }
        let mut store = ZoneStore::new();
        store.add_zone(tld);
        let referral = |owner: &str, ns: &str, glue: [u8; 4]| LookupResult::Referral {
            ns: vec![Record::ns(n(owner), n(ns), 86400)],
            glue: vec![Record::a(n(ns), a(glue), 86400)],
        };
        assert_eq!(
            store.lookup(&n("host-3.s1234.example")),
            referral("s1234.example", "ns.s1234.example", [10, 4, 210, 53])
        );
        // `s11` is not read as a subdomain of `s1`.
        assert_eq!(
            store.lookup(&n("host.s11.example")),
            referral("s11.example", "ns.s11.example", [10, 0, 11, 53])
        );
        // A query for the cut itself is referred too.
        assert_eq!(
            store.lookup(&n("s2047.example")),
            referral("s2047.example", "ns.s2047.example", [10, 7, 255, 53])
        );
        assert_eq!(
            store.lookup(&n("www.example")),
            LookupResult::Answer(vec![Record::a(n("www.example"), a([12, 0, 0, 80]), 300)])
        );
        assert_eq!(store.lookup(&n("s2048.example")), LookupResult::NxDomain);
        assert_eq!(
            store.lookup(&n("host.s7.other")),
            LookupResult::NotAuthoritative
        );
    }
}
