//! Seeded workload inputs. The benchmark makes its own flow stream from
//! `--seed` with its own generator, so the simulator receives only
//! generated flows (through `ScenarioSpec::set_flows`) and a change to
//! the simulator's workload code cannot change what is measured.

use lispwire::dnswire::Name;
use netsim::Ns;
use pcelisp::hosts::{FlowMode, FlowSpec};
use pcelisp::spec::{SiteRole, TopologySpec};

/// SplitMix64: a small seedable generator, independent of the
/// simulator's RNGs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` of it is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Where one generated flow goes: an index into the topology's sites
/// and a host index inside that site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Index into `TopologySpec::sites`.
    pub site: usize,
    /// Destination host (`host-{i}`) inside the site.
    pub host: usize,
}

/// A generated flow script and the destination of each flow.
#[derive(Debug, Clone)]
pub struct FlowStream {
    /// The flows handed to the world.
    pub flows: Vec<FlowSpec>,
    /// `targets[i]` is where `flows[i]` goes.
    pub targets: Vec<Target>,
}

/// The UDP shape of every generated flow: three 300-byte packets 2 ms
/// apart (the multi-site worlds' default flow shape).
const UDP_FLOW: FlowMode = FlowMode::Udp {
    packets: 3,
    interval: Ns::from_ms(2),
    size: 300,
};

/// `count` flows with Poisson arrivals at `rate_per_sec`, destination
/// sites drawn Zipf(`zipf_s`) over the server sites in spec order, and
/// destination hosts drawn uniformly inside the site.
///
/// # Panics
/// Panics if the topology has no server site or `rate_per_sec` is not
/// positive.
pub fn poisson_zipf(
    topo: &TopologySpec,
    seed: u64,
    count: usize,
    rate_per_sec: f64,
    zipf_s: f64,
) -> FlowStream {
    assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    let servers: Vec<usize> = (0..topo.sites.len())
        .filter(|&i| topo.sites[i].role == SiteRole::Server)
        .collect();
    assert!(!servers.is_empty(), "topology has no server site");
    let mut cdf = Vec::with_capacity(servers.len());
    let mut total = 0.0;
    for rank in 1..=servers.len() {
        total += 1.0 / (rank as f64).powf(zipf_s);
        cdf.push(total);
    }
    let mut rng = SplitMix64::new(seed);
    let mut t_secs = 0.0f64;
    let mut flows = Vec::with_capacity(count);
    let mut targets = Vec::with_capacity(count);
    for _ in 0..count {
        t_secs += -rng.unit().ln() / rate_per_sec;
        let u = rng.unit() * total;
        let rank = cdf.partition_point(|&c| c < u).min(servers.len() - 1);
        let site = servers[rank];
        let hosts = topo.sites[site].hosts.max(1);
        let host = (rng.next_u64() % hosts as u64) as usize;
        let qname = Name::parse_str(&topo.host_name(&topo.sites[site], host))
            .expect("topology host names are valid DNS names");
        // Whole nanoseconds, at least 1 ns: every flow starts after boot.
        let start = Ns(((t_secs * 1e9) as u64).max(1));
        flows.push(FlowSpec {
            start,
            qname,
            mode: UDP_FLOW,
        });
        targets.push(Target { site, host });
    }
    FlowStream { flows, targets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcelisp::scenario::CpKind;
    use pcelisp::spec::ScenarioSpec;

    #[test]
    fn same_seed_same_stream_and_arrivals_ascend() {
        let spec = ScenarioSpec::multi_site(CpKind::Pce, 8, 2);
        let a = poisson_zipf(&spec.topology, 7, 50, 5.0, 1.0);
        let b = poisson_zipf(&spec.topology, 7, 50, 5.0, 1.0);
        assert_eq!(a.targets, b.targets);
        assert!(a.flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(a.flows[0].start > Ns::ZERO);
        let c = poisson_zipf(&spec.topology, 8, 50, 5.0, 1.0);
        assert_ne!(a.targets, c.targets);
    }

    #[test]
    fn zipf_favours_the_first_server_site() {
        let spec = ScenarioSpec::multi_site(CpKind::Pce, 16, 2);
        let s = poisson_zipf(&spec.topology, 1, 4000, 5.0, 1.0);
        let first = s.targets.iter().filter(|t| t.site == 1).count();
        let last = s.targets.iter().filter(|t| t.site == 16).count();
        assert!(first > 4 * last, "first {first} last {last}");
    }
}
