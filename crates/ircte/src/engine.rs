//! The IRC engine: providers, monitors, per-flow RLOC choice, and
//! re-optimisation — the component both PCEs of the paper run "online …
//! in background, so the mapping is always known aforehand".

use crate::monitor::PathMonitor;
use crate::objective::{assign_min_max, utilisations, Imbalance};
use crate::policy::{ProviderView, SelectionPolicy};
use lispwire::Ipv4Address;
use netsim::Ns;
use std::collections::BTreeMap;

/// Index of a provider within an engine.
pub type ProviderId = usize;

/// One upstream provider of the domain.
#[derive(Debug, Clone)]
pub struct Provider {
    /// Human-readable name ("Provider A").
    pub name: String,
    /// The local RLOC on this provider (the border router's address).
    pub rloc: Ipv4Address,
    /// Capacity in arbitrary rate units (e.g. Mbps).
    pub capacity: f64,
    /// Monetary cost weight.
    pub cost: f64,
    /// Static weight for weighted balancing.
    pub weight: u32,
    /// Administrative up/down state.
    pub up: bool,
}

impl Provider {
    /// A provider with default cost/weight.
    pub fn new(name: &str, rloc: Ipv4Address, capacity: f64) -> Self {
        Self {
            name: name.to_string(),
            rloc,
            capacity,
            cost: 1.0,
            weight: 1,
            up: true,
        }
    }

    /// Builder: set cost.
    pub fn with_cost(mut self, cost: f64) -> Self {
        self.cost = cost;
        self
    }

    /// Builder: set weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// A flow the engine tracks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedFlow {
    /// Flow key: (source EID, destination EID).
    pub key: (Ipv4Address, Ipv4Address),
    /// Estimated rate in the same units as provider capacity.
    pub rate: f64,
    /// Provider currently carrying it.
    pub provider: ProviderId,
}

/// A re-optimisation decision: move `flow_key` to `new_provider`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// The flow to move.
    pub flow_key: (Ipv4Address, Ipv4Address),
    /// Where it should now ride.
    pub new_provider: ProviderId,
    /// The RLOC of the new provider.
    pub new_rloc: Ipv4Address,
}

/// The IRC engine.
#[derive(Debug, Clone)]
pub struct IrcEngine {
    providers: Vec<Provider>,
    monitors: Vec<PathMonitor>,
    policy: SelectionPolicy,
    flows: BTreeMap<(u32, u32), TrackedFlow>,
    /// Allocated rate per provider: the sum of `rate` over the tracked
    /// flows it carries, kept current by every mutation of `flows` so a
    /// choice never re-sums the whole flow table.
    load: Vec<f64>,
    /// Flows admitted.
    pub flows_admitted: u64,
    /// Flows removed.
    pub flows_removed: u64,
    /// Moves produced by re-optimisation rounds.
    pub moves_made: u64,
}

impl IrcEngine {
    /// An engine over `providers` with the given selection policy.
    ///
    /// # Panics
    /// Panics if `providers` is empty.
    pub fn new(providers: Vec<Provider>, policy: SelectionPolicy) -> Self {
        assert!(!providers.is_empty(), "need at least one provider");
        let monitors = providers.iter().map(|_| PathMonitor::new()).collect();
        let load = vec![0.0; providers.len()];
        Self {
            providers,
            monitors,
            policy,
            flows: BTreeMap::new(),
            load,
            flows_admitted: 0,
            flows_removed: 0,
            moves_made: 0,
        }
    }

    /// The configured providers.
    pub fn providers(&self) -> &[Provider] {
        &self.providers
    }

    /// The active policy.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Change policy at runtime.
    pub fn set_policy(&mut self, policy: SelectionPolicy) {
        self.policy = policy;
    }

    /// Feed a latency sample for provider `p`.
    pub fn record_rtt(&mut self, p: ProviderId, rtt: Ns) {
        self.monitors[p].record_rtt(rtt);
    }

    /// Feed a loss event for provider `p`.
    pub fn record_loss(&mut self, p: ProviderId) {
        self.monitors[p].record_loss();
    }

    /// Mark a provider up/down.
    pub fn set_up(&mut self, p: ProviderId, up: bool) {
        self.providers[p].up = up;
    }

    fn key(flow: (Ipv4Address, Ipv4Address)) -> (u32, u32) {
        (flow.0.to_u32(), flow.1.to_u32())
    }

    /// Current allocated load per provider.
    pub fn loads(&self) -> &[f64] {
        &self.load
    }

    fn utilisation(&self, p: ProviderId) -> f64 {
        self.load[p] / self.providers[p].capacity.max(f64::MIN_POSITIVE)
    }

    /// Current utilisation per provider.
    pub fn utilisations(&self) -> Vec<f64> {
        (0..self.providers.len())
            .map(|p| self.utilisation(p))
            .collect()
    }

    /// Imbalance metrics of the current allocation.
    pub fn imbalance(&self) -> Imbalance {
        Imbalance::of(&self.utilisations())
    }

    fn views(&self) -> Vec<ProviderView> {
        self.providers
            .iter()
            .enumerate()
            .map(|(i, p)| ProviderView {
                latency_ns: self.monitors[i].srtt().map(|n| n.0).unwrap_or(u64::MAX),
                loss: self.monitors[i].loss(),
                cost: p.cost,
                utilisation: self.utilisation(i),
                weight: p.weight,
                up: p.up,
            })
            .collect()
    }

    /// Admit a flow: choose its provider under the active policy, track
    /// it, and return the chosen provider's id and RLOC. Returns `None`
    /// when every provider is down.
    pub fn admit_flow(
        &mut self,
        flow: (Ipv4Address, Ipv4Address),
        rate: f64,
    ) -> Option<(ProviderId, Ipv4Address)> {
        let views = self.views();
        let p = self.policy.select(&views)?;
        let replaced = self.flows.insert(
            Self::key(flow),
            TrackedFlow {
                key: flow,
                rate,
                provider: p,
            },
        );
        if let Some(old) = replaced {
            self.load[old.provider] -= old.rate;
        }
        self.load[p] += rate;
        self.flows_admitted += 1;
        Some((p, self.providers[p].rloc))
    }

    /// The ingress RLOC the engine would choose *right now* without
    /// tracking a flow (the paper's step 1: reverse-mapping choice).
    pub fn peek_choice(&self) -> Option<(ProviderId, Ipv4Address)> {
        let p = self.policy.select(&self.views())?;
        Some((p, self.providers[p].rloc))
    }

    /// Stop tracking a flow.
    pub fn remove_flow(&mut self, flow: (Ipv4Address, Ipv4Address)) -> bool {
        let Some(old) = self.flows.remove(&Self::key(flow)) else {
            return false;
        };
        self.load[old.provider] -= old.rate;
        self.flows_removed += 1;
        true
    }

    /// Number of tracked flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Reachability-driven repath: mark provider `dead` down and move
    /// every flow it carried to a surviving provider chosen by the
    /// active policy. Returns the applied moves (empty when every other
    /// provider is also down — the flows then stay stranded, which the
    /// caller can detect via [`IrcEngine::loads`]). This is the PCE's
    /// reaction to a locator failure (DESIGN.md §7): unlike
    /// [`IrcEngine::reoptimize`] it is triggered by a reachability
    /// change, not by utilisation imbalance.
    pub fn repath(&mut self, dead: ProviderId) -> Vec<Move> {
        self.providers[dead].up = false;
        let stranded: Vec<(Ipv4Address, Ipv4Address)> = self
            .flows
            .values()
            .filter(|f| f.provider == dead)
            .map(|f| f.key)
            .collect();
        let mut moves = Vec::new();
        for key in stranded {
            // Re-select per flow so balancing policies spread the
            // displaced load instead of dog-piling one survivor.
            let views = self.views();
            let Some(new_p) = self.policy.select(&views) else {
                break;
            };
            let f = self.flows.get_mut(&Self::key(key)).expect("tracked");
            f.provider = new_p;
            self.load[dead] -= f.rate;
            self.load[new_p] += f.rate;
            moves.push(Move {
                flow_key: key,
                new_provider: new_p,
                new_rloc: self.providers[new_p].rloc,
            });
        }
        self.moves_made += moves.len() as u64;
        moves
    }

    /// Globally re-optimise with the min-max objective; returns the moves
    /// (flows whose provider changed), already applied to the tracking
    /// state. This is the paper's "PCE_S can carry out local TE actions,
    /// and move part of its internal traffic" — made safe by mappings
    /// being pre-installed at all ITRs.
    pub fn reoptimize(&mut self) -> Vec<Move> {
        let flows: Vec<TrackedFlow> = self.flows.values().copied().collect();
        if flows.is_empty() {
            return Vec::new();
        }
        let rates: Vec<f64> = flows.iter().map(|f| f.rate).collect();
        let caps: Vec<f64> = self
            .providers
            .iter()
            .map(|p| if p.up { p.capacity } else { f64::MIN_POSITIVE })
            .collect();
        let assignment = assign_min_max(&rates, &caps);
        let mut moves = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            let new_p = assignment[i];
            if new_p != f.provider {
                self.flows
                    .get_mut(&Self::key(f.key))
                    .expect("tracked")
                    .provider = new_p;
                self.load[f.provider] -= f.rate;
                self.load[new_p] += f.rate;
                moves.push(Move {
                    flow_key: f.key,
                    new_provider: new_p,
                    new_rloc: self.providers[new_p].rloc,
                });
            }
        }
        self.moves_made += moves.len() as u64;
        moves
    }

    /// What the min-max utilisation would be after `reoptimize`.
    pub fn optimal_max_utilisation(&self) -> f64 {
        let flows: Vec<TrackedFlow> = self.flows.values().copied().collect();
        if flows.is_empty() {
            return 0.0;
        }
        let rates: Vec<f64> = flows.iter().map(|f| f.rate).collect();
        let caps: Vec<f64> = self.providers.iter().map(|p| p.capacity).collect();
        let assignment = assign_min_max(&rates, &caps);
        Imbalance::of(&utilisations(&rates, &caps, &assignment)).max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn engine(policy: SelectionPolicy) -> IrcEngine {
        IrcEngine::new(
            vec![
                Provider::new("A", a([10, 0, 0, 1]), 100.0).with_cost(2.0),
                Provider::new("B", a([11, 0, 0, 1]), 50.0).with_cost(1.0),
            ],
            policy,
        )
    }

    fn flow(i: u8) -> (Ipv4Address, Ipv4Address) {
        (a([100, 0, 0, i]), a([101, 0, 0, i]))
    }

    #[test]
    fn admit_tracks_load() {
        let mut e = engine(SelectionPolicy::WeightedBalance);
        for i in 0..10 {
            e.admit_flow(flow(i), 5.0).unwrap();
        }
        assert_eq!(e.flow_count(), 10);
        let loads = e.loads();
        assert!((loads.iter().sum::<f64>() - 50.0).abs() < 1e-9);
        // Balanced by utilisation ratio, both sides carry traffic.
        assert!(loads[0] > 0.0 && loads[1] > 0.0);
    }

    #[test]
    fn latency_policy_follows_monitors() {
        let mut e = engine(SelectionPolicy::MinLatency);
        e.record_rtt(0, Ns::from_ms(80));
        e.record_rtt(1, Ns::from_ms(20));
        let (p, rloc) = e.admit_flow(flow(1), 1.0).unwrap();
        assert_eq!(p, 1);
        assert_eq!(rloc, a([11, 0, 0, 1]));
        // Provider 1 degrades: new flows prefer provider 0.
        for _ in 0..50 {
            e.record_rtt(1, Ns::from_ms(500));
        }
        let (p, _) = e.admit_flow(flow(2), 1.0).unwrap();
        assert_eq!(p, 0);
    }

    #[test]
    fn down_provider_failover() {
        let mut e = engine(SelectionPolicy::MinCost);
        // Cheapest is B (index 1).
        assert_eq!(e.admit_flow(flow(1), 1.0).unwrap().0, 1);
        e.set_up(1, false);
        assert_eq!(e.admit_flow(flow(2), 1.0).unwrap().0, 0);
        e.set_up(0, false);
        assert!(e.admit_flow(flow(3), 1.0).is_none());
    }

    #[test]
    fn reoptimize_moves_flows() {
        let mut e = engine(SelectionPolicy::MinCost);
        // MinCost dumps everything on B (capacity 50).
        for i in 0..10 {
            e.admit_flow(flow(i), 10.0).unwrap();
        }
        let before = e.imbalance();
        assert!(before.max > 1.5, "B overloaded: {}", before.max);
        let moves = e.reoptimize();
        assert!(!moves.is_empty());
        let after = e.imbalance();
        assert!(after.max < before.max);
        // Post-optimum matches the objective's prediction.
        assert!((after.max - e.optimal_max_utilisation()).abs() < 1e-9);
    }

    #[test]
    fn repath_moves_flows_off_dead_provider() {
        let mut e = engine(SelectionPolicy::MinCost);
        // MinCost puts everything on B (index 1).
        for i in 0..4 {
            e.admit_flow(flow(i), 5.0).unwrap();
        }
        let moves = e.repath(1);
        assert_eq!(moves.len(), 4);
        assert!(moves.iter().all(|m| m.new_provider == 0));
        assert!(moves.iter().all(|m| m.new_rloc == a([10, 0, 0, 1])));
        let loads = e.loads();
        assert_eq!(loads[1], 0.0, "dead provider carries nothing");
        assert!((loads[0] - 20.0).abs() < 1e-9);
        // New admissions avoid the dead provider too.
        assert_eq!(e.admit_flow(flow(9), 1.0).unwrap().0, 0);
        // Everything down: flows stay stranded, no moves.
        let mut all_down = engine(SelectionPolicy::MinCost);
        all_down.admit_flow(flow(1), 1.0).unwrap();
        all_down.set_up(0, false);
        assert!(all_down.repath(1).is_empty());
    }

    #[test]
    fn remove_flow_frees_load() {
        let mut e = engine(SelectionPolicy::WeightedBalance);
        e.admit_flow(flow(1), 10.0).unwrap();
        assert!(e.remove_flow(flow(1)));
        assert!(!e.remove_flow(flow(1)));
        assert_eq!(e.flow_count(), 0);
        assert!(e.loads().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn peek_does_not_track() {
        let mut e = engine(SelectionPolicy::MinCost);
        assert!(e.peek_choice().is_some());
        assert_eq!(e.flow_count(), 0);
        // peek and admit agree.
        let peeked = e.peek_choice().unwrap();
        let admitted = e.admit_flow(flow(9), 1.0).unwrap();
        assert_eq!(peeked, admitted);
    }
}
