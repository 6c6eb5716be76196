//! Property tests for the TE objective and the IRC engine.

use ircte::engine::Move;
use ircte::objective::{assign_min_max, utilisations, Imbalance};
use ircte::{IrcEngine, Provider, ProviderId, SelectionPolicy};
use lispwire::Ipv4Address;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One mutation of an [`IrcEngine`]'s tracked flows.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit flow `key` (a key already tracked is re-admitted).
    Admit(u32, f64),
    Remove(u32),
    Repath(ProviderId),
    Reoptimize,
    /// Bring a provider back up, so repaths do not strand everything.
    Revive(ProviderId),
}

const PROVIDERS: usize = 3;

/// Random op sequences over a small key space, so re-admission of a
/// tracked key and removal of a missing one both occur often.
fn ops<R: Strategy<Value = f64> + 'static>(rate: impl Fn() -> R) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u32..12, rate()).prop_map(|(k, r)| Op::Admit(k, r)),
        (0u32..12, rate()).prop_map(|(k, r)| Op::Admit(k, r)),
        (0u32..12).prop_map(Op::Remove),
        (0..PROVIDERS).prop_map(Op::Repath),
        Just(Op::Reoptimize),
        (0..PROVIDERS).prop_map(Op::Revive),
    ];
    prop::collection::vec(op, 1..60)
}

fn flow_of(k: u32) -> (Ipv4Address, Ipv4Address) {
    (
        Ipv4Address::from_u32(100 + k),
        Ipv4Address::from_u32(200 + k),
    )
}

/// Run `ops` against an engine and a model of its tracked flows (built
/// only from what the engine returns). After every step, call `check`
/// with the engine's maintained loads and a fresh sum over the model.
fn run_ops(policy: SelectionPolicy, ops: &[Op], check: impl Fn(&[f64], &[f64])) {
    let mut e = IrcEngine::new(
        vec![
            Provider::new("A", Ipv4Address::new(10, 0, 0, 1), 100.0).with_cost(2.0),
            Provider::new("B", Ipv4Address::new(11, 0, 0, 1), 40.0),
            Provider::new("C", Ipv4Address::new(12, 0, 0, 1), 70.0).with_cost(3.0),
        ],
        policy,
    );
    let mut model: BTreeMap<u32, (f64, ProviderId)> = BTreeMap::new();
    let apply = |model: &mut BTreeMap<u32, (f64, ProviderId)>, moves: &[Move]| {
        for m in moves {
            let k = m.flow_key.0.to_u32() - 100;
            model.get_mut(&k).expect("moved flow is tracked").1 = m.new_provider;
        }
    };
    for &op in ops {
        match op {
            Op::Admit(k, rate) => {
                if let Some((p, _)) = e.admit_flow(flow_of(k), rate) {
                    model.insert(k, (rate, p));
                }
            }
            Op::Remove(k) => {
                assert_eq!(e.remove_flow(flow_of(k)), model.remove(&k).is_some());
            }
            Op::Repath(p) => apply(&mut model, &e.repath(p)),
            Op::Reoptimize => apply(&mut model, &e.reoptimize()),
            Op::Revive(p) => e.set_up(p, true),
        }
        let mut fresh = vec![0.0; PROVIDERS];
        for &(rate, p) in model.values() {
            fresh[p] += rate;
        }
        assert_eq!(e.flow_count(), model.len());
        check(e.loads(), &fresh);
    }
}

fn policies() -> impl Strategy<Value = SelectionPolicy> {
    prop::sample::select(vec![
        SelectionPolicy::WeightedBalance,
        SelectionPolicy::MinCost,
        SelectionPolicy::Composite {
            wl: 0.0,
            wc: 1.0,
            wu: 5.0,
        },
    ])
}

proptest! {
    /// The greedy assignment is valid, deterministic, and never worse
    /// than dumping everything on the single best provider.
    #[test]
    fn assignment_sane(rates in prop::collection::vec(0.1f64..100.0, 1..40),
                       caps in prop::collection::vec(1.0f64..1000.0, 1..6)) {
        let asg = assign_min_max(&rates, &caps);
        prop_assert_eq!(asg.len(), rates.len());
        prop_assert!(asg.iter().all(|&p| p < caps.len()));
        prop_assert_eq!(assign_min_max(&rates, &caps), asg.clone());

        let utils = utilisations(&rates, &caps, &asg);
        let spread_max = Imbalance::of(&utils).max;
        let total: f64 = rates.iter().sum();
        let single_best = caps.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(spread_max <= total / single_best + 1e-9,
            "greedy {spread_max} worse than single-homing {}", total / single_best);
        // Lower bound: cannot beat total / sum(caps).
        let cap_sum: f64 = caps.iter().sum();
        prop_assert!(spread_max >= total / cap_sum - 1e-9);
    }

    /// Load conservation: utilisation × capacity sums back to the total
    /// offered rate.
    #[test]
    fn load_conserved(rates in prop::collection::vec(0.1f64..50.0, 1..30),
                      caps in prop::collection::vec(1.0f64..100.0, 1..5)) {
        let asg = assign_min_max(&rates, &caps);
        let utils = utilisations(&rates, &caps, &asg);
        let carried: f64 = utils.iter().zip(&caps).map(|(u, c)| u * c).sum();
        let offered: f64 = rates.iter().sum();
        prop_assert!((carried - offered).abs() < 1e-6);
    }

    /// The engine's tracked loads always sum to the admitted rates, and
    /// reoptimisation never increases max utilisation.
    #[test]
    fn engine_reopt_never_worse(rates in prop::collection::vec(0.5f64..20.0, 1..25)) {
        let mut e = IrcEngine::new(
            vec![
                Provider::new("A", Ipv4Address::new(10, 0, 0, 1), 100.0),
                Provider::new("B", Ipv4Address::new(11, 0, 0, 1), 40.0),
            ],
            SelectionPolicy::MinCost, // deliberately load-blind
        );
        for (i, &r) in rates.iter().enumerate() {
            let flow = (Ipv4Address::from_u32(100 + i as u32), Ipv4Address::from_u32(200 + i as u32));
            e.admit_flow(flow, r);
        }
        let before = e.imbalance().max;
        e.reoptimize();
        let after = e.imbalance().max;
        prop_assert!(after <= before + 1e-9, "reopt worsened: {before} -> {after}");
        let offered: f64 = rates.iter().sum();
        let carried: f64 = e.loads().iter().sum();
        prop_assert!((carried - offered).abs() < 1e-6);
    }

    /// With integral rates (the simulator books 1.0 per flow) the
    /// maintained per-provider load is bit-equal to re-summing the
    /// tracked flows after every admit, re-admit, remove, repath and
    /// reoptimize — so no policy choice can drift.
    #[test]
    fn maintained_load_equals_fresh_sum_integral(
        policy in policies(),
        ops in ops(|| (1u32..=20).prop_map(f64::from)),
    ) {
        run_ops(policy, &ops, |got, want| {
            let got: Vec<u64> = got.iter().map(|l| l.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|l| l.to_bits()).collect();
            assert_eq!(got, want);
        });
    }

    /// With arbitrary rates the maintained load stays within 1e-9
    /// (relative) of a fresh sum.
    #[test]
    fn maintained_load_tracks_fresh_sum(policy in policies(), ops in ops(|| 0.001f64..100.0)) {
        run_ops(policy, &ops, |got, want| {
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "load {g} vs fresh sum {w}");
            }
        });
    }
}
