//! Property-based tests of the churn schedule subsystem (`brb_sim::churn`).
//!
//! The whole cross-backend churn story rests on three contracts, pinned here over
//! generated specs and link states:
//!
//! * **compile determinism** — [`ChurnSpec::compile`] is a pure function of
//!   `(spec, seed)`: the same pair yields the same schedule, the events come out in
//!   nondecreasing time order, and `seq` numbers their rank;
//! * **partition/heal exactness** — a [`ChurnAction::Partition`] followed by its
//!   [`ChurnAction::Heal`] restores the *exact* pre-partition link state: links that
//!   were already down stay down, links the partition cut come back, nothing else moves;
//! * **restart safety** — a [`ChurnAction::NodeRestart`] never resurrects a retired
//!   instance: every broadcast the GC watermark retired was, by construction, delivered,
//!   so it is in the durable [`RestartMemory`], and the memory suppresses any
//!   post-restart re-delivery.

use brb_core::gc::{GcPolicy, GcState};
use brb_core::types::{BroadcastId, Delivery, Payload};
use brb_sim::churn::{ChurnAction, ChurnSpec, LinkState, RestartMemory};
use proptest::prelude::*;

/// A generated churn action over at most `n` processes (restarts excluded: they do not
/// touch the link state, which these properties are about).
fn action_strategy(n: usize) -> impl Strategy<Value = ChurnAction> {
    let p = 0..n;
    prop_oneof![
        (p.clone(), 0..n).prop_map(|(a, b)| ChurnAction::LinkDown { a, b }),
        (p.clone(), 0..n).prop_map(|(a, b)| ChurnAction::LinkUp { a, b }),
        proptest::collection::vec(p.clone(), 0..n).prop_map(|side| ChurnAction::Partition { side }),
        Just(ChurnAction::Heal),
        (p.clone(), 0..n, 0u64..1_000_000).prop_map(|(from, to, extra_micros)| {
            ChurnAction::SetLinkDelay {
                from,
                to,
                extra_micros,
            }
        }),
        (p, 0..n, 0.0f64..1.0).prop_map(|(from, to, probability)| ChurnAction::SetLinkLoss {
            from,
            to,
            probability,
        }),
    ]
}

/// A generated spec: a mix of fixed-time clauses and jittered flaps.
fn spec_strategy() -> impl Strategy<Value = ChurnSpec> {
    let at = (0u64..5_000_000, action_strategy(8)).prop_map(|(t, a)| (None, t, a));
    let flap = (
        0usize..8,
        0usize..8,
        0u64..1_000_000,
        1u64..500_000,
        1u64..500_000,
        1u32..5,
        0u64..50_000,
    )
        .prop_map(|(a, b, start, down, up, cycles, jitter)| {
            (
                Some((a, b, start, down, up, cycles, jitter)),
                0,
                ChurnAction::Heal,
            )
        });
    proptest::collection::vec(prop_oneof![at, flap], 0..12).prop_map(|clauses| {
        let mut spec = ChurnSpec::new();
        for (flap, t, action) in clauses {
            spec = match flap {
                Some((a, b, start, down, up, cycles, jitter)) => {
                    spec.flap_jittered(a, b, start, down, up, cycles, jitter)
                }
                None => spec.at(t, action),
            };
        }
        spec
    })
}

/// An undirected edge list over `n` processes (self-loops filtered out).
fn edges_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..n, 0..n), 0..20)
        .prop_map(|pairs| pairs.into_iter().filter(|(u, v)| u != v).collect())
}

proptest! {
    // Fully pinned runner configuration (see tests/README.md at the repository root):
    // committed case count, base seed and failure-persistence file make this suite
    // generate the same inputs on every machine.
    #![proptest_config(ProptestConfig::with_cases(64)
        .with_rng_seed(0xC4C4_0B5E_55ED_5EED)
        .with_failure_persistence(FileFailurePersistence::SourceParallel("proptest-regressions")))]

    #[test]
    fn compile_is_reproducible_and_time_ordered(spec in spec_strategy(), seed in any::<u64>()) {
        let a = spec.compile(seed);
        let b = spec.compile(seed);
        prop_assert_eq!(&a, &b, "compile must be a pure function of (spec, seed)");
        for window in a.windows(2) {
            prop_assert!(
                window[0].at_micros <= window[1].at_micros,
                "events must be in nondecreasing time order"
            );
        }
        for (rank, event) in a.iter().enumerate() {
            prop_assert_eq!(event.seq as usize, rank, "seq numbers the sorted rank");
        }
    }

    #[test]
    fn partition_then_heal_restores_the_exact_prior_state(
        edges in edges_strategy(8),
        pre in proptest::collection::vec(action_strategy(8), 0..8),
        side in proptest::collection::vec(0usize..8, 0..8),
    ) {
        let mut state = LinkState::new();
        // An arbitrary history, then settle all open partitions so the snapshot below
        // is the only active cut.
        for action in &pre {
            state.apply(action, &edges);
        }
        state.apply(&ChurnAction::Heal, &edges);
        let before = state.clone();
        state.apply(&ChurnAction::Partition { side: side.clone() }, &edges);
        // While partitioned, every currently-up cross edge is down in both directions.
        for &(u, v) in &edges {
            if side.contains(&u) != side.contains(&v) {
                prop_assert!(!state.allows(u, v), "cross edge {u}->{v} must be cut");
                prop_assert!(!state.allows(v, u), "cross edge {v}->{u} must be cut");
            }
        }
        state.apply(&ChurnAction::Heal, &edges);
        prop_assert_eq!(state, before, "heal must restore the exact pre-partition state");
    }

    #[test]
    fn restart_never_resurrects_a_retired_instance(
        delivered in proptest::collection::vec((0usize..6, 0u32..6), 1..24),
        extra_events in 0u64..64,
    ) {
        let delivered: std::collections::BTreeSet<(usize, u32)> =
            delivered.into_iter().collect();
        // Deliver a batch of instances under an aggressive watermark policy, driving
        // the GC until some are retired...
        let mut gc = GcState::new(GcPolicy::after_events(1));
        let mut log = Vec::new();
        for &(source, seq) in &delivered {
            let id = BroadcastId::new(source, seq);
            gc.on_delivered(id);
            log.push(Delivery { id, payload: Payload::new(Vec::new()) });
            gc.on_event();
        }
        for _ in 0..extra_events {
            gc.on_event();
        }
        let retired = gc.due();
        // ...then crash-recover: the volatile GcState is lost, the engine's delivery log
        // moves into the durable memory. Every retired instance must be suppressed by
        // the memory — the watermark only ever retires delivered instances, so none can
        // resurface as a fresh delivery after the restart.
        let mut memory = RestartMemory::new();
        memory.absorb(&log);
        for id in &retired {
            prop_assert!(
                memory.suppresses(*id),
                "retired instance {id} escaped the durable log"
            );
        }
        prop_assert!(retired.len() <= memory.full_log(&[]).len());
    }
}
