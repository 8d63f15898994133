//! Reliable-communication (RC) substrates under a Bracha layer.
//!
//! Sec. 4.3 of the paper observes that BRB on a partially connected network is obtained by
//! combining Bracha's protocol with *any* protocol providing reliable communication on the
//! given topology: Dolev's flooding protocol (the main subject of the paper), Dolev's
//! known-topology variant with predefined routes, CPA under the locally bounded fault
//! model, or topology-specific protocols. In this crate an RC substrate is a plain
//! [`crate::protocol::Protocol`] engine:
//!
//! * its [`crate::protocol::Protocol::broadcast_into`] **originates** an RC broadcast of an
//!   opaque payload (an origin RC-delivers its own broadcast at once);
//! * every [`crate::types::Action::Deliver`] it pushes is an **RC delivery**, tagged by its
//!   broadcast id with the process that originated it (the paper embeds the originator in
//!   the payload because MD.2 erases paths; the id carries it here).
//!
//! A substrate must guarantee the RC properties for correct origins (every correct process
//! eventually RC-delivers what a correct origin originated, and an RC delivery attributed
//! to a correct origin was indeed originated by it), under the fault and connectivity
//! assumptions of the concrete protocol.
//!
//! [`crate::bracha_rc::BrachaOverRc`] is the generic combination;
//! [`crate::dolev_routed::RoutedDolev`] and [`crate::cpa::CpaProcess`] are the two
//! substrates the stacks build it on. The flooding Bracha–Dolev combination of the paper,
//! [`crate::bd`], is not built on the template: it runs the same two rules (Dolev's
//! `dolev::DolevInstance`, Bracha's `bracha::BrachaInstance`) and adds the cross-layer
//! modifications between them. The tests hold it against `BrachaOverRc<DolevProcess>`, a
//! combination no stack builds, which checks how `bd` wires the layers together; the
//! rules themselves are checked against their own references.

#[cfg(test)]
mod tests {
    use crate::bd::BdProcess;
    use crate::bracha::BrachaKind;
    use crate::bracha_rc::{decode_bracha, BrachaOverRc};
    use crate::config::{Config, MdFlags};
    use crate::dolev::{DolevMessage, DolevProcess};
    use crate::protocol::Protocol;
    use crate::types::{Action, Delivery, Payload, ProcessId};
    use crate::wire::{MessageKind, WireMessage};
    use brb_graph::{generate, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// What frames of both implementations agree on: Bracha phase (0 Send, 1 Echo,
    /// 2 Ready), originator and path.
    type FrameKey = (u8, ProcessId, Vec<ProcessId>);

    /// One broadcast as [`lockstep`] saw it.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// Per process: its deliveries, and the round of the first one.
        deliveries: Vec<(Vec<Delivery>, Option<usize>)>,
        /// Frames sent in all rounds.
        frames: usize,
    }

    /// Runs one broadcast by `source` in lockstep rounds: the frames sent in round `r`
    /// are handled in round `r + 1`, in increasing `(receiver, sender, key)` order, so two
    /// implementations that send the same frames see the same schedule.
    fn lockstep<P: Protocol>(
        processes: &mut [P],
        source: ProcessId,
        key: impl Fn(&P::Message) -> FrameKey,
    ) -> Outcome {
        fn sends<M>(from: ProcessId, actions: Vec<Action<M>>, round: &mut Vec<(usize, usize, M)>) {
            for action in actions {
                if let Action::Send { to, message } = action {
                    round.push((to, from, message));
                }
            }
        }
        let mut first_delivery = vec![None; processes.len()];
        let mut frames = 0;
        let mut round = Vec::new();
        sends(
            source,
            processes[source].broadcast(Payload::from("differential")),
            &mut round,
        );
        for r in 0.. {
            for (p, first) in processes.iter().zip(&mut first_delivery) {
                if first.is_none() && !p.deliveries().is_empty() {
                    *first = Some(r);
                }
            }
            if round.is_empty() {
                break;
            }
            frames += round.len();
            round.sort_by_cached_key(|(to, from, message)| (*to, *from, key(message)));
            let mut next = Vec::new();
            for (to, from, message) in round {
                sends(to, processes[to].handle_message(from, message), &mut next);
            }
            round = next;
        }
        Outcome {
            deliveries: processes
                .iter()
                .zip(first_delivery)
                .map(|(p, first)| (p.deliveries().to_vec(), first))
                .collect(),
            frames,
        }
    }

    fn bd_key(message: &WireMessage) -> FrameKey {
        let phase = match message.kind {
            MessageKind::Send => 0,
            MessageKind::Echo => 1,
            MessageKind::Ready => 2,
            merged => panic!("{merged:?} needs MBD.3/4"),
        };
        (phase, message.originator, message.path.clone())
    }

    fn rc_key(message: &DolevMessage) -> FrameKey {
        let bracha = decode_bracha(&message.content.payload).expect("a Bracha message");
        let phase = match bracha.kind {
            BrachaKind::Send => 0,
            BrachaKind::Echo => 1,
            BrachaKind::Ready => 2,
        };
        (phase, message.content.id.source, message.path.clone())
    }

    /// Asserts that `bd` with every MBD modification off and `BrachaOverRc<DolevProcess>`
    /// deliver the same payloads at the same processes in the same rounds, sending the
    /// same number of frames.
    fn assert_same_broadcast(graph: &Graph, config: Config, source: ProcessId) {
        let neighbors = |i| graph.neighbors_vec(i);
        let mut bd: Vec<BdProcess> = graph
            .nodes()
            .map(|i| BdProcess::new(i, config, neighbors(i)))
            .collect();
        let mut rc: Vec<BrachaOverRc<DolevProcess>> = graph
            .nodes()
            .map(|i| {
                BrachaOverRc::new(
                    config.n,
                    config.f,
                    DolevProcess::new(i, config, neighbors(i)),
                )
            })
            .collect();
        let bd = lockstep(&mut bd, source, bd_key);
        let rc = lockstep(&mut rc, source, rc_key);
        assert!(
            bd.deliveries.iter().all(|(d, _)| d.len() == 1),
            "{:?}: not everyone delivered",
            config.md
        );
        assert_eq!(bd, rc, "{:?}, source {source}", config.md);
    }

    /// The oracle for how `bd` wires its Dolev and Bracha layers: the generic template
    /// over the same two rules must agree on who delivers, when, and at what frame cost.
    /// Both sides run the same `BrachaInstance`, so the quorum rule itself is checked by
    /// `bracha::tests::step_matches_algorithm_1_written_out`. Fig. 1
    /// with f = 1 from every source under all 32 MD subsets, and the paper's headline
    /// point (N = 31, k = 10, f = 4) under MD.1–5. The frame counts are equal for every subset: the Dolev layer
    /// is one code path, and both Bracha layers send each created message to every
    /// neighbor.
    #[test]
    fn bd_without_mbd_matches_bracha_over_standalone_dolev() {
        let figure1 = generate::figure1_example();
        for subset in 0..32u8 {
            let md = MdFlags {
                md1: subset & 1 != 0,
                md2: subset & 2 != 0,
                md3: subset & 4 != 0,
                md4: subset & 8 != 0,
                md5: subset & 16 != 0,
            };
            for source in figure1.nodes() {
                assert_same_broadcast(&figure1, Config::plain(10, 1).with_md(md), source);
            }
        }
        let mut rng = StdRng::seed_from_u64(31_010);
        let headline = generate::random_regular_connected(31, 10, 9, &mut rng).unwrap();
        assert_same_broadcast(&headline, Config::bdopt(31, 4), 0);
    }
}
