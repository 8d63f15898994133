//! The fate of one outbound frame: the send-time decision the simulator and the live
//! links share.
//!
//! A frame `from -> to` meets three filters before it enters the network, always in this
//! order: the churn gate of its directed link, the link's loss override, and the
//! sender's Byzantine [`Behavior`]. [`outbound`] is that decision, written once. The
//! simulator calls it per `Send` action (`Simulation::schedule_actions`, with the run's
//! one RNG) and every live node calls it per frame (`brb_transport::FaultyLink`, with
//! the node's one RNG), so the same scenario draws in the same order on both sides.
//! What happens to the copies afterwards (byte accounting, `FrameSent`, delay sampling)
//! stays with each caller.

use brb_core::types::ProcessId;
use brb_trace::DropCause;
use rand::Rng;

use crate::behavior::Behavior;
use crate::churn::LinkState;

/// Decides the fate of one frame `from -> to` at send time: the number of copies that
/// enter the network, or the cause that drops it.
///
/// 1. The churn gate: a frame on a downed link is dropped ([`DropCause::ChurnGate`]).
/// 2. The link's loss override, one draw from `rng` when one is set
///    ([`DropCause::Loss`]).
/// 3. The sender's behavior ([`Behavior::outbound_copies`]), which reads `attempted`
///    (the frames that reached this step before) and then advances it. No copy is a
///    [`DropCause::Behavior`] drop.
///
/// A frame stopped by the gate or the loss override therefore advances no attempt
/// counter. `link` is `None` where no churn schedule runs.
#[inline]
pub fn outbound<R: Rng + ?Sized>(
    link: Option<&LinkState>,
    behavior: &Behavior,
    attempted: &mut usize,
    from: ProcessId,
    to: ProcessId,
    rng: &mut R,
) -> Result<usize, DropCause> {
    if let Some(link) = link {
        if !link.allows(from, to) {
            return Err(DropCause::ChurnGate);
        }
        if link
            .loss_probability(from, to)
            .is_some_and(|p| rng.gen_bool(p))
        {
            return Err(DropCause::Loss);
        }
    }
    let copies = behavior.outbound_copies(to, *attempted, rng);
    *attempted += 1;
    if copies == 0 {
        Err(DropCause::Behavior)
    } else {
        Ok(copies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnAction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn the_gate_drops_before_the_behavior_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut link = LinkState::new();
        link.apply(&ChurnAction::LinkDown { a: 0, b: 1 }, &[]);
        let behavior = Behavior::FailsAfter(1);
        let mut attempted = 0;
        for _ in 0..3 {
            let fate = outbound(Some(&link), &behavior, &mut attempted, 0, 1, &mut rng);
            assert_eq!(fate, Err(DropCause::ChurnGate));
        }
        assert_eq!(attempted, 0, "gated frames never reach the behavior");
        assert_eq!(
            outbound(Some(&link), &behavior, &mut attempted, 0, 2, &mut rng),
            Ok(1)
        );
        assert_eq!(
            outbound(None, &behavior, &mut attempted, 0, 1, &mut rng),
            Err(DropCause::Behavior)
        );
        assert_eq!(attempted, 2);
    }

    #[test]
    fn the_draws_follow_the_simulators_order() {
        // Loss override first, behavior second, both from the one stream.
        let mut link = LinkState::new();
        link.apply(
            &ChurnAction::SetLinkLoss {
                from: 0,
                to: 1,
                probability: 0.5,
            },
            &[],
        );
        let behavior = Behavior::Lossy(0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let mut reference = StdRng::seed_from_u64(9);
        let mut attempted = 0;
        for _ in 0..200 {
            let fate = outbound(Some(&link), &behavior, &mut attempted, 0, 1, &mut rng);
            let expected = if reference.gen_bool(0.5) {
                Err(DropCause::Loss)
            } else if behavior.outbound_copies(1, 0, &mut reference) == 0 {
                Err(DropCause::Behavior)
            } else {
                Ok(1)
            };
            assert_eq!(fate, expected);
        }
    }
}
