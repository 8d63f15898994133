//! Byzantine process behaviours injected by the simulator.
//!
//! The paper's model allows up to `f` processes to behave arbitrarily: drop, modify or
//! inject messages (Sec. 3). The simulator models a useful subset of those behaviours at
//! the node level — silence, message loss, duplication, amplification, and *targeted*
//! silence towards chosen victims; fully adversarial message forging (equivocation, fake
//! paths) is exercised in the integration and property tests by crafting wire messages
//! directly.

use rand::Rng;

use brb_core::types::ProcessId;

/// Behaviour of a process inside a simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Behavior {
    /// Follows the protocol faithfully.
    #[default]
    Correct,
    /// Crashed / silent: receives nothing, sends nothing. This is the weakest Byzantine
    /// behaviour but already stresses the `f+1` disjoint-path and `2f+1` quorum margins.
    Crash,
    /// Processes messages correctly but drops each outbound message with the given
    /// probability (a message-dropping adversary on its outgoing links).
    Lossy(f64),
    /// Processes messages correctly but sends every outbound message twice (a replaying
    /// adversary; correct protocols must be idempotent to duplicates).
    Replayer,
    /// Mutes itself after sending the given number of messages (a process that crashes
    /// mid-broadcast, leaving partially propagated state behind).
    FailsAfter(usize),
    /// Behaves correctly except that it silently drops every message addressed to the
    /// listed victims — a *targeted* partitioning adversary that tries to starve specific
    /// processes of the `f+1` disjoint paths or `2f+1` READYs they need.
    SilentTowards(Vec<ProcessId>),
    /// Sends the given number of copies of every outbound message (an amplification
    /// adversary trying to exhaust its neighbors' buffers and inflate their path stores).
    Flooder(usize),
}

impl Behavior {
    /// Whether the process accepts inbound messages.
    pub fn receives(&self) -> bool {
        !matches!(self, Behavior::Crash)
    }

    /// Whether this behaviour deviates from the protocol.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, Behavior::Correct)
    }

    /// Decides the fate of one outbound message addressed to `to`, given how many messages
    /// the process has already sent. Returns how many copies to transmit.
    pub fn outbound_copies<R: Rng + ?Sized>(
        &self,
        to: ProcessId,
        already_sent: usize,
        rng: &mut R,
    ) -> usize {
        match self {
            Behavior::Correct => 1,
            Behavior::Crash => 0,
            Behavior::Lossy(p) => {
                if rng.gen_bool(p.clamp(0.0, 1.0)) {
                    0
                } else {
                    1
                }
            }
            Behavior::Replayer => 2,
            Behavior::FailsAfter(limit) => {
                if already_sent < *limit {
                    1
                } else {
                    0
                }
            }
            Behavior::SilentTowards(victims) => {
                if victims.contains(&to) {
                    0
                } else {
                    1
                }
            }
            Behavior::Flooder(copies) => *copies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_behavior_passes_everything() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Behavior::Correct.receives());
        assert!(!Behavior::Correct.is_byzantine());
        assert_eq!(Behavior::Correct.outbound_copies(0, 100, &mut rng), 1);
    }

    #[test]
    fn crash_blocks_everything() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(!Behavior::Crash.receives());
        assert!(Behavior::Crash.is_byzantine());
        assert_eq!(Behavior::Crash.outbound_copies(0, 0, &mut rng), 0);
    }

    #[test]
    fn lossy_drops_roughly_the_requested_fraction() {
        let mut rng = StdRng::seed_from_u64(7);
        let behavior = Behavior::Lossy(0.5);
        let sent: usize = (0..1000)
            .map(|i| behavior.outbound_copies(0, i, &mut rng))
            .sum();
        assert!((300..700).contains(&sent), "sent {sent} of 1000");
    }

    #[test]
    fn lossy_with_out_of_range_probability_is_clamped() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(Behavior::Lossy(2.0).outbound_copies(0, 0, &mut rng), 0);
        assert_eq!(Behavior::Lossy(-1.0).outbound_copies(0, 0, &mut rng), 1);
    }

    #[test]
    fn replayer_duplicates() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Behavior::Replayer.outbound_copies(0, 3, &mut rng), 2);
    }

    #[test]
    fn fails_after_limit() {
        let mut rng = StdRng::seed_from_u64(0);
        let b = Behavior::FailsAfter(2);
        assert_eq!(b.outbound_copies(0, 0, &mut rng), 1);
        assert_eq!(b.outbound_copies(0, 1, &mut rng), 1);
        assert_eq!(b.outbound_copies(0, 2, &mut rng), 0);
        assert_eq!(b.outbound_copies(0, 9, &mut rng), 0);
    }

    #[test]
    fn silent_towards_drops_only_the_victims() {
        let mut rng = StdRng::seed_from_u64(0);
        let b = Behavior::SilentTowards(vec![3, 5]);
        assert!(b.is_byzantine());
        assert!(b.receives());
        assert_eq!(b.outbound_copies(3, 0, &mut rng), 0);
        assert_eq!(b.outbound_copies(5, 10, &mut rng), 0);
        assert_eq!(b.outbound_copies(4, 0, &mut rng), 1);
    }

    #[test]
    fn flooder_amplifies() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Behavior::Flooder(5).outbound_copies(1, 0, &mut rng), 5);
        assert_eq!(Behavior::Flooder(0).outbound_copies(1, 0, &mut rng), 0);
    }

    #[test]
    fn default_is_correct() {
        assert_eq!(Behavior::default(), Behavior::Correct);
    }
}
