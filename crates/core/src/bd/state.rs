//! Internal per-content state of the Bracha–Dolev engine.

use std::collections::BTreeMap;

use crate::bracha::{BrachaInstance, BrachaKind};
use crate::dolev::DolevInstance;
use crate::footprint::Footprint;
use crate::pathset::PathSet;
use crate::types::{Content, ProcessId};
use crate::wire::MessageKind;

impl BrachaKind {
    /// The plain wire message kind of this phase.
    pub(crate) fn wire_kind(self) -> MessageKind {
        match self {
            BrachaKind::Send => MessageKind::Send,
            BrachaKind::Echo => MessageKind::Echo,
            BrachaKind::Ready => MessageKind::Ready,
        }
    }
}

/// Identifies one Dolev dissemination instance inside a broadcast: the Bracha-layer
/// message of `originator` in a given phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DolevKey {
    pub(crate) phase: BrachaKind,
    pub(crate) originator: ProcessId,
}

impl DolevKey {
    /// Position of this key in a content's instance table.
    fn slot(self) -> usize {
        3 * self.originator + self.phase as usize
    }
}

/// Bracha + Dolev state for one broadcast content.
///
/// Every set of process identifiers here is a [`PathSet`] bitset and the Dolev instances
/// sit in a table indexed by `(originator, phase)`: the engine refuses frames naming a
/// label outside `0..n` at ingress, so identifiers are dense and bounded.
#[derive(Debug, Clone)]
pub(crate) struct ContentState {
    /// The content (broadcast identifier and payload).
    pub(crate) content: Content,
    /// The Bracha layer: originators whose Echo / Ready has been Dolev-delivered (plus
    /// this process once it creates its own), and the flags.
    pub(crate) bracha: BrachaInstance,
    /// Dolev dissemination instances, one per Bracha-layer message, in creation order.
    pub(crate) instances: Vec<DolevInstance>,
    /// Per [`DolevKey::slot`], one more than the instance's position in `instances`
    /// (0: no such instance yet). `3 * n` entries.
    slots: Vec<u32>,
    /// Sum of [`DolevInstance::footprint`] over `instances`. Whoever creates, replaces
    /// or mutates an instance settles the difference here.
    pub(crate) instances_footprint: Footprint,
    /// Neighbors whose READY has been Dolev-delivered (MBD.8: no further Echo to them).
    pub(crate) ready_neighbors: PathSet,
    /// Per neighbor, the set of READY originators it relayed with an empty path (MBD.9).
    /// Grows only through [`ContentState::note_empty_ready`].
    pub(crate) neighbor_empty_readys: BTreeMap<ProcessId, PathSet>,
    /// Number of `(neighbor, originator)` pairs in `neighbor_empty_readys`.
    empty_ready_pairs: usize,
    /// Neighbors known to have BRB-delivered the content (MBD.9: no further message).
    pub(crate) neighbors_bd_delivered: PathSet,
}

impl ContentState {
    /// Fresh state for `content` in a system of `n` processes.
    pub(crate) fn new(content: Content, n: usize) -> Self {
        Self {
            content,
            bracha: BrachaInstance::default(),
            instances: Vec::new(),
            slots: vec![0; 3 * n],
            instances_footprint: Footprint::ZERO,
            ready_neighbors: PathSet::new(),
            neighbor_empty_readys: BTreeMap::new(),
            empty_ready_pairs: 0,
            neighbors_bd_delivered: PathSet::new(),
        }
    }

    /// Position in `instances` of the instance of `key`, if it exists.
    pub(crate) fn instance_index(&self, key: DolevKey) -> Option<usize> {
        (self.slots[key.slot()] as usize).checked_sub(1)
    }

    /// Position in `instances` of the instance of `key`, created (and counted) on first
    /// sight.
    pub(crate) fn instance_index_or_new(
        &mut self,
        key: DolevKey,
        max_combinations: usize,
    ) -> usize {
        self.instance_index(key).unwrap_or_else(|| {
            let fresh = DolevInstance::new(max_combinations);
            self.instances_footprint.add(fresh.footprint());
            self.push_instance(key, fresh)
        })
    }

    fn push_instance(&mut self, key: DolevKey, instance: DolevInstance) -> usize {
        self.instances.push(instance);
        self.slots[key.slot()] = self.instances.len() as u32;
        self.instances.len() - 1
    }

    /// Whether the instance of `key` exists and has been Dolev-delivered.
    fn instance_delivered(&self, key: DolevKey) -> bool {
        self.instance_index(key)
            .is_some_and(|index| self.instances[index].delivered)
    }

    /// Whether the SEND instance of the broadcast source has been Dolev-delivered.
    pub(crate) fn send_validated(&self) -> bool {
        self.instance_delivered(DolevKey {
            phase: BrachaKind::Send,
            originator: self.content.id.source,
        })
    }

    /// Whether the READY instance of `originator` has been Dolev-delivered (MBD.6).
    pub(crate) fn ready_delivered(&self, originator: ProcessId) -> bool {
        self.instance_delivered(DolevKey {
            phase: BrachaKind::Ready,
            originator,
        })
    }

    /// Inserts an instance this process created itself (its own SEND, ECHO or READY),
    /// replacing — and un-counting — an instance relayed paths may already have opened
    /// under the same key.
    pub(crate) fn insert_own_instance(&mut self, key: DolevKey, instance: DolevInstance) {
        let after = instance.footprint();
        let before = match self.instance_index(key) {
            Some(index) => std::mem::replace(&mut self.instances[index], instance).footprint(),
            None => {
                self.push_instance(key, instance);
                Footprint::ZERO
            }
        };
        self.instances_footprint.settle(before, after);
    }

    /// Records that `neighbor` relayed `originator`'s READY with an empty path (MBD.9)
    /// and returns how many distinct originators it has relayed that way.
    pub(crate) fn note_empty_ready(&mut self, neighbor: ProcessId, originator: ProcessId) -> usize {
        let relayed = self.neighbor_empty_readys.entry(neighbor).or_default();
        if relayed.insert(originator) {
            self.empty_ready_pairs += 1;
        }
        relayed.len()
    }

    /// Memory proxy of this content: its instances, the quorum and neighbor sets (8 bytes
    /// per member) and the buffered payload. Constant time.
    pub(crate) fn footprint(&self) -> Footprint {
        let set_members =
            self.ready_neighbors.len() + self.neighbors_bd_delivered.len() + self.empty_ready_pairs;
        Footprint::new(
            self.instances_footprint.bytes
                + self.bracha.bytes()
                + 8 * set_members
                + self.content.payload.len(),
            self.instances_footprint.paths,
        )
    }
}

/// A message this process has decided to transmit, before MBD.3/MBD.4 merging and before
/// the MBD.1/MBD.5 wire-format decisions are applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlannedSend {
    /// Destination neighbor.
    pub(crate) to: ProcessId,
    /// Phase of the Bracha-layer message.
    pub(crate) phase: BrachaKind,
    /// Originator of the Bracha-layer message.
    pub(crate) originator: ProcessId,
    /// Dissemination path to transmit.
    pub(crate) path: Vec<ProcessId>,
    /// Whether this is a newly created message of this process (as opposed to a relay of a
    /// received one). Newly created messages may have their sender field elided (MBD.5)
    /// and are subject to the MBD.12 fanout reduction.
    pub(crate) newly_created: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BroadcastId, Payload};

    fn content() -> Content {
        Content::new(BroadcastId::new(2, 0), Payload::from("x"))
    }

    #[test]
    fn phase_kinds() {
        assert_eq!(BrachaKind::Send.wire_kind(), MessageKind::Send);
        assert_eq!(BrachaKind::Echo.wire_kind(), MessageKind::Echo);
        assert_eq!(BrachaKind::Ready.wire_kind(), MessageKind::Ready);
    }

    #[test]
    fn send_validated_reflects_send_instance() {
        let mut s = ContentState::new(content(), 5);
        assert!(!s.send_validated());
        s.insert_own_instance(
            DolevKey {
                phase: BrachaKind::Send,
                originator: 2,
            },
            DolevInstance::self_delivered(16),
        );
        assert!(s.send_validated());
    }

    #[test]
    fn ready_delivered_lookup() {
        let mut s = ContentState::new(content(), 5);
        assert!(!s.ready_delivered(4));
        let key = DolevKey {
            phase: BrachaKind::Ready,
            originator: 4,
        };
        let index = s.instance_index_or_new(key, 16);
        assert_eq!(
            s.instance_index_or_new(key, 16),
            index,
            "found, not re-created"
        );
        assert!(!s.ready_delivered(4));
        // The same originator's ECHO is a different instance.
        assert_eq!(
            s.instance_index(DolevKey {
                phase: BrachaKind::Echo,
                originator: 4,
            }),
            None
        );
        s.instances[index].delivered = true;
        assert!(s.ready_delivered(4));
    }

    #[test]
    fn memory_estimate_grows_with_state() {
        let mut s = ContentState::new(content(), 5);
        let before = s.footprint();
        assert_eq!(before, Footprint::new(1, 0), "the one-byte payload");
        s.bracha.echo_origins.insert(1);
        s.bracha.echo_origins.insert(2);
        let key = DolevKey {
            phase: BrachaKind::Echo,
            originator: 1,
        };
        // An empty tracker memoizes the empty combination (24 B) next to the two flags.
        s.insert_own_instance(key, DolevInstance::new(16));
        assert_eq!(s.footprint(), Footprint::new(1 + 16 + 26, 0));
        // Replacing the instance replaces its share instead of adding a second one.
        s.insert_own_instance(key, DolevInstance::self_delivered(16));
        assert_eq!(s.footprint(), Footprint::new(1 + 16 + 26, 0));
        assert_eq!(s.note_empty_ready(3, 4), 1);
        assert_eq!(s.note_empty_ready(3, 4), 1, "duplicates are not re-counted");
        assert_eq!(s.note_empty_ready(3, 5), 2);
        assert_eq!(s.footprint(), Footprint::new(1 + 16 + 26 + 16, 0));
    }
}
