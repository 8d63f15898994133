//! Running totals behind [`crate::protocol::Protocol::state_bytes`] and
//! [`crate::protocol::Protocol::stored_paths`].
//!
//! The Sec. 7.3 memory proxy is read after every simulated event, so no engine
//! recomputes it by walking its state: each keeps a [`Footprint`] that is adjusted at
//! the few places where per-broadcast state is created, grows, shrinks (MD.2) or is
//! retired (GC). The walks the totals replaced live on as `walk_state` in each engine's
//! test module, which the in-crate network tests compare against after every message.

/// The memory proxy of one piece of protocol state (one Dolev instance, one content, or
/// a whole engine): approximate bytes held and transmission paths stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Footprint {
    pub(crate) bytes: usize,
    pub(crate) paths: usize,
}

impl Footprint {
    pub(crate) const ZERO: Footprint = Footprint { bytes: 0, paths: 0 };

    pub(crate) fn new(bytes: usize, paths: usize) -> Self {
        Self { bytes, paths }
    }

    /// Accounts for a component that went from `before` to `after`. The component's
    /// previous share is part of `self`, so the intermediate sums never underflow.
    pub(crate) fn settle(&mut self, before: Footprint, after: Footprint) {
        self.bytes = self.bytes + after.bytes - before.bytes;
        self.paths = self.paths + after.paths - before.paths;
    }

    /// Accounts for a newly created component.
    pub(crate) fn add(&mut self, component: Footprint) {
        self.settle(Footprint::ZERO, component);
    }

    /// Accounts for a dropped component.
    pub(crate) fn remove(&mut self, component: Footprint) {
        self.settle(component, Footprint::ZERO);
    }
}

/// Test harness shared by the engines' test modules: an engine supplies the walk its
/// running totals replaced, and drives its tests through [`Checked`] so the totals are
/// compared against that walk after every handled event.
#[cfg(test)]
pub(crate) mod check {
    use crate::protocol::Protocol;
    use crate::types::{Action, Payload, ProcessId};

    /// The reference implementation of the memory proxy.
    pub(crate) trait WalkState: Protocol {
        /// `(state_bytes, stored_paths)` recomputed from every piece of state held.
        fn walk_state(&self) -> (usize, usize);

        /// Asserts that the running totals agree with the walk.
        fn assert_totals(&self) {
            assert_eq!(
                (self.state_bytes(), self.stored_paths()),
                self.walk_state(),
                "running (state_bytes, stored_paths) diverged from the state walk"
            );
        }
    }

    /// [`Protocol::handle_message`] / [`Protocol::broadcast`] followed by
    /// [`WalkState::assert_totals`].
    pub(crate) trait Checked: WalkState {
        fn handle_checked(
            &mut self,
            from: ProcessId,
            message: Self::Message,
        ) -> Vec<Action<Self::Message>> {
            let actions = self.handle_message(from, message);
            self.assert_totals();
            actions
        }

        fn broadcast_checked(&mut self, payload: Payload) -> Vec<Action<Self::Message>> {
            let actions = self.broadcast(payload);
            self.assert_totals();
            actions
        }
    }

    impl<P: WalkState> Checked for P {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_replaces_one_components_share() {
        let mut total = Footprint::new(100, 7);
        // Shrinks (MD.2 clearing stored paths) and growth both go through `settle`.
        total.settle(Footprint::new(60, 5), Footprint::new(10, 0));
        assert_eq!(total, Footprint::new(50, 2));
        total.add(Footprint::new(8, 1));
        total.remove(Footprint::new(58, 3));
        assert_eq!(total, Footprint::ZERO);
    }
}
