//! Byzantine reliable broadcast on partially connected networks.
//!
//! This crate implements the protocols studied in *Practical Byzantine Reliable Broadcast
//! on Partially Connected Networks* (Bonomi, Decouchant, Farina, Rahli, Tixeuil — ICDCS
//! 2021):
//!
//! * [`bracha::BrachaProcess`] — Bracha's authenticated double-echo broadcast, the classic
//!   BRB protocol for asynchronous **fully connected** networks (Algorithm 1);
//! * [`dolev::DolevProcess`] — Dolev's reliable communication protocol for **unknown,
//!   partially connected** topologies of vertex connectivity at least `2f+1`
//!   (Algorithm 2), together with Bonomi et al.'s practical modifications MD.1–5; its
//!   per-instance receive-and-relay rule is the Dolev layer of [`bd::BdProcess`] too;
//! * [`dolev_routed::RoutedDolev`] — Dolev's **known-topology** variant, which routes
//!   every content along `2f+1` predefined internally node-disjoint paths instead of
//!   flooding;
//! * [`cpa::CpaProcess`] — the Certified Propagation Algorithm for the `t`-locally bounded
//!   fault model, the alternative reliable-communication substrate discussed in the
//!   paper's related work and listed as future work in its conclusion;
//! * [`bd::BdProcess`] — the Bracha–Dolev combination providing BRB on partially connected
//!   networks, with the paper's twelve cross-layer modifications MBD.1–12, each
//!   individually toggleable through [`config::Config`];
//! * [`bracha_rc::BrachaOverRc`] — the plain, un-optimised Bracha-over-RC template of
//!   Sec. 4.3, generic over any [`protocol::Protocol`] engine as its substrate (see
//!   [`rc`]); its instantiations [`bracha_rc::BrachaRoutedDolev`] and
//!   [`bracha_rc::BrachaCpa`] provide BRB on known topologies and under the locally
//!   bounded fault model respectively.
//!
//! All protocols are written as deterministic, event-driven state machines behind the
//! [`protocol::Protocol`] trait, so that the same code runs unchanged inside the
//! discrete-event simulator (`brb-sim`) used by the experiment harnesses and inside the
//! thread-per-process runtime (`brb-runtime`). An engine writes one event form, the sink
//! methods `broadcast_into` / `handle_message_into`; the trait provides `Vec`-returning
//! shims over them.
//!
//! The [`stack`] module erases the per-stack message types behind the object-safe
//! [`stack::DynEngine`] interface (encoded wire bytes in and out): a [`stack::StackSpec`]
//! names any of the stacks above and builds a boxed engine from
//! `(Config, Graph, ProcessId)`, which is how the deployment backends (`brb-runtime`,
//! `brb-net`) and the experiment sweeps run every stack through one code path.
//!
//! The [`gc`] module bounds per-broadcast memory for long-lived nodes: configure a
//! [`gc::GcPolicy`] retention window (through [`config::Config::gc`] or
//! [`protocol::Protocol::set_gc_policy`]) and every engine retires a [`types::BroadcastId`]
//! once delivered and quiesced, dropping late or replayed frames for retired instances
//! deterministically instead of resurrecting their state.
//!
//! # Quick example
//!
//! ```
//! use brb_core::{bd::BdProcess, config::Config, protocol::Protocol, types::Payload};
//! use brb_graph::generate;
//!
//! // A 3-connected communication graph over 10 processes, tolerating f = 1 Byzantine.
//! let graph = generate::figure1_example();
//! let config = Config::bdopt_mbd1(10, 1);
//! let mut processes: Vec<BdProcess> = (0..10)
//!     .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
//!     .collect();
//!
//! // Process 0 broadcasts; deliver messages synchronously until quiescence.
//! let mut queue: Vec<(usize, brb_core::types::Action<_>)> = processes[0]
//!     .broadcast(Payload::from("hello"))
//!     .into_iter()
//!     .map(|a| (0, a))
//!     .collect();
//! while let Some((sender, action)) = queue.pop() {
//!     if let brb_core::types::Action::Send { to, message } = action {
//!         queue.extend(processes[to].handle_message(sender, message).into_iter().map(|a| (to, a)));
//!     }
//! }
//! assert!(processes.iter().all(|p| p.deliveries().len() == 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bd;
pub mod bracha;
pub mod bracha_rc;
pub mod config;
pub mod cpa;
pub mod disjoint;
pub mod dolev;
pub mod dolev_routed;
mod footprint;
pub mod gc;
mod hash;
pub mod pathset;
pub mod protocol;
pub mod quorum;
pub mod rc;
pub mod stack;
pub mod types;
pub mod wire;

pub use bd::BdProcess;
pub use bracha_rc::{BrachaCpa, BrachaOverRc, BrachaRoutedDolev};
pub use config::{Config, MbdFlags, MdFlags};
pub use dolev_routed::RoutedDolev;
pub use gc::{GcPolicy, GcState};
pub use protocol::{ActionBuf, Protocol};
pub use stack::{DynEngine, DynStack, EncodedFrame, StackSpec, WireAction, WireActionBuf};
pub use types::{Action, BroadcastId, Content, Delivery, Payload, ProcessId};
pub use wire::{MessageKind, WireMessage};
