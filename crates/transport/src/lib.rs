//! One transport-generic node driver for every live deployment of the PBRB reproduction.
//!
//! The paper's evaluation (Sec. 7) runs real TCP nodes under controlled delay regimes and
//! Byzantine placements. This crate is the layer that makes those scenarios available on
//! *every* live backend from one code path:
//!
//! * [`link`] — authenticated links over crossbeam channels (one mailbox per process,
//!   one [`link::AuthenticatedSender`] per directed edge); the [`link::Frame`] type is
//!   the common inbound currency of every transport;
//! * [`Transport`] — send/receive encoded frames: implemented by the in-process
//!   [`ChannelTransport`] here and by the TCP endpoints in `brb-net`.
//!   [`Transport::send_batch`] takes a same-destination burst of [`OutFrame`]s and
//!   returns a [`SendReceipt`] whose copy/byte accounting is *identical* to sending
//!   the frames one at a time with [`Transport::send`] — the channel backend forwards
//!   the burst as one channel operation (batch framing, split zero-copy by the
//!   receiving driver), the TCP backend as one `write_all` + flush of standard
//!   length-prefixed frames. The default trait implementation simply loops
//!   [`Transport::send`], so decorators that need per-frame semantics (delay sampling)
//!   inherit correctness for free;
//! * [`NodeDriver`] — the *single* node event loop the one `brb_runtime::Deployment`
//!   spawns per process, over any backend's links; it drives exactly one boxed
//!   [`brb_core::stack::DynEngine`] and performs the Table 3 byte accounting. Batching
//!   is how it works, not an option: every wake drains the inbound backlog into the
//!   engine and sends the resulting frames as one [`Transport::send_batch`] burst per
//!   destination, with tracing on or off (a burst of one frame is the
//!   frame-at-a-time case);
//! * [`policy`] — composable transport decorators bringing the simulator's scenario
//!   vocabulary to live backends: frame-level [`brb_sim::Behavior`] injection
//!   ([`policy::FaultyLink`]) and wall-clock-scaled [`brb_sim::DelayModel`]s
//!   ([`policy::DelayedLink`], [`LinkDelay::Scaled`]);
//! * [`DriverOptions`] — the one options struct of every live deployment (it replaced
//!   the former `RuntimeOptions` / `TcpOptions` pair), which resolves a per-process
//!   [`LinkPolicy`] and decorates the transport accordingly.
//!
//! # Quickstart: a two-node deployment from the driver alone
//!
//! `brb_runtime::Deployment` is a thin constructor over exactly this sequence — wire
//! links (crossbeam channels here, TCP sockets in `brb-net`), build engines, spawn
//! drivers, collect reports:
//!
//! ```
//! use std::time::Duration;
//! use brb_core::{config::Config, stack::StackSpec, types::Payload};
//! use brb_graph::generate;
//! use brb_transport::{build_links, ChannelTransport, Command, DriverOptions, NodeDriver};
//! use crossbeam::channel::unbounded;
//!
//! let graph = generate::complete(2);
//! let config = Config::plain(2, 0);
//! let options = DriverOptions {
//!     idle_shutdown: Duration::from_millis(50),
//!     ..DriverOptions::default()
//! };
//! let (mailboxes, senders) = build_links(2, &graph.edges());
//! let (delivery_tx, delivery_rx) = unbounded();
//! let mut commands = Vec::new();
//! let mut handles = Vec::new();
//! for (id, (mailbox, links)) in mailboxes.into_iter().zip(senders).enumerate() {
//!     let (cmd_tx, cmd_rx) = unbounded();
//!     commands.push(cmd_tx);
//!     let driver = NodeDriver::new(
//!         StackSpec::Dolev.build(&config, &graph, id),
//!         Box::new(ChannelTransport::new(mailbox, links)),
//!         cmd_rx,
//!         delivery_tx.clone(),
//!         &options,
//!     );
//!     handles.push(std::thread::spawn(move || driver.run()));
//! }
//! commands[0].send(Command::Broadcast(Payload::from("hi"))).unwrap();
//! for _ in 0..2 {
//!     delivery_rx.recv_timeout(Duration::from_secs(5)).expect("both nodes deliver");
//! }
//! for tx in &commands {
//!     let _ = tx.send(Command::Shutdown);
//! }
//! for handle in handles {
//!     assert_eq!(handle.join().unwrap().deliveries.len(), 1);
//! }
//! ```
//!
//! Fault injection and paper delay regimes are one decorator away — e.g.
//! `options.with_behaviors(vec![(1, brb_sim::Behavior::Lossy(0.2))])` or
//! `options.with_link_delay(LinkDelay::Scaled { model: brb_sim::DelayModel::synchronous(),
//! scale: 0.1 })` — with no change to the loop or the deployments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod driver;
pub mod link;
pub mod policy;
pub mod transport;

pub use churn::{ChurnHandle, ChurnLink};
pub use driver::{Command, DeploymentReport, DriverOptions, NodeDriver, NodeReport, TraceConfig};
pub use link::{build_links, AuthenticatedSender, Frame, Mailbox};
pub use policy::{DelayedLink, FaultyLink, LinkDelay, LinkObserver, LinkPolicy};
pub use transport::{ChannelTransport, OutFrame, SendReceipt, Transport};
