//! The TCP backend of [`Deployment`]: one real loopback TCP connection per edge of the
//! communication graph, the closest in-repository analogue of the paper's testbed
//! (Sec. 7.1). [`tcp_links`] wires the sockets into one [`TcpTransport`] (socket write
//! halves + the reader threads' mailbox) per running process; everything else — the node
//! drivers, engines, wire formats, byte accounting, fault decorators, delay models and
//! reports — is the one [`Deployment`] the channel backend runs too.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::ops::Deref;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::ProcessId;
use brb_graph::Graph;
use brb_runtime::{Deployment, DeploymentReport, Links};
use brb_transport::{DriverOptions, Frame, OutFrame, SendReceipt, Transport};
use crossbeam::channel::{unbounded, Receiver};

use crate::endpoint::{bind_endpoints, connect_mesh, spawn_link_reader};
use crate::frame::MAX_FRAME_BYTES;

/// The loopback-socket transport of one process: TCP write halves keyed by neighbor,
/// plus the mailbox its per-link reader threads feed ([`spawn_link_reader`]).
pub struct TcpTransport {
    writers: HashMap<ProcessId, TcpStream>,
    mailbox: Receiver<Frame>,
    /// Reusable coalescing buffer for [`Transport::send_batch`]: a same-destination
    /// burst is staged here (standard length-prefixed framing, unchanged on the wire)
    /// and written with one syscall; the buffer's capacity is retained across bursts, so
    /// steady-state batched sends allocate nothing.
    staging: Vec<u8>,
}

impl TcpTransport {
    /// Wraps one process's established write halves and its reader-thread mailbox.
    pub fn new(writers: HashMap<ProcessId, TcpStream>, mailbox: Receiver<Frame>) -> Self {
        Self {
            writers,
            mailbox,
            staging: Vec::new(),
        }
    }
}

impl Transport for TcpTransport {
    fn inbound(&self) -> &Receiver<Frame> {
        &self.mailbox
    }

    fn peers(&self) -> Vec<ProcessId> {
        let mut peers: Vec<ProcessId> = self.writers.keys().copied().collect();
        peers.sort_unstable();
        peers
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        let mut receipt = SendReceipt::default();
        let Some(stream) = self.writers.get_mut(&to) else {
            return receipt;
        };
        // One syscall per burst, one-frame bursts included: concatenate the standard
        // length-prefixed frames into the reusable staging buffer and write it in one go.
        // The wire format is unchanged — the peer's reader (`spawn_link_reader`) hands
        // what one read brings in to its node as one batch message. A failed write means
        // the peer crashed or shut down, which the protocols tolerate; the frames still
        // count as transmitted.
        self.staging.clear();
        for f in frames {
            receipt.record(1, f.wire_size);
            if f.frame.len() > MAX_FRAME_BYTES {
                // `write_frame` would refuse it; account it like a failed write.
                continue;
            }
            self.staging
                .extend_from_slice(&(f.frame.len() as u32).to_be_bytes());
            self.staging.extend_from_slice(&f.frame);
        }
        let _ = stream
            .write_all(&self.staging)
            .and_then(|()| stream.flush());
        receipt
    }
}

/// Binds one endpoint per process of `graph`, establishes its TCP mesh, and wires a
/// [`TcpTransport`] (with its link reader threads) for every process not in `crashed`.
/// Crashed processes keep their sockets open but get no readers and no transport, so
/// their neighbors see an established connection that never speaks, as for a process
/// that crashes right after start-up. Closing the links shuts every socket down.
///
/// # Errors
///
/// Returns any socket error raised while binding or connecting.
pub fn tcp_links(graph: &Graph, crashed: &[ProcessId]) -> io::Result<Links> {
    let endpoints = bind_endpoints(graph.node_count())?;
    let mut streams = Vec::new();
    let mut transports = Vec::with_capacity(graph.node_count());
    for (id, links) in connect_mesh(graph, &endpoints)?.into_iter().enumerate() {
        for stream in links.writers.values() {
            streams.push(stream.try_clone()?);
        }
        if crashed.contains(&id) {
            transports.push(None);
            continue;
        }
        let (mailbox_tx, mailbox_rx) = unbounded();
        for (peer, stream) in links.readers {
            spawn_link_reader(peer, stream, mailbox_tx.clone());
        }
        let transport = TcpTransport::new(links.writers, mailbox_rx);
        transports.push(Some(Box::new(transport) as Box<dyn Transport>));
    }
    Ok(Links {
        transports,
        close: Box::new(move || {
            for stream in &streams {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }),
    })
}

/// How a live backend wires the links of a deployment.
pub type Wiring = fn(&Graph, &[ProcessId]) -> io::Result<Links>;

/// The two live backends, by name: crossbeam channels and loopback TCP sockets.
pub const BACKENDS: [(&str, Wiring); 2] = [
    ("channel", |graph, crashed| {
        Ok(Links::channels(graph, crashed))
    }),
    ("tcp", tcp_links),
];

/// A running TCP deployment: the one [`Deployment`] over [`tcp_links`], which it
/// dereferences to.
pub struct TcpDeployment(Deployment);

impl TcpDeployment {
    /// [`Deployment::start_on`] over [`tcp_links`]`(graph, crashed)`.
    ///
    /// # Errors
    ///
    /// Returns any socket error raised while binding or connecting.
    pub fn start(
        graph: &Graph,
        config: Config,
        stack: StackSpec,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> io::Result<Self> {
        let links = tcp_links(graph, crashed)?;
        let deployment = Deployment::start_on(links, graph, config, stack, options);
        Ok(Self(deployment))
    }

    /// [`Deployment::shutdown`].
    pub fn shutdown(self) -> DeploymentReport {
        self.0.shutdown()
    }
}

impl Deref for TcpDeployment {
    type Target = Deployment;

    fn deref(&self) -> &Deployment {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::types::Payload;
    use brb_core::wire::split_batch;
    use brb_graph::generate;
    use brb_runtime::{run_broadcast, run_workload};
    use brb_sim::Behavior;
    use brb_transport::LinkDelay;
    use bytes::Bytes;
    use std::time::Duration;

    /// Wires `graph` on `backend`.
    fn wire(backend: Wiring, graph: &Graph, crashed: &[ProcessId]) -> Links {
        backend(graph, crashed).expect("links wire")
    }

    /// The deployment lifecycle cases, each run once per backend:
    /// `case: channel test, TCP test;`.
    macro_rules! per_backend {
        ($($case:ident: $channel:ident, $tcp:ident;)*) => {$(
            #[test]
            fn $channel() {
                $case(BACKENDS[0].1);
            }

            #[test]
            fn $tcp() {
                $case(BACKENDS[1].1);
            }
        )*};
    }

    per_backend! {
        broadcast_delivers_everywhere:
            threaded_broadcast_delivers_everywhere, tcp_broadcast_delivers_everywhere;
        broadcast_with_a_crashed_process:
            threaded_broadcast_with_crashed_process,
            tcp_broadcast_with_crashed_process_still_delivers;
        broadcast_runs_non_bd_stacks:
            threaded_broadcast_runs_non_bd_stacks, tcp_broadcast_runs_non_bd_stacks;
        behavior_decorators_inject_faults:
            behavior_decorators_inject_faults_into_the_live_deployment,
            behavior_decorators_run_over_real_sockets;
        scaled_delay_model_runs:
            scaled_delay_model_runs_on_the_live_deployment,
            tcp_scaled_delay_model_runs_on_the_live_deployment;
        workload_firehoses_every_source:
            threaded_workload_firehoses_every_source, tcp_workload_firehoses_the_socket_deployment;
        closed_loop_workload_with_a_crashed_source_completes:
            threaded_closed_loop_workload_with_a_crashed_source_completes,
            tcp_closed_loop_workload_with_a_crashed_source_completes;
        shutdown_without_broadcast:
            threaded_deployment_reports_process_count_and_handles_shutdown_without_broadcast,
            deployment_reports_process_count_and_handles_shutdown_without_broadcast;
    }

    fn broadcast_delivers_everywhere(backend: Wiring) {
        let graph = generate::figure1_example();
        let report = run_broadcast(
            wire(backend, &graph, &[]),
            &graph,
            Config::bdopt_mbd1(10, 1),
            StackSpec::Bd,
            Payload::from("live hello"),
            0,
            Duration::from_secs(20),
        );
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(
            report.all_delivered(&everyone, 1),
            "every process must deliver"
        );
        assert!(report.total_messages() > 0);
        assert!(report.total_bytes() > 0);
        for node in &report.nodes {
            assert_eq!(node.deliveries[0].payload, Payload::from("live hello"));
        }
    }

    fn broadcast_with_a_crashed_process(backend: Wiring) {
        let graph = generate::circulant(13, 2); // 4-regular, supports f = 1
        for (config, crashed, payload, source) in [
            (Config::latency_preset(13, 1), 7, Payload::filled(5, 128), 2),
            (
                Config::bandwidth_preset(13, 1),
                4,
                Payload::filled(7, 256),
                0,
            ),
        ] {
            let report = run_broadcast(
                wire(backend, &graph, &[crashed]),
                &graph,
                config,
                StackSpec::Bd,
                payload,
                source,
                Duration::from_secs(20),
            );
            let correct: Vec<ProcessId> = (0..13).filter(|&p| p != crashed).collect();
            assert!(report.all_delivered(&correct, 1));
            assert!(report.nodes[crashed].deliveries.is_empty());
        }
    }

    fn broadcast_runs_non_bd_stacks(backend: Wiring) {
        // The routed-Dolev-based BRB stack and Dolev's flooding protocol: one broadcast
        // must deliver at every node despite real interleavings.
        let graph = generate::figure1_example();
        for (stack, config) in [
            (StackSpec::BrachaRoutedDolev, Config::plain(10, 1)),
            (StackSpec::Dolev, Config::bdopt(10, 1)),
        ] {
            let report = run_broadcast(
                wire(backend, &graph, &[]),
                &graph,
                config,
                stack,
                Payload::from("not only bd"),
                0,
                Duration::from_secs(20),
            );
            let everyone: Vec<ProcessId> = (0..10).collect();
            assert!(report.all_delivered(&everyone, 1), "{stack}");
            assert!(report.total_bytes() > 0, "{stack}");
        }
    }

    fn behavior_decorators_inject_faults(backend: Wiring) {
        // The sim's scenario vocabulary through the FaultyLink decorators. First, one
        // process replays every frame and another drops everything: every correct
        // process still delivers (the replayer also delivers, its inbound links are
        // intact).
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let options = DriverOptions::default()
            .with_behaviors(vec![(4, Behavior::Replayer), (7, Behavior::Crash)]);
        let deployment = Deployment::start_on(
            wire(backend, &graph, &[]),
            &graph,
            config,
            StackSpec::Bd,
            options,
        );
        deployment.broadcast(0, Payload::from("faulted"));
        deployment.await_deliveries(9, Duration::from_secs(20));
        let report = deployment.shutdown();
        let correct: Vec<ProcessId> = (0..10).filter(|&p| p != 4 && p != 7).collect();
        assert!(report.all_delivered(&correct, 1));
        assert!(
            report.nodes[7].deliveries.is_empty(),
            "behavior-crashed node delivers nothing"
        );
        assert_eq!(report.nodes[7].messages_sent, 0);
        assert!(
            report.nodes[4].messages_sent > 0,
            "the replayer transmits (twice per frame)"
        );

        // Second, a SilentTowards adversary drops every frame addressed to its victims,
        // who still deliver through their other neighbors.
        let options =
            DriverOptions::default().with_behaviors(vec![(3, Behavior::SilentTowards(vec![2, 6]))]);
        let deployment = Deployment::start_on(
            wire(backend, &graph, &[]),
            &graph,
            config,
            StackSpec::Bd,
            options,
        );
        deployment.broadcast(0, Payload::from("targeted"));
        deployment.await_deliveries(10, Duration::from_secs(20));
        let report = deployment.shutdown();
        let correct: Vec<ProcessId> = (0..10).filter(|&p| p != 3).collect();
        assert!(report.all_delivered(&correct, 1));
    }

    fn scaled_delay_model_runs(backend: Wiring) {
        // The paper's 50 ms synchronous regime compressed 100x: frames take ~0.5 ms per
        // hop, so the broadcast completes but measurably slower than the undelayed run.
        let graph = generate::figure1_example();
        let options = DriverOptions::default().with_link_delay(LinkDelay::Scaled {
            model: brb_sim::DelayModel::synchronous(),
            scale: 0.01,
        });
        let deployment = Deployment::start_on(
            wire(backend, &graph, &[]),
            &graph,
            Config::bdopt_mbd1(10, 1),
            StackSpec::Bd,
            options,
        );
        let start = std::time::Instant::now();
        deployment.broadcast(0, Payload::from("paced"));
        let seen = deployment.await_deliveries(10, Duration::from_secs(30));
        let elapsed = start.elapsed();
        let report = deployment.shutdown();
        assert_eq!(seen, 10);
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(report.all_delivered(&everyone, 1));
        assert!(
            elapsed >= Duration::from_millis(1),
            "two 0.5 ms hops minimum, got {elapsed:?}"
        );
    }

    fn workload_firehoses_every_source(backend: Wiring) {
        let graph = generate::figure1_example();
        let open = brb_workload::WorkloadSpec::constant_rate(1_000, 20).with_payload_bytes(48);
        let closed = brb_workload::WorkloadSpec::constant_rate(1_000, 16)
            .with_payload_bytes(32)
            .closed_loop(8);
        for (spec, seed, count) in [(open, 7, 20), (closed, 11, 16)] {
            let (report, run) = run_workload(
                wire(backend, &graph, &[]),
                &graph,
                Config::bdopt_mbd1(10, 1),
                StackSpec::Bd,
                &spec,
                seed,
                Duration::from_secs(30),
            );
            assert_eq!(run.injected, count);
            assert_eq!(run.effective, count);
            assert!(run.all_completed(), "{run:?}");
            assert_eq!(
                run.broadcast_latencies.len(),
                count,
                "every completed broadcast reports a wall-clock latency"
            );
            let everyone: Vec<ProcessId> = (0..10).collect();
            // Every process delivers every broadcast.
            assert!(report.all_delivered(&everyone, count));
            assert!(report.total_bytes() > 0);
        }
    }

    fn closed_loop_workload_with_a_crashed_source_completes(backend: Wiring) {
        let graph = generate::figure1_example();
        // Window 3, one crashed process among the round-robin sources: its injections
        // are no-ops and must not clog the window.
        let spec = brb_workload::WorkloadSpec::constant_rate(0, 10).closed_loop(3);
        let (report, run) = run_workload(
            wire(backend, &graph, &[6]),
            &graph,
            Config::bdopt_mbd1(10, 1),
            StackSpec::Bd,
            &spec,
            3,
            Duration::from_secs(30),
        );
        assert_eq!(run.injected, 10);
        assert_eq!(run.effective, 9, "source 6's injection cannot complete");
        assert!(run.all_completed(), "{run:?}");
        let correct: Vec<ProcessId> = (0..10).filter(|&p| p != 6).collect();
        // Nine effective broadcasts, each delivered by every correct process.
        assert!(report.all_delivered(&correct, 9));
        assert!(report.nodes[6].deliveries.is_empty());
    }

    fn shutdown_without_broadcast(backend: Wiring) {
        let graph = generate::circulant(4, 1);
        let deployment = Deployment::start_on(
            wire(backend, &graph, &[]),
            &graph,
            Config::plain(4, 0),
            StackSpec::Bd,
            DriverOptions::default(),
        );
        assert_eq!(deployment.process_count(), 4);
        // No broadcast: awaiting deliveries times out at zero.
        assert_eq!(
            deployment.await_deliveries(1, Duration::from_millis(100)),
            0
        );
        let report = deployment.shutdown();
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn tcp_batched_send_accounts_identically_and_arrives_intact() {
        // A burst through TcpTransport::send_batch (one write syscall) must report the
        // same copy/byte totals as one-frame bursts and deliver the same frames, in
        // order, through the standard length-prefixed reader.
        let graph = generate::complete(2);
        let endpoints = crate::endpoint::bind_endpoints(2).unwrap();
        let mut links = crate::endpoint::connect_mesh(&graph, &endpoints).unwrap();
        let (tx, rx) = unbounded();
        for (peer, stream) in links[1].readers.drain() {
            crate::endpoint::spawn_link_reader(peer, stream, tx.clone());
        }
        let (_unused_tx, node0_mailbox) = unbounded();
        let mut t0 = TcpTransport::new(std::mem::take(&mut links[0].writers), node0_mailbox);

        let frames: Vec<OutFrame> = (0..4)
            .map(|i| OutFrame::new(Bytes::from(vec![0xA0 + i as u8; 5 + i]), 200 + i))
            .collect();
        let mut per_frame = SendReceipt::default();
        for f in &frames {
            per_frame.record(1, f.wire_size); // one copy per frame to a linked neighbor
        }
        let receipt = t0.send_batch(1, &frames);
        assert_eq!(
            receipt, per_frame,
            "batched receipt equals per-frame totals"
        );
        // The reader hands each read's burst on as one message (a batch, or a single
        // frame); split, the messages carry the same frames in the same order.
        let mut received = Vec::new();
        while received.len() < frames.len() {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.from, 0);
            if got.batch {
                received.extend(split_batch(&got.bytes).expect("valid batch framing"));
            } else {
                received.push(got.bytes);
            }
        }
        let sent: Vec<Bytes> = frames.iter().map(|f| f.frame.clone()).collect();
        assert_eq!(received, sent);
        // And a batch to a process without a link accounts zero.
        assert_eq!(t0.send_batch(7, &frames), SendReceipt::default());
    }
}
