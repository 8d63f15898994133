//! TCP endpoints and authenticated-link establishment over loopback.
//!
//! Every process binds one TCP listener on `127.0.0.1` (ephemeral port) and maintains one
//! TCP connection per edge of the communication graph, exactly like the paper's testbed
//! keeps one TCP connection per pair of containers that share an edge. Within a single
//! trusted host the TCP connection itself plays the role of the authenticated channel of
//! Sec. 3: the mapping from connection to peer identity is established once at connection
//! time (handshake) by the deployment — which is trusted infrastructure, not protocol
//! code — and the receiving side tags every inbound frame with that identity, so a
//! Byzantine *protocol layer* cannot forge the sender of its messages.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use brb_core::types::ProcessId;
use brb_graph::Graph;
use brb_transport::Frame;
use bytes::Bytes;
use crossbeam::channel::Sender;

use crate::frame::{read_batch_into, read_handshake, write_handshake};

/// How long either side of a link waits for the other's handshake, so a stray or
/// silent connection to a listener fails [`connect_mesh`] instead of hanging it.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Reads a handshake within [`HANDSHAKE_TIMEOUT`], then clears the timeout: the link
/// readers exit on any read error, so a leftover timeout would cut an idle link.
fn read_handshake_bounded(stream: &mut TcpStream) -> io::Result<ProcessId> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let peer = read_handshake(stream)?;
    stream.set_read_timeout(None)?;
    Ok(peer)
}

/// A bound, not yet connected endpoint of one process.
#[derive(Debug)]
pub struct Endpoint {
    /// Identifier of the process owning this endpoint.
    pub id: ProcessId,
    /// Listener accepting inbound links.
    pub listener: TcpListener,
    /// Address peers connect to.
    pub addr: SocketAddr,
}

/// Binds one loopback endpoint per process.
///
/// # Errors
///
/// Returns any socket error raised while binding.
pub fn bind_endpoints(n: usize) -> io::Result<Vec<Endpoint>> {
    (0..n)
        .map(|id| {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let addr = listener.local_addr()?;
            Ok(Endpoint { id, listener, addr })
        })
        .collect()
}

/// The established links of one process: one writable stream per neighbor, keyed by the
/// authenticated peer identity.
#[derive(Debug, Default)]
pub struct NodeLinks {
    /// Write halves, keyed by neighbor identifier.
    pub writers: HashMap<ProcessId, TcpStream>,
    /// Read halves, keyed by neighbor identifier (moved out by the deployment when it
    /// spawns reader threads).
    pub readers: HashMap<ProcessId, TcpStream>,
}

/// Establishes the full set of TCP links dictated by `graph` among the given endpoints.
///
/// For every edge `{u, v}` with `u < v`, process `u` connects to `v`'s listener and sends
/// a handshake announcing its identity; `v` accepts, validates that the announced identity
/// is an expected, not-yet-connected neighbor, and acknowledges with its own handshake.
/// Both directions of the resulting stream are used (TCP is full duplex), so exactly one
/// connection per edge exists, as in the paper's deployment.
///
/// # Errors
///
/// Returns any socket error, [`io::ErrorKind::InvalidData`] if a handshake announces an
/// identity that is not an expected neighbor, and a timeout error if a handshake does not
/// arrive within [`HANDSHAKE_TIMEOUT`] (a stray connection to a listener).
pub fn connect_mesh(graph: &Graph, endpoints: &[Endpoint]) -> io::Result<Vec<NodeLinks>> {
    let n = graph.node_count();
    assert_eq!(endpoints.len(), n, "one endpoint per process");
    let mut links: Vec<NodeLinks> = (0..n).map(|_| NodeLinks::default()).collect();

    // Acceptor threads: each endpoint accepts one inbound connection per neighbor with a
    // smaller identifier and returns the authenticated (peer, stream) pairs.
    let mut acceptors = Vec::new();
    for endpoint in endpoints {
        let expected: Vec<ProcessId> = graph
            .neighbors(endpoint.id)
            .filter(|&v| v < endpoint.id)
            .collect();
        let listener = endpoint.listener.try_clone()?;
        let my_id = endpoint.id;
        acceptors.push(std::thread::spawn(
            move || -> io::Result<Vec<(ProcessId, TcpStream)>> {
                let mut accepted = Vec::with_capacity(expected.len());
                let mut remaining: Vec<ProcessId> = expected;
                while !remaining.is_empty() {
                    let (mut stream, _) = listener.accept()?;
                    stream.set_nodelay(true)?;
                    let peer = read_handshake_bounded(&mut stream)?;
                    let Some(pos) = remaining.iter().position(|&p| p == peer) else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "process {my_id} received a handshake from unexpected peer {peer}"
                            ),
                        ));
                    };
                    remaining.swap_remove(pos);
                    write_handshake(&mut stream, my_id)?;
                    accepted.push((peer, stream));
                }
                Ok(accepted)
            },
        ));
    }

    // Outbound connections: u -> v for every edge with u < v.
    for (u, v) in graph.edges() {
        let (lo, hi) = (u.min(v), u.max(v));
        let mut stream = TcpStream::connect(endpoints[hi].addr)?;
        stream.set_nodelay(true)?;
        write_handshake(&mut stream, lo)?;
        let acked = read_handshake_bounded(&mut stream)?;
        if acked != hi {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected handshake ack from {hi}, got {acked}"),
            ));
        }
        links[lo].writers.insert(hi, stream.try_clone()?);
        links[lo].readers.insert(hi, stream);
    }

    // Collect the accepted halves.
    for (id, acceptor) in acceptors.into_iter().enumerate() {
        let accepted = acceptor
            .join()
            .map_err(|_| io::Error::other("acceptor thread panicked"))??;
        for (peer, stream) in accepted {
            links[id].writers.insert(peer, stream.try_clone()?);
            links[id].readers.insert(peer, stream);
        }
    }
    Ok(links)
}

/// Spawns a reader thread for one inbound link: every burst of frames one read brings
/// in ([`read_batch_into`]) goes to the node's mailbox as **one** authenticated [`Frame`]
/// tagged with the peer identity (the common inbound currency of every
/// [`brb_transport::Transport`]) — [`Frame::batched`] in the
/// [`brb_core::wire::encode_batch`] layout, or [`Frame::single`] for a lone frame. The
/// burst is staged in one buffer reused across reads and frozen with one allocation, so
/// a burst costs one channel send and one allocation however many frames it holds. The
/// thread exits when the peer closes or the stream is shut down.
pub fn spawn_link_reader(
    peer: ProcessId,
    stream: TcpStream,
    mailbox: Sender<Frame>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut batch = Vec::new();
        while let Ok(frames) = read_batch_into(&mut reader, &mut batch) {
            let frame = match frames {
                // A one-frame batch is its count and the frame's length, then the frame.
                1 => Frame::single(peer, Bytes::copy_from_slice(&batch[8..])),
                _ => Frame::batched(peer, Bytes::copy_from_slice(&batch)),
            };
            if mailbox.send(frame).is_err() {
                return;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use brb_graph::generate;
    use crossbeam::channel::unbounded;

    #[test]
    fn mesh_connects_every_edge_in_both_directions() {
        let graph = generate::circulant(5, 1);
        let endpoints = bind_endpoints(5).unwrap();
        let links = connect_mesh(&graph, &endpoints).unwrap();
        for (u, node) in links.iter().enumerate() {
            let expected: Vec<ProcessId> = graph.neighbors_vec(u);
            let mut have: Vec<ProcessId> = node.writers.keys().copied().collect();
            have.sort_unstable();
            assert_eq!(have, expected, "node {u} writer links");
            let mut have: Vec<ProcessId> = node.readers.keys().copied().collect();
            have.sort_unstable();
            assert_eq!(have, expected, "node {u} reader links");
        }
    }

    #[test]
    fn frames_travel_with_the_authenticated_identity() {
        let graph = generate::complete(3);
        let endpoints = bind_endpoints(3).unwrap();
        let mut links = connect_mesh(&graph, &endpoints).unwrap();

        // Node 2 listens on all its inbound links.
        let (tx, rx) = unbounded();
        let readers: Vec<_> = links[2].readers.drain().collect();
        for (peer, stream) in readers {
            spawn_link_reader(peer, stream, tx.clone());
        }
        // Node 0 and node 1 each send one frame to node 2.
        write_frame(links[0].writers.get_mut(&2).unwrap(), b"from zero").unwrap();
        write_frame(links[1].writers.get_mut(&2).unwrap(), b"from one").unwrap();

        let mut received: Vec<(ProcessId, Vec<u8>)> = vec![
            rx.recv_timeout(Duration::from_secs(5))
                .map(|f| (f.from, f.bytes.to_vec()))
                .unwrap(),
            rx.recv_timeout(Duration::from_secs(5))
                .map(|f| (f.from, f.bytes.to_vec()))
                .unwrap(),
        ];
        received.sort();
        assert_eq!(received[0], (0, b"from zero".to_vec()));
        assert_eq!(received[1], (1, b"from one".to_vec()));
    }

    #[test]
    fn reader_thread_exits_when_peer_closes() {
        let graph = generate::complete(2);
        let endpoints = bind_endpoints(2).unwrap();
        let mut links = connect_mesh(&graph, &endpoints).unwrap();
        let (tx, rx) = unbounded();
        let (peer, stream) = links[1].readers.drain().next().unwrap();
        let handle = spawn_link_reader(peer, stream, tx);
        // Closing node 0's side of the link terminates node 1's reader.
        links[0] = NodeLinks::default();
        handle.join().unwrap();
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn stray_connections_fail_the_mesh_in_bounded_time() {
        // A connection that never writes, and one announcing an identity outside the
        // graph: each reaches endpoint 1 before the real link does. `connect_mesh` runs
        // on a helper thread, so a hang fails here instead of blocking the suite.
        for (kind, announced) in [("silent", None), ("foreign id", Some(7))] {
            let endpoints = bind_endpoints(2).unwrap();
            let mut stray = TcpStream::connect(endpoints[1].addr).unwrap();
            if let Some(id) = announced {
                write_handshake(&mut stray, id).unwrap();
            }
            let (tx, rx) = unbounded();
            std::thread::spawn(move || {
                let outcome = connect_mesh(&generate::complete(2), &endpoints).map(|_| ());
                let _ = tx.send(outcome);
            });
            let outcome = rx
                .recv_timeout(3 * HANDSHAKE_TIMEOUT)
                .unwrap_or_else(|_| panic!("{kind} stray: connect_mesh hangs"));
            assert!(
                outcome.is_err(),
                "{kind} stray: the real link cannot complete"
            );
            // Held open until here, so the acceptor meets a live stray.
            drop(stray);
        }
    }
}
