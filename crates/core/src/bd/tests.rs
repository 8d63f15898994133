//! Tests of the Bracha–Dolev engine: BRB properties on partially connected topologies,
//! behaviour of each modification, and robustness against Byzantine senders.

use std::collections::VecDeque;

use brb_graph::{generate, Graph};

use super::*;
use crate::config::Config;
use crate::footprint::check::{Checked, WalkState};
use crate::footprint::Footprint;
use crate::pathset::PathSet;
use crate::types::{Action, BroadcastId, Payload};
use crate::wire::{MessageKind, PayloadRef, WireMessage};

/// The walk the engine's running totals replaced: every content, Dolev instance, stored
/// path and queued message.
impl WalkState for BdProcess {
    fn walk_state(&self) -> (usize, usize) {
        let mut bytes = 0usize;
        let mut paths = 0usize;
        for c in self.contents.values() {
            for i in &c.instances {
                bytes += i.tracker.walk_memory_bytes() + 8 * i.neighbors_delivered.len() + 2;
                paths += i.tracker.path_count();
            }
            bytes += 8 * (c.bracha.echo_origins.len() + c.bracha.ready_origins.len())
                + 8 * c.ready_neighbors.len()
                + 8 * c.neighbors_bd_delivered.len()
                + c.neighbor_empty_readys
                    .values()
                    .map(|s| 8 * s.len())
                    .sum::<usize>()
                + c.content.payload.len();
        }
        bytes += self
            .pending
            .values()
            .flat_map(|msgs| msgs.iter())
            .map(|m| m.wire_size())
            .sum::<usize>();
        (bytes, paths)
    }
}

/// A tiny synchronous test network: FIFO per link, no delays, all messages delivered.
struct TestNet {
    processes: Vec<BdProcess>,
    /// Total number of link messages transmitted.
    messages: usize,
    /// Total number of bytes transmitted (Table 3 accounting).
    bytes: usize,
}

impl TestNet {
    fn new(graph: &Graph, config: Config) -> Self {
        let processes = (0..graph.node_count())
            .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
            .collect();
        Self {
            processes,
            messages: 0,
            bytes: 0,
        }
    }

    /// Runs a full broadcast from `source` to quiescence. `drop_to` lists crashed/silent
    /// processes whose inbound messages are discarded (they also never send anything).
    fn broadcast(&mut self, source: usize, payload: Payload, drop_to: &[usize]) {
        let actions = self.processes[source].broadcast_checked(payload);
        let mut queue: VecDeque<(usize, Action<WireMessage>)> =
            actions.into_iter().map(|a| (source, a)).collect();
        let mut steps = 0usize;
        while let Some((sender, action)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 5_000_000, "protocol did not quiesce");
            if let Action::Send { to, message } = action {
                self.messages += 1;
                self.bytes += message.wire_size();
                if drop_to.contains(&to) || drop_to.contains(&sender) {
                    continue;
                }
                for a in self.processes[to].handle_checked(sender, message) {
                    queue.push_back((to, a));
                }
            }
        }
        // A clone carries the totals with it.
        for p in &self.processes {
            p.clone().assert_totals();
        }
    }

    fn all_correct_delivered(&self, payload: &Payload, exclude: &[usize]) -> bool {
        self.processes
            .iter()
            .enumerate()
            .filter(|(i, _)| !exclude.contains(i))
            .all(|(_, p)| p.deliveries().len() == 1 && &p.deliveries()[0].payload == payload)
    }
}

fn all_individual_configs(n: usize, f: usize) -> Vec<(String, Config)> {
    let mut configs = vec![
        ("plain".to_string(), Config::plain(n, f)),
        ("bdopt".to_string(), Config::bdopt(n, f)),
        ("bdopt+mbd1".to_string(), Config::bdopt_mbd1(n, f)),
        ("lat".to_string(), Config::latency_preset(n, f)),
        ("bdw".to_string(), Config::bandwidth_preset(n, f)),
        (
            "lat&bdw".to_string(),
            Config::latency_bandwidth_preset(n, f),
        ),
        (
            "all".to_string(),
            Config::bdopt(n, f).with_mbd(&(1..=12).collect::<Vec<_>>()),
        ),
    ];
    for i in 2..=12u8 {
        configs.push((
            format!("bdopt+mbd1+mbd{i}"),
            Config::bdopt_mbd1(n, f).with_mbd(&[i]),
        ));
    }
    configs
}

// ---------------------------------------------------------------------------
// Validity on fault-free runs, for every configuration.
// ---------------------------------------------------------------------------

#[test]
fn every_configuration_delivers_on_petersen_graph() {
    let graph = generate::figure1_example(); // 10 nodes, 3-connected, f = 1
    let payload = Payload::filled(7, 16);
    for (name, config) in all_individual_configs(10, 1) {
        let mut net = TestNet::new(&graph, config);
        net.broadcast(0, payload.clone(), &[]);
        assert!(
            net.all_correct_delivered(&payload, &[]),
            "configuration {name} failed to deliver everywhere"
        );
    }
}

#[test]
fn every_configuration_delivers_on_5_connected_circulant_with_f2() {
    // Circulant C_14(1,2,3) is 6-regular and 6-connected: supports f = 2 (k >= 2f+1 = 5).
    let graph = generate::circulant(14, 3);
    let payload = Payload::filled(3, 16);
    for (name, config) in all_individual_configs(14, 2) {
        if name == "plain" {
            // The unoptimized combination floods every simple path of every Bracha-layer
            // message; on a 6-regular 14-node graph this is the exponential blow-up the
            // paper describes (Sec. 4.3) and it does not terminate in reasonable test
            // time. The plain configuration is exercised on the smaller Petersen graph.
            continue;
        }
        let mut net = TestNet::new(&graph, config);
        net.broadcast(3, payload.clone(), &[]);
        assert!(
            net.all_correct_delivered(&payload, &[]),
            "configuration {name} failed to deliver everywhere"
        );
    }
}

#[test]
fn delivery_with_silent_byzantine_processes() {
    // f = 2 crashed (silent) processes: the graph is 6-connected, so the correct
    // processes still form a sufficiently connected subgraph.
    let graph = generate::circulant(14, 3);
    let payload = Payload::filled(9, 16);
    let byzantine = [5usize, 9];
    for (name, config) in [
        ("bdopt".to_string(), Config::bdopt(14, 2)),
        ("bdopt+mbd1".to_string(), Config::bdopt_mbd1(14, 2)),
        ("lat".to_string(), Config::latency_preset(14, 2)),
        ("bdw".to_string(), Config::bandwidth_preset(14, 2)),
        (
            "all".to_string(),
            Config::bdopt(14, 2).with_mbd(&(1..=12).collect::<Vec<_>>()),
        ),
    ] {
        let mut net = TestNet::new(&graph, config);
        net.broadcast(0, payload.clone(), &byzantine);
        assert!(
            net.all_correct_delivered(&payload, &byzantine),
            "configuration {name} failed with silent Byzantine processes"
        );
    }
}

#[test]
fn repeated_broadcasts_are_each_delivered_once() {
    let graph = generate::figure1_example();
    let mut net = TestNet::new(&graph, Config::bdopt_mbd1(10, 1));
    for round in 0..3u8 {
        net.broadcast(2, Payload::filled(round, 16), &[]);
    }
    for p in &net.processes {
        assert_eq!(p.deliveries().len(), 3);
        for (round, delivery) in p.deliveries().iter().enumerate() {
            assert_eq!(delivery.id, BroadcastId::new(2, round as u32));
            assert_eq!(delivery.payload, Payload::filled(round as u8, 16));
        }
    }
}

#[test]
fn different_sources_can_broadcast() {
    let graph = generate::figure1_example();
    let mut net = TestNet::new(&graph, Config::latency_preset(10, 1));
    net.broadcast(0, Payload::from("from 0"), &[]);
    net.broadcast(7, Payload::from("from 7"), &[]);
    for p in &net.processes {
        assert_eq!(p.deliveries().len(), 2);
    }
}

// ---------------------------------------------------------------------------
// Relative message/byte counts of the modifications.
// ---------------------------------------------------------------------------

fn run_and_measure(
    graph: &Graph,
    config: Config,
    source: usize,
    payload_len: usize,
) -> (usize, usize) {
    let mut net = TestNet::new(graph, config);
    let payload = Payload::filled(1, payload_len);
    net.broadcast(source, payload.clone(), &[]);
    assert!(net.all_correct_delivered(&payload, &[]));
    (net.messages, net.bytes)
}

#[test]
fn mbd1_reduces_bytes_dramatically_for_large_payloads() {
    let graph = generate::circulant(12, 2);
    let (_, bytes_base) = run_and_measure(&graph, Config::bdopt(12, 1), 0, 1024);
    let (_, bytes_mbd1) = run_and_measure(&graph, Config::bdopt_mbd1(12, 1), 0, 1024);
    // The paper reports around -98% with 1024 B payloads; on this small graph the
    // reduction is still dramatic.
    assert!(
        (bytes_mbd1 as f64) < 0.35 * bytes_base as f64,
        "MBD.1 should massively reduce bytes: {bytes_mbd1} vs {bytes_base}"
    );
}

#[test]
fn md_optimizations_reduce_messages_vs_plain() {
    let graph = generate::figure1_example();
    let (msgs_plain, _) = run_and_measure(&graph, Config::plain(10, 1), 0, 16);
    let (msgs_bdopt, _) = run_and_measure(&graph, Config::bdopt(10, 1), 0, 16);
    assert!(
        msgs_bdopt < msgs_plain,
        "MD.1-5 should reduce messages: {msgs_bdopt} vs {msgs_plain}"
    );
}

#[test]
fn mbd7_reduces_bytes_vs_mbd1_alone() {
    let graph = generate::circulant(16, 3);
    let (_, base) = run_and_measure(&graph, Config::bdopt_mbd1(16, 2), 0, 1024);
    let (_, with7) = run_and_measure(&graph, Config::bdopt_mbd1(16, 2).with_mbd(&[7]), 0, 1024);
    assert!(
        with7 <= base,
        "MBD.7 should not increase bytes: {with7} vs {base}"
    );
}

#[test]
fn mbd11_reduces_bytes_vs_mbd1_alone() {
    let graph = generate::circulant(16, 3);
    let (_, base) = run_and_measure(&graph, Config::bdopt_mbd1(16, 2), 0, 1024);
    let (_, with11) = run_and_measure(&graph, Config::bdopt_mbd1(16, 2).with_mbd(&[11]), 0, 1024);
    assert!(
        with11 < base,
        "MBD.11 should reduce bytes: {with11} vs {base}"
    );
}

#[test]
fn bandwidth_preset_uses_fewer_bytes_than_mbd1_alone() {
    let graph = generate::circulant(16, 3);
    let (_, base) = run_and_measure(&graph, Config::bdopt_mbd1(16, 2), 0, 1024);
    let (_, bdw) = run_and_measure(&graph, Config::bandwidth_preset(16, 2), 0, 1024);
    assert!(
        bdw < base,
        "bdw. preset should reduce bytes: {bdw} vs {base}"
    );
}

// ---------------------------------------------------------------------------
// Byzantine-sender behaviour (agreement).
// ---------------------------------------------------------------------------

/// Runs a network where Byzantine process `byz` equivocates: it runs two BD engines
/// internally and sends one payload to half of its neighbors and another to the rest.
#[test]
fn equivocating_source_never_splits_correct_processes() {
    let graph = generate::figure1_example();
    let n = graph.node_count();
    let config = Config::bdopt_mbd1(n, 1);
    let byz = 0usize;
    let mut processes: Vec<BdProcess> = (0..n)
        .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
        .collect();

    // The Byzantine source fabricates two conflicting SEND messages with the same id.
    let id = BroadcastId::new(byz, 0);
    let make_send = |payload: &str| WireMessage {
        kind: MessageKind::Send,
        id,
        originator: byz,
        originator2: None,
        payload: PayloadRef::Inline(Payload::from(payload)),
        path: vec![],
        fields: Default::default(),
    };
    let neighbors = graph.neighbors_vec(byz);
    let mut queue: VecDeque<(usize, Action<WireMessage>)> = VecDeque::new();
    for (idx, &neighbor) in neighbors.iter().enumerate() {
        let msg = if idx % 2 == 0 {
            make_send("payload-A")
        } else {
            make_send("payload-B")
        };
        for a in processes[neighbor].handle_checked(byz, msg) {
            queue.push_back((neighbor, a));
        }
    }
    // Run to quiescence; the Byzantine process stays silent from now on.
    let mut steps = 0usize;
    while let Some((sender, action)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 2_000_000);
        if let Action::Send { to, message } = action {
            if to == byz {
                continue;
            }
            for a in processes[to].handle_checked(sender, message) {
                queue.push_back((to, a));
            }
        }
    }
    // BRB-Agreement: all correct processes that delivered, delivered the same payload, and
    // nobody delivered twice for the same broadcast id.
    let delivered: Vec<&Payload> = processes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != byz)
        .flat_map(|(_, p)| p.deliveries().iter().map(|d| &d.payload))
        .collect();
    for p in processes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != byz)
        .map(|(_, p)| p)
    {
        assert!(p.deliveries().len() <= 1);
    }
    if let Some(first) = delivered.first() {
        assert!(
            delivered.iter().all(|p| p == first),
            "correct processes disagreed"
        );
    }
}

#[test]
fn equivocated_payloads_under_one_id_are_tracked_apart() {
    // Two payloads under one broadcast id are two contents: each has its own state (and
    // hash bucket: the cached payload digests differ), and an Echo for one never counts
    // towards the other.
    let config = Config::bdopt(10, 1);
    let mut p = BdProcess::new(3, config, vec![0, 1, 2]);
    let id = BroadcastId::new(0, 0);
    let echo = |payload: &str, originator: usize| WireMessage {
        kind: MessageKind::Echo,
        id,
        originator,
        originator2: None,
        payload: PayloadRef::Inline(Payload::from(payload)),
        path: vec![],
        fields: Default::default(),
    };
    p.handle_checked(1, echo("payload-A", 1));
    p.handle_checked(2, echo("payload-B", 2));
    p.handle_checked(2, echo("payload-A", 2));
    assert_eq!(p.contents.len(), 2);
    let echoes = |payload: &str| {
        let content = Content::new(id, Payload::from(payload));
        p.contents[&content].bracha.echo_origins.to_vec()
    };
    assert_eq!(echoes("payload-A"), vec![1, 2]);
    assert_eq!(echoes("payload-B"), vec![2]);
    assert!(p.deliveries().is_empty());
}

/// The engine's state with every delivered-neighbor set emptied and the running totals
/// (and the GC's event clock, which ticks on every message) zeroed: what a late message
/// must leave exactly as it was.
fn state_besides_delivered_neighbors(p: &BdProcess) -> String {
    let mut p = p.clone();
    p.node.gc = GcState::new(p.node.config.gc);
    for content in p.contents.values_mut() {
        for instance in &mut content.instances {
            instance.neighbors_delivered = PathSet::new();
        }
        content.instances_footprint = Footprint::ZERO;
    }
    p.footprint = Footprint::ZERO;
    format!("{p:?}")
}

#[test]
fn late_messages_only_record_that_their_sender_delivered() {
    use crate::config::MdFlags;
    let graph = generate::figure1_example();
    let (n, me) = (graph.node_count(), 7);
    let mut configs = all_individual_configs(n, 1);
    for i in 1..=5 {
        let md = MdFlags {
            md1: i == 1,
            md2: i == 2,
            md3: i == 3,
            md4: i == 4,
            md5: i == 5,
        };
        configs.push((format!("md{i}"), Config::plain(n, 1).with_md(md)));
    }
    for (name, config) in configs {
        let mut net = TestNet::new(&graph, config);
        let payload = Payload::filled(3, 16);
        net.broadcast(0, payload.clone(), &[]);
        let sink = std::sync::Arc::new(brb_trace::VecSink::new());
        let p = &mut net.processes[me];
        p.set_tracer(brb_trace::Tracer::new(
            brb_trace::Backend::Sim,
            brb_trace::Clock::virtual_clock().0,
            sink.clone(),
        ));
        // An Echo instance this process Dolev-delivered and announced with an empty
        // path (another process's where there is one, else its own).
        let content = Content::new(BroadcastId::new(0, 0), payload.clone());
        let state = &p.contents[&content];
        let originator = (0..n)
            .rev()
            .filter(|&o| o != me)
            .chain([me])
            .find(|&originator| {
                let key = DolevKey {
                    phase: BrachaKind::Echo,
                    originator,
                };
                state.instance_index(key).is_some_and(|index| {
                    let instance = &state.instances[index];
                    instance.delivered && instance.relayed_empty
                })
            })
            .unwrap_or_else(|| panic!("{name}: no announced Echo instance"));
        let from = *p
            .neighbors()
            .iter()
            .find(|&&q| q != originator)
            .expect("three neighbors");
        let late = |path: Vec<usize>| WireMessage {
            kind: MessageKind::Echo,
            id: content.id,
            originator,
            originator2: None,
            payload: PayloadRef::Inline(payload.clone()),
            path,
            fields: Default::default(),
        };
        if !(config.md.md2 || config.md.md5) {
            // Without MD.2 / MD.5 a delivered instance keeps relaying: the message must
            // not be swallowed.
            assert!(
                !p.handle_checked(from, late(vec![originator])).is_empty(),
                "{name}"
            );
            continue;
        }
        for path in [vec![originator, 1], vec![], vec![]] {
            let before = state_besides_delivered_neighbors(p);
            let (bytes, paths) = (p.state_bytes(), p.stored_paths());
            let actions = p.handle_checked(from, late(path.clone()));
            assert!(actions.is_empty(), "{name}: {actions:?}");
            assert!(sink.events().is_empty(), "{name}: {:?}", sink.events());
            assert_eq!(state_besides_delivered_neighbors(p), before, "{name}");
            assert_eq!(p.stored_paths(), paths, "{name}");
            let grew = p.state_bytes() - bytes;
            assert!(
                grew == 0 || (grew == 8 && path.is_empty()),
                "{name}: +{grew} B"
            );
        }
    }
}

#[test]
fn malformed_labels_are_refused_before_any_state_exists() {
    // One 48-byte Echo naming process 4 000 000 000 on its path used to size a path set
    // of 62.5 M words (1.5 GB) and was relayed on; every label field is now bounded by n.
    let config = Config::bdopt(10, 1);
    let mut p = BdProcess::new(0, config, vec![1, 5, 6]);
    let echo = WireMessage {
        kind: MessageKind::Echo,
        id: BroadcastId::new(5, 0),
        originator: 2,
        originator2: None,
        payload: PayloadRef::Inline(Payload::from("m")),
        path: vec![2],
        fields: Default::default(),
    };
    let wild = 4_000_000_000usize;
    let frame = WireMessage {
        path: vec![wild],
        ..echo.clone()
    };
    let decoded = WireMessage::decode(&frame.encode()).expect("a well-framed message");
    let malformed = vec![
        (1, decoded),
        (wild, echo.clone()),
        (
            1,
            WireMessage {
                originator: 10,
                ..echo.clone()
            },
        ),
        (
            1,
            WireMessage {
                originator2: Some(10),
                kind: MessageKind::EchoEcho,
                ..echo.clone()
            },
        ),
        (
            1,
            WireMessage {
                id: BroadcastId::new(10, 0),
                ..echo.clone()
            },
        ),
        (
            1,
            WireMessage {
                path: vec![2, 3, 10],
                ..echo.clone()
            },
        ),
    ];
    for (from, message) in malformed {
        let actions = p.handle_checked(from, message.clone());
        assert!(actions.is_empty(), "{message:?}");
        assert_eq!((p.state_bytes(), p.stored_paths()), (0, 0), "{message:?}");
        assert!(p.contents.is_empty() && p.peer_contents.is_empty());
    }
    // The same message with every label in range is processed.
    assert!(!p.handle_checked(1, echo).is_empty());
    assert_eq!(p.stored_paths(), 1);
}

#[test]
fn forged_echo_floods_cannot_force_delivery() {
    // A single Byzantine neighbor forges Echo/Ready messages from many originators with
    // empty paths; since all of them arrive through the same neighbor, the Dolev layer
    // never certifies f+1 disjoint paths for any forged originator, and the content is
    // never delivered by the victim.
    let config = Config::bdopt_mbd1(10, 2);
    let mut victim = BdProcess::new(0, config, vec![1, 2, 3, 4, 5]);
    let id = BroadcastId::new(9, 0);
    let payload = Payload::from("forged");
    for forged_originator in 10..30usize {
        for kind in [MessageKind::Echo, MessageKind::Ready] {
            let msg = WireMessage {
                kind,
                id,
                originator: forged_originator % 10,
                originator2: None,
                payload: PayloadRef::Inline(payload.clone()),
                path: vec![forged_originator % 10],
                fields: Default::default(),
            };
            victim.handle_checked(1, msg);
        }
    }
    assert!(victim.deliveries().is_empty());
    assert!(!victim.has_delivered(id));
}

#[test]
fn byzantine_cannot_forge_disjoint_paths_through_itself() {
    // f = 1, so 2 disjoint paths are needed for a Dolev delivery. Byzantine neighbor 1
    // sends many distinct paths for a Ready of originator 7, but every path necessarily
    // includes neighbor 1 itself (authenticated channel), so they are never disjoint.
    let config = Config::bdopt(10, 1);
    let mut victim = BdProcess::new(0, config, vec![1, 2, 3]);
    let id = BroadcastId::new(7, 0);
    for fake in 0..10usize {
        let msg = WireMessage {
            kind: MessageKind::Ready,
            id,
            originator: 7,
            originator2: None,
            payload: PayloadRef::Inline(Payload::from("m")),
            path: vec![7, 4 + (fake % 3)],
            fields: Default::default(),
        };
        victim.handle_checked(1, msg);
    }
    assert!(victim.deliveries().is_empty());
}

// ---------------------------------------------------------------------------
// MBD.1 local-identifier machinery.
// ---------------------------------------------------------------------------

#[test]
fn mbd1_payload_is_announced_once_per_link() {
    let graph = generate::figure1_example();
    let mut net = TestNet::new(&graph, Config::bdopt_mbd1(10, 1));
    let payload = Payload::filled(1, 1024);
    net.broadcast(0, payload.clone(), &[]);
    assert!(net.all_correct_delivered(&payload, &[]));
    // Count the messages carrying the full payload: with MBD.1 this is bounded by the
    // number of directed links (each process announces at most once per link), here
    // 2 * |E| = 30.
    // We re-run while counting, because TestNet does not keep per-message history.
    let mut net = TestNet::new(&graph, Config::bdopt_mbd1(10, 1));
    let actions = net.processes[0].broadcast_checked(payload.clone());
    let mut queue: VecDeque<(usize, Action<WireMessage>)> =
        actions.into_iter().map(|a| (0, a)).collect();
    let mut full_payload_msgs = 0usize;
    while let Some((sender, action)) = queue.pop_front() {
        if let Action::Send { to, message } = action {
            if message.payload.payload().is_some() {
                full_payload_msgs += 1;
            }
            for a in net.processes[to].handle_checked(sender, message) {
                queue.push_back((to, a));
            }
        }
    }
    assert!(
        full_payload_msgs <= 2 * graph.edge_count(),
        "payload transmitted {full_payload_msgs} times, expected at most {}",
        2 * graph.edge_count()
    );
}

#[test]
fn mbd1_reordered_local_id_messages_are_queued_and_processed() {
    let config = Config::bdopt_mbd1(10, 1);
    let mut p = BdProcess::new(0, config, vec![1, 2, 3]);
    let id = BroadcastId::new(5, 0);
    let payload = Payload::from("late payload");
    // An Echo referencing local id 42 arrives before the announcement: it must be queued.
    let early = WireMessage {
        kind: MessageKind::Echo,
        id,
        originator: 5,
        originator2: None,
        payload: PayloadRef::Local(42),
        path: vec![5],
        fields: Default::default(),
    };
    let queued_bytes = early.wire_size();
    let actions = p.handle_checked(1, early);
    assert!(
        actions.is_empty(),
        "message with unknown local id must be buffered"
    );
    assert_eq!(p.state_bytes(), queued_bytes, "only the queued frame");
    // The announcement then arrives on the same link: both messages are processed.
    let announce = WireMessage {
        kind: MessageKind::Ready,
        id,
        originator: 5,
        originator2: None,
        payload: PayloadRef::Announce {
            local_id: 42,
            payload: payload.clone(),
        },
        path: vec![5],
        fields: Default::default(),
    };
    let actions = p.handle_checked(1, announce);
    assert!(
        !actions.is_empty(),
        "announcement must unblock the queued message"
    );
    assert!(p.state_bytes() > 0);
    assert!(
        p.pending.is_empty(),
        "the queue drained (and was un-counted)"
    );
}

#[test]
fn own_echo_replaces_an_instance_opened_by_relayed_paths() {
    // A (forged) Echo naming this process as originator opens the (Echo, self) instance
    // and stores a path in it; creating our real Echo then replaces that instance, and
    // the totals must drop the replaced one's share.
    let config = Config::bdopt(10, 1);
    let mut p = BdProcess::new(0, config, vec![1, 5, 6]);
    let id = BroadcastId::new(5, 0);
    let payload = Payload::from("m");
    let forged = WireMessage {
        kind: MessageKind::Echo,
        id,
        originator: 0,
        originator2: None,
        payload: PayloadRef::Inline(payload.clone()),
        path: vec![7],
        fields: Default::default(),
    };
    p.handle_checked(1, forged);
    assert_eq!(p.stored_paths(), 1);
    let send = WireMessage {
        kind: MessageKind::Send,
        id,
        originator: 5,
        originator2: None,
        payload: PayloadRef::Inline(payload),
        path: vec![],
        fields: Default::default(),
    };
    let actions = p.handle_checked(5, send);
    assert!(!actions.is_empty(), "the direct Send makes us echo");
    assert_eq!(p.stored_paths(), 0, "the replaced instance's path is gone");
}

#[test]
fn mbd1_local_ids_from_different_neighbors_do_not_collide() {
    let config = Config::bdopt_mbd1(10, 1);
    let mut p = BdProcess::new(0, config, vec![1, 2]);
    let id_a = BroadcastId::new(5, 0);
    let id_b = BroadcastId::new(6, 0);
    // Neighbors 1 and 2 both use local id 0, but for different contents.
    for (neighbor, id, text) in [(1usize, id_a, "a"), (2usize, id_b, "b")] {
        let announce = WireMessage {
            kind: MessageKind::Echo,
            id,
            originator: id.source,
            originator2: None,
            payload: PayloadRef::Announce {
                local_id: 0,
                payload: Payload::from(text),
            },
            path: vec![id.source],
            fields: Default::default(),
        };
        p.handle_checked(neighbor, announce);
    }
    // Follow-up messages with local id 0 resolve to the per-link content.
    for (neighbor, id) in [(1usize, id_a), (2usize, id_b)] {
        let follow = WireMessage {
            kind: MessageKind::Ready,
            id,
            originator: id.source,
            originator2: None,
            payload: PayloadRef::Local(0),
            path: vec![id.source],
            fields: Default::default(),
        };
        let actions = p.handle_checked(neighbor, follow);
        // Resolved (not queued): the engine relays or reacts, never silently buffers.
        assert!(!actions.is_empty() || p.stored_paths() > 0);
    }
}

// ---------------------------------------------------------------------------
// Individual modification behaviours.
// ---------------------------------------------------------------------------

#[test]
fn mbd2_send_messages_are_single_hop_and_pathless() {
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(10, 1).with_mbd(&[2]);
    let mut source = BdProcess::new(0, config, graph.neighbors_vec(0));
    let actions = source.broadcast_checked(Payload::from("m"));
    let sends: Vec<&WireMessage> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { message, .. } if message.kind == MessageKind::Send => Some(message),
            _ => None,
        })
        .collect();
    assert_eq!(
        sends.len(),
        graph.degree(0),
        "Send goes to direct neighbors only"
    );
    for m in sends {
        assert!(!m.fields.path, "single-hop Send messages carry no path");
    }
}

#[test]
fn mbd5_elides_sender_field_of_newly_created_messages() {
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(10, 1).with_mbd(&[5]);
    let mut source = BdProcess::new(0, config, graph.neighbors_vec(0));
    let actions = source.broadcast_checked(Payload::from("m"));
    for a in &actions {
        if let Action::Send { message, .. } = a {
            if message.kind == MessageKind::Echo {
                assert!(
                    !message.fields.originator,
                    "newly created Echo should not carry the sender field under MBD.5"
                );
            }
        }
    }
}

#[test]
fn mbd8_suppresses_echos_to_neighbors_whose_ready_was_delivered() {
    let config = Config::bdopt_mbd1(10, 1).with_mbd(&[8]);
    let mut p = BdProcess::new(0, config, vec![1, 2, 3]);
    let id = BroadcastId::new(5, 0);
    let payload = Payload::from("m");
    // Neighbor 1 sends us its own Ready (direct, empty path): Dolev-delivered immediately.
    let ready = WireMessage {
        kind: MessageKind::Ready,
        id,
        originator: 1,
        originator2: None,
        payload: PayloadRef::Inline(payload.clone()),
        path: vec![],
        fields: Default::default(),
    };
    p.handle_checked(1, ready);
    // Now an Echo arrives from neighbor 2 and is relayed: it must not be sent to 1.
    let echo = WireMessage {
        kind: MessageKind::Echo,
        id,
        originator: 7,
        originator2: None,
        payload: PayloadRef::Inline(payload),
        path: vec![7],
        fields: Default::default(),
    };
    let actions = p.handle_checked(2, echo);
    for a in &actions {
        if let Action::Send { to, message } = a {
            if matches!(message.kind, MessageKind::Echo | MessageKind::EchoEcho) {
                assert_ne!(
                    *to, 1,
                    "MBD.8: no Echo to a neighbor whose Ready was delivered"
                );
            }
        }
    }
}

#[test]
fn mbd9_suppresses_all_messages_to_neighbors_that_delivered() {
    let config = Config::bdopt_mbd1(10, 1).with_mbd(&[9]);
    let f = 1;
    let mut p = BdProcess::new(0, config, vec![1, 2, 3]);
    let id = BroadcastId::new(5, 0);
    let payload = Payload::from("m");
    // Neighbor 1 relays 2f+1 = 3 Readys from distinct originators with empty paths,
    // proving it BRB-delivered.
    for originator in [5usize, 6, 7] {
        let ready = WireMessage {
            kind: MessageKind::Ready,
            id,
            originator,
            originator2: None,
            payload: PayloadRef::Inline(payload.clone()),
            path: vec![],
            fields: Default::default(),
        };
        p.handle_checked(1, ready);
    }
    assert_eq!(2 * f + 1, 3);
    // Any further activity must avoid neighbor 1 entirely.
    let echo = WireMessage {
        kind: MessageKind::Echo,
        id,
        originator: 8,
        originator2: None,
        payload: PayloadRef::Inline(payload),
        path: vec![8],
        fields: Default::default(),
    };
    let actions = p.handle_checked(2, echo);
    for a in &actions {
        if let Action::Send { to, .. } = a {
            assert_ne!(*to, 1, "MBD.9: no message to a neighbor that delivered");
        }
    }
}

#[test]
fn mbd10_ignores_superpaths() {
    let config = Config::bdopt(10, 2).with_mbd(&[10]);
    let mut p = BdProcess::new(0, config, vec![1, 2, 3]);
    let id = BroadcastId::new(5, 0);
    let payload = Payload::from("m");
    let mk = |path: Vec<usize>| WireMessage {
        kind: MessageKind::Echo,
        id,
        originator: 5,
        originator2: None,
        payload: PayloadRef::Inline(payload.clone()),
        path,
        fields: Default::default(),
    };
    let first = p.handle_checked(1, mk(vec![5, 7]));
    assert!(!first.is_empty(), "the first path is relayed");
    // The same route plus extra hops is a superpath: ignored, nothing relayed.
    let superpath = p.handle_checked(1, mk(vec![5, 7, 8]));
    assert!(
        superpath.is_empty(),
        "superpaths must be ignored under MBD.10"
    );
}

#[test]
fn mbd11_non_participants_do_not_create_echo_or_ready() {
    // n = 10, f = 1: echoers = ceil(12/2)+1 = 7 processes after the source, readiers = 4.
    let graph = generate::complete(10);
    let config = Config::bdopt_mbd1(10, 1).with_mbd(&[11]);
    let mut net = TestNet::new(&graph, config);
    let payload = Payload::filled(2, 16);
    net.broadcast(0, payload.clone(), &[]);
    assert!(net.all_correct_delivered(&payload, &[]));
    // Process 9 has rank 8 after source 0: neither echoer (rank < 7) nor readier (rank < 4).
    let far = &net.processes[9];
    let state = far
        .contents
        .values()
        .next()
        .expect("process 9 observed the broadcast");
    assert!(
        !state.bracha.sent_echo,
        "process 9 must not create an Echo under MBD.11"
    );
    assert!(
        !state.bracha.sent_ready,
        "process 9 must not create a Ready under MBD.11"
    );
}

#[test]
fn mbd12_limits_fanout_of_created_messages() {
    // Source with many neighbors: newly created messages go to only 2f+1 of them.
    let n = 12;
    let graph = generate::complete(n);
    let config = Config::bdopt_mbd1(n, 1).with_mbd(&[12]);
    let mut source = BdProcess::new(0, config, graph.neighbors_vec(0));
    let actions = source.broadcast_checked(Payload::from("m"));
    let send_targets: Vec<usize> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, message } if message.kind == MessageKind::Send => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(send_targets.len(), 3, "fanout must be limited to 2f+1 = 3");
}

#[test]
fn merged_messages_appear_when_mbd3_mbd4_enabled() {
    let graph = generate::circulant(12, 2);
    let config = Config::bdopt_mbd1(12, 1).with_mbd(&[2, 3, 4]);
    let mut net = TestNet::new(&graph, config);
    let payload = Payload::filled(4, 64);
    // Count merged messages on the wire.
    let actions = net.processes[0].broadcast_checked(payload.clone());
    let mut queue: VecDeque<(usize, Action<WireMessage>)> =
        actions.into_iter().map(|a| (0, a)).collect();
    let mut merged = 0usize;
    while let Some((sender, action)) = queue.pop_front() {
        if let Action::Send { to, message } = action {
            if matches!(message.kind, MessageKind::EchoEcho | MessageKind::ReadyEcho) {
                merged += 1;
            }
            for a in net.processes[to].handle_checked(sender, message) {
                queue.push_back((to, a));
            }
        }
    }
    assert!(merged > 0, "MBD.3/4 should produce merged messages");
    assert!(net.all_correct_delivered(&payload, &[]));
}

#[test]
fn engine_rejects_invalid_configuration() {
    let result = std::panic::catch_unwind(|| {
        BdProcess::new(0, Config::bdopt(6, 2), vec![1, 2]);
    });
    assert!(result.is_err());
    let result = std::panic::catch_unwind(|| {
        BdProcess::new(10, Config::bdopt(10, 1), vec![1]);
    });
    assert!(result.is_err());
}

#[test]
fn accessors_expose_configuration_and_neighbors() {
    let config = Config::bdopt_mbd1(10, 1);
    let p = BdProcess::new(3, config, vec![1, 2]);
    assert_eq!(p.process_id(), 3);
    assert_eq!(p.neighbors(), &[1, 2]);
    assert_eq!(p.config().n, 10);
    assert_eq!(p.stored_paths(), 0);
    assert_eq!(p.deliveries().len(), 0);
}

// ---------------------------------------------------------------------------
// Instance GC: watermark retirement and deterministic replay dropping.
// ---------------------------------------------------------------------------

#[test]
fn gc_retires_delivered_instances_across_the_network_and_drops_replays() {
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(10, 1).with_gc(crate::gc::GcPolicy::after_events(16));
    let mut net = TestNet::new(&graph, config);
    let payload = Payload::filled(1, 16);
    net.broadcast(0, payload.clone(), &[]);
    assert!(net.all_correct_delivered(&payload, &[]));
    // A second broadcast pads enough engine events to elapse every retention window.
    net.broadcast(3, Payload::filled(2, 16), &[]);
    for p in &net.processes {
        assert!(
            p.gc_retired() >= 1,
            "process {} retired nothing",
            p.process_id()
        );
    }
    // Replaying the SEND of the retired broadcast must be a silent no-op everywhere.
    let replay = WireMessage {
        kind: MessageKind::Send,
        id: BroadcastId::new(0, 0),
        originator: 0,
        originator2: None,
        payload: PayloadRef::Inline(payload),
        path: vec![],
        fields: Default::default(),
    };
    for i in graph.neighbors_vec(0) {
        let deliveries_before = net.processes[i].deliveries().len();
        let bytes_before = net.processes[i].state_bytes();
        let actions = net.processes[i].handle_checked(0, replay.clone());
        assert!(
            actions.is_empty(),
            "process {i} reacted to a retired replay"
        );
        assert_eq!(net.processes[i].deliveries().len(), deliveries_before);
        // The replay event may retire the *second* broadcast (its own window keeps
        // running), so state may shrink — it must never grow.
        assert!(net.processes[i].state_bytes() <= bytes_before);
    }
}

#[test]
fn replayed_local_refs_for_retired_instances_are_dropped_not_queued() {
    // MBD.1 regression: a late `Local` reference (or a replayed announcement) for a
    // retired instance must be dropped via the per-peer tombstones, not parked in the
    // `pending` queue forever.
    let config = Config::bdopt_mbd1(10, 1).with_gc(crate::gc::GcPolicy::after_events(2));
    let mut p = BdProcess::new(0, config, vec![5, 6, 7]);
    let id = BroadcastId::new(5, 0);
    let payload = Payload::from("m");
    let announce = WireMessage {
        kind: MessageKind::Ready,
        id,
        originator: 5,
        originator2: None,
        payload: PayloadRef::Announce {
            local_id: 0,
            payload: payload.clone(),
        },
        path: vec![],
        fields: Default::default(),
    };
    p.handle_checked(5, announce.clone());
    let inline_ready = |originator: usize| WireMessage {
        kind: MessageKind::Ready,
        id,
        originator,
        originator2: None,
        payload: PayloadRef::Inline(payload.clone()),
        path: vec![],
        fields: Default::default(),
    };
    p.handle_checked(6, inline_ready(6));
    assert_eq!(p.deliveries().len(), 1, "2f+1 Readys incl. our own deliver");
    // Unrelated traffic elapses the 2-event retention window.
    let pad = WireMessage {
        kind: MessageKind::Echo,
        id: BroadcastId::new(6, 1),
        originator: 6,
        originator2: None,
        payload: PayloadRef::Inline(Payload::from("pad")),
        path: vec![],
        fields: Default::default(),
    };
    p.handle_checked(6, pad.clone());
    p.handle_checked(6, pad);
    assert_eq!(p.gc_retired(), 1);
    let baseline = p.state_bytes();
    // A late Local ref from the announcing peer must not queue in `pending` (whose
    // buffered frames are part of `state_bytes`).
    let late_ref = WireMessage {
        kind: MessageKind::Ready,
        id,
        originator: 7,
        originator2: None,
        payload: PayloadRef::Local(0),
        path: vec![],
        fields: Default::default(),
    };
    assert!(p.handle_checked(5, late_ref).is_empty());
    assert_eq!(p.state_bytes(), baseline, "Local replay must not buffer");
    // A replayed announcement must not re-enter `peer_contents` either.
    assert!(p.handle_checked(5, announce).is_empty());
    assert_eq!(
        p.state_bytes(),
        baseline,
        "Announce replay must not resurrect"
    );
    assert_eq!(p.deliveries().len(), 1);
}
