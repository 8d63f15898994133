//! BRB-Agreement against an equivocating source, for every engine that runs Bracha's
//! quorum rule: the standalone `bracha` engine, the Bracha–Dolev engine under its
//! configurations, and Bracha over routed Dolev.
//!
//! The scenario: a complete graph of n = 4 processes with f = 1. The Byzantine source 3
//! broadcasts `m1` and `m2` under the same broadcast id (3, 0), so each of processes 0, 1
//! and 2 receives both Sends; after that it runs the engine on what it receives. A
//! scheduler steers the frames: processes 0, 2 and 3 get their frames about `m1` first,
//! process 1 its frames about `m2`, and process 1 gets its frames about `m1` last of all.
//! A correct process echoes at most one content per broadcast id, so at most one content
//! can gather an Echo quorum, and the correct processes deliver one payload or none.

use std::collections::{HashMap, VecDeque};

use brb_core::bracha::{BrachaMessage, BrachaProcess};
use brb_core::bracha_rc::BrachaOverRc;
use brb_core::config::Config;
use brb_core::dolev_routed::RoutedDolev;
use brb_core::protocol::Protocol;
use brb_core::stack::WireCodec;
use brb_core::types::{Action, BroadcastId, LocalPayloadId, Payload, ProcessId};
use brb_core::wire::{PayloadRef, WireMessage};
use brb_core::BdProcess;
use brb_graph::generate;

const N: usize = 4;
const F: usize = 1;
const SOURCE: ProcessId = 3;

/// MBD.1 announcements the scheduler has seen: `(from, to, local id)` to payload.
type Announced = HashMap<(ProcessId, ProcessId, LocalPayloadId), Payload>;

/// Runs the scenario with `build(i)` as process `i`; `payload_of` names the payload a
/// frame from `from` to `to` is about, if the scheduler can tell. Returns the payload each
/// correct process delivered for (3, 0), if any.
fn run<P: Protocol>(
    build: impl Fn(ProcessId) -> P,
    payload_of: impl Fn(ProcessId, ProcessId, &P::Message, &mut Announced) -> Option<Payload>,
) -> Vec<Option<Payload>> {
    let (m1, m2) = (Payload::from("m1"), Payload::from("m2"));
    let prefers = |to: ProcessId| if to == 1 { &m2 } else { &m1 };
    let mut processes: Vec<P> = (0..N).map(&build).collect();
    let mut announced = Announced::new();
    let mut queue = VecDeque::new();
    let mut enqueue =
        |from: ProcessId, actions: Vec<Action<P::Message>>, queue: &mut VecDeque<_>| {
            for action in actions {
                if let Action::Send { to, message } = action {
                    let about = payload_of(from, to, &message, &mut announced);
                    queue.push_back((from, to, message, about));
                }
            }
        };
    for payload in [&m1, &m2] {
        processes[SOURCE].set_next_seq(0);
        let sends = processes[SOURCE].broadcast(payload.clone());
        enqueue(SOURCE, sends, &mut queue);
    }
    loop {
        // Frames about the destination's preferred payload first, then the other frames
        // to processes 0, 2 and 3, and the frames about `m1` to process 1 last of all;
        // oldest first within each rank.
        let rank =
            |to: ProcessId, about: &Option<Payload>| match about.as_ref() == Some(prefers(to)) {
                true => 0,
                false if to == 1 => 2,
                false => 1,
            };
        let Some(next) = (0..queue.len()).min_by_key(|&i| rank(queue[i].1, &queue[i].3)) else {
            break;
        };
        let (from, to, message, _) = queue.remove(next).expect("queued");
        let actions = processes[to].handle_message(from, message);
        enqueue(to, actions, &mut queue);
    }
    let id = BroadcastId::new(SOURCE, 0);
    processes[..SOURCE]
        .iter()
        .map(|p| {
            let mut delivered = p.deliveries().iter().filter(|d| d.id == id);
            let first = delivered.next().map(|d| d.payload.clone());
            assert!(delivered.next().is_none(), "BRB-No duplication");
            first
        })
        .collect()
}

/// BRB-Agreement (and, as the run ends quiescent, totality): the correct processes
/// deliver one payload, or none of them delivers. Returns a description of a violation.
fn disagreement(stack: &str, delivered: &[Option<Payload>]) -> Option<String> {
    if delivered.windows(2).all(|w| w[0] == w[1]) {
        return None;
    }
    let shown: Vec<_> = delivered
        .iter()
        .map(|d| {
            d.as_ref()
                .map(|p| String::from_utf8_lossy(p.as_bytes()).into_owned())
        })
        .collect();
    Some(format!(
        "{stack}: correct processes 0, 1, 2 deliver {shown:?}"
    ))
}

#[test]
fn equivocating_source_cannot_split_bracha() {
    let delivered = run(
        |i| BrachaProcess::new(i, N, F),
        |_, _, message, _| Some(message.payload.clone()),
    );
    assert_eq!(disagreement("bracha", &delivered), None);
}

#[test]
fn equivocating_source_cannot_split_bracha_dolev() {
    let graph = generate::complete(N);
    let mut violations = Vec::new();
    for (name, config) in [
        ("plain", Config::plain(N, F)),
        ("bdopt", Config::bdopt(N, F)),
        ("latency", Config::latency_preset(N, F)),
        ("bandwidth", Config::bandwidth_preset(N, F)),
    ] {
        // Under MBD.1 a frame may name its payload by the sender's link-local id: the
        // scheduler resolves it against the announcements it has seen on that link.
        let payload_of =
            |from, to, message: &WireMessage, announced: &mut Announced| match &message.payload {
                PayloadRef::Inline(payload) => Some(payload.clone()),
                PayloadRef::Announce { local_id, payload } => {
                    announced.insert((from, to, *local_id), payload.clone());
                    Some(payload.clone())
                }
                PayloadRef::Local(local_id) => announced.get(&(from, to, *local_id)).cloned(),
            };
        let delivered = run(
            |i| BdProcess::new(i, config, graph.neighbors_vec(i)),
            payload_of,
        );
        violations.extend(disagreement(&format!("bd {name}"), &delivered));
    }
    assert_eq!(violations, Vec::<String>::new());
}

#[test]
fn equivocating_source_cannot_split_bracha_over_routed_dolev() {
    // The source originates two RC broadcasts: RC integrity holds for each of them, and
    // both carry a Bracha Send with id (3, 0).
    let graph = generate::complete(N);
    let delivered = run(
        |i| BrachaOverRc::new(N, F, RoutedDolev::new(i, F, graph.clone())),
        |_, _, message, _| {
            BrachaMessage::decode_wire(message.payload.as_bytes()).map(|bracha| bracha.payload)
        },
    );
    assert_eq!(disagreement("bracha-routed-dolev", &delivered), None);
}
