//! Per-layer readings that no wrapper can take while the system runs: the logs a traced
//! repetition captured are replayed here, alone on a quiet thread, through the public
//! functions of the layer in question.
//!
//! * `core.codec.*` — the engines' outbound frame log through the stack's codec;
//! * `core.disjoint.*` — the busiest process's received paths through fresh
//!   `DisjointPathTracker`s;
//! * `net.frame.*` — the frame log through `write_frame` / `read_frame_burst` on memory;
//! * `transport.policy.*` — a micro-probe of the decorator tax on a bare channel send.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::time::Instant;

use brb_core::bracha::BrachaMessage;
use brb_core::config::Config;
use brb_core::disjoint::DisjointPathTracker;
use brb_core::stack::{StackSpec, WireCodec};
use brb_core::wire::{encode_batch, split_batch, WireMessage};
use brb_net::frame::{read_frame_burst, write_frame};
use brb_sim::Behavior;
use brb_transport::{build_links, ChannelTransport, FaultyLink, Transport};
use bytes::Bytes;

use crate::trace::{PathRecord, Recorded};

/// Frames per burst of the batch-framing replay.
const BATCH_FRAMES: usize = 8;
/// Passes over the frame log, so that each timed loop runs for milliseconds.
const CODEC_PASSES: usize = 8;
/// Sends per round of the decorator micro-probe, and rounds per variant.
const POLICY_SENDS: usize = 20_000;
const POLICY_ROUNDS: usize = 9;

fn ns_per(started: Instant, operations: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / operations.max(1) as f64
}

/// Replays the frame log through codec `M`.
fn codec<M: WireCodec>(frames: &[(Bytes, usize)], out: &mut BTreeMap<&'static str, f64>) {
    let operations = frames.len() * CODEC_PASSES;
    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        for (frame, _) in frames {
            black_box(M::decode_wire(black_box(frame)));
        }
    }
    out.insert(
        "core.codec.decode_ns_per_frame",
        ns_per(started, operations),
    );

    let messages: Vec<M> = frames
        .iter()
        .filter_map(|(frame, _)| M::decode_wire(frame))
        .collect();
    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        for message in &messages {
            black_box(black_box(message).encode_wire());
        }
    }
    out.insert(
        "core.codec.encode_ns_per_frame",
        ns_per(started, messages.len() * CODEC_PASSES),
    );

    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        for (frame, _) in frames {
            black_box(M::peek_broadcast_id(black_box(frame)));
        }
    }
    out.insert(
        "core.codec.peek_id_ns_per_frame",
        ns_per(started, operations),
    );
}

/// Replays the received paths of one process the way `BdProcess` feeds its trackers:
/// one tracker per Dolev instance, direct receptions recorded as such, MBD.10's
/// superpath filter applied when the configuration has it, and nothing added once the
/// instance reached `f+1` disjoint paths. (The engine's other filters — MBD.6/7, MD.4 —
/// depend on protocol state the log does not carry; the replay keeps those paths.)
fn disjoint(paths: &[PathRecord], config: &Config, out: &mut BTreeMap<&'static str, f64>) {
    let mut trackers: BTreeMap<_, DisjointPathTracker> = BTreeMap::new();
    let threshold = config.dolev_threshold();
    let (mut added, mut add_ns) = (0usize, 0u128);
    let (mut paths_peak, mut combinations_peak) = (0usize, 0usize);
    for record in paths {
        let tracker = trackers.entry(record.instance).or_insert_with(|| {
            DisjointPathTracker::with_max_combinations(config.max_path_combinations)
        });
        if tracker.reaches(threshold) {
            continue;
        }
        if record.direct {
            tracker.record_direct();
            continue;
        }
        if config.mbd.mbd10 && tracker.has_subpath_of(&record.path) {
            continue;
        }
        let path = record.path.clone();
        let started = Instant::now();
        black_box(tracker.add_path(path, record.via));
        add_ns += started.elapsed().as_nanos();
        added += 1;
        paths_peak = paths_peak.max(tracker.path_count());
        combinations_peak = combinations_peak.max(tracker.combination_count());
    }
    out.insert(
        "core.disjoint.add_path_ns",
        add_ns as f64 / added.max(1) as f64,
    );
    out.insert("core.disjoint.paths_per_instance_peak", paths_peak as f64);
    out.insert("core.disjoint.combinations_peak", combinations_peak as f64);
}

/// `write_frame` into memory, then `read_frame_burst` back out of it.
fn net_frames(frames: &[(Bytes, usize)], out: &mut BTreeMap<&'static str, f64>) {
    let mut wire: Vec<u8> = Vec::new();
    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        wire.clear();
        for (frame, _) in frames {
            write_frame(&mut wire, frame).expect("writing to memory cannot fail");
        }
    }
    out.insert(
        "net.frame.write_ns_per_frame",
        ns_per(started, frames.len() * CODEC_PASSES),
    );

    let started = Instant::now();
    let mut read = 0usize;
    for _ in 0..CODEC_PASSES {
        let mut reader = BufReader::new(wire.as_slice());
        while let Ok(burst) = read_frame_burst(&mut reader) {
            read += black_box(burst).len();
        }
    }
    out.insert("net.frame.read_ns_per_frame", ns_per(started, read));
}

/// The decorator tax: a `FaultyLink` that drops nothing, minus the bare transport. The
/// two take turns, and each reports its median round, so that neither a cold start nor
/// a noisy moment lands on one side only.
fn policy_probe(out: &mut BTreeMap<&'static str, f64>) {
    let frame = Bytes::from(vec![0xA5u8; 64]);
    let link = || {
        let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
        let sink = mailboxes.pop().expect("two mailboxes");
        let source = mailboxes.pop().expect("two mailboxes");
        (ChannelTransport::new(source, senders.swap_remove(0)), sink)
    };
    let (mut bare, bare_sink) = link();
    let (inner, decorated_sink) = link();
    let mut decorated = FaultyLink::new(inner, Behavior::SilentTowards(Vec::new()), 1);
    let round = |transport: &mut dyn Transport, sink: &brb_transport::Mailbox| {
        let started = Instant::now();
        for _ in 0..POLICY_SENDS {
            black_box(transport.send(1, black_box(&frame), 64));
        }
        let ns = ns_per(started, POLICY_SENDS);
        while sink.receiver().try_recv().is_ok() {}
        ns
    };
    let (mut bare_ns, mut decorated_ns) = (Vec::new(), Vec::new());
    for _ in 0..POLICY_ROUNDS {
        bare_ns.push(round(&mut bare, &bare_sink));
        decorated_ns.push(round(&mut decorated, &decorated_sink));
    }
    out.insert(
        "transport.policy.passthrough_ns_per_send",
        crate::stats::median(&decorated_ns) - crate::stats::median(&bare_ns),
    );
}

/// Every replayed reading of one traced repetition.
pub fn replay(
    recorded: &Recorded,
    stack: StackSpec,
    config: &Config,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let frames: Vec<(Bytes, usize)> = recorded
        .engines
        .iter()
        .flat_map(|e| e.frames.iter().cloned())
        .collect();
    if !frames.is_empty() {
        match stack {
            StackSpec::Bracha => codec::<BrachaMessage>(&frames, &mut out),
            _ => codec::<WireMessage>(&frames, &mut out),
        }
        let bytes: usize = frames.iter().map(|(frame, _)| frame.len()).sum();
        let wire_sizes: usize = frames.iter().map(|(_, wire_size)| wire_size).sum();
        out.insert(
            "core.codec.frame_bytes_mean",
            bytes as f64 / frames.len() as f64,
        );
        out.insert(
            "core.codec.overhead_bytes_per_frame",
            (bytes as f64 - wire_sizes as f64) / frames.len() as f64,
        );
        let bursts: Vec<Vec<Bytes>> = frames
            .chunks(BATCH_FRAMES)
            .map(|chunk| chunk.iter().map(|(frame, _)| frame.clone()).collect())
            .collect();
        let started = Instant::now();
        for _ in 0..CODEC_PASSES {
            for burst in &bursts {
                black_box(split_batch(&encode_batch(black_box(burst))));
            }
        }
        out.insert(
            "core.codec.batch_split_ns_per_frame",
            ns_per(started, frames.len() * CODEC_PASSES),
        );
        net_frames(&frames, &mut out);
    }
    if let Some(busiest) = recorded.busiest_path_logger() {
        disjoint(&busiest.paths, config, &mut out);
    }
    policy_probe(&mut out);
    out
}
