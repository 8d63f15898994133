//! Host-independent guard on the live hand-off path: what a delivered broadcast costs in
//! heap allocations on both live backends, and how many frames a TCP link's reader hands
//! its node per channel message.
//!
//! `tests/alloc_budget.rs` counts the simulator, where one thread does everything and a
//! count repeats exactly. A live deployment spreads a broadcast over node threads, link
//! reader threads and the workload driver, and how frames group into batches depends on
//! timing, so this suite counts with a process-wide atomic counting allocator and checks
//! each count against a bound instead of pinning it:
//!
//! * a ceiling on allocations per delivered broadcast, and a floor on frames per
//!   transport send, for closed-loop `bd` on the paper's Fig. 1 topology over channels
//!   and over loopback TCP;
//! * a floor on frames per channel message for bursts written through
//!   `TcpTransport::send_batch` into a link reader's mailbox. A reader that forwards
//!   frame by frame makes exactly one frame per message and fails it.
//!
//! The bounds, and the counts they were chosen from, are in CHANGES.md. Like
//! `alloc_budget`, these are counts made by the program: they say nothing about speed on
//! their own, they catch per-frame allocations and per-frame hand-offs coming back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::ProcessId;
use brb_core::wire::split_batch;
use brb_graph::generate;
use brb_net::{Wiring, BACKENDS};
use brb_runtime::{Deployment, DriverOptions, Pacing};
use brb_transport::{Frame, OutFrame, SendReceipt, Transport};
use brb_workload::WorkloadSpec;
use bytes::Bytes;
use crossbeam::channel::Receiver;

/// Allocations made by every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed increment of a static atomic,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with this `layout`;
        // the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The counter is process-wide: the cases take turns so that none counts another's work.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Closed-loop broadcasts in each live run.
const BROADCASTS: u32 = 400;

/// Ceiling on allocations per delivered broadcast, on either backend: about 1 750 are
/// made (2.4 per frame sent, where the simulator's codec path in `alloc_budget` makes
/// 2.07 per handled frame), about 2 190 over channels and 2 720-2 810 over TCP before a
/// link's reader handed a read's frames over as one message and a `Bytes` became one
/// heap block; a TCP reader that forwards frame by frame makes about 2 530.
const ALLOCATIONS_PER_BROADCAST_CEILING: f64 = 2_000.0;

/// Floor on frames per `Transport::send_batch` call of the node drivers, on either
/// backend: about 21 are sent per call; a driver that sent frame by frame would make
/// exactly 1.0.
const FRAMES_PER_SEND_FLOOR: f64 = 5.0;

/// Counts the `send_batch` calls a node driver makes, and the frames they carry.
struct Counted {
    inner: Box<dyn Transport>,
    sends: Arc<AtomicU64>,
    frames: Arc<AtomicU64>,
}

impl Transport for Counted {
    fn inbound(&self) -> &Receiver<Frame> {
        self.inner.inbound()
    }

    fn peers(&self) -> Vec<ProcessId> {
        self.inner.peers()
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.frames
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        self.inner.send_batch(to, frames)
    }
}

/// The benchmark's `*_bd_fig1_64b_closed8` scenario on `backend`: `bd` with the
/// `bdopt_mbd1` configuration on the paper's Fig. 1 graph (N = 10, f = 1), 64 B payloads,
/// a closed loop of 8. Checks the allocations made while the workload ran (set-up and
/// shutdown excluded) per broadcast every process delivered, and the frames per
/// transport send.
fn check_live_run(name: &str, backend: Wiring) {
    let _turn = serial();
    let graph = generate::figure1_example();
    let mut links = backend(&graph, &[]).expect("links wire");
    let correct: Vec<ProcessId> = links.running();
    let (sends, frames) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    for transport in &mut links.transports {
        *transport = transport.take().map(|inner| {
            Box::new(Counted {
                inner,
                sends: sends.clone(),
                frames: frames.clone(),
            }) as Box<dyn Transport>
        });
    }
    let deployment = Deployment::start_on(
        links,
        &graph,
        Config::bdopt_mbd1(10, 1),
        StackSpec::Bd,
        DriverOptions::default(),
    );
    let spec = WorkloadSpec::constant_rate(1_000, BROADCASTS)
        .with_payload_bytes(64)
        .closed_loop(8);
    let schedule = spec.schedule(graph.node_count(), 7);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = deployment.run_workload(
        &schedule,
        spec.mode,
        Pacing::Unpaced,
        &correct,
        Duration::from_secs(30),
    );
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let report = deployment.shutdown();
    assert!(run.all_completed(), "{name}: {run:?}");
    assert!(
        report.all_delivered(&correct, BROADCASTS as usize),
        "{name}"
    );

    let broadcasts = run.completed as f64;
    let per_broadcast = allocations as f64 / broadcasts;
    let sends = sends.load(Ordering::Relaxed);
    let frames = frames.load(Ordering::Relaxed);
    let frames_per_send = frames as f64 / sends as f64;
    println!(
        "{name}: {allocations} allocations / {} broadcasts = {per_broadcast:.1} per broadcast; \
         {:.1} sends and {:.1} frames per broadcast = {frames_per_send:.2} frames per send",
        run.completed,
        sends as f64 / broadcasts,
        frames as f64 / broadcasts,
    );
    assert!(
        per_broadcast <= ALLOCATIONS_PER_BROADCAST_CEILING,
        "{name}: {per_broadcast:.1} allocations per delivered broadcast exceed \
         {ALLOCATIONS_PER_BROADCAST_CEILING}"
    );
    assert!(
        frames_per_send >= FRAMES_PER_SEND_FLOOR,
        "{name}: {frames_per_send:.2} frames per transport send, below the floor of \
         {FRAMES_PER_SEND_FLOOR}"
    );
}

#[test]
fn channel_run_stays_within_allocation_and_batching_bounds() {
    check_live_run("channel bd fig1 64B closed8", BACKENDS[0].1);
}

#[test]
fn tcp_run_stays_within_allocation_and_batching_bounds() {
    check_live_run("tcp bd fig1 64B closed8", BACKENDS[1].1);
}

/// Bursts written in the reader case, and frames per burst.
const BURSTS: usize = 200;
const BURST_FRAMES: usize = 16;

/// Floor on frames per channel message out of a TCP link reader fed 16-frame bursts one
/// at a time: well under 16, so that reads which split a burst do not trip it, and far
/// above the 1.0 of a reader that forwards frame by frame.
const FRAMES_PER_MESSAGE_FLOOR: f64 = 4.0;

/// Ceiling on allocations per burst in the reader case: the reader's one copy of the
/// burst and this test's `split_batch` vector, with room for a burst split in two.
const ALLOCATIONS_PER_BURST_CEILING: f64 = 4.0;

#[test]
fn tcp_reader_hands_each_burst_over_in_one_channel_message() {
    let _turn = serial();
    let graph = generate::complete(2);
    let mut links = brb_net::tcp_links(&graph, &[]).expect("links wire");
    let receiver = links.transports.pop().flatten().expect("node 1 runs");
    let mut sender = links.transports.pop().flatten().expect("node 0 runs");

    let bursts: Vec<Vec<OutFrame>> = (0..BURSTS)
        .map(|b| {
            (0..BURST_FRAMES)
                .map(|i| OutFrame::new(Bytes::from(vec![b as u8; 40 + i]), 40 + i))
                .collect()
        })
        .collect();
    let mut received = Vec::with_capacity(BURSTS * BURST_FRAMES);
    let mut messages = 0usize;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for burst in &bursts {
        // One burst at a time, as a node's dispatch writes them: the next is written
        // once this one has arrived, so what the reader forwards per read is a burst.
        sender.send_batch(1, burst);
        let target = received.len() + burst.len();
        while received.len() < target {
            let message = receiver
                .inbound()
                .recv_timeout(Duration::from_secs(5))
                .expect("every burst arrives");
            messages += 1;
            if message.batch {
                received.extend(split_batch(&message.bytes).expect("valid batch framing"));
            } else {
                received.push(message.bytes);
            }
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let sent: Vec<&Bytes> = bursts.iter().flatten().map(|f| &f.frame).collect();
    assert_eq!(
        received.iter().collect::<Vec<_>>(),
        sent,
        "the same frames, in order"
    );
    let frames_per_message = sent.len() as f64 / messages as f64;
    let per_burst = allocations as f64 / BURSTS as f64;
    println!(
        "tcp reader: {BURSTS} bursts of {BURST_FRAMES} frames -> {messages} channel messages \
         = {frames_per_message:.2} frames per message; {allocations} allocations = \
         {per_burst:.2} per burst"
    );
    assert!(
        frames_per_message >= FRAMES_PER_MESSAGE_FLOOR,
        "{frames_per_message:.2} frames per channel message, below the floor of {FRAMES_PER_MESSAGE_FLOOR}"
    );
    assert!(
        per_burst <= ALLOCATIONS_PER_BURST_CEILING,
        "{per_burst:.2} allocations per burst exceed {ALLOCATIONS_PER_BURST_CEILING}"
    );
    drop((sender, receiver));
    (links.close)();
}
