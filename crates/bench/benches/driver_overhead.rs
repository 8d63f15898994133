//! Criterion microbenchmark of the unified `brb_transport::NodeDriver` hot path.
//!
//! PR 5 replaced the two per-backend node loops (`brb-runtime` / `brb-net`, each with
//! its own `select!` + dispatch code) with one transport-generic driver plus decorator
//! layers. These benches quantify what that indirection costs on the channel backend:
//!
//! * `transport_channel_send_1k` — the raw `ChannelTransport` one-frame `send_batch`
//!   path (the floor);
//! * `transport_decorated_send_1k` — the same sends through a `FaultyLink` decorator
//!   whose behavior passes everything (the per-frame decorator tax);
//! * `driver_broadcast_fig1_channel` — a full ten-node deployment broadcast through
//!   `Deployment::start` → `NodeDriver::run`, end to end (spawn, select loop, dispatch,
//!   shutdown) — directly comparable to the PR-4 node loop, which this same scenario
//!   used to run through `brb-runtime`'s own loop.
//!
//! Guard: the simulator hot loop is untouched by the driver refactor, so
//! `engine_quiescence_n100_k12` (in `engine_step.rs`) must not regress beyond noise.

use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::{Payload, ProcessId};
use brb_graph::generate;
use brb_runtime::{Deployment, DriverOptions};
use brb_sim::Behavior;
use brb_transport::{build_links, ChannelTransport, FaultyLink, OutFrame, Transport};
use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// One directed channel link; returns the sender-side transport and the peer's
/// transport (kept alive so sends succeed).
fn link_pair() -> (ChannelTransport, ChannelTransport) {
    let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
    let receiver = ChannelTransport::new(mailboxes.pop().unwrap(), senders.pop().unwrap());
    let sender = ChannelTransport::new(mailboxes.pop().unwrap(), senders.pop().unwrap());
    (sender, receiver)
}

fn drain(receiver: &ChannelTransport, expected: usize) {
    for _ in 0..expected {
        let _ = receiver.inbound().recv();
    }
}

fn bench_transport_send(c: &mut Criterion) {
    let frame = [OutFrame::new(Bytes::from_static(&[0u8; 128]), 128)];
    c.bench_function("transport_channel_send_1k", |b| {
        let (mut sender, receiver) = link_pair();
        b.iter(|| {
            for _ in 0..1_000 {
                black_box(sender.send_batch(1, &frame));
            }
            drain(&receiver, 1_000);
        })
    });
    c.bench_function("transport_decorated_send_1k", |b| {
        let (sender, receiver) = link_pair();
        // SilentTowards with no victims: a Byzantine decorator that passes every frame,
        // isolating the per-frame cost of the decorator layer itself.
        let mut sender = FaultyLink::new(sender, Behavior::SilentTowards(Vec::new()), 1);
        b.iter(|| {
            for _ in 0..1_000 {
                black_box(sender.send_batch(1, &frame));
            }
            drain(&receiver, 1_000);
        })
    });
}

fn bench_driver_broadcast(c: &mut Criterion) {
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(10, 1);
    let everyone: Vec<ProcessId> = (0..10).collect();
    let options = DriverOptions {
        idle_shutdown: Duration::from_millis(50),
        ..DriverOptions::default()
    };
    c.bench_function("driver_broadcast_fig1_channel", |b| {
        b.iter(|| {
            let deployment = Deployment::start(&graph, config, StackSpec::Bd, options.clone(), &[]);
            deployment.broadcast(0, Payload::filled(0xAB, 256));
            deployment.await_deliveries(10, Duration::from_secs(10));
            let report = deployment.shutdown();
            assert!(report.all_delivered(&everyone, 1));
            black_box(report.total_messages())
        })
    });
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_transport_send, bench_driver_broadcast
}
criterion_main!(benches);
