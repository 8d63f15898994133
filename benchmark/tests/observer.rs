//! Observer effect: a run through the `Timed*` wrappers must be the run without them.

use std::sync::Arc;
use std::time::Duration;

use brb_benchmark::timed::{TimedBd, TimedEngine, TimedTransport};
use brb_benchmark::trace::TraceHub;
use brb_core::bd::BdProcess;
use brb_core::config::Config;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::types::Payload;
use brb_graph::{generate, NeighborIndex};
use brb_sim::{run_workload, DelayModel, Simulation};
use brb_transport::{build_links, ChannelTransport, Command, DriverOptions, NodeDriver};
use brb_workload::WorkloadSpec;
use crossbeam::channel::unbounded;

fn typed_engines() -> Vec<BdProcess> {
    let graph = generate::figure1_example();
    let index = NeighborIndex::new(&graph);
    let config = Config::bdopt_mbd1(10, 1);
    (0..graph.node_count())
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect()
}

fn dyn_engines(hub: Option<&Arc<TraceHub>>) -> Vec<DynStack> {
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(10, 1);
    (0..graph.node_count())
        .map(|i| {
            let engine = StackSpec::Bd.build(&config, &graph, i);
            DynStack::new(match hub {
                // CPU sampling on, to show that reading the clocks changes nothing either.
                Some(hub) => Box::new(TimedEngine::new(engine, Arc::clone(hub), true, true)),
                None => engine,
            })
        })
        .collect()
}

/// Asynchronous delays, so that the simulation's RNG stream matters too.
fn canonical<P: brb_core::Protocol>(engines: Vec<P>) -> (String, usize)
where
    P::Message: Eq,
{
    let spec = WorkloadSpec::poisson(10_000, 12).with_payload_bytes(48);
    let schedule = spec.schedule(10, 21);
    let mut sim = Simulation::new(engines, DelayModel::asynchronous(), 9);
    run_workload(&mut sim, &schedule, spec.mode);
    let metrics = sim.into_metrics();
    (metrics.canonical_text(), metrics.messages_sent)
}

#[test]
fn the_typed_wrapper_leaves_the_simulation_byte_identical() {
    let (plain, messages) = canonical(typed_engines());
    let hub = Arc::new(TraceHub::new());
    let wrapped: Vec<TimedBd> = typed_engines()
        .into_iter()
        .map(|engine| TimedBd::new(engine, Arc::clone(&hub)))
        .collect();
    let (timed, _) = canonical(wrapped);
    assert_eq!(plain, timed);

    let recorded = hub.take();
    let engine = recorded.engine_total();
    assert_eq!(
        engine.handle.calls as usize, messages,
        "every message sent is handled once"
    );
    assert_eq!(engine.broadcast.calls, 12);
    assert!(engine.handle.wall_ns > 0 && engine.probe_ns > 0);
    assert_eq!(
        engine.handle.cpu_samples, 0,
        "no CPU clock reads inside the simulator"
    );
    assert_eq!(recorded.engines.len(), 10);
    // Sources are round-robin, so broadcasts (0,0) .. (9,0) are the sampled ones.
    assert!(recorded
        .spans
        .iter()
        .any(|s| s.name == "core.engine.broadcast"));
    assert!(recorded.spans.iter().all(|s| s.request.1 % 64 == 0));
    let logger = recorded
        .busiest_path_logger()
        .expect("processes 1 and 9 log paths");
    assert!(logger.node == 1 || logger.node == 9);
}

#[test]
fn the_boxed_wrapper_leaves_the_simulation_byte_identical() {
    let (plain, messages) = canonical(dyn_engines(None));
    let hub = Arc::new(TraceHub::new());
    let (timed, _) = canonical(dyn_engines(Some(&hub)));
    assert_eq!(plain, timed);

    let recorded = hub.take();
    let engine = recorded.engine_total();
    assert_eq!(engine.handle.calls as usize, messages);
    assert!(
        engine.handle.cpu_samples > 0,
        "one call in 256 has its CPU time read"
    );
    assert!(
        recorded.engines.iter().all(|e| !e.frames.is_empty()),
        "frames are logged for the codec replay"
    );
}

#[test]
fn wrapped_nodes_deliver_and_count_what_the_driver_reports() {
    let graph = generate::complete(4);
    let config = Config::plain(4, 1);
    let options = DriverOptions {
        idle_shutdown: Duration::from_millis(50),
        ..DriverOptions::default()
    };
    let hub = Arc::new(TraceHub::new());
    let (mailboxes, senders) = build_links(4, &graph.edges());
    let (delivery_tx, delivery_rx) = unbounded();
    let mut commands = Vec::new();
    let mut handles = Vec::new();
    for (id, (mailbox, links)) in mailboxes.into_iter().zip(senders).enumerate() {
        let (command_tx, command_rx) = unbounded();
        commands.push(command_tx);
        let engine = TimedEngine::new(
            StackSpec::Bracha.build(&config, &graph, id),
            Arc::clone(&hub),
            false,
            true,
        );
        let transport = TimedTransport::new(
            ChannelTransport::new(mailbox, links),
            "transport.channel.send",
            id,
            Arc::clone(&hub),
        );
        let driver = NodeDriver::new(
            Box::new(engine),
            Box::new(transport),
            command_rx,
            delivery_tx.clone(),
            &options,
        );
        handles.push(std::thread::spawn(move || driver.run()));
    }
    commands[0]
        .send(Command::Broadcast(Payload::from("observed")))
        .unwrap();
    for _ in 0..4 {
        delivery_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("every node delivers");
    }
    for command in &commands {
        let _ = command.send(Command::Shutdown);
    }
    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread"))
        .collect();
    let sent: usize = reports.iter().map(|r| r.messages_sent).sum();
    assert!(reports.iter().all(|r| r.deliveries.len() == 1));

    let recorded = hub.take();
    assert_eq!(
        recorded.sends.frames as usize, sent,
        "the wrapper saw every frame the driver counted"
    );
    assert_eq!(recorded.engine_total().broadcast.calls, 1);
    // Broadcast (0, 0) is a sampled one: its sends are children of engine spans.
    let sends: Vec<_> = recorded
        .spans
        .iter()
        .filter(|s| s.name == "transport.channel.send")
        .collect();
    assert!(!sends.is_empty());
    for send in sends {
        assert!(recorded
            .spans
            .iter()
            .any(|parent| parent.id == send.parent && parent.name.starts_with("core.engine.")));
    }
}
