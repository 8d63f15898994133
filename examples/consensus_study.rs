//! Consensus over BRB, on every backend: one seeded binary Byzantine consensus
//! instance (`brb-consensus`) runs on the deterministic simulator, the
//! thread-per-process channel runtime, and real TCP sockets over loopback — and the
//! three backends decide the *same value in the same round* on every process, because
//! each phase (propose, `CloseBv(r)`, `CloseRound(r)`) closes over a global BRB
//! fixpoint regardless of how the round messages physically travel.
//!
//! The scenario is adversarial on purpose: split proposals (half propose 0, half 1)
//! plus one consensus-level Byzantine value-flipper that inverts its EST/AUX votes.
//! The flipper is BRB-honest below, so only the consensus layer's `n - f` quorums and
//! bin-values validation defeat it.
//!
//! Run with: `cargo run --release --example consensus_study`

use std::time::Duration;

use brb_consensus::checks::{check_agreement, check_termination, check_validity};
use brb_consensus::{ConsensusSpec, Decision, ProposalPattern};
use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::stack::StackSpec;
use brb_net::BACKENDS;
use brb_sim::experiment::experiment_graph;
use brb_sim::{build_consensus_sim, honest_decisions, run_consensus, ExperimentParams};
use brb_transport::DriverOptions;

fn main() -> std::io::Result<()> {
    let (n, k, f) = (14usize, 5usize, 2usize);
    let stack = StackSpec::Bd;
    let spec = ConsensusSpec::default()
        .with_proposals(ProposalPattern::Split)
        .with_flippers(vec![n - 2]);
    let config = Config::bdopt_mbd1(n, f).with_gc(GcPolicy::after_events(64));
    let graph = experiment_graph(n, k, 4_242);

    println!("Binary consensus over BRB — stack={stack}, N={n}, k={k}, f={f}");
    println!("split proposals, process {} flips its votes", n - 2);
    println!();
    println!("backend    decided   value   round");
    println!("----------------------------------------------------");

    // Simulator: phase-stepped at virtual time, the reference schedule.
    let params = ExperimentParams::new(n, k, f, config)
        .with_stack(stack)
        .with_consensus(spec.clone());
    let (mut sim, handles) = build_consensus_sim(&params, &graph, &spec);
    let stats = run_consensus(&mut sim, &spec, &handles);
    let honest = brb_sim::honest_processes(&sim.correct_processes(), &spec);
    let sim_decisions = honest_decisions(&handles, &honest);
    print_row("simulator", stats.decided, stats.honest, &sim_decisions);
    verify(&spec, &sim_decisions);
    let reference = sim_decisions[0].1.expect("simulator decided");

    // Channel runtime and TCP: real threads over crossbeam links or loopback sockets,
    // wall-clock quiescence grace.
    let options = DriverOptions::default().with_gc(GcPolicy::after_events(64));
    for (backend, wire) in BACKENDS {
        let (_, run) = brb_runtime::run_consensus(
            wire(&graph, &[])?,
            &graph,
            config,
            stack,
            &spec,
            f,
            options.clone(),
            Duration::from_secs(120),
        );
        print_row(
            backend,
            decided_count(&run.decisions),
            honest.len(),
            &run.decisions,
        );
        verify(&spec, &run.decisions);
        assert_lockstep(backend, reference, &run.decisions);
    }

    println!();
    println!(
        "# all three backends decided value {} in round {} on every honest process",
        reference.value, reference.round
    );
    Ok(())
}

fn decided_count(decisions: &[(usize, Option<Decision>)]) -> usize {
    decisions.iter().filter(|(_, d)| d.is_some()).count()
}

fn print_row(
    backend: &str,
    decided: usize,
    honest: usize,
    decisions: &[(usize, Option<Decision>)],
) {
    let d = decisions.first().and_then(|&(_, d)| d);
    println!(
        "{backend:<10} {decided:>3}/{honest:<3}  {:>5}   {:>5}   (per-process lockstep)",
        d.map_or("-".to_string(), |d| d.value.to_string()),
        d.map_or("-".to_string(), |d| d.round.to_string()),
    );
}

fn verify(spec: &ConsensusSpec, decisions: &[(usize, Option<Decision>)]) {
    check_agreement(decisions).unwrap();
    check_validity(spec, decisions).unwrap();
    check_termination(decisions).unwrap();
}

fn assert_lockstep(backend: &str, reference: Decision, decisions: &[(usize, Option<Decision>)]) {
    for &(p, d) in decisions {
        assert_eq!(
            d,
            Some(reference),
            "{backend}: process {p} diverged from the simulator's decision"
        );
    }
}
