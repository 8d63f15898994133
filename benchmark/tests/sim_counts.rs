//! A small simulated workload on both engine paths: its counts repeat exactly and match
//! between the untraced and the traced pass. (Apart from the live workloads' test: both
//! read the CPU clock of the whole test process.)

use std::sync::Arc;
use std::time::Duration;

use brb_benchmark::seeds::Seeds;
use brb_benchmark::trace::TraceHub;
use brb_benchmark::workloads::sim::{self, SimLoad, SimSpec};
use brb_benchmark::workloads::RepRequest;
use brb_core::config::Config;

/// A simulated workload small enough for a test: the Fig. 1 size on a 4-regular graph.
fn small(typed: bool) -> SimSpec {
    SimSpec {
        n: 10,
        k: 4,
        f: 1,
        config: || Config::bdopt_mbd1(10, 1),
        payload_bytes: 32,
        typed,
        load: SimLoad::PoissonZipf {
            mean_interval_micros: 10_000,
            broadcasts: 6,
        },
        historical_seeds: Seeds::historical(5, 7),
        known: None,
    }
}

#[test]
fn simulated_counts_repeat_exactly_and_match_between_the_passes() {
    for typed in [true, false] {
        let spec = small(typed);
        let seeds = Seeds::derive(11);
        let run = |hub: Option<Arc<TraceHub>>| {
            let request = RepRequest {
                seeds: &seeds,
                phase: Duration::ZERO,
                hub,
            };
            sim::repetition(&spec, &request).expect("the small workload runs")
        };
        let (first, second, traced) = (run(None), run(None), run(Some(Arc::new(TraceHub::new()))));
        let exact = |rep: &brb_benchmark::workloads::Rep| {
            (
                rep.attempted,
                rep.completed,
                rep.bytes,
                rep.messages,
                rep.layers["sim.peak_state_bytes"].to_bits(),
                rep.layers["sim.virtual_latency_p50_ms"].to_bits(),
            )
        };
        assert_eq!(
            exact(&first),
            exact(&second),
            "the same seed gives the same run"
        );
        assert_eq!(
            exact(&first),
            exact(&traced),
            "tracing does not change the run"
        );
        assert_eq!((first.attempted, first.completed), (6, 6));

        let recorded = traced
            .recorded
            .as_ref()
            .expect("a traced repetition keeps its recording");
        assert_eq!(recorded.engine_total().handle.calls, traced.messages);
        assert!(traced.layers["sim.self_s"] > 0.0 && traced.layers["core.engine.busy_s"] > 0.0);
        assert!(
            recorded.spans.iter().any(|s| s.parent == 0),
            "synthesised root spans"
        );
        let other = sim::repetition(
            &spec,
            &RepRequest {
                seeds: &Seeds::derive(12),
                phase: Duration::ZERO,
                hub: None,
            },
        )
        .expect("another seed runs too");
        assert_ne!(
            exact(&first),
            exact(&other),
            "another seed gives another run"
        );
    }
}
