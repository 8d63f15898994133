//! The registry of every metric the benchmark reports: name, unit, layer, direction and,
//! for end-to-end metrics, the bound by which it may worsen before a change counts as a
//! regression. `BENCHMARK.json` at the repository root lists the same metrics;
//! `tests/contract.rs` keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as keyed in result files.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Layer the metric belongs to (`end_to_end` or a crate/module name).
    pub layer: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
    /// What the metric measures, in one line (`list` prints it).
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer: "end_to_end",
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the system sees. Every workload reports every
/// one of them, from untraced repetitions only. The bounds come from the run-to-run spread
/// measured on the reference host (see the README's spread table).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "topology + precondition check + engines + links/sockets + spawn, until the first injection can be sent"),
    e2e("broadcasts_per_s", "1/s", Higher, 0.25,
        "completed broadcasts / wall time of the measured phase"),
    e2e("cpu_ms_per_broadcast", "ms", Lower, 0.25,
        "process user+sys CPU of the measured phase / completed broadcasts"),
    e2e("latency_p50_ms", "ms", Lower, 0.25,
        "live: due (open loop) or injection (closed loop) instant to delivery at every correct process; sim: wall time of one repetition to quiescence"),
    e2e("bytes_per_broadcast", "B", Lower, 0.10,
        "Table 3 bytes put on the links / completed broadcasts"),
    e2e("messages_per_broadcast", "count", Lower, 0.10,
        "frames put on the links / completed broadcasts"),
];

/// The per-layer metrics, from the traced repetitions. Layers are crate/module names.
/// A metric whose layer does no work on a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph", "graph.generate_ms", "ms", Lower, "topology generation"),
    layer("graph", "graph.connectivity_check_ms", "ms", Lower, "is_k_connected(g, 2f+1), the topology precondition"),
    layer("workload", "workload.schedule_ms", "ms", Lower, "expanding the seed into the injection schedule / payloads"),
    layer("workload", "workload.generator_lag_p50_ms", "ms", Lower, "median lateness of an injection against its due instant (open loop)"),
    layer("workload", "workload.generator_lag_max_ms", "ms", Lower, "worst lateness of an injection against its due instant (open loop)"),
    layer("workload", "workload.achieved_rate_per_s", "1/s", Higher, "injections / time from first to last injection"),
    layer("core.engine", "core.engine.calls", "count", Lower, "handle_message_into / handle_frame calls"),
    layer("core.engine", "core.engine.busy_s", "s", Lower, "wall time inside engine handle and broadcast calls (on live workloads it includes waits of a thread descheduled inside a call)"),
    layer("core.engine", "core.engine.cpu_s", "s", Lower, "CPU time of those calls: on live workloads from the thread CPU clock read around one call in 256; inside the simulator equal to busy_s"),
    layer("core.engine", "core.engine.ns_per_call", "ns", Lower, "mean CPU time of a handle call"),
    layer("core.engine", "core.engine.actions_per_call", "count", Lower, "actions emitted per handle call"),
    layer("core.engine", "core.engine.useful_ratio", "ratio", Higher, "handle calls that emit >= 1 action / handle calls"),
    layer("core.engine", "core.engine.broadcast_ns", "ns", Lower, "mean CPU time of a broadcast entry call"),
    layer("core.engine", "core.engine.probe_s", "s", Lower, "time inside state_bytes/stored_paths calls the host makes"),
    layer("core.engine", "core.engine.stored_paths_peak", "count", Lower, "peak stored paths of one process (sampled every 256 calls)"),
    layer("core.engine", "core.engine.state_bytes_end", "B", Lower, "protocol state bytes over all processes at the end"),
    layer("core.disjoint", "core.disjoint.add_path_ns", "ns", Lower, "replay of the busiest process's path log: time per DisjointPathTracker::add_path"),
    layer("core.disjoint", "core.disjoint.paths_per_instance_peak", "count", Lower, "replay: most paths stored by one Dolev instance"),
    layer("core.disjoint", "core.disjoint.combinations_peak", "count", Lower, "replay: most memoized combinations of one Dolev instance"),
    layer("core.codec", "core.codec.encode_ns_per_frame", "ns", Lower, "replay of the frame log: encode"),
    layer("core.codec", "core.codec.decode_ns_per_frame", "ns", Lower, "replay of the frame log: decode"),
    layer("core.codec", "core.codec.peek_id_ns_per_frame", "ns", Lower, "replay of the frame log: peek_broadcast_id"),
    layer("core.codec", "core.codec.frame_bytes_mean", "B", Lower, "mean encoded frame length"),
    layer("core.codec", "core.codec.overhead_bytes_per_frame", "B", Lower, "encoded length - Table 3 wire_size"),
    layer("core.codec", "core.codec.batch_split_ns_per_frame", "ns", Lower, "replay: encode_batch + split_batch of 8-frame bursts"),
    layer("core.gc", "core.gc.retired", "count", Higher, "broadcast instances retired by watermark GC"),
    layer("core.gc", "core.gc.retained_state_bytes", "B", Lower, "state bytes still held by all processes at the end"),
    layer("sim", "sim.events", "count", Lower, "events the simulator processed"),
    layer("sim", "sim.self_s", "s", Lower, "measured wall - engine busy - engine probes"),
    layer("sim", "sim.ns_per_event", "ns", Lower, "sim self time per event"),
    layer("sim", "sim.events_per_s", "1/s", Higher, "events / measured wall"),
    layer("sim", "sim.virtual_latency_p50_ms", "virt_ms", Lower, "virtual clock: injection to delivery at every correct process (the paper's latency axis; exact)"),
    layer("sim", "sim.peak_state_bytes", "B", Lower, "RunMetrics::peak_state_bytes, the Sec. 7.3 proxy (exact)"),
    layer("transport.driver", "transport.driver.thread_cpu_s", "s", Lower, "CPU of the node threads"),
    layer("transport.driver", "transport.driver.runq_wait_s", "s", Lower, "time node threads were runnable but waited for a core"),
    layer("transport.driver", "transport.driver.self_s", "s", Lower, "CPU of the node threads between engine and send calls (sampled like them): NodeDriver's own loop"),
    layer("transport.driver", "transport.driver.self_ns_per_frame", "ns", Lower, "driver self time per frame handled"),
    layer("transport.channel", "transport.channel.sends", "count", Lower, "send/send_batch calls on ChannelTransport"),
    layer("transport.channel", "transport.channel.send_busy_s", "s", Lower, "wall time inside those calls (includes waits of a thread descheduled inside one)"),
    layer("transport.channel", "transport.channel.send_cpu_s", "s", Lower, "CPU time of those calls (sampled estimate)"),
    layer("transport.channel", "transport.channel.ns_per_send", "ns", Lower, "mean CPU time per call (sampled)"),
    layer("transport.channel", "transport.channel.frames_per_op", "count", Higher, "frames per call"),
    layer("transport.policy", "transport.policy.passthrough_ns_per_send", "ns", Lower, "micro-probe: FaultyLink(SilentTowards([])) send - bare ChannelTransport send"),
    layer("net.tcp", "net.tcp.connect_mesh_ms", "ms", Lower, "bind_endpoints + connect_mesh"),
    layer("net.tcp", "net.tcp.sends", "count", Lower, "send/send_batch calls on TcpTransport"),
    layer("net.tcp", "net.tcp.send_busy_s", "s", Lower, "wall time inside those calls (write syscalls, blocking included)"),
    layer("net.tcp", "net.tcp.send_cpu_s", "s", Lower, "CPU time of those calls (sampled estimate)"),
    layer("net.tcp", "net.tcp.ns_per_send", "ns", Lower, "mean CPU time per call (sampled)"),
    layer("net.tcp", "net.tcp.reader_cpu_s", "s", Lower, "CPU of the per-link reader threads"),
    layer("net.tcp", "net.frame.write_ns_per_frame", "ns", Lower, "replay: write_frame into memory"),
    layer("net.tcp", "net.frame.read_ns_per_frame", "ns", Lower, "replay: read_frame_burst from memory"),
    layer("runtime", "runtime.start_ms", "ms", Lower, "links/sockets + engines + spawn of one deployment"),
    layer("runtime", "runtime.start_cpu_s", "s", Lower, "process CPU of that start (TCP: the mesh's acceptor threads and handshakes)"),
    layer("runtime", "runtime.shutdown_ms", "ms", Lower, "shutdown command to all reports joined"),
    layer("runtime", "runtime.harness_cpu_s", "s", Lower, "CPU of the generator and collector threads"),
    layer("runtime", "runtime.latency_p90_ms", "ms", Lower, "diagnostic tail"),
    layer("runtime", "runtime.latency_p99_ms", "ms", Lower, "diagnostic tail"),
    layer("runtime", "runtime.latency_max_ms", "ms", Lower, "diagnostic tail"),
    layer("runtime", "runtime.peak_rss_mb", "MB", Lower, "VmHWM of the workload's process after its untraced reference repetition (simulated workloads too)"),
    layer("runtime", "runtime.deliveries_seen", "count", Higher, "delivery events the collector consumed"),
    layer("bench", "bench.trace_overhead_pct", "%", Lower, "traced vs untraced cpu_ms_per_broadcast"),
    layer("bench", "bench.unattributed_share", "ratio", Lower, "1 - CPU attributed to named layers / process CPU"),
    layer("bench", "bench.cpu_clock_cost_ns", "ns", Lower, "what one sampled reading of the thread CPU clock adds to the interval it brackets (solved so that engine + send + driver CPU equal the node threads' exact CPU)"),
    layer("bench", "bench.spans_recorded", "count", Higher, "spans kept in memory by the traced repetitions"),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(find("no.such.metric").is_none());
    }
}
