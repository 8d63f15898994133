//! Spans and counters of the traced repetitions.
//!
//! The `Timed*` wrappers of [`crate::timed`] sit around the calls into each layer and
//! record two things: counters for **every** call, and — for broadcasts with
//! `seq % 64 == 0` — a [`Span`] per call. Spans of one broadcast share its
//! `(source, seq)` as the request identifier; the root span is the broadcast itself (due
//! instant to last correct delivery), engine spans are its children, transport send
//! spans are children of the engine span that emitted them on the same thread.
//! Everything stays in memory ([`TraceHub`]) until the repetition ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use brb_core::pathset::PathSet;
use brb_core::types::BroadcastId;
use bytes::Bytes;

use crate::json::Json;

/// The identifier the spans of one broadcast share: `(source, seq)`.
pub type Request = (u32, u32);

/// One broadcast in this many gets its calls recorded as spans.
pub const SAMPLE_EVERY: u32 = 64;

/// Spans kept per repetition; calls beyond it are still counted, only not kept as
/// spans (the single 591 134-message broadcast of the flagship would otherwise keep a
/// span per message).
pub const SPAN_BUDGET: i64 = 50_000;

/// Outbound frames each engine keeps for the codec replay.
pub const FRAME_LOG_CAP: usize = 2_048;

/// The request identifier of a broadcast.
pub fn request_of(id: BroadcastId) -> Request {
    (id.source as u32, id.seq)
}

/// Whether the calls of this broadcast are recorded as spans.
pub fn sampled(request: Request) -> bool {
    request.1.is_multiple_of(SAMPLE_EVERY)
}

/// The span id of a broadcast's root span, computable from the request alone so that
/// engine wrappers on other threads can name their parent without coordination.
pub fn root_id(request: Request) -> u64 {
    (1 << 63) | (u64::from(request.0) << 32) | u64::from(request.1)
}

/// One recorded call (or, for the root, one broadcast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id of the span.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Start, in ns since the hub's epoch.
    pub start_ns: u64,
    /// End, in ns since the hub's epoch.
    pub end_ns: u64,
    /// The broadcast the call served.
    pub request: Request,
}

thread_local! {
    /// The engine span whose actions the current thread is dispatching: transport send
    /// spans name it as their parent. `(0, _)` when the engine call was not sampled.
    static CAUSE: Cell<(u64, Request)> = const { Cell::new((0, (0, 0))) };

    /// CPU time of the current thread **between** wrapped calls — the host's own work
    /// (for a node thread: `NodeDriver`'s loop), sampled like the calls themselves. With
    /// it, the thread's CPU clock at the start of the gap being sampled, if one is.
    static GAPS: Cell<(Option<u64>, CallTimes)> = const {
        Cell::new((None, CallTimes { calls: 0, wall_ns: 0, cpu_samples: 0, cpu_sampled_ns: 0 }))
    };
}

/// A wrapped call returned on this thread: a gap begins. `cpu_now_ns` is the thread's
/// CPU clock if this gap is one of the sampled ones.
pub fn gap_begins(cpu_now_ns: Option<u64>) {
    GAPS.with(|cell| {
        let (_, mut gaps) = cell.get();
        gaps.calls += 1;
        cell.set((cpu_now_ns, gaps));
    });
}

/// A wrapped call is about to start on this thread: if the gap before it is a sampled
/// one, `cpu_now_ns` is asked for the thread's CPU clock and the gap is booked.
pub fn gap_ends(cpu_now_ns: impl FnOnce() -> u64) {
    GAPS.with(|cell| {
        if let (Some(since), mut gaps) = cell.get() {
            gaps.cpu_samples += 1;
            gaps.cpu_sampled_ns += cpu_now_ns().saturating_sub(since);
            cell.set((None, gaps));
        }
    });
}

/// The current thread's gaps so far (one follows every wrapped call), reset. Their wall
/// time is not kept: a node thread spends its gaps mostly asleep.
pub fn take_gap_times() -> CallTimes {
    GAPS.with(Cell::take).1
}

/// Wall-clock and CPU time of a stream of calls.
///
/// The wall clock is read around **every** call. On a host with more runnable threads
/// than cores that over-counts: a thread descheduled inside a call (a channel send that
/// wakes its receiver, a socket write that blocks) books the wait as busy time. So on
/// the live workloads the thread's CPU clock is read around a random one call in
/// [`CPU_SAMPLE_EVERY`] as well (see [`solve_cpu_split`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTimes {
    /// Calls made.
    pub calls: u64,
    /// ns between entry and return, summed over every call.
    pub wall_ns: u64,
    /// Calls whose thread-CPU time was read.
    pub cpu_samples: u64,
    /// Thread-CPU ns of those calls, as read.
    pub cpu_sampled_ns: u64,
}

/// One call in this many has its thread-CPU time read (two system calls).
pub const CPU_SAMPLE_EVERY: u64 = 256;

impl CallTimes {
    /// Books one call.
    pub fn record(&mut self, wall_ns: u64, cpu_ns: Option<u64>) {
        self.calls += 1;
        self.wall_ns += wall_ns;
        if let Some(cpu_ns) = cpu_ns {
            self.cpu_samples += 1;
            self.cpu_sampled_ns += cpu_ns;
        }
    }

    /// Mean CPU ns of a call as the samples read it, less the `clock_cost_ns` that each
    /// reading adds; 0 without samples.
    pub fn cpu_mean_ns(&self, clock_cost_ns: f64) -> f64 {
        if self.cpu_samples == 0 {
            return 0.0;
        }
        (self.cpu_sampled_ns as f64 / self.cpu_samples as f64 - clock_cost_ns).max(0.0)
    }

    /// Estimated CPU ns of all calls: the mean of the sampled ones times the call count.
    pub fn cpu_total_ns(&self, clock_cost_ns: f64) -> f64 {
        self.cpu_mean_ns(clock_cost_ns) * self.calls as f64
    }

    /// Adds another stream's counters.
    pub fn merge(&mut self, other: &CallTimes) {
        self.calls += other.calls;
        self.wall_ns += other.wall_ns;
        self.cpu_samples += other.cpu_samples;
        self.cpu_sampled_ns += other.cpu_sampled_ns;
    }
}

/// Splits the exactly known CPU time of a set of threads among what ran on them.
///
/// Each of `streams` (engine calls, send calls, the gaps between them) had the thread
/// CPU clock read around a sample of its members. Reading that clock is a system call:
/// part of its own cost, and the cold caches it leaves behind, land inside every
/// sampled interval, so the streams' estimates add up to more than the threads really
/// used. The cost is the same for every reading, whatever it brackets — so it is the one
/// unknown that makes the estimates add up to `threads_cpu_ns`, which the scheduler
/// accounts exactly. Returns that per-reading cost in ns (0 if nothing was sampled).
pub fn solve_cpu_split(streams: &[&CallTimes], threads_cpu_ns: f64) -> f64 {
    let read: f64 = streams.iter().map(|s| s.cpu_total_ns(0.0)).sum();
    let members: f64 = streams
        .iter()
        .filter(|s| s.cpu_samples > 0)
        .map(|s| s.calls as f64)
        .sum();
    if members == 0.0 {
        return 0.0;
    }
    ((read - threads_cpu_ns) / members).max(0.0)
}

/// Counters of the engine calls at one process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `handle_message_into` / `handle_frame` calls.
    pub handle: CallTimes,
    /// Broadcast entry calls (CPU time read on every one: they are few).
    pub broadcast: CallTimes,
    /// Actions the handle calls emitted.
    pub actions: u64,
    /// Handle calls that emitted at least one action.
    pub useful_calls: u64,
    /// ns inside `state_bytes` / `stored_paths` calls made by the host.
    pub probe_ns: u64,
    /// Peak of `stored_paths()`, sampled every 256 handle calls and at the end.
    pub stored_paths_peak: u64,
    /// `state_bytes()` when the wrapper was dropped.
    pub state_bytes_end: u64,
}

impl EngineStats {
    /// Adds another process's counters (the peak takes the maximum).
    pub fn merge(&mut self, other: &EngineStats) {
        self.handle.merge(&other.handle);
        self.broadcast.merge(&other.broadcast);
        self.actions += other.actions;
        self.useful_calls += other.useful_calls;
        self.probe_ns += other.probe_ns;
        self.stored_paths_peak = self.stored_paths_peak.max(other.stored_paths_peak);
        self.state_bytes_end += other.state_bytes_end;
    }

    /// ns between entry and return of every engine call.
    pub fn busy_wall_ns(&self) -> u64 {
        self.handle.wall_ns + self.broadcast.wall_ns
    }

    /// Estimated CPU ns of every engine call (see [`CallTimes::cpu_total_ns`]).
    pub fn cpu_total_ns(&self, clock_cost_ns: f64) -> f64 {
        self.handle.cpu_total_ns(clock_cost_ns) + self.broadcast.cpu_total_ns(clock_cost_ns)
    }
}

/// One received path, as the Bracha-Dolev engine would hand it to its
/// `DisjointPathTracker` (before the engine's own MBD filters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRecord {
    /// The Dolev instance: broadcast, message-kind tag, originator.
    pub instance: (BroadcastId, u8, usize),
    /// Intermediate nodes: traversed labels plus the relay, minus originator and self.
    pub path: PathSet,
    /// The neighbor that relayed the message.
    pub via: usize,
    /// Whether the message came straight from its originator.
    pub direct: bool,
}

/// What one engine wrapper hands over when it is dropped.
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// Process id.
    pub node: usize,
    /// Call counters.
    pub stats: EngineStats,
    /// Up to [`FRAME_LOG_CAP`] outbound frames with their Table 3 sizes.
    pub frames: Vec<(Bytes, usize)>,
    /// Every path received (Bracha-Dolev engines at the logging processes only).
    pub paths: Vec<PathRecord>,
}

/// Counters of the send calls of one process's base transport.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SendStats {
    /// `send` + `send_batch` calls.
    pub calls: CallTimes,
    /// Frames those calls carried.
    pub frames: u64,
}

/// Everything the wrappers of one repetition recorded.
pub struct TraceHub {
    epoch: Instant,
    next_id: AtomicU64,
    spans_left: AtomicI64,
    spans: Mutex<Vec<Span>>,
    engines: Mutex<Vec<EngineTrace>>,
    sends: Mutex<SendStats>,
}

impl Default for TraceHub {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHub {
    /// An empty hub whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans_left: AtomicI64::new(SPAN_BUDGET),
            spans: Mutex::new(Vec::new()),
            engines: Mutex::new(Vec::new()),
            sends: Mutex::new(SendStats::default()),
        }
    }

    /// ns since the hub's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// ns since the hub's epoch of an instant taken elsewhere.
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, or `None` once the repetition's span budget is spent.
    // Relaxed: both counters are statistics that publish no other data.
    pub fn claim_span(&self) -> Option<u64> {
        (self.spans_left.fetch_sub(1, Ordering::Relaxed) > 0)
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Appends spans a wrapper buffered locally.
    pub fn push_spans(&self, spans: Vec<Span>) {
        if let Ok(mut all) = self.spans.lock() {
            all.extend(spans);
        }
    }

    /// Takes over an engine wrapper's record.
    pub fn push_engine(&self, trace: EngineTrace) {
        if let Ok(mut engines) = self.engines.lock() {
            engines.push(trace);
        }
    }

    /// Adds a transport wrapper's counters to the repetition's total.
    pub fn push_sends(&self, stats: &SendStats) {
        if let Ok(mut sends) = self.sends.lock() {
            sends.calls.merge(&stats.calls);
            sends.frames += stats.frames;
        }
    }

    /// Moves everything recorded out of the hub (call once every wrapper is dropped).
    pub fn take(&self) -> Recorded {
        fn take<T: Default>(m: &Mutex<T>) -> T {
            std::mem::take(&mut *m.lock().expect("no wrapper panicked while recording"))
        }
        let mut spans: Vec<Span> = take(&self.spans);
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut engines: Vec<EngineTrace> = take(&self.engines);
        engines.sort_by_key(|e| e.node);
        Recorded {
            spans,
            engines,
            sends: take(&self.sends),
        }
    }
}

/// Marks which engine span the current thread's next sends belong to.
pub fn set_cause(span: u64, request: Request) {
    CAUSE.with(|c| c.set((span, request)));
}

/// The engine span (0 if unsampled) and request the current thread is dispatching for.
pub fn cause() -> (u64, Request) {
    CAUSE.with(Cell::get)
}

/// What a repetition's wrappers recorded, merged.
pub struct Recorded {
    /// Every span kept, ordered by start.
    pub spans: Vec<Span>,
    /// One record per engine wrapper, ordered by process id.
    pub engines: Vec<EngineTrace>,
    /// Send counters summed over every base transport.
    pub sends: SendStats,
}

impl Recorded {
    /// Engine counters summed over every process.
    pub fn engine_total(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for engine in &self.engines {
            total.merge(&engine.stats);
        }
        total
    }

    /// Among the processes that logged their received paths, the one that handled the
    /// most calls.
    pub fn busiest_path_logger(&self) -> Option<&EngineTrace> {
        self.engines
            .iter()
            .filter(|e| !e.paths.is_empty())
            .max_by_key(|e| (e.stats.handle.calls, e.node))
    }

    /// Gives every sampled broadcast that has no root span one that runs from its first
    /// to its last kept span. The live generator records real roots (due instant to last
    /// delivery); inside the simulator wall-clock instants of injection and delivery
    /// are not observable from outside, so the root is what its children span.
    pub fn synthesize_roots(&mut self) {
        let mut extent: std::collections::BTreeMap<Request, (u64, u64)> = Default::default();
        for span in &self.spans {
            let entry = extent
                .entry(span.request)
                .or_insert((span.start_ns, span.end_ns));
            entry.0 = entry.0.min(span.start_ns);
            entry.1 = entry.1.max(span.end_ns);
        }
        for span in &self.spans {
            if span.parent == 0 {
                extent.remove(&span.request);
            }
        }
        for (request, (start_ns, end_ns)) in extent {
            self.spans.push(Span {
                id: root_id(request),
                parent: 0,
                name: "broadcast",
                start_ns,
                end_ns,
                request,
            });
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
    }
}

/// Self time of every span: its duration minus the part of **its own interval** that
/// its child spans cover (overlapping children are not counted twice; a child that
/// runs after its parent ended — a send dispatched once the engine call returned —
/// covers nothing of it).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            let duration = span.end_ns.saturating_sub(span.start_ns);
            (span.id, duration.saturating_sub(covered))
        })
        .collect()
}

/// Per span name: how many spans, their total duration and their total self time.
pub fn span_summary(spans: &[Span]) -> Json {
    let own = self_times(spans);
    let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for span in spans {
        let entry = match by_name.iter_mut().find(|e| e.0 == span.name) {
            Some(entry) => entry,
            None => {
                by_name.push((span.name, 0, 0, 0));
                by_name.last_mut().expect("just pushed")
            }
        };
        entry.1 += 1;
        entry.2 += span.end_ns.saturating_sub(span.start_ns);
        entry.3 += own.get(&span.id).copied().unwrap_or(0);
    }
    let mut summary = Json::obj();
    for (name, count, total_ns, self_ns) in by_name {
        let mut row = Json::obj();
        row.set("spans", Json::Int(count))
            .set("total_ns", Json::Int(total_ns))
            .set("self_ns", Json::Int(self_ns));
        summary.set(name, row);
    }
    summary
}

/// One JSON object per line, one line per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        let mut line = Json::obj();
        line.set("name", Json::str(span.name))
            .set("id", Json::Int(span.id))
            .set("parent", Json::Int(span.parent))
            .set("start_ns", Json::Int(span.start_ns))
            .set("end_ns", Json::Int(span.end_ns))
            .set(
                "request",
                Json::Arr(vec![
                    Json::Int(u64::from(span.request.0)),
                    Json::Int(u64::from(span.request.1)),
                ]),
            );
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 {
                "broadcast"
            } else {
                "core.engine.handle"
            },
            start_ns,
            end_ns,
            request: (0, 0),
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),   // covers 20
            span(3, 1, 20, 50),   // overlaps 2: adds 20 more
            span(4, 1, 90, 140),  // sticks out of the parent: only 10 count
            span(5, 1, 150, 160), // after the parent ended: covers nothing
            span(6, 2, 12, 15),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 20 - 10);
        assert_eq!(own[&2], 20 - 3);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&5], 10);
    }

    #[test]
    fn cpu_time_is_estimated_from_the_sampled_calls() {
        let mut times = CallTimes::default();
        for call in 0..100u64 {
            // Every call takes 10 wall ns; every tenth has its 4 CPU ns read.
            times.record(10, (call % 10 == 0).then_some(4));
        }
        assert_eq!(
            (times.calls, times.wall_ns, times.cpu_samples),
            (100, 1_000, 10)
        );
        assert_eq!(times.cpu_total_ns(0.0), 400.0);
        assert_eq!(times.cpu_total_ns(1.0), 300.0);
        assert_eq!(times.cpu_total_ns(9.0), 0.0, "never negative");
        assert_eq!(CallTimes::default().cpu_total_ns(0.0), 0.0);
        let mut sum = times;
        sum.merge(&times);
        assert_eq!(sum.cpu_total_ns(0.0), 800.0);
    }

    #[test]
    fn the_clock_cost_is_what_makes_the_split_add_up() {
        // Truth: 1000 engine calls of 50 ns, 500 sends of 200 ns, 1500 gaps of 20 ns:
        // 180 000 ns in all. Every reading adds 30 ns.
        let stream = |calls: u64, true_ns: u64| CallTimes {
            calls,
            wall_ns: 0,
            cpu_samples: calls / 10,
            cpu_sampled_ns: (calls / 10) * (true_ns + 30),
        };
        let (engine, sends, gaps) = (stream(1000, 50), stream(500, 200), stream(1500, 20));
        let cost = solve_cpu_split(&[&engine, &sends, &gaps], 180_000.0);
        assert!((cost - 30.0).abs() < 1e-9, "{cost}");
        assert!((engine.cpu_total_ns(cost) - 50_000.0).abs() < 1e-6);
        assert!((sends.cpu_total_ns(cost) - 100_000.0).abs() < 1e-6);
        assert!((gaps.cpu_total_ns(cost) - 30_000.0).abs() < 1e-6);
        // An unsampled stream takes no part; nothing sampled at all costs nothing.
        let idle = CallTimes {
            calls: 7,
            ..CallTimes::default()
        };
        assert_eq!(solve_cpu_split(&[&idle], 1.0), 0.0);
    }

    #[test]
    fn gaps_between_calls_are_counted_and_sampled_per_thread() {
        assert_eq!(take_gap_times(), CallTimes::default());
        gap_begins(None);
        gap_ends(|| unreachable!("an unsampled gap reads no clock"));
        gap_begins(Some(100));
        gap_ends(|| 140);
        gap_ends(|| unreachable!("the gap is already closed"));
        let gaps = take_gap_times();
        assert_eq!(
            (gaps.calls, gaps.cpu_samples, gaps.cpu_sampled_ns),
            (2, 1, 40)
        );
        assert_eq!(take_gap_times(), CallTimes::default(), "taking resets");
    }

    #[test]
    fn sampling_and_root_ids_follow_the_request() {
        assert!(sampled((3, 0)) && sampled((3, 128)) && !sampled((3, 65)));
        assert_ne!(root_id((1, 0)), root_id((0, 1)));
        assert_eq!(
            root_id((2, 64)) >> 63,
            1,
            "root ids never collide with claimed ids"
        );
    }

    #[test]
    fn the_span_budget_bounds_what_is_kept() {
        let hub = TraceHub::new();
        let claimed = (0..SPAN_BUDGET + 10)
            .filter_map(|_| hub.claim_span())
            .count();
        assert_eq!(claimed as i64, SPAN_BUDGET);
    }

    #[test]
    fn jsonl_has_one_valid_object_per_span() {
        let text = spans_jsonl(&[span(1, 0, 0, 5), span(2, 1, 1, 2)]);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let parsed = brb_trace::json::parse_json(line).expect("valid JSON line");
            assert!(parsed.get("request").and_then(|r| r.as_array()).is_some());
        }
        let summary = span_summary(&[span(1, 0, 0, 5), span(2, 1, 1, 2)]).render();
        assert!(summary.contains("\"broadcast\"") && summary.contains("\"self_ns\": 4"));
    }
}
