//! Host-independent guard on the engine + simulator hot path: heap allocations per
//! handled event.
//!
//! Wall time on a shared host drifts by tens of percent between identical runs; the
//! number of allocations a seeded simulation performs does not move at all. This suite
//! counts them with a counting `#[global_allocator]` for two typed-`BdProcess` runs —
//! the paper's headline point and the benchmark's flagship scenario — and for the codec
//! path every deployment uses (`DynStack` engines under a concurrent workload), and holds
//! each to a committed budget per handled event. It is a count made by the program and is
//! reported as a count: it says nothing about speed on its own, it only catches the
//! per-message temporaries (set clones, grouping maps, heap path sets) coming back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::protocol::Protocol;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::types::Payload;
use brb_core::BdProcess;
use brb_graph::NeighborIndex;
use brb_sim::experiment::experiment_graph;
use brb_sim::{run_workload, DelayModel, Simulation};
use brb_workload::{LoopMode, SourceSelection, WorkloadSpec};

thread_local! {
    /// Allocations made by the current thread (each test runs on its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is bumping a const-initialised, destructor-free
// thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator with this `layout`;
        // the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One broadcast from process 0 on a seeded `k`-regular graph, synchronous delays, run
/// to quiescence: `(events handled, allocations made while handling them)`. Set-up
/// (graph, engines) is outside the count.
fn one_broadcast(config: Config, k: usize, payload_bytes: usize, graph_seed: u64) -> (u64, u64) {
    let graph = experiment_graph(config.n, k, graph_seed);
    let index = NeighborIndex::new(&graph);
    let processes: Vec<BdProcess> = (0..config.n)
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 7);
    let payload = Payload::filled(0xAB, payload_bytes);
    let before = ALLOCATIONS.with(Cell::get);
    sim.broadcast(0, payload);
    sim.run_to_quiescence();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        sim.processes().iter().all(|p| p.deliveries().len() == 1),
        "every process delivers the broadcast"
    );
    (sim.metrics().events_processed as u64, allocations)
}

/// Runs the scenario twice and checks the count repeats exactly and stays within
/// `budget_per_event`; returns the number of events handled.
fn assert_budget(name: &str, run: impl Fn() -> (u64, u64), budget_per_event: f64) -> u64 {
    let first = run();
    assert_eq!(first, run(), "{name}: the same work on every repetition");
    let (events, allocations) = first;
    let per_event = allocations as f64 / events as f64;
    println!("{name}: {allocations} allocations / {events} events = {per_event:.3} per event");
    assert!(
        per_event <= budget_per_event,
        "{name}: {per_event:.3} allocations per handled event exceed the budget of {budget_per_event}"
    );
    events
}

/// The paper's headline point: N = 31, k = 10, f = 4, 16 B, `lat. & bdw.` preset —
/// 39 428 events. It made 92 001 allocations (2.33 per event) while in-flight frames
/// were reference-counted and the disjoint-path memo was a vector of sets, 44 835
/// (1.14 per event) with frames held by value and the memo in one flat array, and
/// makes 44 825 without the per-kind send counter.
#[test]
fn headline_point_allocations_per_event_stay_within_budget() {
    assert_budget(
        "headline N=31 k=10 f=4 16B lat&bdw",
        || one_broadcast(Config::latency_bandwidth_preset(31, 4), 10, 16, 31_010),
        1.5,
    );
}

/// The benchmark's flagship (`sim_bd_n100_k12_1k`): N = 100, k = 12, f = 5, 1 KiB,
/// `bdw.` preset, graph seed 424 242 — 591 134 events. The parent of the change that
/// added this test made 5 015 426 allocations here (8.5 per event); reference-counted
/// frames and the vector memo made 1 336 129 (2.26 per event), frames by value and the
/// flat memo 633 036 (1.07 per event), and it makes 633 026 without the per-kind send
/// counter.
#[test]
fn flagship_allocations_per_event_stay_within_budget() {
    let events = assert_budget(
        "flagship N=100 k=12 f=5 1KiB bdw",
        || one_broadcast(Config::bandwidth_preset(100, 5), 12, 1024, 424_242),
        1.5,
    );
    assert_eq!(events, 591_134, "the flagship's known event count");
}

/// The codec path (`sim_bd_n31_k10_16b_x24`): the headline point's N = 31, k = 10, f = 4,
/// 16 B with the `lat. & bdw.` preset and GC after 20 000 events, as 24 Poisson/Zipf
/// broadcasts through `DynStack` engines built by `StackSpec::Bd`, so every frame is
/// encoded and decoded — 1 029 768 events. It made 3.78 allocations per event while
/// every engine step sealed a burst (an empty one included) into a freshly grown
/// buffer and every send was encoded anew, 2.23 while a sealed burst's `Bytes` took two
/// heap blocks (its bytes and their reference count), and makes about 2 127 270 (2.07
/// per event) with one.
///
/// Unlike the typed runs this one does not repeat exactly: GC removals leave hash-map
/// tombstones whose number depends on each map's randomly seeded hasher, so rehashes,
/// and the allocation count with them, move by a few between runs. The event count is
/// checked exactly and the allocations are bounded, without `assert_budget`'s
/// exact-repeat check.
#[test]
fn codec_path_allocations_per_event_stay_within_budget() {
    let config = Config::latency_bandwidth_preset(31, 4).with_gc(GcPolicy::after_events(20_000));
    let graph = experiment_graph(config.n, 10, 31_010);
    let engines: Vec<DynStack> = (0..config.n)
        .map(|i| DynStack::new(StackSpec::Bd.build(&config, &graph, i)))
        .collect();
    let mut sim = Simulation::new(engines, DelayModel::synchronous(), 7);
    let schedule = WorkloadSpec::poisson(20_000, 24)
        .with_sources(SourceSelection::Zipf { exponent: 1.0 })
        .with_payload_bytes(16)
        .schedule(config.n, 7);
    let before = ALLOCATIONS.with(Cell::get);
    run_workload(&mut sim, &schedule, LoopMode::Open);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let events = sim.metrics().events_processed as u64;
    let per_event = allocations as f64 / events as f64;
    println!("codec path N=31 k=10 f=4 16B x24 DynStack: {allocations} allocations / {events} events = {per_event:.3} per event");
    assert!(
        sim.processes().iter().all(|p| p.deliveries().len() == 24),
        "every process delivers every broadcast"
    );
    assert_eq!(events, 1_029_768, "the codec path's known event count");
    assert!(
        per_event <= 2.2,
        "codec path: {per_event:.3} allocations per handled event exceed the budget of 2.2"
    );
}
