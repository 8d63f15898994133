//! How `--seed` becomes the independent random streams of a workload.

/// One step of the SplitMix64 generator: advances `state` and returns the next word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeds of one workload run: topology, simulator/driver RNG, schedule and payloads
/// each get their own stream, so changing one input never shifts another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// What `--seed` was (`None`: the workload's historical seeds).
    pub given: Option<u64>,
    /// Topology generation.
    pub graph: u64,
    /// The simulator's delay/behaviour RNG, or the live drivers' per-node streams.
    pub run: u64,
    /// The injection schedule (arrival times, sources).
    pub schedule: u64,
    /// Payload contents.
    pub payload: u64,
}

impl Seeds {
    /// Derives the four streams from `--seed`.
    pub fn derive(seed: u64) -> Self {
        let mut state = seed;
        Self {
            given: Some(seed),
            graph: splitmix64(&mut state),
            run: splitmix64(&mut state),
            schedule: splitmix64(&mut state),
            payload: splitmix64(&mut state),
        }
    }

    /// The seeds a workload used before it took `--seed` (kept so that its known counts
    /// can be reproduced): explicit topology and run seeds.
    pub const fn historical(graph: u64, run: u64) -> Self {
        Self {
            given: None,
            graph,
            run,
            schedule: run,
            payload: run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a = Seeds::derive(42);
        assert_eq!(a, Seeds::derive(42));
        assert_ne!(a, Seeds::derive(43));
        let streams = [a.graph, a.run, a.schedule, a.payload];
        for (i, x) in streams.iter().enumerate() {
            for y in &streams[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_eq!(Seeds::historical(424_242, 7).graph, 424_242);
        assert_eq!(Seeds::historical(424_242, 7).given, None);
    }
}
