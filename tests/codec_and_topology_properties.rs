//! Property-based tests of the wire codec and of the topology substrate.
//!
//! * The binary codec must never panic on attacker-controlled bytes (a Byzantine neighbor
//!   can put arbitrary frames on an authenticated link) and must round-trip every message
//!   the protocols can produce.
//! * The graph generators must deliver the structural guarantees the protocols rely on:
//!   exact connectivity for Harary graphs, `k >= 2f+1` verification for random regular
//!   graphs, and disjoint-path extraction consistent with Menger's bound.

use brb_core::bracha::{BrachaKind, BrachaMessage};
use brb_core::stack::WireCodec;
use brb_core::types::{BroadcastId, Payload};
use brb_core::wire::WireMessage;
use brb_graph::connectivity::{is_k_connected, local_connectivity, vertex_connectivity};
use brb_graph::paths::vertex_disjoint_paths;
use brb_graph::{families, generate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // Fully pinned runner configuration: the case count, the base RNG seed and the
    // failure-persistence file are all committed, so this suite generates the same 64
    // inputs on every machine (see tests/README.md).
    #![proptest_config(ProptestConfig::with_cases(64)
        .with_rng_seed(0xB0B0_0002_C0DE_0002)
        .with_failure_persistence(FileFailurePersistence::SourceParallel("proptest-regressions")))]

    /// Decoding attacker-controlled bytes must never panic, and whenever it succeeds,
    /// re-encoding must reproduce an equally decodable message.
    #[test]
    fn wire_decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Some(message) = WireMessage::decode(&bytes) {
            let reencoded = message.encode();
            let again = WireMessage::decode(&reencoded);
            prop_assert!(again.is_some(), "re-encoded message must decode");
        }
    }

    /// The batch wire framing round-trips every burst — empty, single-frame and
    /// multi-frame, with frame sizes crossing every small chunk boundary — and the
    /// split is a zero-copy view of the batch buffer. Truncating the batch at ANY byte
    /// boundary, or appending trailing garbage, must be rejected (a Byzantine peer owns
    /// the whole batch buffer).
    #[test]
    fn batch_framing_roundtrips_at_every_chunk_boundary(
        sizes in proptest::collection::vec(0usize..70, 0..12),
        trailer in any::<u8>(),
    ) {
        use brb_core::wire::{encode_batch, split_batch};
        let frames: Vec<bytes::Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| bytes::Bytes::from(vec![i as u8; len]))
            .collect();
        let batch = encode_batch(&frames);
        let parts = split_batch(&batch);
        prop_assert_eq!(parts.as_ref(), Some(&frames), "lossless round-trip");

        // Strictness: every proper prefix fails, and so does any trailing byte.
        for cut in 0..batch.len() {
            prop_assert!(
                split_batch(&batch.slice(0..cut)).is_none(),
                "truncation at byte {} must be rejected",
                cut
            );
        }
        let mut extended = batch.to_vec();
        extended.push(trailer);
        prop_assert!(
            split_batch(&bytes::Bytes::from(extended)).is_none(),
            "trailing bytes must be rejected"
        );
    }

    /// The Bracha-over-RC codec round-trips every well-formed message and never panics on
    /// arbitrary payload bytes.
    #[test]
    fn bracha_rc_codec_roundtrip(
        kind in 0u8..3,
        source in 0usize..64,
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let kind = match kind {
            0 => BrachaKind::Send,
            1 => BrachaKind::Echo,
            _ => BrachaKind::Ready,
        };
        let message = BrachaMessage {
            kind,
            id: BroadcastId::new(source, seq),
            payload: Payload::new(payload),
        };
        prop_assert_eq!(BrachaMessage::decode_wire(&message.encode_wire()), Some(message));
    }

    #[test]
    fn bracha_rc_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = BrachaMessage::decode_wire(&bytes);
    }

    /// Harary graphs are exactly k-connected with ⌈k·n/2⌉ edges, for every feasible (k, n).
    #[test]
    fn harary_graphs_have_exact_connectivity(k in 2usize..6, extra in 0usize..6) {
        let n = 2 * k + 1 + extra;
        let g = families::harary(k, n).expect("feasible parameters");
        prop_assert_eq!(vertex_connectivity(&g), k);
        prop_assert_eq!(g.edge_count(), (k * n).div_ceil(2));
    }

    /// Random regular connected graphs satisfy the requested degree and connectivity, and
    /// the disjoint-path extractor agrees with Menger's local connectivity between random
    /// endpoint pairs.
    #[test]
    fn random_regular_graphs_support_disjoint_path_extraction(seed in any::<u64>()) {
        let (n, d, k) = (14usize, 5usize, 3usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::random_regular_connected(n, d, k, &mut rng).expect("generation succeeds");
        prop_assert!(g.nodes().all(|u| g.degree(u) == d));
        prop_assert!(is_k_connected(&g, k));

        let s = (seed as usize) % n;
        let t = (s + 1 + (seed as usize / 7) % (n - 1)) % n;
        prop_assume!(s != t);
        let paths = vertex_disjoint_paths(&g, s, t);
        prop_assert_eq!(paths.len(), local_connectivity(&g, s, t));
        // Internal disjointness and edge validity.
        let mut seen = std::collections::BTreeSet::new();
        for p in &paths {
            prop_assert_eq!(p[0], s);
            prop_assert_eq!(*p.last().unwrap(), t);
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
            for &node in &p[1..p.len() - 1] {
                prop_assert!(seen.insert(node), "internal node reused");
            }
        }
    }
}
