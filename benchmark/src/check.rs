//! The correctness gate: `brb_sim::invariants::check_brb` over the delivery logs of every
//! repetition, against the broadcasts the generator injected.
//!
//! `check_brb` searches every log once per injected broadcast, which is quadratic in the
//! number of broadcasts — hours for the 10^5-broadcast logs of the closed-loop
//! workloads. All four BRB properties are statements about one broadcast id at a time,
//! so the logs and the injected records are first split into buckets of
//! [`BUCKET_SEQS`] consecutive sequence numbers per source, and `check_brb` runs on each
//! bucket: the same verdict, in linear time.

use std::collections::BTreeMap;

use brb_core::types::{BroadcastId, Delivery, ProcessId};
use brb_sim::invariants::{check_brb, BroadcastRecord, Violation};

/// Consecutive sequence numbers of one source that share a bucket.
const BUCKET_SEQS: u32 = 128;

fn bucket_of(id: BroadcastId) -> (ProcessId, u32) {
    (id.source, id.seq / BUCKET_SEQS)
}

/// Checks validity, no-duplication, integrity and agreement of `logs` (indexed by process
/// id) against the injected `broadcasts`, for the processes in `correct`.
///
/// # Errors
///
/// Returns the first [`Violation`] `check_brb` finds in any bucket.
pub fn check_logs(
    logs: &[&[Delivery]],
    correct: &[ProcessId],
    broadcasts: &[BroadcastRecord],
) -> Result<(), Violation> {
    type Bucket = (Vec<Vec<Delivery>>, Vec<BroadcastRecord>);
    let mut buckets: BTreeMap<(ProcessId, u32), Bucket> = BTreeMap::new();
    let empty = || (vec![Vec::new(); logs.len()], Vec::new());
    for record in broadcasts {
        buckets
            .entry(bucket_of(record.id))
            .or_insert_with(empty)
            .1
            .push(record.clone());
    }
    for (process, log) in logs.iter().enumerate() {
        for delivery in log.iter() {
            // A delivery nobody injected lands in a bucket of its own, where
            // check_integrity reports it.
            buckets
                .entry(bucket_of(delivery.id))
                .or_insert_with(empty)
                .0[process]
                .push(delivery.clone());
        }
    }
    for (bucket_logs, records) in buckets.values() {
        let slices: Vec<&[Delivery]> = bucket_logs.iter().map(Vec::as_slice).collect();
        check_brb(&slices, correct, records)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::types::Payload;

    fn delivery(source: ProcessId, seq: u32, payload: &str) -> Delivery {
        Delivery {
            id: BroadcastId::new(source, seq),
            payload: Payload::from(payload),
        }
    }

    fn record(source: ProcessId, seq: u32, payload: &str) -> BroadcastRecord {
        BroadcastRecord::new(
            source,
            BroadcastId::new(source, seq),
            Payload::from(payload),
        )
    }

    #[test]
    fn bucketed_check_agrees_with_check_brb_across_bucket_borders() {
        // Sequence numbers on both sides of a bucket border, two sources.
        let seqs = [0, 1, BUCKET_SEQS - 1, BUCKET_SEQS, 3 * BUCKET_SEQS + 7];
        let mut records = Vec::new();
        let mut log = Vec::new();
        for source in 0..2 {
            for &seq in &seqs {
                records.push(record(source, seq, "m"));
                log.push(delivery(source, seq, "m"));
            }
        }
        let logs_owned = [log.clone(), log.clone(), log];
        let logs: Vec<&[Delivery]> = logs_owned.iter().map(Vec::as_slice).collect();
        let correct = [0, 1, 2];
        assert_eq!(check_logs(&logs, &correct, &records), Ok(()));
        assert_eq!(check_brb(&logs, &correct, &records), Ok(()));
    }

    #[test]
    fn violations_surface_from_their_bucket() {
        let records = vec![record(0, 0, "m"), record(0, BUCKET_SEQS + 1, "m")];
        let full = vec![delivery(0, 0, "m"), delivery(0, BUCKET_SEQS + 1, "m")];
        let correct = [0, 1];

        let missing = vec![delivery(0, 0, "m")];
        let logs: Vec<&[Delivery]> = vec![&full, &missing];
        assert!(matches!(
            check_logs(&logs, &correct, &records),
            Err(Violation::Validity { missing_at: 1, .. })
        ));

        let forged = vec![
            delivery(0, 0, "m"),
            delivery(0, BUCKET_SEQS + 1, "m"),
            delivery(1, 9 * BUCKET_SEQS, "never injected"),
        ];
        let logs: Vec<&[Delivery]> = vec![&forged, &forged];
        assert!(matches!(
            check_logs(&logs, &correct, &records),
            Err(Violation::Integrity { .. })
        ));

        let twice = vec![
            delivery(0, 0, "m"),
            delivery(0, 0, "m"),
            delivery(0, BUCKET_SEQS + 1, "m"),
        ];
        let logs: Vec<&[Delivery]> = vec![&twice, &full];
        assert!(matches!(
            check_logs(&logs, &correct, &records),
            Err(Violation::Duplication { process: 0, .. })
        ));
    }
}
