//! The mispriming-flood fault, and the fixed read orders that make it
//! repeat.
//!
//! Some leaves' elongated primers pull in many off-target clusters from
//! their own tube, so their decode fails with a typed `DecodeFailed` on
//! some read streams and not on others. Which read fails depends on the
//! shard's RNG stream, which every read of the partition advances.
//!
//! The workloads therefore read each partition in a fixed order, in whole
//! rounds of one read per partition (the seed only orders the partitions
//! within a round), so after `k` rounds every shard has met the same `k`
//! reads in the same order whatever the seed. Whether each of those reads
//! fails is then fixed, and every failure is counted. `--fault-rates K`
//! shows how often each leaf fails over `K` independent reads.

use crate::corpus::{self, LARGE, SMALL, STORE_SEED};
use crate::workloads::SPAN;
use dna_block_store::{BlockStore, PartitionConfig, PartitionId, StoreError};
use dna_seq::rng::DetRng;

/// The fixed order in which `cold-read` reads partition `t` of the large
/// archive.
pub fn point_order(t: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..LARGE.blocks).collect();
    DetRng::seed_from_u64(0xC01D).derive(t).shuffle(&mut order);
    order
}

/// The fixed order in which `range-scan` reads the aligned spans of
/// partition `t` (first blocks).
pub fn span_order(t: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..LARGE.blocks / SPAN).map(|s| s * SPAN).collect();
    DetRng::seed_from_u64(0x5CA9).derive(t).shuffle(&mut order);
    order
}

fn decode_failed(store: &BlockStore, requests: &[(PartitionId, u64)]) -> Result<bool, String> {
    let batch = store
        .read_blocks_batch(requests)
        .map_err(|e| e.to_string())?;
    for outcome in &batch.outcomes {
        match outcome {
            Ok(_) => {}
            Err(StoreError::DecodeFailed { .. }) => return Ok(true),
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(false)
}

/// `--fault-rates K`: reads every block of both archives `trials` times
/// (one thread per partition) and prints each block that failed at least
/// once, with its count: how often a flood leaf fails, not which reads of
/// the workloads do.
pub fn rates(trials: usize) -> Result<(), String> {
    for shape in [LARGE, SMALL] {
        let store = BlockStore::new(STORE_SEED);
        for t in 0..shape.partitions {
            let pid = store
                .create_partition(PartitionConfig::paper_default(corpus::partition_seed(t)))
                .map_err(|e| e.to_string())?;
            store
                .write_file(pid, &corpus::partition_file(t, shape.blocks))
                .map_err(|e| e.to_string())?;
        }
        let lines = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shape.partitions)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || -> Result<Vec<String>, String> {
                        let pid = PartitionId(usize::try_from(t).expect("index fits usize"));
                        let mut lines = Vec::new();
                        for b in 0..shape.blocks {
                            let mut failed = 0;
                            for _ in 0..trials {
                                failed += usize::from(decode_failed(store, &[(pid, b)])?);
                            }
                            if failed > 0 {
                                lines.push(format!("partition {t} leaf {b}: {failed}/{trials}"));
                            }
                        }
                        Ok(lines)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rates thread panicked"))
                .collect::<Result<Vec<_>, String>>()
        })?;
        println!(
            "archive of {} partitions x {} blocks, {trials} point reads of each:",
            shape.partitions, shape.blocks
        );
        for line in lines.into_iter().flatten() {
            println!("  {line}");
        }
    }
    Ok(())
}
