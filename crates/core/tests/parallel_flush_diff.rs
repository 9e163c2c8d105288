//! Differential test for the parallel flush pipeline.
//!
//! For random workloads, the coalesced parallel path (`hash_picked` at
//! 1/2/8 workers feeding `write_pages_coalesced`) must leave the store
//! in *exactly* the state the serial `write_page` loop does: the same
//! bytes on the device, the same dedup hit count, the same number of
//! live blocks. Worker count and extent batching are pure performance
//! knobs — any divergence here is a correctness bug.
//!
//! The hash stage must also be safe to run on several threads at once
//! (two Hosts on two test threads): each call's workers hand their
//! results back to that call alone.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::BTreeMap;

use aurora_core::flush;
use aurora_hw::ModelDev;
use aurora_objstore::{ObjId, ObjectStore, StoreConfig};
use aurora_sim::SimClock;
use aurora_vm::PageData;
use proptest::prelude::*;

/// The hash stage with every plan page written as a full image.
fn hash_all(plan: &[flush::PlanPage], workers: usize) -> Vec<aurora_objstore::PageWrite> {
    let n = plan.len();
    flush::hash_picked(plan, &vec![true; n], &mut vec![None; n], workers).unwrap()
}

/// Device size in blocks (small: images are digested block by block).
const DEV_BLOCKS: u64 = 4096;

/// Objects the workload spreads writes across.
const OBJECTS: u64 = 3;

fn new_store() -> ObjectStore {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut s = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 256,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    for obj in 0..OBJECTS {
        s.create_object(ObjId(obj), 64).unwrap();
    }
    s.commit(None).unwrap();
    s
}

/// FNV-1a digest over the whole device image.
fn device_digest(store: &mut ObjectStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = vec![0u8; 4096];
    let dev = store.device_mut();
    for lba in 0..DEV_BLOCKS {
        if dev.read(lba, &mut buf).is_err() {
            continue;
        }
        for &b in &buf {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One workload entry: (object, page index, content seed). Low seed
/// cardinality on purpose so dedup hits are common.
type Write = (u64, u64, u64);

fn write_strategy() -> impl Strategy<Value = Write> {
    (0u64..OBJECTS, 0u64..64, 0u64..12)
}

/// Applies the workload in checkpoint-sized batches and returns
/// (device digest, dedup_hits, blocks_in_use).
fn run_variant(writes: &[Write], workers: Option<usize>) -> (u64, u64, u64) {
    let mut store = new_store();
    for batch in writes.chunks(24) {
        match workers {
            // Serial reference: the pre-pipeline write_page loop.
            None => {
                for &(obj, idx, seed) in batch {
                    store
                        .write_page(ObjId(obj), idx, &PageData::Seeded(seed))
                        .unwrap();
                }
            }
            // Parallel pipeline: hash stage + coalesced apply.
            Some(w) => {
                let plan: Vec<flush::PlanPage> = batch
                    .iter()
                    .map(|&(obj, idx, seed)| (ObjId(obj), idx, PageData::Seeded(seed)))
                    .collect();
                let hashed = hash_all(&plan, w);
                store.write_pages_coalesced(&hashed).unwrap();
            }
        }
        store.commit(None).unwrap();
    }
    let dedup_hits = store.stats.dedup_hits;
    let blocks = store.blocks_in_use();
    (device_digest(&mut store), dedup_hits, blocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial write_page, and the coalesced pipeline at 1, 2 and 8
    /// workers, all converge on byte-identical device images with
    /// identical dedup and allocation counters.
    #[test]
    fn parallel_flush_matches_serial(
        writes in proptest::collection::vec(write_strategy(), 1..120)
    ) {
        let reference = run_variant(&writes, None);
        let mut results = BTreeMap::new();
        for workers in [1usize, 2, 8] {
            results.insert(workers, run_variant(&writes, Some(workers)));
        }
        for (workers, got) in results {
            prop_assert_eq!(
                got, reference,
                "divergence at {} workers: (digest, dedup_hits, blocks_in_use)",
                workers
            );
        }
    }
}

/// The coalescer actually batches: a contiguous fresh run lands as few
/// extents, and the stats counters prove it.
#[test]
fn coalescing_batches_adjacent_blocks() {
    let mut store = new_store();
    let plan: Vec<flush::PlanPage> = (0..128u64)
        .map(|i| (ObjId(0), i % 64, PageData::Seeded(1000 + i)))
        .collect();
    let hashed = hash_all(&plan, 4);
    store.write_pages_coalesced(&hashed).unwrap();
    store.commit(None).unwrap();
    assert!(store.stats.extents_coalesced > 0);
    assert!(
        store.stats.blocks_coalesced > store.stats.extents_coalesced,
        "adjacent fresh blocks must share extents: {} extents / {} blocks",
        store.stats.extents_coalesced,
        store.stats.blocks_coalesced
    );
}

/// Two threads run the sharded hash stage at once on equal-length plans
/// with different contents, many times over. Every result must equal
/// its own serial reference: one call's workers must never hand their
/// hashes to the other call.
#[test]
fn concurrent_hash_stages_never_swap_results() {
    const PAGES: u64 = 128;
    const WORKERS: usize = 2;
    const ROUNDS: usize = 3_000;
    // A seeded page at the head of every shard makes each shard's
    // hashes differ between the two plans; the rest are cheap zero
    // pages, so a round costs little more than its thread spawns.
    let plan = |salt: u64| -> Vec<flush::PlanPage> {
        (0..PAGES)
            .map(|i| {
                let data = if i % (PAGES / WORKERS as u64) == 0 {
                    PageData::Seeded(salt + i)
                } else {
                    PageData::Zero
                };
                (ObjId(0), i, data)
            })
            .collect()
    };
    let hashes = |plan: Vec<flush::PlanPage>, workers: usize| -> Vec<u64> {
        hash_all(&plan, workers).iter().map(|w| w.hash).collect()
    };
    let wrong: usize = std::thread::scope(|s| {
        let callers: Vec<_> = [1u64, 1 << 32]
            .into_iter()
            .map(|salt| {
                s.spawn(move || {
                    let reference = hashes(plan(salt), 1);
                    (0..ROUNDS)
                        .filter(|_| hashes(plan(salt), WORKERS) != reference)
                        .count()
                })
            })
            .collect();
        callers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(
        wrong,
        0,
        "{wrong} of {} concurrent hash stages returned another call's hashes",
        2 * ROUNDS
    );
}
