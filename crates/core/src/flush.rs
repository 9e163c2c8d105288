//! The parallel flush pipeline's hash stage.
//!
//! A checkpoint's flush plan is partitioned into contiguous shards, one
//! per worker; a scoped thread pool content-hashes every page, and the
//! driving thread reassembles the shards in plan order. The output is a
//! [`PageWrite`] list whose hashes feed the object store's sharded dedup
//! index (`write_pages_coalesced`) on *every* backend — the serial path
//! re-hashed the whole plan once per backend.
//!
//! Determinism: shard boundaries depend only on plan length and worker
//! count, and each worker hands its shard's hashes back through its
//! join handle, which the driving thread joins in shard order. Workers
//! share no mutable state, so concurrent hash stages (two Hosts on two
//! threads) cannot see each other's results, and the write sequence is
//! byte-identical to a serial hash pass regardless of worker count or
//! scheduling. The differential test in `tests/parallel_flush_diff.rs`
//! checks exactly this. The restore pipeline's hash stage runs through
//! the same [`hash_sharded`] pass.

use std::thread;

use aurora_objstore::{ObjId, PageWrite};
use aurora_vm::PageData;

/// Plans smaller than this are hashed inline: spawning threads costs
/// more than hashing a handful of 4 KiB pages.
pub const PARALLEL_THRESHOLD: usize = 64;

/// One resolved page of the flush plan: destination object, page index,
/// and the frozen contents.
pub type PlanPage = (ObjId, u64, PageData);

/// Content-hashes the page each of `items` carries on `workers` scoped
/// threads, one contiguous shard per worker, and returns the hashes in
/// item order. Each worker returns its shard's hashes through its join
/// handle, so concurrent calls share no state.
///
/// Returns `None` when the caller should run its serial reference pass
/// instead: one worker, fewer than [`PARALLEL_THRESHOLD`] items, or a
/// worker that panicked.
pub fn hash_sharded<T: Sync>(
    items: &[T],
    workers: usize,
    page: impl Fn(&T) -> &PageData + Sync,
) -> Option<Vec<u64>> {
    let workers = workers.max(1);
    if workers == 1 || items.len() < PARALLEL_THRESHOLD {
        return None;
    }
    let shard_len = items.len().div_ceil(workers);
    let page = &page;
    let shards: Vec<Option<Vec<u64>>> = thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(shard_len)
            .map(|shard| {
                s.spawn(move || shard.iter().map(|it| page(it).content_hash()).collect())
            })
            .collect();
        // Join every handle, even after a failed one: a panicked worker
        // left unjoined would re-panic when the scope ends.
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    shards.into_iter().collect::<Option<Vec<_>>>().map(|s| s.concat())
}

/// Content-hashes the resolved flush plan on `workers` threads and
/// returns the writes in plan order.
pub fn hash_plan(pages: Vec<PlanPage>, workers: usize) -> Vec<PageWrite> {
    match hash_sharded(&pages, workers, |(_, _, p)| p) {
        Some(hashes) => pages
            .into_iter()
            .zip(hashes)
            .map(|((oid, idx, page), hash)| PageWrite { oid, idx, page, hash })
            .collect(),
        None => hash_serial(pages),
    }
}

/// The single-threaded reference pass.
fn hash_serial(pages: Vec<PlanPage>) -> Vec<PageWrite> {
    pages
        .into_iter()
        .map(|(oid, idx, page)| {
            let hash = page.content_hash();
            PageWrite { oid, idx, page, hash }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(n: usize) -> Vec<PlanPage> {
        (0..n)
            .map(|i| {
                let data = match i % 3 {
                    0 => PageData::Zero,
                    1 => PageData::Seeded(i as u64 / 3),
                    _ => PageData::Seeded(0xABCD),
                };
                (ObjId(1 + (i as u64 % 4)), i as u64, data)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_for_any_worker_count() {
        for n in [0, 1, PARALLEL_THRESHOLD - 1, PARALLEL_THRESHOLD, 257, 1000] {
            let reference = hash_serial(plan(n));
            for workers in [1, 2, 3, 4, 8] {
                let out = hash_plan(plan(n), workers);
                assert_eq!(out.len(), reference.len());
                for (a, b) in out.iter().zip(reference.iter()) {
                    assert_eq!(a.oid, b.oid);
                    assert_eq!(a.idx, b.idx);
                    assert_eq!(a.hash, b.hash);
                    assert!(a.page.content_eq(&b.page));
                }
            }
        }
    }

    #[test]
    fn panicked_worker_falls_back_to_serial() {
        let pages = plan(PARALLEL_THRESHOLD * 2);
        let last = pages.len() as u64 - 1;
        // The second shard's worker panics on its last page.
        let got = hash_sharded(&pages, 2, |(_, idx, p)| {
            assert_ne!(*idx, last, "injected worker fault");
            p
        });
        assert!(got.is_none());
    }

    #[test]
    fn hashes_match_page_contents() {
        let out = hash_plan(plan(PARALLEL_THRESHOLD * 2), 4);
        for w in &out {
            assert_eq!(w.hash, w.page.content_hash());
        }
    }
}
