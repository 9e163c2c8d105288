//! The parallel flush pipeline's hash stage.
//!
//! The pages of a checkpoint's flush plan that some backend writes as a
//! full image are partitioned into contiguous shards, one per worker; a
//! scoped thread pool content-hashes them, and the driving thread
//! reassembles the shards in plan order. The output is a [`PageWrite`]
//! list whose hashes feed the object store's sharded dedup index
//! (`write_pages_coalesced`). Each page is hashed at most once, however
//! many backends write it ([`hash_picked`]); pages recorded as sub-page
//! delta records are not hashed at all, since nothing reads their hash.
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
use aurora_sim::error::{Error, Result};
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

/// Returns the writes for the plan pages marked in `picked` (one flag
/// per plan page), in plan order, content-hashing on `workers` threads
/// the ones `hashes` (one slot per plan page) does not hold yet.
///
/// Calls sharing `hashes` hash each page at most once: the flush path
/// calls this once per backend with the pages that backend writes as
/// full images, so later backends reuse the hashes and a page every
/// backend records as a sub-page delta is never hashed at all.
pub fn hash_picked(
    plan: &[PlanPage],
    picked: &[bool],
    hashes: &mut [Option<u64>],
    workers: usize,
) -> Result<Vec<PageWrite>> {
    if picked.len() != plan.len() || hashes.len() != plan.len() {
        return Err(Error::internal(format!(
            "hash stage: {} picks and {} hash slots for a {}-page plan",
            picked.len(),
            hashes.len(),
            plan.len()
        )));
    }
    let todo: Vec<(&mut Option<u64>, &PageData)> = hashes
        .iter_mut()
        .zip(picked)
        .zip(plan)
        .filter(|((slot, &pick), _)| pick && slot.is_none())
        .map(|((slot, _), (_, _, page))| (slot, page))
        .collect();
    let fresh = hash_sharded(&todo, workers, |(_, page)| page)
        .unwrap_or_else(|| todo.iter().map(|(_, page)| page.content_hash()).collect());
    for ((slot, _), hash) in todo.into_iter().zip(fresh) {
        *slot = Some(hash);
    }
    plan.iter()
        .zip(picked)
        .zip(hashes.iter())
        .filter(|((_, &pick), _)| pick)
        .map(|(((oid, idx, page), _), hash)| {
            let hash = hash.ok_or_else(|| {
                Error::internal(format!("hash stage left page {idx} of object {} unhashed", oid.0))
            })?;
            Ok(PageWrite { oid: *oid, idx: *idx, page: page.clone(), hash })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hashes every page of the plan.
    fn hash_all(pages: &[PlanPage], workers: usize) -> Vec<PageWrite> {
        let n = pages.len();
        hash_picked(pages, &vec![true; n], &mut vec![None; n], workers).unwrap()
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
                let out = hash_all(&plan(n), workers);
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
    fn picked_pages_are_hashed_once_and_match_the_full_pass() {
        let pages = plan(PARALLEL_THRESHOLD * 3);
        let reference = hash_serial(pages.clone());
        let mut hashes = vec![None; pages.len()];
        // A first backend writes every third page as a full image.
        let first: Vec<bool> = (0..pages.len()).map(|i| i % 3 == 0).collect();
        let out = hash_picked(&pages, &first, &mut hashes, 4).unwrap();
        let want: Vec<_> = reference.iter().step_by(3).map(|w| (w.oid, w.idx, w.hash)).collect();
        let got: Vec<_> = out.iter().map(|w| (w.oid, w.idx, w.hash)).collect();
        assert_eq!(got, want);
        // Pages no backend wrote as an image were never hashed.
        for (i, h) in hashes.iter().enumerate() {
            assert_eq!(h.is_some(), i % 3 == 0, "page {i}");
        }
        // A second backend reuses the first one's hashes and hashes
        // only what is new to it.
        let second: Vec<bool> = (0..pages.len()).map(|i| i % 2 == 0).collect();
        for w in hash_picked(&pages, &second, &mut hashes, 1).unwrap() {
            assert_eq!(w.hash, w.page.content_hash());
        }
        for (i, h) in hashes.iter().enumerate() {
            assert_eq!(h.is_some(), i % 3 == 0 || i % 2 == 0, "page {i}");
        }
    }

    #[test]
    fn picks_that_do_not_cover_the_plan_are_refused() {
        let pages = plan(4);
        let err = hash_picked(&pages, &[true; 3], &mut [None; 4], 1).unwrap_err();
        assert!(err.to_string().contains("3 picks"), "{err}");
        assert!(hash_picked(&pages, &[true; 4], &mut [None; 5], 1).is_err());
    }

    #[test]
    fn hashes_match_page_contents() {
        let out = hash_all(&plan(PARALLEL_THRESHOLD * 2), 4);
        for w in &out {
            assert_eq!(w.hash, w.page.content_hash());
        }
    }
}
