//! Phase-boundary crash tests for the typestate commit protocol
//! (`objstore::txn`): every write ordinal inside a commit must be a
//! valid power-cut point, the superblock flip must be retryable after a
//! transient failure without double-journaling, and the per-phase
//! counters must tick exactly once per commit. The *compile-time* half
//! of the protocol — skipped or reordered tokens failing to typecheck —
//! lives in the `compile_fail` doctests on `objstore::txn` and
//! `aurora_hw::mirror::ResilverBarrier`.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use aurora_hw::{FaultPlan, ModelDev};
use aurora_objstore::{ObjId, ObjectStore, StoreConfig};
use aurora_sim::SimClock;
use aurora_vm::PageData;

const DEV_BLOCKS: u64 = 64 * 1024;

fn page(fill: u8) -> PageData {
    let mut b = vec![0u8; aurora_vm::PAGE_SIZE];
    b.iter_mut().for_each(|x| *x = fill);
    PageData::from_bytes(&b)
}

/// A store with one durable checkpoint (`page(1)` at slot 0, named
/// "base") and a staged-but-uncommitted overwrite (`page(2)`). The
/// second commit's device writes start at ordinal 1 once a fault plan
/// is installed here.
fn staged_store() -> (ObjectStore, aurora_objstore::CkptId) {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut s = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 1024,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(1)).unwrap();
    let (c1, _) = s.commit(Some("base")).unwrap();
    s.write_page(ObjId(1), 0, &page(2)).unwrap();
    (s, c1)
}

/// The number of device writes a clean second commit issues. The last
/// ordinal is always the superblock flip; everything before it is the
/// journal-seal phase (the staged data extents were already submitted
/// by `write_page`).
fn commit_write_count() -> u64 {
    let (mut s, _) = staged_store();
    let before = s.device().stats().writes;
    s.commit(Some("clean")).unwrap();
    let w = s.device().stats().writes - before;
    assert!(
        w >= 2,
        "a commit writes at least one journal record and one superblock, got {w}"
    );
    w
}

/// The sweep: cut power on every write ordinal of the commit. Cuts
/// anywhere in the seal phase leave a journal tail no durable
/// superblock covers; the cut on the flip write itself is the
/// "ExtentsDurable reached, Committed not" boundary. In every case
/// recovery must land exactly on the old head with a clean fsck, and
/// the torn checkpoint must not exist.
#[test]
fn every_commit_write_ordinal_is_a_valid_cut_point() {
    let w = commit_write_count();
    for cut in 1..=w {
        let (mut s, c1) = staged_store();
        s.device_mut().install_fault_plan(FaultPlan::power_cut(cut));
        match s.commit(Some("torn")) {
            Ok((c2, _)) => {
                // The cut fired after the durable instant (not expected
                // for any ordinal ≤ w, but tolerated like the existing
                // campaign tests): the new head must survive reboot.
                s.device_mut().install_fault_plan(FaultPlan::default());
                let s = s.recover().unwrap();
                assert_eq!(s.head(), Some(c2), "durable commit survives, cut {cut}");
            }
            Err(_) => {
                let mut s = s.recover().unwrap();
                assert_eq!(s.head(), Some(c1), "old head after cut at write {cut}");
                assert!(
                    s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(1)),
                    "old contents after cut at write {cut}"
                );
                assert!(
                    s.checkpoint_by_name("torn").is_none(),
                    "torn checkpoint invisible after cut at write {cut}"
                );
                assert!(s.fsck().is_empty(), "cut {cut}: {:?}", s.fsck());
            }
        }
    }
}

/// The flip boundary specifically: a power cut on the superblock write
/// (the commit's final ordinal) happens with the journal sealed and the
/// extent barrier flushed — `ExtentsDurable` in token terms. Recovery
/// must replay to the old head, and redoing the whole transaction
/// afterwards must produce the new state: the flip is idempotent with
/// respect to a crash between barrier and superblock.
#[test]
fn cut_on_superblock_flip_then_redo() {
    let w = commit_write_count();
    let (mut s, c1) = staged_store();
    s.device_mut().install_fault_plan(FaultPlan::power_cut(w));
    s.commit(Some("torn")).expect_err("cut on the flip write fails the commit");

    let mut s = s.recover().unwrap();
    s.device_mut().install_fault_plan(FaultPlan::default());
    assert_eq!(s.head(), Some(c1), "flip never became durable");

    // Redo: recovery dropped the staged delta, so stage it again and
    // commit; the journal tail left by the cut run is overwritten.
    s.write_page(ObjId(1), 0, &page(2)).unwrap();
    let (c2, _) = s.commit(Some("redo")).unwrap();
    let mut s = s.recover().unwrap();
    assert_eq!(s.head(), Some(c2), "redone flip is durable");
    assert!(s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(2)));
    assert!(s.fsck().is_empty(), "{:?}", s.fsck());
}

/// A *transient* failure on the flip write aborts with
/// `FlipAbort { submitted: false }`: the commit must roll its journal
/// geometry back so an immediate retry — no recovery, same store —
/// rewrites the same journal offset. Proven by comparing
/// `bytes_journaled` against a fault-free twin running the identical
/// sequence: a retry that double-journaled would diverge.
#[test]
fn transient_flip_failure_retries_at_same_journal_offset() {
    let w = commit_write_count();

    let (mut faulty, c1) = staged_store();
    faulty.device_mut().install_fault_plan(FaultPlan::transient(w, 1));
    faulty.commit(Some("second")).expect_err("transient fault on the flip write");
    assert_eq!(faulty.head(), Some(c1), "failed flip publishes nothing");

    // Retry on the same live store: the staged delta survived the abort.
    let (c2, _) = faulty.commit(Some("second")).unwrap();
    assert_eq!(faulty.head(), Some(c2));

    let (mut clean, _) = staged_store();
    clean.commit(Some("second")).unwrap();
    assert_eq!(
        faulty.stats.bytes_journaled, clean.stats.bytes_journaled,
        "retry rewrote the same journal offset instead of appending twice"
    );

    // And the retried commit is genuinely durable.
    let mut s = faulty.recover().unwrap();
    assert_eq!(s.head(), Some(c2));
    assert!(s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(2)));
}

/// Each successful commit passes through every phase exactly once.
#[test]
fn phase_counters_tick_once_per_commit() {
    let (mut s, _) = staged_store();
    let (seals, barriers, flips) = (
        s.stats.journal_seals,
        s.stats.extent_barriers,
        s.stats.superblock_flips,
    );
    s.commit(None).unwrap();
    assert_eq!(s.stats.journal_seals, seals + 1, "one seal per commit");
    assert_eq!(s.stats.extent_barriers, barriers + 1, "one barrier per commit");
    assert_eq!(s.stats.superblock_flips, flips + 1, "one flip per commit");

    // The baseline itself went through the protocol too: format does
    // not count (it predates the store), so two commits → two of each.
    assert_eq!(s.stats.journal_seals, 2);
    assert_eq!(s.stats.extent_barriers, 2);
    assert_eq!(s.stats.superblock_flips, 2);
}
