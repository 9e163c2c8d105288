//! Differential property test for in-place GC.
//!
//! `ObjectStore::delete_checkpoint` merges a victim into its child by
//! inserting the smaller side's entries into the larger side's maps,
//! and prunes only the delta chains under the heads the merge dropped. Random histories
//! (full writes, sub-page deltas, delete/re-create, chain compaction,
//! GC of random non-head checkpoints, reboots) check after every GC
//! that:
//!
//! * the checkpoint table equals the copy-into-child merge below, kept
//!   here as the reference;
//! * the delta log holds exactly what a full `DeltaLog::prune` from
//!   every surviving head keeps;
//! * every surviving checkpoint still reads the same pages, and the
//!   store audits clean.
//!
//! A reboot replays the journal (deletes included): the recovered table
//! and log must equal the ones in memory before it.
//!
//! CI runs it in release mode with `PROPTEST_CASES=2000`.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::BTreeMap;

use aurora_hw::ModelDev;
use aurora_objstore::{
    Checkpoint, CkptId, DeltaLog, DeltaRecord, Lsn, ObjId, ObjectStore, StoreConfig,
};
use aurora_sim::SimClock;
use aurora_vm::PageData;
use proptest::prelude::*;

const OIDS: u64 = 3;
const PAGES: u64 = 4;
const MAX_CHAIN: u32 = 3;

fn new_store() -> ObjectStore {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 16 * 1024));
    ObjectStore::format(
        dev,
        StoreConfig {
            // Small enough that long histories also replay through
            // compaction snapshots.
            journal_blocks: 64,
            delta_max_chain: MAX_CHAIN,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    /// Full-image write (creates the object on first touch).
    Write { oid: u64, idx: u64, seed: u64 },
    /// One-byte patch: a sub-page delta when the page's chain has room,
    /// a full image of the patched page otherwise.
    Patch { oid: u64, idx: u64, off: u16, byte: u8 },
    /// Delete and re-create in one epoch.
    Recreate { oid: u64 },
    Delete { oid: u64 },
    Commit,
    Compact,
    /// GC the `pick`-th (mod count) non-head checkpoint.
    Gc { pick: u64 },
    Reboot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1..=OIDS, 0..PAGES, any::<u64>())
            .prop_map(|(oid, idx, seed)| Op::Write { oid, idx, seed }),
        6 => (1..=OIDS, 0..PAGES, 0..4096u16, any::<u8>())
            .prop_map(|(oid, idx, off, byte)| Op::Patch { oid, idx, off, byte }),
        1 => (1..=OIDS).prop_map(|oid| Op::Recreate { oid }),
        1 => (1..=OIDS).prop_map(|oid| Op::Delete { oid }),
        5 => Just(Op::Commit),
        1 => Just(Op::Compact),
        4 => any::<u64>().prop_map(|pick| Op::Gc { pick }),
        1 => Just(Op::Reboot),
    ]
}

/// The copy-into-child GC merge: every victim entry the child does not
/// override is copied into the child, one entry at a time. A child that
/// deleted and re-created an object the victim created keeps the new
/// incarnation's pages.
fn reference_merge(table: &mut BTreeMap<u64, Checkpoint>, id: CkptId) {
    let child_id = table
        .values()
        .find(|c| c.parent == Some(id))
        .map(|c| c.id.0);
    let victim = table.remove(&id.0).unwrap();
    let Some(child_id) = child_id else { return };
    let child = table.get_mut(&child_id).unwrap();
    child.parent = victim.parent;
    let masked = |child: &Checkpoint, oid: ObjId| {
        child.deleted_objects.contains(&oid) || child.new_objects.iter().any(|(o, _)| *o == oid)
    };
    for (key, lsn) in victim.deltas {
        if !masked(child, key.0)
            && !child.pages.contains_key(&key)
            && !child.deltas.contains_key(&key)
        {
            child.deltas.insert(key, lsn);
        }
    }
    for (key, ptr) in victim.pages {
        if !masked(child, key.0) && !child.pages.contains_key(&key) {
            child.pages.insert(key, ptr);
        }
    }
    for (k, v) in victim.blobs {
        child.blobs.entry(k).or_insert(v);
    }
    let reborn: Vec<ObjId> = child.new_objects.iter().map(|(o, _)| *o).collect();
    for (oid, size) in victim.new_objects {
        if !child.deleted_objects.contains(&oid) {
            child.new_objects.push((oid, size));
        } else {
            // Born in the victim, deleted in the child. A child that
            // re-created the object keeps the new incarnation's pages.
            child.deleted_objects.retain(|&o| o != oid);
            if !reborn.contains(&oid) {
                child.pages.retain(|(o, _), _| *o != oid);
                child.deltas.retain(|(o, _), _| *o != oid);
            }
        }
    }
    for oid in victim.deleted_objects {
        if !child.deleted_objects.contains(&oid) {
            child.deleted_objects.push(oid);
        }
    }
}

fn table_of(s: &ObjectStore) -> BTreeMap<u64, Checkpoint> {
    s.checkpoints()
        .into_iter()
        .map(|c| (c.id.0, c.clone()))
        .collect()
}

fn log_of(s: &ObjectStore) -> Vec<(Lsn, DeltaRecord)> {
    s.delta_log().iter().map(|(l, r)| (l, r.clone())).collect()
}

/// Table equality on every persistent field (`durable_at` is in-memory
/// bookkeeping and restarts at zero on a reboot).
fn assert_same_table(
    got: &BTreeMap<u64, Checkpoint>,
    want: &BTreeMap<u64, Checkpoint>,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{} ids",
        what
    );
    for (g, w) in got.values().zip(want.values()) {
        let id = g.id.0;
        prop_assert_eq!(g.parent, w.parent, "{} ckpt {} parent", what, id);
        prop_assert_eq!(&g.name, &w.name, "{} ckpt {} name", what, id);
        prop_assert_eq!(
            &g.new_objects,
            &w.new_objects,
            "{} ckpt {} births",
            what,
            id
        );
        prop_assert_eq!(
            &g.deleted_objects,
            &w.deleted_objects,
            "{} ckpt {} deaths",
            what,
            id
        );
        prop_assert_eq!(&g.pages, &w.pages, "{} ckpt {} pages", what, id);
        prop_assert_eq!(&g.deltas, &w.deltas, "{} ckpt {} delta heads", what, id);
        prop_assert_eq!(&g.blobs, &w.blobs, "{} ckpt {} blobs", what, id);
    }
    Ok(())
}

/// Every page of every checkpoint, materialized (`None` = hole).
fn views(s: &mut ObjectStore) -> BTreeMap<(u64, u64, u64), Option<PageData>> {
    let ids: Vec<CkptId> = s.checkpoints().iter().map(|c| c.id).collect();
    let mut out = BTreeMap::new();
    for ck in ids {
        for oid in 1..=OIDS {
            for idx in 0..PAGES {
                let page = s.read_page_at(ck, ObjId(oid), idx).unwrap();
                out.insert((ck.0, oid, idx), page);
            }
        }
    }
    out
}

fn same_page(a: &Option<PageData>, b: &Option<PageData>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.content_eq(y),
        _ => false,
    }
}

fn apply(s: &mut ObjectStore, op: &Op) {
    match *op {
        Op::Write { oid, idx, seed } => {
            let oid = ObjId(oid);
            if !s.object_exists(oid) {
                s.create_object(oid, PAGES).unwrap();
            }
            s.write_page(oid, idx, &PageData::Seeded(seed)).unwrap();
        }
        Op::Patch {
            oid,
            idx,
            off,
            byte,
        } => {
            let oid = ObjId(oid);
            if !s.object_exists(oid) {
                return;
            }
            let Some(cur) = s.read_page(oid, idx).unwrap() else {
                return;
            };
            let off = off as usize % aurora_vm::PAGE_SIZE;
            let new = cur.write(off, &[byte]);
            if s.can_delta(oid, idx).is_some_and(|len| len < MAX_CHAIN) {
                s.stage_delta(oid, idx, &new, &[(off as u32, 1)]).unwrap();
            } else {
                s.write_page(oid, idx, &new).unwrap();
            }
        }
        Op::Recreate { oid } => {
            let oid = ObjId(oid);
            if s.object_exists(oid) {
                s.delete_object(oid).unwrap();
            }
            s.create_object(oid, PAGES).unwrap();
        }
        Op::Delete { oid } => {
            let oid = ObjId(oid);
            if s.object_exists(oid) {
                s.delete_object(oid).unwrap();
            }
        }
        Op::Commit => {
            s.commit(None).unwrap();
        }
        Op::Compact => {
            if !s.has_pending() {
                s.compact_chains().unwrap();
            }
        }
        Op::Gc { .. } | Op::Reboot => {}
    }
}

/// GCs one non-head checkpoint and checks the merge, the prune and
/// every surviving checkpoint's pages against their references.
fn gc_and_check(s: &mut ObjectStore, pick: u64) -> Result<(), TestCaseError> {
    let head = s.head();
    let victims: Vec<CkptId> = s
        .checkpoints()
        .iter()
        .map(|c| c.id)
        .filter(|&id| Some(id) != head)
        .collect();
    let Some(&victim) = victims.get((pick % victims.len().max(1) as u64) as usize) else {
        return Ok(());
    };
    let mut want = table_of(s);
    reference_merge(&mut want, victim);
    let log_before = log_of(s);
    let views_before = views(s);

    s.delete_checkpoint(victim).unwrap();

    assert_same_table(&table_of(s), &want, "GC merge")?;
    let mut full = DeltaLog::default();
    for (lsn, rec) in log_before {
        full.insert(lsn, rec).unwrap();
    }
    full.prune(want.values().flat_map(|c| c.deltas.values().copied()));
    let want_log: Vec<(Lsn, DeltaRecord)> = full.iter().map(|(l, r)| (l, r.clone())).collect();
    prop_assert_eq!(log_of(s), want_log, "delta log after GC of {}", victim.0);
    prop_assert_eq!(s.delta_log().bytes(), full.bytes());

    let views_after = views(s);
    for (key, page) in &views_after {
        let before = views_before.get(key).unwrap();
        prop_assert!(
            same_page(before, page),
            "ckpt/obj/page {:?} changed across GC",
            key
        );
    }
    prop_assert_eq!(s.scrub(), Vec::<String>::new());
    Ok(())
}

/// Commits anything staged, reboots, and checks that the replayed table
/// and delta log equal the ones in memory before the reboot.
fn reboot_and_check(mut s: ObjectStore) -> Result<ObjectStore, TestCaseError> {
    if s.has_pending() {
        s.commit(None).unwrap();
    }
    let (table, log) = (table_of(&s), log_of(&s));
    let s = s.recover().unwrap();
    assert_same_table(&table_of(&s), &table, "reboot")?;
    prop_assert_eq!(log_of(&s), log, "delta log after reboot");
    prop_assert_eq!(s.scrub(), Vec::<String>::new());
    Ok(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gc_matches_the_copy_merge_and_the_full_prune(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let mut s = new_store();
        for op in &ops {
            match *op {
                Op::Gc { pick } => gc_and_check(&mut s, pick)?,
                Op::Reboot => s = reboot_and_check(s)?,
                _ => apply(&mut s, op),
            }
        }
        // Finish with a GC of everything but the head, then a reboot.
        if s.has_pending() {
            s.commit(None).unwrap();
        }
        while s.checkpoints().len() > 1 {
            gc_and_check(&mut s, 0)?;
        }
        reboot_and_check(s)?;
    }
}
