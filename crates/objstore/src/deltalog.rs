//! Sub-page delta records and the per-store delta log.
//!
//! "The log *is* the checkpoint": when an incremental flush finds a page
//! whose dirty footprint is far below 4 KiB, it appends a [`DeltaRecord`]
//! — the dirty byte extents plus a `prev` back-pointer into the page's
//! redo chain — to the journal instead of writing a full page image.
//! Restore materializes such a page lazily: read the chain's base image
//! (a real, refcounted data block) and replay the chain in LSN order.
//!
//! Chain invariants (enforced by [`DeltaLog`] and checked by fsck/scrub):
//!
//! * `prev < lsn` — back-pointers are strictly monotonic, so chains are
//!   acyclic and replay order is simply ascending LSN.
//! * Every record in a chain shares the chain's `base` block pointer; the
//!   block ref is owned by whichever checkpoint's page map carries it,
//!   never by the records themselves.
//! * `chain_len` counts records from the base (head record holds the
//!   chain's length); a full-image write truncates the chain.
//! * Records unreachable from any committed checkpoint's delta heads are
//!   dead. GC prunes the chains under the heads its merge dropped
//!   ([`DeltaLog::prune_chain`]); mount runs the full mark-and-sweep
//!   ([`DeltaLog::prune`]). The journal bytes they occupied are
//!   reclaimed at the next compaction snapshot.

use std::collections::{BTreeMap, HashSet};

use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_vm::PageData;

use crate::{BlockPtr, ObjId};

/// Log sequence number of a delta record (store-wide, monotonic).
pub type Lsn = u64;

/// One sub-page delta: the dirty byte extents a flush captured for a
/// page, chained onto the page's previous delta (or its base image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Object the page belongs to.
    pub oid: ObjId,
    /// Page index within the object.
    pub idx: u64,
    /// Checkpoint epoch that produced this record (informational).
    pub epoch: u64,
    /// The chain's base image: a live, refcounted data block.
    pub base: BlockPtr,
    /// Previous record in this page's redo chain (`None` = first after
    /// the base image). Invariant: `prev < lsn`.
    pub prev: Option<Lsn>,
    /// Records from the base up to and including this one.
    pub chain_len: u32,
    /// Dirty extents: `(byte offset, new bytes)`, applied in order.
    pub extents: Vec<(u32, Vec<u8>)>,
}

impl DeltaRecord {
    /// Encodes the record (journal payload format).
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.oid.0);
        e.varint(self.idx);
        e.varint(self.epoch);
        e.varint(self.base.0);
        e.option(self.prev.as_ref(), |e, p| e.varint(*p));
        e.varint(self.chain_len as u64);
        e.varint(self.extents.len() as u64);
        for (off, bytes) in &self.extents {
            e.varint(*off as u64);
            e.bytes(bytes);
        }
    }

    /// Decodes a record from a journal payload.
    pub fn decode(d: &mut Decoder<'_>) -> Result<DeltaRecord> {
        let oid = ObjId(d.u64()?);
        let idx = d.varint()?;
        let epoch = d.varint()?;
        let base = BlockPtr(d.varint()?);
        let prev = d.option(|d| d.varint())?;
        let chain_len = d.varint()? as u32;
        let nextents = d.varint()? as usize;
        let mut extents = Vec::with_capacity(nextents.min(64));
        for _ in 0..nextents {
            let off = d.varint()? as u32;
            let bytes = d.bytes()?.to_vec();
            if off as usize + bytes.len() > aurora_vm::PAGE_SIZE {
                return Err(Error::corrupt("delta extent past page end"));
            }
            extents.push((off, bytes));
        }
        Ok(DeltaRecord { oid, idx, epoch, base, prev, chain_len, extents })
    }

    /// Encoded size in bytes (what the record costs in the journal).
    pub fn encoded_len(&self) -> usize {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.finish().len()
    }

    /// Total dirty payload bytes across the record's extents.
    pub fn payload_bytes(&self) -> usize {
        self.extents.iter().map(|(_, b)| b.len()).sum()
    }

    /// Applies the record's extents on top of `page`.
    pub fn apply(&self, page: &PageData) -> PageData {
        let mut out = page.clone();
        for (off, bytes) in &self.extents {
            out = out.write(*off as usize, bytes);
        }
        out
    }
}

/// The in-memory delta-record table, rebuilt from the journal on
/// recovery. Records are committed only by a sealed journal write (the
/// same typestate path as checkpoint metadata), so a torn commit drops a
/// checkpoint and its delta records together.
#[derive(Debug, Default)]
pub struct DeltaLog {
    records: BTreeMap<Lsn, DeltaRecord>,
    next_lsn: Lsn,
    /// Encoded bytes of all live records (journal footprint accounting).
    bytes: u64,
}

impl DeltaLog {
    /// Next LSN to be assigned.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Encoded bytes of all live records.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Looks up a record.
    pub fn get(&self, lsn: Lsn) -> Option<&DeltaRecord> {
        self.records.get(&lsn)
    }

    /// Inserts a committed record at an explicit LSN (commit apply and
    /// journal replay). Enforces `prev < lsn` monotonicity.
    pub fn insert(&mut self, lsn: Lsn, rec: DeltaRecord) -> Result<()> {
        if let Some(p) = rec.prev {
            if p >= lsn {
                return Err(Error::corrupt(format!(
                    "delta chain back-pointer not monotonic: prev {p} >= lsn {lsn}"
                )));
            }
        }
        self.bytes += rec.encoded_len() as u64;
        self.records.insert(lsn, rec);
        self.next_lsn = self.next_lsn.max(lsn + 1);
        Ok(())
    }

    /// The records of the chain ending at `head`, base-first (ascending
    /// LSN). Errors on a dangling back-pointer or when the walk does not
    /// match the head's `chain_len` exactly — either direction means the
    /// log lost or fabricated records.
    pub fn chain(&self, head: Lsn) -> Result<Vec<&DeltaRecord>> {
        let mut out = Vec::new();
        self.walk(head, |rec| out.push(rec))?;
        out.reverse();
        Ok(out)
    }

    /// The base image of the chain ending at `head`: the same walk and
    /// integrity checks as [`DeltaLog::chain`], without collecting the
    /// records.
    pub fn chain_base(&self, head: Lsn) -> Result<BlockPtr> {
        let mut base = None;
        self.walk(head, |rec| base = Some(rec.base))?;
        base.ok_or_else(|| Error::corrupt(format!("delta chain at lsn {head} is empty")))
    }

    /// Visits the chain ending at `head`, head first, checking every
    /// back-pointer and the head's `chain_len`.
    fn walk<'a>(&'a self, head: Lsn, mut visit: impl FnMut(&'a DeltaRecord)) -> Result<()> {
        let expected = self
            .records
            .get(&head)
            .ok_or_else(|| Error::corrupt(format!("delta head {head} missing from log")))?
            .chain_len as usize;
        if expected == 0 {
            return Err(Error::corrupt(format!("delta head {head} has chain_len 0")));
        }
        let mut walked = 0usize;
        let mut cur = Some(head);
        while let Some(lsn) = cur {
            let rec = self.records.get(&lsn).ok_or_else(|| {
                Error::corrupt(format!("delta chain references missing lsn {lsn}"))
            })?;
            if walked >= expected {
                return Err(Error::corrupt("delta chain longer than its chain_len"));
            }
            walked += 1;
            visit(rec);
            cur = rec.prev;
        }
        if walked != expected {
            return Err(Error::corrupt(format!(
                "delta chain at {head} has {walked} records, chain_len says {expected}"
            )));
        }
        Ok(())
    }

    /// Length of the chain ending at `head` per its head record.
    pub fn chain_len(&self, head: Lsn) -> Result<u32> {
        self.records
            .get(&head)
            .map(|r| r.chain_len)
            .ok_or_else(|| Error::corrupt(format!("delta head {head} missing from log")))
    }

    /// Materializes a page: applies the chain ending at `head` (base
    /// image first, then ascending LSN) on top of `base`.
    pub fn materialize(&self, base: &PageData, head: Lsn) -> Result<PageData> {
        let mut page = base.clone();
        for rec in self.chain(head)? {
            page = rec.apply(&page);
        }
        Ok(page)
    }

    /// Every record reachable from `heads` by walking `prev` chains.
    pub(crate) fn reachable(&self, heads: impl IntoIterator<Item = Lsn>) -> HashSet<Lsn> {
        let mut live = HashSet::new();
        let mut stack: Vec<Lsn> = heads.into_iter().collect();
        while let Some(lsn) = stack.pop() {
            if !live.insert(lsn) {
                continue;
            }
            if let Some(rec) = self.records.get(&lsn) {
                if let Some(p) = rec.prev {
                    stack.push(p);
                }
            }
        }
        live
    }

    /// Drops every record unreachable from `heads` (walking `prev`
    /// chains): the full mark-and-sweep recovery runs at mount. Returns
    /// `(records, bytes)` reclaimed.
    pub fn prune(&mut self, heads: impl IntoIterator<Item = Lsn>) -> (usize, u64) {
        let live = self.reachable(heads);
        // Dead chain segments: their journal bytes are reclaimed at the
        // next compaction snapshot.
        let dead: Vec<Lsn> =
            self.records.keys().copied().filter(|l| !live.contains(l)).collect();
        let mut freed = 0u64;
        for lsn in &dead {
            if let Some(rec) = self.records.remove(lsn) {
                freed += rec.encoded_len() as u64;
            }
        }
        self.bytes -= freed;
        (dead.len(), freed)
    }

    /// Drops the chain under a dropped head `head`, down to the first
    /// record one of `keep` (the surviving heads of the same page) still
    /// reaches: below that point the whole chain stays live. Costs the
    /// length of the chains involved, not the size of the log — the GC
    /// path's prune. Returns `(records, bytes)` reclaimed.
    pub fn prune_chain(&mut self, head: Lsn, keep: &[Lsn]) -> (usize, u64) {
        let kept = self.reachable(keep.iter().copied());
        let (mut dropped, mut freed) = (0usize, 0u64);
        let mut cur = Some(head);
        while let Some(lsn) = cur.filter(|l| !kept.contains(l)) {
            let Some(rec) = self.records.remove(&lsn) else { break };
            dropped += 1;
            freed += rec.encoded_len() as u64;
            cur = rec.prev;
        }
        self.bytes -= freed;
        (dropped, freed)
    }

    /// All live records, ascending LSN (compaction snapshots carry them).
    pub fn iter(&self) -> impl Iterator<Item = (Lsn, &DeltaRecord)> {
        self.records.iter().map(|(l, r)| (*l, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(prev: Option<Lsn>, chain_len: u32, extents: Vec<(u32, Vec<u8>)>) -> DeltaRecord {
        DeltaRecord {
            oid: ObjId(7),
            idx: 3,
            epoch: 11,
            base: BlockPtr(42),
            prev,
            chain_len,
            extents,
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = rec(Some(5), 2, vec![(0, vec![1, 2, 3]), (4090, vec![9; 6])]);
        let mut e = Encoder::new();
        r.encode(&mut e);
        let bytes = e.finish();
        let out = DeltaRecord::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(out, r);
        assert_eq!(r.encoded_len(), bytes.len());
        assert_eq!(r.payload_bytes(), 9);
    }

    #[test]
    fn extent_past_page_end_rejected() {
        let r = rec(None, 1, vec![(4094, vec![0; 8])]);
        let mut e = Encoder::new();
        // Encode bypasses validation; decode must reject.
        e.u64(r.oid.0);
        e.varint(r.idx);
        e.varint(r.epoch);
        e.varint(r.base.0);
        e.option(r.prev.as_ref(), |e, p| e.varint(*p));
        e.varint(r.chain_len as u64);
        e.varint(1);
        e.varint(4094);
        e.bytes(&[0; 8]);
        let bytes = e.finish();
        assert!(DeltaRecord::decode(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn chain_materializes_in_lsn_order() {
        let mut log = DeltaLog::default();
        // Two records writing the same offset: the later one must win.
        log.insert(1, rec(None, 1, vec![(0, vec![1, 1])])).unwrap();
        log.insert(4, rec(Some(1), 2, vec![(1, vec![7]), (100, vec![3])])).unwrap();
        let base = PageData::Zero;
        let page = log.materialize(&base, 4).unwrap();
        let mut buf = [0u8; 4];
        page.read(0, &mut buf);
        assert_eq!(buf, [1, 7, 0, 0]);
        let mut b1 = [0u8; 1];
        page.read(100, &mut b1);
        assert_eq!(b1, [3]);
        assert_eq!(log.chain_len(4).unwrap(), 2);
        assert_eq!(log.next_lsn(), 5);
    }

    #[test]
    fn monotonicity_enforced() {
        let mut log = DeltaLog::default();
        assert!(log.insert(3, rec(Some(3), 2, vec![])).is_err());
        assert!(log.insert(3, rec(Some(9), 2, vec![])).is_err());
        assert!(log.insert(3, rec(Some(2), 2, vec![])).is_ok());
    }

    #[test]
    fn dangling_chain_detected() {
        let mut log = DeltaLog::default();
        log.insert(2, rec(Some(1), 2, vec![])).unwrap();
        assert!(log.materialize(&PageData::Zero, 2).is_err());
    }

    #[test]
    fn long_chains_walk_cleanly() {
        // Regression: the walk bound must compare against the *head's*
        // chain_len, not each record's own (which shrinks toward the
        // base) — the old check rejected every chain of length >= 4.
        let mut log = DeltaLog::default();
        log.insert(1, rec(None, 1, vec![(0, vec![1])])).unwrap();
        for i in 2..=8u64 {
            log.insert(i, rec(Some(i - 1), i as u32, vec![(i as u32, vec![i as u8])]))
                .unwrap();
        }
        assert_eq!(log.chain(8).unwrap().len(), 8);
        assert!(log.materialize(&PageData::Zero, 8).is_ok());
        // A head whose chain_len undercounts the walk is corrupt.
        log.insert(20, rec(Some(8), 2, vec![])).unwrap();
        assert!(log.chain(20).is_err());
    }

    /// `chain_base` must agree with `chain` on every chain: the same
    /// base when the chain is sound, the same error text when not.
    fn assert_chain_check_agrees(log: &DeltaLog, head: Lsn) {
        let full = log.chain(head).map(|c| c.first().map(|r| r.base));
        let walk = log.chain_base(head).map(Some);
        match (full, walk) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "head {head}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "head {head}"),
            (a, b) => panic!("head {head}: chain() {a:?}, chain_base() {b:?}"),
        }
    }

    #[test]
    fn chain_base_matches_chain() {
        let mut log = DeltaLog::default();
        // Sound chain of three over base block 42.
        log.insert(1, rec(None, 1, vec![])).unwrap();
        log.insert(2, rec(Some(1), 2, vec![])).unwrap();
        log.insert(3, rec(Some(2), 3, vec![])).unwrap();
        assert_eq!(log.chain_base(3).unwrap(), BlockPtr(42));
        // Short: the head claims four records, the walk finds three.
        log.insert(4, rec(Some(3), 5, vec![])).unwrap();
        // Over-long: the head claims two, the walk finds four.
        log.insert(5, rec(Some(3), 2, vec![])).unwrap();
        // chain_len 0.
        log.insert(6, rec(None, 0, vec![])).unwrap();
        // Dangling back-pointer.
        log.insert(8, rec(Some(7), 2, vec![])).unwrap();
        for head in [1, 2, 3, 4, 5, 6, 8, 9] {
            assert_chain_check_agrees(&log, head);
        }
        // Missing head (9) and each broken shape really is an error.
        for head in [4, 5, 6, 8, 9] {
            assert!(log.chain_base(head).is_err(), "head {head}");
        }
    }

    #[test]
    fn prune_chain_stops_where_a_surviving_head_reaches() {
        let mut log = DeltaLog::default();
        // 1 <- 2 <- 3 (dropped head), and a surviving head 4 over 2.
        log.insert(1, rec(None, 1, vec![(0, vec![1])])).unwrap();
        log.insert(2, rec(Some(1), 2, vec![(1, vec![2])])).unwrap();
        log.insert(3, rec(Some(2), 3, vec![(2, vec![3])])).unwrap();
        log.insert(4, rec(Some(2), 3, vec![(3, vec![4])])).unwrap();
        let before = log.bytes();
        let (dropped, freed) = log.prune_chain(3, &[4]);
        assert_eq!(dropped, 1);
        assert_eq!(log.bytes(), before - freed);
        assert!(log.get(3).is_none());
        assert!(log.get(1).is_some() && log.get(2).is_some() && log.get(4).is_some());
        // With no survivor the whole chain goes.
        let (dropped, _) = log.prune_chain(4, &[]);
        assert_eq!(dropped, 3);
        assert!(log.is_empty());
        assert_eq!(log.bytes(), 0);
    }

    #[test]
    fn prune_keeps_reachable_chains() {
        let mut log = DeltaLog::default();
        log.insert(1, rec(None, 1, vec![(0, vec![1])])).unwrap();
        log.insert(2, rec(Some(1), 2, vec![(1, vec![2])])).unwrap();
        log.insert(3, rec(None, 1, vec![(2, vec![3])])).unwrap();
        let total = log.bytes();
        assert!(total > 0);
        let (dropped, freed) = log.prune([2]);
        assert_eq!(dropped, 1);
        assert!(freed > 0);
        assert_eq!(log.len(), 2);
        assert!(log.get(1).is_some() && log.get(2).is_some() && log.get(3).is_none());
        // next_lsn is not rewound by pruning.
        assert_eq!(log.next_lsn(), 4);
    }
}
