//! Runtime lock-order verification (lockdep).
//!
//! Every in-process lock is an [`OrderedMutex`] or [`OrderedRwLock`]
//! carrying a *rank* from the hierarchy declared in `lint-allow.toml`
//! (`[locks] order`, outermost first). `aurora-lint` checks nesting
//! statically; this module is the runtime half: in debug builds each
//! acquisition records an edge `held → acquired` in a global graph and
//! panics *before* closing a cycle, so an inverted order trips the very
//! first time it executes — even when the two halves of the inversion
//! run on different threads and never actually deadlock in the test.
//!
//! Release builds compile the wrappers down to plain `std::sync` locks
//! with no tracking.
//!
//! This is the only module allowed to name `std::sync::Mutex` /
//! `RwLock` directly; everywhere else `aurora-lint` rejects raw locks
//! (`raw-lock` check) so new locks must come through here and carry a
//! rank.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

// Ranks for the declared hierarchy, outermost first. These mirror the
// index of each name in `lint-allow.toml [locks] order`; `aurora-lint`
// cross-checks the static nesting against the same table.

/// Rank of the fleet scheduler's barrier/commit-lock registry. Held
/// only long enough to look up (or mint) a group's barrier or a
/// store's commit lock, never across a capture or a flush — but the
/// lookup happens before the per-group barrier is taken, so it must
/// rank outermost.
pub const RANK_FLEET_REGISTRY: u32 = 0;
/// Rank of the fleet scheduler's per-tenant health table (fault
/// domains: health state, failure counters, re-admission probes). The
/// admission gate consults it *before* a cycle takes its group
/// barrier, and cycle verdicts are recorded after the barrier is
/// released, so it ranks between the registry and the barriers and is
/// never held across a capture or flush.
pub const RANK_TENANT_HEALTH: u32 = 1;
/// Rank of a per-group checkpoint barrier. One instance exists per
/// `GroupId`; it covers only the stop-the-group capture and the
/// group's own flush/restore bookkeeping, so cycles of *different*
/// groups pipeline instead of serializing on a global lock. All
/// instances share this rank (same-rank acquisitions are sibling
/// instances, never re-entry on one lock).
pub const RANK_GROUP_BARRIER: u32 = 2;
/// Rank of a per-store commit lock. Taken inside a group barrier for
/// the duration of one typestate commit, so a store shared by several
/// groups still sees exactly one `seal → barrier → flip` sequence at a
/// time even when their cycles overlap.
pub const RANK_STORE_COMMIT: u32 = 3;
/// Rank of the parallel flush pipeline's shard-result collector. The
/// driving thread holds its group's `group_barrier` while it gathers
/// hashed shards, so this must rank inside the barrier; workers take
/// it with nothing else held.
pub const RANK_FLUSH_SHARD: u32 = 4;
/// Rank of the parallel restore pipeline's shard-result collector.
/// Mirrors `flush_shard`: the driving thread serializes batched
/// restores on the target group's `group_barrier`, workers take this
/// with nothing held.
pub const RANK_RESTORE_SHARD: u32 = 5;
/// Rank of the object store's shared page cache. The restore read
/// pipeline takes it while the barrier is held; nothing but metrics
/// may nest inside.
pub const RANK_PAGE_CACHE: u32 = 6;
/// Rank of the global metrics registry (innermost: any path may record
/// counters while holding anything else).
pub const RANK_METRICS: u32 = 7;

/// A mutex that participates in lock-order verification.
pub struct OrderedMutex<T> {
    rank: u32,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a new ordered mutex with the given hierarchy rank.
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        OrderedMutex { rank, name, inner: Mutex::new(value) }
    }

    /// This lock's hierarchy rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// This lock's hierarchy name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, verifying order against every lock currently
    /// held by this thread (debug builds only).
    ///
    /// A poisoned mutex is recovered rather than propagated: lockdep
    /// panics *instead of* deadlocking, and the state under these locks
    /// (counters, a unit barrier) stays coherent across an unwind.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = tracking::acquire(self.rank, self.name);
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        OrderedMutexGuard { guard, _token: token }
    }

    /// Exclusive access through `&mut self`: no locking, no hierarchy
    /// slot — the borrow checker already proves no other holder exists.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T> std::fmt::Debug for OrderedMutex<T> {
    /// Name and rank only: printing never acquires the lock, so a
    /// `Debug` dump can never deadlock or perturb the edge graph.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Guard for [`OrderedMutex`]; releases the hierarchy slot on drop.
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _token: tracking::HeldToken,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An rwlock that participates in lock-order verification. Readers and
/// writers occupy the same hierarchy slot: lock order is about *where*
/// in the descent a lock sits, not the access mode.
pub struct OrderedRwLock<T> {
    rank: u32,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates a new ordered rwlock with the given hierarchy rank.
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        OrderedRwLock { rank, name, inner: RwLock::new(value) }
    }

    /// This lock's hierarchy rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// This lock's hierarchy name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires shared access, verifying lock order.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let token = tracking::acquire(self.rank, self.name);
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        OrderedReadGuard { guard, _token: token }
    }

    /// Acquires exclusive access, verifying lock order.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let token = tracking::acquire(self.rank, self.name);
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        OrderedWriteGuard { guard, _token: token }
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _token: tracking::HeldToken,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _token: tracking::HeldToken,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
mod tracking {
    //! The debug-build edge graph.
    //!
    //! `HELD` is this thread's acquisition stack. `EDGES` is the global
    //! directed graph of observed `held → acquired` pairs, accumulated
    //! across all threads for the process lifetime. Acquiring `b` while
    //! holding `a` first asks whether `a` is already reachable *from*
    //! `b`; if so the new edge would close a cycle and we panic before
    //! inserting it, so the graph itself stays acyclic and later
    //! acquisitions keep getting accurate answers.

    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::Mutex;

    thread_local! {
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    static EDGES: Mutex<Option<HashMap<u32, HashSet<u32>>>> = Mutex::new(None);

    /// Is `to` reachable from `from` by following recorded edges?
    fn reachable(edges: &HashMap<u32, HashSet<u32>>, from: u32, to: u32) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Records the acquisition of `(rank, name)`, panicking if any edge
    /// it implies would close a cycle in the global graph.
    pub fn acquire(rank: u32, name: &'static str) -> HeldToken {
        HELD.with(|held| {
            let held = held.borrow();
            if held.is_empty() {
                return;
            }
            let mut edges = match EDGES.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let edges = edges.get_or_insert_with(HashMap::new);
            for &(h_rank, h_name) in held.iter() {
                if h_rank == rank {
                    continue;
                }
                if reachable(edges, rank, h_rank) {
                    panic!(
                        "lock order violation: acquiring `{name}` (rank {rank}) while \
                         holding `{h_name}` (rank {h_rank}), but `{name}` → `{h_name}` \
                         is already an established order"
                    );
                }
                edges.entry(h_rank).or_default().insert(rank);
            }
        });
        HELD.with(|held| held.borrow_mut().push((rank, name)));
        HeldToken { rank }
    }

    /// Marks one slot on the thread's held stack; popping on drop keeps
    /// the stack accurate across early returns and unwinds.
    pub struct HeldToken {
        rank: u32,
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(r, _)| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod tracking {
    //! Release builds: no tracking, zero overhead.

    pub fn acquire(_rank: u32, _name: &'static str) -> HeldToken {
        HeldToken
    }

    pub struct HeldToken;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Test locks use ranks far above the real hierarchy so the edges
    // they record never interact with production ranks (the edge graph
    // is global for the process, shared across tests).

    #[test]
    fn in_order_nesting_is_clean() {
        static A: OrderedMutex<u32> = OrderedMutex::new(200, "test_a", 0);
        static B: OrderedMutex<u32> = OrderedMutex::new(201, "test_b", 0);
        let mut ga = A.lock();
        let mut gb = B.lock();
        *ga += 1;
        *gb += 1;
    }

    #[test]
    fn inverted_order_panics() {
        static A: OrderedMutex<()> = OrderedMutex::new(210, "inv_a", ());
        static B: OrderedMutex<()> = OrderedMutex::new(211, "inv_b", ());
        // Establish A → B.
        {
            let _ga = A.lock();
            let _gb = B.lock();
        }
        // B → A would close the cycle.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _gb = B.lock();
            let _ga = A.lock();
        }));
        let err = result.expect_err("inverted acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock order violation"), "unexpected panic: {msg}");
        // The offending edge was never inserted: the original order
        // still works.
        let _ga = A.lock();
        let _gb = B.lock();
    }

    #[test]
    fn rwlock_modes_share_a_slot() {
        static R: OrderedRwLock<u32> = OrderedRwLock::new(220, "test_rw", 7);
        static M: OrderedMutex<()> = OrderedMutex::new(221, "test_rw_inner", ());
        {
            let g = R.read();
            let _m = M.lock();
            assert_eq!(*g, 7);
        }
        {
            let mut g = R.write();
            *g += 1;
        }
        assert_eq!(*R.read(), 8);
    }

    #[test]
    fn guard_drop_releases_slot_on_unwind() {
        static A: OrderedMutex<()> = OrderedMutex::new(230, "unwind_a", ());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _ga = A.lock();
            panic!("boom");
        }));
        // The held stack popped during the unwind; re-acquisition from
        // this thread is clean (and the poisoned mutex is recovered).
        let _ga = A.lock();
    }

    #[test]
    fn real_hierarchy_registers_cleanly() {
        // The production descent: registry outermost, then a group
        // barrier, a store commit lock, metrics innermost.
        static REGISTRY: OrderedMutex<()> =
            OrderedMutex::new(RANK_FLEET_REGISTRY, "fleet_registry", ());
        static BARRIER: OrderedMutex<()> =
            OrderedMutex::new(RANK_GROUP_BARRIER, "group_barrier", ());
        static COMMIT: OrderedMutex<()> =
            OrderedMutex::new(RANK_STORE_COMMIT, "store_commit", ());
        static METRICS: OrderedMutex<u64> = OrderedMutex::new(RANK_METRICS, "metrics", 0);
        {
            let _r = REGISTRY.lock();
        }
        let _b = BARRIER.lock();
        let _c = COMMIT.lock();
        let mut m = METRICS.lock();
        *m += 1;
        assert_eq!(REGISTRY.rank(), 0);
        assert_eq!(BARRIER.rank(), 2);
        assert_eq!(COMMIT.rank(), 3);
        assert_eq!(METRICS.name(), "metrics");
    }

    #[test]
    fn sibling_instances_share_a_rank_cleanly() {
        // Two distinct per-group barriers carry the same rank; holding
        // one while a *different* group's cycle runs must not trip the
        // checker (same-rank pairs record no edge).
        static GA: OrderedMutex<()> = OrderedMutex::new(RANK_GROUP_BARRIER, "group_barrier", ());
        static GB: OrderedMutex<()> = OrderedMutex::new(RANK_GROUP_BARRIER, "group_barrier", ());
        let _a = GA.lock();
        let _b = GB.lock();
    }
}
