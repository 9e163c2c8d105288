//! Seeded crash campaigns: randomized fault schedules driven through a
//! checkpoint → crash → recover → restore loop.
//!
//! A campaign expands one seed into hundreds of fault schedules (see
//! [`aurora_hw::fault::FaultPlan::random`]) and runs each against a
//! fresh host. Every schedule checkpoints a small workload under
//! injected power cuts, transient I/O errors and latency spikes, then
//! crashes the machine and checks two invariants after recovery:
//!
//! 1. **Consistency** — [`aurora_objstore::ObjectStore::scrub`] reports
//!    no problems: metadata is intact and every page of every surviving
//!    checkpoint matches its recorded content hash.
//! 2. **Atomicity** — every checkpoint that survived recovery restores
//!    to exactly the memory state captured at its barrier; recovery
//!    never surfaces a torn or mixed state.
//!
//! The harness records the expected state *before* each checkpoint
//! attempt: a crash can land after the commit record but before the
//! call returns, so a checkpoint may be durable even though the caller
//! saw an abort. Whatever subset of attempts survives, each survivor
//! must match its recorded state bit-for-bit.
//!
//! Faults are armed only while the workload runs; the plan is cleared
//! before each simulated reboot so recovery and verification execute on
//! healthy hardware (the model for "the operator replaced the cable").
//!
//! The randomized campaign and every exhaustive sweep run through one
//! ordinal-sweep harness ([`sweep`]), so every crash state passes
//! through the same outcome tally, the same recovery checks and the
//! same fault-free-twin comparison.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Display;
use std::rc::Rc;

use aurora_hw::{
    BlockDev, DevHealth, FaultPlan, FaultRates, LinkFaultRates, MirrorDev, ModelDev, ReplicaState,
    ResilientDev,
};
use aurora_objstore::{CkptId, ObjectStore, StoreConfig};
use aurora_posix::Pid;
use aurora_sim::error::{Error, ErrorKind, Result};
use aurora_sim::hash::fnv64;
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;
use aurora_slsfs::StoreHandle;

use crate::fleet::TenantHealth;
use crate::replicate::{promote_to_host, ReplConfig};
use crate::restore::RestoreMode;
use crate::{CheckpointBreakdown, CheckpointOutcome, GroupId, Host};

/// Golden-ratio multiplier for deriving per-schedule seeds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Parameters of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; schedule `i` uses `seed ^ (i * GOLDEN)`.
    pub seed: u64,
    /// Number of independent fault schedules to run.
    pub schedules: u64,
    /// Checkpoint rounds per schedule (round 0 is a fault-free
    /// baseline so recovery always has a durable state to land on).
    pub rounds: u32,
    /// Fault rates applied from round 1 onward.
    pub rates: FaultRates,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xa070_5175,
            schedules: 200,
            rounds: 6,
            rates: FaultRates::flaky(),
        }
    }
}

/// Aggregate results of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Schedules completed.
    pub schedules: u64,
    /// Checkpoints that committed (including degraded-to-full).
    pub committed: u64,
    /// Checkpoints that degraded from incremental to full.
    pub degraded: u64,
    /// Checkpoints that committed with a degraded mirror (a replica
    /// detached, rebuilding, or unhealthy).
    pub degraded_mirror: u64,
    /// Checkpoints aborted by exhausted retries or a dead device.
    pub aborted: u64,
    /// Simulated whole-machine crashes (and recoveries).
    pub crashes: u64,
    /// Surviving checkpoints restored and compared against their
    /// recorded expected state.
    pub restores_verified: u64,
    /// Transient write errors absorbed by retries across all schedules.
    pub transient_absorbed: u64,
    /// Writes that needed at least one retry across all schedules.
    pub writes_retried: u64,
    /// Mirror read failovers (a preferred replica failed mid-read and a
    /// twin served the data) across all schedules.
    pub failovers: u64,
    /// Blocks the mirror rewrote from a twin during read repair.
    pub read_repairs: u64,
    /// Invariant violations; empty means the campaign passed.
    pub violations: Vec<String>,
}

impl CampaignReport {
    /// True when no schedule violated an invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs and the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} schedules: {} committed ({} degraded, {} degraded-mirror), \
             {} aborted, {} crashes, {} restores verified, \
             {} transient errors absorbed, {} violations",
            self.schedules,
            self.committed,
            self.degraded,
            self.degraded_mirror,
            self.aborted,
            self.crashes,
            self.restores_verified,
            self.transient_absorbed,
            self.violations.len()
        )
    }
}

/// Reads the campaign size from `AURORA_CRASH_ITERS`, falling back to
/// `default`. CI runs a short fixed-seed campaign on every push and
/// scales up through this variable on nightly runs.
pub fn schedules_from_env(default: u64) -> u64 {
    std::env::var("AURORA_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------------------
// The ordinal-sweep harness.

/// Expected memory state per checkpoint name: the bytes at the arena's
/// start, recorded *before* each attempt (the commit record may survive
/// a crash mid-call).
type Expected = HashMap<String, Vec<u8>>;

/// Full-arena digest of every workload checkpoint of a fault-free twin
/// run, keyed by checkpoint name.
type TwinDigests = HashMap<String, u64>;

/// One ordinal of a sweep: the label its violations carry
/// (`"<sweep> <ordinal>"`) and the sweep's report.
struct Trial<'r> {
    label: String,
    report: &'r mut CampaignReport,
}

/// Runs one sweep: a `label`, the `ordinals` it walks, a fault-free
/// `twin` built once before the first ordinal ([`no_twin`] when the
/// sweep compares against recorded state only) and a per-ordinal
/// `body`.
///
/// An `Err` from one ordinal's body is recorded as
/// `"<label> <n>: harness error: …"` and the sweep moves on, so one bad
/// ordinal cannot hide the rest; every ordinal counts as a schedule. A
/// twin that fails or records a violation ends the sweep before any
/// ordinal runs — there would be nothing sound to compare against. The
/// twin's own checkpoints are not tallied.
fn sweep<O: Copy + Display, T>(
    label: &str,
    ordinals: impl IntoIterator<Item = O>,
    twin: impl FnOnce(&mut Trial<'_>) -> Result<T>,
    mut body: impl FnMut(&mut Trial<'_>, O, &T) -> Result<()>,
) -> CampaignReport {
    let mut report = CampaignReport::default();
    let mut scratch = CampaignReport::default();
    let twin = twin(&mut Trial {
        label: format!("{label} twin"),
        report: &mut scratch,
    });
    report.violations.append(&mut scratch.violations);
    let twin = match twin {
        Ok(t) if report.passed() => t,
        Ok(_) => return report,
        Err(e) => {
            report
                .violations
                .push(format!("{label} twin: harness error: {e}"));
            return report;
        }
    };
    for n in ordinals {
        let mut trial = Trial {
            label: format!("{label} {n}"),
            report: &mut report,
        };
        if let Err(e) = body(&mut trial, n, &twin) {
            trial.violation(format_args!("harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// The twin of a sweep that checks survivors against recorded state only.
fn no_twin(_: &mut Trial<'_>) -> Result<()> {
    Ok(())
}

impl Trial<'_> {
    /// Records an invariant violation under this ordinal's label.
    fn violation(&mut self, what: impl Display) {
        self.report
            .violations
            .push(format!("{}: {what}", self.label));
    }

    /// Tallies one checkpoint outcome.
    fn tally(&mut self, outcome: CheckpointOutcome) {
        let r = &mut *self.report;
        if !outcome.committed() {
            r.aborted += 1;
            return;
        }
        r.committed += 1;
        r.degraded += u64::from(outcome == CheckpointOutcome::DegradedToFull);
        r.degraded_mirror += u64::from(outcome == CheckpointOutcome::DegradedMirror);
    }

    /// Tallies checkpoint attempt `name`. An error counts as an abort;
    /// it is a violation unless `crashed` says the attempt's device died
    /// under it (a cut that lands mid-call is the machine crashing, not
    /// an error to report).
    fn record(
        &mut self,
        name: &str,
        res: Result<CheckpointBreakdown>,
        crashed: bool,
    ) -> Option<CheckpointBreakdown> {
        match res {
            Ok(bd) => {
                self.tally(bd.outcome);
                Some(bd)
            }
            Err(e) => {
                self.report.aborted += 1;
                if !crashed {
                    self.violation(format_args!("checkpoint {name} error on live device: {e}"));
                }
                None
            }
        }
    }

    /// Takes serial checkpoint `name` of `gid` and records it; a
    /// committed checkpoint advances the clock to its durability point.
    fn checkpoint(
        &mut self,
        host: &mut Host,
        gid: GroupId,
        full: bool,
        name: &str,
    ) -> Option<CheckpointBreakdown> {
        let res = host.checkpoint(gid, full, Some(name));
        let bd = self.record(name, res, dead(&host.sls.primary))?;
        if bd.outcome.committed() {
            host.clock.advance_to(bd.durable_at);
        }
        Some(bd)
    }

    /// Takes the fault-free full baseline `r0` and returns its id; the
    /// ordinal cannot go on without it.
    fn baseline(&mut self, host: &mut Host, gid: GroupId) -> Result<CkptId> {
        self.checkpoint(host, gid, true, "r0")
            .and_then(|bd| bd.ckpt)
            .ok_or_else(|| Error::internal("baseline did not commit"))
    }

    /// Disarms the primary's faults, crashes and reboots the machine,
    /// and checks both campaign invariants on the recovered host.
    fn crash_and_verify(&mut self, host: Host, addr: u64, expected: &Expected) -> Result<Host> {
        arm(&host, FaultPlan::default());
        let mut host = host.crash_and_reboot()?;
        self.report.crashes += 1;
        self.verify_recovered(&mut host, addr, expected);
        Ok(host)
    }

    /// Checks both campaign invariants on a freshly recovered host.
    fn verify_recovered(&mut self, host: &mut Host, addr: u64, expected: &Expected) {
        let store = host.sls.primary.clone();

        // Invariant 1: the recovered store is internally consistent and
        // every surviving page matches its recorded hash.
        let problems = store.borrow_mut().scrub();
        if !problems.is_empty() {
            self.violation(format_args!(
                "scrub found {} problem(s) after recovery: {}",
                problems.len(),
                problems.join("; ")
            ));
        }

        // Invariant 2: every surviving checkpoint restores to exactly the
        // state recorded at its barrier.
        for (id, name) in named(&store) {
            let Some(want) = expected.get(&name) else {
                // Internal checkpoints (e.g. SLSFS bookkeeping) are not part
                // of the workload; scrub already validated their contents.
                continue;
            };
            match restore_read(host, &store, id, RestoreMode::Eager, addr, want.len()) {
                Ok(got) if &got == want => self.report.restores_verified += 1,
                Ok(got) => self.violation(format_args!(
                    "checkpoint {name} restored {:?}, expected {:?}",
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(want)
                )),
                Err(e) => self.violation(format_args!(
                    "surviving checkpoint {name} failed to restore: {e}"
                )),
            }
        }
    }

    /// Digests every checkpoint on `store` that `keep` selects and
    /// compares it with the fault-free twin's checkpoint of the same
    /// name: replay after a fault must reconstruct byte-identical
    /// memory. Returns the names it found.
    fn check_twin(
        &mut self,
        host: &mut Host,
        store: &StoreHandle,
        addr: u64,
        twin: &TwinDigests,
        keep: impl Fn(&str) -> bool,
    ) -> Vec<String> {
        let digests = arena_digests(host, store, addr, keep);
        for (name, got) in &digests {
            match (got, twin.get(name)) {
                (Ok(got), Some(want)) if got == want => self.report.restores_verified += 1,
                (Ok(got), Some(want)) => self.violation(format_args!(
                    "checkpoint {name} digest {got:#018x} diverges from fault-free twin {want:#018x}"
                )),
                (Ok(_), None) => {
                    self.violation(format_args!("checkpoint {name} has no twin digest"))
                }
                (Err(e), _) => {
                    self.violation(format_args!("digesting checkpoint {name} failed: {e}"))
                }
            }
        }
        digests.into_iter().map(|(name, _)| name).collect()
    }
}

// ---------------------------------------------------------------------------
// Hosts, workloads and digests the sweeps share.

/// The campaign store: a 512-block journal; `materialize_data` makes
/// page bytes really go through the device.
fn store_config(materialize_data: bool) -> StoreConfig {
    StoreConfig {
        journal_blocks: 512,
        materialize_data,
        ..StoreConfig::default()
    }
}

/// Boots a campaign host on a fresh simulated NVMe device.
fn boot_host(config: StoreConfig) -> Result<Host> {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 64 * 1024));
    Host::boot("campaign", dev, config)
}

/// Boots a materialized host that flushes on `workers` parallel
/// workers, optionally capping delta chains at `chain_cap`.
fn flush_host(workers: usize, chain_cap: Option<u32>) -> Result<Host> {
    let mut config = store_config(true);
    if let Some(cap) = chain_cap {
        config.delta_max_chain = cap;
    }
    let mut host = boot_host(config)?;
    host.sls.flush_workers = workers;
    Ok(host)
}

/// Boots a materialized campaign host whose primary store sits on a
/// `width`-way mirror of simulated NVMe devices sharing one clock.
fn boot_mirror_host(width: usize) -> Result<Host> {
    let clock = SimClock::new();
    let members: Vec<Box<dyn BlockDev>> = (0..width)
        .map(|i| {
            Box::new(ModelDev::nvme(clock.clone(), &format!("nvme{i}"), 64 * 1024))
                as Box<dyn BlockDev>
        })
        .collect();
    Host::boot_mirrored("campaign", members, store_config(true))
}

/// Runs `f` against the primary store's mirror device.
fn with_mirror<T>(host: &Host, f: impl FnOnce(&mut MirrorDev) -> T) -> Result<T> {
    let mut store = host.sls.primary.borrow_mut();
    let m = store
        .device_mut()
        .as_mirror_mut()
        .ok_or_else(|| Error::internal("campaign host has no mirror"))?;
    Ok(f(m))
}

/// Installs `plan` on the primary device; `FaultPlan::default()`
/// disarms it.
fn arm(host: &Host, plan: FaultPlan) {
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(plan);
}

/// True when `store`'s device has lost power.
fn dead(store: &StoreHandle) -> bool {
    store.borrow().device().health() == DevHealth::Dead
}

/// A persisted app: its process, its group and its anonymous arena.
#[derive(Clone, Copy)]
struct App {
    pid: Pid,
    gid: GroupId,
    addr: u64,
}

impl App {
    /// Spawns process `name` with a `pages`-page arena and persists it.
    fn spawn(host: &mut Host, name: &str, pages: u64) -> Result<App> {
        let pid = host.kernel.spawn(name);
        let addr = host.kernel.mmap_anon(pid, pages * 4096, false)?;
        let gid = host.persist(name, pid)?;
        Ok(App { pid, gid, addr })
    }

    /// Writes `body(p)` at the start of each of the arena's first
    /// `pages` pages.
    fn fill(&self, host: &mut Host, pages: u64, body: impl Fn(u64) -> String) -> Result<()> {
        for p in 0..pages {
            host.kernel
                .mem_write(self.pid, self.addr + p * 4096, body(p).as_bytes())?;
        }
        Ok(())
    }

    /// Stamps each of [`SWEEP_PAGES`] pages with `"{tag}-p{p:04}"` —
    /// distinct contents per page so nothing dedups away and the flush
    /// plan really spans multiple extents — and returns page 0's stamp,
    /// the state a checkpoint taken now must restore.
    fn stamp(&self, host: &mut Host, tag: &str) -> Result<Vec<u8>> {
        self.fill(host, SWEEP_PAGES, |p| format!("{tag}-p{p:04}"))?;
        Ok(format!("{tag}-p0000").into_bytes())
    }

    /// Writes round `round` of the delta workload tagged `tag` over a
    /// [`DELTA_SWEEP_PAGES`]-page arena and returns page 0's body.
    fn delta_round(&self, host: &mut Host, tag: &str, round: u32) -> Result<Vec<u8>> {
        self.fill(host, DELTA_SWEEP_PAGES, |p| delta_page_body(tag, round, p))?;
        Ok(delta_page_body(tag, round, 0).into_bytes())
    }
}

/// The arena address every tenant shares. Fresh address spaces map each
/// tenant's arena at the same virtual address, which lets the
/// single-address verification helpers serve all of them.
fn shared_arena<'a>(apps: impl IntoIterator<Item = &'a App>) -> Result<u64> {
    let mut addrs = apps.into_iter().map(|a| a.addr);
    let addr = addrs
        .next()
        .ok_or_else(|| Error::internal("sweep has no tenants"))?;
    if addrs.any(|a| a != addr) {
        return Err(Error::internal(
            "sweep tenants mapped their arenas at different addresses",
        ));
    }
    Ok(addr)
}

/// Restores checkpoint `id` from `store` in `mode`, reads `len` bytes
/// of the restored root process's memory at `addr`, and tears the
/// process back down.
fn restore_read(
    host: &mut Host,
    store: &StoreHandle,
    id: CkptId,
    mode: RestoreMode,
    addr: u64,
    len: usize,
) -> Result<Vec<u8>> {
    let r = host.restore(store, id, mode)?;
    let np = r
        .root_pid()
        .ok_or_else(|| Error::internal("restore returned no root pid"))?;
    let mut buf = vec![0u8; len];
    let read = host.kernel.mem_read(np, addr, &mut buf);
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
    read.map(|()| buf)
}

/// `(id, name)` of every named checkpoint on `store`.
fn named(store: &StoreHandle) -> Vec<(CkptId, String)> {
    store
        .borrow()
        .checkpoints()
        .iter()
        .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
        .collect()
}

/// Restores every checkpoint on `store` whose name `keep` selects and
/// digests its whole [`DELTA_SWEEP_PAGES`]-page arena. A fault-free twin
/// collects these into its [`TwinDigests`]; [`Trial::check_twin`]
/// compares a recovered host's against them.
fn arena_digests(
    host: &mut Host,
    store: &StoreHandle,
    addr: u64,
    keep: impl Fn(&str) -> bool,
) -> Vec<(String, Result<u64>)> {
    named(store)
        .into_iter()
        .filter(|(_, name)| keep(name))
        .map(|(id, name)| {
            let bytes = (DELTA_SWEEP_PAGES * 4096) as usize;
            let digest =
                restore_read(host, store, id, RestoreMode::Eager, addr, bytes).map(|b| fnv64(&b));
            (name, digest)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The sweeps.

/// Runs a full campaign: `cfg.schedules` independent fault schedules,
/// each on a fresh host. Schedule failures that prevent the loop itself
/// from making progress (boot errors, recovery errors) are recorded as
/// violations rather than panics so one bad seed cannot hide the rest.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    sweep("schedule", 0..cfg.schedules, no_twin, |t, idx, _| {
        run_schedule(t, cfg, idx)
    })
}

/// Runs one fault schedule end to end.
fn run_schedule(t: &mut Trial<'_>, cfg: &CampaignConfig, idx: u64) -> Result<()> {
    let schedule_seed = cfg.seed ^ idx.wrapping_mul(GOLDEN);
    let mut host = boot_host(store_config(false))?;
    let mut app = App::spawn(&mut host, "app", 4)?;
    let mut expected = Expected::new();
    // Bumped on every re-arm so a schedule that keeps crashing at the
    // same write does not replay the identical decision forever.
    let mut segment: u64 = 0;

    for round in 0..cfg.rounds {
        let tag = format!("s{idx:04}-r{round:03}");
        host.kernel.mem_write(app.pid, app.addr, tag.as_bytes())?;
        let name = format!("r{round}");
        expected.insert(name.clone(), tag.into_bytes());

        // A power cut mid-flush leaves the device dead; that is the
        // machine crashing.
        let crash_now = t.checkpoint(&mut host, app.gid, round == 0, &name).is_none()
            || dead(&host.sls.primary);

        if round == 0 {
            // Baseline is durable; arm the randomized schedule.
            arm(&host, FaultPlan::random(schedule_seed, cfg.rates));
        }

        if crash_now || round + 1 == cfg.rounds {
            host = t.crash_and_verify(host, app.addr, &expected)?;

            // Resume the workload from the newest surviving checkpoint.
            let store = host.sls.primary.clone();
            let head = store
                .borrow()
                .head()
                .ok_or_else(|| Error::internal("no durable checkpoint after reboot"))?;
            let r = host.restore(&store, head, RestoreMode::Eager)?;
            app.pid = r
                .root_pid()
                .ok_or_else(|| Error::internal("restore returned no root pid"))?;
            drop(store);
            app.gid = host.persist("app", app.pid)?;

            if round + 1 < cfg.rounds {
                segment += 1;
                let seed = schedule_seed ^ segment.wrapping_mul(GOLDEN);
                arm(&host, FaultPlan::random(seed, cfg.rates));
            }
        }
    }

    let rs = host.sls.primary.borrow().device().retry_stats();
    t.report.transient_absorbed += rs.transient_absorbed;
    t.report.writes_retried += rs.writes_retried;
    Ok(())
}

/// Pages dirtied per sweep round — enough to span several coalesced
/// extents even after dedup.
const SWEEP_PAGES: u64 = 96;

/// Power-cut sweep across the parallel coalesced flush.
///
/// The randomized campaign samples the fault space; this sweep walks it
/// exhaustively for the failure mode write coalescing introduces: a cut
/// *inside* a multi-block extent write. Each iteration boots a
/// materialized store (page bytes really go through the device), takes
/// a durable baseline, dirties a working set wide enough to coalesce
/// into several extents, then arms a power cut at exactly the `n`-th
/// device write and checkpoints with the 4-worker parallel flush. After
/// the crash, recovery must find a consistent store (`scrub` re-hashes
/// every surviving page, so a torn extent that leaked into a committed
/// checkpoint cannot hide) and every surviving checkpoint must restore
/// to its recorded pre-checkpoint state.
pub fn run_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    sweep("power-cut", 1..=cuts, no_twin, |t, n, _| {
        let mut host = flush_host(workers, None)?;
        let app = App::spawn(&mut host, "app", SWEEP_PAGES)?;
        let mut expected = Expected::new();
        for round in 0..2u32 {
            let name = format!("r{round}");
            expected.insert(name.clone(), app.stamp(&mut host, &format!("cut{n:04}-r{round}"))?);
            if round == 1 {
                arm(&host, FaultPlan::power_cut(n));
            }
            t.checkpoint(&mut host, app.gid, round == 0, &name);
        }
        t.crash_and_verify(host, app.addr, &expected)?;
        Ok(())
    })
}

/// Power-cut sweep across the batched restore read pipeline.
///
/// The flush sweep proves a cut inside a coalesced *write* cannot tear
/// the store; this sweep proves the same for coalesced *reads*. Each
/// iteration boots a materialized store, commits a durable baseline
/// wide enough to span several read extents, drops every cached page so
/// the restore really hits the device, then cuts power at exactly the
/// `n`-th device read of an eager batched restore. Reads mutate
/// nothing, so after the machine reboots the store must scrub clean and
/// the baseline must restore byte-for-byte — every `n` walks the cut
/// through a different point of the read pipeline (metadata fetch,
/// first extent, mid-extent).
pub fn run_restore_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    sweep("restore-cut", 1..=cuts, no_twin, |t, n, _| {
        let mut host = boot_host(store_config(true))?;
        host.sls.restore_workers = workers;
        let app = App::spawn(&mut host, "app", SWEEP_PAGES)?;
        let expected = Expected::from([(
            "r0".to_string(),
            app.stamp(&mut host, &format!("rcut{n:04}"))?,
        )]);
        let ckpt = t.baseline(&mut host, app.gid)?;

        // Cold start: every cached page is dropped, so the batched restore
        // must read the device — and the cut lands mid-pipeline.
        host.sls.primary.borrow_mut().drop_caches()?;
        arm(&host, FaultPlan::power_cut_on_read(n));
        let restored = {
            let store = host.sls.primary.clone();
            host.restore(&store, ckpt, RestoreMode::Eager)
        };
        if restored.is_err() {
            // The cut landed inside the restore's reads; the machine is
            // dead and the attempt is abandoned.
            t.report.aborted += 1;
        }
        t.crash_and_verify(host, app.addr, &expected)?;
        Ok(())
    })
}

/// Pages in the delta sweeps' working set — small on purpose: the point
/// is many sub-page records per round, not extent width.
const DELTA_SWEEP_PAGES: u64 = 24;

/// Shape of one delta-log power-cut sweep.
struct DeltaSweep {
    /// Page-stamp tag.
    tag: &'static str,
    /// Rounds per iteration: r0 is a full baseline, the rest delta
    /// rounds; the cut is armed for the last.
    rounds: u32,
    /// Delta chain cap, when the sweep drives the chain compactor.
    chain_cap: Option<u32>,
}

/// The delta sweep: r0 a full baseline, r1 a fault-free delta round
/// (proving the path engages at all), r2 the delta round run under the
/// armed power cut.
const DELTA: DeltaSweep = DeltaSweep {
    tag: "delta",
    rounds: 3,
    chain_cap: None,
};

/// The compaction sweep: r0 base plus four delta rounds under a chain
/// cap of four — short enough that the fourth round reaches it and its
/// checkpoint folds every chain while the cut is armed.
const COMPACT: DeltaSweep = DeltaSweep {
    tag: "compact",
    rounds: 5,
    chain_cap: Some(4),
};

/// Page-0-anchored body written to page `p` in round `round`. Round 0
/// fills fresh pages (no committed base, so the full path applies);
/// later rounds overwrite the same small prefix so every round stages
/// one sub-page delta per page and chains grow by one per round.
fn delta_page_body(tag: &str, round: u32, p: u64) -> String {
    if round == 0 {
        format!("{tag}-base-p{p:04}")
    } else {
        format!("{tag}-r{round}-p{p:02}")
    }
}

/// Workload checkpoints of the single-tenant delta sweeps; internal
/// checkpoints (e.g. the compactor's) are validated by scrub alone.
fn is_round(name: &str) -> bool {
    name.starts_with('r')
}

/// Runs a delta sweep's workload on a fresh host, arming a power cut at
/// device write `cut` of the final round (none for the twin).
fn delta_workload(
    t: &mut Trial<'_>,
    shape: &DeltaSweep,
    workers: usize,
    cut: Option<u64>,
) -> Result<(Host, u64, Expected)> {
    let mut host = flush_host(workers, shape.chain_cap)?;
    let app = App::spawn(&mut host, "app", DELTA_SWEEP_PAGES)?;
    let mut expected = Expected::new();
    for round in 0..shape.rounds {
        let name = format!("r{round}");
        expected.insert(name.clone(), app.delta_round(&mut host, shape.tag, round)?);
        if let Some(n) = cut.filter(|_| round + 1 == shape.rounds) {
            arm(&host, FaultPlan::power_cut(n));
        }
        t.checkpoint(&mut host, app.gid, round == 0, &name);
        let (records, high) = {
            let store = host.sls.primary.borrow();
            (store.stats.delta_records, store.stats.chain_len_max)
        };
        if round == 1 && records == 0 {
            t.violation("fault-free delta round never staged a delta record");
        }
        if let Some(cap) = shape.chain_cap.filter(|_| round + 2 == shape.rounds) {
            // The penultimate round ran fault-free: chains must be one
            // short of the cap, poised for the final round to fold.
            if high + 1 < u64::from(cap) {
                t.violation(format_args!(
                    "chains only reached {high} before the final round"
                ));
            }
        }
    }
    let compacted = host.sls.primary.borrow().stats.chains_compacted;
    if cut.is_none() && shape.chain_cap.is_some() && compacted == 0 {
        t.violation("fault-free run never triggered the chain compactor");
    }
    Ok((host, app.addr, expected))
}

/// A power-cut sweep whose survivors must also match a fault-free twin.
/// `workload(t, cut)` runs on a fresh host with a power cut armed at
/// device write `cut` of its final round (`None` for the twin) and
/// returns the host, the arena address and the expected state; `keep`
/// selects the workload's own checkpoints.
fn twin_checked_sweep(
    label: &str,
    cuts: u64,
    keep: fn(&str) -> bool,
    workload: impl Fn(&mut Trial<'_>, Option<u64>) -> Result<(Host, u64, Expected)>,
) -> CampaignReport {
    let twin = |t: &mut Trial<'_>| {
        let (host, addr, _) = workload(t, None)?;
        // The twin reboots before digesting so both sides of the
        // comparison go through the same journal-replay recovery path.
        let mut host = host.crash_and_reboot()?;
        let store = host.sls.primary.clone();
        arena_digests(&mut host, &store, addr, keep)
            .into_iter()
            .map(|(name, digest)| Ok((name, digest?)))
            .collect::<Result<TwinDigests>>()
    };
    sweep(label, 1..=cuts, twin, |t, n, twin| {
        let (host, addr, expected) = workload(t, Some(n))?;
        let mut host = t.crash_and_verify(host, addr, &expected)?;
        let store = host.sls.primary.clone();
        t.check_twin(&mut host, &store, addr, twin, keep);
        Ok(())
    })
}

/// Power-cut sweep across the delta-log append path.
///
/// The flush sweep proves a cut inside a coalesced full-image write
/// cannot tear the store; this sweep proves the same for the sub-page
/// delta path, where a committed checkpoint's pages are reconstructed
/// by replaying journal-resident delta records over a base image. Each
/// iteration takes a full baseline, commits one fault-free delta round
/// (and fails if the delta path never engaged), then arms a power cut
/// at exactly the `n`-th device write of a second delta round. After
/// the crash, recovery must scrub clean, every surviving checkpoint
/// must restore to its recorded state, and every survivor's full
/// restored-memory digest must match a fault-free twin run — replay
/// equivalence, not just prefix equality.
pub fn run_delta_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    twin_checked_sweep("delta-cut", cuts, is_round, |t, cut| {
        delta_workload(t, &DELTA, workers, cut)
    })
}

/// Power-cut sweep across the background chain compactor.
///
/// Compaction folds a delta chain back into a full base image through
/// an ordinary committed checkpoint, so a cut anywhere inside it must
/// leave either the old chain or the folded image — never a mix. Each
/// iteration builds chains up to the cap over fault-free rounds, then
/// arms a cut at device write `n` of the final round, whose checkpoint
/// both commits the capping delta and auto-triggers the compactor: the
/// ordinal walks the cut through the delta seal, the superblock flip,
/// and every write of the fold itself. Recovery must scrub clean and
/// every survivor must match the fault-free twin.
pub fn run_compact_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    twin_checked_sweep("compact-cut", cuts, is_round, |t, cut| {
        delta_workload(t, &COMPACT, workers, cut)
    })
}

/// Rounds per fleet-sweep iteration: r0 is a serialized full baseline
/// for both tenants, r1 a fault-free pipelined round (proving cycles
/// actually overlap), r2 the pipelined round run under the armed cut.
const FLEET_ROUNDS: u32 = 3;

/// The fleet sweep's tenants' own rounds.
fn is_fleet_round(name: &str) -> bool {
    name.starts_with("a-") || name.starts_with("b-")
}

/// Runs the two-tenant fleet workload on a fresh host, arming a power
/// cut at device write `cut` of the final pipelined round (none for the
/// twin). Returns the host, the tenants' shared arena address and the
/// expected state.
fn fleet_workload(
    t: &mut Trial<'_>,
    workers: usize,
    cut: Option<u64>,
) -> Result<(Host, u64, Expected)> {
    let mut host = flush_host(workers, None)?;
    let tenants = [
        ("a", App::spawn(&mut host, "tenant-a", DELTA_SWEEP_PAGES)?),
        ("b", App::spawn(&mut host, "tenant-b", DELTA_SWEEP_PAGES)?),
    ];
    let addr = shared_arena(tenants.iter().map(|(_, app)| app))?;
    let mut expected = Expected::new();
    for round in 0..FLEET_ROUNDS {
        for (tag, app) in &tenants {
            expected.insert(format!("{tag}-r{round}"), app.delta_round(&mut host, tag, round)?);
        }
        let cut = cut.filter(|_| round + 1 == FLEET_ROUNDS);
        if let Some(n) = cut {
            arm(&host, FaultPlan::power_cut(n));
        }
        for (tag, app) in &tenants {
            let name = format!("{tag}-r{round}");
            if round == 0 {
                t.checkpoint(&mut host, app.gid, true, &name);
            } else {
                let res = host.checkpoint_pipelined(app.gid, false, Some(&name));
                t.record(&name, res, dead(&host.sls.primary));
            }
        }
        if round > 0 && cut.is_none() {
            host.fleet_drain();
            if host.sls.fleet.stats.overlapped == 0 {
                t.violation("fault-free round never overlapped the two tenants' cycles");
            }
        }
        if round == 1 && host.sls.primary.borrow().stats.delta_records == 0 {
            t.violation("fault-free rounds never staged a delta record");
        }
    }
    Ok((host, addr, expected))
}

/// Power-cut sweep across two tenants' interleaved checkpoint cycles.
///
/// The delta sweep proves a cut inside one tenant's flush cannot tear
/// the store; this sweep proves the same while the fleet scheduler
/// pipelines two tenants. Each iteration takes serialized full
/// baselines, runs one fault-free pipelined round (and fails if the
/// scheduler never overlapped the two cycles), then arms a power cut
/// at exactly the `n`-th device write of a final pipelined round —
/// the ordinal walks the cut through tenant A's capture and flush and
/// on into tenant B's, so some iterations die while A flushes and B's
/// capture is queued behind A's commit. After the crash, recovery must
/// scrub clean, every surviving checkpoint of either tenant must
/// restore to its recorded state, and every survivor's full digest
/// must match a fault-free twin run of the same interleaving.
pub fn run_fleet_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    twin_checked_sweep("fleet-cut", cuts, is_fleet_round, |t, cut| {
        fleet_workload(t, workers, cut)
    })
}

/// Tenants in the fault-domain sweep. Tenant 0 is the poisoned one;
/// the other three prove the blast radius stays contained.
const FD_TENANTS: usize = 4;

/// Rounds per fault-domain iteration: r0 pipelined full baselines, r1 a
/// fault-free incremental round (the fleet must overlap), r2..r4 under
/// tenant 0's hostile fault plan (three consecutive failures quarantine
/// it), r5 while quarantined (the healthy fleet proceeds on schedule;
/// tenant 0's cycle is skipped), r6 and r7 after revival. A probe right
/// after revival may legitimately still fail — a latency-poisoned
/// device is draining its stalled queue — which doubles the backoff;
/// by r7 the retried probe must land and re-admit the tenant.
const FD_ROUNDS: u32 = 8;

/// First round run under the armed fault plan.
const FD_FAULT_ROUND: u32 = 2;

/// Round at whose start tenant 0's hardware is revived.
const FD_REVIVE_ROUND: u32 = 6;

/// The hostile per-tenant fault plans the sweep walks through.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TenantFault {
    /// Power is cut on the tenant store's next write and never
    /// restored: every cycle aborts until the device is replaced.
    DeadDevice,
    /// Every write stalls far past the fleet's cycle deadline: cycles
    /// commit but chronically late.
    LatencySpike,
    /// Every read from the store's data region returns a flipped bit:
    /// the incremental pre-pass sees a damaged base each cycle.
    ReadCorruption,
}

impl Display for TenantFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TenantFault::DeadDevice => "dead-device",
            TenantFault::LatencySpike => "latency-spike",
            TenantFault::ReadCorruption => "read-corruption",
        })
    }
}

/// One fault-domain tenant: its app and the private store its group was
/// rehomed onto.
struct FdTenant {
    app: App,
    store: StoreHandle,
}

/// Tenant `i`'s own checkpoints.
fn tenant_prefix(i: usize) -> impl Fn(&str) -> bool {
    let prefix = format!("t{i}-");
    move |name: &str| name.starts_with(&prefix)
}

/// Spawns the fault-domain tenants, each persisted and rehomed onto a
/// private store on its own simulated NVMe device (sharing the host's
/// clock), so a device fault is confined to one tenant.
fn fd_setup(host: &mut Host) -> Result<(Vec<FdTenant>, u64)> {
    let mut tenants = Vec::new();
    for i in 0..FD_TENANTS {
        let app = App::spawn(host, &format!("tenant-{i}"), DELTA_SWEEP_PAGES)?;
        let dev = ModelDev::nvme(host.clock.clone(), &format!("tenant{i}"), 64 * 1024);
        let dev: Box<dyn BlockDev> = Box::new(ResilientDev::with_defaults(Box::new(dev)));
        let store = ObjectStore::format(dev, store_config(true))?;
        let store: StoreHandle = Rc::new(RefCell::new(store));
        host.rehome_group(app.gid, store.clone())?;
        tenants.push(FdTenant { app, store });
    }
    let addr = shared_arena(tenants.iter().map(|t| &t.app))?;
    Ok((tenants, addr))
}

/// Runs the fault-domain workload fault-free and returns the digest of
/// every tenant checkpoint (keyed by name) plus the longest observed
/// admission-to-durable cycle span — the poisoned runs derive their
/// per-cycle deadline from it so healthy tenants never miss.
fn fd_twin(workers: usize) -> Result<(TwinDigests, SimDuration)> {
    let mut host = flush_host(workers, None)?;
    let (tenants, addr) = fd_setup(&mut host)?;
    let mut max_span = SimDuration::ZERO;
    for round in 0..FD_ROUNDS {
        for (i, tenant) in tenants.iter().enumerate() {
            tenant.app.delta_round(&mut host, &format!("t{i}"), round)?;
        }
        for (i, tenant) in tenants.iter().enumerate() {
            let before = host.clock.now();
            let name = format!("t{i}-r{round}");
            let bd = host.checkpoint_pipelined(tenant.app.gid, round == 0, Some(&name))?;
            if !bd.outcome.committed() {
                return Err(Error::internal(format!(
                    "fault-domain twin cycle {name} did not commit: {:?}",
                    bd.fault
                )));
            }
            max_span = max_span.max(bd.durable_at - before);
        }
        host.fleet_drain();
    }
    if host.sls.fleet.stats.overlapped == 0 {
        return Err(Error::internal(
            "fault-domain twin never overlapped two tenants' cycles",
        ));
    }
    let mut out = TwinDigests::new();
    for (i, tenant) in tenants.iter().enumerate() {
        for (name, digest) in arena_digests(&mut host, &tenant.store, addr, tenant_prefix(i)) {
            out.insert(name, digest?);
        }
    }
    Ok((out, max_span))
}

/// Per-tenant fault-domain sweep: quarantine, deadlines, blast radius.
///
/// Each iteration runs an [`FD_TENANTS`]-tenant pipelined fleet where
/// every tenant checkpoints to its own store, then poisons tenant 0
/// with one hostile [`TenantFault`] plan. The poisoned tenant must walk
/// `Healthy → Degraded → Quarantined` within [`QUARANTINE_AFTER`]
/// failed cycles and be re-admitted by a probe after its hardware is
/// revived — committing or aborting without ever damaging its store —
/// while the healthy tenants' cycles commit on schedule every round,
/// record zero failures, and restore digest-equal to a fault-free twin
/// of the same interleaving. Any fault attributed to a healthy tenant
/// is a blast-radius violation.
///
/// [`QUARANTINE_AFTER`]: crate::fleet::QUARANTINE_AFTER
pub fn run_fleet_fault_domain_sweep(workers: usize) -> CampaignReport {
    let faults = [
        TenantFault::DeadDevice,
        TenantFault::LatencySpike,
        TenantFault::ReadCorruption,
    ];
    sweep(
        "fleet-domain",
        faults,
        |_| fd_twin(workers),
        |t, fault, (twin, max_span): &(TwinDigests, SimDuration)| {
            fd_iteration(t, fault, workers, twin, *max_span)
        },
    )
}

/// Revives tenant 0's hardware before the probe round. A dead device is
/// "replaced": the store is remounted through journal-replay recovery
/// (the group rehomed onto the remounted handle); for the other plans
/// clearing the fault plan models the repaired fabric.
fn fd_revive(host: &mut Host, tenants: &mut [FdTenant], fault: TenantFault) -> Result<()> {
    let t0 = tenants
        .first_mut()
        .ok_or_else(|| Error::internal("no poisoned tenant"))?;
    if fault != TenantFault::DeadDevice {
        t0.store
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::default());
        return Ok(());
    }
    // Release the group's handle first so the store can be unwrapped
    // and taken through recovery.
    let placeholder = host.sls.primary.clone();
    host.rehome_group(t0.app.gid, placeholder)?;
    let old = std::mem::replace(&mut t0.store, host.sls.primary.clone());
    let inner = Rc::try_unwrap(old)
        .map_err(|_| Error::internal("tenant store still shared at remount"))?
        .into_inner();
    let mut recovered = inner.recover()?;
    recovered.device_mut().install_fault_plan(FaultPlan::default());
    let fresh: StoreHandle = Rc::new(RefCell::new(recovered));
    host.rehome_group(t0.app.gid, fresh.clone())?;
    t0.store = fresh;
    Ok(())
}

/// One fault-domain iteration: poison tenant 0 with `fault`, drive the
/// fleet through quarantine and re-admission, verify blast radius and
/// digest equality against the twin.
fn fd_iteration(
    t: &mut Trial<'_>,
    fault: TenantFault,
    workers: usize,
    twin: &TwinDigests,
    max_span: SimDuration,
) -> Result<()> {
    let mut host = flush_host(workers, None)?;
    let (mut tenants, addr) = fd_setup(&mut host)?;
    let gid0 = tenants
        .first()
        .map(|tenant| tenant.app.gid)
        .ok_or_else(|| Error::internal("no poisoned tenant"))?;

    // Deadline calibrated from the twin's slowest fault-free cycle:
    // generous headroom for healthy tenants, far under the spike.
    let deadline = (max_span * 8).max(SimDuration::from_millis(1));
    host.sls.fleet.cycle_deadline = deadline;

    for round in 0..FD_ROUNDS {
        if round == FD_REVIVE_ROUND {
            fd_revive(&mut host, &mut tenants, fault)?;
        }
        // Once the hardware is revived, let each round's probe actually
        // fire: idle between rounds until the backoff elapses.
        if round >= FD_REVIVE_ROUND
            && host.tenant_domain(gid0).health == TenantHealth::Quarantined
        {
            let probe_at = host.tenant_domain(gid0).next_probe;
            if host.clock.now() < probe_at {
                host.clock.advance_to(probe_at);
            }
        }
        for (i, tenant) in tenants.iter().enumerate() {
            tenant.app.delta_round(&mut host, &format!("t{i}"), round)?;
        }
        if round == FD_FAULT_ROUND {
            let plan = match fault {
                TenantFault::DeadDevice => FaultPlan::power_cut(1),
                TenantFault::LatencySpike => {
                    FaultPlan::latency_spike(1, 1_000_000, deadline.as_nanos() * 4)
                }
                // The data region starts right past the journal
                // (JOURNAL_START + 512 journal blocks = LBA 514); every
                // read from it lies. Superblock and journal reads stay
                // clean so recovery itself is never the victim.
                TenantFault::ReadCorruption => {
                    FaultPlan::corrupt_read_blocks(514, 64 * 1024, 11, 2)
                }
            };
            if let Some(t0) = tenants.first() {
                t0.store.borrow_mut().device_mut().install_fault_plan(plan);
            }
        }
        for (i, tenant) in tenants.iter().enumerate() {
            let name = format!("t{i}-r{round}");
            let res = host.checkpoint_pipelined(tenant.app.gid, round == 0, Some(&name));
            // Only the poisoned tenant's device may die under its cycle.
            let crashed = i == 0 && dead(&tenant.store);
            if let Some(bd) = t.record(&name, res, crashed) {
                if i != 0 && !bd.outcome.committed() {
                    t.violation(format_args!(
                        "healthy tenant cycle {name} did not commit: {:?}",
                        bd.outcome
                    ));
                }
            }
        }
        // Every fault the sweep surfaced must belong to the poisoned
        // tenant: a fault attributed to anyone else escaped its domain.
        for (g, f) in host.fleet_drain() {
            if g != gid0.0 {
                t.violation(format_args!(
                    "blast radius: fault recorded for healthy tenant {g}: {f}"
                ));
            }
        }
        let health0 = host.tenant_domain(gid0).health;
        if (FD_FAULT_ROUND + 2..FD_REVIVE_ROUND).contains(&round)
            && health0 != TenantHealth::Quarantined
        {
            t.violation(format_args!(
                "poisoned tenant not quarantined after round {round} ({})",
                health0.as_str()
            ));
        }
    }

    fd_verify(t, &mut host, &tenants, fault, twin, addr);
    Ok(())
}

/// End-of-iteration checks: health outcomes, per-tenant store
/// consistency, and digest equality against the fault-free twin.
fn fd_verify(
    t: &mut Trial<'_>,
    host: &mut Host,
    tenants: &[FdTenant],
    fault: TenantFault,
    twin: &TwinDigests,
    addr: u64,
) {
    let d0 = tenants
        .first()
        .map(|tenant| host.tenant_domain(tenant.app.gid))
        .unwrap_or_default();
    if d0.health != TenantHealth::Healthy {
        t.violation(format_args!(
            "poisoned tenant not re-admitted: {}",
            d0.health.as_str()
        ));
    }
    if d0.quarantines == 0 || d0.readmissions == 0 {
        t.violation(format_args!(
            "expected a quarantine and a re-admission, saw {} / {}",
            d0.quarantines, d0.readmissions
        ));
    }
    if fault == TenantFault::DeadDevice && d0.cycles_skipped == 0 {
        t.violation("no cycle was skipped while the tenant sat quarantined");
    }
    for (i, tenant) in tenants.iter().enumerate().skip(1) {
        let d = host.tenant_domain(tenant.app.gid);
        if d.health != TenantHealth::Healthy
            || d.failures != 0
            || d.deadline_misses != 0
            || d.cycles_skipped != 0
        {
            t.violation(format_args!(
                "healthy tenant {i} damaged: health {} failures {} \
                 deadline misses {} skipped {}",
                d.health.as_str(),
                d.failures,
                d.deadline_misses,
                d.cycles_skipped
            ));
        }
    }
    for (i, tenant) in tenants.iter().enumerate() {
        let problems = tenant.store.borrow_mut().scrub();
        if !problems.is_empty() {
            t.violation(format_args!(
                "tenant {i} store scrub: {}",
                problems.join("; ")
            ));
        }
        let present = t.check_twin(host, &tenant.store, addr, twin, tenant_prefix(i));
        // Healthy tenants keep every round; the poisoned tenant must at
        // least keep its pre-fault checkpoints and its post-re-admission
        // one (whether the first post-revival probe landed is
        // plan-dependent).
        let required: Vec<u32> = if i == 0 {
            vec![0, 1, FD_ROUNDS - 1]
        } else {
            (0..FD_ROUNDS).collect()
        };
        for r in required {
            let name = format!("t{i}-r{r}");
            if !present.contains(&name) {
                t.violation(format_args!("required checkpoint {name} missing"));
            }
        }
    }
}

/// Zero-data-loss proof: detaches every replica but `keep` and checks
/// both invariants again, with the whole store served by `keep` alone.
fn verify_from_replica(
    t: &mut Trial<'_>,
    host: &mut Host,
    width: usize,
    keep: usize,
    addr: u64,
    expected: &Expected,
) -> Result<()> {
    with_mirror(host, |m| -> Result<()> {
        for i in (0..width).filter(|&i| i != keep) {
            m.kill_replica(i)?;
        }
        Ok(())
    })??;
    t.verify_recovered(host, addr, expected);
    Ok(())
}

/// Replica-death sweep across the checkpoint flush.
///
/// Iteration `n` kills one replica (rotating through all of them) at
/// exactly its `n`-th device write while a multi-extent checkpoint is
/// flushing. The mirror must absorb the death: the checkpoint commits
/// (flagged `DegradedMirror`), no data is lost, and after reviving and
/// resilvering the victim the whole store must verify when served by
/// the *resilvered replica alone* — proving the rebuild copied every
/// live extent, not just the ones the failed write touched.
pub fn run_mirror_kill_sweep(cuts: u64, width: usize) -> CampaignReport {
    sweep("mirror-kill", 1..=cuts, no_twin, |t, n, _| {
        let mut host = boot_mirror_host(width)?;
        host.sls.flush_workers = 4;
        let app = App::spawn(&mut host, "app", SWEEP_PAGES)?;
        let victim = (n as usize - 1) % width;

        let mut expected = Expected::new();
        for round in 0..2u32 {
            let name = format!("r{round}");
            expected.insert(name.clone(), app.stamp(&mut host, &format!("mkill{n:04}-r{round}"))?);
            if round == 1 {
                with_mirror(&host, |m| m.install_replica_fault_plan(victim, FaultPlan::power_cut(n)))??;
            }
            if let Some(bd) = t.checkpoint(&mut host, app.gid, round == 0, &name) {
                if !bd.outcome.committed() {
                    t.violation(format_args!(
                        "checkpoint aborted despite {} surviving replica(s): {:?}",
                        width - 1,
                        bd.fault,
                    ));
                }
            }
        }

        // Revive the victim and rebuild it from the survivors.
        let degraded = with_mirror(&host, |m| m.is_degraded())?;
        if degraded {
            with_mirror(&host, |m| {
                m.install_replica_fault_plan(victim, FaultPlan::default())?;
                m.revive_replica(victim)
            })??;
            host.resilver()?;
        }
        t.verify_recovered(&mut host, app.addr, &expected);
        if degraded {
            verify_from_replica(t, &mut host, width, victim, app.addr, &expected)?;
        }
        let ms = with_mirror(&host, |m| m.mirror_stats())?;
        t.report.failovers += ms.failovers;
        t.report.read_repairs += ms.read_repairs;
        Ok(())
    })
}

/// Replica-death sweep across the batched restore.
///
/// Iteration `n` cuts the *preferred* replica's power at exactly its
/// `n`-th device read while an eager cold-cache restore is running. The
/// mirror must fail over mid-restore: the restore succeeds from a twin
/// (no abort — reads are the whole point of redundancy), the victim is
/// detached, and the store verifies clean afterwards.
pub fn run_mirror_restore_failover_sweep(cuts: u64, width: usize) -> CampaignReport {
    sweep("mirror-restore", 1..=cuts, no_twin, |t, n, _| {
        let mut host = boot_mirror_host(width)?;
        host.sls.restore_workers = 4;
        let app = App::spawn(&mut host, "app", SWEEP_PAGES)?;
        let want = app.stamp(&mut host, &format!("mrest{n:04}"))?;
        let ckpt = t.baseline(&mut host, app.gid)?;

        // Cold cache, then kill the read-preferred replica mid-restore.
        host.sls.primary.borrow_mut().drop_caches()?;
        with_mirror(&host, |m| {
            m.install_replica_fault_plan(0, FaultPlan::power_cut_on_read(n))
        })??;
        let store = host.sls.primary.clone();
        match restore_read(&mut host, &store, ckpt, RestoreMode::Eager, app.addr, want.len()) {
            Ok(got) if got == want => {}
            Ok(_) => t.violation("failover restore returned torn memory"),
            Err(e) => {
                t.report.aborted += 1;
                t.violation(format_args!(
                    "restore failed despite {} surviving replica(s): {e}",
                    width - 1
                ));
            }
        }
        with_mirror(&host, |m| m.install_replica_fault_plan(0, FaultPlan::default()))??;
        t.verify_recovered(&mut host, app.addr, &Expected::from([("r0".to_string(), want)]));
        t.report.failovers += with_mirror(&host, |m| m.mirror_stats().failovers)?;
        Ok(())
    })
}

/// Power-cut sweep across the background resilver.
///
/// Iteration `n` rebuilds a revived replica and cuts its power at
/// exactly its `n`-th resilver write, then crashes and reboots the
/// whole machine. The half-copied replica must come back *rebuilding* —
/// never trusted for reads — so recovery sees only complete replicas;
/// re-running the resilver finishes the copy, after which the store
/// must verify served by the once-half-copied replica alone.
pub fn run_resilver_power_cut_sweep(cuts: u64, width: usize) -> CampaignReport {
    sweep("resilver-cut", 1..=cuts, no_twin, |t, n, _| {
        let mut host = boot_mirror_host(width)?;
        let app = App::spawn(&mut host, "app", SWEEP_PAGES)?;
        let victim = width - 1;

        let mut expected = Expected::new();
        expected.insert("r0".to_string(), app.stamp(&mut host, &format!("rsc{n:04}-r0"))?);
        t.baseline(&mut host, app.gid)?;

        // The victim dies cleanly; the next checkpoint runs degraded, so the
        // victim's contents are genuinely stale when it comes back.
        with_mirror(&host, |m| m.kill_replica(victim))??;
        expected.insert("r1".to_string(), app.stamp(&mut host, &format!("rsc{n:04}-r1"))?);
        if let Some(bd) = t.checkpoint(&mut host, app.gid, false, "r1") {
            if bd.outcome != CheckpointOutcome::DegradedMirror {
                t.violation(format_args!(
                    "degraded checkpoint reported {:?}, expected DegradedMirror",
                    bd.outcome
                ));
            }
        }

        // Revive the victim and cut its power mid-rebuild.
        with_mirror(&host, |m| {
            m.revive_replica(victim)?;
            m.install_replica_fault_plan(victim, FaultPlan::power_cut(n))
        })??;
        let cut_fired = host.resilver().is_err();
        if cut_fired {
            t.report.aborted += 1;
        }

        // Whole-machine crash with the replica half-copied.
        with_mirror(&host, |m| m.install_replica_fault_plan(victim, FaultPlan::default()))??;
        let mut host = host.crash_and_reboot()?;
        t.report.crashes += 1;

        // A half-copied replica must never come back authoritative.
        let state = with_mirror(&host, |m| m.replica_state(victim))?;
        if cut_fired && state != Some(ReplicaState::Rebuilding) {
            t.violation(format_args!(
                "half-copied replica rebooted as {state:?}, not rebuilding"
            ));
        }
        t.verify_recovered(&mut host, app.addr, &expected);

        // Finish the rebuild, then verify from the rebuilt replica alone.
        if with_mirror(&host, |m| m.needs_resilver())? {
            host.resilver()?;
        }
        verify_from_replica(t, &mut host, width, victim, app.addr, &expected)
    })
}

/// Lazy-restore corruption sweep.
///
/// Iteration `n` commits a [`SWEEP_PAGES`]-page baseline while the
/// platter rots exactly one image block — data block `n - 1`, on the
/// preferred replica when `mirrored` — then drops every cached page and
/// lazily restores the baseline, touching every page, so each page
/// arrives through a fault's single-block read. With a mirror the
/// faults must heal the block from the twin: the arena digests equal to
/// a fault-free twin run, and the once-rotten replica alone then
/// verifies. Without one, the touch must fail with a typed `Corrupt`:
/// wrong bytes are never handed back, and the store reports the one
/// rotten block and nothing else.
pub fn run_lazy_corruption_sweep(blocks: u64, mirrored: bool) -> CampaignReport {
    let label = if mirrored { "lazy-rot-mirror" } else { "lazy-rot" };
    let arena_bytes = (SWEEP_PAGES * 4096) as usize;
    // Boots the sweep's host and commits the baseline while data block
    // `rot` (if any) rots on the preferred copy.
    let baseline = |t: &mut Trial<'_>, rot: Option<u64>| -> Result<(Host, App, CkptId, Expected)> {
        let mut host = if mirrored {
            boot_mirror_host(2)?
        } else {
            boot_host(store_config(true))?
        };
        let app = App::spawn(&mut host, "app", SWEEP_PAGES)?;
        let expected = Expected::from([("r0".to_string(), app.stamp(&mut host, "lazy-rot")?)]);
        let ds = host.sls.primary.borrow().data_start();
        let arm_preferred = |host: &Host, plan: FaultPlan| -> Result<()> {
            if mirrored {
                with_mirror(host, |m| m.install_replica_fault_plan(0, plan))?
            } else {
                arm(host, plan);
                Ok(())
            }
        };
        arm_preferred(
            &host,
            rot.map_or_else(FaultPlan::default, |b| {
                FaultPlan::corrupt_blocks(ds + b, ds + b + 1, 100, 3)
            }),
        )?;
        let ckpt = t.baseline(&mut host, app.gid)?;
        arm_preferred(&host, FaultPlan::default())?;
        host.sls.primary.borrow_mut().drop_caches()?;
        Ok((host, app, ckpt, expected))
    };
    let twin = |t: &mut Trial<'_>| -> Result<u64> {
        let (mut host, app, ckpt, _) = baseline(t, None)?;
        let store = host.sls.primary.clone();
        restore_read(&mut host, &store, ckpt, RestoreMode::Lazy, app.addr, arena_bytes)
            .map(|b| fnv64(&b))
    };
    sweep(label, 1..=blocks, twin, |t, n, &want| {
        let (mut host, app, ckpt, expected) = baseline(t, Some(n - 1))?;
        let store = host.sls.primary.clone();
        let read = restore_read(&mut host, &store, ckpt, RestoreMode::Lazy, app.addr, arena_bytes);
        if !mirrored {
            match read {
                Err(e) if e.kind() == ErrorKind::Corrupt => t.report.aborted += 1,
                Err(e) => t.violation(format_args!("fault failed untyped: {e}")),
                Ok(b) if fnv64(&b) == want => t.violation("fault missed the rotten block"),
                Ok(_) => t.violation("fault served wrong bytes"),
            }
            let problems = store.borrow_mut().scrub();
            if problems.len() != 1 {
                t.violation(format_args!(
                    "scrub found {} problem(s), expected the rotten block alone: {}",
                    problems.len(),
                    problems.join("; ")
                ));
            }
            return Ok(());
        }
        match read {
            Ok(b) if fnv64(&b) == want => t.report.restores_verified += 1,
            Ok(_) => t.violation("lazy restore diverges from the fault-free twin"),
            Err(e) => t.violation(format_args!("lazy restore failed despite a twin: {e}")),
        }
        let repairs = with_mirror(&host, |m| m.mirror_stats().read_repairs)?;
        if repairs == 0 {
            t.violation("the rotten block was never repaired");
        }
        t.report.read_repairs += repairs;
        verify_from_replica(t, &mut host, 2, 0, app.addr, &expected)
    })
}

/// Pages in the replicated workload — small enough to keep the sweep
/// fast, large enough that every epoch spans several frames.
const REPL_SWEEP_PAGES: u64 = 6;

/// Checkpoint epochs per sweep iteration.
const REPL_SWEEP_ROUNDS: u32 = 4;

/// Replication kill sweep: walk the primary's death through **every
/// frame ordinal** of a continuously replicated run.
///
/// Iteration `n` attaches a hot standby behind a faulty link (drops,
/// duplicates, reordering, transient partitions — all seeded), runs
/// several checkpoint epochs, and kills the primary immediately after
/// it offers its `n`-th replication frame (retransmissions count, so
/// the cut also lands inside recovery traffic). Because epochs span
/// multiple frames, sweeping `n` covers every epoch ordinal and every
/// frame ordinal within an epoch, including mid-partition and
/// mid-retransmit deaths. Iterations whose budget exceeds the run's
/// frame count kill nobody and must converge completely.
///
/// After the kill the standby is promoted and three invariants checked:
///
/// 1. **No torn epoch** — the promoted store's head restores a state in
///    which *every* page carries the same epoch's tag; a mix of epochs
///    (or a partially applied epoch) is a violation.
/// 2. **The watermark is honoured** — the promoted epoch is at least
///    the acked watermark at death (promote may do better: frames
///    already in flight still count), and zero only if nothing was
///    ever acked.
/// 3. **Zero corruption** — the promoted store scrubs clean and every
///    standby-side import applied without error.
pub fn run_replication_kill_sweep(kills: u64, rates: LinkFaultRates) -> CampaignReport {
    sweep("repl-kill", 1..=kills, no_twin, |t, n, _| {
        replication_kill(t, n, rates)
    })
}

/// One sweep iteration: kill the primary after replication frame `n`.
fn replication_kill(t: &mut Trial<'_>, n: u64, rates: LinkFaultRates) -> Result<()> {
    let mut host = boot_host(store_config(true))?;
    host.attach_standby(ReplConfig {
        seed: 0xC0FF_EE00 ^ n.wrapping_mul(GOLDEN),
        rates,
        frame_bytes: 4096,
        // The sweep measures watermark honesty, not lag policy: never
        // degrade, so every checkpoint outcome stays Committed.
        max_lag_epochs: u64::MAX,
        kill_after_data_frames: Some(n),
        standby_store: store_config(true),
        ..ReplConfig::default()
    })?;
    let app = App::spawn(&mut host, "app", REPL_SWEEP_PAGES)?;

    // epoch -> tag stamped into every page before that epoch's
    // checkpoint. The no-torn-epoch check demands the promoted state be
    // uniformly one of these.
    let mut expected: HashMap<u64, String> = HashMap::new();
    for round in 0..REPL_SWEEP_ROUNDS {
        let epoch = u64::from(round) + 1;
        let tag = format!("kill{n:04}-e{epoch:02}");
        app.fill(&mut host, REPL_SWEEP_PAGES, |p| format!("{tag}-p{p:02}"))?;
        expected.insert(epoch, tag);
        // A replicated checkpoint never loses its device: any error is
        // a harness error, not a crash.
        let bd = host.checkpoint(app.gid, round == 0, Some(&format!("e{epoch}")))?;
        t.tally(bd.outcome);
        if bd.outcome.committed() {
            host.clock.advance_to(bd.durable_at);
        }
        host.replication_pump();
        if host.replication().is_some_and(|r| r.primary_dead()) {
            break;
        }
    }

    let survived = !host.replication().is_some_and(|r| r.primary_dead());
    if survived {
        // The kill budget exceeded the run: the session must converge.
        if let Some(r) = host.replication_mut() {
            if !r.run_until_idle(100_000) {
                t.violation("surviving session failed to converge");
            }
        }
    }
    let (acked, shipped) = host
        .replication()
        .map(|r| (r.acked_epoch(), r.shipped_epoch()))
        .unwrap_or((0, 0));
    let repl = host
        .detach_standby()
        .ok_or_else(|| Error::internal("replication session vanished"))?;
    t.report.crashes += 1; // the simulated loss of the primary machine

    let (mut standby, pr) = promote_to_host(repl, "standby")?;
    if pr.apply_errors > 0 {
        t.violation(format_args!("{} standby import error(s)", pr.apply_errors));
    }
    if pr.promoted_epoch < acked {
        t.violation(format_args!(
            "promoted epoch {} below acked watermark {acked}",
            pr.promoted_epoch
        ));
    }
    if survived && pr.promoted_epoch != shipped {
        t.violation(format_args!(
            "converged standby promoted {} of {shipped} epochs",
            pr.promoted_epoch
        ));
    }

    // Invariant 3: zero corruption on the promoted store.
    let store = standby.sls.primary.clone();
    let problems = store.borrow().scrub();
    if !problems.is_empty() {
        t.violation(format_args!(
            "promoted store scrub found {} problem(s): {}",
            problems.len(),
            problems.join("; ")
        ));
    }

    if pr.promoted_epoch == 0 {
        // Nothing ever completed: an empty standby is only legitimate
        // when nothing was acked — checked above via promoted >= acked.
        return Ok(());
    }

    // Invariants 1 + 2: the head restores exactly the promoted epoch's
    // state on every page — never a mix of epochs.
    let Some(tag) = expected.get(&pr.promoted_epoch) else {
        t.violation(format_args!("promoted unknown epoch {}", pr.promoted_epoch));
        return Ok(());
    };
    let head = store
        .borrow()
        .head()
        .ok_or_else(|| Error::internal("promoted store has no head"))?;
    let arena = restore_read(
        &mut standby,
        &store,
        head,
        RestoreMode::Eager,
        app.addr,
        (REPL_SWEEP_PAGES * 4096) as usize,
    )?;
    let mut clean = true;
    for (p, page) in arena.chunks(4096).enumerate() {
        let want = format!("{tag}-p{p:02}");
        if !page.starts_with(want.as_bytes()) {
            clean = false;
            t.violation(format_args!(
                "torn epoch — page {p} restored {:?}, expected {:?}",
                String::from_utf8_lossy(page.get(..want.len()).unwrap_or(page)),
                want
            ));
        }
    }
    if clean {
        t.report.restores_verified += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_a_failing_ordinal_and_keeps_going() {
        let mut ran = Vec::new();
        let report = sweep("probe", 1..=3u64, no_twin, |_, n, _| {
            ran.push(n);
            if n == 2 {
                return Err(Error::internal("boom"));
            }
            Ok(())
        });
        assert_eq!(ran, [1, 2, 3], "later ordinals still run");
        assert_eq!(report.schedules, 3, "the failing ordinal still counts");
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = report.violations.first().map(String::as_str).unwrap_or_default();
        assert!(
            v.starts_with("probe 2: harness error: ") && v.contains("boom"),
            "{v}"
        );
    }

    #[test]
    fn sweep_without_its_twin_runs_no_ordinal() {
        let report = sweep(
            "probe",
            1..=3u64,
            |_| Err::<(), _>(Error::internal("no twin")),
            |_, _, _| panic!("an ordinal ran without its twin"),
        );
        assert_eq!(report.schedules, 0);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(
            report.violations.iter().all(|v| v.starts_with("probe twin: harness error: ")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn short_campaign_passes_both_invariants() {
        let cfg = CampaignConfig {
            schedules: 8,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.schedules, 8);
        assert!(report.committed >= 8, "every schedule has a baseline");
        assert!(report.crashes >= 8, "every schedule ends in a crash");
        assert!(report.restores_verified >= 8);
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig {
            schedules: 4,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.restores_verified, b.restores_verified);
    }

    #[test]
    fn hostile_rates_still_pass() {
        let cfg = CampaignConfig {
            schedules: 4,
            rates: FaultRates::hostile(),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn power_cut_sweep_mid_parallel_flush_recovers_clean() {
        let report = run_power_cut_sweep(18, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 18, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the coalesced flush"
        );
        assert!(
            report.restores_verified > 0,
            "baselines must survive every cut"
        );
    }

    #[test]
    fn power_cut_sweep_mid_batched_restore_leaves_store_intact() {
        let report = run_restore_power_cut_sweep(12, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 12, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "cuts must land inside the batched restore's reads"
        );
        assert_eq!(
            report.restores_verified, 12,
            "a read-side cut can never damage the baseline"
        );
    }

    #[test]
    fn delta_power_cut_sweep_replays_identically() {
        let report = run_delta_power_cut_sweep(14, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 14, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the delta flush"
        );
        assert!(
            report.restores_verified > 0,
            "baselines must survive every cut"
        );
    }

    #[test]
    fn fleet_fault_domain_sweep_contains_the_blast() {
        let report = run_fleet_fault_domain_sweep(4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.schedules, 3, "one iteration per fault plan");
        assert!(
            report.aborted > 0,
            "the poisoned tenant must abort or skip some cycles"
        );
        assert!(
            report.committed > 0,
            "healthy tenants must keep committing throughout"
        );
        assert!(
            report.degraded > 0,
            "a damaged or aborted base must degrade the poisoned tenant's next cycle to full"
        );
        assert!(
            report.restores_verified >= 81,
            "per plan: 3 healthy tenants x {FD_ROUNDS} rounds plus the poisoned \
             tenant's 3 required checkpoints, each digest-equal to the twin"
        );
    }

    #[test]
    fn fleet_power_cut_sweep_recovers_both_tenants() {
        let report = run_fleet_power_cut_sweep(8, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 8, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the interleaved cycles"
        );
        assert!(
            report.restores_verified > 0,
            "both tenants' baselines must survive every cut"
        );
    }

    #[test]
    fn compaction_power_cut_sweep_never_tears_a_chain() {
        let report = run_compact_power_cut_sweep(12, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 12, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the capping round or the fold"
        );
        assert!(
            report.restores_verified > 0,
            "baselines must survive every cut"
        );
    }

    #[test]
    fn mirror_kill_sweep_mid_flush_loses_nothing() {
        let report = run_mirror_kill_sweep(12, 2);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.degraded_mirror > 0,
            "some kills must land inside the flush and degrade the mirror"
        );
        assert!(
            report.restores_verified >= 12,
            "every surviving checkpoint must verify, including from the rebuilt replica alone"
        );
    }

    #[test]
    fn mirror_kill_sweep_width_three() {
        let report = run_mirror_kill_sweep(6, 3);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.degraded_mirror > 0);
    }

    #[test]
    fn mirror_restore_sweep_fails_over_instead_of_aborting() {
        let report = run_mirror_restore_failover_sweep(10, 2);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.aborted, 0, "a mirrored restore never aborts on one dead replica");
        assert!(
            report.failovers > 0,
            "some cuts must land inside the restore's reads and fail over"
        );
    }

    #[test]
    fn resilver_power_cut_never_promotes_a_half_copied_replica() {
        let report = run_resilver_power_cut_sweep(8, 2);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.aborted > 0,
            "some cuts must land inside the resilver copy"
        );
        assert_eq!(report.crashes, 8, "every iteration reboots mid-rebuild");
        assert!(
            report.restores_verified >= 16,
            "both rounds verify after reboot and again from the rebuilt replica alone"
        );
    }

    #[test]
    fn replication_kill_sweep_never_promotes_torn_epoch() {
        // Lossy link: drops, duplicates, reorders and partitions are all
        // in play while the kill walks through the frame stream.
        let report = run_replication_kill_sweep(24, LinkFaultRates::lossy());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 24, "every iteration loses the primary");
        assert!(
            report.restores_verified > 0,
            "later kills must leave promotable epochs"
        );
    }

    #[test]
    fn replication_kill_sweep_clean_link_converges_past_the_stream() {
        let report = run_replication_kill_sweep(10, LinkFaultRates::clean());
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn replication_kill_sweep_is_deterministic() {
        let a = run_replication_kill_sweep(6, LinkFaultRates::lossy());
        let b = run_replication_kill_sweep(6, LinkFaultRates::lossy());
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.restores_verified, b.restores_verified);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn env_override_parses() {
        // Not set in the test environment: default flows through.
        assert_eq!(schedules_from_env(123), 123);
    }
}
