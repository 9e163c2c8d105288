//! Restore-pipeline benchmark: warm-start trajectory of the batched
//! read path.
//!
//! Builds a checkpointed image on a materialized store, crashes the
//! machine, and then restores it repeatedly under every restore mode at
//! 1, 2, 4 and 8 workers, emitting `BENCH_restore.json`. Workers = 1 is
//! the serial reference: the per-page loop that reads, hashes and wires
//! one page at a time. Each variant measures two regimes:
//!
//! * **cold** — the store's caches are dropped before every round
//!   (`drop_caches`), so each restore pays full device reads: the state
//!   of a machine that has never run the image.
//! * **warm** — the image cache is released (`release_image`) but the
//!   store's content-addressed read cache is left populated, so the
//!   planner's probes and every lazy fault hit and pages are served at
//!   cache-hit cost: the warm-start regime the shared read cache exists
//!   for.
//!
//! Throughput and latency are measured in **virtual time** — the span
//! the restore charges to the simulation clock (extent reads at modeled
//! NVMe latency/bandwidth, the hash stage at the calibrated per-core
//! bandwidth divided by workers, cache hits at the indexed-lookup
//! cost). That keeps the trajectory deterministic and independent of
//! the harness machine's CPU count.
//!
//! Flags:
//!
//! * `--quick` — smaller image and fewer rounds (CI smoke).
//! * `--gate <min>` — exit non-zero unless the 4-worker eager restore
//!   reaches `min`× the serial throughput (default 2.0), warm rounds
//!   beat cold rounds, and the warm hit rate is positive; and unless, at
//!   4 workers, the `lazy` and `lazy_prefetch` warm hit rates are
//!   positive and their warm p50 is below their cold p50.
//! * `--out <path>` — output path (default `BENCH_restore.json`).

use std::fmt::Write as _;

use aurora_core::restore::RestoreMode;
use aurora_core::Host;
use aurora_hw::ModelDev;
use aurora_objstore::{CkptId, StoreConfig};
use aurora_sim::stats::LogHistogram;
use aurora_sim::SimClock;
use criterion::wall_now;

/// Worker counts swept, serial reference first.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Restore modes swept.
const MODES: [(&str, RestoreMode); 3] = [
    ("eager", RestoreMode::Eager),
    ("lazy", RestoreMode::Lazy),
    ("lazy_prefetch", RestoreMode::LazyPrefetch),
];

struct BenchConfig {
    /// Pages in the checkpointed image.
    pages: u64,
    /// Cold restore rounds per variant.
    cold_rounds: u32,
    /// Warm restore rounds per variant.
    warm_rounds: u32,
}

impl BenchConfig {
    fn standard() -> Self {
        BenchConfig {
            pages: 1024,
            cold_rounds: 4,
            warm_rounds: 4,
        }
    }

    fn quick() -> Self {
        BenchConfig {
            pages: 256,
            cold_rounds: 2,
            warm_rounds: 2,
        }
    }
}

/// Measured numbers for one (mode, workers) variant.
struct VariantResult {
    mode: &'static str,
    workers: usize,
    cold_pages_per_sec: f64,
    cold_p50_us: f64,
    cold_p99_us: f64,
    warm_pages_per_sec: f64,
    warm_p50_us: f64,
    warm_p99_us: f64,
    warm_hit_rate: f64,
    extents_read: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Builds the deterministic world: a process with `pages` written pages
/// (seeded pattern with a sprinkle of duplicate pages for dedup),
/// checkpointed durably on a materialized store, then crashed. Returns
/// the rebooted host plus the mapped base address and checkpoint id.
fn build_world(cfg: &BenchConfig) -> (Host, u64, CkptId) {
    let clock = SimClock::new();
    let blocks = cfg.pages * 8 + 64 * 1024;
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", blocks));
    let mut host = Host::boot(
        "restore-bench",
        dev,
        StoreConfig {
            journal_blocks: 8 * 1024,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .expect("host boot");
    let pid = host.kernel.spawn("image");
    let addr = host
        .kernel
        .mmap_anon(pid, cfg.pages * 4096, false)
        .expect("map");
    for p in 0..cfg.pages {
        // One page in eight repeats an earlier body so the dedup index
        // and the read cache's content index see realistic twins.
        let seed = if p % 8 == 7 { p / 8 } else { p };
        let body = [(seed % 249) as u8 + 1; 48];
        host.kernel
            .mem_write(pid, addr + p * 4096, &body)
            .expect("write");
    }
    let gid = host.persist("image", pid).expect("persist");
    let bd = host.checkpoint(gid, true, Some("image")).expect("ckpt");
    host.clock.advance_to(bd.durable_at);
    let ckpt = bd.ckpt.expect("ckpt id");
    let host = host.crash_and_reboot().expect("reboot");
    (host, addr, ckpt)
}

/// One restore round: restore, touch every page (lazy modes fault the
/// remainder in), retire the instance. Returns (virtual span, read-cache
/// hits, misses, breakdown extents). Hits and misses are the store's
/// counters over the round, so they include the single-block reads
/// behind serial page-ins and lazy faults, not only the batched plan.
fn round(
    host: &mut Host,
    cfg: &BenchConfig,
    addr: u64,
    ckpt: CkptId,
    mode: RestoreMode,
) -> (f64, u64, u64, u64) {
    let store = host.sls.primary.clone();
    let probes = || {
        let st = store.borrow();
        (st.stats.read_cache_hits, st.stats.read_cache_misses)
    };
    let (hits0, misses0) = probes();
    let t0 = host.clock.now();
    let r = host.restore(&store, ckpt, mode).expect("restore");
    let np = r.root_pid().expect("pid");
    let mut buf = [0u8; 8];
    for p in 0..cfg.pages {
        host.kernel
            .mem_read(np, addr + p * 4096, &mut buf)
            .expect("touch");
    }
    let span = host.clock.now().since(t0);
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
    let (hits1, misses1) = probes();
    (
        span.as_secs_f64(),
        hits1 - hits0,
        misses1 - misses0,
        r.extents_read,
    )
}

/// One full trajectory at a fixed (mode, workers): cold rounds with the
/// caches dropped before each, then warm rounds against the populated
/// read cache.
fn run_variant(cfg: &BenchConfig, mode_label: &'static str, mode: RestoreMode, workers: usize) -> VariantResult {
    let (mut host, addr, ckpt) = build_world(cfg);
    host.sls.restore_workers = workers;
    let store = host.sls.primary.clone();

    let mut cold_secs = 0f64;
    let mut cold_lat = LogHistogram::new();
    let mut extents = 0u64;
    for _ in 0..cfg.cold_rounds {
        // Cold machine: no image cache, no page bodies, no read cache.
        host.release_image(&store, ckpt);
        store.borrow_mut().drop_caches().expect("materialized store");
        let (secs, _, _, ext) = round(&mut host, cfg, addr, ckpt, mode);
        cold_secs += secs;
        cold_lat.record_duration(aurora_sim::time::SimDuration::from_nanos(
            (secs * 1e9) as u64,
        ));
        extents += ext;
    }

    let mut warm_secs = 0f64;
    let mut warm_lat = LogHistogram::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for _ in 0..cfg.warm_rounds {
        // Warm store: the read cache survives; only the wired image is
        // released, so the planner re-reads through the cache.
        host.release_image(&store, ckpt);
        let (secs, h, m, ext) = round(&mut host, cfg, addr, ckpt, mode);
        warm_secs += secs;
        warm_lat.record_duration(aurora_sim::time::SimDuration::from_nanos(
            (secs * 1e9) as u64,
        ));
        hits += h;
        misses += m;
        extents += ext;
    }

    let touched = cfg.pages as f64;
    VariantResult {
        mode: mode_label,
        workers,
        cold_pages_per_sec: touched * cfg.cold_rounds as f64 / cold_secs,
        cold_p50_us: cold_lat.p50() as f64 / 1_000.0,
        cold_p99_us: cold_lat.p99() as f64 / 1_000.0,
        warm_pages_per_sec: touched * cfg.warm_rounds as f64 / warm_secs,
        warm_p50_us: warm_lat.p50() as f64 / 1_000.0,
        warm_p99_us: warm_lat.p99() as f64 / 1_000.0,
        warm_hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        extents_read: extents,
        cache_hits: hits,
        cache_misses: misses,
    }
}

fn emit_json(cfg: &BenchConfig, results: &[VariantResult], harness_secs: f64) -> String {
    // Serial eager throughput is the speedup reference for every row.
    let serial_eager = results
        .iter()
        .find(|r| r.mode == "eager" && r.workers == 1)
        .map(|r| r.cold_pages_per_sec)
        .unwrap_or(0.0);
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"restore_pipeline\",");
    let _ = writeln!(s, "  \"workload\": \"seeded_image_cold_and_warm_restores\",");
    let _ = writeln!(s, "  \"time_domain\": \"virtual\",");
    let _ = writeln!(s, "  \"image_pages\": {},", cfg.pages);
    let _ = writeln!(s, "  \"harness_wall_secs\": {harness_secs:.3},");
    let _ = writeln!(s, "  \"variants\": [");
    for (i, r) in results.iter().enumerate() {
        let speedup = if serial_eager > 0.0 {
            r.cold_pages_per_sec / serial_eager
        } else {
            0.0
        };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"mode\": \"{}\",", r.mode);
        let _ = writeln!(s, "      \"workers\": {},", r.workers);
        let _ = writeln!(s, "      \"cold_pages_per_sec\": {:.1},", r.cold_pages_per_sec);
        let _ = writeln!(s, "      \"speedup_vs_serial_eager\": {:.3},", speedup);
        let _ = writeln!(s, "      \"cold_p50_us\": {:.1},", r.cold_p50_us);
        let _ = writeln!(s, "      \"cold_p99_us\": {:.1},", r.cold_p99_us);
        let _ = writeln!(s, "      \"warm_pages_per_sec\": {:.1},", r.warm_pages_per_sec);
        let _ = writeln!(s, "      \"warm_p50_us\": {:.1},", r.warm_p50_us);
        let _ = writeln!(s, "      \"warm_p99_us\": {:.1},", r.warm_p99_us);
        let _ = writeln!(s, "      \"warm_hit_rate\": {:.4},", r.warm_hit_rate);
        let _ = writeln!(s, "      \"read_cache_hits\": {},", r.cache_hits);
        let _ = writeln!(s, "      \"read_cache_misses\": {},", r.cache_misses);
        let _ = writeln!(s, "      \"extents_read\": {}", r.extents_read);
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate: Option<f64> = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(2.0));
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_restore.json".to_string());
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::standard()
    };

    let t0 = wall_now();
    let mut results = Vec::new();
    for (label, mode) in MODES {
        for w in WORKERS {
            results.push(run_variant(&cfg, label, mode, w));
        }
    }
    let harness_secs = t0.elapsed().as_secs_f64();
    let json = emit_json(&cfg, &results, harness_secs);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_restore: cannot write {out}: {e}");
        std::process::exit(2);
    }
    print!("{json}");

    let serial_eager = results
        .iter()
        .find(|r| r.mode == "eager" && r.workers == 1)
        .map(|r| r.cold_pages_per_sec)
        .unwrap_or(0.0);
    for r in &results {
        println!(
            "{} workers={}: cold {:.0} pages/sec ({:.2}x serial eager) p50 {:.0}us, \
             warm {:.0} pages/sec p50 {:.0}us hit rate {:.1}%, {} extents",
            r.mode,
            r.workers,
            r.cold_pages_per_sec,
            if serial_eager > 0.0 {
                r.cold_pages_per_sec / serial_eager
            } else {
                0.0
            },
            r.cold_p50_us,
            r.warm_pages_per_sec,
            r.warm_p50_us,
            100.0 * r.warm_hit_rate,
            r.extents_read,
        );
    }

    if let Some(min) = gate {
        let eager4 = results
            .iter()
            .find(|r| r.mode == "eager" && r.workers == 4)
            .expect("eager 4-worker variant");
        let speedup = if serial_eager > 0.0 {
            eager4.cold_pages_per_sec / serial_eager
        } else {
            0.0
        };
        let mut failed = false;
        if speedup < min {
            eprintln!("bench_restore: GATE FAILED: 4-worker eager speedup {speedup:.3} < {min}");
            failed = true;
        }
        if eager4.warm_pages_per_sec <= eager4.cold_pages_per_sec {
            eprintln!(
                "bench_restore: GATE FAILED: warm {:.0} pages/sec not above cold {:.0}",
                eager4.warm_pages_per_sec, eager4.cold_pages_per_sec
            );
            failed = true;
        }
        if eager4.warm_hit_rate <= 0.0 {
            eprintln!("bench_restore: GATE FAILED: warm hit rate is zero");
            failed = true;
        }
        // Lazy modes fault pages in one at a time; those reads must hit
        // the warm read cache too.
        for mode in ["lazy", "lazy_prefetch"] {
            let r = results
                .iter()
                .find(|r| r.mode == mode && r.workers == 4)
                .expect("lazy 4-worker variants");
            if r.warm_hit_rate <= 0.0 {
                eprintln!("bench_restore: GATE FAILED: {mode} warm hit rate is zero");
                failed = true;
            }
            if r.warm_p50_us >= r.cold_p50_us {
                eprintln!(
                    "bench_restore: GATE FAILED: {mode} warm p50 {:.1}us not below cold {:.1}us",
                    r.warm_p50_us, r.cold_p50_us
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gate passed: 4-worker eager {speedup:.3}x serial, warm beats cold, hit rate {:.1}%; \
             lazy modes hit the warm cache and start faster warm",
            100.0 * eager4.warm_hit_rate
        );
    }
}
