//! Flush-pipeline benchmark: serial vs parallel checkpoint trajectory.
//!
//! Runs the standard KV workload under repeated checkpoints at 1, 2, 4
//! and 8 flush workers and emits `BENCH_checkpoint.json` with flush
//! throughput (pages/sec), flush latency percentiles, the dedup hit
//! rate, and the serial-vs-parallel speedup per worker count. Workers
//! = 1 is the serial reference: the hash stage runs inline on the
//! driving thread.
//!
//! Throughput and latency are measured in **virtual time**: the flush
//! span charged to the simulation clock, which includes the hash stage
//! at the calibrated per-core bandwidth divided by worker count plus
//! the modeled device writes. That keeps the trajectory deterministic
//! and independent of how many physical CPUs the harness machine has
//! (CI runners are often single-core, where a wall-clock comparison
//! could never show thread-level speedup). `--hash-micro` is the
//! wall-clock companion: it times the *real* `hash_picked` implementation
//! to sanity-check the `HASH_BW_PER_CORE` calibration.
//!
//! Flags:
//!
//! * `--quick` — smaller workload and fewer rounds (CI smoke).
//! * `--gate <min>` — exit non-zero unless speedup at 4 workers ≥ min.
//! * `--out <path>` — output path (default `BENCH_checkpoint.json`).
//! * `--hash-micro` — wall-time the hash stage alone and exit.
//!
//! Wall time (harness runtime and the micro probe) is read through
//! `criterion_shim::wall_now`, the workspace's single sanctioned
//! wall-clock site.

use std::fmt::Write as _;

use aurora_apps::kv::{KvServer, PersistMode};
use aurora_apps::workload::{KeyDist, Workload};
use aurora_bench::bench_host;
use aurora_sim::stats::LogHistogram;
use criterion::wall_now;

/// Worker counts swept, serial reference first.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

struct BenchConfig {
    /// KV arena bytes.
    arena: u64,
    /// Distinct keys in the workload.
    keys: u64,
    /// Value size in bytes.
    val: usize,
    /// Mutations between checkpoints.
    ops_per_round: u64,
    /// Measured checkpoint rounds per worker count.
    rounds: u32,
}

impl BenchConfig {
    fn standard() -> Self {
        BenchConfig {
            arena: 64 << 20,
            keys: 16 * 1024,
            val: 256,
            ops_per_round: 4096,
            rounds: 4,
        }
    }

    fn quick() -> Self {
        BenchConfig {
            arena: 16 << 20,
            keys: 4 * 1024,
            val: 128,
            ops_per_round: 1024,
            rounds: 2,
        }
    }
}

/// Measured numbers for one worker count.
struct WorkerResult {
    workers: usize,
    pages: u64,
    flush_secs: f64,
    pages_per_sec: f64,
    flush_p50_us: f64,
    flush_p99_us: f64,
    hash_stage_us: f64,
    dedup_hit_rate: f64,
    extents: u64,
    extent_blocks: u64,
}

/// One full trajectory at a fixed worker count: build the server, take
/// a durable baseline, then `rounds` mutate-and-checkpoint cycles,
/// accumulating each checkpoint's flush span in virtual time.
fn run_workers(cfg: &BenchConfig, workers: usize) -> WorkerResult {
    let mut host = bench_host(512 * 1024);
    host.sls.flush_workers = workers;
    let mut server = KvServer::start(
        &mut host,
        PersistMode::AuroraTransparent,
        cfg.arena,
        16 * 1024,
    )
    .expect("kv server");
    let gid = server.gid.expect("transparent mode has a group");
    let mut w = Workload::new(42, cfg.keys, cfg.val, 0.0, KeyDist::Zipfian { theta: 0.99 });
    for op in w.load_ops() {
        server.exec(&mut host, &op).expect("load");
    }
    host.checkpoint(gid, true, None).expect("baseline");
    host.wait_durable(gid).expect("durable");

    let dedup0 = host.sls.primary.borrow().stats.dedup_hits;
    let written0 = host.sls.primary.borrow().stats.pages_written;
    let ext0 = host.sls.primary.borrow().stats.extents_coalesced;
    let blk0 = host.sls.primary.borrow().stats.blocks_coalesced;

    let mut pages = 0u64;
    let mut flush_secs = 0f64;
    let mut flush_lat = LogHistogram::new();
    let mut hash_us = 0f64;
    for _ in 0..cfg.rounds {
        for _ in 0..cfg.ops_per_round {
            let op = w.next_op();
            server.exec(&mut host, &op).expect("op");
        }
        // Full checkpoints keep the flush plan large (the whole resident
        // set is hashed; dedup absorbs the unchanged pages), which is
        // the regime the hash stage parallelizes.
        let bd = host.checkpoint(gid, true, None).expect("checkpoint");
        host.wait_durable(gid).expect("durable");
        pages += bd.pages;
        flush_secs += bd.flush_span.as_secs_f64();
        flush_lat.record_duration(bd.flush_span);
        hash_us += bd.hash_stage.as_micros_f64();
    }

    let store = host.sls.primary.borrow();
    let dedup_hits = store.stats.dedup_hits - dedup0;
    let written = store.stats.pages_written - written0;
    WorkerResult {
        workers,
        pages,
        flush_secs,
        pages_per_sec: if flush_secs > 0.0 {
            pages as f64 / flush_secs
        } else {
            0.0
        },
        flush_p50_us: flush_lat.p50() as f64 / 1_000.0,
        flush_p99_us: flush_lat.p99() as f64 / 1_000.0,
        hash_stage_us: hash_us / cfg.rounds as f64,
        dedup_hit_rate: if written > 0 {
            dedup_hits as f64 / written as f64
        } else {
            0.0
        },
        extents: store.stats.extents_coalesced - ext0,
        extent_blocks: store.stats.blocks_coalesced - blk0,
    }
}

/// Isolated hash-stage probe (`--hash-micro`): wall-times the flush
/// path's `hash_picked` alone on a plan of materialized pages, every
/// page picked and none hashed yet, per worker count. The 1-worker
/// ns/page figure is what `HASH_BW_PER_CORE` in `aurora_sim::cost` is
/// calibrated against (≈6 µs per 4 KiB page, ~0.7 GB/s).
fn hash_micro() {
    use aurora_core::flush;
    use aurora_objstore::ObjId;
    use aurora_vm::PageData;
    let n = 4096usize;
    let plan: Vec<flush::PlanPage> = (0..n)
        .map(|i| {
            let bytes: Vec<u8> = (0..4096).map(|j| ((i * 31 + j) % 251) as u8).collect();
            (ObjId(0), i as u64, PageData::from_bytes(&bytes))
        })
        .collect();
    for w in WORKERS {
        let picked = vec![true; n];
        let mut hashes = vec![None; n];
        let t0 = wall_now();
        let out = flush::hash_picked(&plan, &picked, &mut hashes, w);
        let dt = t0.elapsed();
        let out = match out {
            Ok(writes) => writes.len().to_string(),
            Err(e) => format!("error: {e}"),
        };
        println!(
            "hash_picked n={n} workers={w}: {:?} ({:.0} ns/page), out={out}",
            dt,
            dt.as_nanos() as f64 / n as f64,
        );
    }
}

fn emit_json(results: &[WorkerResult], serial_pps: f64, harness_secs: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"checkpoint_flush_pipeline\",");
    let _ = writeln!(s, "  \"workload\": \"kv_zipfian_full_checkpoints\",");
    let _ = writeln!(s, "  \"time_domain\": \"virtual\",");
    let _ = writeln!(s, "  \"harness_wall_secs\": {harness_secs:.3},");
    let _ = writeln!(s, "  \"workers\": [");
    for (i, r) in results.iter().enumerate() {
        let speedup = if serial_pps > 0.0 {
            r.pages_per_sec / serial_pps
        } else {
            0.0
        };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workers\": {},", r.workers);
        let _ = writeln!(s, "      \"pages\": {},", r.pages);
        let _ = writeln!(s, "      \"flush_secs\": {:.6},", r.flush_secs);
        let _ = writeln!(s, "      \"pages_per_sec\": {:.1},", r.pages_per_sec);
        let _ = writeln!(s, "      \"speedup_vs_serial\": {:.3},", speedup);
        let _ = writeln!(s, "      \"flush_latency_p50_us\": {:.1},", r.flush_p50_us);
        let _ = writeln!(s, "      \"flush_latency_p99_us\": {:.1},", r.flush_p99_us);
        let _ = writeln!(s, "      \"hash_stage_us\": {:.1},", r.hash_stage_us);
        let _ = writeln!(s, "      \"dedup_hit_rate\": {:.4},", r.dedup_hit_rate);
        let _ = writeln!(s, "      \"extents_coalesced\": {},", r.extents);
        let _ = writeln!(s, "      \"blocks_coalesced\": {}", r.extent_blocks);
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--hash-micro") {
        hash_micro();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let gate: Option<f64> = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(1.0));
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_checkpoint.json".to_string());
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::standard()
    };

    let t0 = wall_now();
    let results: Vec<WorkerResult> = WORKERS.iter().map(|&w| run_workers(&cfg, w)).collect();
    let harness_secs = t0.elapsed().as_secs_f64();
    let serial_pps = results
        .first()
        .map(|r| r.pages_per_sec)
        .unwrap_or_default();
    let json = emit_json(&results, serial_pps, harness_secs);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_checkpoint: cannot write {out}: {e}");
        std::process::exit(2);
    }
    print!("{json}");

    for r in &results {
        println!(
            "workers={}: {:.0} pages/sec ({:.2}x serial), flush p50 {:.0}us p99 {:.0}us, \
             dedup {:.1}%, {} extents / {} blocks",
            r.workers,
            r.pages_per_sec,
            if serial_pps > 0.0 { r.pages_per_sec / serial_pps } else { 0.0 },
            r.flush_p50_us,
            r.flush_p99_us,
            100.0 * r.dedup_hit_rate,
            r.extents,
            r.extent_blocks,
        );
    }

    if let Some(min) = gate {
        let speedup4 = results
            .iter()
            .find(|r| r.workers == 4)
            .map(|r| r.pages_per_sec / serial_pps)
            .unwrap_or(0.0);
        if speedup4 < min {
            eprintln!("bench_checkpoint: GATE FAILED: speedup at 4 workers {speedup4:.3} < {min}");
            std::process::exit(1);
        }
        println!("gate passed: speedup at 4 workers {speedup4:.3} >= {min}");
    }
}
