//! End-to-end and per-layer benchmark of the Aurora simulator.
//!
//! ```text
//! aurora-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! A run generates every input from the seed, then repeats whole passes
//! (set-up, warm-up, measured window, crash and recovery) until
//! `--seconds` have gone by, at least three times untraced. Virtual-clock
//! results must be identical in every pass; wall-clock results are the
//! median over passes. With `--trace 1` untraced and traced passes
//! alternate, and the per-layer metrics come from the traced ones.
//! The last line of standard output is one JSON object.

mod gen;
mod kv;
mod layers;
mod serverless;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use aurora_core::RestoreBreakdown;

use crate::stats::{median, ratio, Samples};
use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`.
const E2E: &[(&str, &str)] = &[
    ("reply_p50_us", "us"),
    ("reply_p99_us", "us"),
    ("recovery_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("wall_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Span names whose self time the traced run reports.
const SELF_SPANS: &[&str] = &[
    "op",
    "posix.client_write",
    "apps.kv.serve_conn",
    "release",
    "core.poll_durability",
    "posix.client_read",
    "core.checkpoint",
    "invocation",
    "core.restore",
    "apps.serverless.invoke",
    "bench.verify",
    "apps.serverless.retire",
    "core.release_image",
];

/// Per-layer metrics: `(name, unit)`. Every workload reports every one;
/// a layer a workload does not reach reads 0.
const LAYER: &[(&str, &str)] = &[
    ("apps.kv.serve_wall_us_p50", "us"),
    ("apps.kv.serve_wall_growth", "ratio"),
    ("apps.serverless.invoke_wall_us_p50", "us"),
    ("apps.serverless.invoke_wall_us_p99", "us"),
    ("apps.serverless.invoke_virt_us_p50", "us"),
    ("apps.serverless.invoke_virt_us_p99", "us"),
    ("posix.client_io_wall_us_p50", "us"),
    ("posix.ipc_bytes_per_op", "B"),
    ("vm.cow_faults_per_op", "count"),
    ("vm.pages_copied_per_op", "count"),
    ("vm.major_faults_per_invoke", "count"),
    ("core.checkpoint.wall_ms_p50", "ms"),
    ("core.checkpoint.wall_ms_p99", "ms"),
    ("core.checkpoint.count", "count"),
    ("core.checkpoint.not_committed", "count"),
    ("core.checkpoint.stop_p50_us", "us"),
    ("core.checkpoint.stop_p99_us", "us"),
    ("core.checkpoint.metadata_us", "us"),
    ("core.checkpoint.cow_arm_us", "us"),
    ("core.checkpoint.pages_p50", "count"),
    ("core.checkpoint.fg_charge_p50_us", "us"),
    ("core.checkpoint.fg_charge_p99_us", "us"),
    ("core.flush.hash_us", "us"),
    ("core.flush.span_p50_us", "us"),
    ("core.flush.span_p99_us", "us"),
    ("core.flush.lag_p50_us", "us"),
    ("core.flush.lag_p99_us", "us"),
    ("core.flush.bytes_per_ckpt", "B"),
    ("core.fleet.overlapped", "count"),
    ("core.fleet.queue_stalls", "count"),
    ("core.fleet.deadline_misses", "count"),
    ("core.fleet.quarantines", "count"),
    ("core.restore.count", "count"),
    ("core.restore.wall_us_p50", "us"),
    ("core.restore.wall_us_p99", "us"),
    ("core.restore.total_us_p50", "us"),
    ("core.restore.total_us_p99", "us"),
    ("core.restore.objstore_read_us", "us"),
    ("core.restore.memory_state_us", "us"),
    ("core.restore.metadata_state_us", "us"),
    ("core.restore.read_stage_us", "us"),
    ("core.restore.hash_stage_us", "us"),
    ("core.restore.pages_prefetched", "count"),
    ("objstore.dedup_hit_rate", "ratio"),
    ("objstore.blocks_per_extent", "ratio"),
    ("objstore.delta_records", "count"),
    ("objstore.delta_bytes", "B"),
    ("objstore.journal_bytes", "B"),
    ("objstore.gc_runs", "count"),
    ("objstore.chains_compacted", "count"),
    ("objstore.read_cache_hit_rate", "ratio"),
    ("objstore.read_cache_hits", "count"),
    ("objstore.read_cache_misses", "count"),
    ("objstore.read_cache_content_hits", "count"),
    ("objstore.read_repairs", "count"),
    ("hw.bytes_written_per_op", "B"),
    ("hw.writes_per_op", "count"),
    ("hw.flushes_per_op", "count"),
    ("hw.reads_per_op", "count"),
    ("hw.bytes_read_per_op", "B"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("self_pct.bench.loop", "%"),
    ("self_pct.op", "%"),
    ("self_pct.posix.client_write", "%"),
    ("self_pct.apps.kv.serve_conn", "%"),
    ("self_pct.release", "%"),
    ("self_pct.core.poll_durability", "%"),
    ("self_pct.posix.client_read", "%"),
    ("self_pct.core.checkpoint", "%"),
    ("self_pct.invocation", "%"),
    ("self_pct.core.restore", "%"),
    ("self_pct.apps.serverless.invoke", "%"),
    ("self_pct.bench.verify", "%"),
    ("self_pct.apps.serverless.retire", "%"),
    ("self_pct.core.release_image", "%"),
];

/// Untraced passes a run makes at least (set-up time is their median).
const MIN_UNTRACED: usize = 3;
/// A run that has repeated its pass starts no new one that would, at the
/// pace so far, end after this many seconds.
const RUN_BUDGET_S: f64 = 150.0;

/// The measured results of one pass.
pub struct PassOut {
    pub setup_s: f64,
    pub window_s: f64,
    /// Requests or invocations in the measured window.
    pub ops: u64,
    /// Of those (and of the post-crash checks), how many failed.
    pub failed: u64,
    /// Problems that make the pass itself invalid.
    pub errors: Vec<String>,
    pub virt_window_s: f64,
    /// Spans recorded up to the end of the measured window.
    pub window_spans: usize,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    counts: Vec<(&'static str, usize)>,
    signature: Vec<(&'static str, u64)>,
}

impl PassOut {
    pub fn new(setup_s: f64, window_s: f64, ops: u64) -> PassOut {
        PassOut {
            setup_s,
            window_s,
            ops,
            failed: 0,
            errors: Vec::new(),
            virt_window_s: 0.0,
            window_spans: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            counts: Vec::new(),
            signature: Vec::new(),
        }
    }

    pub fn harness_error(why: String) -> PassOut {
        let mut out = PassOut::new(0.0, 0.0, 0);
        out.errors.push(why);
        out
    }

    /// A virtual-clock end-to-end result (part of the signature).
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        self.e2e.insert(name, v);
        self.signature.push((name, v.to_bits()));
    }

    /// A per-layer result. Those derived from the virtual clock or from
    /// counters join the signature; wall-clock ones must not.
    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layer.insert(name, v);
        if !name.contains("wall") {
            self.signature.push((name, v.to_bits()));
        }
    }

    /// The sample count behind a percentile, for the summary.
    pub fn count(&mut self, name: &'static str, n: usize) {
        self.counts.push((name, n));
        self.signature.push((name, n as u64));
    }

    pub fn counters(&mut self, c: &layers::Counters) {
        self.signature.extend(c.fields());
        self.signature.push(("failed", self.failed));
        self.signature
            .push(("virt_window_ns", (self.virt_window_s * 1e9) as u64));
    }

    /// `core.restore.*` from restore breakdowns and the wall time of the
    /// restore calls.
    pub fn restores(&mut self, r: &[RestoreBreakdown], wall_us: Samples) {
        let mut total = Samples::default();
        let mut read = Samples::default();
        let mut mem = Samples::default();
        let mut meta = Samples::default();
        let mut stage = Samples::default();
        let mut hash = Samples::default();
        let mut pref = Samples::default();
        for b in r {
            total.push(b.total.as_micros_f64());
            read.push(b.objstore_read.as_micros_f64());
            mem.push(b.memory_state.as_micros_f64());
            meta.push(b.metadata_state.as_micros_f64());
            stage.push(b.read_stage.as_micros_f64());
            hash.push(b.hash_stage.as_micros_f64());
            pref.push(b.pages_prefetched as f64);
        }
        self.layer("core.restore.count", r.len() as f64);
        self.layer("core.restore.wall_us_p50", wall_us.p50());
        self.layer("core.restore.wall_us_p99", wall_us.p99());
        self.layer("core.restore.total_us_p50", total.p50());
        self.layer("core.restore.total_us_p99", total.p99());
        self.layer("core.restore.objstore_read_us", read.p50());
        self.layer("core.restore.memory_state_us", mem.p50());
        self.layer("core.restore.metadata_state_us", meta.p50());
        self.layer("core.restore.read_stage_us", stage.p50());
        self.layer("core.restore.hash_stage_us", hash.p50());
        self.layer("core.restore.pages_prefetched", pref.mean());
    }

    /// `objstore.*` and `hw.*` from the window's counter deltas.
    pub fn store_and_device(&mut self, d: &layers::Counters, ops: f64) {
        let f = |v: u64| v as f64;
        self.layer(
            "objstore.dedup_hit_rate",
            ratio(f(d.dedup_hits), f(d.pages_written)),
        );
        self.layer(
            "objstore.blocks_per_extent",
            ratio(f(d.extent_blocks), f(d.extents)),
        );
        self.layer("objstore.delta_records", f(d.delta_records));
        self.layer("objstore.delta_bytes", f(d.delta_bytes));
        self.layer("objstore.journal_bytes", f(d.journal_bytes));
        self.layer("objstore.gc_runs", f(d.gc_runs));
        self.layer("objstore.chains_compacted", f(d.chains_compacted));
        self.layer(
            "objstore.read_cache_hit_rate",
            ratio(f(d.cache_hits), f(d.cache_hits + d.cache_misses)),
        );
        self.layer("objstore.read_cache_hits", f(d.cache_hits));
        self.layer("objstore.read_cache_misses", f(d.cache_misses));
        self.layer("objstore.read_cache_content_hits", f(d.cache_content_hits));
        self.layer("objstore.read_repairs", f(d.read_repairs));
        self.layer("hw.bytes_written_per_op", f(d.dev_bytes_written) / ops);
        self.layer("hw.writes_per_op", f(d.dev_writes) / ops);
        self.layer("hw.flushes_per_op", f(d.dev_flushes) / ops);
        self.layer("hw.reads_per_op", f(d.dev_reads) / ops);
        self.layer("hw.bytes_read_per_op", f(d.dev_bytes_read) / ops);
    }
}

enum Workload {
    Kv(kv::KvSpec),
    Serverless(serverless::SlSpec),
}

/// The three workloads. Why each exists is recorded in BENCHMARK.json.
fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // One server, one client, mostly reads: checkpoint-bound; no
        // fleet scheduler, no restore while timing.
        "kv_read_mostly" => Workload::Kv(kv::KvSpec {
            tenants: 1,
            keys: 16 * 1024,
            read_frac: 0.9,
            sizes: &[256],
            key_theta: 0.99,
            tenant_theta: 0.0,
            gap_ns: 20_000,
            window_ops: 60_000,
            fleet: false,
            heap_bytes: 64 << 20,
            dev_blocks: 256 * 1024,
        }),
        // Four tenants through the fleet scheduler, mostly writes of
        // mixed sizes (sub-page deltas and full pages).
        "fleet_write_mix" => Workload::Kv(kv::KvSpec {
            tenants: 4,
            keys: 8 * 1024,
            read_frac: 0.3,
            sizes: &[64, 2048],
            key_theta: 0.99,
            tenant_theta: 0.99,
            gap_ns: 20_000,
            window_ops: 10_000,
            fleet: true,
            heap_bytes: 256 << 20,
            dev_blocks: 1024 * 1024,
        }),
        // Function starts from images larger than the store's read
        // cache in total: restore, object-store reads, VM faults.
        "serverless_cold_start" => Workload::Serverless(serverless::SlSpec {
            images: 32,
            runtime_pages: 256,
            fn_pages: (224, 288),
            hot_pages: (56, 72),
            keep_warm: 8,
            theta: 0.99,
            gap_ns: 2_500_000,
            warm_invocations: 200,
            window_invocations: 10_000,
            dev_blocks: 128 * 1024,
        }),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(&args, &spec) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, spec: &Workload) -> Result<String, String> {
    // Inputs first: generation is outside every timer.
    let seed = aurora_sim::rng::mix64(args.seed ^ 0x7065_7266_6265_6e63);
    let kv_inputs;
    let sl_inputs;
    let mut pass: Box<dyn FnMut(&mut Tracer) -> PassOut> = match spec {
        Workload::Kv(s) => {
            kv_inputs = kv::generate(s, seed);
            Box::new(|tr| kv::run_pass(s, &kv_inputs, tr))
        }
        Workload::Serverless(s) => {
            sl_inputs = serverless::generate(s, seed);
            Box::new(|tr| serverless::run_pass(s, &sl_inputs, tr))
        }
    };

    let t0 = criterion::wall_now();
    let mut untraced: Vec<PassOut> = Vec::new();
    let mut traced_ops: Vec<f64> = Vec::new();
    let mut traced: Option<(PassOut, Tracer)> = None;
    let min_untraced = if args.trace { 1 } else { MIN_UNTRACED };
    loop {
        let trace_this = args.trace && untraced.len() > traced_ops.len();
        let mut tr = Tracer::new(trace_this);
        let out = pass(&mut tr);
        if !out.errors.is_empty() && out.ops == 0 {
            return Err(out.errors.join("; "));
        }
        if let Some(first) = untraced.first() {
            check_same(first, &out)?;
        }
        if trace_this {
            traced_ops.push(out.ops as f64 / out.window_s);
            traced = Some((out, tr));
        } else {
            untraced.push(out);
        }
        let elapsed = criterion::wall_now().duration_since(t0).as_secs_f64();
        let passes = untraced.len() + traced_ops.len();
        let has_traced = !args.trace || traced.is_some();
        let enough = untraced.len() >= min_untraced && has_traced;
        let over_budget = elapsed * (passes + 1) as f64 / passes as f64 > RUN_BUDGET_S;
        if (enough && elapsed >= args.seconds) || (passes >= 2 && has_traced && over_budget) {
            break;
        }
    }

    let first = &untraced[0];
    let attempted: u64 = untraced.iter().map(|p| p.ops).sum();
    let failed: u64 = untraced.iter().map(|p| p.failed).sum();
    let correct = untraced
        .iter()
        .chain(traced.as_ref().map(|(p, _)| p))
        .all(|p| p.failed == 0 && p.errors.is_empty());
    let setup_s = median(&untraced.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let ops_per_s: Vec<f64> = untraced.iter().map(|p| p.ops as f64 / p.window_s).collect();
    let wall_ops = median(&ops_per_s);

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "# {} seed {}: {} untraced pass(es), {} traced; window {} ops, {:.3} s virtual",
        args.workload,
        args.seed,
        untraced.len(),
        traced_ops.len(),
        first.ops,
        first.virt_window_s
    );
    let per_pass: Vec<String> = ops_per_s.iter().map(|v| format!("{v:.0}")).collect();
    let _ = writeln!(
        summary,
        "#   ops per wall second by pass: {}",
        per_pass.join(" ")
    );
    for (name, n) in &first.counts {
        let _ = writeln!(
            summary,
            "#   percentiles over {n} {name} samples (nearest rank)"
        );
    }
    for e in untraced.iter().flat_map(|p| &p.errors).take(8) {
        let _ = writeln!(summary, "#   error: {e}");
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let (tp, tr) = traced.as_ref().expect("a traced run makes a traced pass");
        let self_ns = tr.self_wall_ns(tp.window_spans);
        let window_ns = tp.window_s * 1e9;
        let mut layer = tp.layer.clone();
        layer.insert(
            "bench.trace_overhead_pct",
            (wall_ops / median(&traced_ops) - 1.0) * 100.0,
        );
        let mut covered = 0.0;
        for name in SELF_SPANS {
            let pct = *self_ns.get(name).unwrap_or(&0) as f64 / window_ns * 100.0;
            covered += pct;
            layer.insert(self_key(name), pct);
        }
        layer.insert("self_pct.bench.loop", 100.0 - covered);
        for &(name, unit) in LAYER {
            metrics.push((name, unit, *layer.get(name).unwrap_or(&0.0)));
        }
        if let Some(dir) = &args.trace_out {
            let path = format!("{dir}/{}.csv", args.workload);
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, tr.csv()))
                .map_err(|e| format!("writing {path}: {e}"))?;
            let _ = writeln!(summary, "#   spans written to {path}");
        }
    } else {
        for &(name, unit) in E2E {
            let v = match name {
                "wall_ops_per_s" => wall_ops,
                "setup_s" => setup_s,
                "peak_rss_mb" => layers::peak_rss_mb(),
                "ok_frac" => (attempted - failed.min(attempted)) as f64 / attempted as f64,
                _ => first.e2e[name],
            };
            metrics.push((name, unit, v));
        }
    }
    for (name, unit, v) in &metrics {
        let _ = writeln!(summary, "{name} = {v} {unit}");
    }
    print!("{summary}");

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn self_key(span: &str) -> &'static str {
    LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_prefix("self_pct.") == Some(span))
        .expect("every self-time span has a metric")
}

/// Virtual-clock results and counts must repeat exactly for one seed.
fn check_same(a: &PassOut, b: &PassOut) -> Result<(), String> {
    if a.signature == b.signature {
        return Ok(());
    }
    let diff: Vec<String> = a
        .signature
        .iter()
        .zip(&b.signature)
        .filter(|(x, y)| x != y)
        .take(5)
        .map(|((n, x), (_, y))| format!("{n}: {x} vs {y}"))
        .collect();
    Err(format!(
        "the same seed gave different virtual results on a repeat: {}",
        if diff.is_empty() {
            "signature lengths differ".into()
        } else {
            diff.join(", ")
        }
    ))
}
