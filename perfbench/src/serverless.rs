//! The serverless workload: cold and warm starts of function images.
//!
//! Every invocation restores its function's image (`LazyPrefetch`),
//! invokes it, checks what it touched, and retires the instance. A
//! keep-warm LRU on the benchmark side holds the most recent images'
//! shared frames; an image that falls out of it is released, so its
//! next start is cold. No checkpoints run while timing: this load is
//! restore, object-store reads and VM faults.

use aurora_apps::serverless::{self, FunctionImage, Instance, RUNTIME_SEED};
use aurora_core::restore::RestoreMode;
use aurora_core::{Host, RestoreBreakdown};
use aurora_hw::ModelDev;
use aurora_objstore::StoreConfig;
use aurora_sim::error::{Error, Result};
use aurora_sim::rng::{mix64, Xoshiro256};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::SimClock;
use aurora_vm::page::PageData;

use crate::gen::{Arrivals, Zipf};
use crate::layers;
use crate::stats::{ratio, Samples};
use crate::trace::{Tracer, NONE};
use crate::PassOut;

const PAGE: u64 = 4096;
/// Bytes an invocation reads from each page it touches.
const PROBE: usize = 64;
/// Function-region pages `serverless::invoke` touches.
const FN_TOUCHED: u64 = 4;

pub struct SlSpec {
    pub images: usize,
    pub runtime_pages: u64,
    /// Function-region pages, drawn per function uniformly from this
    /// inclusive range: functions differ in size.
    pub fn_pages: (u64, u64),
    /// Runtime pages an invocation touches, drawn per function
    /// uniformly from this inclusive range.
    pub hot_pages: (u64, u64),
    pub keep_warm: usize,
    pub theta: f64,
    pub gap_ns: u64,
    pub warm_invocations: usize,
    pub window_invocations: usize,
    pub dev_blocks: u64,
}

pub struct Inputs {
    /// `(due ns after the stream start, function)`; the first
    /// `warm_invocations` are warm-up.
    calls: Vec<(u64, u32)>,
    fn_seeds: Vec<u64>,
    fn_pages: Vec<u64>,
    /// Runtime pages each function's invocations touch.
    hot: Vec<u64>,
    warm: usize,
}

pub fn generate(spec: &SlSpec, seed: u64) -> Inputs {
    let mut rng = Xoshiro256::seed_from(seed);
    let fn_seeds = (0..spec.images).map(|_| rng.next_u64()).collect();
    let (lo, hi) = spec.fn_pages;
    let fn_pages = (0..spec.images)
        .map(|_| lo + rng.next_below(hi - lo + 1))
        .collect();
    let (lo, hi) = spec.hot_pages;
    let hot = (0..spec.images)
        .map(|_| lo + rng.next_below(hi - lo + 1))
        .collect();
    let zipf = Zipf::new(spec.images, spec.theta, &mut rng);
    let mut arrivals = Arrivals::new(spec.gap_ns);
    let n = spec.warm_invocations + spec.window_invocations;
    let calls = (0..n)
        .map(|_| (arrivals.next(&mut rng), zipf.draw(&mut rng)))
        .collect();
    Inputs {
        calls,
        fn_seeds,
        fn_pages,
        hot,
        warm: spec.warm_invocations,
    }
}

/// The first bytes of a page built by `touch_seeded` from `seed_base`,
/// derived the way it derives them, not read from the simulator.
fn seeded_probe(addr: u64, seed_base: u64) -> [u8; PROBE] {
    let mut buf = [0u8; PROBE];
    PageData::Seeded(mix64(mix64(seed_base) ^ (addr / PAGE))).read(0, &mut buf);
    buf
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// What an invocation of one image must read.
struct Expected {
    /// Digest of the first `k` runtime pages' probes, for every `k`.
    runtime: Vec<u64>,
    /// Digest of the touched function pages' probes.
    func: u64,
}

impl Expected {
    fn new(img: &FunctionImage, max_hot: u64, fn_seed: u64) -> Expected {
        let mut h = FNV0;
        let mut runtime = vec![h];
        for i in 0..max_hot.min(img.runtime_pages) {
            h = fnv(h, &seeded_probe(img.runtime_addr + i * PAGE, RUNTIME_SEED));
            runtime.push(h);
        }
        let func = (0..FN_TOUCHED.min(img.fn_pages)).fold(FNV0, |h, i| {
            fnv(h, &seeded_probe(img.fn_addr + i * PAGE, fn_seed))
        });
        Expected { runtime, func }
    }
}

struct Fleet {
    images: Vec<FunctionImage>,
    expected: Vec<Expected>,
    /// Keep-warm LRU of image indices, most recent first.
    lru: Vec<u32>,
}

#[derive(Default)]
struct Obs {
    reply_us: Samples,
    service_us: Samples,
    late_us: Samples,
    restores: Vec<RestoreBreakdown>,
    failed: u64,
    errors: Vec<String>,
}

impl Obs {
    fn fail(&mut self, why: String) {
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
        self.failed += 1;
    }
}

pub fn run_pass(spec: &SlSpec, inp: &Inputs, tr: &mut Tracer) -> PassOut {
    match run_pass_inner(spec, inp, tr) {
        Ok(out) => out,
        Err(e) => PassOut::harness_error(format!("serverless pass aborted: {e}")),
    }
}

fn run_pass_inner(spec: &SlSpec, inp: &Inputs, tr: &mut Tracer) -> Result<PassOut> {
    let setup_t0 = criterion::wall_now();
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock.clone(), "nvme0", spec.dev_blocks));
    let mut host = Host::boot("perfbench", dev, StoreConfig::default())?;
    host.sls.flush_workers = 2;
    host.sls.restore_workers = 2;

    let built0 = layers::read(&host);
    let mut fleet = Fleet {
        images: Vec::with_capacity(spec.images),
        expected: Vec::with_capacity(spec.images),
        lru: Vec::new(),
    };
    for (f, (&seed, &pages)) in inp.fn_seeds.iter().zip(&inp.fn_pages).enumerate() {
        let img = serverless::build_image(
            &mut host,
            &format!("fn{f}"),
            spec.runtime_pages,
            pages,
            seed,
        )?;
        fleet
            .expected
            .push(Expected::new(&img, spec.hot_pages.1, seed));
        fleet.images.push(img);
    }
    let build = layers::read(&host).since(&built0);
    let image_pages: u64 = inp.fn_pages.iter().map(|p| p + spec.runtime_pages).sum();
    let image_bytes = (image_pages * PAGE) as f64;

    let mut obs = Obs::default();
    let traced = std::mem::replace(&mut tr.enabled, false);
    let base = host.clock.now();
    for (i, &(due, f)) in inp.calls[..inp.warm].iter().enumerate() {
        call(
            spec,
            &mut host,
            &mut fleet,
            &mut obs,
            tr,
            i,
            base + SimDuration::from_nanos(due),
            f,
            inp.hot[f as usize],
            false,
        );
    }
    tr.enabled = traced;
    let setup_s = criterion::wall_now().duration_since(setup_t0).as_secs_f64();

    let before = layers::read(&host);
    let virt0 = host.clock.now();
    let wall0 = criterion::wall_now();
    for (i, &(due, f)) in inp.calls.iter().enumerate().skip(inp.warm) {
        call(
            spec,
            &mut host,
            &mut fleet,
            &mut obs,
            tr,
            i,
            base + SimDuration::from_nanos(due),
            f,
            inp.hot[f as usize],
            true,
        );
    }
    let window_s = criterion::wall_now().duration_since(wall0).as_secs_f64();
    let window_spans = tr.spans.len();
    let virt_window = host.clock.now().since(virt0);
    let delta = layers::read(&host).since(&before);
    let space_amp = layers::store_bytes(&host) as f64 / image_bytes;

    // Crash; recovery ends when every image of the keep-warm set has
    // started and served an invocation again. Then every image must
    // still start correctly.
    let window_restores = std::mem::take(&mut obs.restores);
    let rec_root = tr.begin(&clock, "recovery", NONE, 0);
    let crash_at = host.clock.now();
    // The crash needs the only handle to the store: drop the images'.
    let parts: Vec<_> = fleet
        .images
        .drain(..)
        .map(|i| {
            (
                i.ckpt,
                i.name,
                i.runtime_pages,
                i.fn_pages,
                i.runtime_addr,
                i.fn_addr,
            )
        })
        .collect();
    let s = tr.begin(&clock, "core.crash_and_reboot", rec_root, 0);
    let mut host = host.crash_and_reboot()?;
    tr.end(&clock, s);
    fleet.images = parts
        .into_iter()
        .map(
            |(ckpt, name, runtime_pages, fn_pages, runtime_addr, fn_addr)| FunctionImage {
                ckpt,
                store: host.sls.primary.clone(),
                name,
                runtime_pages,
                fn_pages,
                runtime_addr,
                fn_addr,
            },
        )
        .collect();
    let warm_set = std::mem::take(&mut fleet.lru);
    for &f in &warm_set {
        if !start_and_check(
            &mut host,
            &fleet,
            f as usize,
            inp.hot[f as usize],
            tr,
            rec_root,
            u64::MAX,
            &mut obs,
        ) {
            obs.fail(format!("fn{f}: no start after the crash"));
        }
    }
    tr.end(&clock, rec_root);
    let recovery_us = host.clock.now().since(crash_at).as_micros_f64();
    for f in 0..fleet.images.len() {
        if !start_and_check(
            &mut host,
            &fleet,
            f,
            inp.hot[f],
            tr,
            NONE,
            u64::MAX,
            &mut obs,
        ) {
            obs.fail(format!("fn{f}: image does not start after the crash"));
        }
    }

    let n = spec.window_invocations as f64;
    let mut out = PassOut::new(setup_s, window_s, spec.window_invocations as u64);
    out.failed = obs.failed;
    out.errors = obs.errors;
    out.virt_window_s = virt_window.as_secs_f64();
    out.e2e("reply_p50_us", obs.reply_us.p50());
    out.e2e("reply_p99_us", obs.reply_us.p99());
    out.e2e("recovery_us", recovery_us);
    out.e2e(
        "write_amp",
        ratio(build.dev_bytes_written as f64, image_bytes),
    );
    out.e2e("space_amp", space_amp);
    out.count("invocation", obs.reply_us.len());
    let inv = tr.wall_us("invocation", window_spans);
    out.layer("apps.serverless.invoke_wall_us_p50", inv.p50());
    out.layer("apps.serverless.invoke_wall_us_p99", inv.p99());
    out.layer("apps.serverless.invoke_virt_us_p50", obs.service_us.p50());
    out.layer("apps.serverless.invoke_virt_us_p99", obs.service_us.p99());
    out.layer("vm.major_faults_per_invoke", delta.major_faults as f64 / n);
    out.layer("posix.ipc_bytes_per_op", delta.ipc_bytes as f64 / n);
    out.restores(&window_restores, tr.wall_us("core.restore", window_spans));
    out.window_spans = window_spans;
    out.store_and_device(&delta, n);
    out.layer("bench.gen_late_p99_us", obs.late_us.p99());
    out.counters(&delta);
    Ok(out)
}

/// One invocation at its due time: restore, invoke, check, retire, and
/// keep-warm bookkeeping.
#[allow(clippy::too_many_arguments)]
fn call(
    spec: &SlSpec,
    host: &mut Host,
    fleet: &mut Fleet,
    obs: &mut Obs,
    tr: &mut Tracer,
    i: usize,
    due: SimTime,
    f: u32,
    hot: u64,
    measuring: bool,
) {
    host.clock.advance_to(due);
    let start = host.clock.now();
    let clock = host.clock.clone();
    let root = tr.begin(&clock, "invocation", NONE, i as u64);
    let ok = start_and_check(host, fleet, f as usize, hot, tr, root, i as u64, obs);
    let done = host.clock.now();
    if !ok {
        obs.fail(format!("invocation {i} of fn{f} failed"));
    } else if measuring {
        obs.reply_us.push(done.since(due).as_micros_f64());
        obs.service_us.push(done.since(start).as_micros_f64());
        obs.late_us.push(start.since(due).as_micros_f64());
    }
    if !measuring {
        obs.restores.clear();
    }
    // Keep-warm: the least recent image beyond the limit is released.
    fleet.lru.retain(|&g| g != f);
    fleet.lru.insert(0, f);
    if fleet.lru.len() > spec.keep_warm {
        let victim = fleet.lru.pop().expect("lru is over its limit") as usize;
        let s = tr.begin(&clock, "core.release_image", root, i as u64);
        let img = &fleet.images[victim];
        host.release_image(&img.store, img.ckpt);
        tr.end(&clock, s);
    }
    tr.end(&clock, root);
}

/// Starts function `f`, invokes it once over `hot` runtime pages,
/// checks its counter register and the bytes it touched, and retires it. The restore
/// breakdown goes to `obs.restores`. Returns whether all of it worked.
#[allow(clippy::too_many_arguments)]
fn start_and_check(
    host: &mut Host,
    fleet: &Fleet,
    f: usize,
    hot: u64,
    tr: &mut Tracer,
    root: u32,
    req: u64,
    obs: &mut Obs,
) -> bool {
    let img = &fleet.images[f];
    let clock = host.clock.clone();
    let s = tr.begin(&clock, "core.restore", root, req);
    let started = serverless::instantiate(host, img, RestoreMode::LazyPrefetch);
    tr.end(&clock, s);
    let inst: Instance = match started {
        Ok((inst, bd)) => {
            obs.restores.push(bd);
            inst
        }
        Err(e) => {
            obs.errors.push(format!("fn{f}: restore: {e}"));
            return false;
        }
    };
    let s = tr.begin(&clock, "apps.serverless.invoke", root, req);
    let invoked = serverless::invoke(host, img, inst, hot);
    tr.end(&clock, s);
    let s = tr.begin(&clock, "bench.verify", root, req);
    let checked = invoked.and_then(|_| verify(host, img, inst, hot, &fleet.expected[f]));
    tr.end(&clock, s);
    let s = tr.begin(&clock, "apps.serverless.retire", root, req);
    let retired = serverless::retire(host, inst);
    tr.end(&clock, s);
    match checked.and(retired) {
        Ok(()) => true,
        Err(e) => {
            obs.errors.push(format!("fn{f}: {e}"));
            false
        }
    }
}

fn verify(
    host: &mut Host,
    img: &FunctionImage,
    inst: Instance,
    hot: u64,
    want: &Expected,
) -> Result<()> {
    let count = host.kernel.get_reg(inst.pid, 2)?;
    if count != 1 {
        return Err(Error::corrupt(format!(
            "invocation counter reads {count}, not 1"
        )));
    }
    let mut digest = |addr: u64, pages: u64| -> Result<u64> {
        let mut h = FNV0;
        let mut buf = [0u8; PROBE];
        for i in 0..pages {
            host.kernel.mem_read(inst.pid, addr + i * PAGE, &mut buf)?;
            h = fnv(h, &buf);
        }
        Ok(h)
    };
    let runtime = digest(img.runtime_addr, hot.min(img.runtime_pages))?;
    let func = digest(img.fn_addr, FN_TOUCHED.min(img.fn_pages))?;
    if want.runtime.get(hot.min(img.runtime_pages) as usize) != Some(&runtime) || func != want.func
    {
        return Err(Error::corrupt(
            "touched bytes differ from the image's seeded digest",
        ));
    }
    Ok(())
}
