//! The KV workloads: persisted `KvServer`s answering clients outside
//! their persistence groups over simulated TCP.
//!
//! Open loop on the virtual clock: each request has a due time drawn
//! before the pass starts, and its reply latency runs from that due time
//! to the instant the client can read the reply, so a stall also counts
//! against every request queued behind it. Replies are held by external
//! consistency until the checkpoint covering them is durable.

use std::collections::VecDeque;

use aurora_apps::kv::{KvOp, KvServer, PersistMode};
use aurora_core::restore::RestoreMode;
use aurora_core::{GroupId, Host};
use aurora_hw::ModelDev;
use aurora_objstore::{CkptId, StoreConfig};
use aurora_posix::{Fd, Pid};
use aurora_sim::codec::Decoder;
use aurora_sim::error::{ErrorKind, Result};
use aurora_sim::rng::Xoshiro256;
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::SimClock;

use crate::gen::{key_bytes, Arrivals, Values, Zipf};
use crate::layers;
use crate::stats::{ratio, Samples};
use crate::trace::{Tracer, NONE};
use crate::PassOut;

/// Checkpoint period of every group (the `Group` default, 100 Hz).
const PERIOD_NS: u64 = 10_000_000;
/// Fired checkpoints per group before measuring: the history window,
/// after which every checkpoint also garbage-collects the oldest one.
const WARM_CHECKPOINTS: u64 = 32;
/// A reply not readable this long after the last request's due time
/// counts as missing.
const DRAIN_LIMIT_NS: u64 = 20 * PERIOD_NS;
/// Client read size, the same as the server's.
const READ_CHUNK: usize = 64 * 1024;
/// First TCP port; tenant `t` listens on `PORT + t`.
const PORT: u16 = 6379;

/// One KV workload's shape.
pub struct KvSpec {
    pub tenants: usize,
    pub keys: u32,
    pub read_frac: f64,
    /// Value sizes, drawn uniformly per write (and per key at preload).
    pub sizes: &'static [u32],
    pub key_theta: f64,
    pub tenant_theta: f64,
    /// Mean gap between arrivals (virtual ns).
    pub gap_ns: u64,
    /// Requests in the measured window.
    pub window_ops: usize,
    /// Drive checkpoints through the fleet scheduler (`fleet_tick`)
    /// instead of `checkpoint_tick`.
    pub fleet: bool,
    pub heap_bytes: u64,
    pub dev_blocks: u64,
}

#[derive(Clone, Copy)]
struct Req {
    /// Due time, ns after the stream's start.
    due: u64,
    tenant: u16,
    set: bool,
    key: u32,
    /// A SET's new version, or the version a GET must return.
    version: u32,
    /// A SET's value length, or the length a GET must return.
    len: u32,
}

/// Everything a pass needs, drawn from the seed before any timer.
pub struct Inputs {
    /// Value length of every key at preload, per tenant.
    preload: Vec<Vec<u32>>,
    /// Requests `..warm` are warm-up; the rest are the measured window.
    warm: usize,
    reqs: Vec<Req>,
    /// `(version, len)` of every key once all requests are applied.
    last: Vec<Vec<(u32, u32)>>,
    values: Values,
}

pub fn generate(spec: &KvSpec, seed: u64) -> Inputs {
    let mut rng = Xoshiro256::seed_from(seed);
    let values = Values::new(&mut rng);
    let key_zipf: Vec<Zipf> = (0..spec.tenants)
        .map(|_| Zipf::new(spec.keys as usize, spec.key_theta, &mut rng))
        .collect();
    let tenant_zipf = Zipf::new(spec.tenants, spec.tenant_theta, &mut rng);
    let pick = |rng: &mut Xoshiro256| spec.sizes[rng.next_below(spec.sizes.len() as u64) as usize];
    let preload: Vec<Vec<u32>> = (0..spec.tenants)
        .map(|_| (0..spec.keys).map(|_| pick(&mut rng)).collect())
        .collect();
    let mut last: Vec<Vec<(u32, u32)>> = preload
        .iter()
        .map(|t| t.iter().map(|&len| (0, len)).collect())
        .collect();
    // Warm-up spans the first WARM_CHECKPOINTS periods of the slowest
    // (last-staggered) group, plus slack for ticks that fire late.
    let warm_ns = (WARM_CHECKPOINTS + 2) * PERIOD_NS;
    let mut arrivals = Arrivals::new(spec.gap_ns);
    let mut reqs = Vec::new();
    let mut warm = 0;
    loop {
        let due = arrivals.next(&mut rng);
        if due >= warm_ns && warm == 0 {
            warm = reqs.len();
        }
        if warm > 0 && reqs.len() == warm + spec.window_ops {
            break;
        }
        let tenant = tenant_zipf.draw(&mut rng) as usize;
        let key = key_zipf[tenant].draw(&mut rng);
        let set = !rng.chance(spec.read_frac);
        let slot = &mut last[tenant][key as usize];
        if set {
            *slot = (slot.0 + 1, pick(&mut rng));
        }
        reqs.push(Req {
            due,
            tenant: tenant as u16,
            set,
            key,
            version: slot.0,
            len: slot.1,
        });
    }
    Inputs {
        preload,
        warm,
        reqs,
        last,
        values,
    }
}

/// One tenant: a persisted server and its client outside the group.
struct Tenant {
    server: KvServer,
    gid: GroupId,
    conn: Fd,
    client: Pid,
    client_fd: Fd,
    /// Reply bytes read but not yet parsed, from `pos` on.
    buf: Vec<u8>,
    pos: usize,
    /// Requests sent and not yet answered, oldest first.
    pending: VecDeque<usize>,
    ticks: u64,
}

/// Per-pass observations.
#[derive(Default)]
struct Obs {
    reply_us: Samples,
    late_us: Samples,
    ckpt_fg_us: Samples,
    ckpt_stop_us: Samples,
    ckpt_meta_us: Samples,
    ckpt_cow_us: Samples,
    ckpt_pages: Samples,
    flush_hash_us: Samples,
    flush_span_us: Samples,
    flush_lag_us: Samples,
    flush_bytes: Samples,
    ckpt_not_committed: u64,
    failed: Vec<bool>,
    acked_set_bytes: u64,
    errors: Vec<String>,
    measuring: bool,
}

impl Obs {
    fn fail(&mut self, i: usize, why: String) {
        if !self.failed[i] && self.errors.len() < 8 {
            self.errors.push(format!("request {i}: {why}"));
        }
        self.failed[i] = true;
    }
}

fn boot(spec: &KvSpec) -> Result<Host> {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", spec.dev_blocks));
    let mut host = Host::boot("perfbench", dev, StoreConfig::default())?;
    host.sls.flush_workers = 2;
    host.sls.restore_workers = 2;
    Ok(host)
}

pub fn run_pass(spec: &KvSpec, inp: &Inputs, tr: &mut Tracer) -> PassOut {
    match run_pass_inner(spec, inp, tr) {
        Ok(out) => out,
        Err(e) => PassOut::harness_error(format!("kv pass aborted: {e}")),
    }
}

fn run_pass_inner(spec: &KvSpec, inp: &Inputs, tr: &mut Tracer) -> Result<PassOut> {
    let setup_t0 = criterion::wall_now();
    let mut host = boot(spec)?;
    let buckets = (spec.keys as u64 * 2).next_power_of_two();
    let mut tenants = Vec::with_capacity(spec.tenants);
    let mut vbuf = Vec::new();
    for t in 0..spec.tenants {
        let mut server = KvServer::start(
            &mut host,
            PersistMode::AuroraTransparent,
            spec.heap_bytes,
            buckets,
        )?;
        let gid = server.gid.expect("transparent servers are persisted");
        for (key, &len) in inp.preload[t].iter().enumerate() {
            inp.values.build(t as u32, key as u32, 0, len, &mut vbuf);
            server.exec(&mut host, &KvOp::Set(key_bytes(key as u32), vbuf.clone()))?;
        }
        let lfd = server.listen(&mut host, PORT + t as u16)?;
        let client = host.kernel.spawn("perfbench-client");
        let client_fd = host.kernel.tcp_connect(client, PORT + t as u16)?;
        let conn = server.accept(&mut host, lfd)?;
        tenants.push(Tenant {
            server,
            gid,
            conn,
            client,
            client_fd,
            buf: Vec::new(),
            pos: 0,
            pending: VecDeque::new(),
            ticks: 0,
        });
    }
    // Stagger the groups' periods evenly; the stream starts now.
    let start = host.clock.now();
    for (t, ten) in tenants.iter().enumerate() {
        let offset = PERIOD_NS * t as u64 / spec.tenants as u64;
        host.sls.group_mut(ten.gid)?.next_due = start + SimDuration::from_nanos(offset);
    }
    let mut obs = Obs {
        failed: vec![false; inp.reqs.len()],
        ..Obs::default()
    };

    let traced = std::mem::replace(&mut tr.enabled, false);
    drive(
        spec,
        inp,
        &mut host,
        &mut tenants,
        &mut obs,
        tr,
        0..inp.warm,
        start,
    )?;
    tr.enabled = traced;
    for (t, ten) in tenants.iter().enumerate() {
        if ten.ticks < WARM_CHECKPOINTS {
            obs.errors.push(format!(
                "tenant {t}: only {} checkpoints in warm-up",
                ten.ticks
            ));
        }
    }
    let setup_s = criterion::wall_now().duration_since(setup_t0).as_secs_f64();

    // Measured window: the remaining requests plus the final drain.
    let before = layers::read(&host);
    let ticks_before: u64 = tenants.iter().map(|t| t.ticks).sum();
    let virt0 = host.clock.now();
    obs.measuring = true;
    let wall0 = criterion::wall_now();
    drive(
        spec,
        inp,
        &mut host,
        &mut tenants,
        &mut obs,
        tr,
        inp.warm..inp.reqs.len(),
        start,
    )?;
    let window_s = criterion::wall_now().duration_since(wall0).as_secs_f64();
    let window_spans = tr.spans.len();

    obs.measuring = false;
    let virt_window = host.clock.now().since(virt0);
    let delta = layers::read(&host).since(&before);
    let ticks = tenants.iter().map(|t| t.ticks).sum::<u64>() - ticks_before;
    for ten in &tenants {
        for &i in &ten.pending {
            obs.fail(i, "reply missing after the final drain".into());
        }
    }

    let live_bytes: u64 = inp
        .last
        .iter()
        .flat_map(|t| t.iter().enumerate())
        .map(|(key, &(_, len))| key_bytes(key as u32).len() as u64 + len as u64)
        .sum();
    let space_amp = layers::store_bytes(&host) as f64 / live_bytes as f64;

    // Crash, then restore every tenant from its newest durable
    // checkpoint and have it answer a GET.
    let histories: Vec<Vec<CkptId>> = tenants
        .iter()
        .map(|t| host.sls.group_ref(t.gid).map(|g| g.history.clone()))
        .collect::<Result<_>>()?;
    let rec_root = tr.begin(&host.clock, "recovery", NONE, 0);
    let crash_at = host.clock.now();
    let clock = host.clock.clone();
    let s = tr.begin(&clock, "core.crash_and_reboot", rec_root, 0);
    let mut host = host.crash_and_reboot()?;
    tr.end(&clock, s);
    let mut servers = Vec::with_capacity(tenants.len());
    let mut restores = Vec::with_capacity(tenants.len());
    for (t, history) in histories.iter().enumerate() {
        let store = host.sls.primary.clone();
        let ckpt = {
            let st = store.borrow();
            let live: Vec<CkptId> = st.checkpoints().iter().map(|c| c.id).collect();
            history.iter().rev().find(|id| live.contains(id)).copied()
        };
        let Some(ckpt) = ckpt else {
            obs.errors
                .push(format!("tenant {t}: no durable checkpoint survived"));
            continue;
        };
        let s = tr.begin(&clock, "core.restore", rec_root, t as u64);
        let restored = host.restore(&store, ckpt, RestoreMode::Eager);
        tr.end(&clock, s);
        let serving = restored.and_then(|bd| {
            let pid = bd.root_pid().expect("a restored group has a root");
            let mut server = KvServer::attach(&mut host, pid, PersistMode::AuroraTransparent)?;
            server.exec(&mut host, &KvOp::Get(key_bytes(0)))?;
            restores.push(bd);
            Ok(server)
        });
        match serving {
            Ok(server) => servers.push((t, server)),
            Err(e) => obs.errors.push(format!("tenant {t}: recovery: {e}")),
        }
    }
    tr.end(&clock, rec_root);
    let recovery_us = host.clock.now().since(crash_at).as_micros_f64();

    // Every acknowledged SET must read back after the crash; a tenant
    // that did not come back loses all of them.
    let mut lost: u64 = (0..spec.tenants)
        .filter(|t| !servers.iter().any(|(s, _)| s == t))
        .map(|t| inp.last[t].len() as u64)
        .sum();
    for (t, server) in &mut servers {
        for (key, &(version, len)) in inp.last[*t].iter().enumerate() {
            inp.values
                .build(*t as u32, key as u32, version, len, &mut vbuf);
            let got = server.exec(&mut host, &KvOp::Get(key_bytes(key as u32)));
            if got.ok().flatten().as_deref() != Some(vbuf.as_slice()) {
                lost += 1;
            }
        }
    }

    let window_failed = obs.failed[inp.warm..].iter().filter(|&&f| f).count() as u64;
    let warm_failed = obs.failed[..inp.warm].iter().filter(|&&f| f).count() as u64;
    if warm_failed > 0 {
        obs.errors
            .push(format!("{warm_failed} warm-up requests failed"));
    }
    let ops = spec.window_ops as f64;
    let mut out = PassOut::new(setup_s, window_s, spec.window_ops as u64);
    out.failed = (window_failed + lost).min(out.ops);
    out.errors = obs.errors;
    out.virt_window_s = virt_window.as_secs_f64();
    out.e2e("reply_p50_us", obs.reply_us.p50());
    out.e2e("reply_p99_us", obs.reply_us.p99());
    out.e2e("recovery_us", recovery_us);
    out.e2e(
        "write_amp",
        ratio(delta.dev_bytes_written as f64, obs.acked_set_bytes as f64),
    );
    out.e2e("space_amp", space_amp);
    out.count("reply", obs.reply_us.len());

    out.layer(
        "apps.kv.serve_wall_us_p50",
        tr.wall_us("apps.kv.serve_conn", window_spans).p50(),
    );
    out.layer(
        "apps.kv.serve_wall_growth",
        tr.wall_us("apps.kv.serve_conn", window_spans).growth(),
    );
    let mut io = tr.wall_us("posix.client_write", window_spans);
    for s in tr.spans[..window_spans]
        .iter()
        .filter(|s| s.name == "posix.client_read")
    {
        io.push(s.wall_us());
    }
    out.layer("posix.client_io_wall_us_p50", io.p50());
    out.layer("posix.ipc_bytes_per_op", delta.ipc_bytes as f64 / ops);
    out.layer("vm.cow_faults_per_op", delta.cow_faults as f64 / ops);
    out.layer("vm.pages_copied_per_op", delta.pages_copied as f64 / ops);
    let ck_wall = tr.wall_us("core.checkpoint", window_spans);
    out.layer("core.checkpoint.wall_ms_p50", ck_wall.p50() / 1e3);
    out.layer("core.checkpoint.wall_ms_p99", ck_wall.p99() / 1e3);
    out.layer("core.checkpoint.count", ticks as f64);
    out.layer(
        "core.checkpoint.not_committed",
        obs.ckpt_not_committed as f64,
    );
    out.layer("core.checkpoint.stop_p50_us", obs.ckpt_stop_us.p50());
    out.layer("core.checkpoint.stop_p99_us", obs.ckpt_stop_us.p99());
    out.layer("core.checkpoint.metadata_us", obs.ckpt_meta_us.p50());
    out.layer("core.checkpoint.cow_arm_us", obs.ckpt_cow_us.p50());
    out.layer("core.checkpoint.pages_p50", obs.ckpt_pages.p50());
    out.layer("core.checkpoint.fg_charge_p50_us", obs.ckpt_fg_us.p50());
    out.layer("core.checkpoint.fg_charge_p99_us", obs.ckpt_fg_us.p99());
    out.layer("core.flush.hash_us", obs.flush_hash_us.p50());
    out.layer("core.flush.span_p50_us", obs.flush_span_us.p50());
    out.layer("core.flush.span_p99_us", obs.flush_span_us.p99());
    out.layer("core.flush.lag_p50_us", obs.flush_lag_us.p50());
    out.layer("core.flush.lag_p99_us", obs.flush_lag_us.p99());
    out.layer("core.flush.bytes_per_ckpt", obs.flush_bytes.mean());
    out.layer("core.fleet.overlapped", delta.fleet_overlapped as f64);
    out.layer("core.fleet.queue_stalls", delta.fleet_queue_stalls as f64);
    out.layer(
        "core.fleet.deadline_misses",
        delta.fleet_deadline_misses as f64,
    );
    out.layer("core.fleet.quarantines", delta.fleet_quarantines as f64);
    out.restores(&restores, tr.wall_us("core.restore", usize::MAX));
    out.window_spans = window_spans;
    out.store_and_device(&delta, ops);
    out.layer("bench.gen_late_p99_us", obs.late_us.p99());
    out.counters(&delta);
    Ok(out)
}

/// Runs requests `range` through the event loop: checkpoint ticks at
/// their due times, reply reads as soon as a hold is released, and each
/// request at its due time (or as soon after as the timeline allows).
/// When `range` ends the stream, it also drains every pending reply.
/// Due times count from `base`.
#[allow(clippy::too_many_arguments)]
fn drive(
    spec: &KvSpec,
    inp: &Inputs,
    host: &mut Host,
    tenants: &mut [Tenant],
    obs: &mut Obs,
    tr: &mut Tracer,
    range: std::ops::Range<usize>,
    base: SimTime,
) -> Result<()> {
    let last = range.end == inp.reqs.len();
    let drain_until =
        base + SimDuration::from_nanos(inp.reqs[inp.reqs.len() - 1].due + DRAIN_LIMIT_NS);
    let mut next = range.start;
    let mut vbuf = Vec::new();
    loop {
        let t_op = inp
            .reqs
            .get(next)
            .filter(|_| next < range.end)
            .map(|r| base + SimDuration::from_nanos(r.due));
        let pending = tenants.iter().any(|t| !t.pending.is_empty());
        if t_op.is_none() && (!last || !pending) {
            return Ok(());
        }
        let mut t_ck = SimTime::MAX;
        let mut t_rel = SimTime::MAX;
        for ten in tenants.iter() {
            let g = host.sls.group_ref(ten.gid)?;
            t_ck = t_ck.min(g.next_due);
            if let Some(&(_, at)) = g.ec_outstanding.front() {
                t_rel = t_rel.min(at);
            }
        }
        let t = t_op.unwrap_or(SimTime::MAX).min(t_ck).min(t_rel);
        if t_op.is_none() && t > drain_until {
            return Ok(());
        }
        host.clock.advance_to(t);
        let now = host.clock.now();
        // A checkpoint may release earlier holds itself, so replies are
        // read after every tick as well as at each durable instant.
        let mut ticked = false;
        if now >= t_ck {
            for ten in tenants.iter_mut() {
                if now >= host.sls.group_ref(ten.gid)?.next_due {
                    tick(spec, host, ten, obs, tr)?;
                    ticked = true;
                }
            }
        }
        if ticked || now >= t_rel {
            let root = tr.begin(&host.clock, "release", NONE, 0);
            let s = tr.begin(&host.clock, "core.poll_durability", root, 0);
            host.poll_durability();
            tr.end(&host.clock, s);
            for ten in tenants.iter_mut() {
                read_replies(inp, host, ten, obs, tr, root, base, &mut vbuf);
            }
            tr.end(&host.clock, root);
        }
        if let Some(t_op) = t_op {
            if host.clock.now() >= t_op {
                send(
                    inp,
                    host,
                    &mut tenants[inp.reqs[next].tenant as usize],
                    obs,
                    tr,
                    next,
                    t_op,
                );
                next += 1;
            }
        }
    }
}

fn tick(
    spec: &KvSpec,
    host: &mut Host,
    ten: &mut Tenant,
    obs: &mut Obs,
    tr: &mut Tracer,
) -> Result<()> {
    let clock = host.clock.clone();
    let s = tr.begin(&clock, "core.checkpoint", NONE, ten.gid.0 as u64);
    let v0 = clock.now();
    let res = if spec.fleet {
        host.fleet_tick(ten.gid)
    } else {
        host.checkpoint_tick(ten.gid)
    };
    let v1 = clock.now();
    tr.end(&clock, s);
    let Some(bd) = res? else {
        return Ok(());
    };
    ten.ticks += 1;
    if !bd.outcome.committed() {
        obs.ckpt_not_committed += 1;
    }
    if obs.measuring {
        obs.ckpt_fg_us.push(v1.since(v0).as_micros_f64());
        obs.ckpt_stop_us.push(bd.stop_time.as_micros_f64());
        obs.ckpt_meta_us.push(bd.metadata_copy.as_micros_f64());
        obs.ckpt_cow_us.push(bd.lazy_data_copy.as_micros_f64());
        obs.ckpt_pages.push(bd.pages as f64);
        obs.flush_hash_us.push(bd.hash_stage.as_micros_f64());
        obs.flush_span_us.push(bd.flush_span.as_micros_f64());
        obs.flush_lag_us
            .push(bd.durable_at.since(v1).as_micros_f64());
        obs.flush_bytes.push(bd.flush_bytes as f64);
    }
    Ok(())
}

fn send(
    inp: &Inputs,
    host: &mut Host,
    ten: &mut Tenant,
    obs: &mut Obs,
    tr: &mut Tracer,
    i: usize,
    due: SimTime,
) {
    let r = inp.reqs[i];
    let clock = host.clock.clone();
    if obs.measuring {
        obs.late_us.push(clock.now().since(due).as_micros_f64());
    }
    let root = tr.begin(&clock, "op", NONE, i as u64);
    let key = key_bytes(r.key);
    let op = if r.set {
        let mut v = Vec::with_capacity(r.len as usize);
        inp.values
            .build(r.tenant as u32, r.key, r.version, r.len, &mut v);
        KvOp::Set(key, v)
    } else {
        KvOp::Get(key)
    };
    let wire = op.encode();
    let s = tr.begin(&clock, "posix.client_write", root, i as u64);
    let sent = host.kernel.write(ten.client, ten.client_fd, &wire);
    tr.end(&clock, s);
    match sent {
        Ok(n) if n == wire.len() => ten.pending.push_back(i),
        Ok(n) => obs.fail(i, format!("short send: {n} of {} bytes", wire.len())),
        Err(e) => obs.fail(i, format!("send: {e}")),
    }
    let s = tr.begin(&clock, "apps.kv.serve_conn", root, i as u64);
    let served = ten.server.serve_conn(host, ten.conn);
    tr.end(&clock, s);
    tr.end(&clock, root);
    if let Err(e) = served {
        obs.fail(i, format!("serve: {e}"));
    }
}

/// The framed reply reader: reads everything the socket holds through
/// `Kernel::read`, then parses every complete frame, keeping a partial
/// frame for the next read. (`KvClient::recv` refills only when its
/// buffer is empty, so a frame split across two reads never completes.)
#[allow(clippy::too_many_arguments)]
fn read_replies(
    inp: &Inputs,
    host: &mut Host,
    ten: &mut Tenant,
    obs: &mut Obs,
    tr: &mut Tracer,
    root: u32,
    base: SimTime,
    vbuf: &mut Vec<u8>,
) {
    let clock = host.clock.clone();
    loop {
        let s = tr.begin(&clock, "posix.client_read", root, 0);
        let got = host.kernel.read(ten.client, ten.client_fd, READ_CHUNK);
        tr.end(&clock, s);
        match got {
            Ok(chunk) if chunk.is_empty() => break,
            Ok(chunk) => ten.buf.extend_from_slice(&chunk),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => {
                if let Some(&i) = ten.pending.front() {
                    obs.fail(i, format!("client read: {e}"));
                }
                break;
            }
        }
    }
    let now = clock.now();
    while let Some((body, used)) = frame(&ten.buf[ten.pos..]) {
        let body = ten.pos + body.start..ten.pos + body.end;
        let Some(i) = ten.pending.pop_front() else {
            obs.errors.push("reply without a request".into());
            ten.pos += used;
            continue;
        };
        let r = inp.reqs[i];
        let ok = if r.set {
            ten.buf[body.clone()] == [0u8]
        } else {
            inp.values
                .build(r.tenant as u32, r.key, r.version, r.len, vbuf);
            let mut d = Decoder::new(&ten.buf[body.clone()]);
            matches!(d.u8(), Ok(1)) && d.bytes().ok() == Some(vbuf.as_slice())
        };
        if !ok {
            obs.fail(
                i,
                if r.set {
                    "bad SET ack"
                } else {
                    "GET disagrees with the shadow map"
                }
                .into(),
            );
        } else if i >= inp.warm {
            let due = base + SimDuration::from_nanos(r.due);
            obs.reply_us.push(now.since(due).as_micros_f64());
            if r.set {
                obs.acked_set_bytes += key_bytes(r.key).len() as u64 + r.len as u64;
            }
        }
        ten.pos += used;
    }
    if ten.pos > 0 && ten.pos * 2 >= ten.buf.len() {
        ten.buf.drain(..ten.pos);
        ten.pos = 0;
    }
}

/// One complete frame at the start of `buf`: the body's byte range and
/// the bytes the frame takes, or `None` while it is incomplete.
fn frame(buf: &[u8]) -> Option<(std::ops::Range<usize>, usize)> {
    let mut d = Decoder::new(buf);
    let len = d.varint().ok()? as usize;
    let at = d.position();
    (buf.len() - at >= len).then_some((at..at + len, at + len))
}
