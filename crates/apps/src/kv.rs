//! The Redis-like key-value server with pluggable persistence.
//!
//! Four strategies, matching §4's database discussion:
//!
//! * [`PersistMode::None`] — pure in-memory baseline.
//! * [`PersistMode::ForkSnapshot`] — Redis RDB style: every N mutations,
//!   `fork()` and let the (COW) child serialize the whole table to a
//!   file. The fork itself stalls the server proportionally to the
//!   resident set.
//! * [`PersistMode::WalFsync`] — Redis AOF style: append every mutation
//!   to a log file and fsync before acknowledging.
//! * [`PersistMode::AuroraPort`] — the paper's port: mutations go to an
//!   `sls_ntflush` persistent log; periodically the application takes an
//!   `sls_checkpoint` and truncates the log. Less code than either
//!   baseline and no fsync semantics to get wrong.
//! * [`PersistMode::AuroraTransparent`] — no persistence code at all:
//!   the SLS checkpoints the process periodically.
//!
//! The server's dataset lives in simulated memory ([`crate::SimMap`]);
//! the driver's handles are parked in simulated registers so a restored
//! incarnation re-derives everything from machine state
//! ([`KvServer::attach`]).

use aurora_core::{GroupId, Host};
use aurora_objstore::CkptId;
use aurora_posix::{Fd, Pid};
use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimDuration;

use crate::heap::SimHeap;
use crate::shmap::SimMap;

/// Register conventions for the KV server.
const REG_HEAP: usize = 0;
const REG_MAP: usize = 1;
const REG_OPS: usize = 2;
const REG_MAGIC: usize = 3;
const KV_MAGIC: u64 = 0x4B56_5352_5631;

/// A mutation or query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Insert/replace.
    Set(Vec<u8>, Vec<u8>),
    /// Lookup.
    Get(Vec<u8>),
    /// Delete.
    Del(Vec<u8>),
}

impl KvOp {
    /// Encodes the op (WAL / ntlog / wire format).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            KvOp::Set(k, v) => {
                e.u8(0);
                e.bytes(k);
                e.bytes(v);
            }
            KvOp::Get(k) => {
                e.u8(1);
                e.bytes(k);
            }
            KvOp::Del(k) => {
                e.u8(2);
                e.bytes(k);
            }
        }
        // Length-prefixed so logs can be replayed record by record.
        let body = e.into_vec();
        let mut framed = Encoder::new();
        framed.bytes(&body);
        framed.into_vec()
    }

    /// Decodes one framed op, returning it and the bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(KvOp, usize)> {
        let mut d = Decoder::new(bytes);
        let body = d.bytes()?.to_vec();
        let consumed = d.position();
        let mut b = Decoder::new(&body);
        let op = match b.u8()? {
            0 => KvOp::Set(b.bytes()?.to_vec(), b.bytes()?.to_vec()),
            1 => KvOp::Get(b.bytes()?.to_vec()),
            2 => KvOp::Del(b.bytes()?.to_vec()),
            t => return Err(Error::corrupt(format!("bad kv op tag {t}"))),
        };
        Ok((op, consumed))
    }
}

/// Persistence strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistMode {
    /// No persistence.
    None,
    /// Fork + serialize every `every` mutations (Redis RDB).
    ForkSnapshot {
        /// Mutations between snapshots.
        every: u64,
    },
    /// Write-ahead log with fsync per mutation (Redis AOF).
    WalFsync,
    /// Aurora port: `sls_ntflush` log + application checkpoints.
    AuroraPort,
    /// Aurora transparent persistence (no application code).
    AuroraTransparent,
}

/// Paths used by the baselines.
pub const WAL_PATH: &str = "/sls/kv.aof";
/// Snapshot file path.
pub const RDB_PATH: &str = "/sls/kv.rdb";

/// The server driver.
#[derive(Debug)]
pub struct KvServer {
    /// Server process.
    pub pid: Pid,
    /// Persistence group (Aurora modes).
    pub gid: Option<GroupId>,
    /// Strategy in use.
    pub mode: PersistMode,
    heap: SimHeap,
    map: SimMap,
    wal_fd: Option<Fd>,
    /// Aurora persistent log descriptor.
    pub ntlog_fd: Option<Fd>,
    ops_since_snapshot: u64,
    last_fsync_ckpt: Option<CkptId>,
    /// Cumulative virtual time the server was stalled by snapshots.
    pub snapshot_stalls: SimDuration,
}

impl KvServer {
    /// Starts a server with `heap_bytes` of data heap and `buckets`
    /// hash buckets.
    pub fn start(
        host: &mut Host,
        mode: PersistMode,
        heap_bytes: u64,
        buckets: u64,
    ) -> Result<KvServer> {
        let pid = host.kernel.spawn("kv-server");
        let heap = SimHeap::create(&mut host.kernel, pid, heap_bytes)?;
        let map = SimMap::create(&mut host.kernel, heap, buckets)?;
        host.kernel.set_reg(pid, REG_HEAP, heap.base)?;
        host.kernel.set_reg(pid, REG_MAP, map.base)?;
        host.kernel.set_reg(pid, REG_OPS, 0)?;
        host.kernel.set_reg(pid, REG_MAGIC, KV_MAGIC)?;

        let mut server = KvServer {
            pid,
            gid: None,
            mode,
            heap,
            map,
            wal_fd: None,
            ntlog_fd: None,
            ops_since_snapshot: 0,
            last_fsync_ckpt: None,
            snapshot_stalls: SimDuration::ZERO,
        };
        match mode {
            PersistMode::WalFsync => {
                let fd = host.kernel.open(pid, WAL_PATH, true)?;
                host.kernel.set_append(pid, fd)?;
                server.wal_fd = Some(fd);
            }
            PersistMode::AuroraPort => {
                let gid = host.persist("kv-server", pid)?;
                let (fd, _) = host.ntlog_create(gid, pid)?;
                server.gid = Some(gid);
                server.ntlog_fd = Some(fd);
                host.checkpoint(gid, true, Some("kv-init"))?;
            }
            PersistMode::AuroraTransparent => {
                let gid = host.persist("kv-server", pid)?;
                server.gid = Some(gid);
                host.checkpoint(gid, true, Some("kv-init"))?;
            }
            PersistMode::None | PersistMode::ForkSnapshot { .. } => {}
        }
        Ok(server)
    }

    /// Re-attaches a driver to a (restored) server process, deriving the
    /// heap/map handles from its registers.
    pub fn attach(host: &mut Host, pid: Pid, mode: PersistMode) -> Result<KvServer> {
        if host.kernel.get_reg(pid, REG_MAGIC)? != KV_MAGIC {
            return Err(Error::corrupt("process is not a kv server"));
        }
        let heap_base = host.kernel.get_reg(pid, REG_HEAP)?;
        let map_base = host.kernel.get_reg(pid, REG_MAP)?;
        let heap = SimHeap::attach(&mut host.kernel, pid, heap_base)?;
        let map = SimMap::attach(&mut host.kernel, heap, map_base)?;
        Ok(KvServer {
            pid,
            gid: host.kernel.proc_ref(pid)?.persist_group.map(GroupId),
            mode,
            heap,
            map,
            wal_fd: None,
            ntlog_fd: None,
            ops_since_snapshot: 0,
            last_fsync_ckpt: None,
            snapshot_stalls: SimDuration::ZERO,
        })
    }

    /// Base address of the server's data heap. External verifiers (the
    /// delta-log bench) digest the whole arena through this.
    pub fn heap_base(&self) -> u64 {
        self.heap.base
    }

    /// Number of keys stored.
    pub fn len(&self, host: &mut Host) -> Result<u64> {
        self.map.len(&mut host.kernel)
    }

    /// True when the store is empty.
    pub fn is_empty(&self, host: &mut Host) -> Result<bool> {
        Ok(self.len(host)? == 0)
    }

    /// Total operations executed (lives in a simulated register, so it
    /// round-trips through checkpoints).
    pub fn ops_executed(&self, host: &Host) -> u64 {
        host.kernel.get_reg(self.pid, REG_OPS).unwrap_or(0)
    }

    /// Executes one operation with the configured persistence.
    pub fn exec(&mut self, host: &mut Host, op: &KvOp) -> Result<Option<Vec<u8>>> {
        let result = self.apply(host, op)?;
        let ops = host.kernel.get_reg(self.pid, REG_OPS)? + 1;
        host.kernel.set_reg(self.pid, REG_OPS, ops)?;
        if matches!(op, KvOp::Get(_)) {
            return Ok(result);
        }
        match self.mode {
            PersistMode::None | PersistMode::AuroraTransparent => {}
            PersistMode::WalFsync => {
                let fd = self.wal_fd.ok_or_else(|| Error::internal("no wal fd"))?;
                host.kernel.write(self.pid, fd, &op.encode())?;
                self.fsync(host)?;
            }
            PersistMode::AuroraPort => {
                let gid = self.gid.ok_or_else(|| Error::internal("no group"))?;
                let fd = self.ntlog_fd.ok_or_else(|| Error::internal("no ntlog"))?;
                host.sls_ntflush(gid, self.pid, fd, &op.encode())?;
            }
            PersistMode::ForkSnapshot { every } => {
                self.ops_since_snapshot += 1;
                if self.ops_since_snapshot >= every {
                    self.ops_since_snapshot = 0;
                    self.snapshot(host)?;
                }
            }
        }
        Ok(result)
    }

    /// Applies an op to the in-memory table only.
    fn apply(&mut self, host: &mut Host, op: &KvOp) -> Result<Option<Vec<u8>>> {
        match op {
            KvOp::Set(k, v) => {
                self.map.put(&mut host.kernel, k, v)?;
                Ok(None)
            }
            KvOp::Get(k) => self.map.get(&mut host.kernel, k),
            KvOp::Del(k) => {
                self.map.del(&mut host.kernel, k)?;
                Ok(None)
            }
        }
    }

    /// An fsync against SLSFS: file-system metadata plus data commit,
    /// synchronously durable (the cost WAL mode pays per mutation).
    fn fsync(&mut self, host: &mut Host) -> Result<()> {
        let mount = host.sls.slsfs_mount;
        host.kernel.vfs.fs(mount).sync()?;
        // Filesystem fsync ordering: data barrier first, then the
        // metadata/journal commit. (This ordering discipline is exactly
        // where the paper's cited fsync bugs live.)
        host.sls.primary.borrow_mut().barrier_flush()?;
        let (ckpt, durable) = host.sls.primary.borrow_mut().commit(None)?;
        host.clock.advance_to(durable);
        // GC the previous fsync commit so the store's table stays small.
        if let Some(prev) = self.last_fsync_ckpt.replace(ckpt) {
            if Some(prev) != host.sls.primary.borrow().head() {
                let _ = host.sls.primary.borrow_mut().delete_checkpoint(prev);
            }
        }
        Ok(())
    }

    /// Fork-snapshot (Redis BGSAVE): the parent stalls for the fork;
    /// the COW child serializes and exits.
    ///
    /// The simulator is single-core, so the child's work also consumes
    /// timeline — but only the fork window is attributed to
    /// [`KvServer::snapshot_stalls`], matching what a Redis client
    /// observes.
    pub fn snapshot(&mut self, host: &mut Host) -> Result<()> {
        let t0 = host.clock.now();
        let child = host.kernel.fork(self.pid)?;
        self.snapshot_stalls += host.clock.now().since(t0);

        // Child: serialize every entry to the RDB file, fsync, exit.
        let entries = {
            let child_heap = SimHeap::attach(&mut host.kernel, child, self.heap.base)?;
            let child_map = SimMap::attach(&mut host.kernel, child_heap, self.map.base)?;
            child_map.entries(&mut host.kernel)?
        };
        let mut e = Encoder::new();
        e.varint(entries.len() as u64);
        for (k, v) in &entries {
            e.bytes(k);
            e.bytes(v);
        }
        let bytes = e.into_vec();
        // Replace the snapshot atomically: write to a temp name, rename.
        let tmp = "/sls/kv.rdb.tmp";
        let _ = host.kernel.unlink_path(child, tmp);
        let fd = host.kernel.open(child, tmp, true)?;
        host.kernel.write(child, fd, &bytes)?;
        host.kernel.close(child, fd)?;
        {
            let mount = host.sls.slsfs_mount;
            let (parent, name) = host.kernel.vfs.resolve_parent(RDB_PATH)?;
            let (_, tmp_name) = host.kernel.vfs.resolve_parent(tmp)?;
            let _ = mount;
            host.kernel
                .vfs
                .fs(parent.mount)
                .rename(parent.node, &tmp_name, parent.node, &name)?;
        }
        self.fsync(host)?;
        host.kernel.exit(child, 0)?;
        host.kernel.procs.remove(&child);
        Ok(())
    }

    /// Recovers a WAL-mode server after a crash: replays the log.
    pub fn recover_wal(host: &mut Host, heap_bytes: u64, buckets: u64) -> Result<KvServer> {
        let mut server = KvServer::start(host, PersistMode::None, heap_bytes, buckets)?;
        let pid = server.pid;
        let fd = host.kernel.open(pid, WAL_PATH, false)?;
        let size = host.kernel.fstat(pid, fd)?.size as usize;
        let mut log = Vec::with_capacity(size);
        while log.len() < size {
            let chunk = host.kernel.read(pid, fd, 64 * 1024)?;
            if chunk.is_empty() {
                break;
            }
            log.extend_from_slice(&chunk);
        }
        let mut off = 0;
        let mut replayed = 0u64;
        while off < log.len() {
            let (op, used) = KvOp::decode(&log[off..])?;
            server.apply(host, &op)?;
            off += used;
            replayed += 1;
        }
        host.kernel.set_reg(pid, REG_OPS, replayed)?;
        host.kernel.set_append(pid, fd)?;
        server.wal_fd = Some(fd);
        server.mode = PersistMode::WalFsync;
        Ok(server)
    }

    /// Recovers a fork-snapshot server after a crash: loads the RDB.
    pub fn recover_rdb(
        host: &mut Host,
        heap_bytes: u64,
        buckets: u64,
        every: u64,
    ) -> Result<KvServer> {
        let mut server = KvServer::start(host, PersistMode::None, heap_bytes, buckets)?;
        let pid = server.pid;
        let fd = host.kernel.open(pid, RDB_PATH, false)?;
        let size = host.kernel.fstat(pid, fd)?.size as usize;
        let mut bytes = Vec::with_capacity(size);
        while bytes.len() < size {
            let chunk = host.kernel.read(pid, fd, 64 * 1024)?;
            if chunk.is_empty() {
                break;
            }
            bytes.extend_from_slice(&chunk);
        }
        host.kernel.close(pid, fd)?;
        let mut d = Decoder::new(&bytes);
        let n = d.varint()? as usize;
        for _ in 0..n {
            let k = d.bytes()?.to_vec();
            let v = d.bytes()?.to_vec();
            server.apply(host, &KvOp::Set(k, v))?;
        }
        server.mode = PersistMode::ForkSnapshot { every };
        Ok(server)
    }

    /// Aurora-port recovery after restore: replays the persistent log
    /// tail over the restored image (idempotent SET/DEL replay).
    pub fn recover_aurora_port(host: &mut Host, pid: Pid, gid: GroupId) -> Result<KvServer> {
        let mut server = KvServer::attach(host, pid, PersistMode::AuroraPort)?;
        server.gid = Some(gid);
        // The restored descriptor table still holds the ntlog fd; find it.
        let fds: Vec<(Fd, aurora_posix::FileId)> =
            host.kernel.proc_ref(pid)?.fds.iter().collect();
        let ntlog_fd = fds
            .into_iter()
            .find(|(_, fid)| {
                matches!(
                    host.kernel.files.get(fid.0).map(|f| &f.kind),
                    Some(aurora_posix::FileKind::NtLog(_))
                )
            })
            .map(|(fd, _)| fd)
            .ok_or_else(|| Error::bad_image("restored kv server has no ntlog fd"))?;
        server.ntlog_fd = Some(ntlog_fd);
        let log = host.ntlog_read(gid, pid, ntlog_fd)?;
        let mut off = 0;
        while off < log.len() {
            let (op, used) = KvOp::decode(&log[off..])?;
            server.apply(host, &op)?;
            off += used;
        }
        Ok(server)
    }

    /// Binds the server to a TCP port (the deployment shape the paper
    /// measures: clients talk to Redis over sockets).
    pub fn listen(&mut self, host: &mut Host, port: u16) -> Result<Fd> {
        host.kernel.tcp_listen(self.pid, port)
    }

    /// Accepts one pending client connection.
    pub fn accept(&mut self, host: &mut Host, listen_fd: Fd) -> Result<Fd> {
        host.kernel.tcp_accept(self.pid, listen_fd)
    }

    /// Serves every complete framed request buffered on `conn`; replies
    /// with a framed response per op. Replies to clients outside the
    /// persistence group are held by external consistency until the
    /// covering checkpoint is durable — the server never needs to know.
    pub fn serve_conn(&mut self, host: &mut Host, conn: Fd) -> Result<u64> {
        let mut served = 0;
        loop {
            if !host.kernel.can_read(self.pid, conn)? {
                break;
            }
            let chunk = match host.kernel.read(self.pid, conn, 64 * 1024) {
                Ok(c) if c.is_empty() => break, // Peer closed.
                Ok(c) => c,
                Err(_) => break,
            };
            let mut off = 0;
            while off < chunk.len() {
                let (op, used) = KvOp::decode(&chunk[off..])?;
                off += used;
                let result = self.exec(host, &op)?;
                let reply = match result {
                    Some(v) => {
                        let mut e = Encoder::new();
                        e.u8(1);
                        e.bytes(&v);
                        e.into_vec()
                    }
                    None => vec![0u8],
                };
                let mut framed = Encoder::new();
                framed.bytes(&reply);
                host.kernel.write(self.pid, conn, &framed.into_vec())?;
                served += 1;
            }
        }
        Ok(served)
    }

    /// Application-level checkpoint for the Aurora port: `sls_checkpoint`
    /// then truncate the log (replay of any straggler ops is idempotent).
    pub fn aurora_checkpoint(&mut self, host: &mut Host) -> Result<()> {
        let gid = self.gid.ok_or_else(|| Error::internal("no group"))?;
        let fd = self.ntlog_fd.ok_or_else(|| Error::internal("no ntlog"))?;
        host.sls_checkpoint(gid, None)?;
        host.ntlog_truncate(gid, self.pid, fd)?;
        Ok(())
    }
}

/// A KV client on the other side of a TCP connection.
#[derive(Debug)]
pub struct KvClient {
    /// Client process.
    pub pid: Pid,
    /// Connected socket descriptor.
    pub fd: Fd,
    /// Reassembly buffer (stream reads can carry several frames).
    buf: Vec<u8>,
}

impl KvClient {
    /// Connects a fresh client process to the server's port.
    pub fn connect(host: &mut Host, port: u16) -> Result<KvClient> {
        let pid = host.kernel.spawn("kv-client");
        let fd = host.kernel.tcp_connect(pid, port)?;
        Ok(KvClient {
            pid,
            fd,
            buf: Vec::new(),
        })
    }

    /// Sends one framed request.
    pub fn send(&self, host: &mut Host, op: &KvOp) -> Result<()> {
        host.kernel.write(self.pid, self.fd, &op.encode())?;
        Ok(())
    }

    /// Receives one framed reply: `Ok(Some(value))` for a hit, `Ok(None)`
    /// for an ack/miss, `WouldBlock` until a whole reply has arrived (held
    /// by external consistency, not yet served, or still partial: a large
    /// reply spans several stream reads, and the part already read stays
    /// buffered).
    pub fn recv(&mut self, host: &mut Host) -> Result<Option<Vec<u8>>> {
        let used = loop {
            if let Some(used) = whole_frame(&self.buf) {
                break used;
            }
            let chunk = host.kernel.read(self.pid, self.fd, 64 * 1024)?;
            if chunk.is_empty() {
                return Err(Error::broken_pipe("server closed"));
            }
            self.buf.extend_from_slice(&chunk);
        };
        let frame: Vec<u8> = self.buf.drain(..used).collect();
        let mut r = Decoder::new(Decoder::new(&frame).bytes()?);
        Ok(match r.u8()? {
            1 => Some(r.bytes()?.to_vec()),
            _ => None,
        })
    }
}

/// Length of the whole length-prefixed frame at the start of `buf`, or
/// `None` while only part of it has arrived.
fn whole_frame(buf: &[u8]) -> Option<usize> {
    let mut d = Decoder::new(buf);
    let len = usize::try_from(d.varint().ok()?).ok()?;
    let end = d.position().checked_add(len)?;
    (end <= buf.len()).then_some(end)
}

#[cfg(test)]
mod codec_tests {
    use super::*;

    #[test]
    fn kv_op_roundtrip() {
        for op in [
            KvOp::Set(b"key".to_vec(), b"value".to_vec()),
            KvOp::Set(Vec::new(), Vec::new()),
            KvOp::Get(b"key".to_vec()),
            KvOp::Del(vec![0u8; 300]),
        ] {
            let bytes = op.encode();
            let (out, consumed) = KvOp::decode(&bytes).unwrap();
            assert_eq!(out, op);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn kv_ops_replay_record_by_record() {
        // The framing contract the WAL and ntlog replay paths rely on:
        // concatenated records decode back in order via `consumed`.
        let ops = [
            KvOp::Set(b"a".to_vec(), b"1".to_vec()),
            KvOp::Del(b"a".to_vec()),
            KvOp::Get(b"a".to_vec()),
        ];
        let mut log = Vec::new();
        for op in &ops {
            log.extend_from_slice(&op.encode());
        }
        let mut at = 0;
        let mut replayed = Vec::new();
        while at < log.len() {
            let (op, n) = KvOp::decode(&log[at..]).unwrap();
            replayed.push(op);
            at += n;
        }
        assert_eq!(replayed, ops);
    }

    #[test]
    fn kv_op_bad_input_rejected() {
        // Unknown tag.
        let mut e = aurora_sim::codec::Encoder::new();
        e.bytes(&[9u8]);
        assert!(KvOp::decode(&e.into_vec()).is_err());
        // Truncated frame.
        let bytes = KvOp::Set(b"k".to_vec(), b"v".to_vec()).encode();
        assert!(KvOp::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}

#[cfg(test)]
mod socket_tests {
    use super::*;
    use aurora_hw::ModelDev;
    use aurora_objstore::StoreConfig;
    use aurora_sim::SimClock;

    fn boot() -> Host {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", 128 * 1024));
        Host::boot("kv-sock", dev, StoreConfig::default()).unwrap()
    }

    #[test]
    fn socket_service_roundtrip() {
        let mut host = boot();
        let mut server = KvServer::start(&mut host, PersistMode::None, 8 << 20, 256).unwrap();
        let lfd = server.listen(&mut host, 6379).unwrap();
        let mut client = KvClient::connect(&mut host, 6379).unwrap();
        let conn = server.accept(&mut host, lfd).unwrap();

        client
            .send(&mut host, &KvOp::Set(b"k".to_vec(), b"v".to_vec()))
            .unwrap();
        client.send(&mut host, &KvOp::Get(b"k".to_vec())).unwrap();
        assert_eq!(server.serve_conn(&mut host, conn).unwrap(), 2);
        assert_eq!(client.recv(&mut host).unwrap(), None); // SET ack
        assert_eq!(client.recv(&mut host).unwrap().unwrap(), b"v");
    }

    #[test]
    fn reply_split_across_stream_reads_is_reassembled() {
        let mut host = boot();
        let mut server = KvServer::start(&mut host, PersistMode::None, 8 << 20, 256).unwrap();
        let lfd = server.listen(&mut host, 6379).unwrap();
        let mut client = KvClient::connect(&mut host, 6379).unwrap();
        let conn = server.accept(&mut host, lfd).unwrap();

        // A 100 KiB value: its reply crosses the client's 64 KiB read.
        let value: Vec<u8> = (0..100 * 1024u32).map(|i| (i % 253) as u8).collect();
        server
            .exec(&mut host, &KvOp::Set(b"big".to_vec(), value.clone()))
            .unwrap();
        client.send(&mut host, &KvOp::Get(b"big".to_vec())).unwrap();
        assert_eq!(server.serve_conn(&mut host, conn).unwrap(), 1);
        assert_eq!(client.recv(&mut host).unwrap().unwrap(), value);

        // The same reply arriving in two writes: the first part stays
        // buffered behind `WouldBlock`, and the rest completes it.
        let mut body = Encoder::new();
        body.u8(1);
        body.bytes(&value);
        let mut framed = Encoder::new();
        framed.bytes(&body.into_vec());
        let framed = framed.into_vec();
        let (head, tail) = framed.split_at(70_000);
        host.kernel.write(server.pid, conn, head).unwrap();
        let err = client.recv(&mut host).unwrap_err();
        assert_eq!(err.kind(), aurora_sim::error::ErrorKind::WouldBlock, "{err}");
        host.kernel.write(server.pid, conn, tail).unwrap();
        assert_eq!(client.recv(&mut host).unwrap().unwrap(), value);
    }

    #[test]
    fn replies_to_outside_clients_wait_for_durability() {
        // The externally visible contract of §3.2: a persisted server's
        // reply is invisible until the checkpoint covering it is durable.
        let mut host = boot();
        let mut server =
            KvServer::start(&mut host, PersistMode::AuroraTransparent, 8 << 20, 256).unwrap();
        let gid = server.gid.unwrap();
        let lfd = server.listen(&mut host, 6379).unwrap();
        let mut client = KvClient::connect(&mut host, 6379).unwrap();
        let conn = server.accept(&mut host, lfd).unwrap();

        client
            .send(&mut host, &KvOp::Set(b"key".to_vec(), b"value".to_vec()))
            .unwrap();
        server.serve_conn(&mut host, conn).unwrap();
        // Reply exists but is held: the client cannot read it yet.
        assert!(client.recv(&mut host).is_err(), "held until durable");

        // A durable checkpoint releases it; now the client may also rely
        // on the server never "forgetting" the acknowledged write.
        let bd = host.checkpoint(gid, false, None).unwrap();
        host.clock.advance_to(bd.durable_at);
        host.poll_durability();
        assert_eq!(client.recv(&mut host).unwrap(), None);

        // And indeed: crash + restore still has the key.
        let mut host = host.crash_and_reboot().unwrap();
        let store = host.sls.primary.clone();
        let head = store.borrow().head().unwrap();
        let r = host
            .restore(&store, head, aurora_core::restore::RestoreMode::Eager)
            .unwrap();
        let mut server =
            KvServer::attach(&mut host, r.root_pid().unwrap(), PersistMode::AuroraTransparent)
                .unwrap();
        assert_eq!(
            server
                .exec(&mut host, &KvOp::Get(b"key".to_vec()))
                .unwrap()
                .unwrap(),
            b"value"
        );
    }
}
