//! Public counters of each layer, read from outside and differenced
//! across a window.

use aurora_core::Host;

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// One reading of every layer counter the benchmark reports.
        #[derive(Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.wrapping_sub(earlier.$field),)* }
            }

            /// Every counter by name (the determinism signature).
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

counters!(
    // objstore: StoreStats of the primary store.
    pages_written,
    dedup_hits,
    gc_runs,
    journal_bytes,
    extents,
    extent_blocks,
    cache_hits,
    cache_misses,
    cache_content_hits,
    read_repairs,
    delta_records,
    delta_bytes,
    chains_compacted,
    // hw: DevStats of the primary store's device.
    dev_reads,
    dev_writes,
    dev_bytes_read,
    dev_bytes_written,
    dev_flushes,
    // vm: VmStats.
    cow_faults,
    major_faults,
    minor_faults,
    pages_copied,
    // posix: KernelStats.
    ipc_bytes,
    syscalls,
    // core.fleet: FleetStats.
    fleet_overlapped,
    fleet_queue_stalls,
    fleet_deadline_misses,
    fleet_quarantines,
);

pub fn read(host: &Host) -> Counters {
    let store = host.sls.primary.borrow();
    let s = &store.stats;
    let dev = store.device();
    let d = dev.stats();
    let vm = &host.kernel.vm.stats;
    let fleet = &host.sls.fleet.stats;
    Counters {
        pages_written: s.pages_written,
        dedup_hits: s.dedup_hits,
        gc_runs: s.gc_runs,
        journal_bytes: s.bytes_journaled,
        extents: s.extents_coalesced,
        extent_blocks: s.blocks_coalesced,
        cache_hits: s.read_cache_hits,
        cache_misses: s.read_cache_misses,
        cache_content_hits: s.read_cache_content_hits,
        read_repairs: s.read_repairs,
        delta_records: s.delta_records,
        delta_bytes: s.delta_bytes,
        chains_compacted: s.chains_compacted,
        dev_reads: d.reads,
        dev_writes: d.writes,
        dev_bytes_read: d.bytes_read,
        dev_bytes_written: d.bytes_written,
        dev_flushes: d.flushes,
        cow_faults: vm.cow_faults,
        major_faults: vm.major_faults,
        minor_faults: vm.minor_faults,
        pages_copied: vm.pages_copied,
        ipc_bytes: host.kernel.stats.ipc_bytes,
        syscalls: host.kernel.stats.syscalls,
        fleet_overlapped: fleet.overlapped,
        fleet_queue_stalls: fleet.queue_stalls,
        fleet_deadline_misses: fleet.deadline_misses,
        fleet_quarantines: fleet.quarantines,
    }
}

/// Bytes the primary store holds: data blocks in use.
pub fn store_bytes(host: &Host) -> u64 {
    host.sls.primary.borrow().blocks_in_use() * aurora_hw::BLOCK_SIZE as u64
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
