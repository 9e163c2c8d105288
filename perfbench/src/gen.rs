//! Seeded input generation, done in full before any timer starts.
//!
//! The repository's `Workload::next_key` walks O(keys) `powf` calls per
//! Zipf draw; at 16 Ki keys that costs more than the run it feeds. This
//! generator precomputes the CDF once and draws by binary search.

use aurora_sim::rng::{mix64, Xoshiro256};

/// Bytes of the shared random pool value bodies are cut from.
const POOL_BYTES: usize = 64 * 1024;
/// Value header: tenant, key, version, length (u32 LE each).
const HEADER: usize = 16;

/// Zipf(θ) over `0..n` by a precomputed CDF. Ranks are scattered over
/// the index space by a seeded permutation (YCSB's scrambled Zipfian),
/// so hot keys are not also neighbours in the server's heap.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64, rng: &mut Xoshiro256) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        Zipf { cdf, perm }
    }

    pub fn draw(&self, rng: &mut Xoshiro256) -> u32 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// Open-loop Poisson arrivals on the virtual clock.
pub struct Arrivals {
    mean_ns: f64,
    next_ns: f64,
}

impl Arrivals {
    pub fn new(mean_ns: u64) -> Arrivals {
        Arrivals {
            mean_ns: mean_ns as f64,
            next_ns: 0.0,
        }
    }

    /// Due time (ns) of the next arrival.
    pub fn next(&mut self, rng: &mut Xoshiro256) -> u64 {
        self.next_ns += -(1.0 - rng.next_f64()).ln() * self.mean_ns;
        self.next_ns as u64
    }
}

/// Value bytes derived from `(tenant, key, version, len)`: a header that
/// makes every version distinct, then a slice of a seeded pool. Both the
/// client that sends a SET and the checker that verifies a GET rebuild
/// the same bytes, so no op carries its value in memory.
pub struct Values {
    pool: Vec<u8>,
}

impl Values {
    pub fn new(rng: &mut Xoshiro256) -> Values {
        let mut pool = vec![0u8; POOL_BYTES];
        rng.fill_bytes(&mut pool);
        Values { pool }
    }

    pub fn build(&self, tenant: u32, key: u32, version: u32, len: u32, out: &mut Vec<u8>) {
        out.clear();
        for field in [tenant, key, version, len] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        let body = (len as usize).saturating_sub(HEADER);
        let span = POOL_BYTES - body;
        let at = (mix64(((tenant as u64) << 48) ^ ((key as u64) << 20) ^ version as u64)
            % span as u64) as usize;
        out.extend_from_slice(&self.pool[at..at + body]);
        out.truncate(len as usize);
    }
}

/// Key bytes for a key index.
pub fn key_bytes(key: u32) -> Vec<u8> {
    format!("key{key:08}").into_bytes()
}
