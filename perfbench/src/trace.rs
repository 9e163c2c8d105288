//! In-memory spans on both clocks, recorded only in traced passes.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each layer's public functions. An op or an invocation is a root, a
//! fired checkpoint is its own root. Self time is a span's duration
//! minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use aurora_sim::SimClock;

/// No parent / no span.
pub const NONE: u32 = u32::MAX;

/// One span: name, parent, request id, and both clocks (wall ns since
/// the tracer started, virtual ns).
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub req: u64,
    pub wall0: u64,
    pub wall1: u64,
    pub virt0: u64,
    pub virt1: u64,
}

impl Span {
    pub fn wall_us(&self) -> f64 {
        self.wall1.saturating_sub(self.wall0) as f64 / 1e3
    }
}

pub struct Tracer {
    pub enabled: bool,
    base: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            base: criterion::wall_now(),
            spans: Vec::new(),
        }
    }

    fn wall_ns(&self) -> u64 {
        criterion::wall_now().duration_since(self.base).as_nanos() as u64
    }

    /// Opens a span; returns its id, or [`NONE`] when tracing is off.
    pub fn begin(&mut self, clock: &SimClock, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let now = self.wall_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            wall0: now,
            wall1: now,
            virt0: clock.now().as_nanos(),
            virt1: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, clock: &SimClock, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.wall_ns();
        let s = &mut self.spans[id as usize];
        s.wall1 = now;
        s.virt1 = clock.now().as_nanos();
    }

    /// Wall durations (µs) of the spans named `name` among the first
    /// `upto`, in start order.
    pub fn wall_us(&self, name: &str, upto: usize) -> crate::stats::Samples {
        let mut out = crate::stats::Samples::default();
        for s in self.spans.iter().take(upto).filter(|s| s.name == name) {
            out.push(s.wall_us());
        }
        out
    }

    /// Self wall time (ns) per span name over the first `upto` spans.
    /// Children of one span never overlap each other (the benchmark runs
    /// on one thread), so the covered part is the sum of their durations.
    pub fn self_wall_ns(&self, upto: usize) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[..upto.min(self.spans.len())];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.wall1.saturating_sub(s.wall0);
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_ns) {
            let own = s.wall1.saturating_sub(s.wall0).saturating_sub(covered);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// All spans as CSV, one per line.
    pub fn csv(&self) -> String {
        let mut out = String::from("id,name,parent,req,wall0_ns,wall1_ns,virt0_ns,virt1_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{},{parent},{},{},{},{},{}",
                s.name, s.req, s.wall0, s.wall1, s.virt0, s.virt1
            );
        }
        out
    }
}
