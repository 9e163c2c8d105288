//! Checks `raw-lock`, `lock-site` and `lock-order`: every lock is a
//! registered `lockdep::OrderedMutex`/`OrderedRwLock`, and statically
//! visible nesting respects the declared global hierarchy.
//!
//! `lint-allow.toml` declares the hierarchy once:
//!
//! ```toml
//! [locks]
//! order = ["group_barrier", "store_commit", "metrics"]   # outermost first
//! [locks.sites]
//! group_barrier = "group_barrier"
//! ```
//!
//! Three rules:
//!
//! - **raw-lock** — `Mutex`/`RwLock` may not appear in production code
//!   outside `aurora-sim`'s `lockdep` module: untracked locks are
//!   invisible to both this check and the runtime cycle detector.
//! - **lock-site** — every `X.lock()` receiver must be a registered site
//!   so the static order check knows its rank.
//! - **lock-order** — within a lexical scope, acquiring a lock whose
//!   rank is not strictly inner to every lock already held is flagged.
//!   Guards are assumed held to the end of their enclosing block, which
//!   is conservative in the right direction.
//!
//! The runtime tracker in `aurora_sim::lockdep` catches dynamic
//! orderings this scope-local analysis cannot see.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

use super::Violation;

/// The lockdep implementation itself (holds the one raw mutex guarding
/// the edge graph).
const LOCKDEP_IMPL: &str = "crates/sim/src/lockdep.rs";

/// Runs the three lock checks.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    // Rank index per rank name (outermost = 0).
    let rank_of: BTreeMap<&str, usize> = cfg
        .lock_order
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    for (site, rank) in &cfg.lock_sites {
        if !rank_of.contains_key(rank.as_str()) {
            out.push(Violation {
                check: "lock-site",
                path: "lint-allow.toml".into(),
                line: 0,
                msg: format!(
                    "site `{site}` maps to rank `{rank}` which is not in [locks] order"
                ),
            });
        }
    }
    for f in files {
        if f.rel == LOCKDEP_IMPL {
            continue;
        }
        let t = &f.tokens;
        // Active (still-held) acquisitions: (rank index, brace depth, site, line).
        let mut held: Vec<(usize, i32, String, u32)> = Vec::new();
        let mut depth: i32 = 0;
        for i in 0..t.len() {
            if t[i].is_punct('{') {
                depth += 1;
                continue;
            }
            if t[i].is_punct('}') {
                depth -= 1;
                held.retain(|&(_, d, _, _)| d <= depth);
                continue;
            }
            if f.is_test_line(t[i].line) {
                continue;
            }
            // Untracked lock types in production code.
            if (t[i].is_ident("Mutex") || t[i].is_ident("RwLock"))
                && !t.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(Violation {
                    check: "raw-lock",
                    path: f.rel.clone(),
                    line: t[i].line,
                    msg: format!(
                        "raw `{}` is invisible to lockdep; use \
                         `aurora_sim::lockdep::Ordered{}` with a declared rank",
                        t[i].text, t[i].text
                    ),
                });
            }
            // `X.lock()` / `X.read()` / `X.write()` acquisitions.
            let is_acquire = i >= 2
                && t[i - 1].is_punct('.')
                && t[i - 2].kind == TokenKind::Ident
                && t.get(i + 1).is_some_and(|n| n.is_punct('('))
                && (t[i].is_ident("lock") || t[i].is_ident("read") || t[i].is_ident("write"));
            if !is_acquire {
                continue;
            }
            let site = t[i - 2].text.clone();
            match cfg.lock_sites.get(&site) {
                None => {
                    // Only `.lock()` hard-requires registration —
                    // `.read()`/`.write()` are ubiquitous I/O names and
                    // only checked on receivers that are registered sites.
                    if t[i].is_ident("lock") {
                        out.push(Violation {
                            check: "lock-site",
                            path: f.rel.clone(),
                            line: t[i].line,
                            msg: format!(
                                "`{site}.lock()` is not a registered lock site; add it to \
                                 [locks.sites] in lint-allow.toml with its rank"
                            ),
                        });
                    }
                }
                Some(rank) => {
                    if let Some(&idx) = rank_of.get(rank.as_str()) {
                        for &(held_idx, _, ref held_site, held_line) in &held {
                            if held_idx >= idx {
                                out.push(Violation {
                                    check: "lock-order",
                                    path: f.rel.clone(),
                                    line: t[i].line,
                                    msg: format!(
                                        "`{site}` (rank `{}`) acquired while `{held_site}` \
                                         (rank `{}`, line {held_line}) is held — violates the \
                                         declared order in lint-allow.toml",
                                        cfg.lock_order[idx], cfg.lock_order[held_idx]
                                    ),
                                });
                            }
                        }
                        held.push((idx, depth, site.clone(), t[i].line));
                    }
                }
            }
        }
    }
    out
}
