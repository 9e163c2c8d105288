//! `aurora-lint`: the workspace invariant checker.
//!
//! Crash-consistency guarantees are only as strong as the weakest line
//! in the flush path. This crate enforces, as a tier-1 gate, the project
//! invariants that testing alone cannot hold:
//!
//! - [`checks::wall_clock`] — all time flows through `SimClock`;
//! - [`checks::no_panic`] — durability paths return typed errors;
//! - [`checks::format`] — every codec round-trips under test, and
//!   format-bearing edits are tied to `layout.rs::VERSION`;
//! - [`checks::lock_order`] — locks are rank-declared and statically
//!   ordered (the runtime half lives in `aurora_sim::lockdep`);
//! - [`checks::error_class`] — every `ErrorKind` is explicitly
//!   transient or permanent;
//! - [`checks::commit_phase`] — raw device writes only inside the
//!   token-bearing functions of the typestate commit protocol.
//!
//! Suppressions live in `lint-allow.toml` at the workspace root; unused
//! entries are violations themselves, so the allowlist only ratchets
//! down. Run with `cargo run -p aurora-lint`; the same analysis runs
//! under `cargo test` via `tests/workspace_gate.rs`.

pub mod checks;
pub mod config;
pub mod lexer;
pub mod source;

use std::path::Path;

pub use checks::Violation;
pub use config::Config;
pub use source::{walk_workspace, SourceFile};

/// Runs every check over `files` (no suppression applied).
pub fn run_checks(files: &[SourceFile], cfg: &Config, root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(checks::wall_clock::check(files));
    out.extend(checks::no_panic::check(files));
    out.extend(checks::format::check(files, cfg, root));
    out.extend(checks::lock_order::check(files, cfg));
    out.extend(checks::error_class::check(files));
    out.extend(checks::commit_phase::check(files, cfg));
    out.sort_by(|a, b| (&a.path, a.line, a.check).cmp(&(&b.path, b.line, b.check)));
    out
}

/// Applies the allowlist: returns the surviving violations, appending a
/// `stale-allow` violation for every entry that matched nothing (the
/// allowlist must shrink when the code improves).
pub fn apply_allowlist(cfg: &Config, violations: Vec<Violation>) -> Vec<Violation> {
    let mut used = vec![0u32; cfg.allows.len()];
    let mut kept = Vec::new();
    for v in violations {
        let slot = cfg.allows.iter().enumerate().find(|(i, a)| {
            a.check == v.check
                && a.path == v.path
                && a.line.map_or(true, |l| l == v.line)
                && used[*i] < a.count
        });
        match slot {
            Some((i, _)) => used[i] += 1,
            None => kept.push(v),
        }
    }
    for (i, a) in cfg.allows.iter().enumerate() {
        if used[i] == 0 {
            kept.push(Violation {
                check: "stale-allow",
                path: "lint-allow.toml".into(),
                line: 0,
                msg: format!(
                    "[[allow]] for `{}` in `{}` matched nothing — remove it",
                    a.check, a.path
                ),
            });
        } else if used[i] < a.count && a.line.is_none() {
            kept.push(Violation {
                check: "stale-allow",
                path: "lint-allow.toml".into(),
                line: 0,
                msg: format!(
                    "[[allow]] for `{}` in `{}` budgets {} but only {} matched — \
                     ratchet `count` down",
                    a.check, a.path, a.count, used[i]
                ),
            });
        }
    }
    kept
}

/// Full pipeline: load config, walk, check, suppress. `Err` carries
/// environment problems (unreadable tree, bad config) as opposed to
/// violations.
pub fn analyze(root: &Path) -> Result<Vec<Violation>, String> {
    let cfg_src = std::fs::read_to_string(root.join("lint-allow.toml"))
        .map_err(|e| format!("cannot read lint-allow.toml: {e}"))?;
    let cfg = Config::parse(&cfg_src)?;
    let files = walk_workspace(root).map_err(|e| format!("walk failed: {e}"))?;
    Ok(apply_allowlist(&cfg, run_checks(&files, &cfg, root)))
}

/// Recomputes and writes `format.lock` (the `--bless-format` action).
pub fn bless_format(root: &Path) -> Result<String, String> {
    let cfg_src = std::fs::read_to_string(root.join("lint-allow.toml"))
        .map_err(|e| format!("cannot read lint-allow.toml: {e}"))?;
    let cfg = Config::parse(&cfg_src)?;
    let files = walk_workspace(root).map_err(|e| format!("walk failed: {e}"))?;
    let fp = checks::format::fingerprint(&files, &cfg);
    let version = checks::format::layout_version(&files)
        .ok_or_else(|| "cannot find layout.rs VERSION".to_string())?;
    let path = root.join(checks::format::LOCK_PATH);
    std::fs::write(&path, checks::format::render_lock(version, fp))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!(
        "blessed format fingerprint {fp:#018x} under VERSION {version}"
    ))
}
