//! The six workspace invariants, as line-level checks.
//!
//! Each rule is the static twin of a dynamic enforcement mechanism that
//! already exists in the workspace (see `CONTRIBUTING.md`):
//!
//! | rule      | static property                         | dynamic twin                 |
//! |-----------|-----------------------------------------|------------------------------|
//! | `dense`   | no dense materialization off-whitelist  | `block_decodes` thread-local |
//! | `panic`   | recovery paths return `Err`, never panic| `FaultVfs` crash matrix      |
//! | `unsafe`  | every `unsafe` carries a `// SAFETY:`   | (review only)                |
//! | `atomics` | every `Ordering::…` carries a rationale | parallel==serial equivalence |
//! | `allow`   | every `#[allow]` carries a reason       | (review only)                |
//! | `sync`    | no raw `std` atomics/threads off-shim   | `amnesia-sync` model checker |
//!
//! Violations can be waived inline with
//! `// lint: allow(<rule>) <reason>` on the offending line or the line
//! directly above it; the reason is mandatory and unused waivers are
//! themselves violations, so waivers cannot go stale silently.

use crate::lexer::{self, SplitSource};

/// Names of all rules, in reporting order.
pub const RULE_NAMES: [&str; 6] = ["dense", "panic", "unsafe", "atomics", "allow", "sync"];

/// How many lines above an occurrence a `SAFETY:` / rationale /
/// justification comment may sit and still count as adjacent (attributes
/// like `#[target_feature]` and `#[inline]` commonly intervene).
const COMMENT_WINDOW: usize = 3;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (one of [`RULE_NAMES`], or `waiver` for waiver-syntax
    /// problems).
    pub rule: &'static str,
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Which files each rule applies to. Paths are `/`-separated and
/// relative to the workspace root.
#[derive(Debug, Clone)]
pub struct Config {
    /// Module paths (prefix match) where dense materialization is legal:
    /// codec internals, tier transitions, recovery rebuild, vacuum.
    pub dense_whitelist: Vec<String>,
    /// Module paths (prefix match) where panicking is banned: corrupt
    /// on-disk bytes must surface as `Err`.
    pub panic_paths: Vec<String>,
    /// Exceptions inside `panic_paths` (prefix match): test harnesses
    /// that live in `src/` for bench visibility.
    pub panic_exempt: Vec<String>,
    /// Paths (prefix match) allowed to touch `std::sync::atomic` /
    /// `std::thread` directly: the shim crate itself and the vendored
    /// dependency stubs. Everything else must go through `amnesia-sync`
    /// so the model checker sees every sync op.
    pub sync_whitelist: Vec<String>,
    /// Paths skipped entirely (prefix match): lint self-test fixtures.
    pub skip: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        fn v(items: &[&str]) -> Vec<String> {
            items.iter().map(|s| s.to_string()).collect()
        }
        Self {
            dense_whitelist: v(&[
                // Codec internals: decode is defined (and round-tripped) here.
                "crates/columnar/src/compress/",
                // Defines `block_dense` / `dense_values`, the slow path that
                // decodes a frozen block for callers needing its values.
                "crates/columnar/src/tier.rs",
                // Defines the `col_values_dense` accessor.
                "crates/columnar/src/table.rs",
                // Recovery rebuilds the dense hot tail from WAL/snapshot
                // bytes; frozen blocks stay encoded.
                "crates/columnar/src/persist/",
                // The vacuum rewrite materializes survivors at vacuum
                // time, off the query path.
                "crates/columnar/src/vacuum.rs",
            ]),
            panic_paths: v(&[
                "crates/columnar/src/persist/",
                "crates/columnar/src/coldstore.rs",
            ]),
            // FaultVfs is the fault-injection *harness*, not a recovery
            // path; its mutex-poisoning expects are test-infrastructure.
            panic_exempt: v(&["crates/columnar/src/persist/fault.rs"]),
            sync_whitelist: v(&[
                // The shim itself: the one place raw std sync is legal,
                // because this is where it becomes model-checkable.
                "crates/sync/",
                // Vendored dependency stubs mirror external crates.
                "crates/shims/",
            ]),
            skip: v(&["crates/lint/tests/fixtures/"]),
        }
    }
}

fn has_prefix(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

/// True for whole files that are test/bench targets: integration tests
/// and benches are oracles and baselines, exempt from `dense`/`panic`.
fn is_test_file(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

/// Check one file's source text against every applicable rule.
pub fn check_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    if has_prefix(path, &cfg.skip) {
        return Vec::new();
    }
    let split = lexer::split(src);
    let test_lines = cfg_test_lines(&split);
    let file_is_test = is_test_file(path);
    let mut waivers = collect_waivers(path, &split);
    let mut out = Vec::new();

    let dense_applies = !has_prefix(path, &cfg.dense_whitelist) && !file_is_test;
    let panic_applies =
        has_prefix(path, &cfg.panic_paths) && !has_prefix(path, &cfg.panic_exempt) && !file_is_test;
    let sync_applies = !has_prefix(path, &cfg.sync_whitelist) && !file_is_test;

    for (idx, code) in split.code.iter().enumerate() {
        let line = idx + 1;
        let in_test = test_lines[idx];

        if dense_applies && !in_test {
            if let Some(tok) = dense_token(code) {
                push_unless_waived(
                    &mut out,
                    &mut waivers,
                    Violation {
                        rule: "dense",
                        file: path.to_string(),
                        line,
                        message: format!(
                            "`{tok}` densely materializes a frozen block outside the \
                             whitelisted seams (static twin of `block_decodes == 0`)"
                        ),
                    },
                );
            }
        }
        if panic_applies && !in_test {
            if let Some(tok) = panic_token(code) {
                push_unless_waived(
                    &mut out,
                    &mut waivers,
                    Violation {
                        rule: "panic",
                        file: path.to_string(),
                        line,
                        message: format!(
                            "`{tok}` on a durability/recovery path: corrupt on-disk \
                             bytes must surface as `Err`, not a crash"
                        ),
                    },
                );
            }
        }
        if word_occurs(code, "unsafe") && !comment_window_contains(&split, idx, "SAFETY") {
            push_unless_waived(
                &mut out,
                &mut waivers,
                Violation {
                    rule: "unsafe",
                    file: path.to_string(),
                    line,
                    message: "`unsafe` without an adjacent `// SAFETY:` comment \
                              stating the upheld invariant"
                        .to_string(),
                },
            );
        }
        if let Some(ord) = atomics_token(code) {
            if !comment_window_nonempty(&split, idx) {
                push_unless_waived(
                    &mut out,
                    &mut waivers,
                    Violation {
                        rule: "atomics",
                        file: path.to_string(),
                        line,
                        message: format!(
                            "`Ordering::{ord}` without an adjacent comment explaining \
                             why this ordering is sufficient"
                        ),
                    },
                );
            }
        }
        if sync_applies && !in_test {
            if let Some(tok) = sync_token(code) {
                push_unless_waived(
                    &mut out,
                    &mut waivers,
                    Violation {
                        rule: "sync",
                        file: path.to_string(),
                        line,
                        message: format!(
                            "`{tok}` bypasses the `amnesia-sync` shim: sync ops the \
                             model checker cannot see are unverifiable — use \
                             `amnesia_sync::atomic` / `amnesia_sync::thread`"
                        ),
                    },
                );
            }
        }
        if (code.contains("#[allow(") || code.contains("#![allow("))
            && !comment_window_nonempty(&split, idx)
        {
            push_unless_waived(
                &mut out,
                &mut waivers,
                Violation {
                    rule: "allow",
                    file: path.to_string(),
                    line,
                    message: "`#[allow(...)]` without an adjacent comment justifying \
                              the suppression"
                        .to_string(),
                },
            );
        }
    }

    // Waiver hygiene: malformed waivers and waivers that suppressed
    // nothing are violations themselves, so they cannot rot in place.
    for w in waivers {
        match w.problem {
            Some(msg) => out.push(Violation {
                rule: "waiver",
                file: path.to_string(),
                line: w.line,
                message: msg,
            }),
            None if !w.used => out.push(Violation {
                rule: "waiver",
                file: path.to_string(),
                line: w.line,
                message: format!(
                    "unused waiver for rule `{}`: nothing on this or the next \
                     line violates it — delete the waiver",
                    w.rule
                ),
            }),
            None => {}
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
}

// ---------------------------------------------------------------- tokens

/// Byte-index word-boundary test around `pos..pos+len`.
fn bounded(code: &str, pos: usize, len: usize) -> bool {
    let before = code[..pos].chars().next_back();
    let after = code[pos + len..].chars().next();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    !before.is_some_and(ident) && !after.is_some_and(ident)
}

/// Find `needle` in `code` at an identifier boundary.
fn word_occurs(code: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let pos = from + rel;
        if bounded(code, pos, needle.len()) {
            return true;
        }
        from = pos + needle.len();
    }
    false
}

/// Dense-materialization tokens: `.decode()` and `.decode_into(` plus
/// the whole-column materializers (call position only).
/// `Table::col_values` is *not* listed: it is the hot-only flat accessor
/// and never decodes (it panics on frozen columns — its own dynamic
/// guard).
fn dense_token(code: &str) -> Option<&'static str> {
    for tok in [".decode()", ".decode_into("] {
        if code.contains(tok) {
            return Some(tok);
        }
    }
    for tok in ["col_values_dense", "dense_values"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(tok) {
            let pos = from + rel;
            if bounded(code, pos, tok.len()) && code[pos + tok.len()..].starts_with('(') {
                return Some(tok);
            }
            from = pos + tok.len();
        }
    }
    None
}

/// Panic-escape tokens banned on recovery paths. `.unwrap_or*` variants
/// do not match; `debug_assert!` is allowed (absent in release).
fn panic_token(code: &str) -> Option<&'static str> {
    if code.contains(".unwrap()") {
        return Some(".unwrap()");
    }
    if code.contains(".expect(") {
        return Some(".expect(");
    }
    for tok in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
        let bare = &tok[..tok.len() - 1];
        let mut from = 0;
        while let Some(rel) = code[from..].find(tok) {
            let pos = from + rel;
            if bounded(code, pos, bare.len()) {
                return Some(tok);
            }
            from = pos + tok.len();
        }
    }
    None
}

/// Atomic memory-ordering tokens (the `cmp::Ordering` variants never
/// match: `Less`/`Equal`/`Greater` are not in this list).
fn atomics_token(code: &str) -> Option<&'static str> {
    for ord in ["Relaxed", "SeqCst", "AcqRel", "Acquire", "Release"] {
        let needle = format!("Ordering::{ord}");
        if code.contains(&needle) {
            return Some(ord);
        }
    }
    None
}

/// Raw-`std` concurrency tokens banned outside the shim crates. Matching
/// the module path (not individual type names) keeps `Ordering`
/// re-exports and the shim's own wrappers legal while catching every
/// direct import or fully-qualified use.
fn sync_token(code: &str) -> Option<&'static str> {
    for tok in ["std::sync::atomic", "core::sync::atomic", "std::thread"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(tok) {
            let pos = from + rel;
            if bounded(code, pos, tok.len()) {
                return Some(tok);
            }
            from = pos + tok.len();
        }
    }
    None
}

// --------------------------------------------------------------- waivers

struct Waiver {
    line: usize,
    rule: String,
    reason_ok: bool,
    used: bool,
    problem: Option<String>,
}

/// Parse `// lint: allow(<rule>) <reason>` waivers out of comment text.
fn collect_waivers(_path: &str, split: &SplitSource) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (idx, comment) in split.comment.iter().enumerate() {
        // Anchored at the comment start so prose *describing* the syntax
        // (like this crate's docs) is not mistaken for a waiver.
        let trimmed = comment.trim_start();
        if !trimmed.starts_with("lint: allow(") {
            continue;
        }
        let rest = &trimmed["lint: allow(".len()..];
        let line = idx + 1;
        let Some(close) = rest.find(')') else {
            out.push(Waiver {
                line,
                rule: String::new(),
                reason_ok: false,
                used: false,
                problem: Some("malformed waiver: missing `)`".to_string()),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim();
        let known = RULE_NAMES.contains(&rule.as_str());
        let problem = if !known {
            Some(format!(
                "waiver names unknown rule `{rule}` (known: {})",
                RULE_NAMES.join(", ")
            ))
        } else if reason.len() < 10 {
            Some(format!(
                "waiver for `{rule}` needs a real reason (got {reason:?})"
            ))
        } else {
            None
        };
        out.push(Waiver {
            line,
            rule,
            reason_ok: reason.len() >= 10,
            used: false,
            problem,
        });
    }
    out
}

/// Record `v` unless a well-formed waiver on the same or previous line
/// covers it (marking that waiver used).
fn push_unless_waived(out: &mut Vec<Violation>, waivers: &mut [Waiver], v: Violation) {
    for w in waivers.iter_mut() {
        if w.problem.is_none()
            && w.reason_ok
            && w.rule == v.rule
            && (w.line == v.line || w.line + 1 == v.line)
        {
            w.used = true;
            return;
        }
    }
    out.push(v);
}

// ------------------------------------------------------- comment windows

/// True when the line itself or any of the `COMMENT_WINDOW` lines above
/// it carries a comment containing `needle`.
fn comment_window_contains(split: &SplitSource, idx: usize, needle: &str) -> bool {
    let lo = idx.saturating_sub(COMMENT_WINDOW);
    split.comment[lo..=idx].iter().any(|c| c.contains(needle))
}

/// True when the line itself or any of the `COMMENT_WINDOW` lines above
/// it carries any non-empty comment.
fn comment_window_nonempty(split: &SplitSource, idx: usize) -> bool {
    let lo = idx.saturating_sub(COMMENT_WINDOW);
    split.comment[lo..=idx].iter().any(|c| !c.trim().is_empty())
}

// ------------------------------------------------------ test-region map

/// Mark lines covered by `#[cfg(test)]` items (attribute through the
/// close of the item's brace block), tracked by brace depth over the
/// comment/string-blanked code text.
fn cfg_test_lines(split: &SplitSource) -> Vec<bool> {
    let mut marks = vec![false; split.code.len()];
    let mut depth: i64 = 0;
    // (depth the attribute was seen at) while waiting for the item body.
    let mut pending: Option<i64> = None;
    // Depth to return to before the marked region ends.
    let mut region_until: Option<i64> = None;

    for (idx, code) in split.code.iter().enumerate() {
        if code.contains("#[cfg(test)]") && region_until.is_none() {
            pending = Some(depth);
        }
        let mut line_marked = pending.is_some() || region_until.is_some();
        for ch in code.chars() {
            match ch {
                '{' => {
                    if let Some(d) = pending {
                        if depth == d {
                            region_until = Some(d);
                            pending = None;
                            line_marked = true;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_until == Some(depth) {
                        region_until = None;
                        line_marked = true;
                    }
                }
                ';' => {
                    // Brace-less `#[cfg(test)]` item (use/static): ends here.
                    if let Some(d) = pending {
                        if depth == d {
                            pending = None;
                            line_marked = true;
                        }
                    }
                }
                _ => {}
            }
        }
        marks[idx] = line_marked || region_until.is_some() || pending.is_some();
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_source(path, src, &Config::default())
    }

    #[test]
    fn every_configured_path_exists() {
        // A deleted module must take its exemption with it: a path that
        // no longer exists would silently exempt whatever is created
        // there next.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = Config::default();
        let lists = [
            &cfg.dense_whitelist,
            &cfg.panic_paths,
            &cfg.panic_exempt,
            &cfg.sync_whitelist,
            &cfg.skip,
        ];
        for path in lists.into_iter().flatten() {
            assert!(
                root.join(path).exists(),
                "lint config names `{path}`, which is not in the tree"
            );
        }
    }

    #[test]
    fn dense_flagged_outside_whitelist_only() {
        let src = "fn f(t: &Table) { let v = t.col_values_dense(0); }\n";
        assert_eq!(check("crates/engine/src/x.rs", src).len(), 1);
        assert!(check("crates/columnar/src/tier.rs", src).is_empty());
    }

    #[test]
    fn decode_into_is_dense_outside_whitelist_only() {
        let src = "fn f(b: &EncodedBlock, out: &mut Vec<i64>) { b.decode_into(out); }\n";
        let found = check("crates/engine/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "dense");
        assert!(check("crates/columnar/src/persist/snapshot.rs", src).is_empty());
        assert!(check("crates/columnar/src/compress/mod.rs", src).is_empty());
        // Not a call of the method: a path to the codec's function.
        let path = "fn f(d: &[u8], out: &mut Vec<i64>) { rle::decode_into(d, out); }\n";
        assert!(check("crates/engine/src/x.rs", path).is_empty());
    }

    #[test]
    fn panic_rule_scoped_to_recovery_paths() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        assert_eq!(check("crates/columnar/src/coldstore.rs", src).len(), 1);
        assert!(check("crates/engine/src/x.rs", src).is_empty());
        assert!(check("crates/columnar/src/persist/fault.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert!(check("crates/columnar/src/coldstore.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f(x: Option<u8>) { x.unwrap(); }
}
";
        assert!(check("crates/columnar/src/coldstore.rs", src).is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_ignored() {
        let src = "fn f() { g(\".unwrap()\"); } // .unwrap() is banned here\n";
        assert!(check("crates/columnar/src/coldstore.rs", src).is_empty());
    }

    #[test]
    fn waiver_suppresses_and_unused_waiver_fires() {
        let ok = "\
// lint: allow(panic) invariant: length checked two lines up
fn f(x: Option<u8>) { x.unwrap(); }
";
        assert!(check("crates/columnar/src/coldstore.rs", ok).is_empty());
        let unused = "// lint: allow(panic) nothing here actually panics\nfn f() {}\n";
        let v = check("crates/columnar/src/coldstore.rs", unused);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "waiver");
    }

    #[test]
    fn waiver_requires_reason() {
        let src = "// lint: allow(panic)\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let v = check("crates/columnar/src/coldstore.rs", src);
        // Both the bad waiver and the (unwaived) panic fire.
        assert!(v.iter().any(|v| v.rule == "waiver"));
        assert!(v.iter().any(|v| v.rule == "panic"));
    }

    #[test]
    fn atomics_and_unsafe_need_comments() {
        let bad = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        assert_eq!(check("crates/engine/src/x.rs", bad).len(), 1);
        let good = "fn f(c: &AtomicU64) {\n    // Relaxed: advisory counter, no ordering needed.\n    c.load(Ordering::Relaxed);\n}\n";
        assert!(check("crates/engine/src/x.rs", good).is_empty());
        let bad_unsafe = "fn f() { unsafe { core(); } }\n";
        assert_eq!(check("crates/engine/src/x.rs", bad_unsafe).len(), 1);
        let good_unsafe = "fn f() {\n    // SAFETY: core() has no preconditions on this path.\n    unsafe { core(); }\n}\n";
        assert!(check("crates/engine/src/x.rs", good_unsafe).is_empty());
    }

    #[test]
    fn cmp_ordering_never_matches() {
        let src = "fn f() { let _ = std::cmp::Ordering::Less; }\n";
        assert!(check("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn sync_flagged_outside_shim_only() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        let v = check("crates/engine/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "sync");
        assert!(check("crates/sync/src/atomic.rs", src).is_empty());
        assert!(check("crates/shims/serde/src/lib.rs", src).is_empty());
        assert!(check("crates/engine/tests/x.rs", src).is_empty());
    }

    #[test]
    fn sync_catches_thread_and_core_paths() {
        let v = check(
            "crates/engine/src/x.rs",
            "fn f() { std::thread::scope(|_| ()); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        let v = check(
            "crates/engine/src/x.rs",
            "use core::sync::atomic::AtomicBool;\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn sync_ignores_thread_local_and_shim_paths() {
        // `std::thread_local` shares the prefix at a non-boundary.
        let src = "std::thread_local! { static X: u8 = 0; }\n";
        assert!(check("crates/engine/src/x.rs", src).is_empty());
        let shim = "use amnesia_sync::atomic::{AtomicU64, Ordering};\n";
        assert!(check("crates/engine/src/x.rs", shim).is_empty());
    }

    #[test]
    fn allow_needs_justification() {
        let bad = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(check("crates/engine/src/x.rs", bad).len(), 1);
        let good =
            "// Only exercised when built against real serde.\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(check("crates/engine/src/x.rs", good).is_empty());
    }
}
