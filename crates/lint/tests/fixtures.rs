//! Fixture-based self-tests: every rule in passing and failing form,
//! the waiver syntax, and ratchet behavior.
//!
//! Fixture snippets live under `tests/fixtures/` (a directory the
//! checker itself skips — see `Config::skip`) and are fed through
//! [`amnesia_lint::check_source`] under pretend workspace paths, so each
//! rule is exercised with exactly the scoping it has in production.

use amnesia_lint::{check_source, ratchet, Config, Violation};

/// Check `src` as if it lived at `path` in the workspace.
fn check_at(path: &str, src: &str) -> Vec<Violation> {
    check_source(path, src, &Config::default())
}

/// Path where the `dense` rule applies (engine code, off-whitelist).
const ENGINE: &str = "crates/engine/src/fixture.rs";
/// Path where the `panic` rule applies (recovery-critical module).
const RECOVERY: &str = "crates/columnar/src/persist/fixture.rs";

#[test]
fn dense_fail_and_pass() {
    let v = check_at(ENGINE, include_str!("fixtures/dense_fail.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "dense");
    assert_eq!(v[0].line, 4);
    assert!(check_at(ENGINE, include_str!("fixtures/dense_pass.rs")).is_empty());
}

#[test]
fn dense_whitelist_and_tests_are_exempt() {
    let src = include_str!("fixtures/dense_fail.rs");
    // Codec internals are a whitelisted seam…
    assert!(check_at("crates/columnar/src/compress/rle.rs", src).is_empty());
    // …and so are integration tests and benches (oracles, baselines).
    assert!(check_at("crates/engine/tests/oracle.rs", src).is_empty());
    assert!(check_at("crates/bench/benches/sql_bench.rs", src).is_empty());
}

#[test]
fn panic_fail_and_pass() {
    let v = check_at(RECOVERY, include_str!("fixtures/panic_fail.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "panic");
    assert!(v[0].message.contains("`Err`"));
    assert!(check_at(RECOVERY, include_str!("fixtures/panic_pass.rs")).is_empty());
}

#[test]
fn panic_rule_only_guards_recovery_paths() {
    // The same snippet is legal outside the durability/recovery modules.
    let src = include_str!("fixtures/panic_fail.rs");
    assert!(check_at(ENGINE, src).is_empty());
    // …and inside the fault-injection harness exemption.
    assert!(check_at("crates/columnar/src/persist/fault.rs", src).is_empty());
}

#[test]
fn unsafe_fail_and_pass() {
    let v = check_at(ENGINE, include_str!("fixtures/unsafe_fail.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "unsafe");
    assert!(check_at(ENGINE, include_str!("fixtures/unsafe_pass.rs")).is_empty());
}

#[test]
fn unsafe_rule_applies_even_in_tests() {
    // Hygiene rules have no test exemption: unsafe in a test still
    // needs its invariant written down.
    let v = check_at(
        "crates/engine/tests/simd.rs",
        include_str!("fixtures/unsafe_fail.rs"),
    );
    assert_eq!(v.len(), 1);
}

#[test]
fn atomics_fail_and_pass() {
    let v = check_at(ENGINE, include_str!("fixtures/atomics_fail.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "atomics");
    assert!(v[0].message.contains("Relaxed"));
    assert!(check_at(ENGINE, include_str!("fixtures/atomics_pass.rs")).is_empty());
}

#[test]
fn allow_fail_and_pass() {
    let v = check_at(ENGINE, include_str!("fixtures/allow_fail.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "allow");
    assert!(check_at(ENGINE, include_str!("fixtures/allow_pass.rs")).is_empty());
}

#[test]
fn sync_fail_and_pass() {
    let v = check_at(ENGINE, include_str!("fixtures/sync_fail.rs"));
    // Both the atomic import and the raw scope call fire.
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|v| v.rule == "sync"));
    assert!(v[0].message.contains("amnesia-sync"));
    assert!(check_at(ENGINE, include_str!("fixtures/sync_pass.rs")).is_empty());
}

#[test]
fn sync_rule_exempts_shim_and_tests() {
    let src = include_str!("fixtures/sync_fail.rs");
    // The shim crate and the vendored stubs are the legal seams…
    assert!(check_at("crates/sync/src/thread.rs", src).is_empty());
    assert!(check_at("crates/shims/proptest/src/lib.rs", src).is_empty());
    // …and test/bench targets stay free to probe std directly.
    assert!(check_at("crates/bench/benches/sql_bench.rs", src).is_empty());
}

#[test]
fn waiver_suppresses_a_real_violation() {
    assert!(check_at(RECOVERY, include_str!("fixtures/waiver_ok.rs")).is_empty());
}

#[test]
fn unused_waiver_is_a_violation() {
    let v = check_at(RECOVERY, include_str!("fixtures/waiver_unused.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "waiver");
    assert!(v[0].message.contains("unused"));
}

#[test]
fn waiver_without_reason_rejected_and_violation_kept() {
    let v = check_at(RECOVERY, include_str!("fixtures/waiver_noreason.rs"));
    let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"waiver"), "{v:?}");
    assert!(rules.contains(&"panic"), "{v:?}");
}

#[test]
fn ratchet_tolerates_baselined_debt_and_flags_growth() {
    // Two panic violations in one file…
    let two = "fn a(x: Option<u8>) { x.unwrap(); }\nfn b(x: Option<u8>) { x.unwrap(); }\n";
    let violations = check_at(RECOVERY, two);
    assert_eq!(violations.len(), 2);

    // …a baseline tolerating two: clean.
    let baseline = ratchet::parse(&format!("panic {RECOVERY} 2\n")).unwrap();
    let cmp = ratchet::compare(&violations, &baseline);
    assert!(cmp.over.is_empty());
    assert!(cmp.slack.is_empty());

    // A baseline tolerating one: exactly the second (line-ordered)
    // violation spills over.
    let baseline = ratchet::parse(&format!("panic {RECOVERY} 1\n")).unwrap();
    let cmp = ratchet::compare(&violations, &baseline);
    assert_eq!(cmp.over.len(), 1);
    assert_eq!(cmp.over[0].line, 2);
}

#[test]
fn ratchet_reports_slack_when_debt_shrinks() {
    // Debt paid down below the baseline must surface as tighten-able
    // slack, the one-way ratchet's signal to shrink the file.
    let one = "fn a(x: Option<u8>) { x.unwrap(); }\n";
    let violations = check_at(RECOVERY, one);
    let baseline = ratchet::parse(&format!("panic {RECOVERY} 3\n")).unwrap();
    let cmp = ratchet::compare(&violations, &baseline);
    assert!(cmp.over.is_empty());
    assert_eq!(cmp.slack.len(), 1);
    let (rule, file, tolerated, actual) = &cmp.slack[0];
    assert_eq!((rule.as_str(), file.as_str()), ("panic", RECOVERY));
    assert_eq!((*tolerated, *actual), (3, 1));
}

#[test]
fn ratchet_roundtrips_through_render() {
    let violations = check_at(RECOVERY, "fn a(x: Option<u8>) { x.unwrap(); }\n");
    let baseline = ratchet::from_violations(&violations);
    let reparsed = ratchet::parse(&ratchet::render(&baseline)).unwrap();
    assert_eq!(reparsed, baseline);
    assert!(ratchet::compare(&violations, &reparsed).over.is_empty());
}
