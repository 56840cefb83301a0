//! The paper's evaluation, pinned: every row of `EXPERIMENTS` run at
//! `Scale::test()` must reproduce `tests/fixtures/paper_results_test.json`
//! byte for byte. CI runs the suite once per kernel width and worker
//! count, so this also checks that no answer depends on either.

use amnesia::core::experiments::{self, Scale, EXPERIMENTS};

const FIXTURE: &str = include_str!("fixtures/paper_results_test.json");

const REGENERATE: &str = "cargo run --release -p amnesia-bench --bin repro -- \
    all --scale test --out target/paper-test && \
    cp target/paper-test/PAPER_RESULTS.json tests/fixtures/paper_results_test.json";

#[test]
fn every_experiment_reproduces_the_fixture() {
    let scale = Scale::test();
    let results: Vec<_> = EXPERIMENTS
        .iter()
        .map(|e| (e.name, experiments::run(e, &scale).unwrap()))
        .collect();
    if experiments::results_json(&results) == FIXTURE {
        return;
    }
    let first = results
        .iter()
        .find(|(name, report)| !FIXTURE.contains(&format!("  \"{name}\": {}", report.to_json())))
        .map_or("the list of experiments", |(name, _)| *name);
    panic!(
        "{first} differs from tests/fixtures/paper_results_test.json.\n\
         If the change to the results is intended, regenerate the fixture:\n  {REGENERATE}"
    );
}
