//! Harness outputs against their committed golden copies, byte for byte:
//! a change that moves a printed number updates the golden file in the
//! same diff. Regenerate one with its `cargo bench` target, e.g.
//! `cargo bench -q -p ftpde-bench --bench fig13_pruning > crates/bench/golden/fig13_pruning.txt`.

#[test]
fn fig13_matches_its_golden_output() {
    let rows = ftpde_bench::fig13::run();
    assert_eq!(ftpde_bench::fig13::render(&rows), include_str!("../golden/fig13_pruning.txt"));
}
