//! Pins everything `mbt experiment all --quick` prints — every figure
//! table, the capacity analysis, the ablations, the routing baselines, the
//! oracle bound, the mobility comparison and the delivery progression —
//! byte for byte, for any worker count.
//!
//! To update the fixture after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mbt-experiments --test golden_experiments
//! ```

use mbt_experiments::catalogue::{run, select};
use mbt_experiments::{ExecConfig, RunContext, Scale};

#[path = "support/golden.rs"]
mod golden;

#[test]
fn all_experiments_quick_match_golden_for_any_job_count() {
    let rows = select(&["all"]).unwrap();
    for jobs in [1, 8] {
        let ctx = RunContext::new(Scale::Quick).exec(ExecConfig::default().jobs(jobs));
        let report = run("all", &rows, &ctx);
        golden::assert_text_matches_golden(
            &report.text,
            &format!("`experiment all --quick --jobs {jobs}`"),
            "experiments_quick.txt",
        );
    }
}
