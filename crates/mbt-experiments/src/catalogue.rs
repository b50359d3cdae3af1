//! The one catalogue of experiments: every figure, table and ablation this
//! repository can regenerate is a row here, and `mbt experiment` is the one
//! command that runs rows.
//!
//! ```
//! use mbt_experiments::catalogue::{run, select};
//! use mbt_experiments::{RunContext, Scale};
//!
//! let rows = select(&["capacity"]).unwrap();
//! let report = run("capacity", &rows, &mut RunContext::new(Scale::Quick));
//! assert!(report.text.contains("crossover statement: HOLDS"));
//! assert!(select(&["fig9"]).is_err());
//! ```

use std::fmt;

use crate::ablations::{
    ablation_table, cooperation_ablation, discovery_first_ablation, failure_ablation,
    ordering_ablation, pollution_ablation, short_contact_ablation, AblationRow,
};
use crate::capacity::{capacity_table, crossover_holds};
use crate::figures::{self, RunContext};
use crate::mobility::{mobility_comparison, mobility_table};
use crate::progress::{delivery_progress, progress_table};
use crate::report::{capacity_table_text, figure_csv, figure_table};
use crate::routing::{bound_table, dissemination_bound, routing_comparison, routing_table};
use crate::sweep::Figure;

/// What one experiment produced: the text it prints (ending in a newline)
/// and, for figures, the CSV behind the table as `(file stem, contents)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    /// The table, title line included.
    pub text: String,
    /// `(file stem, CSV)` for experiments that have one.
    pub csv: Option<(String, String)>,
}

/// One runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Unique name (`mbt experiment <name>`).
    pub name: &'static str,
    /// The group it runs with (`mbt experiment <group>`).
    pub group: &'static str,
    /// Runs it under a context.
    pub run: fn(&mut RunContext) -> Rendered,
}

const fn row(
    name: &'static str,
    group: &'static str,
    run: fn(&mut RunContext) -> Rendered,
) -> Experiment {
    Experiment { name, group, run }
}

fn figure(fig: Figure) -> Rendered {
    Rendered {
        text: figure_table(&fig),
        csv: Some((fig.id.clone(), figure_csv(&fig))),
    }
}

fn titled(title: &str, table: String) -> Rendered {
    Rendered {
        text: format!("== {title} ==\n{table}"),
        csv: None,
    }
}

fn ablation(title: &str, rows: Vec<AblationRow>) -> Rendered {
    Rendered {
        text: ablation_table(title, &rows),
        csv: None,
    }
}

fn capacity(_: &mut RunContext) -> Rendered {
    let rows = capacity_table(20, 10_000);
    let verdict = if crossover_holds(&rows) {
        "HOLDS"
    } else {
        "VIOLATED"
    };
    titled(
        "capacity analysis (§V)",
        format!(
            "{}crossover statement: {verdict}\n",
            capacity_table_text(&rows)
        ),
    )
}

/// Every experiment, in the order `all` runs them: the paper's Fig 2 and
/// Fig 3 panels, the §V capacity analysis, the design ablations, the
/// routing substrate, the two extensions, then the fault and
/// protocol-variant figures.
pub const CATALOGUE: &[Experiment] = &[
    row("fig2a", "fig2", |ctx| figure(figures::fig2a(ctx))),
    row("fig2b", "fig2", |ctx| figure(figures::fig2b(ctx))),
    row("fig2c", "fig2", |ctx| figure(figures::fig2c(ctx))),
    row("fig2d", "fig2", |ctx| figure(figures::fig2d(ctx))),
    row("fig2e", "fig2", |ctx| figure(figures::fig2e(ctx))),
    row("fig3a", "fig3", |ctx| figure(figures::fig3a(ctx))),
    row("fig3b", "fig3", |ctx| figure(figures::fig3b(ctx))),
    row("fig3c", "fig3", |ctx| figure(figures::fig3c(ctx))),
    row("fig3d", "fig3", |ctx| figure(figures::fig3d(ctx))),
    row("fig3e", "fig3", |ctx| figure(figures::fig3e(ctx))),
    row("fig3f", "fig3", |ctx| figure(figures::fig3f(ctx))),
    row("capacity", "capacity", capacity),
    row("cooperation", "ablations", |ctx| {
        ablation("cooperation mode (§IV-B/§V-B)", cooperation_ablation(ctx))
    }),
    row("discovery_first", "ablations", |ctx| {
        let rows = discovery_first_ablation(ctx);
        ablation("discovery-first contact ordering (§V)", rows)
    }),
    row("short_contact", "ablations", |ctx| {
        let rows = short_contact_ablation(ctx);
        ablation("short-contact file-phase gating (§V)", rows)
    }),
    row("ordering", "ablations", |ctx| {
        let rows = ordering_ablation(ctx);
        ablation(
            "broadcast ordering: two-phase (§V-A) vs rarest-first (BitTorrent)",
            rows,
        )
    }),
    row("failure", "ablations", |ctx| {
        let rows = failure_ablation(ctx);
        ablation("failure injection: broadcast loss and node churn", rows)
    }),
    row("pollution", "ablations", |ctx| {
        let rows = pollution_ablation(ctx);
        ablation(
            "metadata pollution: fake publishers vs authentication (§I, §III-B.f)",
            rows,
        )
    }),
    row("routing_baselines", "routing", |ctx| {
        let table = routing_table(&routing_comparison(ctx));
        titled("routing baselines (§II-A substrate)", table)
    }),
    row("oracle_bound", "routing", |ctx| {
        let table = bound_table(&dissemination_bound(ctx));
        titled(
            "metadata dissemination: MBT vs space-time oracle bound",
            table,
        )
    }),
    row("mobility", "extensions", |ctx| {
        let table = mobility_table(&mobility_comparison(ctx));
        titled("protocols across mobility models (extension)", table)
    }),
    row("progress", "extensions", |ctx| {
        let table = progress_table(&delivery_progress(ctx));
        titled(
            "cumulative delivery progression, NUS trace (extension)",
            table,
        )
    }),
    row("fault_sweep", "faults", |ctx| {
        figure(figures::fault_sweep(ctx))
    }),
    row("fault_sweep_variants", "faults", |ctx| {
        figure(figures::fault_sweep_variants(ctx))
    }),
    row("h2h_dieselnet", "h2h", |ctx| {
        figure(figures::head_to_head_dieselnet(ctx))
    }),
    row("h2h_nus", "h2h", |ctx| {
        figure(figures::head_to_head_nus(ctx))
    }),
];

/// A selector that names no experiment, no group and is not `all`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment `{}`; valid names:\n{}",
            self.0,
            list()
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// The rows `selectors` name — each an experiment name, a group name or
/// `all` — in catalogue order, each row once.
///
/// # Errors
///
/// Returns the first selector that matches nothing.
pub fn select(selectors: &[&str]) -> Result<Vec<&'static Experiment>, UnknownExperiment> {
    let hits = |sel: &str, e: &Experiment| sel == "all" || sel == e.name || sel == e.group;
    if let Some(bad) = selectors
        .iter()
        .find(|sel| !CATALOGUE.iter().any(|e| hits(sel, e)))
    {
        return Err(UnknownExperiment(bad.to_string()));
    }
    Ok(CATALOGUE
        .iter()
        .filter(|e| selectors.iter().any(|sel| hits(sel, e)))
        .collect())
}

/// One line per group: `group: name name ...`, in catalogue order.
pub fn list() -> String {
    let mut out = String::new();
    let mut group = "";
    for e in CATALOGUE {
        if e.group != group {
            if !group.is_empty() {
                out.push('\n');
            }
            group = e.group;
            out.push_str(&format!("  {group}:"));
        }
        out.push(' ');
        out.push_str(e.name);
    }
    out.push('\n');
    out
}

/// What a run of several experiments produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// A banner, then every experiment's text separated by blank lines.
    pub text: String,
    /// `(file stem, CSV)` of every figure run, in run order.
    pub csvs: Vec<(String, String)>,
}

/// Runs `rows` in order under `ctx`; `what` names the selection in the
/// banner.
pub fn run(what: &str, rows: &[&Experiment], ctx: &mut RunContext) -> Report {
    let mut text = format!(
        "=== MBT reproduction: {what} experiments (scale {:?}) ===\n",
        ctx.scale()
    );
    let mut csvs = Vec::new();
    for row in rows {
        let rendered = (row.run)(ctx);
        text.push('\n');
        text.push_str(&rendered.text);
        csvs.extend(rendered.csv);
    }
    Report { text, csvs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_groups_contiguous() {
        let names: BTreeSet<&str> = CATALOGUE.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), CATALOGUE.len());
        assert!(!names.contains("all") && !names.contains("list"));
        let mut seen = Vec::new();
        for e in CATALOGUE {
            if seen.last() != Some(&e.group) {
                assert!(!seen.contains(&e.group), "group {} is split", e.group);
                seen.push(e.group);
            }
        }
    }

    #[test]
    fn select_by_name_group_and_all() {
        let names =
            |sel: &[&str]| -> Vec<&str> { select(sel).unwrap().iter().map(|e| e.name).collect() };
        assert_eq!(names(&["fig3f"]), ["fig3f"]);
        assert_eq!(names(&["fig2"]).len(), 5);
        assert_eq!(names(&["all"]).len(), CATALOGUE.len());
        // Catalogue order, each row once, whatever the argument order.
        assert_eq!(
            names(&["h2h_nus", "routing", "oracle_bound"]),
            ["routing_baselines", "oracle_bound", "h2h_nus"]
        );
    }

    #[test]
    fn unknown_selector_lists_valid_names() {
        let err = select(&["fig2", "nope"]).unwrap_err().to_string();
        assert!(err.contains("`nope`"), "{err}");
        for e in CATALOGUE {
            assert!(err.contains(e.name), "{} missing from: {err}", e.name);
        }
    }
}
