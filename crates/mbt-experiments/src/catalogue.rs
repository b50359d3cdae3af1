//! The one catalogue of experiments: every figure, table and ablation this
//! repository can regenerate is a row — a figure is its row of [`FIGURES`],
//! anything else a table row here — and `mbt experiment` is the one command
//! that runs rows.
//!
//! ```
//! use mbt_experiments::catalogue::{run, select};
//! use mbt_experiments::{RunContext, Scale};
//!
//! let rows = select(&["capacity"]).unwrap();
//! let report = run("capacity", &rows, &RunContext::new(Scale::Quick));
//! assert!(report.text.contains("crossover statement: HOLDS"));
//! assert!(select(&["fig9"]).is_err());
//! ```

use std::fmt;

use crate::ablations::{
    ablation_table, cooperation_ablation, discovery_first_ablation, failure_ablation,
    ordering_ablation, pollution_ablation, short_contact_ablation, AblationRow,
};
use crate::capacity::{capacity_table, crossover_holds};
use crate::figures::{FigureSpec, RunContext, FIGURES};
use crate::mobility::{mobility_comparison, mobility_table};
use crate::progress::{delivery_progress, progress_table};
use crate::report::{capacity_table_text, figure_csv, figure_table};
use crate::routing::{bound_table, dissemination_bound, routing_comparison, routing_table};

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
pub enum Experiment {
    /// A row of [`FIGURES`]: its table, and the CSV behind it.
    Figure(&'static FigureSpec),
    /// Any other experiment.
    Table {
        /// Unique name (`mbt experiment <name>`).
        name: &'static str,
        /// The group it runs with (`mbt experiment <group>`).
        group: &'static str,
        /// Runs it under a context.
        run: fn(&RunContext) -> Rendered,
    },
}

impl Experiment {
    /// Unique name (`mbt experiment <name>`).
    pub fn name(&self) -> &'static str {
        match *self {
            Experiment::Figure(spec) => spec.id,
            Experiment::Table { name, .. } => name,
        }
    }

    /// The group it runs with (`mbt experiment <group>`).
    pub fn group(&self) -> &'static str {
        match *self {
            Experiment::Figure(spec) => spec.group,
            Experiment::Table { group, .. } => group,
        }
    }

    /// Runs it under `ctx`.
    pub fn run(&self, ctx: &RunContext) -> Rendered {
        match *self {
            Experiment::Figure(spec) => {
                let fig = spec.run(ctx, None);
                Rendered {
                    text: figure_table(&fig),
                    csv: Some((fig.id.clone(), figure_csv(&fig))),
                }
            }
            Experiment::Table { run, .. } => run(ctx),
        }
    }
}

const fn row(
    name: &'static str,
    group: &'static str,
    run: fn(&RunContext) -> Rendered,
) -> Experiment {
    Experiment::Table { name, group, run }
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

fn capacity(_: &RunContext) -> Rendered {
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

/// The experiments that are not figures: the §V capacity analysis, the
/// design ablations, the routing substrate and the two extensions.
const TABLES: &[Experiment] = &[
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
];

/// Every experiment, in the order `all` runs them: the paper's Fig 2 and
/// Fig 3 panels, the tables (capacity, ablations, routing, extensions),
/// then the fault and protocol-variant figures.
pub fn catalogue() -> impl Iterator<Item = Experiment> {
    let paper = |spec: &&FigureSpec| matches!(spec.group, "fig2" | "fig3");
    let figures = |in_paper: bool| {
        FIGURES
            .iter()
            .filter(move |spec| paper(spec) == in_paper)
            .map(Experiment::Figure)
    };
    figures(true)
        .chain(TABLES.iter().copied())
        .chain(figures(false))
}

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
pub fn select(selectors: &[&str]) -> Result<Vec<Experiment>, UnknownExperiment> {
    let hits = |sel: &str, e: &Experiment| sel == "all" || sel == e.name() || sel == e.group();
    if let Some(bad) = selectors
        .iter()
        .find(|sel| !catalogue().any(|e| hits(sel, &e)))
    {
        return Err(UnknownExperiment(bad.to_string()));
    }
    Ok(catalogue()
        .filter(|e| selectors.iter().any(|sel| hits(sel, e)))
        .collect())
}

/// One line per group: `group: name name ...`, in catalogue order.
pub fn list() -> String {
    let mut out = String::new();
    let mut group = "";
    for e in catalogue() {
        if e.group() != group {
            if !group.is_empty() {
                out.push('\n');
            }
            group = e.group();
            out.push_str(&format!("  {group}:"));
        }
        out.push(' ');
        out.push_str(e.name());
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
pub fn run(what: &str, rows: &[Experiment], ctx: &RunContext) -> Report {
    let mut text = format!(
        "=== MBT reproduction: {what} experiments (scale {:?}) ===\n",
        ctx.scale()
    );
    let mut csvs = Vec::new();
    for row in rows {
        let rendered = row.run(ctx);
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
        let names: BTreeSet<&str> = catalogue().map(|e| e.name()).collect();
        assert_eq!(names.len(), catalogue().count());
        assert_eq!(names.len(), FIGURES.len() + TABLES.len());
        assert!(!names.contains("all") && !names.contains("list"));
        let mut seen = Vec::new();
        for e in catalogue() {
            if seen.last() != Some(&e.group()) {
                assert!(!seen.contains(&e.group()), "group {} is split", e.group());
                seen.push(e.group());
            }
        }
    }

    #[test]
    fn select_by_name_group_and_all() {
        let names =
            |sel: &[&str]| -> Vec<&str> { select(sel).unwrap().iter().map(|e| e.name()).collect() };
        assert_eq!(names(&["fig3f"]), ["fig3f"]);
        assert_eq!(names(&["fig2"]).len(), 5);
        assert_eq!(names(&["all"]).len(), catalogue().count());
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
        for e in catalogue() {
            assert!(err.contains(e.name()), "{} missing from: {err}", e.name());
        }
    }
}
