//! The one catalogue of experiments: every figure, table and ablation this
//! repository can regenerate is a row — a figure is its row of [`FIGURES`],
//! an ablation its row of [`ABLATIONS`], anything else a [`Table`] row
//! here — and `mbt experiment` is the one command that runs rows.
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

use crate::ablations::{ablation_table, Ablation, ABLATIONS};
use crate::capacity::capacity_report;
use crate::figures::{FigureSpec, RunContext, FIGURES};
use crate::report::{figure_csv, figure_table};
use crate::{mobility, progress, routing};

/// What one experiment produced: the text it prints (ending in a newline)
/// and, for figures, the CSV behind the table as `(file stem, contents)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    /// The table, title line included.
    pub text: String,
    /// `(file stem, CSV)` for experiments that have one.
    pub csv: Option<(String, String)>,
}

/// An experiment that is neither a figure nor an ablation.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// Unique name (`mbt experiment <name>`).
    pub name: &'static str,
    /// The group it runs with (`mbt experiment <group>`).
    pub group: &'static str,
    /// The table title.
    pub title: &'static str,
    /// Runs it under a context and renders the table below the title.
    pub run: fn(&RunContext) -> String,
}

/// One runnable experiment.
#[derive(Debug, Clone, Copy)]
pub enum Experiment {
    /// A row of [`FIGURES`]: its table, and the CSV behind it.
    Figure(&'static FigureSpec),
    /// A row of [`ABLATIONS`], in group `ablations`.
    Ablation(&'static Ablation),
    /// Any other experiment.
    Table(&'static Table),
}

impl Experiment {
    /// Unique name (`mbt experiment <name>`).
    pub fn name(&self) -> &'static str {
        match *self {
            Experiment::Figure(spec) => spec.id,
            Experiment::Ablation(row) => row.name,
            Experiment::Table(row) => row.name,
        }
    }

    /// The group it runs with (`mbt experiment <group>`).
    pub fn group(&self) -> &'static str {
        match *self {
            Experiment::Figure(spec) => spec.group,
            Experiment::Ablation(_) => "ablations",
            Experiment::Table(row) => row.group,
        }
    }

    /// Runs it under `ctx`.
    pub fn run(&self, ctx: &RunContext) -> Rendered {
        let (title, table) = match *self {
            Experiment::Figure(spec) => {
                let fig = spec.run(ctx, None);
                return Rendered {
                    text: figure_table(&fig),
                    csv: Some((fig.id.clone(), figure_csv(&fig))),
                };
            }
            Experiment::Ablation(row) => (row.title, ablation_table(&row.run(ctx))),
            Experiment::Table(row) => (row.title, (row.run)(ctx)),
        };
        Rendered {
            text: format!("== {title} ==\n{table}"),
            csv: None,
        }
    }
}

/// The §V capacity analysis, which runs before the ablations.
const CAPACITY: Table = Table {
    name: "capacity",
    group: "capacity",
    title: "capacity analysis (§V)",
    run: |_| capacity_report(20, 10_000),
};

/// The tables after the ablations: the routing substrate and the two
/// extensions.
const TABLES: &[Table] = &[
    Table {
        name: "routing_baselines",
        group: "routing",
        title: "routing baselines (§II-A substrate)",
        run: routing::baselines_table,
    },
    Table {
        name: "oracle_bound",
        group: "routing",
        title: "metadata dissemination: MBT vs space-time oracle bound",
        run: routing::bound_table,
    },
    Table {
        name: "mobility",
        group: "extensions",
        title: "protocols across mobility models (extension)",
        run: mobility::mobility_table,
    },
    Table {
        name: "progress",
        group: "extensions",
        title: "cumulative delivery progression, NUS trace (extension)",
        run: progress::progress_table,
    },
];

/// Every experiment, in the order `all` runs them: the paper's Fig 2 and
/// Fig 3 panels, the capacity analysis, the ablations, the routing and
/// extension tables, then the fault and protocol-variant figures.
pub fn catalogue() -> impl Iterator<Item = Experiment> {
    let paper = |spec: &&FigureSpec| matches!(spec.group, "fig2" | "fig3");
    let figures = |in_paper: bool| {
        FIGURES
            .iter()
            .filter(move |spec| paper(spec) == in_paper)
            .map(Experiment::Figure)
    };
    figures(true)
        .chain([Experiment::Table(&CAPACITY)])
        .chain(ABLATIONS.iter().map(Experiment::Ablation))
        .chain(TABLES.iter().map(Experiment::Table))
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
        assert_eq!(
            names.len(),
            FIGURES.len() + 1 + ABLATIONS.len() + TABLES.len()
        );
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
    fn list_pins_every_name_and_group() {
        assert_eq!(
            list(),
            "  fig2: fig2a fig2b fig2c fig2d fig2e
  fig3: fig3a fig3b fig3c fig3d fig3e fig3f
  capacity: capacity
  ablations: cooperation discovery_first short_contact ordering failure pollution
  routing: routing_baselines oracle_bound
  extensions: mobility progress
  faults: fault_sweep fault_sweep_variants
  h2h: h2h_dieselnet h2h_nus
"
        );
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
