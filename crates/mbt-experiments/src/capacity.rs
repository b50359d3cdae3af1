//! The §V capacity analysis: broadcast vs pair-wise transmission.
//!
//! The paper argues that broadcast-based file download has an *increasing*
//! per-node transmission capacity as node density increases — `(n-1)/n` for a
//! clique of `n` — while pair-wise transmission *decreases* — `1/n`. This
//! module reproduces that analysis both analytically and by counting
//! receptions in a slot-level simulation, and adds the derived
//! time-to-distribute comparison.

use dtn_sim::channel::{
    broadcast_per_node_capacity, pairwise_per_node_capacity, simulate_receptions, TransmissionMode,
};

use crate::report::{aligned_table, Column};

/// One row of the capacity table.
#[derive(Debug, Clone, PartialEq)]
struct CapacityRow {
    /// Clique size.
    n: usize,
    /// Analytic per-node broadcast capacity `(n-1)/n`.
    broadcast: f64,
    /// Analytic per-node pair-wise capacity `1/n`.
    pairwise: f64,
    /// Simulated per-node per-slot reception rate under broadcast.
    broadcast_sim: f64,
    /// Simulated per-node per-slot reception rate under pair-wise.
    pairwise_sim: f64,
    /// Slots to give every member one copy of a file, broadcasting.
    slots_broadcast: u64,
    /// Slots to give every member one copy of a file, pair-wise.
    slots_pairwise: u64,
}

/// Computes the capacity table for clique sizes `2..=max_n`.
fn capacity_table(max_n: usize, slots: u64) -> Vec<CapacityRow> {
    (2..=max_n)
        .map(|n| {
            let b = simulate_receptions(TransmissionMode::Broadcast, n, slots);
            let p = simulate_receptions(TransmissionMode::Pairwise, n, slots);
            CapacityRow {
                n,
                broadcast: broadcast_per_node_capacity(n),
                pairwise: pairwise_per_node_capacity(n),
                broadcast_sim: b as f64 / (n as f64 * slots as f64),
                pairwise_sim: p as f64 / (n as f64 * slots as f64),
                // One holder must serve n-1 receivers: 1 broadcast slot vs
                // n-1 pair-wise transmissions.
                slots_broadcast: 1,
                slots_pairwise: (n as u64) - 1,
            }
        })
        .collect()
}

/// The crossover statement of §V: broadcast strictly beats pair-wise for all
/// `n > 2`, and they tie at `n = 2`.
fn crossover_holds(rows: &[CapacityRow]) -> bool {
    rows.iter().all(|r| {
        if r.n == 2 {
            (r.broadcast - r.pairwise).abs() < 1e-12
        } else {
            r.broadcast > r.pairwise
        }
    })
}

/// The capacity table for cliques of `2..=max_n` over `slots` slots, then
/// whether the crossover statement holds.
pub(crate) fn capacity_report(max_n: usize, slots: u64) -> String {
    let rows = capacity_table(max_n, slots);
    let columns: [Column<CapacityRow>; 7] = [
        ("n", 4, |r| r.n.to_string()),
        ("bcast (n-1)/n", 12, |r| format!("{:.4}", r.broadcast)),
        ("pair 1/n", 12, |r| format!("{:.4}", r.pairwise)),
        ("bcast (sim)", 14, |r| format!("{:.4}", r.broadcast_sim)),
        ("pair (sim)", 14, |r| format!("{:.4}", r.pairwise_sim)),
        ("slots bcast", 14, |r| r.slots_broadcast.to_string()),
        ("slots pair", 14, |r| r.slots_pairwise.to_string()),
    ];
    let verdict = if crossover_holds(&rows) {
        "HOLDS"
    } else {
        "VIOLATED"
    };
    let table = aligned_table(&columns, &rows);
    format!("{table}crossover statement: {verdict}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_requested_sizes() {
        let rows = capacity_table(10, 100);
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].n, 2);
        assert_eq!(rows[8].n, 10);
    }

    #[test]
    fn simulation_matches_analysis() {
        for row in capacity_table(12, 1000) {
            assert!(
                (row.broadcast - row.broadcast_sim).abs() < 1e-12,
                "n={}",
                row.n
            );
            assert!(
                (row.pairwise - row.pairwise_sim).abs() < 1e-12,
                "n={}",
                row.n
            );
        }
    }

    #[test]
    fn broadcast_monotone_up_pairwise_down() {
        let rows = capacity_table(16, 10);
        for w in rows.windows(2) {
            assert!(w[1].broadcast > w[0].broadcast);
            assert!(w[1].pairwise < w[0].pairwise);
        }
    }

    #[test]
    fn crossover_statement_holds() {
        assert!(crossover_holds(&capacity_table(20, 10)));
    }

    #[test]
    fn capacity_text_renders_rows() {
        let text = capacity_report(4, 10);
        assert_eq!(text.lines().count(), 5); // header + n=2,3,4 + verdict
        assert!(text.contains("0.5000"));
        assert!(text.ends_with("crossover statement: HOLDS\n"));
    }

    #[test]
    fn distribution_slots_grow_linearly_for_pairwise() {
        let rows = capacity_table(8, 10);
        for r in &rows {
            assert_eq!(r.slots_broadcast, 1);
            assert_eq!(r.slots_pairwise, r.n as u64 - 1);
        }
    }
}
