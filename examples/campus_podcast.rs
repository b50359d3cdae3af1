//! Campus podcast distribution: the NUS-style clique scenario.
//!
//! A campus of students shares daily podcast episodes. Class sessions put
//! students in classroom cliques; the broadcast-based download lets one
//! transmission serve a whole room. This example runs the full simulation
//! pipeline over a generated timetable trace and reports delivery ratios per
//! protocol variant, plus the effect of skipping lectures.
//!
//! Run with: `cargo run -p mbt-experiments --example campus_podcast --release`

use dtn_trace::generators::NusConfig;
use dtn_trace::{SimDuration, TraceStats};
use mbt_core::ProtocolSpec;
use mbt_experiments::runner::{run_simulation, SimParams};

fn main() {
    let students = 60;
    let days = 10;
    println!("generating a campus timetable trace: {students} students, {days} days");
    let trace = NusConfig::new(students, days)
        .seed(2011)
        .attendance_rate(0.85)
        .generate();
    let stats = TraceStats::compute(&trace);
    println!(
        "  {} classroom sessions, mean room size {:.1} students\n",
        trace.len(),
        stats.mean_contact_size().unwrap_or(0.0)
    );

    println!("running every registered protocol variant (30% of students have campus WiFi):");
    for protocol in ProtocolSpec::builtin() {
        let params = SimParams::builder()
            .protocol(protocol)
            .internet_fraction(0.3)
            .files_per_day(20)
            .ttl_days(3)
            .days(days)
            .seed(2011)
            .frequent_window(SimDuration::from_days(1))
            .build();
        let r = run_simulation(&trace, &params, None);
        println!(
            "  {:>10}: metadata ratio {:.3}, file ratio {:.3}  ({} queries, {} metadata bcasts, {} file bcasts)",
            protocol.name(),
            r.metadata_ratio,
            r.file_ratio,
            r.queries,
            r.metadata_broadcasts,
            r.file_broadcasts
        );
    }

    println!("\neffect of attendance (full MBT):");
    for attendance in [0.5, 0.75, 1.0] {
        let trace = NusConfig::new(students, days)
            .seed(2011)
            .attendance_rate(attendance)
            .generate();
        let params = SimParams::builder()
            .internet_fraction(0.3)
            .files_per_day(20)
            .days(days)
            .seed(2011)
            .frequent_window(SimDuration::from_days(1))
            .build();
        let r = run_simulation(&trace, &params, None);
        println!(
            "  attendance {attendance:.2}: metadata ratio {:.3}, file ratio {:.3}",
            r.metadata_ratio, r.file_ratio
        );
    }
}
