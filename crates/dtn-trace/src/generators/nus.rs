//! NUS-style student contact trace generator.
//!
//! The NUS student contact trace (Srinivasan et al., MobiCom'06) is itself
//! synthetic: it is *derived from campus class schedules*, under the model
//! that two students are in contact if and only if they sit in the same
//! classroom session. The MBT paper relies on two structural properties:
//!
//! - contacts are **cliques** — everyone in a classroom can receive everyone
//!   else's broadcasts, and
//! - cliques **do not overlap** — a student attends at most one session at a
//!   time, so the paper's non-interfering-clique assumption holds.
//!
//! This generator rebuilds the trace from the same construction: a weekly
//! timetable of course sessions, student enrollment, and an *attendance rate*
//! (the probability a student actually shows up to an enrolled session),
//! which is the x-axis of the paper's Fig 3(f).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime, SECONDS_PER_DAY};
use crate::trace::{ContactSink, ContactTrace};

/// How many courses each student enrolls in (at most the number of courses).
const COURSES_PER_STUDENT: u32 = 5;
/// Weekly sessions per course.
const SESSIONS_PER_COURSE_PER_WEEK: u32 = 2;
/// The length of a session: two hours.
const SESSION_SECS: u64 = 2 * 3_600;
/// Session slots on a 9:00–17:00 teaching day.
const SLOTS_PER_DAY: u32 = (8 * 3_600 / SESSION_SECS) as u32;

/// Configuration for the NUS-style campus generator.
///
/// # Example
///
/// ```
/// use dtn_trace::generators::NusConfig;
///
/// let trace = NusConfig::new(60, 14).seed(1).attendance_rate(0.9).generate();
/// // Classroom contacts are cliques of enrolled students who attended.
/// assert!(trace.iter().all(|c| c.size() >= 2));
/// ```
#[derive(Debug, Clone)]
pub struct NusConfig {
    students: u32,
    days: u64,
    attendance_rate: f64,
    weekends_off: bool,
    seed: u64,
}

impl NusConfig {
    /// Creates a configuration for `students` students over `days` days with
    /// defaults shaped like a teaching timetable: 1-in-4 student/course
    /// ratio, 5 courses per student, two 2-hour sessions per course per week,
    /// weekdays only, full attendance.
    pub fn new(students: u32, days: u64) -> Self {
        NusConfig {
            students,
            days,
            attendance_rate: 1.0,
            weekends_off: true,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0). Same seed ⇒ same timetable *and* same
    /// attendance draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the probability that an enrolled student attends a given session
    /// (default 1.0). This is the Fig 3(f) knob.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn attendance_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "attendance rate must be in [0, 1]"
        );
        self.attendance_rate = rate;
        self
    }

    /// Whether Saturday/Sunday have no sessions (default true).
    pub fn weekends_off(mut self, off: bool) -> Self {
        self.weekends_off = off;
        self
    }

    /// Generates the clique contact trace.
    ///
    /// Sessions are scheduled on a 9:00–17:00 hour grid such that no student
    /// is enrolled in two simultaneous sessions (sessions of the courses a
    /// student takes are placed in distinct slots where possible; conflicts
    /// are resolved by dropping attendance of the later course, preserving
    /// the non-overlapping-clique property).
    pub fn generate(&self) -> ContactTrace {
        let mut builder = ContactTrace::builder();
        self.generate_into(&mut builder);
        builder.build()
    }

    /// Generates the trace directly into `sink` — e.g. a
    /// [`ShardWriter`](crate::shard::ShardWriter) — without holding the full
    /// contact list in memory. The contact sequence (and RNG draw order) is
    /// identical to [`NusConfig::generate`], emitted in generation order
    /// rather than sorted order.
    ///
    /// Enumeration is roster-indexed (per-course buckets, never student ×
    /// student) and the per-day occupancy table is one flat day-stamped
    /// array allocated once, so the per-day cost is O(sessions + roster
    /// sizes) — no O(students) allocation churn per simulated day. Output
    /// is byte-identical to the fresh-table loop it replaced, which the unit
    /// tests keep as their oracle.
    pub fn generate_into<S: ContactSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0005_CAFE);
        let (roster, timetable) = self.build_schedule(&mut rng);

        // Flat (student, slot) occupancy, stamped with `day + 1`: a cell is
        // busy today iff its stamp equals today's marker, so the table never
        // needs clearing between days.
        let mut busy: Vec<u64> = vec![0; self.students as usize * SLOTS_PER_DAY as usize];
        for day in 0..self.days {
            let weekday = (day % 7) as u32;
            if self.weekends_off && weekday >= 5 {
                continue;
            }
            let marker = day + 1;
            for (course, cells) in timetable.iter().enumerate() {
                for &cell in cells {
                    let cell_day = cell / SLOTS_PER_DAY;
                    let slot = cell % SLOTS_PER_DAY;
                    if cell_day != weekday {
                        continue;
                    }
                    let start_secs = day * SECONDS_PER_DAY + 9 * 3_600 + slot as u64 * SESSION_SECS;
                    let end_secs = start_secs + SESSION_SECS;
                    let mut attendees: Vec<NodeId> = Vec::new();
                    for &student in &roster[course] {
                        if busy[student.index() * SLOTS_PER_DAY as usize + slot as usize] == marker
                        {
                            continue;
                        }
                        if self.attendance_rate >= 1.0 || rng.gen::<f64>() < self.attendance_rate {
                            attendees.push(student);
                        }
                    }
                    if attendees.len() < 2 {
                        continue;
                    }
                    for &student in &attendees {
                        busy[student.index() * SLOTS_PER_DAY as usize + slot as usize] = marker;
                    }
                    let contact = Contact::clique(
                        attendees,
                        SimTime::from_secs(start_secs),
                        SimTime::from_secs(end_secs),
                    )
                    .expect("generator produces valid cliques");
                    sink.push_contact(contact);
                }
            }
        }
    }

    /// Draws the enrollment and builds the course rosters and weekly
    /// timetable over `students / 4` courses (at least one). Shared by the
    /// streaming path and the tests' oracle so both consume the identical
    /// RNG prefix.
    fn build_schedule(&self, rng: &mut StdRng) -> (Vec<Vec<NodeId>>, Vec<Vec<u32>>) {
        let courses = (self.students / 4).max(1);
        let courses_per_student = COURSES_PER_STUDENT.min(courses);

        // Enrollment: each student picks distinct courses, weighted toward
        // low-numbered ("large intro") courses by sampling from a shuffled
        // deck with two copies of the first half.
        let mut enrollment: Vec<Vec<u32>> = Vec::with_capacity(self.students as usize);
        let mut deck: Vec<u32> = (0..courses).chain(0..courses / 2).collect();
        for _ in 0..self.students {
            deck.shuffle(rng);
            let mut picked: Vec<u32> = Vec::with_capacity(courses_per_student as usize);
            for &c in deck.iter() {
                if !picked.contains(&c) {
                    picked.push(c);
                    if picked.len() == courses_per_student as usize {
                        break;
                    }
                }
            }
            picked.sort_unstable();
            enrollment.push(picked);
        }

        // Timetable: assign each course session to a (weekday, hour-slot)
        // cell. 5 weekdays x 4 two-hour slots (9-11, 11-13, 13-15, 15-17).
        let weekdays: u32 = if self.weekends_off { 5 } else { 7 };
        let total_cells = weekdays * SLOTS_PER_DAY;
        let mut timetable: Vec<Vec<u32>> = Vec::with_capacity(courses as usize);
        let mut next_cell = 0u32;
        for _ in 0..courses {
            let mut cells = Vec::with_capacity(SESSIONS_PER_COURSE_PER_WEEK as usize);
            for _ in 0..SESSIONS_PER_COURSE_PER_WEEK {
                cells.push(next_cell % total_cells);
                // A large odd stride spreads a course's sessions across the week
                // and staggers different courses.
                next_cell = next_cell.wrapping_add(7);
            }
            timetable.push(cells);
        }

        // Roster per course.
        let mut roster: Vec<Vec<NodeId>> = vec![Vec::new(); courses as usize];
        for (student, courses) in enrollment.iter().enumerate() {
            for &c in courses {
                roster[c as usize].push(NodeId::new(student as u32));
            }
        }
        (roster, timetable)
    }

    /// The paper's frequent-contact window for this trace: one day.
    pub fn frequent_contact_window(&self) -> SimDuration {
        crate::stats::NUS_FREQUENT_EVERY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl NusConfig {
        /// The original emission loop with a fresh per-day `Vec<Vec<bool>>`
        /// occupancy table, the equivalence oracle for the stamped flat table in
        /// [`NusConfig::generate_into`].
        fn generate_into_all_pairs<S: ContactSink + ?Sized>(&self, sink: &mut S) {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0005_CAFE);
            let (roster, timetable) = self.build_schedule(&mut rng);

            for day in 0..self.days {
                let weekday = (day % 7) as u32;
                if self.weekends_off && weekday >= 5 {
                    continue;
                }
                // Track which slot each student already occupies today so
                // overlapping enrollments never produce overlapping cliques.
                let mut busy: Vec<Vec<bool>> =
                    vec![vec![false; SLOTS_PER_DAY as usize]; self.students as usize];
                for (course, cells) in timetable.iter().enumerate() {
                    for &cell in cells {
                        let cell_day = cell / SLOTS_PER_DAY;
                        let slot = cell % SLOTS_PER_DAY;
                        if cell_day != weekday {
                            continue;
                        }
                        let start_secs =
                            day * SECONDS_PER_DAY + 9 * 3_600 + slot as u64 * SESSION_SECS;
                        let end_secs = start_secs + SESSION_SECS;
                        let mut attendees: Vec<NodeId> = Vec::new();
                        for &student in &roster[course] {
                            if busy[student.index()][slot as usize] {
                                continue;
                            }
                            if self.attendance_rate >= 1.0
                                || rng.gen::<f64>() < self.attendance_rate
                            {
                                attendees.push(student);
                            }
                        }
                        if attendees.len() < 2 {
                            continue;
                        }
                        for &student in &attendees {
                            busy[student.index()][slot as usize] = true;
                        }
                        let contact = Contact::clique(
                            attendees,
                            SimTime::from_secs(start_secs),
                            SimTime::from_secs(end_secs),
                        )
                        .expect("generator produces valid cliques");
                        sink.push_contact(contact);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = NusConfig::new(40, 7).seed(5).generate();
        let b = NusConfig::new(40, 7).seed(5).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn generate_into_builder_matches_generate() {
        let cfg = NusConfig::new(40, 7).seed(5).attendance_rate(0.8);
        let mut builder = ContactTrace::builder();
        cfg.generate_into(&mut builder);
        assert_eq!(builder.build(), cfg.generate());
    }

    #[test]
    fn stamped_occupancy_matches_all_pairs_oracle() {
        for attendance in [1.0, 0.8, 0.3] {
            for weekends in [true, false] {
                let cfg = NusConfig::new(45, 10)
                    .seed(23)
                    .attendance_rate(attendance)
                    .weekends_off(weekends);
                let mut streamed = ContactTrace::builder();
                cfg.generate_into(&mut streamed);
                let mut oracle = ContactTrace::builder();
                cfg.generate_into_all_pairs(&mut oracle);
                assert_eq!(
                    streamed.build(),
                    oracle.build(),
                    "attendance={attendance} weekends_off={weekends}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn nus_streaming_path_equals_oracle(
            students in 2u32..=256, days in 1u64..8, seed in 0u64..1_000,
            attendance in 0.2f64..1.0
        ) {
            let cfg = NusConfig::new(students, days).seed(seed).attendance_rate(attendance);
            let mut streamed = ContactTrace::builder();
            cfg.generate_into(&mut streamed);
            let mut oracle = ContactTrace::builder();
            cfg.generate_into_all_pairs(&mut oracle);
            prop_assert_eq!(streamed.build(), oracle.build());
        }
    }

    #[test]
    fn fewer_than_four_students_share_one_course() {
        // A course for every four students, at least one: three students all
        // take it, and it meets twice a week for two hours.
        let t = NusConfig::new(3, 7).seed(1).generate();
        assert_eq!(t.len(), 2);
        for c in t.iter() {
            assert_eq!(c.size(), 3);
            assert_eq!(c.duration(), SimDuration::from_hours(2));
        }
    }

    #[test]
    fn produces_cliques() {
        let t = NusConfig::new(60, 7).seed(1).generate();
        assert!(!t.is_empty());
        assert!(t.iter().any(|c| c.size() > 2), "expected classroom cliques");
    }

    #[test]
    fn cliques_never_overlap_per_student() {
        let t = NusConfig::new(80, 14).seed(2).generate();
        // For every pair of simultaneous contacts, participant sets are disjoint.
        let mut by_start: HashMap<u64, Vec<&Contact>> = HashMap::new();
        for c in t.iter() {
            by_start.entry(c.start().as_secs()).or_default().push(c);
        }
        for group in by_start.values() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    for p in a.participants() {
                        assert!(!b.involves(*p), "student {p} in two simultaneous cliques");
                    }
                }
            }
        }
    }

    #[test]
    fn weekends_have_no_contacts() {
        let t = NusConfig::new(40, 14).seed(3).generate();
        for c in t.iter() {
            let weekday = c.start().day() % 7;
            assert!(weekday < 5, "contact on weekend day {weekday}");
        }
    }

    #[test]
    fn weekends_on_when_requested() {
        let t = NusConfig::new(40, 14)
            .seed(3)
            .weekends_off(false)
            .generate();
        let has_weekend = t.iter().any(|c| c.start().day() % 7 >= 5);
        assert!(has_weekend);
    }

    #[test]
    fn sessions_within_teaching_hours() {
        let t = NusConfig::new(40, 7).seed(4).generate();
        for c in t.iter() {
            let sod = c.start().second_of_day();
            assert!((9 * 3600..17 * 3600).contains(&sod));
        }
    }

    #[test]
    fn zero_attendance_yields_empty_trace() {
        let t = NusConfig::new(40, 7)
            .seed(5)
            .attendance_rate(0.0)
            .generate();
        assert!(t.is_empty());
    }

    #[test]
    fn lower_attendance_means_smaller_cliques() {
        let full = NusConfig::new(100, 7)
            .seed(6)
            .attendance_rate(1.0)
            .generate();
        let half = NusConfig::new(100, 7)
            .seed(6)
            .attendance_rate(0.5)
            .generate();
        let mean = |t: &ContactTrace| {
            t.iter().map(|c| c.size()).sum::<usize>() as f64 / t.len().max(1) as f64
        };
        assert!(mean(&half) < mean(&full));
    }

    #[test]
    fn students_meet_classmates_daily_ish() {
        let cfg = NusConfig::new(60, 14).seed(7);
        let t = cfg.generate();
        // With 5 courses x 2 sessions/week each, most students have some
        // recurring classmate; just require the mechanism produces contacts
        // on most weekdays.
        let days_with_contacts: std::collections::HashSet<u64> =
            t.iter().map(|c| c.start().day()).collect();
        assert!(days_with_contacts.len() >= 8, "got {days_with_contacts:?}");
        assert!(t.len() > 50);
    }

    #[test]
    #[should_panic(expected = "attendance rate")]
    fn rejects_bad_attendance() {
        let _ = NusConfig::new(10, 1).attendance_rate(1.5);
    }
}
