//! Random-waypoint mobility trace generator.
//!
//! A generic pedestrian-mobility generator used by the ablation experiments:
//! nodes move in a square arena under the random waypoint model, and a
//! contact exists while two nodes are within radio range. Unlike the
//! structured [`dieselnet`](super::dieselnet) and [`nus`](super::nus)
//! generators this produces organic contact dynamics, including the
//! "majority of connections are short" property the paper's §V leans on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::trace::ContactTrace;

/// Radio range in meters.
const RANGE_M: f64 = 50.0;
/// Pedestrian speeds in meters/second, drawn uniformly per leg.
const MIN_SPEED_MPS: f64 = 0.5;
const MAX_SPEED_MPS: f64 = 2.0;
/// The pause at each waypoint.
const PAUSE_SECS: u64 = 60;
/// The sampling step. Contacts shorter than one step may be missed.
const STEP_SECS: u64 = 10;

/// Configuration for the random-waypoint generator.
///
/// # Example
///
/// ```
/// use dtn_trace::generators::RandomWaypointConfig;
///
/// let trace = RandomWaypointConfig::new(10, 3_600).seed(7).generate();
/// assert!(trace.iter().all(|c| c.size() == 2));
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypointConfig {
    nodes: u32,
    duration_secs: u64,
    arena_m: f64,
    seed: u64,
}

impl RandomWaypointConfig {
    /// Creates a configuration for `nodes` nodes over `duration_secs`
    /// seconds. Defaults: 1 km × 1 km arena, 50 m radio range, pedestrian
    /// speeds 0.5–2 m/s, 60 s pauses, 10 s sampling step.
    pub fn new(nodes: u32, duration_secs: u64) -> Self {
        RandomWaypointConfig {
            nodes,
            duration_secs,
            arena_m: 1_000.0,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the square arena side length in meters (default 1000).
    ///
    /// # Panics
    ///
    /// Panics if `side <= 0`.
    pub fn arena_m(mut self, side: f64) -> Self {
        assert!(side > 0.0, "arena side must be positive");
        self.arena_m = side;
        self
    }

    /// Generates the pair-wise contact trace by sampling node positions.
    pub fn generate(&self) -> ContactTrace {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4A1D_0117);
        let n = self.nodes as usize;

        #[derive(Clone)]
        struct Walker {
            x: f64,
            y: f64,
            tx: f64,
            ty: f64,
            speed: f64,
            pause_left: f64,
        }

        let mut walkers: Vec<Walker> = (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0..self.arena_m);
                let y = rng.gen_range(0.0..self.arena_m);
                Walker {
                    x,
                    y,
                    tx: rng.gen_range(0.0..self.arena_m),
                    ty: rng.gen_range(0.0..self.arena_m),
                    speed: rng.gen_range(MIN_SPEED_MPS..=MAX_SPEED_MPS),
                    pause_left: 0.0,
                }
            })
            .collect();

        // open_since[i][j] = Some(start) while pair is currently in range.
        let mut open_since: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
        let mut builder = ContactTrace::builder();
        let range_sq = RANGE_M * RANGE_M;

        let mut t = 0u64;
        while t <= self.duration_secs {
            // Close or open contacts based on current positions.
            #[allow(clippy::needless_range_loop)] // paired index access
            for i in 0..n {
                for j in (i + 1)..n {
                    let dx = walkers[i].x - walkers[j].x;
                    let dy = walkers[i].y - walkers[j].y;
                    let in_range = dx * dx + dy * dy <= range_sq;
                    match (in_range, open_since[i][j]) {
                        (true, None) => open_since[i][j] = Some(t),
                        (false, Some(start)) => {
                            push_pair(&mut builder, i, j, start, t);
                            open_since[i][j] = None;
                        }
                        _ => {}
                    }
                }
            }
            // Advance walkers.
            let dt = STEP_SECS as f64;
            for w in walkers.iter_mut() {
                if w.pause_left > 0.0 {
                    w.pause_left -= dt;
                    continue;
                }
                let dx = w.tx - w.x;
                let dy = w.ty - w.y;
                let dist = (dx * dx + dy * dy).sqrt();
                let step = w.speed * dt;
                if dist <= step {
                    w.x = w.tx;
                    w.y = w.ty;
                    w.pause_left = PAUSE_SECS as f64;
                    w.tx = rng.gen_range(0.0..self.arena_m);
                    w.ty = rng.gen_range(0.0..self.arena_m);
                    w.speed = rng.gen_range(MIN_SPEED_MPS..=MAX_SPEED_MPS);
                } else {
                    w.x += dx / dist * step;
                    w.y += dy / dist * step;
                }
            }
            t += STEP_SECS;
        }
        // Close any still-open contacts at the end of the run.
        #[allow(clippy::needless_range_loop)] // paired index access
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(start) = open_since[i][j] {
                    push_pair(&mut builder, i, j, start, self.duration_secs + STEP_SECS);
                }
            }
        }
        builder.build()
    }
}

fn push_pair(builder: &mut crate::trace::TraceBuilder, i: usize, j: usize, start: u64, end: u64) {
    if end <= start {
        return;
    }
    let contact = Contact::pairwise(
        NodeId::new(i as u32),
        NodeId::new(j as u32),
        SimTime::from_secs(start),
        SimTime::from_secs(end),
    )
    .expect("generator produces valid contacts");
    builder.push(contact);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = RandomWaypointConfig::new(8, 1_800).seed(3).generate();
        let b = RandomWaypointConfig::new(8, 1_800).seed(3).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn denser_arena_more_contacts() {
        let sparse = RandomWaypointConfig::new(10, 3_600)
            .seed(1)
            .arena_m(2_000.0)
            .generate();
        let dense = RandomWaypointConfig::new(10, 3_600)
            .seed(1)
            .arena_m(300.0)
            .generate();
        assert!(
            dense.len() > sparse.len(),
            "dense {} vs sparse {}",
            dense.len(),
            sparse.len()
        );
    }

    #[test]
    fn contacts_open_and_close_on_the_sampling_grid() {
        let t = RandomWaypointConfig::new(10, 3_600).seed(4).generate();
        assert!(!t.is_empty());
        for c in t.iter() {
            assert_eq!(c.start().as_secs() % 10, 0, "{c:?}");
            assert_eq!(c.end().as_secs() % 10, 0, "{c:?}");
        }
    }

    #[test]
    fn contacts_are_pairwise_and_in_horizon() {
        let cfg = RandomWaypointConfig::new(6, 1_200).seed(2);
        let t = cfg.generate();
        for c in t.iter() {
            assert_eq!(c.size(), 2);
            assert!(c.end().as_secs() <= 1_200 + 10);
        }
    }
}
