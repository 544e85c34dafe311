//! Similarity queries (§III-B, after Chen & Patel's trajectory join).
//!
//! Given a query trajectory `Tq`, a time window `[ts, te]`, and a distance
//! threshold δ, return every trajectory that stays within δ of `Tq` at
//! *every* instant of the window. Positions between samples are
//! synchronized by linear interpolation — the definition quantifies over
//! all times `i` in the window, so (unlike the point-based range query)
//! this query interpolates on both databases.

use trajectory::{AsColumns, PointSeq, TrajId, Trajectory, TrajectoryDb};

/// Most regular-grid check times one similarity check evaluates, so a
/// hostile `step` cannot make one query allocate without bound.
const MAX_GRID: usize = 1 << 16;

/// A similarity query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityQuery {
    /// The query trajectory.
    pub query: Trajectory,
    /// Window start.
    pub ts: f64,
    /// Window end.
    pub te: f64,
    /// Distance threshold δ (paper: 5 km).
    pub delta: f64,
    /// Synchronization time step for checking the "for all i" condition
    /// (seconds). The check also evaluates both trajectories' own sample
    /// times inside the window, so no sampled deviation is missed. A step
    /// finer than 1/65536 of the window is coarsened to that.
    pub step: f64,
}

impl SimilarityQuery {
    /// Executes the query, returning matching ids ascending.
    pub fn execute(&self, db: &TrajectoryDb) -> Vec<TrajId> {
        db.iter()
            .filter(|(_, t)| self.matches(t))
            .map(|(id, _)| id)
            .collect()
    }

    /// [`SimilarityQuery::execute`] over columnar storage (anything
    /// [`AsColumns`]) — candidates are zero-copy views, the checking logic
    /// is shared.
    pub fn execute_store<S: AsColumns + ?Sized>(&self, store: &S) -> Vec<TrajId> {
        store
            .iter()
            .filter(|(_, v)| self.matches_seq(v))
            .map(|(id, _)| id)
            .collect()
    }

    /// True when `t` stays within δ of the query over the whole window.
    pub fn matches(&self, t: &Trajectory) -> bool {
        self.matches_seq(t)
    }

    /// Layout-agnostic core of [`SimilarityQuery::matches`]: `t` may be an
    /// AoS [`Trajectory`] or a zero-copy column view.
    ///
    /// A trajectory that does not overlap the window temporally cannot
    /// testify about it and is rejected; the window is first clipped to the
    /// *query* trajectory's own span (the query cannot demand testimony
    /// about times it does not cover itself).
    pub fn matches_seq<S: PointSeq + ?Sized>(&self, t: &S) -> bool {
        let (q0, q1) = self.query.seq_time_span();
        let ts = self.ts.max(q0);
        let te = self.te.min(q1);
        if ts > te {
            // Window misses the query trajectory entirely: vacuous truth
            // would make every trajectory match; reject instead.
            return false;
        }
        let (t0, t1) = t.seq_time_span();
        if t1 < ts || t0 > te {
            return false;
        }

        // Check at a regular grid plus both trajectories' sample times.
        // The grid is capped at MAX_GRID points: the step is floored so
        // the window needs no more, and the count bound ends the loop
        // even where `t_cursor += step` no longer advances.
        let step = if self.step > 0.0 {
            self.step.max((te - ts) / MAX_GRID as f64)
        } else {
            (te - ts).max(1.0) / 16.0
        };
        let mut check_times: Vec<f64> = Vec::new();
        let mut t_cursor = ts;
        while t_cursor < te && check_times.len() < MAX_GRID {
            check_times.push(t_cursor);
            t_cursor += step;
        }
        check_times.push(te);
        if let Some((lo, hi)) = self.query.seq_window_indices(ts, te) {
            check_times.extend((lo..=hi).map(|i| self.query.point_at(i).t));
        }
        if let Some((lo, hi)) = t.seq_window_indices(ts, te) {
            check_times.extend((lo..=hi).map(|i| t.point_at(i).t));
        }
        check_times.iter().all(|&time| {
            let qp = self.query.seq_position_at(time);
            let tp = t.seq_position_at(time);
            qp.spatial_distance(&tp) <= self.delta
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::Point;

    fn line(y: f64, t0: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| Point::new(i as f64 * 10.0, y, t0 + i as f64))
                .collect(),
        )
        .unwrap()
    }

    fn query(delta: f64) -> SimilarityQuery {
        SimilarityQuery {
            query: line(0.0, 0.0, 10),
            ts: 0.0,
            te: 9.0,
            delta,
            step: 0.5,
        }
    }

    #[test]
    fn close_parallel_trajectory_matches() {
        let db = TrajectoryDb::new(vec![line(3.0, 0.0, 10)]);
        assert_eq!(query(5.0).execute(&db), vec![0]);
    }

    #[test]
    fn distant_trajectory_does_not_match() {
        let db = TrajectoryDb::new(vec![line(100.0, 0.0, 10)]);
        assert!(query(5.0).execute(&db).is_empty());
    }

    #[test]
    fn must_hold_at_every_instant() {
        // Starts close, then diverges mid-window: must NOT match.
        let diverging = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(40.0, 0.0, 4.0),
            Point::new(50.0, 500.0, 5.0),
            Point::new(90.0, 0.0, 9.0),
        ])
        .unwrap();
        let db = TrajectoryDb::new(vec![diverging]);
        assert!(query(5.0).execute(&db).is_empty());
    }

    #[test]
    fn interpolated_excursions_are_caught() {
        // The excursion happens *between* the grid instants: sample times
        // of the candidate itself must be checked too.
        let spike = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(42.0, 300.0, 4.2),
            Point::new(90.0, 0.0, 9.0),
        ])
        .unwrap();
        let db = TrajectoryDb::new(vec![spike]);
        let mut q = query(50.0);
        q.step = 9.0; // coarse grid that would miss t=4.2
        assert!(q.execute(&db).is_empty());
    }

    #[test]
    fn temporally_disjoint_trajectory_is_rejected() {
        let db = TrajectoryDb::new(vec![line(0.0, 1_000.0, 10)]);
        assert!(query(5.0).execute(&db).is_empty());
    }

    #[test]
    fn window_outside_query_span_matches_nothing() {
        let db = TrajectoryDb::new(vec![line(0.0, 0.0, 10)]);
        let q = SimilarityQuery {
            query: line(0.0, 0.0, 10),
            ts: 100.0,
            te: 200.0,
            delta: 5.0,
            step: 1.0,
        };
        assert!(q.execute(&db).is_empty());
    }

    #[test]
    fn query_matches_itself() {
        let db = TrajectoryDb::new(vec![line(0.0, 0.0, 10)]);
        assert_eq!(query(0.1).execute(&db), vec![0]);
    }

    #[test]
    fn nanosecond_step_over_an_hour_is_capped() {
        let hour = |y: f64| {
            Trajectory::new(
                (0..=60)
                    .map(|i| Point::new(i as f64 * 100.0, y, i as f64 * 60.0))
                    .collect(),
            )
            .unwrap()
        };
        let db = TrajectoryDb::new(vec![hour(3.0), hour(100.0)]);
        let mut q = SimilarityQuery {
            query: hour(0.0),
            ts: 0.0,
            te: 3_600.0,
            delta: 5.0,
            step: 1e-9,
        };
        let capped = q.execute(&db);
        assert_eq!(capped, vec![0]);
        q.step = 3_600.0 / MAX_GRID as f64;
        assert_eq!(q.execute(&db), capped);
    }

    #[test]
    fn grid_ends_where_the_cursor_cannot_advance() {
        // At t = 1e15 one ulp is 0.125 s, so the floored step (1 s over
        // 65536 points) no longer moves the cursor; the count cap ends
        // the loop.
        let t0 = 1e15;
        let near = |y: f64| {
            Trajectory::new(vec![Point::new(0.0, y, t0), Point::new(10.0, y, t0 + 1.0)]).unwrap()
        };
        let db = TrajectoryDb::new(vec![near(3.0)]);
        let q = SimilarityQuery {
            query: near(0.0),
            ts: t0,
            te: t0 + 1.0,
            delta: 5.0,
            step: 1e-9,
        };
        assert_eq!(q.execute(&db), vec![0]);
    }

    #[test]
    fn execute_store_matches_aos_execute() {
        let db = TrajectoryDb::new(vec![
            line(3.0, 0.0, 10),
            line(100.0, 0.0, 10),
            line(0.0, 1_000.0, 10),
        ]);
        let store = db.to_store();
        for delta in [0.1, 5.0, 500.0] {
            let q = query(delta);
            assert_eq!(q.execute(&db), q.execute_store(&store), "delta {delta}");
        }
    }
}
