//! Error-driven trajectory simplification (EDTS) baselines.
//!
//! The paper compares RL4QDTS against every practical EDTS algorithm,
//! adapted to databases in two ways (§V-A): **E** (simplify each trajectory
//! with a proportional budget) and **W** (treat the database as one global
//! candidate pool). This crate implements all of them:
//!
//! - [`topdown`]: Top-Down — Douglas–Peucker driven by a priority queue
//!   (Hershberger & Snoeyink);
//! - [`bottomup`]: Bottom-Up — iteratively drop the cheapest point
//!   (Marteau & Ménier);
//! - [`spansearch`]: Span-Search — direction-preserving simplification via
//!   binary search over the angular tolerance (Long et al., DAD only);
//! - [`rlts`]: RLTS+ — reinforcement-learning Bottom-Up (Wang et al.),
//!   reimplemented on `tiny-rl`;
//! - [`uniform`]: uniform every-k-th-point sampling (a sanity baseline,
//!   not part of the paper's 25).
//!
//! Each algorithm is generic over the four error measures where the
//! original supports them, yielding the paper's 25 baselines
//! (3 algorithms × 4 measures × 2 adaptations + Span-Search).
//!
//! Every simplifier has one implementation per adaptation, and it runs on
//! the columnar [`PointStore`]: the loops walk zero-copy
//! [`TrajView`](trajectory::TrajView)s through
//! [`PointSeq`](trajectory::PointSeq), so no `Vec<Point>` trajectories are
//! built. A caller holding a [`TrajectoryDb`] converts it once with
//! [`TrajectoryDb::to_store`].

#![warn(missing_docs)]

pub mod adapt;
pub mod bottomup;
pub mod bounded;
pub mod heap;
pub mod onepass;
pub mod persist;
pub mod rlts;
pub mod spansearch;
pub mod streaming;
pub mod topdown;
pub mod uniform;

pub use adapt::{per_trajectory_budgets_store, Adaptation};
pub use bottomup::BottomUp;
pub use bounded::{bounded_db, bounded_one, min_eps_for_budget};
pub use onepass::OnePassSed;
pub use persist::{
    per_shard_budgets, simplify_shards, simplify_to_shard_set, simplify_to_snapshot,
    write_simplified_shard_set, write_simplified_shard_set_quantized, write_simplified_snapshot,
    write_simplified_snapshot_quantized,
};
pub use rlts::RltsPlus;
pub use spansearch::SpanSearch;
pub use streaming::{streaming_simplify, StreamingSimplifier};
pub use topdown::TopDown;
pub use uniform::Uniform;

use trajectory::{PointStore, Simplification, TrajectoryDb};

/// A database simplification algorithm: reduce a store to at most `budget`
/// total points (every trajectory always keeps its endpoints, so the
/// effective floor is `Σ min(|T|, 2)`).
///
/// `Send + Sync` is required so experiment harnesses can evaluate many
/// methods in parallel; all implementations are plain data + trained
/// (frozen) models.
pub trait Simplifier: Send + Sync {
    /// Display name as used in the paper's figures, e.g.
    /// `"Top-Down(E,PED)"`.
    fn name(&self) -> String;

    /// Produces the simplification of a columnar store. The resulting
    /// kept-index sets line up with the store's per-trajectory views, so
    /// `simp.materialize_store(store)` (a column gather) yields `D'`.
    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification;
}

/// Effective lower bound on the number of points any simplification keeps.
pub fn min_points(db: &TrajectoryDb) -> usize {
    db.trajectories().iter().map(|t| t.len().min(2)).sum()
}

/// [`min_points`] over columnar storage.
pub fn min_points_store(store: &PointStore) -> usize {
    store.views().map(|v| v.len().min(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, Trajectory};

    #[test]
    fn min_points_counts_endpoints() {
        let db = TrajectoryDb::new(vec![
            Trajectory::new(vec![Point::new(0.0, 0.0, 0.0)]).unwrap(),
            Trajectory::new(
                (0..5)
                    .map(|i| Point::new(i as f64, 0.0, i as f64))
                    .collect(),
            )
            .unwrap(),
        ]);
        assert_eq!(min_points(&db), 3);
    }
}
