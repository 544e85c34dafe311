//! Uniform sampling: keep every k-th point. Not one of the paper's 25
//! baselines, but a useful floor for sanity checks and examples — any
//! error-aware method should beat it.

use crate::adapt::per_trajectory_budgets_store;
use crate::Simplifier;
use trajectory::{PointStore, Simplification};

/// The uniform-sampling baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Simplifier for Uniform {
    fn name(&self) -> String {
        "Uniform".to_string()
    }

    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        let budgets = per_trajectory_budgets_store(store, budget);
        let kept = store
            .views()
            .enumerate()
            .map(|(id, v)| uniform_indices(v.len(), budgets[id]))
            .collect();
        Simplification::from_kept_store(store, kept)
    }
}

/// Evenly spaced `budget` indices over `[0, n-1]` for a trajectory of
/// `n` points, endpoints included.
pub fn uniform_indices(n: usize, budget: usize) -> Vec<u32> {
    if n <= 2 || budget >= n {
        return (0..n as u32).collect();
    }
    let budget = budget.max(2);
    let mut kept: Vec<u32> = (0..budget)
        .map(|i| ((i as f64) * (n - 1) as f64 / (budget - 1) as f64).round() as u32)
        .collect();
    kept.dedup();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, Trajectory, TrajectoryDb};

    fn traj(n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| Point::new(i as f64, 0.0, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn spacing_is_even() {
        assert_eq!(uniform_indices(11, 3), vec![0, 5, 10]);
    }

    #[test]
    fn budget_of_two_keeps_endpoints() {
        assert_eq!(uniform_indices(50, 2), vec![0, 49]);
    }

    #[test]
    fn oversized_budget_keeps_everything() {
        assert_eq!(uniform_indices(5, 100).len(), 5);
    }

    #[test]
    fn database_level_budget_is_respected() {
        let store = TrajectoryDb::new(vec![traj(100), traj(50)]).to_store();
        let simp = Uniform.simplify_store(&store, 15);
        assert!(simp.total_points() <= 15);
    }
}
