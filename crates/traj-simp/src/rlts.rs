//! RLTS+ (Wang, Long, Cong — ICDE 2021): reinforcement-learning
//! trajectory simplification. Adopts the Bottom-Up strategy but lets a
//! learned DQN policy choose which of the `K` cheapest candidate points to
//! drop, instead of always dropping the cheapest.
//!
//! MDP (following the published design): the state holds the drop costs of
//! the `K` current cheapest candidates (ascending, whitened); the action
//! picks one of them; the reward is the negative increase of the running
//! maximum error, which telescopes to the negative final trajectory error —
//! the EDTS objective. Training is per-trajectory (RLTS+ is a
//! trajectory-level technique); the E/W adaptations only change how the
//! trained policy is *applied* to a database.

use crate::adapt::{per_trajectory_budgets_store, Adaptation};
use crate::heap::LazyHeap;
use crate::Simplifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_rl::{Dqn, DqnConfig, Transition};
use trajectory::{ErrorMeasure, PointSeq, PointStore, Simplification, TrajId, TrajectoryDb};

/// The RLTS+ baseline.
#[derive(Debug, Clone)]
pub struct RltsPlus {
    /// Error measure the policy was trained to minimize.
    pub measure: ErrorMeasure,
    /// Database adaptation ("E" or "W").
    pub adaptation: Adaptation,
    /// Number of cheapest candidates the policy chooses among.
    pub k: usize,
    agent: Dqn,
}

/// Training options for RLTS+.
#[derive(Debug, Clone, Copy)]
pub struct RltsTrainConfig {
    /// Number of training episodes (one trajectory each).
    pub episodes: usize,
    /// Compression ratio used during training episodes.
    pub ratio: f64,
    /// DQN hyperparameters.
    pub dqn: DqnConfig,
}

impl Default for RltsTrainConfig {
    fn default() -> Self {
        Self {
            episodes: 60,
            ratio: 0.1,
            dqn: DqnConfig::default(),
        }
    }
}

impl RltsPlus {
    /// Trains an RLTS+ policy on trajectories sampled from `train_db`.
    pub fn train(
        measure: ErrorMeasure,
        adaptation: Adaptation,
        k: usize,
        train_db: &TrajectoryDb,
        config: &RltsTrainConfig,
        seed: u64,
    ) -> Self {
        assert!(k >= 1);
        let mut agent = Dqn::new(&[k, 25, k], config.dqn, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        for _ in 0..config.episodes {
            if train_db.is_empty() {
                break;
            }
            let id = rng.gen_range(0..train_db.len());
            let traj = train_db.get(id);
            if traj.len() < 4 {
                continue;
            }
            let budget = ((traj.len() as f64 * config.ratio) as usize).max(2);
            run_policy_drop(&[traj], budget, measure, k, &mut agent, true);
        }
        agent.freeze();
        Self {
            measure,
            adaptation,
            k,
            agent,
        }
    }

    /// Wraps an already-trained agent (deserialization).
    pub fn from_agent(measure: ErrorMeasure, adaptation: Adaptation, k: usize, agent: Dqn) -> Self {
        Self {
            measure,
            adaptation,
            k,
            agent,
        }
    }

    /// Re-targets the trained policy at the other adaptation without
    /// retraining (the policy itself is trajectory-level).
    pub fn with_adaptation(&self, adaptation: Adaptation) -> Self {
        let mut c = self.clone();
        c.adaptation = adaptation;
        c
    }
}

impl Simplifier for RltsPlus {
    fn name(&self) -> String {
        format!("RLTS+({},{})", self.adaptation, self.measure)
    }

    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        // The trained agent is cloned so inference stays `&self` and
        // repeated calls are independent and deterministic.
        let mut agent = self.agent.clone();
        agent.freeze();
        let (measure, k) = (self.measure, self.k);
        let kept = match self.adaptation {
            Adaptation::Each => {
                let budgets = per_trajectory_budgets_store(store, budget);
                store
                    .views()
                    .zip(budgets)
                    .map(|(v, b)| {
                        let mut kept = run_policy_drop(&[v], b, measure, k, &mut agent, false);
                        kept.pop().expect("one trajectory in, one kept list out")
                    })
                    .collect()
            }
            Adaptation::Whole => {
                let views: Vec<_> = store.views().collect();
                let budget = budget.max(crate::min_points_store(store));
                run_policy_drop(&views, budget, measure, k, &mut agent, false)
            }
        };
        Simplification::from_kept_store(store, kept)
    }
}

/// The shared Bottom-Up-with-a-policy loop over the trajectories `seqs`
/// (one for a per-trajectory run, all of them for "W"); returns the kept
/// indices of each. With `learn = true` it explores ε-greedily, stores
/// transitions, and trains the agent; otherwise it acts greedily.
fn run_policy_drop<S: PointSeq>(
    seqs: &[S],
    budget: usize,
    measure: ErrorMeasure,
    k: usize,
    agent: &mut Dqn,
    learn: bool,
) -> Vec<Vec<u32>> {
    // Kept points form one doubly-linked list per trajectory: `prev` and
    // `next` hold the kept neighbours of every still-kept index.
    let lens: Vec<u32> = seqs.iter().map(|s| s.n_points() as u32).collect();
    let mut prev: Vec<Vec<u32>> = lens
        .iter()
        .map(|&n| (0..n).map(|i| i.wrapping_sub(1)).collect())
        .collect();
    let mut next: Vec<Vec<u32>> = lens.iter().map(|&n| (1..=n).collect()).collect();
    let mut kept: Vec<Vec<bool>> = lens.iter().map(|&n| vec![true; n as usize]).collect();
    let mut versions: Vec<Vec<u64>> = lens.iter().map(|&n| vec![0; n as usize]).collect();
    // Drop cost of kept interior point `idx`: the Eq. 1 error of the
    // merged anchor.
    let drop_cost = |prev: &[u32], next: &[u32], id: TrajId, idx: u32| {
        let i = idx as usize;
        measure.segment_error_seq(&seqs[id], prev[i] as usize, next[i] as usize)
    };
    let mut heap: LazyHeap<(TrajId, u32)> = LazyHeap::new();
    for (id, &n) in lens.iter().enumerate() {
        for idx in 1..n.saturating_sub(1) {
            heap.push(-drop_cost(&prev[id], &next[id], id, idx), 0, (id, idx));
        }
    }

    let mut total: usize = lens.iter().map(|&n| n as usize).sum();
    let mut running_err = 0.0f64;
    // Pending (state, action) waiting for the next state to complete a
    // transition.
    let mut pending: Option<(Vec<f64>, usize, f64)> = None;

    while total > budget {
        // Pop up to K currently-valid cheapest candidates.
        let mut candidates: Vec<(f64, (TrajId, u32))> = Vec::with_capacity(k);
        while candidates.len() < k {
            let popped = heap.pop_current(|&(id, idx), v| {
                versions[id][idx as usize] == v && kept[id][idx as usize]
            });
            match popped {
                Some((neg_cost, payload)) => candidates.push((-neg_cost, payload)),
                None => break,
            }
        }
        if candidates.is_empty() {
            break;
        }
        // State: the K costs ascending, padded with the worst cost.
        let pad = candidates.last().expect("non-empty").0;
        let mut raw_state: Vec<f64> = candidates.iter().map(|(c, _)| *c).collect();
        raw_state.resize(k, pad);
        let state = agent.whiten(&raw_state, learn);
        let mut mask = vec![false; k];
        for m in mask.iter_mut().take(candidates.len()) {
            *m = true;
        }

        // Close the pending transition now that its successor is known.
        if learn {
            if let Some((ps, pa, pr)) = pending.take() {
                agent.remember(Transition {
                    state: ps,
                    action: pa,
                    reward: pr,
                    next_state: Some(state.clone()),
                    next_mask: mask.clone(),
                });
                agent.train_step();
            }
        }

        let action = if learn {
            agent.select_action(&state, &mask)
        } else {
            agent.greedy_action(&state, &mask)
        };
        let (cost, (id, idx)) = candidates[action.min(candidates.len() - 1)];

        // Push back the unchosen candidates (still valid, same versions).
        for (i, &(c, payload)) in candidates.iter().enumerate() {
            if i != action.min(candidates.len() - 1) {
                heap.push(-c, versions[payload.0][payload.1 as usize], payload);
            }
        }

        let i = idx as usize;
        let (l, r) = (prev[id][i], next[id][i]);
        kept[id][i] = false;
        next[id][l as usize] = r;
        prev[id][r as usize] = l;
        total -= 1;
        // The bracketing neighbours' drop costs changed: re-push with
        // fresh stamps (endpoints are never dropped, so they never enter).
        for nb in [l, r] {
            if nb != 0 && nb != lens[id] - 1 {
                versions[id][nb as usize] += 1;
                let c = drop_cost(&prev[id], &next[id], id, nb);
                heap.push(-c, versions[id][nb as usize], (id, nb));
            }
        }

        if learn {
            // Reward: negative increase of the running max error.
            let new_err = running_err.max(cost);
            let reward = running_err - new_err;
            running_err = new_err;
            pending = Some((state, action, reward));
        }
    }

    // Terminal transition.
    if learn {
        if let Some((ps, pa, pr)) = pending.take() {
            agent.remember(Transition {
                state: ps,
                action: pa,
                reward: pr,
                next_state: None,
                next_mask: vec![],
            });
            agent.train_step();
        }
    }
    kept.iter()
        .map(|k| (0..k.len() as u32).filter(|&i| k[i as usize]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::{Point, Trajectory};

    fn train_db() -> TrajectoryDb {
        generate(&DatasetSpec::geolife(Scale::Smoke), 11)
    }

    fn trained() -> RltsPlus {
        let cfg = RltsTrainConfig {
            episodes: 10,
            ..RltsTrainConfig::default()
        };
        RltsPlus::train(
            ErrorMeasure::Sed,
            Adaptation::Each,
            3,
            &train_db(),
            &cfg,
            42,
        )
    }

    #[test]
    fn respects_budget_each() {
        let rlts = trained();
        let store = train_db().to_store();
        let budget = store.total_points() / 10;
        let simp = rlts.simplify_store(&store, budget);
        assert!(simp.total_points() <= budget.max(crate::min_points_store(&store)));
        for (id, v) in store.views().enumerate() {
            assert_eq!(simp.kept(id)[0], 0);
            assert_eq!(*simp.kept(id).last().unwrap(), v.len() as u32 - 1);
        }
    }

    #[test]
    fn respects_budget_whole() {
        let rlts = trained().with_adaptation(Adaptation::Whole);
        let store = train_db().to_store();
        let budget = store.total_points() / 8;
        let simp = rlts.simplify_store(&store, budget);
        assert!(simp.total_points() <= budget.max(crate::min_points_store(&store)));
    }

    #[test]
    fn inference_is_deterministic() {
        let rlts = trained();
        let store = train_db().to_store();
        let a = rlts.simplify_store(&store, store.total_points() / 10);
        let b = rlts.simplify_store(&store, store.total_points() / 10);
        assert_eq!(a, b);
    }

    #[test]
    fn error_is_in_bottomup_ballpark() {
        // The learned policy chooses among the K cheapest drops, so its
        // error can't be catastrophically worse than plain Bottom-Up.
        let rlts = trained();
        let t = Trajectory::new(
            (0..100)
                .map(|i| {
                    let y = if i % 7 == 0 { 50.0 } else { (i % 3) as f64 };
                    Point::new(i as f64 * 10.0, y, i as f64)
                })
                .collect(),
        )
        .unwrap();
        let store = TrajectoryDb::new(vec![t.clone()]).to_store();
        let simp = rlts.simplify_store(&store, 20);
        let e_rl = ErrorMeasure::Sed.trajectory_error(&t, simp.kept(0));
        let bu = crate::bottomup::bottomup_one(&t, 20, ErrorMeasure::Sed);
        let e_bu = ErrorMeasure::Sed.trajectory_error(&t, &bu);
        assert!(e_rl <= 5.0 * e_bu + 1.0, "rlts {e_rl} vs bottom-up {e_bu}");
    }

    #[test]
    fn name_matches_paper_convention() {
        assert_eq!(trained().name(), "RLTS+(E,SED)");
        assert_eq!(
            trained().with_adaptation(Adaptation::Whole).name(),
            "RLTS+(W,SED)"
        );
    }
}
