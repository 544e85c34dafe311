//! `simplify`: the paper pipeline in one process with no server. Train
//! RL4QDTS on a seeded 100-trajectory pool, simplify the whole set at a
//! 5% budget with RL4QDTS and the Fig. 8 baselines, then read the
//! RL4QDTS-simplified database with the §III-B mix and score its range
//! and kNN(EDR) answers against the original.
//!
//! The pipeline's own seeds (training pool, training, start-cube
//! sampling) are the dataset's, so every run simplifies to the same
//! database; the run seed draws the read requests. Across training seeds
//! RL4QDTS is bimodal — the insertion loop either runs its full course
//! (about 5 s here) or exhausts its sampled cubes early and fills the rest
//! of the budget deterministically (under 1 s) — and a per-run training
//! seed would make every figure of this workload follow that coin.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl4qdts::cube_agent::cube_state;
use rl4qdts::point_agent::point_state;
use rl4qdts::{PolicyVariant, Rl4Qdts, Rl4QdtsConfig, TrainStats, TrainerConfig};
use tiny_rl::{Dqn, Transition};
use traj_index::CubeIndex;
use traj_query::{
    range_workload, DbOptions, QueryDistribution, QueryEngine, QueryExecutor, QueryResult,
    RangeWorkloadSpec, TrajDb,
};
use traj_simp::rlts::{RltsPlus, RltsTrainConfig};
use traj_simp::{min_points_store, Adaptation, BottomUp, Simplifier, SpanSearch, TopDown};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{Cube, ErrorMeasure, PointStore, Simplification, TrajectoryDb};

use crate::common::{
    closed_loop, dataset, peak_rss_mb, range_knn_f1, request_pool, result_ids, timed_setups,
    CLIENTS, DATA_SEED, SETUPS,
};
use crate::trace::{with_overhead, Tracer, ROUNDS};
use crate::{Ctx, Report};

/// Kept points as a share of all points.
const BUDGET_RATIO: f64 = 0.05;

/// The Fig. 8 baselines: span name, metric name, and the method.
fn baselines(
    pool: &TrajectoryDb,
    seed: u64,
) -> Vec<(&'static str, &'static str, Box<dyn Simplifier>)> {
    let rlts = RltsPlus::train(
        ErrorMeasure::Sed,
        Adaptation::Each,
        3,
        pool,
        &RltsTrainConfig {
            episodes: 10,
            ..RltsTrainConfig::default()
        },
        seed,
    );
    vec![
        (
            "traj_simp.topdown",
            "traj_simp.topdown_s",
            Box::new(TopDown::new(ErrorMeasure::Ped, Adaptation::Whole)),
        ),
        (
            "traj_simp.bottomup",
            "traj_simp.bottomup_s",
            Box::new(BottomUp::new(ErrorMeasure::Sed, Adaptation::Each)),
        ),
        ("traj_simp.rlts", "traj_simp.rlts_s", Box::new(rlts)),
        (
            "traj_simp.spansearch",
            "traj_simp.spansearch_s",
            Box::new(SpanSearch),
        ),
    ]
}

/// Times `f` with its own clock (so untraced runs time it too) inside a
/// span.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = tr.time(name, 0, 0, f);
    (out, t0.elapsed().as_secs_f64())
}

/// What the pipeline produced and how long each stage took.
struct Pipeline {
    model: Rl4Qdts,
    stats: TrainStats,
    state_queries: Vec<Cube>,
    budget: usize,
    rl4qdts: Simplification,
    train_s: f64,
    simplify_s: f64,
    /// Per baseline: metric name, seconds, result.
    baselines: Vec<(&'static str, f64, Simplification)>,
}

fn pipeline(tr: &mut Tracer, db: &TrajectoryDb, store: &PointStore) -> Pipeline {
    let seed = DATA_SEED;
    let pool = generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(100),
        seed,
    );
    let config = Rl4QdtsConfig::scaled_to(&pool).with_delta(15);
    let spec = RangeWorkloadSpec {
        count: 60,
        spatial_extent: 1_000.0,
        temporal_extent: 2.0 * 86_400.0,
        dist: QueryDistribution::Data,
    };
    // Sized so training takes seconds: 10 databases of 50 trajectories,
    // 10 episodes each.
    let trainer = TrainerConfig {
        num_dbs: 10,
        trajs_per_db: 50,
        episodes_per_db: 10,
        ratio: 0.03,
        workload: spec,
    };
    let ((model, stats), train_s) = timed(tr, "core.train", || {
        rl4qdts::train(&pool, config, &trainer, seed)
    });

    let state_queries = range_workload(
        db,
        &RangeWorkloadSpec { count: 100, ..spec },
        &mut StdRng::seed_from_u64(seed),
    );
    let budget = (db.total_points() as f64 * BUDGET_RATIO) as usize;
    // `Rl4Qdts::simplify` step by step: index build, query assignment,
    // the insertion loop.
    let t0 = Instant::now();
    let mut engine = tr.time("traj_index.build", 0, 0, || {
        QueryEngine::over(db, model.config.engine_config())
    });
    tr.time("traj_index.assign", 0, 0, || {
        engine.assign_queries(&state_queries)
    });
    let tree = engine.cube_index().expect("rl4qdts engines are indexed");
    let rl4qdts = tr.time("core.simplify", 0, 0, || {
        model.simplify_with_index(engine.store(), budget, tree, seed, PolicyVariant::FULL)
    });
    let simplify_s = t0.elapsed().as_secs_f64();

    let baselines = baselines(&pool, seed)
        .into_iter()
        .map(|(span, metric, method)| {
            let (simp, secs) = timed(tr, span, || method.simplify_store(store, budget));
            (metric, secs, simp)
        })
        .collect();
    Pipeline {
        model,
        stats,
        state_queries,
        budget,
        rl4qdts,
        train_s,
        simplify_s,
        baselines,
    }
}

/// Every simplification keeps each trajectory's endpoints and stays
/// within the budget (or the two-endpoint floor, when that is larger).
fn check_simplification(
    r: &mut Report,
    store: &PointStore,
    budget: usize,
    name: &str,
    s: &Simplification,
) {
    let cap = budget.max(min_points_store(store));
    r.check(
        s.total_points() <= cap,
        format!(
            "{name} kept {} points, over the budget of {cap}",
            s.total_points()
        ),
    );
    let missing = store
        .views()
        .enumerate()
        .filter(|(id, v)| {
            let last = v.len().saturating_sub(1) as u32;
            let kept_ends = s.contains(*id, 0) && s.contains(*id, last);
            !v.is_empty() && !kept_ends
        })
        .count();
    r.check(
        missing == 0,
        format!("{name} dropped endpoints of {missing} trajectories"),
    );
}

pub fn run(ctx: &Ctx) -> Report {
    let ((db, store, original), setup_s) = timed_setups(SETUPS, |_| {
        let db = dataset();
        let store = db.to_store();
        let original = TrajDb::from_store(store.clone(), DbOptions::new());
        (db, store, original)
    });
    let p = pipeline(&mut Tracer::new(false), &db, &store);

    let mut r = Report::new();
    r.attempted = 2 + p.baselines.len() as u64;
    check_simplification(&mut r, &store, p.budget, "RL4QDTS", &p.rl4qdts);
    for (name, _, s) in &p.baselines {
        check_simplification(&mut r, &store, p.budget, name, s);
    }

    // Reads of the simplified database, as an embedded user sees them.
    let simplified = TrajDb::from_store(p.rl4qdts.materialize_store(&store), DbOptions::new());
    let pool = request_pool(&db, ctx.seed);
    let stats = closed_loop(
        CLIENTS,
        ctx.seconds,
        pool.len(),
        || (),
        |_, i| Ok(simplified.execute_batch(&pool[i]).len() == pool[i].len()),
    );
    r.attempted += stats.attempted;
    r.check(
        stats.mismatches == 0,
        "a read returned the wrong number of answers",
    );

    let queries: Vec<_> = pool.iter().flat_map(|b| b.queries().to_vec()).collect();
    let truth: Vec<QueryResult> = pool
        .iter()
        .flat_map(|b| original.execute_batch(b))
        .collect();
    let got: Vec<QueryResult> = pool
        .iter()
        .flat_map(|b| simplified.execute_batch(b))
        .collect();
    let (range_f1, knn_f1) = range_knn_f1(&queries, &truth, &got);

    r.metric("setup_s", setup_s);
    r.metric("rss_mb", peak_rss_mb(std::process::id()));
    stats.report_reads(&mut r, pool[0].len());
    r.metric("range_f1", range_f1);
    r.metric("knn_f1", knn_f1);
    r.extra("train_s", p.train_s, "s");
    r.extra("simplify_s", p.simplify_s, "s");
    r.extra(
        "baseline_simplify_s",
        p.baselines.iter().map(|b| b.1).sum(),
        "s",
    );
    for (name, secs, _) in &p.baselines {
        r.extra(name, *secs, "s");
    }
    r.notes.push(format!(
        "simplify: {} points to a budget of {} ({}%); {} in-process reads of {} queries, {} callers",
        store.total_points(),
        p.budget,
        BUDGET_RATIO * 100.0,
        stats.latencies.len(),
        pool[0].len(),
        CLIENTS
    ));
    r.count("simplify.kept_points", p.rl4qdts.total_points() as u64);
    for (name, _, s) in &p.baselines {
        let method = name.trim_start_matches("traj_simp.").trim_end_matches("_s");
        r.count(
            format!("simplify.kept_points.{method}"),
            s.total_points() as u64,
        );
    }
    r.count("simplify.train_episodes", p.stats.episodes as u64);
    r.count("simplify.train_insertions", p.stats.insertions as u64);
    r.count("simplify.train_transitions", p.stats.transitions as u64);
    r.count("simplify.queries", queries.len() as u64);
    r.count("simplify.result_ids", result_ids(&got));
    r
}

/// One pass of the per-decision layer calls RL4QDTS makes: Agent-Cube's
/// state, Agent-Point's state and its Q-values, at sampled start cubes.
fn decision_pass<I: CubeIndex + ?Sized>(
    tr: &mut Tracer,
    model: &Rl4Qdts,
    store: &PointStore,
    tree: &I,
    seed: u64,
) -> f64 {
    let simp = Simplification::most_simplified_store(store);
    let (_, point_agent) = model.agents();
    let mut rng = StdRng::seed_from_u64(seed);
    let started = Instant::now();
    for i in 0..2_000u64 {
        let node = tree.sample_start(model.config.start_level, &mut rng);
        std::hint::black_box(tr.time("core.cube_state", i, 0, || cube_state(tree, node)));
        let ps = tr.time("core.point_state", i, 0, || {
            point_state(store, &simp, tree, node, &model.config)
        });
        if let Some(ps) = ps {
            std::hint::black_box(
                tr.time("tiny_rl.q_values", i, 0, || point_agent.q_values(&ps.state)),
            );
        }
    }
    started.elapsed().as_secs_f64()
}

pub fn trace(ctx: &Ctx) -> Report {
    let mut r = Report::new();
    let db = dataset();
    let store = db.to_store();
    let mut tr = Tracer::new(true);
    let p = pipeline(&mut tr, &db, &store);
    r.attempted = 2 + p.baselines.len() as u64;
    check_simplification(&mut r, &store, p.budget, "RL4QDTS", &p.rl4qdts);

    r.metric("core.train_s", p.train_s);
    r.metric("core.train_episodes", p.stats.episodes as f64);
    r.metric("core.train_insertions", p.stats.insertions as f64);
    r.metric("core.train_transitions", p.stats.transitions as f64);
    r.metric("core.simplify_s", p.simplify_s);
    r.metric("core.kept_points", p.rl4qdts.total_points() as f64);
    let inserted =
        p.rl4qdts.total_points() - Simplification::most_simplified_store(&store).total_points();
    r.metric(
        "core.insertions_per_s",
        inserted as f64 / tr.total("core.simplify"),
    );
    r.metric("traj_index.assign_ms", tr.total("traj_index.assign") * 1e3);
    for (name, secs, _) in &p.baselines {
        r.metric(name, *secs);
    }
    r.metric(
        "traj_simp.baseline_simplify_s",
        p.baselines.iter().map(|b| b.1).sum(),
    );

    let mut engine = QueryEngine::over(&db, p.model.config.engine_config());
    engine.assign_queries(&p.state_queries);
    let tree = engine.cube_index().expect("rl4qdts engines are indexed");
    with_overhead(&mut r, &mut tr, "trace.overhead.simplify", ROUNDS, |t| {
        (decision_pass(t, &p.model, &store, tree, ctx.seed), ())
    });
    r.metric("core.cube_state_us", tr.mean("core.cube_state") * 1e6);
    r.metric("core.point_state_us", tr.mean("core.point_state") * 1e6);
    r.metric("tiny_rl.q_values_us", tr.mean("tiny_rl.q_values") * 1e6);

    // A DQN shaped like Agent-Point, its replay memory full.
    let cfg = p.model.config;
    let mut agent = Dqn::new(&[cfg.point_state_dim(), 25, cfg.k], cfg.dqn, ctx.seed);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    for _ in 0..cfg.dqn.replay_capacity {
        agent.remember(Transition {
            state: (0..cfg.point_state_dim())
                .map(|_| rng.gen_range(0.0..1.0))
                .collect(),
            action: rng.gen_range(0..cfg.k),
            reward: rng.gen_range(-0.5..0.5),
            next_state: None,
            next_mask: Vec::new(),
        });
    }
    for i in 0..500 {
        std::hint::black_box(tr.time("tiny_rl.train_step", i, 0, || agent.train_step()));
    }
    r.metric("tiny_rl.train_step_us", tr.mean("tiny_rl.train_step") * 1e6);
    r.count("simplify.kept_points", p.rl4qdts.total_points() as u64);
    r.count("simplify.train_episodes", p.stats.episodes as u64);
    r.count("simplify.train_insertions", p.stats.insertions as u64);
    r.count("simplify.train_transitions", p.stats.transitions as u64);
    tr.finish(&mut r, "simplify");
    r
}
