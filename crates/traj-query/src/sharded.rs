//! Fan-out query execution over a sharded database.
//!
//! A [`ShardedQueryEngine`] holds one [`QueryEngine`] per shard (each over
//! its own columns — heap-owned or mmap-backed — with its own index, all
//! built **in parallel** via [`par_map`]) plus the shard-local → global
//! trajectory id maps and per-shard bounding cubes. Every query runs as
//! one fan-out: each shard the shared pruning rule
//! ([`QueryRef::touches_bounds`]) cannot rule out produces its part of the
//! answer, the part is mapped to global ids, and the parts go through
//! the one merge every multi-part executor uses ([`merge_parts`], see
//! [`merge`](crate::merge)). That makes every query return
//! **byte-identical answers** to a single-store [`QueryEngine`] over the
//! unsharded database:
//!
//! - **range**: shards whose bounds miss the query cube are pruned;
//!   local hits map to global ids and merge sorted.
//! - **kNN**: each contributing shard produces its best `k`
//!   finite-distance candidates; the merge's global k-heap takes the
//!   best `k` by `(distance, global id)` and applies the single-store
//!   infinite-fill policy once, globally.
//! - **similarity**: only the time axis prunes (interpolation makes
//!   spatial pruning unsound, exactly as in the single-store engine).
//! - [`MaintainedWorkload`]: per-shard candidate generation, then a
//!   global merge.
//!
//! The equality is property-tested in `tests/sharded_props.rs` across all
//! partitioners and index backends, including mmap-backed shards.

use std::collections::HashMap;

use trajectory::shard::{partition, OpenShard, PartitionStrategy, Shard};
use trajectory::{
    AsColumns, Cube, KeptBitmap, MappedStore, PointStore, Simplification, StoreRef, TrajId,
};

use crate::db::QueryResult;
use crate::engine::{build_backend, EngineConfig, MaintainedWorkload, QueryEngine};
use crate::knn::KnnQuery;
use crate::merge::{combine_parts, merge_parts, QueryRef, ShardResult};
use crate::parallel::{par_map, par_map_indexed};
use crate::similarity::SimilarityQuery;

/// One shard as the router sees it: its engine (which carries the shard
/// snapshot's kept bitmap, when one was persisted), its id translation,
/// and its bounds.
struct ShardHandle<'a> {
    engine: QueryEngine<'a>,
    /// `global_ids[local]` = global trajectory id; strictly ascending, so
    /// shard-local result order is global order.
    global_ids: Vec<TrajId>,
    /// Smallest cube covering the shard's points — what range routing and
    /// kNN time pruning test against.
    bounds: Cube,
}

/// A query engine over a sharded database: per-shard indexes built in
/// parallel, queries fanned out to the shards whose bounds can
/// contribute, results merged to match the single-store [`QueryEngine`]
/// exactly. See the [module docs](self) for the routing/merge rules.
pub struct ShardedQueryEngine<'a> {
    shards: Vec<ShardHandle<'a>>,
    total_trajs: usize,
    config: EngineConfig,
}

impl ShardedQueryEngine<'static> {
    /// Partitions `store` with `strategy` and builds one engine per shard
    /// (index builds run in parallel). The convenience constructor for
    /// "shard this database now"; use [`ShardedQueryEngine::from_shards`]
    /// when the partition is reused.
    #[must_use]
    pub fn from_partition(
        store: &PointStore,
        strategy: &PartitionStrategy,
        config: EngineConfig,
    ) -> Self {
        Self::from_shards(partition(store, strategy), config)
    }

    /// Builds the fan-out engine over already-partitioned shards,
    /// consuming their stores. All shard index builds run in parallel via
    /// [`par_map`], then each store moves into its engine — no column is
    /// copied.
    #[must_use]
    pub fn from_shards(shards: Vec<Shard>, config: EngineConfig) -> Self {
        Self::build(
            shards
                .into_iter()
                .map(|sh| (StoreRef::Owned(sh.store), sh.global_ids, None))
                .collect(),
            config,
        )
    }

    /// Builds the fan-out engine over shards reopened from a
    /// [`ShardSet`](trajectory::ShardSet) as owned stores
    /// (`open_owned`). Kept bitmaps carried by the shard snapshots are
    /// retained for [`ShardedQueryEngine::range_kept`].
    #[must_use]
    pub fn from_open_shards(shards: Vec<OpenShard<PointStore>>, config: EngineConfig) -> Self {
        Self::build(
            shards
                .into_iter()
                .map(|sh| (StoreRef::Owned(sh.store), sh.global_ids, sh.kept))
                .collect(),
            config,
        )
    }

    /// Builds the fan-out engine over mmap-backed shards (`open_mapped`):
    /// per-shard index builds walk the mapped columns in parallel and
    /// queries execute with zero deserialization, exactly as
    /// [`QueryEngine::from_mapped`] does for a single store.
    #[must_use]
    pub fn from_mapped_shards(shards: Vec<OpenShard<MappedStore>>, config: EngineConfig) -> Self {
        Self::build(
            shards
                .into_iter()
                .map(|sh| (StoreRef::Mapped(sh.store), sh.global_ids, sh.kept))
                .collect(),
            config,
        )
    }
}

impl<'a> ShardedQueryEngine<'a> {
    /// Builds the fan-out engine *borrowing* already-partitioned shards —
    /// the zero-copy twin of [`ShardedQueryEngine::from_shards`], for
    /// callers (benchmarks, repeated builds) that keep the partition
    /// around.
    #[must_use]
    pub fn over_shards(shards: &'a [Shard], config: EngineConfig) -> Self {
        Self::build(
            shards
                .iter()
                .map(|sh| (StoreRef::Borrowed(&sh.store), sh.global_ids.clone(), None))
                .collect(),
            config,
        )
    }

    /// The shared constructor core: per-shard index builds run in
    /// parallel via [`par_map`] over the store handles (owned, borrowed,
    /// or mapped — [`StoreRef`] implements `AsColumns`), then each store
    /// moves into its engine alongside its bounds and id map.
    fn build(
        shards: Vec<(StoreRef<'a>, Vec<TrajId>, Option<KeptBitmap>)>,
        config: EngineConfig,
    ) -> Self {
        let backends = par_map(&shards, |(store, _, _)| build_backend(store, config));
        let handles = shards
            .into_iter()
            .zip(backends)
            .map(|((store, global_ids, kept), backend)| {
                let bounds = store.bounding_cube();
                let mut engine = QueryEngine::from_backend(store, backend, config);
                engine.set_kept_bitmap(kept);
                ShardHandle {
                    engine,
                    global_ids,
                    bounds,
                }
            })
            .collect();
        Self::from_handles(handles, config)
    }

    fn from_handles(shards: Vec<ShardHandle<'a>>, config: EngineConfig) -> Self {
        let total_trajs = shards.iter().map(|sh| sh.global_ids.len()).sum();
        debug_assert!(
            {
                let mut seen = vec![false; total_trajs];
                shards
                    .iter()
                    .flat_map(|sh| &sh.global_ids)
                    .all(|&g| g < total_trajs && !std::mem::replace(&mut seen[g], true))
            },
            "shard global ids must partition 0..total"
        );
        Self {
            shards,
            total_trajs,
            config,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total trajectories across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total_trajs
    }

    /// True when the engine serves no trajectories.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_trajs == 0
    }

    /// Total points across all shards.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.engine.store().total_points())
            .sum()
    }

    /// The per-shard build configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Per-shard bounding cubes (the router's pruning bounds).
    pub fn shard_bounds(&self) -> impl Iterator<Item = Cube> + '_ {
        self.shards.iter().map(|sh| sh.bounds)
    }

    /// True when every shard carries a persisted kept bitmap — i.e. the
    /// set was written as a simplified database and
    /// [`ShardedQueryEngine::range_kept`] can serve `D'`.
    #[must_use]
    pub fn has_kept_bitmaps(&self) -> bool {
        !self.shards.is_empty() && self.shards.iter().all(|sh| sh.engine.has_kept_bitmap())
    }

    /// Per-shard store handles, in shard order (owned, borrowed, or
    /// mapped). The accessor workload generators and statistics use; query
    /// execution itself goes through the fan-out methods.
    pub fn shard_stores(&self) -> impl Iterator<Item = &StoreRef<'a>> {
        self.shards.iter().map(|sh| sh.engine.store())
    }

    /// Materializes the trajectory with *global* id `id` (a binary search
    /// for the owning shard, then a column gather).
    ///
    /// # Panics
    /// Panics when `id >= self.len()`.
    #[must_use]
    pub fn trajectory(&self, id: TrajId) -> trajectory::Trajectory {
        assert!(id < self.total_trajs, "trajectory id out of range");
        for sh in &self.shards {
            if let Ok(local) = sh.global_ids.binary_search(&id) {
                return sh.engine.trajectory(local);
            }
        }
        unreachable!("shard global ids partition 0..total")
    }

    // ------------------------------------------------------------------
    // The fan-out.
    // ------------------------------------------------------------------

    /// Every shard's part of `q`, in global ids: shards the pruning rule
    /// rules out contribute the empty part, the rest run `part` and map
    /// its shard-local ids through `global_ids`. `parallel` runs the
    /// shards on a [`par_map`] (one-shot queries) or in the calling
    /// thread (the per-query unit batch passes parallelize over).
    fn shard_parts<F>(&self, q: QueryRef<'_>, parallel: bool, part: F) -> Vec<ShardResult>
    where
        F: Fn(usize, &ShardHandle<'a>) -> ShardResult + Sync,
    {
        let one = |i: usize, sh: &ShardHandle<'a>| {
            if !q.touches_bounds(&sh.bounds) {
                return ShardResult::empty(q, sh.engine.has_kept_bitmap());
            }
            part(i, sh)
                .to_global(&sh.global_ids)
                .expect("shard-local ids index the shard's global ids")
        };
        if parallel {
            par_map_indexed(&self.shards, one)
        } else {
            self.shards
                .iter()
                .enumerate()
                .map(|(i, sh)| one(i, sh))
                .collect()
        }
    }

    /// Answers `q` by fanning it out to every shard's engine and merging
    /// the parts. With `parallel == false` this is the per-query unit
    /// [`QueryExecutor::execute_batch`](crate::QueryExecutor::execute_batch)
    /// parallelizes over.
    pub(crate) fn execute_ref(&self, q: QueryRef<'_>, parallel: bool) -> QueryResult {
        let parts = self.shard_parts(q, parallel, |_, sh| sh.engine.part(q, parallel));
        merge_parts(q, parts, 0..self.total_trajs)
    }

    /// [`ShardedQueryEngine::execute_ref`] for the kinds that always
    /// answer with ids.
    fn ids(&self, q: QueryRef<'_>, parallel: bool) -> Vec<TrajId> {
        self.execute_ref(q, parallel).into_ids().unwrap_or_default()
    }

    /// This engine's part of `q` as one shard of a bigger database: the
    /// shards' parts combined, with no kNN fill.
    pub(crate) fn part(&self, q: QueryRef<'_>, parallel: bool) -> ShardResult {
        combine_parts(
            q,
            self.shard_parts(q, parallel, |_, sh| sh.engine.part(q, parallel)),
        )
    }

    // ------------------------------------------------------------------
    // Per-kind queries.
    // ------------------------------------------------------------------

    /// Executes a range query, fanning out across shards in parallel.
    /// Shards whose bounds miss `q` are pruned without touching their
    /// index. Identical results to [`QueryEngine::range`] over the
    /// unsharded store.
    #[must_use]
    pub fn range(&self, q: &Cube) -> Vec<TrajId> {
        self.ids(QueryRef::Range(q), true)
    }

    /// Executes a whole batch of range queries, parallel across queries
    /// (each query walks its shards sequentially — one level of
    /// parallelism, not `cores²` threads).
    #[must_use]
    pub fn range_batch(&self, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        par_map(queries, |q| self.ids(QueryRef::Range(q), false))
    }

    /// Executes a range query against the *persisted* per-shard kept
    /// bitmaps (a simplified shard set) — `None` unless every shard
    /// carries a bitmap. Identical results to [`QueryEngine::range_kept`]
    /// with the equivalent global bitmap.
    #[must_use]
    pub fn range_kept(&self, q: &Cube) -> Option<Vec<TrajId>> {
        self.execute_ref(QueryRef::RangeKept(q), true).into_ids()
    }

    /// Executes a kNN query: contributing shards produce their best `k`
    /// finite-distance candidates (shards temporally disjoint from the
    /// window are pruned), the merge takes the global best `k` by
    /// `(distance, global id)`, and the infinite tail fills in ascending
    /// global id order — the exact single-store policy, applied once
    /// globally. Identical results to [`QueryEngine::knn`].
    #[must_use]
    pub fn knn(&self, q: &KnnQuery) -> Vec<TrajId> {
        self.ids(QueryRef::Knn(q), true)
    }

    /// This engine's contribution to a distributed kNN: the global best
    /// `k` finite-distance candidates, sorted by `(distance, global
    /// id)`, `-0.0`-normalized — the sharded twin of
    /// [`QueryEngine::knn_candidates`]. A remote coordinator merging
    /// these lists across shard processes with [`merge_parts`]
    /// reproduces [`ShardedQueryEngine::knn`] byte-for-byte.
    #[must_use]
    pub fn knn_candidates(&self, q: &KnnQuery) -> Vec<(f64, TrajId)> {
        self.part(QueryRef::Knn(q), true).into_candidates()
    }

    /// Executes a batch of kNN queries (parallelism lives inside each
    /// query's shard fan-out).
    #[must_use]
    pub fn knn_batch(&self, queries: &[KnnQuery]) -> Vec<Vec<TrajId>> {
        queries.iter().map(|q| self.knn(q)).collect()
    }

    /// Executes a similarity query: per-shard candidate generation in
    /// parallel, global merge. Spatial pruning stays unsound here (a
    /// trajectory can match through interpolation with no sampled point
    /// near the window), but a shard temporally disjoint from the window
    /// cannot match. Identical results to [`QueryEngine::similarity`].
    #[must_use]
    pub fn similarity(&self, q: &SimilarityQuery) -> Vec<TrajId> {
        self.ids(QueryRef::Similarity(q), true)
    }

    /// Executes a batch of similarity queries, parallel across queries.
    #[must_use]
    pub fn similarity_batch(&self, queries: &[SimilarityQuery]) -> Vec<Vec<TrajId>> {
        par_map(queries, |q| self.ids(QueryRef::Similarity(q), false))
    }

    // ------------------------------------------------------------------
    // Simplified-database execution.
    // ------------------------------------------------------------------

    /// Executes a range query against a global [`Simplification`] without
    /// materializing `D'` — the per-shard split happens internally.
    /// Identical results to [`QueryEngine::range_simplified`]; batches
    /// should prefer [`ShardedQueryEngine::range_simplified_batch`] (or a
    /// pre-split [`ShardedQueryEngine::range_simplified_local`]), which
    /// splits once.
    #[must_use]
    pub fn range_simplified(&self, simp: &Simplification, q: &Cube) -> Vec<TrajId> {
        self.range_simplified_local(&self.shard_simplification(simp), q)
    }

    /// Batch variant of [`ShardedQueryEngine::range_simplified`]: the
    /// global simplification splits into shard-local ones once for the
    /// whole batch.
    #[must_use]
    pub fn range_simplified_batch(
        &self,
        simp: &Simplification,
        queries: &[Cube],
    ) -> Vec<Vec<TrajId>> {
        self.range_simplified_local_batch(&self.shard_simplification(simp), queries)
    }

    /// Splits a global [`Simplification`] into per-shard local ones —
    /// compute once, then serve
    /// [`ShardedQueryEngine::range_simplified_local`] /
    /// [`ShardedQueryEngine::range_simplified_local_batch`] against it.
    #[must_use]
    pub fn shard_simplification(&self, simp: &Simplification) -> ShardedSimplification {
        let locals = self
            .shards
            .iter()
            .map(|sh| {
                let kept: Vec<Vec<u32>> = sh
                    .global_ids
                    .iter()
                    .map(|&g| simp.kept(g).to_vec())
                    .collect();
                Simplification::from_kept_store(sh.engine.store(), kept)
            })
            .collect();
        ShardedSimplification { locals }
    }

    /// Executes a range query against a pre-split sharded simplification
    /// without materializing `D'`. Identical results to
    /// [`QueryEngine::range_simplified`] with the corresponding global
    /// simplification.
    #[must_use]
    pub fn range_simplified_local(&self, simp: &ShardedSimplification, q: &Cube) -> Vec<TrajId> {
        self.range_simplified_parts(simp, q, true)
    }

    /// Batch variant of [`ShardedQueryEngine::range_simplified_local`],
    /// parallel across queries.
    #[must_use]
    pub fn range_simplified_local_batch(
        &self,
        simp: &ShardedSimplification,
        queries: &[Cube],
    ) -> Vec<Vec<TrajId>> {
        par_map(queries, |q| self.range_simplified_parts(simp, q, false))
    }

    /// The range fan-out with each shard answering against its local
    /// simplification instead of its full columns.
    fn range_simplified_parts(
        &self,
        simp: &ShardedSimplification,
        q: &Cube,
        parallel: bool,
    ) -> Vec<TrajId> {
        assert_eq!(simp.locals.len(), self.shards.len(), "shard count mismatch");
        let parts = self.shard_parts(QueryRef::Range(q), parallel, |i, sh| {
            ShardResult::Ids(sh.engine.range_simplified(&simp.locals[i], q))
        });
        merge_parts(QueryRef::Range(q), parts, 0..self.total_trajs)
            .into_ids()
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Workload maintenance.
    // ------------------------------------------------------------------

    /// Builds a [`MaintainedWorkload`] over `queries` with ground truth
    /// from this sharded engine and running result sets from `simp`
    /// (global trajectory ids throughout): per-shard candidate
    /// generation, global merge. The returned workload is
    /// indistinguishable from one built by the single-store engine —
    /// every subsequent `insert`/`remove`/`diff` is pure bookkeeping on
    /// global ids.
    #[must_use]
    pub fn maintained_workload(
        &self,
        queries: Vec<Cube>,
        simp: &Simplification,
    ) -> MaintainedWorkload {
        let truth = self.range_batch(&queries);
        let counts: Vec<HashMap<TrajId, u32>> = par_map(&queries, |q| {
            let mut counts: HashMap<TrajId, u32> = HashMap::new();
            for sh in &self.shards {
                // Kept points inside q lie inside the shard's bounds.
                if !QueryRef::Range(q).touches_bounds(&sh.bounds) {
                    continue;
                }
                for (local, v) in sh.engine.store().iter() {
                    let global = sh.global_ids[local];
                    let n = simp
                        .kept(global)
                        .iter()
                        .filter(|&&idx| {
                            let i = idx as usize;
                            q.contains_xyz(v.xs[i], v.ys[i], v.ts[i])
                        })
                        .count() as u32;
                    if n > 0 {
                        counts.insert(global, n);
                    }
                }
            }
            counts
        });
        MaintainedWorkload::from_parts(queries, truth, counts)
    }
}

/// A global [`Simplification`] split into per-shard local ones (see
/// [`ShardedQueryEngine::shard_simplification`]).
#[derive(Debug, Clone)]
pub struct ShardedSimplification {
    /// `locals[shard]` = the simplification restricted to that shard, in
    /// shard-local trajectory ids.
    locals: Vec<Simplification>,
}

impl ShardedSimplification {
    /// Total number of retained points across all shards.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.locals.iter().map(Simplification::total_points).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Dissimilarity;
    use crate::workload::{range_workload_store, QueryDistribution, RangeWorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};

    fn sample_store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 4242).to_store()
    }

    fn workload(store: &PointStore, n: usize, seed: u64) -> Vec<Cube> {
        let spec = RangeWorkloadSpec {
            count: n,
            spatial_extent: 2_000.0,
            temporal_extent: 86_400.0,
            dist: QueryDistribution::Data,
        };
        range_workload_store(store, &spec, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn sharded_range_matches_single_store() {
        let store = sample_store();
        let queries = workload(&store, 25, 1);
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        for strategy in [
            PartitionStrategy::Grid { nx: 2, ny: 2 },
            PartitionStrategy::Time { parts: 3 },
            PartitionStrategy::Hash { parts: 4 },
        ] {
            let sharded =
                ShardedQueryEngine::from_partition(&store, &strategy, EngineConfig::octree());
            assert!(sharded.shard_count() >= 1);
            assert_eq!(sharded.len(), store.len());
            assert_eq!(sharded.total_points(), store.total_points());
            for q in &queries {
                assert_eq!(sharded.range(q), single.range(q), "{strategy:?}");
            }
            assert_eq!(sharded.range_batch(&queries), single.range_batch(&queries));
        }
    }

    #[test]
    fn sharded_knn_matches_single_store() {
        let store = sample_store();
        let db = store.to_db();
        let (t0, t1) = store.time_span();
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = ShardedQueryEngine::from_partition(
            &store,
            &PartitionStrategy::Hash { parts: 3 },
            EngineConfig::octree(),
        );
        for (k, ts, te) in [
            (3, t0, t1),
            (1, t0, (t0 + t1) / 2.0),
            (100, t1 + 1.0, t1 + 10.0), // empty window: degenerate scoring
        ] {
            let q = KnnQuery {
                query: db.get(0).clone(),
                ts,
                te,
                k,
                measure: Dissimilarity::Edr { eps: 1_000.0 },
            };
            assert_eq!(sharded.knn(&q), single.knn(&q), "k={k} ts={ts} te={te}");
        }
    }

    #[test]
    fn sharded_knn_with_huge_k_returns_every_id() {
        let store = sample_store();
        let (t0, t1) = store.time_span();
        let sharded = ShardedQueryEngine::from_partition(
            &store,
            &PartitionStrategy::Time { parts: 3 },
            EngineConfig::octree(),
        );
        let q = KnnQuery {
            query: store.to_db().get(0).clone(),
            ts: t0,
            te: t1,
            k: usize::MAX / 2,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        };
        let all: Vec<TrajId> = (0..store.len()).collect();
        assert_eq!(sharded.knn(&q), all);
    }

    #[test]
    fn sharded_similarity_matches_single_store() {
        let store = sample_store();
        let db = store.to_db();
        let (t0, t1) = db.get(0).time_span();
        let q = SimilarityQuery {
            query: db.get(0).clone(),
            ts: t0,
            te: t1,
            delta: 2_500.0,
            step: 300.0,
        };
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = ShardedQueryEngine::from_partition(
            &store,
            &PartitionStrategy::Time { parts: 4 },
            EngineConfig::octree(),
        );
        assert_eq!(sharded.similarity(&q), single.similarity(&q));
        assert_eq!(
            sharded.similarity_batch(std::slice::from_ref(&q)),
            single.similarity_batch(std::slice::from_ref(&q))
        );
    }

    #[test]
    fn sharded_simplified_and_workload_match_single_store() {
        let store = sample_store();
        let db = store.to_db();
        let mut simp = Simplification::most_simplified(&db);
        for (id, t) in db.iter() {
            for idx in (0..t.len() as u32).step_by(4) {
                simp.insert(id, idx);
            }
        }
        let queries = workload(&store, 15, 9);
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = ShardedQueryEngine::from_partition(
            &store,
            &PartitionStrategy::Grid { nx: 2, ny: 2 },
            EngineConfig::octree(),
        );
        let local = sharded.shard_simplification(&simp);
        assert_eq!(local.total_points(), simp.total_points());
        for q in &queries {
            assert_eq!(
                sharded.range_simplified_local(&local, q),
                single.range_simplified(&simp, q)
            );
            assert_eq!(
                sharded.range_simplified(&simp, q),
                single.range_simplified(&simp, q)
            );
        }
        assert_eq!(
            sharded.range_simplified_batch(&simp, &queries),
            single.range_simplified_batch(&simp, &queries)
        );

        let mut single_w = single.maintained_workload(queries.clone(), &simp);
        let mut sharded_w = sharded.maintained_workload(queries.clone(), &simp);
        assert!((single_w.diff() - sharded_w.diff()).abs() < 1e-12);
        for i in 0..queries.len() {
            assert_eq!(single_w.truth(i), sharded_w.truth(i));
            assert_eq!(single_w.result(i), sharded_w.result(i));
        }
        // The maintained state evolves identically under insertions.
        for id in 0..db.len().min(8) {
            let n = db.get(id).len() as u32;
            if n > 2 && simp.insert(id, 1) {
                single_w.insert(id, db.get(id).point(1));
                sharded_w.insert(id, db.get(id).point(1));
            }
        }
        assert!((single_w.diff() - sharded_w.diff()).abs() < 1e-12);
    }

    #[test]
    fn borrowed_shards_serve_identically() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Hash { parts: 2 });
        let owned = ShardedQueryEngine::from_shards(shards.clone(), EngineConfig::median_kd());
        let borrowed = ShardedQueryEngine::over_shards(&shards, EngineConfig::median_kd());
        for q in workload(&store, 10, 3) {
            assert_eq!(owned.range(&q), borrowed.range(&q));
        }
    }

    #[test]
    fn empty_database_serves_empty_results() {
        let sharded = ShardedQueryEngine::from_partition(
            &PointStore::new(),
            &PartitionStrategy::Hash { parts: 4 },
            EngineConfig::octree(),
        );
        assert_eq!(sharded.shard_count(), 0);
        assert!(sharded.is_empty());
        assert!(sharded
            .range(&Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
            .is_empty());
        assert!(!sharded.has_kept_bitmaps());
        assert!(sharded
            .range_kept(&Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
            .is_none());
    }
}
