//! The one "query each part, then merge" step behind every multi-part
//! executor.
//!
//! Three layouts answer a query from several parts: the in-process
//! [`ShardedQueryEngine`](crate::ShardedQueryEngine) (one part per
//! shard), the live [`GenerationalDb`](crate::GenerationalDb) (the base
//! generation plus one part for the whole delta), and the distributed
//! coordinator in `traj-serve` (one part per remote shard process).
//! Each produces [`ShardResult`] *parts* in global trajectory ids and
//! hands them to this module, which owns everything they have in
//! common:
//!
//! - **pruning** — [`QueryRef::touches_bounds`] decides whether a part whose
//!   points all lie inside a cube can contribute at all; a part it
//!   rules out contributes [`ShardResult::empty`];
//! - **combining** — `combine_parts` folds the parts of one query
//!   into one part: `Ids` become a sorted union, `Candidates` go
//!   through the global k-heap ([`merge_knn_candidates`]), and `Kept`
//!   is `Some` only when there is at least one part and every part has
//!   its kept bitmap;
//! - **finishing** — [`merge_parts`] combines and then applies the
//!   single-store take-`k` / infinite-fill policy ([`knn_take_fill`])
//!   over a caller-given id universe.
//!
//! A combined part has the same shape as any one part, so an executor
//! that is itself a part of a bigger one (a sharded or live database
//! served as one shard of a cluster) answers with `combine_parts` and
//! leaves the fill to whoever sees the whole database.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use trajectory::{Cube, TrajId};

use crate::db::{Query, QueryResult};
use crate::knn::KnnQuery;
use crate::similarity::SimilarityQuery;

/// One query's answer from one part of a database — the merge material
/// every multi-part executor produces and [`merge_parts`] consumes (and
/// what a shard process sends its coordinator). Ids are in whatever id
/// space the producer works in: shard-local on the wire, global once
/// [`ShardResult::to_global`] has mapped them.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResult {
    /// Range/similarity hits, ids ascending.
    Ids(Vec<TrajId>),
    /// Kept-bitmap range hits; `None` when the part has no bitmap.
    Kept(Option<Vec<TrajId>>),
    /// kNN candidates: finite `(distance, id)` pairs sorted ascending
    /// by `(distance, id)`, truncated to the query's `k`,
    /// `-0.0`-normalized — the shape `knn_candidates` produces.
    Candidates(Vec<(f64, TrajId)>),
}

impl ShardResult {
    /// The part contributed by a pruned part of the database: no hits,
    /// and — for a kept-bitmap query — `Some` exactly when the pruned
    /// part carries a kept bitmap (`has_kept`), so pruning never changes
    /// whether the merged answer is `Some`.
    #[must_use]
    pub fn empty<'q>(q: impl Into<QueryRef<'q>>, has_kept: bool) -> ShardResult {
        match q.into() {
            QueryRef::Range(_) | QueryRef::Similarity(_) => ShardResult::Ids(Vec::new()),
            QueryRef::Knn(_) => ShardResult::Candidates(Vec::new()),
            QueryRef::RangeKept(_) => ShardResult::Kept(has_kept.then(Vec::new)),
        }
    }

    /// True when this is the variant that answers `q`: `Ids` for range
    /// and similarity, `Candidates` for kNN, `Kept` for kept-bitmap
    /// range queries.
    #[must_use]
    pub fn answers<'q>(&self, q: impl Into<QueryRef<'q>>) -> bool {
        matches!(
            (q.into(), self),
            (
                QueryRef::Range(_) | QueryRef::Similarity(_),
                ShardResult::Ids(_)
            ) | (QueryRef::Knn(_), ShardResult::Candidates(_))
                | (QueryRef::RangeKept(_), ShardResult::Kept(_))
        )
    }

    /// Maps every local id through `global_ids` (`global_ids[local]` =
    /// global id). `None` when some local id is past the end of
    /// `global_ids`. Because `global_ids` is ascending, local order is
    /// global order and the part keeps its shape.
    #[must_use]
    pub fn to_global(self, global_ids: &[TrajId]) -> Option<ShardResult> {
        let map = |ids: Vec<TrajId>| -> Option<Vec<TrajId>> {
            ids.into_iter()
                .map(|l| global_ids.get(l).copied())
                .collect()
        };
        Some(match self {
            ShardResult::Ids(ids) => ShardResult::Ids(map(ids)?),
            ShardResult::Kept(None) => ShardResult::Kept(None),
            ShardResult::Kept(Some(ids)) => ShardResult::Kept(Some(map(ids)?)),
            ShardResult::Candidates(cands) => ShardResult::Candidates(
                cands
                    .into_iter()
                    .map(|(d, l)| Some((d, *global_ids.get(l)?)))
                    .collect::<Option<_>>()?,
            ),
        })
    }

    /// The candidates of a kNN part.
    ///
    /// # Panics
    /// Panics on any other variant (an executor bug, not bad input).
    pub(crate) fn into_candidates(self) -> Vec<(f64, TrajId)> {
        match self {
            ShardResult::Candidates(cands) => cands,
            other => panic!("a kNN part must be candidates, got {other:?}"),
        }
    }
}

/// A borrowed [`Query`]: what the part producers, the pruning rules and
/// the merge need to read, so the per-kind entry points
/// (`range(&Cube)`, `knn(&KnnQuery)`, …) reach the shared code without
/// cloning a query trajectory into an owned [`Query`].
#[derive(Debug, Clone, Copy)]
pub enum QueryRef<'q> {
    /// [`Query::Range`].
    Range(&'q Cube),
    /// [`Query::Knn`].
    Knn(&'q KnnQuery),
    /// [`Query::Similarity`].
    Similarity(&'q SimilarityQuery),
    /// [`Query::RangeKept`].
    RangeKept(&'q Cube),
}

impl QueryRef<'_> {
    /// True when this query can get a non-empty part from data whose
    /// points all lie inside `bounds` — the single definition of the
    /// pruning rules, used for in-process shards, for each delta
    /// trajectory of a live database, and (through
    /// [`query_touches_bounds`]) by a distributed coordinator deciding
    /// which shard *processes* to send a query to at all:
    ///
    /// - **range / range-kept**: the query cube must intersect the
    ///   bounds (a hit is a sampled point inside both).
    /// - **kNN**: data temporally disjoint from a *non-empty* query
    ///   window cannot score finite. With an empty window every
    ///   trajectory scores finite (the both-empty convention), so
    ///   nothing prunes.
    /// - **similarity**: only the time axis prunes — interpolation makes
    ///   spatial pruning unsound, but a candidate disjoint from
    ///   `[ts, te]` always fails the matcher's window-overlap test.
    ///
    /// A `false` here guarantees the part is empty, so skipping it
    /// cannot change the merged answer.
    #[must_use]
    pub fn touches_bounds(self, bounds: &Cube) -> bool {
        match self {
            QueryRef::Range(c) | QueryRef::RangeKept(c) => bounds.intersects(c),
            QueryRef::Knn(k) => time_overlaps(bounds, k.ts, k.te) || k.query_window().is_empty(),
            QueryRef::Similarity(s) => time_overlaps(bounds, s.ts, s.te),
        }
    }
}

impl<'q> From<&'q Query> for QueryRef<'q> {
    fn from(q: &'q Query) -> Self {
        match q {
            Query::Range(c) => QueryRef::Range(c),
            Query::Knn(k) => QueryRef::Knn(k),
            Query::Similarity(s) => QueryRef::Similarity(s),
            Query::RangeKept(c) => QueryRef::RangeKept(c),
        }
    }
}

// ---------------------------------------------------------------------
// Pruning.
// ---------------------------------------------------------------------

/// True when `q` can get a non-empty part from data whose points all
/// lie inside `bounds` — see [`QueryRef::touches_bounds`], the single
/// definition of the pruning rules.
#[must_use]
pub fn query_touches_bounds(q: &Query, bounds: &Cube) -> bool {
    QueryRef::from(q).touches_bounds(bounds)
}

/// True when the time span of `bounds` meets `[ts, te]`.
fn time_overlaps(bounds: &Cube, ts: f64, te: f64) -> bool {
    !(bounds.t_max < ts || bounds.t_min > te)
}

// ---------------------------------------------------------------------
// The merge.
// ---------------------------------------------------------------------

/// Merges the parts of one query into its answer: `combine_parts`,
/// then the single-store take-`k` / infinite-fill policy for kNN over
/// `universe` — the ascending ids the database serves (`0..total` for a
/// complete database, the surviving parts' ids for a degraded one).
///
/// Every part must be in global ids and be the variant that answers `q`
/// ([`ShardResult::answers`]).
///
/// # Panics
/// Panics when a part is the wrong variant for `q`.
#[must_use]
pub fn merge_parts<'q>(
    q: impl Into<QueryRef<'q>>,
    parts: Vec<ShardResult>,
    universe: impl IntoIterator<Item = TrajId>,
) -> QueryResult {
    let q = q.into();
    match (q, combine_parts(q, parts)) {
        (QueryRef::Range(_), ShardResult::Ids(ids)) => QueryResult::Range(ids),
        (QueryRef::Similarity(_), ShardResult::Ids(ids)) => QueryResult::Similarity(ids),
        (QueryRef::RangeKept(_), ShardResult::Kept(ids)) => QueryResult::RangeKept(ids),
        (QueryRef::Knn(k), ShardResult::Candidates(cands)) => {
            QueryResult::Knn(knn_take_fill(k.k, &cands, universe))
        }
        _ => unreachable!("combine_parts answers with the variant of its query"),
    }
}

/// Folds the parts of one query into one part of the same shape:
/// `Ids` into their sorted union, `Candidates` into the global best
/// `k`, `Kept` into `Some` only when there is at least one part and
/// every part is `Some`. This is what a multi-part executor answers
/// when it is itself one part of a bigger database.
///
/// # Panics
/// Panics when a part is the wrong variant for `q`.
#[must_use]
pub(crate) fn combine_parts(q: QueryRef<'_>, parts: Vec<ShardResult>) -> ShardResult {
    let mut lists = Vec::with_capacity(parts.len());
    let mut streams = Vec::new();
    let mut all_kept = !parts.is_empty();
    for part in parts {
        assert!(part.answers(q), "{part:?} does not answer {q:?}");
        match part {
            ShardResult::Ids(ids) | ShardResult::Kept(Some(ids)) => lists.push(ids),
            ShardResult::Kept(None) => all_kept = false,
            ShardResult::Candidates(cands) => streams.push(cands),
        }
    }
    match q {
        QueryRef::Range(_) | QueryRef::Similarity(_) => ShardResult::Ids(merge_global_ids(lists)),
        QueryRef::RangeKept(_) => ShardResult::Kept(all_kept.then(|| merge_global_ids(lists))),
        QueryRef::Knn(k) => ShardResult::Candidates(merge_knn_candidates(k.k, &streams)),
    }
}

/// Shapes finite-distance kNN scores into a [`ShardResult::Candidates`]
/// list: `-0.0` normalized to `+0.0` (so the k-heap's `total_cmp`
/// agrees with `partial_cmp`), sorted ascending by `(distance, id)`,
/// truncated to `k` — only a part's best `k` can reach the global top
/// `k`, and the infinite fill only triggers when the global finite
/// count is below `k`, in which case no part was truncated.
pub(crate) fn knn_candidates_from(mut finite: Vec<(f64, TrajId)>, k: usize) -> Vec<(f64, TrajId)> {
    for entry in &mut finite {
        entry.0 += 0.0;
    }
    finite.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    finite.truncate(k);
    finite
}

/// Merges per-stream kNN candidate lists into the global best `k`,
/// still sorted ascending by `(distance, id)`. Each input stream must
/// be sorted ascending by `(distance, id)` with finite,
/// `-0.0`-normalized distances and globally unique ids — the shape
/// `knn_candidates` returns. This is the k-heap `combine_parts` runs
/// for every multi-part executor.
#[must_use]
pub fn merge_knn_candidates(k: usize, per_stream: &[Vec<(f64, TrajId)>]) -> Vec<(f64, TrajId)> {
    // Global k-heap: a best-first k-way merge over the sorted
    // per-stream lists. Ties on distance break by id, exactly like the
    // single-store sort.
    let mut heap: BinaryHeap<std::cmp::Reverse<KnnHeapEntry>> = BinaryHeap::new();
    for (stream, list) in per_stream.iter().enumerate() {
        if let Some(&(d, id)) = list.first() {
            heap.push(std::cmp::Reverse(KnnHeapEntry {
                d,
                id,
                stream,
                pos: 0,
            }));
        }
    }
    // `k` comes from the client: size by what the streams can yield.
    let available: usize = per_stream.iter().map(Vec::len).sum();
    let mut merged: Vec<(f64, TrajId)> = Vec::with_capacity(k.min(available));
    while merged.len() < k {
        let Some(std::cmp::Reverse(e)) = heap.pop() else {
            break;
        };
        merged.push((e.d, e.id));
        if let Some(&(d, id)) = per_stream[e.stream].get(e.pos + 1) {
            heap.push(std::cmp::Reverse(KnnHeapEntry {
                d,
                id,
                stream: e.stream,
                pos: e.pos + 1,
            }));
        }
    }
    merged
}

/// Applies the single-store take-`k` / infinite-fill policy to a
/// [`merge_knn_candidates`] result: take the candidate ids and, when
/// fewer than `k` trajectories scored finite, fill with ids from
/// `universe` not already present, then sort ascending. `universe`
/// must yield the servable trajectory ids in ascending order —
/// `0..total` for a complete database, the surviving parts' global
/// ids for a degraded one.
///
/// When `merged.len() < k` the k-heap above exhausted every stream, so
/// `merged` alone lists *all* finite-distance ids and the fill can
/// skip exactly those.
#[must_use]
pub fn knn_take_fill(
    k: usize,
    merged: &[(f64, TrajId)],
    universe: impl IntoIterator<Item = TrajId>,
) -> Vec<TrajId> {
    let mut ids: Vec<TrajId> = merged.iter().map(|&(_, id)| id).collect();
    if ids.len() < k {
        let finite: HashSet<TrajId> = ids.iter().copied().collect();
        for id in universe {
            if finite.contains(&id) {
                continue;
            }
            ids.push(id);
            if ids.len() == k {
                break;
            }
        }
    }
    ids.sort_unstable();
    ids
}

/// Concatenates per-stream *global*-id result lists and sorts them
/// ascending — the sorted union of range/similarity parts (parts are
/// disjoint, so no id repeats).
#[must_use]
pub fn merge_global_ids(per_stream: Vec<Vec<TrajId>>) -> Vec<TrajId> {
    let mut streams = per_stream.into_iter();
    let mut out = streams.next().unwrap_or_default();
    for ids in streams {
        out.extend(ids);
    }
    out.sort_unstable();
    out
}

/// Heap entry of the global kNN merge: ordered by `(distance, global
/// id)`; `stream`/`pos` locate the successor in that stream.
/// Distances are finite and `-0.0`-normalized, so `total_cmp` agrees with
/// the single-store sort's `partial_cmp`.
struct KnnHeapEntry {
    d: f64,
    id: TrajId,
    stream: usize,
    pos: usize,
}

impl PartialEq for KnnHeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for KnnHeapEntry {}

impl PartialOrd for KnnHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KnnHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d
            .total_cmp(&other.d)
            .then(self.id.cmp(&other.id))
            .then(self.stream.cmp(&other.stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Dissimilarity;
    use trajectory::{Point, Trajectory};

    fn cube() -> Cube {
        Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    }

    fn knn(k: usize) -> KnnQuery {
        KnnQuery {
            query: Trajectory::new(vec![Point::new(0.0, 0.0, 0.0)]).unwrap(),
            ts: 0.0,
            te: 1.0,
            k,
            measure: Dissimilarity::Edr { eps: 1.0 },
        }
    }

    #[test]
    fn zero_parts_answer_range_kept_with_none() {
        let q = cube();
        assert_eq!(
            merge_parts(QueryRef::RangeKept(&q), Vec::new(), 0..4),
            QueryResult::RangeKept(None)
        );
    }

    #[test]
    fn any_part_without_a_bitmap_answers_none() {
        let q = cube();
        let parts = vec![
            ShardResult::Kept(Some(vec![1, 3])),
            ShardResult::Kept(None),
            ShardResult::Kept(Some(vec![0])),
        ];
        assert_eq!(
            merge_parts(QueryRef::RangeKept(&q), parts, 0..4),
            QueryResult::RangeKept(None)
        );
    }

    #[test]
    fn a_pruned_part_with_a_bitmap_keeps_some() {
        let q = cube();
        let parts = vec![
            ShardResult::Kept(Some(vec![2, 0])),
            ShardResult::empty(QueryRef::RangeKept(&q), true),
        ];
        assert_eq!(
            merge_parts(QueryRef::RangeKept(&q), parts, 0..4),
            QueryResult::RangeKept(Some(vec![0, 2]))
        );
        // A pruned part *without* a bitmap still turns the answer None.
        let parts = vec![
            ShardResult::Kept(Some(vec![0])),
            ShardResult::empty(QueryRef::RangeKept(&q), false),
        ];
        assert_eq!(
            merge_parts(QueryRef::RangeKept(&q), parts, 0..4),
            QueryResult::RangeKept(None)
        );
    }

    #[test]
    fn knn_fill_from_a_degraded_universe_draws_only_survivors() {
        // Survivors serve ids {1, 4, 6, 7}; only 4 scored finite.
        let q = knn(3);
        let parts = vec![ShardResult::Candidates(vec![(0.5, 4)])];
        assert_eq!(
            merge_parts(QueryRef::Knn(&q), parts, [1, 4, 6, 7]),
            QueryResult::Knn(vec![1, 4, 6])
        );
    }

    #[test]
    fn knn_takes_the_global_best_k_across_parts() {
        let q = knn(3);
        let parts = vec![
            ShardResult::Candidates(vec![(0.5, 2), (2.0, 0)]),
            ShardResult::Candidates(Vec::new()),
            ShardResult::Candidates(vec![(0.5, 1), (1.0, 5)]),
        ];
        assert_eq!(
            combine_parts(QueryRef::Knn(&q), parts.clone()),
            ShardResult::Candidates(vec![(0.5, 1), (0.5, 2), (1.0, 5)])
        );
        assert_eq!(
            merge_parts(QueryRef::Knn(&q), parts, 0..6),
            QueryResult::Knn(vec![1, 2, 5])
        );
    }

    #[test]
    fn interleaved_id_parts_merge_ascending() {
        let q = cube();
        let parts = vec![
            ShardResult::Ids(vec![1, 4, 9]),
            ShardResult::Ids(Vec::new()),
            ShardResult::Ids(vec![0, 5, 6]),
            ShardResult::Ids(vec![2, 3]),
        ];
        assert_eq!(
            merge_parts(QueryRef::Range(&q), parts, 0..10),
            QueryResult::Range(vec![0, 1, 2, 3, 4, 5, 6, 9])
        );
    }

    #[test]
    fn merge_with_huge_k_returns_every_candidate() {
        let streams = vec![vec![(0.5, 2), (2.0, 0)], vec![], vec![(1.0, 1)]];
        assert_eq!(
            merge_knn_candidates(usize::MAX / 2, &streams),
            vec![(0.5, 2), (1.0, 1), (2.0, 0)]
        );
    }

    #[test]
    fn to_global_maps_every_variant_and_rejects_out_of_range_ids() {
        let global = [3, 7, 8];
        assert_eq!(
            ShardResult::Ids(vec![0, 2]).to_global(&global),
            Some(ShardResult::Ids(vec![3, 8]))
        );
        assert_eq!(
            ShardResult::Kept(None).to_global(&global),
            Some(ShardResult::Kept(None))
        );
        assert_eq!(
            ShardResult::Candidates(vec![(0.5, 1)]).to_global(&global),
            Some(ShardResult::Candidates(vec![(0.5, 7)]))
        );
        assert_eq!(ShardResult::Kept(Some(vec![3])).to_global(&global), None);
        assert_eq!(
            ShardResult::Candidates(vec![(0.5, 3)]).to_global(&global),
            None
        );
    }

    #[test]
    fn candidates_are_normalized_sorted_and_truncated() {
        let finite = vec![(1.0, 2), (-0.0, 5), (0.0, 1), (0.5, 0)];
        let cands = knn_candidates_from(finite, 3);
        assert_eq!(cands, vec![(0.0, 1), (0.0, 5), (0.5, 0)]);
        assert!(cands.iter().all(|(d, _)| d.is_sign_positive()));
    }
}
