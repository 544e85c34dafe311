//! `cluster`: two time-partitioned `shardd --snap` processes behind one
//! in-process `SharedCoordinator`, read by 2 caller threads sending one
//! query per request.

use std::time::Instant;

use traj_query::{
    knn_take_fill, merge_global_ids, merge_knn_candidates, query_touches_bounds, DbOptions, Query,
    QueryBatch, QueryExecutor, QueryResult, TrajDb,
};
use traj_serve::{
    BatchConfig, Client, Coordinator, CoordinatorOptions, Placement, ResponseStatus, ShardResult,
    SharedCoordinator,
};
use trajectory::shard::{partition, PartitionStrategy, ShardSet};
use trajectory::{Cube, TrajId, TrajectoryDb};

use crate::common::{
    closed_loop, dataset, query_mix, range_knn_f1, result_ids, timed_setups, Latencies, Scratch,
    Shardd, CLIENTS, CLUSTER_POOL, SETUPS,
};
use crate::trace::{with_overhead, Tracer, ROUNDS};
use crate::{Ctx, Report};

const SHARDS: usize = 2;
const RTT_SPANS: [&str; SHARDS] = ["coordinator.shard_rtt.0", "coordinator.shard_rtt.1"];

/// A running cluster. Field order is drop order: the coordinator stops
/// before its shards do.
struct Cluster {
    shared: SharedCoordinator,
    servers: Vec<Shardd>,
    global_ids: Vec<Vec<TrajId>>,
}

fn start(ctx: &Ctx, scratch: &Scratch, i: usize) -> (TrajectoryDb, Cluster) {
    let db = dataset();
    let parts = partition(&db.to_store(), &PartitionStrategy::Time { parts: SHARDS });
    let dir = scratch.path(&format!("shards-{i}"));
    let set = ShardSet::write(&dir, &parts).expect("write shard set");
    let args: Vec<Vec<String>> = set
        .entries()
        .iter()
        .map(|e| {
            vec![
                "--snap".to_string(),
                dir.join(&e.file).display().to_string(),
            ]
        })
        .collect();
    let servers = Shardd::spawn_all(&ctx.shardd, &args);
    let global_ids: Vec<Vec<TrajId>> = set.entries().iter().map(|e| e.global_ids.clone()).collect();
    let placement = Placement::from_parts(
        servers
            .iter()
            .map(|s| s.addr.clone())
            .zip(global_ids.iter().cloned())
            .collect(),
    )
    .expect("placement");
    let coordinator =
        Coordinator::connect(placement, CoordinatorOptions::default()).expect("connect cluster");
    let shared = SharedCoordinator::start(coordinator, BatchConfig::default(), CLIENTS);
    (
        db,
        Cluster {
            shared,
            servers,
            global_ids,
        },
    )
}

/// Single-query requests and their single-store answers.
fn requests(db: &TrajectoryDb, seed: u64) -> (Vec<QueryBatch>, Vec<QueryResult>) {
    let queries = query_mix(db, CLUSTER_POOL, seed);
    let whole = TrajDb::from_store(db.to_store(), DbOptions::new());
    let truth = whole.execute_batch(&QueryBatch::from_queries(queries.clone()));
    let batches = queries
        .into_iter()
        .map(|q| QueryBatch::from_queries(vec![q]))
        .collect();
    (batches, truth)
}

pub fn run(ctx: &Ctx) -> Report {
    let scratch = Scratch::new("cluster");
    let ((db, cluster), setup_s) = timed_setups(SETUPS, |i| start(ctx, &scratch, i));
    let (batches, truth) = requests(&db, ctx.seed);

    let shared = &cluster.shared;
    let stats = closed_loop(
        CLIENTS,
        ctx.seconds,
        batches.len(),
        || (),
        |_, i| match shared.execute_batch(&batches[i]) {
            Ok(resp) => Ok(resp.status == ResponseStatus::Complete
                && resp.results.len() == 1
                && resp.results[0] == truth[i]),
            Err(e) => Err(e.to_string()),
        },
    );
    let rss: f64 = cluster.servers.iter().map(Shardd::peak_rss_mb).sum();
    drop(cluster);

    let mut r = Report::new();
    r.attempted = stats.attempted;
    r.failed = stats.errors;
    r.check(
        stats.mismatches == 0,
        format!(
            "{} cluster answers differ from single-store answers",
            stats.mismatches
        ),
    );
    r.metric("setup_s", setup_s);
    r.metric("rss_mb", rss);
    stats.report_reads(&mut r, 1);
    let queries: Vec<Query> = batches.iter().map(|b| b.queries()[0].clone()).collect();
    let (range_f1, knn_f1) = range_knn_f1(&queries, &truth, &truth);
    r.metric("range_f1", range_f1);
    r.metric("knn_f1", knn_f1);
    r.notes.push(format!(
        "cluster: {} single-query requests in {:.2} s, closed loop with {} callers, {} shards",
        stats.latencies.len(),
        stats.elapsed_s,
        CLIENTS,
        SHARDS
    ));
    r.count("cluster.queries", queries.len() as u64);
    r.count("cluster.result_ids", result_ids(&truth));
    r
}

/// What one sequential replay of the pool saw.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    sent: u64,
    pruned: u64,
    wrong: u64,
    slowest_rtt_ms: Vec<f64>,
}

/// Replays each request step by step: route, one shard round trip per
/// routed shard, merge.
fn replay(
    tr: &mut Tracer,
    clients: &mut [Client],
    bounds: &[Option<Cube>],
    global_ids: &[Vec<TrajId>],
    batches: &[QueryBatch],
    truth: &[QueryResult],
) -> Replay {
    let total: usize = global_ids.iter().map(Vec::len).sum();
    let mut out = Replay::default();
    let started = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let req = i as u64 + 1;
        let root = tr.begin("cluster.request", req, 0);
        let q = &batch.queries()[0];
        let routed: Vec<bool> = tr.time("coordinator.route", req, root, || {
            bounds
                .iter()
                .map(|b| b.as_ref().is_none_or(|b| query_touches_bounds(q, b)))
                .collect()
        });
        let mut answers: Vec<(usize, ShardResult)> = Vec::new();
        let mut slowest = 0f64;
        for (s, client) in clients.iter_mut().enumerate() {
            if !routed[s] {
                out.pruned += 1;
                continue;
            }
            out.sent += 1;
            let t0 = Instant::now();
            let got = tr.time(RTT_SPANS[s], req, root, || {
                client.execute_shard_batch(batch, req)
            });
            slowest = slowest.max(t0.elapsed().as_secs_f64() * 1e3);
            match got {
                Ok(mut results) if results.len() == 1 => answers.push((s, results.remove(0))),
                _ => out.wrong += 1,
            }
        }
        out.slowest_rtt_ms.push(slowest);
        let merged = tr.time("coordinator.merge", req, root, || {
            merge(q, &answers, global_ids, total)
        });
        if merged.as_ref() != Some(&truth[i]) {
            out.wrong += 1;
        }
        tr.end(root);
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// The coordinator's merge, from the shared kernels: remap shard-local
/// ids to global ones, then union ids or k-way merge kNN candidates.
fn merge(
    q: &Query,
    answers: &[(usize, ShardResult)],
    global_ids: &[Vec<TrajId>],
    total: usize,
) -> Option<QueryResult> {
    let remap = |s: usize, l: TrajId| global_ids[s].get(l).copied();
    match q {
        Query::Range(_) | Query::Similarity(_) => {
            let mut lists = Vec::new();
            for (s, a) in answers {
                let ShardResult::Ids(ids) = a else {
                    return None;
                };
                lists.push(
                    ids.iter()
                        .map(|&l| remap(*s, l))
                        .collect::<Option<Vec<_>>>()?,
                );
            }
            let ids = merge_global_ids(lists);
            Some(if matches!(q, Query::Range(_)) {
                QueryResult::Range(ids)
            } else {
                QueryResult::Similarity(ids)
            })
        }
        Query::Knn(k) => {
            let mut streams = Vec::new();
            for (s, a) in answers {
                let ShardResult::Candidates(c) = a else {
                    return None;
                };
                streams.push(
                    c.iter()
                        .map(|&(d, l)| remap(*s, l).map(|g| (d, g)))
                        .collect::<Option<Vec<_>>>()?,
                );
            }
            let merged = merge_knn_candidates(k.k, &streams);
            Some(QueryResult::Knn(knn_take_fill(k.k, &merged, 0..total)))
        }
        Query::RangeKept(_) => None,
    }
}

pub fn trace(ctx: &Ctx) -> Report {
    let mut r = Report::new();
    let scratch = Scratch::new("cluster-trace");
    let (db, cluster) = start(ctx, &scratch, 0);
    let (batches, truth) = requests(&db, ctx.seed);

    // The real request path, one request at a time: its latency, and
    // frame counters that repeat exactly.
    let mut latency = Latencies::default();
    let mut wrong = 0u64;
    for (i, b) in batches.iter().enumerate() {
        let t0 = Instant::now();
        match cluster.shared.execute_batch(b) {
            Ok(resp) if resp.results.len() == 1 && resp.results[0] == truth[i] => {}
            _ => wrong += 1,
        }
        latency.push_since(t0);
    }
    let stats = cluster.shared.stats();

    let bounds = cluster.shared.coordinator().shard_bounds();
    let mut clients: Vec<Client> = cluster
        .servers
        .iter()
        .map(|s| Client::connect(s.addr.as_str()).expect("connect shard"))
        .collect();
    let mut tr = Tracer::new(true);
    let mut replay_wrong = 0;
    let traced = with_overhead(&mut r, &mut tr, "trace.overhead.cluster", ROUNDS, |t| {
        let out = replay(
            t,
            &mut clients,
            &bounds,
            &cluster.global_ids,
            &batches,
            &truth,
        );
        replay_wrong += out.wrong;
        (out.wall_s, out)
    });
    drop(clients);
    drop(cluster);

    r.attempted = (2 * ROUNDS + 2) as u64 * batches.len() as u64;
    r.check(
        wrong == 0,
        format!("{wrong} sequential cluster answers were wrong"),
    );
    r.check(
        replay_wrong == 0,
        "the replayed route/round-trip/merge disagrees with the single store",
    );
    r.check(
        traced.sent == stats.frames_sent() && traced.pruned == stats.frames_pruned(),
        format!(
            "replay routed {}/{} frames sent/pruned, the coordinator {}/{}",
            traced.sent,
            traced.pruned,
            stats.frames_sent(),
            stats.frames_pruned()
        ),
    );
    r.metric("coordinator.route_us", tr.mean("coordinator.route") * 1e6);
    r.metric("coordinator.shard0_rtt_ms", tr.mean(RTT_SPANS[0]) * 1e3);
    r.metric("coordinator.shard1_rtt_ms", tr.mean(RTT_SPANS[1]) * 1e3);
    r.metric("coordinator.merge_us", tr.mean("coordinator.merge") * 1e6);
    r.metric("coordinator.frames_sent", stats.frames_sent() as f64);
    r.metric("coordinator.frames_pruned", stats.frames_pruned() as f64);
    let slowest = Latencies(traced.slowest_rtt_ms).mean();
    r.metric("coordinator.overhead_share", 1.0 - slowest / latency.mean());
    r.count("cluster.frames_sent", stats.frames_sent());
    r.count("cluster.frames_pruned", stats.frames_pruned());
    r.notes.push(format!(
        "cluster sequential pass: request mean {:.3} ms, slowest shard RTT mean {:.3} ms",
        latency.mean(),
        slowest
    ));
    tr.finish(&mut r, "cluster");
    r
}
