//! `serve`: one `shardd --snap` over the snapshot of the whole set, read
//! by a closed loop of 2 connections sending 32-query requests.

use traj_query::{DbOptions, QueryEngine, QueryExecutor, QueryResult, TrajDb};
use traj_serve::{decode_message, encode_message, Client, Message, ServeOptions, Server};
use trajectory::write_snapshot;

use crate::common::{
    closed_loop, dataset, median, range_knn_f1, request_pool, result_ids, timed_setups, Latencies,
    Scratch, Shardd, CLIENTS, SETUPS,
};
use crate::trace::{with_overhead, Tracer, ROUNDS};
use crate::{Ctx, Report};

pub fn run(ctx: &Ctx) -> Report {
    let scratch = Scratch::new("serve");
    let ((db, server), setup_s) = timed_setups(SETUPS, |i| {
        let db = dataset();
        let snap = scratch.path(&format!("base-{i}.qdts"));
        write_snapshot(&db.to_store(), &snap).expect("write snapshot");
        let args = vec!["--snap".to_string(), snap.display().to_string()];
        let server = Shardd::spawn_all(&ctx.shardd, &[args]).remove(0);
        (db, server)
    });
    let pool = request_pool(&db, ctx.seed);
    let truth: Vec<Vec<QueryResult>> = {
        let local = TrajDb::from_store(db.to_store(), DbOptions::new());
        pool.iter().map(|b| local.execute_batch(b)).collect()
    };

    let addr = server.addr.clone();
    let stats = closed_loop(
        CLIENTS,
        ctx.seconds,
        pool.len(),
        || Client::connect(addr.as_str()).expect("connect to shardd"),
        |client, i| {
            client
                .execute_batch(&pool[i])
                .map(|got| got == truth[i])
                .map_err(|e| e.to_string())
        },
    );
    let rss = server.peak_rss_mb();
    drop(server);

    let mut r = Report::new();
    let queries_per_request = pool[0].len() as f64;
    r.attempted = stats.attempted;
    r.failed = stats.errors;
    r.check(
        stats.mismatches == 0,
        format!(
            "{} served answers differ from in-process answers",
            stats.mismatches
        ),
    );
    r.metric("setup_s", setup_s);
    r.metric("rss_mb", rss);
    stats.report_reads(&mut r, pool[0].len());
    // Served answers equal the in-process ones (checked above), so the F1
    // against the original data is that of the first pass over the pool.
    let queries: Vec<_> = pool.iter().flat_map(|b| b.queries().to_vec()).collect();
    let flat: Vec<QueryResult> = truth.iter().flatten().cloned().collect();
    let (range_f1, knn_f1) = range_knn_f1(&queries, &flat, &flat);
    r.metric("range_f1", range_f1);
    r.metric("knn_f1", knn_f1);
    r.notes.push(format!(
        "serve: {} requests of {} queries in {:.2} s, closed loop with {} connections",
        stats.latencies.len(),
        queries_per_request,
        stats.elapsed_s,
        CLIENTS
    ));
    r.count("serve.queries", queries.len() as u64);
    r.count("serve.result_ids", result_ids(&flat));
    r
}

/// Replays every pool request step by step through the layer calls a
/// served request makes — encode, decode, engine, encode and decode of
/// the response — and returns the total wall time.
fn replay(tr: &mut Tracer, db: &TrajDb, pool: &[traj_query::QueryBatch]) -> (f64, u64, u64) {
    let started = std::time::Instant::now();
    let mut bytes = 0u64;
    let mut bad = 0u64;
    for (i, batch) in pool.iter().enumerate() {
        let req = i as u64 + 1;
        let root = tr.begin("serve.request", req, 0);
        let msg = Message::Request(batch.clone());
        let frame = tr.time("wire.encode_request", req, root, || encode_message(&msg));
        let Ok(Message::Request(decoded)) =
            tr.time("wire.decode_request", req, root, || decode_message(&frame))
        else {
            bad += 1;
            tr.end(root);
            continue;
        };
        let results = tr.time("traj_query.execute_batch", req, root, || {
            db.execute_batch(&decoded)
        });
        let reply = Message::Response(results.clone());
        let frame = tr.time("wire.encode_response", req, root, || encode_message(&reply));
        let back = tr.time("wire.decode_response", req, root, || decode_message(&frame));
        if !matches!(back, Ok(Message::Response(ref got)) if *got == results) {
            bad += 1;
        }
        bytes += frame.len() as u64;
        tr.end(root);
    }
    (started.elapsed().as_secs_f64(), bytes, bad)
}

pub fn trace(ctx: &Ctx) -> Report {
    let mut r = Report::new();
    let db = dataset();
    let pool = request_pool(&db, ctx.seed);
    let mut tr = Tracer::new(true);

    for _ in 0..3 {
        tr.time("traj_index.build", 0, 0, || {
            std::hint::black_box(QueryEngine::over(&db, DbOptions::new().engine_config()));
        });
    }
    r.metric(
        "traj_index.build_ms",
        median(&tr.durations("traj_index.build")) * 1e3,
    );

    let local = TrajDb::from_store(db.to_store(), DbOptions::new());
    let mut bad = 0;
    let bytes = with_overhead(&mut r, &mut tr, "trace.overhead.serve", ROUNDS, |t| {
        let (wall, bytes, wrong) = replay(t, &local, &pool);
        bad += wrong;
        (wall, bytes)
    });
    r.attempted += (2 * ROUNDS + 1) as u64 * pool.len() as u64;
    r.check(
        bad == 0,
        format!("{bad} replayed requests lost answers in the codec"),
    );

    let batch_ms = Latencies(
        tr.durations("traj_query.execute_batch")
            .iter()
            .map(|s| s * 1e3)
            .collect(),
    );
    let queries: usize = pool.iter().map(|b| b.len()).sum();
    let engine_s = tr.total("traj_query.execute_batch");
    r.metric("traj_query.batch_ms", batch_ms.percentile(0.5));
    r.metric("traj_query.inproc_qps", queries as f64 / engine_s);
    for (metric, span) in [
        ("wire.encode_request_us", "wire.encode_request"),
        ("wire.decode_request_us", "wire.decode_request"),
        ("wire.encode_response_us", "wire.encode_response"),
        ("wire.decode_response_us", "wire.decode_response"),
    ] {
        r.metric(metric, median(&tr.durations(span)) * 1e6);
    }
    r.metric("wire.response_bytes", bytes as f64 / pool.len() as f64);

    // Each query alone, to split engine time by kind.
    let mut ids = 0u64;
    for (i, q) in pool.iter().flat_map(|b| b.queries()).enumerate() {
        let req = 1_000_000 + i as u64;
        let got = match q {
            traj_query::Query::Range(c) => tr.time("traj_query.range", req, 0, || local.range(c)),
            traj_query::Query::Knn(k) => tr.time("traj_query.knn", req, 0, || local.knn(k)),
            traj_query::Query::Similarity(s) => {
                tr.time("traj_query.similarity", req, 0, || local.similarity(s))
            }
            traj_query::Query::RangeKept(_) => Vec::new(),
        };
        ids += got.len() as u64;
    }
    let kinds = [
        "traj_query.range",
        "traj_query.knn",
        "traj_query.similarity",
    ];
    let engine_total: f64 = kinds.iter().map(|k| tr.total(k)).sum();
    r.metric("traj_query.range_us", tr.mean("traj_query.range") * 1e6);
    r.metric("traj_query.knn_us", tr.mean("traj_query.knn") * 1e6);
    r.metric(
        "traj_query.similarity_us",
        tr.mean("traj_query.similarity") * 1e6,
    );
    r.metric(
        "traj_query.knn_share",
        tr.total("traj_query.knn") / engine_total,
    );
    r.metric("traj_query.result_ids", ids as f64);
    r.count("serve.result_ids", ids);

    // The same requests served in-process, with the options shardd uses.
    let server = Server::start(
        TrajDb::from_store(db.to_store(), DbOptions::new()),
        "127.0.0.1:0",
        ServeOptions::batched(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let served = closed_loop(
        crate::common::CLIENTS,
        (ctx.seconds / 4.0).max(1.0),
        pool.len(),
        || Client::connect(addr).expect("connect"),
        |c, i| {
            c.execute_batch(&pool[i])
                .map(|_| true)
                .map_err(|e| e.to_string())
        },
    );
    let stats = server.stats();
    server.shutdown();
    r.attempted += served.attempted;
    r.failed += served.errors;
    let codec_s = ["wire.encode_request", "wire.decode_request"]
        .iter()
        .chain(["wire.encode_response", "wire.decode_response"].iter())
        .map(|s| tr.mean(s))
        .sum::<f64>();
    let inside_ms = (tr.mean("traj_query.execute_batch") + codec_s) * 1e3;
    r.metric(
        "server.outside_engine_share",
        1.0 - inside_ms / served.latencies.mean(),
    );
    r.metric("server.mean_coalesced_batch", stats.mean_batch_size());

    r.notes.push(format!(
        "roadmap: share of served time outside the engine = {:.3} (served mean {:.3} ms, engine+codec {:.3} ms)",
        1.0 - inside_ms / served.latencies.mean(),
        served.latencies.mean(),
        inside_ms
    ));
    r.notes.push(format!(
        "roadmap: kNN share of engine time = {:.3}; per-kind cost range {:.1} us, knn {:.1} us, similarity {:.1} us",
        tr.total("traj_query.knn") / engine_total,
        tr.mean("traj_query.range") * 1e6,
        tr.mean("traj_query.knn") * 1e6,
        tr.mean("traj_query.similarity") * 1e6
    ));
    tr.finish(&mut r, "serve");
    r
}
