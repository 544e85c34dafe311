//! `live`: the set as a pre-created generation 0 served by
//! `shardd --live --sed-eps 25`. One writer sends 8-trajectory `Ingest`
//! frames in an open loop at 50 frames/s while one reader runs a closed
//! loop of 32-query requests; the background compactor folds the delta
//! several times per run. Afterwards the server is SIGKILLed and the
//! directory reopened to check that every acknowledged trajectory
//! survived (a process-crash check, not a power-loss check).

use std::path::Path;
use std::time::{Duration, Instant};

use traj_query::{
    DbOptions, GenerationalDb, QueryBatch, QueryExecutor, QueryResult, SimpFactory, TrajDb,
};
use traj_serve::{Client, IngestAck};
use traj_simp::OnePassSed;
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{DeltaStore, Trajectory, TrajectoryDb};

use crate::common::{
    closed_loop, dataset, range_knn_f1, request_pool, timed_setups, Latencies, Scratch, Shardd,
    SETUPS,
};
use crate::trace::{with_overhead, Tracer, ROUNDS};
use crate::{Ctx, Report};

const SED_EPS: f64 = 25.0;
const FRAME_TRAJS: usize = 8;
const FRAMES_PER_S: f64 = 50.0;
/// Delta points that trigger a compaction: a few compactions per run.
const COMPACT_POINTS: usize = 20_000;
/// Requests of the pool scored for F1 after the run.
const F1_REQUESTS: usize = 128;

fn factory() -> SimpFactory {
    Box::new(|| Box::new(OnePassSed::new(SED_EPS)))
}

/// The frames one run ingests: trips of 25 points on average (a device's
/// last hour or so at T-Drive's sampling) over the same city as the base
/// set, drawn from the run seed.
fn frames(seed: u64, seconds: f64) -> Vec<Vec<Trajectory>> {
    let n = (seconds * FRAMES_PER_S).ceil() as usize;
    let mut spec = DatasetSpec::tdrive(Scale::Small).with_trajectories(n * FRAME_TRAJS);
    spec.mean_len = 25;
    let db = generate(&spec, seed ^ 0x5eed_1e57);
    db.trajectories()
        .chunks(FRAME_TRAJS)
        .map(<[Trajectory]>::to_vec)
        .collect()
}

pub fn run(ctx: &Ctx) -> Report {
    let scratch = Scratch::new("live");
    let ((db, server, dir), setup_s) = timed_setups(SETUPS, |i| {
        let db = dataset();
        let dir = scratch.path(&format!("live-{i}"));
        drop(
            GenerationalDb::create(&dir, &db.to_store(), DbOptions::new(), factory())
                .expect("create live directory"),
        );
        let args = vec![
            "--live".to_string(),
            dir.display().to_string(),
            "--sed-eps".to_string(),
            SED_EPS.to_string(),
            "--compact-points".to_string(),
            COMPACT_POINTS.to_string(),
        ];
        let server = Shardd::spawn_all(&ctx.shardd, &[args]).remove(0);
        (db, server, dir)
    });
    let pool = request_pool(&db, ctx.seed);
    let frames = frames(ctx.seed, ctx.seconds);

    let addr = server.addr.as_str();
    let interval = Duration::from_secs_f64(1.0 / FRAMES_PER_S);
    // The writer's schedule and the reader's loop both last `seconds`.
    let (acks, ingest, late_ms, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut client = Client::connect(addr).expect("connect writer");
            let mut acks: Vec<Option<IngestAck>> = Vec::with_capacity(frames.len());
            let mut ingest = Latencies::default();
            let mut late = 0f64;
            let start = Instant::now();
            for (k, frame) in frames.iter().enumerate() {
                let due = start + interval * k as u32;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late = late.max(due.elapsed().as_secs_f64() * 1e3);
                let ack = client.ingest(frame);
                // Timed from when the frame was due, so a stall also
                // counts against the frames queued behind it.
                ingest.push_since(due);
                acks.push(ack.map_err(|e| eprintln!("ingest failed: {e}")).ok());
            }
            (acks, ingest, late)
        });
        let reads = closed_loop(
            1,
            ctx.seconds,
            pool.len(),
            || Client::connect(addr).expect("connect reader"),
            |c, i| {
                c.execute_batch(&pool[i])
                    .map(|_| true)
                    .map_err(|e| e.to_string())
            },
        );
        let (acks, ingest, late) = writer.join().expect("writer panicked");
        (acks, ingest, late, reads)
    });

    let rss = server.peak_rss_mb();
    server.kill();

    let mut r = Report::new();
    r.attempted = frames.len() as u64 + reads.attempted;
    r.failed = reads.errors + acks.iter().filter(|a| a.is_none()).count() as u64;

    // Durability: every acknowledged trajectory must be in the reopened
    // directory, exactly as the online simplifier admitted it.
    let reopened = GenerationalDb::open(&dir, DbOptions::new(), factory()).expect("reopen");
    let mut acked = 0u64;
    let mut recovered = 0u64;
    let mut raw_acked: Vec<(usize, Trajectory)> = Vec::new();
    for (frame, ack) in frames.iter().zip(&acks) {
        let Some(ack) = ack else { continue };
        acked += u64::from(ack.accepted);
        if ack.rejected > 0 || ack.accepted as usize != frame.len() {
            r.check(false, format!("frame partly rejected: {ack:?}"));
            continue;
        }
        let first = ack.first_id.expect("accepted frames carry an id");
        for (j, t) in frame.iter().enumerate() {
            let expected = OnePassSed::new(SED_EPS).simplify(t.points());
            if first + j < reopened.len() && reopened.trajectory(first + j).points() == expected {
                recovered += 1;
            }
            raw_acked.push((first + j, t.clone()));
        }
    }
    r.check(
        recovered == acked,
        format!("{acked} trajectories acknowledged, {recovered} recovered after SIGKILL"),
    );

    // F1 of the served database (base + online-simplified ingests)
    // against the same data kept raw.
    raw_acked.sort_by_key(|(id, _)| *id);
    let mut truth_trajs = db.trajectories().to_vec();
    truth_trajs.extend(raw_acked.into_iter().map(|(_, t)| t));
    let truth_db = TrajDb::from_db(&TrajectoryDb::new(truth_trajs), DbOptions::new());
    let scored = &pool[..F1_REQUESTS];
    let queries: Vec<_> = scored.iter().flat_map(|b| b.queries().to_vec()).collect();
    let truth: Vec<QueryResult> = scored
        .iter()
        .flat_map(|b| truth_db.execute_batch(b))
        .collect();
    let got: Vec<QueryResult> = scored
        .iter()
        .flat_map(|b| reopened.execute_batch(b))
        .collect();
    let (range_f1, knn_f1) = range_knn_f1(&queries, &truth, &got);

    r.metric("setup_s", setup_s);
    r.metric("rss_mb", rss);
    reads.report_reads(&mut r, pool[0].len());
    r.metric("range_f1", range_f1);
    r.metric("knn_f1", knn_f1);
    r.extra("ingest_p50_ms", ingest.percentile(0.50), "ms");
    r.extra("ingest_p99_ms", ingest.percentile(0.99), "ms");
    r.extra("ingest_generator_max_late_ms", late_ms, "ms");
    r.extra("compactions", reopened.generation() as f64, "count");
    r.notes.push(format!(
        "live: {} frames of {} trajectories at {} frames/s (open loop), {} reads of {} queries (closed loop, 1 connection)",
        frames.len(),
        FRAME_TRAJS,
        FRAMES_PER_S,
        reads.latencies.len(),
        pool[0].len()
    ));
    r.notes.push(format!(
        "durability after SIGKILL: {acked} trajectories acknowledged, {recovered} recovered"
    ));
    r.count("live.frames", frames.len() as u64);
    r.count("live.trajs_acked", acked);
    r.count("live.trajs_recovered", recovered);
    r
}

/// Ingests every frame into an in-process live database, reading one
/// pool request every few frames and compacting at the shardd
/// threshold. Returns the wall time and, per compaction, the bytes of
/// the snapshot it wrote.
fn ingest_pass(
    tr: &mut Tracer,
    dir: &Path,
    base: &TrajectoryDb,
    frames: &[Vec<Trajectory>],
    pool: &[QueryBatch],
) -> (f64, Vec<u64>, u64) {
    let gdb = GenerationalDb::create(dir, &base.to_store(), DbOptions::new(), factory())
        .expect("create live directory");
    let mut written = Vec::new();
    let mut acked = 0u64;
    let started = Instant::now();
    for (k, frame) in frames.iter().enumerate() {
        let req = k as u64 + 1;
        let report = tr.time("generational.ingest", req, 0, || gdb.ingest(frame));
        acked += report.map_or(0, |r| u64::from(r.accepted));
        if k % 5 == 4 {
            let b = &pool[k / 5 % pool.len()];
            std::hint::black_box(tr.time("generational.execute_batch", req, 0, || {
                gdb.execute_batch(b)
            }));
        }
        if gdb.delta_points() >= COMPACT_POINTS {
            let rep = tr.time("generational.compact", req, 0, || gdb.compact());
            if rep.is_ok() {
                let snap = dir.join(format!("gen-{:06}.snap", gdb.generation()));
                written.push(std::fs::metadata(snap).map_or(0, |m| m.len()));
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    drop(gdb);
    let _ = std::fs::remove_dir_all(dir);
    (wall, written, acked)
}

pub fn trace(ctx: &Ctx) -> Report {
    let mut r = Report::new();
    let scratch = Scratch::new("live-trace");
    let db = dataset();
    let pool = request_pool(&db, ctx.seed);
    let frames = frames(ctx.seed, ctx.seconds);
    let raw = frames.iter().flatten().map(Trajectory::len).sum::<usize>() as f64;
    let mut tr = Tracer::new(true);

    for t in frames.iter().flatten() {
        std::hint::black_box(tr.time("traj_simp.onepass", 0, 0, || {
            OnePassSed::new(SED_EPS).simplify(t.points())
        }));
    }
    r.metric(
        "traj_simp.onepass_ns_per_point",
        tr.total("traj_simp.onepass") * 1e9 / raw,
    );

    let mut delta = DeltaStore::create(
        scratch.path("scratch.wal"),
        Box::new(OnePassSed::new(SED_EPS)),
    )
    .expect("create scratch WAL");
    for (k, frame) in frames.iter().enumerate() {
        let req = k as u64 + 1;
        tr.time("trajectory.delta_append", req, 0, || {
            for t in frame {
                delta.push_traj(t.points()).expect("WAL append");
            }
        });
        tr.time("trajectory.delta_fsync", req, 0, || {
            delta.sync().expect("WAL sync")
        });
    }
    drop(delta);
    r.metric(
        "trajectory.delta_append_us_per_point",
        tr.total("trajectory.delta_append") * 1e6 / raw,
    );
    r.metric(
        "trajectory.delta_fsync_ms",
        tr.mean("trajectory.delta_fsync") * 1e3,
    );

    let (mut passes, mut short) = (0, 0);
    let (written, acked) = with_overhead(&mut r, &mut tr, "trace.overhead.live", ROUNDS, |t| {
        passes += 1;
        let dir = scratch.path(&format!("pass-{passes}"));
        let (wall, written, acked) = ingest_pass(t, &dir, &db, &frames, &pool);
        short += u64::from(acked != (frames.len() * FRAME_TRAJS) as u64);
        (wall, (written, acked))
    });
    r.attempted = passes as u64 * frames.len() as u64;
    r.check(
        short == 0,
        format!("{short} in-process ingest passes lost trajectories"),
    );
    r.metric(
        "generational.ingest_ms",
        tr.mean("generational.ingest") * 1e3,
    );
    let merged = Latencies(
        tr.durations("generational.execute_batch")
            .iter()
            .map(|s| s * 1e3)
            .collect(),
    );
    r.metric("generational.merged_batch_ms", merged.percentile(0.5));
    r.metric(
        "generational.compact_ms",
        tr.mean("generational.compact") * 1e3,
    );
    r.metric("generational.compactions", written.len() as f64);
    r.metric(
        "generational.bytes_rewritten_per_ingested_byte",
        written.iter().sum::<u64>() as f64 / (raw * 24.0),
    );
    r.metric("generational.trajs_acked", acked as f64);
    r.count("live.trajs_acked", acked);
    r.count("live.compactions", written.len() as u64);
    tr.finish(&mut r, "live");
    r
}
