//! `snapshot` / `serve`: persist a trajectory database once, then serve
//! queries straight from the mapped file(s).
//!
//! ```text
//! snapshot_serve snapshot [--csv FILE] [--out FILE.snap|DIR] [--scale smoke|small|paper]
//!                         [--ratio R] [--quantize E] [--seed N]
//!                         [--shards N] [--partition grid|time|hash]
//! snapshot_serve serve    [--snap FILE.snap|DIR] [--queries N] [--seed N]
//! ```
//!
//! With `--shards N` the snapshot task writes a *sharded* database: a
//! directory of per-shard snapshot files plus a manifest, partitioned by
//! `--partition` (default `hash`). The serve task opens whatever is at
//! `--snap` through `TrajDb::open`, which auto-detects the layout — a
//! shard directory fans out through the sharded engine (per-shard
//! indexes built in parallel over the mappings), a snapshot file serves
//! zero-copy through the single engine, and a raw CSV parses into owned
//! columns — then executes a mixed range+kNN+similarity workload as one
//! heterogeneous batch.
//!
//! With `--quantize E` the snapshot task writes the coordinate columns
//! through the delta + uniform-quantization codec with max absolute
//! error `E` (metres/seconds in the raw units of each column). The serve
//! task needs no flag: `TrajDb::open` decodes quantized sections
//! transparently.
//!
//! With `--wire` the serve task runs the same mixed workload over the
//! framed TCP protocol instead of in-process: a loopback `traj-serve`
//! server with batched admission, `--clients N` concurrent connections
//! splitting the workload, and coalescing stats in the report.
//!
//! With `--cluster` (shard directories only) the serve task distributes
//! the workload instead: one loopback wire server per shard snapshot, a
//! coordinator fanning the batch out and merging globally, and a
//! cross-check that the distributed results match in-process execution
//! exactly.
//!
//! The `live` task exercises the ingestion layer end to end: a
//! generational database (WAL + snapshot generations in `--dir`; by
//! default a fresh per-process directory under the system temp dir) behind
//! a live wire server, `--batches` ingest round-trips, a range workload
//! over the merged base+delta view, and a compaction fold cross-checked
//! for answer stability.

use std::path::PathBuf;

use qdts_eval::serving::{
    cluster_serve_task, live_serve_task, serve_task, shard_snapshot_task, snapshot_task,
    wire_serve_task, SnapshotSource,
};
use trajectory::gen::Scale;
use trajectory::shard::PartitionStrategy;

fn usage() -> ! {
    eprintln!(
        "usage:\n  snapshot_serve snapshot [--csv FILE] [--out FILE.snap|DIR] \
         [--scale smoke|small|paper] [--ratio R] [--quantize E] [--seed N] \
         [--shards N] [--partition grid|time|hash]\n  \
         snapshot_serve serve [--snap FILE.snap|DIR] [--queries N] [--seed N] \
         [--wire] [--clients N] [--cluster]\n  \
         snapshot_serve live [--dir DIR] [--queries N] [--batches N] [--seed N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let task = args.next().unwrap_or_else(|| usage());
    let rest: Vec<String> = args.collect();
    let result = match task.as_str() {
        "snapshot" => run_snapshot(&rest),
        "serve" => run_serve(&rest),
        "live" => run_live(&rest),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn flag_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

/// Resolves `--shards` / `--partition` into a strategy (hash by default).
fn partition_strategy(
    rest: &[String],
    shards: usize,
) -> Result<PartitionStrategy, Box<dyn std::error::Error>> {
    Ok(match flag_value(rest, "--partition").unwrap_or("hash") {
        "grid" => PartitionStrategy::grid_for(shards),
        "time" => PartitionStrategy::Time { parts: shards },
        "hash" => PartitionStrategy::Hash { parts: shards },
        other => return Err(format!("unknown partition strategy: {other}").into()),
    })
}

fn run_snapshot(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = flag_value(rest, "--seed").unwrap_or("42").parse()?;
    let ratio: Option<f64> = flag_value(rest, "--ratio").map(str::parse).transpose()?;
    let shards: Option<usize> = flag_value(rest, "--shards").map(str::parse).transpose()?;
    let quantize: Option<f64> = flag_value(rest, "--quantize").map(str::parse).transpose()?;
    let source = match flag_value(rest, "--csv") {
        Some(csv) => SnapshotSource::Csv(PathBuf::from(csv)),
        None => {
            let scale: Scale = flag_value(rest, "--scale").unwrap_or("small").parse()?;
            SnapshotSource::Synthetic(scale)
        }
    };

    if let Some(shards) = shards {
        let out = PathBuf::from(flag_value(rest, "--out").unwrap_or("db.shards"));
        let strategy = partition_strategy(rest, shards)?;
        let r = shard_snapshot_task(&source, &strategy, ratio, quantize, &out, seed)?;
        println!("== sharded snapshot task ==");
        println!(
            "ingested  {} trajectories / {} points in {:.3}s",
            r.trajectories, r.points, r.ingest_seconds
        );
        println!(
            "partitioned into {} shards ({}) in {:.3}s",
            r.shards,
            strategy.label(),
            r.partition_seconds
        );
        if let Some(kept) = r.kept_points {
            println!(
                "simplified to {kept} kept points ({:.1}%) across shards in {:.3}s",
                100.0 * kept as f64 / r.points as f64,
                r.simplify_seconds
            );
        }
        println!(
            "wrote {} ({} snapshot bytes + manifest) in {:.3}s",
            out.display(),
            r.file_bytes,
            r.write_seconds
        );
        return Ok(());
    }

    let out = PathBuf::from(flag_value(rest, "--out").unwrap_or("db.snap"));
    let r = snapshot_task(&source, ratio, quantize, &out, seed)?;
    println!("== snapshot task ==");
    println!(
        "ingested  {} trajectories / {} points in {:.3}s",
        r.trajectories, r.points, r.ingest_seconds
    );
    if let Some(kept) = r.kept_points {
        println!(
            "simplified to {kept} kept points ({:.1}%) in {:.3}s",
            100.0 * kept as f64 / r.points as f64,
            r.simplify_seconds
        );
    }
    println!(
        "wrote {} ({} bytes) in {:.3}s",
        out.display(),
        r.file_bytes,
        r.write_seconds
    );
    Ok(())
}

fn run_live(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    // Default: a fresh per-process directory, so runs never litter the
    // working directory.
    let dir = flag_value(rest, "--dir").map_or_else(
        || std::env::temp_dir().join(format!("qdts-live-{}", std::process::id())),
        PathBuf::from,
    );
    let queries: usize = flag_value(rest, "--queries").unwrap_or("100").parse()?;
    let batches: usize = flag_value(rest, "--batches").unwrap_or("8").parse()?;
    let seed: u64 = flag_value(rest, "--seed").unwrap_or("42").parse()?;
    let r = live_serve_task(&dir, queries, batches, seed)?;
    println!("== live serve task ({}) ==", dir.display());
    println!(
        "base generation: {} trajectories (gen {})",
        r.base_trajectories, r.generation_before
    );
    println!(
        "ingested {} trajectories / {} points over the wire in {:.4}s \
         ({} acked batches, one WAL sync each)",
        r.ingested_trajectories, r.ingested_points, r.ingest_seconds, batches
    );
    println!(
        "{queries} range queries over the merged base+delta view in {:.4}s \
         ({} result ids, identical to in-process execution)",
        r.query_seconds, r.full_result_ids
    );
    println!(
        "compacted delta into generation {} (answers unchanged across the fold)",
        r.generation_after
    );
    Ok(())
}

fn run_serve(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let snap = PathBuf::from(flag_value(rest, "--snap").unwrap_or("db.snap"));
    let queries: usize = flag_value(rest, "--queries").unwrap_or("100").parse()?;
    let seed: u64 = flag_value(rest, "--seed").unwrap_or("42").parse()?;

    if rest.iter().any(|a| a == "--cluster") {
        let r = cluster_serve_task(&snap, queries, seed)?;
        println!("== cluster serve task ({}) ==", snap.display());
        println!(
            "{} shard servers / {} trajectories / {} points up in {:.4}s \
             (per-shard wire servers + coordinator handshakes)",
            r.shards, r.trajectories, r.points, r.open_seconds
        );
        println!(
            "distributed fan-out + merge in {:.4}s; {} result ids \
             (in-process cross-check: {} — identical)",
            r.serve_seconds, r.full_result_ids, r.in_process_result_ids
        );
        return Ok(());
    }

    if rest.iter().any(|a| a == "--wire") {
        let clients: usize = flag_value(rest, "--clients").unwrap_or("8").parse()?;
        let r = wire_serve_task(&snap, queries, clients, seed)?;
        println!("== wire serve task ({}) ==", snap.display());
        println!(
            "opened {} trajectories / {} points in {:.4}s (auto-detected layout)",
            r.trajectories, r.points, r.open_seconds
        );
        println!(
            "{} clients sent {} requests / {} queries over loopback in {:.4}s",
            r.clients, r.requests, r.queries, r.serve_seconds
        );
        println!(
            "admission coalesced them into {} engine passes (mean batch {:.1}); \
             {} result ids",
            r.batches, r.mean_batch, r.full_result_ids
        );
        return Ok(());
    }

    let r = serve_task(&snap, queries, seed)?;
    println!("== serve task ({}) ==", snap.display());
    if r.sharded {
        println!(
            "opened {} shards / {} trajectories / {} points in {:.4}s \
             (auto-detected shard set; mapped + parallel per-shard octrees)",
            r.shards, r.trajectories, r.points, r.open_seconds
        );
    } else {
        println!(
            "opened {} trajectories / {} points in {:.4}s (auto-detected layout)",
            r.trajectories, r.points, r.open_seconds
        );
    }
    let [n_range, n_knn, n_sim, _] = r.kind_counts;
    println!(
        "mixed batch ({n_range} range + {n_knn} knn + {n_sim} similarity) \
         in one pass: {:.4}s ({} result ids)",
        r.batch_seconds, r.full_result_ids
    );
    match r.simplified_batch_seconds {
        Some(s) => println!("{n_range} range queries on kept bitmap(s) (D') in {s:.4}s"),
        None => println!("no kept bitmap in source (full database only)"),
    }
    Ok(())
}
