//! What every workload shares: the dataset, the §III-B query mix, latency
//! summaries, `shardd` child processes, peak-RSS readings, F1 scoring and
//! the scratch directory.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_query::{
    f1_sets, mean_f1, range_workload, Dissimilarity, KnnQuery, Query, QueryBatch,
    QueryDistribution, QueryResult, RangeWorkloadSpec, SimilarityQuery,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::TrajectoryDb;

/// The repository's standard T-Drive-shaped set is generated with this
/// seed (348,916 points); the run seed drives everything drawn over it.
pub const DATA_SEED: u64 = 7;

/// Queries per read request on `simplify`, `serve` and `live`.
pub const QUERIES_PER_REQUEST: usize = 32;

/// Distinct read requests each run cycles through. Large enough that a
/// run repeats each a handful of times, small enough that the in-process
/// ground truth for all of them costs well under a second.
pub const REQUEST_POOL: usize = 256;

/// Distinct single-query requests on `cluster`.
pub const CLUSTER_POOL: usize = 2048;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Client threads and connections: at most the two cores of the machine
/// the bounds were fixed on, so the numbers measure the program rather
/// than the scheduler.
pub const CLIENTS: usize = 2;

pub fn dataset_spec() -> DatasetSpec {
    DatasetSpec::tdrive(Scale::Small).with_trajectories(1000)
}

pub fn dataset() -> TrajectoryDb {
    generate(&dataset_spec(), DATA_SEED)
}

/// The §III-B mix, deterministic in `seed`: 80% range (paper-default
/// 2 km × 7 day cubes anchored on data), 10% kNN (EDR ε = 2 km, k = 3,
/// 1 h window), 10% similarity (δ = 5 km, 10 min step, 1 h window).
pub fn query_mix(db: &TrajectoryDb, total: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = RangeWorkloadSpec::paper_default(total, QueryDistribution::Data);
    let cubes = range_workload(db, &spec, &mut rng);
    let bounds = db.bounding_cube();
    let window = 3_600.0;
    let mut queries = Vec::with_capacity(total);
    for (i, cube) in cubes.into_iter().enumerate() {
        let roll = i % 10;
        if roll < 8 {
            queries.push(Query::Range(cube));
            continue;
        }
        let traj = db.get(rng.gen_range(0..db.len())).clone();
        let ts = traj.points().first().map_or(bounds.t_min, |p| p.t);
        let te = (ts + window).min(bounds.t_max);
        queries.push(if roll == 8 {
            Query::Knn(KnnQuery {
                query: traj,
                ts,
                te,
                k: 3,
                measure: Dissimilarity::Edr { eps: 2_000.0 },
            })
        } else {
            Query::Similarity(SimilarityQuery {
                query: traj,
                ts,
                te,
                delta: 5_000.0,
                step: 600.0,
            })
        });
    }
    queries
}

/// The pool of 32-query read requests.
pub fn request_pool(db: &TrajectoryDb, seed: u64) -> Vec<QueryBatch> {
    query_mix(db, REQUEST_POOL * QUERIES_PER_REQUEST, seed)
        .chunks(QUERIES_PER_REQUEST)
        .map(|c| QueryBatch::from_queries(c.to_vec()))
        .collect()
}

/// Latency samples of one operation kind, in milliseconds.
#[derive(Default)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push_since(&mut self, t0: Instant) {
        self.0.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Nearest-rank percentile, `p` in (0, 1].
    pub fn percentile(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return f64::NAN;
        }
        let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx]
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len().max(1) as f64
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }
}

pub fn median(values: &[f64]) -> f64 {
    Latencies(values.to_vec()).percentile(0.5)
}

/// Mean F1 of the range and kNN answers in `got` against `truth`
/// (similarity F1 is left out: it reads 0.0 for every method at this
/// scale). Returns `(range_f1, knn_f1)`.
pub fn range_knn_f1(queries: &[Query], truth: &[QueryResult], got: &[QueryResult]) -> (f64, f64) {
    let mut range = Vec::new();
    let mut knn = Vec::new();
    for ((q, t), g) in queries.iter().zip(truth).zip(got) {
        let (Some(t), Some(g)) = (t.ids(), g.ids()) else {
            continue;
        };
        match q {
            Query::Range(_) => range.push(f1_sets(t, g)),
            Query::Knn(_) => knn.push(f1_sets(t, g)),
            _ => {}
        }
    }
    (mean_f1(&range), mean_f1(&knn))
}

/// Total ids across a set of answers: a deterministic work count.
pub fn result_ids(results: &[QueryResult]) -> u64 {
    results
        .iter()
        .map(|r| r.ids().map_or(0, <[_]>::len) as u64)
        .sum()
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A running `shardd`. Dropping it kills the process and waits for it,
/// so no child outlives the benchmark, even on a panic.
pub struct Shardd {
    child: Child,
    pub addr: String,
}

impl Shardd {
    /// Starts every server first and only then waits for the `READY`
    /// lines, so the servers load concurrently.
    pub fn spawn_all(shardd: &Path, arg_sets: &[Vec<String>]) -> Vec<Shardd> {
        // Wrapped before any READY wait, so a failure stops them all.
        let mut servers: Vec<Shardd> = arg_sets
            .iter()
            .map(|args| Shardd {
                child: Command::new(shardd)
                    .args(args)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .expect("spawn shardd"),
                addr: String::new(),
            })
            .collect();
        for s in &mut servers {
            let stdout = s.child.stdout.take().expect("piped stdout");
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read shardd READY line");
            s.addr = line
                .trim()
                .strip_prefix("READY ")
                .unwrap_or_else(|| panic!("shardd did not report READY: {line:?}"))
                .to_string();
        }
        servers
    }

    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }

    /// SIGKILL: the process gets no chance to flush or shut down.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Shardd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// This run's scratch directory under `.perfbench/` in the working
/// directory, removed when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let dir = PathBuf::from(".perfbench").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `setup` `n` times, keeping the last result; returns it with the
/// median wall time. Earlier results are dropped (servers stopped) before
/// the next set-up starts.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(i));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// What a closed loop did: per-request latencies with the time each
/// answer arrived, requests attempted, requests that errored, answers
/// that differed from the ground truth, and the loop's wall time.
#[derive(Default)]
pub struct LoopStats {
    pub latencies: Latencies,
    /// Seconds from the start of the loop to each answer in `latencies`.
    pub done_at: Vec<f64>,
    pub attempted: u64,
    pub errors: u64,
    pub mismatches: u64,
    pub elapsed_s: f64,
}

impl LoopStats {
    /// Adds the read metrics: `read_qps` (queries per second, each
    /// request carrying `queries_per_request`) and `read_p50_ms`, and the
    /// printed-only tail: `read_p95_ms` and `read_p99_ms` over all
    /// requests.
    pub fn report_reads(&self, r: &mut crate::Report, queries_per_request: usize) {
        let (rate, p50) = self.per_second();
        r.metric("read_qps", rate * queries_per_request as f64);
        r.metric("read_p50_ms", p50);
        r.extra("read_p95_ms", self.latencies.percentile(0.95), "ms");
        r.extra("read_p99_ms", self.latencies.percentile(0.99), "ms");
    }

    /// Requests per second and p50 latency (ms), each the median of its
    /// value over the run's one-second windows: a stall of the machine
    /// that covers a few windows moves the figures of those windows, not
    /// the median.
    pub fn per_second(&self) -> (f64, f64) {
        let windows = (self.elapsed_s.floor() as usize).max(1);
        let width = self.elapsed_s / windows as f64;
        let mut slices: Vec<Latencies> = (0..windows).map(|_| Latencies::default()).collect();
        for (&at, &ms) in self.done_at.iter().zip(&self.latencies.0) {
            slices[((at / width) as usize).min(windows - 1)].0.push(ms);
        }
        let rate: Vec<f64> = slices.iter().map(|s| s.len() as f64 / width).collect();
        let p50: Vec<f64> = slices
            .iter()
            .filter(|s| s.len() > 0)
            .map(|s| s.percentile(0.50))
            .collect();
        (median(&rate), median(&p50))
    }
}

/// Closed loop: `clients` threads, each with its own connection from
/// `connect`, send their next request only after the previous answer
/// arrived, for `seconds`. Thread `c` walks requests `c, c + clients, ...`
/// of a pool of `pool` requests, wrapping around. `call` returns whether
/// the answer was right, or an error.
pub fn closed_loop<C>(
    clients: usize,
    seconds: f64,
    pool: usize,
    connect: impl Fn() -> C + Sync,
    call: impl Fn(&mut C, usize) -> Result<bool, String> + Sync,
) -> LoopStats {
    let barrier = std::sync::Barrier::new(clients + 1);
    let (connect, call, barrier) = (&connect, &call, &barrier);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = connect();
                    let mut stats = LoopStats::default();
                    barrier.wait();
                    let start = Instant::now();
                    let run = std::time::Duration::from_secs_f64(seconds);
                    let mut i = c;
                    while start.elapsed() < run {
                        let t0 = Instant::now();
                        let outcome = call(&mut conn, i % pool);
                        stats.attempted += 1;
                        match outcome {
                            Ok(right) => {
                                stats.latencies.push_since(t0);
                                stats.done_at.push(start.elapsed().as_secs_f64());
                                stats.mismatches += u64::from(!right);
                            }
                            Err(e) => {
                                if stats.errors == 0 {
                                    eprintln!("request failed: {e}");
                                }
                                stats.errors += 1;
                            }
                        }
                        i += clients;
                    }
                    stats
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut total = LoopStats::default();
        for h in handles {
            let s = h.join().expect("client thread panicked");
            total.latencies.extend(s.latencies);
            total.done_at.extend(s.done_at);
            total.attempted += s.attempted;
            total.errors += s.errors;
            total.mismatches += s.mismatches;
        }
        total.elapsed_s = started.elapsed().as_secs_f64();
        total
    })
}
