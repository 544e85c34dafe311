//! Multi-threaded TCP server fronting one shared [`TrajDb`].
//!
//! One listener thread accepts connections; each connection gets a
//! handler thread that reads framed requests and writes framed
//! responses. What happens *between* read and write is the point of
//! this module — the [`ExecutionMode`]:
//!
//! - [`ExecutionMode::PerRequest`] is the naive architecture: every
//!   request runs its own engine pass on a freshly spawned thread
//!   (thread-per-request). Request count × (spawn + schedule + join)
//!   overhead, and no work sharing between concurrent requests.
//! - [`ExecutionMode::Batched`] hands each request to the crate's one
//!   admission queue (the same one behind
//!   [`SharedCoordinator`](crate::SharedCoordinator)): a small pool of
//!   persistent executor threads coalesces everything that arrived
//!   concurrently — across *all* connections — into one heterogeneous
//!   [`QueryBatch`] executed in a single work-stealing `execute_batch`
//!   pass. A bounded batch size and a microsecond-scale linger window
//!   trade a little queueing delay for much better per-query overhead;
//!   results are routed back to each waiting connection in submission
//!   order.
//!
//! The database is opened once and shared immutably (`TrajDb` is
//! `Send + Sync`; the static assertion below keeps that honest), so
//! every layout the façade auto-detects — CSV, snapshot, quantized
//! snapshot, shard directory — serves over the wire unchanged.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use traj_query::{
    DbOptions, GenerationalDb, IngestReport, QueryBatch, QueryExecutor, QueryResult, TrajDb,
    TrajDbError,
};
use trajectory::Trajectory;

use crate::admission::{split, Admission};
use crate::wire::{
    read_message, write_message, IngestAck, Message, ShardInfo, ShardResult, WireError,
};

// The database must stay shareable across connection handler threads;
// if a future backend loses Send/Sync this fails to compile right here
// instead of deep inside a thread spawn.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TrajDb>();
    assert_send_sync::<ServeDb>();
};

/// Error code sent to clients when their frame could not be decoded.
pub const ERR_BAD_REQUEST: u16 = 1;
/// Error code sent to clients when the message kind is not a request.
pub const ERR_NOT_A_REQUEST: u16 = 2;
/// Error code sent to clients that send `Ingest` to a server fronting
/// an immutable snapshot (no WAL-backed delta store to append to).
pub const ERR_READ_ONLY: u16 = 3;
/// Error code sent when a live server's ingest failed durably (WAL
/// write or sync error); nothing from the batch was acknowledged.
pub const ERR_INGEST_FAILED: u16 = 4;

/// The database behind a server: either an immutable snapshot-backed
/// [`TrajDb`] (queries only) or a live, WAL-backed [`GenerationalDb`]
/// that additionally accepts `Ingest` frames concurrently with queries.
///
/// `From` impls let [`Server::start`] take either directly, so existing
/// `Server::start(db, …)` call sites keep compiling.
pub enum ServeDb {
    /// Read-only store; `Ingest` frames are answered with
    /// [`ERR_READ_ONLY`].
    Static(TrajDb),
    /// Live generational database: writes are WAL-durable and visible
    /// to queries before the ack frame goes out.
    Live(Arc<GenerationalDb>),
}

impl From<TrajDb> for ServeDb {
    fn from(db: TrajDb) -> ServeDb {
        ServeDb::Static(db)
    }
}

impl From<Arc<GenerationalDb>> for ServeDb {
    fn from(db: Arc<GenerationalDb>) -> ServeDb {
        ServeDb::Live(db)
    }
}

impl From<GenerationalDb> for ServeDb {
    fn from(db: GenerationalDb) -> ServeDb {
        ServeDb::Live(Arc::new(db))
    }
}

impl ServeDb {
    /// The read-path executor — both layouts serve the identical
    /// [`QueryExecutor`] surface.
    fn executor(&self) -> &dyn QueryExecutor {
        match self {
            ServeDb::Static(db) => db,
            ServeDb::Live(db) => db.as_ref(),
        }
    }

    /// Smallest cube covering every served point (for the handshake).
    fn bounding_cube(&self) -> trajectory::Cube {
        match self {
            ServeDb::Static(db) => db.bounding_cube(),
            ServeDb::Live(db) => db.bounding_cube(),
        }
    }

    /// Appends a batch: `None` when this database is read-only,
    /// otherwise the delta store's report (or the I/O error).
    fn ingest(&self, trajs: &[Trajectory]) -> Option<std::io::Result<IngestReport>> {
        match self {
            ServeDb::Static(_) => None,
            ServeDb::Live(db) => Some(db.ingest(trajs)),
        }
    }
}

/// Tuning for [`ExecutionMode::Batched`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum queries coalesced into one engine pass. Whole requests
    /// are never split, so one oversized request still executes alone.
    pub max_queries: usize,
    /// How long an executor waits for more queries to arrive after the
    /// first one. Microsecond-scale: bounds added latency while letting
    /// genuinely concurrent arrivals coalesce.
    pub linger: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_queries: 256,
            linger: Duration::from_micros(100),
        }
    }
}

/// How the server turns admitted requests into engine passes.
#[derive(Debug, Clone, Copy)]
pub enum ExecutionMode {
    /// One freshly spawned engine pass per request (the naive
    /// thread-per-request baseline the batched mode is measured
    /// against).
    PerRequest,
    /// Admission queue + persistent executors coalescing concurrent
    /// requests into shared engine passes.
    Batched(BatchConfig),
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Execution mode (default: batched with [`BatchConfig::default`]).
    pub mode: ExecutionMode,
    /// Executor threads draining the admission queue in batched mode
    /// (ignored in per-request mode). Usually 1: each pass is already
    /// internally parallel via the engine's work-stealing `par_map`.
    pub executors: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            mode: ExecutionMode::Batched(BatchConfig::default()),
            executors: 1,
        }
    }
}

impl ServeOptions {
    /// Batched admission with default tuning.
    #[must_use]
    pub fn batched() -> Self {
        ServeOptions::default()
    }

    /// The naive per-request baseline.
    #[must_use]
    pub fn per_request() -> Self {
        ServeOptions {
            mode: ExecutionMode::PerRequest,
            ..ServeOptions::default()
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Requests answered (any mode).
    pub requests: u64,
    /// Queries executed (any mode).
    pub queries: u64,
    /// Engine passes run by batched executors.
    pub batches: u64,
    /// Queries that went through batched passes.
    pub batched_queries: u64,
    /// Ingest frames answered with an ack (live servers only).
    pub ingests: u64,
    /// Trajectories accepted across all acked ingest frames.
    pub ingested_trajs: u64,
}

impl ServerStats {
    /// Mean queries per batched engine pass (0 when none ran).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_queries as f64 / self.batches as f64
        }
    }
}

struct Shared {
    db: Arc<ServeDb>,
    /// `Some` in batched mode.
    admission: Option<Admission<Vec<QueryResult>>>,
    shutting_down: AtomicBool,
    requests: AtomicU64,
    queries: AtomicU64,
    ingests: AtomicU64,
    ingested_trajs: AtomicU64,
    conns: Mutex<Vec<TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running wire-format query server. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    done: bool,
}

impl Server {
    /// Opens the store at `path` (CSV / snapshot / quantized snapshot /
    /// shard directory, auto-detected by [`TrajDb::open`]) and serves
    /// it on `addr`.
    pub fn open(
        path: impl AsRef<Path>,
        db_opts: DbOptions,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> Result<Server, TrajDbError> {
        let db = TrajDb::open(path, db_opts)?;
        Server::start(db, addr, opts).map_err(TrajDbError::Io)
    }

    /// Starts serving an already-open database on `addr`. Accepts an
    /// immutable [`TrajDb`] or a live [`GenerationalDb`] (see
    /// [`ServeDb`]). Bind to port 0 to let the OS pick;
    /// [`Server::local_addr`] reports the result.
    pub fn start(
        db: impl Into<ServeDb>,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let db = Arc::new(db.into());
        let admission = match opts.mode {
            ExecutionMode::PerRequest => None,
            ExecutionMode::Batched(cfg) => {
                let db = Arc::clone(&db);
                Some(Admission::start(cfg, opts.executors, move |batch, lens| {
                    split(db.executor().execute_batch(batch), lens)
                }))
            }
        };
        let shared = Arc::new(Shared {
            db,
            admission,
            shutting_down: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            ingests: AtomicU64::new(0),
            ingested_trajs: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));

        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            done: false,
        })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let admission = self.shared.admission.as_ref();
        ServerStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            batches: admission.map_or(0, Admission::passes),
            batched_queries: admission.map_or(0, Admission::queries),
            ingests: self.shared.ingests.load(Ordering::Relaxed),
            ingested_trajs: self.shared.ingested_trajs.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, closes every connection, drains the executors,
    /// and joins all threads. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Answer every admitted request and refuse later ones, so no
        // handler is left waiting on an executor.
        if let Some(admission) = &self.shared.admission {
            admission.shutdown();
        }
        // Unblock handler threads blocked in read_message.
        for conn in self.shared.conns.lock().expect("conns lock").iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect("handlers lock"));
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push(clone);
        }
        let handler_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || handle_connection(stream, &handler_shared));
        shared.handlers.lock().expect("handlers lock").push(handle);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    serve_connection(&mut stream, shared);
    // The conns registry holds a duplicate fd for this socket, so merely
    // dropping our handle would not send FIN; shut the socket itself
    // down so the peer sees end-of-stream.
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection(stream: &mut TcpStream, shared: &Arc<Shared>) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let reply = match read_message(stream) {
            Ok(Some(Message::Request(batch))) => match execute(shared, batch) {
                Some(results) => Message::Response(results),
                // The admission queue closed: the server is shutting down.
                None => return,
            },
            // Distributed-serving frames bypass the admission queue:
            // the coordinator already batches per shard, and shard
            // results (scored kNN candidates, raw local hits) are not
            // the per-query results the admission passes route.
            Ok(Some(Message::Hello)) => {
                // Bounds come from the decoded store, so for quantized
                // snapshots they match the manifest's `bounds=` lines
                // bitwise (both are computed post-decode).
                let db = shared.db.executor();
                let bounds = (db.total_points() > 0).then(|| shared.db.bounding_cube());
                Message::ShardInfo(ShardInfo {
                    trajs: db.len() as u64,
                    points: db.total_points() as u64,
                    has_kept: db.has_kept_bitmap(),
                    bounds,
                })
            }
            Ok(Some(Message::ShardRequest { id, batch })) => {
                shared
                    .queries
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                Message::ShardResponse {
                    id,
                    results: execute_shard_batch(shared.db.executor(), &batch),
                }
            }
            // Writes bypass the admission queue: the delta store already
            // coalesces a whole frame into one WAL sync, and an ack must
            // not wait behind a read linger window.
            Ok(Some(Message::Ingest(trajs))) => match shared.db.ingest(&trajs) {
                None => Message::Error {
                    code: ERR_READ_ONLY,
                    message: "server fronts an immutable snapshot; ingest needs a live database"
                        .to_owned(),
                },
                Some(Ok(report)) => {
                    shared.ingests.fetch_add(1, Ordering::Relaxed);
                    shared
                        .ingested_trajs
                        .fetch_add(u64::from(report.accepted), Ordering::Relaxed);
                    Message::IngestAck(IngestAck {
                        accepted: report.accepted,
                        rejected: report.rejected,
                        first_id: report.first_id,
                        total_trajs: report.total_trajs,
                        total_points: report.total_points,
                    })
                }
                Some(Err(e)) => Message::Error {
                    code: ERR_INGEST_FAILED,
                    message: e.to_string(),
                },
            },
            Ok(Some(_)) => {
                // A server only accepts request-side frames; anything
                // else ends the conversation after a typed error frame.
                let _ = write_message(
                    stream,
                    &Message::Error {
                        code: ERR_NOT_A_REQUEST,
                        message: "expected a request frame".to_owned(),
                    },
                );
                return;
            }
            Ok(None) | Err(WireError::Io(_)) => return,
            Err(e) => {
                // Corrupt frame. The stream may be desynchronized, so
                // answer with a typed error and close.
                let _ = write_message(
                    stream,
                    &Message::Error {
                        code: ERR_BAD_REQUEST,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        if write_message(stream, &reply).is_err() {
            return;
        }
        let _ = stream.flush();
    }
}

/// Executes a batch as one *shard* of a distributed database: one
/// [`QueryExecutor::execute_part`] per query — raw merge material in
/// the database's own ids, no kNN infinite-fill. Every layout answers
/// this way (a single store, an in-process sharded database, a live
/// base + delta database); the coordinator maps the ids through its
/// placement and runs the shared merge, and the equivalence suite pins
/// the two paths byte-identical.
#[must_use]
pub fn execute_shard_batch(db: &dyn QueryExecutor, batch: &QueryBatch) -> Vec<ShardResult> {
    batch.queries().iter().map(|q| db.execute_part(q)).collect()
}

fn execute(shared: &Arc<Shared>, batch: QueryBatch) -> Option<Vec<QueryResult>> {
    shared
        .queries
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    match &shared.admission {
        Some(admission) => admission.submit(batch.into_queries()),
        None => {
            // The naive baseline: a dedicated engine pass on its own
            // freshly spawned thread, per request.
            let db = Arc::clone(&shared.db);
            Some(
                std::thread::spawn(move || db.executor().execute_batch(&batch))
                    .join()
                    .expect("per-request engine pass panicked"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ClientConfig, WireError};
    use traj_query::{Dissimilarity, KnnQuery, Query, SimilarityQuery, T2vecEmbedder};
    use trajectory::{Point, TrajectoryDb};

    fn hour(y: f64) -> Trajectory {
        Trajectory::new(
            (0..=60)
                .map(|i| Point::new(i as f64 * 100.0, y, i as f64 * 60.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn nanosecond_similarity_step_is_answered_over_the_wire() {
        let db = TrajDb::from_db(
            &TrajectoryDb::new(vec![hour(3.0), hour(100.0)]),
            DbOptions::new(),
        );
        let server = Server::start(db, "127.0.0.1:0", ServeOptions::batched()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let similarity = Query::Similarity(SimilarityQuery {
            query: hour(0.0),
            ts: 0.0,
            te: 3_600.0,
            delta: 5.0,
            step: 1e-9,
        });
        assert_eq!(
            client.execute(&similarity).unwrap(),
            QueryResult::Similarity(vec![0])
        );
        // The server is still healthy afterwards.
        let range = Query::Range(trajectory::Cube::new(0.0, 50.0, 0.0, 50.0, 0.0, 60.0));
        assert_eq!(client.execute(&range).unwrap(), QueryResult::Range(vec![0]));
        server.shutdown();
    }

    #[test]
    fn zero_dimension_t2vec_knn_gets_a_typed_error_and_the_server_keeps_serving() {
        let db = TrajDb::from_db(
            &TrajectoryDb::new(vec![hour(3.0), hour(100.0)]),
            DbOptions::new(),
        );
        let server = Server::start(db, "127.0.0.1:0", ServeOptions::batched()).unwrap();
        let cfg = ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
        };
        let mut client = Client::connect_with(server.local_addr(), &cfg).unwrap();
        let knn = Query::Knn(KnnQuery {
            query: hour(0.0),
            ts: 0.0,
            te: 3_600.0,
            k: 1,
            measure: Dissimilarity::T2vec(T2vecEmbedder {
                cell_size: 250.0,
                dim: 0,
            }),
        });
        match client.execute(&knn) {
            Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_BAD_REQUEST),
            other => panic!("expected a typed bad-request error, got {other:?}"),
        }
        // The executor survived: a healthy query on a new connection
        // still answers.
        let mut client = Client::connect_with(server.local_addr(), &cfg).unwrap();
        let range = Query::Range(trajectory::Cube::new(0.0, 50.0, 0.0, 50.0, 0.0, 60.0));
        assert_eq!(client.execute(&range).unwrap(), QueryResult::Range(vec![0]));
        server.shutdown();
    }
}
