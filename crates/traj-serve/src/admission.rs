//! The one admission queue behind both coalescing fronts: batched
//! [`Server`](crate::Server) mode and the
//! [`SharedCoordinator`](crate::SharedCoordinator).
//!
//! Executors wait for the first job, linger up to [`BatchConfig::linger`]
//! while fewer than [`BatchConfig::max_queries`] queries are queued, take
//! whole jobs up to that bound (always at least one), run the front's
//! *pass* once over the coalesced [`QueryBatch`], and route each job's
//! answer back in submission order. Closing is checked under the queue
//! lock, so a job is either refused or answered: executors drain the
//! queue before they exit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use traj_query::{Query, QueryBatch};

use crate::server::BatchConfig;

/// One admitted request waiting for a pass: its queries and the channel
/// its answer goes back on.
struct Job<R> {
    queries: Vec<Query>,
    reply: SyncSender<R>,
}

struct State<R> {
    jobs: VecDeque<Job<R>>,
    queued_queries: usize,
    closed: bool,
}

struct Queue<R> {
    state: Mutex<State<R>>,
    available: Condvar,
    passes: AtomicU64,
    queries: AtomicU64,
}

/// A coalescing admission queue whose executors answer each job with
/// one `R`.
pub(crate) struct Admission<R> {
    queue: Arc<Queue<R>>,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl<R: Send + 'static> Admission<R> {
    /// Spawns `executors` (at least one) threads draining the queue.
    /// `pass` runs one coalesced batch and returns one `R` per job,
    /// given each job's query count in submission order.
    pub(crate) fn start<F>(cfg: BatchConfig, executors: usize, pass: F) -> Admission<R>
    where
        F: Fn(&QueryBatch, &[usize]) -> Vec<R> + Send + Sync + 'static,
    {
        let queue = Arc::new(Queue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                queued_queries: 0,
                closed: false,
            }),
            available: Condvar::new(),
            passes: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        });
        let pass = Arc::new(pass);
        let executors = (0..executors.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let pass = Arc::clone(&pass);
                std::thread::spawn(move || drain(&queue, cfg, &*pass))
            })
            .collect();
        Admission {
            queue,
            executors: Mutex::new(executors),
        }
    }

    /// Queues a request and blocks until its answer comes back; `None`
    /// once the queue is closed.
    pub(crate) fn submit(&self, queries: Vec<Query>) -> Option<R> {
        let (tx, rx) = sync_channel(1);
        {
            let mut s = self.queue.state.lock().expect("admission lock");
            if s.closed {
                return None;
            }
            s.queued_queries += queries.len();
            s.jobs.push_back(Job { queries, reply: tx });
        }
        self.queue.available.notify_one();
        rx.recv().ok()
    }

    /// Coalesced passes run so far.
    pub(crate) fn passes(&self) -> u64 {
        self.queue.passes.load(Ordering::Relaxed)
    }

    /// Queries across all passes.
    pub(crate) fn queries(&self) -> u64 {
        self.queue.queries.load(Ordering::Relaxed)
    }
}

impl<R> Admission<R> {
    /// Closes the queue, lets the executors answer every job admitted
    /// before the close, and joins them. Idempotent; also runs on drop.
    pub(crate) fn shutdown(&self) {
        // Runs from `Drop`, so it must not panic on a poisoned lock;
        // setting the flag and taking the handles are valid either way.
        self.queue
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.queue.available.notify_all();
        let mut executors = self
            .executors
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for h in executors.drain(..) {
            let _ = h.join();
        }
    }
}

impl<R> Drop for Admission<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Splits a pass's per-query output into one `Vec` per job.
pub(crate) fn split<T>(items: impl IntoIterator<Item = T>, lens: &[usize]) -> Vec<Vec<T>> {
    let mut items = items.into_iter();
    lens.iter()
        .map(|&len| items.by_ref().take(len).collect())
        .collect()
}

/// One executor: wait, linger, take, run one pass, route the answers.
/// Returns once the queue is closed *and* empty.
fn drain<R>(queue: &Queue<R>, cfg: BatchConfig, pass: &dyn Fn(&QueryBatch, &[usize]) -> Vec<R>) {
    let max_queries = cfg.max_queries.max(1);
    loop {
        let jobs = {
            let mut s = queue.state.lock().expect("admission lock");
            // Wait for the first job (or a close with nothing left).
            while s.jobs.is_empty() {
                if s.closed {
                    return;
                }
                s = queue.available.wait(s).expect("admission lock");
            }
            // Linger: give concurrently arriving requests a short,
            // bounded window to join this pass.
            if !cfg.linger.is_zero() {
                let deadline = Instant::now() + cfg.linger;
                while s.queued_queries < max_queries && !s.closed {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    s = queue
                        .available
                        .wait_timeout(s, deadline - now)
                        .expect("admission lock")
                        .0;
                }
            }
            // Take whole jobs up to the batch bound (always at least
            // one, so an oversized request still executes — alone).
            let mut jobs: Vec<Job<R>> = Vec::new();
            let mut taken = 0usize;
            while let Some(job) = s.jobs.front() {
                if !jobs.is_empty() && taken + job.queries.len() > max_queries {
                    break;
                }
                taken += job.queries.len();
                jobs.push(s.jobs.pop_front().expect("front checked"));
            }
            s.queued_queries -= taken;
            jobs
        };
        // Another executor may have taken everything while we lingered.
        if jobs.is_empty() {
            continue;
        }

        let lens: Vec<usize> = jobs.iter().map(|j| j.queries.len()).collect();
        let mut combined: Vec<Query> = Vec::with_capacity(lens.iter().sum());
        let mut replies = Vec::with_capacity(jobs.len());
        for job in jobs {
            combined.extend(job.queries);
            replies.push(job.reply);
        }
        let batch = QueryBatch::from_queries(combined);
        let answers = pass(&batch, &lens);
        queue.passes.fetch_add(1, Ordering::Relaxed);
        queue
            .queries
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for (answer, reply) in answers.into_iter().zip(replies) {
            // A submitter that gave up (connection died) is fine.
            let _ = reply.send(answer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};
    use std::time::Duration;
    use trajectory::Cube;

    type Log = Arc<Mutex<Vec<Vec<usize>>>>;

    /// `n` queries tagged `tag.0`, `tag.1`, … so every answer is traceable
    /// to its submitter.
    fn job(tag: usize, n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                let v = (tag * 1_000 + i) as f64;
                Query::Range(Cube::new(v, v, 0.0, 0.0, 0.0, 0.0))
            })
            .collect()
    }

    /// An admission whose pass answers every job with its own queries and
    /// logs each pass's job lengths. Each pass first waits for a token on
    /// the returned sender; dropping the sender opens the gate for good.
    fn start(max_queries: usize, linger: Duration) -> (Admission<Vec<Query>>, Log, Sender<()>) {
        let log: Log = Arc::default();
        let (open, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let pass_log = Arc::clone(&log);
        let cfg = BatchConfig {
            max_queries,
            linger,
        };
        let admission = Admission::start(cfg, 1, move |batch: &QueryBatch, lens: &[usize]| {
            pass_log.lock().unwrap().push(lens.to_vec());
            let _ = gate.lock().unwrap().recv();
            split(batch.queries().iter().cloned(), lens)
        });
        (admission, log, open)
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn queued<R>(admission: &Admission<R>) -> usize {
        admission.queue.state.lock().unwrap().jobs.len()
    }

    /// Runs `first` and waits until its pass is blocked at the gate, then
    /// queues `rest` in order, opens the gate, and checks every submitter
    /// got exactly its own queries back. Returns the pass log.
    fn run_queued(max_queries: usize, linger: Duration, first: usize, rest: &[usize]) -> Log {
        let (admission, log, open) = start(max_queries, linger);
        std::thread::scope(|sc| {
            let mut handles = vec![sc.spawn(|| (0, admission.submit(job(0, first))))];
            wait_until("the first pass starts", || log.lock().unwrap().len() == 1);
            for (i, &n) in rest.iter().enumerate() {
                let admission = &admission;
                handles.push(sc.spawn(move || (i + 1, admission.submit(job(i + 1, n)))));
                wait_until("the job is queued", || queued(admission) == i + 1);
            }
            drop(open);
            for h in handles {
                let (tag, answer) = h.join().unwrap();
                let n = if tag == 0 { first } else { rest[tag - 1] };
                assert_eq!(answer, Some(job(tag, n)), "submitter {tag}");
            }
        });
        log
    }

    #[test]
    fn oversized_job_runs_alone() {
        let log = run_queued(4, Duration::ZERO, 1, &[10, 1]);
        assert_eq!(*log.lock().unwrap(), vec![vec![1], vec![10], vec![1]]);
    }

    #[test]
    fn whole_jobs_are_taken_up_to_max_queries() {
        let log = run_queued(5, Duration::ZERO, 1, &[2, 2, 2, 1]);
        assert_eq!(*log.lock().unwrap(), vec![vec![1], vec![2, 2], vec![2, 1]]);
    }

    #[test]
    fn zero_linger_still_coalesces_what_is_queued() {
        let log = run_queued(256, Duration::ZERO, 1, &[1, 3, 1]);
        assert_eq!(*log.lock().unwrap(), vec![vec![1], vec![1, 3, 1]]);
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_slice_in_order() {
        let (admission, log, open) = start(16, Duration::from_micros(200));
        drop(open);
        let (threads, per_thread) = (8, 40);
        std::thread::scope(|sc| {
            for t in 0..threads {
                let admission = &admission;
                sc.spawn(move || {
                    for r in 0..per_thread {
                        let tag = t * per_thread + r;
                        let sent = job(tag, 1 + tag % 5);
                        assert_eq!(admission.submit(sent.clone()), Some(sent));
                    }
                });
            }
        });
        let total: usize = (0..threads * per_thread).map(|tag| 1 + tag % 5).sum();
        let log = log.lock().unwrap();
        assert_eq!(log.iter().flatten().sum::<usize>(), total);
        assert_eq!(log.len() as u64, admission.passes());
        assert_eq!(admission.queries(), total as u64);
    }

    #[test]
    fn submit_after_shutdown_returns_none_promptly() {
        let (admission, _log, _open) = start(256, Duration::from_secs(60));
        admission.shutdown();
        admission.shutdown();
        let started = Instant::now();
        assert_eq!(admission.submit(job(0, 1)), None);
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn shutdown_answers_every_queued_job() {
        let (admission, log, open) = start(2, Duration::ZERO);
        std::thread::scope(|sc| {
            let first = sc.spawn(|| admission.submit(job(0, 1)));
            wait_until("the first pass starts", || log.lock().unwrap().len() == 1);
            let queued_jobs: Vec<_> = (1..=4)
                .map(|tag| {
                    let admission = &admission;
                    let h = sc.spawn(move || admission.submit(job(tag, 1)));
                    wait_until("the job is queued", || queued(admission) == tag);
                    h
                })
                .collect();
            let closer = sc.spawn(|| admission.shutdown());
            wait_until("the queue closes", || {
                admission.queue.state.lock().unwrap().closed
            });
            assert_eq!(admission.submit(job(9, 1)), None);
            drop(open);
            assert_eq!(first.join().unwrap(), Some(job(0, 1)));
            for (tag, h) in (1..=4).zip(queued_jobs) {
                assert_eq!(h.join().unwrap(), Some(job(tag, 1)));
            }
            closer.join().unwrap();
        });
        assert_eq!(*log.lock().unwrap(), vec![vec![1], vec![1, 1], vec![1, 1]]);
    }
}
