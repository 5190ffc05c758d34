//! Parallel UTK processing (an extension beyond the paper): a
//! persistent work-stealing thread pool plus the parallel RSA and JAA
//! drivers built on it.
//!
//! # The scheduler
//!
//! [`ThreadPool`] owns a fixed set of worker threads fed by a shared
//! **injector** queue plus one **deque per worker**. A worker prefers
//! its own deque (LIFO, for locality), then the injector, then
//! steals from a sibling's deque (FIFO — the oldest task is the one
//! most likely to fan out further). Steals are counted and surfaced
//! through [`crate::stats::Stats::stolen_tasks`].
//!
//! Parallel computations are grouped into [`TaskSet`]s — lightweight
//! wait-groups sharing the pool. Tasks may spawn further tasks into
//! their own set; [`TaskSet::wait`] blocks until the whole set has
//! drained. Waiting from *inside* a pool worker (a nested parallel
//! computation, e.g. a parallel JAA query running within a
//! [`crate::engine::UtkEngine::run_many`] batch job) helps execute
//! queued tasks instead of blocking, so nesting can never deadlock
//! the pool.
//!
//! # Parallel RSA
//!
//! RSA's refinement verifies candidates one by one; the verifications
//! are mutually independent except for two *optimizations* the
//! sequential order enables — confirming a candidate confirms its
//! graph ancestors, and disqualified candidates are dropped from later
//! competitor sets. Neither affects correctness: verification against
//! the full candidate set is exact (§4.4's Lemma 2 argument never
//! relies on removals), and confirmation propagation is monotone.
//! [`rsa_parallel`] therefore fans one task per candidate out over the
//! pool; workers skip candidates already confirmed by a descendant and
//! publish confirmations through an atomic status array. Results are
//! bit-identical to [`crate::rsa::rsa`].
//!
//! Parallel JAA lives in [`crate::jaa`](mod@crate::jaa); it shares the pool through
//! the same [`TaskSet`] mechanism.

use crate::rsa::{verify_candidate, RsaOptions, Utk1Result};
use crate::skyband::{prefilter, CandidateSet, Prefilter};
use crate::stats::Stats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;
use utk_geom::{CellGeom, Region};
use utk_rtree::RTree;

// --- the work-stealing pool ------------------------------------------

/// A unit of queued work: the closure plus the steal counter of the
/// [`TaskSet`] it belongs to (bumped when a sibling executes it).
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    steals: Arc<AtomicUsize>,
}

struct PoolInner {
    /// Externally submitted work (spawns from non-worker threads).
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker; workers push follow-up tasks here.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep/wake coordination for idle workers.
    gate: Mutex<()>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Total cross-worker steals over the pool's lifetime.
    stolen: AtomicUsize,
}

impl PoolInner {
    /// Where a spawn from the current thread should land: the current
    /// worker's own deque when called from inside this pool, the
    /// injector otherwise.
    fn push(self: &Arc<Self>, job: Job) {
        let own = CURRENT_WORKER.with(|w| {
            w.borrow().as_ref().and_then(|(pool, idx)| {
                pool.upgrade()
                    .filter(|p| Arc::ptr_eq(p, self))
                    .map(|_| *idx)
            })
        });
        match own {
            Some(idx) => self.deques[idx].lock().expect("deque lock").push_back(job),
            None => self.injector.lock().expect("injector lock").push_back(job),
        }
        // Notify under the gate lock: a worker that saw no work
        // re-checks under the same lock before sleeping, so this
        // notify can never fall into the check-to-sleep window. One
        // job needs one worker — notify_all here would thundering-herd
        // the whole pool on every spawn (shutdown still broadcasts).
        let _gate = self.gate.lock().expect("gate lock");
        self.work.notify_one();
    }

    /// Whether any queue currently holds a job.
    fn has_work(&self) -> bool {
        !self.injector.lock().expect("injector lock").is_empty()
            || self
                .deques
                .iter()
                .any(|d| !d.lock().expect("deque lock").is_empty())
    }

    /// Grabs one queued job: own deque (LIFO) → injector (FIFO) →
    /// steal from a sibling (FIFO). `me` is `None` for helper threads
    /// that have no deque of their own.
    fn find_work(&self, me: Option<usize>) -> Option<Job> {
        if let Some(me) = me {
            if let Some(job) = self.deques[me].lock().expect("deque lock").pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().expect("injector lock").pop_front() {
            return Some(job);
        }
        for (i, deque) in self.deques.iter().enumerate() {
            if Some(i) == me {
                continue;
            }
            if let Some(job) = deque.lock().expect("deque lock").pop_front() {
                self.stolen.fetch_add(1, Ordering::Relaxed);
                job.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(self: Arc<Self>, me: usize) {
        CURRENT_WORKER.with(|w| *w.borrow_mut() = Some((Arc::downgrade(&self), me)));
        loop {
            if let Some(job) = self.find_work(Some(me)) {
                (job.run)();
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let guard = self.gate.lock().expect("gate lock");
            // Untimed sleep is safe: pushes notify while holding this
            // lock, so a job queued after the has_work re-check cannot
            // slip past an already-parked worker. An idle pool costs
            // zero CPU.
            if !self.has_work() && !self.shutdown.load(Ordering::Acquire) {
                let _guard = self.work.wait(guard).expect("gate lock");
            }
        }
        CURRENT_WORKER.with(|w| *w.borrow_mut() = None);
    }
}

thread_local! {
    /// The pool + worker index the current OS thread belongs to, if
    /// any; lets spawns from worker threads target their own deque.
    static CURRENT_WORKER: std::cell::RefCell<Option<(Weak<PoolInner>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// A persistent pool of worker threads with a shared injector and
/// per-worker stealing deques. Build one per
/// [`crate::engine::UtkEngine`] (the engine does this lazily) and
/// reuse it across queries — construction spawns OS threads and is
/// exactly what per-query parallelism should not pay for.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("stolen_tasks", &self.stolen_tasks())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool of `threads` workers (0 = one per available
    /// core).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let inner = Arc::new(PoolInner {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stolen: AtomicUsize::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("utk-pool-{i}"))
                    .spawn(move || inner.worker_loop(i))
                    // utk-lint: allow(panic) -- thread spawn fails only on resource exhaustion at startup
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            inner,
            handles,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total cross-worker steals over the pool's lifetime.
    pub fn stolen_tasks(&self) -> usize {
        self.inner.stolen.load(Ordering::Relaxed)
    }

    /// Opens a fresh wait-group on this pool.
    pub fn task_set(&self) -> TaskSet {
        TaskSet {
            pool: Arc::clone(&self.inner),
            state: Arc::new(TaskSetState {
                pending: AtomicUsize::new(0),
                latch: Mutex::new(()),
                cv: Condvar::new(),
                panicked: AtomicBool::new(false),
                steals: Arc::new(AtomicUsize::new(0)),
            }),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            // Same protocol as push: the flag cannot slip into a
            // worker's check-to-sleep window.
            let _gate = self.inner.gate.lock().expect("gate lock");
            self.inner.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

struct TaskSetState {
    pending: AtomicUsize,
    /// Completion latch: only the lock/condvar pairing is load-bearing
    /// (waiters re-check `pending`; the final decrement notifies while
    /// holding this lock, so untimed waits cannot miss it).
    latch: Mutex<()>,
    cv: Condvar,
    panicked: AtomicBool,
    steals: Arc<AtomicUsize>,
}

/// A wait-group of tasks on a [`ThreadPool`]: spawn any number of
/// tasks (tasks may clone the set and spawn more), then [`TaskSet::wait`]
/// for all of them. Cheap to clone; clones share the same group.
///
/// Keep the pool alive for as long as its task sets: a set used after
/// the pool shut down falls back to running tasks inline on the
/// spawning thread (losing parallelism, never losing the work or
/// hanging the waiter).
#[derive(Clone)]
pub struct TaskSet {
    pool: Arc<PoolInner>,
    state: Arc<TaskSetState>,
}

impl TaskSet {
    /// Queues `task` onto the pool as part of this set.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let run = Box::new(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            if outcome.is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _latch = state.latch.lock().expect("task-set lock");
                state.cv.notify_all();
            }
        });
        let job = Job {
            run,
            steals: Arc::clone(&self.state.steals),
        };
        if self.pool.shutdown.load(Ordering::Acquire) {
            // The pool's workers are gone (the set outlived its
            // ThreadPool): run inline so the job executes and the
            // pending count still drains — wait() must never hang on
            // work no worker will ever pick up.
            (job.run)();
            return;
        }
        self.pool.push(job);
    }

    /// Number of tasks of this set executed by a worker other than the
    /// one that queued them (work actually stolen).
    pub fn stolen(&self) -> usize {
        self.state.steals.load(Ordering::Relaxed)
    }

    fn finished(&self) -> bool {
        self.state.pending.load(Ordering::Acquire) == 0
    }

    /// Blocks until every spawned task (including tasks spawned by
    /// tasks) has finished. Called from a worker of the same pool it
    /// *helps* — executes queued tasks instead of blocking — so nested
    /// parallel computations cannot deadlock.
    ///
    /// Panics if any task of the set panicked.
    pub fn wait(&self) {
        let me = CURRENT_WORKER.with(|w| {
            w.borrow().as_ref().and_then(|(pool, idx)| {
                pool.upgrade()
                    .filter(|p| Arc::ptr_eq(p, &self.pool))
                    .map(|_| *idx)
            })
        });
        if let Some(me) = me {
            // Helping wait: drain pool work until this set is done.
            // With nothing stealable (the set's tail task is running
            // on a sibling), park briefly on the completion signal
            // instead of spinning hot.
            while !self.finished() {
                if let Some(job) = self.pool.find_work(Some(me)) {
                    (job.run)();
                } else {
                    let latch = self.state.latch.lock().expect("task-set lock");
                    if !self.finished() && !self.pool.has_work() {
                        let _ = self
                            .state
                            .cv
                            .wait_timeout(latch, Duration::from_millis(1))
                            .expect("task-set lock");
                    }
                }
            }
        } else {
            // External waiter: the final decrement notifies under this
            // lock, so an untimed wait cannot miss the completion (and
            // an idle waiter costs zero CPU).
            let mut latch = self.state.latch.lock().expect("task-set lock");
            while !self.finished() {
                latch = self.state.cv.wait(latch).expect("task-set lock");
            }
        }
        if self.state.panicked.load(Ordering::Acquire) {
            // utk-lint: allow(panic) -- re-raises a worker panic on the caller thread (propagation)
            panic!("a pool task panicked");
        }
    }
}

// --- parallel RSA ------------------------------------------------------

const UNVERIFIED: u8 = 0;
const CONFIRMED: u8 = 1;
const DISQUALIFIED: u8 = 2;

/// Parallel UTK1: RSA with refinement fanned out over `threads`
/// worker threads (0 = one per available core). Builds a fresh index
/// *and a fresh one-shot pool*.
///
/// Legacy convenience: panics on malformed input and rebuilds all
/// per-dataset state from scratch. Prefer [`crate::engine::UtkEngine`]
/// with [`crate::engine::UtkQuery::parallel`], which returns typed
/// errors, reuses the index and the r-skyband across queries, and runs
/// on the engine's persistent pool instead of constructing one per
/// query.
pub fn rsa_parallel(
    points: &[Vec<f64>],
    region: &Region,
    k: usize,
    opts: &RsaOptions,
    threads: usize,
) -> Utk1Result {
    let tree = RTree::bulk_load(points);
    rsa_parallel_with_tree(points, &tree, region, k, opts, threads)
}

/// Parallel UTK1 over a pre-built index (one-shot pool per call).
pub fn rsa_parallel_with_tree(
    points: &[Vec<f64>],
    tree: &RTree,
    region: &Region,
    k: usize,
    opts: &RsaOptions,
    threads: usize,
) -> Utk1Result {
    assert!(k >= 1, "k must be positive");
    let d = points[0].len();
    crate::rsa::validate_region(region, d - 1);
    let mut stats = Stats::new();
    // Filtering stays sequential (BBS is a single best-first pass).
    let records = match prefilter(points, tree, region, k, opts.pivot_order, &mut stats) {
        Prefilter::Degenerate { top_k, .. } => top_k,
        Prefilter::Trivial { ids, .. } => ids,
        Prefilter::Refine {
            cands,
            interior,
            slack,
        } => {
            let pool = ThreadPool::new(threads);
            rsa_parallel_refine(
                &Arc::new(cands),
                region,
                &interior,
                slack,
                k,
                opts,
                &pool,
                &mut stats,
            )
        }
    };
    Utk1Result { records, stats }
}

/// Shared state of one parallel RSA refinement.
struct RsaFanout {
    cands: Arc<CandidateSet>,
    root: CellGeom,
    k: usize,
    opts: RsaOptions,
    status: Vec<AtomicU8>,
    stats: Mutex<Stats>,
}

/// The parallel refinement fan-out over an already-filtered candidate
/// set — one pool task per candidate, bit-identical to
/// [`crate::rsa::rsa_refine`]. Shared between the legacy entry points
/// (one-shot pool) and [`crate::engine::UtkEngine`] (persistent pool).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rsa_parallel_refine(
    cands: &Arc<CandidateSet>,
    region: &Region,
    base_interior: &[f64],
    base_slack: f64,
    k: usize,
    opts: &RsaOptions,
    pool: &ThreadPool,
    stats: &mut Stats,
) -> Vec<u32> {
    let n = cands.len();
    debug_assert!(n > k);

    // Candidates in decreasing r-dominance count, like the sequential
    // order: high-count candidates confirm the most ancestors.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(cands.graph.dominance_count(v)));

    let shared = Arc::new(RsaFanout {
        cands: Arc::clone(cands),
        root: CellGeom::new(region.clone(), base_interior.to_vec(), base_slack),
        k,
        opts: opts.clone(),
        status: (0..n).map(|_| AtomicU8::new(UNVERIFIED)).collect(),
        stats: Mutex::new(Stats::new()),
    });

    let set = pool.task_set();
    for &v in &order {
        let shared = Arc::clone(&shared);
        set.spawn(move || verify_one(&shared, v));
    }
    set.wait();

    stats.absorb(&shared.stats.lock().expect("stats lock"));
    stats.pool_threads = pool.threads();
    stats.stolen_tasks += set.stolen();

    let mut records: Vec<u32> = (0..n)
        .filter(|&i| shared.status[i].load(Ordering::Acquire) == CONFIRMED)
        .map(|i| shared.cands.ids[i])
        .collect();
    records.sort_unstable();
    records
}

/// One candidate's verification task.
fn verify_one(shared: &RsaFanout, v: u32) {
    let n = shared.cands.len();
    if shared.status[v as usize].load(Ordering::Acquire) != UNVERIFIED {
        return;
    }
    let mut local = Stats::new();
    // Parallel tasks never remove candidates: exact either way, and
    // racing removals would make runs non-deterministic.
    let removed = vec![false; n];
    let anc = shared.cands.graph.ancestors(v);
    let mut excluded = vec![false; n];
    excluded[v as usize] = true;
    for &a in anc {
        excluded[a as usize] = true;
    }
    let ok = verify_candidate(
        &shared.cands,
        &shared.opts,
        &mut local,
        v,
        &shared.root,
        shared.k - anc.len(),
        shared.k,
        &mut excluded,
        &removed,
    );
    if ok {
        shared.status[v as usize].store(CONFIRMED, Ordering::Release);
        for &a in anc {
            shared.status[a as usize].store(CONFIRMED, Ordering::Release);
        }
    } else {
        // Never demote a confirmation published by a descendant's
        // task.
        let _ = shared.status[v as usize].compare_exchange(
            UNVERIFIED,
            DISQUALIFIED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
    shared.stats.lock().expect("stats lock").absorb(&local);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::rsa_with_tree;
    use rand::prelude::*;

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn parallel_equals_sequential() {
        for seed in [1u64, 2, 3] {
            let pts = random_points(400, 3, seed);
            let tree = RTree::bulk_load(&pts);
            let region = Region::hyperrect(vec![0.15, 0.2], vec![0.3, 0.35]);
            let seq = rsa_with_tree(&pts, &tree, &region, 4, &RsaOptions::default());
            for threads in [1, 2, 4] {
                let par = rsa_parallel_with_tree(
                    &pts,
                    &tree,
                    &region,
                    4,
                    &RsaOptions::default(),
                    threads,
                );
                assert_eq!(par.records, seq.records, "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_handles_trivial_cases() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let region = Region::hyperrect(vec![0.3], vec![0.6]);
        let res = rsa_parallel(&pts, &region, 5, &RsaOptions::default(), 0);
        assert_eq!(res.records, vec![0, 1]);
    }

    #[test]
    fn parallel_on_figure1() {
        let hotels = vec![
            vec![8.3, 9.1, 7.2],
            vec![2.4, 9.6, 8.6],
            vec![5.4, 1.6, 4.1],
            vec![2.6, 6.9, 9.4],
            vec![7.3, 3.1, 2.4],
            vec![7.9, 6.4, 6.6],
            vec![8.6, 7.1, 4.3],
        ];
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let res = rsa_parallel(&hotels, &region, 2, &RsaOptions::default(), 3);
        assert_eq!(res.records, vec![0, 1, 3, 5]);
    }

    #[test]
    fn task_sets_run_all_tasks_and_nest() {
        let pool = ThreadPool::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let set = pool.task_set();
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            let nested = set.clone();
            set.spawn(move || {
                let inner_hits = Arc::clone(&hits);
                nested.spawn(move || {
                    inner_hits.fetch_add(1, Ordering::Relaxed);
                });
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        set.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn task_set_outliving_its_pool_runs_inline_instead_of_hanging() {
        let pool = ThreadPool::new(2);
        let set = pool.task_set();
        drop(pool);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        set.spawn(move || {
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        set.wait(); // must return, not block on a dead pool
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn task_set_wait_propagates_panics() {
        let pool = ThreadPool::new(2);
        let set = pool.task_set();
        set.spawn(|| panic!("boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.wait()));
        assert!(err.is_err());
    }

    #[test]
    fn two_task_sets_share_one_pool() {
        let pool = ThreadPool::new(2);
        let a = pool.task_set();
        let b = pool.task_set();
        let count = Arc::new(AtomicUsize::new(0));
        for set in [&a, &b] {
            for _ in 0..20 {
                let count = Arc::clone(&count);
                set.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        a.wait();
        b.wait();
        assert_eq!(count.load(Ordering::Relaxed), 40);
    }
}
