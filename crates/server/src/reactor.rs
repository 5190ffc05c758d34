//! The readiness-driven event loop behind [`Server::run`].
//!
//! One reactor thread owns the non-blocking listener and every
//! [`Conn`] state machine, sweeping the ready set each tick: drain
//! executor completions, accept new connections (shedding over-cap
//! ones with a typed `busy` line), then [`Conn::step`] each
//! connection.
//! The workspace forbids `unsafe`, so there is no `poll(2)` FFI —
//! readiness is discovered by `WouldBlock`-aware scans, and the sweep
//! parks on a condvar between ticks. The park is cut short the
//! instant a completion lands (the executor notifies the condvar), so
//! a sequential request/response round trip never waits out a full
//! tick on the compute side; the tick itself adapts to the connection
//! count (finer when few, coarser when thousands) to bound both idle
//! wakeups and per-byte latency.
//!
//! Compute never runs on the reactor thread beyond parsing: work ops
//! (`load`/`query`/`batch`/`update`) have their admission slot
//! claimed **on the reactor** — overload is shed immediately, never
//! queued — and then run on a lazily grown, bounded [`Executor`]
//! pool, which in turn drives the engines' work-stealing pools. The
//! executor hands the fully rendered response bytes back to the
//! reactor, which drains them to the socket as it becomes writable.
//! Control ops (`stats`/`metrics`/`evict`/`shutdown`) are answered
//! inline, slot-free.
//!
//! Shutdown drains: accepting stops, executing requests finish, every
//! write buffer empties, then the loop exits and the executor joins.
//!
//! [`Server::run`]: crate::server::Server::run

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::conn::{Conn, Step};
use crate::proto::{code, ProtoError, Request};
use crate::server::{respond_admitted, write_line, AdmitSlot, Listener, Shared, Stream};

/// Write timeout for the best-effort `busy` line sent to a refused
/// over-cap connection: it bounds how long the reactor thread waits
/// on a peer it is turning away.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(25);

/// An admitted work op in flight from reactor to executor. The
/// [`AdmitSlot`] travels with it, so the inflight gauge covers the
/// queue wait as well as execution, and is released on the worker.
pub(crate) struct Job {
    /// Which connection gets the response.
    pub(crate) token: u64,
    pub(crate) request: Request,
    pub(crate) slot: AdmitSlot,
    /// Clock reading when the request line was parsed (latency
    /// histograms measure from here, queue wait included).
    pub(crate) started_at: u64,
}

/// A finished job: the rendered response bytes for one connection.
pub(crate) struct Completion {
    token: u64,
    bytes: Vec<u8>,
}

struct JobQueue {
    queue: VecDeque<Job>,
    /// Workers currently parked in `jobs_cv.wait` — used to decide
    /// whether a submit needs to grow the pool.
    idle: usize,
    stop: bool,
}

struct ExecInner {
    jobs: Mutex<JobQueue>,
    jobs_cv: Condvar,
    done: Mutex<Vec<Completion>>,
    done_cv: Condvar,
}

/// The bounded, lazily grown worker pool that executes admitted work
/// ops off the reactor thread. At most `min(max_inflight, 256)`
/// threads ever exist; since every queued job already holds an
/// [`AdmitSlot`], the queue depth is bounded by `max_inflight` too —
/// admission shed everything beyond it before dispatch.
pub(crate) struct Executor {
    shared: Arc<Shared>,
    inner: Arc<ExecInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    max_workers: usize,
}

impl Executor {
    pub(crate) fn new(shared: &Arc<Shared>, max_inflight: usize) -> Executor {
        Executor {
            shared: Arc::clone(shared),
            inner: Arc::new(ExecInner {
                jobs: Mutex::new(JobQueue {
                    queue: VecDeque::new(),
                    idle: 0,
                    stop: false,
                }),
                jobs_cv: Condvar::new(),
                done: Mutex::new(Vec::new()),
                done_cv: Condvar::new(),
            }),
            workers: Vec::new(),
            max_workers: max_inflight.clamp(1, 256),
        }
    }

    /// Queues an admitted job, growing the pool by one worker if none
    /// is idle (up to the bound). Called from the reactor thread
    /// only.
    pub(crate) fn submit(&mut self, job: Job) {
        let needs_worker = {
            let Ok(mut q) = self.inner.jobs.lock() else {
                return;
            };
            q.queue.push_back(job);
            q.idle == 0 && self.workers.len() < self.max_workers
        };
        self.inner.jobs_cv.notify_one();
        if needs_worker {
            let shared = Arc::clone(&self.shared);
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name("utk-exec".into())
                .spawn(move || worker(shared, inner));
            if let Ok(handle) = spawned {
                self.workers.push(handle);
            }
        }
    }

    /// Takes every completion the workers have produced so far.
    fn drain_completions(&self) -> Vec<Completion> {
        match self.inner.done.lock() {
            Ok(mut done) => std::mem::take(&mut *done),
            Err(_) => Vec::new(),
        }
    }

    /// Parks the reactor until a completion lands or the tick
    /// elapses, whichever is first.
    fn park(&self, tick: Duration) {
        let Ok(done) = self.inner.done.lock() else {
            return;
        };
        if done.is_empty() {
            let _ = self.inner.done_cv.wait_timeout(done, tick);
        }
    }

    /// Stops and joins every worker (the job queue is empty by the
    /// time the reactor calls this — shutdown drained all work).
    fn stop(self) {
        {
            if let Ok(mut q) = self.inner.jobs.lock() {
                q.stop = true;
            }
        }
        self.inner.jobs_cv.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// One executor worker: pop a job, render its response into a
/// buffer through [`respond_admitted`], hand the bytes back, wake the
/// reactor.
fn worker(shared: Arc<Shared>, inner: Arc<ExecInner>) {
    loop {
        let job = {
            let Ok(mut q) = inner.jobs.lock() else {
                return;
            };
            loop {
                if let Some(job) = q.queue.pop_front() {
                    break job;
                }
                if q.stop {
                    return;
                }
                q.idle += 1;
                q = match inner.jobs_cv.wait(q) {
                    Ok(guard) => guard,
                    Err(_) => return,
                };
                q.idle = q.idle.saturating_sub(1);
            }
        };
        let Job {
            token,
            request,
            slot,
            started_at,
        } = job;
        let mut bytes: Vec<u8> = Vec::new();
        // Writes into a Vec<u8> cannot fail.
        let _ = respond_admitted(&request, Ok(Some(slot)), &shared, &mut bytes, started_at);
        {
            if let Ok(mut done) = inner.done.lock() {
                done.push(Completion { token, bytes });
            }
        }
        inner.done_cv.notify_all();
    }
}

/// The adaptive park interval: fine-grained when few connections (a
/// sequential client's next request is noticed within ~1 ms), coarser
/// as the ready-set scan itself gets more expensive, bounding idle
/// rescans of thousands of sockets.
fn tick_for(connections: usize) -> Duration {
    if connections <= 128 {
        Duration::from_millis(1)
    } else if connections <= 1024 {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(10)
    }
}

/// Sheds an over-cap connection with a best-effort typed `busy` line
/// (counted in `busy_rejections`) and drops it.
fn refuse(mut stream: Stream, max_connections: usize, shared: &Arc<Shared>) {
    let refusal = ProtoError {
        code: code::BUSY,
        message: format!("server is at {max_connections} connections"),
    };
    let _ = stream.set_write_timeout(Some(REFUSAL_WRITE_TIMEOUT));
    let _ = write_line(&mut stream, &refusal.to_json());
    shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
}

/// Runs the event loop until a `shutdown` request has been answered
/// and every connection has drained.
pub(crate) fn run(
    listener: &Listener,
    shared: &Arc<Shared>,
    max_connections: usize,
    write_timeout: Duration,
) -> std::io::Result<()> {
    let mut executor = Executor::new(shared, shared.max_inflight());
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_token: u64 = 0;
    let mut closed: Vec<u64> = Vec::new();
    loop {
        let mut progress = false;

        // 1. Hand finished responses to their connections. A missing
        // token means the connection died mid-execution; the bytes
        // are dropped (the slot was already released on the worker).
        for completion in executor.drain_completions() {
            progress = true;
            if let Some(conn) = conns.get_mut(&completion.token) {
                conn.complete(completion.bytes);
            }
        }

        // 2. Accept until the backlog is empty (unless draining).
        while !shared.shutting_down() {
            match listener.accept() {
                Ok(stream) => {
                    progress = true;
                    if conns.len() >= max_connections {
                        refuse(stream, max_connections, shared);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        // Setup failed: drop the stream. Nothing was
                        // counted yet — the connection count is the
                        // map size, so a failed setup can never leak
                        // a slot toward the cap.
                        continue;
                    }
                    conns.insert(next_token, Conn::new(stream, write_timeout));
                    next_token = next_token.wrapping_add(1);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept failures (EMFILE under an FD
                    // burst, ECONNABORTED, …) must shed, not kill the
                    // server: overload is a condition to ride out.
                    eprintln!("utk serve: accept error (retrying): {e}");
                    break;
                }
            }
        }

        // 3. Sweep the ready set.
        closed.clear();
        for (token, conn) in conns.iter_mut() {
            match conn.step(*token, shared, &mut executor) {
                Step::Progress => progress = true,
                Step::Idle => {}
                Step::Closed => {
                    progress = true;
                    closed.push(*token);
                }
            }
        }
        for token in &closed {
            conns.remove(token);
        }

        // 4. Drained shutdown: stop once every connection is gone.
        if shared.shutting_down() && conns.is_empty() {
            break;
        }

        // 5. Park until a completion lands or the tick elapses.
        if !progress {
            executor.park(tick_for(conns.len()));
        }
    }
    executor.stop();
    Ok(())
}
