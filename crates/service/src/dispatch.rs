//! The request/dispatch layer: typed requests routed worker-pool
//! style onto the [`Registry`].
//!
//! A [`Service`] owns a `u64`-keyed registry and `W` worker threads,
//! each with its own FIFO queue. Requests are routed by **key
//! affinity** — `mix(key) mod W` — so all operations on one key
//! execute on one worker in submission order, and distinct keys spread
//! across the pool. Worker `w` drives the per-key objects as serving
//! lane (process) `w`, which is exactly the single-writer-per-lane
//! discipline the §3 registers require.
//!
//! Latency is measured **open-loop honestly**: a job carries the
//! instant it was *scheduled to arrive* (not the instant the submitter
//! got around to it), and the worker records `scheduled → completion`
//! into its own [`Histogram`] after executing. Queue wait is inside
//! the measurement, so saturation shows up in p999 instead of being
//! coordinated-omitted away (DESIGN.md §12; the generator half lives
//! in `benchmark/src/gen.rs`).
//!
//! Instrumentation (PR-7/PR-8/PR-10 pattern — empty inline stubs by
//! default, armed by the root feature `armed`):
//!
//! * chaos points `service.enqueue` (submitter side, pre-publish) and
//!   `service.dispatch` (worker side, pre-execute) — a crash-stopped
//!   worker parks mid-dispatch and its queue goes dark, which is the
//!   fault `tests/service_stress.rs` checks leaves *other* keys live;
//! * obs probes `service.route` (requests routed), `service.dispatch`
//!   (execution timer), `service.queue_depth` (enqueue-time depth
//!   gauge, i.e. a high-watermark under the gauge's max semantics),
//!   `service.dequeue` / `service.queue_depth.dequeue` (the drain
//!   side: jobs left in the worker's hand after it starts one — the
//!   worker takes the queue a batch at a time, so armed runs see the
//!   largest batch less one), and the registry's `service.registry.*`
//!   counters;
//! * trace spans: every submission mints one span id and marks it
//!   `service.request` Begin (client side, pre-publish) with the
//!   encoded request as payload. The id rides through the FIFO; the
//!   serving worker re-enters it ambiently and emits
//!   `service.enqueue → service.route → service.execute →
//!   service.respond` instants along the way. The End edge is
//!   client-side for [`Service::call`] (the response the caller
//!   observed) and worker-side for fire-and-forget submissions
//!   (worker completion is the only completion there) — the boundary
//!   placement the bridge's soundness argument needs (DESIGN.md §13).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::sync::{Condvar, Mutex};

use sl2_obs::Histogram;
use sl2_primitives::labeled::{self, mix};
use sl2_primitives::CachePadded;
use sl2_spec::keyed::KeyedMaxOp;
use sl2_spec::max_register::MaxResp;

use crate::registry::{Backend, Registry};

/// Probe labels of the dispatch layer (DESIGN.md §12).
pub(crate) mod probes {
    /// Submitter side: a request is about to be published to a queue.
    pub const ENQUEUE: &str = "service.enqueue";
    /// Worker side: a request is about to execute on the registry.
    pub const DISPATCH: &str = "service.dispatch";
    /// One request routed to a worker queue.
    pub const ROUTE: &str = "service.route";
    /// Queue depth observed at enqueue time (gauge keeps the max).
    pub const QUEUE_DEPTH: &str = "service.queue_depth";
    /// One request dequeued by its serving worker.
    pub const DEQUEUE: &str = "service.dequeue";
    /// Jobs left in the worker's hand just after it starts one (gauge
    /// keeps the max) — the drain edge of `QUEUE_DEPTH`.
    pub const QUEUE_DEPTH_DEQUEUE: &str = "service.queue_depth.dequeue";
    /// Span label of one request through the service (trace).
    pub const REQUEST: &str = "service.request";
    /// Trace instant: a request starts executing on the registry.
    pub const EXECUTE: &str = "service.execute";
    /// Trace instant: a response was produced by the worker.
    pub const RESPOND: &str = "service.respond";
}

/// One operation on a keyed object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceOp {
    /// `write_max(key, v)`.
    WriteMax(u64),
    /// Exact `read_max(key)`.
    ReadMax,
    /// Cached `read_max(key)` (combining backend; exact elsewhere).
    ReadMaxCached,
    /// `inc(key)`.
    Inc,
    /// Exact `read_count(key)`.
    ReadCount,
    /// Cached `read_count(key)`.
    ReadCountCached,
    /// `update(key, component, v)` on the key's snapshot.
    Update {
        /// Component to set.
        component: usize,
        /// New component value.
        v: u64,
    },
    /// Exact `scan(key)`.
    Scan,
}

/// A request: an operation aimed at a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Key naming the per-key object.
    pub key: u64,
    /// The operation.
    pub op: ServiceOp,
}

/// A response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Response {
    /// The operation completed with no value.
    Ok,
    /// A scalar read result.
    Value(u64),
    /// A snapshot view.
    View(Vec<u64>),
}

/// Tag/field layout of the one-word trace encodings: `tag << 56`,
/// then a 28-bit key and a 28-bit operand for requests, or a 56-bit
/// value for responses. Wide keys/values truncate (the payload is
/// evidence, not the data path); the max-register subset — the ops
/// the keyed specs speak — round-trips exactly for test-sized values.
const TAG_SHIFT: u32 = 56;
const KEY_SHIFT: u32 = 28;
const FIELD_MASK: u64 = (1 << 28) - 1;
const VALUE_MASK: u64 = (1 << 56) - 1;

impl Request {
    /// Encodes this request into one trace-payload word.
    pub fn trace_word(&self) -> u64 {
        let (tag, operand) = match self.op {
            ServiceOp::WriteMax(v) => (1u64, v),
            ServiceOp::ReadMax => (2, 0),
            ServiceOp::ReadMaxCached => (3, 0),
            ServiceOp::Inc => (4, 0),
            ServiceOp::ReadCount => (5, 0),
            ServiceOp::ReadCountCached => (6, 0),
            ServiceOp::Update { component, v } => (7, ((component as u64) << 20) | (v & 0xF_FFFF)),
            ServiceOp::Scan => (8, 0),
        };
        (tag << TAG_SHIFT) | ((self.key & FIELD_MASK) << KEY_SHIFT) | (operand & FIELD_MASK)
    }

    /// Decodes a request trace word into the keyed max-register op it
    /// denotes, or `None` for ops outside the keyed-max vocabulary.
    /// Both read flavours (exact and cached) decode to `Read` — the
    /// *spec* chosen at adjudication time decides what a cached read
    /// is allowed to return, not the encoding.
    pub fn keyed_max_op_of(word: u64) -> Option<KeyedMaxOp> {
        let key = (word >> KEY_SHIFT) & FIELD_MASK;
        match word >> TAG_SHIFT {
            1 => Some(KeyedMaxOp::Write {
                key,
                v: word & FIELD_MASK,
            }),
            2 | 3 => Some(KeyedMaxOp::Read { key }),
            _ => None,
        }
    }
}

impl Response {
    /// Encodes this response into one trace-payload word (a `View`
    /// records only its length).
    pub fn trace_word(&self) -> u64 {
        match self {
            Response::Ok => 1 << TAG_SHIFT,
            Response::Value(v) => (2 << TAG_SHIFT) | (v & VALUE_MASK),
            Response::View(view) => (3 << TAG_SHIFT) | (view.len() as u64 & VALUE_MASK),
        }
    }

    /// Decodes a response trace word into a max-register response, or
    /// `None` for views.
    pub fn max_resp_of(word: u64) -> Option<MaxResp> {
        match word >> TAG_SHIFT {
            1 => Some(MaxResp::Ok),
            2 => Some(MaxResp::Value(word & VALUE_MASK)),
            _ => None,
        }
    }
}

/// Completion cell for the blocking [`Service::call`] path. Each
/// calling thread owns one and reuses it: a thread has at most one call
/// in flight, and a call returns only after taking its response, so the
/// slot is empty whenever a call starts. (A worker's late `notify_all`
/// for the previous call is a spurious wake-up the wait loop absorbs.)
#[derive(Debug, Default)]
struct Completion {
    slot: Mutex<Option<Response>>,
    cv: Condvar,
}

#[derive(Debug)]
struct Job {
    req: Request,
    /// When this request was scheduled to arrive (open-loop clock);
    /// `Some` records scheduled→completion latency into the worker
    /// histogram.
    scheduled: Option<Instant>,
    /// Blocking caller to notify, if any.
    done: Option<Arc<Completion>>,
    /// Trace span the request carries through the FIFO (0 disarmed).
    span: u64,
    /// Emit the span's End edge worker-side after executing?
    /// (Fire-and-forget jobs: yes. Blocking calls: no — the caller
    /// marks End when it observes the response.)
    end_span: bool,
}

/// How long an idle worker polls its queue before it parks: about one
/// park/wake pair on the hosts measured (DESIGN.md §12), so an active
/// worker burns at most this much CPU per idle gap.
const SPIN_BUDGET: Duration = Duration::from_micros(40);

/// Room, in jobs, that each of a worker's two deques (the shared queue
/// and the batch in hand) gets when the service is built. Allocated up
/// front by the constructing thread, neither grows while a client keeps
/// up to 256 requests in flight. A deque that grows mid-run is
/// reallocated at a moment set by how deep a burst got, and where the
/// new buffer landed on the heap moved the process's peak RSS by a
/// whole registry table from one run to the next (EXPERIMENTS.md, E61
/// follow-up).
const QUEUE_JOBS: usize = 256;

#[derive(Debug)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// The worker is in `cv.wait` (set by it, cleared by whoever
    /// notifies it, both under the lock — no wake-up can be lost).
    parked: bool,
}

#[derive(Debug)]
struct WorkerQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Jobs ever pushed here. Written under the lock, so a load and a
    /// store, not an RMW; the worker polls it, lock-free, against its
    /// own completion count before it parks.
    submitted: AtomicU64,
}

impl WorkerQueue {
    fn new() -> Self {
        WorkerQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(QUEUE_JOBS),
                parked: false,
            }),
            cv: Condvar::new(),
            submitted: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct Shared {
    registry: Registry<u64>,
    queues: Box<[CachePadded<WorkerQueue>]>,
    latency: Box<[Mutex<Histogram>]>,
    closing: AtomicBool,
    /// Jobs completed, per worker: one writer each, so a store, on a
    /// line the submitters' side never writes.
    completed: Box<[CachePadded<AtomicU64>]>,
}

impl Shared {
    fn execute(&self, worker: usize, req: &Request) -> Response {
        let obj = self.registry.get_or_insert(&req.key);
        match req.op {
            ServiceOp::WriteMax(v) => {
                obj.write_max(worker, v);
                Response::Ok
            }
            ServiceOp::ReadMax => Response::Value(obj.read_max()),
            ServiceOp::ReadMaxCached => Response::Value(obj.read_max_cached()),
            ServiceOp::Inc => {
                obj.inc(worker);
                Response::Ok
            }
            ServiceOp::ReadCount => Response::Value(obj.read_count()),
            ServiceOp::ReadCountCached => Response::Value(obj.read_count_cached()),
            ServiceOp::Update { component, v } => {
                obj.update(component, v);
                Response::Ok
            }
            ServiceOp::Scan => Response::View(obj.scan()),
        }
    }

    /// Polls for a push beyond the `served` the worker has completed,
    /// for at most [`SPIN_BUDGET`], yielding every 256 polls (threads
    /// may outnumber cores, and a pure spin starves the submitters).
    fn spin_for_work(&self, q: &WorkerQueue, served: u64) {
        let started = Instant::now();
        let mut polls = 0u32;
        while q.submitted.load(Ordering::Acquire) == served && !self.closing.load(Ordering::Acquire)
        {
            polls += 1;
            if polls % 256 != 0 {
                std::hint::spin_loop();
            } else if started.elapsed() >= SPIN_BUDGET {
                return;
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Serves lane `worker`. `batch` is the batch in hand: swapped
    /// whole with the shared deque, so both keep their capacity and the
    /// lock is taken once per batch, not once per job.
    fn worker_loop(&self, worker: usize, mut batch: VecDeque<Job>) {
        let q = &*self.queues[worker];
        // Reply-and-wait: after answering a blocking `call` the worker
        // parks at once — the caller is about to sleep on the reply
        // anyway, and a spinning worker here is the bimodal regime.
        let mut replied = false;
        let mut served = 0u64;
        loop {
            if !replied {
                self.spin_for_work(q, served);
            }
            {
                let mut state = q.state.lock().unwrap();
                while state.jobs.is_empty() {
                    if self.closing.load(Ordering::Acquire) {
                        return;
                    }
                    state.parked = true;
                    state = q.cv.wait(state).unwrap();
                }
                std::mem::swap(&mut state.jobs, &mut batch);
            }
            while let Some(job) = batch.pop_front() {
                sl2_obs::count(probes::DEQUEUE);
                sl2_obs::gauge(probes::QUEUE_DEPTH_DEQUEUE, batch.len() as u64);
                // The crash-stop seam: a chaos plan targeting this
                // point parks the worker here with the job unexecuted
                // — its queue and the rest of the batch in hand go
                // dark while the rest of the pool keeps serving
                // (tests/service_stress.rs). The request's span never
                // sees an End edge: the bridge carries it as pending
                // forever.
                let _span = sl2_trace::enter_span(job.span);
                sl2_chaos::point(probes::DISPATCH);
                sl2_trace::event(probes::EXECUTE, job.req.trace_word());
                let resp = {
                    let _dispatch_timer = sl2_obs::time(probes::DISPATCH);
                    self.execute(worker, &job.req)
                };
                sl2_trace::event(probes::RESPOND, resp.trace_word());
                if job.end_span {
                    sl2_trace::span_end(probes::REQUEST, job.span, resp.trace_word());
                }
                if let Some(scheduled) = job.scheduled {
                    let ns = scheduled.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    self.latency[worker].lock().unwrap().record(ns);
                }
                replied = job.done.is_some();
                if let Some(done) = job.done {
                    *done.slot.lock().unwrap() = Some(resp);
                    done.cv.notify_all();
                }
                served += 1;
                self.completed[worker].store(served, Ordering::Release);
            }
        }
    }
}

/// A running keyed service: registry + worker pool. See module docs.
#[derive(Debug)]
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    pool_id: u64,
}

/// Mints [`Service::pool_id`]s.
static NEXT_POOL: AtomicU64 = AtomicU64::new(0);

impl Service {
    /// Starts a service with `workers` serving lanes over a registry
    /// of up to `capacity` distinct keys, every key on `backend`.
    pub fn new(capacity: usize, workers: usize, backend: Backend) -> Self {
        Self::with_policy(capacity, workers, move |_: &u64| backend)
    }

    /// As [`Service::new`] with a per-key backend policy.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` (the registry panics on
    /// `capacity == 0`).
    pub fn with_policy(
        capacity: usize,
        workers: usize,
        policy: impl Fn(&u64) -> Backend + Send + Sync + 'static,
    ) -> Self {
        assert!(workers > 0, "service needs at least one worker");
        let shared = Arc::new(Shared {
            registry: Registry::with_policy(capacity, workers, policy),
            queues: (0..workers)
                .map(|_| CachePadded::new(WorkerQueue::new()))
                .collect(),
            latency: (0..workers).map(|_| Mutex::new(Histogram::new())).collect(),
            closing: AtomicBool::new(false),
            completed: (0..workers).map(|_| CachePadded::default()).collect(),
        });
        let pool_id = NEXT_POOL.fetch_add(1, Ordering::Relaxed);
        let workers = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let batch = VecDeque::with_capacity(QUEUE_JOBS);
                std::thread::spawn(move || {
                    // One mechanism under chaos + obs: the worker's
                    // logical id is its lane, so fault plans target
                    // and metrics attribute the same thread; the pool
                    // keeps a plan aimed at one service's lane off the
                    // same lane of the service in the test beside it.
                    labeled::enroll_in(pool_id, w);
                    // Absorb a crash-stop unwind: the worker dies
                    // silently (crash-stop semantics), it does not
                    // poison the process with a panic. Disarmed this is
                    // an inlined `Some(worker_loop(w, batch))`.
                    let _ = sl2_chaos::catch_crash(|| shared.worker_loop(w, batch));
                })
            })
            .collect();
        Service {
            shared,
            workers,
            pool_id,
        }
    }

    /// This service's process-unique pool id: its workers are enrolled
    /// as `(pool_id, lane)`, which is what a pool-scoped chaos rule
    /// (`FaultPlan::on_pool`) targets.
    pub fn pool_id(&self) -> u64 {
        self.pool_id
    }

    /// The worker (serving-lane) count.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// The underlying registry (direct read access for tests and
    /// post-drain audits; going around the dispatch order is the
    /// caller's responsibility).
    pub fn registry(&self) -> &Registry<u64> {
        &self.shared.registry
    }

    /// Which worker serves `key` (key-affinity routing).
    pub fn route_of(&self, key: u64) -> usize {
        (mix(key) % self.shared.queues.len() as u64) as usize
    }

    /// Marks the request span's Begin edge (client side, before the
    /// job is visible to anyone) and routes the job to its worker.
    /// Begin-before-publish is the soundness half the bridge needs:
    /// the recorded invocation can only be *earlier* than the real
    /// one, which widens the interval and shrinks recorded precedence
    /// (DESIGN.md §13).
    fn push(&self, job: Job) {
        let w = self.route_of(job.req.key);
        sl2_chaos::point(probes::ENQUEUE);
        sl2_obs::count(probes::ROUTE);
        sl2_trace::span_begin(probes::REQUEST, job.span, job.req.trace_word());
        sl2_trace::event_in(probes::ENQUEUE, job.span, job.req.trace_word());
        sl2_trace::event_in(probes::ROUTE, job.span, w as u64);
        let q = &*self.shared.queues[w];
        let (depth, wake) = {
            let mut state = q.state.lock().unwrap();
            state.jobs.push_back(job);
            let pushed = q.submitted.load(Ordering::Relaxed) + 1;
            q.submitted.store(pushed, Ordering::Release);
            (state.jobs.len(), std::mem::take(&mut state.parked))
        };
        sl2_obs::gauge(probes::QUEUE_DEPTH, depth as u64);
        if wake {
            q.cv.notify_one();
        }
    }

    /// Fire-and-forget submission stamped with its scheduled arrival
    /// instant; the serving worker records `scheduled → completion`
    /// (queue wait included) into the service latency histogram.
    pub fn submit_timed(&self, req: Request, scheduled: Instant) {
        self.push(Job {
            req,
            scheduled: Some(scheduled),
            done: None,
            span: sl2_trace::next_span(),
            end_span: true,
        });
    }

    /// Fire-and-forget submission without latency tracking.
    pub fn submit(&self, req: Request) {
        self.push(Job {
            req,
            scheduled: None,
            done: None,
            span: sl2_trace::next_span(),
            end_span: true,
        });
    }

    /// Blocking request: routes like any submission, waits for the
    /// serving worker's response.
    ///
    /// A request routed to a crash-stopped worker never completes;
    /// callers under chaos use keys they know route to live workers
    /// (crash-stop is a *stopping* failure, DESIGN.md §10).
    pub fn call(&self, req: Request) -> Response {
        thread_local! {
            static CELL: Arc<Completion> = Arc::new(Completion::default());
        }
        let done = CELL.with(Arc::clone);
        debug_assert!(done.slot.lock().unwrap().is_none());
        let span = sl2_trace::next_span();
        self.push(Job {
            req,
            scheduled: None,
            done: Some(Arc::clone(&done)),
            span,
            // The caller marks End below, *after* it observed the
            // response — a worker-side End would stamp completions
            // earlier than the client saw them, manufacturing
            // precedence the run never exhibited (DESIGN.md §13).
            end_span: false,
        });
        let resp = {
            let mut slot = done.slot.lock().unwrap();
            loop {
                if let Some(resp) = slot.take() {
                    break resp;
                }
                slot = done.cv.wait(slot).unwrap();
            }
        };
        sl2_trace::span_end(probes::REQUEST, span, resp.trace_word());
        resp
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        let queues = self.shared.queues.iter();
        queues.map(|q| q.submitted.load(Ordering::Acquire)).sum()
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        let workers = self.shared.completed.iter();
        workers.map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// Waits until every submitted request has completed (spin +
    /// yield; submission is expected to have stopped). Under chaos a
    /// crash-stopped worker strands its queue — callers bound their
    /// own wait instead.
    pub fn drain(&self) {
        while self.completed() < self.submitted() {
            std::thread::yield_now();
        }
    }

    /// Merged scheduled→completion latency histogram across workers.
    pub fn latency_histogram(&self) -> Histogram {
        let mut out = Histogram::new();
        for h in self.shared.latency.iter() {
            out.merge(&h.lock().unwrap());
        }
        out
    }

    /// Stops accepting work, drains the queues' remaining jobs, and
    /// joins the workers. Called by `Drop`; explicit calls make the
    /// join point visible in tests.
    ///
    /// Under chaos: a crash-stopped worker must have been released
    /// (`sl2_chaos::release_crashed`) before shutdown, or the join
    /// blocks forever — the documented stopping-failure trade.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shared.closing.store(true, Ordering::Release);
        for q in self.shared.queues.iter() {
            // With the queue's lock held: a worker that read `closing`
            // false under it is inside `cv.wait` by now, not on its
            // way there, so this wake-up cannot be lost.
            let mut state = q.state.lock().unwrap();
            state.parked = false;
            q.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            // A worker that unwound (absorbed crash-stop) is already
            // accounted for by the chaos layer; join errors are not
            // possible because the unwind is caught inside the thread.
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_round_trips_each_op() {
        let mut svc = Service::new(64, 2, Backend::Sharded { shards: 2 });
        assert_eq!(
            svc.call(Request {
                key: 7,
                op: ServiceOp::WriteMax(41)
            }),
            Response::Ok
        );
        assert_eq!(
            svc.call(Request {
                key: 7,
                op: ServiceOp::ReadMax
            }),
            Response::Value(41)
        );
        assert_eq!(
            svc.call(Request {
                key: 9,
                op: ServiceOp::Inc
            }),
            Response::Ok
        );
        assert_eq!(
            svc.call(Request {
                key: 9,
                op: ServiceOp::ReadCount
            }),
            Response::Value(1)
        );
        assert_eq!(
            svc.call(Request {
                key: 7,
                op: ServiceOp::ReadCount
            }),
            Response::Value(0),
            "no cross-key bleed"
        );
        svc.shutdown();
    }

    #[test]
    fn submit_then_drain_lands_everything() {
        let svc = Service::new(1024, 4, Backend::Combining { shards: 2 });
        for k in 0..100u64 {
            for _ in 0..5 {
                svc.submit(Request {
                    key: k,
                    op: ServiceOp::Inc,
                });
            }
        }
        svc.drain();
        for k in 0..100u64 {
            assert_eq!(svc.registry().get_or_insert(&k).read_count(), 5, "key {k}");
        }
    }

    #[test]
    fn per_key_fifo_order_is_preserved() {
        let svc = Service::new(16, 3, Backend::Global);
        // Monotone writes through the dispatch path: the final max is
        // the largest, and every intermediate state was monotone
        // because one worker serves the key in FIFO order.
        for v in 1..=50u64 {
            svc.submit(Request {
                key: 3,
                op: ServiceOp::WriteMax(v),
            });
        }
        svc.drain();
        assert_eq!(svc.registry().get_or_insert(&3).read_max(), 50);
    }

    #[test]
    fn timed_submissions_record_latency() {
        let svc = Service::new(64, 2, Backend::Global);
        let t0 = Instant::now();
        for k in 0..32u64 {
            svc.submit_timed(
                Request {
                    key: k,
                    op: ServiceOp::Inc,
                },
                t0,
            );
        }
        svc.drain();
        let h = svc.latency_histogram();
        assert_eq!(h.count(), 32);
        assert!(h.p50() > 0, "scheduled→completion is never zero");
    }
}
