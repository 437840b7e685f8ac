//! The one worker pool: phase-bucketed, priority-aware work packets with
//! typed tiers and opening conditions, per-worker deques with steal-half
//! rebalancing, a worker monitor with parked/active accounting, and
//! per-packet panic isolation.
//!
//! ## Why buckets
//!
//! A flat pool treats every packet alike: an interactive serving re-route
//! submitted while a 1000-board batch fleet is draining queues behind it
//! and waits out the whole backlog. This scheduler layers **priority
//! buckets** over per-worker deques with steal-half rebalancing
//! (mmtk-core's `work_bucket`/`worker`/`worker_monitor` is the exemplar
//! shape):
//!
//! * [`Tier::Interactive`] — serving re-routes ([`crate::FleetSession`]);
//! * [`Tier::Batch`] — fleet routing ([`crate::route_fleet`] and the
//!   resilience layer's retry sub-fleets);
//! * [`Tier::Speculative`] — cache warm-up ([`crate::warm_fleet_cache`]),
//!   work that is pure opportunity and must never delay real requests.
//!
//! All three reach the pool through the fleet's one plan → execute →
//! resolve pipeline, whose `execute` step is the only caller of
//! [`run_packets`].
//!
//! **Opening condition:** a bucket is claimable only when every higher
//! tier is *drained* — no packets queued **or in flight** — or has
//! explicitly yielded ([`Scheduler::set_yield`]). Workers re-evaluate the
//! condition at every pop boundary, so an interactive packet arriving
//! mid-batch preempts the batch after at most one in-flight packet per
//! worker: that is the **preemption seam**, and
//! [`SchedCounters::preemptions`] counts every time a worker jumps from a
//! lower bucket to a higher one that still left the lower bucket pending.
//!
//! ## Worker monitor
//!
//! Workers with nothing claimable **park** on a condvar instead of
//! spinning; submissions and bucket drains bump a monitor epoch and wake
//! them. [`SchedCounters`] exposes the accounting — parks, unparks,
//! per-bucket packets executed and peak occupancy, steal traffic — so
//! steal behavior is observable ([`Scheduler::counters`]; cross-worker
//! counters read zero when one worker drains everything it seeded).
//!
//! ## Failure domains
//!
//! A packet is a failure domain. Every packet runs under
//! [`std::panic::catch_unwind`]: a panicking packet yields
//! [`JobStatus::Panicked`] in its own slot, the worker survives and keeps
//! draining, and every other packet's result is untouched. Panics are
//! counted per worker in [`WorkerCounters::panics`]. The optional `stop`
//! predicate is polled when each packet is claimed, so a cancelled or
//! over-deadline run stops burning CPU within one packet's granularity;
//! packets claimed after the trip report [`JobStatus::Skipped`].
//!
//! ## Why scheduling policy cannot change output
//!
//! Packets snapshot their inputs, each packet's result lands in the slot
//! of its input index, and callers consume slots in input order. Buckets,
//! parking, yields, steals, and preemption decide only *who runs what
//! when* — never what a packet computes or where its result lands. Fleet
//! output therefore stays bit-identical to sequential for every bucket
//! config, worker count, and preemption schedule (property-tested in
//! `tests/sched.rs`).

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Number of priority buckets.
pub const TIERS: usize = 3;

/// Worker-level counters of one packet run: who executed what, for how
/// long, and which packets panicked or were skipped. Steal traffic is
/// pool-wide and lives in [`SchedCounters`].
#[derive(Debug, Clone, Default)]
pub struct WorkerCounters {
    /// Workers that served the run (1 for the inline serial loop).
    pub workers: usize,
    /// Packets executed per worker (index = worker id); panicking
    /// packets count as executed.
    pub executed: Vec<u64>,
    /// Busy time (inside packet bodies) per worker.
    pub busy: Vec<Duration>,
    /// Panics caught per worker (index = worker id). The worker survives
    /// each one; the sum equals the number of `JobStatus::Panicked` slots.
    pub panics: Vec<u64>,
    /// Packets never run because the stop predicate tripped.
    pub skipped: u64,
}

impl WorkerCounters {
    /// Total busy time across workers.
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().sum()
    }

    /// Total executed packets (scheduled packets minus skipped ones).
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Total panics caught across workers.
    pub fn total_panics(&self) -> u64 {
        self.panics.iter().sum()
    }
}

/// The payload of a packet that panicked, preserved for re-raising or
/// reporting.
pub struct JobPanic {
    payload: Box<dyn Any + Send>,
}

impl JobPanic {
    /// Best-effort human-readable panic message (`&str` / `String`
    /// payloads; the usual `panic!` shapes).
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// The original payload, for [`std::panic::resume_unwind`].
    pub fn into_payload(self) -> Box<dyn Any + Send> {
        self.payload
    }
}

impl fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JobPanic({:?})", self.message())
    }
}

/// Per-packet outcome of a [`run_packets`] run.
#[derive(Debug)]
pub enum JobStatus<R> {
    /// The packet ran to completion.
    Done(R),
    /// The packet panicked; the worker caught it and moved on.
    Panicked(JobPanic),
    /// The packet never ran — the stop predicate tripped first.
    Skipped,
}

impl<R> JobStatus<R> {
    /// `true` for [`JobStatus::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, JobStatus::Done(_))
    }

    /// The result, if the packet completed.
    pub fn done(self) -> Option<R> {
        match self {
            JobStatus::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Priority bucket of a work packet. Lower discriminant = higher
/// priority; see the [module docs](self) for the opening condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Serving re-routes: latency-bound, always claimed first.
    Interactive = 0,
    /// Fleet routing: throughput work, opens when interactive is drained.
    Batch = 1,
    /// Cache warm-up: pure opportunity, opens when everything else is
    /// drained.
    Speculative = 2,
}

impl Tier {
    /// All tiers, highest priority first.
    pub const ALL: [Tier; TIERS] = [Tier::Interactive, Tier::Batch, Tier::Speculative];

    /// Bucket index (0 = highest priority).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label for logs and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Interactive => "interactive",
            Tier::Batch => "batch",
            Tier::Speculative => "speculative",
        }
    }
}

/// Bucket and monitor observability, cumulative over the scheduler's
/// lifetime (see [`SchedCounters::delta_since`] for per-run attribution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Packets executed per bucket (`[interactive, batch, speculative]`).
    pub packets: [u64; TIERS],
    /// Peak bucket occupancy: the largest queued+in-flight packet count
    /// each bucket ever held (a gauge — kept, not differenced, by
    /// [`SchedCounters::delta_since`]).
    pub peak_pending: [u64; TIERS],
    /// Times a worker parked on the monitor (nothing claimable).
    pub parks: u64,
    /// Times a parked worker was woken by a submission or bucket drain.
    pub unparks: u64,
    /// Times a worker jumped from a lower bucket to a higher one that
    /// left the lower bucket still pending — the preemption seam firing.
    pub preemptions: u64,
    /// Successful steal operations (each may move several packets).
    pub steals: u64,
    /// Packets moved by steals.
    pub stolen_jobs: u64,
    /// Victim probes, including empty-handed ones.
    pub steal_attempts: u64,
}

impl SchedCounters {
    /// Total packets executed across buckets.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Counter movement since `before` (monotonic counters differenced,
    /// peak gauges kept). With a scheduler private to one run this is the
    /// run's exact accounting; with a shared scheduler, concurrent
    /// workloads' packets land in whichever run's window they completed.
    pub fn delta_since(&self, before: &SchedCounters) -> SchedCounters {
        let mut packets = [0u64; TIERS];
        for (t, p) in packets.iter_mut().enumerate() {
            *p = self.packets[t].saturating_sub(before.packets[t]);
        }
        SchedCounters {
            packets,
            peak_pending: self.peak_pending,
            parks: self.parks.saturating_sub(before.parks),
            unparks: self.unparks.saturating_sub(before.unparks),
            preemptions: self.preemptions.saturating_sub(before.preemptions),
            steals: self.steals.saturating_sub(before.steals),
            stolen_jobs: self.stolen_jobs.saturating_sub(before.stolen_jobs),
            steal_attempts: self.steal_attempts.saturating_sub(before.steal_attempts),
        }
    }
}

/// A scheduled packet: type-erased, invoked with the executing worker's
/// id. The generic slot/counter plumbing lives in the wrapper
/// [`Scheduler::run`] builds.
type Packet = Box<dyn FnOnce(usize) + Send>;

struct Monitor {
    /// Bumped on every submission, bucket drain, and shutdown; parked
    /// workers wait for it to move.
    epoch: u64,
    /// Workers currently parked (active = workers − parked).
    parked: usize,
}

struct Inner {
    workers: usize,
    /// `queues[tier][worker]`.
    queues: Vec<Vec<Mutex<VecDeque<Packet>>>>,
    /// Queued + in-flight packets per bucket — the drain condition.
    pending: [AtomicUsize; TIERS],
    /// Buckets that explicitly yield: they stop closing lower buckets
    /// while their packets are in flight.
    yielded: [AtomicBool; TIERS],
    shutdown: AtomicBool,
    monitor: Mutex<Monitor>,
    cv: Condvar,
    packets: [AtomicU64; TIERS],
    peak: [AtomicUsize; TIERS],
    parks: AtomicU64,
    unparks: AtomicU64,
    preemptions: AtomicU64,
    steals: AtomicU64,
    stolen_jobs: AtomicU64,
    steal_attempts: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A poisoned queue/monitor mutex can only mean a panic inside this
    // module's own bookkeeping (packet bodies run under catch_unwind);
    // recover the state rather than wedging the pool.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Inner {
    /// Bumps the monitor epoch and wakes every parked worker (and any
    /// parked submitters re-checking their run's completion).
    fn wake_all(&self) {
        {
            let mut m = lock(&self.monitor);
            m.epoch += 1;
        }
        self.cv.notify_all();
    }

    fn submit(&self, tier: Tier, packets: Vec<Packet>) {
        let t = tier.index();
        let n = packets.len();
        if n == 0 {
            return;
        }
        let now = self.pending[t].fetch_add(n, Ordering::SeqCst) + n;
        self.peak[t].fetch_max(now, Ordering::Relaxed);
        // Round-robin seeding: packet i starts on worker i % workers, so a
        // run spreads across the pool before any stealing.
        for (i, p) in packets.into_iter().enumerate() {
            lock(&self.queues[t][i % self.workers]).push_back(p);
        }
        self.wake_all();
    }

    /// The pop boundary: scan buckets highest-priority first, honoring
    /// the opening condition. Returns the claimed packet and its tier, or
    /// `None` when nothing is claimable (park).
    fn claim(&self, w: usize) -> Option<(usize, Packet)> {
        for t in 0..TIERS {
            if self.pending[t].load(Ordering::SeqCst) == 0 {
                continue; // drained: the next bucket may open
            }
            if let Some(p) = lock(&self.queues[t][w]).pop_front() {
                return Some((t, p));
            }
            // Dry: probe victims round-robin from the right neighbor,
            // stealing the back half of the first non-empty deque.
            for k in 1..self.workers {
                let v = (w + k) % self.workers;
                self.steal_attempts.fetch_add(1, Ordering::Relaxed);
                let grabbed: VecDeque<Packet> = {
                    let mut victim = lock(&self.queues[t][v]);
                    let keep = victim.len() / 2;
                    victim.split_off(keep)
                };
                if grabbed.is_empty() {
                    continue;
                }
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.stolen_jobs
                    .fetch_add(grabbed.len() as u64, Ordering::Relaxed);
                let mut own = lock(&self.queues[t][w]);
                own.extend(grabbed);
                let p = own.pop_front();
                drop(own);
                if let Some(p) = p {
                    return Some((t, p));
                }
            }
            // Bucket t's remaining packets are all in flight elsewhere.
            // Lower buckets stay closed until it drains — unless it
            // explicitly yields.
            if !self.yielded[t].load(Ordering::Relaxed) {
                return None;
            }
        }
        None
    }

    fn worker_loop(self: &Arc<Inner>, w: usize) {
        let mut last_tier: Option<usize> = None;
        loop {
            let seen = lock(&self.monitor).epoch;
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.claim(w) {
                Some((t, packet)) => {
                    if let Some(last) = last_tier {
                        if t < last && self.pending[last].load(Ordering::SeqCst) > 0 {
                            self.preemptions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    last_tier = Some(t);
                    // Packet wrappers isolate their own panics into job
                    // slots (and count themselves in packets[t] before
                    // releasing their run's completion guard); this catch
                    // is the belt under the braces so a raw packet can
                    // never kill the worker either.
                    let _ = catch_unwind(AssertUnwindSafe(|| packet(w)));
                    if self.pending[t].fetch_sub(1, Ordering::SeqCst) == 1 {
                        // Bucket drained: lower buckets open, wake the
                        // parked workers to claim them.
                        self.wake_all();
                    }
                }
                None => {
                    let mut m = lock(&self.monitor);
                    if m.epoch != seen {
                        continue; // something arrived between scan and lock
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    m.parked += 1;
                    while m.epoch == seen && !self.shutdown.load(Ordering::SeqCst) {
                        m = match self.cv.wait(m) {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                    }
                    m.parked -= 1;
                    self.unparks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn counters(&self) -> SchedCounters {
        let mut packets = [0u64; TIERS];
        let mut peak = [0u64; TIERS];
        for t in 0..TIERS {
            packets[t] = self.packets[t].load(Ordering::Relaxed);
            peak[t] = self.peak[t].load(Ordering::Relaxed) as u64;
        }
        SchedCounters {
            packets,
            peak_pending: peak,
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            stolen_jobs: self.stolen_jobs.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
        }
    }
}

/// Per-run completion and accounting state, shared between the submitter
/// and the packets it spawned.
struct RunShared<R> {
    slots: Vec<Mutex<Option<JobStatus<R>>>>,
    remaining: AtomicUsize,
    executed: Vec<AtomicU64>,
    busy_nanos: Vec<AtomicU64>,
    panics: Vec<AtomicU64>,
    skipped: AtomicU64,
    done: Mutex<bool>,
    cv: Condvar,
}

impl<R> RunShared<R> {
    fn new(n: usize, workers: usize) -> RunShared<R> {
        RunShared {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            panics: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            skipped: AtomicU64::new(0),
            // An empty run is finished before it starts.
            done: Mutex::new(n == 0),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = match self.cv.wait(done) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// Accounts a claimed packet as finished even if slot assignment unwinds
/// — without this a crashing packet would leave its submitter waiting
/// forever.
struct FinishGuard<R>(Arc<RunShared<R>>);

impl<R> Drop for FinishGuard<R> {
    fn drop(&mut self) {
        if self.0.remaining.fetch_sub(1, Ordering::Release) == 1 {
            *lock(&self.0.done) = true;
            self.0.cv.notify_all();
        }
    }
}

/// A persistent priority-bucketed worker pool. Create one per serving
/// process (or let [`run_packets`] spin up an ephemeral one per call),
/// share it via `Arc`, and submit runs from any thread — concurrent runs
/// interleave under the bucket opening condition.
pub struct Scheduler {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.inner.workers)
            .finish()
    }
}

impl Scheduler {
    /// Spawns `workers` (≥ 1) parked worker threads.
    pub fn new(workers: usize) -> Scheduler {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            workers,
            queues: (0..TIERS)
                .map(|_| (0..workers).map(|_| Mutex::new(VecDeque::new())).collect())
                .collect(),
            pending: Default::default(),
            yielded: Default::default(),
            shutdown: AtomicBool::new(false),
            monitor: Mutex::new(Monitor {
                epoch: 0,
                parked: 0,
            }),
            cv: Condvar::new(),
            packets: Default::default(),
            peak: Default::default(),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            preemptions: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            stolen_jobs: AtomicU64::new(0),
            steal_attempts: AtomicU64::new(0),
        });
        let threads = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("meander-sched-{w}"))
                    .spawn(move || inner.worker_loop(w))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { inner, threads }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Workers currently parked (a gauge; `workers() - parked` are
    /// active or scanning).
    pub fn parked(&self) -> usize {
        lock(&self.inner.monitor).parked
    }

    /// Cumulative bucket/monitor counters.
    pub fn counters(&self) -> SchedCounters {
        self.inner.counters()
    }

    /// Marks `tier` as yielding: while set, its in-flight packets no
    /// longer close lower buckets (queued packets still claim their
    /// bucket's priority). Use when a high tier blocks on something
    /// external and idle workers should chew lower-tier work meanwhile.
    pub fn set_yield(&self, tier: Tier, yielded: bool) {
        self.inner.yielded[tier.index()].store(yielded, Ordering::Relaxed);
        self.inner.wake_all();
    }

    /// Submits one packet per item into `tier` and blocks until every
    /// packet resolved, returning one [`JobStatus`] per item in input
    /// order, the run's worker-level counters, and the scheduler counter
    /// movement over the run's window.
    ///
    /// A panicking packet yields [`JobStatus::Panicked`] in its own slot
    /// and the pool survives; `stop` is polled when each packet is
    /// claimed — tripped packets resolve [`JobStatus::Skipped`] without
    /// running `f`.
    pub fn run<T, R, F>(
        &self,
        tier: Tier,
        items: Arc<Vec<T>>,
        stop: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
        f: Arc<F>,
    ) -> (Vec<JobStatus<R>>, WorkerCounters, SchedCounters)
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let workers = self.inner.workers;
        let before = self.inner.counters();
        let state: Arc<RunShared<R>> = Arc::new(RunShared::new(n, workers));
        let packets: Vec<Packet> = (0..n)
            .map(|i| {
                let state = Arc::clone(&state);
                let items = Arc::clone(&items);
                let f = Arc::clone(&f);
                let stop = stop.clone();
                let inner = Arc::clone(&self.inner);
                Box::new(move |w: usize| {
                    // Declared first ⇒ drops last: the packet is counted
                    // in packets[t] before the submitter can wake and
                    // snapshot its counter delta.
                    let _finish = FinishGuard(Arc::clone(&state));
                    inner.packets[tier.index()].fetch_add(1, Ordering::Relaxed);
                    let status = if stop.as_ref().is_some_and(|s| s()) {
                        state.skipped.fetch_add(1, Ordering::Relaxed);
                        JobStatus::Skipped
                    } else {
                        let t0 = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                        let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        state.busy_nanos[w].fetch_add(nanos, Ordering::Relaxed);
                        state.executed[w].fetch_add(1, Ordering::Relaxed);
                        match result {
                            Ok(r) => JobStatus::Done(r),
                            Err(payload) => {
                                state.panics[w].fetch_add(1, Ordering::Relaxed);
                                JobStatus::Panicked(JobPanic { payload })
                            }
                        }
                    };
                    *lock(&state.slots[i]) = Some(status);
                }) as Packet
            })
            .collect();
        self.inner.submit(tier, packets);
        state.wait();
        let delta = self.inner.counters().delta_since(&before);

        let load =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|a| a.load(Ordering::Relaxed)).collect() };
        // Drained in place: a packet's Arc clone can outlive its
        // FinishGuard by an instant.
        let statuses: Vec<JobStatus<R>> = state
            .slots
            .iter()
            .map(|s| lock(s).take().unwrap_or(JobStatus::Skipped))
            .collect();
        let counters = WorkerCounters {
            workers,
            executed: load(&state.executed),
            busy: load(&state.busy_nanos)
                .into_iter()
                .map(Duration::from_nanos)
                .collect(),
            panics: load(&state.panics),
            skipped: state.skipped.load(Ordering::Relaxed),
        };
        (statuses, counters, delta)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Routes a packet run to `sched` when attached, an ephemeral
/// [`Scheduler`] when parallelism is wanted, or an inline serial loop
/// (same isolation, same stop semantics, no threads) for 1 worker or ≤ 1
/// item. The fleet pipeline's `execute` step is its one production
/// caller, for batch fleets, serving re-routes, and warm-up alike.
pub fn run_packets<T, R, F>(
    sched: Option<&Arc<Scheduler>>,
    tier: Tier,
    workers: usize,
    items: Arc<Vec<T>>,
    stop: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    f: Arc<F>,
) -> (Vec<JobStatus<R>>, WorkerCounters, SchedCounters)
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    if let Some(s) = sched {
        return s.run(tier, items, stop, f);
    }
    let n = items.len();
    if workers <= 1 || n <= 1 {
        let t0 = Instant::now();
        let mut out: Vec<JobStatus<R>> = Vec::with_capacity(n);
        let mut panics = 0u64;
        let mut executed = 0u64;
        for item in items.iter() {
            if stop.as_ref().is_some_and(|s| s()) {
                out.push(JobStatus::Skipped);
                continue;
            }
            executed += 1;
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => out.push(JobStatus::Done(r)),
                Err(payload) => {
                    panics += 1;
                    out.push(JobStatus::Panicked(JobPanic { payload }));
                }
            }
        }
        let skipped = out
            .iter()
            .filter(|s| matches!(s, JobStatus::Skipped))
            .count() as u64;
        let counters = WorkerCounters {
            workers: 1,
            executed: vec![executed],
            busy: vec![t0.elapsed()],
            panics: vec![panics],
            skipped,
        };
        let mut sched_counters = SchedCounters::default();
        sched_counters.packets[tier.index()] = executed;
        sched_counters.peak_pending[tier.index()] = n as u64;
        return (out, counters, sched_counters);
    }
    let s = Scheduler::new(workers.min(n));
    s.run(tier, items, stop, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Execution log: (tier, item) pairs in completion order.
    type Log = Arc<Mutex<Vec<(Tier, usize)>>>;

    fn logging_run(
        sched: &Arc<Scheduler>,
        tier: Tier,
        n: usize,
        spin: Duration,
        log: &Log,
    ) -> Vec<JobStatus<usize>> {
        let log = Arc::clone(log);
        let items: Arc<Vec<usize>> = Arc::new((0..n).collect());
        let (statuses, _, _) = sched.run(
            tier,
            items,
            None,
            Arc::new(move |&i: &usize| {
                std::thread::sleep(spin);
                lock(&log).push((tier, i));
                i
            }),
        );
        statuses
    }

    #[test]
    fn results_land_in_input_order() {
        let sched = Arc::new(Scheduler::new(4));
        let items: Arc<Vec<u64>> = Arc::new((0..257).collect());
        let (out, counters, delta) = sched.run(
            Tier::Batch,
            Arc::clone(&items),
            None,
            Arc::new(|&x: &u64| x * x),
        );
        let got: Vec<u64> = out.into_iter().map(|s| s.done().unwrap()).collect();
        assert_eq!(got, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert_eq!(counters.total_executed(), 257);
        assert_eq!(delta.packets[Tier::Batch.index()], 257);
        assert_eq!(delta.packets[Tier::Interactive.index()], 0);
        assert!(delta.peak_pending[Tier::Batch.index()] >= 1);
    }

    #[test]
    fn serial_fallback_matches() {
        let items: Arc<Vec<u64>> = Arc::new((0..64).collect());
        let (out, counters, delta) = run_packets(
            None,
            Tier::Interactive,
            1,
            Arc::clone(&items),
            None,
            Arc::new(|&x: &u64| x + 1),
        );
        let got: Vec<u64> = out.into_iter().map(|s| s.done().unwrap()).collect();
        assert_eq!(got, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
        assert_eq!(counters.workers, 1);
        assert_eq!(delta.packets[Tier::Interactive.index()], 64);
        // Zero and one packet take the inline loop whatever the workers.
        for n in [0u64, 1] {
            let items: Arc<Vec<u64>> = Arc::new((41..41 + n).collect());
            let (out, c, _) = run_packets(
                None,
                Tier::Batch,
                4,
                items,
                None,
                Arc::new(|&x: &u64| x + 1),
            );
            let got: Vec<u64> = out.into_iter().map(|s| s.done().unwrap()).collect();
            assert_eq!(got, (42..42 + n).collect::<Vec<_>>());
            assert_eq!((c.workers, c.total_executed()), (1, n));
        }
    }

    /// Once any interactive packet is claimed, every remaining interactive
    /// packet is claimed before any batch packet (the scan always visits
    /// the interactive bucket first) — so with one worker, the interactive
    /// run is contiguous in the execution log.
    #[test]
    fn interactive_preempts_batch_at_packet_boundary() {
        let sched = Arc::new(Scheduler::new(1));
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let batch = {
            let sched = Arc::clone(&sched);
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                logging_run(&sched, Tier::Batch, 24, Duration::from_millis(4), &log)
            })
        };
        // Let the batch get going, then demand interactive service.
        std::thread::sleep(Duration::from_millis(20));
        logging_run(&sched, Tier::Interactive, 6, Duration::from_millis(1), &log);
        batch.join().unwrap();
        let entries = lock(&log).clone();
        assert_eq!(entries.len(), 30);
        let first_i = entries
            .iter()
            .position(|(t, _)| *t == Tier::Interactive)
            .expect("interactive ran");
        let last_i = entries
            .iter()
            .rposition(|(t, _)| *t == Tier::Interactive)
            .unwrap();
        assert!(
            first_i > 0,
            "batch started first (submitted 20ms earlier): {entries:?}"
        );
        assert!(
            entries[first_i..=last_i]
                .iter()
                .all(|(t, _)| *t == Tier::Interactive),
            "no batch packet may interleave an interactive wave: {entries:?}"
        );
        assert!(
            last_i < entries.len() - 1,
            "batch resumed after the wave: {entries:?}"
        );
        let c = sched.counters();
        assert!(
            c.preemptions >= 1,
            "the worker jumped buckets mid-batch: {c:?}"
        );
    }

    /// The opening condition is strict: while an interactive packet is in
    /// flight, a batch packet is not started even by an idle worker — the
    /// batch bucket opens only when interactive drains.
    #[test]
    fn lower_bucket_waits_for_higher_drain() {
        let sched = Arc::new(Scheduler::new(2));
        let interactive_done = Arc::new(AtomicBool::new(false));
        let overlap = Arc::new(AtomicBool::new(false));
        let handle = {
            let sched = Arc::clone(&sched);
            let done = Arc::clone(&interactive_done);
            std::thread::spawn(move || {
                let done2 = Arc::clone(&done);
                let (st, _, _) = sched.run(
                    Tier::Interactive,
                    Arc::new(vec![0usize]),
                    None,
                    Arc::new(move |_: &usize| {
                        std::thread::sleep(Duration::from_millis(60));
                        done2.store(true, Ordering::SeqCst);
                    }),
                );
                assert!(st[0].is_done());
            })
        };
        std::thread::sleep(Duration::from_millis(15));
        let done = Arc::clone(&interactive_done);
        let overlap2 = Arc::clone(&overlap);
        let (st, _, _) = sched.run(
            Tier::Batch,
            Arc::new(vec![0usize]),
            None,
            Arc::new(move |_: &usize| {
                if !done.load(Ordering::SeqCst) {
                    overlap2.store(true, Ordering::SeqCst);
                }
            }),
        );
        assert!(st[0].is_done());
        handle.join().unwrap();
        assert!(
            !overlap.load(Ordering::SeqCst),
            "batch packet ran while interactive was still in flight"
        );
    }

    /// `set_yield` relaxes exactly that: a yielding interactive bucket
    /// lets the idle worker run batch work while it sleeps.
    #[test]
    fn yielding_bucket_opens_lower_tiers() {
        let sched = Arc::new(Scheduler::new(2));
        sched.set_yield(Tier::Interactive, true);
        let interactive_done = Arc::new(AtomicBool::new(false));
        let overlapped = Arc::new(AtomicBool::new(false));
        let handle = {
            let sched = Arc::clone(&sched);
            let done = Arc::clone(&interactive_done);
            std::thread::spawn(move || {
                let done2 = Arc::clone(&done);
                let (st, _, _) = sched.run(
                    Tier::Interactive,
                    Arc::new(vec![0usize]),
                    None,
                    Arc::new(move |_: &usize| {
                        std::thread::sleep(Duration::from_millis(120));
                        done2.store(true, Ordering::SeqCst);
                    }),
                );
                assert!(st[0].is_done());
            })
        };
        std::thread::sleep(Duration::from_millis(15));
        let done = Arc::clone(&interactive_done);
        let overlapped2 = Arc::clone(&overlapped);
        let (st, _, _) = sched.run(
            Tier::Batch,
            Arc::new(vec![0usize]),
            None,
            Arc::new(move |_: &usize| {
                if !done.load(Ordering::SeqCst) {
                    overlapped2.store(true, Ordering::SeqCst);
                }
            }),
        );
        assert!(st[0].is_done());
        handle.join().unwrap();
        assert!(
            overlapped.load(Ordering::SeqCst),
            "a yielded interactive bucket must not block batch work"
        );
    }

    /// A panicking packet is its own failure domain on both paths — a
    /// persistent pool and the inline one-worker loop (the path a
    /// single-worker fleet or session takes): the healthy packets complete
    /// with correct values, the panic lands in its own slot with its
    /// message, and the per-worker counters account for exactly one catch.
    #[test]
    fn panicking_packet_is_isolated() {
        let pool = Arc::new(Scheduler::new(2));
        // The pool runs twice: it must survive the first run's panic.
        for sched in [Some(&pool), Some(&pool), None] {
            let items: Arc<Vec<u32>> = Arc::new((0..16).collect());
            let (statuses, counters, _) = run_packets(
                sched,
                Tier::Batch,
                1,
                items,
                None,
                Arc::new(|&x: &u32| {
                    assert!(x != 7, "boom at 7");
                    x * 10
                }),
            );
            assert_eq!(statuses.len(), 16);
            for (i, s) in statuses.iter().enumerate() {
                match s {
                    JobStatus::Done(v) => assert_eq!(*v, i as u32 * 10),
                    JobStatus::Panicked(p) => {
                        assert_eq!(i, 7);
                        assert!(p.message().contains("boom at 7"));
                    }
                    JobStatus::Skipped => panic!("nothing may be skipped"),
                }
            }
            assert_eq!(counters.total_panics(), 1);
            assert_eq!(counters.total_executed(), 16, "panicked packet still ran");
            assert_eq!(counters.panics.len(), counters.workers);
        }
    }

    /// A tripped stop predicate skips every unclaimed packet, on a pool
    /// and inline; inline, a predicate that trips after the first claim
    /// lets exactly that packet run.
    #[test]
    fn stop_predicate_skips_packets() {
        let pool = Arc::new(Scheduler::new(2));
        for sched in [Some(&pool), None] {
            let items: Arc<Vec<u32>> = Arc::new((0..32).collect());
            let stop: Arc<dyn Fn() -> bool + Send + Sync> = Arc::new(|| true);
            let (statuses, counters, _) = run_packets(
                sched,
                Tier::Batch,
                1,
                items,
                Some(stop),
                Arc::new(|&x: &u32| x),
            );
            assert!(statuses.iter().all(|s| matches!(s, JobStatus::Skipped)));
            assert_eq!(counters.skipped, 32);
            assert_eq!(counters.total_executed(), 0);
        }
        let fired = Arc::new(AtomicBool::new(false));
        let stop: Arc<dyn Fn() -> bool + Send + Sync> =
            Arc::new(move || fired.swap(true, Ordering::Relaxed));
        let items: Arc<Vec<u32>> = Arc::new((0..32).collect());
        let (statuses, counters, _) = run_packets(
            None,
            Tier::Batch,
            1,
            items,
            Some(stop),
            Arc::new(|&x: &u32| x),
        );
        assert_eq!(statuses.iter().filter(|s| s.is_done()).count(), 1);
        assert!(statuses[0].is_done(), "the first claim ran");
        assert_eq!(counters.skipped, 31);
    }

    #[test]
    fn workers_park_when_idle() {
        let sched = Arc::new(Scheduler::new(3));
        // Give the spawned workers a moment to find nothing and park.
        for _ in 0..100 {
            if sched.parked() == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(sched.parked(), 3, "idle workers park on the monitor");
        let c0 = sched.counters();
        assert!(c0.parks >= 3);
        let items: Arc<Vec<u64>> = Arc::new((0..64).collect());
        let (_, _, delta) = sched.run(Tier::Speculative, items, None, Arc::new(|&x: &u64| x));
        assert_eq!(delta.packets[Tier::Speculative.index()], 64);
        let c1 = sched.counters();
        assert!(c1.unparks >= 1, "submission woke at least one worker");
    }

    #[test]
    fn counters_are_consistent() {
        let sched = Arc::new(Scheduler::new(4));
        let items: Arc<Vec<u64>> = Arc::new((0..500).collect());
        let (out, c, delta) = sched.run(Tier::Batch, items, None, Arc::new(|&x: &u64| x));
        assert_eq!(out.len(), 500);
        // Every steal moved at least one packet; attempts ≥ steals.
        assert!(delta.steal_attempts >= delta.steals);
        assert!(delta.stolen_jobs >= delta.steals);
        assert_eq!(c.total_executed(), 500);
        assert_eq!(c.executed.len(), c.workers);
        assert_eq!(c.busy.len(), c.workers);
        assert_eq!(delta.total_packets(), 500);
        assert!(delta.peak_pending[Tier::Batch.index()] <= 500);
    }

    /// Front-loaded heavy packets on an ephemeral pool with more workers
    /// than packets: the pool is capped at the packet count, and every
    /// packet runs exactly once, in input order.
    #[test]
    fn uneven_packets_on_an_oversized_pool_all_run() {
        let items: Arc<Vec<u64>> =
            Arc::new((0..3).map(|i| if i == 0 { 200_000 } else { 50 }).collect());
        let (out, c, _) = run_packets(
            None,
            Tier::Batch,
            16,
            Arc::clone(&items),
            None,
            Arc::new(|&spin: &u64| {
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                (spin, acc)
            }),
        );
        let got: Vec<u64> = out.into_iter().map(|s| s.done().unwrap().0).collect();
        assert_eq!(got, *items);
        assert!(c.workers <= 3, "{c:?}");
        assert_eq!(c.total_executed(), 3);
    }

    #[test]
    fn empty_run_returns_immediately() {
        let sched = Arc::new(Scheduler::new(2));
        let items: Arc<Vec<u64>> = Arc::new(Vec::new());
        let (out, c, delta) = sched.run(Tier::Interactive, items, None, Arc::new(|&x: &u64| x));
        assert!(out.is_empty());
        assert_eq!(c.total_executed(), 0);
        assert_eq!(delta.total_packets(), 0);
    }

    #[test]
    fn tier_labels_and_order() {
        assert!(Tier::Interactive < Tier::Batch);
        assert!(Tier::Batch < Tier::Speculative);
        assert_eq!(Tier::ALL.len(), TIERS);
        assert_eq!(Tier::Interactive.label(), "interactive");
        assert_eq!(Tier::Speculative.index(), 2);
    }
}
