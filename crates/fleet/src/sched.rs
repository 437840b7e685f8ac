//! The one worker pool: phase-bucketed, priority-aware work packets with
//! typed tiers and opening conditions, run by the thread that submits
//! them with help from parked pool threads, a monitor with parked/active
//! accounting, and per-packet panic isolation.
//!
//! ## Why buckets
//!
//! A flat pool treats every packet alike: an interactive serving re-route
//! submitted while a 1000-board batch fleet is draining queues behind it
//! and waits out the whole backlog. This scheduler layers **priority
//! buckets** over the runs submitted to it (mmtk-core's
//! `work_bucket`/`worker`/`worker_monitor` is the exemplar shape):
//!
//! * [`Tier::Interactive`] — serving re-routes ([`crate::FleetSession`]);
//! * [`Tier::Batch`] — fleet routing ([`crate::route_fleet`] and the
//!   resilience layer's retry sub-fleets);
//! * [`Tier::Speculative`] — cache warm-up ([`crate::warm_fleet_cache`]),
//!   work that is pure opportunity and must never delay real requests.
//!
//! All three reach the pool through the fleet's one plan → execute →
//! resolve pipeline, whose `execute` step is the only caller of
//! `run_packets`.
//!
//! **Caller runs.** A run is one claim cursor over its packets, pushed
//! onto its tier's bucket. The thread that calls `Scheduler::run`
//! claims and executes its own run's packets, the way an mmtk coordinator
//! drains the shared queue it fills, and the pool's `workers − 1` helper
//! threads claim from the highest open bucket. So `Scheduler::new(1)` is
//! the caller-only pool: a run costs no thread hand-off, and
//! `run_packets` without an attached scheduler needs no second path.
//!
//! **Opening condition:** a bucket is claimable only when every higher
//! tier is *drained* — no packets unclaimed **or in flight**. Callers and
//! helpers re-evaluate the condition at every claim, so an interactive
//! run arriving mid-batch preempts the batch after at most one in-flight
//! packet per thread: that is the **preemption seam**.
//! [`SchedCounters::preemptions`] counts a helper jumping from a lower
//! bucket to a higher one that left the lower bucket pending, and a
//! caller parking with unclaimed packets because a higher bucket opened.
//!
//! ## Monitor
//!
//! Helpers with nothing claimable, and callers whose tier is closed or
//! whose last packets are in flight on helpers, **park** on one condvar
//! instead of spinning; submissions, bucket drains and run completions
//! bump a monitor epoch and wake them. [`SchedCounters`] exposes the accounting — per-bucket
//! packets executed, steals (packets a helper ran for a caller),
//! preemptions ([`Scheduler::counters`]).
//!
//! ## Failure domains
//!
//! A packet is a failure domain. Every packet runs under
//! [`std::panic::catch_unwind`]: a panicking packet yields
//! `JobStatus::Panicked` in its own slot, the serving thread survives
//! and keeps claiming, and every other packet's result is untouched.
//! Panics are counted per thread in [`WorkerCounters::panics`]. The
//! optional `stop` predicate is polled when each packet is claimed, so a
//! cancelled or over-deadline run stops burning CPU within one packet's
//! granularity; packets claimed after the trip report
//! `JobStatus::Skipped`.
//!
//! ## Why scheduling policy cannot change output
//!
//! Packets snapshot their inputs, each packet's result lands in the slot
//! of its input index, and callers consume slots in input order. Buckets,
//! parking, helpers, and preemption decide only *who runs what when* —
//! never what a packet computes or where its result lands. Fleet
//! output therefore stays bit-identical to sequential for every bucket
//! config, worker count, and preemption schedule (property-tested in
//! `tests/sched.rs`).

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Number of priority buckets.
pub(crate) const TIERS: usize = 3;

/// Thread-level counters of one packet run: who executed what, for how
/// long, and which packets panicked or were skipped. Steal traffic is
/// pool-wide and lives in [`SchedCounters`].
#[derive(Debug, Clone, Default)]
pub struct WorkerCounters {
    /// Threads that served the run: the pool's helpers, then the caller.
    pub workers: usize,
    /// Packets executed per serving thread (index = helper id, the caller
    /// last); panicking packets count as executed.
    pub executed: Vec<u64>,
    /// Busy time (inside packet bodies) per serving thread.
    pub busy: Vec<Duration>,
    /// Panics caught per serving thread. The thread survives each one;
    /// the sum equals the number of `JobStatus::Panicked` slots.
    pub panics: Vec<u64>,
    /// Packets never run because the stop predicate tripped.
    pub skipped: u64,
}

impl WorkerCounters {
    /// Total busy time across serving threads.
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().sum()
    }

    /// Total executed packets (scheduled packets minus skipped ones).
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }
}

/// The payload of a packet that panicked, preserved for re-raising or
/// reporting.
pub(crate) struct JobPanic {
    payload: Box<dyn Any + Send>,
}

impl JobPanic {
    /// Best-effort human-readable panic message (`&str` / `String`
    /// payloads; the usual `panic!` shapes).
    pub(crate) fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }
}

impl fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JobPanic({:?})", self.message())
    }
}

/// Per-packet outcome of a [`run_packets`] run.
#[derive(Debug)]
pub(crate) enum JobStatus<R> {
    /// The packet ran to completion.
    Done(R),
    /// The packet panicked; the serving thread caught it and moved on.
    Panicked(JobPanic),
    /// The packet never ran — the stop predicate tripped first.
    Skipped,
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
    /// Bucket index (0 = highest priority).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Bucket and monitor observability, cumulative over the scheduler's
/// lifetime (see [`SchedCounters::delta_since`] for per-run attribution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Packets executed per bucket (`[interactive, batch, speculative]`);
    /// packets the stop predicate skipped are not counted, panicking
    /// ones are.
    pub packets: [u64; TIERS],
    /// Times the preemption seam fired: a helper jumped from a lower
    /// bucket to a higher one that left the lower bucket still pending,
    /// or a caller parked with unclaimed packets because a higher bucket
    /// opened.
    pub preemptions: u64,
    /// Packets a pool helper ran for another thread's run.
    pub steals: u64,
}

impl SchedCounters {
    /// Counter movement since `before`. With a scheduler private to one
    /// run this is the run's exact accounting; with a shared scheduler,
    /// concurrent workloads' packets land in whichever run's window they
    /// completed.
    pub fn delta_since(&self, before: &SchedCounters) -> SchedCounters {
        let mut packets = [0u64; TIERS];
        for (t, p) in packets.iter_mut().enumerate() {
            *p = self.packets[t].saturating_sub(before.packets[t]);
        }
        SchedCounters {
            packets,
            preemptions: self.preemptions.saturating_sub(before.preemptions),
            steals: self.steals.saturating_sub(before.steals),
        }
    }
}

/// A submitted run as the pool sees it: one claim cursor over its
/// packets. The generic slot/counter plumbing lives in [`RunState`].
trait Run: Send + Sync {
    /// Claims the next unclaimed packet's index, if any is left.
    fn claim(&self) -> Option<usize>;
    /// Executes claimed packet `i`, accounting it to serving slot `w`.
    fn exec(&self, i: usize, w: usize, pool: &Inner);
}

#[derive(Default)]
struct Monitor {
    /// Bumped on every submission, bucket drain, run completion, and
    /// shutdown; parked threads wait for it to move.
    epoch: u64,
    /// Helpers currently parked (active = helpers − parked).
    parked: usize,
}

#[derive(Default)]
struct Inner {
    /// Pool helper threads; with a run's caller they make `workers`.
    helpers: usize,
    /// Live runs per bucket, in submission order.
    buckets: [Mutex<Vec<Arc<dyn Run>>>; TIERS],
    /// Unclaimed + in-flight packets per bucket — the drain condition.
    pending: [AtomicUsize; TIERS],
    shutdown: AtomicBool,
    monitor: Mutex<Monitor>,
    cv: Condvar,
    packets: [AtomicU64; TIERS],
    preemptions: AtomicU64,
    steals: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned bucket/slot/monitor mutex can only mean a panic inside
    // this module's own bookkeeping (packet bodies run under
    // catch_unwind); recover the state rather than wedging the pool.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inner {
    fn epoch(&self) -> u64 {
        lock(&self.monitor).epoch
    }

    /// Bumps the monitor epoch and wakes every parked thread.
    fn wake_all(&self) {
        lock(&self.monitor).epoch += 1;
        self.cv.notify_all();
    }

    /// The opening condition of bucket `t`: every higher bucket drained.
    fn open(&self, t: usize) -> bool {
        self.pending[..t]
            .iter()
            .all(|p| p.load(Ordering::SeqCst) == 0)
    }

    /// A helper's claim: scan buckets highest-priority first, honoring
    /// the opening condition. Returns the tier, run and packet index, or
    /// `None` when nothing is claimable (park).
    fn claim(&self) -> Option<(usize, Arc<dyn Run>, usize)> {
        let t = (0..TIERS).find(|&t| self.pending[t].load(Ordering::SeqCst) > 0)?;
        // Bucket t may hold only packets in flight elsewhere; lower
        // buckets stay closed until it drains.
        lock(&self.buckets[t])
            .iter()
            .find_map(|run| run.claim().map(|i| (t, Arc::clone(run), i)))
    }

    /// Blocks until the monitor epoch moves past `seen` or the pool shuts
    /// down; `helper` threads count in the parked gauge.
    fn park(&self, seen: u64, helper: bool) {
        let mut m = lock(&self.monitor);
        m.parked += usize::from(helper);
        while m.epoch == seen && !self.shutdown.load(Ordering::SeqCst) {
            m = self.cv.wait(m).unwrap_or_else(PoisonError::into_inner);
        }
        m.parked -= usize::from(helper);
    }

    fn helper_loop(&self, w: usize) {
        let mut last_tier: Option<usize> = None;
        while !self.shutdown.load(Ordering::SeqCst) {
            let seen = self.epoch();
            let Some((t, run, i)) = self.claim() else {
                self.park(seen, true);
                continue;
            };
            if last_tier
                .is_some_and(|last| t < last && self.pending[last].load(Ordering::SeqCst) > 0)
            {
                self.preemptions.fetch_add(1, Ordering::Relaxed);
            }
            last_tier = Some(t);
            // Packet bodies isolate their own panics into job slots; this
            // catch is the belt under the braces so the run's bookkeeping
            // can never kill a helper either.
            let _ = catch_unwind(AssertUnwindSafe(|| run.exec(i, w, self)));
        }
    }

    fn counters(&self) -> SchedCounters {
        SchedCounters {
            packets: std::array::from_fn(|t| self.packets[t].load(Ordering::Relaxed)),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }
}

type Stop = Arc<dyn Fn() -> bool + Send + Sync>;

/// A run's items, stop predicate and packet body.
type Body<T, F> = (Arc<Vec<T>>, Option<Stop>, Arc<F>);

/// One submitted run: its claim cursor, input-order result slots, and
/// per-thread accounting (helpers first, the caller last).
struct RunState<T, R, F> {
    tier: usize,
    /// The caller's serving slot.
    caller: usize,
    /// The caller takes the body back once every packet resolved, so
    /// nothing it passed outlives [`Scheduler::run`], even while a helper
    /// still holds the run.
    body: RwLock<Option<Body<T, F>>>,
    n: usize,
    /// Next packet index to claim.
    next: AtomicUsize,
    /// Packets not yet resolved.
    remaining: AtomicUsize,
    slots: Vec<Mutex<Option<JobStatus<R>>>>,
    executed: Vec<AtomicU64>,
    busy_nanos: Vec<AtomicU64>,
    panics: Vec<AtomicU64>,
    skipped: AtomicU64,
}

impl<T, R, F> Run for RunState<T, R, F>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    fn exec(&self, i: usize, w: usize, pool: &Inner) {
        // Declared first ⇒ drops last: an executed packet is counted in
        // packets[t] and its slot filled before the caller can see the
        // run finish and snapshot its counter delta.
        let _finish = FinishGuard { run: self, pool };
        let body = self.body.read().unwrap_or_else(PoisonError::into_inner);
        let (items, stop, f) = body.as_ref().expect("a claimed packet's run is live");
        let status = if stop.as_ref().is_some_and(|s| s()) {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            JobStatus::Skipped
        } else {
            pool.packets[self.tier].fetch_add(1, Ordering::Relaxed);
            if w != self.caller {
                pool.steals.fetch_add(1, Ordering::Relaxed);
            }
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
            let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.busy_nanos[w].fetch_add(nanos, Ordering::Relaxed);
            self.executed[w].fetch_add(1, Ordering::Relaxed);
            match result {
                Ok(r) => JobStatus::Done(r),
                Err(payload) => {
                    self.panics[w].fetch_add(1, Ordering::Relaxed);
                    JobStatus::Panicked(JobPanic { payload })
                }
            }
        };
        *lock(&self.slots[i]) = Some(status);
    }
}

/// Accounts a claimed packet as finished even if slot assignment unwinds
/// — without this a crashing packet would leave its caller waiting
/// forever.
struct FinishGuard<'a, T, R, F> {
    run: &'a RunState<T, R, F>,
    pool: &'a Inner,
}

impl<T, R, F> Drop for FinishGuard<'_, T, R, F> {
    fn drop(&mut self) {
        // The packet leaves its bucket's pending count before its run can
        // count as finished, so a returned run never holds a bucket shut.
        let drained = self.pool.pending[self.run.tier].fetch_sub(1, Ordering::SeqCst) == 1;
        let finished = self.run.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        if drained || finished {
            // Lower buckets open, or the run's caller may return.
            self.pool.wake_all();
        }
    }
}

/// A persistent priority-bucketed pool. Create one per serving process
/// (or let `run_packets` make a private one per call), share it via
/// `Arc`, and submit runs from any thread — concurrent runs interleave
/// under the bucket opening condition.
pub struct Scheduler {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers())
            .finish()
    }
}

impl Scheduler {
    /// A pool on which `workers` (≥ 1) threads serve each run: the
    /// calling thread plus `workers − 1` parked helper threads. So
    /// `Scheduler::new(1)` spawns nothing, and every caller runs its own
    /// packets.
    pub fn new(workers: usize) -> Scheduler {
        let inner = Arc::new(Inner {
            helpers: workers.max(1) - 1,
            ..Inner::default()
        });
        let threads = (0..inner.helpers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("meander-sched-{w}"))
                    .spawn(move || inner.helper_loop(w))
                    .expect("spawn scheduler helper")
            })
            .collect();
        Scheduler { inner, threads }
    }

    /// Threads that serve each run: the helpers plus the caller.
    pub(crate) fn workers(&self) -> usize {
        self.inner.helpers + 1
    }

    /// Cumulative bucket/monitor counters.
    pub fn counters(&self) -> SchedCounters {
        self.inner.counters()
    }

    /// Submits one packet per item into `tier`, serves the run on the
    /// calling thread while its tier is open, and returns once every
    /// packet resolved: one [`JobStatus`] per item in input order, the
    /// run's thread-level counters, and the scheduler counter movement
    /// over the run's window.
    ///
    /// A panicking packet yields [`JobStatus::Panicked`] in its own slot
    /// and the pool survives; `stop` is polled when each packet is
    /// claimed — tripped packets resolve [`JobStatus::Skipped`] without
    /// running `f`.
    pub(crate) fn run<T, R, F>(
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
        let (t, n, caller) = (tier.index(), items.len(), self.inner.helpers);
        let before = self.inner.counters();
        let per_thread = || (0..=caller).map(|_| AtomicU64::new(0)).collect();
        let run = Arc::new(RunState {
            tier: t,
            caller,
            body: RwLock::new(Some((items, stop, f))),
            n,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            executed: per_thread(),
            busy_nanos: per_thread(),
            panics: per_thread(),
            skipped: AtomicU64::new(0),
        });
        self.inner.pending[t].fetch_add(n, Ordering::SeqCst);
        lock(&self.inner.buckets[t]).push(Arc::clone(&run) as Arc<dyn Run>);
        self.inner.wake_all();

        let mut serving = false;
        loop {
            let seen = self.inner.epoch();
            if run.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            if self.inner.open(t) {
                if let Some(i) = run.claim() {
                    serving = true;
                    run.exec(i, caller, &self.inner);
                    continue;
                }
            } else if serving && run.next.load(Ordering::Relaxed) < n {
                // A higher bucket opened mid-run: the preemption seam.
                self.inner.preemptions.fetch_add(1, Ordering::Relaxed);
                serving = false;
            }
            // The tier is closed, or the last packets are in flight on
            // helpers.
            self.inner.park(seen, false);
        }
        // Unlink the run: with no helpers nothing else ever would, and
        // the pool would keep every run's items and body alive.
        lock(&self.inner.buckets[t])
            .retain(|r| !std::ptr::addr_eq(Arc::as_ptr(r), Arc::as_ptr(&run)));
        drop(
            run.body
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        let delta = self.inner.counters().delta_since(&before);

        let load =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|a| a.load(Ordering::Relaxed)).collect() };
        let statuses: Vec<JobStatus<R>> = run
            .slots
            .iter()
            .map(|s| lock(s).take().unwrap_or(JobStatus::Skipped))
            .collect();
        let counters = WorkerCounters {
            workers: caller + 1,
            executed: load(&run.executed),
            busy: load(&run.busy_nanos)
                .into_iter()
                .map(Duration::from_nanos)
                .collect(),
            panics: load(&run.panics),
            skipped: run.skipped.load(Ordering::Relaxed),
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

/// Runs a packet run on `sched` when attached, or else on a private pool
/// of `workers` serving threads capped at the packet count — so one
/// worker or one packet runs on the calling thread alone. The fleet
/// pipeline's `execute` step is its one production caller, for batch
/// fleets, serving re-routes, and warm-up alike.
pub(crate) fn run_packets<T, R, F>(
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
    match sched {
        Some(s) => s.run(tier, items, stop, f),
        None => Scheduler::new(workers.min(items.len())).run(tier, items, stop, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done<R>(status: JobStatus<R>) -> R {
        match status {
            JobStatus::Done(r) => r,
            _ => panic!("job did not finish"),
        }
    }

    /// Claim log: (tier, item) pairs in the order packet bodies started.
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
                lock(&log).push((tier, i));
                std::thread::sleep(spin);
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
        let got: Vec<u64> = out.into_iter().map(done).collect();
        assert_eq!(got, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert_eq!(counters.total_executed(), 257);
        assert_eq!(delta.packets[Tier::Batch.index()], 257);
        assert_eq!(delta.packets[Tier::Interactive.index()], 0);
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
        let got: Vec<u64> = out.into_iter().map(done).collect();
        assert_eq!(got, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
        // The caller-only pool: every packet ran in the caller's slot.
        assert_eq!(counters.executed, vec![64]);
        assert_eq!(delta.packets[Tier::Interactive.index()], 64);
        assert_eq!(delta.steals, 0);
        // Zero and one packet run on the caller alone whatever the workers.
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
            let got: Vec<u64> = out.into_iter().map(done).collect();
            assert_eq!(got, (42..42 + n).collect::<Vec<_>>());
            assert_eq!((c.workers, c.total_executed()), (1, n));
        }
    }

    /// On a caller-only pool each caller runs its own packets. Once the
    /// interactive caller claims its first packet, the batch caller
    /// finishes the packet it has in flight and claims nothing more until
    /// the interactive bucket drains — so no batch packet is *claimed*
    /// between the first and the last interactive claim.
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
        // Let the batch get going, then demand interactive service in the
        // middle of a batch packet.
        std::thread::sleep(Duration::from_millis(18));
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
            "batch started first (submitted 18ms earlier): {entries:?}"
        );
        assert!(
            entries[first_i..=last_i]
                .iter()
                .all(|(t, _)| *t == Tier::Interactive),
            "no batch packet may be claimed inside an interactive wave: {entries:?}"
        );
        assert!(
            last_i < entries.len() - 1,
            "batch resumed after the wave: {entries:?}"
        );
        let c = sched.counters();
        assert!(c.preemptions >= 1, "the batch caller parked mid-run: {c:?}");
        assert_eq!(c.steals, 0, "a caller-only pool has no helpers");
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
                assert!(matches!(st[0], JobStatus::Done(_)));
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
        assert!(matches!(st[0], JobStatus::Done(_)));
        handle.join().unwrap();
        assert!(
            !overlap.load(Ordering::SeqCst),
            "batch packet ran while interactive was still in flight"
        );
    }

    /// A panicking packet is its own failure domain on a persistent pool
    /// and on the private caller-only pool a single-worker fleet or
    /// session takes: the healthy packets complete with correct values,
    /// the panic lands in its own slot with its message, and the
    /// per-thread counters account for exactly one catch.
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
            assert_eq!(counters.panics.iter().sum::<u64>(), 1);
            assert_eq!(counters.total_executed(), 16, "panicked packet still ran");
            assert_eq!(counters.panics.len(), counters.workers);
        }
    }

    /// A tripped stop predicate skips every unclaimed packet, on a pool
    /// and on the caller alone; on the caller alone, a predicate that
    /// trips after the first claim lets exactly that packet run.
    #[test]
    fn stop_predicate_skips_packets() {
        let pool = Arc::new(Scheduler::new(2));
        for sched in [Some(&pool), None] {
            let items: Arc<Vec<u32>> = Arc::new((0..32).collect());
            let stop: Arc<dyn Fn() -> bool + Send + Sync> = Arc::new(|| true);
            let (statuses, counters, delta) = run_packets(
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
            // Skipped packets are not executed packets, on either path.
            assert_eq!(
                delta.packets[Tier::Batch.index()],
                counters.total_executed()
            );
        }
        let fired = Arc::new(AtomicBool::new(false));
        let stop: Arc<dyn Fn() -> bool + Send + Sync> =
            Arc::new(move || fired.swap(true, Ordering::Relaxed));
        let items: Arc<Vec<u32>> = Arc::new((0..32).collect());
        let (statuses, counters, delta) = run_packets(
            None,
            Tier::Batch,
            1,
            items,
            Some(stop),
            Arc::new(|&x: &u32| x),
        );
        assert_eq!(
            statuses
                .iter()
                .filter(|s| matches!(s, JobStatus::Done(_)))
                .count(),
            1
        );
        assert!(
            matches!(statuses[0], JobStatus::Done(_)),
            "the first claim ran"
        );
        assert_eq!(counters.skipped, 31);
        assert_eq!(
            delta.packets[Tier::Batch.index()],
            counters.total_executed()
        );
    }

    /// A stop predicate that skips every packet leaves no busy time on
    /// any serving thread: busy is measured inside packet bodies only.
    #[test]
    fn skipped_run_reports_no_busy_time() {
        let pools = [Arc::new(Scheduler::new(1)), Arc::new(Scheduler::new(3))];
        for sched in [Some(&pools[0]), Some(&pools[1]), None] {
            let items: Arc<Vec<u32>> = Arc::new((0..32).collect());
            let stop: Arc<dyn Fn() -> bool + Send + Sync> = Arc::new(|| true);
            let (_, c, _) = run_packets(
                sched,
                Tier::Batch,
                1,
                items,
                Some(stop),
                Arc::new(|&x: &u32| x),
            );
            assert_eq!(c.skipped, 32);
            assert_eq!(c.total_busy(), Duration::ZERO, "{c:?}");
        }
    }

    /// Once `run` returns, the pool holds nothing of the run: no bucket
    /// lists it, and the caller's `items` and `f` are uniquely owned
    /// again, also when the stop predicate trips midway.
    #[test]
    fn finished_run_leaves_nothing_behind() {
        for workers in [1, 3] {
            let sched = Scheduler::new(workers);
            for trip_at in [None, Some(20)] {
                let items: Arc<Vec<usize>> = Arc::new((0..64).collect());
                let claimed = Arc::new(AtomicUsize::new(0));
                let f = {
                    let claimed = Arc::clone(&claimed);
                    Arc::new(move |&x: &usize| {
                        claimed.fetch_add(1, Ordering::SeqCst);
                        x
                    })
                };
                let stop: Option<Arc<dyn Fn() -> bool + Send + Sync>> = trip_at.map(|k| {
                    let claimed = Arc::clone(&claimed);
                    Arc::new(move || claimed.load(Ordering::SeqCst) >= k) as _
                });
                let (out, c, _) = sched.run(Tier::Batch, Arc::clone(&items), stop, Arc::clone(&f));
                assert_eq!(out.len(), 64);
                if trip_at.is_some() {
                    assert!(c.skipped > 0, "workers {workers}: the stop tripped midway");
                }
                assert_eq!(Arc::strong_count(&items), 1, "workers {workers}: items");
                assert_eq!(Arc::strong_count(&f), 1, "workers {workers}: body");
                assert!(
                    sched.inner.buckets.iter().all(|b| lock(b).is_empty()),
                    "workers {workers}: the run is unlinked"
                );
            }
        }
    }

    /// Helpers help: with two of them and spinning packets, some packets
    /// run off the caller's thread and count as steals.
    #[test]
    fn helpers_steal_from_the_caller() {
        let sched = Scheduler::new(3);
        let items: Arc<Vec<u64>> = Arc::new((0..64).collect());
        let (_, c, delta) = sched.run(
            Tier::Batch,
            items,
            None,
            Arc::new(|&x: &u64| {
                std::thread::sleep(Duration::from_micros(500));
                x
            }),
        );
        assert_eq!(c.workers, 3);
        assert_eq!(c.total_executed(), 64);
        assert!(delta.steals > 0, "{delta:?}");
        assert_eq!(delta.steals, c.executed[..2].iter().sum::<u64>());
    }

    #[test]
    fn workers_park_when_idle() {
        let sched = Arc::new(Scheduler::new(3));
        // Give the two spawned helpers a moment to find nothing and park.
        for _ in 0..100 {
            if lock(&sched.inner.monitor).parked == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            lock(&sched.inner.monitor).parked,
            2,
            "idle helpers park on the monitor"
        );
        let items: Arc<Vec<u64>> = Arc::new((0..64).collect());
        let (_, _, delta) = sched.run(Tier::Speculative, items, None, Arc::new(|&x: &u64| x));
        assert_eq!(delta.packets[Tier::Speculative.index()], 64);
    }

    #[test]
    fn counters_are_consistent() {
        let sched = Arc::new(Scheduler::new(4));
        let items: Arc<Vec<u64>> = Arc::new((0..500).collect());
        let (out, c, delta) = sched.run(Tier::Batch, items, None, Arc::new(|&x: &u64| x));
        assert_eq!(out.len(), 500);
        assert_eq!(c.total_executed(), 500);
        assert_eq!(c.executed.len(), c.workers);
        assert_eq!(c.busy.len(), c.workers);
        assert_eq!(delta.packets.iter().sum::<u64>(), 500);
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
        let got: Vec<u64> = out.into_iter().map(|s| done(s).0).collect();
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
        assert_eq!(delta.packets.iter().sum::<u64>(), 0);
    }

    #[test]
    fn tier_labels_and_order() {
        assert!(Tier::Interactive < Tier::Batch);
        assert!(Tier::Batch < Tier::Speculative);
        assert_eq!(Tier::Speculative.index(), 2);
    }
}
