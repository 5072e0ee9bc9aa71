//! The discrete-event kernel: virtual clock, event queue, and cooperative
//! scheduling of simulated processes.
//!
//! # Execution model
//!
//! A simulation runs on one OS thread of its own, the `sim-kernel` carrier
//! that [`Simulation::run`] spawns and joins. A simulated process runs
//! either on a stackful fiber of its own ([`cp_fiber::Fiber`]) on that
//! thread or, for a [`Reactor`], inline on whichever stack is dispatching.
//! The kernel grants the CPU to **exactly one** process at a time, always
//! the one owning the earliest `(virtual_time, sequence)` event in the
//! queue. A fiber process gives up the CPU only inside kernel calls
//! ([`ProcCtx::advance`], [`ProcCtx::block`], [`ProcCtx::join`], or process
//! exit); a reactor gives it up by returning a [`Step`]. Between those
//! points a process may freely mutate shared state without data races *or*
//! lost determinism: the interleaving is a pure function of the event
//! timestamps and spawn order.
//!
//! The process releasing the CPU runs the dispatcher itself. It steps any
//! reactors that come due, outside the kernel lock, until the next event
//! belongs to a fiber process. If that is the releasing process, it
//! returns at once; otherwise it drops the lock and switches stacks to the
//! target fiber, which resumes without re-taking the lock. A fiber whose
//! process exits returns to the carrier's own stack, which frees it and
//! dispatches the next event. Fibers never migrate between OS threads, so
//! a process's thread-locals are the carrier's, shared by every process of
//! the simulation.
//!
//! When the run ends early (deadlock, abort, panic or time limit), the
//! carrier resumes every unfinished fiber with a poison grant; it unwinds
//! its stack, dropping everything its closure owns, before the stack is
//! freed.
//!
//! If the event queue drains while unfinished processes remain, every one of
//! them is blocked with no possible waker: the kernel reports a
//! [`SimError::Deadlock`] naming each process and its blocking reason.
//!
//! The kernel is one implementation of the [`Executor`] seam; `cp-native`
//! provides a wall-clock thread implementation of the same trait, and
//! [`ProcCtx`] dispatches to whichever substrate spawned the process.

use crate::backend::{Backend, Executor, ProcBody, Spawner};
use crate::error::{Incident, IncidentCategory, Pid, SimError, SimReport};
use crate::reactor::{carry_out, Poll, Reactor, Reason, Step};
use crate::time::{SimDuration, SimTime};
use cp_fiber::Fiber;
use cp_trace::Recorder;
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Weak};

/// Payload used to unwind a simulated process when the simulation is torn
/// down early (deadlock, abort, or another process panicking).
struct SimUnwind;

#[derive(Debug)]
enum Status {
    /// Has an event in the queue; suspended until that event is dispatched.
    Waiting,
    /// Currently owns the virtual CPU.
    Running,
    /// Suspended with no queued event; needs an `unblock` to become Waiting.
    Blocked(Reason),
    /// Process has exited.
    Finished,
    /// Simulation is tearing down; a suspended fiber unwinds when resumed.
    Poisoned,
}

/// Grants a fiber process is switched to with.
const RUN: usize = 0;
const RUN_TIMED_OUT: usize = 1;
const POISON: usize = 2;

/// What a fiber process switched to with `grant` does: `true` if it was
/// woken by a `block_timeout` deadline. Unwinds on teardown.
fn granted(grant: usize) -> bool {
    match grant {
        RUN => false,
        RUN_TIMED_OUT => true,
        // resume_unwind skips the panic hook: teardown unwinds are
        // expected control flow, not reportable panics.
        _ => panic::resume_unwind(Box::new(SimUnwind)),
    }
}

/// A reactor and the context its steps receive.
struct Hosted {
    reactor: Box<dyn Reactor>,
    ctx: ProcCtx,
}

/// Where a process's code runs.
enum Body {
    /// On a fiber of its own. `None` once the process has exited.
    Fiber(Option<Fiber>),
    /// Inline on the dispatching stack. `None` while a step runs and once
    /// the reactor has exited.
    Reactor(Option<Hosted>),
}

struct ProcSlot {
    name: String,
    status: Status,
    /// Wake permits delivered while the process was not blocked; consumed by
    /// the next `block` call without yielding.
    pending_wakes: u32,
    /// Sequence number of the most recent event pushed for this process.
    /// Dispatch honours a popped event only if its sequence matches, which
    /// invalidates stale timeout events left behind when a timed block is
    /// woken early by `unblock`.
    expected_seq: Option<u64>,
    /// Processes blocked in `join` on this process.
    join_waiters: Vec<Pid>,
    body: Body,
}

enum Outcome {
    Completed,
    Failed(SimError),
}

struct KState {
    now: SimTime,
    limit: Option<SimTime>,
    next_seq: u64,
    /// Schedule-exploration seed. Zero (the default) orders same-timestamp
    /// events FIFO by sequence number; any other value permutes the
    /// tie-break deterministically (see [`Kernel::push_event`]), yielding a
    /// different — but equally legal and fully reproducible — interleaving.
    sched_seed: u64,
    /// Entries are `(time, tie_key, seq, pid)`: time first, then the seeded
    /// tie key for same-timestamp events, with the raw sequence number as
    /// the final total-order tiebreaker.
    queue: BinaryHeap<Reverse<(u64, u64, u64, Pid)>>,
    procs: Vec<ProcSlot>,
    /// Number of processes not yet Finished.
    live: usize,
    /// True while some process owns the virtual CPU.
    cpu_busy: bool,
    outcome: Option<Outcome>,
    dispatches: u64,
    trace: Option<Vec<(SimTime, Pid)>>,
    incidents: Vec<Incident>,
    /// Observability hook; disabled by default, so recording costs one
    /// branch per dispatch unless [`Simulation::set_recorder`] arms it.
    recorder: Recorder,
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function used to
/// derive schedule tie-break keys from `(seed, seq)` pairs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a process that released the CPU does once dispatch returns.
enum Handoff {
    /// Its own event came next: carry on at once (`true` if that event is
    /// a `block_timeout` deadline).
    Resume(bool),
    /// Switch to this fiber, which takes the CPU with this grant.
    Switch(Fiber, usize),
    /// The run is over.
    Done,
}

/// The message of a genuine (non-teardown) panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

pub(crate) struct Kernel {
    state: Mutex<KState>,
    /// Self-reference so `Executor::spawn_boxed` can hand each new process a
    /// `ProcCtx` holding an owning handle on this kernel.
    me: Weak<Kernel>,
}

impl Kernel {
    fn new(trace: bool) -> Arc<Kernel> {
        Arc::new_cyclic(|me| Kernel {
            state: Mutex::new(KState {
                now: SimTime::ZERO,
                limit: None,
                next_seq: 0,
                sched_seed: 0,
                queue: BinaryHeap::new(),
                procs: Vec::new(),
                live: 0,
                cpu_busy: false,
                outcome: None,
                dispatches: 0,
                trace: if trace { Some(Vec::new()) } else { None },
                incidents: Vec::new(),
                recorder: Recorder::disabled(),
            }),
            me: me.clone(),
        })
    }

    /// Push an event waking `pid` at time `at`. The new event supersedes any
    /// earlier one still queued for `pid` (see [`ProcSlot::expected_seq`]).
    ///
    /// With a zero schedule seed the tie key equals the sequence number, so
    /// same-timestamp events dispatch FIFO. A nonzero seed hashes the seed
    /// with the sequence number instead, permuting only the order of
    /// same-timestamp events across processes — every schedule it produces is
    /// still a legal interleaving, and the same seed always reproduces the
    /// same schedule.
    fn push_event(st: &mut KState, at: SimTime, pid: Pid) {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.procs[pid].expected_seq = Some(seq);
        let tie = if st.sched_seed == 0 {
            seq
        } else {
            splitmix64(st.sched_seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        st.queue.push(Reverse((at.0, tie, seq, pid)));
    }

    /// Register a new process, runnable at the current time.
    fn add_process(st: &mut KState, name: &str, body: Body) -> Pid {
        let pid = st.procs.len();
        st.procs.push(ProcSlot {
            name: name.to_string(),
            status: Status::Waiting,
            pending_wakes: 0,
            expected_seq: None,
            join_waiters: Vec::new(),
            body,
        });
        st.live += 1;
        let now = st.now;
        Kernel::push_event(st, now, pid);
        pid
    }

    /// Pop the earliest live event and grant its owner the CPU, returning
    /// the owner and whether the event is a `block_timeout` deadline. With
    /// no runnable event left the run ends — completed, or deadlocked — and
    /// `None` is returned, as it is when the time limit is passed.
    fn next_event(&self, st: &mut KState) -> Option<(Pid, bool)> {
        while let Some(Reverse((t, _tie, seq, pid))) = st.queue.pop() {
            // A popped event is live only if it is the most recent one pushed
            // for its process; superseded events (e.g. a timeout whose block
            // was already woken by `unblock`) are skipped, as are events for
            // processes that finished or were torn down meanwhile.
            if st.procs[pid].expected_seq != Some(seq) {
                continue;
            }
            // A live event for a Blocked process can only be a pending
            // `block_timeout` deadline: plain `block` queues nothing.
            let timed_wake = match st.procs[pid].status {
                Status::Waiting => false,
                Status::Blocked(_) => true,
                _ => continue,
            };
            debug_assert!(t >= st.now.0, "event queue went backwards");
            if let Some(limit) = st.limit {
                if SimTime(t) > limit {
                    self.fail(st, SimError::TimeLimitExceeded { limit });
                    return None;
                }
            }
            st.now = SimTime(t);
            st.procs[pid].status = Status::Running;
            st.cpu_busy = true;
            st.dispatches += 1;
            st.recorder.record_dispatch(st.now.0, st.queue.len());
            if let Some(trace) = st.trace.as_mut() {
                trace.push((st.now, pid));
            }
            return Some((pid, timed_wake));
        }
        // No runnable event. Either everything finished or we are deadlocked.
        if st.live == 0 {
            st.outcome = Some(Outcome::Completed);
        } else {
            let blocked = st
                .procs
                .iter()
                .enumerate()
                .filter_map(|(pid, p)| match &p.status {
                    Status::Blocked(reason) => Some((pid, p.name.clone(), reason.to_string())),
                    _ => None,
                })
                .collect();
            st.outcome = Some(Outcome::Failed(SimError::Deadlock {
                at: st.now,
                blocked,
            }));
            self.poison(st);
        }
        None
    }

    /// Hand the virtual CPU to the owner of the earliest event, or end the
    /// simulation (completion or deadlock). `me` is the fiber process that
    /// just released the CPU (`None` for the carrier's own stack).
    /// Reactors that come due are stepped right here; the loop ends at the
    /// first fiber process, which is switched to once the lock is dropped.
    fn dispatch<'k>(&'k self, mut st: MutexGuard<'k, KState>, me: Option<Pid>) -> Handoff {
        debug_assert!(!st.cpu_busy);
        loop {
            if st.outcome.is_some() {
                return Handoff::Done;
            }
            let Some((pid, timed)) = self.next_event(&mut st) else {
                continue;
            };
            match &mut st.procs[pid].body {
                Body::Fiber(fiber) => {
                    if me == Some(pid) {
                        return Handoff::Resume(timed);
                    }
                    let fiber = fiber.clone().expect("a dispatched process has not exited");
                    return Handoff::Switch(fiber, if timed { RUN_TIMED_OUT } else { RUN });
                }
                Body::Reactor(hosted) => {
                    let hosted = hosted.take().expect("a dispatched reactor is not mid-step");
                    drop(st);
                    st = self.step_reactor(pid, hosted);
                }
            }
        }
    }

    /// Run reactor `pid`'s steps (a banked wake turns a `Block` into another
    /// step at once), then record how it yielded and release the CPU.
    fn step_reactor(&self, pid: Pid, mut hosted: Hosted) -> MutexGuard<'_, KState> {
        loop {
            let result = panic::catch_unwind(AssertUnwindSafe(|| hosted.reactor.step(&hosted.ctx)));
            let step = match result {
                Ok(Step::Exit) => {
                    drop(hosted);
                    let mut st = self.state.lock();
                    self.retire(&mut st, pid);
                    return st;
                }
                Err(payload) => {
                    drop(hosted);
                    let mut st = self.state.lock();
                    self.retire(&mut st, pid);
                    if payload.downcast_ref::<SimUnwind>().is_none() {
                        let name = st.procs[pid].name.clone();
                        let message = panic_message(&*payload);
                        self.fail(&mut st, SimError::ProcessPanicked { pid, name, message });
                    }
                    return st;
                }
                Ok(step) => step,
            };
            let mut st = self.state.lock();
            match step {
                Step::Advance(d) => {
                    let at = st.now + d;
                    Kernel::push_event(&mut st, at, pid);
                    st.procs[pid].status = Status::Waiting;
                }
                Step::Block(reason) => {
                    if Kernel::take_wake(&mut st, pid) {
                        continue;
                    }
                    st.procs[pid].status = Status::Blocked(reason);
                }
                Step::BlockTimeout(reason, timeout) => {
                    if Kernel::take_wake(&mut st, pid) {
                        continue;
                    }
                    st.procs[pid].status = Status::Blocked(reason);
                    let at = st.now + timeout;
                    Kernel::push_event(&mut st, at, pid);
                }
                Step::Exit => unreachable!("handled above"),
            }
            st.procs[pid].body = Body::Reactor(Some(hosted));
            st.cpu_busy = false;
            return st;
        }
    }

    /// Consume a wake banked for `pid` while it ran, if there is one: a
    /// block then returns at once instead of yielding.
    fn take_wake(st: &mut KState, pid: Pid) -> bool {
        let banked = st.procs[pid].pending_wakes > 0;
        if banked {
            st.procs[pid].pending_wakes -= 1;
        }
        banked
    }

    /// Mark `pid` finished, release its joiners and the CPU.
    fn retire(&self, st: &mut KState, pid: Pid) {
        st.procs[pid].status = Status::Finished;
        st.live -= 1;
        let waiters = std::mem::take(&mut st.procs[pid].join_waiters);
        let now = st.now;
        for w in waiters {
            match st.procs[w].status {
                Status::Blocked(_) => {
                    st.procs[w].status = Status::Waiting;
                    Kernel::push_event(st, now, w);
                }
                Status::Finished | Status::Poisoned => {}
                _ => st.procs[w].pending_wakes += 1,
            }
        }
        st.cpu_busy = false;
    }

    /// Mark all suspended processes poisoned: the run is over.
    fn poison(&self, st: &mut KState) {
        for p in st.procs.iter_mut() {
            if matches!(p.status, Status::Waiting | Status::Blocked(_)) {
                p.status = Status::Poisoned;
            }
        }
    }

    fn fail(&self, st: &mut KState, err: SimError) {
        if st.outcome.is_none() {
            st.outcome = Some(Outcome::Failed(err));
        }
        self.poison(st);
    }

    /// Check that process `pid`, making the blocking call `call`, runs on
    /// a fiber. A reactor making one fails its step: it must yield a
    /// [`Step`] instead.
    fn check_blocking(st: &KState, pid: Pid, call: &str) {
        if let Body::Reactor(_) = &st.procs[pid].body {
            panic!(
                "reactor '{}' called the blocking ProcCtx::{call} inside a step; \
                 a step must return a Step instead",
                st.procs[pid].name
            );
        }
    }

    /// Release the CPU held by fiber process `pid` (its status already
    /// updated) and return once it is granted the CPU again: `true` if by a
    /// `block_timeout` deadline. Unwinds if the run ends meanwhile.
    fn switch<'k>(&'k self, st: MutexGuard<'k, KState>, pid: Pid) -> bool {
        granted(match self.dispatch(st, Some(pid)) {
            Handoff::Resume(timed) => return timed,
            Handoff::Switch(fiber, grant) => fiber.switch(grant),
            Handoff::Done => POISON,
        })
    }

    /// Block fiber process `pid` with `reason`, and a deadline if
    /// `timeout` is given; `true` if that deadline woke it.
    fn block_for(&self, pid: Pid, reason: Reason, timeout: Option<SimDuration>) -> bool {
        let mut st = self.state.lock();
        Kernel::check_blocking(&st, pid, "block");
        debug_assert!(matches!(st.procs[pid].status, Status::Running));
        if Kernel::take_wake(&mut st, pid) {
            return false;
        }
        st.procs[pid].status = Status::Blocked(reason);
        if let Some(timeout) = timeout {
            let at = st.now + timeout;
            Kernel::push_event(&mut st, at, pid);
        }
        st.cpu_busy = false;
        self.switch(st, pid)
    }

    /// The carrier thread's loop. Dispatch from the thread's own stack
    /// whenever no process holds the CPU: at the start, and each time a
    /// process's fiber exits. Once the run is over, resume every
    /// unfinished fiber with the poison grant, so each unwinds before its
    /// stack is freed.
    fn carry(&self) {
        loop {
            match self.dispatch(self.state.lock(), None) {
                Handoff::Switch(fiber, grant) => {
                    fiber.switch(grant);
                }
                Handoff::Done => break,
                Handoff::Resume(_) => unreachable!("the carrier owns no event"),
            }
        }
        let unfinished: Vec<Fiber> = self
            .state
            .lock()
            .procs
            .iter()
            .filter_map(|p| match &p.body {
                Body::Fiber(fiber) => fiber.clone(),
                Body::Reactor(_) => None,
            })
            .collect();
        for fiber in unfinished {
            fiber.switch(POISON);
        }
    }
}

impl Executor for Kernel {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn proc_name(&self, pid: Pid) -> String {
        self.state.lock().procs[pid].name.clone()
    }

    fn now(&self) -> SimTime {
        self.state.lock().now
    }

    fn advance(&self, pid: Pid, d: SimDuration) {
        let mut st = self.state.lock();
        Kernel::check_blocking(&st, pid, "advance");
        debug_assert!(matches!(st.procs[pid].status, Status::Running));
        let at = st.now + d;
        Kernel::push_event(&mut st, at, pid);
        st.procs[pid].status = Status::Waiting;
        st.cpu_busy = false;
        self.switch(st, pid);
    }

    fn block(&self, pid: Pid, reason: Reason) {
        self.block_for(pid, reason, None);
    }

    fn block_timeout(&self, pid: Pid, reason: Reason, timeout: SimDuration) -> bool {
        !self.block_for(pid, reason, Some(timeout))
    }

    fn unblock(&self, pid: Pid, delay: SimDuration) {
        let mut st = self.state.lock();
        let at = st.now + delay;
        match st.procs[pid].status {
            Status::Blocked(_) => {
                st.procs[pid].status = Status::Waiting;
                Kernel::push_event(&mut st, at, pid);
            }
            Status::Finished | Status::Poisoned => {}
            _ => st.procs[pid].pending_wakes += 1,
        }
    }

    fn report_incident(&self, pid: Pid, category: IncidentCategory, detail: &str) {
        let mut st = self.state.lock();
        let at = st.now;
        let process = st.procs[pid].name.clone();
        st.recorder
            .record_incident(at.0, &process, category.as_str(), detail);
        st.incidents.push(Incident {
            at,
            process,
            category,
            detail: detail.to_string(),
        });
    }

    fn spawn_boxed(&self, name: &str, body: ProcBody) -> Pid {
        let kernel = self.me.upgrade().expect("kernel alive while spawning");
        spawn_process(&kernel, name, body)
    }

    fn spawn_reactor(&self, name: &str, reactor: Box<dyn Reactor>) -> Pid {
        let kernel = self.me.upgrade().expect("kernel alive while spawning");
        host_reactor(&kernel, name, reactor)
    }

    fn join(&self, me: Pid, target: Pid) {
        loop {
            {
                let mut st = self.state.lock();
                if matches!(st.procs[target].status, Status::Finished) {
                    return;
                }
                Kernel::check_blocking(&st, me, "join");
                st.procs[target].join_waiters.push(me);
            }
            self.block(me, Reason::join(target));
        }
    }

    fn abort(&self, pid: Pid, message: &str) -> ! {
        {
            let mut st = self.state.lock();
            let err = SimError::Aborted {
                pid,
                name: st.procs[pid].name.clone(),
                message: message.to_string(),
            };
            self.fail(&mut st, err);
        }
        panic::resume_unwind(Box::new(SimUnwind));
    }
}

/// Handle a simulated process uses to interact with the virtual world.
///
/// A `ProcCtx` is passed by reference into every process closure. It is also
/// `Clone` so library layers can stash copies inside connection objects.
/// All calls dispatch through the [`Executor`] that spawned the process, so
/// the same program body runs unchanged on the DES kernel and on
/// `cp-native`'s wall-clock threads.
#[derive(Clone)]
pub struct ProcCtx {
    exec: Arc<dyn Executor>,
    pid: Pid,
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProcCtx(pid={})", self.pid)
    }
}

impl ProcCtx {
    /// Build the context handed to process `pid` of `exec`. Only backend
    /// implementations ([`Simulation`], `cp-native`) need this.
    pub fn from_executor(exec: Arc<dyn Executor>, pid: Pid) -> ProcCtx {
        ProcCtx { exec, pid }
    }

    /// Which execution substrate this process runs on.
    pub fn backend(&self) -> Backend {
        self.exec.backend()
    }

    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's registered name.
    pub fn name(&self) -> String {
        self.exec.proc_name(self.pid)
    }

    /// Current time: virtual on the DES backend, wall-clock nanoseconds
    /// since launch on the native backend.
    pub fn now(&self) -> SimTime {
        self.exec.now()
    }

    /// Spend `d` of virtual time (the process "computes" for that long).
    /// Other processes with earlier events run meanwhile.
    pub fn advance(&self, d: SimDuration) {
        self.exec.advance(self.pid, d);
    }

    /// Yield the CPU without consuming virtual time. Any same-time events
    /// queued earlier run first.
    pub fn yield_now(&self) {
        self.advance(SimDuration::ZERO);
    }

    /// Park this process until another process calls [`ProcCtx::unblock`] on
    /// it. `reason` appears in deadlock diagnostics.
    ///
    /// If an unblock was already delivered while this process was running
    /// (a "pending wake"), the call consumes it and returns immediately.
    pub fn block(&self, reason: impl Into<Reason>) {
        self.exec.block(self.pid, reason.into());
    }

    /// Park this process until another process calls [`ProcCtx::unblock`] on
    /// it **or** `timeout` of virtual time elapses, whichever happens first.
    ///
    /// Returns `true` if the process was woken by an `unblock` (or consumed a
    /// pending wake without parking) and `false` if the deadline fired. On a
    /// timeout the clock reads exactly `block-time + timeout`. A stale
    /// deadline left behind by an early wake is discarded, never delivered.
    pub fn block_timeout(&self, reason: impl Into<Reason>, timeout: SimDuration) -> bool {
        self.exec.block_timeout(self.pid, reason.into(), timeout)
    }

    /// Carry a non-blocking poll core through to its value in this
    /// process: take each pending [`Step`] (advance or block) and
    /// poll again. `None` if the core asked the process to exit.
    pub fn drive_poll<T>(&self, mut poll: impl FnMut() -> Poll<T>) -> Option<T> {
        loop {
            match poll() {
                Poll::Ready(v) => return Some(v),
                Poll::Pending(step) => {
                    if !carry_out(self, step) {
                        return None;
                    }
                }
            }
        }
    }

    /// Record a non-fatal degradation [`Incident`] (e.g. "peer rank died,
    /// abandoning channel 3"). Incidents are collected in
    /// [`SimReport::incidents`] so fault-injection harnesses can assert on
    /// exactly what degraded.
    pub fn report_incident(&self, category: IncidentCategory, detail: &str) {
        self.exec.report_incident(self.pid, category, detail);
    }

    /// Wake `pid` no earlier than `delay` from now. If `pid` is not currently
    /// blocked, a pending wake is recorded instead (and the delay is dropped:
    /// the target was busy, so the waker's latency has already been absorbed
    /// by whatever the target was doing).
    pub fn unblock(&self, pid: Pid, delay: SimDuration) {
        self.exec.unblock(pid, delay);
    }

    /// Spawn a new simulated process. It becomes runnable at the current
    /// virtual time (after the caller next yields).
    pub fn spawn<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        self.exec.spawn_boxed(name, Box::new(f))
    }

    /// Spawn a [`Reactor`] process, runnable at the current virtual time.
    /// The DES kernel steps it inline with no stack of its own; other
    /// backends drive it on a thread. The schedule is the same either way.
    pub fn spawn_reactor(&self, name: &str, reactor: impl Reactor + 'static) -> Pid {
        self.exec.spawn_reactor(name, Box::new(reactor))
    }

    /// Block until process `pid` finishes.
    pub fn join(&self, pid: Pid) {
        self.exec.join(self.pid, pid);
    }

    /// Abort the whole simulation with a diagnostic (used for fatal API
    /// misuse, mirroring Pilot's abort-with-message behaviour). Unwinds the
    /// calling process and never returns.
    pub fn abort(&self, message: &str) -> ! {
        self.exec.abort(self.pid, message)
    }
}

fn spawn_process(kernel: &Arc<Kernel>, name: &str, f: ProcBody) -> Pid {
    let mut st = kernel.state.lock();
    let pid = st.procs.len();
    // Weak: a fiber that never runs must not keep its kernel alive.
    let kern = Arc::downgrade(kernel);
    let fiber = Fiber::new(move |grant| {
        let kern = kern
            .upgrade()
            .expect("the kernel outlives its running processes");
        let ctx = ProcCtx::from_executor(kern.clone(), pid);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            granted(grant);
            f(&ctx)
        }));
        let mut st = kern.state.lock();
        kern.retire(&mut st, pid);
        st.procs[pid].body = Body::Fiber(None);
        if let Err(payload) = result {
            if payload.downcast_ref::<SimUnwind>().is_none() {
                // A genuine panic in user/library code: fail the run.
                let name = st.procs[pid].name.clone();
                let message = panic_message(&*payload);
                kern.fail(&mut st, SimError::ProcessPanicked { pid, name, message });
            }
        }
        // Returning ends the fiber: the carrier dispatches from here.
    })
    .expect("failed to map a simulated process's stack");
    Kernel::add_process(&mut st, name, Body::Fiber(Some(fiber)))
}

fn host_reactor(kernel: &Arc<Kernel>, name: &str, reactor: Box<dyn Reactor>) -> Pid {
    let mut st = kernel.state.lock();
    let pid = st.procs.len();
    let ctx = ProcCtx::from_executor(kernel.clone(), pid);
    Kernel::add_process(&mut st, name, Body::Reactor(Some(Hosted { reactor, ctx })))
}

/// A complete simulation: build it, spawn root processes, then [`run`].
///
/// [`run`]: Simulation::run
///
/// # Example
///
/// ```
/// use cp_des::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// sim.spawn("hello", |ctx| {
///     ctx.advance(SimDuration::from_micros(10));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.as_micros_f64(), 10.0);
/// ```
pub struct Simulation {
    kernel: Arc<Kernel>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// A fresh simulation with the clock at zero.
    pub fn new() -> Simulation {
        Simulation {
            kernel: Kernel::new(false),
        }
    }

    /// A fresh simulation that records a `(time, pid)` dispatch trace, for
    /// determinism checks.
    pub fn with_trace() -> Simulation {
        Simulation {
            kernel: Kernel::new(true),
        }
    }

    /// Fail the run with [`SimError::TimeLimitExceeded`] if virtual time
    /// would pass `limit` — a guard against runaway or livelocked
    /// simulations (e.g. a service process polling forever).
    pub fn set_time_limit(&mut self, limit: SimTime) {
        self.kernel.state.lock().limit = Some(limit);
    }

    /// Select a schedule-exploration seed. Seed `0` (the default) keeps the
    /// canonical FIFO ordering of same-timestamp events; any nonzero seed
    /// deterministically permutes those ties, producing an alternative legal
    /// interleaving. Call before spawning processes so the whole run is
    /// scheduled under the same seed.
    pub fn set_schedule_seed(&mut self, seed: u64) {
        self.kernel.state.lock().sched_seed = seed;
    }

    /// Attach an observability [`Recorder`]. The kernel reports every
    /// scheduler dispatch (with the pending-queue depth) and forwards each
    /// [`Incident`] to it. The default recorder is disabled and costs one
    /// branch per dispatch; recording never consumes virtual time, so the
    /// schedule is identical with and without it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.kernel.state.lock().recorder = recorder;
    }

    /// Spawn a root process, runnable at t = 0.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, Box::new(f))
    }

    /// Spawn a root [`Reactor`], runnable at t = 0 and stepped inline by
    /// the kernel.
    pub fn spawn_reactor(&mut self, name: &str, reactor: impl Reactor + 'static) -> Pid {
        host_reactor(&self.kernel, name, Box::new(reactor))
    }

    /// Drive the simulation to completion, returning the report or the first
    /// failure (deadlock, panic, or abort). The processes run on a carrier
    /// thread named `sim-kernel`, which this call spawns and joins, so a
    /// simulated process may itself run a nested simulation.
    pub fn run(self) -> Result<SimReport, SimError> {
        let kernel = self.kernel.clone();
        let carrier = std::thread::Builder::new()
            .name("sim-kernel".into())
            .spawn(move || kernel.carry())
            .expect("failed to spawn the simulation's carrier thread");
        if let Err(payload) = carrier.join() {
            // A kernel bug, not a process panic: those end the run.
            panic::resume_unwind(payload);
        }
        let mut st = self.kernel.state.lock();
        // Reactors left parked hold contexts that point back at the kernel:
        // drop them (outside the lock) to free the simulation.
        let parked: Vec<Hosted> = st
            .procs
            .iter_mut()
            .filter_map(|p| match &mut p.body {
                Body::Reactor(hosted) => hosted.take(),
                Body::Fiber(_) => None,
            })
            .collect();
        let outcome = st.outcome.take().expect("outcome present");
        let report = match outcome {
            Outcome::Completed => {
                let mut incidents = std::mem::take(&mut st.incidents);
                crate::error::sort_incidents(&mut incidents);
                Ok(SimReport {
                    end_time: st.now,
                    processes: st.procs.len(),
                    dispatches: st.dispatches,
                    trace: st.trace.take(),
                    incidents,
                })
            }
            Outcome::Failed(e) => Err(e),
        };
        drop(st);
        drop(parked);
        report
    }
}

impl Spawner for Simulation {
    fn spawn_boxed(&mut self, name: &str, body: ProcBody) -> Pid {
        spawn_process(&self.kernel, name, body)
    }

    fn spawn_reactor_boxed(&mut self, name: &str, reactor: Box<dyn Reactor>) -> Pid {
        host_reactor(&self.kernel, name, reactor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn single_process_advances_clock() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDuration::from_micros(3));
            assert_eq!(ctx.now().as_nanos(), 3_000);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.end_time.as_nanos(), 3_000);
        assert_eq!(r.processes, 1);
    }

    #[test]
    fn sim_backend_identifies_itself() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            assert_eq!(ctx.backend(), Backend::Sim);
        });
        sim.run().unwrap();
    }

    #[test]
    fn processes_interleave_in_time_order() {
        let log: Arc<PMutex<Vec<(&'static str, u64)>>> = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step) in [("a", 10u64), ("b", 15u64)] {
            let log = log.clone();
            sim.spawn(name, move |ctx| {
                for _ in 0..3 {
                    ctx.advance(SimDuration::from_micros(step));
                    log.lock().push((name, ctx.now().as_nanos() / 1000));
                }
            });
        }
        sim.run().unwrap();
        let got = log.lock().clone();
        assert_eq!(
            got,
            vec![
                ("a", 10),
                ("b", 15),
                ("a", 20),
                // At the t=30 tie, b enqueued its event first (at t=15, vs
                // a's at t=20), so b's lower sequence number wins.
                ("b", 30),
                ("a", 30),
                ("b", 45)
            ]
        );
    }

    /// Run the two-process interleave scenario under a schedule seed and
    /// return the observed `(name, time_us)` log.
    fn tie_scenario(seed: u64) -> Vec<(&'static str, u64)> {
        let log: Arc<PMutex<Vec<(&'static str, u64)>>> = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.set_schedule_seed(seed);
        for name in ["a", "b", "c", "d"] {
            let log = log.clone();
            sim.spawn(name, move |ctx| {
                for _ in 0..4 {
                    ctx.advance(SimDuration::from_micros(10));
                    log.lock().push((name, ctx.now().as_nanos() / 1000));
                }
            });
        }
        sim.run().unwrap();
        let got = log.lock().clone();
        got
    }

    #[test]
    fn schedule_seed_zero_keeps_fifo_ties() {
        // Seed 0 must be byte-identical to the default FIFO schedule: every
        // golden trace in the repo depends on this.
        assert_eq!(tie_scenario(0), tie_scenario(0));
        let got = tie_scenario(0);
        // FIFO tie-break: at each 10us step all four wake in spawn order.
        let spawn_order: Vec<&str> = got.iter().take(4).map(|(n, _)| *n).collect();
        assert_eq!(spawn_order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn schedule_seed_is_deterministic_and_permutes_ties() {
        // Same seed -> same schedule, every time.
        for seed in 1..=5u64 {
            assert_eq!(tie_scenario(seed), tie_scenario(seed));
        }
        // Some nonzero seed must reorder at least one same-time tie; the
        // multiset of (name, time) pairs is schedule-invariant either way.
        let baseline = tie_scenario(0);
        let mut permuted = false;
        for seed in 1..=20u64 {
            let alt = tie_scenario(seed);
            let mut a = baseline.clone();
            let mut b = alt.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed} changed outcomes, not just order");
            if alt != baseline {
                permuted = true;
            }
        }
        assert!(permuted, "no seed in 1..=20 permuted any tie");
    }

    #[test]
    fn block_unblock_roundtrip() {
        let mut sim = Simulation::new();
        let mut ids = Vec::new();
        let flag = Arc::new(PMutex::new(false));
        let f2 = flag.clone();
        ids.push(0); // placeholder, replaced below
        let waiter = sim.spawn("waiter", move |ctx| {
            ctx.block("the signal");
            *f2.lock() = true;
            assert_eq!(ctx.now().as_nanos(), 7_000);
        });
        ids[0] = waiter;
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDuration::from_micros(2));
            ctx.unblock(waiter, SimDuration::from_micros(5));
        });
        sim.run().unwrap();
        assert!(*flag.lock());
    }

    #[test]
    fn pending_wake_prevents_lost_signal() {
        // Unblock delivered while target is running must not be lost.
        let mut sim = Simulation::new();
        let t = sim.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            // Wake was delivered at t=1us while we were "computing".
            ctx.block("should not actually block");
            ctx.advance(SimDuration::from_micros(1));
        });
        sim.spawn("w", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ctx.unblock(t, SimDuration::ZERO);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.end_time.as_nanos(), 11_000);
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let mut sim = Simulation::new();
        sim.spawn("stuck-a", |ctx| ctx.block("peer message"));
        sim.spawn("stuck-b", |ctx| ctx.block("peer message"));
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked.iter().any(|(_, n, _)| n == "stuck-a"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_process_fails_run() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_ctx| panic!("boom {}", 42));
        sim.spawn("innocent", |ctx| ctx.block("never"));
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message, .. }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom 42"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn abort_reports_message() {
        let mut sim = Simulation::new();
        sim.spawn("aborter", |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ctx.abort("PI_Write: channel endpoint mismatch");
        });
        match sim.run() {
            Err(SimError::Aborted { message, .. }) => {
                assert!(message.contains("endpoint mismatch"));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn spawn_nested_and_join() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |c| {
                c.advance(SimDuration::from_micros(100));
            });
            ctx.join(child);
            assert_eq!(ctx.now().as_nanos(), 100_000);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.processes, 2);
    }

    #[test]
    fn join_already_finished_process_returns_immediately() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("quick", |_c| {});
            ctx.advance(SimDuration::from_micros(50));
            ctx.join(child);
            assert_eq!(ctx.now().as_nanos(), 50_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn report_counts_and_names() {
        let mut sim = Simulation::new();
        sim.spawn("alpha", |ctx| {
            assert_eq!(ctx.name(), "alpha");
            let child = ctx.spawn("beta", |c| {
                assert_eq!(c.name(), "beta");
                c.advance(SimDuration::from_nanos(5));
            });
            ctx.join(child);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.processes, 2);
        assert!(r.dispatches >= 3, "at least spawn/advance/join dispatches");
        assert!(r.trace.is_none(), "tracing off by default");
    }

    #[test]
    fn determinism_same_trace_twice() {
        fn build() -> Simulation {
            let mut sim = Simulation::with_trace();
            for i in 0..5u64 {
                sim.spawn(&format!("p{i}"), move |ctx| {
                    for k in 0..4u64 {
                        ctx.advance(SimDuration::from_nanos(100 + i * 37 + k));
                    }
                });
            }
            sim
        }
        let t1 = build().run().unwrap().trace.unwrap();
        let t2 = build().run().unwrap().trace.unwrap();
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
    }

    #[test]
    fn time_limit_stops_runaway_simulations() {
        let mut sim = Simulation::new();
        sim.set_time_limit(SimTime(1_000_000));
        sim.spawn("spinner", |ctx| loop {
            ctx.advance(SimDuration::from_micros(10));
        });
        match sim.run() {
            Err(SimError::TimeLimitExceeded { limit }) => {
                assert_eq!(limit, SimTime(1_000_000));
            }
            other => panic!("expected time limit, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_not_hit_is_harmless() {
        let mut sim = Simulation::new();
        sim.set_time_limit(SimTime(1_000_000));
        sim.spawn("quick", |ctx| ctx.advance(SimDuration::from_micros(5)));
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_fires_at_deadline() {
        let mut sim = Simulation::new();
        sim.spawn("t", |ctx| {
            let woken = ctx.block_timeout("data that never comes", SimDuration::from_micros(25));
            assert!(!woken, "nobody unblocked us");
            assert_eq!(ctx.now().as_nanos(), 25_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_woken_early_discards_stale_deadline() {
        let mut sim = Simulation::new();
        let t = sim.spawn("t", |ctx| {
            let woken = ctx.block_timeout("signal", SimDuration::from_micros(100));
            assert!(woken, "unblock arrived before the deadline");
            assert_eq!(ctx.now().as_nanos(), 10_000);
            // If the stale deadline event at t=100us were still live it
            // would wake this follow-up block early (at 100us, not 300us).
            let woken2 = ctx.block_timeout("second wait", SimDuration::from_micros(290));
            assert!(!woken2);
            assert_eq!(ctx.now().as_nanos(), 300_000);
        });
        sim.spawn("w", move |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            ctx.unblock(t, SimDuration::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_consumes_pending_wake_without_parking() {
        let mut sim = Simulation::new();
        let t = sim.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            // The wake arrived at t=1us while we were computing.
            let woken = ctx.block_timeout("already satisfied", SimDuration::from_micros(5));
            assert!(woken);
            assert_eq!(ctx.now().as_nanos(), 10_000, "no virtual time consumed");
        });
        sim.spawn("w", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ctx.unblock(t, SimDuration::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_then_plain_block_still_deadlocks() {
        // A consumed deadline must not leave a live event behind that could
        // mask a genuine deadlock later.
        let mut sim = Simulation::new();
        sim.spawn("t", |ctx| {
            let woken = ctx.block_timeout("first", SimDuration::from_micros(5));
            assert!(!woken);
            ctx.block("forever");
        });
        match sim.run() {
            Err(SimError::Deadlock { at, blocked }) => {
                assert_eq!(at.as_nanos(), 5_000);
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].2, "forever");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn incidents_are_collected_in_report() {
        let mut sim = Simulation::new();
        sim.spawn("survivor", |ctx| {
            ctx.advance(SimDuration::from_micros(2));
            ctx.report_incident(
                IncidentCategory::PeerLost,
                "rank 3 died; abandoning channel 7",
            );
        });
        let r = sim.run().unwrap();
        assert_eq!(r.incidents.len(), 1);
        let inc = &r.incidents[0];
        assert_eq!(inc.process, "survivor");
        assert_eq!(inc.category, IncidentCategory::PeerLost);
        assert_eq!(inc.category.to_string(), "peer-lost");
        assert_eq!(inc.at.as_nanos(), 2_000);
        assert!(inc.detail.contains("channel 7"));
    }

    #[test]
    fn yield_now_costs_no_time() {
        let mut sim = Simulation::new();
        sim.spawn("y", |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn spawner_trait_matches_inherent_spawn() {
        fn generic_spawn<S: Spawner>(s: &mut S) -> Pid {
            s.spawn_boxed(
                "via-trait",
                Box::new(|ctx| ctx.advance(SimDuration::from_micros(1))),
            )
        }
        let mut sim = Simulation::new();
        let pid = generic_spawn(&mut sim);
        assert_eq!(pid, 0);
        let r = sim.run().unwrap();
        assert_eq!(r.end_time.as_nanos(), 1_000);
    }
}
