//! Blocking synchronization primitives for simulated processes.
//!
//! These are the building blocks the higher layers (mailboxes, MPI matching
//! engines, Pilot channels) are made of. All of them integrate with the
//! kernel's virtual clock: a message can carry an *availability time* so a
//! receiver resumes exactly when the modelled transfer completes, and all
//! blocking operations park the calling process with a descriptive reason
//! that shows up in deadlock diagnostics. [`MsgQueue::poll_pop`] and
//! [`MsgQueue::poll_push`] are the non-blocking cores a kernel-hosted
//! [`crate::Reactor`] receives and sends with.

use crate::error::Pid;
use crate::kernel::ProcCtx;
use crate::reactor::{Poll, Reason, Step};
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

struct QueueState<T> {
    items: VecDeque<(SimTime, T)>,
    pop_waiters: VecDeque<Pid>,
    push_waiters: VecDeque<Pid>,
    label: Arc<str>,
}

/// A FIFO message queue between simulated processes.
///
/// `capacity = None` gives an unbounded queue; `Some(n)` blocks pushers while
/// `n` messages are enqueued (like the Cell's 4-deep inbound mailbox).
/// Each pushed message carries a delivery latency: the receiver cannot
/// consume it before `push_time + latency`.
pub struct MsgQueue<T> {
    state: Arc<Mutex<QueueState<T>>>,
    capacity: Option<usize>,
}

impl<T> Clone for MsgQueue<T> {
    fn clone(&self) -> Self {
        MsgQueue {
            state: self.state.clone(),
            capacity: self.capacity,
        }
    }
}

impl<T> MsgQueue<T> {
    /// Create a queue. `label` appears in blocking/deadlock diagnostics.
    pub fn new(label: &str, capacity: Option<usize>) -> MsgQueue<T> {
        MsgQueue {
            state: Arc::new(Mutex::new(QueueState {
                items: VecDeque::new(),
                pop_waiters: VecDeque::new(),
                push_waiters: VecDeque::new(),
                label: Arc::from(label),
            })),
            capacity,
        }
    }

    /// Number of enqueued messages (including not-yet-available ones).
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True if no messages are enqueued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue `item`, blocking while the queue is full. The item becomes
    /// available to receivers at `now + latency`.
    pub fn push(&self, ctx: &ProcCtx, item: T, latency: SimDuration) {
        let mut item = Some(item);
        ctx.drive_poll(|| self.poll_push(ctx, &mut item, latency))
            .expect("a queue push never exits");
    }

    /// The non-blocking core of [`MsgQueue::push`]: enqueue the item out of
    /// `item` if there is room; otherwise register the caller as a pusher
    /// and return the block to take before polling again. `item` must hold
    /// the item until this returns `Ready`.
    pub fn poll_push(&self, ctx: &ProcCtx, item: &mut Option<T>, latency: SimDuration) -> Poll<()> {
        let mut st = self.state.lock();
        if self.capacity.is_none_or(|c| st.items.len() < c) {
            let item = item.take().expect("a pushed item is pushed once");
            Self::insert(&mut st, ctx, item, latency);
            return Poll::Ready(());
        }
        st.push_waiters.push_back(ctx.pid());
        Poll::Pending(Step::Block(Reason::new("push (queue full)").on(&st.label)))
    }

    /// Enqueue without blocking; returns the item back if the queue is full.
    pub fn try_push(&self, ctx: &ProcCtx, item: T, latency: SimDuration) -> Result<(), T> {
        let mut st = self.state.lock();
        if self.capacity.is_none_or(|c| st.items.len() < c) {
            Self::insert(&mut st, ctx, item, latency);
            Ok(())
        } else {
            Err(item)
        }
    }

    /// Append `item`, available at `now + latency`, and wake one popper.
    fn insert(st: &mut QueueState<T>, ctx: &ProcCtx, item: T, latency: SimDuration) {
        st.items.push_back((ctx.now() + latency, item));
        if let Some(w) = st.pop_waiters.pop_front() {
            ctx.unblock(w, latency);
        }
    }

    /// Dequeue the front message, blocking while the queue is empty and
    /// advancing virtual time to the message's availability instant.
    pub fn pop(&self, ctx: &ProcCtx) -> T {
        ctx.drive_poll(|| self.poll_pop(ctx))
            .expect("a queue pop never exits")
    }

    /// The non-blocking core of [`MsgQueue::pop`]: the front message if it
    /// is available now; otherwise the step to take before polling again —
    /// advance to the front message's availability instant, or block (the
    /// caller is registered as a waiter) while the queue is empty.
    pub fn poll_pop(&self, ctx: &ProcCtx) -> Poll<T> {
        let mut st = self.state.lock();
        if let Some(&(avail, _)) = st.items.front() {
            let now = ctx.now();
            if avail > now {
                // Front message still in flight: wait for it.
                return Poll::Pending(Step::Advance(avail - now));
            }
            let (_, item) = st.items.pop_front().expect("front checked above");
            if let Some(w) = st.push_waiters.pop_front() {
                ctx.unblock(w, SimDuration::ZERO);
            }
            return Poll::Ready(item);
        }
        st.pop_waiters.push_back(ctx.pid());
        Poll::Pending(Step::Block(Reason::new("pop (queue empty)").on(&st.label)))
    }

    /// Dequeue the front message if one is available *now*; never blocks and
    /// never advances time.
    pub fn try_pop(&self, ctx: &ProcCtx) -> Option<T> {
        let mut st = self.state.lock();
        match st.items.front() {
            Some(&(avail, _)) if avail <= ctx.now() => {
                let (_, item) = st.items.pop_front().unwrap();
                if let Some(w) = st.push_waiters.pop_front() {
                    ctx.unblock(w, SimDuration::ZERO);
                }
                Some(item)
            }
            _ => None,
        }
    }

    /// True if a message is available for `try_pop` at the current time.
    pub fn has_available(&self, ctx: &ProcCtx) -> bool {
        let st = self.state.lock();
        matches!(st.items.front(), Some(&(avail, _)) if avail <= ctx.now())
    }
}

/// A counting semaphore for simulated processes.
pub struct SimSemaphore {
    state: Arc<Mutex<SemState>>,
}

struct SemState {
    permits: u64,
    waiters: VecDeque<Pid>,
    label: Arc<str>,
}

impl Clone for SimSemaphore {
    fn clone(&self) -> Self {
        SimSemaphore {
            state: self.state.clone(),
        }
    }
}

impl SimSemaphore {
    /// A semaphore with `permits` initial permits.
    pub fn new(label: &str, permits: u64) -> SimSemaphore {
        SimSemaphore {
            state: Arc::new(Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
                label: Arc::from(label),
            })),
        }
    }

    /// Take one permit, blocking until one is available.
    pub fn acquire(&self, ctx: &ProcCtx) {
        loop {
            let reason;
            {
                let mut st = self.state.lock();
                if st.permits > 0 {
                    st.permits -= 1;
                    return;
                }
                st.waiters.push_back(ctx.pid());
                reason = Reason::new("acquire").on(&st.label);
            }
            ctx.block(reason);
        }
    }

    /// Release one permit, waking a waiter if any.
    pub fn release(&self, ctx: &ProcCtx) {
        let mut st = self.state.lock();
        st.permits += 1;
        if let Some(w) = st.waiters.pop_front() {
            ctx.unblock(w, SimDuration::ZERO);
        }
    }

    /// Current permit count (diagnostics only).
    pub fn permits(&self) -> u64 {
        self.state.lock().permits
    }
}

/// A reusable barrier for a fixed party count.
pub struct SimBarrier {
    state: Arc<Mutex<BarrierState>>,
    parties: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    waiters: Vec<Pid>,
    label: Arc<str>,
}

impl Clone for SimBarrier {
    fn clone(&self) -> Self {
        SimBarrier {
            state: self.state.clone(),
            parties: self.parties,
        }
    }
}

impl SimBarrier {
    /// A barrier that releases once `parties` processes have arrived.
    pub fn new(label: &str, parties: usize) -> SimBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        SimBarrier {
            state: Arc::new(Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
                label: Arc::from(label),
            })),
            parties,
        }
    }

    /// Arrive and wait for all parties. Returns true for exactly one caller
    /// per generation (the "leader", the last to arrive).
    pub fn wait(&self, ctx: &ProcCtx) -> bool {
        let my_gen;
        let reason;
        {
            let mut st = self.state.lock();
            st.arrived += 1;
            my_gen = st.generation;
            if st.arrived == self.parties {
                st.arrived = 0;
                st.generation += 1;
                let waiters = std::mem::take(&mut st.waiters);
                for w in waiters {
                    ctx.unblock(w, SimDuration::ZERO);
                }
                return true;
            }
            st.waiters.push(ctx.pid());
            reason = Reason::new("barrier wait").on(&st.label);
        }
        loop {
            ctx.block(reason.clone());
            let st = self.state.lock();
            if st.generation != my_gen {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn queue_delivers_in_fifo_order_with_latency() {
        let q: MsgQueue<u32> = MsgQueue::new("q", None);
        let got = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let (qp, qc, g) = (q.clone(), q, got.clone());
        sim.spawn("producer", move |ctx| {
            qp.push(ctx, 1, SimDuration::from_micros(10));
            ctx.advance(SimDuration::from_micros(1));
            qp.push(ctx, 2, SimDuration::from_micros(10));
        });
        sim.spawn("consumer", move |ctx| {
            let a = qc.pop(ctx);
            g.lock().push((a, ctx.now().as_nanos()));
            let b = qc.pop(ctx);
            g.lock().push((b, ctx.now().as_nanos()));
        });
        sim.run().unwrap();
        let v = got.lock().clone();
        assert_eq!(v, vec![(1, 10_000), (2, 11_000)]);
    }

    #[test]
    fn bounded_queue_blocks_pusher() {
        let q: MsgQueue<u8> = MsgQueue::new("mb", Some(1));
        let mut sim = Simulation::new();
        let (qp, qc) = (q.clone(), q);
        sim.spawn("producer", move |ctx| {
            qp.push(ctx, 1, SimDuration::ZERO);
            qp.push(ctx, 2, SimDuration::ZERO); // must block until consumer pops
            assert_eq!(ctx.now().as_nanos(), 5_000);
        });
        sim.spawn("consumer", move |ctx| {
            ctx.advance(SimDuration::from_micros(5));
            assert_eq!(qc.pop(ctx), 1);
            assert_eq!(qc.pop(ctx), 2);
        });
        sim.run().unwrap();
    }

    /// `(event, item, ns)` entries of [`full_queue_scenario`].
    type QueueLog = Vec<(&'static str, u8, u64)>;

    /// A producer pushing three items through a one-slot queue, by
    /// blocking `push` in a process or by `poll_push` from a reactor, and a
    /// consumer draining it late. Returns the dispatch trace and the
    /// `(item, ns)` log of completed pushes and pops.
    fn full_queue_scenario(polled: bool) -> (Vec<(SimTime, Pid)>, QueueLog) {
        let q: MsgQueue<u8> = MsgQueue::new("slot", Some(1));
        let log = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::with_trace();
        let (qp, qc, lp, lc) = (q.clone(), q, log.clone(), log.clone());
        if polled {
            let mut next = 1u8;
            let mut item = None;
            sim.spawn_reactor("producer", move |ctx: &ProcCtx| loop {
                if next > 3 {
                    return Step::Exit;
                }
                item.get_or_insert(next);
                match qp.poll_push(ctx, &mut item, SimDuration::from_nanos(100)) {
                    Poll::Ready(()) => {
                        lp.lock().push(("push", next, ctx.now().as_nanos()));
                        next += 1;
                    }
                    Poll::Pending(step) => {
                        assert!(matches!(&step, Step::Block(r) if r.to_string() == "slot: push (queue full)"));
                        return step;
                    }
                }
            });
        } else {
            sim.spawn("producer", move |ctx| {
                for i in 1..=3u8 {
                    qp.push(ctx, i, SimDuration::from_nanos(100));
                    lp.lock().push(("push", i, ctx.now().as_nanos()));
                }
            });
        }
        sim.spawn("consumer", move |ctx| {
            for _ in 0..3 {
                ctx.advance(SimDuration::from_micros(5));
                let i = qc.pop(ctx);
                lc.lock().push(("pop", i, ctx.now().as_nanos()));
            }
        });
        let report = sim.run().unwrap();
        let log = log.lock().clone();
        (report.trace.unwrap(), log)
    }

    #[test]
    fn poll_push_on_a_full_queue_matches_blocking_push() {
        let (trace_t, log_t) = full_queue_scenario(false);
        let (trace_r, log_r) = full_queue_scenario(true);
        assert_eq!(trace_r, trace_t, "dispatch trace");
        assert_eq!(log_r, log_t);
        // Each push after the first waits for the pop that frees the slot.
        assert_eq!(
            log_r,
            vec![
                ("push", 1, 0),
                ("pop", 1, 5_000),
                ("push", 2, 5_000),
                ("pop", 2, 10_000),
                ("push", 3, 10_000),
                ("pop", 3, 15_000),
            ]
        );
    }

    #[test]
    fn try_pop_respects_availability_time() {
        let q: MsgQueue<u8> = MsgQueue::new("q", None);
        let mut sim = Simulation::new();
        let (qp, qc) = (q.clone(), q);
        sim.spawn("producer", move |ctx| {
            qp.push(ctx, 9, SimDuration::from_micros(100));
        });
        sim.spawn("poller", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            assert!(qc.try_pop(ctx).is_none(), "message still in flight");
            assert!(!qc.has_available(ctx));
            ctx.advance(SimDuration::from_micros(100));
            assert!(qc.has_available(ctx));
            assert_eq!(qc.try_pop(ctx), Some(9));
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_push_full_returns_item() {
        let q: MsgQueue<u8> = MsgQueue::new("mb1", Some(1));
        let mut sim = Simulation::new();
        sim.spawn("p", move |ctx| {
            assert!(q.try_push(ctx, 1, SimDuration::ZERO).is_ok());
            assert_eq!(q.try_push(ctx, 2, SimDuration::ZERO), Err(2));
            assert_eq!(q.pop(ctx), 1);
        });
        sim.run().unwrap();
    }

    #[test]
    fn semaphore_serializes() {
        let sem = SimSemaphore::new("s", 1);
        let order = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 0..3u32 {
            let sem = sem.clone();
            let order = order.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                sem.acquire(ctx);
                order.lock().push((i, ctx.now().as_nanos()));
                ctx.advance(SimDuration::from_micros(10));
                sem.release(ctx);
            });
        }
        sim.run().unwrap();
        let v = order.lock().clone();
        assert_eq!(v.len(), 3);
        // Entries are 10us apart: mutual exclusion held.
        assert_eq!(v[1].1 - v[0].1, 10_000);
        assert_eq!(v[2].1 - v[1].1, 10_000);
    }

    #[test]
    fn barrier_releases_all_at_latest_arrival() {
        let bar = SimBarrier::new("b", 3);
        let times = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 0..3u64 {
            let bar = bar.clone();
            let times = times.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.advance(SimDuration::from_micros(10 * (i + 1)));
                bar.wait(ctx);
                times.lock().push(ctx.now().as_nanos());
            });
        }
        sim.run().unwrap();
        let v = times.lock().clone();
        assert_eq!(v, vec![30_000, 30_000, 30_000]);
    }

    #[test]
    fn barrier_is_reusable() {
        let bar = SimBarrier::new("b", 2);
        let mut sim = Simulation::new();
        let mut leaders = Vec::new();
        for i in 0..2u64 {
            let bar = bar.clone();
            let counter = Arc::new(PMutex::new(0u32));
            leaders.push(counter.clone());
            sim.spawn(&format!("p{i}"), move |ctx| {
                for _ in 0..4 {
                    ctx.advance(SimDuration::from_micros(1 + i));
                    if bar.wait(ctx) {
                        *counter.lock() += 1;
                    }
                }
            });
        }
        sim.run().unwrap();
        let total: u32 = leaders.iter().map(|c| *c.lock()).sum();
        assert_eq!(total, 4, "exactly one leader per generation");
    }

    #[test]
    fn queue_empty_deadlock_reports_label() {
        let q: MsgQueue<u8> = MsgQueue::new("orphan-queue", None);
        let mut sim = Simulation::new();
        sim.spawn("reader", move |ctx| {
            q.pop(ctx);
        });
        match sim.run() {
            Err(crate::SimError::Deadlock { blocked, .. }) => {
                assert!(blocked[0].2.contains("orphan-queue"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
