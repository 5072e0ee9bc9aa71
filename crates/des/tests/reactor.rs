//! Kernel-hosted reactors: the same reactor gives the same schedule hosted
//! or driven on a thread, and hosting keeps the kernel's wake, join,
//! failure and diagnostic contracts.

use cp_des::sync::MsgQueue;
use cp_des::{
    drive, task, Poll, ProcCtx, Reactor, Reason, SimDuration, SimError, SimTime, Simulation,
    Spawner, Step,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Forwards every item of `input` to `output` after a per-item cost;
/// exits on item 0.
struct Relay {
    input: MsgQueue<u32>,
    output: MsgQueue<u32>,
    pending: Option<u32>,
}

impl Reactor for Relay {
    fn step(&mut self, ctx: &ProcCtx) -> Step {
        if let Some(item) = self.pending.take() {
            self.output.push(ctx, item, SimDuration::from_nanos(700));
            if item == 0 {
                return Step::Exit;
            }
        }
        match self.input.poll_pop(ctx) {
            Poll::Ready(item) => {
                self.pending = Some(item);
                Step::Advance(SimDuration::from_nanos(300 + 11 * item as u64))
            }
            Poll::Pending(step) => step,
        }
    }
}

/// The [`Relay`] loop written as an async task: the same yields, in a
/// straight line.
fn relay_task(input: MsgQueue<u32>, output: MsgQueue<u32>) -> impl Reactor {
    task(move |t| async move {
        loop {
            let item = t.poll(|| input.poll_pop(t.ctx())).await;
            t.advance(SimDuration::from_nanos(300 + 11 * item as u64))
                .await;
            let mut slot = Some(item);
            t.poll(|| output.poll_push(t.ctx(), &mut slot, SimDuration::from_nanos(700)))
                .await;
            if item == 0 {
                return;
            }
        }
    })
}

/// A run's dispatch trace, end time and `(item, arrival ns)` log.
type Outcome = (Vec<(SimTime, usize)>, SimTime, Vec<(u32, u64)>);

/// A producer, a relay, a consumer that joins the relay, and a ticker
/// reactor, under schedule seed `seed`; the relay (a hand-written state
/// machine, or an async task when `as_task`) and the ticker hosted by the
/// kernel or driven on threads.
fn relay_scenario(seed: u64, hosted: bool, as_task: bool) -> Outcome {
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    let (a, b) = (MsgQueue::new("a", Some(2)), MsgQueue::new("b", None));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (pa, cb, l) = (a.clone(), b.clone(), log.clone());
    sim.spawn("producer", move |ctx| {
        for item in (0..12u32).rev() {
            pa.push(ctx, item, SimDuration::from_nanos(100 * (item as u64 % 3)));
            ctx.advance(SimDuration::from_nanos(150));
        }
    });
    let mut relay: Box<dyn Reactor> = if as_task {
        Box::new(relay_task(a, b.clone()))
    } else {
        Box::new(Relay {
            input: a,
            output: b,
            pending: None,
        })
    };
    let mut ticks = 0u32;
    let mut ticker = move |_ctx: &ProcCtx| {
        ticks += 1;
        if ticks > 7 {
            Step::Exit
        } else {
            Step::Advance(SimDuration::from_nanos(450))
        }
    };
    let relay_pid = if hosted {
        sim.spawn_reactor("ticker", ticker);
        sim.spawn_reactor_boxed("relay", relay)
    } else {
        sim.spawn("ticker", move |ctx| drive(ctx, &mut ticker));
        sim.spawn("relay", move |ctx| drive(ctx, &mut *relay))
    };
    sim.spawn("consumer", move |ctx| {
        loop {
            let item = cb.pop(ctx);
            l.lock().push((item, ctx.now().as_nanos()));
            if item == 0 {
                break;
            }
        }
        ctx.join(relay_pid);
    });
    let report = sim.run().unwrap();
    let log = log.lock().clone();
    (report.trace.unwrap(), report.end_time, log)
}

#[test]
fn hosted_reactor_schedule_matches_thread_driven() {
    for seed in 0..=8u64 {
        let (trace_h, end_h, log_h) = relay_scenario(seed, true, false);
        let (trace_t, end_t, log_t) = relay_scenario(seed, false, false);
        assert_eq!(trace_h, trace_t, "seed {seed}: dispatch traces differ");
        assert_eq!(end_h, end_t, "seed {seed}");
        assert_eq!(log_h, log_t, "seed {seed}");
        assert_eq!(log_h.len(), 12);
    }
}

#[test]
fn async_task_schedule_matches_the_state_machine() {
    for seed in 0..=8u64 {
        let machine = relay_scenario(seed, true, false);
        for hosted in [true, false] {
            let task = relay_scenario(seed, hosted, true);
            assert_eq!(task, machine, "seed {seed}, hosted {hosted}");
        }
    }
}

/// A waiter making three timed blocks — one that times out, one woken
/// early, and one that must not be cut short by the early-woken block's
/// stale deadline — as an async task or with `block_timeout` on a thread.
/// Returns the dispatch trace and the resume instants.
fn timed_blocks(hosted: bool) -> (Vec<(SimTime, usize)>, Vec<u64>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::with_trace();
    let l = log.clone();
    let waits = [("first", 25u64), ("second", 100), ("third", 290)];
    let waiter = if hosted {
        sim.spawn_reactor(
            "waiter",
            task(move |t| async move {
                for (what, us) in waits {
                    let d = SimDuration::from_micros(us);
                    t.step(Step::BlockTimeout(Reason::new(what), d)).await;
                    l.lock().push(t.ctx().now().as_nanos());
                }
            }),
        )
    } else {
        sim.spawn("waiter", move |ctx| {
            for (what, us) in waits {
                ctx.block_timeout(what, SimDuration::from_micros(us));
                l.lock().push(ctx.now().as_nanos());
            }
        })
    };
    sim.spawn("waker", move |ctx| {
        ctx.advance(SimDuration::from_micros(35));
        ctx.unblock(waiter, SimDuration::ZERO);
    });
    let report = sim.run().unwrap();
    let log = log.lock().clone();
    (report.trace.unwrap(), log)
}

#[test]
fn timed_block_step_matches_block_timeout() {
    let hosted = timed_blocks(true);
    assert_eq!(hosted, timed_blocks(false));
    assert_eq!(hosted.1, vec![25_000, 35_000, 325_000]);
}

#[test]
fn banked_wake_makes_block_step_again_without_a_dispatch() {
    let steps = Arc::new(Mutex::new(Vec::new()));
    let s = steps.clone();
    let mut sim = Simulation::with_trace();
    let mut n = 0;
    let r = sim.spawn_reactor("r", move |ctx: &ProcCtx| {
        n += 1;
        s.lock().push((n, ctx.now().as_nanos()));
        match n {
            1 => Step::Advance(SimDuration::from_micros(10)),
            2 => Step::Block(Reason::new("already woken")),
            _ => Step::Exit,
        }
    });
    sim.spawn("waker", move |ctx| {
        ctx.advance(SimDuration::from_micros(1));
        // The reactor is waiting in its advance: the wake is banked.
        ctx.unblock(r, SimDuration::ZERO);
    });
    let report = sim.run().unwrap();
    assert_eq!(*steps.lock(), vec![(1, 0), (2, 10_000), (3, 10_000)]);
    let trace = report.trace.unwrap();
    assert_eq!(trace.iter().filter(|(_, pid)| *pid == r).count(), 2);
    assert_eq!(report.dispatches, 4);
}

#[test]
fn reactor_exit_wakes_joiners() {
    let mut sim = Simulation::new();
    sim.spawn("parent", |ctx| {
        let mut first = true;
        let child = ctx.spawn_reactor("child", move |_: &ProcCtx| {
            if std::mem::take(&mut first) {
                Step::Advance(SimDuration::from_micros(5))
            } else {
                Step::Exit
            }
        });
        ctx.join(child);
        assert_eq!(ctx.now().as_nanos(), 5_000);
    });
    let report = sim.run().unwrap();
    assert_eq!(report.processes, 2);
}

#[test]
fn panicking_step_names_the_reactor() {
    let mut sim = Simulation::new();
    sim.spawn_reactor("faulty", |_: &ProcCtx| -> Step { panic!("bad word {}", 7) });
    sim.spawn("bystander", |ctx| ctx.block("never"));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message, .. }) => {
            assert_eq!(name, "faulty");
            assert!(message.contains("bad word 7"), "{message}");
        }
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
}

#[test]
fn blocking_call_inside_a_step_fails_the_run() {
    let mut sim = Simulation::new();
    sim.spawn_reactor("sleepy", |ctx: &ProcCtx| {
        ctx.advance(SimDuration::from_micros(1));
        Step::Exit
    });
    sim.spawn("peer", |ctx| ctx.advance(SimDuration::from_micros(3)));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message, .. }) => {
            assert_eq!(name, "sleepy");
            assert!(message.contains("blocking ProcCtx::advance"), "{message}");
        }
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
}

#[test]
fn deadlock_report_lists_blocked_reactor_and_reason() {
    let mut sim = Simulation::new();
    let label: Arc<str> = Arc::from("node3.spe1.mbox_out");
    sim.spawn_reactor("watcher", move |_: &ProcCtx| {
        Step::Block(Reason::new("pop (queue empty)").on(&label))
    });
    sim.spawn("reader", |ctx| ctx.block("peer message"));
    match sim.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), 2);
            assert_eq!(
                blocked[0],
                (
                    0,
                    "watcher".to_string(),
                    "node3.spe1.mbox_out: pop (queue empty)".to_string()
                )
            );
            assert_eq!(blocked[1].2, "peer message");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn time_limit_fires_while_reactors_are_queued() {
    let mut sim = Simulation::new();
    sim.set_time_limit(SimTime(1_000_000));
    sim.spawn_reactor("spinner", |_: &ProcCtx| {
        Step::Advance(SimDuration::from_micros(10))
    });
    sim.spawn_reactor("idler", |_: &ProcCtx| {
        Step::Advance(SimDuration::from_micros(7))
    });
    match sim.run() {
        Err(SimError::TimeLimitExceeded { limit }) => assert_eq!(limit, SimTime(1_000_000)),
        other => panic!("expected time limit, got {other:?}"),
    }
}
