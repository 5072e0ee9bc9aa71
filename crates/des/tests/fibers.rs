//! What running every process on a fiber of one carrier thread puts at
//! risk: teardown must unwind every unfinished process (dropping what its
//! closure owns), deep stacks and thousands of processes must fit, a
//! process may run a nested simulation, and concurrent simulations must
//! not disturb each other's schedules.

use cp_des::{ProcCtx, SimDuration, SimError, SimTime, Simulation, Step};
use std::hint::black_box;
use std::sync::Arc;

/// A simulation whose processes are caught in every state when `end`
/// (run by process "ender" at t = 5 µs) finishes the run: one finished,
/// one waiting on a future event, one blocked, a blocked reactor, and one
/// spawned just before the end (never started, if `end` fails the run at
/// once). Every closure holds a clone of `token`.
fn teardown_scenario(
    token: &Arc<()>,
    limit: Option<SimTime>,
    end: impl FnOnce(&ProcCtx) + Send + 'static,
) -> SimError {
    let mut sim = Simulation::new();
    if let Some(limit) = limit {
        sim.set_time_limit(limit);
    }
    let t = token.clone();
    sim.spawn("finished", move |ctx| {
        let _t = t;
        ctx.advance(SimDuration::from_micros(1));
    });
    let t = token.clone();
    sim.spawn("waiting", move |ctx| {
        let _t = t;
        ctx.advance(SimDuration::from_micros(1_000));
    });
    let t = token.clone();
    sim.spawn("blocked", move |ctx| {
        let _t = t;
        ctx.block("a wake that never comes");
    });
    let t = token.clone();
    sim.spawn_reactor("reactor", move |_: &ProcCtx| {
        let _t = &t;
        Step::Block("a wake that never comes".into())
    });
    let t = token.clone();
    sim.spawn("ender", move |ctx| {
        ctx.advance(SimDuration::from_micros(5));
        let inner = t.clone();
        ctx.spawn("late", move |c| {
            let _t = inner;
            c.block("a wake that never comes");
        });
        let _t = t;
        end(ctx);
    });
    sim.run().expect_err("the scenario fails the run")
}

#[test]
fn teardown_drops_every_closure_after_a_deadlock() {
    let token = Arc::new(());
    let err = teardown_scenario(&token, None, |ctx| {
        ctx.block("the last wake");
    });
    assert!(matches!(err, SimError::Deadlock { .. }), "{err:?}");
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn teardown_drops_every_closure_after_an_abort() {
    let token = Arc::new(());
    let err = teardown_scenario(&token, None, |ctx| ctx.abort("scripted abort"));
    assert!(matches!(err, SimError::Aborted { .. }), "{err:?}");
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn teardown_drops_every_closure_after_a_panic() {
    let token = Arc::new(());
    let err = teardown_scenario(&token, None, |_| panic!("scripted panic"));
    assert!(matches!(err, SimError::ProcessPanicked { .. }), "{err:?}");
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn teardown_drops_every_closure_after_the_time_limit() {
    let token = Arc::new(());
    let err = teardown_scenario(&token, Some(SimTime(50_000)), |ctx| loop {
        ctx.advance(SimDuration::from_micros(10));
    });
    assert!(matches!(err, SimError::TimeLimitExceeded { .. }), "{err:?}");
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn a_process_can_use_one_and_a_half_mib_of_stack() {
    let mut sim = Simulation::new();
    sim.spawn("deep", |ctx| {
        let mut buf = [0u8; 1536 * 1024];
        black_box(&mut buf);
        buf.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8);
        // Hand the CPU over while the big frame is live.
        ctx.advance(SimDuration::from_micros(1));
        let sum: u64 = black_box(&buf).iter().map(|&b| u64::from(b)).sum();
        assert_eq!(sum, (1536 * 1024 / 256) * (255 * 256 / 2));
    });
    sim.spawn("neighbour", |ctx| {
        for _ in 0..3 {
            ctx.advance(SimDuration::from_nanos(400));
        }
    });
    let r = sim.run().unwrap();
    assert_eq!(r.end_time.as_nanos(), 1_200);
}

#[test]
fn four_thousand_ninety_six_processes_complete() {
    const N: u64 = 4096;
    let mut sim = Simulation::new();
    for i in 0..N {
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.advance(SimDuration::from_nanos(1 + i % 13));
            ctx.advance(SimDuration::from_nanos(1));
        });
    }
    let r = sim.run().unwrap();
    assert_eq!(r.processes, N as usize);
    assert_eq!(r.dispatches, 3 * N);
    assert_eq!(r.end_time.as_nanos(), 14);
}

#[test]
fn a_process_can_run_a_nested_simulation() {
    let mut sim = Simulation::new();
    sim.spawn("outer", |ctx| {
        ctx.advance(SimDuration::from_micros(2));
        let mut inner = Simulation::new();
        inner.spawn("inner", |c| c.advance(SimDuration::from_micros(7)));
        let r = inner.run().expect("the nested run completes");
        assert_eq!(r.end_time.as_nanos(), 7_000);
        // The outer clock did not move while the nested run ran.
        assert_eq!(ctx.now().as_nanos(), 2_000);
        ctx.advance(SimDuration::from_micros(1));
    });
    let r = sim.run().unwrap();
    assert_eq!(r.end_time.as_nanos(), 3_000);
}

#[test]
fn concurrent_simulations_stay_deterministic() {
    fn traced() -> Vec<(SimTime, usize)> {
        let mut sim = Simulation::with_trace();
        for i in 0..16u64 {
            sim.spawn(&format!("p{i}"), move |ctx| {
                for k in 0..50u64 {
                    ctx.advance(SimDuration::from_nanos(1 + (i * 7 + k * 3) % 11));
                }
            });
        }
        sim.run().unwrap().trace.unwrap()
    }
    let expect = traced();
    let threads: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(|| (0..5).map(|_| traced()).collect::<Vec<_>>()))
        .collect();
    for t in threads {
        for trace in t.join().expect("no simulation panicked") {
            assert_eq!(trace, expect);
        }
    }
}
