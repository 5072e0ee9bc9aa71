//! The poll-driven receive ([`Comm::poll_recv`]) run by a kernel-hosted
//! reactor matches the blocking [`Comm::recv`] exactly, and ends in
//! `Step::Exit` on a retired rank.

use cp_des::{Poll, ProcCtx, Reactor, SimDuration, SimTime, Simulation, Step};
use cp_mpisim::{Comm, Datatype, MpiCosts, MpiWorld, Msg, RecvOp};
use cp_simnet::{ClusterSpec, NodeId};
use parking_lot::Mutex;
use std::sync::Arc;

type Log = Arc<Mutex<Option<(Msg, SimTime)>>>;

/// Receives one message as `rank`, then logs it with the clock and exits.
struct Receiver {
    world: MpiWorld,
    rank: usize,
    comm: Option<Comm>,
    op: RecvOp,
    log: Log,
}

impl Reactor for Receiver {
    fn step(&mut self, ctx: &ProcCtx) -> Step {
        let comm = self
            .comm
            .get_or_insert_with(|| self.world.attach(ctx, self.rank));
        match comm.poll_recv(&mut self.op) {
            Poll::Ready(msg) => {
                *self.log.lock() = Some((msg, ctx.now()));
                Step::Exit
            }
            Poll::Pending(step) => step,
        }
    }
}

fn world(ranks: usize) -> MpiWorld {
    let cluster = ClusterSpec::two_cells_one_xeon().build();
    let placement = (0..ranks).map(|r| NodeId(r % 3)).collect();
    MpiWorld::new(cluster, placement, MpiCosts::default())
}

/// Rank 0 sends `bytes` to rank 1, which receives by blocking `recv` or by
/// a polling reactor. Returns the message, its completion time and the
/// dispatch trace.
fn one_message(bytes: usize, polled: bool) -> (Msg, SimTime, Vec<(SimTime, usize)>) {
    let world = world(2);
    let mut sim = Simulation::with_trace();
    let w0 = world.clone();
    sim.spawn("r0", move |ctx| {
        let comm = w0.attach(ctx, 0);
        ctx.advance(SimDuration::from_micros(3));
        let data: Vec<u8> = (0..bytes).map(|i| i as u8).collect();
        comm.send_bytes(1, 5, Datatype::Byte, bytes, data);
        comm.send_bytes(1, 6, Datatype::Byte, 1, vec![9]);
    });
    let log: Log = Arc::new(Mutex::new(None));
    if polled {
        sim.spawn_reactor(
            "r1",
            Receiver {
                world: world.clone(),
                rank: 1,
                comm: None,
                op: RecvOp::new(Some(0), Some(5)),
                log: log.clone(),
            },
        );
    } else {
        let l = log.clone();
        sim.spawn("r1", move |ctx| {
            let comm = world.attach(ctx, 1);
            let msg = comm.recv(Some(0), Some(5));
            *l.lock() = Some((msg, ctx.now()));
        });
    }
    let report = sim.run().unwrap();
    let (msg, at) = log.lock().take().expect("message received");
    (msg, at, report.trace.unwrap())
}

#[test]
fn polled_receive_matches_blocking_receive() {
    let eager_limit = MpiCosts::default().eager_limit;
    for bytes in [64, 4 * eager_limit] {
        let (msg_b, at_b, trace_b) = one_message(bytes, false);
        let (msg_p, at_p, trace_p) = one_message(bytes, true);
        assert_eq!(msg_p, msg_b, "{bytes} B");
        assert_eq!(msg_p.data.len(), bytes);
        assert_eq!(at_p, at_b, "{bytes} B: completion time");
        assert_eq!(trace_p, trace_b, "{bytes} B: dispatch trace");
    }
}

#[test]
fn receive_on_a_retired_rank_exits() {
    let world = world(3);
    let mut sim = Simulation::new();
    let log: Log = Arc::new(Mutex::new(None));
    let exited = Arc::new(Mutex::new(Vec::new()));
    let mut pump = Receiver {
        world: world.clone(),
        rank: 1,
        comm: None,
        op: RecvOp::new(None, None),
        log: log.clone(),
    };
    let e = exited.clone();
    sim.spawn_reactor("pump", move |ctx: &ProcCtx| {
        let step = pump.step(ctx);
        if matches!(step, Step::Exit) {
            e.lock().push(("reactor", ctx.now().as_nanos()));
        }
        step
    });
    let (w, e) = (world.clone(), exited.clone());
    sim.spawn("thread-pump", move |ctx| {
        let comm = w.attach(ctx, 1);
        let mut op = RecvOp::new(None, None);
        assert!(ctx.drive_poll(|| comm.poll_recv(&mut op)).is_none());
        e.lock().push(("thread", ctx.now().as_nanos()));
    });
    sim.spawn("standby", move |ctx| {
        ctx.advance(SimDuration::from_micros(5));
        world.take_over_rank(ctx, 1, 2);
    });
    // A retired receive unwinding inside a reactor step would fail the run
    // as a panic; it must end in a clean exit instead.
    sim.run().unwrap();
    assert!(log.lock().is_none(), "nothing was received");
    assert_eq!(*exited.lock(), vec![("reactor", 5_000), ("thread", 5_000)]);
}
