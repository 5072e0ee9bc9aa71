//! The poll-driven send ([`Comm::poll_send`]), awaited by an async task
//! launched with [`MpiWorld::launch_task`], matches the blocking
//! [`Comm::try_send_bytes`] exactly: same outcome, same completion instant,
//! same receiver view and the same dispatch trace — for eager and
//! rendezvous sends, a retransmitted drop, and a rendezvous toward a rank
//! that dies while the sender waits for its clear-to-send.

use cp_des::{SimDuration, SimTime, Simulation};
use cp_mpisim::{Datatype, MpiCosts, MpiFault, MpiWorld, Msg, SendOp};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};
use parking_lot::Mutex;
use std::sync::Arc;

/// The sender's outcome and the instant it completed.
type Sent = (Result<(), MpiFault>, SimTime);

/// What one run observed: the send, the receive (if any), the end time
/// and the dispatch trace.
struct Run {
    sent: Sent,
    received: Option<(Msg, SimTime)>,
    end: SimTime,
    trace: Vec<(SimTime, usize)>,
}

/// Rank 0 (node 0) sends `bytes` to rank 1 (node 1) under `plan`, by
/// blocking call or by polling; rank 1 posts its receive after
/// `recv_after`, or never posts a matching one when `None`.
fn run(plan: FaultPlan, bytes: usize, recv_after: Option<SimDuration>, polled: bool) -> Run {
    let cluster = ClusterSpec::two_cells_one_xeon().build();
    let world = MpiWorld::with_faults(
        cluster,
        vec![NodeId(0), NodeId(1)],
        MpiCosts::default(),
        Arc::new(plan),
        RetryPolicy::default(),
    );
    let mut sim = Simulation::with_trace();
    let sent: Arc<Mutex<Option<Sent>>> = Arc::new(Mutex::new(None));
    let data: Vec<u8> = (0..bytes).map(|i| (i * 7) as u8).collect();
    let s = sent.clone();
    if polled {
        world.launch_task(&mut sim, 0, "r0", move |comm, t| async move {
            t.advance(SimDuration::from_micros(3)).await;
            let mut op = SendOp::new(1, 5, Datatype::Byte, bytes, data);
            let outcome = t.poll(|| comm.poll_send(&mut op)).await;
            *s.lock() = Some((outcome, t.ctx().now()));
        });
    } else {
        world.launch(&mut sim, 0, "r0", move |comm| {
            comm.ctx().advance(SimDuration::from_micros(3));
            let outcome = comm.try_send_bytes(1, 5, Datatype::Byte, bytes, data);
            *s.lock() = Some((outcome, comm.ctx().now()));
        });
    }
    let received = Arc::new(Mutex::new(None));
    let r = received.clone();
    world.launch(&mut sim, 1, "r1", move |comm| match recv_after {
        Some(delay) => {
            comm.ctx().advance(delay);
            let msg = comm.recv(Some(0), Some(5));
            *r.lock() = Some((msg, comm.ctx().now()));
        }
        // A receive that never matches: the rank sits in it until the
        // fault plan kills it.
        None => {
            comm.recv(Some(0), Some(99));
        }
    });
    let report = sim.run().unwrap();
    let sent = sent.lock().take().expect("the send finished");
    let received = received.lock().take();
    Run {
        sent,
        received,
        end: report.end_time,
        trace: report.trace.unwrap(),
    }
}

/// Run a scenario both ways, assert they agree, and return the run.
fn both_ways(plan: impl Fn() -> FaultPlan, bytes: usize, recv_after: Option<SimDuration>) -> Run {
    let blocking = run(plan(), bytes, recv_after, false);
    let polled = run(plan(), bytes, recv_after, true);
    assert_eq!(
        polled.sent, blocking.sent,
        "{bytes} B: send outcome and instant"
    );
    assert_eq!(polled.received, blocking.received, "{bytes} B: receive");
    assert_eq!(polled.end, blocking.end, "{bytes} B: end time");
    assert_eq!(polled.trace, blocking.trace, "{bytes} B: dispatch trace");
    polled
}

#[test]
fn polled_eager_send_matches_blocking_send() {
    let r = both_ways(FaultPlan::new, 100, Some(SimDuration::from_micros(1)));
    assert_eq!(r.sent.0, Ok(()));
    let (msg, _) = r.received.expect("delivered");
    assert_eq!(msg.data.len(), 100);
}

#[test]
fn polled_rendezvous_send_matches_blocking_send() {
    let bytes = MpiCosts::default().eager_limit + 4000;
    // The receiver posts late, so the sender waits for the clear-to-send.
    let r = both_ways(FaultPlan::new, bytes, Some(SimDuration::from_millis(2)));
    assert_eq!(r.sent.0, Ok(()));
    assert!(
        r.sent.1 > SimTime(2_000_000),
        "the sender waited for the CTS"
    );
    assert_eq!(r.received.expect("delivered").0.data.len(), bytes);
}

#[test]
fn polled_send_retransmits_a_dropped_attempt_like_blocking_send() {
    let drop_first =
        || FaultPlan::new().drop_link(NodeId(0), NodeId(1), SimTime(0), SimTime(u64::MAX), 1);
    let clean = both_ways(FaultPlan::new, 100, Some(SimDuration::from_micros(1)));
    let dropped = both_ways(drop_first, 100, Some(SimDuration::from_micros(1)));
    assert_eq!(dropped.sent.0, Ok(()));
    let backoff = RetryPolicy::default().backoff(0);
    assert_eq!(
        dropped.sent.1,
        clean.sent.1 + backoff,
        "the retransmission costs exactly one backoff"
    );
    assert!(dropped.received.is_some());
}

#[test]
fn polled_rendezvous_toward_a_dying_rank_is_peer_lost_at_the_same_instant() {
    // Late enough that the sender is already waiting for the CTS.
    let death = SimTime(1_000_000);
    let plan = || FaultPlan::new().kill_rank(1, death);
    let bytes = MpiCosts::default().eager_limit + 1;
    let r = both_ways(plan, bytes, None);
    assert_eq!(r.sent.0, Err(MpiFault::PeerLost { rank: 1 }));
    // The bounded wait gives up one backoff cap after the scripted death.
    assert_eq!(
        r.sent.1,
        death + RetryPolicy::default().backoff_cap,
        "PeerLost surfaces at the deadline"
    );
    assert!(r.received.is_none());
}
