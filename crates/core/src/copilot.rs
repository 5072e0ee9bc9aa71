//! The Co-Pilot process: CellPilot's key innovation.
//!
//! One extra MPI process runs on each Cell node ("since Cell blades have
//! two PPEs and each PPE has dual hardware threads, an added Co-Pilot
//! process utilizes a computing resource that might otherwise go idle") and
//! services every SPE-connected channel type:
//!
//! * **Type 2/3** (rank → SPE): the rank's MPI message arrives here; when
//!   the SPE posts its read request, the Co-Pilot translates the SPE's
//!   buffer address to a main-memory effective address and moves the data
//!   straight into the local store — "this technique does not need
//!   recourse to DMA transfers".
//! * **Type 2/3** (SPE → rank): the SPE's write request names its buffer;
//!   the Co-Pilot reads it through the mapping and makes the MPI send on
//!   the SPE's behalf — the SPE participates in MPI "as a first-class
//!   citizen" without linking any MPI code into the 256 KB local store.
//! * **Type 4** (SPE ↔ SPE, same node): both SPEs send their buffer
//!   addresses; whichever arrives first is stored, and when the second
//!   arrives the Co-Pilot `memcpy`s between the two mapped local stores
//!   and notifies both mailboxes. No MPI involved.
//! * **Type 5** (SPE ↔ remote SPE): the writer's Co-Pilot relays to the
//!   reader's Co-Pilot via MPI; each does its local-store leg.
//!
//! Structurally the Co-Pilot here is three kinds of simulated process: one
//! **mailbox watcher** per SPE (modelling the real Co-Pilot's polling of
//! the SPEs' outbound mailboxes), one **MPI pump** (its blocking
//! `MPI_Recv(ANY_SOURCE)`), and the **service loop** consuming both event
//! streams in arrival order. All of them, and the standby's watchdog and
//! failover timers, are [`Reactor`]s: the DES kernel steps them inline with
//! no thread of their own, and `cp-native` drives the same code on threads.
//! The watchers, the pump and the timers are small state machines. The
//! service loop and the standby are straight-line `async` bodies run by
//! [`cp_des::task`]: every `.await` is one yield (a charge, a mailbox write,
//! an MPI send step), and the loop owns the proxy tables between them.

use crate::location::Location;
use crate::protocol::{
    completion_err, completion_ok, completion_ok_inline, decode_bundle, decode_mcast,
    CompletionError, MalformedEnvelope, Request, CP_BUNDLE_TAG, CP_MCAST_TAG, CP_SHUTDOWN_TAG,
    OP_POLL, OP_READ, OP_WRITE, OP_WRITE_INLINE, POISON_WORD, REQ_BLOCK_BYTES,
};
use crate::runtime::AppShared;
use crate::tables::{CoEvent, CoState, NodeShared, PendingReq};
use crate::trace::TraceOp;
use cp_cellsim::{ls_ea, CellNode, MboxWrite};
use cp_des::{IncidentCategory, Poll, ProcCtx, Reactor, Reason, SimDuration, Step, TaskCtx};
use cp_mpisim::{Comm, Datatype, MpiWorld, Msg, RecvOp, SendOp};
use cp_simnet::{NodeId, HEARTBEAT_PERIOD, WATCHDOG_TIMEOUT};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The primary Co-Pilot of `node`, run as rank `rank` by
/// [`MpiWorld::launch_task`]: spawn the node's mailbox watchers, MPI pump
/// and (under a scripted kill) the failover timers, then serve.
pub(crate) async fn primary(
    world: MpiWorld,
    shared: Arc<AppShared>,
    node: NodeId,
    comm: Comm,
    t: TaskCtx,
) {
    let ns = shared.node_shared[&node].clone();
    let ctx = t.ctx();
    for hw in 0..ns.cell.spe_count() {
        ctx.spawn_reactor(
            &format!("copilot{}-watch-spe{hw}", ns.cell.id),
            Watcher {
                ns: ns.clone(),
                hw,
                state: Watch::Read,
            },
        );
    }
    spawn_pump(ctx, &world, comm.rank(), ns.clone());
    if let Some(kill_at) = shared.faults.copilot_kill_of(node) {
        // The node-local liveness signal: beat every period until the
        // scripted death silences it (or a clean shutdown stops the
        // pair). The watchdog in `standby` polls the same cell.
        let hb = ns.hb.clone();
        ctx.spawn_reactor(
            &format!("copilot{}-heartbeat", node.0),
            move |bctx: &ProcCtx| {
                if hb.is_stopped() || bctx.now() >= kill_at {
                    return Step::Exit;
                }
                hb.beat(bctx.now());
                Step::Advance(HEARTBEAT_PERIOD)
            },
        );
        // Deliver the death at exactly the scripted instant as a queue
        // event, so the primary retires at the kill time (events queued
        // later stay behind the marker for the standby to service).
        let ns = ns.clone();
        let mut armed = false;
        ctx.spawn_reactor(&format!("copilot{}-kill", node.0), move |kctx: &ProcCtx| {
            if !std::mem::replace(&mut armed, true) {
                return Step::Advance(SimDuration::from_nanos(kill_at.as_nanos()));
            }
            ns.note_queue_push(kctx);
            ns.queue.push(kctx, CoEvent::Die, SimDuration::ZERO);
            Step::Exit
        });
    }
    let st = ns
        .co_state
        .lock()
        .take()
        .expect("a node's proxy tables are free at start");
    Service::adopt(t, comm, shared, ns, st, false).run().await;
}

/// The standby Co-Pilot of a node whose primary has a scripted kill: watch
/// the heartbeat, and on expiry adopt the node — reroute the Co-Pilot
/// rank, take over the dead primary's mailbox, and resume servicing the
/// proxy tables and event queue the primary handed back. Type-4/5 traffic
/// continues with no application-visible loss.
///
/// A primary still busy past its kill (inside a scripted stall longer than
/// the watchdog timeout, say) hands the tables back only when its service
/// loop reaches the kill marker; the standby blocks until then (or stands
/// down, if the primary shuts down cleanly first), so two service loops
/// never serve the node at once.
pub(crate) async fn standby(
    world: MpiWorld,
    shared: Arc<AppShared>,
    node: NodeId,
    comm: Comm,
    t: TaskCtx,
) {
    let ns = shared.node_shared[&node].clone();
    let hb = ns.hb.clone();
    loop {
        if hb.is_stopped() {
            // Clean shutdown before the kill fired: no failover needed.
            return;
        }
        if hb.expired(t.ctx().now(), WATCHDOG_TIMEOUT) {
            break;
        }
        t.advance(HEARTBEAT_PERIOD).await;
    }
    let ctx = t.ctx();
    let rank = comm.rank();
    ctx.report_incident(
        IncidentCategory::CopilotFailover,
        &format!(
            "standby Co-Pilot (rank {rank}) adopting node {}: primary silent since {}",
            node.0,
            hb.last_beat()
        ),
    );
    let st = loop {
        if let Some(st) = ns.co_state.lock().take() {
            break st;
        }
        if hb.is_stopped() {
            // The primary shut down cleanly instead of reaching its kill.
            return;
        }
        *ns.handover_waiter.lock() = Some(ctx.pid());
        t.step(Step::Block(Reason::new(
            "the primary Co-Pilot's proxy tables",
        )))
        .await;
    };
    let primary = shared.tables.copilot_ranks[&node];
    shared.copilot_route.lock().insert(node, rank);
    // Window ownership migrates with the node: one-sided writers that
    // consult the table from here on see the standby as the servicing
    // rank, and landed-but-undelivered puts stay queued for it.
    shared.fabric.take_over_node(node.0, rank);
    world.take_over_rank(ctx, primary, rank);
    spawn_pump(ctx, &world, rank, ns.clone());
    Service::adopt(t, comm, shared, ns, st, true).run().await;
}

/// Spawn the Co-Pilot's MPI pump (its blocking `MPI_Recv(ANY_SOURCE)`),
/// feeding the node's shared event queue. A takeover retires the rank's
/// mailbox mid-recv; the pump then exits — the standby's own pump owns
/// the wire from then on.
fn spawn_pump(ctx: &ProcCtx, world: &MpiWorld, rank: usize, ns: Arc<NodeShared>) {
    let node = ns.cell.id;
    ctx.spawn_reactor(
        &format!("copilot{node}-pump-r{rank}"),
        Pump {
            world: world.clone(),
            rank,
            ns,
            comm: None,
            recv: RecvOp::new(None, None),
        },
    );
}

/// The MPI pump: receives every message addressed to the Co-Pilot's rank
/// and queues it for the service loop, until the shutdown message.
struct Pump {
    world: MpiWorld,
    rank: usize,
    ns: Arc<NodeShared>,
    /// Attached on the first step, once the pump's context exists.
    comm: Option<Comm>,
    recv: RecvOp,
}

impl Reactor for Pump {
    fn step(&mut self, ctx: &ProcCtx) -> Step {
        let comm = self
            .comm
            .get_or_insert_with(|| self.world.attach(ctx, self.rank));
        loop {
            let m = match comm.poll_recv(&mut self.recv) {
                Poll::Ready(m) => m,
                Poll::Pending(step) => return step,
            };
            self.ns.note_queue_push(ctx);
            if m.tag == CP_SHUTDOWN_TAG {
                self.ns
                    .queue
                    .push(ctx, CoEvent::Shutdown, SimDuration::ZERO);
                return Step::Exit;
            }
            self.ns.queue.push(ctx, CoEvent::Mpi(m), SimDuration::ZERO);
        }
    }
}

/// One SPE's mailbox watcher: reads each request word from the SPE's
/// outbound mailbox, fetches the request block (and an inline payload)
/// through the problem-state mapping, and queues the request for the
/// service loop. The poison word ends it.
struct Watcher {
    ns: Arc<NodeShared>,
    hw: usize,
    state: Watch,
}

enum Watch {
    /// Waiting for the SPE's next request word.
    Read,
    /// A word arrived and its MMIO read is charged.
    Word(u32),
    /// The request block was fetched and its copy is charged.
    Block { word: u32, req: Request },
    /// The inline payload was fetched and its copy is charged.
    Inline { req: Request, payload: Vec<u8> },
}

impl Watcher {
    fn post(&self, ctx: &ProcCtx, req: Request, inline: Option<Vec<u8>>) {
        self.ns.note_queue_push(ctx);
        let hw = self.hw;
        self.ns
            .queue
            .push(ctx, CoEvent::Request { hw, req, inline }, SimDuration::ZERO);
    }
}

impl Reactor for Watcher {
    fn step(&mut self, ctx: &ProcCtx) -> Step {
        let cell = &self.ns.cell;
        let hw = self.hw;
        let copy = |bytes: usize| SimDuration::from_micros_f64(cell.costs.memcpy_us(bytes, 1));
        loop {
            match std::mem::replace(&mut self.state, Watch::Read) {
                Watch::Read => match cell.spes[hw].mbox.poll_ppe_read_outbox(ctx) {
                    Poll::Ready(word) => {
                        self.state = Watch::Word(word);
                        return Step::Advance(SimDuration::from_micros_f64(
                            cell.costs.ppe_mmio_op_us,
                        ));
                    }
                    Poll::Pending(step) => return step,
                },
                Watch::Word(POISON_WORD) => return Step::Exit,
                Watch::Word(word) => {
                    // Fetch the 16-byte request block through the
                    // problem-state mapping (an uncached read, charged
                    // accordingly).
                    let block = cell
                        .ea_read(ls_ea(hw, word as usize), REQ_BLOCK_BYTES)
                        .expect("request block within local store");
                    let req = Request::decode(&block);
                    self.state = Watch::Block { word, req };
                    return Step::Advance(copy(REQ_BLOCK_BYTES));
                }
                // An eager inline write stages its payload immediately after
                // the header: fetch it in the same mapped read (the block is
                // contiguous in the local store), charging only the extra
                // bytes — no second MMIO exchange.
                Watch::Block { word, req } if req.op == OP_WRITE_INLINE => {
                    let payload = cell
                        .ea_read(ls_ea(hw, word as usize + REQ_BLOCK_BYTES), req.len as usize)
                        .expect("inline payload within local store");
                    self.state = Watch::Inline { req, payload };
                    return Step::Advance(copy(req.len as usize));
                }
                Watch::Block { req, .. } => self.post(ctx, req, None),
                Watch::Inline { req, payload } => self.post(ctx, req, Some(payload)),
            }
        }
    }
}

/// One incarnation of a node's Co-Pilot service loop (the primary's, or
/// the standby's after a failover). It owns the node's proxy tables while
/// it runs and consumes the event queue in arrival order.
struct Service {
    t: TaskCtx,
    comm: Comm,
    shared: Arc<AppShared>,
    ns: Arc<NodeShared>,
    st: CoState,
    standby: bool,
}

impl Service {
    /// Serve the node with its proxy tables `st`: fresh at start, or as a
    /// retired primary handed them back.
    fn adopt(
        t: TaskCtx,
        comm: Comm,
        shared: Arc<AppShared>,
        ns: Arc<NodeShared>,
        st: CoState,
        standby: bool,
    ) -> Service {
        Service {
            t,
            comm,
            shared,
            ns,
            st,
            standby,
        }
    }

    fn ctx(&self) -> &ProcCtx {
        self.t.ctx()
    }

    fn cell(&self) -> &Arc<CellNode> {
        &self.ns.cell
    }

    async fn run(mut self) {
        // A scripted Co-Pilot stall freezes the service loop once, at the
        // first event serviced at or after its scheduled time: requests and
        // MPI deliveries keep queueing, but nothing is serviced for the
        // duration.
        let stall = self.shared.faults.stall_of(NodeId(self.cell().id));
        loop {
            let event = self.t.poll(|| self.ns.queue.poll_pop(self.ctx())).await;
            self.ns.note_queue_pop(self.ctx());
            if let Some(s) = stall {
                if !self.st.stall_done && self.ctx().now() >= s.at {
                    self.st.stall_done = true;
                    self.ctx().report_incident(
                        IncidentCategory::CopilotStall,
                        &format!(
                            "Co-Pilot on node {} unresponsive for {} (scheduled at {})",
                            self.cell().id,
                            s.duration,
                            s.at
                        ),
                    );
                    self.t.advance(s.duration).await;
                }
            }
            match event {
                CoEvent::Die => {
                    // A Die marker reaching the standby is stale — the
                    // primary it was aimed at is already gone; the standby
                    // serves on.
                    if self.standby {
                        continue;
                    }
                    self.ctx().report_incident(
                        IncidentCategory::CopilotDeath,
                        &format!(
                            "Co-Pilot on node {} killed by fault plan at {}",
                            self.cell().id,
                            self.ctx().now()
                        ),
                    );
                    self.ns.release_standby(self.ctx());
                    *self.ns.co_state.lock() = Some(self.st);
                    return;
                }
                CoEvent::Shutdown => return self.shutdown().await,
                CoEvent::Mpi(msg) => self.on_mpi(msg).await,
                CoEvent::Request { hw, req, inline } => {
                    let chan = self.checked_chan(i64::from(req.chan), || {
                        format!("a request block from SPE {hw}")
                    });
                    self.on_request(hw, req, chan, inline).await;
                }
            }
        }
    }

    /// Unblock the mailbox watchers so their processes exit, and retire
    /// the heartbeat pair so a standby stands down.
    async fn shutdown(&self) {
        let cell = self.cell();
        for spe in &cell.spes {
            let mut op = MboxWrite::spu_outbox(&cell.costs, POISON_WORD);
            self.t
                .poll(|| spe.mbox.poll_write(self.ctx(), &mut op))
                .await;
        }
        self.ns.hb.stop();
        self.ns.release_standby(self.ctx());
        // The shutdown *wire message* may have been consumed by a previous
        // incarnation's pump (the primary pumps it, dies to the kill
        // marker, and the standby services the queued event) — leaving
        // this incarnation's own pump parked in recv forever. Echo the
        // shutdown to our own rank so whichever pump still listens drains
        // and exits; if none does, the envelope sits unread and the run
        // ends anyway.
        self.send(self.comm.rank(), CP_SHUTDOWN_TAG, Vec::new())
            .await;
    }

    /// The channel a request or wire message names, checked against the
    /// tables: an index out of range aborts the run naming the node, the
    /// source and the channel, instead of panicking the Co-Pilot or
    /// parking the data forever.
    fn checked_chan(&self, chan: i64, source: impl FnOnce() -> String) -> usize {
        let n = self.shared.tables.channels.len();
        match usize::try_from(chan) {
            Ok(c) if c < n => c,
            _ => self.ctx().abort(&format!(
                "Co-Pilot on node {}: invalid channel {chan} in {} ({n} channels exist)",
                self.cell().id,
                source()
            )),
        }
    }

    /// Abort the run on a wire envelope that does not decode, naming the
    /// node and the envelope instead of panicking the Co-Pilot.
    fn malformed(&self, msg: &Msg, err: MalformedEnvelope) -> ! {
        self.ctx().abort(&format!(
            "Co-Pilot on node {}: {err} (tag {} from rank {}, {} bytes)",
            self.cell().id,
            msg.tag,
            msg.src,
            msg.data.len()
        ))
    }

    /// Channel data from a rank or a remote Co-Pilot: one message, a
    /// multicast envelope or a coalesced bundle. Every entry is checked
    /// before any is delivered or parked.
    async fn on_mpi(&mut self, msg: Msg) {
        let src = msg.src;
        match msg.tag {
            // Hierarchical broadcast: one wire message, local fan-out.
            CP_MCAST_TAG => {
                let (chans, data) =
                    decode_mcast(&msg.data).unwrap_or_else(|e| self.malformed(&msg, e));
                let chans: Vec<usize> = chans
                    .into_iter()
                    .map(|c| {
                        self.checked_chan(i64::from(c), || {
                            format!("a multicast entry from rank {src}")
                        })
                    })
                    .collect();
                for chan in chans {
                    self.deliver_or_park(chan, src, data.clone()).await;
                }
            }
            // Coalesced bundle envelope: one wire message carrying several
            // small writes, each with its own payload, delivered or parked
            // exactly as if each had arrived as its own message.
            CP_BUNDLE_TAG => {
                let entries: Vec<(usize, Vec<u8>)> = decode_bundle(&msg.data)
                    .unwrap_or_else(|e| self.malformed(&msg, e))
                    .into_iter()
                    .map(|(c, data)| {
                        let why = || format!("a bundle entry from rank {src}");
                        (self.checked_chan(i64::from(c), why), data)
                    })
                    .collect();
                for (chan, data) in entries {
                    self.deliver_or_park(chan, src, data).await;
                }
            }
            tag => {
                let chan =
                    self.checked_chan(i64::from(tag), || format!("a message from rank {src}"));
                self.deliver_or_park(chan, src, msg.data).await;
            }
        }
    }

    /// Deliver data for `chan` to its waiting SPE reader, or park it until
    /// the reader asks.
    async fn deliver_or_park(&mut self, chan: usize, src: usize, data: Vec<u8>) {
        if let Some(rr) = pop_front(&mut self.st.pending_reads, chan) {
            return self.deliver(chan, &data, rr).await;
        }
        self.st.pending_mpi.entry(chan).or_default().push_back(Msg {
            src,
            tag: chan as i32,
            dtype: Datatype::Byte,
            count: data.len(),
            data,
        });
    }

    async fn on_request(&mut self, hw: usize, req: Request, chan: usize, inline: Option<Vec<u8>>) {
        let costs = &self.shared.costs;
        match (req.op, inline) {
            (OP_WRITE_INLINE, Some(data)) => {
                // Eager inline write: the payload arrived with the request,
                // so the fast dispatch path applies — no buffer-address
                // translation, no pending-transfer bookkeeping, no DMA
                // reply setup.
                self.charge(costs.copilot_eager_dispatch_us).await;
                self.report(cp_pilot::EV_WRITE, chan).await;
                let n = data.len();
                match reader_side(&self.shared, chan, self.cell().id) {
                    ReaderSide::LocalSpe => {
                        // Buffered send: the writer completes immediately
                        // (its payload is already in Co-Pilot hands); the
                        // data waits for the reader like an MPI-borne
                        // message would, preserving FIFO order against any
                        // rendezvous write the same (now unblocked) writer
                        // issues later.
                        self.complete(hw, completion_ok(n)).await;
                        self.trace(TraceOp::CopilotWrite, chan, n);
                        self.deliver_or_park(chan, self.comm.rank(), data).await;
                    }
                    ReaderSide::Mpi(dest_rank) => {
                        // The payload is in hand: buffered send here too —
                        // the writer's completion does not wait for the MPI
                        // call made on its behalf.
                        self.complete(hw, completion_ok(n)).await;
                        self.send(dest_rank, chan as i32, data).await;
                        self.trace(TraceOp::CopilotWrite, chan, n);
                        self.hop(chan, "forward");
                    }
                }
            }
            (OP_WRITE, _) => {
                self.charge(costs.copilot_dispatch_us).await;
                // Proxy report on behalf of the writing SPE (which cannot
                // reach the deadlock service itself).
                self.report(cp_pilot::EV_WRITE, chan).await;
                let wreq = PendingReq {
                    hw,
                    addr: req.addr,
                    len: req.len,
                };
                match reader_side(&self.shared, chan, self.cell().id) {
                    ReaderSide::LocalSpe => {
                        if let Some(rr) = pop_front(&mut self.st.pending_reads, chan) {
                            self.pair_type4(chan, wreq, rr).await;
                        } else {
                            self.st
                                .pending_writes
                                .entry(chan)
                                .or_default()
                                .push_back(wreq);
                        }
                    }
                    ReaderSide::Mpi(dest_rank) => {
                        // Read the SPE's buffer through the mapping and make
                        // the MPI call on its behalf.
                        let cell = self.cell();
                        self.charge(cell.costs.ea_translate_us).await;
                        let data = cell
                            .ea_read(ls_ea(hw, req.addr as usize), req.len as usize)
                            .expect("write buffer within local store");
                        self.charge(cell.costs.memcpy_us(data.len(), 1)).await;
                        let n = data.len();
                        self.send(dest_rank, chan as i32, data).await;
                        self.complete(hw, completion_ok(n)).await;
                        self.trace(TraceOp::CopilotWrite, chan, n);
                        self.hop(chan, "forward");
                    }
                }
            }
            (OP_POLL, _) => {
                self.charge(costs.copilot_dispatch_us).await;
                let st = &self.st;
                let has_mpi = st.pending_mpi.get(&chan).is_some_and(|q| !q.is_empty());
                let has = match writer_side(&self.shared, chan, self.cell().id) {
                    // A local SPE writer may have data parked either as a
                    // rendezvous request or as a buffered eager payload.
                    WriterSide::LocalSpe => {
                        has_mpi || st.pending_writes.get(&chan).is_some_and(|q| !q.is_empty())
                    }
                    WriterSide::Mpi => has_mpi,
                };
                self.complete(hw, completion_ok(usize::from(has))).await;
            }
            (op, _) => {
                debug_assert_eq!(op, OP_READ);
                self.on_read(hw, req, chan).await;
            }
        }
    }

    async fn on_read(&mut self, hw: usize, req: Request, chan: usize) {
        // Fast dispatch applies to every read posted on an eager channel:
        // whether the read is satisfied on the spot or parked, the Co-Pilot
        // only files the reply-mailbox slot — no buffer-address translation
        // and no transfer bookkeeping up front. The DMA-path costs are
        // charged at delivery time instead (`deliver_dma` / `pair_type4`),
        // and only when the payload exceeds the inline budget. Non-eager
        // channels keep the exact schedule they had before eager inlining
        // existed.
        let costs = &self.shared.costs;
        let fast = self.shared.tables.channels[chan].eager_limit() > 0;
        self.charge(if fast {
            costs.copilot_eager_dispatch_us
        } else {
            costs.copilot_dispatch_us
        })
        .await;
        // Proxy report on behalf of the reading SPE. Reported on *every*
        // read — even one satisfied from a pending queue — so write credits
        // and read waits stay paired 1:1 in the detector; a satisfying
        // EV_WRITE always clears the edge.
        self.report(cp_pilot::EV_READWAIT, chan).await;
        let rr = PendingReq {
            hw,
            addr: req.addr,
            len: req.len,
        };
        // Buffered eager payloads park in `pending_mpi` and always predate
        // any parked rendezvous write (the writer blocks on a rendezvous
        // write until it is paired), so draining them first preserves FIFO.
        if let Some(msg) = pop_front(&mut self.st.pending_mpi, chan) {
            self.deliver(chan, &msg.data, rr).await;
            return;
        }
        if let WriterSide::LocalSpe = writer_side(&self.shared, chan, self.cell().id) {
            if let Some(w) = pop_front(&mut self.st.pending_writes, chan) {
                self.pair_type4(chan, w, rr).await;
                return;
            }
        }
        if self.writer_dead(chan) {
            self.complete(hw, completion_err(CompletionError::PeerLost))
                .await;
        } else {
            self.st.pending_reads.entry(chan).or_default().push_back(rr);
        }
    }

    /// Whether the channel's writer process is already gone: an SPE
    /// permanently lost (crashed unsupervised, or supervised past its
    /// restart budget — a supervised SPE being restarted is *not* gone),
    /// or a rank whose scripted death has fired. Used to fail a data-less
    /// SPE read with `PeerLost` instead of parking it forever. (A message
    /// the writer sent before dying that is still in flight counts as "no
    /// data yet" — fail-fast semantics.)
    fn writer_dead(&self, chan: usize) -> bool {
        let shared = &self.shared;
        let from = shared.tables.channels[chan].from;
        let now = self.ctx().now();
        let gone = match shared.tables.processes[from.0].location {
            Location::Rank { rank, .. } => shared.faults.death_of(rank).is_some_and(|at| now >= at),
            Location::Spe { .. } => shared.spe_gone(from.0, now),
        };
        if gone {
            self.ctx().report_incident(
                IncidentCategory::PeerLost,
                &format!(
                    "Co-Pilot on node {} failing read on channel {chan}: writer '{}' is lost",
                    self.cell().id,
                    shared.tables.processes[from.0].name
                ),
            );
        }
        gone
    }

    /// Spend `us` of Co-Pilot time.
    async fn charge(&self, us: f64) {
        self.t.advance(SimDuration::from_micros_f64(us)).await;
    }

    /// Make the MPI send of `data` to `dst` on an SPE's (or the Co-Pilot's
    /// own) behalf; an unrecoverable fault aborts the run.
    async fn send(&self, dst: usize, tag: i32, data: Vec<u8>) {
        let mut op = SendOp::new(dst, tag, Datatype::Byte, data.len(), data);
        if let Err(fault) = self.t.poll(|| self.comm.poll_send(&mut op)).await {
            self.comm.abort_send(dst, fault);
        }
    }

    /// Proxy-report a deadlock-detector event on `chan`, if the service is
    /// enabled.
    async fn report(&self, kind: u8, chan: usize) {
        let tables = &self.shared.tables;
        if let Some(det) = tables.detector_rank {
            let ev = crate::dlsvc::chan_event(tables, kind, chan);
            self.send(det, cp_pilot::TAG_SVC, cp_pilot::encode_event(&ev))
                .await;
        }
    }

    /// Write a completion word into SPE `hw`'s inbound mailbox.
    async fn complete(&self, hw: usize, word: u32) {
        self.mbox_write(hw, MboxWrite::ppe_inbox(&self.cell().costs, word))
            .await;
    }

    async fn mbox_write(&self, hw: usize, mut op: MboxWrite) {
        let mbox = &self.cell().spes[hw].mbox;
        self.t.poll(|| mbox.poll_write(self.ctx(), &mut op)).await;
    }

    /// Record a Co-Pilot event in the trace log, naming the lane only when
    /// the log is on.
    fn trace(&self, op: TraceOp, chan: usize, bytes: usize) {
        let trace = &self.shared.trace;
        if trace.is_enabled() {
            let lane = format!("copilot{}", self.cell().id);
            trace.record(self.ctx().now(), &lane, op, chan, bytes);
        }
    }

    /// Count one Co-Pilot proxy hop on `chan` and mark it on the
    /// Co-Pilot's Chrome-trace lane. A type-5 message records two hops —
    /// the writer-side MPI forward plus the reader-side delivery — while a
    /// purely local type-4 pairing records none.
    fn hop(&self, chan: usize, what: &str) {
        let recorder = &self.shared.recorder;
        if !recorder.is_enabled() {
            return;
        }
        let ty = self.shared.tables.channels[chan].kind.type_number();
        recorder.record_proxy_hop(ty);
        let lane = recorder.lane(&format!("copilot{}", self.cell().id));
        recorder.instant(
            lane,
            "copilot",
            &format!("{what} c{chan} (type {ty})"),
            self.ctx().now().0,
            None,
        );
    }

    /// Deliver channel data to a waiting SPE reader, picking the eager
    /// inline path when the channel and payload qualify. This is the
    /// channel's final drain point (rank→SPE types 2/3, the reader-side leg
    /// of a type 5, mcast fan-out, buffered eager writes): the message
    /// leaves the pipeline here whether it fits the buffer or not, so its
    /// flow-control send credit returns either way.
    async fn deliver(&self, chan: usize, data: &[u8], rr: PendingReq) {
        self.shared.release_credit(chan);
        let limit = self.shared.tables.channels[chan].eager_limit();
        if limit > 0 && data.len() <= limit {
            self.deliver_inline(chan, data, rr).await;
        } else {
            self.deliver_dma(chan, data, rr).await;
        }
    }

    /// Eager inline delivery: the payload rides the completion word itself
    /// (a store-gather burst into the reader's inbound mailbox), skipping
    /// the buffer-address translation and the mapped store of the DMA path.
    async fn deliver_inline(&self, chan: usize, data: &[u8], rr: PendingReq) {
        if data.len() > rr.len as usize {
            return self
                .complete(rr.hw, completion_err(CompletionError::Overflow))
                .await;
        }
        let word = completion_ok_inline(data.len());
        let op = MboxWrite::ppe_inbox_inline(&self.cell().costs, word, data.to_vec());
        self.mbox_write(rr.hw, op).await;
        self.trace(TraceOp::CopilotDeliver, chan, data.len());
        self.hop(chan, "deliver");
    }

    /// Deliver MPI-borne channel data into a waiting SPE's buffer:
    /// translate, store through the mapping, notify.
    async fn deliver_dma(&self, chan: usize, data: &[u8], rr: PendingReq) {
        let cell = self.cell();
        self.charge(cell.costs.ea_translate_us).await;
        if data.len() > rr.len as usize {
            return self
                .complete(rr.hw, completion_err(CompletionError::Overflow))
                .await;
        }
        cell.ea_write(ls_ea(rr.hw, rr.addr as usize), data)
            .expect("read buffer within local store");
        self.charge(cell.costs.memcpy_us(data.len(), 1)).await;
        self.complete(rr.hw, completion_ok(data.len())).await;
        self.trace(TraceOp::CopilotDeliver, chan, data.len());
        self.hop(chan, "deliver");
    }

    /// Type-4 pairing: both buffer addresses are in hand; `memcpy` between
    /// the two mapped local stores and notify both SPEs. The pairing
    /// charge models the paper's poll-until-second-request behaviour.
    async fn pair_type4(&self, chan: usize, w: PendingReq, r: PendingReq) {
        // The pairing drains the write whatever its outcome — return its
        // flow-control send credit.
        self.shared.release_credit(chan);
        let cell = self.cell();
        self.charge(self.shared.costs.copilot_pair_poll_us).await;
        self.charge(2.0 * cell.costs.ea_translate_us).await;
        if w.len > r.len {
            self.complete(w.hw, completion_err(CompletionError::Overflow))
                .await;
            self.complete(r.hw, completion_err(CompletionError::Overflow))
                .await;
            return;
        }
        let copy = cell
            .ppe_copy(
                self.ctx(),
                ls_ea(r.hw, r.addr as usize),
                ls_ea(w.hw, w.addr as usize),
                w.len as usize,
            )
            .expect("type-4 buffers within local stores");
        self.t.advance(copy).await;
        self.complete(w.hw, completion_ok(w.len as usize)).await;
        self.complete(r.hw, completion_ok(w.len as usize)).await;
        self.trace(TraceOp::CopilotPair, chan, w.len as usize);
    }
}

fn pop_front<T>(map: &mut HashMap<usize, VecDeque<T>>, chan: usize) -> Option<T> {
    map.get_mut(&chan).and_then(|q| q.pop_front())
}

enum ReaderSide {
    /// Reader is an SPE on this node (type 4).
    LocalSpe,
    /// Reader is reachable via MPI: a rank (types 2/3) or a remote
    /// Co-Pilot (type 5).
    Mpi(usize),
}

enum WriterSide {
    LocalSpe,
    Mpi,
}

fn reader_side(shared: &AppShared, chan: usize, my_node: usize) -> ReaderSide {
    let entry = &shared.tables.channels[chan];
    match shared.tables.processes[entry.to.0].location {
        Location::Rank { rank, .. } => ReaderSide::Mpi(rank),
        Location::Spe { node, .. } => {
            if node.0 == my_node {
                ReaderSide::LocalSpe
            } else {
                // Consult the live route: after a failover the reader's
                // node is served by its standby's rank.
                ReaderSide::Mpi(shared.copilot_rank(node))
            }
        }
    }
}

fn writer_side(shared: &AppShared, chan: usize, my_node: usize) -> WriterSide {
    let entry = &shared.tables.channels[chan];
    match shared.tables.processes[entry.from.0].location {
        Location::Spe { node, .. } if node.0 == my_node => WriterSide::LocalSpe,
        _ => WriterSide::Mpi,
    }
}

#[cfg(test)]
mod tests {
    use crate::protocol::{encode_bundle, encode_mcast, Request, OP_READ};
    use crate::{CellPilotConfig, CellPilotOpts, SpeProgram, CP_MAIN};
    use cp_des::SimError;
    use cp_mpisim::Datatype;
    use cp_simnet::{ClusterSpec, NodeId};

    /// A configuration with one SPE on node 0 and its two channels.
    fn two_channel_cfg(prog: &SpeProgram) -> CellPilotConfig {
        let spec = ClusterSpec::two_cells_one_xeon();
        let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new());
        let s = cfg.create_spe_process(prog, CP_MAIN, 0).unwrap();
        cfg.channel(CP_MAIN, s).build().unwrap();
        cfg.channel(s, CP_MAIN).build().unwrap();
        cfg
    }

    fn aborted(result: Result<cp_des::SimReport, SimError>) -> String {
        match result {
            Err(SimError::Aborted { name, message, .. }) => {
                assert_eq!(name, "copilot0", "{message}");
                message
            }
            other => panic!("expected the Co-Pilot to abort, got {other:?}"),
        }
    }

    #[test]
    fn request_block_naming_a_missing_channel_aborts_with_its_source() {
        let prog = SpeProgram::new("rogue", 2048, |spe, _, _| {
            let _ = spe.transact(Request {
                op: OP_READ,
                chan: 99,
                addr: 0,
                len: 4,
            });
            unreachable!("the run aborts first");
        });
        let cfg = two_channel_cfg(&prog);
        let message = aborted(cfg.run(|cp| cp.run_and_wait_my_spes()));
        assert_eq!(
            message,
            "Co-Pilot on node 0: invalid channel 99 in a request block from SPE 0 \
             (2 channels exist)"
        );
    }

    #[test]
    fn wire_message_naming_a_missing_channel_aborts_with_its_source() {
        let idle = SpeProgram::new("idle", 2048, |_, _, _| {});
        let cases: [(i32, Vec<u8>, &str); 3] = [
            (7, vec![1], "invalid channel 7 in a message from rank 0"),
            (
                crate::protocol::CP_BUNDLE_TAG,
                encode_bundle(&[(1, vec![1]), (40, vec![2])]),
                "invalid channel 40 in a bundle entry from rank 0",
            ),
            (
                crate::protocol::CP_MCAST_TAG,
                encode_mcast(&[0, 1_000_000], &[3]),
                "invalid channel 1000000 in a multicast entry from rank 0",
            ),
        ];
        for (tag, data, want) in cases {
            let cfg = two_channel_cfg(&idle);
            let message = aborted(cfg.run(move |cp| {
                let copilot = cp.shared.copilot_rank(NodeId(0));
                let n = data.len();
                cp.comm.send_bytes(copilot, tag, Datatype::Byte, n, data);
            }));
            assert_eq!(
                message,
                format!("Co-Pilot on node 0: {want} (2 channels exist)"),
                "tag {tag}"
            );
        }
    }
}
