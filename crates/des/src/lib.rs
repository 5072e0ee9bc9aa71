#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the CellPilot reproduction: a virtual-time kernel in
//! which simulated processes (a PPE thread, an SPE program, an MPI rank, a
//! Co-Pilot service) run either on a stackful fiber of their own or, for
//! reactive helpers, as kernel-hosted [`Reactor`]s stepped inline by the
//! dispatching process. All of a simulation's fibers share one carrier OS
//! thread, so handing the CPU from one process to another is a stack
//! switch, not an OS thread switch. Execution is serialized in strict
//! `(virtual_time, sequence)` order, so every run is deterministic and
//! every latency is an explicit, modelled quantity. The stack switch
//! lives in `cp-fiber`, the workspace's only crate with `unsafe` code.
//!
//! Layers above this crate:
//!
//! * `cp-cellsim` — Cell BE node model (local stores, DMA, mailboxes) built
//!   from [`sync::MsgQueue`] and friends;
//! * `cp-simnet` / `cp-mpisim` — cluster fabric and MPI-like ranks;
//! * `cp-pilot` / `cellpilot` — the process/channel libraries under study.
//!
//! ## Quick example
//!
//! ```
//! use cp_des::{Simulation, SimDuration, sync::MsgQueue};
//!
//! let queue: MsgQueue<&'static str> = MsgQueue::new("wire", None);
//! let (tx, rx) = (queue.clone(), queue);
//!
//! let mut sim = Simulation::new();
//! sim.spawn("sender", move |ctx| {
//!     ctx.advance(SimDuration::from_micros(5));     // compute for 5 us
//!     tx.push(ctx, "hello", SimDuration::from_micros(98)); // 98 us wire
//! });
//! sim.spawn("receiver", move |ctx| {
//!     let msg = rx.pop(ctx);                         // resumes at t = 103 us
//!     assert_eq!(msg, "hello");
//!     assert_eq!(ctx.now().as_micros_f64(), 103.0);
//! });
//! sim.run().unwrap();
//! ```

mod backend;
mod error;
mod kernel;
mod reactor;
pub mod sync;
mod task;
mod time;

pub use backend::{Backend, Executor, ProcBody, Spawner};
pub use error::{sort_incidents, Incident, IncidentCategory, Pid, SimError, SimReport};
pub use kernel::{ProcCtx, Simulation};
pub use reactor::{drive, Poll, Reactor, Reason, Step};
pub use task::{task, Task, TaskCtx};
pub use time::{SimDuration, SimTime};
