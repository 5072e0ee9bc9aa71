#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-cellsim — Cell Broadband Engine node simulator
//!
//! A behavioural + latency model of the Cell BE hardware that the CellPilot
//! paper targets: the 256 KB SPE local stores with their allocation and
//! alignment constraints, the MFC DMA engine with tag groups, PPE↔SPE
//! mailboxes and signal registers, SPE context loading, and the
//! problem-state mapping of local stores into the PPE's effective-address
//! space (the mechanism CellPilot's Co-Pilot exploits for direct transfers).
//!
//! Every operation charges calibrated virtual time via `cp-des`; the cost
//! constants ([`CellCosts`]) are anchored to the hand-coded baseline rows of
//! the paper's Table II (see that module's docs).
//!
//! ```
//! use cp_cellsim::{CellCosts, CellNode, DmaDir};
//! use cp_des::Simulation;
//!
//! let node = CellNode::new(0, 8, 1 << 20, CellCosts::default());
//! let mut sim = Simulation::new();
//! sim.spawn("ppe", move |ctx| {
//!     let buf = node.mem.alloc(128, 16).unwrap();
//!     node.mem.write(buf.0 as usize, &[42; 128]).unwrap();
//!     let node2 = node.clone();
//!     let pid = node.start_spe(ctx, 0, "reader", 4096, move |sctx| {
//!         let ls = node2.spes[0].ls.alloc(128, 16).unwrap();
//!         node2.dma(sctx, 0, DmaDir::Get, 0, ls, buf, 128).unwrap();
//!         node2.dma_wait(sctx, 0, 1 << 0);
//!         assert_eq!(node2.spes[0].ls.read(ls, 128).unwrap(), vec![42; 128]);
//!     }).unwrap();
//!     ctx.join(pid);
//! });
//! sim.run().unwrap();
//! ```

mod barrier;
mod costs;
mod localstore;
mod mailbox;
mod memory;
mod mfc;
mod node;
mod overlay;
mod signal;

pub use barrier::SpeSignalBarrier;
pub use costs::CellCosts;
pub use localstore::{LocalStore, LsAddr, LsError};
pub use mailbox::{Mailboxes, MboxWrite};
pub use memory::{
    ls_ea, resolve, Backing, Ea, MainMemory, MemError, LS_MAP_BASE, LS_MAP_STRIDE, LS_SIZE,
};
pub use mfc::{
    validate as validate_dma, DmaDir, DmaError, DmaListElem, TagState, MFC_LIST_MAX, MFC_MAX_DMA,
    MFC_TAGS,
};
pub use node::{CellNode, Spe, SpeRunError};
pub use overlay::{OverlayError, OverlayRegion, OverlaySegment};
pub use signal::{SignalMode, SignalReg};
