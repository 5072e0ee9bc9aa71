#![forbid(unsafe_code)]
//! Two-clock benchmark of the CellPilot simulator. Each workload runs
//! through the public `cellpilot` API on the simulator backend; the
//! binary times it on the host clock and reports both clocks.

pub mod bulk;
pub mod chaos;
pub mod common;
pub mod host;
pub mod layers;
pub mod service;
