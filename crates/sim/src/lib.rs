//! # ac3-sim
//!
//! The discrete-event simulation world for the AC3WN reproduction: multiple
//! simulated blockchains with independent block intervals and throughput
//! caps, participants with crash schedules, network-partition and fork
//! injection, and the metrics (timelines, fee ledgers, latency statistics)
//! the evaluation harness reads.
//!
//! The protocol drivers in `ac3-core` are written against this crate: they
//! create a [`world::World`], register [`participant::Participant`]s, then
//! poll their machines through [`World`]'s [`api::ChainApi`] impl — the only
//! one that does any work — and advance simulated time between polls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod audit;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod participant;
pub mod world;

pub use api::{ChainApi, DirectApi, NetworkedApi};
pub use audit::AuditScope;
pub use faults::{Fault, OutageWindow};
pub use metrics::{
    EventKind, FeeKind, FeeLedger, LatencyStats, SwapId, Timeline, TimelineEvent, TxBill,
};
pub use network::{LinkStats, NetworkProfile};
pub use participant::{CrashWindow, Participant, ParticipantSet};
pub use world::{ChainCongestion, World, WorldError};
