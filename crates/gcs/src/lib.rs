//! View-synchronous group communication.
//!
//! This crate implements the *group communication service* the paper builds
//! on (§2): process groups, reliable multicast, and the integration of the
//! two with the membership service so that the three defining properties of
//! view synchrony hold:
//!
//! * **Property 2.1 (Agreement)** — all processes that survive from one view
//!   to the same next view deliver the same set of messages in the old view;
//! * **Property 2.2 (Uniqueness)** — a message is delivered in at most one
//!   view (the view it was multicast in);
//! * **Property 2.3 (Integrity)** — a message is delivered at most once per
//!   process, and only if some process actually multicast it.
//!
//! The paper deliberately imposes *no ordering* on deliveries within a view
//! ("there are no conditions imposed on the relative ordering of messages
//! delivered within a given view") — ordering "can only help in solving
//! shared state problems but cannot prevent them". The base service is
//! therefore unordered; optional FIFO, causal and total ordering layers are
//! provided in [`ordering`], and *uniform* delivery (Schiper & Sandoz, the
//! paper's ref \[10\]) is available via [`GcsConfig::uniform`] for
//! applications that want them.
//!
//! The central type is [`GcsEndpoint`], a [`vs_net::Actor`] that composes
//! the failure detector, membership estimator and view agreement from
//! `vs-membership` with the reliable-multicast and flush machinery defined
//! here. The endpoint exposes a small hook — a per-member *annotation*
//! carried through view agreement — through which `vs-evs` transports
//! subview structure without this crate knowing anything about it.
//!
//! [`checker`] validates Properties 2.1–2.3 over recorded runs; the test
//! suites of this crate and of the experiment harness lean on it heavily.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod endpoint;
mod events;
mod flush;
mod message;
pub mod ordering;
mod stability;
mod wirefmt;

pub use endpoint::{GcsConfig, GcsEndpoint, Piggyback, Wire};
pub use events::{GcsEvent, Provenance};
pub use flush::{flush_deliveries, FlushPayload};
pub use message::{MsgId, ViewMsg};
pub use stability::AckTracker;

pub use vs_membership::{View, ViewId};
