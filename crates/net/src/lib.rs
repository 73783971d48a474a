//! Deterministic simulation of an asynchronous, partitionable distributed system.
//!
//! This crate is the *system model* substrate of the reproduction of
//! "On Programming with View Synchrony" (Babaoğlu, Bartoli, Dini — ICDCS 1996).
//! Section 2 of the paper assumes:
//!
//! * a collection of processes at potentially remote **sites** communicating
//!   through a network;
//! * **crash** failures of both processes and communication links, including
//!   network **partitions** and subsequent **merges**;
//! * process **recovery** modeled by assigning the recovered process a *new
//!   identifier* drawn from an infinite name space;
//! * full **asynchrony**: no bounds on communication delays or relative
//!   process speeds.
//!
//! [`Sim`] implements exactly this model as a deterministic discrete-event
//! simulation: message delays are sampled from a seeded random number
//! generator, faults are injected at simulated instants (interactively or via
//! a [`FaultScript`]), and every run with the same seed and script is
//! bit-for-bit reproducible. Determinism is what lets the upper layers
//! validate the paper's safety properties (2.1–2.3, 6.1–6.3) across thousands
//! of adversarial schedules.
//!
//! Protocol code plugs in through the [`Actor`] trait: a pure, I/O-free state
//! machine receiving messages and timer expirations through a [`Context`]
//! that collects its outgoing actions. The same actors can also be driven by
//! the live host in [`live`] — over threads and channels alone
//! ([`threaded`]) or with a TCP uplink ([`socket`]) — which demonstrates
//! that nothing in the stack depends on simulation.
//!
//! # Quick example
//!
//! ```
//! use vs_net::{Actor, Context, ProcessId, Sim, SimConfig, SimDuration};
//!
//! /// Echoes every message back to its sender.
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut Context<'_, u32, u32>) {
//!         ctx.output(msg);
//!         if msg < 3 {
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42, SimConfig::default());
//! let a = sim.spawn(Echo);
//! let b = sim.spawn(Echo);
//! sim.post(a, b, 0); // inject a message from the outside world
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.outputs().len(), 4); // 0,1,2,3 bounced between a and b
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod fault;
mod id;
mod link;
pub mod live;
mod oracle;
mod rng;
pub mod schedule;
mod sim;
pub mod socket;
mod stats;
mod storage;
pub mod threaded;
mod time;
mod topology;
pub mod wire;

pub use actor::{Actor, Context, TimerId, TimerKind};
pub use fault::{FaultOp, FaultScript, ScriptParseError};
pub use id::{ProcessId, SiteId};
pub use link::{DelayModel, LinkConfig};
pub use oracle::{LinkOutcome, PopCandidate, ScheduleOracle};
pub use rng::DetRng;
pub use schedule::{
    Decision, Divergence, LogCodecError, PopKind, RecordUnsupported, ReplayError, ScheduleLog,
};
pub use sim::{Sim, SimConfig};
pub use stats::NetStats;
pub use storage::Storage;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
pub use wire::{WireCodec, WireDecodeError, WireReader};
