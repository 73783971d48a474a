//! Partitionable group membership.
//!
//! This crate provides the *membership service* of the paper's §2: the
//! machinery that turns an unreliable, partitionable network into a sequence
//! of agreed **views** at every process. It deliberately implements the
//! *partitionable* (non-primary) model the paper argues for: concurrent
//! partitions each install their own views, and two consecutive views may
//! differ by an arbitrary number of members (unlike Isis, compare §5).
//!
//! Components, all sans-I/O state machines driven by `vs-gcs`:
//!
//! * [`View`] / [`ViewId`] — agreed membership snapshots with a total order
//!   per partition lineage and global uniqueness across partitions;
//! * [`FailureDetector`] — heartbeat-based, unreliable by design (it may
//!   falsely suspect slow processes; view synchrony's job is to make that
//!   harmless, turning suspicions into view changes);
//! * [`MembershipEstimator`] — turns failure-detector output into
//!   *view-change triggers* with a proposed membership: at once when the
//!   trusted set is complete, debounced otherwise;
//! * [`AgreementMachine`] — coordinator-based view agreement carrying opaque
//!   per-member flush payloads, the hook through which `vs-gcs` implements
//!   the view-synchrony flush (Property 2.1) and `vs-evs` transports subview
//!   structure (Property 6.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agreement;
mod detector;
mod estimator;
mod view;
mod wirefmt;

pub use agreement::{AgreementAction, AgreementConfig, AgreementMachine, AgreementMsg, ProposalId};
pub use detector::{DetectorConfig, FailureDetector};
pub use estimator::{EstimatorConfig, MembershipEstimator};
pub use view::{View, ViewId};
