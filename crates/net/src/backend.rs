//! Backend abstraction: one driver interface over the simulator and the
//! two live transports.
//!
//! Every experiment binary and observability helper wants the same small
//! verb set — spawn actors, inject messages, partition/heal/crash, run
//! for a while, collect outputs — regardless of whether time is virtual
//! ([`Sim`]) or real: the live host ([`LiveNet`]) over threads and
//! channels alone ([`ThreadedNet`]) or with real sockets ([`SocketNet`]).
//! [`NetBackend`] is that verb set, and [`BackendKind`] is the
//! `--backend sim|threaded|socket` flag behind it. Backend-specific
//! capabilities (fault scripts, schedule recording, peer addressing for
//! multi-process fleets) stay on the concrete types; the trait is
//! deliberately the portable core only.
//!
//! ```
//! use vs_net::backend::{make_backend, BackendKind};
//! use vs_net::{Actor, Context, ProcessId};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn on_message(&mut self, _f: ProcessId, m: u32, ctx: &mut Context<'_, u32, u32>) {
//!         ctx.output(m);
//!     }
//! }
//!
//! for kind in BackendKind::ALL {
//!     let mut net = make_backend::<Echo>(kind, 7).unwrap();
//!     let a = net.spawn_actor(Box::new(|_| Echo));
//!     let b = net.spawn_actor(Box::new(|_| Echo));
//!     net.post(a, b, 9);
//!     let outs = net.run(std::time::Duration::from_millis(250));
//!     assert_eq!(outs, vec![(b, 9)], "{kind} delivers");
//!     net.shutdown();
//! }
//! ```

use std::time::Duration;

use vs_obs::Obs;

use crate::actor::Actor;
use crate::id::ProcessId;
use crate::live::{LiveNet, Uplink};
use crate::schedule::RecordUnsupported;
use crate::sim::{Sim, SimConfig};
use crate::socket::SocketNet;
use crate::threaded::ThreadedNet;
use crate::time::SimDuration;
use crate::wire::WireCodec;

/// Which transport drives the actors — the value of a `--backend` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic discrete-event simulation (virtual time).
    Sim,
    /// Real threads and in-process channels (wall-clock time).
    Threaded,
    /// Real TCP sockets (wall-clock time, cross-process).
    Socket,
}

impl BackendKind {
    /// Every backend, in the order experiments sweep them.
    pub const ALL: [BackendKind; 3] = [BackendKind::Sim, BackendKind::Threaded, BackendKind::Socket];

    /// The flag spelling (`sim`, `threaded`, `socket`).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Threaded => "threaded",
            BackendKind::Socket => "socket",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "threaded" => Ok(BackendKind::Threaded),
            "socket" => Ok(BackendKind::Socket),
            other => Err(format!("unknown backend '{other}' (expected sim|threaded|socket)")),
        }
    }
}

/// The portable driver interface over all three transports.
///
/// Implementations translate each verb into their own idiom: the
/// simulator advances virtual time under `run`, the live transports
/// collect outputs from their worker threads for the same wall-clock
/// span. One simulated microsecond maps to one real microsecond, so a
/// single experiment loop drives any backend.
pub trait NetBackend<A: Actor> {
    /// Which transport this is.
    fn kind(&self) -> BackendKind;

    /// The backend's observability handle (shared, cheaply clonable).
    fn obs(&self) -> Obs;

    /// Asks the backend to record its scheduling decisions for replay.
    /// Only the simulator can honour this; both live transports refuse
    /// with [`RecordUnsupported`] naming themselves.
    fn enable_record(&mut self) -> Result<(), RecordUnsupported>;

    /// Spawns an actor built by `f`, which sees its assigned process id.
    fn spawn_actor(&mut self, f: Box<dyn FnOnce(ProcessId) -> A + Send>) -> ProcessId;

    /// Injects a message attributed to `from`.
    fn post(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg);

    /// Splits the network into the given groups.
    fn partition(&mut self, groups: &[Vec<ProcessId>]);

    /// Reunifies the network.
    fn heal(&mut self);

    /// Crashes one process.
    fn crash(&mut self, pid: ProcessId);

    /// Runs for `span` (virtual or wall-clock) and returns the outputs
    /// produced during it.
    fn run(&mut self, span: Duration) -> Vec<(ProcessId, A::Output)>;

    /// Tears the backend down, joining any worker threads.
    fn shutdown(self: Box<Self>);
}

/// Constructs a boxed backend of the requested kind. The simulator gets
/// `SimConfig::default()`; build a [`Sim`] directly for custom link
/// models or fault scripts.
///
/// # Errors
///
/// Fails only for [`BackendKind::Socket`] when its listener cannot bind.
pub fn make_backend<A>(kind: BackendKind, seed: u64) -> std::io::Result<Box<dyn NetBackend<A>>>
where
    A: Actor + Send,
    A::Msg: WireCodec + Send,
    A::Output: Send,
{
    Ok(match kind {
        BackendKind::Sim => Box::new(Sim::new(seed, SimConfig::default())),
        BackendKind::Threaded => Box::new(ThreadedNet::new(seed)),
        BackendKind::Socket => Box::new(SocketNet::new(seed)?),
    })
}

impl<A: Actor> NetBackend<A> for Sim<A> {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn obs(&self) -> Obs {
        Sim::obs(self).clone()
    }

    fn enable_record(&mut self) -> Result<(), RecordUnsupported> {
        // Recording is a construction-time choice for the simulator
        // (`SimConfig::record`); the capability itself is supported.
        Ok(())
    }

    fn spawn_actor(&mut self, f: Box<dyn FnOnce(ProcessId) -> A + Send>) -> ProcessId {
        let site = self.alloc_site();
        self.spawn_with(site, f)
    }

    fn post(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        Sim::post(self, from, to, msg);
    }

    fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        Sim::partition(self, groups);
    }

    fn heal(&mut self) {
        Sim::heal(self);
    }

    fn crash(&mut self, pid: ProcessId) {
        Sim::crash(self, pid);
    }

    fn run(&mut self, span: Duration) -> Vec<(ProcessId, A::Output)> {
        self.run_for(SimDuration::from_micros(span.as_micros() as u64));
        self.drain_outputs().into_iter().map(|(_, pid, out)| (pid, out)).collect()
    }

    fn shutdown(self: Box<Self>) {}
}

impl<A, U> NetBackend<A> for LiveNet<A, U>
where
    A: Actor + Send,
    A::Msg: Send,
    A::Output: Send,
    U: Uplink<A::Msg>,
{
    fn kind(&self) -> BackendKind {
        U::KIND
    }

    fn obs(&self) -> Obs {
        LiveNet::obs(self).clone()
    }

    fn enable_record(&mut self) -> Result<(), RecordUnsupported> {
        LiveNet::enable_record(self)
    }

    fn spawn_actor(&mut self, f: Box<dyn FnOnce(ProcessId) -> A + Send>) -> ProcessId {
        LiveNet::spawn_with(self, f)
    }

    fn post(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        LiveNet::post(self, from, to, msg);
    }

    fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        LiveNet::partition(self, groups);
    }

    fn heal(&mut self) {
        LiveNet::heal(self);
    }

    fn crash(&mut self, pid: ProcessId) {
        LiveNet::crash(self, pid);
    }

    fn run(&mut self, span: Duration) -> Vec<(ProcessId, A::Output)> {
        self.wait_outputs(usize::MAX, span)
    }

    fn shutdown(self: Box<Self>) {
        LiveNet::shutdown(*self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;

    struct Echo;
    impl Actor for Echo {
        type Msg = u32;
        type Output = u32;
        fn on_message(&mut self, _f: ProcessId, m: u32, ctx: &mut Context<'_, u32, u32>) {
            ctx.output(m);
        }
    }

    #[test]
    fn flag_spellings_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.as_str().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("udp".parse::<BackendKind>().is_err());
    }

    #[test]
    fn all_backends_deliver_through_the_trait() {
        for kind in BackendKind::ALL {
            let mut net = make_backend::<Echo>(kind, 11).unwrap();
            let a = net.spawn_actor(Box::new(|_| Echo));
            let b = net.spawn_actor(Box::new(|_| Echo));
            net.post(a, b, 5);
            let mut outs = Vec::new();
            // Live backends may need more than one slice to deliver.
            for _ in 0..40 {
                outs.extend(net.run(Duration::from_millis(50)));
                if !outs.is_empty() {
                    break;
                }
            }
            assert_eq!(outs, vec![(b, 5)], "backend {kind}");
            net.shutdown();
        }
    }

    #[test]
    fn record_capability_splits_sim_from_live() {
        for kind in BackendKind::ALL {
            let mut net = make_backend::<Echo>(kind, 12).unwrap();
            let res = net.enable_record();
            match kind {
                BackendKind::Sim => assert!(res.is_ok()),
                BackendKind::Threaded | BackendKind::Socket => {
                    assert_eq!(res.unwrap_err().backend(), kind.as_str());
                }
            }
            net.shutdown();
        }
    }
}
