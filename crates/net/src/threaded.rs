//! Real, threaded in-process transport.
//!
//! Drives the same [`Actor`] state machines as the simulator, but over real
//! OS threads, `std::sync::mpsc` channels and wall-clock timers. It exists to
//! demonstrate that the protocol stack is genuinely sans-I/O: nothing in
//! `vs-membership`, `vs-gcs` or `vs-evs` knows whether time is virtual.
//!
//! # Design
//!
//! A [`ThreadedNet`] is the [`live`](crate::live) actor host with no
//! uplink — the local half of a socket node, and nothing else: the same
//! actor threads, router, clock and `net.*` accounting serve both. All that
//! is decided here is that a destination without a local inbox has nowhere
//! to go ([`NoUplink`]). The router honours the shared [`Topology`] (so
//! partitions and merges work), per-pair FIFO order comes from channel
//! order, and no delay is injected: real scheduling noise provides the
//! asynchrony.
//!
//! # Example
//!
//! ```
//! use vs_net::threaded::ThreadedNet;
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
//! let mut net = ThreadedNet::new(1);
//! let a = net.spawn(Echo);
//! let b = net.spawn(Echo);
//! net.post(a, b, 7);
//! let outs = net.wait_outputs(1, std::time::Duration::from_secs(5));
//! assert_eq!(outs, vec![(b, 7)]);
//! net.shutdown();
//! ```

use std::sync::{Arc, RwLock};

use vs_obs::Obs;

use crate::actor::Actor;
use crate::id::ProcessId;
use crate::live::{Hub, LiveNet, Uplink};
use crate::topology::Topology;

/// The uplink of a node that is the whole network: no route to anywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoUplink;

impl<M> Uplink<M> for NoUplink {
    const NAME: &'static str = "threaded";
    type Ingress = ();

    fn forward(&mut self, _: ProcessId, _: ProcessId, _: u64, _: &M, _: &Obs) -> bool {
        false
    }
}

/// A running threaded network of actors: a [`LiveNet`] with [`NoUplink`].
pub type ThreadedNet<A> = LiveNet<A, NoUplink>;

impl<A> ThreadedNet<A>
where
    A: Actor + Send,
    A::Msg: Send,
    A::Output: Send,
{
    /// Creates an empty network; `seed` feeds each process' deterministic
    /// RNG stream (scheduling remains nondeterministic, as in any real
    /// system).
    pub fn new(seed: u64) -> Self {
        let topology = Arc::new(RwLock::new(Topology::new()));
        let hub = Arc::new(Hub { obs: Obs::new(), topology, inboxes: RwLock::default() });
        LiveNet::start(seed, hub, NoUplink, ())
    }
}
