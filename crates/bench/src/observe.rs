//! Live-introspection and black-box wiring shared by every `exp_*`
//! binary.
//!
//! Call [`init_observability`] once at the top of `main`: it installs the
//! black-box panic hook and, when the binary was invoked with
//! `--introspect <addr>`, binds the [`vs_obs::IntrospectServer`] and
//! prints `INTROSPECT listening on <addr>` (bind `127.0.0.1:0` for an
//! OS-assigned port; the printed line carries the real one — CI greps
//! it).
//!
//! Call [`observe_run`] once per simulator run: it repoints the server
//! and the black-box recorder at that run's [`vs_obs::Obs`] handle and
//! installs the virtual-time poll hook that publishes the `time.now_us`
//! gauge — the same gauge the threaded router publishes from wall time —
//! so `vstool top` computes delivery rates identically against either
//! backend.
//!
//! `--introspect-linger <secs>` keeps the process (and therefore the
//! server) alive for a final window after the `METRICS` line prints, so
//! scripted probes always find a complete run to inspect.

use std::sync::OnceLock;

use vs_net::{Actor, Sim, SimDuration};
use vs_obs::{blackbox, IntrospectServer, Obs};

/// How often the simulator publishes virtual time to the metrics, in
/// virtual time. Coarse enough to be invisible in run time, fine enough
/// that live rate windows are never starved of clock updates.
const POLL_EVERY: SimDuration = SimDuration::from_millis(10);

/// The value of a `--flag value` or `--flag=value` argument, if present.
fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    let prefix = format!("{flag}=");
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// The address passed via `--introspect <addr>`, if any.
fn introspect_requested() -> Option<String> {
    flag_value("--introspect")
}

fn server() -> Option<&'static IntrospectServer> {
    static SERVER: OnceLock<Option<IntrospectServer>> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let addr = introspect_requested()?;
            match IntrospectServer::spawn(Obs::new(), &addr) {
                Ok(server) => {
                    println!("INTROSPECT listening on {}", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("introspect: cannot bind {addr}: {e}");
                    None
                }
            }
        })
        .as_ref()
}

/// Installs the black-box panic hook and (with `--introspect`) starts the
/// introspection server. Idempotent; call at the top of `main`.
pub fn init_observability() {
    blackbox::install();
    let _ = server();
}

/// Wires one simulator run into the live plane: the introspection server
/// and the black-box recorder now answer for this run's observability
/// handle, and the run publishes its virtual clock as the `time.now_us`
/// gauge. `label` distinguishes runs inside a sweep and matches the
/// [`crate::save_run_artifacts`] stem, so a black-box dump can name the
/// `.vsl` the run will save.
pub fn observe_run<A: Actor>(experiment: &str, label: &str, sim: &mut Sim<A>) {
    let stem = if label.is_empty() {
        experiment.to_string()
    } else {
        format!("{experiment}_{label}")
    };
    let obs = sim.obs().clone();
    blackbox::attach(&obs, &stem);
    if sim.schedule_log().is_some() {
        blackbox::set_vsl_hint(std::path::Path::new(&crate::artifact_path(&format!(
            "{stem}.vsl"
        ))));
    }
    if let Some(server) = server() {
        server.attach(obs);
    }
    sim.set_poll_hook(POLL_EVERY, |obs, now| {
        obs.set_gauge("time.now_us", now.as_micros() as i64);
    });
}

/// Sleeps for the `--introspect-linger <secs>` window, once per process,
/// if introspection is live. [`crate::print_metrics_snapshot`] calls this
/// after the `METRICS` line, so a scripted client (CI) can probe the
/// finished run before the process exits.
pub fn maybe_linger() {
    static LINGERED: OnceLock<()> = OnceLock::new();
    LINGERED.get_or_init(|| {
        if server().is_none() {
            return;
        }
        let secs = flag_value("--introspect-linger")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if secs > 0 {
            println!("INTROSPECT lingering {secs}s");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The panic hook and run label are process-global; point dumps at a
    /// temp dir so `#[should_panic]` tests elsewhere in this binary don't
    /// litter the working tree with black boxes.
    fn quarantine_dumps() {
        blackbox::set_artifacts_dir(&std::env::temp_dir().join("vs-bench-test-blackbox"));
    }

    #[test]
    fn observe_run_publishes_virtual_time_and_attaches_blackbox() {
        quarantine_dumps();
        let mut sim: Sim<vs_evs::EvsEndpoint<String>> = Sim::new(7, crate::sim_config());
        observe_run("exp_test", "m2", &mut sim);
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(
            sim.obs().metrics_snapshot().gauge("time.now_us"),
            Some(50_000)
        );
    }

    #[test]
    fn no_introspect_flag_means_no_server() {
        // The test binary is never invoked with --introspect.
        quarantine_dumps();
        assert!(introspect_requested().is_none());
        init_observability();
        maybe_linger(); // returns immediately without a server
    }
}
