//! Failpoint-style fault injection, compiled in only under the
//! `failpoints` cargo feature.
//!
//! Durability code is riddled with narrow windows — after the frame
//! header is written but before the payload, after the fsync but before
//! the ack — that real crashes hit rarely and non-deterministically.
//! Each window is named by a [`hit`] call; with the feature enabled a
//! test (or the `UNICLEAN_FAILPOINTS` environment variable, for
//! spawned-process tests) arms a named point with an action:
//!
//! * `kill` — `std::process::abort()`: a SIGKILL-equivalent crash, no
//!   destructors, no flushes;
//! * `panic` — unwind from the hit site (exercises `catch_unwind`
//!   tenant poisoning);
//! * `error` — return `io::Error` from the hit site (exercises the
//!   transient-failure retry paths).
//!
//! Replication extends the vocabulary to the **wire**: a [`net_hit`]
//! site mangles what the primary is about to send a tailing standby,
//! exercising the standby's checksum/retry/dedup machinery end-to-end:
//!
//! * `disconnect` — close the connection mid-reply (a partial line
//!   reaches the peer);
//! * `truncate` — cut a streamed frame short (torn frame on the wire);
//! * `corrupt` — flip a byte in a streamed frame (the FNV checksum must
//!   catch it);
//! * `dup` — send the same frames twice (the peer must dedup by
//!   sequence);
//! * `delay` — stall the reply ~100ms (lag visibility, timeout paths).
//!
//! `UNICLEAN_FAILPOINTS` grammar: `name=action` entries separated by
//! `;`, with an optional `@N` suffix firing on the Nth hit (1-based,
//! default 1). Every armed point is one-shot: it disarms when it fires.
//! [`hit`] only fires process actions (`kill`/`panic`/`error`) and
//! [`net_hit`] only fires network ones, without consuming each other's
//! countdowns, so one site name can host either kind. Without the
//! feature, every function here is an inlined no-op.
//!
//! Points wired in this crate: `wal.pre_frame`, `wal.mid_frame`,
//! `wal.pre_fsync`, `wal.post_fsync` (all inside
//! [`crate::wal::WalWriter::append`]), `ingest.apply`,
//! `ingest.post_ack` (shard worker), `snapshot.mid_write`,
//! `snapshot.pre_rename`, `snapshot.pre_wal_rewrite` (compaction),
//! `repl.fetch` ([`hit`]) and `repl.fetch.net` ([`net_hit`]) in the
//! primary's replication fetch handler, `repl.ack` in its ack
//! handler, and `daemon.accept` (`error` stands in for a failed
//! `accept()`) in the daemon's accept loop.

/// How an armed network failpoint mangles the stream (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Close the connection mid-reply.
    Disconnect,
    /// Truncate a streamed frame.
    Truncate,
    /// Flip a byte in a streamed frame.
    Corrupt,
    /// Send the frames twice.
    Duplicate,
    /// Stall the reply ~100ms.
    Delay,
}

/// What an armed failpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// `std::process::abort()` — crash without unwinding or flushing.
    Kill,
    /// Panic from the hit site.
    Panic,
    /// Return an `io::Error` from the hit site.
    Error,
    /// Mangle the wire at a [`net_hit`] site.
    Net(NetFault),
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FaultAction, NetFault};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};

    struct Armed {
        action: FaultAction,
        /// Hits remaining before firing; fires when this reaches zero.
        countdown: u64,
    }

    fn table() -> &'static Mutex<HashMap<String, Armed>> {
        static TABLE: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        TABLE.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arm `name` to fire on its `at_hit`-th hit (1-based).
    pub fn arm(name: &str, action: FaultAction, at_hit: u64) {
        table()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                name.to_string(),
                Armed {
                    action,
                    countdown: at_hit.max(1),
                },
            );
    }

    /// Disarm everything.
    pub fn clear() {
        table()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Arm failpoints from `UNICLEAN_FAILPOINTS`
    /// (`name=action[@N];name=action…`). Unparseable entries are ignored
    /// rather than trusted: a fault-injection harness that arms nothing
    /// fails its assertions loudly anyway.
    pub fn init_from_env() {
        let Ok(spec) = std::env::var("UNICLEAN_FAILPOINTS") else {
            return;
        };
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let Some((name, rhs)) = entry.split_once('=') else {
                continue;
            };
            let (action, at_hit) = match rhs.split_once('@') {
                Some((a, n)) => (a, n.parse::<u64>().unwrap_or(1)),
                None => (rhs, 1),
            };
            let action = match action.trim() {
                "kill" => FaultAction::Kill,
                "panic" => FaultAction::Panic,
                "error" => FaultAction::Error,
                "disconnect" => FaultAction::Net(NetFault::Disconnect),
                "truncate" => FaultAction::Net(NetFault::Truncate),
                "corrupt" => FaultAction::Net(NetFault::Corrupt),
                "dup" => FaultAction::Net(NetFault::Duplicate),
                "delay" => FaultAction::Net(NetFault::Delay),
                _ => continue,
            };
            arm(name.trim(), action, at_hit);
        }
    }

    /// Pull the armed action at `name` if `kind_matches` accepts it,
    /// decrementing/disarming only entries of the matching kind.
    fn fire(name: &str, kind_matches: impl Fn(&FaultAction) -> bool) -> Option<FaultAction> {
        let mut map = table().lock().unwrap_or_else(PoisonError::into_inner);
        let armed = map.get_mut(name)?;
        if !kind_matches(&armed.action) {
            return None;
        }
        armed.countdown -= 1;
        if armed.countdown > 0 {
            return None;
        }
        let action = armed.action;
        map.remove(name);
        Some(action)
    }

    /// A named process-fault hit site. Fires (and disarms) an armed
    /// `kill`/`panic`/`error` once the hit count is reached; otherwise a
    /// no-op returning `Ok`. Network-armed entries at the same name are
    /// left untouched.
    pub fn hit(name: &str) -> std::io::Result<()> {
        match fire(name, |a| !matches!(a, FaultAction::Net(_))) {
            None => Ok(()),
            Some(FaultAction::Kill) => std::process::abort(),
            Some(FaultAction::Panic) => panic!("failpoint {name:?} fired"),
            Some(FaultAction::Error) => Err(std::io::Error::other(format!(
                "failpoint {name:?} injected an error"
            ))),
            Some(FaultAction::Net(_)) => unreachable!("net actions filtered out"),
        }
    }

    /// A named network-fault hit site: the caller applies the returned
    /// mangling to its outbound bytes. Process-armed entries at the same
    /// name are left untouched.
    pub fn net_hit(name: &str) -> Option<NetFault> {
        match fire(name, |a| matches!(a, FaultAction::Net(_))) {
            Some(FaultAction::Net(f)) => Some(f),
            _ => None,
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::{FaultAction, NetFault};

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn arm(_name: &str, _action: FaultAction, _at_hit: u64) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn clear() {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn init_from_env() {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn hit(_name: &str) -> std::io::Result<()> {
        Ok(())
    }

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn net_hit(_name: &str) -> Option<NetFault> {
        None
    }
}

pub use imp::{arm, clear, hit, init_from_env, net_hit};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // Failpoint state is process-global; keep every case in one test so
    // plain `cargo test --features failpoints` can't interleave them.
    #[test]
    fn arming_counting_and_error_injection() {
        clear();
        assert!(hit("unarmed.point").is_ok());
        assert_eq!(net_hit("unarmed.point"), None);

        arm("p.error", FaultAction::Error, 2);
        assert!(hit("p.error").is_ok(), "first hit under the count");
        let e = hit("p.error").expect_err("second hit fires");
        assert!(e.to_string().contains("p.error"));
        assert!(hit("p.error").is_ok(), "one-shot: disarmed after firing");

        arm("p.panic", FaultAction::Panic, 1);
        let caught = std::panic::catch_unwind(|| hit("p.panic"));
        assert!(caught.is_err());

        // Network faults fire only through net_hit, and vice versa.
        arm("p.net", FaultAction::Net(NetFault::Corrupt), 1);
        assert!(hit("p.net").is_ok(), "hit ignores a net-armed point");
        assert_eq!(net_hit("p.net"), Some(NetFault::Corrupt));
        assert_eq!(net_hit("p.net"), None, "one-shot");
        arm("p.proc", FaultAction::Error, 1);
        assert_eq!(net_hit("p.proc"), None, "net_hit ignores a process point");
        assert!(hit("p.proc").is_err(), "countdown not consumed by net_hit");
        clear();
    }
}
