//! The daemon: TCP accept loop, connection threads, request dispatch,
//! recovery at startup, and graceful shutdown.
//!
//! Connection threads parse request lines and answer reads (`check`,
//! `dump`, `stats`, `ping`) directly under tenant read locks — online, no
//! phase runs and no queueing. Mutations (`ingest`, `close`) are decoded
//! on the connection thread, then submitted to the owning shard's bounded
//! queue; a full queue answers `busy` immediately with the observed
//! depth. `shutdown` flips the accept flag, wakes the listener, and the
//! run loop drops the shard senders so every worker drains its queue and
//! exits before the process returns.
//!
//! With `data_dir` set the daemon is durable: [`Daemon::run`] first
//! recovers every tenant from disk ([`crate::recovery`]), and every
//! acknowledged `open`/`ingest` is WAL-logged (and fsync'd, unless
//! `--no-fsync`) before its ack is written to the socket.
//!
//! Hostile or broken clients are contained: request lines are read with
//! a hard byte bound (no unbounded buffering), sockets carry read and
//! write timeouts, a mid-dispatch panic answers a structured
//! `internal_panic` error instead of killing the connection thread, and
//! a panicking ingest poisons only its tenant (see [`crate::shard`]).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uniclean_model::json::{batch_from_json, relation_to_json};
use uniclean_model::Json;

use crate::protocol::{
    error, error_with, json_error, ok, parse_request, Request, MIN_PROTO_VERSION, PROTO_VERSION,
};
use crate::recovery::{recover_root, RecoveryReport};
use crate::registry::{DurabilityCfg, Registry, Tenant};
use crate::replication::{self, ReplicaInfo, StandbyStatus};
use crate::shard::{spawn_workers, Job};
use crate::stats::ShardStats;

/// How long a blocked response write may stall before the connection is
/// dropped — a client that stops reading can't pin a connection thread
/// (and the response buffers behind it) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the accept loop backs off after a failed `accept()`, so a
/// persistent condition such as descriptor exhaustion cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How to bind and size a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen address, e.g. `127.0.0.1:7401`. Port 0 asks the OS for an
    /// ephemeral port (read it back via [`Daemon::local_addr`]).
    pub addr: String,
    /// Worker-pool size; relations map to workers by
    /// [`crate::shard_for`].
    pub shards: usize,
    /// Per-shard ingest queue bound; a full queue answers `busy`.
    pub queue_bound: usize,
    /// Root data directory for durability: WALs, snapshots, recovery.
    /// `None` serves purely in memory (the pre-durability behavior).
    pub data_dir: Option<PathBuf>,
    /// Snapshot + compact a tenant's WAL every this many logged batches
    /// (0 disables compaction).
    pub snapshot_every: u64,
    /// fsync WAL appends before acks and snapshot files before renames.
    /// Turning this off (`--no-fsync`) trades crash durability for
    /// throughput: an OS crash can lose acknowledged batches, a plain
    /// process crash cannot.
    pub fsync: bool,
    /// Longest request line accepted, in bytes; beyond it the client gets
    /// a structured `line_too_long` error and the connection closes
    /// (framing is unrecoverable mid-line).
    pub max_line_bytes: usize,
    /// Start as a standby replicating from this primary address
    /// ([`crate::replication`]). Mutating verbs answer `standby` until a
    /// `promote` flips the node to serving.
    pub replicate_from: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:7401".to_string(),
            shards: 4,
            queue_bound: 64,
            data_dir: None,
            snapshot_every: 64,
            fsync: true,
            max_line_bytes: 64 << 20,
            replicate_from: None,
        }
    }
}

/// State shared by the accept loop, connection threads, shard workers
/// and (on a standby) the replication puller.
pub(crate) struct Shared {
    pub(crate) registry: Arc<Registry>,
    /// `None` once shutdown begins: dropping the senders is what lets the
    /// workers drain and exit.
    pub(crate) senders: RwLock<Option<Vec<SyncSender<Job>>>>,
    pub(crate) shard_stats: Vec<Arc<ShardStats>>,
    pub(crate) queue_bound: usize,
    pub(crate) shutdown: AtomicBool,
    pub(crate) local: SocketAddr,
    pub(crate) started: Instant,
    /// What startup recovery did (durable daemons only).
    pub(crate) recovery: Option<RecoveryReport>,
    /// Durability knobs; `None` for a memory-only daemon.
    pub(crate) durable: Option<Arc<DurabilityCfg>>,
    pub(crate) max_line_bytes: usize,
    /// `true` while this node is a tailing standby; `promote` clears it.
    pub(crate) standby: AtomicBool,
    /// The primary a standby replicates from (named in `standby` errors).
    pub(crate) primary_addr: Option<String>,
    /// Primary side: per-relation replica feedback from `repl_ack`.
    pub(crate) replicas: Mutex<HashMap<String, ReplicaInfo>>,
    /// Asks the puller to stop (promotion or shutdown).
    pub(crate) repl_stop: AtomicBool,
    /// The puller thread, joined by `promote`/shutdown.
    pub(crate) repl_handle: Mutex<Option<JoinHandle<()>>>,
    /// Standby-side replication counters for `ping`.
    pub(crate) repl_status: Mutex<StandbyStatus>,
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    listener: TcpListener,
    config: DaemonConfig,
    local: SocketAddr,
}

impl Daemon {
    /// Bind the listen socket (so callers learn the ephemeral port before
    /// the serve loop starts).
    pub fn bind(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let local = listener.local_addr()?;
        Ok(Daemon {
            listener,
            config,
            local,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Serve until a client sends `shutdown`. Recovers durable tenants
    /// first (when `data_dir` is set), then accepts; drains every shard
    /// queue and joins every thread before returning.
    pub fn run(self) -> std::io::Result<()> {
        crate::faults::init_from_env();
        let shards = self.config.shards.max(1);
        let registry = Arc::new(Registry::new(shards));
        let durable = match &self.config.data_dir {
            None => None,
            Some(root) => {
                std::fs::create_dir_all(root)?;
                Some(Arc::new(DurabilityCfg {
                    root: root.clone(),
                    snapshot_every: self.config.snapshot_every,
                    fsync: self.config.fsync,
                }))
            }
        };
        let recovery = match &durable {
            None => None,
            Some(cfg) => {
                let (tenants, report) = recover_root(cfg, shards)?;
                registry.adopt(tenants);
                Some(report)
            }
        };
        let (senders, shard_stats, workers) =
            spawn_workers(shards, self.config.queue_bound.max(1), durable.clone());
        let shared = Arc::new(Shared {
            registry,
            senders: RwLock::new(Some(senders)),
            shard_stats,
            queue_bound: self.config.queue_bound.max(1),
            shutdown: AtomicBool::new(false),
            local: self.local,
            started: Instant::now(),
            recovery,
            durable,
            max_line_bytes: self.config.max_line_bytes.max(1024),
            standby: AtomicBool::new(self.config.replicate_from.is_some()),
            primary_addr: self.config.replicate_from.clone(),
            replicas: Mutex::new(HashMap::new()),
            repl_stop: AtomicBool::new(false),
            repl_handle: Mutex::new(None),
            repl_status: Mutex::new(StandbyStatus::default()),
        });
        if let Some(primary) = self.config.replicate_from.clone() {
            let puller_shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name("uniclean-repl".to_string())
                .spawn(move || replication::run_puller(puller_shared, primary))?;
            *shared
                .repl_handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(handle);
        }
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let accepted =
                crate::faults::hit("daemon.accept").and_then(|()| self.listener.accept());
            let stream = match accepted {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // EMFILE, ECONNABORTED and the like concern one pending
                // connection or a transient resource limit, never the
                // tenants: leaving here would skip the drain below.
                Err(e) => {
                    eprintln!("uniclean serve: accept failed ({e}); retrying");
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                }
            };
            // A shutdown request self-connects to unblock this accept.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Only live connections are joined at shutdown; reaping here
            // keeps the list bounded on a long-lived daemon.
            connections.retain(|c| !c.is_finished());
            let shared = shared.clone();
            let spawned = std::thread::Builder::new()
                .name("uniclean-conn".to_string())
                .spawn(move || serve_connection(stream, shared));
            match spawned {
                Ok(handle) => connections.push(handle),
                // The failed spawn dropped the stream: only this client
                // loses its connection.
                Err(e) => eprintln!("uniclean serve: connection thread failed to start ({e})"),
            }
        }
        for c in connections {
            let _ = c.join();
        }
        // A still-running puller submits to the shard queues — stop and
        // join it before the queues close.
        replication::stop_puller(&shared);
        // Dropping the senders closes every queue; workers finish what is
        // already enqueued, then exit.
        *shared.senders.write().unwrap() = None;
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete line sits in the buffer (without its newline).
    Line,
    /// Clean end of stream with nothing buffered.
    Eof,
    /// The line exceeded the byte bound; the offending bytes up to and
    /// including the newline-or-chunk-end were discarded.
    TooLong,
    /// Socket error or shutdown — drop the connection.
    Disconnected,
}

/// Read one `\n`-terminated line into `buf` with a hard byte bound —
/// unlike `read_line`, a client streaming an endless line can never
/// buffer more than `max` bytes (plus one `BufReader` chunk) here.
/// Timeouts are retried so a line split across them still assembles;
/// shutdown during a timeout drops the connection.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
    shutdown: &AtomicBool,
) -> LineRead {
    loop {
        enum Step {
            Consume(usize),
            Line(usize),
            TooLong(usize),
            Eof,
            Retry,
            Dead,
        }
        let step = match reader.fill_buf() {
            Ok([]) => Step::Eof,
            Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    if buf.len() + nl > max {
                        Step::TooLong(nl + 1)
                    } else {
                        buf.extend_from_slice(&chunk[..nl]);
                        Step::Line(nl + 1)
                    }
                }
                None => {
                    let n = chunk.len();
                    if buf.len() + n > max {
                        Step::TooLong(n)
                    } else {
                        buf.extend_from_slice(chunk);
                        Step::Consume(n)
                    }
                }
            },
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    Step::Dead
                } else {
                    Step::Retry
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Step::Retry,
            Err(_) => Step::Dead,
        };
        match step {
            Step::Consume(n) => reader.consume(n),
            Step::Line(n) => {
                reader.consume(n);
                return LineRead::Line;
            }
            Step::TooLong(n) => {
                reader.consume(n);
                return LineRead::TooLong;
            }
            // EOF with a partial line still buffered: hand it up once
            // (the next read sees a bare EOF).
            Step::Eof => {
                return if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                }
            }
            Step::Retry => {}
            Step::Dead => return LineRead::Disconnected,
        }
    }
}

/// Per-connection loop: read request lines, write response lines.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    // A finite read timeout lets the loop notice shutdown even while a
    // client sits idle holding the connection open; the write timeout
    // bounds how long a non-reading client can pin this thread.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    fn send(writer: &mut TcpStream, bytes: &[u8]) -> bool {
        writer.write_all(bytes).is_ok() && writer.flush().is_ok()
    }
    let write_response = |writer: &mut TcpStream, response: Json| -> bool {
        let mut out = response.render();
        out.push('\n');
        send(writer, out.as_bytes())
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        match read_line_bounded(
            &mut reader,
            &mut line,
            shared.max_line_bytes,
            &shared.shutdown,
        ) {
            LineRead::Eof | LineRead::Disconnected => return,
            LineRead::TooLong => {
                // Framing is lost mid-line; answer, then drop the
                // connection rather than guess where the next line starts.
                let _ = write_response(
                    &mut writer,
                    error_with(
                        "line_too_long",
                        format!(
                            "request line exceeds the {}-byte bound",
                            shared.max_line_bytes
                        ),
                        vec![("max_line_bytes", Json::Num(shared.max_line_bytes as f64))],
                    ),
                );
                return;
            }
            LineRead::Line => {}
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            if !write_response(
                &mut writer,
                error("malformed", "request line is not valid UTF-8"),
            ) {
                return;
            }
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        // A dispatch panic (a bug, not a protocol error) answers a
        // structured error on this connection instead of killing the
        // thread; tenant-level damage is handled by poisoning.
        let outcome = match catch_unwind(AssertUnwindSafe(|| dispatch(text, &shared))) {
            Ok(r) => r,
            Err(_) => Outcome::Reply(error(
                "internal_panic",
                "request handling panicked; the daemon is still serving",
            )),
        };
        match outcome {
            Outcome::Reply(response) => {
                if !write_response(&mut writer, response) {
                    return;
                }
            }
            // A fault-injected mid-stream disconnect: flush whatever
            // partial bytes the failpoint decided on, then drop the
            // connection without a trailing newline.
            Outcome::CloseAfter(partial) => {
                let _ = send(&mut writer, partial.as_bytes());
                return;
            }
        }
    }
}

/// What a dispatched request does to the connection: the normal case is
/// one JSON reply line; fault injection can instead emit a byte prefix
/// and hang up mid-frame (exercising replica-side torn-reply handling).
pub(crate) enum Outcome {
    Reply(Json),
    CloseAfter(String),
}

/// One request line → one connection outcome. Replication fetches go
/// through their own path because their failpoints can sever the
/// connection; everything else replies exactly one line.
fn dispatch(line: &str, shared: &Arc<Shared>) -> Outcome {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(resp) => return Outcome::Reply(resp),
    };
    if let Request::ReplFetch {
        relation,
        after,
        max_frames,
    } = request
    {
        // Refusing fetches during shutdown makes the tailing standby
        // back off, which gives this connection the quiet window the
        // read loop needs to notice the flag and exit.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Outcome::Reply(error("shutting_down", "daemon is shutting down"));
        }
        return replication::handle_fetch(shared, &relation, after, max_frames);
    }
    Outcome::Reply(dispatch_request(request, line, shared))
}

/// Every verb except `repl_fetch`: one request → one reply object.
fn dispatch_request(request: Request, line: &str, shared: &Arc<Shared>) -> Json {
    // Like mutations, the replication stream (and handshakes/promotion)
    // stops at shutdown — a standby that kept polling would keep this
    // node's connection threads busy forever.
    if shared.shutdown.load(Ordering::SeqCst)
        && matches!(
            request,
            Request::Hello { .. } | Request::Promote | Request::ReplList | Request::ReplAck { .. }
        )
    {
        return error("shutting_down", "daemon is shutting down");
    }
    // A standby is read-only: queries and replication verbs work, but
    // mutations must go to the primary (the puller is the only writer).
    if shared.standby.load(Ordering::SeqCst)
        && matches!(
            request,
            Request::Open(_) | Request::Ingest { .. } | Request::Close { .. }
        )
    {
        let mut extra = Vec::new();
        if let Some(primary) = &shared.primary_addr {
            extra.push(("primary", Json::str(primary)));
        }
        return error_with(
            "standby",
            "this node is a read-only standby; write to the primary",
            extra,
        );
    }
    match request {
        Request::Open(spec) => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return error("shutting_down", "daemon is shutting down");
            }
            // Durable opens store the request document itself as the WAL
            // open record; it parsed once already, so re-parsing is
            // infallible.
            let doc;
            let open_doc = match &shared.durable {
                None => None,
                Some(cfg) => {
                    doc = match Json::parse(line) {
                        Ok(d) => d,
                        Err(_) => return error("internal", "open request failed to re-parse"),
                    };
                    Some((&doc, cfg.as_ref()))
                }
            };
            match shared.registry.open(&spec, open_doc) {
                Ok(tenant) => ok(vec![
                    ("relation", Json::str(&tenant.name)),
                    ("shard", Json::Num(tenant.shard as f64)),
                    ("arity", Json::Num(spec.attrs.len() as f64)),
                    ("phase", Json::str(phase_wire_name(spec.phase))),
                    ("durable", Json::Bool(shared.durable.is_some())),
                ]),
                Err(resp) => resp,
            }
        }
        Request::Ingest {
            relation,
            rows,
            seq,
        } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return error("shutting_down", "daemon is shutting down");
            }
            let tenant = match shared.registry.get(&relation) {
                Ok(t) => t,
                Err(resp) => return resp,
            };
            if tenant.is_poisoned() {
                return tenant.poisoned_error();
            }
            let arity = tenant.cleaner.rules().schema().arity();
            let rows = match batch_from_json(&rows, arity, tenant.default_cf) {
                Ok(rows) => rows,
                Err(e) => return json_error("bad_batch", &e),
            };
            submit(shared, tenant.shard, |reply| Job::Ingest {
                tenant: tenant.clone(),
                rows,
                client_seq: seq,
                repl_seq: None,
                reply,
            })
        }
        Request::Check { relation, tuple } => {
            let tenant = match shared.registry.get(&relation) {
                Ok(t) => t,
                Err(resp) => return resp,
            };
            if tenant.is_poisoned() {
                return tenant.poisoned_error();
            }
            let entry = tenant.entry_read();
            match tuple {
                None => {
                    let mut fields = vec![
                        ("relation", Json::str(&relation)),
                        ("consistent", Json::Bool(entry.state.consistent())),
                        ("tuples", Json::Num(entry.state.len() as f64)),
                        ("deltas", Json::Num(entry.state.deltas() as f64)),
                        ("escalations", Json::Num(entry.state.escalations() as f64)),
                    ];
                    // Clients seed their exactly-once sequence from this
                    // after a reconnect.
                    if let Some(cs) = entry.last_client_seq {
                        fields.push(("last_client_seq", Json::Num(cs as f64)));
                    }
                    ok(fields)
                }
                Some(tid) => {
                    if tid >= entry.state.len() {
                        return error_with(
                            "bad_tuple",
                            format!(
                                "tuple {tid} out of range (relation has {} tuples)",
                                entry.state.len()
                            ),
                            vec![("tuples", Json::Num(entry.state.len() as f64))],
                        );
                    }
                    let violations = entry
                        .state
                        .violations(tid.into())
                        .into_iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("rule".to_string(), Json::str(v.rule)),
                                (
                                    "kind".to_string(),
                                    Json::str(match v.kind {
                                        uniclean_core::ViolationKind::ConstantCfd => "constant_cfd",
                                        uniclean_core::ViolationKind::VariableCfd => "variable_cfd",
                                        uniclean_core::ViolationKind::Md => "md",
                                    }),
                                ),
                            ])
                        })
                        .collect::<Vec<_>>();
                    ok(vec![
                        ("relation", Json::str(&relation)),
                        ("tuple", Json::Num(tid as f64)),
                        ("accepted", Json::Bool(violations.is_empty())),
                        ("violations", Json::Arr(violations)),
                    ])
                }
            }
        }
        Request::Dump { relation } => {
            let tenant = match shared.registry.get(&relation) {
                Ok(t) => t,
                Err(resp) => return resp,
            };
            if tenant.is_poisoned() {
                return tenant.poisoned_error();
            }
            let entry = tenant.entry_read();
            ok(vec![
                ("relation", Json::str(&relation)),
                ("tuples", Json::Num(entry.state.len() as f64)),
                ("cost", Json::Num(entry.state.cost())),
                ("rows", relation_to_json(entry.state.repaired())),
            ])
        }
        Request::Stats { relation } => stats_response(shared, relation.as_deref()),
        Request::Ping => {
            let recovery = match &shared.recovery {
                Some(r) => r.to_json(),
                None => Json::Null,
            };
            let standby = shared.standby.load(Ordering::SeqCst);
            // Replication health: a standby reports its puller's view of
            // the stream; a primary reports how many replicas are acking.
            let replication = if standby {
                shared
                    .repl_status
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .to_json(shared.primary_addr.as_deref())
            } else {
                let replicas = shared
                    .replicas
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len();
                Json::Obj(vec![
                    ("role".to_string(), Json::str("primary")),
                    ("tenants_acked".to_string(), Json::Num(replicas as f64)),
                ])
            };
            ok(vec![
                (
                    "uptime_seconds",
                    Json::Num(shared.started.elapsed().as_secs_f64()),
                ),
                (
                    "role",
                    Json::str(if standby { "standby" } else { "primary" }),
                ),
                ("proto_version", Json::Num(PROTO_VERSION as f64)),
                ("relations", Json::Num(shared.registry.count() as f64)),
                ("shards", Json::Num(shared.shard_stats.len() as f64)),
                ("durable", Json::Bool(shared.durable.is_some())),
                (
                    "shutting_down",
                    Json::Bool(shared.shutdown.load(Ordering::SeqCst)),
                ),
                (
                    "kernels",
                    Json::str(uniclean_core::similarity::simd::dispatch_info().to_string()),
                ),
                ("recovery", recovery),
                ("replication", replication),
            ])
        }
        Request::Hello { proto_version } => {
            // Absent version means a pre-versioning (v1) client; anything
            // the client sends that we don't know is simply ignored, and
            // a client newer than us still speaks our older dialect.
            let theirs = proto_version.unwrap_or(MIN_PROTO_VERSION);
            if theirs < MIN_PROTO_VERSION {
                return error_with(
                    "proto_too_old",
                    format!("client speaks protocol {theirs}; this daemon needs at least {MIN_PROTO_VERSION}"),
                    vec![("min_proto", Json::Num(MIN_PROTO_VERSION as f64))],
                );
            }
            ok(vec![
                ("proto_version", Json::Num(PROTO_VERSION as f64)),
                ("min_proto", Json::Num(MIN_PROTO_VERSION as f64)),
                (
                    "role",
                    Json::str(if shared.standby.load(Ordering::SeqCst) {
                        "standby"
                    } else {
                        "primary"
                    }),
                ),
            ])
        }
        Request::Promote => replication::promote(shared),
        Request::ReplList => replication::handle_list(shared),
        Request::ReplFetch { .. } => unreachable!("repl_fetch is intercepted in dispatch"),
        Request::ReplAck { relation, seq } => replication::handle_ack(shared, &relation, seq),
        Request::Close { relation } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return error("shutting_down", "daemon is shutting down");
            }
            // Poisoned tenants may still close — that's the cleanup path.
            let tenant = match shared.registry.get(&relation) {
                Ok(t) => t,
                Err(resp) => return resp,
            };
            let registry = shared.registry.clone();
            submit(shared, tenant.shard, |reply| Job::Close {
                registry,
                name: relation,
                reply,
            })
        }
        Request::Shutdown => {
            // swap, not store: exactly one caller wins; the rest get a
            // structured error instead of a duplicate drain.
            if shared.shutdown.swap(true, Ordering::SeqCst) {
                return error("shutting_down", "daemon is already shutting down");
            }
            // Ask the puller to stop now so it isn't mid-backoff when
            // `run` joins it (the join itself happens in `run`).
            shared.repl_stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `run` can proceed to drain.
            let _ = TcpStream::connect(shared.local);
            ok(vec![("shutting_down", Json::Bool(true))])
        }
    }
}

/// The wire selector for a phase prefix (inverse of `open`'s parsing).
fn phase_wire_name(phase: uniclean_core::Phase) -> &'static str {
    match phase {
        uniclean_core::Phase::CRepair => "c",
        uniclean_core::Phase::ERepair => "ce",
        uniclean_core::Phase::HRepair => "full",
    }
}

/// Submit a job to a shard queue; `busy` if the queue is full, waits for
/// the worker's reply otherwise.
pub(crate) fn submit(
    shared: &Arc<Shared>,
    shard: usize,
    make: impl FnOnce(SyncSender<Json>) -> Job,
) -> Json {
    let (reply_tx, reply_rx) = sync_channel::<Json>(1);
    {
        let guard = shared.senders.read().unwrap();
        let Some(senders) = guard.as_ref() else {
            return error("shutting_down", "daemon is shutting down");
        };
        let stats = &shared.shard_stats[shard];
        // Count the submission before try_send so a concurrent worker
        // completing a job can't drive the counter below zero.
        let depth = stats.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match senders[shard].try_send(make(reply_tx)) {
            Ok(()) => stats.record_enqueue(depth),
            Err(TrySendError::Full(_)) => {
                stats.depth.fetch_sub(1, Ordering::Relaxed);
                stats.record_busy();
                return error_with(
                    "busy",
                    format!("shard {shard} queue is full"),
                    vec![
                        ("shard", Json::Num(shard as f64)),
                        ("queue_depth", Json::Num((depth - 1) as f64)),
                        ("queue_bound", Json::Num(shared.queue_bound as f64)),
                    ],
                );
            }
            Err(TrySendError::Disconnected(_)) => {
                stats.depth.fetch_sub(1, Ordering::Relaxed);
                return error("shutting_down", "daemon is shutting down");
            }
        }
    }
    // Sender guard dropped: shutdown can proceed while we wait.
    match reply_rx.recv() {
        Ok(resp) => resp,
        Err(_) => error("internal", "shard worker exited before replying"),
    }
}

/// The `stats` verb: shard queue counters plus per-relation serving
/// stats, optionally narrowed to one relation.
fn stats_response(shared: &Arc<Shared>, relation: Option<&str>) -> Json {
    let tenants = match relation {
        None => shared.registry.snapshot(),
        Some(name) => match shared.registry.get(name) {
            Ok(t) => vec![t],
            Err(resp) => return resp,
        },
    };
    let relations = tenants
        .iter()
        .map(|t| relation_stats(shared, t))
        .collect::<Vec<_>>();
    let shards = shared
        .shard_stats
        .iter()
        .enumerate()
        .map(|(i, s)| s.to_json(i, shared.queue_bound))
        .collect::<Vec<_>>();
    ok(vec![
        ("shards", Json::Arr(shards)),
        ("relations", Json::Arr(relations)),
    ])
}

fn relation_stats(shared: &Arc<Shared>, tenant: &Arc<Tenant>) -> Json {
    // A poisoned tenant reports just its poisoning — its state is the
    // pre-failure remnant, not something to publish numbers from.
    if tenant.is_poisoned() {
        return Json::Obj(vec![
            ("relation".to_string(), Json::str(&tenant.name)),
            ("shard".to_string(), Json::Num(tenant.shard as f64)),
            ("poisoned".to_string(), Json::Bool(true)),
        ]);
    }
    // `stats` must stay online: a tenant mid-ingest holds its entry lock
    // for the whole `clean_delta`, so don't wait on it — report the
    // relation as busy and let the shard counters carry the liveness.
    let Ok(entry) = tenant.entry.try_read() else {
        return Json::Obj(vec![
            ("relation".to_string(), Json::str(&tenant.name)),
            ("shard".to_string(), Json::Num(tenant.shard as f64)),
            ("busy".to_string(), Json::Bool(true)),
        ]);
    };
    let phase_seconds = entry
        .stats
        .phase_seconds
        .iter()
        .map(|&s| Json::Num(s))
        .collect();
    let last_client_seq = entry.last_client_seq;
    let repl_seq = entry.repl_seq;
    let mut fields = vec![
        ("relation".to_string(), Json::str(&tenant.name)),
        ("shard".to_string(), Json::Num(tenant.shard as f64)),
        ("tuples".to_string(), Json::Num(entry.state.len() as f64)),
        (
            "consistent".to_string(),
            Json::Bool(entry.state.consistent()),
        ),
        ("deltas".to_string(), Json::Num(entry.state.deltas() as f64)),
        (
            "escalations".to_string(),
            Json::Num(entry.state.escalations() as f64),
        ),
        ("batches".to_string(), Json::Num(entry.stats.batches as f64)),
        (
            "tuples_ingested".to_string(),
            Json::Num(entry.stats.tuples_ingested as f64),
        ),
        ("fixes".to_string(), Json::Num(entry.stats.fixes as f64)),
        ("cost".to_string(), Json::Num(entry.state.cost())),
        ("phase_seconds".to_string(), Json::Arr(phase_seconds)),
    ];
    drop(entry);
    if let Some(cs) = last_client_seq {
        fields.push(("last_client_seq".to_string(), Json::Num(cs as f64)));
    }
    if let Some(rs) = repl_seq {
        fields.push(("repl_seq".to_string(), Json::Num(rs as f64)));
    }
    // Per-tenant replica health, present only once a replica has acked.
    if let Some(repl) = replication::relation_replication_json(shared, tenant) {
        fields.push(("replication".to_string(), repl));
    }
    Json::Obj(fields)
}
