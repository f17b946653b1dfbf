//! The served workload: a durable daemon in its own process, one client
//! connection, closed loop (each request waits for its reply), no
//! retries.
//!
//! * Set-up: spawn the daemon, `open` a HOSP tenant with its master rows,
//!   ingest the base in chunks. Repeated on fresh directories after the
//!   timed stream and at the end of the run; the median is `setup_s`.
//! * Timed: small ingests, each followed by point `check` reads of seeded
//!   random tuple ids ingested so far.
//! * Then a graceful shutdown and a cold restart on the same directory
//!   (recovery), and a fresh `--replicate-from` standby catching up.
//! * Outside every timed window: the relation is recomputed with
//!   `Cleaner::begin` on all ingested rows and compared with the dumps.
//!
//! The traced run first runs the same stream untraced, for the figures a
//! user sees. It then runs it again against a fresh daemon, replaying
//! each timed request line in process right after its reply, through the
//! same public functions the daemon calls, and splits each request's
//! round trip into those layers plus a residual (transport, queueing,
//! dispatch).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uniclean_core::{CleanConfig, Cleaner, MasterIndex, MasterSource, PhaseTimings, RepairState};
use uniclean_datagen::{hosp_workload, GenParams, Workload};
use uniclean_model::json::{
    batch_from_json, batch_to_ingest_json, relation_to_json, value_to_json,
};
use uniclean_model::{Json, Relation, Schema, Tuple, TupleId};
use uniclean_rules::{parse_rules, RuleSet};
use uniclean_server::protocol::{parse_request, OpenSpec, Request};
use uniclean_server::snapshot::{load_snapshots, sync_dir, write_snapshot, SnapshotDoc, SNAP_FILE};
use uniclean_server::wal::{batch_record, open_record, read_wal, WalWriter, WAL_FILE};
use uniclean_server::{tenant_dir_name, Daemon, DaemonConfig};

use crate::stats::{median, residual, tail_percentile, OpCount};
use crate::trace::Tracer;
use crate::{jobj, peak_rss_mb, Args, Report, RunCfg};

const RELATION: &str = "hosp";
/// Snapshot + WAL compaction every this many logged batches.
const SNAPSHOT_EVERY: u64 = 8;
/// How long any wait on a daemon may take before the run fails.
const DEADLINE: Duration = Duration::from_secs(60);

struct Sizes {
    master: usize,
    base: usize,
    chunk: usize,
    ingests: usize,
    batch: usize,
    checks: usize,
    setups: usize,
}

const FULL: Sizes = Sizes {
    master: 2_000,
    base: 2_000,
    chunk: 1_000,
    ingests: 100,
    batch: 20,
    checks: 20,
    setups: 4,
};

/// Small relations, same request counts: every check and every percentile
/// still runs.
const SMOKE: Sizes = Sizes {
    master: 100,
    base: 200,
    chunk: 100,
    ingests: 100,
    batch: 2,
    checks: 20,
    setups: 2,
};

/// `perfbench serve --data-dir <dir> [--replicate-from <addr>]`: a
/// durable, fsync'd, one-shard daemon on an ephemeral port that snapshots
/// every [`SNAPSHOT_EVERY`] logged batches, announced as
/// `listening <addr>` on stdout.
pub fn daemon_main(args: &Args) -> Result<(), String> {
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        data_dir: Some(PathBuf::from(
            args.get("data-dir").ok_or("--data-dir is required")?,
        )),
        snapshot_every: SNAPSHOT_EVERY,
        fsync: true,
        replicate_from: args.get("replicate-from").map(str::to_string),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind(config).map_err(|e| format!("bind: {e}"))?;
    println!("listening {}", daemon.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    daemon.run().map_err(|e| format!("serve: {e}"))
}

/// A daemon child process, killed and reaped if dropped while running.
struct Proc {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Proc {
    fn spawn(dir: &Path, primary: Option<&str>) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg("--data-dir").arg(dir);
        if let Some(p) = primary {
            cmd.arg("--replicate-from").arg(p);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line.trim().strip_prefix("listening ").map(str::to_string),
            Err(_) => None,
        };
        let mut proc = Proc {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        proc.addr = addr.ok_or_else(|| format!("daemon did not announce its address: {line:?}"))?;
        Ok(proc)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful stop: `shutdown`, then wait until the process has exited.
    fn shutdown(mut self, ops: &mut OpCount) -> Result<(), String> {
        Conn::connect(&self.addr)?.call(ops, "{\"op\":\"shutdown\"}\n")?;
        let deadline = Instant::now() + DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(DEADLINE))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// One round trip of a newline-terminated request line: the clock
    /// runs from the first byte written to the reply line read.
    fn rpc(&mut self, line: &str) -> Result<(Json, f64), String> {
        let started = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        let rtt = started.elapsed().as_secs_f64();
        if n == 0 {
            return Err("connection closed without a reply".into());
        }
        let doc = Json::parse(&reply).map_err(|e| format!("reply does not parse: {e}"))?;
        Ok((doc, rtt))
    }

    /// [`Conn::rpc`], counted: an error reply, a `busy` refusal or a
    /// missing reply counts as failed and stops the run (no retries).
    fn call(&mut self, ops: &mut OpCount, line: &str) -> Result<(Json, f64), String> {
        match self.rpc(line) {
            Ok((doc, rtt)) if doc.get("ok").and_then(Json::as_bool) == Some(true) => {
                ops.record(true);
                Ok((doc, rtt))
            }
            Ok((doc, _)) => {
                ops.record(false);
                Err(format!("request {} answered {doc}", op_name(line)))
            }
            Err(e) => {
                ops.record(false);
                Err(format!("request {}: {e}", op_name(line)))
            }
        }
    }
}

fn op_name(line: &str) -> String {
    Json::parse(line)
        .ok()
        .and_then(|d| d.get("op").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| "?".into())
}

fn line_of(doc: Json) -> String {
    let mut s = doc.render();
    s.push('\n');
    s
}

/// Rules in the parser grammar. Datagen names rules like `hm1#1`, and `#`
/// starts a comment there, so names are mapped to identifier characters.
fn rules_as_text(rules: &RuleSet) -> String {
    fn safe_name(line: String) -> String {
        match line.split_once(':') {
            Some((name, rest)) => {
                let name: String = name
                    .chars()
                    .map(|c| {
                        if c.is_alphanumeric() || "_-.".contains(c) {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                format!("{name}:{rest}")
            }
            None => line,
        }
    }
    let mut text = String::new();
    for cfd in rules.cfds() {
        let _ = writeln!(text, "cfd {}", safe_name(cfd.to_string()));
    }
    for md in rules.mds() {
        let _ = writeln!(text, "md {}", safe_name(md.to_string()));
    }
    text
}

/// Rows in the ingest wire shape with explicit `[value, cf]` cells.
fn rows_json(rows: &[Tuple]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|t| {
                Json::Arr(
                    t.cells()
                        .iter()
                        .map(|c| Json::Arr(vec![value_to_json(&c.value), Json::Num(c.cf)]))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn attr_names(schema: &Schema) -> Json {
    Json::Arr(
        schema
            .attrs()
            .iter()
            .map(|a| Json::str(a.name.as_str()))
            .collect(),
    )
}

fn open_line(w: &Workload) -> String {
    line_of(jobj(vec![
        ("op", Json::str("open")),
        ("relation", Json::str(RELATION)),
        ("table", Json::str(w.dirty.schema().name())),
        ("attrs", attr_names(w.dirty.schema())),
        ("rules", Json::str(rules_as_text(&w.rules))),
        (
            "master",
            jobj(vec![
                ("table", Json::str(w.master.schema().name())),
                ("attrs", attr_names(w.master.schema())),
                ("rows", rows_json(&w.master.to_tuples())),
            ]),
        ),
        ("phase", Json::str("full")),
        ("eta", Json::Num(1.0)),
        ("delta_entropy", Json::Num(0.8)),
        ("threads", Json::Num(1.0)),
    ]))
}

fn ingest_line(rows: &[Tuple]) -> String {
    line_of(jobj(vec![
        ("op", Json::str("ingest")),
        ("relation", Json::str(RELATION)),
        ("rows", rows_json(rows)),
    ]))
}

fn simple_line(op: &str) -> String {
    line_of(jobj(vec![
        ("op", Json::str(op)),
        ("relation", Json::str(RELATION)),
    ]))
}

fn check_line(tuple: usize) -> String {
    line_of(jobj(vec![
        ("op", Json::str("check")),
        ("relation", Json::str(RELATION)),
        ("tuple", Json::Num(tuple as f64)),
    ]))
}

/// SplitMix64: the seeded choice of tuple ids to read.
struct Ids(u64);

impl Ids {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The session a tenant builds from its `open` spec, as the registry does:
/// schema → master rows (full confidence by default) → rules → config.
fn tenant_cleaner(spec: &OpenSpec) -> Result<Cleaner, String> {
    fn names(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }
    let schema = Schema::of_strings(&spec.table, &names(&spec.attrs));
    let m = spec.master.as_ref().ok_or("the HOSP tenant has a master")?;
    let ms = Schema::of_strings(&m.table, &names(&m.attrs));
    let rows = m.rows.as_ref().ok_or("the HOSP tenant ships master rows")?;
    let mut master = Relation::empty(ms.clone());
    for t in batch_from_json(rows, ms.arity(), 1.0).map_err(|e| e.to_string())? {
        master.push(t);
    }
    let parsed = parse_rules(&spec.rules, &schema, Some(&ms)).map_err(|e| e.to_string())?;
    let rules = RuleSet::try_new(
        schema,
        Some(ms),
        parsed.cfds,
        parsed.positive_mds,
        parsed.negative_mds,
    )
    .map_err(|e| e.to_string())?;
    let mut config = CleanConfig::default();
    config.eta = spec.eta.unwrap_or(config.eta);
    config.delta_entropy = spec.delta_entropy.unwrap_or(config.delta_entropy);
    config.parallelism = spec.threads.and_then(NonZeroUsize::new);
    Cleaner::builder()
        .rules(rules)
        .master(MasterSource::External(Arc::new(master)))
        .config(config)
        .build()
        .map_err(|e| e.to_string())
}

fn open_spec(line: &str) -> Result<OpenSpec, String> {
    match parse_request(line) {
        Ok(Request::Open(spec)) => Ok(*spec),
        _ => Err("not an open request".into()),
    }
}

fn ingest_rows(line: &str, arity: usize, default_cf: f64) -> Result<Vec<Tuple>, String> {
    match parse_request(line) {
        Ok(Request::Ingest { rows, .. }) => {
            batch_from_json(&rows, arity, default_cf).map_err(|e| e.to_string())
        }
        _ => Err("not an ingest request".into()),
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// `relations[0]` of a `stats` reply.
fn relation_stats(stats: &Json) -> Option<&Json> {
    stats.get("relations")?.as_arr()?.first()
}

/// Every request line the run sends, built before anything is timed.
struct Requests {
    open: String,
    base: Vec<String>,
    batches: Vec<String>,
    /// The point checks that follow each batch.
    checks: Vec<Vec<String>>,
}

/// What the stream observed.
struct Stream {
    /// The primary's data directory.
    dir: PathBuf,
    ingest_rtt: Vec<f64>,
    check_rtt: Vec<f64>,
    /// Traced runs only: each timed request's replayed layers.
    ingest_layers: Vec<Layers>,
    check_layers: Vec<Layers>,
    /// The daemon's own cumulative `stats.phase_seconds` before shutdown.
    daemon_phase_seconds: f64,
    dump_rows: String,
    /// Measured values, by metric name.
    figures: Vec<(&'static str, f64)>,
}

pub fn run(cfg: &RunCfg, report: &mut Report) -> Result<(), String> {
    let s = if cfg.smoke { SMOKE } else { FULL };
    let total = s.base + s.ingests * s.batch;
    let w = hosp_workload(&GenParams {
        tuples: total,
        master_tuples: s.master,
        seed: cfg.seed,
        ..GenParams::default()
    });
    for (key, v) in [
        ("tuples", total),
        ("master_tuples", s.master),
        ("base_tuples", s.base),
        ("base_chunk", s.chunk),
        ("ingests", s.ingests),
        ("ingest_tuples", s.batch),
        ("checks_per_ingest", s.checks),
        ("setups", s.setups),
        ("shards", 1),
        ("tenant_threads", 1),
        ("snapshot_every", SNAPSHOT_EVERY as usize),
    ] {
        report.info(key, Json::Num(v as f64));
    }
    report.info("fsync", Json::str("on: WAL sync_data before every ack"));

    let rows = w.dirty.to_tuples();
    let mut ids = Ids(cfg.seed ^ 0x5EED_C4EC);
    let req = Requests {
        open: open_line(&w),
        base: rows[..s.base].chunks(s.chunk).map(ingest_line).collect(),
        batches: rows[s.base..].chunks(s.batch).map(ingest_line).collect(),
        checks: (0..s.ingests)
            .map(|i| {
                let ingested = s.base + (i + 1) * s.batch;
                (0..s.checks)
                    .map(|_| check_line(ids.below(ingested)))
                    .collect()
            })
            .collect(),
    };

    // Every figure comes from a stream with nothing else running between
    // its requests.
    let plain = stream(&cfg.work.join("plain"), &s, &req, None, report)?;
    for &(name, value) in &plain.figures {
        report.set(name, value);
    }
    // The traced run then sends the same requests to a fresh daemon and
    // replays each in process right after its reply; only the per-request
    // residuals come from this second stream.
    let replayed = if cfg.traced {
        let mut replay = Replay::new(&req.open, cfg.work.join("traced"))?;
        let sizes = Sizes { setups: 1, ..s };
        let dir = cfg.work.join("replayed");
        let stream = stream(&dir, &sizes, &req, Some(&mut replay), report)?;
        Some((replay, stream))
    } else {
        None
    };

    // The primary's relation equals a from-scratch begin over every
    // ingested row, computed outside the timed windows.
    let spec = open_spec(&req.open)?;
    let cleaner = tenant_cleaner(&spec)?;
    let arity = cleaner.rules().schema().arity();
    let mut all = Relation::empty(cleaner.rules().schema().clone());
    for line in req.base.iter().chain(&req.batches) {
        for t in ingest_rows(line, arity, spec.default_cf)? {
            all.push(t);
        }
    }
    let (reference, _) = cleaner.begin(&all, spec.phase);
    let reference_rows = relation_to_json(reference.repaired()).render();
    for stream in std::iter::once(&plain).chain(replayed.as_ref().map(|r| &r.1)) {
        report.check(stream.dump_rows == reference_rows, || {
            "the primary's dump differs from Cleaner::begin on the ingested rows".into()
        });
    }
    let q = uniclean_metrics::repair_quality(&w.dirty, reference.repaired(), &w.truth);
    report.set("repair_precision", q.precision);
    report.set("repair_recall", q.recall);
    report.set("repair_f1", q.f1());

    if let Some((replay, stream)) = replayed {
        traced(&s, &req, replay, &stream, report)?;
    }
    Ok(())
}

/// Set-up, the timed stream, restart and catch-up, with every daemon
/// directory under `work`. With a `replay`, each timed request is
/// replayed in process right after its reply, while the daemon idles, so
/// a request's round trip and its layers are measured under the same host
/// conditions.
fn stream(
    work: &Path,
    s: &Sizes,
    req: &Requests,
    mut replay: Option<&mut Replay>,
    report: &mut Report,
) -> Result<Stream, String> {
    let total = s.base + s.ingests * s.batch;
    let mut figures = Vec::new();

    // Set-up. This daemon serves the stream; more set-ups on fresh
    // directories follow the timed stream and end the run, so `setup_s`
    // is a median over the whole run rather than one moment of the
    // host's speed.
    let dir = work.join("primary-0");
    let (primary, mut c, first) = set_up(&dir, req, &mut report.ops)?;
    let mut setups = vec![first];
    if let Some(r) = replay.as_deref_mut() {
        for line in &req.base {
            r.ingest(line)?;
        }
    }

    // Timed: ingests, each followed by point checks.
    let mut ingest_rtt = Vec::with_capacity(s.ingests);
    let mut check_rtt = Vec::with_capacity(s.ingests * s.checks);
    let (mut ingest_layers, mut check_layers) = (Vec::new(), Vec::new());
    for (line, checks) in req.batches.iter().zip(&req.checks) {
        let (reply, rtt) = c.call(&mut report.ops, line)?;
        ingest_rtt.push(rtt);
        report.check(
            reply.get("ingested").and_then(Json::as_usize) == Some(s.batch),
            || format!("ingest reply {reply}"),
        );
        if let Some(r) = replay.as_deref_mut() {
            ingest_layers.push(r.ingest(line)?);
        }
        for check in checks {
            check_rtt.push(c.call(&mut report.ops, check)?.1);
            if let Some(r) = replay.as_deref_mut() {
                check_layers.push(r.check(check)?);
            }
        }
    }
    figures.push(("op_p50_ms", median(&ingest_rtt).unwrap() * 1e3));
    figures.push((
        "server.ingest.p90_ms",
        tail_percentile(&ingest_rtt, 90.0)? * 1e3,
    ));
    figures.push(("server.check.p50_us", median(&check_rtt).unwrap() * 1e6));
    figures.push((
        "server.check.p99_us",
        tail_percentile(&check_rtt, 99.0)? * 1e6,
    ));
    figures.push((
        "peak_rss_mb",
        peak_rss_mb(&primary.pid()).ok_or("cannot read the daemon's VmHWM")?,
    ));
    if s.setups > 1 {
        setups.push(throwaway_set_up(work, setups.len(), req, &mut report.ops)?);
    }

    let (verdict, _) = c.call(&mut report.ops, &simple_line("check"))?;
    report.check(
        verdict.get("consistent").and_then(Json::as_bool) == Some(true)
            && verdict.get("tuples").and_then(Json::as_usize) == Some(total),
        || format!("relation-level check answered {verdict}"),
    );
    let (stats, _) = c.call(&mut report.ops, &simple_line("stats"))?;
    let daemon_phase_seconds: f64 = relation_stats(&stats)
        .and_then(|r| r.get("phase_seconds"))
        .and_then(Json::as_arr)
        .ok_or("stats has no phase_seconds")?
        .iter()
        .filter_map(Json::as_f64)
        .sum();
    let dump_rows = dump(&mut c, &mut report.ops)?;
    drop(c);
    primary.shutdown(&mut report.ops)?;

    // Cold restart on the same directory: spawn → first ping answered.
    let started = Instant::now();
    let primary = Proc::spawn(&dir, None)?;
    let mut c = Conn::connect(&primary.addr)?;
    c.call(&mut report.ops, "{\"op\":\"ping\"}\n")?;
    figures.push(("server.recovery.total_s", started.elapsed().as_secs_f64()));
    let (verdict, _) = c.call(&mut report.ops, &simple_line("check"))?;
    report.check(
        verdict.get("tuples").and_then(Json::as_usize) == Some(total),
        || format!("after restart the relation has {verdict}"),
    );
    let rows = dump(&mut c, &mut report.ops)?;
    report.check(rows == dump_rows, || {
        "the dump after recovery differs from the dump before shutdown".into()
    });

    // A fresh standby catches up: spawn → the primary reports 0 lag frames.
    let tenant = dir.join(tenant_dir_name(RELATION));
    figures.push((
        "server.replication.lag_bytes_start",
        (file_len(&tenant.join(WAL_FILE)) + file_len(&tenant.join(SNAP_FILE))) as f64,
    ));
    let started = Instant::now();
    let standby = Proc::spawn(&work.join("standby"), Some(&primary.addr))?;
    loop {
        let (stats, _) = c.call(&mut report.ops, &simple_line("stats"))?;
        let lag = relation_stats(&stats)
            .and_then(|r| r.get("replication"))
            .and_then(|r| r.get("lag_frames"))
            .and_then(Json::as_u64);
        if lag == Some(0) {
            break;
        }
        if started.elapsed() > DEADLINE {
            return Err("the standby did not catch up".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    figures.push((
        "server.replication.catchup_s",
        started.elapsed().as_secs_f64(),
    ));
    let mut sc = Conn::connect(&standby.addr)?;
    let (ping, _) = sc.call(&mut report.ops, "{\"op\":\"ping\"}\n")?;
    figures.push((
        "server.replication.frames_applied",
        ping.get("replication")
            .and_then(|r| r.get("frames_applied"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    ));
    let rows = dump(&mut sc, &mut report.ops)?;
    report.check(rows == dump_rows, || {
        "the standby's dump differs from the primary's".into()
    });
    drop((c, sc));
    standby.shutdown(&mut report.ops)?;
    primary.shutdown(&mut report.ops)?;
    while setups.len() < s.setups {
        setups.push(throwaway_set_up(work, setups.len(), req, &mut report.ops)?);
    }
    figures.push(("setup_s", median(&setups).unwrap()));
    Ok(Stream {
        dir,
        ingest_rtt,
        check_rtt,
        ingest_layers,
        check_layers,
        daemon_phase_seconds,
        dump_rows,
        figures,
    })
}

/// Spawn a daemon on `dir`, `open` the tenant and ingest the base: the
/// daemon, its connection and the seconds it took.
fn set_up(dir: &Path, req: &Requests, ops: &mut OpCount) -> Result<(Proc, Conn, f64), String> {
    let started = Instant::now();
    let p = Proc::spawn(dir, None)?;
    let mut c = Conn::connect(&p.addr)?;
    c.call(ops, &req.open)?;
    for line in &req.base {
        c.call(ops, line)?;
    }
    Ok((p, c, started.elapsed().as_secs_f64()))
}

/// One more set-up on a fresh directory, shut down and removed after.
fn throwaway_set_up(
    work: &Path,
    n: usize,
    req: &Requests,
    ops: &mut OpCount,
) -> Result<f64, String> {
    let dir = work.join(format!("primary-{n}"));
    let (p, c, seconds) = set_up(&dir, req, ops)?;
    drop(c);
    p.shutdown(ops)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(seconds)
}

fn dump(c: &mut Conn, ops: &mut OpCount) -> Result<String, String> {
    let (d, _) = c.call(ops, &simple_line("dump"))?;
    Ok(d.get("rows").ok_or("dump has no rows")?.render())
}

/// A tenant replayed in process: the daemon's per-request work, each
/// step inside its own span.
struct Replay {
    t: Tracer,
    cleaner: Cleaner,
    state: RepairState,
    default_cf: f64,
    dir: PathBuf,
    wal: WalWriter,
    open_doc: Json,
    seq: u64,
    since_snapshot: u64,
    base_rows: Vec<Json>,
    tuples: u64,
    fixes: u64,
    phase_seconds: [f64; 3],
}

/// One replayed request's layers, in seconds.
#[derive(Default)]
struct Layers {
    decode: f64,
    parse: f64,
    engine: f64,
    phases: [f64; 3],
    encode: f64,
    append: f64,
    fsync: f64,
    snapshot: Option<(f64, u64)>,
    wal_bytes: u64,
}

impl Layers {
    /// Everything the daemon does for the request, each step once.
    fn sum(&self) -> f64 {
        self.decode
            + self.parse
            + self.engine
            + self.encode
            + self.append
            + self.fsync
            + self.snapshot.map_or(0.0, |s| s.0)
    }
}

impl Replay {
    fn new(open: &str, dir: PathBuf) -> Result<Replay, String> {
        let mut t = Tracer::default();
        let spec = open_spec(open)?;
        let cleaner = t.span("core.session.build", || tenant_cleaner(&spec))?;
        let MasterSource::External(dm) = cleaner.master() else {
            return Err("the HOSP tenant has an external master".into());
        };
        t.span("core.master_index.build", || {
            MasterIndex::build_parallel(cleaner.rules().mds(), dm, cleaner.config().interning, 1)
        });
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        // fsync is timed on its own, so appends do not sync.
        let mut wal = WalWriter::create(&dir.join(WAL_FILE), false).map_err(|e| e.to_string())?;
        let open_doc = Json::parse(open).map_err(|e| e.to_string())?;
        wal.append(&open_record(&open_doc))
            .map_err(|e| e.to_string())?;
        Ok(Replay {
            t,
            state: cleaner.begin_empty(spec.phase),
            cleaner,
            default_cf: spec.default_cf,
            dir,
            wal,
            open_doc,
            seq: 0,
            since_snapshot: 0,
            base_rows: Vec::new(),
            tuples: 0,
            fixes: 0,
            phase_seconds: [0.0; 3],
        })
    }

    fn ingest(&mut self, line: &str) -> Result<Layers, String> {
        let mut l = Layers::default();
        let t = &mut self.t;
        let id = t.begin("server.protocol.parse");
        let request = parse_request(line);
        l.parse = t.end(id);
        let Ok(Request::Ingest { rows, .. }) = request else {
            return Err("not an ingest request".into());
        };
        let arity = self.cleaner.rules().schema().arity();
        let id = t.begin("model.json.decode");
        let rows = batch_from_json(&rows, arity, self.default_cf);
        l.decode = t.end(id);
        let rows = rows.map_err(|e| e.to_string())?;

        let offset = self.state.len();
        let escalations = self.state.escalations();
        let mut timings = PhaseTimings::default();
        let id = t.begin("core.incremental.clean_delta");
        let res = self
            .cleaner
            .clean_delta_observed(&mut self.state, &rows, &mut timings);
        l.engine = t.end(id);
        let res = res.map_err(|e| e.to_string())?;
        l.phases = timings.seconds();
        let (d, r, p) = res.fix_counts();
        self.fixes += (d + r + p) as u64;
        self.tuples += rows.len() as u64;
        for (slot, s) in self.phase_seconds.iter_mut().zip(l.phases) {
            *slot += s;
        }

        let id = t.begin("model.json.encode");
        let reply = jobj(vec![
            ("ok", Json::Bool(true)),
            ("relation", Json::str(RELATION)),
            ("offset", Json::Num(offset as f64)),
            ("ingested", Json::Num(rows.len() as f64)),
            ("total", Json::Num(self.state.len() as f64)),
            ("fixes", Json::Num((d + r + p) as f64)),
            ("consistent", Json::Bool(res.consistent)),
            (
                "escalated",
                Json::Bool(self.state.escalations() > escalations),
            ),
            ("cost", Json::Num(self.state.cost())),
        ])
        .render();
        l.encode = t.end(id);
        std::hint::black_box(reply);

        let before = file_len(&self.dir.join(WAL_FILE));
        let id = t.begin("server.wal.append");
        let rows_json = batch_to_ingest_json(&rows);
        self.seq += 1;
        let appended = self
            .wal
            .append(&batch_record(self.seq, rows_json.clone(), None, None));
        l.append = t.end(id);
        appended.map_err(|e| e.to_string())?;
        let id = t.begin("server.wal.fsync");
        let synced = self.wal.sync_all();
        l.fsync = t.end(id);
        synced.map_err(|e| e.to_string())?;
        l.wal_bytes = file_len(&self.dir.join(WAL_FILE)) - before;
        if let Json::Arr(v) = rows_json {
            self.base_rows.extend(v);
        }
        self.since_snapshot += 1;
        if self.since_snapshot >= SNAPSHOT_EVERY {
            let id = self.t.begin("server.snapshot");
            let written = self.compact();
            let secs = self.t.end(id);
            written.map_err(|e| e.to_string())?;
            l.snapshot = Some((secs, file_len(&self.dir.join(SNAP_FILE))));
        }
        Ok(l)
    }

    /// Snapshot, then rewrite the WAL down to its `open` record — the
    /// daemon's compaction, with fsync on.
    fn compact(&mut self) -> std::io::Result<()> {
        let doc = SnapshotDoc {
            seq: self.seq,
            open: self.open_doc.clone(),
            base_rows: Json::Arr(self.base_rows.clone()),
            batches: self.seq,
            tuples_ingested: self.tuples,
            fixes: self.fixes,
            phase_seconds: self.phase_seconds,
            repaired: relation_to_json(self.state.repaired()),
            cost: self.state.cost(),
            last_client_seq: None,
            repl_seq: None,
        };
        write_snapshot(&self.dir, &doc, true)?;
        let tmp = self.dir.join("wal.log.new");
        let mut fresh = WalWriter::create(&tmp, false)?;
        fresh.append(&open_record(&self.open_doc))?;
        fresh.sync_all()?;
        std::fs::rename(&tmp, self.dir.join(WAL_FILE))?;
        sync_dir(&self.dir)?;
        fresh.sync_all()?;
        self.wal = fresh;
        self.since_snapshot = 0;
        Ok(())
    }

    fn check(&mut self, line: &str) -> Result<Layers, String> {
        let mut l = Layers::default();
        let t = &mut self.t;
        let id = t.begin("server.protocol.parse");
        let request = parse_request(line);
        l.parse = t.end(id);
        let Ok(Request::Check {
            tuple: Some(tid), ..
        }) = request
        else {
            return Err("not a point check".into());
        };
        let id = t.begin("core.incremental.check");
        let violations = self.state.violations(TupleId::from(tid));
        l.engine = t.end(id);
        let id = t.begin("model.json.encode");
        let reply = jobj(vec![
            ("ok", Json::Bool(true)),
            ("relation", Json::str(RELATION)),
            ("tuple", Json::Num(tid as f64)),
            ("accepted", Json::Bool(violations.is_empty())),
            (
                "violations",
                Json::Arr(
                    violations
                        .iter()
                        .map(|v| {
                            jobj(vec![
                                ("rule", Json::str(v.rule.as_str())),
                                ("kind", Json::str(format!("{:?}", v.kind))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render();
        l.encode = t.end(id);
        std::hint::black_box(reply);
        Ok(l)
    }
}

fn med(v: impl IntoIterator<Item = f64>) -> f64 {
    median(&v.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn traced(
    s: &Sizes,
    req: &Requests,
    r: Replay,
    stream: &Stream,
    report: &mut Report,
) -> Result<(), String> {
    let (ingests, checks) = (&stream.ingest_layers, &stream.check_layers);
    report.check(
        relation_to_json(r.state.repaired()).render() == stream.dump_rows,
        || "the in-process replay differs from the daemon's dump".into(),
    );

    // The replay's engine seconds against the daemon's own, same batches.
    let replay_phase_seconds: f64 = r.phase_seconds.iter().sum();
    let gap = replay_phase_seconds - stream.daemon_phase_seconds;
    report.check(
        gap.abs() <= 0.5 * stream.daemon_phase_seconds + 0.05,
        || {
            format!(
                "replayed phase seconds {replay_phase_seconds:.3} vs the daemon's {:.3}",
                stream.daemon_phase_seconds
            )
        },
    );
    report.set("trace.overhead_share", gap / stream.daemon_phase_seconds);

    let request_bytes = med(req.batches.iter().map(|l| l.len() as f64));
    report.set("model.json.request_bytes", request_bytes);
    report.set(
        "model.json.decode_us",
        med(ingests.iter().map(|l| l.decode * 1e6)),
    );
    report.set(
        "model.json.encode_us",
        med(ingests.iter().map(|l| l.encode * 1e6)),
    );
    report.set(
        "server.protocol.parse_us",
        med(ingests.iter().map(|l| l.parse * 1e6)),
    );
    let delta_ms: Vec<f64> = ingests.iter().map(|l| l.engine * 1e3).collect();
    report.set("core.incremental.clean_delta_p50_ms", med(delta_ms.clone()));
    report.set(
        "core.incremental.clean_delta_p90_ms",
        tail_percentile(&delta_ms, 90.0)?,
    );
    for (i, name) in ["crepair_ms", "erepair_ms", "hrepair_ms"]
        .iter()
        .enumerate()
    {
        report.set(
            &format!("core.incremental.{name}"),
            med(ingests.iter().map(|l| l.phases[i] * 1e3)),
        );
    }
    report.set(
        "core.incremental.other_ms",
        med(ingests
            .iter()
            .map(|l| (l.engine - l.phases.iter().sum::<f64>()) * 1e3)),
    );
    report.set("core.incremental.escalations", r.state.escalations() as f64);
    report.set(
        "core.incremental.check_us",
        med(checks.iter().map(|l| l.engine * 1e6)),
    );
    report.set(
        "server.wal.append_us",
        med(ingests.iter().map(|l| l.append * 1e6)),
    );
    report.set(
        "server.wal.fsync_us",
        med(ingests.iter().map(|l| l.fsync * 1e6)),
    );
    report.set(
        "server.wal.bytes_per_tuple",
        ingests.iter().map(|l| l.wal_bytes).sum::<u64>() as f64 / (s.ingests * s.batch) as f64,
    );
    let snaps: Vec<(f64, u64)> = ingests.iter().filter_map(|l| l.snapshot).collect();
    report.info("snapshot_ingests", Json::Num(snaps.len() as f64));
    report.set(
        "server.snapshot.write_ms",
        med(snaps.iter().map(|s| s.0 * 1e3)),
    );
    report.set(
        "server.snapshot.bytes",
        med(snaps.iter().map(|s| s.1 as f64)),
    );
    report.set("core.session.build_s", r.t.total("core.session.build"));
    report.set(
        "core.master_index.build_s",
        r.t.total("core.master_index.build"),
    );

    // Each request's residual: its untraced round trip minus its layers.
    let ingest_rest: Vec<f64> = stream
        .ingest_rtt
        .iter()
        .zip(ingests)
        .map(|(rtt, l)| residual(*rtt, &[l.sum()]))
        .collect();
    let check_rest: Vec<f64> = stream
        .check_rtt
        .iter()
        .zip(checks)
        .map(|(rtt, l)| residual(*rtt, &[l.sum()]))
        .collect();
    let ingest_total: f64 = stream.ingest_rtt.iter().sum();
    let check_total: f64 = stream.check_rtt.iter().sum();
    report.set(
        "server.ingest.residual_ms",
        med(ingest_rest.iter().map(|x| x * 1e3)),
    );
    report.set(
        "server.ingest.residual_share",
        ingest_rest.iter().sum::<f64>() / ingest_total,
    );
    report.set(
        "server.check.residual_us",
        med(check_rest.iter().map(|x| x * 1e6)),
    );
    report.set(
        "server.check.residual_share",
        check_rest.iter().sum::<f64>() / check_total,
    );
    r.t.print_summary();
    print_attribution(ingests, &stream.ingest_rtt, &ingest_rest);

    recover(stream, report)
}

/// Mean per-ingest seconds by layer; the rows sum to the mean round trip.
fn print_attribution(ingests: &[Layers], rtt: &[f64], rest: &[f64]) {
    let n = ingests.len() as f64;
    let mean = |f: &dyn Fn(&Layers) -> f64| ingests.iter().map(f).sum::<f64>() / n;
    let rtt_mean = rtt.iter().sum::<f64>() / n;
    let rows: [(&str, f64); 11] = [
        ("model.json.decode", mean(&|l| l.decode)),
        ("server.protocol.parse", mean(&|l| l.parse)),
        ("core.crepair (delta)", mean(&|l| l.phases[0])),
        ("core.erepair (delta)", mean(&|l| l.phases[1])),
        ("core.hrepair (delta)", mean(&|l| l.phases[2])),
        (
            "core.incremental other",
            mean(&|l| l.engine - l.phases.iter().sum::<f64>()),
        ),
        ("model.json.encode", mean(&|l| l.encode)),
        ("server.wal.append", mean(&|l| l.append)),
        ("server.wal.fsync", mean(&|l| l.fsync)),
        (
            "server.snapshot",
            mean(&|l| l.snapshot.map_or(0.0, |s| s.0)),
        ),
        ("residual", rest.iter().sum::<f64>() / n),
    ];
    println!(
        "attribution ingest round trip mean = {:.3} ms",
        rtt_mean * 1e3
    );
    for (name, secs) in rows {
        println!(
            "attribution   {name:<24} {:>9.3} ms  {:>6.1}%",
            secs * 1e3,
            100.0 * secs / rtt_mean
        );
    }
}

/// Recovery's steps, in process, on the primary's directory after every
/// daemon has stopped.
fn recover(stream: &Stream, report: &mut Report) -> Result<(), String> {
    let tenant = stream.dir.join(tenant_dir_name(RELATION));
    let mut t = Tracer::default();
    let snaps = t.span("server.recovery.snapshot_load", || load_snapshots(&tenant));
    let wal = t
        .span("server.recovery.wal_read", || {
            read_wal(&tenant.join(WAL_FILE))
        })
        .map_err(|e| e.to_string())?;
    let id = t.begin("server.recovery.replay");
    let snap = snaps.first();
    let open_doc = snap
        .map(|s| s.open.clone())
        .or_else(|| wal.open.clone())
        .ok_or("no open record")?;
    let spec = open_spec(&open_doc.render())?;
    let cleaner = tenant_cleaner(&spec)?;
    let arity = cleaner.rules().schema().arity();
    let mut state = cleaner.begin_empty(spec.phase);
    let mut covered = 0;
    let mut intact = true;
    if let Some(s) = snap {
        let rows =
            batch_from_json(&s.base_rows, arity, spec.default_cf).map_err(|e| e.to_string())?;
        cleaner
            .clean_delta(&mut state, &rows)
            .map_err(|e| e.to_string())?;
        intact = relation_to_json(state.repaired()).render() == s.repaired.render();
        covered = s.seq;
    }
    let mut replayed = 0;
    for b in wal.batches.iter().filter(|b| b.seq > covered) {
        let rows = batch_from_json(&b.rows, arity, spec.default_cf).map_err(|e| e.to_string())?;
        cleaner
            .clean_delta(&mut state, &rows)
            .map_err(|e| e.to_string())?;
        replayed += 1;
    }
    t.end(id);
    t.print_summary();
    report.check(intact, || {
        "the snapshot's base replay differs from its stored relation".into()
    });
    report.check(
        relation_to_json(state.repaired()).render() == stream.dump_rows,
        || "recovery's replay differs from the daemon's dump".into(),
    );
    report.set(
        "server.recovery.snapshot_load_ms",
        t.total("server.recovery.snapshot_load") * 1e3,
    );
    report.set(
        "server.recovery.wal_read_ms",
        t.total("server.recovery.wal_read") * 1e3,
    );
    report.set(
        "server.recovery.replay_ms",
        t.total("server.recovery.replay") * 1e3,
    );
    report.set("server.recovery.replayed_batches", replayed as f64);
    report.set(
        "server.recovery.wal_bytes",
        file_len(&tenant.join(WAL_FILE)) as f64,
    );
    Ok(())
}
