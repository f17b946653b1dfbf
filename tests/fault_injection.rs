//! Fault-injection matrix over every durability kill window, against the
//! real spawned `uniclean serve` binary (compile with
//! `--features failpoints`; CI runs this as its own job).
//!
//! Each case arms one failpoint via `UNICLEAN_FAILPOINTS`, drives the
//! daemon to the window, lets it abort there, restarts on the same data
//! directory, and pins the recovered state **bit-identically** to the
//! serial reference of exactly the batch set the ack protocol promises:
//!
//! * kill before the WAL frame (or mid-frame, or before the apply): the
//!   in-flight batch was never durable → recovery yields the acked
//!   prefix only;
//! * kill after the frame is fully written (pre/post fsync, post ack):
//!   the batch is on disk → recovery yields acked + in-flight;
//! * kill anywhere inside snapshot compaction: the WAL still carries
//!   every logged batch → nothing is lost, in any of the three windows.
//!
//! The `error` action exercises the non-fatal paths: a transient
//! snapshot-write failure is retried with backoff and the ingest still
//! acks; a WAL append failure poisons the tenant (never acks) while the
//! rest of the daemon — and the tenant itself after a restart — keeps
//! serving; a failed `accept()` is logged and retried, never fatal. The
//! `panic` action exercises blast-radius isolation: a panicking apply
//! poisons one tenant, the daemon and its other tenants answer on.

#![cfg(feature = "failpoints")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use uniclean::model::json::{relation_to_json, Json};
use uniclean::model::{Relation, Schema, Tuple};
use uniclean::rules::{parse_rules, RuleSet};
use uniclean::server::{tenant_dir_name, Daemon, DaemonConfig};
use uniclean::{CleanConfig, Cleaner, MasterSource, Phase};

const RULES: &str = "cfd fd: data([K] -> [A])\n\
                     cfd cc: data([A=a1] -> [B=b1])\n\
                     md m: data[K] = m[K] -> data[B] <=> m[B]";

const BATCHES: [&[[&str; 3]]; 4] = [
    &[["k0", "a1", "b9"], ["k1", "a2", "b2"]],
    &[["k2", "a3", "b3"], ["k0", "a1", "b8"]],
    &[["k1", "a2", "b2"], ["k4", "a1", "b7"]],
    &[["k5", "a1", "b5"], ["k0", "a9", "b6"]],
];

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn send_only(&mut self, req: &Json) {
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .expect("write request");
        self.writer.flush().expect("flush request");
    }

    fn read_response(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        Json::parse(&line).expect("response parses")
    }

    /// Read one line, tolerating the peer dying instead (kill windows).
    fn try_read_response(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Json::parse(&line).ok(),
        }
    }

    fn rpc(&mut self, req: &Json) -> Json {
        self.send_only(req);
        self.read_response()
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn open_request(relation: &str) -> Json {
    obj(vec![
        ("op", Json::str("open")),
        ("relation", Json::str(relation)),
        ("table", Json::str("data")),
        (
            "attrs",
            Json::Arr(vec![Json::str("K"), Json::str("A"), Json::str("B")]),
        ),
        ("rules", Json::str(RULES)),
        (
            "master",
            obj(vec![
                ("table", Json::str("m")),
                ("attrs", Json::Arr(vec![Json::str("K"), Json::str("B")])),
                (
                    "rows",
                    Json::Arr(vec![
                        Json::Arr(vec![Json::str("k0"), Json::str("b1")]),
                        Json::Arr(vec![Json::str("k1"), Json::str("b2")]),
                    ]),
                ),
            ]),
        ),
        ("phase", Json::str("full")),
        ("default_cf", Json::Num(0.5)),
        ("eta", Json::Num(0.8)),
        ("threads", Json::Num(1.0)),
    ])
}

fn ingest_request(relation: &str, rows: &[[&str; 3]]) -> Json {
    obj(vec![
        ("op", Json::str("ingest")),
        ("relation", Json::str(relation)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(|v| Json::str(*v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn assert_ok(resp: &Json) -> &Json {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    resp
}

fn assert_code(resp: &Json, code: &str) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{resp}"
    );
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some(code),
        "{resp}"
    );
}

/// Serial reference dump (`rows` JSON render + cost) for an arbitrary
/// subset of [`BATCHES`], applied in the given order.
fn reference_for(batch_indices: &[usize]) -> (String, f64) {
    let data = Schema::of_strings("data", &["K", "A", "B"]);
    let m = Schema::of_strings("m", &["K", "B"]);
    let parsed = parse_rules(RULES, &data, Some(&m)).unwrap();
    let rules = RuleSet::new(
        data,
        Some(m.clone()),
        parsed.cfds,
        parsed.positive_mds,
        parsed.negative_mds,
    );
    let master = Relation::new(
        m,
        vec![
            Tuple::of_strs(&["k0", "b1"], 1.0),
            Tuple::of_strs(&["k1", "b2"], 1.0),
        ],
    );
    let cleaner = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .config(CleanConfig {
            eta: 0.8,
            parallelism: Some(NonZeroUsize::new(1).unwrap()),
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    let mut state = cleaner.begin_empty(Phase::Full);
    for &i in batch_indices {
        let tuples: Vec<Tuple> = BATCHES[i].iter().map(|r| Tuple::of_strs(r, 0.5)).collect();
        cleaner.clean_delta(&mut state, &tuples).unwrap();
    }
    (relation_to_json(state.repaired()).render(), state.cost())
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("uniclean-faulttest-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Where [`spawn_armed`] sends the daemon's stderr.
fn stderr_log(data_dir: &Path) -> PathBuf {
    data_dir.with_extension("stderr")
}

/// Spawn the real binary with one armed failpoint; returns the child, a
/// connected client, and the child's stdout reader (hold it until after
/// `wait` — dropping the pipe would EPIPE the daemon's shutdown banner).
fn spawn_armed(
    data_dir: &Path,
    snapshot_every: u64,
    failpoints: &str,
) -> (
    std::process::Child,
    Client,
    BufReader<std::process::ChildStdout>,
) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_uniclean"))
        .args(["serve", "--addr", "127.0.0.1:0", "--shards", "2"])
        .arg("--data-dir")
        .arg(data_dir)
        .args(["--snapshot-every", &snapshot_every.to_string()])
        .env("UNICLEAN_FAILPOINTS", failpoints)
        .stdout(std::process::Stdio::piped())
        .stderr(std::fs::File::create(stderr_log(data_dir)).expect("create stderr log"))
        .spawn()
        .expect("spawn uniclean serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout);
    let mut banner = String::new();
    lines.read_line(&mut banner).unwrap();
    let addr: std::net::SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .parse()
        .unwrap();
    let client = Client::connect(addr);
    (child, client, lines)
}

/// Boot an in-process daemon on the directory (nothing armed: the env
/// var is only set on spawned children) and run `body`.
fn with_recovered_daemon<T>(data_dir: &Path, body: impl FnOnce(&mut Client) -> T) -> T {
    let daemon = Daemon::bind(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        queue_bound: 16,
        data_dir: Some(data_dir.to_path_buf()),
        snapshot_every: 64,
        fsync: true,
        ..DaemonConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run());
    let mut c = Client::connect(addr);
    let out = body(&mut c);
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    handle.join().unwrap().unwrap();
    out
}

fn dump_rows_cost(c: &mut Client, relation: &str) -> (String, f64) {
    let d = c.rpc(&obj(vec![
        ("op", Json::str("dump")),
        ("relation", Json::str(relation)),
    ]));
    assert_ok(&d);
    (
        d.get("rows").unwrap().render(),
        d.get("cost").and_then(Json::as_f64).unwrap(),
    )
}

/// One kill-window case: ack `acked` batches, fire the next batch into
/// the armed window, let the daemon abort, restart, and require the
/// recovered state to be exactly the reference of `expect` batches.
struct KillCase {
    /// `UNICLEAN_FAILPOINTS` spec arming the window.
    arm: &'static str,
    snapshot_every: u64,
    /// Batches acknowledged before the fatal one.
    acked: usize,
    /// Batch indices recovery must reproduce, bit-identically.
    expect: usize,
    /// The kill leaves a half-written frame recovery must truncate.
    expect_torn: bool,
}

/// The whole matrix. Hit counts: with `--snapshot-every 0` the WAL
/// points are hit once for the open record, then once per batch, so `@3`
/// fires on the second batch; the ingest points are hit once per batch;
/// the snapshot points fire during the first compaction.
const KILL_MATRIX: [KillCase; 9] = [
    // Before any WAL byte: the in-flight batch vanishes.
    KillCase {
        arm: "wal.pre_frame=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 1,
        expect_torn: false,
    },
    // Mid-frame: a torn tail recovery must truncate away.
    KillCase {
        arm: "wal.mid_frame=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 1,
        expect_torn: true,
    },
    // Frame fully written, fsync pending: a process kill (unlike an OS
    // crash) leaves the written bytes readable, so the unacked batch
    // legitimately survives.
    KillCase {
        arm: "wal.pre_fsync=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 2,
        expect_torn: false,
    },
    KillCase {
        arm: "wal.post_fsync=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 2,
        expect_torn: false,
    },
    // Before the apply: neither memory nor disk saw the batch.
    KillCase {
        arm: "ingest.apply=kill@2",
        snapshot_every: 0,
        acked: 1,
        expect: 1,
        expect_torn: false,
    },
    // After the ack: the batch must survive — the client was promised.
    KillCase {
        arm: "ingest.post_ack=kill@2",
        snapshot_every: 0,
        acked: 1,
        expect: 2,
        expect_torn: false,
    },
    // Inside compaction (snapshot-every-1 → first batch compacts): the
    // WAL still carries the logged batch whatever the window.
    KillCase {
        arm: "snapshot.mid_write=kill@1",
        snapshot_every: 1,
        acked: 0,
        expect: 1,
        expect_torn: false,
    },
    KillCase {
        arm: "snapshot.pre_rename=kill@1",
        snapshot_every: 1,
        acked: 0,
        expect: 1,
        expect_torn: false,
    },
    // Snapshot durable, WAL rewrite never happened: replay must skip the
    // batches the snapshot already holds (seq bookkeeping).
    KillCase {
        arm: "snapshot.pre_wal_rewrite=kill@1",
        snapshot_every: 1,
        acked: 0,
        expect: 1,
        expect_torn: false,
    },
];

#[test]
fn kill_matrix_recovers_bit_identically() {
    for case in &KILL_MATRIX {
        let label = case.arm;
        let dir = scratch_dir(&label.replace(['.', '=', '@'], "-"));
        let (mut child, mut c, _stdout) = spawn_armed(&dir, case.snapshot_every, case.arm);
        assert_ok(&c.rpc(&open_request("tran")));
        for batch in BATCHES.iter().take(case.acked) {
            assert_ok(&c.rpc(&ingest_request("tran", batch)));
        }
        // The fatal batch: the daemon aborts in the armed window, so no
        // ack is expected (post-fsync/post-ack windows may still answer).
        c.send_only(&ingest_request("tran", BATCHES[case.acked]));
        let _ = c.try_read_response();
        let status = child.wait().expect("reap the daemon");
        assert!(!status.success(), "{label}: daemon should have aborted");
        drop(c);

        let (expect_rows, expect_cost) = reference_for(&(0..case.expect).collect::<Vec<_>>());
        with_recovered_daemon(&dir, |c| {
            let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
            assert_ok(&ping);
            let recovery = ping.get("recovery").expect("recovery report");
            assert_eq!(
                recovery.get("relations").and_then(Json::as_usize),
                Some(1),
                "{label}: {recovery}"
            );
            if case.expect_torn {
                assert_eq!(
                    recovery.get("torn_tails").and_then(Json::as_usize),
                    Some(1),
                    "{label}: expected a truncated torn tail; {recovery}"
                );
            }
            let (rows, cost) = dump_rows_cost(c, "tran");
            assert_eq!(
                rows, expect_rows,
                "{label}: recovered rows diverged from the {} -batch reference",
                case.expect
            );
            assert_eq!(cost, expect_cost, "{label}: recovered cost diverged");
            // The recovered tenant keeps serving and stays on-reference.
            assert_ok(&c.rpc(&ingest_request("tran", BATCHES[case.expect])));
            let (rows, _) = dump_rows_cost(c, "tran");
            let (expect_rows, _) = reference_for(&(0..=case.expect).collect::<Vec<_>>());
            assert_eq!(rows, expect_rows, "{label}: post-recovery ingest diverged");
        });
    }
}

/// A transient snapshot-write failure is retried with backoff: the
/// ingest still acks, and the snapshot lands on the retry.
#[test]
fn transient_snapshot_error_is_retried() {
    let dir = scratch_dir("snap-retry");
    let (mut child, mut c, _stdout) = spawn_armed(&dir, 1, "snapshot.mid_write=error@1");
    assert_ok(&c.rpc(&open_request("tran")));
    // The first compaction attempt fails (injected), the retry succeeds;
    // either way the batch was already WAL-durable and must ack.
    assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    assert!(
        dir.join(tenant_dir_name("tran"))
            .join("snapshot.json")
            .exists(),
        "snapshot landed on the retry"
    );
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    assert!(child.wait().unwrap().success());
}

/// A WAL append failure never acks: the tenant poisons (structured
/// `wal_error`, then `poisoned`), other tenants keep serving, and a
/// restart revives the poisoned tenant at its acked prefix.
#[test]
fn wal_error_poisons_tenant_without_acking() {
    let dir = scratch_dir("wal-error");
    // Hits: open(tran)=1, open(other)=2, batch0=3, batch1=4 → the second
    // tran batch fails to append.
    let (mut child, mut c, _stdout) = spawn_armed(&dir, 0, "wal.pre_frame=error@4");
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&open_request("other")));
    assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    let r = c.rpc(&ingest_request("tran", BATCHES[1]));
    assert_code(&r, "wal_error");
    // Sticky: every subsequent verb on the tenant answers `poisoned`.
    assert_code(&c.rpc(&ingest_request("tran", BATCHES[2])), "poisoned");
    assert_code(
        &c.rpc(&obj(vec![
            ("op", Json::str("dump")),
            ("relation", Json::str("tran")),
        ])),
        "poisoned",
    );
    // Blast radius is one tenant: the other keeps ingesting, and the
    // daemon itself answers ping.
    assert_ok(&c.rpc(&ingest_request("other", BATCHES[0])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("ping"))])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    assert!(child.wait().unwrap().success());

    // Restart: the poisoned tenant comes back at its acked prefix and
    // serves again.
    let (expect_rows, _) = reference_for(&[0]);
    with_recovered_daemon(&dir, |c| {
        let (rows, _) = dump_rows_cost(c, "tran");
        assert_eq!(
            rows, expect_rows,
            "poisoned tenant recovered to acked prefix"
        );
        assert_ok(&c.rpc(&ingest_request("tran", BATCHES[1])));
    });
}

/// A panicking apply poisons one tenant; the daemon and its other
/// tenants answer on, and the poisoned tenant can be closed.
#[test]
fn panicking_tenant_does_not_take_down_the_daemon() {
    let dir = scratch_dir("panic-isolation");
    let (mut child, mut c, _stdout) = spawn_armed(&dir, 0, "ingest.apply=panic@1");
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&open_request("other")));
    // The armed panic fires inside the first apply: structured answer,
    // tenant poisoned, daemon alive.
    assert_code(&c.rpc(&ingest_request("tran", BATCHES[0])), "poisoned");
    assert_code(&c.rpc(&ingest_request("tran", BATCHES[1])), "poisoned");
    // Nothing was acknowledged, so nothing may be durable.
    assert_ok(&c.rpc(&ingest_request("other", BATCHES[0])));
    let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
    assert_ok(&ping);
    assert_eq!(ping.get("relations").and_then(Json::as_usize), Some(2));
    // The poisoned tenant still closes (cleanup path), and the name can
    // be reopened fresh.
    assert_ok(&c.rpc(&obj(vec![
        ("op", Json::str("close")),
        ("relation", Json::str("tran")),
    ])));
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    assert!(child.wait().unwrap().success());
}

/// A failed `accept()` (EMFILE, ECONNABORTED, …) costs at most the
/// pending connection: the daemon logs it, backs off and keeps serving.
#[test]
fn failed_accept_does_not_stop_the_daemon() {
    let dir = scratch_dir("accept-error");
    let (mut child, mut c, _stdout) = spawn_armed(&dir, 0, "daemon.accept=error@1");
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("ping"))])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    assert!(child.wait().unwrap().success());
    let log = std::fs::read_to_string(stderr_log(&dir)).expect("read stderr log");
    assert!(
        log.contains("failpoint \"daemon.accept\""),
        "the injected accept error was logged: {log:?}"
    );
}
