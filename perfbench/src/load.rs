//! The load generator: one request over the wire (plus, in the traced
//! run, its in-process replay through each layer), closed-loop
//! connections and the paced open-loop reader.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use imprints_engine::{BatchQuery, Engine, QueryStats, Table, ValueRange};
use imprints_server::protocol::{fmt_ok_count, fmt_ok_ids, parse_request, Request};
use imprints_server::{Client, Reply};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::system::{thread_cpu_s, to_answer};
use crate::trace::{Recorder, Span};
use crate::workload::{parse_reply, Answer, Gen, Req};

/// How long a reply may take before it counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Every this many requests the traced run also times a PING and an
/// executor scatter.
const PROBE_EVERY: u64 = 16;
/// No-op tasks per timed scatter: one per sealed segment of the 1M-row table.
const SCATTER_TASKS: usize = 15;
/// A paced read sent more than this after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);

/// Checks an answer given the visible row bounds `[lo, hi]` around it.
pub type Check<'a> = &'a (dyn Fn(&Req, &Answer, u64, u64) -> bool + Sync);

/// What a load thread does per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The wire round trip and its check only (the end-to-end run).
    Wire,
    /// Also the in-process replay, with the recorder off.
    Replay,
    /// Also the in-process replay, recording spans.
    Traced,
}

/// Row-visibility bounds published by the writer: every row below `lo`
/// is visible, no row at or past `hi` is.
pub struct Visible {
    /// Lower bound.
    pub lo: AtomicU64,
    /// Upper bound.
    pub hi: AtomicU64,
}

impl Visible {
    /// Bounds of a table holding exactly `rows` rows.
    pub fn fixed(rows: u64) -> Visible {
        Visible { lo: AtomicU64::new(rows), hi: AtomicU64::new(rows) }
    }
}

/// What the load generator talks to.
pub struct Target<'a> {
    /// Server address.
    pub addr: std::net::SocketAddr,
    /// The engine, for in-process replays.
    pub engine: &'a Engine,
    /// The workload table, for in-process replays.
    pub table: &'a Table,
    /// Row visibility.
    pub visible: &'a Visible,
    /// Answer check.
    pub check: Check<'a>,
}

/// The outcome of one request.
pub struct Served {
    /// Wire round trip, µs.
    pub wire_us: f64,
    /// When the reply arrived.
    pub done: Instant,
    /// Whether every answer checked out.
    pub ok: bool,
    /// Whether the connection broke (it must be reopened).
    pub lost: bool,
    /// The in-process replay's statistics, when replayed.
    pub replay: Option<Replay>,
}

/// Counters of one in-process replay.
pub struct Replay {
    /// Whether the request was a COUNT.
    pub count_only: bool,
    /// Engine statistics of the one-request `query_batch`.
    pub stats: QueryStats,
    /// Returned ids in sealed segments (QUERY only).
    pub sealed_ids: u64,
    /// Segment-sized row ranges holding returned ids (QUERY only).
    pub useful_segments: u64,
    /// Reply bytes the server would write, newline included.
    pub reply_bytes: usize,
}

/// Connects a client with the reply timeout set.
pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
    let client = Client::connect(addr)?;
    client.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(client)
}

/// Sends `req` and checks its reply; with `replay`, then runs it
/// in-process through the protocol parser, `Table::query_batch` and the
/// reply formatter, each timed as a span, and checks that answer too.
pub fn serve(
    t: &Target,
    client: &mut Client,
    rec: &mut Recorder,
    rid: u64,
    req: &Req,
    replay: bool,
) -> Served {
    let root = rec.begin("request", rid);
    let line = req.line();
    let lo = t.visible.lo.load(Ordering::SeqCst);
    let span = rec.begin("wire", rid);
    let start = Instant::now();
    let reply = client.send(&line).and_then(|()| client.recv());
    let done = Instant::now();
    rec.end(span);
    let hi = t.visible.hi.load(Ordering::SeqCst);
    let lost = reply.is_err();
    let mut ok = rec.time("check", rid, || {
        reply.ok().and_then(|l| parse_reply(req, &l)).is_some_and(|a| (t.check)(req, &a, lo, hi))
    });
    let replay = replay.then(|| {
        let (replay, good) = replay_in_process(t, client, rec, rid, req, &line);
        ok &= good;
        replay
    });
    rec.end(root);
    Served { wire_us: (done - start).as_secs_f64() * 1e6, done, ok, lost, replay }
}

fn replay_in_process(
    t: &Target,
    client: &mut Client,
    rec: &mut Recorder,
    rid: u64,
    req: &Req,
    line: &str,
) -> (Replay, bool) {
    let query = rec.time("protocol.parse", rid, || typed_query(t.table, line));
    let lo = t.visible.lo.load(Ordering::SeqCst);
    let mut answers = rec.time("table.exec", rid, || {
        t.table.query_batch(std::slice::from_ref(&query), Some(t.engine.pool()))
    });
    let hi = t.visible.hi.load(Ordering::SeqCst);
    let (answer, stats) = match answers.pop() {
        Some(Ok((a, s))) => (to_answer(a), s),
        _ => (Answer::Count(u64::MAX), QueryStats::default()),
    };
    let text = rec.time("protocol.format", rid, || match &answer {
        Answer::Ids(ids) => fmt_ok_ids(None, ids),
        Answer::Count(n) => fmt_ok_count(None, *n),
    });
    let mut ok = rec.time("check", rid, || (t.check)(req, &answer, lo, hi));
    if rid.is_multiple_of(PROBE_EVERY) {
        let pong = rec.time("server.ping", rid, || client.ping());
        ok &= matches!(pong, Ok(Reply::Ok(_)));
        let pool = t.engine.pool();
        let done =
            rec.time("executor.scatter", rid, || pool.scatter((0..SCATTER_TASKS).map(|_| || ())));
        ok &= done.iter().all(Option::is_some);
    }
    let open_base = stats.visible_rows - stats.open_rows as u64;
    let seg_rows = t.table.config().segment_rows as u64;
    let (sealed_ids, useful_segments) = match &answer {
        Answer::Ids(ids) => {
            let sealed: Vec<u64> = ids.iter().copied().filter(|&id| id < open_base).collect();
            let mut cells: Vec<u64> = sealed.iter().map(|id| id / seg_rows).collect();
            cells.dedup();
            (sealed.len() as u64, cells.len() as u64)
        }
        Answer::Count(_) => (0, 0),
    };
    (
        Replay {
            count_only: req.count_only,
            stats,
            sealed_ids,
            useful_segments,
            reply_bytes: text.len() + 1,
        },
        ok,
    )
}

/// Parses a request line and types it against the table schema, the way
/// the server's dispatcher does. A line that does not parse or type
/// yields a query on a missing column, which the engine rejects, so the
/// check fails.
pub fn typed_query(table: &Table, line: &str) -> BatchQuery {
    let missing =
        || BatchQuery::count(vec![("\u{0}".to_string(), ValueRange { low: None, high: None })]);
    let (preds, any, count_only) = match parse_request(line) {
        Ok(Request::Query { preds, any, .. }) => (preds, any, false),
        Ok(Request::Count { preds, any, .. }) => (preds, any, true),
        _ => return missing(),
    };
    let mut typed = Vec::with_capacity(preds.len());
    for p in &preds {
        let ty = table.schema().iter().find(|c| c.name == p.column).map(|c| c.ty);
        match ty.map(|ty| p.to_set(ty)) {
            Some(Ok(set)) => typed.push((p.column.clone(), set)),
            _ => return missing(),
        }
    }
    BatchQuery { preds: typed, any, count_only }
}

/// One load thread's results.
#[derive(Default)]
pub struct ThreadRun {
    /// Latency per measured request, µs.
    pub lat_us: Vec<f64>,
    /// Client-side wall time per request (wire plus any replay), µs.
    pub walls_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests that failed (wrong, ERR, BUSY or lost).
    pub failed: u64,
    /// Paced requests sent late.
    pub late: u64,
    /// In-process replays.
    pub replays: Vec<Replay>,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Wall seconds from the first send to the last reply.
    pub wall_s: f64,
    /// CPU seconds the load thread itself ran: sending, receiving and
    /// checking, the share of the process's CPU time that is not the
    /// program's.
    pub cpu_s: f64,
}

impl ThreadRun {
    /// Records one served request with latency `lat_us` and client-side
    /// wall time since `begin`; reconnects after a lost reply. Returns
    /// `false` when the server cannot be reached any more.
    fn record(
        &mut self,
        t: &Target,
        client: &mut Client,
        served: Served,
        lat_us: f64,
        begin: Instant,
    ) -> bool {
        self.walls_us.push(begin.elapsed().as_secs_f64() * 1e6);
        self.lat_us.push(lat_us);
        self.sent += 1;
        self.failed += u64::from(!served.ok);
        self.replays.extend(served.replay);
        if served.lost {
            match connect(t.addr) {
                Ok(c) => *client = c,
                Err(_) => return false,
            }
        }
        true
    }
}

/// The request stream of thread `thread` in phase `phase`: the same
/// arguments always give the same requests.
pub fn stream(seed: u64, phase: u64, thread: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (phase << 40) ^ (thread << 32) ^ 0x5eed_5eed)
}

/// A request id unique within a run: request `i` of thread `thread` in
/// stream phase `phase`.
fn request_id(phase: u64, thread: u64, i: u64) -> u64 {
    (phase << 40) | (thread << 32) | i
}

/// Closed loop: `conns` connections each send their stream's next request
/// once the previous reply arrived, for `secs` seconds.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    t: &Target,
    conns: u64,
    gen: Gen,
    seed: u64,
    phase: u64,
    secs: f64,
    mode: Mode,
    epoch: Instant,
) -> Vec<ThreadRun> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|th| {
                s.spawn(move || {
                    let cpu0 = thread_cpu_s();
                    let mut rng = stream(seed, phase, th);
                    let mut rec = Recorder::new(mode == Mode::Traced, epoch);
                    let mut run = ThreadRun::default();
                    let Ok(mut client) = connect(t.addr) else {
                        run.sent = 1;
                        run.failed = 1;
                        return run;
                    };
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(secs);
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let req = gen(&mut rng, i);
                        let rid = request_id(phase, th, i);
                        let begin = Instant::now();
                        let served = serve(t, &mut client, &mut rec, rid, &req, mode != Mode::Wire);
                        let lat_us = served.wire_us;
                        if !run.record(t, &mut client, served, lat_us, begin) {
                            break;
                        }
                        i += 1;
                    }
                    run.wall_s = start.elapsed().as_secs_f64();
                    run.spans = rec.into_spans();
                    run.cpu_s = thread_cpu_s() - cpu0;
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    })
}

/// Open loop: one connection sends the stream's request `i` at
/// `start + i / rate` until `stop` is set or `secs` (when given) elapsed,
/// timing each from its due time.
#[allow(clippy::too_many_arguments)]
pub fn paced(
    t: &Target,
    gen: Gen,
    seed: u64,
    phase: u64,
    rate: f64,
    stop: &AtomicBool,
    secs: Option<f64>,
    mode: Mode,
    epoch: Instant,
) -> ThreadRun {
    let cpu0 = thread_cpu_s();
    let mut rng = stream(seed, phase, 0);
    let mut rec = Recorder::new(mode == Mode::Traced, epoch);
    let mut run = ThreadRun::default();
    let Ok(mut client) = connect(t.addr) else {
        run.sent = 1;
        run.failed = 1;
        return run;
    };
    let start = Instant::now();
    let deadline = secs.map(|s| start + Duration::from_secs_f64(s));
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) && deadline.is_none_or(|d| Instant::now() < d) {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        run.late += u64::from(sent.duration_since(due) > LATE);
        let req = gen(&mut rng, i);
        let served =
            serve(t, &mut client, &mut rec, request_id(phase, 0, i), &req, mode != Mode::Wire);
        let lat_us = served.done.duration_since(due).as_secs_f64() * 1e6;
        if !run.record(t, &mut client, served, lat_us, sent) {
            break;
        }
        i += 1;
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run.spans = rec.into_spans();
    run.cpu_s = thread_cpu_s() - cpu0;
    run
}
