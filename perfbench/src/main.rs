//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <narrow_clustered|wide_random|ingest_durable>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's table from the seed, starts the engine and its
//! wire server, drives them through their public interfaces from at most
//! two load threads, checks every answer, and prints one JSON result line
//! last on stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! replays the same request stream with spans around each layer's public
//! calls and reports per-layer metrics instead. See `README.md` in this
//! directory for the workloads and metrics.

mod load;
mod stats;
mod system;
mod trace;
mod workload;

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use imprints_engine::{path_report, BatchQuery, EngineConfig, PathKind, MAX_PATHS};

use crate::load::{closed_loop, paced, typed_query, Mode, Replay, Target, ThreadRun, Visible};
use crate::stats::{high_quartile, low_quartile, max, mean, median, percentile, ratio, Metrics};
use crate::system::{
    cpu_ticks, create, engine_config, fresh_dir, process_cpu_s, read_config, restart, serve,
    steal_since, thread_cpu_s, write_bytes, Appends, Deployment, IndexSplit, Restart,
};
use crate::trace::{Recorder, Span, SpanTable};
use crate::workload::{
    brute_force, narrow, wide, Answer, Gen, PrefixOracle, Req, StaticOracle, TableData, ROW_BYTES,
};

type Res<T> = Result<T, Box<dyn Error>>;

const USAGE: &str = "usage: perfbench --workload <narrow_clustered|wide_random|ingest_durable> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Rows of the read workloads' table: 15 sealed 64Ki-row segments plus a
/// 16,960-row tail-indexed head.
const READ_ROWS: usize = 1_000_000;
/// Rows preloaded before the ingest workload appends.
const PRELOAD_ROWS: usize = 1_000_000;
/// Append batches the ingest writer adds per `--seconds`, split evenly
/// over the trials: the work is fixed by the argument, never by the clock.
const INGEST_BATCHES_PER_SECOND: usize = 32;
/// The ingest writer runs a maintenance tick after every this many rows.
const TICK_ROWS: usize = 1 << 16;
/// Per-table resident-data budget of the durable ingest table, below the
/// preloaded data already: the table never fits the engine's cache.
const INGEST_RESIDENT_BYTES: usize = 16 << 20;
/// Paced reads per second during ingest, well below the reader's capacity
/// at the final table size.
const INGEST_READ_RATE: f64 = 100.0;
/// Independent trials per run, each on a fresh engine: set up, warm up,
/// measure `--seconds / TRIALS`, restart. The request rate and latency
/// percentiles pool the requests of the quietest windows (see
/// [`QUIET_SHARE`]); the other timings are taken per trial and reported
/// as their better quartile; set-up time and the byte ratios as medians.
const TRIALS: usize = 6;
/// Back-to-back measurement windows per trial of the read workloads (the
/// ingest workload's paced reads make one window per trial).
const WINDOWS: u64 = 8;
/// The share of a run's windows, those with the least CPU time stolen by
/// the hypervisor, whose requests the CPU time per request and the rate
/// and latency figures pool. On a 2-core guest of a shared host the
/// stolen share ranged from 0 to 0.39 between windows, and
/// `narrow_clustered`'s rate fell from about 900 to 220 req/s as it rose.
const QUIET_SHARE: f64 = 0.25;
/// Closed-loop connections of the read workloads, and the ingest
/// workload's writer plus reader: two load threads either way.
const LOAD_THREADS: usize = 2;
/// Warm-up seconds before timing (the access-path choosers learn costs
/// from wall-clock time).
const WARMUP_S: f64 = 0.6;
/// Paced warm-up seconds of the ingest reader, before the writer starts.
const INGEST_WARMUP_S: f64 = 0.5;
/// Requests of the fixed seeded sample checked against brute force.
const SAMPLES: u64 = 24;

/// Request-stream phases: the fixed sample, then per trial (offset by
/// [`trial_phase`]) the measured stream, its warm-up and the ingest
/// workload's tracing-overhead stream. Measurement window `w` of a read
/// trial is offset by a further `w * PHASE_WINDOW`.
const PHASE_SAMPLE: u64 = 0;
const PHASE_WARMUP: u64 = 1;
const PHASE_OVERHEAD: u64 = 2;
const PHASE_WINDOW: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    NarrowClustered,
    WideRandom,
    IngestDurable,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "narrow_clustered" => Some(Workload::NarrowClustered),
            "wide_random" => Some(Workload::WideRandom),
            "ingest_durable" => Some(Workload::IngestDurable),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::NarrowClustered => "narrow_clustered",
            Workload::WideRandom => "wide_random",
            Workload::IngestDurable => "ingest_durable",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a run produced.
struct Outcome {
    metrics: Metrics,
    /// Printed with the metrics but not part of the result line.
    unbounded: Metrics,
    attempted: u64,
    failed: u64,
    spans: Vec<Vec<Span>>,
    rows: usize,
}

impl Outcome {
    fn new(rows: usize) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            unbounded: Metrics::default(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            rows,
        }
    }

    fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn tally_runs(&mut self, runs: &[ThreadRun]) {
        for r in runs {
            self.tally(r.sent, r.failed);
        }
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, dir: &Path) -> Res<String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if LOAD_THREADS > cores {
        return Err(format!(
            "{LOAD_THREADS} load threads need at least {LOAD_THREADS} cores, found {cores}"
        )
        .into());
    }
    let epoch = Instant::now();
    let ticks = cpu_ticks();
    let out = match args.workload {
        Workload::NarrowClustered => run_read(args, narrow, dir, epoch)?,
        Workload::WideRandom => run_read(args, wide, dir, epoch)?,
        Workload::IngestDurable => run_ingest(args, dir, epoch)?,
    };
    // The share of the machine's CPU time the hypervisor gave to other
    // guests during the run.
    let steal = steal_since(ticks);
    let meta = format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"cores\": {cores}, \"rows\": {}, \"load_threads\": {LOAD_THREADS}, \"connections\": {}, \
         \"steal_frac\": {steal:.4}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        out.rows,
        if args.workload == Workload::IngestDurable { 1 } else { LOAD_THREADS },
    );
    if !args.trace {
        println!("{}: {} {}", args.workload.name(), out.metrics.summary(), out.unbounded.summary());
    }
    println!("{meta}");
    if args.trace {
        let path = PathBuf::from(".perfbench").join("traces").join(format!(
            "{}-seed{}.csv",
            args.workload.name(),
            args.seed
        ));
        trace::write_csv(&path, &out.spans)?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let bad = out.metrics.non_finite();
    if !bad.is_empty() {
        return Err(format!("non-finite metrics: {bad:?}").into());
    }
    if out.failed > 0 {
        eprintln!("perfbench: {} of {} operations failed", out.failed, out.attempted);
    }
    Ok(out.metrics.result_line(out.failed == 0, out.attempted.max(1), out.failed))
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len().min(40)].to_string())
        })
        .map_or("unknown".into(), |c| c.trim().to_string())
}

/// The fixed seeded sample with its brute-force answers over the first
/// `rows` rows: checked over the wire and again on the reopened table.
fn samples(gen: Gen, seed: u64, data: &TableData, rows: usize) -> Vec<(Req, Answer)> {
    let mut rng = load::stream(seed, PHASE_SAMPLE, 0);
    (0..SAMPLES)
        .map(|i| {
            let req = gen(&mut rng, i);
            let want = brute_force(data, &req, rows);
            (req, want)
        })
        .collect()
}

/// Sends each sample over the wire and compares with its answer.
fn check_samples_on_wire(dep: &Deployment, samples: &[(Req, Answer)]) -> Res<(u64, u64)> {
    let mut client = load::connect(dep.server.local_addr())?;
    let mut failed = 0;
    for (req, want) in samples {
        let got = client.send(&req.line()).and_then(|()| client.recv()).ok();
        if got.and_then(|l| workload::parse_reply(req, &l)).as_ref() != Some(want) {
            failed += 1;
        }
    }
    Ok((samples.len() as u64, failed))
}

/// What one set-up built and measured.
struct SetUp {
    dep: Deployment,
    data: TableData,
    /// Wall seconds of the whole set-up.
    setup_s: f64,
    /// Wall seconds of the table load.
    load_s: f64,
    /// CPU seconds the loading thread ran during the load.
    load_cpu_s: f64,
}

/// One set-up: generates `total` rows from the seed, creates the durable
/// engine and table under `cfg`, appends the first `load` rows and starts
/// the server.
fn set_up(
    cfg: EngineConfig,
    seed: u64,
    total: usize,
    load: usize,
    appends: &mut Appends,
    rec: &mut Recorder,
) -> Res<SetUp> {
    let t0 = Instant::now();
    let data = TableData::generate(total, seed);
    let (engine, table) = create(cfg.clone())?;
    let vis = Visible::fixed(0);
    let t_load = Instant::now();
    let cpu0 = thread_cpu_s();
    appends.append(&table, &data, 0, load, &vis.lo, &vis.hi, rec, |_, _| {})?;
    let load_cpu_s = thread_cpu_s() - cpu0;
    let load_s = t_load.elapsed().as_secs_f64();
    let dep = serve(cfg, engine, table)?;
    Ok(SetUp { dep, data, setup_s: t0.elapsed().as_secs_f64(), load_s, load_cpu_s })
}

/// Checks that the core and baseline builders, run on the loaded data,
/// account for exactly `Table::index_bytes()`.
fn reconcile(out: &mut Outcome, dep: &Deployment, data: &TableData, rows: usize) -> IndexSplit {
    let split = IndexSplit::rebuild(data, rows, &dep.cfg);
    let engine_bytes = dep.table.index_bytes();
    out.tally(1, u64::from(split.total() != engine_bytes));
    if split.total() != engine_bytes {
        eprintln!(
            "perfbench: index bytes do not reconcile: imprints + zonemaps + tail = {} \
             but Table::index_bytes() = {engine_bytes}",
            split.total()
        );
    }
    split
}

/// Measurements pooled over the trials of one run.
#[derive(Default)]
struct Pool {
    setup_s: Vec<f64>,
    rows_per_s: Vec<f64>,
    /// The appends the end-to-end append metric and the append layer
    /// measure: the table load of the read workloads, the ingest writer of
    /// `ingest_durable`.
    appends: Appends,
    requests: usize,
    windows: Vec<Window>,
    cpu_us_per_row: Vec<f64>,
    trial_append_p99_us: Vec<f64>,
    recover_s: Vec<f64>,
    recover_cpu_ms: Vec<f64>,
    index_ratio: Vec<f64>,
    disk_ratio: Vec<f64>,
    write_amp: Vec<f64>,
    replays: Vec<Replay>,
    spans: Vec<Vec<Span>>,
    walls_traced: Vec<f64>,
    walls_untraced: Vec<f64>,
    batches: u64,
    batched: u64,
    shed: u64,
    paths: [u64; MAX_PATHS],
    persist_errors: u64,
    write_bytes: u64,
    ticks_ms: Vec<f64>,
    rebuilds: usize,
    compaction_bytes: usize,
    evicted_bytes: usize,
    faulted_bytes: u64,
    late: u64,
    paced: u64,
    restart: Option<Restart>,
    split: Option<IndexSplit>,
}

impl Pool {
    /// Pools the measured runs of one window (a whole trial in the traced
    /// run and in `ingest_durable`): `measured` timed, `untraced` its
    /// untraced twin in the traced run, `steal` the share of the machine's
    /// CPU time stolen meanwhile and `cpu_s` the process's CPU seconds for
    /// the window, the load threads' own included.
    fn absorb(
        &mut self,
        out: &mut Outcome,
        measured: Vec<ThreadRun>,
        untraced: Vec<ThreadRun>,
        steal: f64,
        cpu_s: f64,
    ) {
        out.tally_runs(&measured);
        out.tally_runs(&untraced);
        let wall_s = measured.iter().map(|r| r.wall_s).fold(0.0, f64::max);
        let lat_us: Vec<f64> = measured.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
        let sent = measured.iter().map(|r| r.sent).sum();
        let cpu_s = cpu_s - measured.iter().map(|r| r.cpu_s).sum::<f64>();
        self.requests += lat_us.len();
        self.windows.push(Window { steal, wall_s, sent, lat_us, cpu_s });
        for r in untraced {
            self.walls_untraced.extend(r.walls_us);
        }
        for r in measured {
            self.walls_traced.extend(r.walls_us);
            self.replays.extend(r.replays);
            self.spans.push(r.spans);
        }
    }

    /// Ends a trial: reads the server's counters and path votes, checks the
    /// samples over the wire, restarts from disk and checks them again.
    /// `wb0` is the write counter when the measured writes began, and
    /// `raw_written` the raw bytes they appended.
    fn finish_trial(
        &mut self,
        out: &mut Outcome,
        dep: Deployment,
        samples: &[(Req, Answer)],
        wb0: u64,
        raw_written: f64,
        mut rec: Recorder,
    ) -> Res<()> {
        let stats = dep.server.stats();
        self.batches += stats.batches;
        self.batched += stats.batched_requests;
        self.shed += stats.shed;
        for col in path_report(dep.engine.catalog()) {
            for b in &col.buckets {
                for (v, n) in self.paths.iter_mut().zip(b.votes) {
                    *v += n;
                }
            }
        }
        let (n, bad) = check_samples_on_wire(&dep, samples)?;
        out.tally(n, bad);
        let errors = dep.table.persist_errors();
        out.tally(1, errors);
        self.persist_errors += errors;
        let rows = dep.table.row_count();
        let raw_total = (rows as usize * ROW_BYTES) as f64;
        let typed: Vec<(BatchQuery, Answer)> =
            samples.iter().map(|(r, a)| (typed_query(&dep.table, &r.line()), a.clone())).collect();
        let r = restart(dep, rows, &typed, &mut rec)?;
        out.tally(r.checks, r.failed);
        let written = write_bytes().saturating_sub(wb0);
        self.write_bytes += written;
        self.recover_s.push(r.recover_s);
        self.recover_cpu_ms.push(r.recover_cpu_s * 1e3);
        self.disk_ratio.push(r.disk_bytes as f64 / raw_total);
        self.write_amp.push(written as f64 / raw_written);
        self.restart = Some(r);
        self.spans.push(rec.into_spans());
        Ok(())
    }

    /// The [`QUIET_SHARE`] of the windows with the least stolen CPU time,
    /// at least one; ties keep the earlier window.
    fn quiet_windows(&self) -> Vec<&Window> {
        let mut by_steal: Vec<&Window> = self.windows.iter().collect();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let keep = ((by_steal.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
        by_steal.truncate(keep);
        by_steal
    }

    /// Prints the timings of the trial that just ended to stderr.
    fn log_trial(&self, trial: usize) {
        let last = |v: &[f64]| v.last().copied().unwrap_or(0.0);
        let window = self.windows.last();
        eprintln!(
            "perfbench: trial {trial}: setup {:.3} s, last window {:.1} req/s, p50 {:.0} us, \
             p95 {:.0} us, steal {:.3}; {:.0} rows/s, append p99 {:.0} us, recover {:.4} s",
            last(&self.setup_s),
            window.map_or(0.0, |w| ratio(w.sent as f64, w.wall_s)),
            window.map_or(0.0, |w| median(&w.lat_us)),
            window.map_or(0.0, |w| percentile(&w.lat_us, 95.0)),
            window.map_or(0.0, |w| w.steal),
            last(&self.rows_per_s),
            last(&self.trial_append_p99_us),
            last(&self.recover_s),
        );
    }
}

/// One measurement window: the requests served in it and how much CPU
/// time the hypervisor took from the machine meanwhile.
struct Window {
    /// Share of the machine's CPU time stolen during the window.
    steal: f64,
    /// Wall seconds from the first send to the last reply.
    wall_s: f64,
    /// Requests sent.
    sent: u64,
    /// Latency per request, µs.
    lat_us: Vec<f64>,
    /// CPU seconds the program ran: the process's less the load threads'.
    cpu_s: f64,
}

/// Stream phase of trial `trial`'s measured requests.
fn trial_phase(trial: usize) -> u64 {
    64 * (trial as u64 + 1)
}

fn run_read(args: &Args, gen: Gen, dir: &Path, epoch: Instant) -> Res<Outcome> {
    let raw = (READ_ROWS * ROW_BYTES) as f64;
    let mut out = Outcome::new(READ_ROWS);
    let mut pool = Pool::default();
    let secs = args.seconds as f64 / TRIALS as f64;
    let conns = LOAD_THREADS as u64;
    for trial in 0..TRIALS {
        let root = fresh_dir(dir.join(format!("trial{trial}")))?;
        let mut rec = Recorder::new(args.trace, epoch);
        let wb0 = write_bytes();
        let calls = pool.appends.all_us.len();
        let SetUp { dep, data, setup_s, load_s, load_cpu_s } = set_up(
            read_config(&root),
            args.seed,
            READ_ROWS,
            READ_ROWS,
            &mut pool.appends,
            &mut rec,
        )?;
        pool.setup_s.push(setup_s);
        pool.rows_per_s.push(READ_ROWS as f64 / load_s);
        pool.cpu_us_per_row.push(load_cpu_s * 1e6 / READ_ROWS as f64);
        pool.trial_append_p99_us.push(percentile(&pool.appends.all_us[calls..], 99.0));
        pool.index_ratio.push(dep.table.index_bytes() as f64 / raw);
        if trial == 0 {
            pool.split = Some(reconcile(&mut out, &dep, &data, READ_ROWS));
        }
        let oracle = StaticOracle::new(&data);
        let check = |req: &Req, a: &Answer, _: u64, _: u64| oracle.check(req, a);
        let vis = Visible::fixed(READ_ROWS as u64);
        let target = Target {
            addr: dep.server.local_addr(),
            engine: &dep.engine,
            table: &dep.table,
            visible: &vis,
            check: &check,
        };
        let phase = trial_phase(trial);
        let warm = closed_loop(
            &target,
            conns,
            gen,
            args.seed,
            phase + PHASE_WARMUP,
            WARMUP_S,
            Mode::Wire,
            epoch,
        );
        out.tally_runs(&warm);
        if args.trace {
            let plain =
                closed_loop(&target, conns, gen, args.seed, phase, secs / 2.0, Mode::Replay, epoch);
            let traced =
                closed_loop(&target, conns, gen, args.seed, phase, secs / 2.0, Mode::Traced, epoch);
            pool.absorb(&mut out, traced, plain, 0.0, 0.0);
        } else {
            let window_s = secs / WINDOWS as f64;
            for w in 0..WINDOWS {
                let phase = phase + w * PHASE_WINDOW;
                let ticks = cpu_ticks();
                let cpu0 = process_cpu_s();
                let runs =
                    closed_loop(&target, conns, gen, args.seed, phase, window_s, Mode::Wire, epoch);
                let cpu_s = process_cpu_s() - cpu0;
                pool.absorb(&mut out, runs, Vec::new(), steal_since(ticks), cpu_s);
            }
        }
        // One planner pass over the read table: it examines every segment
        // and, configured never to act, must leave the table as it was.
        let span = rec.begin("planner.tick", 0);
        let t = Instant::now();
        let idle = dep.engine.maintenance_tick().is_idle();
        pool.ticks_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.end(span);
        out.tally(1, u64::from(!idle));
        let samples = samples(gen, args.seed, &data, READ_ROWS);
        pool.finish_trial(&mut out, dep, &samples, wb0, raw, rec)?;
        pool.log_trial(trial);
        std::fs::remove_dir_all(&root)?;
    }
    eprintln!(
        "perfbench: {} closed-loop requests over {conns} connections in {TRIALS} trials",
        pool.requests
    );
    report(&mut out, pool, args.trace);
    Ok(out)
}

fn run_ingest(args: &Args, dir: &Path, epoch: Instant) -> Res<Outcome> {
    let append_rows =
        INGEST_BATCHES_PER_SECOND * args.seconds as usize / TRIALS * system::BATCH_ROWS;
    let total = PRELOAD_ROWS + append_rows;
    let raw_appended = (append_rows * ROW_BYTES) as f64;
    let mut out = Outcome::new(total);
    let mut pool = Pool::default();
    let mode = if args.trace { Mode::Traced } else { Mode::Wire };
    for trial in 0..TRIALS {
        let root = fresh_dir(dir.join(format!("trial{trial}")))?;
        let mut rec = Recorder::new(args.trace, epoch);
        let SetUp { dep, data, setup_s, .. } = set_up(
            engine_config(&root, INGEST_RESIDENT_BYTES),
            args.seed,
            total,
            PRELOAD_ROWS,
            &mut Appends::default(),
            &mut rec,
        )?;
        pool.setup_s.push(setup_s);
        if trial == 0 {
            pool.split = Some(reconcile(&mut out, &dep, &data, PRELOAD_ROWS));
        }
        let oracle = PrefixOracle::new(&data);
        let check = |req: &Req, a: &Answer, lo: u64, hi: u64| oracle.check(req, a, lo, hi);
        let vis = Visible::fixed(PRELOAD_ROWS as u64);
        let target = Target {
            addr: dep.server.local_addr(),
            engine: &dep.engine,
            table: &dep.table,
            visible: &vis,
            check: &check,
        };
        let phase = trial_phase(trial);
        let never = AtomicBool::new(false);
        let warm = paced(
            &target,
            narrow,
            args.seed,
            phase + PHASE_WARMUP,
            INGEST_READ_RATE,
            &never,
            Some(INGEST_WARMUP_S),
            Mode::Wire,
            epoch,
        );
        out.tally_runs(std::slice::from_ref(&warm));
        if args.trace {
            // The tracing overhead, on the preloaded table before ingest.
            let overhead = phase + PHASE_OVERHEAD;
            let plain = closed_loop(
                &target,
                1,
                narrow,
                args.seed,
                overhead,
                INGEST_WARMUP_S,
                Mode::Replay,
                epoch,
            );
            let traced = closed_loop(
                &target,
                1,
                narrow,
                args.seed,
                overhead,
                INGEST_WARMUP_S,
                Mode::Traced,
                epoch,
            );
            out.tally_runs(&plain);
            out.tally_runs(&traced);
            pool.walls_untraced.extend(plain.into_iter().flat_map(|r| r.walls_us));
            for r in traced {
                pool.walls_traced.extend(r.walls_us);
                pool.spans.push(r.spans);
            }
        }

        let stop = AtomicBool::new(false);
        let mut writer = Recorder::new(args.trace, epoch);
        let mut ticks_ms = Vec::new();
        let wb0 = write_bytes();
        let calls = pool.appends.all_us.len();
        let ticks = cpu_ticks();
        let cpu0 = process_cpu_s();
        let (ingest_s, writer_cpu_s, reader, appended) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                paced(&target, narrow, args.seed, phase, INGEST_READ_RATE, &stop, None, mode, epoch)
            });
            let t0 = Instant::now();
            let writer_cpu0 = thread_cpu_s();
            let appended = pool.appends.append(
                &dep.table,
                &data,
                PRELOAD_ROWS,
                total,
                &vis.lo,
                &vis.hi,
                &mut writer,
                |done, rec| {
                    if done % TICK_ROWS == 0 {
                        let span = rec.begin("planner.tick", done as u64);
                        let t = Instant::now();
                        let report = dep.engine.maintenance_tick();
                        ticks_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        rec.end(span);
                        pool.rebuilds += report.applied.len();
                        pool.compaction_bytes += report.compaction_bytes;
                        pool.evicted_bytes += report.evicted_bytes;
                    }
                },
            );
            let writer_cpu_s = thread_cpu_s() - writer_cpu0;
            let ingest_s = t0.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            (ingest_s, writer_cpu_s, reader.join().expect("reader thread panicked"), appended)
        });
        appended?;
        let steal = steal_since(ticks);
        // The writer's CPU time is the append path's; the rest, once the
        // load threads' own is taken off in `absorb`, serves the reads.
        let reads_cpu_s = process_cpu_s() - cpu0 - writer_cpu_s;
        out.tally(append_rows.div_ceil(system::BATCH_ROWS) as u64, 0);
        eprintln!(
            "perfbench: trial {trial}: appended {append_rows} rows in {ingest_s:.2}s with {} ticks; \
             {} paced reads, {} late",
            ticks_ms.len(),
            reader.sent,
            reader.late
        );
        pool.rows_per_s.push(append_rows as f64 / ingest_s);
        pool.cpu_us_per_row.push(writer_cpu_s * 1e6 / append_rows as f64);
        pool.trial_append_p99_us.push(percentile(&pool.appends.all_us[calls..], 99.0));
        pool.ticks_ms.extend(ticks_ms);
        pool.late += reader.late;
        pool.paced += reader.sent;
        pool.absorb(&mut out, vec![reader], Vec::new(), steal, reads_cpu_s);
        pool.spans.push(writer.into_spans());
        pool.faulted_bytes += dep.engine.catalog().storage_stats().faulted_bytes;
        pool.index_ratio.push(dep.table.index_bytes() as f64 / (total * ROW_BYTES) as f64);
        let samples = samples(narrow, args.seed, &data, total);
        pool.finish_trial(&mut out, dep, &samples, wb0, raw_appended, rec)?;
        pool.log_trial(trial);
        std::fs::remove_dir_all(&root)?;
    }
    report(&mut out, pool, args.trace);
    Ok(out)
}

/// Puts the run's metrics: end-to-end ones untraced, per-layer ones traced.
fn report(out: &mut Outcome, pool: Pool, traced: bool) {
    if traced {
        per_layer(&mut out.metrics, &pool);
        out.spans = pool.spans;
        return;
    }
    // The wall-clock figures are printed but not bounded: on the shared
    // machine they follow the CPU time the hypervisor steals (a run at a
    // stolen share of 0.3 serves narrow_clustered at a third of the rate
    // of a quiet one). The bounded timings are CPU times, from which the
    // guest kernel leaves stolen time out.
    let quiet = pool.quiet_windows();
    let lat: Vec<f64> = quiet.iter().flat_map(|w| w.lat_us.iter().copied()).collect();
    let sent: u64 = quiet.iter().map(|w| w.sent).sum();
    let wall_s: f64 = quiet.iter().map(|w| w.wall_s).sum();
    let cpu_s: f64 = quiet.iter().map(|w| w.cpu_s).sum();
    let p = &mut out.unbounded;
    p.put("qps", ratio(sent as f64, wall_s), "1/s");
    p.put("p50_us", median(&lat), "us");
    p.put("p95_us", percentile(&lat, 95.0), "us");
    p.put("p99_us", percentile(&lat, 99.0), "us");
    p.put("ingest_rows_per_s", high_quartile(&pool.rows_per_s), "rows/s");
    p.put("append_p99_us", low_quartile(&pool.trial_append_p99_us), "us");
    p.put("recover_s", low_quartile(&pool.recover_s), "s");
    p.put("failed_frac", ratio(out.failed as f64, out.attempted as f64), "frac");
    let m = &mut out.metrics;
    m.put("setup_s", median(&pool.setup_s), "s");
    m.put("cpu_us_per_request", ratio(cpu_s * 1e6, sent as f64), "us");
    m.put("cpu_us_per_row", low_quartile(&pool.cpu_us_per_row), "us");
    m.put("recover_cpu_ms", low_quartile(&pool.recover_cpu_ms), "ms");
    m.put("index_bytes_per_data_byte", median(&pool.index_ratio), "B/B");
    m.put("disk_bytes_per_data_byte", median(&pool.disk_ratio), "B/B");
    m.put("write_amp", median(&pool.write_amp), "B/B");
    eprintln!(
        "perfbench: samples: {} latencies, {} append calls, {} set-ups, {} restarts",
        pool.requests,
        pool.appends.all_us.len(),
        pool.setup_s.len(),
        pool.recover_s.len()
    );
}

fn per_layer(m: &mut Metrics, p: &Pool) {
    let sp = SpanTable::build(&p.spans);
    // Wire latency minus the parse, execute and format time of the same
    // request replayed in-process: what the front end itself adds.
    let frontend: Vec<f64> = sp
        .by_request
        .values()
        .filter(|r| r.contains_key("table.exec"))
        .map(|r| {
            let get = |k: &str| r.get(k).copied().unwrap_or(0.0);
            get("wire") - get("protocol.parse") - get("table.exec") - get("protocol.format")
        })
        .collect();
    m.put("server.frontend_self_us", median(&frontend), "us");
    m.put("server.ping_us", median(sp.durations("server.ping")), "us");
    m.put("server.mean_batch", ratio(p.batched as f64, p.batches as f64), "requests");
    m.put("server.shed", p.shed as f64, "count");
    m.put("protocol.parse_us", median(sp.durations("protocol.parse")), "us");
    m.put("protocol.format_us", median(sp.durations("protocol.format")), "us");
    let per = |f: &dyn Fn(&Replay) -> f64| -> Vec<f64> { p.replays.iter().map(f).collect() };
    m.put("protocol.reply_bytes", mean(&per(&|r| r.reply_bytes as f64)), "B");

    let exec = sp.durations("table.exec");
    m.put("table.exec_p50_us", median(exec), "us");
    m.put("table.exec_p99_us", percentile(exec, 99.0), "us");
    m.put("table.segments_visited", mean(&per(&|r| r.stats.sealed_segments as f64)), "segments");
    let queries: Vec<&Replay> = p.replays.iter().filter(|r| !r.count_only).collect();
    let useful: Vec<f64> = queries
        .iter()
        .filter(|r| r.stats.sealed_segments > 0)
        .map(|r| {
            let visited = r.stats.sealed_segments as f64;
            (r.useful_segments as f64).min(visited) / visited
        })
        .collect();
    m.put("table.segments_useful_frac", mean(&useful), "frac");
    m.put("executor.scatter_us", median(sp.durations("executor.scatter")), "us");

    m.put("segment.index_probes", mean(&per(&|r| r.stats.access.index_probes as f64)), "count");
    m.put("segment.lines_fetched", mean(&per(&|r| r.stats.access.lines_fetched as f64)), "count");
    m.put("segment.lines_skipped", mean(&per(&|r| r.stats.access.lines_skipped as f64)), "count");
    let cmp = per(&|r| r.stats.access.value_comparisons as f64);
    m.put("segment.value_comparisons_p50", median(&cmp), "count");
    m.put("segment.value_comparisons_p99", percentile(&cmp, 99.0), "count");
    let matched: u64 = queries.iter().map(|r| r.sealed_ids).sum();
    let compared: u64 = queries.iter().map(|r| r.stats.access.value_comparisons).sum();
    m.put("segment.fp_frac", 1.0 - ratio(matched as f64, compared as f64), "frac");
    m.put("paths.imprint_wins", p.paths[PathKind::Imprints.slot()] as f64, "votes");
    m.put("paths.zonemap_wins", p.paths[PathKind::ZoneMap.slot()] as f64, "votes");
    m.put("paths.scan_wins", p.paths[PathKind::Scan.slot()] as f64, "votes");

    m.put(
        "tail.comparisons",
        mean(&per(&|r| r.stats.tail_access.value_comparisons as f64)),
        "count",
    );
    m.put("tail.indexed_frac", mean(&per(&|r| f64::from(u8::from(r.stats.tail_indexed)))), "frac");

    m.put("append.us", median(&p.appends.plain_us), "us");
    m.put("append.seal_p50_us", median(&p.appends.seal_us), "us");
    m.put("append.seal_max_us", max(&p.appends.seal_us), "us");
    m.put("persist.errors", p.persist_errors as f64, "count");
    m.put("persist.write_bytes", p.write_bytes as f64, "B");

    m.put("planner.tick_p50_ms", median(&p.ticks_ms), "ms");
    m.put("planner.tick_max_ms", max(&p.ticks_ms), "ms");
    m.put("planner.rebuilds", p.rebuilds as f64, "count");
    m.put("planner.compaction_bytes", p.compaction_bytes as f64, "B");
    m.put("planner.evicted_bytes", p.evicted_bytes as f64, "B");
    m.put("storage.faulted_bytes", p.faulted_bytes as f64, "B");

    let rep = p.restart.as_ref().map(|r| &r.report);
    m.put("recovery.read_index_ms", rep.map_or(0.0, |r| r.recover_nanos as f64 / 1e6), "ms");
    m.put("recovery.indexes_rebuilt", rep.map_or(0.0, |r| r.indexes_rebuilt as f64), "count");

    let split = p.split.as_ref();
    m.put("core.imprint_bytes", split.map_or(0.0, |s| mean(&s.imprint_bytes)), "B");
    m.put("baselines.zonemap_bytes", split.map_or(0.0, |s| mean(&s.zonemap_bytes)), "B");
    m.put("core.imprint_build_us", split.map_or(0.0, |s| median(&s.build_us)), "us");

    m.put("loadgen.late_frac", ratio(p.late as f64, p.paced as f64), "frac");

    let traced = median(&p.walls_traced);
    let untraced = median(&p.walls_untraced);
    m.put("trace.overhead_us", traced - untraced, "us");
    m.put("trace.overhead_frac", ratio(traced - untraced, untraced), "frac");
    m.put("trace.request_self_us", median(sp.self_times("request")), "us");
}
