//! The system under test: a durable engine with its wire server, the
//! loader that appends a table in batches, restart, and the index-byte
//! reconciliation against the core and baseline builders.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use baselines::ZoneMap;
use colstore::{Column, ColumnType, RangeIndex};
use imprints::{BuildOptions, ColumnImprints};
use imprints_engine::{
    BatchAnswer, BatchQuery, Engine, EngineConfig, MaintenanceConfig, RecoveryReport,
    StorageOptions, Table,
};
use imprints_server::{Server, ServerConfig};

use crate::trace::Recorder;
use crate::workload::{Answer, TableData, COLUMNS, TABLE};

/// Rows per append batch, for the loader and the ingest writer alike.
pub const BATCH_ROWS: usize = 4096;

/// An engine configuration persisting under `root` with a per-table
/// resident-data budget, and a worker per core.
pub fn engine_config(root: &Path, max_resident_data_bytes: usize) -> EngineConfig {
    EngineConfig {
        storage: StorageOptions {
            root: Some(root.to_path_buf()),
            max_resident_data_bytes,
            load_indexes: true,
        },
        ..Default::default()
    }
}

/// The read workloads' configuration: durable, all data resident, and a
/// planner that examines every segment but never acts, because their
/// table layout (15 sealed segments plus the head) is part of the workload.
pub fn read_config(root: &Path) -> EngineConfig {
    let mut cfg = engine_config(root, usize::MAX);
    cfg.maintenance = MaintenanceConfig {
        saturation_threshold: f64::INFINITY,
        drift_threshold: f64::INFINITY,
        fp_threshold: f64::INFINITY,
        tier_fanin: 0,
        ..Default::default()
    };
    cfg
}

/// A running deployment: the engine, its table and the server in front.
pub struct Deployment {
    /// Engine configuration (kept to reopen after restart).
    pub cfg: EngineConfig,
    /// The engine.
    pub engine: Arc<Engine>,
    /// The workload table.
    pub table: Arc<Table>,
    /// The wire server.
    pub server: Server,
}

/// Creates the engine and the empty workload table under `cfg`.
pub fn create(cfg: EngineConfig) -> colstore::Result<(Arc<Engine>, Arc<Table>)> {
    let engine = Arc::new(Engine::new(cfg));
    let schema: Vec<(&str, ColumnType)> = COLUMNS.iter().map(|c| (*c, ColumnType::I64)).collect();
    let table = engine.create_table(TABLE, &schema)?;
    Ok((engine, table))
}

/// Starts the wire server in front of `engine` on a loopback port.
pub fn serve(
    cfg: EngineConfig,
    engine: Arc<Engine>,
    table: Arc<Table>,
) -> std::io::Result<Deployment> {
    let server = Server::start(Arc::clone(&engine), ServerConfig::from_engine(&cfg))?;
    Ok(Deployment { cfg, engine, table, server })
}

/// Per-call latencies of `Table::append_batch`, split by whether the call
/// sealed a segment.
#[derive(Default)]
pub struct Appends {
    /// Every call, µs.
    pub all_us: Vec<f64>,
    /// Calls during which `segments_sealed` did not advance, µs.
    pub plain_us: Vec<f64>,
    /// Calls during which `segments_sealed` advanced, µs.
    pub seal_us: Vec<f64>,
}

impl Appends {
    /// Appends `data[from..to]` to `table` in [`BATCH_ROWS`]-row batches.
    /// Before each call `hi` is raised to the batch's end and after it `lo`
    /// is, so a reader knows no row at or past `hi` is visible and every
    /// row below `lo` is. `between(rows_done)` runs after each batch.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &mut self,
        table: &Table,
        data: &TableData,
        from: usize,
        to: usize,
        lo: &AtomicU64,
        hi: &AtomicU64,
        rec: &mut Recorder,
        mut between: impl FnMut(usize, &mut Recorder),
    ) -> colstore::Result<()> {
        let mut at = from;
        while at < to {
            let end = (at + BATCH_ROWS).min(to);
            let batch = data.batch(at..end);
            hi.store(end as u64, Ordering::SeqCst);
            let sealed_before = table.stats().segments_sealed.load(Ordering::Relaxed);
            let span = rec.begin("append", end as u64);
            let t = Instant::now();
            let res = table.append_batch(batch);
            let us = t.elapsed().as_secs_f64() * 1e6;
            rec.end(span);
            res?;
            lo.store(end as u64, Ordering::SeqCst);
            self.all_us.push(us);
            if table.stats().segments_sealed.load(Ordering::Relaxed) > sealed_before {
                self.seal_us.push(us);
            } else {
                self.plain_us.push(us);
            }
            at = end;
            between(at - from, rec);
        }
        Ok(())
    }
}

/// What one restart measured.
pub struct Restart {
    /// Wall seconds of the first `Engine::open` after the flush.
    pub recover_s: f64,
    /// CPU seconds the process ran during that open.
    pub recover_cpu_s: f64,
    /// Bytes under the storage root after the flush.
    pub disk_bytes: u64,
    /// The engine's recovery report.
    pub report: RecoveryReport,
    /// Checks made on the reopened table (row count plus each sample).
    pub checks: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// Shuts the server down, flushes, drops the engine, reopens it from disk
/// and checks the row count and `samples` (each with its expected answer)
/// on the reopened table.
pub fn restart(
    dep: Deployment,
    rows: u64,
    samples: &[(BatchQuery, Answer)],
    rec: &mut Recorder,
) -> colstore::Result<Restart> {
    let Deployment { cfg, engine, table, mut server } = dep;
    server.shutdown();
    drop(server);
    drop(table);
    rec.time("recovery.flush", 0, || engine.flush());
    let root = cfg.storage.root.clone().expect("durable deployment");
    let disk_bytes = dir_bytes(&root);
    drop(engine);

    let span = rec.begin("recovery.open", 0);
    let t = Instant::now();
    let cpu0 = process_cpu_s();
    let (engine, report) = Engine::open(cfg)?;
    let recover_cpu_s = process_cpu_s() - cpu0;
    let recover_s = t.elapsed().as_secs_f64();
    rec.end(span);

    let span = rec.begin("recovery.verify", 0);
    let table = engine.table(TABLE)?;
    let mut failed = u64::from(table.row_count() != rows);
    let queries: Vec<BatchQuery> = samples.iter().map(|(q, _)| q.clone()).collect();
    for (res, (_, want)) in
        table.query_batch(&queries, Some(engine.pool())).into_iter().zip(samples)
    {
        if res.ok().map(|(a, _)| to_answer(a)).as_ref() != Some(want) {
            failed += 1;
        }
    }
    rec.end(span);
    Ok(Restart {
        recover_s,
        recover_cpu_s,
        disk_bytes,
        report,
        checks: 1 + samples.len() as u64,
        failed,
    })
}

/// An engine answer in the benchmark's reply form.
pub fn to_answer(a: BatchAnswer) -> Answer {
    match a {
        BatchAnswer::Ids(ids) => Answer::Ids(ids.into_vec()),
        BatchAnswer::Count(n) => Answer::Count(n),
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes this process caused to be written to storage (`write_bytes` of
/// `/proc/self/io`), or 0 where the kernel does not report it.
pub fn write_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("write_bytes:").and_then(|v| v.trim().parse().ok()))
        })
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process,
/// those that ended included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// CPU seconds this process has run, on all its threads. The guest kernel
/// leaves out the time the hypervisor stole, so unlike wall-clock time it
/// does not grow when other guests of the host are busy.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run (see [`process_cpu_s`]).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Machine-wide CPU clock ticks since boot: stolen by the hypervisor for
/// other guests, and in all.
#[derive(Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

/// The `steal` field and the sum of the `cpu` line of `/proc/stat`, or
/// zeros where the kernel does not report them.
pub fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    CpuTicks { steal: fields.get(7).copied().unwrap_or(0), total: fields.iter().sum() }
}

/// The share of the machine's CPU time stolen since `start`: 0 on a quiet
/// host, or where the kernel does not report it.
pub fn steal_since(start: CpuTicks) -> f64 {
    let now = cpu_ticks();
    let total = now.total.saturating_sub(start.total);
    if total == 0 {
        0.0
    } else {
        now.steal.saturating_sub(start.steal) as f64 / total as f64
    }
}

/// The index bytes of a table loaded in [`BATCH_ROWS`]-row batches,
/// rebuilt outside the engine from the same data with the core and
/// baseline builders.
pub struct IndexSplit {
    /// `ColumnImprints` bytes per sealed segment column.
    pub imprint_bytes: Vec<f64>,
    /// `ZoneMap` bytes per sealed segment column.
    pub zonemap_bytes: Vec<f64>,
    /// Imprint build time per sealed segment column, µs.
    pub build_us: Vec<f64>,
    /// Tail imprint bytes of the open head.
    pub tail_bytes: usize,
}

impl IndexSplit {
    /// Rebuilds the indexes of `data`'s first `rows` rows the way the
    /// engine's loader path builds them: each column's first sealed
    /// segment samples its binning and later segments inherit it; the
    /// head grows a tail imprint once it holds `cfg.tail_index_min_rows`
    /// rows and extends it batch by batch, resampling on drift.
    pub fn rebuild(data: &TableData, rows: usize, cfg: &EngineConfig) -> IndexSplit {
        let seg = cfg.segment_rows;
        let sealed = rows / seg * seg;
        let mut split = IndexSplit {
            imprint_bytes: Vec::new(),
            zonemap_bytes: Vec::new(),
            build_us: Vec::new(),
            tail_bytes: 0,
        };
        for c in 0..COLUMNS.len() {
            let values = &data.col(c)[..rows];
            let mut binning = None;
            for chunk in values[..sealed].chunks(seg) {
                let col: Column<i64> = chunk.iter().copied().collect();
                let t = Instant::now();
                let imp = match binning.take() {
                    None => ColumnImprints::build(&col),
                    Some(b) => ColumnImprints::build_with_binning(&col, b, BuildOptions::default()),
                };
                split.build_us.push(t.elapsed().as_secs_f64() * 1e6);
                binning = Some(imp.binning().clone());
                split.imprint_bytes.push(imp.size_bytes() as f64);
                split.zonemap_bytes.push(RangeIndex::size_bytes(&ZoneMap::build(&col)) as f64);
            }
            split.tail_bytes += tail_bytes(&values[sealed..], cfg.tail_index_min_rows);
        }
        split
    }

    /// The sum the engine reports as `Table::index_bytes()`.
    pub fn total(&self) -> usize {
        (self.imprint_bytes.iter().sum::<f64>() + self.zonemap_bytes.iter().sum::<f64>()) as usize
            + self.tail_bytes
    }
}

/// Replays the open head's tail-imprint life over `head`, appended in
/// [`BATCH_ROWS`]-row batches.
fn tail_bytes(head: &[i64], min_rows: usize) -> usize {
    let mut imp: Option<ColumnImprints<i64>> = None;
    let mut len = 0;
    for chunk in head.chunks(BATCH_ROWS) {
        len += chunk.len();
        if len < min_rows {
            continue;
        }
        imp = Some(match imp.take() {
            None => ColumnImprints::build(&head[..len].iter().copied().collect()),
            Some(mut i) => {
                i.append(chunk);
                if i.append_drift_excessive() {
                    i.rebuild(&head[..len].iter().copied().collect())
                } else {
                    i
                }
            }
        });
    }
    imp.map_or(0, |i| i.size_bytes())
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: PathBuf) -> std::io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(&path)?;
    }
    std::fs::create_dir_all(&path)?;
    Ok(path)
}
