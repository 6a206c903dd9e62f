//! Tables: epoch-guarded sealed segments plus one open write segment.
//!
//! ## Concurrency scheme
//!
//! A table's sealed segments live behind `RwLock<Arc<Vec<Arc<SealedSegment>>>>`
//! — an epoch-style snapshot: readers clone the outer `Arc` (O(1)) and work
//! on a frozen segment list while writers install a new list by swapping
//! the `Arc` (copy-on-write of the *pointer vector*, never of data). The
//! open segment — the write head — sits behind its own `RwLock`; queries
//! take it for read just long enough to scan its (bounded, ≤ one segment)
//! rows, appenders take it for write.
//!
//! Lock order is `open` before `sealed` everywhere. Sealing happens while
//! holding the open write lock, so a reader holding the open read lock
//! observes a consistent pair: the sealed list cannot advance under it.
//! Every query therefore sees an exact *prefix* of the table's rows —
//! never a gap, never a duplicate — identified by `(epoch, visible rows)`.
//!
//! The write head is not a blind buffer: once it holds
//! [`EngineConfig::tail_index_min_rows`] rows, each open column buffer
//! carries an incremental **tail imprint** ([`crate::tail`]) extended on
//! every append inside the same write critical section, so queries skip
//! non-qualifying cachelines of the head instead of scanning it linearly
//! under the read lock. The tail index is discarded at seal, when the
//! sealed segment builds its real per-segment imprint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use colstore::relation::AnyColumn;
use colstore::{AccessStats, Column, ColumnType, Error, IdList, Result, Scalar, Value};
use imprints::relation_index::{ValueRange, ValueSet};

use crate::config::EngineConfig;
use crate::executor::WorkerPool;
use crate::persist::{SegmentEntry, TableStore};
use crate::segment::{SealedSegment, SegBatchAnswer, SegBatchQuery};
use crate::tail::AnyTailIndex;

/// A named column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Scalar type.
    pub ty: ColumnType,
}

type SegmentList = Arc<Vec<Arc<SealedSegment>>>;

/// One sealed segment's share of a batch sweep: its base row id plus one
/// (answer, stats) pair per query slot.
type SegSweep = (u64, Vec<(SegBatchAnswer, AccessStats)>);

struct OpenSegment {
    base: u64,
    bufs: Vec<AnyColumn>,
    /// Per-column incremental tail imprints over `bufs`, present once the
    /// head crossed [`EngineConfig::tail_index_min_rows`]; maintained
    /// under the open write lock and discarded at seal.
    tails: Option<Vec<AnyTailIndex>>,
}

impl OpenSegment {
    fn len(&self) -> usize {
        self.bufs.first().map_or(0, AnyColumn::len)
    }
}

/// Cumulative table counters.
#[derive(Debug, Default)]
pub struct TableStats {
    /// Queries served.
    pub queries: AtomicU64,
    /// Rows appended over the table's lifetime.
    pub rows_appended: AtomicU64,
    /// Segments sealed.
    pub segments_sealed: AtomicU64,
    /// Segment-column index rebuilds applied by the planner.
    pub rebuilds: AtomicU64,
    /// Compaction merges applied (each replaces several segments by one).
    pub compactions: AtomicU64,
    /// Sealed segments consumed as compaction inputs.
    pub segments_compacted: AtomicU64,
}

/// Aggregate statistics of one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Merged access counters across all *sealed* segments visited.
    pub access: AccessStats,
    /// Access counters of the open write head, kept separate from the
    /// sealed-path work: imprint probes/skips when the tail index served
    /// the head, scalar comparisons when it fell back to the linear scan.
    pub tail_access: AccessStats,
    /// Whether the open rows were answered through the incremental tail
    /// imprint (`false`: head below the engage threshold, tail indexing
    /// disabled, or no predicate touched the head).
    pub tail_indexed: bool,
    /// Rows in the open write head visible to the query.
    pub open_rows: usize,
    /// Sealed segments visited.
    pub sealed_segments: usize,
    /// Rows visible to the query (its consistent prefix length).
    pub visible_rows: u64,
    /// The table epoch the query executed against.
    pub epoch: u64,
}

/// One request of a [`Table::query_batch`] call: named column predicates —
/// each a [`ValueSet`] (one range, an IN-list, any union of intervals) —
/// combined conjunctively or, with `any`, disjunctively; materializing ids
/// or counting.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    /// `(column name, value set)` predicates; empty selects all rows under
    /// conjunction semantics and none under `any`.
    pub preds: Vec<(String, ValueSet)>,
    /// `true` evaluates the predicates as a disjunction (`OR` group).
    pub any: bool,
    /// `true` counts matching rows instead of materializing ids.
    pub count_only: bool,
}

impl BatchQuery {
    /// A materializing query over single-range `preds` (the pre-`ValueSet`
    /// shape, kept for callers without IN-lists).
    pub fn ids(preds: Vec<(String, ValueRange)>) -> BatchQuery {
        BatchQuery::ids_sets(preds.into_iter().map(|(n, r)| (n, ValueSet::range(r))).collect())
    }

    /// A count-only query over single-range `preds`.
    pub fn count(preds: Vec<(String, ValueRange)>) -> BatchQuery {
        BatchQuery::count_sets(preds.into_iter().map(|(n, r)| (n, ValueSet::range(r))).collect())
    }

    /// A materializing conjunction over value-set predicates.
    pub fn ids_sets(preds: Vec<(String, ValueSet)>) -> BatchQuery {
        BatchQuery { preds, any: false, count_only: false }
    }

    /// A count-only conjunction over value-set predicates.
    pub fn count_sets(preds: Vec<(String, ValueSet)>) -> BatchQuery {
        BatchQuery { preds, any: false, count_only: true }
    }

    /// The same query with disjunction (`OR` group) semantics.
    pub fn or_group(mut self) -> BatchQuery {
        self.any = true;
        self
    }
}

/// The answer of one [`BatchQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchAnswer {
    /// Global matching row ids (a materializing query).
    Ids(IdList),
    /// Matching row count (a count-only query).
    Count(u64),
}

impl BatchAnswer {
    /// The ids of a materializing query's answer.
    pub(crate) fn into_ids(self) -> IdList {
        match self {
            BatchAnswer::Ids(ids) => ids,
            BatchAnswer::Count(_) => unreachable!("a materializing query answers with ids"),
        }
    }

    /// The number of matching rows, in either answer form.
    pub(crate) fn into_count(self) -> u64 {
        match self {
            BatchAnswer::Ids(ids) => ids.len() as u64,
            BatchAnswer::Count(n) => n,
        }
    }
}

/// A sharded, concurrently readable and appendable relation.
pub struct Table {
    name: String,
    schema: Vec<ColumnDef>,
    cfg: EngineConfig,
    sealed: RwLock<SegmentList>,
    open: RwLock<OpenSegment>,
    epoch: AtomicU64,
    stats: TableStats,
    /// The durable side of the table when
    /// [`StorageOptions::root`](crate::StorageOptions::root) is set;
    /// `None` keeps the table memory-only.
    store: Option<TableStore>,
    /// Failed persistence attempts (segment writes or manifest commits).
    /// A failure degrades durability to in-memory availability — appends
    /// and queries keep working — and rings this counter instead.
    persist_errors: AtomicU64,
}

impl Table {
    /// Creates an empty table with `schema`. The configuration's
    /// [`refine_kernel`](EngineConfig::refine_kernel) scopes to this
    /// table: it is resolved against the `IMPRINTS_REFINE_KERNEL`
    /// environment override (which wins when set) and threaded into every
    /// sealed-segment, write-head and conjunction value check — creating
    /// another table with a different selection does not affect this one.
    pub fn new(name: &str, schema: &[(&str, ColumnType)], cfg: EngineConfig) -> Result<Table> {
        cfg.validate();
        if schema.is_empty() {
            return Err(Error::Mismatch("a table needs at least one column".into()));
        }
        let mut defs = Vec::with_capacity(schema.len());
        for (cname, ty) in schema {
            if defs.iter().any(|d: &ColumnDef| d.name == *cname) {
                return Err(Error::Mismatch(format!("duplicate column {cname:?}")));
            }
            defs.push(ColumnDef { name: (*cname).to_string(), ty: *ty });
        }
        let bufs = defs.iter().map(|d| AnyColumn::new_empty(d.ty)).collect();
        let store = match &cfg.storage.root {
            Some(root) => Some(TableStore::create(root, name, &defs)?),
            None => None,
        };
        Ok(Table {
            name: name.to_string(),
            schema: defs,
            cfg,
            sealed: RwLock::new(Arc::new(Vec::new())),
            open: RwLock::new(OpenSegment { base: 0, bufs, tails: None }),
            epoch: AtomicU64::new(0),
            stats: TableStats::default(),
            store,
            persist_errors: AtomicU64::new(0),
        })
    }

    /// Reassembles a table from its recovered durable state — sealed
    /// segments as listed in the committed manifest, the open write head
    /// empty and starting right after the last sealed row.
    pub(crate) fn recover(
        name: &str,
        schema: Vec<ColumnDef>,
        cfg: EngineConfig,
        store: TableStore,
        segments: Vec<Arc<SealedSegment>>,
        epoch: u64,
    ) -> Table {
        let base = segments.last().map_or(0, |s| s.base() + s.rows() as u64);
        let bufs = schema.iter().map(|d| AnyColumn::new_empty(d.ty)).collect();
        Table {
            name: name.to_string(),
            schema,
            cfg,
            sealed: RwLock::new(Arc::new(segments)),
            open: RwLock::new(OpenSegment { base, bufs, tails: None }),
            epoch: AtomicU64::new(epoch),
            stats: TableStats::default(),
            store: Some(store),
            persist_errors: AtomicU64::new(0),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &[ColumnDef] {
        &self.schema
    }

    /// The table's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Monotonic structure-change counter (bumped per seal and per
    /// maintenance swap).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Total rows (sealed + open) at this instant.
    pub fn row_count(&self) -> u64 {
        let open = self.open.read().expect("open lock");
        open.base + open.len() as u64
    }

    /// Number of sealed segments at this instant.
    pub fn sealed_segment_count(&self) -> usize {
        self.sealed.read().expect("sealed lock").len()
    }

    /// Bytes of secondary-index structures: every sealed segment's imprint
    /// and zonemap, plus the open head's tail imprints once built.
    pub fn index_bytes(&self) -> usize {
        let open = self.open.read().expect("open lock");
        let sealed = self.sealed.read().expect("sealed lock").clone();
        let tail_bytes: usize =
            open.tails.as_ref().map_or(0, |tails| tails.iter().map(AnyTailIndex::size_bytes).sum());
        drop(open);
        sealed
            .iter()
            .map(|s| s.columns().iter().map(|c| c.index_bytes()).sum::<usize>())
            .sum::<usize>()
            + tail_bytes
    }

    // ------------------------------------------------------------------
    // Appending
    // ------------------------------------------------------------------

    /// Appends one row (`values` in schema order). Prefer
    /// [`Table::append_batch`] for throughput.
    pub fn append_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(Error::Mismatch(format!(
                "row has {} values, schema has {} columns",
                values.len(),
                self.schema.len()
            )));
        }
        let mut batch: Vec<AnyColumn> =
            self.schema.iter().map(|d| AnyColumn::new_empty(d.ty)).collect();
        for (buf, v) in batch.iter_mut().zip(values) {
            buf.push_value(*v)?;
        }
        self.append_batch(batch)
    }

    /// Appends a columnar batch (schema order, equal lengths), sealing
    /// segments as they fill. Returns after all rows are visible.
    pub fn append_batch(&self, batch: Vec<AnyColumn>) -> Result<()> {
        if batch.len() != self.schema.len() {
            return Err(Error::Mismatch(format!(
                "batch has {} columns, schema has {}",
                batch.len(),
                self.schema.len()
            )));
        }
        let rows = batch.first().map_or(0, AnyColumn::len);
        for (buf, def) in batch.iter().zip(&self.schema) {
            if buf.column_type() != def.ty {
                return Err(Error::Mismatch(format!(
                    "batch column for {:?} has type {}, schema says {}",
                    def.name,
                    buf.column_type(),
                    def.ty
                )));
            }
            if buf.len() != rows {
                return Err(Error::Mismatch("ragged append batch".into()));
            }
        }
        if rows == 0 {
            return Ok(());
        }

        let mut open = self.open.write().expect("open lock");
        let mut taken = 0usize;
        while taken < rows {
            let room = self.cfg.segment_rows - open.len();
            let take = room.min(rows - taken);
            let from = open.len();
            for (buf, src) in open.bufs.iter_mut().zip(&batch) {
                buf.extend_from_range(src, taken..taken + take)?;
            }
            taken += take;
            if open.len() == self.cfg.segment_rows {
                // The chunk filled the segment: sealing builds the real
                // per-segment imprint and discards the tail, so extending
                // (or building) the tail for these rows would be pure
                // throwaway work — skip straight to the seal.
                self.seal_open(&mut open);
            } else {
                index_open_tail(&mut open, from, self.cfg.tail_index_min_rows);
            }
        }
        self.stats.rows_appended.fetch_add(rows as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Seals the (full) open segment into the sealed list. Caller holds the
    /// open write lock, which is what makes the seal atomic to readers. The
    /// tail imprint is discarded here: the sealed segment builds its real
    /// per-segment imprint (with binning inheritance) below.
    ///
    /// Index building and the durable segment write both happen *before*
    /// the sealed lock — only the list swap needs it. Seals are serialized
    /// by the open write lock the caller holds, so the previous segment
    /// (read from a snapshot for binning inheritance) cannot be outpaced
    /// by another seal; a concurrent maintenance swap of it is harmless,
    /// the pinned `Arc` stays valid. Persisting first also means a
    /// manifest can never name a directory that is not fully on disk.
    fn seal_open(&self, open: &mut OpenSegment) {
        open.tails = None;
        let bufs = std::mem::replace(
            &mut open.bufs,
            self.schema.iter().map(|d| AnyColumn::new_empty(d.ty)).collect(),
        );
        let base = open.base;
        let rows = bufs.first().map_or(0, AnyColumn::len);
        let prev = self.sealed_snapshot();
        let seg =
            Arc::new(SealedSegment::seal(base, bufs, prev.last().map(Arc::as_ref), &self.cfg));
        self.persist_segment(&seg);
        let mut sealed = self.sealed.write().expect("sealed lock");
        let mut list: Vec<Arc<SealedSegment>> = sealed.as_ref().clone();
        list.push(seg);
        *sealed = Arc::new(list);
        // Bump while still holding the write lock, so a reader holding the
        // read lock always sees an epoch that matches the list it pinned.
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let epoch = self.epoch.load(Ordering::Acquire);
        let snapshot = sealed.clone();
        drop(sealed);
        open.base = base + rows as u64;
        self.stats.segments_sealed.fetch_add(1, Ordering::Relaxed);
        self.commit_manifest_for(epoch, &snapshot);
    }

    /// Seals the open write head even when partially filled — the
    /// clean-shutdown hook making every appended row durable before the
    /// process exits. A later append simply starts a fresh segment, and
    /// queries are unaffected (a sealed partial segment answers exactly
    /// like the open rows did). Returns whether anything was sealed.
    pub fn flush_open(&self) -> bool {
        let mut open = self.open.write().expect("open lock");
        if open.len() == 0 {
            return false;
        }
        self.seal_open(&mut open);
        true
    }

    /// Writes `seg`'s durable directory when the table persists, counting
    /// (not propagating) failures: availability beats durability, and the
    /// manifest commit below refuses to name a segment that never made it
    /// to disk.
    fn persist_segment(&self, seg: &SealedSegment) {
        if let Some(store) = &self.store {
            if store.persist_segment(seg).is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Commits the manifest naming `list` at `epoch` on a durable table.
    /// A list containing a never-persisted segment (an earlier write
    /// failure) skips the commit — the durable state stays at its last
    /// good epoch — and counts a persistence error.
    fn commit_manifest_for(&self, epoch: u64, list: &[Arc<SealedSegment>]) {
        let Some(store) = &self.store else { return };
        let entries: Option<Vec<SegmentEntry>> = list
            .iter()
            .map(|s| {
                s.durable_name().map(|dir| SegmentEntry {
                    base: s.base(),
                    rows: s.rows() as u64,
                    dir: dir.to_string(),
                })
            })
            .collect();
        let committed = match entries {
            Some(entries) => store.commit_manifest(epoch, &self.schema, &entries).is_ok(),
            None => false,
        };
        if !committed {
            self.persist_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Failed persistence attempts so far (see [`Table::recover`] docs on
    /// the availability-over-durability policy).
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors.load(Ordering::Relaxed)
    }

    /// `true` when the table writes durable state.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The durable store, for catalog-level operations (`drop_table`).
    pub(crate) fn store(&self) -> Option<&TableStore> {
        self.store.as_ref()
    }

    /// Removes the superseded segment directories whose last reader is
    /// gone (see [`TableStore::reclaim`]); runs at every maintenance tick
    /// and flush.
    pub(crate) fn reclaim(&self) {
        if let Some(store) = &self.store {
            store.reclaim();
        }
    }

    /// Segment directories the committed manifest no longer names that a
    /// reader (or a rebuilt copy not yet persisted) still holds.
    pub fn superseded_segments(&self) -> usize {
        self.store.as_ref().map_or(0, TableStore::superseded)
    }

    /// Superseded segment directories removed at runtime so far.
    pub fn reclaimed_segments(&self) -> u64 {
        self.store.as_ref().map_or(0, TableStore::reclaimed)
    }

    /// Atomically replaces sealed segment `idx` if it is still `old` —
    /// the planner's swap step. Returns whether the swap happened.
    pub(crate) fn replace_segment(
        &self,
        idx: usize,
        old: &Arc<SealedSegment>,
        new: SealedSegment,
    ) -> bool {
        let new = Arc::new(new);
        // Persist before the swap: losing the race below drops `new`, and
        // its directory, named by no manifest, is reclaimed at the next
        // tick.
        self.persist_segment(&new);
        let mut sealed = self.sealed.write().expect("sealed lock");
        match sealed.get(idx) {
            Some(cur) if Arc::ptr_eq(cur, old) => {
                let mut list: Vec<Arc<SealedSegment>> = sealed.as_ref().clone();
                list[idx] = new;
                *sealed = Arc::new(list);
                self.epoch.fetch_add(1, Ordering::AcqRel);
                let epoch = self.epoch.load(Ordering::Acquire);
                let snapshot = sealed.clone();
                drop(sealed);
                self.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
                self.commit_manifest_for(epoch, &snapshot);
                true
            }
            _ => false,
        }
    }

    /// Atomically replaces the `old.len()` sealed segments starting at
    /// `start` with the single merged segment `new` — the compaction swap.
    /// Succeeds only if every segment of the window is still the exact
    /// `Arc` the merge was built from (a seal appending behind the window
    /// does not invalidate it; a concurrent rebuild or compaction inside it
    /// does). Readers pinned to the old list keep a fully consistent view;
    /// new readers see the merged segment. Returns whether the swap
    /// happened.
    pub(crate) fn replace_segments(
        &self,
        start: usize,
        old: &[Arc<SealedSegment>],
        new: SealedSegment,
    ) -> bool {
        debug_assert!(old.len() >= 2, "compaction must merge at least two segments");
        debug_assert_eq!(new.base(), old[0].base(), "merged segment must keep the window base");
        debug_assert_eq!(
            new.rows(),
            old.iter().map(|s| s.rows()).sum::<usize>(),
            "merged segment must keep every row"
        );
        let new = Arc::new(new);
        self.persist_segment(&new);
        let mut sealed = self.sealed.write().expect("sealed lock");
        let window = match sealed.get(start..start + old.len()) {
            Some(w) => w,
            None => return false,
        };
        if !window.iter().zip(old).all(|(cur, o)| Arc::ptr_eq(cur, o)) {
            return false;
        }
        let mut list: Vec<Arc<SealedSegment>> = Vec::with_capacity(sealed.len() - old.len() + 1);
        list.extend(sealed[..start].iter().cloned());
        list.push(new);
        list.extend(sealed[start + old.len()..].iter().cloned());
        *sealed = Arc::new(list);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let epoch = self.epoch.load(Ordering::Acquire);
        let snapshot = sealed.clone();
        drop(sealed);
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats.segments_compacted.fetch_add(old.len() as u64, Ordering::Relaxed);
        self.commit_manifest_for(epoch, &snapshot);
        true
    }

    /// The current sealed segment list (a frozen snapshot).
    pub(crate) fn sealed_snapshot(&self) -> SegmentList {
        self.sealed.read().expect("sealed lock").clone()
    }

    // ------------------------------------------------------------------
    // Querying
    // ------------------------------------------------------------------

    /// Evaluates a conjunction of `(column, range)` predicates serially on
    /// the calling thread — a [`Table::query_batch`] of one. An empty
    /// predicate list selects every row.
    pub fn query(&self, preds: &[(&str, ValueRange)]) -> Result<IdList> {
        self.one(BatchQuery::ids(named(preds)), None).map(|(answer, _)| answer.into_ids())
    }

    /// Counts rows matching a conjunction of `(column, range)` predicates
    /// without materializing ids — a [`Table::query_batch`] of one.
    pub fn count(&self, preds: &[(&str, ValueRange)], pool: Option<&WorkerPool>) -> Result<u64> {
        self.one(BatchQuery::count(named(preds)), pool).map(|(answer, _)| answer.into_count())
    }

    /// Answers `query` alone — a [`Table::query_batch`] of one, the body
    /// of every single-query read.
    pub(crate) fn one(
        &self,
        query: BatchQuery,
        pool: Option<&WorkerPool>,
    ) -> Result<(BatchAnswer, QueryStats)> {
        self.query_batch(std::slice::from_ref(&query), pool).pop().expect("one answer per query")
    }

    /// This table's refinement kernel: the configured selection resolved
    /// against the `IMPRINTS_REFINE_KERNEL` environment override.
    fn refine_kernel(&self) -> imprints::simd::RefineKernel {
        imprints::simd::effective_kernel(self.cfg.refine_kernel)
    }

    /// The engine's one read pipeline: resolves every query, pins **one**
    /// consistent prefix, sweeps each sealed segment once, and merges.
    /// Every other read ([`Table::query`], [`Table::count`],
    /// [`crate::Engine::query`], the server batcher) is a call of this.
    ///
    /// All queries observe the same consistent prefix (one epoch, one
    /// sealed list, one open-head read), and the sealed segments are swept
    /// **once per batch**: each segment is one task answering every
    /// query's predicates while its data and indexes are cache-hot
    /// ([`SealedSegment::evaluate_batch`]), instead of one cold sealed-list
    /// walk per query. Batching never changes an answer: each query in a
    /// batch answers exactly as it would in a batch of one against an
    /// unchanging table.
    ///
    /// Per-query predicate resolution errors come back in that query's
    /// slot; the remaining queries still evaluate. The snapshot stays valid
    /// even if the table is concurrently dropped from its catalog — the
    /// pinned `Arc`s keep every segment alive until the batch finishes.
    pub fn query_batch(
        &self,
        queries: &[BatchQuery],
        pool: Option<&WorkerPool>,
    ) -> Vec<Result<(BatchAnswer, QueryStats)>> {
        // Resolve every query first; failures keep their slot and never
        // reach the data pass.
        let mut errors = Vec::with_capacity(queries.len());
        let mut valid = Vec::with_capacity(queries.len());
        for q in queries {
            match Resolved::new(&self.schema, q) {
                Ok(r) => {
                    valid.push(r);
                    errors.push(None);
                }
                Err(e) => errors.push(Some(e)),
            }
        }
        let valid = Arc::new(valid);

        // Pin the prefix: the open read lock excludes sealing, so the
        // sealed list and the open rows agree. The head is evaluated under
        // the lock (bounded by one segment, and through the tail imprint
        // once the head is large enough); the sealed segments after
        // release, on the frozen list.
        let open = self.open.read().expect("open lock");
        let sealed_guard = self.sealed.read().expect("sealed lock");
        let sealed = sealed_guard.clone();
        // Read under the lock: epoch bumps happen inside the write
        // critical sections, so this value names exactly the pinned
        // (sealed list, open rows) pair.
        let epoch = self.epoch();
        drop(sealed_guard);
        let kernel = self.refine_kernel();
        let open_base = open.base;
        let heads: Vec<OpenEval> = valid
            .iter()
            .map(|q| eval_open(&open.bufs, open.tails.as_deref(), &q.preds, q.any, kernel))
            .collect();
        drop(open);

        let mut swept = sweep(&sealed, &valid, pool).map(Vec::into_iter);
        let mut heads = heads.into_iter();
        errors
            .into_iter()
            .map(|error| {
                if let Some(e) = error {
                    return Err(e);
                }
                let head = heads.next().expect("one head evaluation per resolved query");
                let Some((mut answer, access)) = swept.as_mut().and_then(Iterator::next) else {
                    return Err(Error::Mismatch("segment evaluation task panicked".into()));
                };
                head.add_to(&mut answer, open_base);
                self.stats.queries.fetch_add(1, Ordering::Relaxed);
                let stats = QueryStats {
                    access,
                    tail_access: head.access,
                    tail_indexed: head.tail_indexed,
                    open_rows: head.rows,
                    sealed_segments: sealed.len(),
                    visible_rows: open_base + head.rows as u64,
                    epoch,
                };
                Ok((answer, stats))
            })
            .collect()
    }

    /// Reconstructs the tuple at global row `id` (late materialization).
    pub fn tuple(&self, id: u64) -> Option<Vec<Value>> {
        let open = self.open.read().expect("open lock");
        if id >= open.base {
            let local = (id - open.base) as usize;
            return (local < open.len())
                .then(|| open.bufs.iter().map(|b| b.value(local).expect("in range")).collect());
        }
        let sealed = self.sealed.read().expect("sealed lock").clone();
        drop(open);
        let idx = sealed.partition_point(|s| s.base() + s.rows() as u64 <= id);
        let seg = sealed.get(idx)?;
        let local = (id - seg.base()) as usize;
        Some(seg.columns().iter().map(|c| c.value(local).expect("in range")).collect())
    }

    /// A consistent point-in-time copy of the table's visible rows — meant
    /// for validation and tests, not the hot path (it copies the data).
    pub fn snapshot(&self) -> TableSnapshot {
        let open = self.open.read().expect("open lock");
        let sealed_guard = self.sealed.read().expect("sealed lock");
        let sealed = sealed_guard.clone();
        let epoch = self.epoch();
        drop(sealed_guard);
        let open_bufs = open.bufs.clone();
        let open_base = open.base;
        drop(open);
        TableSnapshot {
            schema: self.schema.clone(),
            sealed,
            open_base,
            open_bufs,
            epoch,
            kernel: self.refine_kernel(),
        }
    }
}

/// `(column, range)` predicates in a [`BatchQuery`]'s owned form.
pub(crate) fn named(preds: &[(&str, ValueRange)]) -> Vec<(String, ValueRange)> {
    preds.iter().map(|(name, range)| ((*name).to_string(), *range)).collect()
}

/// One query with its predicates resolved to column positions.
struct Resolved {
    preds: Vec<(usize, ValueSet)>,
    any: bool,
    count_only: bool,
}

impl Resolved {
    /// Resolves and type-checks `query`'s `(name, value set)` predicates
    /// against `schema`, cloning each set once — shared by [`Table`] and
    /// [`TableSnapshot`] so both surfaces report a mismatched bound (in any
    /// term of any set) as an error instead of panicking later.
    fn new(schema: &[ColumnDef], query: &BatchQuery) -> Result<Resolved> {
        let mut preds = Vec::with_capacity(query.preds.len());
        for (name, set) in &query.preds {
            let pos = schema
                .iter()
                .position(|d| d.name == *name)
                .ok_or_else(|| Error::NotFound(format!("column {name:?}")))?;
            let ty = schema[pos].ty;
            for range in &set.terms {
                for bound in [&range.low, &range.high].into_iter().flatten() {
                    if bound.column_type() != ty {
                        return Err(Error::Mismatch(format!(
                            "predicate bound {bound} has type {}, column {name:?} holds {ty}",
                            bound.column_type()
                        )));
                    }
                }
            }
            preds.push((pos, set.clone()));
        }
        Ok(Resolved { preds, any: query.any, count_only: query.count_only })
    }
}

/// The sealed half of every read: one task per segment answers every
/// query of the batch ([`SealedSegment::evaluate_batch`]), on `pool` when
/// given, and the per-segment answers merge in segment order into one
/// (answer, sealed access counters) pair per query. `None` when a segment
/// task panicked.
fn sweep(
    sealed: &[Arc<SealedSegment>],
    queries: &Arc<Vec<Resolved>>,
    pool: Option<&WorkerPool>,
) -> Option<Vec<(BatchAnswer, AccessStats)>> {
    fn run(seg: &SealedSegment, queries: &[Resolved]) -> SegSweep {
        let batch: Vec<SegBatchQuery> = queries
            .iter()
            .map(|q| SegBatchQuery { preds: &q.preds, any: q.any, count_only: q.count_only })
            .collect();
        (seg.base(), seg.evaluate_batch(&batch))
    }
    let per_segment: Vec<Option<SegSweep>> = match pool {
        Some(pool) if sealed.len() > 1 && !queries.is_empty() => {
            pool.scatter(sealed.iter().map(|seg| {
                let (seg, queries) = (Arc::clone(seg), Arc::clone(queries));
                move || run(&seg, &queries)
            }))
        }
        _ => sealed.iter().map(|seg| Some(run(seg, queries))).collect(),
    };
    let mut merged: Vec<(BatchAnswer, AccessStats)> = queries
        .iter()
        .map(|q| {
            let answer =
                if q.count_only { BatchAnswer::Count(0) } else { BatchAnswer::Ids(IdList::new()) };
            (answer, AccessStats::default())
        })
        .collect();
    for (base, answers) in per_segment.into_iter().collect::<Option<Vec<_>>>()? {
        for ((answer, access), (part, stats)) in merged.iter_mut().zip(answers) {
            access.merge(&stats);
            match (answer, part) {
                (BatchAnswer::Ids(ids), SegBatchAnswer::Ids(part)) => {
                    ids.extend_offset(&part, base)
                }
                (BatchAnswer::Count(n), SegBatchAnswer::Count(part)) => *n += part,
                _ => unreachable!("a segment answers in its query's output form"),
            }
        }
    }
    Some(merged)
}

/// Result of evaluating a query's predicates over the open write head.
#[derive(Debug, Default)]
struct OpenEval {
    /// Matching head-local row ids.
    hits: IdList,
    /// Open rows visible to the query.
    rows: usize,
    /// Work performed on the head (imprint probes or scalar comparisons).
    access: AccessStats,
    /// Whether the tail imprint served the head.
    tail_indexed: bool,
}

impl OpenEval {
    /// Adds the head's matches to a query's sealed answer: ids offset by
    /// the head's base row, or their count.
    fn add_to(&self, answer: &mut BatchAnswer, open_base: u64) {
        match answer {
            BatchAnswer::Ids(ids) => ids.extend_offset(&self.hits, open_base),
            BatchAnswer::Count(n) => *n += self.hits.len() as u64,
        }
    }
}

/// Evaluates resolved predicates over the open segment.
///
/// Conjunctions: the first predicate reads the whole head, so it routes
/// through the column's tail imprint when one is maintained — term by term
/// for multi-interval sets ([`AnyTailIndex::evaluate_set`]), skipping
/// non-qualifying cachelines exactly like sealed segments do; the
/// remaining predicates weed the (typically few, scattered) survivors
/// with the gather-style kernel. Disjunctions (`any`): every arm reads
/// the whole head, so each rides its *own* column's tail imprint and the
/// results union. Without tails every predicate takes the kernel path
/// over the full buffer.
fn eval_open(
    bufs: &[AnyColumn],
    tails: Option<&[AnyTailIndex]>,
    rpreds: &[(usize, ValueSet)],
    any: bool,
    kernel: imprints::simd::RefineKernel,
) -> OpenEval {
    let rows = bufs.first().map_or(0, AnyColumn::len);
    if rows == 0 {
        return OpenEval::default();
    }
    if rpreds.is_empty() {
        // The empty conjunction selects everything; the empty disjunction
        // (identity of OR) selects nothing.
        if any {
            return OpenEval { rows, ..Default::default() };
        }
        return OpenEval {
            hits: IdList::from_sorted((0..rows as u64).collect()),
            rows,
            ..Default::default()
        };
    }
    let mut out = OpenEval { rows, ..Default::default() };
    if any {
        let mut acc = IdList::new();
        for (col, set) in rpreds {
            let hits = match tails {
                Some(tails) => {
                    let tail = &tails[*col];
                    debug_assert_eq!(
                        tail.rows(),
                        rows,
                        "tail imprint out of sync with the open buffer"
                    );
                    let (ids, stats) = tail.evaluate_set(&bufs[*col], set, kernel);
                    out.access.merge(&stats);
                    out.tail_indexed = true;
                    ids
                }
                None => {
                    let (ids, compared) = filter_open_column(&bufs[*col], set, None, rows, kernel);
                    out.access.value_comparisons += compared;
                    IdList::from_sorted(ids)
                }
            };
            acc = acc.union(&hits);
        }
        out.hits = acc;
        return out;
    }
    let mut survivors: Option<Vec<u64>> = None;
    for (i, (col, set)) in rpreds.iter().enumerate() {
        let next = match (i, tails) {
            (0, Some(tails)) => {
                let tail = &tails[*col];
                debug_assert_eq!(
                    tail.rows(),
                    rows,
                    "tail imprint out of sync with the open buffer"
                );
                let (ids, stats) = tail.evaluate_set(&bufs[*col], set, kernel);
                out.access.merge(&stats);
                out.tail_indexed = true;
                ids.into_vec()
            }
            _ => {
                let current = survivors.as_deref();
                let (ids, compared) = filter_open_column(&bufs[*col], set, current, rows, kernel);
                out.access.value_comparisons += compared;
                ids
            }
        };
        if next.is_empty() {
            return out;
        }
        survivors = Some(next);
    }
    out.hits = IdList::from_sorted(survivors.unwrap_or_default());
    out
}

/// Maintains the open segment's tail imprints after an append landed rows
/// `from..open.len()`: extends existing tails with exactly those rows,
/// builds the tails once the head crosses `min_rows` (sampling bin borders
/// from the rows accumulated so far), and re-bins a tail whose appended
/// data drifted off its sampled domain — all bounded by one segment of
/// rows, under the open write lock the caller already holds.
fn index_open_tail(open: &mut OpenSegment, from: usize, min_rows: usize) {
    if open.len() < min_rows {
        return;
    }
    match &mut open.tails {
        Some(tails) => {
            for (tail, buf) in tails.iter_mut().zip(&open.bufs) {
                tail.extend(buf, from);
                if tail.needs_rebuild() {
                    tail.rebuild(buf);
                }
            }
        }
        None => open.tails = Some(open.bufs.iter().map(AnyTailIndex::build).collect()),
    }
}

/// One column's filter pass over the open segment, routed through the
/// table's refinement kernel ([`imprints::simd`]): a full-head pass takes
/// the chunked cacheline kernel, a survivors pass the gather-style
/// [`SetKernel::filter_ids`](imprints::simd::SetKernel::filter_ids) over
/// the (scattered) candidate ids. Returns the matching local ids and the
/// number of values actually compared — zero when the predicate can match
/// nothing, so the head's `value_comparisons` stay honest.
fn filter_open_column(
    buf: &AnyColumn,
    set: &ValueSet,
    candidates: Option<&[u64]>,
    rows: usize,
    kernel: imprints::simd::RefineKernel,
) -> (Vec<u64>, u64) {
    macro_rules! arm {
        ($c:expr) => {{
            let terms = set.to_predicates().expect("predicates validated against schema");
            let kernel = imprints::simd::SetKernel::with_kernel(&terms, kernel);
            let values = $c.values();
            let mut compared = 0u64;
            match candidates {
                Some(ids) => {
                    let mut kept = ids.to_vec();
                    kernel.filter_ids(values, &mut kept, &mut compared);
                    (kept, compared)
                }
                None => {
                    let mut out = Vec::new();
                    kernel.append_matches(values, 0..rows as u64, &mut out, &mut compared);
                    (out, compared)
                }
            }
        }};
    }
    match buf {
        AnyColumn::I8(c) => arm!(c),
        AnyColumn::U8(c) => arm!(c),
        AnyColumn::I16(c) => arm!(c),
        AnyColumn::U16(c) => arm!(c),
        AnyColumn::I32(c) => arm!(c),
        AnyColumn::U32(c) => arm!(c),
        AnyColumn::I64(c) => arm!(c),
        AnyColumn::U64(c) => arm!(c),
        AnyColumn::F32(c) => arm!(c),
        AnyColumn::F64(c) => arm!(c),
    }
}

/// A frozen, fully materialized view of a table prefix (see
/// [`Table::snapshot`]).
pub struct TableSnapshot {
    schema: Vec<ColumnDef>,
    sealed: SegmentList,
    open_base: u64,
    open_bufs: Vec<AnyColumn>,
    epoch: u64,
    kernel: imprints::simd::RefineKernel,
}

impl TableSnapshot {
    /// The epoch the snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rows visible in the snapshot.
    pub fn row_count(&self) -> u64 {
        self.open_base + self.open_bufs.first().map_or(0, AnyColumn::len) as u64
    }

    /// Evaluates a conjunction against the frozen view (serial), through
    /// the same segment sweep as [`Table::query_batch`].
    pub fn query(&self, preds: &[(&str, ValueRange)]) -> Result<IdList> {
        let query = Arc::new(vec![Resolved::new(&self.schema, &BatchQuery::ids(named(preds)))?]);
        let head = eval_open(&self.open_bufs, None, &query[0].preds, false, self.kernel);
        let mut swept = sweep(&self.sealed, &query, None).expect("a serial sweep loses no task");
        let (mut answer, _) = swept.pop().expect("one answer per query");
        head.add_to(&mut answer, self.open_base);
        Ok(answer.into_ids())
    }

    /// The full contents of column `name` as typed values — the oracle
    /// input for validation tests.
    pub fn column_values<T: Scalar>(&self, name: &str) -> Result<Vec<T>> {
        let pos = self
            .schema
            .iter()
            .position(|d| d.name == name)
            .ok_or_else(|| Error::NotFound(format!("column {name:?}")))?;
        let mut out: Vec<T> = Vec::with_capacity(self.row_count() as usize);
        for seg in self.sealed.iter() {
            let col = &seg.columns()[pos];
            let n = col.rows();
            for i in 0..n {
                let v = col.value(i).expect("in range");
                out.push(T::from_value(&v).ok_or_else(|| {
                    Error::Mismatch(format!("column {name:?} is not of the requested type"))
                })?);
            }
        }
        let buf = &self.open_bufs[pos];
        let col: &Column<T> = buf
            .downcast()
            .ok_or_else(|| Error::Mismatch(format!("column {name:?} type mismatch")))?;
        out.extend_from_slice(col.values());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EngineConfig {
        EngineConfig { segment_rows: 256, workers: 2, ..Default::default() }
    }

    fn ints(values: std::ops::Range<i64>) -> AnyColumn {
        AnyColumn::I64(values.collect())
    }

    /// Runs `query` as a batch of one, returning its answer and stats.
    fn run(t: &Table, query: BatchQuery, pool: Option<&WorkerPool>) -> (BatchAnswer, QueryStats) {
        t.one(query, pool).unwrap()
    }

    fn ids(values: impl IntoIterator<Item = u64>) -> BatchAnswer {
        BatchAnswer::Ids(IdList::from_sorted(values.into_iter().collect()))
    }

    #[test]
    fn append_seals_segments_and_queries_span_them() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..1000)]).unwrap();
        assert_eq!(t.row_count(), 1000);
        assert_eq!(t.sealed_segment_count(), 3); // 3×256 sealed + 232 open
        let ids = t.query(&[("v", ValueRange::between(Value::I64(100), Value::I64(899)))]).unwrap();
        assert_eq!(ids.as_slice(), (100..900).collect::<Vec<u64>>().as_slice());
    }

    #[test]
    fn parallel_query_equals_serial() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        let vals: Vec<i64> = (0..5000).map(|i| (i * 37) % 1000).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        let pool = WorkerPool::new(4);
        let pred = [("v", ValueRange::between(Value::I64(10), Value::I64(50)))];
        let serial = t.query(&pred).unwrap();
        let (parallel, _) = run(&t, BatchQuery::ids(named(&pred)), Some(&pool));
        assert_eq!(BatchAnswer::Ids(serial.clone()), parallel);
        assert!(!serial.is_empty());
        let n = t.count(&pred, Some(&pool)).unwrap();
        assert_eq!(n as usize, serial.len());
    }

    #[test]
    fn multi_column_conjunction() {
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::F64)], small_cfg())
            .unwrap();
        let a: Vec<i64> = (0..2000).map(|i| i % 100).collect();
        let b: Vec<f64> = (0..2000).map(|i| (i % 7) as f64).collect();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::F64(b.iter().copied().collect()),
        ])
        .unwrap();
        let ids = t
            .query(&[
                ("a", ValueRange::between(Value::I64(10), Value::I64(20))),
                ("b", ValueRange::equals(Value::F64(3.0))),
            ])
            .unwrap();
        let expect: Vec<u64> = (0..2000u64)
            .filter(|&i| (10..=20).contains(&a[i as usize]) && b[i as usize] == 3.0)
            .collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
    }

    #[test]
    fn open_rows_visible_immediately() {
        let t = Table::new("t", &[("v", ColumnType::I32)], small_cfg()).unwrap();
        for i in 0..10 {
            t.append_row(&[Value::I32(i)]).unwrap();
        }
        assert_eq!(t.sealed_segment_count(), 0);
        let ids = t.query(&[("v", ValueRange::at_least(Value::I32(5)))]).unwrap();
        assert_eq!(ids.as_slice(), &[5, 6, 7, 8, 9]);
        assert_eq!(t.tuple(7), Some(vec![Value::I32(7)]));
    }

    #[test]
    fn schema_validation_errors() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        assert!(t.query(&[("nope", ValueRange::equals(Value::I64(1)))]).is_err());
        assert!(t.query(&[("v", ValueRange::equals(Value::I32(1)))]).is_err());
        assert!(t.append_row(&[Value::I32(1)]).is_err());
        assert!(t.append_batch(vec![AnyColumn::I32(Column::from(vec![1]))]).is_err());
        assert!(Table::new("t", &[], small_cfg()).is_err());
        assert!(
            Table::new("t", &[("a", ColumnType::I8), ("a", ColumnType::I8)], small_cfg()).is_err()
        );
    }

    #[test]
    fn snapshot_rejects_bad_predicates_like_the_table() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..600)]).unwrap();
        let snap = t.snapshot();
        assert!(snap.query(&[("v", ValueRange::equals(Value::I32(1)))]).is_err());
        assert!(snap.query(&[("nope", ValueRange::equals(Value::I64(1)))]).is_err());
    }

    #[test]
    fn snapshot_is_stable_under_later_appends() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..600)]).unwrap();
        let snap = t.snapshot();
        t.append_batch(vec![ints(600..1200)]).unwrap();
        assert_eq!(snap.row_count(), 600);
        let ids = snap.query(&[("v", ValueRange::at_least(Value::I64(0)))]).unwrap();
        assert_eq!(ids.len(), 600);
        let vals: Vec<i64> = snap.column_values("v").unwrap();
        assert_eq!(vals, (0..600).collect::<Vec<i64>>());
        assert_eq!(t.row_count(), 1200);
    }

    #[test]
    fn replace_segments_swaps_atomically_and_rejects_stale_windows() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..1024)]).unwrap(); // 4 sealed segments of 256
        let sealed = t.sealed_snapshot();
        assert_eq!(sealed.len(), 4);
        let pred = [("v", ValueRange::between(Value::I64(100), Value::I64(700)))];
        let before = t.query(&pred).unwrap();
        let epoch = t.epoch();

        let merged = SealedSegment::merge(&sealed[1..3], t.config());
        assert!(t.replace_segments(1, &sealed[1..3], merged));
        assert_eq!(t.sealed_segment_count(), 3);
        assert!(t.epoch() > epoch, "compaction swaps must bump the epoch");
        assert_eq!(t.stats().compactions.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats().segments_compacted.load(Ordering::Relaxed), 2);
        assert_eq!(t.query(&pred).unwrap(), before, "row ids must survive the merge");
        assert_eq!(t.tuple(300), Some(vec![Value::I64(300)]));

        // The same window is now stale: the swap must refuse it.
        let merged_again = SealedSegment::merge(&sealed[1..3], t.config());
        assert!(!t.replace_segments(1, &sealed[1..3], merged_again));
        // And an out-of-range window is refused outright.
        let merged_oob = SealedSegment::merge(&sealed[2..4], t.config());
        assert!(!t.replace_segments(2, &sealed[2..4], merged_oob));
        assert_eq!(t.query(&pred).unwrap(), before);
    }

    fn tail_cfg(min_rows: usize) -> EngineConfig {
        EngineConfig {
            segment_rows: 1024,
            workers: 2,
            tail_index_min_rows: min_rows,
            ..Default::default()
        }
    }

    /// The write head's tail imprint is an invisible accelerator: a
    /// tail-indexed table and a scalar-scan table answer identically, but
    /// the indexed head skips cachelines instead of comparing every row.
    #[test]
    fn tail_indexed_head_matches_scalar_scan_and_skips_lines() {
        let indexed = Table::new("t", &[("v", ColumnType::I64)], tail_cfg(64)).unwrap();
        let scanned = Table::new("t", &[("v", ColumnType::I64)], tail_cfg(usize::MAX)).unwrap();
        // One sealed segment plus a 640-row open head of clustered values.
        let values: Vec<i64> = (0..1664).collect();
        for t in [&indexed, &scanned] {
            t.append_batch(vec![AnyColumn::I64(values.iter().copied().collect())]).unwrap();
            assert_eq!(t.sealed_segment_count(), 1);
        }
        // A narrow range inside the open head (rows 1024..1664).
        let pred = [("v", ValueRange::between(Value::I64(1100), Value::I64(1160)))];
        let (ids_i, st_i) = run(&indexed, BatchQuery::ids(named(&pred)), None);
        let (ids_s, st_s) = run(&scanned, BatchQuery::ids(named(&pred)), None);
        assert_eq!(ids_i, ids_s);
        assert_eq!(ids_i, ids(1100..1161));
        assert_eq!(st_i.open_rows, 640);
        assert!(st_i.tail_indexed, "a 640-row head above the threshold must use its tail");
        assert!(!st_s.tail_indexed);
        assert_eq!(st_s.tail_access.value_comparisons, 640, "scalar path compares every row");
        assert!(
            st_i.tail_access.value_comparisons < 640 / 4,
            "tail imprint must weed most of the head without comparisons (did {})",
            st_i.tail_access.value_comparisons
        );
        assert!(st_i.tail_access.lines_skipped > 0);
    }

    /// Sealing discards the tail imprint; the fresh (empty, below
    /// threshold) head falls back to the scalar path until it regrows.
    #[test]
    fn seal_discards_tail_and_conjunctions_use_it_for_the_first_predicate() {
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::I64)], tail_cfg(128))
            .unwrap();
        let a: Vec<i64> = (0..1500).collect();
        let b: Vec<i64> = (0..1500).map(|i| i % 7).collect();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::I64(b.iter().copied().collect()),
        ])
        .unwrap();
        let pred = [
            ("a", ValueRange::at_least(Value::I64(1200))),
            ("b", ValueRange::equals(Value::I64(3))),
        ];
        let (got, st) = run(&t, BatchQuery::ids(named(&pred)), None);
        assert_eq!(got, ids((0..1500u64).filter(|&i| a[i as usize] >= 1200 && b[i as usize] == 3)));
        assert!(st.tail_indexed, "first predicate of a conjunction must ride the tail");

        // Fill the head to exactly the seal boundary: the new head is empty
        // and below threshold, so the next query takes the scalar path.
        t.append_batch(vec![ints(0..548), AnyColumn::I64((0..548).map(|i| i % 7).collect())])
            .unwrap();
        assert_eq!(t.row_count() % 1024, 0);
        let (_, st) = run(&t, BatchQuery::ids(named(&pred)), None);
        assert_eq!(st.open_rows, 0);
        assert!(!st.tail_indexed, "sealing must discard the head's tail imprint");
    }

    /// The ids and count forms of one query in one batch share its pinned
    /// prefix: identical epoch, visibility and head accounting, and the
    /// count includes open rows.
    #[test]
    fn count_shares_the_pinned_prefix_path_with_query() {
        let t = Table::new("t", &[("v", ColumnType::I64)], tail_cfg(64)).unwrap();
        let vals: Vec<i64> = (0..2500).map(|i| (i * 37) % 1000).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        let pred = named(&[("v", ValueRange::between(Value::I64(10), Value::I64(50)))]);
        let out = t.query_batch(&[BatchQuery::ids(pred.clone()), BatchQuery::count(pred)], None);
        let [Ok((BatchAnswer::Ids(ids), qs)), Ok((BatchAnswer::Count(n), cs))] = &out[..] else {
            panic!("expected an ids and a count answer, got {out:?}");
        };
        assert_eq!(*n as usize, ids.len());
        assert_eq!(cs.epoch, qs.epoch);
        assert_eq!(cs.visible_rows, qs.visible_rows);
        assert_eq!(cs.open_rows, qs.open_rows);
        assert_eq!(cs.sealed_segments, qs.sealed_segments);
        assert_eq!(cs.tail_indexed, qs.tail_indexed);
        assert!(cs.open_rows > 0, "the open head must be part of the count");
        // The sealed count path reports its access work too.
        assert!(cs.access.index_probes > 0 || cs.access.value_comparisons > 0);
    }

    /// A K-query batch answers every query exactly as a batch of one and as
    /// the brute-force oracle — ids, counts, IN-lists and OR groups — with
    /// the same epoch and head accounting, serially and on the pool.
    #[test]
    fn query_batch_matches_individual_queries() {
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::I64)], tail_cfg(64))
            .unwrap();
        let a: Vec<i64> = (0..3000).map(|i| (i * 37) % 700).collect();
        let b: Vec<i64> = (0..3000).map(|i| i % 13).collect();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::I64(b.iter().copied().collect()),
        ])
        .unwrap();
        let range = |lo, hi| ValueSet::range(ValueRange::between(Value::I64(lo), Value::I64(hi)));
        type Oracle<'a> = Box<dyn Fn(usize) -> bool + 'a>;
        let cases: Vec<(BatchQuery, Oracle)> = vec![
            (
                BatchQuery::ids_sets(vec![("a".into(), range(10, 80))]),
                Box::new(|i| (10..=80).contains(&a[i])),
            ),
            (
                BatchQuery::count_sets(vec![("a".into(), range(650, 699))]),
                Box::new(|i| a[i] >= 650),
            ),
            (
                BatchQuery::ids_sets(vec![
                    ("a".into(), range(0, 300)),
                    ("b".into(), ValueSet::points([Value::I64(4), Value::I64(9)])),
                ]),
                Box::new(|i| a[i] <= 300 && [4, 9].contains(&b[i])),
            ),
            (
                BatchQuery::count_sets(vec![
                    ("a".into(), range(690, 699)),
                    ("b".into(), range(12, 12)),
                ])
                .or_group(),
                Box::new(|i| a[i] >= 690 || b[i] == 12),
            ),
            (BatchQuery::ids_sets(vec![]), Box::new(|_| true)),
        ];
        let batch: Vec<BatchQuery> = cases.iter().map(|(q, _)| q.clone()).collect();
        let pool = WorkerPool::new(2);
        for pool in [None, Some(&pool)] {
            let out = t.query_batch(&batch, pool);
            assert_eq!(out.len(), batch.len());
            for ((q, oracle), res) in cases.iter().zip(out) {
                let (answer, stats) = res.unwrap();
                let expect: Vec<u64> = (0..3000u64).filter(|&i| oracle(i as usize)).collect();
                let want = if q.count_only {
                    BatchAnswer::Count(expect.len() as u64)
                } else {
                    ids(expect)
                };
                assert_eq!(answer, want, "{q:?}");
                let (alone, st) = run(&t, q.clone(), pool);
                assert_eq!(alone, answer, "{q:?}");
                assert_eq!(
                    (stats.epoch, stats.visible_rows, stats.open_rows, stats.tail_indexed),
                    (st.epoch, st.visible_rows, st.open_rows, st.tail_indexed),
                    "{q:?}"
                );
                assert_eq!(stats.sealed_segments, 2);
            }
        }
        let (_, st) = run(&t, batch[0].clone(), None);
        assert!(st.open_rows > 0 && st.tail_indexed, "the tail-indexed head must be covered");
    }

    /// A batch with an unresolvable query errors only that slot; the rest
    /// evaluate against the shared pinned snapshot.
    #[test]
    fn query_batch_isolates_resolution_errors() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..600)]).unwrap();
        let batch = vec![
            BatchQuery::ids(vec![("v".into(), ValueRange::at_least(Value::I64(590)))]),
            BatchQuery::ids(vec![("nope".into(), ValueRange::equals(Value::I64(1)))]),
            BatchQuery::count(vec![("v".into(), ValueRange::equals(Value::I32(1)))]),
            BatchQuery::count(vec![("v".into(), ValueRange::at_most(Value::I64(9)))]),
        ];
        let out = t.query_batch(&batch, None);
        assert_eq!(
            out[0].as_ref().unwrap().0,
            BatchAnswer::Ids(IdList::from_sorted((590..600).collect()))
        );
        assert!(out[1].is_err(), "unknown column must error its own slot");
        assert!(out[2].is_err(), "type-mismatched bound must error its own slot");
        assert_eq!(out[3].as_ref().unwrap().0, BatchAnswer::Count(10));
    }

    #[test]
    fn empty_predicates_select_every_visible_row() {
        let t = Table::new("t", &[("v", ColumnType::U16)], small_cfg()).unwrap();
        let vals: Vec<u16> = (0..700u32).map(|i| (i % 500) as u16).collect();
        t.append_batch(vec![AnyColumn::U16(vals.into_iter().collect())]).unwrap();
        let ids = t.query(&[]).unwrap();
        assert_eq!(ids.len(), 700);
    }
}
