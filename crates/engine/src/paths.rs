//! Per-segment access-path and conjunction-plan choice by observed cost.
//!
//! Every sealed segment column can answer a range predicate three ways:
//! through its **imprint**, through its **zonemap**, or by **scanning**.
//! Which one is fastest depends on the segment's data (clustering,
//! cardinality) *and* the predicate's selectivity: a point lookup on
//! clustered data loves a skipping index, while a half-the-domain range is
//! often cheapest to scan. The engine therefore treats the access path as a
//! per-query decision informed by observed cost — the stance of
//! learned/adaptive secondary indexing (LSI, AIM) rather than a fixed
//! structure choice. The paper's compressed-bitmap baseline is not an
//! engine path: it never won a bucket here, so it lives only in the
//! `baselines` crate, for the figure experiments.
//!
//! One cost model serves every decision: `CostModel` keeps an
//! exponentially-weighted moving average of the observed cost per slot,
//! measures each slot once (bootstrap), probes the next slot in rotation
//! every [`EXPLORE_PERIOD`]-th query, and otherwise exploits the cheapest
//! estimate. [`PathChooser`] runs one model per **predicate selectivity
//! class** ([`NUM_BUCKETS`] classes, derived from the span the predicate
//! covers over the segment's binning): without the buckets a single EWMA
//! conflates all predicates into one number, so a wide-predicate
//! observation poisons the choice for narrow predicates and vice versa —
//! exactly the query-shape mischoice the learned-index literature buckets
//! to avoid. [`PlanChooser`] runs one model over the two conjunction plans
//! ([`PlanKind`]). All state is atomic: choosers live inside shared,
//! immutable segments and are updated concurrently by many readers.
//!
//! The observed costs are end-to-end wall clock, so they include each
//! path's false-positive refinement work — which every path routes
//! through the [`imprints::simd`] kernel selected by
//! [`EngineConfig::refine_kernel`](crate::EngineConfig::refine_kernel).
//! Switching kernels shifts the per-line check cost of every path and the
//! chooser simply re-learns from the new observations; no cost-model
//! constant encodes the kernel.

use std::sync::atomic::{AtomicU64, Ordering};

/// One of the ways a segment column can answer a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// The column-imprints secondary index.
    Imprints,
    /// The min/max-per-cacheline zonemap.
    ZoneMap,
    /// A sequential scan of the segment.
    Scan,
}

impl PathKind {
    /// All paths, in chooser slot order.
    pub const ALL: [PathKind; MAX_PATHS] = [PathKind::Imprints, PathKind::ZoneMap, PathKind::Scan];

    /// The chooser slot (index into cost arrays, [`PathKind::ALL`] order).
    pub fn slot(self) -> usize {
        self as usize
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PathKind::Imprints => "imprints",
            PathKind::ZoneMap => "zonemap",
            PathKind::Scan => "scan",
        }
    }
}

/// Number of access paths (chooser slot-array size).
pub const MAX_PATHS: usize = 3;

/// Selectivity classes a chooser can keep separate cost models for:
/// point, narrow, mid, wide (in bin-span order).
pub const NUM_BUCKETS: usize = 4;

/// Every `EXPLORE_PERIOD`-th query of a cost model takes a forced
/// exploration probe.
pub const EXPLORE_PERIOD: u64 = 16;

const UNSEEN: u64 = u64::MAX;

/// Observed costs above this are clamped before entering the EWMA, so the
/// `(old*7 + cost)/8` recurrence can never overflow `u64` (the running
/// estimate stays ≤ the cap, and `cap*7 + cap` fits comfortably) and a
/// recorded cost can never collide with the `UNSEEN` sentinel.
const COST_CAP: u64 = 1 << 48;

/// The one decision rule behind both choosers: an EWMA of observed cost
/// per slot plus a query counter driving bootstrap and exploration.
#[derive(Debug)]
struct CostModel<const N: usize> {
    /// Decisions taken (the exploration cadence).
    queries: AtomicU64,
    /// EWMA of observed cost (nanoseconds) per slot; `UNSEEN` until the
    /// first observation.
    cost: [AtomicU64; N],
}

impl<const N: usize> Default for CostModel<N> {
    fn default() -> Self {
        CostModel {
            queries: AtomicU64::new(0),
            cost: std::array::from_fn(|_| AtomicU64::new(UNSEEN)),
        }
    }
}

impl<const N: usize> CostModel<N> {
    /// Picks the slot for the next decision, advancing the cadence:
    /// measure every slot once (`n % N`) before trusting any estimate;
    /// then probe on every [`EXPLORE_PERIOD`]-th decision, rotating the
    /// probed slot by *period* number (`n / P % N` — indexing by the raw
    /// count would pin every probe to slot 0 whenever `N` divides `P`);
    /// otherwise exploit the cheapest estimate, ties going to the lowest
    /// slot.
    fn choose(&self) -> usize {
        let n = self.queries.fetch_add(1, Ordering::Relaxed);
        let k = N as u64;
        let est = self.cost.each_ref().map(|c| c.load(Ordering::Relaxed));
        if est.contains(&UNSEEN) {
            return (n % k) as usize;
        }
        if n.is_multiple_of(EXPLORE_PERIOD) {
            return (n / EXPLORE_PERIOD % k) as usize;
        }
        (0..N).min_by_key(|&s| est[s]).unwrap_or(0)
    }

    /// Feeds back the observed cost of one evaluation through `slot`.
    /// Costs are clamped to `1..=`[`COST_CAP`]: a sub-nanosecond (or
    /// timer-floored zero) observation must not drive the EWMA to a
    /// stuck-at-zero estimate that permanently wins between exploration
    /// probes, and a pathological huge cost must not overflow the integer
    /// recurrence.
    fn record(&self, slot: usize, cost_nanos: u64) {
        let slot = &self.cost[slot];
        let cost = cost_nanos.clamp(1, COST_CAP);
        let old = slot.load(Ordering::Relaxed);
        let new = if old == UNSEEN {
            cost
        } else {
            // Saturating keeps even a corrupted stored value from wrapping;
            // the quotient stays ≥ 1 because both inputs are ≥ 1.
            (old.saturating_mul(7).saturating_add(cost) / 8).max(1)
        };
        // A racy lost update only loses one observation; fine for a cost
        // model.
        slot.store(new, Ordering::Relaxed);
    }

    /// Current estimates in slot order (`None` = unseen).
    fn estimates(&self) -> [Option<u64>; N] {
        std::array::from_fn(|s| {
            let c = self.cost[s].load(Ordering::Relaxed);
            (c != UNSEEN).then_some(c)
        })
    }

    /// The slot currently ranked cheapest (`None` until one is measured).
    fn winner(&self) -> Option<usize> {
        let est = self.estimates();
        (0..N).filter_map(|s| est[s].map(|c| (c, s))).min().map(|(_, s)| s)
    }

    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    fn carry_over(&self) -> Self {
        CostModel {
            queries: AtomicU64::new(self.queries()),
            cost: std::array::from_fn(|s| AtomicU64::new(self.cost[s].load(Ordering::Relaxed))),
        }
    }
}

/// One selectivity bucket: its path cost model plus its observed
/// selectivity.
#[derive(Debug, Default)]
struct BucketState {
    model: CostModel<MAX_PATHS>,
    /// Qualifying rows observed by queries of this bucket (selectivity
    /// numerator) — fed by evaluations that know their hit count.
    sel_hits: AtomicU64,
    /// Rows those queries ranged over (selectivity denominator).
    sel_rows: AtomicU64,
}

/// Adaptive path chooser: one `CostModel` over the three paths per
/// selectivity bucket.
#[derive(Debug)]
pub struct PathChooser {
    /// Active selectivity buckets (1 = the classic single-EWMA chooser).
    buckets: usize,
    state: [BucketState; NUM_BUCKETS],
}

impl Default for PathChooser {
    /// A chooser with full selectivity bucketing.
    fn default() -> Self {
        PathChooser::new(NUM_BUCKETS)
    }
}

impl PathChooser {
    /// A chooser keeping `buckets` (1..=[`NUM_BUCKETS`]) separate
    /// selectivity classes.
    ///
    /// # Panics
    /// Panics if `buckets` is out of range.
    pub fn new(buckets: usize) -> PathChooser {
        assert!((1..=NUM_BUCKETS).contains(&buckets), "buckets must be in 1..={NUM_BUCKETS}");
        PathChooser { buckets, state: Default::default() }
    }

    /// Active selectivity buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets
    }

    fn bucket(&self, bucket: usize) -> &BucketState {
        &self.state[bucket.min(self.buckets - 1)]
    }

    /// Maps a predicate spanning `width` of the binning's `bins` bins to
    /// this chooser's selectivity bucket: point (one bin), narrow (≤ ⅛ of
    /// the bins), mid (≤ ½), wide (the rest), scaled down to the active
    /// bucket count (1 active bucket maps everything to 0).
    pub fn bucket_of_span(&self, width: usize, bins: usize) -> usize {
        let class = if width <= 1 {
            0
        } else if width * 8 <= bins {
            1
        } else if width * 2 <= bins {
            2
        } else {
            3
        };
        class * self.buckets / NUM_BUCKETS
    }

    /// Picks the path for the next query of `bucket`, advancing the
    /// bucket's query cadence.
    pub fn choose(&self, bucket: usize) -> PathKind {
        PathKind::ALL[self.bucket(bucket).model.choose()]
    }

    /// Feeds back the observed cost of one evaluation over `path` for a
    /// query of `bucket` (see `CostModel`'s clamped EWMA).
    pub fn record(&self, bucket: usize, path: PathKind, cost_nanos: u64) {
        self.bucket(bucket).model.record(path.slot(), cost_nanos);
    }

    /// Records an observed selectivity sample for `bucket`: `hits`
    /// qualifying rows out of `total` rows the query ranged over. The
    /// cumulative ratio is the per-bucket selectivity estimate a
    /// conjunction plan orders its predicates by (most selective first).
    pub fn record_selectivity(&self, bucket: usize, hits: u64, total: u64) {
        let b = self.bucket(bucket);
        b.sel_hits.fetch_add(hits, Ordering::Relaxed);
        b.sel_rows.fetch_add(total, Ordering::Relaxed);
    }

    /// Observed mean selectivity of `bucket` — the qualifying fraction of
    /// rows its queries ranged over, in `[0, 1]`. `None` before any
    /// sample.
    pub fn selectivity(&self, bucket: usize) -> Option<f64> {
        let b = self.bucket(bucket);
        let rows = b.sel_rows.load(Ordering::Relaxed);
        if rows == 0 {
            return None;
        }
        let hits = b.sel_hits.load(Ordering::Relaxed).min(rows);
        Some(hits as f64 / rows as f64)
    }

    /// Current EWMA cost estimates of one bucket, in chooser slot order
    /// (`None` = unseen).
    pub fn estimates_for(&self, bucket: usize) -> [Option<u64>; MAX_PATHS] {
        self.bucket(bucket).model.estimates()
    }

    /// Cheapest seen estimate per path across all buckets (`None` = never
    /// measured anywhere) — the "has this path been explored at all" view
    /// used by reports and tests.
    pub fn estimates(&self) -> [Option<u64>; MAX_PATHS] {
        let mut out: [Option<u64>; MAX_PATHS] = [None; MAX_PATHS];
        for bucket in 0..self.buckets {
            for (slot, est) in self.estimates_for(bucket).into_iter().enumerate() {
                out[slot] = match (out[slot], est) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        out
    }

    /// The path a bucket currently ranks cheapest (`None` until the bucket
    /// has measured at least one path).
    pub fn winner(&self, bucket: usize) -> Option<PathKind> {
        self.bucket(bucket).model.winner().map(|s| PathKind::ALL[s])
    }

    /// Queries routed through this chooser, across all buckets.
    pub fn queries(&self) -> u64 {
        self.state.iter().map(|b| b.model.queries()).sum()
    }

    /// Queries routed through one bucket.
    pub fn bucket_queries(&self, bucket: usize) -> u64 {
        self.bucket(bucket).model.queries()
    }

    /// A copy with the same counters and learned costs — used when a
    /// sibling column's rebuild swaps the segment but this column's index
    /// is unchanged, so its cost model stays valid. A compaction merge
    /// must **not** carry choosers over: the merged segment's data volume
    /// and index are nothing like any input's, so its columns start fresh
    /// and re-explore (see
    /// [`SealedSegment::merge`](crate::segment::SealedSegment::merge)).
    pub fn carry_over(&self) -> PathChooser {
        PathChooser {
            buckets: self.buckets,
            state: std::array::from_fn(|i| {
                let b = &self.state[i];
                BucketState {
                    model: b.model.carry_over(),
                    sel_hits: AtomicU64::new(b.sel_hits.load(Ordering::Relaxed)),
                    sel_rows: AtomicU64::new(b.sel_rows.load(Ordering::Relaxed)),
                }
            }),
        }
    }

    /// A fresh chooser with the same bucket count but no learned state —
    /// what a rebuilt or merged segment column starts from.
    pub fn fresh_like(&self) -> PathChooser {
        PathChooser::new(self.buckets)
    }
}

/// One of the two ways a segment can evaluate a multi-predicate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// The fused conjunction plan: every predicate's imprint classified
    /// into row-space bitvecs, candidate words ANDed across predicates
    /// before any value is touched, survivors refined word-wise in
    /// selectivity order.
    Fused,
    /// The per-predicate fallback: each predicate's candidate ranges
    /// intersected in id space, the first predicate materialized, the rest
    /// weeding survivors with gather-style kernels.
    PerPred,
}

impl PlanKind {
    /// Both strategies, in chooser slot order.
    pub const ALL: [PlanKind; 2] = [PlanKind::Fused, PlanKind::PerPred];

    /// The chooser slot.
    pub fn slot(self) -> usize {
        self as usize
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Fused => "fused",
            PlanKind::PerPred => "per-pred",
        }
    }
}

/// Adaptive two-strategy chooser for multi-predicate plans — the same
/// `CostModel` as one [`PathChooser`] bucket, over the [`PlanKind`]s.
/// One instance serves one (segment, predicate-column-set) pair: the
/// segment's plan cache keys these by the sorted column indices of the
/// conjunction, so `(a, b)` and `(a, c)` learn independent winners.
#[derive(Debug, Default)]
pub struct PlanChooser(CostModel<2>);

impl PlanChooser {
    /// A chooser with no learned state.
    pub fn new() -> PlanChooser {
        PlanChooser::default()
    }

    /// Picks the strategy for the next multi-predicate query, advancing
    /// the exploration cadence.
    pub fn choose(&self) -> PlanKind {
        PlanKind::ALL[self.0.choose()]
    }

    /// Feeds back the observed cost of one evaluation.
    pub fn record(&self, plan: PlanKind, cost_nanos: u64) {
        self.0.record(plan.slot(), cost_nanos);
    }

    /// Multi-predicate queries routed through this chooser.
    pub fn queries(&self) -> u64 {
        self.0.queries()
    }

    /// Current EWMA cost estimates, in [`PlanKind::ALL`] slot order
    /// (`None` = unseen).
    pub fn estimates(&self) -> [Option<u64>; 2] {
        self.0.estimates()
    }

    /// The strategy currently ranked cheapest (`None` until one is
    /// measured).
    pub fn winner(&self) -> Option<PlanKind> {
        self.0.winner().map(|s| PlanKind::ALL[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the exact decision sequence of both choosers under fixed
    /// costs: the bootstrap sweep in slot order, the rotating probe at
    /// n = 16, 32, 48, …, ties going to slot 0, and the flip once the costs
    /// swap at n = 48. Any change to the selection rule shows up here.
    #[test]
    fn chooser_decision_sequence_is_pinned() {
        let paths = PathChooser::default();
        let mut seq = String::new();
        for n in 0..96 {
            let p = paths.choose(0);
            seq.push(match p {
                PathKind::Imprints => 'I',
                PathKind::ZoneMap => 'Z',
                PathKind::Scan => 'S',
            });
            let cost = match (n < 48, p) {
                (true, PathKind::Scan) => 400,
                (true, _) => 100,
                (false, PathKind::Scan) => 10,
                (false, _) => 900,
            };
            paths.record(0, p, cost);
        }
        let expect = [
            "IZSIIIIIIIIIIIII", // bootstrap I, Z, S; then the I/Z tie goes to slot 0
            "ZIIIIIIIIIIIIIII", // n = 16 probes slot 1
            "SIIIIIIIIIIIIIII", // n = 32 probes slot 2
            "IZIZIZIZSSSSSSSS", // costs swapped: the EWMAs climb until scan wins
            "ZSSSSSSSSSSSSSSS", // n = 64 probes slot 1
            "SSSSSSSSSSSSSSSS", // n = 80 probes slot 2
        ]
        .concat();
        assert_eq!(seq, expect);

        let plans = PlanChooser::new();
        let mut seq = String::new();
        for n in 0..96 {
            let p = plans.choose();
            seq.push(if p == PlanKind::Fused { 'F' } else { 'P' });
            let cost = match (n < 48, p) {
                (true, _) => 100,
                (false, PlanKind::Fused) => 900,
                (false, PlanKind::PerPred) => 10,
            };
            plans.record(p, cost);
        }
        let expect = [
            "FPFFFFFFFFFFFFFF", // bootstrap F, P; then the tie goes to slot 0
            "PFFFFFFFFFFFFFFF", // n = 16 probes slot 1
            "FFFFFFFFFFFFFFFF", // n = 32 probes slot 0
            "PPPPPPPPPPPPPPPP", // costs swapped: the n = 48 probe finds per-pred
            "FPPPPPPPPPPPPPPP", // n = 64 probes slot 0
            "PPPPPPPPPPPPPPPP", // n = 80 probes slot 1
        ]
        .concat();
        assert_eq!(seq, expect);
    }

    #[test]
    fn explores_all_paths_then_exploits_cheapest() {
        let ch = PathChooser::default();
        // Feed costs into one bucket: scan cheap, imprints expensive.
        for _ in 0..64 {
            let p = ch.choose(0);
            let cost = match p {
                PathKind::Imprints => 9_000,
                PathKind::ZoneMap => 5_000,
                PathKind::Scan => 1_000,
            };
            ch.record(0, p, cost);
        }
        let est = ch.estimates_for(0);
        assert!(est.iter().all(Option::is_some), "every path must have been explored");
        // Exploitation picks scan on non-probe queries.
        let picks: Vec<PathKind> = (0..EXPLORE_PERIOD - 1).map(|_| ch.choose(0)).collect();
        let scans = picks.iter().filter(|p| **p == PathKind::Scan).count();
        assert!(scans as u64 >= EXPLORE_PERIOD - 3, "expected mostly scans, got {picks:?}");
        assert_eq!(ch.winner(0), Some(PathKind::Scan));
    }

    /// The tentpole property: two selectivity buckets learn *independent*
    /// winners from interleaved observations, where a single-EWMA chooser
    /// would blend them into one.
    #[test]
    fn buckets_learn_separate_winners() {
        let ch = PathChooser::new(NUM_BUCKETS);
        let narrow = 1; // e.g. a few bins wide
        let wide = 3;
        for _ in 0..96 {
            // Narrow queries: imprints fast, scan slow.
            let p = ch.choose(narrow);
            ch.record(narrow, p, if p == PathKind::Imprints { 500 } else { 20_000 });
            // Wide queries: scan fast, everything else slow.
            let p = ch.choose(wide);
            ch.record(wide, p, if p == PathKind::Scan { 800 } else { 30_000 });
        }
        assert_eq!(ch.winner(narrow), Some(PathKind::Imprints));
        assert_eq!(ch.winner(wide), Some(PathKind::Scan));
        // Non-probe picks follow the per-bucket winner.
        let narrow_picks: Vec<PathKind> = (0..8).map(|_| ch.choose(narrow)).collect();
        let wide_picks: Vec<PathKind> = (0..8).map(|_| ch.choose(wide)).collect();
        assert!(
            narrow_picks.iter().filter(|p| **p == PathKind::Imprints).count() >= 6,
            "{narrow_picks:?}"
        );
        assert!(wide_picks.iter().filter(|p| **p == PathKind::Scan).count() >= 6, "{wide_picks:?}");
        // A single-bucket chooser fed the same mixed stream picks ONE path
        // for both classes — the mischoice the buckets exist to avoid.
        let single = PathChooser::new(1);
        for _ in 0..96 {
            let p = single.choose(narrow);
            single.record(narrow, p, if p == PathKind::Imprints { 500 } else { 20_000 });
            let p = single.choose(wide);
            single.record(wide, p, if p == PathKind::Scan { 800 } else { 30_000 });
        }
        assert_eq!(
            single.winner(narrow),
            single.winner(wide),
            "one bucket cannot keep two winners"
        );
    }

    /// Regression: a probe indexed by `n % k` lands on slot 0 every time
    /// whenever k divides `EXPLORE_PERIOD`, so the other paths would never
    /// be re-measured after bootstrap. The rotation must walk every path
    /// across consecutive probe periods.
    #[test]
    fn exploration_probes_rotate_across_all_paths() {
        let ch = PathChooser::new(1);
        // Bootstrap: all three measured once, imprints cheapest.
        for _ in 0..3 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Imprints { 100 } else { 5_000 });
        }
        // Collect which paths the forced probes visit over several
        // periods; non-probe queries exploit and are recorded cheap so the
        // winner never changes underneath the test.
        let mut probed = Vec::new();
        for n in 3..(EXPLORE_PERIOD * 5) {
            let p = ch.choose(0);
            if n.is_multiple_of(EXPLORE_PERIOD) {
                probed.push(p);
            }
            ch.record(0, p, if p == PathKind::Imprints { 100 } else { 5_000 });
        }
        let mut distinct: Vec<usize> = probed.iter().map(|p| p.slot()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            MAX_PATHS,
            "probes must rotate through every path, visited only {probed:?}"
        );
    }

    /// After a path's relative cost flips, the rotating probe re-measures
    /// it and the winner follows.
    #[test]
    fn three_path_chooser_adapts_when_costs_flip() {
        let ch = PathChooser::new(1);
        for _ in 0..64 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Imprints { 100 } else { 10_000 });
        }
        assert_eq!(ch.winner(0), Some(PathKind::Imprints));
        // Scan becomes the cheapest path: probes must discover it.
        for _ in 0..EXPLORE_PERIOD * 2 * MAX_PATHS as u64 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Scan { 50 } else { 20_000 });
        }
        assert_eq!(ch.winner(0), Some(PathKind::Scan), "{:?}", ch.estimates_for(0));
    }

    #[test]
    fn bucket_of_span_classes() {
        let ch = PathChooser::new(NUM_BUCKETS);
        assert_eq!(ch.bucket_of_span(1, 64), 0); // point
        assert_eq!(ch.bucket_of_span(4, 64), 1); // ≤ 1/8
        assert_eq!(ch.bucket_of_span(8, 64), 1);
        assert_eq!(ch.bucket_of_span(20, 64), 2); // ≤ 1/2
        assert_eq!(ch.bucket_of_span(33, 64), 3); // wide
        assert_eq!(ch.bucket_of_span(64, 64), 3);
        // Small binnings collapse the narrow class but stay in range.
        assert_eq!(ch.bucket_of_span(1, 8), 0);
        assert_eq!(ch.bucket_of_span(8, 8), 3);
        // A single-bucket chooser maps everything to 0.
        let single = PathChooser::new(1);
        for width in [1, 4, 20, 64] {
            assert_eq!(single.bucket_of_span(width, 64), 0);
        }
    }

    /// Satellite regression: a cost of 0 must clamp to ≥ 1 — otherwise the
    /// EWMA floors to zero and that path permanently wins every non-probe
    /// query even after its real cost explodes.
    #[test]
    fn record_clamps_zero_costs() {
        let ch = PathChooser::default();
        for _ in 0..64 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Scan { 0 } else { 4 });
        }
        let est = ch.estimates_for(0);
        for p in PathKind::ALL {
            let c = est[p.slot()].unwrap();
            assert!(c >= 1, "{} EWMA floored to {c}", p.name());
        }
        // Sub-8ns costs must not decay to zero through the /8 recurrence.
        assert_eq!(est[PathKind::Scan.slot()], Some(1));
    }

    /// Satellite regression: pathological huge costs must saturate, not
    /// overflow (the old `old*7 + cost` wrapped and could land on the
    /// `UNSEEN` sentinel or a tiny wrapped value).
    #[test]
    fn record_saturates_huge_costs() {
        let ch = PathChooser::default();
        for _ in 0..8 {
            for p in PathKind::ALL {
                ch.record(0, p, u64::MAX);
            }
        }
        let est = ch.estimates_for(0);
        for p in PathKind::ALL {
            let c = est[p.slot()].expect("huge costs must still be recorded");
            assert!(c <= COST_CAP, "{} estimate {c} escaped the cap", p.name());
        }
        // A sane cost recorded afterwards still moves the estimate.
        ch.record(0, PathKind::Scan, 100);
        assert!(ch.estimates_for(0)[PathKind::Scan.slot()].unwrap() < COST_CAP);
    }

    /// The compaction-swap contract, shallow-clone side: a column whose
    /// index survived the swap keeps its learned costs, query cadence and
    /// eligibility byte-for-byte.
    #[test]
    fn carry_over_preserves_costs_and_cadence() {
        let ch = PathChooser::new(NUM_BUCKETS);
        for _ in 0..40 {
            let p = ch.choose(2);
            let cost = match p {
                PathKind::Imprints => 2_000,
                PathKind::ZoneMap => 700,
                PathKind::Scan => 9_000,
            };
            ch.record(2, p, cost);
        }
        let copy = ch.carry_over();
        assert_eq!(copy.estimates_for(2), ch.estimates_for(2));
        assert_eq!(copy.queries(), ch.queries());
        // The copy exploits the same winner the original learned.
        let picks: Vec<PathKind> = (0..8).map(|_| copy.choose(2)).collect();
        assert!(picks.iter().filter(|p| **p == PathKind::ZoneMap).count() >= 6, "{picks:?}");
    }

    #[test]
    fn fresh_like_keeps_bucket_count_only() {
        let ch = PathChooser::new(2);
        for _ in 0..20 {
            let p = ch.choose(1);
            ch.record(1, p, 500);
        }
        let fresh = ch.fresh_like();
        assert_eq!(fresh.bucket_count(), 2);
        assert_eq!(fresh.queries(), 0);
        assert_eq!(fresh.estimates(), [None; MAX_PATHS]);
    }

    #[test]
    fn selectivity_tracks_per_bucket_and_survives_carry_over() {
        let ch = PathChooser::default();
        assert_eq!(ch.selectivity(0), None, "no sample yet");
        ch.record_selectivity(0, 10, 1000); // a 1% bucket
        ch.record_selectivity(0, 30, 3000);
        ch.record_selectivity(3, 900, 1000); // a 90% bucket
        assert!((ch.selectivity(0).unwrap() - 0.01).abs() < 1e-9);
        assert!((ch.selectivity(3).unwrap() - 0.9).abs() < 1e-9);
        assert_eq!(ch.selectivity(1), None, "buckets are independent");
        let copy = ch.carry_over();
        assert_eq!(copy.selectivity(0), ch.selectivity(0));
        assert_eq!(copy.selectivity(3), ch.selectivity(3));
        let fresh = ch.fresh_like();
        assert_eq!(fresh.selectivity(0), None, "rebuilt columns restart their samples");
        // Hits clamped to rows: a racy overshoot cannot report > 1.0.
        let odd = PathChooser::default();
        odd.record_selectivity(0, 50, 10);
        assert_eq!(odd.selectivity(0), Some(1.0));
    }

    #[test]
    fn plan_chooser_bootstraps_probes_and_exploits() {
        let ch = PlanChooser::new();
        // Bootstrap: both strategies measured before exploitation.
        for _ in 0..64 {
            let p = ch.choose();
            ch.record(p, if p == PlanKind::Fused { 500 } else { 8_000 });
        }
        let est = ch.estimates();
        assert!(est.iter().all(Option::is_some), "both strategies must be measured: {est:?}");
        assert_eq!(ch.winner(), Some(PlanKind::Fused));
        // Non-probe picks exploit the winner.
        let picks: Vec<PlanKind> = (0..(EXPLORE_PERIOD - 1)).map(|_| ch.choose()).collect();
        let fused = picks.iter().filter(|p| **p == PlanKind::Fused).count() as u64;
        assert!(fused >= EXPLORE_PERIOD - 2, "{picks:?}");
        // Costs flip: the rotating probe re-measures PerPred and the
        // winner flips with it.
        for _ in 0..(EXPLORE_PERIOD * 4) {
            let p = ch.choose();
            ch.record(p, if p == PlanKind::PerPred { 100 } else { 50_000 });
        }
        assert_eq!(ch.winner(), Some(PlanKind::PerPred), "{:?}", ch.estimates());
        assert!(ch.queries() > 0);
    }

    #[test]
    fn adapts_when_costs_flip() {
        let ch = PathChooser::default();
        for _ in 0..48 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Imprints { 100 } else { 10_000 });
        }
        // Imprints now degrade (e.g. saturated): exploration must flip the
        // choice to another path.
        for _ in 0..256 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Imprints { 50_000 } else { 400 });
        }
        let p = ch.choose(0);
        ch.record(0, p, 400);
        let est = ch.estimates_for(0);
        let imp = est[PathKind::Imprints.slot()].unwrap();
        assert!(
            est[1].unwrap() < imp || est[2].unwrap() < imp,
            "chooser failed to re-learn: {est:?}"
        );
    }
}
