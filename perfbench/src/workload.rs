//! Seeded table data, request streams, reply parsing and the oracles that
//! check every answer.
//!
//! All tables share the schema `t(ts i64, r1 i64, r2 i64)`: `ts` is
//! `entropy_dial(domain 2^20, chaos 0.05)` (clustered by row position with
//! 5% random values), `r1` is uniform in `[0, 1000)` and `r2` uniform in
//! `[0, 100)`.

use colstore::relation::AnyColumn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Table name on the wire and in the catalog.
pub const TABLE: &str = "t";
/// Column names, in schema order.
pub const COLUMNS: [&str; 3] = ["ts", "r1", "r2"];
const TS: usize = 0;
const R1: usize = 1;
const R2: usize = 2;
/// Domain of `ts`.
pub const TS_DOMAIN: i64 = 1 << 20;
const R1_DOMAIN: i64 = 1000;
const R2_DOMAIN: i64 = 100;
/// Raw bytes of one row (three i64 values).
pub const ROW_BYTES: usize = 3 * 8;

/// The generated columns of a table, in row order.
pub struct TableData {
    cols: [Vec<i64>; 3],
}

impl TableData {
    /// `rows` rows generated from `seed`.
    pub fn generate(rows: usize, seed: u64) -> TableData {
        let ts = datagen::entropy_sweep::entropy_dial(rows, TS_DOMAIN, 0.05, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7231_5eed);
        let r1 = (0..rows).map(|_| rng.gen_range(0..R1_DOMAIN)).collect();
        let r2 = (0..rows).map(|_| rng.gen_range(0..R2_DOMAIN)).collect();
        TableData { cols: [ts, r1, r2] }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.cols[TS].len()
    }

    /// Column `c` (schema order).
    pub fn col(&self, c: usize) -> &[i64] {
        &self.cols[c]
    }

    /// Rows `range` as an append batch.
    pub fn batch(&self, range: std::ops::Range<usize>) -> Vec<AnyColumn> {
        self.cols
            .iter()
            .map(|c| AnyColumn::I64(c[range.clone()].iter().copied().collect()))
            .collect()
    }
}

/// One column predicate: a row matches when its value lies in any of the
/// inclusive intervals.
#[derive(Debug, Clone)]
pub struct Pred {
    col: usize,
    terms: Vec<(i64, i64)>,
}

impl Pred {
    fn range(col: usize, lo: i64, hi: i64) -> Pred {
        Pred { col, terms: vec![(lo, hi)] }
    }

    fn matches(&self, v: i64) -> bool {
        self.terms.iter().any(|&(lo, hi)| lo <= v && v <= hi)
    }

    fn token(&self) -> String {
        let name = COLUMNS[self.col];
        match self.terms.as_slice() {
            [(lo, hi)] if lo == hi => format!("{name}={lo}"),
            [(lo, hi)] => format!("{name}={lo}..{hi}"),
            points => {
                let items: Vec<String> = points.iter().map(|(v, _)| v.to_string()).collect();
                format!("{name}={}", items.join(","))
            }
        }
    }
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub struct Req {
    preds: Vec<Pred>,
    any: bool,
    /// `COUNT` (`true`) or `QUERY` (`false`).
    pub count_only: bool,
}

impl Req {
    /// The wire line.
    pub fn line(&self) -> String {
        let verb = if self.count_only { "COUNT" } else { "QUERY" };
        let mut line = format!("{verb} {TABLE}");
        if self.any {
            line.push_str(" OR");
        }
        for p in &self.preds {
            line.push(' ');
            line.push_str(&p.token());
        }
        line
    }

    /// Whether row `row` of `data` matches.
    fn matches(&self, data: &TableData, row: usize) -> bool {
        let hit = |p: &Pred| p.matches(data.cols[p.col][row]);
        if self.any {
            self.preds.iter().any(hit)
        } else {
            self.preds.iter().all(hit)
        }
    }

    /// The single `ts` interval of a narrow request.
    fn ts_interval(&self) -> Option<(i64, i64)> {
        match (self.preds.as_slice(), self.any) {
            ([p], false) if p.col == TS && p.terms.len() == 1 => Some(p.terms[0]),
            _ => None,
        }
    }
}

/// The narrow mix: `QUERY ts=lo..lo+16` alternating with `COUNT ts=lo..lo+209`.
pub fn narrow(rng: &mut StdRng, i: u64) -> Req {
    let lo = rng.gen_range(0..TS_DOMAIN - 210);
    if i.is_multiple_of(2) {
        Req { preds: vec![Pred::range(TS, lo, lo + 16)], any: false, count_only: false }
    } else {
        Req { preds: vec![Pred::range(TS, lo, lo + 209)], any: false, count_only: true }
    }
}

/// The wide mix, in rotation: a 10% r1 COUNT, a 1% r1 × 10% r2 QUERY
/// conjunction, and a COUNT over r2 as an IN-list or an OR group.
pub fn wide(rng: &mut StdRng, i: u64) -> Req {
    match i % 3 {
        0 => {
            let a = rng.gen_range(0..=R1_DOMAIN - 100);
            Req { preds: vec![Pred::range(R1, a, a + 99)], any: false, count_only: true }
        }
        1 => {
            let a = rng.gen_range(0..=R1_DOMAIN - 10);
            let b = rng.gen_range(0..=R2_DOMAIN - 10);
            Req {
                preds: vec![Pred::range(R1, a, a + 9), Pred::range(R2, b, b + 9)],
                any: false,
                count_only: false,
            }
        }
        _ if (i / 3).is_multiple_of(2) => {
            let mut vals: Vec<i64> = Vec::with_capacity(5);
            while vals.len() < 5 {
                let v = rng.gen_range(0..R2_DOMAIN);
                if !vals.contains(&v) {
                    vals.push(v);
                }
            }
            let terms = vals.into_iter().map(|v| (v, v)).collect();
            Req { preds: vec![Pred { col: R2, terms }], any: false, count_only: true }
        }
        _ => {
            let a = rng.gen_range(0..=R2_DOMAIN - 5);
            let b = rng.gen_range(0..=R2_DOMAIN - 5);
            Req {
                preds: vec![Pred::range(R2, a, a + 4), Pred::range(R2, b, b + 4)],
                any: true,
                count_only: true,
            }
        }
    }
}

/// A request generator (`narrow` or `wide`).
pub type Gen = fn(&mut StdRng, u64) -> Req;

/// A parsed reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// `OK <n> <ids…>` of a QUERY.
    Ids(Vec<u64>),
    /// `OK <n>` of a COUNT.
    Count(u64),
}

/// Parses a reply line to `req`; `None` for `ERR`, `BUSY` or a malformed
/// line.
pub fn parse_reply(req: &Req, line: &str) -> Option<Answer> {
    let mut fields = line.strip_prefix("OK")?.split_ascii_whitespace();
    let n: u64 = fields.next()?.parse().ok()?;
    if req.count_only {
        return fields.next().is_none().then_some(Answer::Count(n));
    }
    let ids: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    (ids.len() as u64 == n).then_some(Answer::Ids(ids))
}

/// Brute-force answer of `req` over the first `rows` rows of `data`.
pub fn brute_force(data: &TableData, req: &Req, rows: usize) -> Answer {
    let ids = (0..rows).filter(|&r| req.matches(data, r)).map(|r| r as u64);
    if req.count_only {
        Answer::Count(ids.count() as u64)
    } else {
        Answer::Ids(ids.collect())
    }
}

/// Exact, cheap answer counts for a table that does not change: a sorted
/// copy of `ts` for its ranges, and a 2-D prefix sum over `(r1, r2)` for
/// every predicate on those two columns.
pub struct StaticOracle<'a> {
    data: &'a TableData,
    ts_sorted: Vec<i64>,
    /// `prefix[a * (R2_DOMAIN + 1) + b]` = rows with `r1 < a` and `r2 < b`.
    prefix: Vec<u64>,
}

impl<'a> StaticOracle<'a> {
    /// Builds the oracle over `data`.
    pub fn new(data: &'a TableData) -> StaticOracle<'a> {
        let mut ts_sorted = data.col(TS).to_vec();
        ts_sorted.sort_unstable();
        let w = (R2_DOMAIN + 1) as usize;
        let mut prefix = vec![0u64; (R1_DOMAIN as usize + 1) * w];
        for (&a, &b) in data.col(R1).iter().zip(data.col(R2)) {
            prefix[(a as usize + 1) * w + b as usize + 1] += 1;
        }
        for a in 1..=R1_DOMAIN as usize {
            for b in 1..w {
                prefix[a * w + b] +=
                    prefix[(a - 1) * w + b] + prefix[a * w + b - 1] - prefix[(a - 1) * w + b - 1];
            }
        }
        StaticOracle { data, ts_sorted, prefix }
    }

    fn rect(&self, (a0, a1): (i64, i64), (b0, b1): (i64, i64)) -> u64 {
        let w = (R2_DOMAIN + 1) as usize;
        let at = |a: i64, b: i64| self.prefix[a as usize * w + b as usize];
        let (a1, b1) = (a1 + 1, b1 + 1);
        at(a1, b1) + at(a0, b0) - at(a0, b1) - at(a1, b0)
    }

    /// The number of rows `req` matches.
    pub fn count(&self, req: &Req) -> u64 {
        let merged = |p: &Pred| merge_intervals(p.terms.clone());
        if let Some((lo, hi)) = req.ts_interval() {
            let below = |v: i64| self.ts_sorted.partition_point(|&x| x < v) as u64;
            return below(hi + 1) - below(lo);
        }
        let full_r1 = vec![(0, R1_DOMAIN - 1)];
        let full_r2 = vec![(0, R2_DOMAIN - 1)];
        let (r1, r2) = if req.any {
            // Every OR group of the stream ranges over r2 alone.
            debug_assert!(req.preds.iter().all(|p| p.col == R2));
            let terms = req.preds.iter().flat_map(|p| p.terms.iter().copied()).collect();
            (full_r1, merge_intervals(terms))
        } else {
            let on = |col: usize, full: Vec<(i64, i64)>| {
                req.preds.iter().find(|p| p.col == col).map_or(full, merged)
            };
            (on(R1, full_r1), on(R2, full_r2))
        };
        r1.iter().flat_map(|&a| r2.iter().map(move |&b| (a, b))).map(|(a, b)| self.rect(a, b)).sum()
    }

    /// Whether `answer` is exactly `req`'s answer: counts must match, ids
    /// must be strictly increasing, in the table, matching, and as many as
    /// the oracle counts.
    pub fn check(&self, req: &Req, answer: &Answer) -> bool {
        match answer {
            Answer::Count(n) => req.count_only && *n == self.count(req),
            Answer::Ids(ids) => {
                !req.count_only
                    && ids.windows(2).all(|w| w[0] < w[1])
                    && ids.iter().all(|&id| {
                        (id as usize) < self.data.rows() && req.matches(self.data, id as usize)
                    })
                    && ids.len() as u64 == self.count(req)
            }
        }
    }
}

fn merge_intervals(mut terms: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    terms.sort_unstable();
    let mut out: Vec<(i64, i64)> = Vec::with_capacity(terms.len());
    for (lo, hi) in terms {
        match out.last_mut() {
            Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Answers for `ts` ranges over any row prefix of a growing table: for
/// every `ts` value, the ascending rows holding it.
pub struct PrefixOracle {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl PrefixOracle {
    /// Builds the oracle over all rows of `data`.
    pub fn new(data: &TableData) -> PrefixOracle {
        let ts = data.col(TS);
        let mut offsets = vec![0u32; TS_DOMAIN as usize + 2];
        for &v in ts {
            offsets[v as usize + 2] += 1;
        }
        for i in 2..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut rows = vec![0u32; ts.len()];
        for (r, &v) in ts.iter().enumerate() {
            let slot = &mut offsets[v as usize + 1];
            rows[*slot as usize] = r as u32;
            *slot += 1;
        }
        PrefixOracle { offsets, rows }
    }

    fn rows_of(&self, v: i64) -> &[u32] {
        &self.rows[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Matching row ids below `prefix`, ascending.
    fn ids_below(&self, (lo, hi): (i64, i64), prefix: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = (lo..=hi)
            .flat_map(|v| self.rows_of(v).iter().map(|&r| u64::from(r)).take_while(|&r| r < prefix))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether `answer` is `req`'s answer over some row prefix of length
    /// in `[lo_rows, hi_rows]` — the rows visible when the request was sent
    /// and when its reply arrived.
    pub fn check(&self, req: &Req, answer: &Answer, lo_rows: u64, hi_rows: u64) -> bool {
        let Some(interval) = req.ts_interval() else { return false };
        let upper = self.ids_below(interval, hi_rows);
        let lower = upper.partition_point(|&r| r < lo_rows) as u64;
        match answer {
            Answer::Count(n) => req.count_only && (lower..=upper.len() as u64).contains(n),
            Answer::Ids(ids) => {
                !req.count_only
                    && ids.len() as u64 >= lower
                    && ids.len() <= upper.len()
                    && ids[..] == upper[..ids.len()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_oracle_counts_match_brute_force() {
        let data = TableData::generate(20_000, 7);
        let oracle = StaticOracle::new(&data);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..64 {
            for req in [narrow(&mut rng, i), wide(&mut rng, i)] {
                let truth = brute_force(&data, &req, data.rows());
                let rows = match &truth {
                    Answer::Ids(ids) => ids.len() as u64,
                    Answer::Count(n) => *n,
                };
                assert_eq!(oracle.count(&req), rows, "{}", req.line());
                assert!(oracle.check(&req, &truth), "{}", req.line());
            }
        }
    }

    #[test]
    fn prefix_oracle_accepts_exactly_the_prefix_answers() {
        let data = TableData::generate(20_000, 3);
        let oracle = PrefixOracle::new(&data);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..64 {
            let req = narrow(&mut rng, i);
            let at_10k = brute_force(&data, &req, 10_000);
            assert!(oracle.check(&req, &at_10k, 5_000, 12_000));
            assert!(oracle.check(&req, &at_10k, 10_000, 10_000));
            let all = brute_force(&data, &req, 20_000);
            if all != brute_force(&data, &req, 12_000) {
                assert!(!oracle.check(&req, &all, 5_000, 12_000), "{}", req.line());
            }
        }
    }

    #[test]
    fn lines_and_replies_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        let lines: Vec<String> = (0..8).map(|i| wide(&mut rng, i).line()).collect();
        assert!(lines[0].starts_with("COUNT t r1="));
        assert!(lines[1].starts_with("QUERY t r1="));
        assert!(lines[2].starts_with("COUNT t r2=") && lines[2].contains(','));
        assert!(lines[5].starts_with("COUNT t OR r2="));
        let q = narrow(&mut rng, 0);
        assert_eq!(parse_reply(&q, "OK 2 4 9"), Some(Answer::Ids(vec![4, 9])));
        assert_eq!(parse_reply(&q, "OK 3 4 9"), None);
        assert_eq!(parse_reply(&q, "BUSY"), None);
        let c = narrow(&mut rng, 1);
        assert_eq!(parse_reply(&c, "OK 12"), Some(Answer::Count(12)));
        assert_eq!(parse_reply(&c, "ERR no"), None);
    }
}
